"""Config-driven experiment runner behind the ``bhl`` entry point.

Configs are flat INI files (one section level, key = value).  Every
CSV has a header row and a '#' footer block recording the config hash,
tolerances, and convergence flags -- and never a timestamp, so a rerun
of the same config is byte-identical.  Files are written to a temp
name and renamed into place.

Exit codes: 0 success, 1 numeric or criterion failure, 2 usage or
config errors.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import os
import sys
import tempfile

import numpy as np

from .acceptance import SUITES, run_suite
from .asymptotics import predict_explog, predict_standard, predict_symbol
from .errors import BhlError, ConfigError
from .hankel import PolynomialSymbol, polynomial_gram
from .rearrangement import SymbolDerivative, _r_push, level_measure
from .spectrum import singular_values
from .weights import RadialWeight, TauProfile, compute_moments, tau_profile


def _fmt(x):
    return format(float(x), ".17g")


_SCHEMA = {
    "weight": {"kind", "alpha", "beta"},
    "symbol": {"coeffs", "ce_gamma"},
    "truncation": {"n"},
    "quadrature": {"rel_tol"},
    "window": {"lo", "hi"},
    "rearrange": {"r_max", "t_lo", "t_hi", "points"},
    "output": {"path"},
    "verify": {"suite"},
}


class ExperimentConfig:
    """Validated view of one INI config file."""

    def __init__(self, path):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        try:
            cp.read_string(raw, source=path)
        except configparser.Error as e:
            raise ConfigError(f"config parse failure: {e}")
        for sec in cp.sections():
            if sec not in _SCHEMA:
                raise ConfigError(f"[{sec}]: unknown section")
            for key in cp[sec]:
                if key not in _SCHEMA[sec]:
                    raise ConfigError(f"[{sec}] {key}: unknown field")
        self._cp = cp
        self.sha256 = hashlib.sha256(raw.encode("utf-8")).hexdigest()

    def _get(self, sec, key, conv, default=None, required=False):
        if not self._cp.has_option(sec, key):
            if required:
                raise ConfigError(f"[{sec}] {key}: required field missing")
            return default
        raw = self._cp.get(sec, key)
        try:
            return conv(raw)
        except ValueError:
            raise ConfigError(f"[{sec}] {key}: cannot parse {raw!r}")

    def _param(self, key, kind, lo):
        """A required [weight] parameter with lo < value < inf; nan fails too."""
        v = self._get("weight", key, float)
        if v is None or not lo < v < np.inf:
            raise ConfigError(f"[weight] {key}: {kind} needs {lo:g} < {key} < inf, got {v}")
        return v

    def weight(self):
        kind = self._get("weight", "kind", str, required=True).strip().lower()
        if kind == "standard":
            return RadialWeight.standard(self._param("alpha", kind, -1.0))
        if kind == "explog":
            alpha, beta = self._param("alpha", kind, 0.0), self._param("beta", kind, 0.0)
            return RadialWeight.explog(alpha, beta)
        raise ConfigError(f"[weight] kind: unknown kind {kind!r} (standard | explog)")

    def tau(self):
        """Tau profile for rearrange runs: closed form or from the weight."""
        kind = self._get("weight", "kind", str, required=True).strip().lower()
        if kind == "tau_standard":
            return TauProfile.standard(self._param("alpha", kind, -1.0))
        if kind == "tau_ce":
            return TauProfile.ce(self._param("alpha", kind, 0.0))
        w = self.weight()
        mt = compute_moments(w, self.n(), rel_tol=self.rel_tol())
        return tau_profile(w, mt)

    def symbol_coeffs(self):
        raw = self._get("symbol", "coeffs", str)
        if raw is None:
            return None
        try:
            coeffs = [float(tok) for tok in raw.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"[symbol] coeffs: cannot parse {raw!r}")
        if not coeffs:
            raise ConfigError("[symbol] coeffs: empty coefficient list")
        if not np.all(np.isfinite(coeffs)):
            raise ConfigError(f"[symbol] coeffs: must be finite, got {raw!r}")
        return coeffs

    def polynomial_symbol(self):
        if self._get("symbol", "ce_gamma", float) is not None:
            raise ConfigError(
                "[symbol] ce_gamma: spectrum runs take a polynomial symbol only"
            )
        coeffs = self.symbol_coeffs()
        if coeffs is None:
            raise ConfigError("[symbol] coeffs: spectrum needs a polynomial symbol")
        return PolynomialSymbol(coeffs)

    def symbol_derivative(self):
        ce_gamma = self._get("symbol", "ce_gamma", float)
        coeffs = self.symbol_coeffs()
        if (ce_gamma is None) == (coeffs is None):
            raise ConfigError("[symbol]: give exactly one of coeffs or ce_gamma")
        if ce_gamma is not None:
            if not 1.0 < ce_gamma < np.inf:
                raise ConfigError(f"[symbol] ce_gamma: needs 1 < gamma < inf, got {ce_gamma}")
            return SymbolDerivative.ce_family(ce_gamma)
        return SymbolDerivative.from_symbol(PolynomialSymbol(coeffs))

    def n(self):
        n = self._get("truncation", "n", int, required=True)
        if n < 1:
            raise ConfigError(f"[truncation] n: must be >= 1, got {n}")
        return n

    def rel_tol(self):
        v = self._get("quadrature", "rel_tol", float, default=1e-12)
        # compute_moments takes (1e-14, 1e-3); above 1e-6 is too loose a table
        if not 1e-14 < v <= 1e-6:
            raise ConfigError(f"[quadrature] rel_tol: must lie in (1e-14, 1e-6], got {v}")
        return v

    def rearrange_params(self):
        r_max = self._get("rearrange", "r_max", float, default=0.99)
        t_lo = self._get("rearrange", "t_lo", float, default=1e-3)
        t_hi = self._get("rearrange", "t_hi", float, default=1e-1)
        points = self._get("rearrange", "points", int, default=13)
        if not 0.0 < r_max < 1.0:
            raise ConfigError(f"[rearrange] r_max: must lie in (0, 1), got {r_max}")
        if not 0.0 < t_lo < t_hi:
            raise ConfigError(f"[rearrange] t_lo/t_hi: need 0 < t_lo < t_hi")
        if points < 2:
            raise ConfigError(f"[rearrange] points: need >= 2, got {points}")
        return r_max, t_lo, t_hi, points

    def out_path(self):
        return self._get("output", "path", str)

    def suite(self):
        return self._get("verify", "suite", str, default="all").strip()


def _emit(path, header, rows, footer):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    lines.extend(f"# {k}: {v}" for k, v in footer)
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".bhl-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_moments(cfg, out):
    w = cfg.weight()
    mt = compute_moments(w, cfg.n(), rel_tol=cfg.rel_tol())
    src = mt.source
    rows = []
    for n in range(len(mt.values)):
        ratio = "nan" if n == 0 else _fmt(np.exp(mt.log_values[n] - mt.log_values[n - 1]))
        rows.append([str(n), _fmt(mt.values[n]), ratio])
    _emit(out, ["n", "moment", "ratio"], rows, [
        ("config sha256", cfg.sha256),
        ("weight", repr(w)),
        ("convention", "m[n] = 2*pi*int_0^1 r^(2n+1) omega(r) dr"),
        ("ratio column", "m[n]/m[n-1], nan at n=0"),
        ("rel_tol achieved", _fmt(mt.rel_tol)),
        ("moment route", src["route"]),
        ("intervals", "none" if src["intervals"] is None else str(src["intervals"])),
        ("check indices", " ".join(map(str, src["check_indices"])) or "none"),
        ("check rel diff", "none" if src["check_diff"] is None else _fmt(src["check_diff"])),
    ])
    return 0


def cmd_spectrum(cfg, out):
    w = cfg.weight()
    sym = cfg.polynomial_symbol()
    deriv = SymbolDerivative.from_symbol(sym)
    N = cfg.n()
    # the doubling check reads G_2N, which needs moments up to 2N - 1 + d
    mt = compute_moments(w, 2 * N - 1 + sym.degree, rel_tol=cfg.rel_tol())
    spec = singular_values(polynomial_gram(mt, sym, N))
    if w.kind == "standard":
        law = predict_symbol(predict_standard(w.alpha), deriv, 1.0)
    else:
        p = 2.0 * (1.0 + w.beta) / (2.0 + w.beta)
        law = predict_symbol(predict_explog(w.alpha, w.beta), deriv, p)
    ns = np.arange(1, len(spec.values) + 1)
    pred = law(ns)
    with np.errstate(invalid="ignore"):  # the zero symbol's ratio is 0/0: nan
        rows = [
            [str(n), _fmt(s), _fmt(pv), _fmt(s / pv)]
            for n, s, pv in zip(ns, spec.values, pred)
        ]
    _emit(out, ["n", "s_n", "predicted", "ratio"], rows, [
        ("config sha256", cfg.sha256),
        ("weight", repr(w)),
        ("symbol", repr(sym)),
        ("law", repr(law)),
        ("doubling test", "passed" if spec.converged else "skipped"),
        ("eig_tol", _fmt(spec.source["eig_tol"])),
        ("eig_residual", _fmt(spec.source["eig_residual"])),
        ("doubling_drift", _fmt(spec.source["doubling_drift"])),
        ("bandwidth_used", str(spec.source["bandwidth_used"])),
    ])
    return 0


def cmd_rearrange(cfg, out):
    tau = cfg.tau()
    deriv = cfg.symbol_derivative()
    r_max, t_lo, t_hi, points = cfg.rearrange_params()
    ts = np.logspace(np.log10(t_lo), np.log10(t_hi), points)
    # logspace rounds the ends (0.3 comes back as 0.29999999999999993)
    ts[0], ts[-1] = t_lo, t_hi
    rows = []
    Rs = []
    levels = []
    for t in ts:
        R = level_measure(tau, deriv, float(t), r_max)
        Rs.append(float(R))
        levels.append(str(R.level))
        rows.append([_fmt(t), _fmt(R), _fmt(R.refine_error), _fmt(R.r_max_delta)])
    with np.errstate(divide="ignore"):
        logR = np.log(Rs)
    finite = np.isfinite(logR)
    slope = (
        _fmt(np.polyfit(np.log(ts[finite]), logR[finite], 1)[0])
        if int(finite.sum()) >= 2
        else "nan"
    )
    _emit(out, ["t", "R", "refine_error", "r_max_delta"], rows, [
        ("config sha256", cfg.sha256),
        ("tau", tau.provenance),
        ("symbol", repr(deriv)),
        ("r_max", _fmt(r_max)),
        ("r_push", _fmt(_r_push(tau, r_max))),
        ("log-log slope", slope),
        ("levels", " ".join(levels)),
    ])
    return 0


def cmd_verify(cfg, out, human=False):
    suite = cfg.suite()
    if suite not in SUITES:
        raise ConfigError(f"[verify] suite: unknown suite {suite!r}; known: {sorted(SUITES)}")
    results = run_suite(suite)
    for r in results:
        print(r.line())
    if human:
        width = max(len(r.title) for r in results)
        print("-" * (width + 24))
        for r in results:
            print(f"  {r.number:2d}  {r.title:<{width}}  {'PASS' if r.passed else 'FAIL'}")
        n_bad = sum(not r.passed for r in results)
        print(f"suite {suite!r}: {len(results) - n_bad}/{len(results)} criteria passed")
    if out is not None:
        rows = [
            [str(r.number), r.title.replace(",", ";"), "PASS" if r.passed else "FAIL",
             format(r.seconds, ".3f"), r.detail.replace(",", ";")]
            for r in results
        ]
        _emit(out, ["criterion", "title", "status", "seconds", "detail"], rows, [
            ("config sha256", cfg.sha256),
            ("suite", suite),
        ])
    return 0 if all(r.passed for r in results) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="bhl",
        description="Hankel singular values on weighted Bergman spaces: "
        "moments, spectra, rearrangement geometry, verification.",
    )
    parser.add_argument(
        "command", choices=["moments", "spectrum", "rearrange", "verify", "report"]
    )
    parser.add_argument("--config", required=True, help="INI experiment config")
    parser.add_argument("--out", default=None, help="CSV output path (default stdout)")
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig(args.config)
        out = args.out if args.out is not None else cfg.out_path()
        if args.command == "moments":
            return cmd_moments(cfg, out)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out)
        if args.command == "rearrange":
            return cmd_rearrange(cfg, out)
        return cmd_verify(cfg, out, human=args.command == "report")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (BhlError, ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

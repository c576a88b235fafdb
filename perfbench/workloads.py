"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload is a fixed list of operations run in order by one caller, so
the next operation starts when the previous one returns.  Every
operation calls the public ``bhl`` API through module attributes
(``weights.compute_moments``, never a name bound at import), so the
traced run sees the calls when it wraps those attributes.  Each
operation checks its outputs against an independent reference at the
tolerance the acceptance criteria state, raises ``CheckMiss`` on a wrong
answer and returns a digest of its outputs, which later passes must
reproduce exactly.

``make_inputs`` draws every input from the seed before any timing
starts; the operations only read them.
"""

from __future__ import annotations

import time

import numpy as np

from bhl import asymptotics, hankel, rearrangement, spectrum, weights
from bhl.errors import BhlError

WORKLOADS = ("spectra", "geometry")


class CheckMiss(Exception):
    """An output missed its reference check (a wrong answer)."""

    def __init__(self, layer, message):
        super().__init__(message)
        self.layer = layer


def check(ok, layer, message):
    if not ok:
        raise CheckMiss(layer, message)


class Op:
    """One checked operation: a name, the layer it loads most, a callable."""

    def __init__(self, name, layer, fn):
        self.name = name
        self.layer = layer
        self.fn = fn


class Outcome:
    """The result of one operation in one pass."""

    def __init__(self, op, digest=None, error=None, layer=None, wrong=False):
        self.op = op
        self.seconds = 0.0
        self.digest = digest
        self.error = error  # error type name, "CheckMiss" for a wrong answer
        self.layer = layer  # the bhl module the failure belongs to
        self.wrong = wrong
        self.detail = ""

    @property
    def failed(self):
        return self.error is not None


def _raising_layer(exc):
    """The bhl module whose code raised exc: the innermost bhl frame."""
    layer = None
    tb = exc.__traceback__
    while tb is not None:
        parts = tb.tb_frame.f_code.co_filename.replace("\\", "/").split("/")
        if len(parts) >= 2 and parts[-2] == "bhl":
            layer = parts[-1].removesuffix(".py")
        tb = tb.tb_next
    return layer


def run_op(op):
    """Run and time one operation; a BhlError or a check miss is counted, not fatal."""
    t0 = time.perf_counter()
    try:
        out = Outcome(op, digest=op.fn())
    except CheckMiss as exc:
        out = Outcome(op, error="CheckMiss", layer=exc.layer, wrong=True)
        out.detail = str(exc)
    except BhlError as exc:
        out = Outcome(op, error=type(exc).__name__, layer=_raising_layer(exc) or op.layer)
        out.detail = str(exc)
    out.seconds = time.perf_counter() - t0
    return out


# ---------------------------------------------------------------- inputs


def _stratified(rng, lo, hi, k, log=False):
    """k draws, one uniform draw in each of k equal strata of [lo, hi)."""
    a, b = (np.log(lo), np.log(hi)) if log else (lo, hi)
    x = a + (b - a) * (np.arange(k) + rng.uniform(size=k)) / k
    return [float(v) for v in (np.exp(x) if log else x)]


def make_inputs(workload, seed):
    """All inputs of a workload, drawn from the seed as plain floats."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "spectra":
        return {
            "c_cubic": float(rng.uniform(0.1, 0.5)),
            "c_quadratic": float(rng.uniform(0.1, 0.9)),
        }
    if workload == "geometry":
        return {
            "radial_levels": _stratified(rng, 0.05, 1.7, 60),
            "c": float(rng.uniform(0.1, 0.5)),
            "level_nonradial": float(rng.uniform(0.2, 1.0)),
        }
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------- checks


def _check_standard_moments(mt, alpha):
    # criterion 1's tolerance, over the whole table
    n = np.arange(mt.n_max + 1)
    exact = weights.moment_closed_form_standard(alpha, n)
    worst = float(np.max(np.abs(mt.values - exact) / exact))
    check(worst <= 1e-10, "weights", f"moment rel err {worst:.2e} > 1e-10 (alpha={alpha})")


def _tau_standard0():
    return weights.TauProfile.user_supplied(lambda r: np.sqrt(np.pi) * (1.0 - np.asarray(r) ** 2))


def _tau_ce():
    # the CLI's tau_ce profile with alpha = 1
    return weights.TauProfile.user_supplied(
        lambda r: (1.0 - np.asarray(r, float)) / (1.0 - np.log1p(-np.asarray(r, float)))
    )


# ---------------------------------------------------------------- spectra


def _section_op(name, weight, coeffs, N, extra=None):
    """The ``bhl spectrum`` chain on one section, checked against its law."""

    def op():
        w = weight()
        sym = hankel.PolynomialSymbol(coeffs)
        mt = weights.compute_moments(w, 2 * N - 1 + 2 * sym.degree + 1)
        if w.kind == "standard":
            _check_standard_moments(mt, w.alpha)
        G = hankel.polynomial_gram(mt, sym, N)
        spec = spectrum.singular_values(G)
        check(spec.converged is True, "spectrum", "doubling test did not pass")
        deriv = rearrangement.SymbolDerivative.from_symbol(sym)
        if w.kind == "standard":
            p = 1.0
            base = asymptotics.predict_standard(w.alpha)
        else:
            p = 2.0 * (1.0 + w.beta) / (2.0 + w.beta)
            base = asymptotics.predict_explog(w.alpha, w.beta)
        law = asymptotics.predict_symbol(base, deriv, p)
        lo, hi = N // 8, N // 2
        e_hat, _, _ = asymptotics.fit_power_law(spec, (lo, hi))
        L = law.gamma * law.symbol_factor
        D, d = spectrum.psi_functionals(spec, p, L**-p, (spec.values[hi - 1], spec.values[lo - 1]))
        # criterion 4's 5% window around the predicted law, on the half
        # of the section the doubling test certifies
        n = np.arange(lo, hi + 1)
        ratio = spec.values[lo - 1 : hi] / law(n)
        check(
            0.95 <= ratio.min() and ratio.max() <= 1.05,
            "spectrum",
            f"s_n / law in [{ratio.min():.4f}, {ratio.max():.4f}], outside 1 +/- 0.05",
        )
        check(abs(e_hat / law.exponent - 1.0) <= 0.05, "asymptotics",
              f"fitted exponent {e_hat:.4f} vs law {law.exponent:.4f}")
        check(abs(D - 1.0) <= 0.05 and abs(d - 1.0) <= 0.05, "spectrum",
              f"psi window statistics ({D:.4f}, {d:.4f}) outside 1 +/- 0.05")
        if extra is not None:
            extra(w, G, spec)
        return (float(np.sum(spec.values)), float(spec.values[0]), e_hat, D, d)

    return Op(name, "spectrum", op)


def _oracle_block(w, G, spec):
    # criterion 5's 1e-8 on the 30 x 30 leading block
    dense, _ = hankel.dense_gram_oracle(w, G.symbol, 30)
    diff = float(np.max(np.abs(G.to_dense()[:30, :30] - dense)))
    check(diff <= 1e-8, "hankel", f"gram vs dense oracle diff {diff:.2e} > 1e-8")


def _cubic_monomial_law(w, G, spec):
    # criterion 4: n s_n -> 3 for phi = z^3, within 5%
    n = np.arange(G.size // 4, G.size // 2 + 1)
    v = spec.values[n - 1] * n
    check(2.85 <= v.min() and v.max() <= 3.15, "spectrum",
          f"n s_n for z^3 in [{v.min():.4f}, {v.max():.4f}], outside 3 +/- 5%")


def _standard_law_window(w, G, spec):
    # criterion 2: s_n (n+1)/sqrt(alpha+1) in [0.99, 1.01] for n in [100, 2000]
    n = np.arange(100, 2001)
    ratio = spec.values[99:2000] * (n + 1.0) / np.sqrt(w.alpha + 1.0)
    check(0.99 <= ratio.min() and ratio.max() <= 1.01, "spectrum",
          f"standard law ratio in [{ratio.min():.5f}, {ratio.max():.5f}], outside [0.99, 1.01]")


def spectra_ops(inp):
    def std0():
        return weights.RadialWeight.standard(0.0)

    def explog11():
        return weights.RadialWeight.explog(1.0, 1.0)

    c3, c2 = inp["c_cubic"], inp["c_quadratic"]
    return [
        # bandwidth 2: the eigen residual check and its doubling section
        _section_op("z+cz^3 N=800", std0, [1.0, 0.0, c3], 800, _oracle_block),
        # bandwidth 2 with off-diagonals exactly 0.0
        _section_op("z^3 N=800", std0, [0.0, 0.0, 1.0], 800, _cubic_monomial_law),
        # tridiagonal
        _section_op("z+cz^2 N=1200", std0, [1.0, c2], 1200),
        # diagonal sections: no LAPACK call at all
        _section_op("z explog(1,1) N=2000", explog11, [1.0], 2000),
        _section_op("z standard(0) N=2005", std0, [1.0], 2005, _standard_law_window),
    ]


# ---------------------------------------------------------------- geometry


# Criterion 10's levels, not drawn from the seed: the local log-log
# slope of R(t) runs from -0.35 to -1.8 over [1e-3, 1e-1], so the fitted
# slope lies in -1.2 +/- 0.06 only on the criterion's design.  Nine
# log-stratified levels from the same range fit slopes from -1.30 to
# -1.14, outside the window on about 6% of seeds.
CE_LEVELS = tuple(float(t) for t in np.logspace(-3, -1, 13))


def _ce_sweep_ops(levels):
    """``bhl rearrange`` on the Cauchy-type symbol, then criterion 10's slope.

    One operation per level, so that each level's fastest repeat is
    timed on its own; the last operation fits the slope to the levels
    measured in the same pass and counts as a miss if any is missing.
    """
    measured = {}

    def level_op(t):
        def op():
            measured.pop(t, None)
            R = rearrangement.level_measure(_tau_ce(), rearrangement.SymbolDerivative.ce_family(1.5), t, 0.99)
            check(np.isfinite(R.r_max_delta) and R.r_max_delta >= 0.0, "rearrangement",
                  f"r_max check returned {R.r_max_delta} at t={t}")
            measured[t] = float(R)
            return (measured[t],)

        return Op(f"ce level t={t:.5f}", "rearrangement", op)

    def slope_op():
        check(all(t in measured for t in levels), "rearrangement", "CE sweep has failed levels")
        slope = float(np.polyfit(np.log(levels), np.log([measured[t] for t in levels]), 1)[0])
        check(abs(slope + 1.2) <= 0.06, "rearrangement", f"CE log-log slope {slope:.4f} vs -1.2 +/- 0.06")
        return (slope,)

    return [level_op(t) for t in levels] + [Op("ce slope", "rearrangement", slope_op)]


def _radial_op(t):
    """Criterion 7 at one level: R(t) closed form and R+(R(t)) >= t."""

    def op():
        tau = _tau_standard0()
        dz = rearrangement.SymbolDerivative.polynomial([1.0])
        r_max = 1.0 - 1e-5
        R = float(rearrangement.level_measure(tau, dz, t, r_max, check_r_max=False))
        exact = np.sqrt(np.pi) / t - 1.0
        err = abs(R - exact) / exact
        check(err <= 1e-4, "rearrangement", f"R({t}) rel err {err:.2e} > 1e-4")
        rp = rearrangement.rearrangement_plus(tau, dz, R, r_max)
        short = (t - rp) / t
        check(short <= 1e-3, "rearrangement", f"R+(R({t})) shortfall {short:.2e} > 1e-3")
        return (R, rp)

    return Op(f"radial t={t:.4f}", "rearrangement", op)


def _nonradial_op(c, t):
    def op():
        tau = _tau_standard0()
        deriv = rearrangement.SymbolDerivative.polynomial([1.0, 2.0 * c])
        R = float(rearrangement.level_measure(tau, deriv, t, 0.99))
        rp = rearrangement.rearrangement_plus(tau, deriv, R, 0.99)
        short = (t - rp) / t
        check(short <= 1e-3, "rearrangement", f"non-radial R+(R({t})) shortfall {short:.2e} > 1e-3")
        return (R, rp)

    return Op(f"non-radial R+ c={c:.4f}", "rearrangement", op)


def _trace_op(c):
    # h(x) = x^2 makes the integrand |phi'|^2 dA whatever tau is, and for
    # phi' = 1 + 2cz that is pi (rho^2 + 2 c^2 rho^4) exactly; 1e-4 is
    # criterion 7's tolerance for the same quadrature
    def op():
        tau = _tau_standard0()
        deriv = rearrangement.SymbolDerivative.polynomial([1.0, 2.0 * c])
        rho = 0.99
        val = float(rearrangement.trace_integral(tau, deriv, lambda x: np.asarray(x) ** 2, rho))
        exact = np.pi * (rho**2 + 2.0 * c * c * rho**4)
        err = abs(val - exact) / exact
        check(err <= 1e-4, "rearrangement", f"trace integral rel err {err:.2e} > 1e-4")
        return (val,)

    return Op(f"trace integral c={c:.4f}", "rearrangement", op)


def _lattice_op(c):
    # build_lattice verifies its own covering and raises CoveringError
    def op():
        tau = _tau_standard0()
        lat = rearrangement.build_lattice(tau, 0.1, 0.99)
        check(len(lat) > 0 and lat.multiplicity >= 1, "rearrangement", "empty lattice")
        deriv = rearrangement.SymbolDerivative.polynomial([1.0, 2.0 * c])
        total = rearrangement.besov_sum(lat, deriv, 2.0)
        check(np.isfinite(total) and total > 0.0, "rearrangement", f"besov sum {total}")
        return (len(lat), lat.multiplicity, total)

    return Op("lattice + besov", "rearrangement", op)


def geometry_ops(inp):
    c = inp["c"]
    ops = _ce_sweep_ops(CE_LEVELS)
    ops += [_radial_op(t) for t in inp["radial_levels"]]
    ops += [_nonradial_op(c, inp["level_nonradial"]), _trace_op(c), _lattice_op(c)]
    return ops


def build_ops(workload, inputs):
    return {"spectra": spectra_ops, "geometry": geometry_ops}[workload](inputs)

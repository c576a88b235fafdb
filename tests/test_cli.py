import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bhl import cli
from bhl.rearrangement import SymbolDerivative, level_measure
from bhl.weights import TauProfile


def run(tmp_path, text, command, out_name=None):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg)]
    out = None
    if out_name is not None:
        out = tmp_path / out_name
        argv += ["--out", str(out)]
    return cli.main(argv), out


MOMENTS_STD0 = """\
[weight]
kind = standard
alpha = 0.0

[truncation]
n = 5
"""


def test_moments_exact_values(tmp_path):
    code, out = run(tmp_path, MOMENTS_STD0, "moments", "m.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,moment,ratio"
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    vals = np.array([float(r[1]) for r in rows])
    np.testing.assert_allclose(vals, 1.0 / (np.arange(6) + 1.0), rtol=1e-12)
    assert rows[0][2] == "nan"
    assert abs(float(rows[3][2]) - 0.75) < 1e-12  # m[3]/m[2]
    footer = [l for l in lines if l.startswith("#")]
    assert any("config sha256" in l for l in footer)
    assert any("rel_tol" in l for l in footer)


def test_moments_deterministic_bytes(tmp_path):
    _, out1 = run(tmp_path, MOMENTS_STD0, "moments", "a.csv")
    _, out2 = run(tmp_path, MOMENTS_STD0, "moments", "b.csv")
    assert out1.read_bytes() == out2.read_bytes()


def test_moments_footer_records_route(tmp_path):
    explog = "[weight]\nkind = explog\nalpha = 1.0\nbeta = 1.0\n\n[truncation]\nn = 300\n"
    for text, route in ((MOMENTS_STD0.replace("n = 5", "n = 500"), "product"),
                        (explog, "trapezoid")):
        _, out1 = run(tmp_path, text, "moments", "a.csv")
        _, out2 = run(tmp_path, text, "moments", "b.csv")
        assert out1.read_bytes() == out2.read_bytes()
        footer = dict(
            l[2:].split(": ", 1) for l in out1.read_text().splitlines() if l.startswith("#")
        )
        assert footer["moment route"] == route
        idx = [int(n) for n in footer["check indices"].split()]
        assert len(idx) == 6 and idx[0] == 1 and idx[-1] == (500 if route == "product" else 300)
        assert 0.0 <= float(footer["check rel diff"]) <= 1e-12
        assert footer["intervals"] == ("none" if route == "product" else "128")
        assert "n_split" not in footer


def test_output_section_fallback(tmp_path):
    target = tmp_path / "fromcfg.csv"
    text = MOMENTS_STD0 + f"\n[output]\npath = {target}\n"
    code, _ = run(tmp_path, text, "moments")
    assert code == 0 and target.exists()


def test_config_unparsable_value(tmp_path, capsys):
    code, _ = run(tmp_path, MOMENTS_STD0.replace("0.0", "potato"), "moments")
    assert code == 2
    err = capsys.readouterr().err
    assert "[weight] alpha" in err


def test_config_unknown_field(tmp_path, capsys):
    code, _ = run(tmp_path, MOMENTS_STD0 + "frobnicate = 3\n", "moments")
    assert code == 2
    assert "frobnicate" in capsys.readouterr().err


def test_config_unknown_section(tmp_path):
    code, _ = run(tmp_path, MOMENTS_STD0 + "\n[mystery]\nx = 1\n", "moments")
    assert code == 2


def test_config_missing_truncation(tmp_path):
    code, _ = run(tmp_path, "[weight]\nkind = standard\nalpha = 0.0\n", "moments")
    assert code == 2


def test_config_bad_weight_parameters(tmp_path):
    code, _ = run(tmp_path, MOMENTS_STD0.replace("0.0", "-2.0"), "moments")
    assert code == 2


# a nan or infinite weight parameter is a config error that names the
# field, not a numerical failure (exit 1) in the weight or tau profile
@pytest.mark.parametrize("kind, field, value, command", [
    ("standard", "alpha", "inf", "moments"),
    ("explog", "alpha", "inf", "moments"),
    ("explog", "alpha", "nan", "moments"),
    ("explog", "beta", "inf", "moments"),
    ("explog", "beta", "nan", "moments"),
    ("tau_standard", "alpha", "inf", "rearrange"),
    ("tau_ce", "alpha", "inf", "rearrange"),
    ("tau_ce", "alpha", "nan", "rearrange"),
])
def test_non_finite_weight_parameter_is_a_config_error(tmp_path, capsys, kind, field, value,
                                                       command):
    params = {"alpha": "1.0", "beta": "1.0", field: value}
    text = (f"[weight]\nkind = {kind}\nalpha = {params['alpha']}\nbeta = {params['beta']}\n"
            "\n[symbol]\ncoeffs = 1.0\n\n[truncation]\nn = 5\n")
    code, _ = run(tmp_path, text, command)
    assert code == 2
    assert f"[weight] {field}" in capsys.readouterr().err


@pytest.mark.parametrize("rel_tol", ["1e-15", "1e-14", "2e-6", "0.0", "nan"])
def test_rel_tol_outside_the_moment_range_is_a_config_error(tmp_path, capsys, rel_tol):
    # compute_moments takes rel_tol in (1e-14, 1e-3): 1e-15 used to pass
    # the config check and exit 1 from the weights layer
    code, _ = run(tmp_path, MOMENTS_STD0 + f"\n[quadrature]\nrel_tol = {rel_tol}\n", "moments")
    assert code == 2
    assert "[quadrature] rel_tol" in capsys.readouterr().err


def test_rel_tol_at_the_top_of_its_range_runs(tmp_path):
    code, _ = run(tmp_path, MOMENTS_STD0 + "\n[quadrature]\nrel_tol = 1e-6\n", "moments", "m.csv")
    assert code == 0


def test_unknown_command_rejected(tmp_path):
    cfg = tmp_path / "c.ini"
    cfg.write_text(MOMENTS_STD0)
    with pytest.raises(SystemExit):
        cli.main(["frobnicate", "--config", str(cfg)])


SPECTRUM_STD0 = """\
[weight]
kind = standard
alpha = 0.0

[symbol]
coeffs = 1.0

[truncation]
n = 60
"""


def test_spectrum_run(tmp_path):
    code, out = run(tmp_path, SPECTRUM_STD0, "spectrum", "s.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,s_n,predicted,ratio"
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 60
    s1 = float(rows[0][1])
    assert abs(s1 - np.sqrt(0.5)) < 1e-10
    # predicted column is 1/(n+1); the ratio drifts to 1 along the tail
    assert abs(float(rows[-1][3]) - 1.0) < 0.01
    assert any("doubling test: passed" in l for l in lines)


def test_spectrum_of_the_zero_symbol(tmp_path, capsys):
    # s_n = 0 passes the doubling test; the ratio column is 0/0, written
    # as nan with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, SPECTRUM_STD0.replace("coeffs = 1.0", "coeffs = 0"),
                        "spectrum", "s.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 60
    assert all(r[1:] == ["0", "0", "nan"] for r in rows)
    assert "# doubling test: passed" in lines
    assert "Warning" not in capsys.readouterr().err


def test_spectrum_deterministic_bytes(tmp_path):
    quadratic = SPECTRUM_STD0.replace("coeffs = 1.0", "coeffs = 1.0, 0.25")
    _, out1 = run(tmp_path, quadratic, "spectrum", "a.csv")
    _, out2 = run(tmp_path, quadratic, "spectrum", "b.csv")
    assert out1.read_bytes() == out2.read_bytes()
    footer = dict(
        l[2:].split(": ", 1) for l in out1.read_text().splitlines() if l.startswith("#")
    )
    assert footer["eig_tol"] == "1e-10"
    assert footer["bandwidth_used"] == "1"
    assert 0.0 < float(footer["eig_residual"]) <= 1e-14
    assert 0.0 <= float(footer["doubling_drift"]) <= 1e-6


def test_spectrum_moment_table_ends_where_the_doubled_section_reads(tmp_path, monkeypatch):
    # the doubling check reads G_2N, whose band needs moments up to 2N - 1 + d
    requested = []
    real = cli.compute_moments

    def recording(w, n_max, **kw):
        requested.append(n_max)
        return real(w, n_max, **kw)

    monkeypatch.setattr(cli, "compute_moments", recording)
    quadratic = SPECTRUM_STD0.replace("coeffs = 1.0", "coeffs = 1.0, 0.25")
    code, _ = run(tmp_path, quadratic, "spectrum", "s.csv")
    assert code == 0
    assert requested == [2 * 60 - 1 + 2]


def test_spectrum_requires_polynomial(tmp_path):
    code, _ = run(tmp_path, SPECTRUM_STD0.replace("coeffs = 1.0", "ce_gamma = 1.5"),
                  "spectrum")
    assert code == 2


def test_symbol_needs_exactly_one_form(tmp_path):
    both = SPECTRUM_STD0.replace("coeffs = 1.0", "coeffs = 1.0\nce_gamma = 1.5")
    code, _ = run(tmp_path, both, "spectrum")
    assert code == 2


REARRANGE = """\
[weight]
kind = tau_standard
alpha = 0.0

[symbol]
coeffs = 1.0

[rearrange]
r_max = 0.99
t_lo = 0.3
t_hi = 1.5
points = 5
"""


def test_rearrange_run(tmp_path):
    code, out = run(tmp_path, REARRANGE, "rearrange", "r.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,R,refine_error,r_max_delta"
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    Rs = [float(r[1]) for r in rows]
    assert all(a > b for a, b in zip(Rs, Rs[1:]))  # decreasing in t
    exact = np.sqrt(np.pi) / 0.3 - 1.0
    assert abs(Rs[0] - exact) / exact < 5e-3  # r_max=0.99 truncates a little
    assert any("log-log slope" in l for l in lines)


def test_rearrange_rows_start_and_end_at_the_configured_levels(tmp_path):
    # logspace alone gives 0.29999999999999993 for t_lo = 0.3
    _, out = run(tmp_path, REARRANGE, "rearrange", "r.csv")
    rows = [l.split(",") for l in out.read_text().splitlines()[1:] if not l.startswith("#")]
    assert rows[0][0] == cli._fmt(0.3) and rows[-1][0] == cli._fmt(1.5)


def test_rearrange_deterministic_bytes(tmp_path):
    _, out1 = run(tmp_path, REARRANGE, "rearrange", "a.csv")
    _, out2 = run(tmp_path, REARRANGE, "rearrange", "b.csv")
    assert out1.read_bytes() == out2.read_bytes()
    footer = dict(
        l[2:].split(": ", 1) for l in out1.read_text().splitlines() if l.startswith("#")
    )
    assert float(footer["r_max"]) == 0.99
    assert float(footer["r_push"]) == 0.995


def _rerun_bytes(tmp_path, text, command):
    """Run a config twice: its exit codes, the CSV text and its footer."""
    code1, out1 = run(tmp_path, text, command, "a.csv")
    code2, out2 = run(tmp_path, text, command, "b.csv")
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    footer = dict(l[2:].split(": ", 1) for l in text.splitlines() if l.startswith("#"))
    return text, footer


# the README's rearrangement example
REARRANGE_CE = """\
[weight]
kind = tau_ce
alpha = 1.0

[symbol]
ce_gamma = 1.5

[rearrange]
r_max = 0.99
t_lo = 1e-3
t_hi = 1e-1
points = 13
"""


def test_rearrange_readme_ce_config(tmp_path):
    _, footer = _rerun_bytes(tmp_path, REARRANGE_CE, "rearrange")
    assert footer["tau"] == "UserSupplied"
    assert abs(float(footer["log-log slope"]) + 1.2) <= 0.06  # criterion 10's window


def test_rearrange_footer_records_each_rows_level(tmp_path):
    # the README CE config converges every row on mesh level 1
    text, footer = _rerun_bytes(tmp_path, REARRANGE_CE, "rearrange")
    ts = [float(l.split(",")[0]) for l in text.splitlines()[1:] if not l.startswith("#")]
    levels = [
        level_measure(TauProfile.ce(1.0), SymbolDerivative.ce_family(1.5), t, 0.99).level
        for t in ts
    ]
    assert footer["levels"] == " ".join(map(str, levels)) == " ".join(["1"] * 13)
    assert list(footer)[-1] == "levels"


def test_rearrange_tau_from_weight(tmp_path):
    # kind = standard takes tau from the weight's moment table (tau_profile)
    text = REARRANGE.replace("kind = tau_standard", "kind = standard")
    _, footer = _rerun_bytes(tmp_path, text + "\n[truncation]\nn = 2000\n", "rearrange")
    assert footer["tau"] == "FromWeight"


def test_spectrum_explog(tmp_path):
    explog = SPECTRUM_STD0.replace("kind = standard\nalpha = 0.0",
                                   "kind = explog\nalpha = 1.0\nbeta = 1.0")
    csv, footer = _rerun_bytes(tmp_path, explog.replace("n = 60", "n = 200"), "spectrum")
    assert footer["weight"] == "RadialWeight.explog(alpha=1.0, beta=1.0)"
    assert "exponent=0.75," in footer["law"]  # p = 2(1+beta)/(2+beta) = 4/3
    assert footer["doubling test"] == "passed"
    assert len([l for l in csv.splitlines()[1:] if not l.startswith("#")]) == 200


@pytest.mark.parametrize("gamma", ["1.0", "0.5", "inf", "nan"])
def test_ce_gamma_outside_one_to_inf_is_a_config_error(tmp_path, capsys, gamma):
    code, _ = run(tmp_path, REARRANGE_CE.replace("ce_gamma = 1.5", f"ce_gamma = {gamma}"),
                  "rearrange")
    assert code == 2
    assert "[symbol] ce_gamma" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "rearrange"])
@pytest.mark.parametrize("coeffs", ["nan", "1.0, inf", "1.0 -inf"])
def test_non_finite_symbol_coefficient_is_a_config_error(tmp_path, capsys, command, coeffs):
    base = SPECTRUM_STD0 if command == "spectrum" else REARRANGE
    code, _ = run(tmp_path, base.replace("coeffs = 1.0", f"coeffs = {coeffs}"), command)
    assert code == 2
    assert "[symbol] coeffs" in capsys.readouterr().err


def test_rearrange_r_max_beyond_profile(tmp_path):
    code, _ = run(tmp_path, REARRANGE.replace("0.99", "0.99999999999999"), "rearrange")
    assert code == 1  # numeric domain failure, not a config error


def test_verify_suite(tmp_path):
    code, out = run(tmp_path, "[verify]\nsuite = standard-cutoff\n", "verify", "v.csv")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "criterion,title,status,seconds,detail"
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 1 and rows[0][2] == "PASS"
    assert all(len(r) == 5 for r in rows)  # commas are sanitized out of text


def test_verify_unknown_suite(tmp_path):
    code, _ = run(tmp_path, "[verify]\nsuite = everything\n", "verify")
    assert code == 2


def test_report_prints_summary(tmp_path, capsys):
    code, _ = run(tmp_path, "[verify]\nsuite = standard-cutoff\n", "report")
    assert code == 0
    out = capsys.readouterr().out
    assert "criteria passed" in out
    assert "[PASS]" in out


# Run in a fresh interpreter: the rearrangement layer and `bhl rearrange`
# on a closed-form tau must not load scipy; a moment table and a banded
# eigensolve then do.  Prints every result as JSON (floats as hex).
_HYGIENE_CHILD = """\
import json, sys, threading
import numpy as np
from bhl import (PolynomialSymbol, RadialWeight, SymbolDerivative, TauProfile, besov_sum,
                 bloch_norm, build_lattice, cli, compute_moments, level_measure,
                 polynomial_gram, rearrangement_plus, singular_values, trace_integral)

configs, outdir = json.loads(sys.argv[1]), sys.argv[2]
out = {"geometry": []}
out["futures_on_import"] = "concurrent.futures" in sys.modules
out["scipy_on_import"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
for tau, deriv in ((TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0, 0.6])),
                   (TauProfile.ce(1.0), SymbolDerivative.ce_family(1.5))):
    R = level_measure(tau, deriv, 0.05, 0.9)
    values = (R, rearrangement_plus(tau, deriv, float(R), 0.9),
              trace_integral(tau, deriv, lambda x: np.asarray(x) ** 2, 0.9),
              bloch_norm(tau, deriv, r_max=0.9),
              besov_sum(build_lattice(tau, 0.3, 0.9), deriv, 2.0))
    out["geometry"].append([float(v).hex() for v in values])
out["csv"] = []
for i, text in enumerate(configs):
    with open(f"{outdir}/c{i}.ini", "w") as fh:
        fh.write(text)
    argv = ["rearrange", "--config", f"{outdir}/c{i}.ini", "--out", f"{outdir}/r{i}.csv"]
    assert cli.main(argv) == 0
    with open(f"{outdir}/r{i}.csv") as fh:
        out["csv"].append(fh.read())
out["scipy_before"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
mt = compute_moments(RadialWeight.standard(0.0), 10)
G = polynomial_gram(mt, PolynomialSymbol([1.0, 1.0]), 8)
spec = singular_values(G, check_doubling=False)
out["moments"] = [float(v).hex() for v in mt.log_values]
out["singular"] = [float(v).hex() for v in spec.values]
out["bandwidth"] = spec.source["bandwidth_used"]
out["scipy_after"] = "scipy.linalg" in sys.modules and "scipy.integrate" in sys.modules
# a doubling-tested spectrum joins the thread that solved the 2N section
G = polynomial_gram(compute_moments(RadialWeight.standard(0.0), 700),
                    PolynomialSymbol([1.0, 1.0]), 300)
out["doubled"] = [float(v).hex() for v in singular_values(G).values]
out["threads_after"] = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
print(json.dumps(out))
"""


def test_rearrangement_layer_and_cli_load_no_scipy(tmp_path):
    from bhl import (PolynomialSymbol, RadialWeight, besov_sum, bloch_norm, build_lattice,
                     compute_moments, polynomial_gram, rearrangement_plus, singular_values,
                     trace_integral)

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", _HYGIENE_CHILD, json.dumps([REARRANGE, REARRANGE_CE]),
         str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    assert child["scipy_on_import"] == [] and child["futures_on_import"] is False
    assert child["scipy_before"] == []
    assert child["scipy_after"]
    assert child["bandwidth"] == 1  # phi = z + z^2: a tridiagonal eigensolve
    # the same results as in this process, which has scipy loaded
    geometry = []
    for tau, deriv in ((TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0, 0.6])),
                       (TauProfile.ce(1.0), SymbolDerivative.ce_family(1.5))):
        R = level_measure(tau, deriv, 0.05, 0.9)
        values = (R, rearrangement_plus(tau, deriv, float(R), 0.9),
                  trace_integral(tau, deriv, lambda x: np.asarray(x) ** 2, 0.9),
                  bloch_norm(tau, deriv, r_max=0.9),
                  besov_sum(build_lattice(tau, 0.3, 0.9), deriv, 2.0))
        geometry.append([float(v).hex() for v in values])
    assert child["geometry"] == geometry
    for i, text in enumerate((REARRANGE, REARRANGE_CE)):
        _, out = run(tmp_path, text, "rearrange", f"here{i}.csv")
        assert child["csv"][i] == out.read_text()
    mt = compute_moments(RadialWeight.standard(0.0), 10)
    G = polynomial_gram(mt, PolynomialSymbol([1.0, 1.0]), 8)
    spec = singular_values(G, check_doubling=False)
    assert child["moments"] == [float(v).hex() for v in mt.log_values]
    assert child["singular"] == [float(v).hex() for v in spec.values]
    assert child["threads_after"] == []
    G = polynomial_gram(compute_moments(RadialWeight.standard(0.0), 700),
                        PolynomialSymbol([1.0, 1.0]), 300)
    assert child["doubled"] == [float(v).hex() for v in singular_values(G).values]

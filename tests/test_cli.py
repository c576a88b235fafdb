import numpy as np
import pytest

from bhl import cli


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
    for text, route in ((MOMENTS_STD0.replace("n = 5", "n = 500"), "product"), (explog, "panel")):
        _, out1 = run(tmp_path, text, "moments", "a.csv")
        _, out2 = run(tmp_path, text, "moments", "b.csv")
        assert out1.read_bytes() == out2.read_bytes()
        footer = dict(
            l[2:].split(": ", 1) for l in out1.read_text().splitlines() if l.startswith("#")
        )
        assert footer["moment route"] == route
        idx = [int(n) for n in footer["check indices"].split()]
        assert len(idx) == 6 and idx[-1] == (500 if route == "product" else 300)
        assert 0.0 <= float(footer["check rel diff"]) <= 1e-12
        if route == "product":
            assert footer["n_split"] == "none" and idx[0] == 1
        else:
            assert int(footer["n_split"]) == idx[0]


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

"""Self-test of the benchmark harness, and its known-defect probes.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

The harness tests check that the same seed gives the same inputs and
other seeds other inputs; that a BhlError inside an operation is counted
and reported with the operation, its error type and its layer while the
pass goes on; that a wrong answer is counted too; that the tracer's self
times add up and every wrapped attribute is restored; and that
BENCHMARK.json names exactly the metrics run.py prints.

The known-defect probes reproduce failures of the package found while
the benchmark was built.  The timed workloads leave these inputs out,
because the benchmark's operations must not fail.  The probes are not
tests: run as a script, this file prints after the tests whether each
defect is still present, and a fixed defect fails nothing.  Its inputs
may then join a workload in a benchmark change of its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import bhl  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from bhl import hankel, spectrum, weights  # noqa: E402
from bhl.errors import BhlError, QuadratureError  # noqa: E402


def test_inputs_follow_the_seed():
    for name in wl.WORKLOADS:
        assert wl.make_inputs(name, 7) == wl.make_inputs(name, 7)
        assert wl.make_inputs(name, 7) != wl.make_inputs(name, 8)
        assert len(wl.build_ops(name, wl.make_inputs(name, 7))) > 0


def test_bhl_error_is_counted_not_fatal():
    # alpha <= -1 is rejected by the package's own validation, so the
    # error comes from bhl/weights.py whatever the package fixes later
    def table():
        weights.compute_moments(weights.RadialWeight.standard(-2.0), 10)

    ops = [wl.Op("bad weight", "spectrum", table), wl.Op("ok", "weights", lambda: (1.0,))]
    passes = [[wl.run_op(op) for op in ops]]
    bad, good = passes[0]
    assert bad.failed and not bad.wrong
    assert (bad.error, bad.layer) == ("WeightDomainError", "weights")
    assert not good.failed and good.digest == (1.0,)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run._report_failures(passes)
    assert out.getvalue().startswith("failed: bad weight: WeightDomainError in weights")


def test_wrong_answer_is_counted():
    def miss():
        wl.check(False, "spectrum", "deliberate miss")

    out = wl.run_op(wl.Op("miss", "spectrum", miss))
    assert out.failed and out.wrong and (out.error, out.layer) == ("CheckMiss", "spectrum")

    digests = iter([(1.0,), (2.0,)])
    op = wl.Op("drifts", "hankel", lambda: next(digests))
    passes = [[wl.run_op(op)], [wl.run_op(op)]]
    run._mark_unreproduced(passes)
    assert not passes[0][0].failed
    assert passes[1][0].wrong and passes[1][0].error == "NotReproduced"


def test_tracer_self_time_and_restore():
    original = spectrum.symmetric_eigenvalues
    mt = weights.compute_moments(weights.RadialWeight.standard(0.0), 120)
    G = hankel.polynomial_gram(mt, hankel.PolynomialSymbol([1.0, 0.5]), 50)
    tracer = spans.Tracer()
    with tracer:
        assert spectrum.symmetric_eigenvalues is not original
        assert bhl.symmetric_eigenvalues is spectrum.symmetric_eigenvalues
        t0 = time.perf_counter()
        spectrum.singular_values(G)
        wall = time.perf_counter() - t0
    assert spectrum.symmetric_eigenvalues is original
    assert bhl.symmetric_eigenvalues is original
    assert tracer.calls["spectrum.singular_values"] == 1
    assert tracer.calls["spectrum.symmetric_eigenvalues"] == 2  # N and the doubling 2N
    assert tracer.calls["hankel.polynomial_gram"] == 1  # the 2N section
    assert tracer.counts["spectrum.section_rows"] == 50 + 100
    assert all(v >= 0.0 for v in tracer.self_s.values())
    assert tracer.attributed_s() <= wall


def test_benchmark_json_matches_run():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.per_layer_names()
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert bench["command"] == ["python3", "perfbench/run.py"] and bench["paths"] == ["perfbench"]


# ------------------------------------------------------- known defects
# Each probe returns True while its defect is still present.


def probe_explog_panel_cross_check():
    # the panel rule under-resolves large beta, and the (10, 0.05) corner;
    # present while any of these tables raises at n = 3000
    present = False
    for alpha, beta in ((6.23, 0.0596), (10.0, 0.05), (1e-3, 30.0), (0.1, 30.0), (10.0, 30.0)):
        try:
            weights.compute_moments(weights.RadialWeight.explog(alpha, beta), 3000)
        except QuadratureError as exc:
            print(f"     explog({alpha}, {beta}) n=3000: QuadratureError: {exc}")
            present = True
    return present


def probe_custom_density_singular_at_the_boundary():
    # a custom density with an integrable singularity at r = 1 either
    # raises or returns moments far outside the requested tolerance
    present = False
    for alpha in (-0.77, -0.4):
        c = (alpha + 1.0) / np.pi
        w = weights.RadialWeight.custom(
            lambda r, c=c, alpha=alpha: c * (1.0 - np.asarray(r, dtype=float) ** 2) ** alpha,
            integrable_certified=True,
        )
        try:
            mt = weights.compute_moments(w, 500)
        except BhlError as exc:
            print(f"     custom alpha={alpha}: {type(exc).__name__}: {exc}")
            present = True
            continue
        exact = weights.moment_closed_form_standard(alpha, np.arange(mt.n_max + 1))
        worst = float(np.max(np.abs(mt.values - exact) / exact))
        if worst > 1e-10:
            print(f"     custom alpha={alpha}: moment rel err {worst:.2e} > 1e-10")
            present = True
    return present


def probe_tau_profile_near_the_origin():
    # the spline misses the 2e-6 of the package's tau_profile tests near
    # r = 0.0075 once alpha exceeds about 2
    alpha = 2.5
    w = weights.RadialWeight.standard(alpha)
    prof = weights.tau_profile(w, weights.compute_moments(w, 3000))
    r = np.linspace(0.0, 0.02, 81)
    exact = np.sqrt(np.pi / (alpha + 1.0)) * (1.0 - r * r)
    worst = float(np.max(np.abs(prof(r) / exact - 1.0)))
    print(f"     tau_profile alpha={alpha}: worst rel err {worst:.2e} near r = 0 (2e-6 allowed)")
    return worst > 2e-6


def main():
    failed = 0
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        t0 = time.perf_counter()
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
            continue
        print(f"ok   {name} ({time.perf_counter() - t0:.1f}s)")
    print(f"{len(tests) - failed} passed, {failed} failed")
    probes = [(name, fn) for name, fn in globals().items() if name.startswith("probe_")]
    for name, fn in probes:
        print(f"known defect {name.removeprefix('probe_')}:")
        print(f"     {'present' if fn() else 'fixed'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

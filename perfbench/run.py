"""Run one workload of the bhl benchmark and print its metrics.

    python3 perfbench/run.py --workload spectra --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's inputs are drawn from the seed, then passes
over the workload's fixed batch of operations repeat, one after the
other, while another pass still fits in ``--seconds``.  Every output is
checked in every pass (see ``workloads.py``), and every pass after the
first must reproduce the first pass's outputs exactly.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s``, the
seconds of one pass, summing each operation's fastest repeat;
``setup_s``, the median seconds to import bhl and draw the inputs in a
fresh interpreter, over set-up probes spread evenly between the passes;
and ``peak_rss_mb``, this process's peak resident memory.

With ``--trace 1`` untraced and traced passes alternate and the metrics
are the per-layer ones of ``spans.py``, averaged per traced pass, plus
the tracing overhead and the share of the traced wall time that no
wrapped function accounts for.

Lines before the last describe the environment, list failed operations
by name and error type, and give ``failed_frac``.  The last line is one
JSON object: ``correct`` (no wrong answers), ``attempted`` and
``failed`` (operations over all passes) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("spectra", "geometry")
SETUP_SAMPLES = 11


def _setup(workload, seed):
    """Import bhl and draw the inputs; return (workloads module, inputs, seconds)."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    return workloads, inputs, time.perf_counter() - t0


def _setup_probe(workload, seed):
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def _environment(workload, seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "bhl").glob("*.py")))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "commit": commit,
        "src_bhl_lines": lines,
    }


def _timed_pass(wl, ops):
    t0 = time.perf_counter()
    outcomes = [wl.run_op(op) for op in ops]
    return time.perf_counter() - t0, outcomes


def _pass_seconds(passes):
    """Seconds of one pass: each operation's fastest time over the passes, summed.

    On a shared 2-core VM the same pure-Python loop took 95 to 210 ms, in
    slow spells of seconds, with CPU time equal to wall time: outside
    load only ever adds time, so the fastest repeat of each operation
    is the steadiest estimate of its cost, and a spell that slows part
    of one pass does not reach the sum.
    """
    return sum(min(p[i].seconds for p in passes) for i in range(len(passes[0])))


def _mark_unreproduced(passes):
    """A pass whose outputs differ from the first pass's is a wrong answer."""
    ref = passes[0]
    for outcomes in passes[1:]:
        for out, first in zip(outcomes, ref):
            if not out.failed and (first.failed or out.digest != first.digest):
                out.error, out.layer, out.wrong = "NotReproduced", out.op.layer, True
                out.detail = "outputs differ from the first pass"


def _report_failures(passes):
    seen = Counter((o.op.name, o.error, o.layer, o.detail) for p in passes for o in p if o.failed)
    for (name, error, layer, detail), n in seen.items():
        print(f"failed: {name}: {error} in {layer} (x{n}): {detail}")


def _end_to_end(wl, workload, seed, ops, seconds):
    walls, passes, setups = [], [], []
    start = time.perf_counter()
    while True:
        wall, outcomes = _timed_pass(wl, ops)
        walls.append(wall)
        passes.append(outcomes)
        # spread the set-up probes over the run, so that their median
        # samples the machine's speed over the same span as the passes
        done = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setups) < SETUP_SAMPLES * done:
            setups.append(_setup_probe(workload, seed))
        if time.perf_counter() - start + wall > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_probe(workload, seed))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": {"value": _pass_seconds(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
    }
    print(f"passes: {len(walls)}, pass seconds: {', '.join(f'{w:.4f}' for w in walls)}")
    print(f"setup seconds: {', '.join(f'{s:.4f}' for s in setups)}")
    return passes, metrics


def _per_layer(wl, ops, seconds):
    from spans import Tracer, per_layer_names

    tracer = Tracer()
    plain, traced, unattributed = [], [], []
    totals = Counter()
    start = time.perf_counter()
    while True:
        wall_u, outcomes = _timed_pass(wl, ops)
        plain.append(outcomes)
        with tracer:
            tracer.reset()
            wall_t, outcomes = _timed_pass(wl, ops)
        traced.append(outcomes)
        unattributed.append((wall_t - tracer.attributed_s()) / wall_t)
        totals.update({f"{name}.s": v for name, v in tracer.self_s.items()})
        totals.update({f"{name}.calls": v for name, v in tracer.calls.items()})
        totals.update(tracer.counts)
        totals.update(f"{o.layer}.failed" for o in outcomes if o.failed)
        if time.perf_counter() - start + wall_u + wall_t > seconds:
            break
    k = len(traced)
    shares = {
        "trace_overhead_frac": _pass_seconds(traced) / _pass_seconds(plain) - 1.0,
        "unattributed_frac": statistics.mean(unattributed),
    }
    print(f"traced pairs: {k}, pass seconds untraced {_pass_seconds(plain):.4f}, "
          f"traced {_pass_seconds(traced):.4f}")
    metrics = {
        name: {"value": shares[name] if name in shares else totals[name] / k, "unit": unit}
        for name, unit in per_layer_names()
    }
    return plain + traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "bhl" / "__init__.py").is_file():
        print(f"error: no bhl package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # One BLAS thread here and in the set-up probes, set before numpy is
    # imported: the eigensolver work is rotation-bound and gains nothing
    # from a second thread, and one thread does not also time the load
    # on the other core.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if args.setup_probe:
        print(_setup(args.workload, args.seed)[2])
        return 0

    wl, inputs, _ = _setup(args.workload, args.seed)
    import bhl

    if Path(bhl.__file__).resolve().parent != (SRC / "bhl").resolve():
        print(f"error: imported bhl from {bhl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(_environment(args.workload, args.seed), sort_keys=True))
    print("inputs: " + json.dumps(inputs, sort_keys=True))

    ops = wl.build_ops(args.workload, inputs)
    if args.trace:
        passes, metrics = _per_layer(wl, ops, args.seconds)
    else:
        passes, metrics = _end_to_end(wl, args.workload, args.seed, ops, args.seconds)
    _mark_unreproduced(passes)
    _report_failures(passes)
    attempted = sum(len(p) for p in passes)
    failed = sum(o.failed for p in passes for o in p)
    print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted} operations)")
    result = {
        "correct": not any(o.wrong for p in passes for o in p),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --workload spectra --workload geometry \\
        --seeds 0-9 --trace 0 --out sweep.json

Each run is ``run.py`` in its own process, one after another.  For every
workload and metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, the distance
between the quartiles as a share of the median, which is how the
benchmark's steadiness is judged against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
        "n": len(values),
        "values": values,
    }


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"), help="e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workload or names:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            line = ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()
                             if k in bounds or args.trace)
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}, {line}", flush=True)
        metrics = {
            name: dict(summarise([r["metrics"][name]["value"] for r in runs]),
                       unit=runs[0]["metrics"][name]["unit"])
            for name in runs[0]["metrics"]
        }
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and m["spread"] is not None:
                flag = "  ok" if m["spread"] < bound / 3 else "  WIDE (>= bound/3)"
            if bound is not None or args.trace:
                spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
                print(f"  {workload} {name}: median {m['median']:.6g} {m['unit']}, "
                      f"quartiles [{m['q1']:.6g}, {m['q3']:.6g}], spread {spread}{flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

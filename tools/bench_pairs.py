"""Run the benchmark on two checkouts in alternating pairs and write one JSON file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR \\
        --pairs geometry:4100:10 --pairs spectra:4200:3 --traced geometry:4300 \\
        --out BENCH.json

``--pairs WORKLOAD:FIRST_SEED:COUNT`` runs COUNT pairs on seeds
FIRST_SEED, FIRST_SEED + 1, ...; each pair runs the benchmark command of
``BENCHMARK.json`` (``perfbench/run.py``) with ``--trace 0`` once in each
checkout, the parent first on even seeds and the change first on odd
ones.  ``--traced WORKLOAD:SEED`` adds one ``--trace 1`` run per side.
Every run lasts ``run_seconds`` of ``BENCHMARK.json``.

The JSON file holds every run's ``env:`` line and last-line JSON, and
per workload and end-to-end metric the (parent, change) pairs, each
side's median and quartiles, how many pairs the change read lower, the
metric's ``bound`` from ``BENCHMARK.json`` and ``within_bound``: whether
the change's median is at most the parent's median times (1 + bound).
``resolved`` is false when the parent's quartile spread over its median
exceeds the bound, so that the runs cannot show a change of that size,
unless every change run is better than every parent run in the metric's
``better`` direction.
``src_bhl_lines`` holds each side's line count of ``src/bhl`` from its
runs' env lines, null for a side whose runs disagree.
It is rewritten after every run, so an interrupted session keeps the
runs made so far.  A run that exits non-zero stops the script with exit
status 1, after it prints the run's side, workload, seed and exit code
and the last lines of its stderr; the JSON keeps the runs before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

# how many of a failed run's last stderr lines are printed
STDERR_TAIL = 20


def _spec(text, fields):
    parts = text.split(":")
    if len(parts) != fields or not all(parts):
        raise argparse.ArgumentTypeError(f"expected {fields} ':'-separated fields, got {text!r}")
    return (parts[0],) + tuple(int(p) for p in parts[1:])


def _run(checkout, command, workload, seed, seconds, trace):
    """One benchmark run in a checkout: its env line and its last-line JSON."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[len("env: "):]) for ln in lines if ln.startswith("env: "))
    return env, json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def _summary(runs, bounds, better=None):
    """Per workload and per metric of ``bounds`` (name -> bound): the pairs,
    each side's median and quartiles, whether the change is within bound,
    and whether the parent's spread resolves the bound.  ``better`` maps a
    metric to ``"lower"`` or ``"higher"``; a metric it leaves out is
    better lower."""
    better = better or {}
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 0):
        by_seed = {}
        for r in runs:
            if r["workload"] == workload and r["trace"] == 0:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        seeds = [s for s, sides in by_seed.items() if len(sides) == 2]
        entry = {"pairs": len(seeds), "seeds": seeds}
        for name, bound in bounds.items():
            pairs = [[round(by_seed[s][side]["metrics"][name]["value"], 4) for side in SIDES]
                     for s in seeds]
            if not pairs:
                continue
            parent, change = [p[0] for p in pairs], [p[1] for p in pairs]
            p_med, c_med = statistics.median(parent), statistics.median(change)
            p_q = _quartiles(parent)
            sign = -1.0 if better.get(name, "lower") == "higher" else 1.0
            # every change run better than every parent run
            separated = max(sign * v for v in change) < min(sign * v for v in parent)
            entry[name] = {
                "parent_change_pairs": pairs,
                "parent_median": round(p_med, 4),
                "change_median": round(c_med, 4),
                "median_change_frac": round(c_med / p_med - 1.0, 4),
                "parent_quartiles": p_q,
                "change_quartiles": _quartiles(change),
                "change_lower_in": sum(c < p for p, c in pairs),
                "bound": bound,
                "within_bound": c_med <= p_med * (1.0 + bound),
                "resolved": (p_q[1] - p_q[0]) / p_med <= bound or separated,
            }
        results = [res for s in seeds for res in by_seed[s].values()]
        entry["all_correct"] = all(res["correct"] for res in results)
        entry["failed_ops"] = sum(res["failed"] for res in results)
        out[workload] = entry
    return out


def _src_lines(runs):
    """Per side, the ``src_bhl_lines`` all its runs' env lines give, else None."""
    out = {}
    for side in SIDES:
        seen = {r["env"].get("src_bhl_lines") for r in runs if r["side"] == side}
        out[side] = seen.pop() if len(seen) == 1 else None
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", action="append", default=[], metavar="WORKLOAD:FIRST_SEED:COUNT",
                        type=lambda s: _spec(s, 3))
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD:SEED",
                        type=lambda s: _spec(s, 2))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m.get("better", "lower") for m in bench["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    plan = []
    for workload, first, count in args.pairs:
        for seed in range(first, first + count):
            order = SIDES if seed % 2 == 0 else SIDES[::-1]
            plan += [(side, workload, seed, 0) for side in order]
    for workload, seed in args.traced:
        plan += [(side, workload, seed, 1) for side in SIDES]

    record = {
        "what": f"{' '.join(command)} --seconds {seconds} on two checkouts; pairs alternate "
                "which side runs first by seed parity; each run keeps its env line and "
                "its last-line JSON.",
        "command": f"{' '.join(command)} --workload <w> --seed <s> --seconds {seconds} --trace <0|1>",
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} cpus, "
                   f"python {platform.python_version()}",
        "parent_commit": None,
        "change_commit": None,
        "src_bhl_lines": _src_lines([]),
        "summary": {},
        "runs": [],
    }
    for i, (side, workload, seed, trace) in enumerate(plan):
        print(f"[{i + 1}/{len(plan)}] {side} {workload} seed {seed} trace {trace}", flush=True)
        try:
            env, result = _run(checkouts[side], command, workload, seed, seconds, trace)
        except subprocess.CalledProcessError as e:
            tail = e.stderr.rstrip().splitlines()[-STDERR_TAIL:]
            print(f"{side} {workload} seed {seed} trace {trace}: exit code {e.returncode}; "
                  f"last stderr lines:", *tail, sep="\n", file=sys.stderr)
            return 1
        record["runs"].append(dict(side=side, workload=workload, seed=seed, trace=trace,
                                   env=env, result=result))
        for s in SIDES:
            record[f"{s}_commit"] = next(
                (r["env"]["commit"] for r in record["runs"] if r["side"] == s), None)
        record["src_bhl_lines"] = _src_lines(record["runs"])
        record["summary"] = _summary(record["runs"], bounds, better)
        for r in record["runs"]:
            if r["trace"] == 1:
                record.setdefault(f"trace_{r['workload']}_per_pass", {})[r["side"]] = {
                    k: round(v["value"], 5) for k, v in r["result"]["metrics"].items()
                }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

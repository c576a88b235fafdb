"""Compare the benchmark's operation digests of two checkouts.

    python3 tools/op_digests.py PARENT_DIR CHANGE_DIR --workload geometry --seeds 0-2

For each seed and each checkout, a fresh interpreter imports ``bhl``
from the checkout's ``src/`` and ``workloads`` from its ``perfbench/``,
draws the workload's inputs from the seed and runs two passes over its
operations (``workloads.run_op``).  Every operation's digest from both
passes is compared, as hex floats, against the other checkout's; so is
a failed operation's error type.  The script prints each operation
whose outputs differ, with both sides' values and the largest relative
difference between them, then one summary line with the largest
relative difference overall, and exits with status 1 if any operation
differs, 0 if none does.  A difference that is not between two numbers
(an error, a missing pass or value, an op only one side ran) is inf.
``--seeds A-B`` runs seeds A to B inclusive; ``--seeds A`` runs one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PASSES = 2

# run in the fresh interpreter, with the checkout as its working directory
_CHILD = """
import json, sys
sys.path[:0] = ["src", "perfbench"]
import workloads

workload, seed, passes = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
ops = workloads.build_ops(workload, workloads.make_inputs(workload, seed))
out = {}
for _ in range(passes):
    for op in ops:
        res = workloads.run_op(op)
        val = ("error", res.error) if res.failed else [
            v.hex() if isinstance(v, float) else repr(v) for v in res.digest]
        out.setdefault(op.name, []).append(val)
print(json.dumps(out))
"""


def _seeds(text):
    first, _, last = text.partition("-")
    try:
        a, b = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A or A-B with integers, got {text!r}")
    if b < a:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(a, b + 1)


def digests(checkout, workload, seed, passes=PASSES):
    """{op name: [digest per pass]} of one checkout, from a fresh interpreter."""
    # one BLAS thread, as perfbench/run.py sets
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, workload, str(seed), str(passes)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def differing(parent, change):
    """The op names whose digests differ, in the parent's order, then any op only one side ran."""
    names = list(parent) + [n for n in change if n not in parent]
    return [n for n in names if parent.get(n) != change.get(n)]


def _number(text):
    """A digest entry as a float: a hex float, or the repr of a number."""
    return float.fromhex(text) if "0x" in text else float(text)


def largest_rel_diff(parent, change):
    """The largest |a - b| / max(|a|, |b|) over one op's digests on both
    sides (a list per pass); inf where an entry is not a number on both."""
    if parent is None or change is None or len(parent) != len(change):
        return float("inf")
    worst = 0.0
    for p_pass, c_pass in zip(parent, change):
        if p_pass == c_pass:
            continue
        if len(p_pass) != len(c_pass) or "error" in p_pass[:1] + c_pass[:1]:
            return float("inf")
        for a, b in zip(p_pass, c_pass):
            if a == b:
                continue
            try:
                a, b = _number(a), _number(b)
            except ValueError:
                return float("inf")
            scale = max(abs(a), abs(b))
            worst = max(worst, abs(a - b) / scale if scale > 0.0 else float("inf"))
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=("spectra", "geometry"))
    parser.add_argument("--seeds", required=True, type=_seeds, metavar="A-B")
    args = parser.parse_args(argv)
    total = ops = 0
    worst = 0.0
    for seed in args.seeds:
        sides = [digests(p.resolve(), args.workload, seed) for p in (args.parent, args.change)]
        ops += len(sides[0])
        for name in differing(*sides):
            total += 1
            print(f"seed {seed}: {name}")
            for label, side in zip(("parent", "change"), sides):
                print(f"  {label}: {side.get(name)}")
            rel = largest_rel_diff(*(side.get(name) for side in sides))
            worst = max(worst, rel)
            print(f"  largest relative difference: {rel:.3g}")
    print(f"{total} differing of {ops} ops over {len(args.seeds)} seeds "
          f"({args.workload}, {PASSES} passes each); largest relative difference {worst:.3g}")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())

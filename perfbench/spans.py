"""Per-layer timing from outside the package.

The traced run replaces public functions of the ``bhl`` modules with
timing wrappers.  Every attribute of every loaded ``bhl`` module that
refers to a wrapped function is replaced, so calls from one bhl
function into another (``singular_values`` into ``symmetric_eigenvalues``
and ``polynomial_gram``, ``rearrangement_plus`` into ``bloch_norm``,
``predict_symbol`` into ``hardy_norm``) are timed too.  A span's self
time is its duration minus the durations of the wrapped calls it
encloses.  No file of the package changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("weights", "hankel", "spectrum", "rearrangement", "asymptotics")


def _weight_kind(args, kwargs):
    return (args[0] if args else kwargs["w"]).kind


def _moment_entries(args, kwargs, result):
    return int(args[1] if len(args) > 1 else kwargs["n_max"]) + 1


def _section_rows(args, kwargs, result):
    return (args[0] if args else kwargs["G"]).size


def _lattice_centers(args, kwargs, result):
    return 0 if result is None else len(result)


# (module, function, span-name suffix from the arguments, work counter)
TRACED = (
    ("weights", "compute_moments", _weight_kind, ("weights.moment_entries", _moment_entries)),
    ("hankel", "polynomial_gram", None, None),
    ("hankel", "dense_gram_oracle", None, None),
    ("spectrum", "symmetric_eigenvalues", None, ("spectrum.section_rows", _section_rows)),
    ("spectrum", "singular_values", None, None),
    ("spectrum", "psi_functionals", None, None),
    ("rearrangement", "level_measure", None, None),
    ("rearrangement", "rearrangement_plus", None, None),
    ("rearrangement", "bloch_norm", None, None),
    ("rearrangement", "trace_integral", None, None),
    ("rearrangement", "build_lattice", None, ("rearrangement.lattice_centers", _lattice_centers)),
    ("rearrangement", "besov_sum", None, None),
    ("asymptotics", "fit_power_law", None, None),
    ("asymptotics", "hardy_norm", None, None),
)

# The per-layer metrics a traced run reports, in BENCHMARK.json order:
# self seconds per pass (".s"), calls per pass (".calls"), work counts
# per pass, failed operations per pass, and the two whole-run shares.
SECONDS = (
    "spectrum.symmetric_eigenvalues",
    "spectrum.singular_values",
    "spectrum.psi_functionals",
    "hankel.polynomial_gram",
    "hankel.dense_gram_oracle",
    "weights.compute_moments.standard",
    "weights.compute_moments.explog",
    "rearrangement.level_measure",
    "rearrangement.rearrangement_plus",
    "rearrangement.bloch_norm",
    "rearrangement.trace_integral",
    "rearrangement.build_lattice",
    "rearrangement.besov_sum",
    "asymptotics.fit_power_law",
    "asymptotics.hardy_norm",
)
CALLS = (
    "spectrum.symmetric_eigenvalues",
    "spectrum.singular_values",
    "hankel.polynomial_gram",
    "weights.compute_moments",
    "rearrangement.level_measure",
    "rearrangement.rearrangement_plus",
)
COUNTS = ("spectrum.section_rows", "weights.moment_entries", "rearrangement.lattice_centers")
SHARES = ("trace_overhead_frac", "unattributed_frac")


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    return (
        [(f"{n}.s", "s") for n in SECONDS]
        + [(f"{n}.calls", "count") for n in CALLS]
        + [(n, "count") for n in COUNTS]
        + [(f"{layer}.failed", "count") for layer in LAYERS]
        + [(n, "ratio") for n in SHARES]
    )


class Tracer:
    """Self time, calls and work counts of the wrapped bhl functions.

    Use as a context manager around the traced passes; ``reset`` clears
    the totals between passes.
    """

    def __init__(self):
        self._patches = []
        self._stack = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def attributed_s(self):
        return sum(self.self_s.values())

    def _wrap(self, base, fn, suffix, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{base}.{suffix(args, kwargs)}" if suffix else base
            self._stack.append(0.0)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
                self.self_s[name] += dt - child
                self.calls[base] += 1
                if counter is not None:
                    self.counts[counter[0]] += counter[1](args, kwargs, result)

        return wrapper

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items()) if k == "bhl" or k.startswith("bhl.")]
        for mod_name, fn_name, suffix, counter in TRACED:
            original = getattr(sys.modules[f"bhl.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, suffix, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)
        return False

"""The acceptance suite: eleven numbered desk-scale checks.

Each criterion is a function returning a CriterionResult; the registry
maps numbers to functions and named suites to subsets.  Both the test
suite and the verify CLI run through here so there is exactly one
definition of pass/fail.  Criteria that state a runtime budget fail
when they exceed it.

Moment tables are the expensive shared resource; a cache dict keyed by
weight family is threaded through so a full run builds each table once.
"""

from __future__ import annotations

import time

import numpy as np

from .hankel import (
    PolynomialSymbol,
    dense_gram_oracle,
    hz_squared_sequence,
    polynomial_gram,
)
from .rearrangement import (
    LevelField,
    SymbolDerivative,
    level_measure,
    rearrangement_plus,
)
from .spectrum import SingularSpectrum, psi_functionals, singular_values
from .weights import RadialWeight, TauProfile, compute_moments


class CriterionResult:
    def __init__(self, number, title, passed, detail, seconds):
        self.number = number
        self.title = title
        self.passed = passed
        self.detail = detail
        self.seconds = seconds

    def line(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number:2d} ({self.seconds:6.2f}s): {self.title}: {self.detail}"

    def __repr__(self):
        return f"CriterionResult({self.line()!r})"


def _get_moments(cache, kind, n_max, alpha=None, beta=None):
    key = (kind, alpha, beta)
    mt = cache.get(key)
    if mt is None or len(mt.values) < n_max + 1:
        if kind == "standard":
            w = RadialWeight.standard(alpha)
        else:
            w = RadialWeight.explog(alpha, beta)
        mt = compute_moments(w, n_max)
        cache[key] = mt
    return mt


# largest symbol degree passed to _diag_spectrum: its moment tables are
# sized for it, so each alpha's table is built once for every symbol
_MAX_DEGREE = 3


def _diag_spectrum(cache, alpha, coeffs, N):
    """Singular values for a standard-weight polynomial symbol."""
    key = ("spectrum", alpha, tuple(coeffs), N)
    spec = cache.get(key)
    if spec is None:
        # the doubling check reads G_2N, which needs moments up to 2N - 1 + d
        mt = _get_moments(cache, "standard", 2 * N - 1 + _MAX_DEGREE, alpha=alpha)
        G = polynomial_gram(mt, PolynomialSymbol(coeffs), N)
        spec = singular_values(G)
        cache[key] = spec
    return spec


def criterion_1(cache):
    import mpmath  # only this criterion needs the 40-digit reference

    t0 = time.perf_counter()
    worst = 0.0
    with mpmath.workdps(40):
        for alpha in (0.0, 1.0, 2.5):
            mt = _get_moments(cache, "standard", 500, alpha=alpha)
            # n + alpha + 2 is formed in mpmath: as a double sum it would
            # already shift Gamma by about 1e-11 for non-dyadic alpha
            a = mpmath.mpf(alpha)
            lg = mpmath.loggamma(a + 2)
            for n in range(501):
                exact = mpmath.exp(mpmath.loggamma(n + 1) + lg - mpmath.loggamma(n + a + 2))
                worst = max(worst, float(abs(mpmath.mpf(mt.values[n]) / exact - 1)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt <= 5.0
    return CriterionResult(
        1, "moments vs 40-digit closed form, alpha in {0, 1, 2.5}, n <= 500",
        ok, f"worst rel err {worst:.2e} (<= 1e-10), runtime {dt:.2f}s (<= 5s)", dt,
    )


def criterion_2(cache):
    t0 = time.perf_counter()
    lo, hi = 1.0, 1.0
    for alpha in (0.0, 1.0):
        spec = _diag_spectrum(cache, alpha, [1.0], 2005)
        n = np.arange(100, 2001)
        ratio = spec.values[99:2000] * (n + 1.0) / np.sqrt(alpha + 1.0)
        lo = min(lo, float(ratio.min()))
        hi = max(hi, float(ratio.max()))
    dt = time.perf_counter() - t0
    ok = 0.99 <= lo and hi <= 1.01 and dt <= 10.0
    return CriterionResult(
        2, "standard law s_n (n+1)/sqrt(alpha+1) in [0.99, 1.01], n in [100, 2000]",
        ok, f"ratio range [{lo:.5f}, {hi:.5f}], runtime {dt:.2f}s (<= 10s)", dt,
    )


def criterion_3(cache):
    t0 = time.perf_counter()
    mt = _get_moments(cache, "explog", 10002, alpha=1.0, beta=1.0)
    hz2 = hz_squared_sequence(mt, 10001)
    gamma = np.sqrt(0.5)
    vals = {k: float(np.sqrt(hz2[k]) * k**0.75) for k in (100, 1000, 10000)}
    errs = [abs(vals[k] - gamma) / gamma for k in (100, 1000, 10000)]
    dt = time.perf_counter() - t0
    ok = errs[2] <= 0.05 and errs[0] > errs[1] > errs[2] and dt <= 60.0
    detail = (
        f"m(n) n^(3/4) = {vals[100]:.5f}, {vals[1000]:.5f}, {vals[10000]:.5f} "
        f"at n = 1e2, 1e3, 1e4 vs {gamma:.5f}; final err {errs[2]:.4f} (<= 0.05), "
        f"monotone approach {'yes' if errs[0] > errs[1] > errs[2] else 'NO'}, "
        f"runtime {dt:.1f}s (<= 60s)"
    )
    return CriterionResult(3, "explog gamma trajectory (alpha=beta=1)", ok, detail, dt)


def criterion_4(cache):
    t0 = time.perf_counter()
    details = []
    ok = True
    for coeffs, target, tol in ([[0.0, 1.0], 2.0, 0.1], [[0.0, 0.0, 1.0], 3.0, 0.05]):
        spec = _diag_spectrum(cache, 0.0, coeffs, 2005)
        n = np.arange(500, 2001)
        vals = spec.values[499:2000] * n
        lo, hi = float(vals.min()), float(vals.max())
        ok &= target * (1 - tol) <= lo and hi <= target * (1 + tol)
        details.append(f"phi=z^{len(coeffs)}: n s_n in [{lo:.4f}, {hi:.4f}] target {target}")
    dt = time.perf_counter() - t0
    return CriterionResult(
        4, "Hardy-factor law for monomials, n in [500, 2000]", ok, "; ".join(details), dt
    )


def criterion_5(cache):
    t0 = time.perf_counter()
    mt = _get_moments(cache, "standard", 200, alpha=0.0)
    sym = PolynomialSymbol([1.0, 1.0])
    G = polynomial_gram(mt, sym, 30)
    dense, err_est = dense_gram_oracle(RadialWeight.standard(0.0), sym, 30)
    diff = float(np.max(np.abs(G.to_dense() - dense)))
    dt = time.perf_counter() - t0
    ok = diff <= 1e-8
    return CriterionResult(
        5, "banded gram vs dense quadrature oracle (alpha=0, phi=z+z^2, N=30)",
        ok, f"max entry diff {diff:.2e} (<= 1e-8), oracle self-estimate {err_est:.1e}", dt,
    )


def criterion_6(cache):
    t0 = time.perf_counter()
    N = 2000
    families = [("standard", a, None) for a in (0.0, 1.0, 2.5)] + [("explog", 1.0, 1.0)]
    worst_id = 0.0
    near1 = []
    ok = True
    for kind, alpha, beta in families:
        mt = _get_moments(cache, kind, N + 2, alpha=alpha, beta=beta)
        hz2 = hz_squared_sequence(mt, N + 1)
        total = float(np.sum(hz2[: N + 1]))
        rhs = float(np.exp(mt.log_values[N + 1] - mt.log_values[N]))
        gap = abs(total - rhs) / rhs
        worst_id = max(worst_id, gap)
        ok &= gap <= 1e-12
        if kind == "standard" and alpha in (0.0, 1.0):
            near1.append(abs(total - 1.0))
    ok &= max(near1) <= 1e-3
    dt = time.perf_counter() - t0
    return CriterionResult(
        6, "telescoping trace identity at N=2000",
        ok,
        f"worst identity gap {worst_id:.2e} (<= 1e-12); "
        f"|sum - 1| up to {max(near1):.2e} for alpha in {{0, 1}} (<= 1e-3)",
        dt,
    )


def criterion_7(cache):
    t0 = time.perf_counter()
    tau = TauProfile.standard(0.0)
    dz = SymbolDerivative.polynomial([1.0])
    r_max = 1.0 - 1e-5
    ts = np.linspace(0.05, 1.7, 20)
    worst = 0.0
    for t in ts:
        R = level_measure(tau, dz, float(t), r_max, check_r_max=False)
        exact = np.sqrt(np.pi) / t - 1.0
        worst = max(worst, abs(R - exact) / exact)
    rng = np.random.default_rng(0)
    shortfall = 0.0
    for t in rng.uniform(0.05, 1.7, 20):
        Rt = float(level_measure(tau, dz, float(t), r_max, check_r_max=False))
        rp = rearrangement_plus(tau, dz, Rt, r_max)
        shortfall = max(shortfall, (t - rp) / t)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-4 and shortfall <= 1e-3
    return CriterionResult(
        7, "level measure closed form + inverse consistency (alpha=0, phi=z)",
        ok,
        f"worst rel err {worst:.2e} (<= 1e-4); R+(R(t)) shortfall {shortfall:.1e} "
        f"(quadrature tolerance 1e-3)",
        dt,
    )


def criterion_8(cache):
    t0 = time.perf_counter()
    tau = TauProfile.standard(0.0)
    dz = SymbolDerivative.polynomial([1.0])
    r_max = 1.0 - 1e-5
    ns = np.arange(10, 1001)
    spec = _diag_spectrum(cache, 0.0, [1.0], 1100)
    s_n = spec.values[ns - 1]
    intervals = []
    for level in (3, 4):  # doubled quadrature resolution
        field = LevelField(tau, dz, r_max, level)
        rp = np.array([field.rplus(float(x)) for x in ns])
        ratio = rp / s_n
        intervals.append((float(ratio.min()), float(ratio.max())))
    (lo1, hi1), (lo2, hi2) = intervals
    C = 10.0
    stable = abs(lo2 - lo1) / lo1 <= 0.01 and abs(hi2 - hi1) / hi1 <= 0.01
    inside = 1.0 / C <= min(lo1, lo2) and max(hi1, hi2) <= C
    dt = time.perf_counter() - t0
    return CriterionResult(
        8, "R+(n)/s_n ratio window, n in [10, 1000]",
        inside and stable,
        f"interval [{lo1:.4f}, {hi1:.4f}] within [1/{C:g}, {C:g}]; doubled-resolution "
        f"interval [{lo2:.4f}, {hi2:.4f}] ({'stable' if stable else 'UNSTABLE'})",
        dt,
    )


def criterion_9(cache):
    t0 = time.perf_counter()
    s1 = _diag_spectrum(cache, 0.0, [1.0], 2005)
    s2 = _diag_spectrum(cache, 0.0, [0.0, 1.0], 2005)
    n = 2000
    ratio = s2.values[:n] / s1.values[:n]
    dt = time.perf_counter() - t0
    ok = bool(np.all(ratio >= 1.0))
    return CriterionResult(
        9, "cut-off contrapositive: s_n(H_zbar^2)/s_n(H_zbar) >= 1, n <= 2000",
        ok,
        f"min ratio {float(ratio.min()):.6f} (>= 1), tail ratio {float(ratio[-1]):.4f} -> 2",
        dt,
    )


def criterion_10(cache):
    t0 = time.perf_counter()
    tau_ce = TauProfile.ce(1.0)
    ce = SymbolDerivative.ce_family(1.5)
    ts = np.logspace(-3, -1, 13)
    Rs = [float(level_measure(tau_ce, ce, float(t), 0.99, check_r_max=False)) for t in ts]
    slope = float(np.polyfit(np.log(ts), np.log(Rs), 1)[0])
    dt = time.perf_counter() - t0
    ok = abs(slope - (-1.2)) <= 0.06
    return CriterionResult(
        10, "Cauchy-symbol rearrangement slope (tau alpha=1, gamma=1.5)",
        ok, f"log-log slope {slope:.4f} vs -1.2 +/- 0.06", dt,
    )


def criterion_11(cache):
    t0 = time.perf_counter()
    n = np.arange(1, 4001, dtype=float)
    spec = SingularSpectrum.from_values(n**-0.75)
    p = 4.0 / 3.0
    window = (spec.values[2999], spec.values[9])
    D1, d1 = psi_functionals(spec, p, 1.0, window)
    spec2 = SingularSpectrum.from_values(2.0 * spec.values)
    window2 = (2.0 * window[0], 2.0 * window[1])
    D2, d2 = psi_functionals(spec2, p, 1.0, window2)
    hom = max(abs(D2 - 2.0**p * D1) / (2.0**p * D1), abs(d2 - 2.0**p * d1) / (2.0**p * d1))
    dt = time.perf_counter() - t0
    ok = abs(D1 - 1.0) <= 1e-3 and abs(d1 - 1.0) <= 1e-3 and hom <= 1e-14
    return CriterionResult(
        11, "psi functional calibration on s_n = n^(-3/4), p = 4/3",
        ok,
        f"D_hat = {D1:.6f}, d_hat = {d1:.6f} (1 +/- 1e-3); scaling homogeneity "
        f"residual {hom:.1e} (machine)",
        dt,
    )


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}

SUITES = {
    "all": tuple(range(1, 12)),
    "standard-cutoff": (9,),
    "explog-gamma": (3,),
}


def run_suite(name="all", cache=None):
    """Run a named suite; returns the list of CriterionResult."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    cache = {} if cache is None else cache
    return [CRITERIA[k](cache) for k in SUITES[name]]

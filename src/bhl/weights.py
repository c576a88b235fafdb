"""Radial weights, moments, kernel norms, and the tau profile.

Conventions
-----------
dA is plane Lebesgue measure throughout, so the n-th moment of a radial
weight w is

    m[n] = ||z^n||^2 = 2*pi * int_0^1 r^(2n+1) w(r) dr.

The Standard family folds its mass normalization into the density,
w_a(r) = (a+1)/pi * (1-r^2)^a, which makes m[0] = 1 and keeps

    tau(r) = (w(r) * ||K_r||^2)^(-1/2) = sqrt(pi/(a+1)) * (1 - r^2)

literally true.  The ExpLog family is w(r) = exp(-a / log(1/r^2)^b).

Moment tables store log m[n] as the primary representation: ExpLog
moments at large n sit far below the double-precision floor (log m ~
-2*sqrt(a*n) for b = 1), and every downstream consumer that cares about
accuracy works with ratios or log-differences anyway.  ``values`` is
the exponentiated view and may underflow to zero in the deep tail.

scipy is imported inside the functions that call it (the quadratures,
the gammaln reference and tau_profile's spline), so that importing bhl
and the closed-form tau profiles load none of it.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import (
    InsufficientMomentsError,
    LogConvexityError,
    QuadratureError,
    WeightDomainError,
)

MOMENT_CONVENTION = "dA = plane Lebesgue; m[n] = 2*pi * int_0^1 r^(2n+1) w(r) dr"

_QUAD_OPTS = dict(epsabs=1e-300, limit=200)


class RadialWeight:
    """A radial weight on the unit disk: Standard, ExpLog, or Custom.

    Use the classmethods ``standard``, ``explog``, ``custom``; the bare
    constructor is internal.
    """

    def __init__(self, kind, alpha=None, beta=None, profile=None):
        self.kind = kind
        self.alpha = alpha
        self.beta = beta
        self.profile = profile

    @classmethod
    def standard(cls, alpha):
        """w_a(r) = (a+1)/pi * (1-r^2)^a, -1 < alpha < inf."""
        if not -1.0 < alpha < np.inf:
            raise WeightDomainError(f"standard weight needs -1 < alpha < inf, got alpha={alpha}")
        return cls("standard", alpha=float(alpha))

    @classmethod
    def explog(cls, alpha, beta):
        """w(r) = exp(-alpha / log(1/r^2)^beta), 0 < alpha, beta < inf."""
        if not (0.0 < alpha < np.inf and 0.0 < beta < np.inf):
            raise WeightDomainError(f"explog needs 0 < alpha, beta < inf, got ({alpha}, {beta})")
        return cls("explog", alpha=float(alpha), beta=float(beta))

    @classmethod
    def custom(cls, profile, *, integrable_certified=False):
        """Wrap a user radial density r in [0,1) -> positive real.

        No symbolic analysis is attempted: the caller certifies
        integrability explicitly, and moment(0) is still checked
        numerically at construction.
        """
        if not integrable_certified:
            raise WeightDomainError(
                "custom weights require integrable_certified=True; "
                "integrability is the caller's responsibility"
            )
        w = cls("custom", profile=profile)
        probe = w.density(np.linspace(0.05, 0.95, 19))
        if not np.all(probe > 0.0):
            raise WeightDomainError("custom weight must be strictly positive on [0,1)")
        m0 = _moment_custom(w, 0, 1e-8)
        if not np.isfinite(m0):
            raise WeightDomainError("custom weight has non-finite mass: moment(0) diverges")
        return w

    def density(self, r):
        """Weight value at radius r (vectorized)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "standard":
            return (self.alpha + 1.0) / np.pi * (1.0 - r * r) ** self.alpha
        if self.kind == "explog":
            return np.exp(self.log_density(r))
        return np.asarray(self.profile(r), dtype=float)

    def log_density(self, r):
        """log of the weight value, safe where density underflows."""
        r = np.asarray(r, dtype=float)
        if self.kind == "standard":
            with np.errstate(divide="ignore"):
                return (
                    np.log(self.alpha + 1.0)
                    - np.log(np.pi)
                    + self.alpha * np.log1p(-r * r)
                )
        if self.kind == "explog":
            with np.errstate(divide="ignore"):
                x = -2.0 * np.log(r)  # log(1/r^2); infinite at r=0, weight -> 1
                return -self.alpha / x**self.beta
        with np.errstate(divide="ignore"):
            return np.log(np.asarray(self.profile(r), dtype=float))

    def __repr__(self):
        if self.kind == "standard":
            return f"RadialWeight.standard(alpha={self.alpha})"
        if self.kind == "explog":
            return f"RadialWeight.explog(alpha={self.alpha}, beta={self.beta})"
        return "RadialWeight.custom(...)"


class MomentTable:
    """Moments m[0..n_max] of a radial weight with accuracy metadata.

    Attributes
    ----------
    weight : RadialWeight
    log_values : ndarray
        log m[n] for n = 0..n_max, the primary representation.
    values : ndarray
        exp(log_values); entries in the deep tail of a rapidly decaying
        family may underflow to 0.0 and ratio consumers must fall back
        to log_values there.
    rel_tol : float
        Requested relative tolerance, raised to the worst per-entry
        quadrature error estimate or sampled cross-check difference if
        that came out worse.
    source : dict
        How the table was built: ``route`` (``product``, ``trapezoid``
        or ``custom``), ``intervals`` (the largest trapezoid interval
        count any explog entry needed; None for other routes), and
        ``check_indices`` / ``check_diff``, the indices the table was
        cross-checked at against an independent quadrature and the
        worst relative difference found there (empty / None when
        nothing was sampled).
    convention : str
        The dA / moment normalization marker.
    """

    def __init__(self, weight, log_values, rel_tol, source=None):
        log_values = np.asarray(log_values, dtype=float)
        if not np.all(np.isfinite(log_values)):
            raise QuadratureError("moment table contains non-finite log entries")
        self.weight = weight
        self.log_values = log_values
        self.values = np.exp(log_values)
        self.rel_tol = rel_tol
        self.source = dict(source) if source else {}
        self.convention = MOMENT_CONVENTION
        self._validate()

    @property
    def n_max(self):
        return len(self.log_values) - 1

    def _validate(self):
        lv = self.log_values
        if self.weight.kind in ("standard", "explog") and len(lv) > 1:
            if not np.all(np.diff(lv) < 0.0):
                raise QuadratureError("moments are not strictly decreasing")
        # log-convexity: m[n]^2 <= m[n-1]*m[n+1], with slack tied to the
        # quadrature tolerance.  A violation beyond the slack means the
        # quadrature cannot support downstream ratio differences.
        if len(lv) > 2:
            second = lv[:-2] + lv[2:] - 2.0 * lv[1:-1]
            slack = 8.0 * max(self.rel_tol, 1e-15)
            bad = np.nonzero(second < -slack)[0]
            if bad.size:
                n = int(bad[0]) + 1
                raise LogConvexityError(
                    f"log-convexity violated at n={n} "
                    f"(second difference {second[bad[0]]:.3e} < -{slack:.1e})"
                )

    def require(self, n):
        """Raise unless moments up to index n are available."""
        if n > self.n_max:
            raise InsufficientMomentsError(
                f"need moments up to n={n}, table holds n_max={self.n_max}",
                required=n,
            )


def moment_closed_form_standard(alpha, n):
    """Gamma(n+1)*Gamma(alpha+2)/Gamma(n+alpha+2), via log-Gamma.

    This is the gammaln reference, not the table: the difference of
    large log-Gammas loses digits, about 1e-11 relative by n ~ 4000.
    It stays independent of ``compute_moments`` on purpose, so checks
    that compare the two compare two routes, not a formula with itself.
    """
    if not -1.0 < alpha < np.inf:
        raise WeightDomainError(f"closed form needs -1 < alpha < inf, got alpha={alpha}")
    from scipy.special import gammaln

    n = np.asarray(n, dtype=float)
    return np.exp(gammaln(n + 1.0) + gammaln(alpha + 2.0) - gammaln(n + alpha + 2.0))


def _moment_standard(w, n, rel_tol):
    # m[n] = (alpha+1) * int_0^1 t^alpha (1-t)^n dt after t = r^2.  QAWS
    # integrates the algebraic endpoint factor t^alpha analytically.  Over
    # all of [0, 1] it misses the narrow peak near t ~ alpha/n once alpha
    # and n are large (1e4 relative off at alpha = 10, n = 4000), so it
    # runs on [0, c], where (1-t)^n has dropped 60 e-folds past the peak,
    # and plain quadrature adds the tail beyond c.  (1-t)^n taken as
    # exp(n log1p(-t)) keeps the n-fold rounding of 1 - t out of it.
    from scipy.integrate import quad

    a1 = w.alpha + 1.0
    c = min(1.0, (a1 + 12.0 * np.sqrt(a1) + 60.0) / (n + 1.0))
    val, err = quad(
        lambda t: np.exp(n * np.log1p(-t)),
        0.0,
        c,
        weight="alg",
        wvar=(w.alpha, 0.0),
        epsrel=0.1 * rel_tol,
        **_QUAD_OPTS,
    )
    if c < 1.0:
        tail, tail_err = quad(
            lambda t: t**w.alpha * np.exp(n * np.log1p(-t)),
            c,
            1.0,
            epsabs=0.1 * rel_tol * val,
            epsrel=0.1 * rel_tol,
            limit=200,
        )
        val, err = val + tail, err + tail_err
    return a1 * val, a1 * err


def _explog_saddle(w, n):
    # x = log(1/r^2) turns the moment into pi * int_0^inf exp(-(n+1)x - a/x^b) dx
    # with saddle x_n and peak exponent E_n.
    a, b = w.alpha, w.beta
    np1 = np.asarray(n, dtype=float) + 1.0
    xn = (a * b / np1) ** (1.0 / (1.0 + b))
    En = np1 * xn + a / xn**b
    return np1, xn, En


def _log_moment_explog_adaptive(w, n, rel_tol):
    # log m[n]: normalize by the peak value at the saddle so the integrand
    # is O(1), then integrate each side adaptively
    from scipy.integrate import quad

    a, b = w.alpha, w.beta
    np1, xn, En = _explog_saddle(w, n)
    t = a / xn**b

    def g(x):
        return np.exp(-(np1 * x + a / x**b - En))

    # cap the right limit where the integrand is below double range; the
    # semi-infinite transform misses the increasingly narrow peak at xn
    x_hi = xn * (1.0 + max(8.0, 760.0 / (b * t)))
    opts = dict(epsrel=0.1 * rel_tol, **_QUAD_OPTS)
    v = quad(g, 0.0, xn, **opts)[0] + quad(g, xn, x_hi, **opts)[0]
    return np.log(np.pi) - En + np.log(v)


# the explog trapezoid rule's most intervals, and its nodes per numpy pass
_EXPLOG_CAP = 2**14
_EXPLOG_BLOCK = 2**16


def _bisect(inside, a, b, steps=24):
    """Per entry, where ``inside`` turns false between a (inside) and b (outside)."""
    for _ in range(steps):
        mid = 0.5 * (a + b)
        ok = inside(mid)
        a, b = np.where(ok, mid, a), np.where(ok, b, mid)
    return a


def _log_moments_explog(w, ns, rel_tol):
    """log m[n] for an array of indices, by a self-refining trapezoid rule.

    With s = log(x/x_n) and t = a/x_n^b the moment is
    pi x_n e^(-E_n) int exp(g(s)) ds, g(s) = s - t b expm1(s) - t expm1(-b s).
    g is strictly concave, so {g >= max g - 45} is one interval, and
    bisection finds its ends per index.  On it the trapezoid rule starts
    with 64 intervals and halves its step per index until two successive
    sums agree to 0.1 * rel_tol.  Returns log m, the worst last relative
    halving difference and the largest interval count reached.
    """
    a, b = w.alpha, w.beta
    _, xn, En = _explog_saddle(w, ns)
    t = a / xn**b

    def g(s, t=t):
        return s - t * (b * np.expm1(s) + np.expm1(-b * s))

    # g'(s) = 1 - t b (e^s - e^(-b s)) is 1 at s = 0 and <= 0 at log1p(1/(t b))
    peak = _bisect(lambda s: t * b * (np.exp(s) - np.exp(-b * s)) < 1.0,
                   np.zeros_like(t), np.log1p(1.0 / (t * b)))
    top = g(peak)
    ends = []
    for d in (np.full_like(t, -1.0), np.full_like(t, 1.0)):
        while np.any(out := g(peak + d) > top - 45.0):
            d[out] *= 2.0
        ends.append(_bisect(lambda s: g(s) > top - 45.0, peak, peak + d))
    lo, hi = ends

    def node_sum(rows, offsets, h):
        # sum of exp(g - top) at lo + h * offsets; the end values, e^-45 of
        # the peak, are below its rounding, so this is the trapezoid sum
        out = np.empty(len(rows))
        step = max(1, _EXPLOG_BLOCK // len(offsets))
        for i in range(0, len(rows), step):
            r = rows[i : i + step]
            s = lo[r, None] + h[r, None] * offsets
            out[i : i + step] = np.exp(g(s, t[r, None]) - top[r, None]).sum(axis=1)
        return out

    k = 64
    h = (hi - lo) / k
    rows = np.arange(len(t))
    total = h * node_sum(rows, np.arange(k + 1.0), h)
    est = np.zeros(len(t))
    while rows.size:
        if k >= _EXPLOG_CAP:
            raise QuadratureError(
                f"{w!r}: trapezoid rule not converged at n={int(ns[rows[0]])} with "
                f"{k} intervals, last halving difference {est[rows[0]]:.2e}"
            )
        finer = 0.5 * (total[rows] + h[rows] * node_sum(rows, np.arange(k) + 0.5, h))
        est[rows] = np.abs(1.0 - total[rows] / finer)
        total[rows], h[rows], k = finer, 0.5 * h[rows], 2 * k
        rows = rows[~(est[rows] <= 0.1 * rel_tol)]  # a nan difference refines on
    return np.log(np.pi) + np.log(xn) - En + top + np.log(total), float(est.max()), k


def _moment_custom(w, n, rel_tol):
    from scipy.integrate import quad

    pts = [1.0 - 1.0 / (n + 2.0), 1.0 - 4.0 / (n + 4.0)] if n >= 8 else None
    val, _ = quad(
        lambda r: 2.0 * np.pi * r ** (2 * n + 1) * float(w.density(r)),
        0.0,
        1.0,
        epsrel=0.1 * rel_tol,
        points=pts,
        **_QUAD_OPTS,
    )
    return val


def _cross_check(log_values, log_ref, lo, hi, rel_tol, what):
    """Compare the table with log_ref(n) at 6 geometric indices in [lo, hi].

    Raises QuadratureError naming n where the relative difference
    exceeds 200 * rel_tol; returns the sampled indices and the worst
    difference.
    """
    ns = [int(n) for n in np.unique(np.geomspace(lo, hi, 6).astype(int))]
    worst = 0.0
    for n in ns:
        diff = abs(float(np.expm1(log_values[n] - log_ref(n))))
        if not diff <= 200.0 * rel_tol:  # a nan reference fails too
            raise QuadratureError(f"{what} at n={n}: rel diff {diff:.2e}")
        worst = max(worst, diff)
    return ns, worst


def compute_moments(w, n_max, rel_tol=1e-12):
    """Compute m[0..n_max] and return a MomentTable.

    Parameters
    ----------
    w : RadialWeight
    n_max : int
        Highest moment index, >= 1.
    rel_tol : float
        Target relative tolerance per entry, in (1e-14, 1e-3); the
        table's rel_tol records the worse of request and estimate.

    The Standard family needs no quadrature: m[n] is the cumulative
    product of 1/(1 + (alpha+1)/k) over k = 1..n, within about 4e-14 of
    the true value up to n = 20000 for alpha in [-0.999, 10] (closer to
    -1 the roundings of factors near 1 add up to about 2e-13), and QAWS
    quadrature cross-checks it at sampled indices.  Where a factor rounds
    to 1 before n_max (alpha = -1 + 1e-12 at n ~ 9000), no double table
    is strictly decreasing and WeightDomainError names alpha.  The
    ExpLog family runs one trapezoid rule in log x for every index,
    vectorized over n, which refines each entry until two successive
    step halvings agree to 0.1 * rel_tol; per-index adaptive quadrature
    cross-checks it at sampled indices.  Custom weights run per-index
    quadrature.  ``MomentTable.source`` records the route and the check.
    """
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)):
        raise ValueError(f"n_max must be an integer, got n_max={n_max!r}")
    n_max = int(n_max)
    if n_max < 1:
        raise WeightDomainError(f"n_max must be >= 1, got {n_max}")
    if not (1e-14 < rel_tol < 1e-3):
        raise WeightDomainError(f"rel_tol must lie in (1e-14, 1e-3), got {rel_tol}")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if w.kind == "standard":
            m = np.ones(n_max + 1)
            m[1:] = np.cumprod(1.0 / (1.0 + (w.alpha + 1.0) / np.arange(1.0, n_max + 1)))
            log_values = np.log(m)
            flat = np.nonzero(np.diff(log_values) >= 0.0)[0]
            if flat.size:
                raise WeightDomainError(
                    f"standard weight alpha={w.alpha!r} is too close to -1 for n_max={n_max}: "
                    f"m[n-1]/m[n] = 1 + (alpha+1)/n rounds to 1 at n={int(flat[0]) + 1}, "
                    f"so no double table is strictly decreasing"
                )
            ns, est = _cross_check(
                log_values, lambda n: np.log(_moment_standard(w, n, rel_tol)[0]),
                1, n_max, rel_tol, "standard moment product disagrees with QAWS quadrature",
            )
            source = dict(route="product", intervals=None, check_indices=ns, check_diff=est)
            return MomentTable(w, log_values, max(rel_tol, est), source)

        if w.kind == "explog":
            log_values, est, intervals = _log_moments_explog(w, np.arange(n_max + 1), rel_tol)
            ns, diff = _cross_check(
                log_values, lambda n: _log_moment_explog_adaptive(w, n, rel_tol),
                1, n_max, rel_tol, f"{w!r}: trapezoid rule disagrees with adaptive quadrature",
            )
            source = dict(route="trapezoid", intervals=intervals, check_indices=ns, check_diff=diff)
            return MomentTable(w, log_values, max(rel_tol, est, diff), source)

        log_values = np.empty(n_max + 1)
        for n in range(n_max + 1):
            try:
                log_values[n] = np.log(_moment_custom(w, n, rel_tol))
            except Exception as exc:  # pragma: no cover - quadpack failures are rare
                raise QuadratureError(f"moment quadrature failed at n={n}: {exc}") from exc

    source = dict(route="custom", intervals=None, check_indices=[], check_diff=None)
    return MomentTable(w, log_values, rel_tol, source)


# the kernel series stops once its certified tail is below this share
# of the partial sum
_TAIL_TOL = 1e-12


def _log_kernel_norm_sq(mt, r):
    """log ||K_r||^2 with a certified geometric tail bound.

    Term ratios rho_n = r^2 m[n]/m[n+1] decrease in n (log-convexity),
    so once the running ratio is below 1 the remaining tail is at most
    terms[k] * rho[k]/(1 - rho[k]).  Sums run peak-shifted; terms more
    than 80 e-folds below the peak cannot move the total past _TAIL_TOL.
    The prefix grows geometrically so small radii never scan a table
    sized for the boundary.
    """
    n_block = min(4096, mt.n_max + 1)
    two_log_r = 2.0 * np.log(r)
    while True:
        lt = two_log_r * np.arange(n_block) - mt.log_values[:n_block]
        ip = int(np.argmax(lt))
        tail = np.nonzero(lt[ip:] < lt[ip] - 80.0)[0]
        cut = ip + int(tail[0]) if tail.size else len(lt)
        lt = lt[:cut]

        shifted = np.exp(lt - lt[ip])
        partial = np.cumsum(shifted)
        rho = shifted[1:] / shifted[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = np.where(rho < 1.0, shifted[:-1] * rho / (1.0 - rho), np.inf)
        ok = np.nonzero(bound <= _TAIL_TOL * partial[:-1])[0]
        if ok.size:
            k = int(ok[0])
            return lt[ip] + np.log(partial[k])
        if cut < n_block or n_block > mt.n_max:
            break
        n_block = min(4 * n_block, mt.n_max + 1)

    required = _required_n_estimate(mt, r)
    raise InsufficientMomentsError(
        f"kernel series at r={r} does not converge within n_max={mt.n_max}; "
        f"need roughly n_max={required}",
        required=required,
    )


def _required_n_estimate(mt, r):
    # how far the table must extend for the tail bound to trigger at
    # radius r.  Model: g(n) = log m[n] - log m[n+1] decays like a power
    # of n, fitted from the table; the peak term sits where g = 2*log(1/r)
    # and the bound fires once the cumulative decay past the peak,
    # C(N) = int (L - g(s)) ds, plus the log(1 - rho) factor, covers the
    # tolerance budget.
    g = -np.diff(mt.log_values)
    L = -2.0 * np.log(r)
    k2 = len(g) - 1
    k1 = max(1, k2 // 2)
    p = float(np.clip(np.log(g[k1] / g[k2]) / np.log(k2 / k1), 0.05, 4.0))
    start = max(float(k2), k2 * (g[k2] / L) ** (1.0 / p))
    budget = np.log(1.0 / _TAIL_TOL) + 5.0

    def g_model(s):
        return g[k2] * (s / k2) ** (-p)

    def decay(N):
        if p == 1.0:
            integ = g[k2] * k2 * np.log(N / start)
        else:
            integ = g[k2] * k2**p / (1.0 - p) * (N ** (1.0 - p) - start ** (1.0 - p))
        c = L * (N - start) - integ
        gn = g_model(N)
        return c + (np.log(L - gn) if gn < L else -np.inf)

    hi = start + 2.0 * budget / L
    while decay(hi) < budget:
        hi *= 1.5
    lo = start
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if decay(mid) < budget else (lo, mid)
    return int(np.ceil(1.1 * hi)) + 1


def kernel_norm_sq(mt, r):
    """||K_r||^2 = sum_n r^(2n)/m[n], truncated by a geometric tail bound.

    Stops at the first n where the term ratio has dropped below 1 and
    the geometric tail estimate term * rho/(1-rho) is below
    _TAIL_TOL * partial_sum.  Exhausting the table raises
    InsufficientMomentsError carrying an n_max estimate; there is no
    silent truncation.  For rapidly decaying weights very close to the
    boundary the sum can exceed double range; use tau(), which combines
    the factors in log space.
    """
    if not (0.0 <= r < 1.0):
        raise WeightDomainError(f"kernel norm needs 0 <= r < 1, got {r}")
    if r == 0.0:
        return float(np.exp(-mt.log_values[0]))
    return float(np.exp(_log_kernel_norm_sq(mt, r)))


def tau(w, mt, r):
    """tau(r) = (w(r) * ||K_r||^2)^(-1/2), combined in log space."""
    if r == 0.0:
        log_k = -mt.log_values[0]
    else:
        if not (0.0 < r < 1.0):
            raise WeightDomainError(f"tau needs 0 <= r < 1, got {r}")
        log_k = _log_kernel_norm_sq(mt, r)
    log_dens = float(w.log_density(np.asarray(r)))
    if not np.isfinite(log_dens):
        raise WeightDomainError(f"weight density vanishes or blows up at r={r}")
    return float(np.exp(-0.5 * (log_dens + log_k)))


class TauProfile:
    """A radial function r -> tau(r), from a weight or user-supplied.

    Instances are callables accepting scalars or arrays.  ``r_hi`` is the
    largest radius the profile can be evaluated at; weight-derived
    profiles inherit it from where the kernel series still converges
    within the moment budget.
    """

    def __init__(self, fn, provenance, r_hi):
        self.provenance = provenance
        self.r_hi = r_hi
        self._fn = fn
        self._growth_check()

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r > self.r_hi):
            raise WeightDomainError(
                f"tau profile evaluated beyond r_hi={self.r_hi}"
            )
        return self._fn(r)

    @classmethod
    def user_supplied(cls, fn, r_hi=1.0 - 1e-12):
        """Wrap an explicit radial callable, to be read on 0 <= r <= r_hi < 1; no weight needed."""
        if not 0.0 < r_hi < 1.0:
            raise WeightDomainError(f"tau profile needs 0 < r_hi < 1, got r_hi={r_hi}")
        return cls(lambda r: np.asarray(fn(r), dtype=float), "UserSupplied", r_hi)

    @classmethod
    def standard(cls, alpha):
        """Closed-form tau of the standard weight: sqrt(pi/(alpha+1)) (1 - r^2)."""
        if not -1.0 < alpha < np.inf:
            raise WeightDomainError(
                f"standard tau profile needs -1 < alpha < inf, got alpha={alpha}"
            )
        c = np.sqrt(np.pi / (alpha + 1.0))
        return cls.user_supplied(lambda r: c * (1.0 - np.asarray(r, float) ** 2))

    @classmethod
    def ce(cls, alpha):
        """tau(r) = (1-r) / log^alpha(e/(1-r)), the Cauchy-type family's profile."""
        if not 0.0 <= alpha < np.inf:
            raise WeightDomainError(f"ce tau profile needs 0 <= alpha < inf, got alpha={alpha}")
        return cls.user_supplied(
            lambda r: (1.0 - np.asarray(r, float))
            / (1.0 - np.log1p(-np.asarray(r, float))) ** alpha
        )

    def _growth_check(self):
        # tau(r) = O(1-r) near 1, spot-checked: the ratio tau/(1-r) on the
        # outer grid must not blow past its inner-grid scale.
        lo = np.linspace(0.05, 0.9, 35)
        hi_end = min(self.r_hi, 1.0 - 1e-9)
        if hi_end <= 0.92:
            return
        hi = 1.0 - np.exp(np.linspace(np.log(0.08), np.log(1.0 - hi_end), 35))
        ratio_lo = self._fn(lo) / (1.0 - lo)
        ratio_hi = self._fn(hi) / (1.0 - hi)
        if not np.max(ratio_hi) <= 10.0 * np.max(ratio_lo) + 1e-12:  # a nan ratio fails too
            raise WeightDomainError(
                "tau profile violates tau(r) = O(1-r) near the boundary "
                f"(ratio grows to {np.max(ratio_hi):.3e})"
            )


# tau_profile's u-grid spacing and its validation tolerance
_TAU_GRID_STEP = 0.005
_TAU_VALIDATE_TOL = 1e-6


def tau_profile(w, mt):
    """Memoized tau with cubic-spline (not-a-knot) evaluation between grid nodes.

    Caches log ||K_r||^2 against u = log(1/(1-r)) on a uniform u-grid out
    to the largest radius the kernel series supports at the table's
    n_max, then validates against direct tau() at 100 random radii to
    1e-6 relative error.  Only the kernel factor is interpolated: the
    density factor of tau is closed-form per family and can carry
    unbounded u-derivatives near r = 0 (ExpLog), which no fixed grid
    would resolve.
    """
    # probe outward, node by node, until the series runs out of moments
    # (by u = 40 at the latest, past where 1 - e^-u rounds to 1); each
    # probe's value is the spline's value at that node, so the grid ends
    # at the last verified radius
    u = np.arange(0.0, 40.0 + 0.5 * _TAU_GRID_STEP, _TAU_GRID_STEP)
    r_grid = 1.0 - np.exp(-u)
    log_k = [-mt.log_values[0]]
    for ri in r_grid[1:]:
        try:
            log_k.append(_log_kernel_norm_sq(mt, ri))
        except InsufficientMomentsError:
            break
    u, r_grid = u[: len(log_k)], r_grid[: len(log_k)]
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(u, log_k, bc_type="not-a-knot", extrapolate=False)
    r_hi = float(r_grid[-1])
    u_last = float(u[-1])

    def fn(r):
        r = np.asarray(r, dtype=float)
        # clamp in u: the r -> u transform of r_hi itself can overshoot
        # the last node by one ulp, which the spline would turn into nan
        uu = np.minimum(-np.log1p(-np.minimum(r, r_hi)), u_last)
        out = np.exp(-0.5 * (w.log_density(r) + spline(uu)))
        return out if out.shape else float(out)

    prof = TauProfile(fn, "FromWeight", r_hi)

    rng = np.random.default_rng(0)
    sample = rng.uniform(0.0, r_hi, 100)
    direct = np.array([tau(w, mt, ri) for ri in sample])
    rel = np.abs(prof(sample) / direct - 1.0)
    if np.max(rel) > _TAU_VALIDATE_TOL:
        raise QuadratureError(
            f"tau profile interpolation error {np.max(rel):.2e} exceeds {_TAU_VALIDATE_TOL}"
        )
    return prof

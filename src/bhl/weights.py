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
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import gammaln

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
        """w_a(r) = (a+1)/pi * (1-r^2)^a, alpha > -1."""
        if not alpha > -1.0:
            raise WeightDomainError(f"standard weight needs alpha > -1, got {alpha}")
        return cls("standard", alpha=float(alpha))

    @classmethod
    def explog(cls, alpha, beta):
        """w(r) = exp(-alpha / log(1/r^2)^beta), alpha > 0, beta > 0."""
        if not (alpha > 0.0 and beta > 0.0):
            raise WeightDomainError(
                f"explog weight needs alpha, beta > 0, got ({alpha}, {beta})"
            )
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
            with np.errstate(divide="ignore"):
                x = -2.0 * np.log(r)  # log(1/r^2); infinite at r=0, weight -> 1
                return np.exp(-self.alpha / x**self.beta)
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
                x = -2.0 * np.log(r)
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
        How the table was built: ``route`` (``product``, ``adaptive``,
        ``panel`` or ``custom``), the explog ``n_split`` (the first
        index of the panel rule, past n_max on the adaptive route; None
        for other families), and ``check_indices`` /
        ``check_diff``, the indices the table was cross-checked at
        against an independent quadrature and the worst relative
        difference found there (empty / None when nothing was sampled).
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
    if not alpha > -1.0:
        raise WeightDomainError(f"closed form needs alpha > -1, got {alpha}")
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
    # normalize by the peak value at the saddle so the integrand is O(1),
    # then integrate each side adaptively.  Returns (log m[n], rel err).
    a, b = w.alpha, w.beta
    np1, xn, En = _explog_saddle(w, n)
    t = a / xn**b

    def g(x):
        return np.exp(-(np1 * x + a / x**b - En))

    # cap the right limit where the integrand is below double range; the
    # semi-infinite transform misses the increasingly narrow peak at xn
    x_hi = xn * (1.0 + max(8.0, 760.0 / (b * t)))
    v1, e1 = quad(g, 0.0, xn, epsrel=0.1 * rel_tol, **_QUAD_OPTS)
    v2, e2 = quad(g, xn, x_hi, epsrel=0.1 * rel_tol, **_QUAD_OPTS)
    return np.log(np.pi) - En + np.log(v1 + v2), (e1 + e2) / (v1 + v2)


def _log_moments_explog_panels(w, ns):
    """log m[n] for an array of indices, by panel Gauss-Legendre.

    In u = x/x_n - 1 the normalized integrand is exp(-t*h(u)) with
    h(u) = b*u + (1+u)^(-b) - 1 and t = a/x_n^b, so a fixed panel
    partition of u in [-1, U] with U = max(8, 80/(b*t_min)) resolves
    every n in the batch at machine accuracy once t_min >= ~10.
    """
    a, b = w.alpha, w.beta
    ns = np.asarray(ns)
    np1, xn, En = _explog_saddle(w, ns)
    t = a / xn**b

    nodes, wts = np.polynomial.legendre.leggauss(48)
    bps = [-1.0, -0.8, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    u_hi = max(8.0, 80.0 / (b * float(np.min(t))))
    while bps[-1] < u_hi:
        bps.append(bps[-1] * 2.0)

    out = np.empty(len(ns))
    for lo in range(0, len(ns), 65536):
        tc = t[lo : lo + 65536]
        total = np.zeros_like(tc)
        for u0, u1 in zip(bps[:-1], bps[1:]):
            mid, half = 0.5 * (u0 + u1), 0.5 * (u1 - u0)
            u = mid + half * nodes
            h = b * u + (1.0 + u) ** (-b) - 1.0
            total += half * (np.exp(-np.outer(tc, h)) @ wts)
        out[lo : lo + 65536] = np.log(total)
    return np.log(np.pi) - En + np.log(xn) + out


def _explog_panel_threshold(w):
    # panel quadrature is certified for t = a/x_n^b >= 10; below that the
    # integrand is too skewed for the fixed partition and the adaptive
    # route takes over.  t is monotone increasing in n.
    a, b = w.alpha, w.beta

    def t_of(n):
        return a / _explog_saddle(w, n)[1] ** b

    hi = 8
    while t_of(hi) < 10.0:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if t_of(mid) < 10.0 else (lo, mid)
    return max(hi, 8)


def _moment_custom(w, n, rel_tol):
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
    quadrature cross-checks it at sampled indices.  The ExpLog family runs
    per-index adaptive quadrature only below a sharpness threshold and a
    vectorized panel rule above it; the two routes are cross-checked on
    sample indices of every table built.  Custom weights run per-index
    quadrature.  ``MomentTable.source`` records the route and the check.
    """
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
            ns, est = _cross_check(
                log_values, lambda n: np.log(_moment_standard(w, n, rel_tol)[0]),
                1, n_max, rel_tol, "standard moment product disagrees with QAWS quadrature",
            )
            source = dict(route="product", n_split=None, check_indices=ns, check_diff=est)
            return MomentTable(w, log_values, max(rel_tol, est), source)

        log_values = np.empty(n_max + 1)
        errs = np.zeros(n_max + 1)
        threshold = _explog_panel_threshold(w) if w.kind == "explog" else None
        n_split = n_max + 1 if threshold is None else min(threshold, n_max + 1)
        for n in range(n_split):
            try:
                if w.kind == "explog":
                    log_values[n], errs[n] = _log_moment_explog_adaptive(w, n, rel_tol)
                else:
                    log_values[n] = np.log(_moment_custom(w, n, rel_tol))
            except Exception as exc:  # pragma: no cover - quadpack failures are rare
                raise QuadratureError(f"moment quadrature failed at n={n}: {exc}") from exc
        est = float(np.max(errs[:n_split]))
        route, ns, diff = "custom" if w.kind == "custom" else "adaptive", [], None

        if n_split <= n_max:
            log_values[n_split:] = _log_moments_explog_panels(w, np.arange(n_split, n_max + 1))
            ns, diff = _cross_check(
                log_values, lambda n: _log_moment_explog_adaptive(w, n, rel_tol)[0],
                n_split, n_max, rel_tol, "explog panel quadrature disagrees with adaptive route",
            )
            route, est = "panel", max(est, diff)

    source = dict(route=route, n_split=threshold, check_indices=ns, check_diff=diff)
    return MomentTable(w, log_values, max(rel_tol, est), source)


def _log_kernel_norm_sq(mt, r, tail_tol):
    """log ||K_r||^2 with a certified geometric tail bound.

    Term ratios rho_n = r^2 m[n]/m[n+1] decrease in n (log-convexity),
    so once the running ratio is below 1 the remaining tail is at most
    terms[k] * rho[k]/(1 - rho[k]).  Sums run peak-shifted; terms more
    than 80 e-folds below the peak cannot move the total past tail_tol.
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
        ok = np.nonzero(bound <= tail_tol * partial[:-1])[0]
        if ok.size:
            k = int(ok[0])
            return lt[ip] + np.log(partial[k])
        if cut < n_block or n_block > mt.n_max:
            break
        n_block = min(4 * n_block, mt.n_max + 1)

    raise InsufficientMomentsError(
        f"kernel series at r={r} does not converge within n_max={mt.n_max}; "
        f"need roughly n_max={_required_n_estimate(mt, r, tail_tol)}",
        required=_required_n_estimate(mt, r, tail_tol),
    )


def _required_n_estimate(mt, r, tail_tol):
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
    budget = np.log(1.0 / tail_tol) + 5.0

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


def kernel_norm_sq(mt, r, tail_tol=1e-12):
    """||K_r||^2 = sum_n r^(2n)/m[n], truncated by a geometric tail bound.

    Stops at the first n where the term ratio has dropped below 1 and
    the geometric tail estimate term * rho/(1-rho) is below
    tail_tol * partial_sum.  Exhausting the table raises
    InsufficientMomentsError carrying an n_max estimate; there is no
    silent truncation.  For rapidly decaying weights very close to the
    boundary the sum can exceed double range; use tau(), which combines
    the factors in log space.
    """
    if not (0.0 <= r < 1.0):
        raise WeightDomainError(f"kernel norm needs 0 <= r < 1, got {r}")
    if r == 0.0:
        return float(np.exp(-mt.log_values[0]))
    return float(np.exp(_log_kernel_norm_sq(mt, r, tail_tol)))


def tau(w, mt, r, tail_tol=1e-12):
    """tau(r) = (w(r) * ||K_r||^2)^(-1/2), combined in log space."""
    if r == 0.0:
        log_k = -mt.log_values[0]
    else:
        if not (0.0 < r < 1.0):
            raise WeightDomainError(f"tau needs 0 <= r < 1, got {r}")
        log_k = _log_kernel_norm_sq(mt, r, tail_tol)
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
        """Wrap an explicit radial callable; no weight needed."""
        return cls(lambda r: np.asarray(fn(r), dtype=float), "UserSupplied", r_hi)

    @classmethod
    def standard(cls, alpha):
        """Closed-form tau of the standard weight: sqrt(pi/(alpha+1)) (1 - r^2)."""
        c = np.sqrt(np.pi / (alpha + 1.0))
        return cls.user_supplied(lambda r: c * (1.0 - np.asarray(r, float) ** 2))

    @classmethod
    def ce(cls, alpha):
        """tau(r) = (1-r) / log^alpha(e/(1-r)), the Cauchy-type family's profile."""
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
        if np.max(ratio_hi) > 10.0 * np.max(ratio_lo) + 1e-12:
            raise WeightDomainError(
                "tau profile violates tau(r) = O(1-r) near the boundary "
                f"(ratio grows to {np.max(ratio_hi):.3e})"
            )

    def measured_comparability(self, delta, r_max):
        """Largest tau-ratio over radial displacements up to delta*tau(r).

        This is the constant C of the covering lemma, measured on the
        profile over [0, r_max] rather than derived analytically.
        """
        r = np.linspace(0.0, r_max, 2001)
        t = self._fn(r)
        C = 1.0
        for sign in (-1.0, 1.0):
            rp = np.clip(r + sign * delta * t, 0.0, min(r_max, self.r_hi))
            tp = self._fn(rp)
            C = max(C, float(np.max(t / tp)), float(np.max(tp / t)))
        return C


# tau_profile's u-grid spacing and its validation tolerance
_TAU_GRID_STEP = 0.005
_TAU_VALIDATE_TOL = 1e-6


def tau_profile(w, mt, tail_tol=1e-12):
    """Memoized tau with monotone-spline evaluation between grid nodes.

    Caches log ||K_r||^2 against u = log(1/(1-r)) on a uniform u-grid out
    to the largest radius the kernel series supports at the table's
    n_max, then validates against direct tau() at 100 random radii to
    1e-6 relative error.  Only the kernel factor is interpolated: the
    density factor of tau is closed-form per family and can carry
    unbounded u-derivatives near r = 0 (ExpLog), which no fixed grid
    would resolve.
    """
    # probe outward until the series runs out of moments; the probe walks
    # the same u-lattice the grid is built on so no grid node lands past
    # the last verified radius
    u_hi = 0.0
    while u_hi < 40.0:
        try:
            _log_kernel_norm_sq(mt, 1.0 - np.exp(-(u_hi + _TAU_GRID_STEP)), tail_tol)
        except InsufficientMomentsError:
            break
        u_hi += _TAU_GRID_STEP
    u = np.arange(0.0, u_hi + 0.5 * _TAU_GRID_STEP, _TAU_GRID_STEP)
    # the monotone spline estimates edge derivatives one-sidedly with h^2
    # error, so refine the first and last interval
    edge = _TAU_GRID_STEP * np.array([0.125, 0.25, 0.5, 0.75])
    u = np.unique(np.concatenate([u, edge, u[-1] - edge]))
    r_grid = 1.0 - np.exp(-u)
    log_k = np.array(
        [_log_kernel_norm_sq(mt, ri, tail_tol) if ri > 0.0 else -mt.log_values[0]
         for ri in r_grid]
    )
    spline = PchipInterpolator(u, log_k, extrapolate=False)
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
    direct = np.array([tau(w, mt, ri, tail_tol) for ri in sample])
    rel = np.abs(prof(sample) / direct - 1.0)
    if np.max(rel) > _TAU_VALIDATE_TOL:
        raise QuadratureError(
            f"tau profile interpolation error {np.max(rel):.2e} exceeds {_TAU_VALIDATE_TOL}"
        )
    return prof

"""Predicted singular-value laws, Hardy norms, and power-law fitting.

The closed-form laws live in AsymptoticLaw objects: s_n is predicted as
gamma * ||phi'||_p / (n + offset)^e.  The offset distinguishes the
standard-weight law sqrt(alpha+1)/(n+1) from pure power laws; it is 0
for the exponential-log family.

Hardy norms are circle means.  Polynomials are continuous up to the
boundary and the means are nondecreasing in r, so the sup is the r = 1
circle integral, taken by a nested trapezoid rule on the nodes
2 pi j / M + pi / 2^16.  Each doubling of M adds only the M new nodes,
and the rule stops when two successive means agree to 1e-14 relative:
a few hundred nodes when phi' has no zero on or near the circle.  A
zero on the circle makes convergence algebraic, and the rule runs to
its cap of 2^16 nodes, whose node set the fixed phase makes that of the
2^16-point midpoint rule, so the value is that rule's up to the order
of summation.

The Cauchy-type family's boundary modulus ~ 1/(theta log^gamma(1/theta))
is p-integrable only for p = 1 and gamma > 1, so every other (p, gamma)
raises DivergenceError by this closed form, before any circle is
evaluated.  At p = 1 the means are taken on the radii r_j = 1 - 2^{-j}.
The boundary integral's tail past theta = 2^{-j} decays like
j^{1-gamma}, so the mean at r_j is short of the norm by about
j * change / (gamma - 1), change the relative step from r_{j-1}; the
rule returns the first mean where that estimate is at most
_CE_REL_TOL, and raises NonConvergedError when none of the
_MAX_DOUBLINGS radii reaches it (gamma <= 3 in practice).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DivergenceError,
    LawMismatchError,
    NonConvergedError,
    WeightDomainError,
    WindowError,
)
from .rearrangement import _theta_cells

# radii 1 - 2^-j tried by hardy_norm for the Cauchy-type family, and
# the relative tail estimate it stops at
_MAX_DOUBLINGS = 48
_CE_REL_TOL = 1e-6

# the polynomial circle rule: first level at least _CIRCLE_MIN_NODES and
# 8 (d + 1) nodes (exact for |phi'|^2), stop at _CIRCLE_REL_TOL relative
# change of the mean or at _CIRCLE_MAX_NODES nodes
_CIRCLE_MIN_NODES = 64
_CIRCLE_REL_TOL = 1e-14
_CIRCLE_MAX_NODES = 1 << 16


class AsymptoticLaw:
    """s_n ~ gamma * symbol_factor / (n + offset)^exponent.

    gamma and symbol_factor are finite and >= 0, and the offset finite
    and > -1, so that every prediction, n >= 1, is finite and >= 0.
    """

    def __init__(self, gamma, exponent, symbol_factor=1.0, offset=0.0):
        if not 0.0 <= gamma < np.inf:
            raise ValueError(f"law needs 0 <= gamma < inf, got gamma={gamma}")
        if not exponent > 0.0:
            raise ValueError(f"law exponent must be > 0, got {exponent}")
        if not 0.0 <= symbol_factor < np.inf:
            raise ValueError(
                f"law needs 0 <= symbol_factor < inf, got symbol_factor={symbol_factor}"
            )
        if not -1.0 < offset < np.inf:
            raise ValueError(f"law needs -1 < offset < inf, got offset={offset}")
        self.gamma = float(gamma)
        self.exponent = float(exponent)
        self.symbol_factor = float(symbol_factor)
        self.offset = float(offset)

    def __call__(self, n):
        n = np.asarray(n)
        if not np.all(n >= 1):  # nan fails n >= 1
            raise ValueError("law evaluation needs n >= 1")
        out = self.gamma * self.symbol_factor / (n + self.offset) ** self.exponent
        return float(out) if out.ndim == 0 else out

    def __repr__(self):
        return (
            f"AsymptoticLaw(gamma={self.gamma:.6g}, exponent={self.exponent:.6g}, "
            f"symbol_factor={self.symbol_factor:.6g}, offset={self.offset:g})"
        )


def _circle_norm(deriv, p):
    """(circle mean of |phi'|^p)^(1/p) for a polynomial phi', finite p.

    Level M's nodes are the even ones of level 2M, so a doubling adds the
    odd ones, 2 pi (j + 1/2) / M + phase.  |phi'| is divided by its
    largest first-level value before the p-th power, so large p does not
    overflow.
    """
    d = len(deriv.coeffs) - 1
    M = 1 << (max(_CIRCLE_MIN_NODES, 8 * (d + 1)) - 1).bit_length()
    phase = np.pi / _CIRCLE_MAX_NODES
    vals = deriv(np.exp(1j * (2.0 * np.pi * np.arange(M) / M + phase)))
    scale = float(vals.max())
    if scale == 0.0:
        return 0.0
    total = float(np.sum((vals / scale) ** p))
    mean = total / M
    while M < _CIRCLE_MAX_NODES:
        theta = 2.0 * np.pi * (np.arange(M) + 0.5) / M + phase
        total += float(np.sum((deriv(np.exp(1j * theta)) / scale) ** p))
        M *= 2
        prev, mean = mean, total / M
        if abs(mean - prev) <= _CIRCLE_REL_TOL * mean:
            break
    return scale * mean ** (1.0 / p)


def _ce_circle_norm(deriv, r, p):
    """(circle mean of |phi'|^p)^(1/p) on |z| = r for the Cauchy-type
    family, on its angular cells at level 2.  |phi'| is divided by its
    largest value on the circle before the p-th power, as in
    _circle_norm, so large p does not overflow.
    """
    theta, wts = _theta_cells(deriv, r, 2)
    vals = deriv.abs_grid(r, theta)
    scale = float(vals.max())
    return scale * float(wts @ (vals / scale) ** p / (2.0 * np.pi)) ** (1.0 / p)


def hardy_norm(deriv, p):
    """||phi'||_{H^p} = (sup_r circle mean of |phi'|^p)^(1/p), 1 <= p < inf.

    For a polynomial phi' this is the self-refining circle rule of the
    module docstring: a few hundred nodes when phi' has no zero on or
    near the circle, at most 2^16, where the fixed phase makes it the
    2^16-point midpoint rule.  For the Cauchy-type family it is the
    radius rule of the module docstring: DivergenceError unless p = 1
    and gamma > 1, then the first mean whose tail estimate is at most
    _CE_REL_TOL = 1e-6 relative, or NonConvergedError.  p = inf raises:
    H^inf is a sup, not a circle mean.
    """
    if not 1.0 <= p < np.inf:
        raise ValueError(f"hardy_norm needs 1 <= p < inf, got p={p}")
    if deriv.kind == "poly":
        return _circle_norm(deriv, p)
    if p > 1.0 or deriv.gamma <= 1.0:
        raise DivergenceError(
            f"ce symbol with gamma={deriv.gamma} is not in H^{p}: "
            f"it is in H^p only for p = 1 and gamma > 1"
        )
    prev, tail = None, np.inf
    for j in range(1, _MAX_DOUBLINGS + 1):
        r_j = -np.expm1(j * np.log(0.5))  # 1 - 2^-j without rounding to 1
        norm = _ce_circle_norm(deriv, r_j, 1.0)
        if prev is not None:
            tail = j * abs(norm - prev) / norm / (deriv.gamma - 1.0)
            if tail <= _CE_REL_TOL:
                return norm
        prev = norm
    raise NonConvergedError(
        f"H^1 circle means of the ce symbol (gamma={deriv.gamma}) still "
        f"{tail:.2e} short by their tail estimate after {_MAX_DOUBLINGS} "
        f"radius doublings"
    )


def _check_explog(what, alpha, beta):
    """The explog weight's domain, 0 < alpha, beta < inf, naming the parameter outside it."""
    for name, v in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < v < np.inf:
            raise WeightDomainError(f"{what} needs 0 < {name} < inf, got {name}={v}")


def predict_standard(alpha):
    """s_n(H_zbar) ~ sqrt(alpha+1)/(n+1) for the standard weight."""
    if not -1.0 < alpha < np.inf:
        raise WeightDomainError(f"standard law needs -1 < alpha < inf, got alpha={alpha}")
    return AsymptoticLaw(np.sqrt(alpha + 1.0), 1.0, offset=1.0)


def predict_explog(alpha, beta):
    """s_n(H_zbar) ~ gamma/n^((beta+2)/(2(beta+1))) for the explog weight."""
    _check_explog("explog law", alpha, beta)
    e = (beta + 2.0) / (2.0 * (beta + 1.0))
    gamma = np.sqrt((alpha * beta) ** (1.0 / (1.0 + beta)) / (1.0 + beta))
    return AsymptoticLaw(gamma, e, offset=0.0)


def predict_symbol(base, deriv, p):
    """Attach ||phi'||_{H^p} to a base law with exponent 1/p, 1 <= p < inf."""
    if not 1.0 <= p < np.inf:
        raise ValueError(f"predict_symbol needs 1 <= p < inf, got p={p}")
    if abs(base.exponent - 1.0 / p) > 1e-12:
        raise LawMismatchError(
            f"base exponent {base.exponent} is not 1/p for p={p}"
        )
    return AsymptoticLaw(
        base.gamma, base.exponent, symbol_factor=hardy_norm(deriv, p), offset=base.offset
    )


def laplace_moment_prediction(alpha, beta, n):
    """Leading-order saddle approximation of the explog moment m[n].

    The saddle of (n+1)x + alpha/x^beta sits at x_n = (alpha beta/(n+1))
    ^(1/(1+beta)); with t = alpha/x_n^beta the curvature there is
    t beta(beta+1)/x_n^2, giving pi * x_n exp(-E_n) sqrt(2pi/(t beta
    (beta+1))).  The pi prefactor converts the unit integral to the
    moment convention m[n] = 2 pi int r^(2n+1) omega dr, which is what
    compute_moments returns; relative accuracy improves like 1/t.
    """
    _check_explog("laplace prediction", alpha, beta)
    if not 1 <= n < np.inf:
        raise ValueError(f"laplace prediction needs finite n >= 1, got {n}")
    x_n = (alpha * beta / (n + 1.0)) ** (1.0 / (1.0 + beta))
    t = alpha / x_n**beta
    E_n = (n + 1.0) * x_n + t
    return float(
        np.pi * x_n * np.exp(-E_n) * np.sqrt(2.0 * np.pi / (t * beta * (beta + 1.0)))
    )


def fit_power_law(spec, window):
    """Least-squares fit log s_n = log gamma - e log n over n in window.

    window is an inclusive 1-based (lo, hi) range of singular-value
    indices; returns (e_hat, gamma_hat, rms_log_residual).
    """
    lo, hi = int(window[0]), int(window[1])
    if spec.converged is False:
        raise WindowError("spectrum failed its convergence check; refusing to fit")
    if lo < 1 or hi > len(spec.values):
        raise WindowError(
            f"window [{lo}, {hi}] outside computed range [1, {len(spec.values)}]"
        )
    if hi - lo + 1 < 10:
        raise WindowError(f"window [{lo}, {hi}] has fewer than 10 points")
    s = spec.values[lo - 1 : hi]
    if np.any(s <= 0.0):
        raise WindowError("window contains nonpositive singular values")
    n = np.arange(lo, hi + 1, dtype=float)
    X = np.column_stack([np.ones(len(n)), -np.log(n)])
    coef, *_ = np.linalg.lstsq(X, np.log(s), rcond=None)
    resid = np.sqrt(np.mean((X @ coef - np.log(s)) ** 2))
    return float(coef[1]), float(np.exp(coef[0])), float(resid)

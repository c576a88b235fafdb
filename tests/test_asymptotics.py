import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bhl import asymptotics
from bhl.asymptotics import (
    AsymptoticLaw,
    _ce_circle_norm,
    fit_power_law,
    hardy_norm,
    laplace_moment_prediction,
    predict_explog,
    predict_standard,
    predict_symbol,
)
from bhl.errors import (
    DivergenceError,
    LawMismatchError,
    NonConvergedError,
    WeightDomainError,
    WindowError,
)
from bhl.rearrangement import SymbolDerivative, _theta_cells
from bhl.spectrum import SingularSpectrum

# gamma of the explog(2,1) law: sqrt((2*1)^(1/2) / 2) = 2^(-1/4)
EXPLOG21_GAMMA = 2.0 ** -0.25


def test_hardy_norm_single_monomial():
    d = SymbolDerivative.polynomial([0.0, 0.0, 3.0])  # phi' = 3z^2
    assert abs(hardy_norm(d, 1.0) - 3.0) < 1e-12
    for p in (1.0, 2.0, 3.7):
        assert abs(hardy_norm(SymbolDerivative.polynomial([1.0]), p) - 1.0) < 1e-12


def test_hardy_norm_one_plus_z():
    d = SymbolDerivative.polynomial([1.0, 1.0])
    # mean of |1+e^{i t}| is 4/pi; p=2 gives sqrt(2) exactly
    assert abs(hardy_norm(d, 1.0) - 4.0 / np.pi) < 1e-7
    assert abs(hardy_norm(d, 2.0) - np.sqrt(2.0)) < 1e-9


def test_hardy_norm_monotone_in_p():
    d = SymbolDerivative.polynomial([1.0, -0.5, 0.25])
    vals = [hardy_norm(d, p) for p in (1.0, 1.5, 2.0, 4.0)]
    assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=-10.0, max_value=10.0).filter(lambda x: abs(x) > 1e-3))
def test_hardy_norm_homogeneous(c):
    base = hardy_norm(SymbolDerivative.polynomial([1.0, 1.0]), 1.0)
    scaled = hardy_norm(SymbolDerivative.polynomial([c, c]), 1.0)
    assert abs(scaled - abs(c) * base) < 1e-10 * abs(c)


def test_hardy_norm_ce_divergence_p2():
    with pytest.raises(DivergenceError):
        hardy_norm(SymbolDerivative.ce_family(1.5), 2.0)


def test_hardy_norm_ce_analytic_divergence():
    # gamma <= 1 never reaches H^1; constructible only by bypassing the
    # family guard, but the analytic refusal must still hold
    with pytest.raises(DivergenceError):
        hardy_norm(SymbolDerivative("ce", gamma=0.9), 1.0)


def test_hardy_norm_ce_h1_slow_convergence():
    # gamma=1.5, p=1 does converge, but like 1/sqrt(j) per radius
    # doubling: the tolerance is out of reach and must say so
    with pytest.raises(NonConvergedError):
        hardy_norm(SymbolDerivative.ce_family(1.5), 1.0)


def _ce_boundary_norm(gamma):
    """||phi'||_{H^1} of the Cauchy-type family as its boundary integral,
    (1/pi) int_0^pi |phi'(e^{i theta})| d theta, at 20 digits.

    In x = log(1/theta) the integrand decays like x^-gamma, which
    tanh-sinh resolves; w = 1 - e^{i theta} is taken as
    2 sin^2(theta/2) - i sin(theta), which does not cancel.
    """
    with mpmath.workdps(20):
        def f(x):
            t = mpmath.exp(-x)
            w = mpmath.mpc(2 * mpmath.sin(t / 2) ** 2, -mpmath.sin(t))
            return t / (abs(w) * abs(1 - mpmath.log(w)) ** gamma)

        return float(mpmath.quad(f, [-mpmath.log(mpmath.pi), 0, 10, 100, 1000, mpmath.inf]) / mpmath.pi)


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0, 4.0, 5.0, 8.0])
def test_hardy_norm_ce_h1_is_the_boundary_integral_or_refused(gamma):
    # gamma = 3, 4, 5 and 8 raised DivergenceError at radius 1 - 2^-7;
    # the tail rule returns within 1e-6 or does not converge
    if gamma <= 3.0:
        with pytest.raises(NonConvergedError):
            hardy_norm(SymbolDerivative.ce_family(gamma), 1.0)
    else:
        v, ref = hardy_norm(SymbolDerivative.ce_family(gamma), 1.0), _ce_boundary_norm(gamma)
        assert abs(v - ref) <= 1e-6 * ref, (v, ref)


def test_ce_boundary_norm_reference():
    # the 30-digit values of the same integral; the old rel_tol=5e-3
    # route returned 1.2428 for gamma = 1.5, 13% low
    for gamma, want in ((1.5, 1.42997993602937), (3.0, 3.00830260137665),
                        (4.0, 7.63265094497681), (8.0, 534.744161704479)):
        assert abs(_ce_boundary_norm(gamma) - want) <= 1e-12 * want


@pytest.mark.parametrize("gamma", [0.9, 1.0, 1.5, 8.0])
@pytest.mark.parametrize("p", [1.0, 1.0001, 2.0, 1e3])
def test_hardy_norm_ce_divergence_is_closed_form(gamma, p, monkeypatch):
    # DivergenceError exactly off p = 1, gamma > 1, before any circle
    circles = []
    monkeypatch.setattr(asymptotics, "_ce_circle_norm", lambda *args: circles.append(args) or 1.0)
    deriv = SymbolDerivative("ce", gamma=gamma)
    if p == 1.0 and gamma > 1.0:
        hardy_norm(deriv, p)  # constant means: converged at j = 2
        assert len(circles) == 2
    else:
        with pytest.raises(DivergenceError, match=f"gamma={gamma}"):
            hardy_norm(deriv, p)
        assert circles == []


@pytest.mark.parametrize("rel_tol", [np.nan, 0.0, -1.0, 1.0])
def test_hardy_norm_rejects_rel_tol_outside_unit_interval(rel_tol, monkeypatch):
    # rel_tol is no longer a keyword: any value is refused before any circle
    circles = []
    monkeypatch.setattr(asymptotics, "_ce_circle_norm", lambda *args: circles.append(args))
    for deriv in (SymbolDerivative.ce_family(1.5), SymbolDerivative.polynomial([1.0, 0.5])):
        with pytest.raises(TypeError, match="rel_tol"):
            hardy_norm(deriv, 1.0, rel_tol=rel_tol)
    assert circles == []


def test_hardy_norm_rejects_bad_p():
    with pytest.raises(ValueError):
        hardy_norm(SymbolDerivative.polynomial([1.0]), 0.0)
    with pytest.raises(ValueError):
        hardy_norm(SymbolDerivative.polynomial([1.0]), np.nan)
    # H^inf is a sup over the circle, not a circle mean
    for d in (SymbolDerivative.polynomial([1.0, 0.5]), SymbolDerivative.ce_family(1.5)):
        with pytest.raises(ValueError, match="p=inf"):
            hardy_norm(d, np.inf)


def _midpoint_norm(coeffs, p):
    """The fixed 2^16-point midpoint rule that the circle rule replaced."""
    M = 1 << 16
    th = 2.0 * np.pi * (np.arange(M) + 0.5) / M
    vals = SymbolDerivative.polynomial(coeffs)(np.exp(1j * th))
    return float(np.mean(vals**p)) ** (1.0 / p)


def _mp_circle_norm(f, p, cuts=()):
    """30-digit (circle mean of f(theta)^p)^(1/p), split at the angles cuts."""
    with mpmath.workdps(30):
        pts = [mpmath.mpf(0)] + sorted(mpmath.mpf(t) for t in cuts) + [2 * mpmath.pi]
        mean = mpmath.quad(lambda t: f(t) ** p, pts) / (2 * mpmath.pi)
        return float(mean ** (1 / mpmath.mpf(p)))


def _mp_poly_norm(coeffs, p):
    """_mp_circle_norm of |phi'| for phi' = sum c_k z^k, split at the angle
    of every nonzero root of phi' (on the circle, or near it)."""
    c = [mpmath.mpc(complex(ck)) for ck in coeffs]

    def f(t):
        z = mpmath.expj(t)
        v = mpmath.mpc(0)
        for ck in reversed(c):
            v = v * z + ck
        return abs(v)

    roots = np.roots(np.asarray(coeffs, complex)[::-1]) if len(coeffs) > 1 else []
    cuts = {float(np.angle(r)) % (2.0 * np.pi) for r in roots if abs(r) > 0.0}
    return _mp_circle_norm(f, p, [t for t in cuts if t > 0.0])


class _CountingDerivative(SymbolDerivative):
    """SymbolDerivative that counts the points it is evaluated at."""

    def __init__(self, coeffs):
        super().__init__("poly", coeffs=SymbolDerivative.polynomial(coeffs).coeffs)
        self.points = 0

    def __call__(self, z):
        self.points += np.size(z)
        return super().__call__(z)


CIRCLE_PS = (1.0, 4.0 / 3.0, 2.0, 3.0)
# phi' with every zero at least 5% away from the unit circle
CLEAR_OF_CIRCLE = {
    "1+0.3z^2": [1.0, 0.0, 0.3],
    "1+0.9z^2": [1.0, 0.0, 0.9],
    "1+1.5z^2": [1.0, 0.0, 1.5],
    "1+z+0.75z^2": [1.0, 1.0, 0.75],  # phi' of the cubic symbol (1, 0.5, 0.25)
    "1+2iz+0.9z^2": [1.0, 2.0j, 0.9],
    "3z^2": [0.0, 0.0, 3.0],
}
NEAR_CIRCLE = {"1+0.999z": [1.0, 0.999]}  # zero at -1/0.999
ON_CIRCLE = {"1+z": [1.0, 1.0]}  # zero at -1
CIRCLE_SYMBOLS = {**CLEAR_OF_CIRCLE, **NEAR_CIRCLE, **ON_CIRCLE}
# phi' = sum_{k <= 296} (0.9 z)^k, 1/(1 - 0.9z) up to a term whose effect
# on the H^1 mean lies far below 1e-16
GEOMETRIC_296 = 0.9 ** np.arange(297)


@pytest.mark.parametrize("p", CIRCLE_PS)
@pytest.mark.parametrize("name", sorted({**CLEAR_OF_CIRCLE, **NEAR_CIRCLE}))
def test_hardy_norm_matches_mpmath_circle_quadrature(name, p):
    coeffs = CIRCLE_SYMBOLS[name]
    ref = _mp_poly_norm(coeffs, p)
    assert abs(hardy_norm(SymbolDerivative.polynomial(coeffs), p) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("p", CIRCLE_PS)
@pytest.mark.parametrize("name", sorted(CIRCLE_SYMBOLS))
def test_hardy_norm_matches_midpoint_rule_and_parseval(name, p):
    coeffs = CIRCLE_SYMBOLS[name]
    v = hardy_norm(SymbolDerivative.polynomial(coeffs), p)
    old = _midpoint_norm(coeffs, p)
    assert abs(v - old) <= 1e-15 * old
    if p == 2.0:
        parseval = np.sqrt(np.sum(np.abs(np.asarray(coeffs)) ** 2))
        assert abs(v - parseval) <= 1e-15 * parseval


def test_hardy_norm_geometric_truncation():
    d = SymbolDerivative.polynomial(GEOMETRIC_296)
    ref = _mp_circle_norm(lambda t: 1 / abs(1 - mpmath.mpf(0.9) * mpmath.expj(t)), 1.0)
    v = hardy_norm(d, 1.0)
    assert abs(v - ref) <= 1e-13 * ref
    assert abs(v - _midpoint_norm(GEOMETRIC_296, 1.0)) <= 1e-15 * v
    assert round(v, 5) == 1.45184


@pytest.mark.parametrize("p", CIRCLE_PS)
@pytest.mark.parametrize("name", sorted(CLEAR_OF_CIRCLE))
def test_hardy_norm_few_nodes_away_from_zeros(name, p):
    d = _CountingDerivative(CLEAR_OF_CIRCLE[name])
    hardy_norm(d, p)
    assert 128 <= d.points <= 1024


@pytest.mark.parametrize("p, points", [(1.0, 1 << 16), (4.0 / 3.0, 1 << 16), (2.0, 128)])
def test_hardy_norm_node_cap_on_a_circle_zero(p, points):
    # algebraic convergence runs the rule to the 2^16-node midpoint set;
    # |1 + z|^2 is a trigonometric polynomial, exact at the first level
    d = _CountingDerivative([1.0, 1.0])
    hardy_norm(d, p)
    assert d.points == points


def test_hardy_norm_large_p_is_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = hardy_norm(SymbolDerivative.polynomial([1.0, 0.5]), 1e3)
        big = hardy_norm(SymbolDerivative.polynomial([1e3, 500.0]), 1e3)
    # below the H^inf norm 1.5 and close to it; homogeneous in phi'
    assert 1.45 < v < 1.5
    assert abs(big - 1e3 * v) <= 1e-12 * big
    assert hardy_norm(SymbolDerivative.polynomial([0.0, 0.0]), 3.0) == 0.0


def test_hardy_norm_ce_large_p_raises_without_warning():
    # p > 1 is refused by the closed form before any circle, so p = 1e3
    # raises no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            hardy_norm(SymbolDerivative.ce_family(1.5), 1e3)


def _ce_circle_terms(deriv, j):
    """The nodes' weights and |phi'| of the Cauchy-type branch's circle 1 - 2^-j."""
    r = -np.expm1(j * np.log(0.5))
    theta, wts = _theta_cells(deriv, r, 2)
    return r, wts, deriv.abs_grid(r, theta)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("gamma", [1.5, 2.0])
def test_ce_circle_norm_scaling_moves_only_rounding(gamma, p):
    # against the unscaled rule float(wts @ vals**p / 2 pi)**(1/p) on all
    # 48 circles the branch may visit: the sum of 1,537 terms rounds
    # differently, by up to 13 ulps on the deepest circles; against a
    # 40-digit sum of the same terms both rules stay within 9 ulps
    deriv = SymbolDerivative.ce_family(gamma)
    for j in range(1, 49):
        r, wts, vals = _ce_circle_terms(deriv, j)
        new = _ce_circle_norm(deriv, r, p)
        old = float(wts @ vals**p / (2.0 * np.pi)) ** (1.0 / p)
        assert abs(new - old) <= 16 * np.spacing(old), (j, new, old)
        if j % 6 == 0:
            with mpmath.workdps(40):
                mean = mpmath.fsum(mpmath.mpf(float(w)) * mpmath.mpf(float(v)) ** p
                                   for w, v in zip(wts, vals)) / (2 * mpmath.pi)
                exact = mean ** (1 / mpmath.mpf(p))
                assert abs(new - exact) <= 12 * np.spacing(new), (j, new, float(exact))


def test_law_validation_and_evaluation():
    with pytest.raises(ValueError):
        AsymptoticLaw(gamma=-1.0, exponent=1.0)
    with pytest.raises(ValueError):
        AsymptoticLaw(gamma=1.0, exponent=0.0)
    # each predicted a nan, inf or negative s_n, or divided by 0 at n = 5
    for field, bad in (("gamma", np.nan), ("gamma", np.inf), ("symbol_factor", -1.0),
                       ("symbol_factor", np.nan), ("symbol_factor", np.inf),
                       ("offset", -5.0), ("offset", -1.0), ("offset", np.nan),
                       ("offset", np.inf)):
        with pytest.raises(ValueError, match=f"{field}="):
            AsymptoticLaw(**{"gamma": 1.0, "exponent": 1.0, field: bad})
    edge = AsymptoticLaw(gamma=0.0, exponent=1.0, symbol_factor=0.0, offset=-0.5)
    assert edge(1) == 0.0
    law = predict_standard(0.0)
    assert law(999) == 0.001  # the shift places s_n at gamma/(n+1)
    # nan passed the n >= 1 check and predicted a nan s_n
    for bad in (0, np.nan, np.array([1.0, np.nan])):
        with pytest.raises(ValueError, match="n >= 1"):
            law(bad)
    np.testing.assert_allclose(law(np.array([1, 9])), [0.5, 0.1])


def test_predict_standard_gamma():
    assert abs(predict_standard(3.0).gamma - 2.0) < 1e-15
    assert predict_standard(3.0).exponent == 1.0


def test_predict_explog_frozen_values():
    law = predict_explog(1.0, 1.0)
    assert law.exponent == 0.75
    assert abs(law.gamma - np.sqrt(0.5)) < 1e-15
    assert abs(predict_explog(2.0, 1.0).gamma - EXPLOG21_GAMMA) < 1e-15
    assert abs(predict_explog(1.0, 2.0).exponent - 2.0 / 3.0) < 1e-15


@settings(max_examples=50, deadline=None)
@given(beta=st.floats(min_value=0.01, max_value=60.0))
def test_predict_explog_exponent_range(beta):
    e = predict_explog(1.0, beta).exponent
    assert 0.5 < e < 1.0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_laws_reject_parameters_outside_the_weights_domains(bad):
    # inf used to give gamma = inf or a nan prediction, and an infinite
    # beta a bare ValueError from AsymptoticLaw
    with pytest.raises(WeightDomainError, match="alpha="):
        predict_standard(bad)
    for alpha, beta, name in ((bad, 1.0, "alpha"), (1.0, bad, "beta")):
        with pytest.raises(WeightDomainError, match=f"{name}="):
            predict_explog(alpha, beta)
        with pytest.raises(WeightDomainError, match=f"{name}="):
            laplace_moment_prediction(alpha, beta, 10)
    with pytest.raises(ValueError, match="n >= 1"):
        laplace_moment_prediction(1.0, 1.0, bad)


def test_predict_symbol_standard():
    d3 = SymbolDerivative.polynomial([0.0, 0.0, 3.0])
    law = predict_symbol(predict_standard(0.0), d3, 1.0)
    assert abs(law(2) - 1.0) < 1e-12  # 3/(2+1)


def test_predict_symbol_exponent_mismatch():
    d3 = SymbolDerivative.polynomial([0.0, 0.0, 3.0])
    with pytest.raises(LawMismatchError):
        predict_symbol(predict_standard(0.0), d3, 2.0)


@pytest.mark.parametrize("p", [0.0, -0.0])
def test_predict_symbol_rejects_p_zero(p):
    # a typed error naming p, before 1/p is formed
    d3 = SymbolDerivative.polynomial([0.0, 0.0, 3.0])
    with pytest.raises(ValueError, match="p="):
        predict_symbol(predict_standard(0.0), d3, p)


def test_predict_symbol_explog_factor_matches_circle_mean():
    p = 4.0 / 3.0
    law = predict_symbol(predict_explog(1.0, 1.0),
                         SymbolDerivative.polynomial([1.0, 1.0]), p)
    th = 2.0 * np.pi * (np.arange(1 << 18) + 0.5) / (1 << 18)
    brute = float(np.mean(np.abs(1 + np.exp(1j * th)) ** p)) ** (1.0 / p)
    assert abs(law.symbol_factor - brute) < 1e-7


def test_laplace_prediction_converges_to_moments(explog11):
    r100 = laplace_moment_prediction(1.0, 1.0, 100) / explog11.values[100]
    r1000 = laplace_moment_prediction(1.0, 1.0, 1000) / explog11.values[1000]
    assert abs(r1000 - 1.0) < 0.03
    assert abs(r1000 - 1.0) < abs(r100 - 1.0)


def test_fit_power_law_exact_recovery():
    n = np.arange(1, 2001, dtype=float)
    spec = SingularSpectrum.from_values(2.0 * n**-0.75)
    e, g, res = fit_power_law(spec, (1, 2000))
    assert abs(e - 0.75) < 1e-12 and abs(g - 2.0) < 1e-12 and res < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    e=st.floats(min_value=0.3, max_value=2.0),
    g=st.floats(min_value=0.1, max_value=10.0),
)
def test_fit_power_law_recovery_property(e, g):
    n = np.arange(1, 301, dtype=float)
    e_hat, g_hat, res = fit_power_law(SingularSpectrum.from_values(g * n**-e), (1, 300))
    assert abs(e_hat - e) < 1e-9 and abs(g_hat - g) < 1e-8 * g


def test_fit_power_law_scale_equivariance():
    n = np.arange(1, 2001, dtype=float)
    e1, g1, _ = fit_power_law(SingularSpectrum.from_values(2.0 * n**-0.75), (1, 2000))
    e2, g2, _ = fit_power_law(SingularSpectrum.from_values(7.0 * n**-0.75), (1, 2000))
    assert abs(e2 - e1) < 1e-13
    assert abs(g2 - 3.5 * g1) < 1e-10


def test_fit_power_law_window_errors():
    n = np.arange(1, 101, dtype=float)
    spec = SingularSpectrum.from_values(n**-1.0)
    with pytest.raises(WindowError):
        fit_power_law(spec, (5, 13))  # fewer than 10 points
    with pytest.raises(WindowError):
        fit_power_law(spec, (50, 2000))  # past the spectrum
    with pytest.raises(WindowError):
        fit_power_law(SingularSpectrum(n[::-1] / 100.0, converged=False), (1, 100))


def test_fit_power_law_standard_spectrum_window():
    n = np.arange(1, 2001, dtype=float)
    s = 1.0 / np.sqrt(n * (n + 1.0))
    e, _, _ = fit_power_law(SingularSpectrum.from_values(s), (100, 1000))
    assert 0.99 <= e <= 1.01

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bhl import weights
from bhl.errors import (
    InsufficientMomentsError,
    LogConvexityError,
    QuadratureError,
    WeightDomainError,
)
from bhl.hankel import PolynomialSymbol, polynomial_gram
from bhl.spectrum import singular_values
from bhl.weights import (
    MomentTable,
    RadialWeight,
    TauProfile,
    compute_moments,
    kernel_norm_sq,
    moment_closed_form_standard,
    tau,
    tau_profile,
)

SP = np.sqrt(np.pi)

# Frozen oracle value: m[10] for the explog(1,1) weight, computed by
# adaptive quadrature of 2*pi*int r^21 exp(-1/log(1/r^2)) dr and
# cross-checked against the saddle-point panel route before freezing.
EXPLOG11_M10 = 0.0012788050211520875


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_standard_moments_match_closed_form(alpha):
    w = RadialWeight.standard(alpha)
    mt = compute_moments(w, 240)
    cf = moment_closed_form_standard(alpha, np.arange(241))
    np.testing.assert_allclose(mt.values, cf, rtol=1e-10)


def _mp_moment(alpha, n):
    # 40-digit Gamma(n+1) Gamma(alpha+2) / Gamma(n+alpha+2), with n + alpha + 2
    # formed in mpmath: as a double sum it alone shifts Gamma by ~1e-11
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        return mpmath.exp(mpmath.loggamma(n + 1) + mpmath.loggamma(a + 2) - mpmath.loggamma(n + a + 2))


_SWEEP_N = [int(n) for n in np.unique(np.geomspace(1, 20000, 25).astype(int))]


# Closer to -1 the factors 1/(1 + (alpha+1)/k) sit within ~1e-8 of 1 and
# their roundings add up (1.5e-13 at alpha = -0.9999, n = 20000); from
# alpha = -1 + 1e-12 on, m[n-1]/m[n] = 1 + (alpha+1)/n is within an ulp
# of 1 by n ~ 1e4 and no double table is strictly decreasing.
@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(min_value=-0.999, max_value=10.0))
@example(alpha=-0.999)
@example(alpha=10.0)
def test_standard_product_table_matches_mpmath(alpha):
    mt = compute_moments(RadialWeight.standard(alpha), 20000)
    assert mt.source["route"] == "product"
    for n in _SWEEP_N:
        rel = abs(mpmath.mpf(mt.values[n]) / _mp_moment(alpha, n) - 1)
        assert rel <= 1e-13, (n, float(rel))
    lv = mt.log_values
    assert np.all(np.diff(lv) < 0.0)
    assert np.all(lv[:-2] + lv[2:] - 2.0 * lv[1:-1] > 0.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("alpha", [-0.9, 0.0, 5.0, 10.0])
def test_standard_quadrature_reference_matches_mpmath(alpha):
    # the QAWS route that cross-checks the product, out where a single
    # QAWS pass over [0, 1] misses the mass near t ~ alpha/n
    w = RadialWeight.standard(alpha)
    for n in (1, 60, 4000, 20000, 100000):
        val, _ = weights._moment_standard(w, n, 1e-12)
        assert abs(mpmath.mpf(val) / _mp_moment(alpha, n) - 1) <= 1e-13, n


def test_standard_cross_check_is_live(monkeypatch):
    real = weights._moment_standard

    def off(w, n, rel_tol):
        val, err = real(w, n, rel_tol)
        return val * (1.0 + 1e-8), err

    monkeypatch.setattr(weights, "_moment_standard", off)
    with pytest.raises(QuadratureError, match=r"at n=1: rel diff 1\.0\de-08"):
        compute_moments(RadialWeight.standard(0.3), 500)


def test_moment_table_source_records_route():
    std = compute_moments(RadialWeight.standard(0.3), 500)
    assert std.source == dict(
        route="product", n_split=None, check_indices=[1, 3, 12, 41, 144, 500],
        check_diff=std.source["check_diff"],
    )
    assert 0.0 <= std.source["check_diff"] <= 1e-14
    panel = compute_moments(RadialWeight.explog(1.0, 1.0), 300)
    assert panel.source["route"] == "panel"
    assert panel.source["check_indices"][0] == panel.source["n_split"] > 8
    assert panel.source["check_indices"][-1] == 300
    adaptive = compute_moments(RadialWeight.explog(1.0, 1.0), 20)
    assert adaptive.source == dict(
        route="adaptive", n_split=panel.source["n_split"], check_indices=[], check_diff=None
    )


def test_standard_spectrum_matches_mpmath_moments():
    # the Gram assembly amplifies moment error by about n^2, so the
    # spectrum shows it: per-index QAWS moments put this one 1.7e-7 off
    N = 2005
    sym = PolynomialSymbol([1.0])
    w = RadialWeight.standard(0.0)
    with mpmath.workdps(40):
        exact = np.array([float(-mpmath.log(n + 1)) for n in range(2 * N + 1)])
    got = singular_values(polynomial_gram(compute_moments(w, 2 * N), sym, N)).values
    ref = singular_values(polynomial_gram(MomentTable(w, exact, rel_tol=1e-15), sym, N)).values
    assert np.max(np.abs(got / ref - 1.0)) <= 1e-8


def test_standard_mass_normalized():
    for alpha in (-0.5, 0.0, 0.7, 3.0):
        mt = compute_moments(RadialWeight.standard(alpha), 2)
        assert abs(mt.values[0] - 1.0) < 1e-12


def test_closed_form_scalar_and_vector_agree():
    v = moment_closed_form_standard(1.5, np.array([0, 3, 17]))
    for i, n in enumerate((0, 3, 17)):
        assert v[i] == moment_closed_form_standard(1.5, n)


def test_explog_frozen_moment(explog11):
    assert abs(explog11.values[10] / EXPLOG11_M10 - 1.0) < 1e-13


def test_explog_moments_decreasing_log_convex(explog11):
    lv = explog11.log_values
    assert np.all(np.diff(lv) < 0.0)
    second = lv[:-2] + lv[2:] - 2.0 * lv[1:-1]
    assert second.min() > -8e-12


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(min_value=-0.9, max_value=5.0))
def test_standard_table_valid_across_alpha(alpha):
    mt = compute_moments(RadialWeight.standard(alpha), 60)
    assert np.all(np.diff(mt.log_values) < 0.0)
    assert np.all(mt.values > 0.0)


def test_kernel_standard_closed_form(std0):
    # alpha=0: ||K_r||^2 = 1/(1-r^2)^2 in this normalization
    for r in (0.0, 0.3, 0.7, 0.9, 0.99):
        k = kernel_norm_sq(std0, r)
        assert abs(k * (1.0 - r * r) ** 2 - 1.0) < 1e-11


def test_kernel_explog_vs_direct_sum(explog11):
    # dual route: blocked log-kernel accumulation vs a plain partial sum
    r = 0.9
    k = kernel_norm_sq(explog11, r)
    n = np.arange(explog11.n_max + 1)
    brute = np.sum(np.exp(2.0 * n * np.log(r) - explog11.log_values))
    assert abs(k / brute - 1.0) < 1e-12


def test_kernel_insufficient_moments_reports_requirement():
    mt = compute_moments(RadialWeight.standard(0.0), 50)
    with pytest.raises(InsufficientMomentsError) as exc:
        kernel_norm_sq(mt, 0.999)
    assert exc.value.required > 50


def test_tau_standard_closed_form(std0):
    for r in (0.0, 0.3, 0.7, 0.9):
        t = tau(RadialWeight.standard(0.0), std0, r)
        assert abs(t / (SP * (1.0 - r * r)) - 1.0) < 1e-10


def test_tau_standard_alpha1_closed_form():
    w = RadialWeight.standard(1.0)
    mt = compute_moments(w, 400)
    for r in (0.2, 0.6, 0.85):
        t = tau(w, mt, r)
        exact = np.sqrt(np.pi / 2.0) * (1.0 - r * r)
        assert abs(t / exact - 1.0) < 1e-9


def test_tau_explog_boundary_exponent(explog11):
    # tau should behave like (1-r)^((beta+2)/2) up to bounded constants;
    # 0.97 is as far as a 2000-moment table reaches for this family
    w = RadialWeight.explog(1.0, 1.0)
    rs = np.linspace(0.5, 0.97, 40)
    ts = np.array([tau(w, explog11, r) for r in rs])
    ratio = ts / (1.0 - rs) ** 1.5
    assert ratio.max() / ratio.min() < 2.0


def test_tau_profile_standard_round_trip(std0):
    w = RadialWeight.standard(0.0)
    prof = tau_profile(w, std0)
    assert prof.provenance == "FromWeight"
    assert prof.r_hi > 0.99
    rr = np.linspace(0.0, 0.99, 173)  # radii the validator did not sample
    np.testing.assert_allclose(prof(rr), SP * (1.0 - rr * rr), rtol=2e-6)


def test_tau_profile_explog_matches_direct(explog11):
    w = RadialWeight.explog(1.0, 1.0)
    prof = tau_profile(w, explog11)
    rs = np.linspace(0.3, min(0.98, prof.r_hi), 23)
    direct = np.array([tau(w, explog11, r) for r in rs])
    np.testing.assert_allclose(prof(rs), direct, rtol=2e-6)


def test_user_profile_domain_enforced():
    prof = TauProfile.user_supplied(lambda r: SP * (1.0 - np.asarray(r) ** 2))
    assert prof.provenance == "UserSupplied"
    with pytest.raises(WeightDomainError):
        prof(1.0)


def test_closed_form_tau_profiles(std0):
    # TauProfile.standard is the weight's own tau, computed from moments
    std = TauProfile.standard(0.0)
    for r in (0.0, 0.3, 0.7, 0.9):
        assert abs(std(r) / tau(RadialWeight.standard(0.0), std0, r) - 1.0) < 1e-10
    rr = np.linspace(0.0, 0.999, 11)
    np.testing.assert_allclose(
        TauProfile.standard(2.5)(rr), np.sqrt(np.pi / 3.5) * (1.0 - rr * rr), rtol=1e-15
    )
    ce = TauProfile.ce(1.5)
    np.testing.assert_allclose(ce(rr), (1.0 - rr) / np.log(np.e / (1.0 - rr)) ** 1.5, rtol=1e-14)
    # the provenance string is part of the bhl rearrange CSV footer
    assert std.provenance == ce.provenance == "UserSupplied"


def test_growth_check_rejects_non_vanishing_tau():
    # constant tau is not O(1-r); allowed only when r_hi keeps it away
    # from the boundary
    with pytest.raises(WeightDomainError):
        TauProfile.user_supplied(lambda r: np.full_like(np.asarray(r, float), 0.2))
    prof = TauProfile.user_supplied(
        lambda r: np.full_like(np.asarray(r, float), 0.2), r_hi=0.9
    )
    assert prof(0.5) == 0.2


def test_measured_comparability():
    const = TauProfile.user_supplied(
        lambda r: np.full_like(np.asarray(r, float), 0.1), r_hi=0.9
    )
    assert abs(const.measured_comparability(0.1, 0.8) - 1.0) < 1e-12
    std = TauProfile.user_supplied(lambda r: SP * (1.0 - np.asarray(r) ** 2))
    C = std.measured_comparability(0.1, 0.99)
    assert 1.0 < C < 3.0


def test_custom_weight_route():
    # flat density 1/pi reproduces the alpha=0 moments through the
    # custom quadrature path
    with pytest.raises(WeightDomainError):
        RadialWeight.custom(lambda r: np.full_like(np.asarray(r, float), 1.0 / np.pi))
    w = RadialWeight.custom(
        lambda r: np.full_like(np.asarray(r, float), 1.0 / np.pi),
        integrable_certified=True,
    )
    mt = compute_moments(w, 40)
    assert mt.source["route"] == "custom"
    cf = moment_closed_form_standard(0.0, np.arange(41))
    np.testing.assert_allclose(mt.values, cf, rtol=1e-9)


def test_weight_constructors_reject_bad_parameters():
    with pytest.raises(WeightDomainError):
        RadialWeight.standard(-1.0)
    with pytest.raises(WeightDomainError):
        RadialWeight.explog(0.0, 1.0)
    with pytest.raises(WeightDomainError):
        RadialWeight.explog(1.0, -2.0)


def test_moment_table_rejects_log_concavity(std0):
    lv = std0.log_values[:200].copy()
    lv[10] += 0.01  # still decreasing, but the second difference flips sign
    with pytest.raises(LogConvexityError):
        MomentTable(std0.weight, lv, rel_tol=1e-12)


def test_moment_table_rejects_non_decreasing(std0):
    lv = std0.log_values[:50].copy()
    lv[20] = lv[19] + 0.5
    with pytest.raises(QuadratureError):
        MomentTable(std0.weight, lv, rel_tol=1e-12)


def test_require_raises_past_table_end(std25):
    with pytest.raises(InsufficientMomentsError):
        std25.require(10_000)
    std25.require(240)  # boundary index is fine

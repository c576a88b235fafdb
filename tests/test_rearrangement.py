import ast
import importlib.util
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bhl import rearrangement
from bhl.errors import CoveringError, NonConvergedError, WeightDomainError
from bhl.hankel import PolynomialSymbol
from bhl.rearrangement import (
    LevelField,
    MeasureResult,
    SymbolDerivative,
    _cover_counts,
    _family_key,
    _rings,
    _refined,
    besov_sum,
    bloch_norm,
    build_lattice,
    level_measure,
    rearrangement_plus,
    trace_integral,
)
from bhl.weights import TauProfile

SP = np.sqrt(np.pi)


@pytest.fixture(scope="module")
def tau0():
    return TauProfile.user_supplied(lambda r: SP * (1.0 - np.asarray(r) ** 2))


@pytest.fixture(scope="module")
def dz():
    return SymbolDerivative.from_symbol(PolynomialSymbol([1.0]))


@pytest.fixture(scope="module")
def lat01(tau0):
    return build_lattice(tau0, 0.1, 0.99)


def test_symbol_derivative_basics():
    d = SymbolDerivative.polynomial([1.0, 2.0])  # phi' = 1 + 2z
    z = 0.3 + 0.4j
    assert abs(d(z) - abs(1.0 + 2.0 * z)) < 1e-15
    assert SymbolDerivative.polynomial([0.0, 5.0]).is_radial
    assert not d.is_radial
    df = SymbolDerivative.from_symbol(PolynomialSymbol([1.0, 1.0]))  # phi' = 1 + 2z
    np.testing.assert_allclose(df.abs_grid(0.5, np.array([1.0]))[0],
                               abs(1.0 + 2.0 * 0.5 * np.exp(1.0j)), rtol=1e-14)


def test_symbol_derivative_keeps_its_radial_term_and_a_read_only_copy():
    own = np.array([0.0, 0.0, -3.0 + 4.0j])
    d = SymbolDerivative.polynomial(own)
    assert d.is_radial and own.flags.writeable
    with pytest.raises(ValueError):
        d.coeffs[0] = 1.0
    r = np.linspace(0.0, 1.0, 9)
    assert d.radial_abs(r).tobytes() == (np.abs(own[2]) * r**2).tobytes()
    zero = SymbolDerivative.polynomial([0.0, 0.0])
    assert zero.is_radial and zero.radial_abs(r).tobytes() == np.zeros(9).tobytes()
    assert not SymbolDerivative.polynomial([1.0, 0.5]).is_radial
    assert not SymbolDerivative.ce_family(1.5).is_radial
    with pytest.raises(ValueError, match="not radial"):
        SymbolDerivative.polynomial([1.0, 0.5]).radial_abs(r)


def test_ce_family_domain_and_stability():
    with pytest.raises(WeightDomainError):
        SymbolDerivative.ce_family(0.8)
    ce = SymbolDerivative.ce_family(1.5)
    # phi'(z) = 1/((1-z) log^gamma(e/(1-z))) must stay finite next to z=1
    v = ce.abs_grid(1.0 - 1e-12, np.array([1e-9]))
    assert np.isfinite(v).all() and (v > 0.0).all()
    # and match the naive formula where it is stable
    z = 0.7 * np.exp(0.5j)
    w = 1.0 - z
    naive = 1.0 / (abs(w) * abs(1.0 - np.log(w)) ** 1.5)
    assert abs(ce(z) - naive) < 1e-12
    # abs_grid agrees with pointwise evaluation away from the spike
    g = ce.abs_grid(0.7, np.array([0.5]))
    assert abs(g[0] - ce(0.7 * np.exp(0.5j))) < 1e-12


@pytest.mark.parametrize("gamma", [1.0, np.inf, np.nan])
def test_ce_family_needs_finite_gamma_above_one(gamma):
    # at gamma = inf the kernel gives nan level measures
    with pytest.raises(WeightDomainError, match="gamma="):
        SymbolDerivative.ce_family(gamma)


@pytest.mark.parametrize("gamma", [1.1, 1.5, 3.0])
def test_ce_abs_grid_matches_mpmath(gamma):
    # the real-arithmetic kernel against 30-digit complex arithmetic,
    # down to 1 - r = 1e-9 and theta = 1e-12 next to z = 1
    mpmath = pytest.importorskip("mpmath")
    r = 1.0 - np.array([0.5, 1e-3, 1e-6, 1e-9])
    theta = np.array([0.0, 1e-12, 1e-6, 0.1, np.pi])
    got = SymbolDerivative.ce_family(gamma).abs_grid(r[None, :], theta[:, None])
    assert np.isfinite(got).all()
    with mpmath.workdps(30):
        for i, th in enumerate(theta):
            for j, rj in enumerate(r):
                w = 1 - mpmath.mpf(rj) * mpmath.expj(mpmath.mpf(th))
                ref = float(1 / (abs(w) * abs(1 - mpmath.log(w)) ** mpmath.mpf(gamma)))
                assert abs(got[i, j] - ref) <= 1e-13 * ref, (rj, th)


@pytest.mark.parametrize("gamma", [1.1, 1.5, 3.0])
def test_ce_call_matches_mpmath(gamma):
    # pointwise evaluation against 40-digit complex arithmetic at the
    # same double-precision z, down to 1 - |z| = 1e-9 next to z = 1
    mpmath = pytest.importorskip("mpmath")
    r = 1.0 - np.array([0.5, 1e-3, 1e-6, 1e-9])
    theta = np.array([0.0, 1e-12, 1e-6, 0.1, np.pi])
    z = (r[None, :] * np.exp(1j * theta[:, None])).ravel()
    # |w|^2 underflows at w = 1e-200 i and loses digits at 1e-160 i, and
    # overflows at z = -1e200
    z = np.concatenate([z, [1 - 1e-200j, 1 - 1e-160j, -1e200]])
    ce = SymbolDerivative.ce_family(gamma)
    got = ce(z)
    assert got.shape == z.shape
    assert float(ce(z[7])) == got[7]
    # w = 1e-200 is no double's 1 - z, so it enters the kernel as w's parts
    w_real = ce._ce_abs(np.array([1e-200]), np.array([0.0]))
    with mpmath.workdps(40):
        for wi, gi in zip([1 - mpmath.mpc(zi.real, zi.imag) for zi in z] + [mpmath.mpf(1e-200)],
                          list(got) + list(w_real)):
            ref = float(1 / (abs(wi) * abs(1 - mpmath.log(wi)) ** mpmath.mpf(gamma)))
            assert abs(gi - ref) <= 1e-13 * ref, wi


@pytest.mark.parametrize("gamma", [1.1, 1.5, 3.0])
def test_ce_pole_is_infinite(gamma):
    # at z = 1, 1/|w| outgrows log^gamma(e/|w|): |phi'| is +inf, with no
    # floating-point warning on the way
    ce = SymbolDerivative.ce_family(gamma)
    with np.errstate(all="raise"):
        assert ce(1.0 + 0j) == np.inf
        assert ce.abs_grid(1.0, np.array([0.0]))[0] == np.inf
        mixed = ce(np.array([1.0 + 0j, 0.5, 1.0 - 1e-9j]))
        grid = ce.abs_grid(np.array([0.5, 1.0])[None, :], np.array([0.0, 0.1])[:, None])
    assert mixed[0] == np.inf and np.isfinite(mixed[1:]).all()
    assert mixed[2] == ce(1.0 - 1e-9j)
    assert grid[0, 1] == np.inf and np.isfinite(np.delete(grid.ravel(), 1)).all()
    # next to the pole |phi'| is past the double range: +inf again, with
    # neither a warning under numpy's default handling nor an underflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ce.abs_grid([1.0], [1e-320])[0] == np.inf
        with np.errstate(all="raise"):
            assert ce.abs_grid([1.0], [1e-320])[0] == np.inf


def test_measure_result_is_float_with_metadata(tau0, dz):
    R = level_measure(tau0, dz, 0.5, 0.99)
    assert isinstance(R, float) and isinstance(R, MeasureResult)
    assert R.refine_error >= 0.0
    assert R.r_max_delta is not None


def test_refinement_level_is_reported(tau0):
    dmix = SymbolDerivative.polynomial([1.0, 0.6])
    R = level_measure(tau0, dmix, 1.0, 0.99)
    assert R.level in range(1, 6)
    assert float(R) == LevelField(tau0, dmix, 0.99, R.level).measure(1.0)
    tr = trace_integral(tau0, dmix, lambda t: t**2, 0.99)
    assert tr.level in range(1, 6)


def test_level_measure_radial_closed_form(tau0, dz):
    # tau|phi'| = sqrt(pi)(1-r^2) so lambda{> t} = sqrt(pi)/t - 1
    for t in (0.1, 0.7, 1.4):
        R = level_measure(tau0, dz, t, 1.0 - 1e-5)
        exact = SP / t - 1.0
        assert abs(R - exact) / exact < 5e-4


def test_level_measure_above_sup_is_zero(tau0, dz):
    R = level_measure(tau0, dz, 1.9, 0.999)
    assert float(R) == 0.0


def test_level_measure_nonradial_vs_brute_force(tau0):
    dmix = SymbolDerivative.from_symbol(PolynomialSymbol([1.0, 1.0]))
    t = 1.0
    R = level_measure(tau0, dmix, t, 0.999)
    rr = np.linspace(0, 0.999, 15001)[1:]
    th = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
    zz = rr[None, :] * np.exp(1j * th[:, None])
    f = SP * (1 - rr**2)[None, :] * np.abs(1 + 2 * zz)
    cell = rr * (2 * np.pi / 1024) * (rr[1] - rr[0]) / (SP * (1 - rr**2)) ** 2
    brute = float(np.sum((f > t) * cell[None, :]))
    assert abs(R - brute) / brute < 2e-3


def test_level_measure_monotone_in_t(tau0, dz):
    ts = [0.2, 0.5, 0.9, 1.3]
    Rs = [float(level_measure(tau0, dz, t, 0.999)) for t in ts]
    assert all(a > b for a, b in zip(Rs, Rs[1:]))


def test_level_measure_rejects_bad_arguments(tau0, dz):
    with pytest.raises(ValueError):
        level_measure(tau0, dz, 0.0, 0.9)
    with pytest.raises(WeightDomainError):
        level_measure(tau0, dz, 0.5, 1.5)


@pytest.mark.parametrize("r_max", [1.5, 1.0, 0.0, -0.5])
def test_r_max_outside_unit_interval_is_rejected(tau0, dz, r_max):
    # one typed error, raised before any field is built or any warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: level_measure(tau0, dz, 0.5, r_max),
            lambda: rearrangement_plus(tau0, dz, 1.0, r_max),
            lambda: trace_integral(tau0, dz, lambda x: np.asarray(x) ** 2, r_max),
            lambda: bloch_norm(tau0, dz, r_max=r_max),
            lambda: LevelField(tau0, dz, r_max, 0),
        ):
            with pytest.raises(WeightDomainError, match="r_max"):
                call()


def test_level_measure_non_convergence_reported(tau0, dz, monkeypatch):
    monkeypatch.setattr(rearrangement, "_MAX_LEVEL", 1)
    with pytest.raises(NonConvergedError):
        level_measure(tau0, dz, 0.5, 0.999, rel_tol=1e-12)


@pytest.mark.parametrize("rel_tol", [np.nan, 0.0, -1.0, 1.0])
def test_refined_calls_reject_rel_tol_outside_unit_interval(tau0, rel_tol, monkeypatch):
    # one ValueError naming rel_tol, raised before any field is built or kept
    built = _record_field_builds(monkeypatch)
    deriv = SymbolDerivative.polynomial([1.0, 0.6])
    for call in (
        lambda: level_measure(tau0, deriv, 0.5, 0.99, rel_tol=rel_tol),
        lambda: rearrangement_plus(tau0, deriv, 1.0, 0.99, rel_tol=rel_tol),
        lambda: trace_integral(tau0, deriv, lambda x: np.asarray(x) ** 2, 0.99, rel_tol=rel_tol),
    ):
        with pytest.raises(ValueError, match="rel_tol"):
            call()
        assert built == [] and not rearrangement._FAMILY.families, built


@pytest.mark.parametrize("level", [-1, 2.5, True])
def test_level_field_rejects_a_level_that_is_not_a_nonnegative_integer(tau0, dz, level):
    with pytest.raises(ValueError, match="level="):
        LevelField(tau0, dz, 0.99, level)


def test_level_field_takes_a_numpy_integer_level(tau0):
    deriv = SymbolDerivative.polynomial([1.0, 0.6])
    a, b = LevelField(tau0, deriv, 0.99, np.int64(1)), LevelField(tau0, deriv, 0.99, 1)
    assert (a.measure(0.5), a.rplus(2.0), a.top()) == (b.measure(0.5), b.rplus(2.0), b.top())


def test_rearrangement_plus_of_the_zero_symbol_is_zero(tau0):
    # the sup and the level-0 top of a zero field are 0, and R+ of it is 0
    zero = SymbolDerivative.polynomial([0.0])
    assert bloch_norm(tau0, zero, r_max=0.99) == 0.0
    assert rearrangement_plus(tau0, zero, 1.0, 0.99) == 0.0


@pytest.mark.parametrize("coeffs", [[1.0, np.nan], [1.0, np.inf], [-np.inf], [1.0, 1j * np.inf]])
def test_polynomial_rejects_non_finite_coefficients(coeffs):
    with pytest.raises(ValueError, match="finite"):
        SymbolDerivative.polynomial(coeffs)


@pytest.mark.parametrize("t", [0.01, 0.02, 0.03])
def test_r_max_delta_closed_form(tau0, dz, t):
    # lambda{sqrt(pi)(1-r^2) > t} on r_max < |z| <= r_b is
    # 1/(1-r_b^2) - 1/(1-r_max^2), r_b the nearer of r_push = 0.995 and
    # the set's edge sqrt(1 - t/sqrt(pi))
    R = level_measure(tau0, dz, t, 0.99)
    r_b = min(0.995, np.sqrt(1.0 - t / SP))
    exact = 1.0 / (1.0 - r_b**2) - 1.0 / (1.0 - 0.99**2)
    assert abs(R.r_max_delta - exact) <= 1e-5 * exact, (R.r_max_delta, exact)


def test_r_max_delta_is_zero_where_no_mass_is_added(tau0, dz):
    # {tau|phi'| > 0.05} ends at |z| = 0.9857, inside r_max
    assert level_measure(tau0, dz, 0.05, 0.99).r_max_delta == 0.0
    # r_push is capped at the profile's reach, here r_max itself
    const = TauProfile.user_supplied(lambda r: np.full_like(np.asarray(r, float), 0.15), r_hi=0.9)
    R = level_measure(const, dz, 0.1, 0.9)
    assert R > 0.0 and R.r_max_delta == 0.0


def test_r_max_delta_matches_two_disk_difference_on_ce():
    # the annulus mass is R(t; r_push) - R(t; r_max) without the second
    # disk's own mesh error
    tau, ce = TauProfile.ce(1.0), SymbolDerivative.ce_family(1.5)
    compared = 0
    for t in np.logspace(-3, -1, 5):
        R = level_measure(tau, ce, t, 0.99)
        two_disk = abs(LevelField(tau, ce, 0.995, R.level).measure(t) - R)
        if two_disk > 1e-3 * R:
            compared += 1
            assert abs(R.r_max_delta - two_disk) <= 1e-3 * two_disk, (t, R.r_max_delta, two_disk)
    assert compared >= 2


@pytest.mark.parametrize("r_max", [0.01, 1e-6])
def test_r_max_delta_annulus_is_no_wider_than_the_disk(tau0, r_max, monkeypatch):
    # below r_max = 1/2 the push adds more u than the disk holds, and
    # the disk's u step would take up to 1/r_max times its columns
    built = []
    real = rearrangement._field_rows

    def recording(deriv, r, tau, theta):
        built.append(len(r))
        return real(deriv, r, tau, theta)

    monkeypatch.setattr(rearrangement, "_field_rows", recording)
    deriv = SymbolDerivative.polynomial([1.0, 1.0])
    R = level_measure(tau0, deriv, 0.5, r_max)
    assert R.r_max_delta > 0.0
    assert max(built) <= 1024 * 2**R.level + 1, (built, R.level)


def _ce_profile():
    # a fresh profile object per call, as the benchmark makes them
    return TauProfile.user_supplied(
        lambda r: (1.0 - np.asarray(r, float)) / (1.0 - np.log1p(-np.asarray(r, float)))
    )


def _fields():
    """The kept level fields and annuli of every family."""
    return [item for items in rearrangement._FAMILY.families.values() for _, _, item in items.values()
            if isinstance(item, LevelField)]


def _kept_bytes():
    return sum(field.nbytes for field in _fields())


def _index_bytes():
    """The bytes of the kept fields' tile indexes."""
    return sum(field._lo.nbytes + field._hi.nbytes for field in _fields())


def _kept(deriv, r_max):
    """The kept items of one family, by name."""
    return rearrangement._FAMILY.families[_family_key(deriv, r_max)]


def _forget():
    rearrangement._FAMILY.clear()


def _ce_sweep(clear):
    out = []
    for t in np.logspace(-3, -1, 13):
        if clear:
            _forget()
        R = level_measure(_ce_profile(), SymbolDerivative.ce_family(1.5), float(t), 0.99)
        out.append((float(R), R.level, R.refine_error, R.r_max_delta))
    return out


def test_level_measure_kept_fields_give_the_same_bits():
    # criterion 10's 13 levels, on fields kept across calls and on
    # fields built afresh for every call
    cleared = _ce_sweep(clear=True)
    assert _ce_sweep(clear=False) == cleared
    assert _kept_bytes() > 0


def _record_field_builds(monkeypatch):
    built = []
    real = rearrangement._field_rows

    def recording(deriv, r, tau, theta):
        built.append((len(theta), len(r)))
        return real(deriv, r, tau, theta)

    monkeypatch.setattr(rearrangement, "_field_rows", recording)
    return built


def test_level_measure_builds_a_family_once(monkeypatch):
    built = _record_field_builds(monkeypatch)
    ce = SymbolDerivative.ce_family(1.5)
    level_measure(_ce_profile(), ce, 0.01, 0.99)
    # levels 0 and 1 and the level-1 annulus (17.7 MB of values), each
    # streamed once for its tile index: 2 x 8 bytes per row and 32 cells
    assert built == [(385, 1025), (769, 2049), (769, 310)], built
    kept = _kept_bytes()
    assert _index_bytes() == 16 * (385 * 32 + 769 * 64 + 769 * 10)
    built.clear()
    level_measure(_ce_profile(), SymbolDerivative.ce_family(1.5), 0.02, 0.99)
    assert built == [] and _kept_bytes() == kept
    # a call of another family keeps its own beside this one
    level_measure(TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0, 1.0]), 0.5, 0.99)
    assert len(rearrangement._FAMILY.families) == 2
    built.clear()
    level_measure(_ce_profile(), ce, 0.02, 0.99)
    assert built == [], built


def test_level_measure_streams_a_field_over_the_memo_budget(monkeypatch):
    tau, ce = TauProfile.ce(1.0), SymbolDerivative.ce_family(1.5)
    level_measure(tau, ce, 0.01, 0.99, check_r_max=False)
    kept = _kept_bytes()
    # at the budget a level-2 field (1,537 x 4,097, 50 MB of values) keeps
    # its 3.1 MB tile index beside levels 0 and 1
    assert kept + LevelField(tau, ce, 0.99, 2).nbytes <= rearrangement._HOLD_BYTES
    # with a budget that holds levels 0 and 1 only, level 2 is not kept
    monkeypatch.setattr(rearrangement, "_HOLD_BYTES", kept)
    monkeypatch.setattr(rearrangement, "_MAX_LEVEL", 2)
    field = LevelField(tau, ce, 0.99, 2)
    index_bytes = 16 * len(field._wts) * len(field._cell)
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergedError):
            level_measure(tau, ce, 0.01, 0.99, rel_tol=1e-12, check_r_max=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(_fields()) == 2 and _kept_bytes() == kept
    # level 2 builds its tile index (3.1 MB) for the call and streams its
    # values to do so: its index and at most 2 MiB more
    assert peak <= index_bytes + 2 * 2**20, (peak, index_bytes)


def test_level_measure_kept_arrays_refuse_writes(tau0):
    # a kept field's tile index and row weights are read-only
    level_measure(tau0, SymbolDerivative.polynomial([1.0, 1.0]), 0.5, 0.99)
    fields = _fields()
    assert fields
    for field in fields:
        for tiles in (field._lo, field._hi):
            with pytest.raises(ValueError):
                tiles[0, 0] = 0.0
        for wts, _ in field.blocks():
            with pytest.raises(ValueError):
                wts[0] = 0.0


def test_ce_measure_log_slope():
    # tau = (1-r)/log(e/(1-r)), gamma = 1.5: the level sets of the
    # boundary spike carry a known log-log slope near -1.2
    tau_ce = TauProfile.user_supplied(
        lambda r: (1.0 - np.asarray(r, float)) / (1.0 - np.log1p(-np.asarray(r, float)))
    )
    ce = SymbolDerivative.ce_family(1.5)
    ts = np.logspace(-3, -1, 9)
    Rs = [float(level_measure(tau_ce, ce, t, 0.99, check_r_max=False)) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(Rs), 1)[0]
    assert -1.26 < slope < -1.14


def test_rearrangement_plus_closed_form(tau0, dz):
    # inverse of R(t) = sqrt(pi)/t - 1 is R+(x) = sqrt(pi)/(x+1)
    for x in (1.0, 3.0, 8.0):
        rp = rearrangement_plus(tau0, dz, x, 1.0 - 1e-5)
        exact = SP / (x + 1.0)
        assert abs(rp - exact) / exact < 5e-3


def test_rearrangement_plus_inverts_measure(tau0, dz):
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.05, 1.7, 6):
        Rt = float(level_measure(tau0, dz, t, 1.0 - 1e-5, check_r_max=False))
        rp = rearrangement_plus(tau0, dz, Rt, 1.0 - 1e-5)
        assert rp >= t * (1.0 - 1e-3)


def _rplus_probe_by_probe(tau_prof, deriv, x, r_max, iters):
    """rearrangement_plus as a plain bisection that measures R(t) at every probe."""
    T = bloch_norm(tau_prof, deriv, r_max=r_max)
    _, _, level = _refined(lambda lv: LevelField(tau_prof, deriv, r_max, lv).measure(T / 8.0), 1e-4)
    field = LevelField(tau_prof, deriv, r_max, level)
    t_lo, t_hi = T * 2.0**-10, T * (1.0 + 1e-9)
    assert field.measure(t_hi) < x
    while field.measure(t_lo) < x:
        t_lo *= 0.25
    for _ in range(iters):
        mid = np.sqrt(t_lo * t_hi)
        if field.measure(mid) >= x:
            t_lo = mid
        else:
            t_hi = mid
    return float(t_hi)


@pytest.mark.parametrize(
    "symbol, field_bytes",
    [("poly", rearrangement._HOLD_BYTES), ("ce", rearrangement._HOLD_BYTES), ("poly", 0)],
    ids=["poly-held", "ce-held", "poly-rebuilt"],
)
def test_rearrangement_plus_matches_probe_by_probe(tau0, symbol, field_bytes, monkeypatch):
    # the exact inversion against 48 bisection steps that measure R at
    # every probe (a bracket about 3e-14 wide), on a kept field and on one
    # over the byte budget, which the family does not keep: that field is
    # built and indexed for the call
    if symbol == "poly":
        tau, deriv, x, r_max = tau0, SymbolDerivative.polynomial([1.0, 0.6]), 0.9, 0.99
    else:
        tau = TauProfile.user_supplied(
            lambda r: (1.0 - np.asarray(r, float)) / (1.0 - np.log1p(-np.asarray(r, float)))
        )
        deriv, x, r_max = SymbolDerivative.ce_family(1.5), 30.0, 0.9
    monkeypatch.setattr(rearrangement, "_HOLD_BYTES", field_bytes)
    rp = rearrangement_plus(tau, deriv, x, r_max)
    ref = _rplus_probe_by_probe(tau, deriv, x, r_max, 48)
    assert abs(rp - ref) <= 1e-12 * ref, (rp, ref)


def _sweep_case(tau0, case):
    """(tau, deriv, xs, r_max) of one R+ sweep case."""
    if case == "ce":
        tau = TauProfile.user_supplied(
            lambda r: (1.0 - np.asarray(r, float)) / (1.0 - np.log1p(-np.asarray(r, float)))
        )
        return tau, SymbolDerivative.ce_family(1.5), (3.0, 30.0, 300.0), 0.9
    if case == "radial":
        return tau0, SymbolDerivative.polynomial([1.0]), (0.5, 5.0, 50.0), 1.0 - 1e-5
    c = float(case[2:])
    return tau0, SymbolDerivative.polynomial([1.0, 2.0 * c]), (0.3, 3.0, 30.0), 0.99


@pytest.mark.parametrize("case", ["c=0.1", "c=0.3", "c=0.5", "ce", "radial"])
def test_rearrangement_plus_sweep_matches_whole_field_bisection(tau0, case):
    # rplus reads the tiles, then only the cells that meet its bracket,
    # and solves the last piece's quadratic; it must stay within 1e-12
    # of 48 bisection steps on R
    tau, deriv, xs, r_max = _sweep_case(tau0, case)
    for x in xs:
        rp = rearrangement_plus(tau, deriv, x, r_max)
        ref = _rplus_probe_by_probe(tau, deriv, x, r_max, 48)
        assert abs(rp - ref) <= 1e-12 * ref, (x, rp, ref)


@pytest.mark.parametrize("case", ["c=0.1", "c=0.5", "ce", "radial"])
def test_rearrangement_plus_sweep_rebuilt_field_matches_held(tau0, case, monkeypatch):
    # a field over _HOLD_BYTES is built and indexed per call and not kept;
    # it runs the same algorithm on the same tile index, so it gives the
    # kept field's bits, which the sweep above holds within 1e-12 of a
    # bisection on R
    tau, deriv, xs, r_max = _sweep_case(tau0, case)
    held = [rearrangement_plus(tau, deriv, x, r_max) for x in xs]
    monkeypatch.setattr(rearrangement, "_HOLD_BYTES", 0)
    assert [rearrangement_plus(tau, deriv, x, r_max) for x in xs] == held


def test_rearrangement_plus_builds_each_level_once(tau0, monkeypatch):
    # R+ bisects on the field its level choice built, not on a rebuild,
    # and takes its top from level 0: level L has 256 * 2**L rows and
    # 1024 * 2**L + 1 columns, and no other grid is built
    built = _record_field_builds(monkeypatch)
    deriv = SymbolDerivative.polynomial([1.0, 1.0])
    rearrangement_plus(tau0, deriv, 3.0, 0.99)
    assert built == [(256, 1025), (512, 2049)], built


def test_rearrangement_plus_keeps_its_family(monkeypatch):
    # with no level_measure before them, repeated R+ calls of one family
    # build each mesh level once, with the bits of calls that build afresh
    tau, ce, xs = TauProfile.ce(1.0), SymbolDerivative.ce_family(1.5), (0.9, 0.9, 3.0)
    fresh = []
    for x in xs:
        _forget()
        fresh.append(rearrangement_plus(tau, ce, x, 0.9))
    _forget()
    built = _record_field_builds(monkeypatch)
    kept = [rearrangement_plus(tau, ce, xs[0], 0.9)]
    # levels 0 and 1 (385 x 1,025 and 769 x 2,049) and nothing else
    assert built == [(385, 1025), (769, 2049)], built
    assert _index_bytes() == 16 * (385 * 32 + 769 * 64)
    built.clear()
    kept += [rearrangement_plus(tau, ce, x, 0.9) for x in xs[1:]]
    assert built == [] and kept == fresh
    # a level_measure of the same family reads them too: only its annulus is built
    level_measure(tau, ce, 0.05, 0.9)
    assert built == [(769, 618)], built


def _poly_family():
    # fresh objects equal by value, as the benchmark makes them
    return TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0, 0.6])


def test_rplus_and_trace_read_the_kept_family(monkeypatch):
    R = level_measure(*_poly_family(), 0.5, 0.99)
    assert R.level == 1
    built = _record_field_builds(monkeypatch)
    rp = rearrangement_plus(*_poly_family(), float(R), 0.99)
    # 256 x 1,025 and 512 x 2,049 are kept, and R+ builds nothing
    assert built == [], built
    # the trace reads the kept level-0 top; it needs every value, so it
    # builds and streams each level's field itself, once, and keeps none
    tr = trace_integral(*_poly_family(), lambda x: np.asarray(x) ** 2, 0.99)
    assert built == [(256, 1025), (512, 2049)], built
    _forget()
    assert rearrangement_plus(*_poly_family(), float(R), 0.99) == rp
    assert trace_integral(*_poly_family(), lambda x: np.asarray(x) ** 2, 0.99) == tr


def test_rplus_calls_on_one_field_build_it_once(monkeypatch):
    tau, deriv = _poly_family()
    field = LevelField(tau, deriv, 0.99, 0)
    built = _record_field_builds(monkeypatch)
    rps = [field.rplus(x) for x in np.linspace(0.5, 5.0, 10)]
    assert built == [(256, 1025)], built
    fresh = [LevelField(tau, deriv, 0.99, 0).rplus(x) for x in np.linspace(0.5, 5.0, 10)]
    assert rps == fresh


def test_a_field_the_family_does_not_keep_reads_its_values_once(monkeypatch):
    # with no room in the family, one field answers three R+ and two R(t)
    # calls from one tile index, built by one pass over its values, with
    # the bits of a field the family keeps
    tau, deriv = _poly_family()
    T = bloch_norm(tau, deriv, r_max=0.99)

    def run(field):
        return [field.rplus(0.5), field.measure(0.25 * T), field.rplus(3.0),
                field.measure(T / 16.0), field.rplus(10.0)]

    _forget()
    kept = rearrangement._field(tau, deriv, 0.99, 1)
    assert _fields() == [kept]
    want = run(kept)
    _forget()
    monkeypatch.setattr(rearrangement, "_HOLD_BYTES", 0)
    built = _record_field_builds(monkeypatch)
    field = rearrangement._field(tau, deriv, 0.99, 1)
    assert _fields() == []
    assert run(field) == want
    assert built == [(512, 2049)], built


def test_a_level_field_reads_no_family_state():
    # a level field has one form whatever the family keeps: no method of
    # LevelField reads the kept families or their byte budget
    tree = ast.parse(Path(rearrangement.__file__).read_text())
    cls, = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "LevelField"]
    names = {node.id for node in ast.walk(cls) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)}
    read = sorted(names & {"_FAMILY", "_HOLD_BYTES"})
    assert not read, read


_KEPT_CASES = {
    "radial": lambda: (TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0]), 1.0 - 1e-5),
    "poly": lambda: (TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0, 0.6]), 0.99),
    "ce": lambda: (TauProfile.ce(1.0), SymbolDerivative.ce_family(1.5), 0.99),
}


def _bits(result):
    if isinstance(result, MeasureResult):
        return (float(result), result.refine_error, result.r_max_delta, result.level)
    return result


def _family_calls(tau, deriv, r_max):
    T = bloch_norm(tau, deriv, r_max=r_max)
    calls = [lambda t=t: level_measure(tau, deriv, t, r_max) for t in T * np.geomspace(0.02, 0.5, 5)]
    calls += [lambda x=x: rearrangement_plus(tau, deriv, x, r_max) for x in (0.3, 1.0, 3.0, 10.0, 30.0)]
    calls.append(lambda: trace_integral(tau, deriv, lambda v: np.asarray(v) ** 2, r_max))
    calls.append(lambda: bloch_norm(tau, deriv, r_max=r_max))
    return calls


@pytest.mark.parametrize("case", list(_KEPT_CASES))
def test_kept_family_gives_the_bits_of_a_fresh_one(case):
    # R(t) with all four fields, R+ (its level choice kept after the
    # first call), the trace and the sup, twice over on the kept family,
    # against each call on an empty memo
    calls = _family_calls(*_KEPT_CASES[case]())
    _forget()
    kept = [_bits(call()) for call in calls + calls]
    fresh = []
    for call in calls:
        _forget()
        fresh.append(_bits(call()))
    assert kept == fresh + fresh


def _nudged(tau, at):
    """tau one ulp larger at the radius ``at`` and equal to it elsewhere."""
    return TauProfile.user_supplied(
        lambda r: np.where(np.asarray(r) == at, np.nextafter(tau(r), np.inf), tau(r))
    )


def _record_probes(monkeypatch):
    """The levels t of every LevelField.measure call."""
    probes = []
    real = LevelField.measure

    def recording(self, t):
        probes.append(t)
        return real(self, t)

    monkeypatch.setattr(LevelField, "measure", recording)
    return probes


def test_kept_family_is_validated_by_value(monkeypatch):
    tau, deriv, r_max = _KEPT_CASES["poly"]()
    rearrangement_plus(tau, deriv, 3.0, r_max)
    # a level-1 node off level 0: level 0 is found kept, level 1 is not
    r1 = LevelField(tau, deriv, r_max, 1)._r
    odd = _nudged(tau, r1[1001])
    assert not np.isin(r1[1001], LevelField(tau, deriv, r_max, 0)._r)
    T = LevelField(odd, deriv, r_max, 0).top()
    built, probes = _record_field_builds(monkeypatch), _record_probes(monkeypatch)
    rp = rearrangement_plus(odd, deriv, 3.0, r_max)
    assert built == [(512, 2049)] and T / 8.0 in probes, (built, probes)
    _forget()
    assert rearrangement_plus(odd, deriv, 3.0, r_max) == rp
    # the outermost annulus radius, past r_max and so off every other
    # item's radii: only the annulus is rebuilt, the level fields and
    # the R+ level are read
    level_measure(odd, deriv, 0.5, r_max)
    (ring, _, _), = [v for k, v in _kept(deriv, r_max).items() if k[0] == "annulus"]
    edge = _nudged(odd, ring[-1])
    built.clear()
    probes.clear()
    R = level_measure(edge, deriv, 0.5, r_max)
    assert rearrangement_plus(edge, deriv, 3.0, r_max) == rp
    assert built == [(512, len(ring))] and T / 8.0 not in probes, (built, probes)
    _forget()
    assert _bits(level_measure(edge, deriv, 0.5, r_max)) == _bits(R)


def _record_calls(monkeypatch, name):
    calls = []
    real = getattr(rearrangement, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(rearrangement, name, recording)
    return calls


@pytest.mark.parametrize("case", ["radial", "poly", "ce"])
def test_rearrangement_plus_takes_its_level_from_level_measure(case, monkeypatch):
    # a new family: one level_measure call at T/8, T the level-0 top, and
    # no refinement of R+'s own; a repeated call reads the kept level
    tau, deriv, r_max = _KEPT_CASES[case]()
    T = LevelField(tau, deriv, r_max, 0).top()
    _, _, level = _refined(lambda lv: LevelField(tau, deriv, r_max, lv).measure(T / 8.0), 1e-4)
    want = LevelField(tau, deriv, r_max, level).rplus(2.0)
    calls, inside = [], []
    real_measure, real_refined = rearrangement.level_measure, rearrangement._refined

    def measure(*args, **kwargs):
        calls.append((args[2:], kwargs))
        inside.append(True)
        try:
            return real_measure(*args, **kwargs)
        finally:
            inside.pop()

    def refined(fn, rel_tol):
        assert inside, "R+ refined a level outside level_measure"
        return real_refined(fn, rel_tol)

    monkeypatch.setattr(rearrangement, "level_measure", measure)
    monkeypatch.setattr(rearrangement, "_refined", refined)
    assert rearrangement_plus(tau, deriv, 2.0, r_max) == want
    assert calls == [((T / 8.0, r_max, 1e-4), {"check_r_max": False})], calls
    assert rearrangement_plus(tau, deriv, 2.0, r_max) == want
    assert len(calls) == 1


@pytest.mark.parametrize("case", ["poly", "ce"])
def test_a_lookup_builds_nothing(case, monkeypatch):
    # a call on the kept family builds no angular cells and no level
    # field, and R+ goes straight to its kept level: no probe at T/8
    tau, deriv, r_max = _KEPT_CASES[case]()
    _forget()
    level_measure(tau, deriv, 0.05, r_max)
    rearrangement_plus(tau, deriv, 3.0, r_max)
    kept = _kept_bytes()
    if case == "ce":
        assert _index_bytes() == 16 * (385 * 32 + 769 * 64 + 769 * 10)
    cells = _record_calls(monkeypatch, "_theta_cells")
    fields = []
    real = LevelField._setup

    def setup(field, *args):
        fields.append(len(args[2]))
        return real(field, *args)

    monkeypatch.setattr(LevelField, "_setup", setup)
    probes = _record_probes(monkeypatch)
    level_measure(tau, deriv, 0.1, r_max)
    rearrangement_plus(tau, deriv, 1.0, r_max)
    T = rearrangement._field(tau, deriv, r_max, 0).top()
    assert cells == [] and fields == [], (cells, fields)
    assert T / 8.0 not in probes and _kept_bytes() == kept


def test_rearrangement_plus_peak_memory():
    # the cells that meet the bracket are gathered only once it is
    # narrow; on the first 10-octave bracket nearly every cell meets it,
    # and the gathered copies would outgrow the field several times
    tau, deriv, x, r_max = TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0, 0.6]), 0.9, 0.99
    T = LevelField(tau, deriv, r_max, 0).top()
    _, _, level = _refined(lambda lv: LevelField(tau, deriv, r_max, lv).measure(T / 8.0), 1e-4)
    field = LevelField(tau, deriv, r_max, level)
    field_bytes = 8 * len(field._wts) * len(field.dens)
    _forget()
    tracemalloc.start()
    try:
        rearrangement_plus(tau, deriv, x, r_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a fresh R+, its level choice included, within the field's
    # values plus a quarter of them (2.1 MiB on this 8.4 MB field); it
    # keeps tile indexes and holds values a chunk at a time
    assert peak <= 1.25 * field_bytes, (peak, field_bytes)


def test_rearrangement_plus_rebuilt_peak_memory(monkeypatch):
    # a field over _HOLD_BYTES is built and indexed for the call and not
    # kept: it holds its tile index, and its tiled probes and the
    # gathering of the cells that meet the bracket read cache-sized chunks
    tau, deriv, x, r_max = TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0, 0.6]), 0.9, 0.99
    T = LevelField(tau, deriv, r_max, 0).top()
    _, _, level = _refined(lambda lv: LevelField(tau, deriv, r_max, lv).measure(T / 8.0), 1e-4)
    field = LevelField(tau, deriv, r_max, level)
    field_bytes = len(field._wts) * len(field.dens) * 8
    monkeypatch.setattr(rearrangement, "_HOLD_BYTES", 0)
    tracemalloc.start()
    try:
        rearrangement_plus(tau, deriv, x, r_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 2.4 MiB against the 8 MiB field
    assert peak <= 0.5 * field_bytes, (peak, field_bytes)


def _abs_grid_reference(deriv, r, theta):
    """|phi'| on an outer(theta, r) polar grid as plain whole-array expressions."""
    if deriv.kind == "poly":
        z = r[None, :] * np.exp(1j * theta[:, None])
        return np.abs(np.polyval(deriv.coeffs[::-1], z))
    rew = (1.0 - r)[None, :] + 2.0 * r[None, :] * np.sin(0.5 * theta[:, None]) ** 2
    imw = -r[None, :] * np.sin(theta)[:, None]
    pole = (rew == 0.0) & (imw == 0.0)
    with np.errstate(all="ignore"):
        L = 0.5 * np.log(rew**2 + imw**2)
        off = np.abs(L) > rearrangement._LOG_W_MAX
        L = np.where(off, np.log(np.where(pole, 1.0, np.hypot(rew, imw))), L)
        out = np.exp(-L - 0.5 * deriv.gamma * np.log(np.arctan2(imw, rew) ** 2 + (1.0 - L) ** 2))
    return np.where(pole, np.inf, out)


def _measure_recording_crossed(field, t):
    """R(t) on a field, and the (row, node, value) triples of every value it
    computes in the tiles that t crosses."""
    rows, nodes, values = [], [], []
    real = field._crossed

    def crossed(a, lo, hi, t_lo, t_hi):
        I, ii, runs = real(a, lo, hi, t_lo, t_hi)
        runs = list(runs)
        for i, _, n, g in runs:
            rows.append(np.broadcast_to(a + i[:, None], n.shape).ravel())
            nodes.append(n.ravel())
            values.append(g.ravel())
        return I, ii, iter(runs)

    field._crossed = crossed
    try:
        R = field.measure(t)
    finally:
        del field._crossed
    return R, *(np.concatenate(v) for v in (rows, nodes, values))


def _bloch_norm_reference(tau_prof, deriv, r_max):
    """bloch_norm with its coarse grid built whole and one np.argmax over it."""
    u_max = -np.log1p(-r_max)

    def f_of(u_arr, th_arr):
        r = -np.expm1(-u_arr)
        return np.asarray(tau_prof(r), dtype=float)[None, :] * _abs_grid_reference(deriv, r, th_arr)

    u = np.linspace(0.0, u_max, 2049)
    theta, _ = rearrangement._theta_cells(deriv, r_max, 0)
    f = f_of(u, theta)
    it, iu = np.unravel_index(np.argmax(f), f.shape)
    best, cu, ct = float(f[it, iu]), u[iu], theta[it]
    wu, wt = u[1] - u[0], np.pi / len(theta)
    for _ in range(14):
        uu = np.clip(np.linspace(cu - wu, cu + wu, 17), 0.0, u_max)
        tt = np.linspace(ct - wt, ct + wt, 17)
        fz = f_of(uu, tt)
        it, iu = np.unravel_index(np.argmax(fz), fz.shape)
        best = max(best, float(fz[it, iu]))
        cu, ct = uu[iu], tt[it]
        wu /= 6.0
        wt /= 6.0
    return best


_FIELD_CASES = {
    "real-poly": (SymbolDerivative.polynomial([1.0, 0.6]), 0.6),
    "complex-poly": (SymbolDerivative.polynomial([1.0, 0.3 + 0.4j, -0.2j]), 0.6),
    "ce": (SymbolDerivative.ce_family(1.5), 0.01),
}


def _field_tau(case, tau0):
    return TauProfile.ce(1.0) if case == "ce" else tau0


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("case", list(_FIELD_CASES))
def test_level_field_matches_block_reference_bit_for_bit(tau0, case, level):
    # cache-sized chunks (level 0's 1,025 columns do not divide them
    # evenly) and the in-place kernel must not move a single bit of the
    # tile index, of the crossed tiles R(t) computes on their own nodes,
    # or of the trace, against 256-row blocks of plain whole-array values
    deriv, t = _FIELD_CASES[case]
    field = LevelField(_field_tau(case, tau0), deriv, 0.99, level)
    h = lambda x: np.asarray(x) ** 1.5
    R, rows, nodes, values = _measure_recording_crossed(field, t)
    assert len(values) > 0
    tr = 0.0
    for lo in range(0, len(field._wts), 256):
        f = field._tau[None, :] * _abs_grid_reference(deriv, field._r, field._theta[lo : lo + 256])
        tiles = f[:, field._nodes]  # (rows, tiles, _TILE + 1 nodes)
        assert field._lo[lo : lo + 256].tobytes() == tiles.min(axis=2).tobytes()
        assert field._hi[lo : lo + 256].tobytes() == tiles.max(axis=2).tobytes()
        at = (rows >= lo) & (rows < lo + 256)
        assert values[at].tobytes() == f[rows[at] - lo, nodes[at]].tobytes()
        # per-row integrals dotted with the row weights, block totals in order
        tr += float(field._wts[lo : lo + 256] @ (np.asarray(h(f)) * field._wu).sum(axis=1))
    assert field.trace(h) == tr
    assert field.measure(t) == R


def _slice_integrals(field, f, t):
    """Per-row integral of dens over {f > t} along the u axis, by a whole-row mask.

    The trapezoid rule on the indicator-masked integrand plus a
    linear-crossing correction in each cell where f - t changes sign.
    """
    ind = f > t
    I = (ind * field._wu).sum(axis=1)
    ii, jj = np.divmod(np.flatnonzero(ind[:, 1:] ^ ind[:, :-1]), ind.shape[1] - 1)
    if ii.size:
        f0, f1 = f[ii, jj], f[ii, jj + 1]
        d0, d1 = field.dens[jj], field.dens[jj + 1]
        frac = (t - f0) / (f1 - f0)
        dm = d0 + (d1 - d0) * frac
        cut = np.where(f0 > t, 0.5 * (d0 + dm) * frac, 0.5 * (dm + d1) * (1.0 - frac)) * field.du
        # the masked sum gave the cell the half weight of its one node above t
        counted = np.where(f0 > t, d0, d1) * (field.du * 0.5)
        np.add.at(I, ii, cut - counted)
    return I


def _field_case(tau0, case):
    """(tau, deriv, r_max, level) of a level field the sweeps read."""
    if case == "ce":
        return TauProfile.ce(1.0), SymbolDerivative.ce_family(1.5), 0.99, 1
    if case == "radial":
        return tau0, SymbolDerivative.polynomial([1.0]), 1.0 - 1e-5, 3
    return TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0, 0.6]), 0.99, 1


@pytest.mark.parametrize("case", ["ce", "c=0.3", "radial"])
def test_tiled_measure_matches_whole_row_mask(tau0, case):
    # tiles above t count whole and only the tiles t crosses are read
    # cell by cell; the mask over every node agrees within 1e-14 at 56
    # levels, from below the field's min to above its max
    field = LevelField(*_field_case(tau0, case))._index()
    f = np.concatenate([f for _, f in field.blocks()])
    lo, hi = float(f.min()), float(f.max())
    ts = np.concatenate([np.geomspace(lo, hi, 50), [0.5 * lo, np.nextafter(lo, 0.0), hi, 2.0 * hi]])
    ts = np.concatenate([ts, f[len(f) // 2, :: f.shape[1] // 2]])
    for t in ts:
        got = field.measure(t)
        ref = sum(float(wts @ _slice_integrals(field, blk, t)) for wts, blk in field.blocks())
        assert abs(got - ref) <= 1e-14 * ref, (t, got, ref)
    assert field.measure(hi) == 0.0 and field.measure(2.0 * hi) == 0.0


@pytest.mark.parametrize("case", ["ce", "c=0.3", "radial"])
def test_rplus_bounds_hold_at_every_edge(tau0, case):
    # R_lower <= R <= R_upper at each of the _EDGES edges, R as measure
    # computes it, and the tile counts are those of the index; the top
    # edge is the largest node value, where R and both bounds are 0
    tau, deriv, r_max, level = _field_case(tau0, case)
    field = LevelField(tau, deriv, r_max, level)._index()
    T = field.top()
    f = np.concatenate([f for _, f in field.blocks()])
    assert T == f.max() == field._hi.max()
    edges, lower, upper, n_lo, n_hi = field._rbounds()
    assert len(edges) == rearrangement._EDGES and edges[0] == T and edges[-1] <= 1e-15 * T
    assert np.all(np.diff(edges) < 0.0)
    R = np.array([field.measure(e) for e in edges])
    assert R[0] == lower[0] == upper[0] == 0.0
    assert np.all(lower <= R) and np.all(R <= upper)
    # the bounds are tight where the edge crosses few tiles
    assert lower[-1] > 0.0 and upper[-1] <= (1.0 + 1e-9) * lower[-1]
    assert [list(n_lo), list(n_hi)] == [[np.count_nonzero(a > e) for e in edges] for a in (field._lo, field._hi)]
    assert field._rbounds() is field._rbounds() and not field._rbounds().flags.writeable
    # the index and the bounds are counted in nbytes before they are built
    assert field.nbytes == LevelField(tau, deriv, r_max, level).nbytes


def test_rplus_measures_an_end_edge_its_bounds_leave_open(tau0):
    # the bottom edge, t_max e^(-2211 / 64), on a field whose values
    # span more than 15 decades (phi' = z^40, rising from 0 at z = 0):
    # a tile straddles it, and for x between R_lower and R_upper there R
    # is evaluated, and R+ is 0 or the first double where R < x
    field = LevelField(tau0, SymbolDerivative.polynomial([0.0] * 40 + [1.0]), 1.0 - 1e-5, 0)
    f = next(field.blocks())[1][0]  # one row
    edges, lower, upper, _, _ = field._rbounds()
    e = edges[-1]
    assert e == field.top() * np.exp(-2211.0 / 64.0) and f[0] == 0.0 < e
    R = field.measure(e)
    assert lower[-1] < R < upper[-1]
    assert field.rplus(np.nextafter(R, np.inf)) == 0.0
    for x in (R, 0.5 * (R + lower[-1])):
        rp = field.rplus(x)
        assert field.measure(rp) < x <= field.measure(np.nextafter(rp, 0.0)), (x, rp)


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rplus_evaluates_r_few_times_on_the_geometry_ops(monkeypatch):
    # the geometry benchmark's 60 radial R+ calls and its non-radial one
    # (seed 0, second pass): R(t) evaluations per LevelField.rplus call,
    # 9.9 and 10 when the bracket was searched probe by probe, and 5 for
    # the non-radial call when regula falsi narrowed it
    workloads = _load_workloads()
    ops = [op for op in workloads.build_ops("geometry", workloads.make_inputs("geometry", 0))
           if op.name.startswith(("radial", "non-radial"))]
    assert len(ops) == 61
    for op in ops:
        op.fn()
    evals, calls = [], []
    measure, rplus = LevelField.measure, LevelField.rplus

    def counting_measure(self, t):
        evals.append(t)
        return measure(self, t)

    def counting_rplus(self, x):
        start = len(evals)
        out = rplus(self, x)
        calls.append(len(evals) - start)
        return out

    monkeypatch.setattr(LevelField, "measure", counting_measure)
    monkeypatch.setattr(LevelField, "rplus", counting_rplus)
    for op in ops:
        op.fn()
    assert len(calls) == 61
    assert np.mean(calls[:60]) <= 3.5 and calls[60] <= 4, calls


def test_rplus_of_a_constant_field_is_the_constant(dz):
    # every cell is flat at 0.15 (each tile's min equals its max): R is
    # the whole mass below 0.15 and 0 from there on
    const = TauProfile.user_supplied(lambda r: np.full_like(np.asarray(r, float), 0.15), r_hi=0.9)
    field = LevelField(const, dz, 0.9, 0)
    total = field.measure(0.1)
    assert total > 0.0 and field.measure(0.15) == 0.0
    for x in (1e-3 * total, 0.5 * total, (1.0 - 1e-9) * total):
        assert field.rplus(x) == 0.15
    # no t has R(t) above the whole mass
    assert field.rplus((1.0 + 1e-9) * total) == 0.0


@pytest.mark.parametrize("case", ["ce", "c=0.3", "radial"])
def test_rplus_at_node_values(tau0, case):
    # at a level t that is a node value, R+(R(t)) is t or at most a few
    # ulps above it: t is one of the knots the exact search runs over
    tau, deriv, r_max, level = _field_case(tau0, case)
    field = LevelField(tau, deriv, r_max, level)
    f = np.concatenate([f for _, f in field.blocks()])
    rng = np.random.default_rng(3)
    ts = f[rng.integers(0, f.shape[0], 12), rng.integers(1, f.shape[1] - 1, 12)]
    for t in ts:
        rp = field.rplus(field.measure(t))
        assert t <= rp <= t * (1.0 + 1e-13), (t, rp)


@pytest.mark.parametrize("t", [0.2729298, 0.05, 0.5, 1.5])
def test_invert_with_node_valued_bracket_ends(t):
    # t_hi the node value just above the root and t_lo 40 nodes lower:
    # the cell whose low node is t_hi is whole on the bracket, and the
    # last piece's quadratic must not take it as crossing (it put the
    # root 2.2e-3 high at t = 0.2729298)
    tau, dz, r_max = TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0]), 1.0 - 1e-5
    field = LevelField(tau, dz, r_max, 1)
    f = next(field.blocks())[1][0]  # one row, decreasing along u
    x = field.measure(t)
    rp = field.rplus(x)
    k = np.flatnonzero(f > rp)[-1]
    t_lo, t_hi = f[k + 40], f[k]
    assert field.measure(t_lo) >= x > field.measure(t_hi)
    got = field._invert(x, t_lo, t_hi)
    assert abs(got - rp) <= 1e-15 * rp, (got, rp)


def test_families_are_kept_side_by_side(monkeypatch):
    # a CE sweep, a radial R+, a non-radial R+ and trace, then the CE
    # sweep again: the second sweep streams no field, and every sweep
    # gives the bits of one on a cleared family
    cleared = _ce_sweep(clear=True)
    _forget()
    first = _ce_sweep(clear=False)
    tau, dz, r_max = _KEPT_CASES["radial"]()
    rearrangement_plus(tau, dz, 3.0, r_max)
    tau, deriv, r_max = _KEPT_CASES["poly"]()
    rearrangement_plus(tau, deriv, 3.0, r_max)
    trace_integral(tau, deriv, lambda v: np.asarray(v) ** 2, r_max)
    assert len(rearrangement._FAMILY.families) == 3
    built = _record_field_builds(monkeypatch)
    assert _ce_sweep(clear=False) == cleared == first
    assert built == [], built
    # tau one ulp larger at a level-1 radius off level 0: the level-1
    # field is rebuilt, level 0 and the annulus are read
    ce = SymbolDerivative.ce_family(1.5)
    r1 = LevelField(_ce_profile(), ce, 0.99, 1)._r
    assert not np.isin(r1[1001], LevelField(_ce_profile(), ce, 0.99, 0)._r)
    odd = _nudged(_ce_profile(), r1[1001])
    R = level_measure(odd, ce, 0.01, 0.99)
    assert built == [(769, 2049)], built
    _forget()
    assert _bits(level_measure(odd, ce, 0.01, 0.99)) == _bits(R)


def test_kept_families_drop_the_least_recently_used_first(monkeypatch):
    # room for two items of 16 kB (radii and tau): keeping a third drops
    # the family used least recently, and a lookup counts as a use
    family, r = rearrangement._Family(), np.zeros(1000)
    monkeypatch.setattr(rearrangement, "_HOLD_BYTES", 2 * 2 * r.nbytes)
    family.keep("a", "sup", r, r, 1.0)
    family.keep("b", "sup", r, r, 2.0)
    assert family.get("a", "sup", np.zeros_like) == 1.0
    family.keep("c", "sup", r, r, 3.0)
    assert list(family.families) == ["a", "c"]
    # a replaced item is counted once, in the running byte total
    family.keep("c", "sup", r, r, 5.0)
    assert family.get("c", "sup", np.zeros_like) == 5.0 and family.nbytes == 2 * 2 * r.nbytes
    # an item too large for the budget is not kept
    family.keep("c", "big", np.zeros(3000), np.zeros(3000), 4.0)
    assert family.get("c", "big", np.zeros_like) is None
    assert list(family.families) == ["c"] and family.nbytes == 2 * r.nbytes


def test_rplus_on_a_level_2_field_streams_it_once(monkeypatch):
    # 1,024 x 4,097 values (33.6 MB): three R+ calls read them once in
    # all, to build the tile index, and then only the tiles they cross
    tau, deriv = TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0, 0.6])
    field = LevelField(tau, deriv, 0.9, 2)
    built = _record_field_builds(monkeypatch)
    got = [field.rplus(x) for x in (0.3, 3.0, 30.0)]
    assert built == [(1024, 4097)], built
    assert [v.hex() for v in got] == ["0x1.79bb4e7e8bbefp+0", "0x1.e1af7335212a7p-2", "0x0.0p+0"]


def test_bloch_norm_zooms_read_tau_off_the_coarse_grid(tau0):
    # a tau equal to tau0 on the 2,049-point coarse grid but 1% larger
    # at every zoom radius off it gets its own sup, the reference's
    deriv, r_max = SymbolDerivative.polynomial([1.0, 0.6]), 0.99
    grid = -np.expm1(-np.linspace(0.0, -np.log1p(-r_max), 2049))
    T0 = bloch_norm(tau0, deriv, r_max=r_max)
    bumped = TauProfile.user_supplied(lambda r: tau0(r) * np.where(np.isin(r, grid), 1.0, 1.01))
    np.testing.assert_array_equal(bumped(grid), tau0(grid))
    T1 = bloch_norm(bumped, deriv, r_max=r_max)
    assert T1 == _bloch_norm_reference(bumped, deriv, r_max) and T1 > T0


@pytest.mark.parametrize("case", list(_FIELD_CASES))
def test_bloch_norm_matches_whole_grid_reference_bit_for_bit(tau0, case):
    deriv, _ = _FIELD_CASES[case]
    tau = _field_tau(case, tau0)
    assert bloch_norm(tau, deriv, r_max=0.99) == _bloch_norm_reference(tau, deriv, 0.99)


@pytest.mark.parametrize("coeffs", [[1.0, 0.6], [1.0, 0.3 + 0.4j, -0.2j], [0.5, 1.0, 0.25, 0.1]])
def test_bloch_norm_keeps_no_sup(tau0, coeffs, monkeypatch):
    # after the family's R(t), R+, trace and sup the family holds no sup,
    # and bloch_norm builds its coarse grid and zooms on every call, with
    # the bits of the whole-grid reference
    deriv = SymbolDerivative.polynomial(coeffs)
    fresh = bloch_norm(tau0, deriv, r_max=0.99)
    assert fresh == _bloch_norm_reference(tau0, deriv, 0.99)
    level_measure(tau0, deriv, 0.5 * fresh, 0.99)
    rearrangement_plus(tau0, deriv, 3.0, 0.99)
    trace_integral(tau0, deriv, lambda v: np.asarray(v) ** 2, 0.99)
    names = [name for items in rearrangement._FAMILY.families.values() for name in items]
    assert "sup" not in names and ("rplus", LevelField(tau0, deriv, 0.99, 0).top(), 1e-4) in names, names
    built = _record_field_builds(monkeypatch)
    assert bloch_norm(tau0, deriv, r_max=0.99) == fresh
    assert built == [(256, 2049)] + [(17, 17)] * 14, built


@pytest.mark.parametrize("case", list(_KEPT_CASES))
def test_rplus_and_trace_never_call_bloch_norm(case, monkeypatch):
    # both read their top off the level-0 field: with bloch_norm made to
    # raise they give the bits of calls where it could run
    tau, deriv, r_max = _KEPT_CASES[case]()
    h = lambda v: np.asarray(v) ** 2
    want = [rearrangement_plus(tau, deriv, 3.0, r_max), _bits(trace_integral(tau, deriv, h, r_max))]
    _forget()

    def refuse(*args, **kwargs):
        raise AssertionError("bloch_norm called")

    monkeypatch.setattr(rearrangement, "bloch_norm", refuse)
    assert [rearrangement_plus(tau, deriv, 3.0, r_max), _bits(trace_integral(tau, deriv, h, r_max))] == want
    assert want[0] > 0.0 and want[1][0] > 0.0


def test_ce_abs_grid_fallback_matches_reference():
    # theta = 1e-200 and 1e-160 at r = 1 put |w|^2 below the normal
    # doubles, theta = 0 there is the pole
    ce = SymbolDerivative.ce_family(1.5)
    r = np.array([0.3, 1.0 - 1e-9, 1.0])
    theta = np.array([0.0, 1e-200, 1e-160, 1e-9, 0.5, np.pi])
    got = ce.abs_grid(r[None, :], theta[:, None])
    np.testing.assert_array_equal(got, _abs_grid_reference(ce, r, theta))
    assert got[0, 2] == np.inf and np.isfinite(got[1:, 2]).all()


def test_level_field_streams_in_cache_sized_chunks():
    # the trace holds one chunk of this 1,537 x 4,097 field at a time, and
    # so does the pass that builds the tile index R(t) reads; 256-row
    # blocks peaked at 64 MiB
    field = LevelField(TauProfile.ce(1.0), SymbolDerivative.ce_family(1.5), 0.99, 2)
    tracemalloc.start()
    try:
        field.trace(lambda x: x**2)
        trace_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        field.measure(0.01)
        measure_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    index_bytes = field._lo.nbytes + field._hi.nbytes
    assert trace_peak < 2 * 2**20, trace_peak
    assert measure_peak <= index_bytes + 2 * 2**20, (measure_peak, index_bytes)


def test_level_field_rplus_edges(tau0, dz):
    field = LevelField(tau0, dz, 0.99, 1)
    with pytest.raises(ValueError):
        field.rplus(0.0)
    zero = LevelField(tau0, SymbolDerivative.polynomial([0.0, 0.0]), 0.99, 1)
    assert zero.top() == 0.0 and zero.rplus(1.0) == 0.0  # R+ is 0, no endless search
    assert field.rplus(1e30) == 0.0  # no t has R(t) that large


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_field_raises_weight_domain_error(bad):
    # tau is bad only for |r - 0.3333| < 2e-3, between the points that the
    # profile's growth check samples: each public call, and R+ on a
    # level field, raises the typed error naming tau_prof instead of a
    # nan, an untyped crash or an endless search for the top
    tau = TauProfile.standard(0.0)
    odd = TauProfile.user_supplied(
        lambda r: np.where(np.abs(np.asarray(r, float) - 0.3333) < 2e-3, bad, tau(r)))
    deriv, r_max = SymbolDerivative.polynomial([1.0, 0.6]), 0.99
    for call in (
        lambda: level_measure(odd, deriv, 0.5, r_max),
        lambda: rearrangement_plus(odd, deriv, 1.0, r_max),
        lambda: trace_integral(odd, deriv, lambda v: np.asarray(v) ** 2, r_max),
        lambda: bloch_norm(odd, deriv, r_max=r_max),
        lambda: LevelField(odd, deriv, r_max, 0).rplus(1.0),
    ):
        with pytest.raises(WeightDomainError, match=r"tau_prof .* at r=0\.33"):
            call()


def test_trace_integral_closed_forms(tau0, dz):
    tr = trace_integral(tau0, dz, lambda t: t**2, 0.999)
    assert abs(tr - np.pi * 0.999**2) / (np.pi * 0.999**2) < 2e-4
    dz2 = SymbolDerivative.from_symbol(PolynomialSymbol([0.0, 1.0]))
    tr2 = trace_integral(tau0, dz2, lambda t: t**2, 0.999)
    exact2 = 2 * np.pi * 0.999**4
    assert abs(tr2 - exact2) / exact2 < 2e-4


def test_trace_integral_rejects_non_admissible_h(tau0, dz):
    with pytest.raises(ValueError):
        trace_integral(tau0, dz, lambda t: t + 1.0, 0.9)  # h(0) != 0
    with pytest.raises(ValueError):
        trace_integral(tau0, dz, np.sqrt, 0.9)  # concave


def test_bloch_norm_closed_forms(tau0, dz):
    assert abs(bloch_norm(tau0, dz) - SP) / SP < 1e-9
    dz2 = SymbolDerivative.from_symbol(PolynomialSymbol([0.0, 1.0]))
    exact = 4 * SP / (3 * np.sqrt(3))  # max of sqrt(pi)(1-r^2) 2r at r=1/sqrt(3)
    assert abs(bloch_norm(tau0, dz2) - exact) / exact < 1e-9


def test_bloch_norm_ce_finite():
    tau1 = TauProfile.user_supplied(
        lambda r: np.sqrt(np.pi / 2.0) * (1.0 - np.asarray(r) ** 2)
    )
    b = bloch_norm(tau1, SymbolDerivative.ce_family(1.5))
    assert np.isfinite(b) and b > 0.0


def test_build_lattice_constant_tau_multiplicity():
    tconst = TauProfile.user_supplied(
        lambda r: np.full_like(np.asarray(r, float), 0.15), r_hi=0.9
    )
    lat = build_lattice(tconst, 0.1, 0.8)
    assert lat.multiplicity <= 9
    assert len(lat) == len(lat.centers) == len(lat.radii)


def test_build_lattice_standard_tau_invariants(lat01):
    assert lat01.multiplicity <= 12  # uniform bound independent of r_max
    _check_separation(lat01)


def _check_separation(lat):
    """The spacing build_lattice states: |z_j - z_k| >= 2 sin(pi/8)
    min(delta min(tau_j, tau_k), max(|z_j|, |z_k|)), as on an 8-point ring."""
    from scipy.spatial import cKDTree

    zc = lat.centers
    rho = lat.radii
    tree = cKDTree(np.column_stack([zc.real, zc.imag]))
    pairs = tree.query_pairs(float(rho.max()), output_type="ndarray")
    assert len(pairs) > 0
    j, k = pairs[:, 0], pairs[:, 1]
    d = np.abs(zc[j] - zc[k])
    near = np.minimum(np.minimum(rho[j], rho[k]), np.maximum(np.abs(zc[j]), np.abs(zc[k])))
    # an 8-point ring of constant tau meets the bound exactly, up to rounding
    assert np.all(d >= 2.0 * np.sin(np.pi / 8.0) * near * (1.0 - 1e-12))


def _ring_points_reference(tau_prof, step, r_start, r_max, phase):
    """Ring points step*tau(r) apart, one ring at a time, in ring order."""
    rings = []
    r, ring = r_start, 0
    while r <= r_max:
        h = step * float(tau_prof(r))
        if r == 0.0:
            rings.append(np.array([0.0 + 0.0j]))
        else:
            M = max(8, int(np.ceil(2.0 * np.pi * r / h)))
            th = 2.0 * np.pi * (np.arange(M) + phase + 0.5 * (ring % 2)) / M
            rings.append(r * np.exp(1j * th))
        r += h
        ring += 1
    return np.concatenate(rings)


_CONST_TAU = TauProfile.user_supplied(lambda r: np.full_like(np.asarray(r, float), 0.15), r_hi=0.9)


@pytest.mark.parametrize(
    "tau_prof, delta, r_max, b",
    [
        (TauProfile.standard(0.0), 0.25, 0.8, 1.5),
        (TauProfile.standard(0.0), 0.2, 0.99, 1.5),
        (_CONST_TAU, 0.3, 0.6, 1.25),
        (TauProfile.ce(1.0), 0.25, 0.8, 1.5),
        (TauProfile.standard(0.0), 0.5, 0.9, 1.7),
        # disks that hold whole verification rings and windows that wrap
        # past angle 2 pi
        (_CONST_TAU, 0.5, 0.6, 1.25),
        # tau grows 3-fold across a disk (C = 201)
        (TauProfile.user_supplied(lambda r: 0.004 + 4.0 * np.asarray(r, float), r_hi=0.9),
         0.5, 0.2, 26.2),
    ],
    ids=["standard-0.25-0.8", "standard-0.2-0.99", "constant-0.3-0.6", "ce-0.25-0.8",
         "standard-0.5-0.9", "constant-0.5-0.6", "growing-0.5-0.2"],
)
def test_build_lattice_matches_brute_force_greedy(tau_prof, delta, r_max, b):
    # the centers are the ring points at the lattice step delta, and the
    # covering check passes
    lat = build_lattice(tau_prof, delta, r_max, b=b)
    np.testing.assert_array_equal(lat.centers, _ring_points_reference(tau_prof, delta, 0.0, r_max, 0.0))
    _check_separation(lat)


def test_build_lattice_covering_error_names_first_uncovered_point():
    # tau drops 10-fold at r = 0.2, so the small disks of the first ring
    # past it leave gaps next to the large disks of the last ring inside.
    # The witness is the first bare point in ring order
    tau = TauProfile.user_supplied(lambda r: np.where(np.asarray(r, float) < 0.2, 0.15, 0.015),
                                   r_hi=0.9)
    delta, r_max, b = 0.3, 0.23, 1.02
    with pytest.raises(CoveringError) as err:
        build_lattice(tau, delta, r_max, b=b)
    zc = _ring_points_reference(tau, delta, 0.0, r_max, 0.0)
    rad = np.array([b * delta * float(tau(abs(z))) for z in zc])
    r0 = 0.5 * delta * float(tau(0.0)) / 8.0
    test = np.concatenate([[r0 + 0.0j], _ring_points_reference(tau, delta / 8.0, r0, r_max, 0.25)])
    test = test[np.abs(test) <= r_max]
    bare = [w for w in test if not np.any(np.abs(w - zc) <= rad)]
    assert len(bare) > 0 and err.value.witness == bare[0]
    assert f"leave {len(bare)} verification points" in str(err.value)


def test_build_lattice_peak_memory(tau0):
    # geometry's lattice: 3,378 centers; candidates for all centers at
    # once peaked at 69 MiB, 256 at a time at 12.6 MiB
    tracemalloc.start()
    try:
        build_lattice(tau0, 0.1, 0.99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2**20, peak


def test_cover_counts_matches_brute_force():
    # on rings from r = 0 (a one-point ring) and on a verification grid
    for r_start, phase in ((0.0, 0.0), (0.01, 0.25)):
        _check_cover_counts(r_start, phase)


def _check_cover_counts(r_start, phase):
    tau = TauProfile.standard(0.0)
    delta, b = 0.25, 1.25
    grid = _rings(tau, delta / 8.0, r_start, 0.9, phase)
    test = grid.points()
    np.testing.assert_array_equal(test, _ring_points_reference(tau, delta / 8.0, r_start, 0.9, phase))
    rng = np.random.default_rng(3)
    radius, angle = 0.9 * np.sqrt(rng.uniform(0, 1, 200)), 2.0 * np.pi * rng.uniform(0, 1, 200)
    centers = list(radius * np.exp(1j * angle))
    taus = list(rng.uniform(0.0, 0.8, 200))
    # a ring k = 20 and the angle of its point 5
    k, j = 20, 5
    rk = grid.r[k]
    th = 2.0 * np.pi * (j + grid.off[k]) / grid.count[k]
    edge = [
        (0.0j, 0.6),  # a center at the origin, its disk holding whole rings
        (0.03 + 0.01j, 3.0),  # off the origin, holding the inner rings whole
        (0.3 * np.exp(1j * th), (rk - 0.3) / delta),  # ring k touches the disk from outside
        (0.3 * np.exp(1j * th), (rk - 0.3) / (b * delta)),  # ... the dilated disk
        (0.9 * np.exp(1j * th), (0.9 - rk) / delta),  # ... from inside
        (test[grid.first[k] + j], 0.0),  # tau = 0: only the point under the center
        (0.5 - 0.2j, 30.0),  # a disk holding every point
        (0.6 * np.exp(-1e-3j), 0.4),  # windows across angle 2 pi
        (0.6 * np.exp(1e-3j), 0.4),
    ]
    centers = np.array(centers + [z for z, _ in edge])
    taus = np.array(taus + [t for _, t in edge])
    counts = np.zeros(len(test), dtype=int)
    for zc, tz in zip(centers, taus):
        counts += np.abs(test - zc) <= b * delta * tz
    np.testing.assert_array_equal(_cover_counts(grid, test, centers, b * delta * taus), counts)


def test_build_lattice_covers_where_the_greedy_bound_refused():
    # b = 1.25 is below 1 + C/8 = 1.408 (C = 3.264, the largest tau ratio
    # over a delta*tau step), a bound of the greedy walk; the ring
    # lattice covers at b = 1.25 all the same
    lat = build_lattice(TauProfile.standard(0.0), 0.2, 0.99, b=1.25)
    assert len(lat) == 889 and lat.multiplicity == 9


@pytest.mark.parametrize("b", [0.99, 0.0, np.nan, np.inf])
def test_build_lattice_rejects_bad_dilation(tau0, b):
    with pytest.raises(WeightDomainError, match="b="):
        build_lattice(tau0, 0.2, 0.99, b=b)


def test_build_lattice_rejects_bad_delta(tau0):
    with pytest.raises(WeightDomainError):
        build_lattice(tau0, 0.0, 0.9)
    with pytest.raises(WeightDomainError):
        build_lattice(tau0, 0.7, 0.9)


def test_besov_sum_phi_z_comparable_to_pi(lat01, dz):
    ratio = besov_sum(lat01, dz, 2.0) / np.pi
    assert 0.25 <= ratio <= 4.0


def test_besov_sum_grows_toward_boundary(tau0, dz):
    vals = [besov_sum(build_lattice(tau0, 0.2, rm, b=1.5), dz, 1.0)
            for rm in (0.9, 0.99)]
    assert vals[1] > 1.8 * vals[0]  # p=1 Besov mass of phi=z diverges


@pytest.mark.parametrize("c", [0.1, 0.3])
def test_besov_sum_chunks_keep_the_bits(lat01, c, monkeypatch):
    # geometry's lattice and symbol; one chunk is the whole-array sum
    deriv = SymbolDerivative.polynomial([1.0, 2.0 * c])
    got = besov_sum(lat01, deriv, 2.0)
    for chunk in (len(lat01), 7):
        monkeypatch.setattr(rearrangement, "_BESOV_CHUNK", chunk)
        assert besov_sum(lat01, deriv, 2.0) == got


def test_besov_sum_peak_memory(lat01):
    # geometry's lattice: 3,378 centers x 128 nodes at once peaked at
    # 40 MiB, 256 centers at a time at 3.3 MiB
    deriv = SymbolDerivative.polynomial([1.0, 0.6])
    tracemalloc.start()
    try:
        besov_sum(lat01, deriv, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


def test_besov_sum_rejects_bad_p(tau0, dz):
    lat = build_lattice(tau0, 0.25, 0.8, b=1.5)
    with pytest.raises(ValueError):
        besov_sum(lat, dz, 0.0)

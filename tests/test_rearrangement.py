import tracemalloc

import numpy as np
import pytest

from bhl import rearrangement
from bhl.errors import NonConvergedError, WeightDomainError
from bhl.hankel import PolynomialSymbol
from bhl.rearrangement import (
    LevelField,
    MeasureResult,
    SymbolDerivative,
    _cover_counts,
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
    np.testing.assert_allclose(df.abs_grid(np.array([0.5]), np.array([1.0]))[0, 0],
                               abs(1.0 + 2.0 * 0.5 * np.exp(1.0j)), rtol=1e-14)


def test_ce_family_domain_and_stability():
    with pytest.raises(WeightDomainError):
        SymbolDerivative.ce_family(0.8)
    ce = SymbolDerivative.ce_family(1.5)
    # phi'(z) = 1/((1-z) log^gamma(e/(1-z))) must stay finite next to z=1
    v = ce.abs_grid(np.array([1.0 - 1e-12]), np.array([1e-9]))
    assert np.isfinite(v).all() and (v > 0.0).all()
    # and match the naive formula where it is stable
    z = 0.7 * np.exp(0.5j)
    w = 1.0 - z
    naive = 1.0 / (abs(w) * abs(1.0 - np.log(w)) ** 1.5)
    assert abs(ce(z) - naive) < 1e-12
    # abs_grid agrees with pointwise evaluation away from the spike
    g = ce.abs_grid(np.array([0.7]), np.array([0.5]))
    assert abs(g[0, 0] - ce(0.7 * np.exp(0.5j))) < 1e-12


@pytest.mark.parametrize("gamma", [1.1, 1.5, 3.0])
def test_ce_abs_grid_matches_mpmath(gamma):
    # the real-arithmetic kernel against 30-digit complex arithmetic,
    # down to 1 - r = 1e-9 and theta = 1e-12 next to z = 1
    mpmath = pytest.importorskip("mpmath")
    r = 1.0 - np.array([0.5, 1e-3, 1e-6, 1e-9])
    theta = np.array([0.0, 1e-12, 1e-6, 0.1, np.pi])
    got = SymbolDerivative.ce_family(gamma).abs_grid(r, theta)
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
        assert ce.abs_grid(np.array([1.0]), np.array([0.0]))[0, 0] == np.inf
        mixed = ce(np.array([1.0 + 0j, 0.5, 1.0 - 1e-9j]))
        grid = ce.abs_grid(np.array([0.5, 1.0]), np.array([0.0, 0.1]))
    assert mixed[0] == np.inf and np.isfinite(mixed[1:]).all()
    assert mixed[2] == ce(1.0 - 1e-9j)
    assert grid[0, 1] == np.inf and np.isfinite(np.delete(grid.ravel(), 1)).all()


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


def test_level_measure_non_convergence_reported(tau0, dz):
    with pytest.raises(NonConvergedError):
        level_measure(tau0, dz, 0.5, 0.999, rel_tol=1e-12, max_level=1)


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


def _rplus_probe_by_probe(tau_prof, deriv, x, r_max, iters, hold=False):
    """rearrangement_plus as a plain bisection that measures the whole field at every probe.

    The field is rebuilt per probe, or with hold=True built once and
    rescanned.
    """
    T = bloch_norm(tau_prof, deriv, r_max=r_max)
    _, _, level = _refined(
        lambda lv: LevelField(tau_prof, deriv, r_max, lv).measure(T / 8.0), 1e-4, 5
    )
    field = LevelField(tau_prof, deriv, r_max, level)
    if hold:
        held = list(field.blocks())
        field.blocks = lambda: iter(held)
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
    [("poly", rearrangement._FIELD_BYTES), ("ce", rearrangement._FIELD_BYTES), ("poly", 0)],
    ids=["poly-held", "ce-held", "poly-rebuilt"],
)
def test_rearrangement_plus_matches_probe_by_probe(tau0, symbol, field_bytes, monkeypatch):
    # holding the field across probes must not change a single bit, and
    # a field over the byte budget is rebuilt per probe instead
    if symbol == "poly":
        tau, deriv, x, r_max = tau0, SymbolDerivative.polynomial([1.0, 0.6]), 0.9, 0.99
    else:
        tau = TauProfile.user_supplied(
            lambda r: (1.0 - np.asarray(r, float)) / (1.0 - np.log1p(-np.asarray(r, float)))
        )
        deriv, x, r_max = SymbolDerivative.ce_family(1.5), 30.0, 0.9
    monkeypatch.setattr(rearrangement, "_FIELD_BYTES", field_bytes)
    rp = rearrangement_plus(tau, deriv, x, r_max, iters=16)
    assert rp == _rplus_probe_by_probe(tau, deriv, x, r_max, 16)


@pytest.mark.parametrize("case", ["c=0.1", "c=0.3", "c=0.5", "ce", "radial"])
def test_rearrangement_plus_sweep_matches_whole_field_bisection(tau0, case):
    # past its first steps rplus probes only the cells that straddle its
    # bracket; over 48 steps it must stay within 1e-12 of probing all cells
    if case == "ce":
        tau = TauProfile.user_supplied(
            lambda r: (1.0 - np.asarray(r, float)) / (1.0 - np.log1p(-np.asarray(r, float)))
        )
        deriv, xs, r_max = SymbolDerivative.ce_family(1.5), (3.0, 30.0, 300.0), 0.9
    elif case == "radial":
        tau, deriv, xs, r_max = tau0, SymbolDerivative.polynomial([1.0]), (0.5, 5.0, 50.0), 1.0 - 1e-5
    else:
        c = float(case[2:])
        tau, deriv, xs, r_max = tau0, SymbolDerivative.polynomial([1.0, 2.0 * c]), (0.3, 3.0, 30.0), 0.99
    for x in xs:
        rp = rearrangement_plus(tau, deriv, x, r_max, iters=48)
        ref = _rplus_probe_by_probe(tau, deriv, x, r_max, 48, hold=True)
        assert abs(rp - ref) <= 1e-12 * ref, (x, rp, ref)


def test_rearrangement_plus_peak_memory():
    # the straddling cells are gathered only once the bracket is narrow;
    # on the first 10-octave bracket nearly every cell straddles, and the
    # gathered copies would outgrow the held field several times over
    tau, deriv, x, r_max = TauProfile.standard(0.0), SymbolDerivative.polynomial([1.0, 0.6]), 0.9, 0.99
    T = bloch_norm(tau, deriv, r_max=r_max)
    _, _, level = _refined(lambda lv: LevelField(tau, deriv, r_max, lv).measure(T / 8.0), 1e-4, 5)
    field = LevelField(tau, deriv, r_max, level)
    tracemalloc.start()
    try:
        held = list(field.blocks())
        field_bytes = sum(f.nbytes for _, f in held)
        hold_peak = tracemalloc.get_traced_memory()[1]
        del held
        tracemalloc.reset_peak()
        rearrangement_plus(tau, deriv, x, r_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # building and holding the field peaks well above its own bytes (the
    # polar grid's complex temporaries); R+ may add a quarter of it
    assert peak - hold_peak <= 0.25 * field_bytes, (peak, hold_peak, field_bytes)


def test_level_field_rplus_edges(tau0, dz):
    field = LevelField(tau0, dz, 0.99, 1)
    with pytest.raises(ValueError):
        field.rplus(0.0, SP)
    assert field.rplus(1.0, 0.0) == 0.0  # a zero symbol: R+ is 0, no endless search
    # a t_max below the sup: R >= x already at the top of the bracket
    assert field.rplus(0.5, 1.0) == 1.0 + 1e-9
    assert field.rplus(1e30, SP) == 0.0  # no t has R(t) that large


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
    assert lat.comparability >= 1.0
    assert len(lat) == len(lat.centers) == len(lat.radii)


def test_build_lattice_standard_tau_invariants(lat01):
    from scipy.spatial import cKDTree

    lat = lat01
    assert lat.multiplicity <= 12  # uniform bound independent of r_max
    # separation: |z_j - z_k| >= delta * min(tau_j, tau_k) / (2C)
    zc = lat.centers
    tz = lat.radii / lat.delta
    tree = cKDTree(np.column_stack([zc.real, zc.imag]))
    pairs = tree.query_pairs(float(lat.radii.max()), output_type="ndarray")
    assert len(pairs) > 0
    d = np.abs(zc[pairs[:, 0]] - zc[pairs[:, 1]])
    bound = lat.delta * np.minimum(tz[pairs[:, 0]], tz[pairs[:, 1]]) / (2 * lat.comparability)
    assert np.all(d >= bound)


def _greedy_lattice_reference(tau_prof, delta, r_max):
    """Scan points in ring order; accept one iff no accepted disk holds it."""
    rings = []
    r, ring = 0.0, 0
    while r <= r_max:
        step = delta * float(tau_prof(r)) / 8.0
        if r == 0.0:
            rings.append(np.array([0.0 + 0.0j]))
        else:
            M = max(8, int(np.ceil(2.0 * np.pi * r / step)))
            th = 2.0 * np.pi * (np.arange(M) + 0.5 * (ring % 2)) / M
            rings.append(r * np.exp(1j * th))
        r += step
        ring += 1
    pts = np.concatenate(rings)
    zc = np.empty(len(pts), dtype=complex)
    rad = np.empty(len(pts))
    n = 0
    for z in pts:
        if not np.any(np.abs(z - zc[:n]) < rad[:n]):
            zc[n] = z
            rad[n] = delta * float(tau_prof(abs(z)))
            n += 1
    return zc[:n]


@pytest.mark.parametrize(
    "tau_prof, delta, r_max, b",
    [
        (TauProfile.standard(0.0), 0.25, 0.8, 1.5),
        (TauProfile.standard(0.0), 0.2, 0.99, 1.5),
        (TauProfile.user_supplied(lambda r: np.full_like(np.asarray(r, float), 0.15), r_hi=0.9),
         0.3, 0.6, 1.25),
    ],
    ids=["standard-0.25-0.8", "standard-0.2-0.99", "constant-0.3-0.6"],
)
def test_build_lattice_matches_brute_force_greedy(tau_prof, delta, r_max, b):
    lat = build_lattice(tau_prof, delta, r_max, b=b)
    np.testing.assert_array_equal(lat.centers, _greedy_lattice_reference(tau_prof, delta, r_max))


def test_cover_counts_matches_brute_force():
    rng = np.random.default_rng(3)
    test = rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-1, 1, 4000)
    centers = rng.uniform(-1, 1, 300) + 1j * rng.uniform(-1, 1, 300)
    taus = rng.uniform(0.0, 1.0, 300)
    taus[:3] = [0.0, 1e-9, 30.0]  # an empty ball, a tiny one, one holding every point
    delta, b = 0.1, 1.25
    counts = np.zeros(len(test), dtype=int)
    covered = np.zeros(len(test), dtype=bool)
    for zc, tz in zip(centers, taus):
        d = np.abs(test - zc)
        counts += d <= b * delta * tz
        covered |= d <= delta * tz
    got_counts, got_covered = _cover_counts(test, centers, taus, delta, b)
    np.testing.assert_array_equal(got_counts, counts)
    np.testing.assert_array_equal(got_covered, covered)


def test_build_lattice_rejects_infeasible_dilation(tau0):
    # delta=0.2 pushes the comparability constant past what b=1.25 covers
    with pytest.raises(WeightDomainError):
        build_lattice(tau0, 0.2, 0.99)


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


def test_besov_sum_rejects_bad_p(tau0, dz):
    lat = build_lattice(tau0, 0.25, 0.8, b=1.5)
    with pytest.raises(ValueError):
        besov_sum(lat, dz, 0.0)

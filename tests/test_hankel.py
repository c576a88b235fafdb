import numpy as np
import pytest

from bhl.errors import InsufficientMomentsError, LogConvexityError, WeightDomainError
from bhl import hankel
from bhl.hankel import (
    PolynomialSymbol,
    dense_gram_oracle,
    hz_squared_sequence,
    polynomial_gram,
)
from bhl.spectrum import singular_values
from bhl.weights import MomentTable, RadialWeight, compute_moments


def test_symbol_validation_and_derivative():
    with pytest.raises(ValueError):
        PolynomialSymbol([])
    s = PolynomialSymbol([2.0, 0.5])
    assert s.degree == 2
    np.testing.assert_allclose(s.derivative_coeffs(), [2.0, 1.0])
    sc = PolynomialSymbol([1.0 + 0j, 1j])
    assert not sc.is_real
    assert PolynomialSymbol([1.0 + 0j]).is_real  # zero imag demotes to real
    # a nan coefficient used to surface as a doubling-test failure and an
    # inf one as a bare scipy error inside the eigensolve
    for bad in ([np.nan], [1.0, np.inf], [1.0, -np.inf], [1.0 + 0j, complex(0.0, np.nan)]):
        with pytest.raises(ValueError, match="coeffs"):
            PolynomialSymbol(bad)


_HORNER_COEFFS = {
    "deg0": [0.7],
    "deg1": [1.0, 0.6],
    "deg3-real": [0.3, -1.2, 0.0, 2.5],
    "deg6-real": [1.0, -0.5, 0.25, 3.0, -2.0, 0.125, 0.75],
    "deg1-complex": [1.0, 0.3 + 0.4j],
    "deg3-complex": [1.0 - 1j, 0.3 + 0.4j, -0.2j, 0.5],
    "deg6-complex": [0.1j, 1.0, -0.5 + 0.5j, 0.0, 2.0, -1j, 0.3 - 0.2j],
    "zero-leading": [1.0, 2.0, 0.0],
    "zero-leading-complex": [1.0j, 2.0, 0.0],
}


@pytest.mark.parametrize("case", list(_HORNER_COEFFS))
def test_horner_gives_the_bits_of_polyval(case):
    # the in-place kernel starts from the leading coefficient; np.polyval
    # starts from 0 * z, which moves no bit for finite z
    c = np.asarray(_HORNER_COEFFS[case])
    rng = np.random.default_rng(5)
    r, theta = rng.uniform(0.0, 1.0, (64, 1)), rng.uniform(0.0, 2.0 * np.pi, (1, 129))
    grid = r * np.exp(1j * theta)
    for z in (grid, grid.real, np.zeros(5), np.zeros(5, complex), 0.0, 0j, 0.37 - 0.21j):
        got, ref = hankel.horner(c, z), np.polyval(c[::-1], z)
        assert type(got) is type(ref) and np.shape(got) == np.shape(ref)
        assert np.asarray(got).dtype == np.asarray(ref).dtype
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes(), (case, z)


def test_symbol_call_keeps_the_polyval_bits():
    s = PolynomialSymbol([0.5, 1.0 - 2.0j, 0.25])
    z = np.exp(1j * np.linspace(0.0, 6.0, 33)) * np.linspace(0.0, 0.99, 33)
    assert s(z).tobytes() == (z * np.polyval(s.coeffs[::-1], z)).tobytes()
    assert s(0.5) == 0.5 * np.polyval(s.coeffs[::-1], 0.5)


def test_hz_squared_closed_form(std0):
    # alpha=0: m_w(n)^2 = 1/((n+1)(n+2))
    hz2 = hz_squared_sequence(std0, 2000)
    n = np.arange(2001)
    cf = 1.0 / ((n + 1.0) * (n + 2.0))
    np.testing.assert_allclose(hz2[:51], cf[:51], rtol=1e-10)
    np.testing.assert_allclose(hz2, cf, rtol=1e-6)  # quadrature-limited tail
    assert abs(hz2[1] - 1.0 / 6.0) < 1e-15


def test_hz_squared_closed_form_alpha25(std25):
    hz2 = hz_squared_sequence(std25, 200)
    n = np.arange(201)
    cf = 3.5 / ((n + 3.5) * (n + 4.5))
    np.testing.assert_allclose(hz2, cf, rtol=1e-8)


def test_hz_squared_telescoping(std0, explog11):
    # sum_{k<=n} m_w(k)^2 = m[n+1]/m[n] holds exactly by construction
    for mt, n_max in ((std0, 2000), (explog11, 1500)):
        hz2 = hz_squared_sequence(mt, n_max)
        n = np.arange(n_max + 1)
        ratios = np.exp(mt.log_values[n + 1] - mt.log_values[n])
        assert np.max(np.abs(np.cumsum(hz2) - ratios)) < 1e-14


def test_hz_squared_rejects_log_concave_table(std0):
    # a table inside the constructor slack can still be numerically
    # log-concave; the sequence must refuse rather than emit negatives
    lv = std0.log_values[:600].copy()
    lv[500] += 1e-5
    mt = MomentTable(std0.weight, lv, rel_tol=1e-2)
    with pytest.raises(LogConvexityError):
        hz_squared_sequence(mt, 590)


def test_monomial_diagonal_closed_form(std0):
    for k in (1, 2, 5):
        d = polynomial_gram(std0, PolynomialSymbol([0.0] * (k - 1) + [1.0]), 400).diagonal()
        m = np.arange(400)
        sel = m >= k
        cf = k * k / ((m[sel] + 1.0) * (m[sel] + k + 1.0))
        np.testing.assert_allclose(d[sel], cf, rtol=1e-9)
        # below the band head the operator reduces to a moment ratio
        head = std0.values[m[~sel] + k] / std0.values[m[~sel]]
        np.testing.assert_allclose(d[~sel], head, rtol=1e-12)
    d2 = polynomial_gram(std0, PolynomialSymbol([0.0, 1.0]), 2).diagonal()
    assert abs(d2[1] - 0.5) < 1e-14


def test_gram_phi_z_diagonal_is_hz_squared(std0):
    g = polynomial_gram(std0, PolynomialSymbol([1.0]), 100)
    hz2 = hz_squared_sequence(std0, 99)
    np.testing.assert_allclose(g.diagonal(), hz2, rtol=0, atol=1e-17)
    assert g.size == 100 and g.bandwidth == 0  # degree 1 is diagonal


def test_gram_phi_z2_diagonal_closed_form(std0):
    g = polynomial_gram(std0, PolynomialSymbol([0.0, 1.0]), 100)
    m = np.arange(2, 100)
    np.testing.assert_allclose(g.diagonal()[2:], 4.0 / ((m + 1.0) * (m + 3.0)),
                               rtol=1e-10)


def test_gram_against_dense_oracle(std0):
    # independent 2-d quadrature route; never collapse the two paths
    phi = PolynomialSymbol([1.0, 1.0])
    G = polynomial_gram(std0, phi, 30).to_dense()
    Go, err = dense_gram_oracle(RadialWeight.standard(0.0), phi, 30)
    assert err < 1e-7
    assert np.abs(G - Go).max() < 1e-7


def test_gram_complex_symbol_hermitian_and_oracle(std0):
    phi = PolynomialSymbol([1.0 + 2.0j, 0.5 - 0.3j, 0.25j])
    G = polynomial_gram(std0, phi, 24)
    Gd = G.to_dense()
    assert np.abs(Gd - Gd.conj().T).max() < 1e-16
    Go, err = dense_gram_oracle(RadialWeight.standard(0.0), phi, 24)
    assert np.abs(Gd - Go).max() < max(1e-7, 5 * err)


def test_gram_oracle_explog(explog11):
    phi = PolynomialSymbol([1.0, 1.0])
    G = polynomial_gram(explog11, phi, 24).to_dense()
    Go, err = dense_gram_oracle(RadialWeight.explog(1.0, 1.0), phi, 24)
    assert np.abs(G - Go).max() < max(1e-7, 5 * err)


def test_gram_oracle_alpha25(std25):
    phi = PolynomialSymbol([0.0, 1.0])
    G = polynomial_gram(std25, phi, 20).to_dense()
    Go, err = dense_gram_oracle(RadialWeight.standard(2.5), phi, 20)
    assert np.abs(G - Go).max() < max(1e-7, 5 * err)


def test_gram_band_structure(std0):
    # bandwidth is degree-1: offsets m-n = k-j of coefficient pairs
    phi = PolynomialSymbol([0.0, 0.0, 1.0])  # z^3
    G = polynomial_gram(std0, phi, 16)
    assert G.bandwidth == 2
    Gd = G.to_dense()
    i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    assert np.all(Gd[np.abs(i - j) > 2] == 0.0)


def test_gram_zero_symbol(std0):
    Gd = polynomial_gram(std0, PolynomialSymbol([0.0]), 10).to_dense()
    assert np.abs(Gd).max() == 0.0


def test_gram_scale_invariance(std0):
    # entries are moment ratios, so a global rescale must cancel exactly
    phi = PolynomialSymbol([1.0, 1.0])
    G = polynomial_gram(std0, phi, 30).to_dense()
    for c in (7.25, 1e-9, 3e8):
        scaled = MomentTable(std0.weight, std0.log_values + np.log(c),
                             rel_tol=std0.rel_tol)
        Gs = polynomial_gram(scaled, phi, 30).to_dense()
        np.testing.assert_allclose(Gs, G, rtol=1e-11, atol=1e-20)


@pytest.mark.parametrize("shift, ratio_entries", [(690, 0), (640, 112)])
def test_gram_deep_tail_log_path(std0, shift, ratio_entries):
    # moments below 1e-280 take the log-difference slots of the log-ratio
    # table: every entry at a shift of 690, all but the first 112 at 640,
    # so that one table row mixes both kinds of slot
    phi = PolynomialSymbol([1.0, 0.5])
    G = polynomial_gram(std0, phi, 500)
    s = singular_values(G, check_doubling=False).values
    deep = MomentTable(std0.weight, std0.log_values - shift, rel_tol=std0.rel_tol)
    assert np.count_nonzero(deep.values > 1e-280) == ratio_entries
    Gd = polynomial_gram(deep, phi, 500)
    assert np.max(np.abs(Gd.band - G.band)) <= 1e-12 * s[0] ** 2
    sd = singular_values(Gd, check_doubling=False).values
    np.testing.assert_allclose(sd, s, rtol=1e-8)


def _gather_delta_log(mt, i, j):
    # log m[i] - log m[j] at gathered indices, with an all-safe shortcut:
    # the form polynomial_gram's one log-ratio table replaced
    v = mt.values
    i = np.asarray(i)
    j = np.asarray(j)
    safe = (v[i] > 1e-280) & (v[j] > 1e-280)
    if np.all(safe):
        return np.log(v[i] / v[j])
    lv = mt.log_values
    out = lv[i] - lv[j]
    if np.any(safe):
        out = np.where(safe, np.log(np.where(safe, v[i], 1.0) / np.where(safe, v[j], 1.0)), out)
    return out


def _gather_gram_band(mt, symbol, N):
    # reference assembly: four gathered log-differences per (offset, j) pair
    d = symbol.degree
    c = symbol.coeffs
    dtype = float if symbol.is_real else complex
    band = np.zeros((d, N), dtype=dtype)
    for off in range(d):
        m = np.arange(N - off)
        n = m + off
        acc = np.zeros(len(m), dtype=dtype)
        for j in range(1, d - off + 1):
            w = np.conj(c[j - 1]) * c[j + off - 1]
            if w == 0.0:
                continue
            A = 0.5 * (_gather_delta_log(mt, m + j + off, m) + _gather_delta_log(mt, m + j + off, n))
            term = np.exp(A)
            if len(m) > j:
                mm = m[j:]
                B = 0.5 * (_gather_delta_log(mt, mm, mm - j) + _gather_delta_log(mt, n[j:], mm - j))
                term[j:] = np.exp(B) * np.expm1(A[j:] - B)
            acc += w * term
        band[d - 1 - off, off:] = acc
    return band


def _geometric_truncation(d):
    # phi of degree d whose phi' is 1/(1 - 0.9z) up to its z^(d-1) term
    return PolynomialSymbol(0.9 ** np.arange(d) / np.arange(1, d + 1))


@pytest.fixture(scope="module")
def explog1q():
    return compute_moments(RadialWeight.explog(1.0, 0.25), 320)


@pytest.mark.parametrize("table", ["std0", "std25", "explog11", "explog1q", "std0_deep"])
def test_gram_band_keeps_the_bits_of_the_gather_form(request, table, std0):
    # the table slices must give the old gathered band bit for bit; the
    # shifted table keeps 112 entries above 1e-280, so one table row
    # holds ratio slots and log-difference slots
    if table == "std0_deep":
        mt = MomentTable(std0.weight, std0.log_values - 640, rel_tol=std0.rel_tol)
    else:
        mt = request.getfixturevalue(table)
    rng = np.random.default_rng(27)
    symbols = [_geometric_truncation(33), PolynomialSymbol([0.0, 0.0, 1.0])]
    for d in (1, 2, 3, 4, 17):
        re = rng.standard_normal(d)
        symbols += [PolynomialSymbol(re), PolynomialSymbol(re + 1j * rng.standard_normal(d))]
    cases = [(sym, N) for sym in symbols for N in (1, 2, 3, 7, 200)]
    cases.append((_geometric_truncation(65), 16))
    if table == "std0_deep":
        # the gather reference takes 0.8 s at degree 297: run it once,
        # on the table whose rows mix both kinds of slot
        cases.append((_geometric_truncation(297), 16))
    for sym, N in cases:
        band = polynomial_gram(mt, sym, N).band
        ref = _gather_gram_band(mt, sym, N)
        assert band.dtype == ref.dtype
        assert np.array_equal(band, ref), (table, sym.degree, N)


def test_gram_insufficient_moments():
    mt = compute_moments(RadialWeight.standard(0.0), 30)
    with pytest.raises(InsufficientMomentsError):
        polynomial_gram(mt, PolynomialSymbol([0.0, 1.0]), 30)


def test_gram_reads_moments_up_to_n_minus_1_plus_d(std0):
    # the largest index polynomial_gram reads is N - 1 + d
    sym = PolynomialSymbol([1.0, 0.5, 0.25])
    N = 40
    exact = MomentTable(std0.weight, std0.log_values[: N + 3], std0.rel_tol)
    G = polynomial_gram(exact, sym, N)
    np.testing.assert_array_equal(G.band, polynomial_gram(std0, sym, N).band)
    short = MomentTable(std0.weight, std0.log_values[: N + 2], std0.rel_tol)
    with pytest.raises(InsufficientMomentsError):
        polynomial_gram(short, sym, N)


def test_oracle_zero_symbol():
    Gz, _ = dense_gram_oracle(RadialWeight.standard(0.0), PolynomialSymbol([0.0]), 6)
    assert np.abs(Gz).max() < 1e-14


def _grid_sum_oracle(w, symbol, N):
    """Reference: the oracle's rule summed point by point over the 3-d grid.

    The same trapezoid(theta) x Gauss-Legendre(r) grids, grid moments
    and coarse-grid drift as ``dense_gram_oracle``, with A and C built
    from (n_r, n_theta, N) arrays of phibar e_m and e_m and one matrix
    product each over all grid points.
    """
    d = symbol.degree
    n_theta = _smooth_at_least(2 * (N + 2 * d) + 7)
    n_theta_lo = _smooth_at_least(max(2 * (N + 2 * d) + 11, n_theta + 1))
    n_r = max(160, N + 2 * d + 40)

    def assemble(n_r, n_theta):
        x, wx = np.polynomial.legendre.leggauss(n_r)
        r = 0.5 * (x + 1.0)
        wr = 0.5 * wx * r * w.density(r)
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        phi = symbol(r[:, None] * np.exp(1j * theta[None, :]))
        dth = 2.0 * np.pi / n_theta
        mg = np.array([2.0 * np.pi * np.sum(wr * r ** (2 * m)) for m in range(N)])
        e = (r[:, None, None] ** np.arange(N)[None, None, :]) * np.exp(
            1j * np.outer(theta, np.arange(N))[None, :, :]
        ) / np.sqrt(mg)[None, None, :]
        pe = np.conj(phi)[:, :, None] * e
        wgt = np.repeat(wr * dth, n_theta)
        pe_flat = pe.reshape(-1, N)
        e_flat = e.reshape(-1, N)
        A = pe_flat.T @ (wgt[:, None] * pe_flat.conj())
        C = e_flat.conj().T @ (wgt[:, None] * pe_flat)
        G = A - C.T @ C.conj()
        return 0.5 * (G + G.conj().T)

    G = assemble(n_r, n_theta)
    G_lo = assemble(max(24, (2 * n_r) // 3), n_theta_lo)
    return G, G_lo


def _smooth_at_least(n):
    # the first 2^a 3^b 5^c at or above n
    return min(k for k in (2**a * 3**b * 5**c for a in range(12) for b in range(8)
                           for c in range(6)) if k >= n)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_oracle_theta_lengths_are_fast_and_exact(d):
    # both angular grids take 5-smooth lengths that clear the exactness
    # bound 2(N + 2d) + 1 and differ, at every section the oracle takes
    for N in range(1, 65):
        fine, coarse = hankel._theta_lengths(N, d)
        assert fine == _smooth_at_least(2 * (N + 2 * d) + 7)
        assert coarse == _smooth_at_least(max(2 * (N + 2 * d) + 11, fine + 1))
        assert fine != coarse
        for n in (fine, coarse):
            assert n >= 2 * (N + 2 * d) + 1
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            assert n == 1


def _bump_weight():
    return RadialWeight.custom(
        lambda r: (1.0 + 0.5 * np.asarray(r, float) ** 2) * (1.0 - np.asarray(r, float) ** 2),
        integrable_certified=True,
    )


@pytest.mark.parametrize("weight, coeffs, N", [
    (lambda: RadialWeight.standard(0.0), [1.0, 1.0], 30),
    (lambda: RadialWeight.standard(0.0), [1.0 + 2.0j, 0.5 - 0.3j, 0.25j], 24),
    (lambda: RadialWeight.explog(1.0, 1.0), [1.0, 1.0], 24),
    (lambda: RadialWeight.standard(2.5), [0.0, 1.0], 20),
    (_bump_weight, [1.0, 0.4j], 16),
    (lambda: RadialWeight.standard(0.0), [1.0, 0.5, 0.25], 1),
    (lambda: RadialWeight.standard(0.0), [1.0 + 2.0j, 0.5 - 0.3j, 0.25j], 64),
])
def test_oracle_matches_grid_sum_reference(weight, coeffs, N):
    # the DFT-ordered oracle is the same rule as the point-by-point sum,
    # on the fine grid and (through err) on the coarse one
    w, phi = weight(), PolynomialSymbol(coeffs)
    G, err = dense_gram_oracle(w, phi, N)
    G_ref, G_lo_ref = _grid_sum_oracle(w, phi, N)
    assert G.shape == (N, N)
    assert np.abs(G - G_ref).max() < 1e-13
    assert abs(err - np.abs(G_ref - G_lo_ref).max()) < 1e-13


@pytest.mark.parametrize("weight, N", [
    (lambda: RadialWeight.standard(0.0), 30),
    (lambda: RadialWeight.explog(1.0, 1.0), 24),
])
def test_oracle_node_cache_changes_nothing(weight, N):
    # the Gauss-Legendre nodes are computed once per size and shared:
    # a second call returns the same bits, and the shared arrays are
    # read-only, so no caller can alter a later call's grid
    w, phi = weight(), PolynomialSymbol([1.0, 1.0])
    G1, err1 = dense_gram_oracle(w, phi, N)
    G2, err2 = dense_gram_oracle(w, phi, N)
    assert np.array_equal(G1, G2) and err1 == err2
    n_r = max(160, N + 2 * phi.degree + 40)
    for n in (n_r, max(24, (2 * n_r) // 3)):
        x, wx = hankel._legendre_nodes(n)
        assert not x.flags.writeable and not wx.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        x_ref, wx_ref = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(x, x_ref) and np.array_equal(wx, wx_ref)
    G_ref, G_lo_ref = _grid_sum_oracle(w, phi, N)
    assert np.abs(G2 - G_ref).max() < 1e-13
    assert abs(err2 - np.abs(G_ref - G_lo_ref).max()) < 1e-13


@pytest.mark.parametrize("N", [0, 65])
def test_oracle_refuses_sections_outside_its_range(N):
    with pytest.raises(WeightDomainError):
        dense_gram_oracle(RadialWeight.standard(0.0), PolynomialSymbol([1.0]), N)


@pytest.mark.parametrize("fixture, weight", [
    ("std0", lambda: RadialWeight.standard(0.0)),
    ("std25", lambda: RadialWeight.standard(2.5)),
    ("explog11", lambda: RadialWeight.explog(1.0, 1.0)),
])
def test_gram_against_oracle_at_its_cap(request, fixture, weight):
    # N = 64 is the widest band any independent check reads
    phi = PolynomialSymbol([1.0, 0.5, 0.25])
    G = polynomial_gram(request.getfixturevalue(fixture), phi, 64).to_dense()
    Go, err = dense_gram_oracle(weight(), phi, 64)
    assert np.abs(G - Go).max() < max(1e-10, 5 * err)


_SIZED = {  # each call's size parameter, and the call as an array
    "polynomial_gram": ("N", lambda mt, n: polynomial_gram(mt, PolynomialSymbol([1.0, 0.5]), n).to_dense()),
    "compute_moments": ("n_max", lambda mt, n: compute_moments(RadialWeight.standard(0.0), n).values),
    "hz_squared_sequence": ("n_max", lambda mt, n: hz_squared_sequence(mt, n)),
    "dense_gram_oracle": ("N", lambda mt, n: dense_gram_oracle(RadialWeight.standard(0.0), PolynomialSymbol([1.0, 0.5]), n)[0]),
}


@pytest.mark.parametrize("size", [2.5, True, np.nan])
@pytest.mark.parametrize("fn", sorted(_SIZED))
def test_a_size_that_is_not_an_integer_is_refused(std0, fn, size):
    # 2.5 built a size-2 section and True a size-1 one; 10.7 moments gave
    # n_max 10, 3.9 squared values gave 4 and a 3.5 oracle a 3x3 matrix
    name, call = _SIZED[fn]
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {name}="):
        call(std0, size)


@pytest.mark.parametrize("fn", sorted(_SIZED))
def test_a_numpy_integer_size_is_a_size(std0, fn):
    _, call = _SIZED[fn]
    np.testing.assert_array_equal(call(std0, np.int64(3)), call(std0, 3))

import ctypes
import multiprocessing
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bhl import spectrum
from bhl.errors import (
    DoublingTestError,
    EigenResidualError,
    InsufficientMomentsError,
    WindowError,
)
from bhl.hankel import PolynomialSymbol, polynomial_gram
from bhl.spectrum import (
    SingularSpectrum,
    counting,
    psi_functionals,
    schatten_norm,
    singular_values,
    symmetric_eigenvalues,
)
from bhl.weights import RadialWeight, compute_moments


def fake_gram(band):
    """Synthetic banded section: enough attribute surface for the solver."""
    g = types.SimpleNamespace(band=np.asarray(band, dtype=float))
    g.size = g.band.shape[1]
    g.bandwidth = g.band.shape[0] - 1
    g.symbol = None
    g.mt = types.SimpleNamespace(weight=None, rel_tol=0.0)
    return g


def test_eigenvalues_diagonal_section():
    lam = symmetric_eigenvalues(fake_gram([[4.0, 1.0, 9.0]]))
    np.testing.assert_allclose(lam, [9.0, 4.0, 1.0])


def test_eigenvalues_two_by_two():
    lam = symmetric_eigenvalues(fake_gram([[0.0, 1.0], [2.0, 2.0]]))
    np.testing.assert_allclose(lam, [3.0, 1.0], atol=1e-14)


def test_exact_eigenvalues_certify_without_singular_shift():
    # eigenvalues 3 and 1 are computed exactly, so the shift must be nudged
    lam = symmetric_eigenvalues(fake_gram([[0.0, 1.0], [2.0, 2.0]]))
    assert lam.residual <= 1e-14 and lam.bandwidth == 1
    lam = symmetric_eigenvalues(fake_gram([[0.0, 0.0, 1.0], [5.0, 5.0, 5.0]]))
    np.testing.assert_allclose(lam, [6.0, 5.0, 4.0], atol=1e-14)


def test_residual_is_taken_at_the_returned_eigenvalues(std0, monkeypatch):
    G = polynomial_gram(std0, PolynomialSymbol([1.0, 0.5, 0.25]), 200)
    assert G.bandwidth == 2
    symmetric_eigenvalues(G)
    band_eigvalsh = spectrum._band_eigvalsh

    def shifted(band):
        out = band_eigvalsh(band)
        return out + 1e-7 * np.max(np.abs(out))

    monkeypatch.setattr(spectrum, "_band_eigvalsh", shifted)
    with pytest.raises(EigenResidualError):
        symmetric_eigenvalues(G)


def test_zero_bands_are_dropped(std0, monkeypatch):
    G = polynomial_gram(std0, PolynomialSymbol([0.0, 0.0, 1.0]), 300)
    assert G.bandwidth == 2

    def forbidden(*args, **kwargs):
        raise AssertionError("a diagonal section needs no LAPACK call")

    monkeypatch.setattr(spectrum, "_band_eigvalsh", forbidden)
    lam = symmetric_eigenvalues(G)
    assert lam.bandwidth == 0 and lam.residual == 0.0
    np.testing.assert_array_equal(lam, np.sort(G.diagonal())[::-1])


# real and complex symbols with 2 to 5 coefficients: bandwidths 1 to 4
_SEAM_SYMBOLS = (
    [1.0, 0.5], [1.0, 0.5, 0.25], [1.0, -0.3, 0.2, 0.1], [0.5, 0.3, -0.2, 0.1, 0.05],
    [1.0, 0.5j], [1.0 + 2.0j, 0.5 - 0.3j, 0.25j], [1.0, 0.3j, 0.0, 0.2],
    [0.5j, 0.3, -0.2 + 0.1j, 0.1, 0.05j],
)


@pytest.mark.parametrize("fixture", ["std0", "explog11"])
def test_band_eigvalsh_matches_eig_banded_bit_for_bit(request, fixture):
    mt = request.getfixturevalue(fixture)
    for coeffs in _SEAM_SYMBOLS:
        for N in (1, 2, 3, 5, 31, 200, 777):
            band = polynomial_gram(mt, PolynomialSymbol(coeffs), N).band
            ref = scipy.linalg.eig_banded(band, lower=False, eigvals_only=True)
            lam = spectrum._band_eigvalsh(band)
            assert lam.dtype == ref.dtype and np.array_equal(lam, ref), (coeffs, N)


def test_band_eigvalsh_leaves_its_band_alone_and_refuses_non_finite():
    band = np.array([[0.0, 1.0, -2.0], [4.0, 5.0, 6.0]])
    kept = band.copy()
    spectrum._band_eigvalsh(band)
    assert np.array_equal(band, kept)
    for bad in (np.nan, np.inf):
        band[1, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectrum._band_eigvalsh(band)
        with pytest.raises(ValueError, match="infs or NaNs"):
            symmetric_eigenvalues(fake_gram(band))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("off_diagonal", [0.0, 1e-3], ids=["diagonal", "banded"])
def test_non_finite_band_is_refused_on_both_paths(bad, off_diagonal):
    # with every off-diagonal exactly zero the section takes the diagonal
    # path, with no LAPACK call; both paths raise the same ValueError
    with pytest.raises(ValueError, match="infs or NaNs"):
        symmetric_eigenvalues(fake_gram([[0.0, off_diagonal, 0.0], [bad, 1.0, 2.0]]))


def test_lapack_failure_is_an_eigen_residual_error(monkeypatch):
    def failing(name):
        def call(*addresses):
            ctypes.c_int.from_address(addresses[-1]).value = 3  # info > 0

        return call

    monkeypatch.setattr(spectrum, "_lapack", failing)
    with pytest.raises(EigenResidualError, match="did not converge"):
        symmetric_eigenvalues(fake_gram([[0.0, 1.0], [2.0, 2.0]]))


def _singular_values_in_turn(G, eig_tol=1e-10, doubling_rel_tol=1e-6):
    """Reference: the doubling-tested spectrum with the sections solved in turn."""
    lam = symmetric_eigenvalues(G)
    scale = float(np.max(np.abs(lam)))
    assert lam[-1] >= -eig_tol * scale
    N = G.size
    lam2 = symmetric_eigenvalues(polynomial_gram(G.mt, G.symbol, 2 * N))
    bad = np.nonzero(lam > lam2[:N] + eig_tol * scale)[0]
    if bad.size:
        raise DoublingTestError("interlacing", index=int(bad[0]))
    s, s2 = np.sqrt(np.clip(lam, 0.0, None)), np.sqrt(np.clip(lam2, 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(s[: N // 2] / s2[: N // 2] - 1.0)
    bad = np.nonzero(~(rel <= doubling_rel_tol))[0]
    if bad.size:
        raise DoublingTestError("drift", index=int(bad[0]))
    source = {
        "weight": repr(G.mt.weight),
        "symbol": repr(G.symbol),
        "N": N,
        "eig_tol": eig_tol,
        "doubling_rel_tol": doubling_rel_tol,
        "moment_rel_tol": G.mt.rel_tol,
        "eig_residual": max(lam.residual, lam2.residual),
        "doubling_drift": float(np.max(rel, initial=0.0)),
        "bandwidth_used": lam.bandwidth,
    }
    return [float(v).hex() for v in s], source


@pytest.mark.parametrize("fixture", ["std0", "explog11"])
@pytest.mark.parametrize("coeffs, N", [
    ([1.0, 0.5], 400), ([1.0, 0.5, 0.25], 200), ([1.0 + 2.0j, 0.5 - 0.3j, 0.25j], 300),
    ([1.0, 0.3j, 0.0, 0.2], 400), ([1.0, 0.0, 0.3], 400), ([0.0, 0.0, 1.0], 100),
])
def test_singular_values_match_the_sections_solved_in_turn(request, fixture, coeffs, N):
    # the same bits and source as with no second thread; where the
    # doubling test fails, the same index
    G = polynomial_gram(request.getfixturevalue(fixture), PolynomialSymbol(coeffs), N)
    try:
        values, source = _singular_values_in_turn(G)
    except DoublingTestError as ref:
        with pytest.raises(DoublingTestError) as exc:
            singular_values(G)
        assert exc.value.index == ref.index
        return
    spec = singular_values(G)
    assert spec.converged is True
    assert [float(v).hex() for v in spec.values] == values
    assert spec.source == source


def _refuse_doubled(delay):
    def refuse(mt, sym, n):
        time.sleep(delay)
        raise RuntimeError("the size-2N section failed")

    return refuse


def _shift_sections_of(size):
    band_eigvalsh = spectrum._band_eigvalsh

    def shifted(band):
        out = band_eigvalsh(band)
        if band.shape[1] == size:
            return out + 1e-7 * np.max(np.abs(out))
        return out

    return shifted


@pytest.mark.parametrize("delay", [0.0, 0.05])
@pytest.mark.parametrize("case", ["non-finite", "indefinite", "certificate"])
def test_size_n_errors_win_over_size_2n_errors(std0, monkeypatch, case, delay):
    # whichever thread finishes first, the size-N error is raised, as
    # when the size-2N section was only reached after it
    if case == "non-finite":
        G = fake_gram([[0.0, 1.0, 1.0], [1.0, np.nan, 2.0]])
    elif case == "indefinite":
        G = fake_gram([[1.0, -1.0, 2.0]])
    else:
        G = polynomial_gram(std0, PolynomialSymbol([1.0, 0.5, 0.25]), 200)
        monkeypatch.setattr(spectrum, "_band_eigvalsh", _shift_sections_of(200))
    with pytest.raises(Exception) as alone:
        singular_values(G, check_doubling=False)
    monkeypatch.setattr("bhl.spectrum.polynomial_gram", _refuse_doubled(delay))
    with pytest.raises(type(alone.value)) as exc:
        singular_values(G)
    assert str(exc.value) == str(alone.value)


def test_size_2n_errors_are_raised_as_before(std0, monkeypatch):
    # a short moment table: the size-2N assembly fails
    mt = compute_moments(RadialWeight.standard(0.0), 60)
    G = polynomial_gram(mt, PolynomialSymbol([1.0, 0.5]), 40)
    with pytest.raises(InsufficientMomentsError) as ref:
        polynomial_gram(mt, G.symbol, 80)
    with pytest.raises(InsufficientMomentsError) as exc:
        singular_values(G)
    assert str(exc.value) == str(ref.value) and exc.value.required == ref.value.required
    # the size-2N certificate fails
    G = polynomial_gram(std0, PolynomialSymbol([1.0, 0.5, 0.25]), 150)
    monkeypatch.setattr(spectrum, "_band_eigvalsh", _shift_sections_of(300))
    with pytest.raises(EigenResidualError) as ref:
        symmetric_eigenvalues(polynomial_gram(std0, G.symbol, 300))
    with pytest.raises(EigenResidualError) as exc:
        singular_values(G)
    assert str(exc.value) == str(ref.value)
    # the size-2N band is not finite
    monkeypatch.setattr(
        "bhl.spectrum.polynomial_gram", lambda mt, sym, n: fake_gram([[0.0, 1.0, 1.0, 1.0], [np.inf, 2.0, 2.0, 2.0]])
    )
    with pytest.raises(ValueError, match="infs or NaNs"):
        singular_values(fake_gram([[0.0, 1.0], [2.0, 2.0]]))


def test_no_thread_outlives_a_call(std0, monkeypatch):
    before = threading.enumerate()
    G = polynomial_gram(std0, PolynomialSymbol([1.0, 0.5]), 200)
    short = polynomial_gram(compute_moments(RadialWeight.standard(0.0), 60),
                            PolynomialSymbol([1.0, 0.5]), 40)
    failing = (
        lambda: singular_values(fake_gram([[1.0, -1.0, 2.0]])),  # size N indefinite
        lambda: singular_values(short),  # size 2N needs more moments
        lambda: singular_values(G, doubling_rel_tol=1e-18),  # the doubling test fails
    )
    for k in range(20):
        if k % 4 == 3:
            singular_values(G)
        else:
            with pytest.raises(Exception):
                failing[k % 4]()
        assert threading.active_count() == len(before)
    assert threading.enumerate() == before


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
def test_doubling_rel_tol_is_checked_before_any_work(std0, tol, monkeypatch):
    # nan and -1.0 failed every drift, inf passed every drift
    G = polynomial_gram(std0, PolynomialSymbol([1.0, 0.5]), 40)
    solved = []
    monkeypatch.setattr(spectrum, "symmetric_eigenvalues", lambda G: solved.append(G))
    before = threading.active_count()
    with pytest.raises(ValueError, match="doubling_rel_tol"):
        singular_values(G, doubling_rel_tol=tol)
    assert solved == [] and threading.active_count() == before


def _spectrum_in_child(G, conn):
    try:
        conn.send([float(v).hex() for v in singular_values(G).values])
    except BaseException as exc:  # pragma: no cover - reported by the parent
        conn.send(repr(exc))
    finally:
        conn.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="fork is the Linux default")
def test_a_forked_child_gets_the_same_bits(std0):
    # no worker is left running in the parent, so a child forked after
    # a call can start its own doubling thread
    G = polynomial_gram(std0, PolynomialSymbol([1.0 + 2.0j, 0.5 - 0.3j, 0.25j]), 300)
    here = [float(v).hex() for v in singular_values(G).values]
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_spectrum_in_child, args=(G, send))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child gave no result within 60 s"
        got = recv.recv()
    finally:
        child.join(60)
        if child.is_alive():  # pragma: no cover - a hung child
            child.kill()
            child.join()
    assert got == here
    assert child.exitcode == 0


def test_eigenvalues_trace_identity():
    rng = np.random.default_rng(7)
    band = np.zeros((4, 50))
    band[3] = rng.uniform(1.0, 2.0, 50) * 40.0  # diagonally dominant, PSD-ish
    for off in (1, 2, 3):
        band[3 - off, off:] = rng.normal(size=50 - off)
    lam = symmetric_eigenvalues(fake_gram(band))
    assert abs(np.sum(lam) - np.sum(band[3])) < 1e-9 * np.sum(band[3])


def test_singular_values_reject_indefinite_section():
    with pytest.raises(EigenResidualError):
        singular_values(fake_gram([[1.0, -1.0, 2.0]]), check_doubling=False)


def test_spectrum_phi_z_alpha0(std0):
    # s_n = 1/sqrt((n+1)(n+2)), with the doubling test live
    G = polynomial_gram(std0, PolynomialSymbol([1.0]), 2000)
    spec = singular_values(G)
    assert spec.converged is True
    assert abs(spec.values[0] - np.sqrt(0.5)) < 1e-13
    n = np.arange(2000)
    cf = 1.0 / np.sqrt((n + 1.0) * (n + 2.0))
    np.testing.assert_allclose(spec.values, cf, rtol=1e-6)
    assert spec.source["N"] == 2000


def test_doubling_failure_reports_index(std0):
    G = polynomial_gram(std0, PolynomialSymbol([1.0, 1.0]), 24)
    with pytest.raises(DoublingTestError) as exc:
        singular_values(G, doubling_rel_tol=1e-18)
    assert exc.value.index is not None and exc.value.index >= 0
    spec = singular_values(G)  # honest tolerance passes
    assert spec.converged is True


@pytest.mark.parametrize("coeffs", [[0.0], [1e-200]])
def test_zero_section_passes_the_doubling_test(std0, coeffs):
    # H_phibar = 0 (and a band that underflows to exact zeros) gives
    # s_n = 0 on both sections; 0 == 0 drifts 0.0 instead of 0/0
    spec = singular_values(polynomial_gram(std0, PolynomialSymbol(coeffs), 10))
    assert np.array_equal(spec.values, np.zeros(10))
    assert spec.converged is True
    assert spec.source["doubling_drift"] == 0.0


def test_doubling_checks_interlacing(monkeypatch):
    # the first half agrees, but lambda_1 drops from 1.0 to 0.5 when the
    # section doubles, which no leading block of a Hermitian matrix allows
    G = fake_gram([[4.0, 1.0]])
    monkeypatch.setattr(
        "bhl.spectrum.polynomial_gram", lambda mt, sym, n: fake_gram([[4.0, 0.5, 0.1, 0.1]])
    )
    with pytest.raises(DoublingTestError) as exc:
        singular_values(G)
    assert exc.value.index == 1
    monkeypatch.setattr(
        "bhl.spectrum.polynomial_gram", lambda mt, sym, n: fake_gram([[4.0, 1.0, 0.1, 0.1]])
    )
    assert singular_values(G).converged is True


def test_singular_values_record_diagnostics(std0):
    G = polynomial_gram(std0, PolynomialSymbol([1.0, 0.5]), 200)
    spec = singular_values(G)
    src = spec.source
    assert src["bandwidth_used"] == 1
    assert 0.0 < src["eig_residual"] <= 1e-14
    assert 0.0 <= src["doubling_drift"] <= src["doubling_rel_tol"]
    src = singular_values(G, check_doubling=False).source
    assert src["doubling_drift"] is None and src["eig_residual"] <= 1e-14
    spec = singular_values(polynomial_gram(std0, PolynomialSymbol([0.0, 0.0, 1.0]), 200))
    assert spec.source["bandwidth_used"] == 0 and spec.source["eig_residual"] == 0.0


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SingularSpectrum([1.0, -0.5])
    with pytest.raises(ValueError):
        SingularSpectrum([1.0, 2.0])
    for bad in ([1.0, np.nan, 0.5], [np.inf, 1.0]):
        # nan passes both the sign and the order check
        with pytest.raises(ValueError, match="finite"):
            SingularSpectrum(bad)
    with pytest.raises(ValueError, match="finite"):
        SingularSpectrum.from_values([1.0, np.nan])
    spec = SingularSpectrum.from_values([0.3, 1.0, 0.7])
    np.testing.assert_allclose(spec.values, [1.0, 0.7, 0.3])
    assert spec.converged is None
    assert len(spec) == 3


def test_counting():
    spec = SingularSpectrum([3.0, 2.0, 1.0])
    assert counting(spec, 2.0) == 2
    assert counting(spec, 3.5) == 0
    assert counting(SingularSpectrum(1.0 / np.arange(1, 200.0)), 1.0 / 50.0) == 50
    with pytest.raises(ValueError):
        counting(spec, 0.0)


def test_psi_exact_on_inverse_sequence():
    # s_n = 1/n with psi(t) = t: every jump sample equals 1
    spec = SingularSpectrum(1.0 / np.arange(1, 200.0))
    D, d = psi_functionals(spec, 1.0, 1.0, (1e-3, 1.0))
    assert abs(D - 1.0) < 1e-12 and abs(d - 1.0) < 1e-12


def test_psi_matches_counting_loop_with_ties():
    v = np.array([2.0, 1.5, 1.5, 1.5, 1.0, 0.75, 0.75, 0.5, 0.25, 0.25, 0.0])
    spec = SingularSpectrum(v)
    for p, c, window in ((1.0, 1.0, (0.2, 2.0)), (0.7, 2.5, (0.5, 1.5)), (3.0, 0.3, (0.25, 0.75))):
        u = np.unique(v[(v >= window[0]) & (v <= window[1]) & (v > 0.0)])
        loop = [c * s**p * counting(spec, s) for s in u]
        assert psi_functionals(spec, p, c, window) == (max(loop), min(loop))


def test_psi_recovers_power_law_constant():
    g = 1.3
    spec = SingularSpectrum(g * np.arange(1, 5000.0) ** -0.75)
    D, d = psi_functionals(spec, 4.0 / 3.0, 1.0, (spec.values[-1], spec.values[0]))
    assert abs(D - g ** (4.0 / 3.0)) < 1e-10
    assert abs(d - g ** (4.0 / 3.0)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(min_value=1e-3, max_value=1e3))
def test_psi_homogeneity(lam):
    base = SingularSpectrum(1.0 / np.arange(1, 120.0))
    D, d = psi_functionals(base, 1.0, 1.0, (1e-2, 1.0))
    D2, d2 = psi_functionals(
        SingularSpectrum(lam / np.arange(1, 120.0)), 1.0, 1.0, (lam * 1e-2, lam * 1.0)
    )
    assert abs(D2 - lam * D) < 1e-9 * lam
    assert abs(d2 - lam * d) < 1e-9 * lam


def test_psi_window_errors():
    spec = SingularSpectrum([1.0, 0.5])
    with pytest.raises(WindowError):
        psi_functionals(spec, 1.0, 1.0, (0.5, 0.1))  # reversed
    with pytest.raises(WindowError):
        psi_functionals(spec, 1.0, 1.0, (1e-6, 1e-5))  # empty
    with pytest.raises(ValueError):
        psi_functionals(spec, -1.0, 1.0, (0.1, 1.0))
    # c <= 0 gave (-0.75, -1.0), c = nan (nan, nan) and p = inf (1.0, 0.0)
    spec = SingularSpectrum([1.0, 0.5, 0.25])
    for p, c, name in ((np.inf, 1.0, "p"), (np.nan, 1.0, "p"), (1.0, -1.0, "c"),
                       (1.0, 0.0, "c"), (1.0, np.nan, "c"), (1.0, np.inf, "c")):
        with pytest.raises(ValueError, match=f"{name}="):
            psi_functionals(spec, p, c, (0.2, 1.0))


def test_schatten_trace_identity(std0):
    # p=2: sum of s_n^2 equals the Gram trace, a pure moment ratio
    G = polynomial_gram(std0, PolynomialSymbol([1.0]), 2000)
    spec = singular_values(G, check_doubling=False)
    tr = np.exp(std0.log_values[2000] - std0.log_values[1999])
    assert abs(schatten_norm(spec, 2.0) ** 2 - tr) < 1e-10


def test_schatten_small_cases():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # a one-term spectrum is all tail, so the lower-bound warning fires
        assert schatten_norm(SingularSpectrum([3.0]), 7.0) == 3.0
        h = SingularSpectrum(1.0 / np.arange(1, 101.0))
        assert abs(schatten_norm(h, 1.0) - np.sum(1.0 / np.arange(1, 101.0))) < 1e-12
    # the terms are scaled by s_0: at p = 1e6 the norm is s_0, not an
    # underflowed 0; p = inf is a sup, not a sum
    assert schatten_norm(SingularSpectrum([0.5, 0.25, 0.1]), 1e6) == 0.5
    with pytest.raises(ValueError):
        schatten_norm(h, 0.0)
    with pytest.raises(ValueError, match="p=inf"):
        schatten_norm(h, np.inf)


def test_schatten_tail_warning():
    spec = SingularSpectrum(1.0 / np.arange(1, 50.0))
    with pytest.warns(RuntimeWarning):
        schatten_norm(spec, 2.0)


def test_schatten_monotone_in_p(std0):
    G = polynomial_gram(std0, PolynomialSymbol([1.0]), 500)
    spec = singular_values(G, check_doubling=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        vals = [schatten_norm(spec, p) for p in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))

import types
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bhl.errors import DoublingTestError, EigenResidualError, WindowError
from bhl.hankel import PolynomialSymbol, polynomial_gram
from bhl.spectrum import (
    SingularSpectrum,
    counting,
    psi_functionals,
    schatten_norm,
    singular_values,
    symmetric_eigenvalues,
)


def fake_gram(band):
    """Synthetic banded section: enough attribute surface for the solver."""
    g = types.SimpleNamespace(band=np.asarray(band, dtype=float))
    g.is_real = True
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
    eig_banded = scipy.linalg.eig_banded

    def shifted(*args, **kwargs):
        out = eig_banded(*args, **kwargs)
        if kwargs.get("eigvals_only"):
            return out + 1e-7 * np.max(np.abs(out))
        return out

    monkeypatch.setattr(scipy.linalg, "eig_banded", shifted)
    with pytest.raises(EigenResidualError):
        symmetric_eigenvalues(G)


def test_zero_bands_are_dropped(std0, monkeypatch):
    G = polynomial_gram(std0, PolynomialSymbol([0.0, 0.0, 1.0]), 300)
    assert G.bandwidth == 2

    def forbidden(*args, **kwargs):
        raise AssertionError("a diagonal section needs no LAPACK call")

    monkeypatch.setattr(scipy.linalg, "eig_banded", forbidden)
    lam = symmetric_eigenvalues(G)
    assert lam.bandwidth == 0 and lam.residual == 0.0
    np.testing.assert_array_equal(lam, np.sort(G.diagonal())[::-1])


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
    with pytest.raises(ValueError):
        schatten_norm(h, 0.0)


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

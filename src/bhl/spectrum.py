"""Eigenvalues, singular values, counting functions, and Schatten sums.

Singular values come from s_n^2 = lambda_n(H_phibar* H_phibar), so the
spectral work happens on the banded Gram sections.  Truncation is
policed by a doubling test: a spectrum is accepted only when the first
N/2 singular values of the size-N section agree with the size-2N
section to a relative tolerance, since no finite-section convergence
rate is available a priori.  The size-N section is the leading block
of the size-2N one, so every eigenvalue must also interlace.
"""

from __future__ import annotations

import functools
import threading
import warnings

import numpy as np

from .errors import DoublingTestError, EigenResidualError, WindowError
from .hankel import polynomial_gram

# the eigen certificate: every certified eigenpair has
# ||G v - lambda v|| <= _EIG_TOL * ||G||, and the PSD and interlacing
# checks allow the same slack
_EIG_TOL = 1e-10


class SingularSpectrum:
    """Nonincreasing, nonnegative singular values with provenance.

    ``converged`` is True when the doubling test ran and passed, None
    when it was skipped (synthetic spectra, direct construction).
    """

    def __init__(self, values, source=None, converged=None):
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("singular values must be finite")
        if np.any(values < 0.0):
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(values) > 0.0):
            raise ValueError("singular values must be nonincreasing")
        self.values = values
        self.source = dict(source) if source else {}
        self.converged = converged

    @classmethod
    def from_values(cls, values, source=None):
        """Sort the given nonnegative values descending and wrap them."""
        v = np.sort(np.asarray(values, dtype=float))[::-1]
        return cls(v, source=source, converged=None)

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        head = ", ".join(f"{v:.4g}" for v in self.values[:4])
        return f"SingularSpectrum([{head}, ...], M={len(self)}, converged={self.converged})"


class Eigenvalues(np.ndarray):
    """Descending eigenvalues of a banded section with their certificate.

    ``residual`` is the worst sampled ||G v - lambda v|| / ||G||, and
    ``bandwidth`` the bandwidth left once all-zero bands are dropped.
    Arrays derived from it (slices, ufunc results) carry None.
    """

    residual = None
    bandwidth = None

    def __new__(cls, values, residual, bandwidth):
        obj = np.asarray(values, dtype=float).view(cls)
        obj.residual = float(residual)
        obj.bandwidth = int(bandwidth)
        return obj


def _band_matvec(band, v):
    b = band.shape[0] - 1
    y = band[b] * v
    for off in range(1, b + 1):
        y[: len(v) - off] += band[b - off, off:] * v[off:]
        y[off:] += np.conj(band[b - off, off:]) * v[: len(v) - off]
    return y


def _general_band(band):
    # LAPACK gbtrf storage of the full Hermitian band: b spare rows for
    # the LU fill-in, the upper band and diagonal, then the lower band.
    b, N = band.shape[0] - 1, band.shape[1]
    ab = np.zeros((3 * b + 1, N), dtype=band.dtype)
    ab[b : 2 * b + 1] = band
    for off in range(1, b + 1):
        ab[2 * b + off, : N - off] = np.conj(band[b - off, off:])
    return ab


@functools.lru_cache(maxsize=None)
def _lapack(name):
    """LAPACK routine ``name`` of scipy's Cython table as a ctypes function.

    Every argument is passed as an address.  A CFUNCTYPE call releases
    the GIL, which scipy's own wrappers of ?sbevd and ?hbevd hold.
    """
    import ctypes

    from scipy.linalg import cython_lapack

    cap = cython_lapack.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    nargs = {"dsbevd": 14, "zhbevd": 16}[name]
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * nargs)(get_pointer(cap, get_name(cap)))


_JOBZ_UPLO = np.frombuffer(b"NU", dtype=np.uint8)  # eigenvalues only, upper band


def _band_eigvalsh(band):
    """Ascending eigenvalues of a Hermitian band in LAPACK upper storage.

    The same routine as ``scipy.linalg.eig_banded(band, lower=False,
    eigvals_only=True)``, ?sbevd (real) or ?hbevd (complex) with jobz =
    "N" and the minimal workspaces of scipy's wrapper, so the values are
    the same bits; but the call runs without the GIL, so another thread
    can run Python or LAPACK meanwhile.
    """
    # refused as eig_banded refuses it: ?sbevd reports an inf or nan as no
    # convergence (info > 0), which would read as an EigenResidualError
    if not np.all(np.isfinite(band)):
        raise ValueError("array must not contain infs or NaNs")
    cplx = np.iscomplexobj(band)
    ab = np.array(band, dtype=complex if cplx else float, order="F")  # LAPACK overwrites it
    kd, n = ab.shape[0] - 1, ab.shape[1]
    w = np.empty(n)
    z = np.zeros(1, dtype=ab.dtype)  # not referenced for jobz = "N"
    iwork = np.zeros(1, dtype=np.intc)
    # n, kd, ldab, ldz, lwork, lrwork, liwork, info
    ints = np.array([n, kd, kd + 1, 1, max(1, n if cplx else 2 * n), max(1, n), 1, 0],
                    dtype=np.intc)
    at = [ints.ctypes.data + k * ints.itemsize for k in range(len(ints))]
    work = np.empty(ints[4], dtype=ab.dtype)
    head = (_JOBZ_UPLO.ctypes.data, _JOBZ_UPLO.ctypes.data + 1, at[0], at[1],
            ab.ctypes.data, at[2], w.ctypes.data, z.ctypes.data, at[3], work.ctypes.data, at[4])
    if cplx:
        rwork = np.empty(ints[5])
        _lapack("zhbevd")(*head, rwork.ctypes.data, at[5], iwork.ctypes.data, at[6], at[7])
    else:
        _lapack("dsbevd")(*head, iwork.ctypes.data, at[6], at[7])
    info = int(ints[7])
    if info > 0:
        raise EigenResidualError(f"banded eigensolver did not converge: info = {info}")
    if info < 0:  # pragma: no cover - a wrong argument is a bug here
        raise ValueError(f"illegal value in argument {-info} of ?sbevd/?hbevd")
    return w


def symmetric_eigenvalues(G):
    """All eigenvalues of a Hermitian BandedGram, sorted descending.

    A band with an inf or nan raises ValueError, on either path below.
    Bands that are exactly zero are dropped first, so sections such as
    those of the monomials z^k take the diagonal path with no LAPACK
    call.  Otherwise the eigenvalues come from banded tridiagonalization
    and a root-free QL/QR iteration, LAPACK ?sbevd (real bands) or
    ?hbevd (complex) without eigenvectors, called with the GIL released
    (``_band_eigvalsh``).  Five of them, spread over the sorted order,
    are certified by banded inverse iteration: G - sigma I is factored
    once at sigma = lambda plus a few ulps of ||G||, three solves from a
    fixed-seed start give v, and ||G v - lambda v|| <= _EIG_TOL * ||G||
    must hold for the returned lambda.  For Hermitian G that places a
    true eigenvalue within the residual of it, so neither a LAPACK
    breakdown nor a wrong eigenvalue can pass unnoticed.

    Returns an ``Eigenvalues`` array carrying the worst relative
    residual and the bandwidth used.
    """
    band = G.band
    if not np.all(np.isfinite(band)):
        raise ValueError("array must not contain infs or NaNs")
    while len(band) > 1 and not np.any(band[0]):
        band = band[1:]  # the outermost band is exactly zero
    b = len(band) - 1
    if b == 0:
        return Eigenvalues(np.sort(band[0].real)[::-1], 0.0, 0)
    # imported here so that importing bhl loads no scipy
    import scipy.linalg

    lam = _band_eigvalsh(band)[::-1]
    scale = float(np.max(np.abs(lam))) if len(lam) else 0.0
    worst = 0.0
    if scale > 0.0:
        N = len(lam)
        gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (band,))
        ab = _general_band(band)
        start = np.random.default_rng(0).standard_normal(N).astype(band.dtype)
        nudge = 8.0 * np.spacing(scale)  # keeps an exactly computed lambda off a singular shift
        for i in sorted({0, N // 4, N // 2, (3 * N) // 4, N - 1}):
            ab[2 * b] = band[b] - (lam[i] + nudge)
            lu, piv, _ = gbtrf(ab, b, b)
            v = start
            for _ in range(3):
                v, _ = gbtrs(lu, b, b, v, piv)
                v = v / np.linalg.norm(v)
            res = float(np.linalg.norm(_band_matvec(band, v) - lam[i] * v))
            if not res <= _EIG_TOL * scale:
                raise EigenResidualError(
                    f"eigenpair residual {res:.3e} exceeds {_EIG_TOL:.1e} * ||G|| "
                    f"at sorted index {i} (lambda = {lam[i]:.6e})"
                )
            worst = max(worst, res / scale)
    return Eigenvalues(lam, worst, b)


def _doubled_eigenvalues(G, out):
    """Thread body: eigenvalues of the size-2N section, or the error it
    raised, which the calling thread re-raises."""
    try:
        out["lam"] = symmetric_eigenvalues(polynomial_gram(G.mt, G.symbol, 2 * G.size))
    except BaseException as exc:
        out["error"] = exc


def singular_values(G, doubling_rel_tol=1e-6, check_doubling=True):
    """s_n = sqrt(lambda_n(G)) descending, doubling-tested by default.

    The size-2N section is assembled from the same moment table and
    symbol.  G_N is its leading block, so Cauchy interlacing
    lambda_k(G_N) <= lambda_k(G_2N) must hold within _EIG_TOL * ||G_N||
    for every k < N, and the first N/2 singular values must match
    within doubling_rel_tol, 0 < doubling_rel_tol < inf (a ValueError
    otherwise, before any work); DoublingTestError reports the first
    offender of either.  G_N must be PSD within the same
    _EIG_TOL * ||G_N||.  ``source`` records the certificate's _EIG_TOL,
    the worst eigen-residual, the largest doubling drift and the
    bandwidth used.

    The size-2N section is assembled and solved on a second thread,
    started and joined within the call, while this one solves and
    certifies G_N.  Both LAPACK eigensolves run without the GIL, so on
    two cores they overlap; on one core the threads take turns and the
    call costs what the two sections cost in turn, plus one thread
    start.  The values are the same bits either way.  An error of the
    size-N section wins over one of the size-2N section, as if the two
    ran in turn; ``check_doubling=False`` starts no thread.
    """
    if not 0.0 < doubling_rel_tol < np.inf:  # before the 2N thread starts
        raise ValueError(
            f"singular_values needs 0 < doubling_rel_tol < inf, got {doubling_rel_tol}"
        )
    doubled = {}
    worker = None
    if check_doubling:
        worker = threading.Thread(target=_doubled_eigenvalues, args=(G, doubled), daemon=True)
        worker.start()
    try:
        lam = symmetric_eigenvalues(G)
        scale = float(np.max(np.abs(lam))) if len(lam) else 0.0
        if len(lam) and lam[-1] < -_EIG_TOL * scale:
            raise EigenResidualError(
                f"Gram section is not PSD within tolerance: min eigenvalue "
                f"{lam[-1]:.3e} vs -{_EIG_TOL:.1e} * {scale:.3e}"
            )
    finally:
        if worker is not None:
            worker.join()
    s = np.sqrt(np.clip(lam, 0.0, None))

    converged = None
    residual = lam.residual
    drift = None
    if check_doubling:
        if "error" in doubled:
            raise doubled.pop("error")
        N = G.size
        lam2 = doubled["lam"]
        bad = np.nonzero(lam > lam2[:N] + _EIG_TOL * scale)[0]
        if bad.size:
            k = int(bad[0])
            raise DoublingTestError(
                f"eigenvalue {k} of section N={N} exceeds that of 2N={2 * N} "
                f"by {lam[k] - lam2[k]:.3e} > {_EIG_TOL:.1e} * {scale:.3e}, "
                f"breaking Cauchy interlacing",
                index=k,
            )
        s2 = np.sqrt(np.clip(lam2, 0.0, None))
        half = N // 2
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 == 0 drifts 0.0
            rel = np.where(s[:half] == s2[:half], 0.0, np.abs(s[:half] / s2[:half] - 1.0))
        bad = np.nonzero(~(rel <= doubling_rel_tol))[0]
        if bad.size:
            i = int(bad[0])
            raise DoublingTestError(
                f"singular value {i} moved by rel {rel[i]:.3e} between "
                f"sections N={N} and 2N={2 * N} (tol {doubling_rel_tol:.1e})",
                index=i,
            )
        residual = max(residual, lam2.residual)
        drift = float(np.max(rel, initial=0.0))
        converged = True

    source = {
        "weight": repr(G.mt.weight),
        "symbol": repr(G.symbol),
        "N": G.size,
        "eig_tol": _EIG_TOL,
        "doubling_rel_tol": doubling_rel_tol if check_doubling else None,
        "moment_rel_tol": G.mt.rel_tol,
        "eig_residual": residual,
        "doubling_drift": drift,
        "bandwidth_used": lam.bandwidth,
    }
    return SingularSpectrum(s, source=source, converged=converged)


def counting(spec, s):
    """n(s) = #{n : s_n >= s}."""
    if not s > 0.0:
        raise ValueError(f"counting needs s > 0, got {s}")
    return int(np.sum(spec.values >= s))


def psi_functionals(spec, p, c, window):
    """Window statistics of psi(s) * n(s) for psi(t) = c * t^p, 0 < p, c < inf.

    n(s) is piecewise constant with jumps exactly at the s_n, and psi is
    increasing, so sampling psi(s_n) * n(s_n) at the jump points inside
    [s_lo, s_hi] captures the extrema.  Returns (D_hat, d_hat) =
    (max, min) over those samples; these are window statistics standing
    in for the s -> 0+ limsup/liminf, never limit claims.
    """
    if not 0.0 < p < np.inf:
        raise ValueError(f"psi needs 0 < p < inf, got p={p}")
    if not 0.0 < c < np.inf:
        raise ValueError(f"psi needs 0 < c < inf, got c={c}")
    s_lo, s_hi = window
    if not (0.0 < s_lo < s_hi):
        raise WindowError(f"window must satisfy 0 < s_lo < s_hi, got {window}")
    v = spec.values
    inside = v[(v >= s_lo) & (v <= s_hi) & (v > 0.0)]
    if inside.size == 0:
        raise WindowError(
            f"no singular values inside window [{s_lo}, {s_hi}]"
        )
    u = np.unique(inside)
    n = len(v) - np.searchsorted(v[::-1], u, side="left")  # n(s) = #{s_n >= s}
    samples = c * u**p * n
    return float(np.max(samples)), float(np.min(samples))


def schatten_norm(spec, p):
    """(sum s_n^p)^(1/p) over the computed range, 0 < p < inf.

    The terms are scaled by s_0, so large p does not underflow.  Issues
    a RuntimeWarning when the last computed term still carries more
    than 1e-6 of the sum: the truncated tail is then likely to matter
    and the value is a lower bound, not an approximation.
    """
    if not 0.0 < p < np.inf:
        raise ValueError(f"Schatten index must satisfy 0 < p < inf, got p={p}")
    s0 = float(spec.values[0]) if len(spec) else 0.0
    if s0 == 0.0:
        return 0.0
    terms = (spec.values / s0) ** p
    total = float(np.sum(terms))
    if terms[-1] > 1e-6 * total:
        warnings.warn(
            f"Schatten p={p} tail not negligible: last term is "
            f"{terms[-1] / total:.2e} of the sum; treat as a lower bound",
            RuntimeWarning,
            stacklevel=2,
        )
    return s0 * total ** (1.0 / p)

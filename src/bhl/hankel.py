"""Exact finite sections of H_phibar* H_phibar for polynomial symbols.

In the normalized monomial basis e_m = z^m / sqrt(m[m]) the Gram matrix
of a radial weight is banded with bandwidth d-1 (d the symbol degree),
and every entry is a finite combination of moment ratios:

    G[m][n] = sum_{j,k in [1,d], m+k = n+j} conj(c_j) c_k
              * ( m[m+k] - [m >= j] m[m] m[n] / m[m-j] ) / sqrt(m[m] m[n]).

Entries are differences of ratios that approach each other as m grows,
so everything is evaluated through log-moment differences and expm1;
naive subtraction loses all digits by m ~ 1e3 for ExpLog weights.

A two-dimensional polar quadrature oracle provides the independent
verification path: it never touches the entry formula, building
G = A - C^T conj(C) from inner products against the grid's own normalization.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import LogConvexityError, WeightDomainError


def horner(coeffs, z):
    """sum_k coeffs[k] z^k (constant first) by Horner's rule, in place.

    Starts from the leading coefficient and takes one multiply and one
    add per further coefficient on a single buffer, the arithmetic of
    np.polyval(coeffs[::-1], z) and its bits (np.polyval starts from
    0 * z, which adds only a zero's sign for finite z) without its two
    temporaries per step.  A scalar z goes to np.polyval itself: numpy
    rounds a complex product of scalars differently from its array loop.
    """
    z = np.asarray(z)
    if z.ndim == 0:
        return np.polyval(coeffs[::-1], z)
    y = np.full(z.shape, coeffs[-1], dtype=np.result_type(coeffs, z))
    for c in coeffs[-2::-1]:
        y *= z
        y += c
    return y


class PolynomialSymbol:
    """phi(z) = sum_{k=1}^d c_k z^k; no constant term.

    Hankel operators annihilate constants, so the constant coefficient
    is excluded by construction rather than silently ignored.
    """

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs))
        if c.ndim != 1 or len(c) == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence c[1..d]")
        if not np.all(np.isfinite(c)):
            raise ValueError(f"coeffs must be finite, got {c}")
        self.is_real = not np.iscomplexobj(c) or np.all(c.imag == 0.0)
        self.coeffs = c.real.astype(float) if self.is_real else c.astype(complex)

    @property
    def degree(self):
        return len(self.coeffs)

    def __call__(self, z):
        z = np.asarray(z)
        return z * horner(self.coeffs, z)

    def derivative_coeffs(self):
        """Coefficients of phi' as a plain polynomial, constant first."""
        return self.coeffs * np.arange(1, self.degree + 1)

    def __repr__(self):
        return f"PolynomialSymbol({[complex(c) if np.iscomplexobj(self.coeffs) else float(c) for c in self.coeffs]})"


class BandedGram:
    """Hermitian banded finite section of H_phibar* H_phibar.

    ``band`` uses upper diagonal-ordered storage: band[b - (n - m), n]
    holds G[m][n] for 0 <= n - m <= b, matching scipy.linalg.eig_banded.
    """

    def __init__(self, band, symbol, mt):
        self.band = band
        self.symbol = symbol
        self.mt = mt

    @property
    def size(self):
        return self.band.shape[1]

    @property
    def bandwidth(self):
        return self.band.shape[0] - 1

    def diagonal(self):
        return self.band[-1].real.copy()

    def to_dense(self):
        N, b = self.size, self.bandwidth
        G = np.zeros((N, N), dtype=self.band.dtype)
        for off in range(b + 1):
            idx = np.arange(off, N)
            G[idx - off, idx] = self.band[b - off, off:]
            if off:
                G[idx, idx - off] = np.conj(self.band[b - off, off:])
        return G

    def __repr__(self):
        return f"BandedGram(size={self.size}, bandwidth={self.bandwidth})"


def _log_ratios(mt, k, n):
    # log(m[b+k] / m[b]) for b < n, by ratio where both values are in
    # normal range (one rounding each) and by log differences in the deep tail.
    vi, vj = mt.values[k : k + n], mt.values[:n]
    safe = (vi > 1e-280) & (vj > 1e-280)
    ratio = np.where(safe, vi, 1.0) / np.where(safe, vj, 1.0)
    return np.where(safe, np.log(ratio), mt.log_values[k : k + n] - mt.log_values[:n])


def hz_squared_sequence(mt, n_max):
    """m_w(n)^2 for n = 0..n_max: the squared singular values of H_zbar.

    m_w(n)^2 = m[n+1]/m[n] - m[n]/m[n-1] for n >= 1 and m[1]/m[0] at
    n = 0: the diagonal of the phi = z Gram section on e_0..e_{n_max}.
    """
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)):
        raise ValueError(f"n_max must be an integer, got n_max={n_max!r}")
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    out = polynomial_gram(mt, PolynomialSymbol([1.0]), n_max + 1).diagonal()
    bad = np.nonzero(out < -1e-13)[0]
    if bad.size:
        raise LogConvexityError(
            f"m_w(n)^2 negative at n={int(bad[0])} ({out[bad[0]]:.3e}); "
            "the moment table is not accurate enough for ratio differences"
        )
    return out


def polynomial_gram(mt, symbol, N):
    """Exact banded finite section G[0..N-1][0..N-1] for a polynomial symbol.

    Every entry term reads the one table T[k] = log(m[b+k] / m[b]),
    k = 1..d and b < N, as slices; each band offset is one vector pass
    over its rows per j, with a fixed summation order, so output is
    deterministic.
    """
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
        raise ValueError(f"N must be an integer, got N={N!r}")
    N = int(N)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    d = symbol.degree
    mt.require(N - 1 + d)  # the largest index read is b + k <= N - 1 + d
    c = symbol.coeffs
    dtype = float if symbol.is_real else complex
    band = np.zeros((d, N), dtype=dtype)
    T = {k: _log_ratios(mt, k, N) for k in range(1, d + 1)}

    for off in range(min(d, N)):
        acc = np.zeros(N - off, dtype=dtype)
        for j in range(1, d - off + 1):
            w = np.conj(c[j - 1]) * c[j + off - 1]
            if w == 0.0:
                continue
            # rows m < N - off: A = log( m[m+j+off] / sqrt(m[m] m[m+off]) ),
            # B its projection counterpart log( sqrt(m[m] m[m+off]) / m[m-j] )
            A = 0.5 * (T[j + off][: N - off] + T[j][off:])
            term = np.exp(A)
            if N - off > j:
                B = 0.5 * (T[j][: N - off - j] + T[j + off][: N - off - j])
                term[j:] = np.exp(B) * np.expm1(A[j:] - B)
            acc += w * term
        band[d - 1 - off, off:] = acc

    return BandedGram(band, symbol, mt)


@functools.lru_cache(maxsize=8)
def _legendre_nodes(n):
    """Gauss-Legendre nodes and weights on [-1, 1], shared and read-only."""
    x, wx = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    wx.flags.writeable = False
    return x, wx


def _five_smooth(n):
    """The smallest integer >= n with no prime factor above 5: a fast FFT length."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _theta_lengths(N, d):
    """Angular node counts of the oracle's fine and coarse grids.

    5-smooth lengths at or above 2(N + 2d) + 7 and 2(N + 2d) + 11, the
    coarse one above the fine one where the two would meet: both clear
    the exactness bound 2(N + 2d) + 1 and differ, so the coarse grid
    still moves the angular rule.
    """
    fine = _five_smooth(2 * (N + 2 * d) + 7)
    return fine, _five_smooth(max(2 * (N + 2 * d) + 11, fine + 1))


def dense_gram_oracle(w, symbol, N):
    """Independent dense Gram section by two-dimensional polar quadrature.

    Builds A[m,n] = <phibar e_m, phibar e_n> and the analytic projection
    C[j,m] = <phibar e_m, e_j> on a trapezoid(theta) x Gauss-Legendre(r)
    grid, then G = A - C^T conj(C).  Every normalization (the e_m norms
    mg) comes from the same grid, so radial quadrature bias cancels to
    first order.  Returns (G, err_est) with err_est the max entrywise
    drift against a coarser grid.

    The trapezoid rule is exact for trigonometric polynomials below the
    grid's Nyquist order, which covers every angular frequency the
    integrands contain once n_theta >= 2(N + 2d) + 1.  Both grids take
    5-smooth n_theta (``_theta_lengths``), so no DFT runs numpy's slow
    prime-length path.

    The sums are taken angle first: one DFT along theta per radial node
    gives H_i = DFT(|phi|^2) and Gc_i = DFT(conj phi) on ring i, and then

        A[m,n] = sum_i wr_i r_i^(m+n) H_i[(n-m) mod n_theta] dtheta / sqrt(mg_m mg_n),
        C[j,m] = sum_i wr_i r_i^(j+m) Gc_i[(j-m) mod n_theta] dtheta / sqrt(mg_j mg_m).

    The radial sums depend only on (m+n, n-m), so each is one product
    of the (n_r, 2N-1) power table with the 2N-1 DFT columns in use.
    This is the same quadrature rule on the same grids as summing the
    integrands point by point, in O(n_r (n_theta log n_theta + N^2))
    instead of O(n_r n_theta N^2).
    """
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
        raise ValueError(f"N must be an integer, got N={N!r}")
    N = int(N)
    if N < 1 or N > 64:
        raise WeightDomainError(f"oracle is for small sections, N in [1, 64]; got {N}")
    d = symbol.degree
    n_theta, n_theta_lo = _theta_lengths(N, d)
    n_r = max(160, N + 2 * d + 40)
    m = np.arange(N)
    # DFT column of the offset k = n - m (or j - m), k in -(N-1)..N-1
    offset = np.arange(-(N - 1), N)
    s_idx = m[:, None] + m[None, :]  # m + n
    k_idx = m[None, :] - m[:, None] + (N - 1)  # n - m, shifted to a row of `offset`

    def assemble(n_r, n_theta):
        x, wx = _legendre_nodes(n_r)
        r = 0.5 * (x + 1.0)
        wr = 0.5 * wx * r * w.density(r)  # radial part of w dA, dtheta split off
        theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        phi = symbol(r[:, None] * np.exp(1j * theta[None, :]))
        dth = 2.0 * np.pi / n_theta

        powers = r[:, None] ** np.arange(2 * N - 1)[None, :]  # r_i^(m+n)
        mg = 2.0 * np.pi * (wr @ powers[:, : 2 * N - 1 : 2])  # grid moments of e_m
        cols = offset % n_theta
        H = np.fft.fft(np.abs(phi) ** 2, axis=1)[:, cols]
        Gc = np.fft.fft(np.conj(phi), axis=1)[:, cols]
        # (wp @ F)[s, k] = sum_i wr_i r_i^s F_i[offset[k]] dtheta, read at s = m + n
        wp = powers.T * (wr * dth)[None, :]
        norm = np.sqrt(np.outer(mg, mg))
        A = (wp @ H)[s_idx, k_idx] / norm  # A[m, n]: offset n - m
        C = (wp @ Gc)[s_idx, k_idx.T] / norm  # C[j, m]: offset j - m
        G = A - C.T @ C.conj()
        return 0.5 * (G + G.conj().T)

    G = assemble(n_r, n_theta)
    G_lo = assemble(max(24, (2 * n_r) // 3), n_theta_lo)
    err = float(np.max(np.abs(G - G_lo)))
    return G, err

"""Level-set geometry: R(t), its inverse, trace integrals, lattices.

Everything here integrates over the truncated disk {|z| <= r_max} in
polar coordinates with the boundary substitution u = log(1/(1-r)), so
dA/tau^2 = r (1-r) / tau(r)^2 du dtheta.  Integrands like 1/tau^2 are
not integrable up to |z| = 1, so r_max is always an explicit argument
and level_measure reports how much the answer grows when r_max is
pushed halfway closer to 1: the mass of the annulus that the push
adds, integrated on the same u step as the disk (on at most as many u
cells as the disk has, which is coarser only for r_max < 1/2).

Superlevel sets are resolved per angle: along each radial slice the
crossing of tau|phi'| through the level t is located by linear
interpolation and the boundary cell is split, which keeps the
indicator integral second-order accurate.  Meshes refine dyadically
until successive estimates agree to _REFINE_TOL = 1e-4 relative, by
mesh level _MAX_LEVEL = 5.

The Cauchy-type family phi'(z) = 1/((1-z) log^gamma(e/(1-z))) puts all
its mass in a spike of angular width ~ (1-r) around theta = 0, so its
angular mesh is log-graded toward the singular angle; a uniform mesh
aliases the spike and converges to wrong answers while looking stable.

A level field keeps a tile index, not its values: per angular row, the
min and max of each run of _TILE radial cells (1/16 of its bytes),
built by one streamed pass the first time R(t) or R+ needs it.  The
index is a field's working memory whether or not a family keeps the
field.  R(t) reads only the tiles that t crosses, cell by cell
(LevelField).  R+ takes its bracket from bounds on R: each tile's whole
mass binned by its min and by its max, at log-spaced edges _NARROW
apart down from the field's top (its largest node value, above which R
is 0), bounds R from below and above at every edge.  Where the tiles
that meet the bracket hold more than _BLOCK_ELEMS cells, bisection
over the edges narrows it; R+ then inverts R exactly, piece by
quadratic piece, on the cells that meet it.  A trace needs every value
and streams them from fields of its own.

Families are kept side by side (_Family): for each symbol and r_max,
each level's field, the annulus of the r_max check and R+'s level
choice (checked on its level's radii, which hold all it read), each
reused only while one tau call on its radii gives the same bits, all
within _HOLD_BYTES, the least recently used family dropped first.  So
a sweep over t or repeated R+ calls build each level's index once,
calls on other symbols in between keep it, and a repeated R+ call goes
straight to its level.

The (tau, delta)-lattice is closed-form: its centers are the points of
rings delta*tau apart, and build_lattice verifies its covering and
measures its overlap on a ring grid eight times finer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from .errors import CoveringError, NonConvergedError, WeightDomainError
from .hankel import horner


# |w|^2 of the Cauchy-type kernel is a normal, finite double while
# |log |w|| stays below this (|w|^2 within 1e-295 and 1e295)
_LOG_W_MAX = 340.0

# tau|phi'| is evaluated in chunks of about this many values (128 KiB
# per float64 temporary), so that the ~20 numpy passes over one chunk
# stay in a 4 MiB L2 cache; fixed 256-row blocks of 2,049 columns were
# 4.2 MB per temporary.  Criterion 10's 13-level CE sweep, fastest of 3
# on a 2-core VM, took 2.76, 1.62, 1.23, 1.26, 1.63 and 1.66 s at 4k,
# 8k, 16k, 32k, 64k and 256k values per chunk, with the same bits
_BLOCK_ELEMS = 2**14

# per-row integrals are dotted with the row weights in groups of this
# many rows, the groups summed in order; the float order, and so every
# bit of R(t) and the traces, does not depend on the chunk size
_DOT_ROWS = 256

# the kept families (_Family) keep at most this many bytes in all: each
# field's tile index (2 x 8 bytes per row and _TILE cells, 1/16 of its
# values) and per-node arrays, each other item's radii and tau, the
# least recently used family dropped first.  It decides only what is
# kept: a field builds its index whether kept or not.  The README CE
# family keeps 1.3 MB for 17.7 MB of values, a CE level 2 field 3.1 MB
# for 50 MB; a CE level 4 field's index (48 MiB) is built for the calls
# on that field and not kept
_HOLD_BYTES = 32 * 2**20

# a level field's tile index keeps, per row, the min and max node value
# of each run of this many u cells; on the CE level-1 field (769 x 2,049)
# and the c = 0.3 polynomial field at most 1.6% of the tiles cross any
# level, and R(t) recomputes and reads only those, cell by cell
_TILE = 32

# LevelField.rplus bounds R at edges this far apart in log t and
# narrows its bracket over them no further than one such bin; one bin
# of the benchmark's non-radial level-1 field (phi' = 1 + 0.255z, seed
# 0) meets 4,803 cells, under _BLOCK_ELEMS
_NARROW = 2.0**-6

# the edges: t_max e^(-k _NARROW) for k = 0, 1, .. down to the first
# below t_max 1e-15, t_max the field's largest node value
_EDGES = 1 + int(np.ceil(np.log(1e15) / _NARROW))

# the bounds on R are widened by this relative margin, far above the
# rounding of R's and their own sums of at most a few thousand
# nonnegative terms in sequence, so that they bound R as computed
_MARGIN = 1e-10


class SymbolDerivative:
    """|phi'| evaluation for polynomial symbols or the Cauchy-type family.

    Use the classmethods ``polynomial`` (coefficients of phi', constant
    first), ``from_symbol`` (hankel.PolynomialSymbol), or ``ce_family``
    (phi'(z) = 1/((1-z) log^gamma(e/(1-z))), 1 < gamma < inf).
    ``coeffs`` is a read-only copy; a radial modulus (``is_radial``, at
    most one nonzero coefficient) is read off it once.
    """

    def __init__(self, kind, coeffs=None, gamma=None):
        self.kind = kind
        self.gamma = gamma
        self.coeffs = None
        # a radial modulus |c_k| r^k: the term's power k (None for the
        # zero symbol) and |c_k|, found once
        self.is_radial, self._power, self._scale = False, None, 0.0
        if coeffs is not None:
            self.coeffs = np.array(coeffs)
            self.coeffs.flags.writeable = False
            terms = np.flatnonzero(self.coeffs)
            self.is_radial = kind == "poly" and len(terms) <= 1
            if self.is_radial and len(terms):
                self._power, self._scale = int(terms[0]), np.abs(self.coeffs[terms[0]])

    @classmethod
    def polynomial(cls, coeffs):
        c = np.atleast_1d(np.asarray(coeffs))
        if c.ndim != 1 or len(c) == 0:
            raise ValueError("coeffs of phi' must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError(f"coeffs of phi' must be finite, got {c}")
        if not np.iscomplexobj(c) or np.all(c.imag == 0.0):
            c = c.real.astype(float)
        return cls("poly", coeffs=c)

    @classmethod
    def from_symbol(cls, symbol):
        return cls.polynomial(symbol.derivative_coeffs())

    @classmethod
    def ce_family(cls, gamma):
        if not 1.0 < gamma < np.inf:
            raise WeightDomainError(f"ce family needs 1 < gamma < inf, got gamma={gamma}")
        return cls("ce", gamma=float(gamma))

    def __call__(self, z):
        """|phi'(z)| at arbitrary complex points."""
        z = np.asarray(z, dtype=complex)
        if self.kind == "poly":
            return np.abs(horner(self.coeffs, z))
        # w = 1 - z by parts (1 - Re z is exact near z = 1); [()] gives a
        # scalar for a scalar z, as the poly branch does
        zz = np.atleast_1d(z)
        return self._ce_abs(1.0 - zz.real, -zz.imag).reshape(z.shape)[()]

    def radial_abs(self, r):
        """|phi'| on a radius for radial moduli (single-term phi')."""
        if not self.is_radial:
            raise ValueError("symbol derivative modulus is not radial")
        r = np.asarray(r, dtype=float)
        if self._power is None:
            return np.zeros_like(r)
        return self._scale * r**self._power

    def abs_grid(self, r, theta):
        """|phi'| at the points r e^(i theta), r and theta broadcast together.

        A polar grid passes (r[None, :], theta[:, None]).  Each value
        depends on its own r and theta only, by the same arithmetic in
        any shape.  For the Cauchy-type family w = 1 - z is assembled as
        (1-r) + 2 r sin^2(theta/2) - i r sin(theta), exact near z = 1
        where the naive difference cancels.
        """
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if self.kind == "poly":
            return np.abs(horner(self.coeffs, r * np.exp(1j * theta)))
        # sin^2 of a tiny angle may underflow to 0 or a subnormal
        with np.errstate(under="ignore"):
            rew = (2.0 * r) * np.sin(0.5 * theta) ** 2
            rew += 1.0 - r
            imw = -r * np.sin(theta)
        return self._ce_abs(rew, imw)

    @np.errstate(over="ignore", under="ignore", divide="ignore")
    def _ce_abs(self, rew, imw):
        """1/(|w| |1 - log w|^gamma) from w's real and imaginary parts.

        Real arithmetic only.  log w = L + iA with L = log(|w|^2)/2,
        which skips hypot; where |L| > _LOG_W_MAX, |w|^2 may have
        under- or overflowed and L is log hypot instead.  At w = 0, the
        pole, 1/|w| outgrows log^gamma and the value is +inf; past the
        double range it is +inf as well.  Over- and underflow and log 0
        are part of that, so the kernel runs with them ignored.

        Consumes its arguments: ``rew``'s buffer is overwritten, so pass
        arrays the caller no longer needs.  The in-place steps keep the
        temporaries to the grid's own size.
        """
        A = np.arctan2(imw, rew)
        L = np.square(rew)
        L += np.square(imw)
        L = np.log(L, out=L)
        L *= 0.5
        pole = None
        if L.size and not -_LOG_W_MAX <= L.min() <= L.max() <= _LOG_W_MAX:
            off = np.abs(L) > _LOG_W_MAX
            pole = (rew == 0.0) & (imw == 0.0)
            # log 1 stands in at the pole until its +inf is set below
            L[off] = np.log(np.where(pole[off], 1.0, np.hypot(rew[off], imw[off])))
        A *= A
        # rew is spent once the fallback above has read it
        B = np.subtract(1.0, L, out=rew)
        B *= B
        A += B
        np.log(A, out=A)
        A *= -0.5 * self.gamma
        A -= L
        np.exp(A, out=A)
        if pole is not None:
            A[pole] = np.inf
        return A

    def __repr__(self):
        if self.kind == "poly":
            c = [complex(v) if np.iscomplexobj(self.coeffs) else float(v) for v in self.coeffs]
            return f"SymbolDerivative.polynomial({c})"
        return f"SymbolDerivative.ce_family(gamma={self.gamma})"


class MeasureResult(float):
    """A float carrying its refinement delta and mesh level and its truncation delta.

    ``r_max_delta`` (level_measure only) is the mass that pushing r_max
    halfway to 1 adds: that of the annulus r_max < |z| <= r_push on the
    level's u step, 0.0 where nothing above the level reaches it.
    """

    def __new__(cls, value, refine_error=0.0, r_max_delta=None, level=None):
        obj = super().__new__(cls, value)
        obj.refine_error = refine_error
        obj.r_max_delta = r_max_delta
        obj.level = level
        return obj


def _theta_cells(deriv, r_max, level):
    """Angular nodes and weights so that sum w_j I(theta_j) ~ int I dtheta
    (one node of weight 2 pi for a radial modulus)."""
    if deriv.is_radial:
        return np.array([0.0]), np.array([2.0 * np.pi])
    if deriv.kind == "poly":
        M = max(256, 32 * len(deriv.coeffs)) * 2**level
        return 2.0 * np.pi * np.arange(M) / M, np.full(M, 2.0 * np.pi / M)
    # log-graded mesh around the singular angle theta = 0, folded by the
    # conjugation symmetry |phi'(conj z)| = |phi'(z)|
    u_max = -np.log1p(-r_max)
    n_b = 192 * 2**level
    n_s = 192 * 2**level
    th_cut = 0.1
    bulk = np.linspace(th_cut, np.pi, n_b)
    wb = np.full(n_b, bulk[1] - bulk[0])
    wb[0] *= 0.5
    wb[-1] *= 0.5
    v = np.linspace(np.log(th_cut), -u_max - 2.0, n_s)
    spike = np.exp(v)
    hv = abs(v[1] - v[0])
    ws = np.full(n_s, hv) * spike
    ws[0] *= 0.5
    ws[-1] *= 0.5
    theta = np.concatenate([bulk, spike, [0.0]])
    wts = np.concatenate([wb, ws, [spike[-1]]])
    return theta, 2.0 * wts


def _chunk_rows(columns):
    """Rows per chunk of a field of this many columns: about _BLOCK_ELEMS values."""
    return max(1, _BLOCK_ELEMS // columns)


def _tau_abs(deriv, r, tau, theta):
    """tau|phi'| at r e^(i theta), broadcast together (a radial modulus
    reads r only); elementwise, so a grid and a gather of its nodes agree."""
    if deriv.is_radial:
        return tau * deriv.radial_abs(r)
    f = deriv.abs_grid(r, theta)
    f *= tau
    return f


def _field_rows(deriv, r, tau, theta):
    """tau|phi'| on an outer(theta, r) polar grid, in chunks of rows.

    Yields (lo, f) with f the field on rows theta[lo : lo + len(f)],
    about _BLOCK_ELEMS values per chunk; a radial modulus reads no theta
    and is one row per chunk.  Every field and bloch_norm grid is built
    here: a nan or inf in it raises WeightDomainError.
    """
    rows = _chunk_rows(len(r))
    for lo in range(0, len(theta), rows):
        f = _tau_abs(deriv, r[None, :], tau, theta[lo : lo + rows, None])
        if not np.isfinite(f).all():
            bad = r[~np.isfinite(f).all(axis=0)][0]
            raise WeightDomainError(f"tau_prof |phi'| must be finite, got a nan or inf at r={bad}")
        yield lo, f


def _crossing_mass(f0, f1, d0, d1, du, t):
    """du-integral over {f > t} of a cell where f crosses t, both linear in u.

    f0, d0 and f1, d1 are the field and dens at the cell's two nodes.
    """
    frac = (t - f0) / (f1 - f0)
    dm = d0 + (d1 - d0) * frac
    left = du * 0.5 * (d0 + dm) * frac
    right = du * 0.5 * (dm + d1) * (1.0 - frac)
    return np.where(f0 > t, left, right)


def _first_below(R, t, x):
    """The first double at which R < x, for R nonincreasing, from a guess
    t: steps from t, doubling, up while R >= x or down while R < x, then
    halves back between the last two steps.  A non-finite t is refused:
    its spacing is nan, and the steps would never end."""
    if not np.isfinite(t):
        raise ValueError(f"_first_below needs a finite start, got t={t}")
    step = np.spacing(t)
    lo, hi = (None, t) if R(t) < x else (t, None)
    while lo is None:
        if R(t := hi - step) >= x:
            lo = t
        else:
            hi, step = t, 2.0 * step
    while hi is None:
        if R(t := lo + step) < x:
            hi = t
        else:
            lo, step = t, 2.0 * step
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if R(mid) >= x:
            lo = mid
        else:
            hi = mid
    return hi


class LevelField:
    """tau|phi'| on the polar grid of one dyadic mesh level.

    ``dens`` is dA/tau^2 per du dtheta along the u axis; a radial
    modulus is one angular node of weight 2 pi.  The field keeps none of
    its values: ``blocks()`` builds (weights, field) pairs of cache-sized
    chunks of angular rows (_BLOCK_ELEMS values each), one at a time.

    Each row's u cells are indexed in tiles of _TILE cells: per row and
    tile the min and max of the tile's nodes.  A tile whose min is above
    a level t counts whole (its mass depends on u only, one vector for
    all rows), a tile whose max is at or below it counts nothing, and
    only the tiles that t crosses are read cell by cell.  ``_index``
    builds the tile index (1/16 of the field's bytes) by one streamed
    pass the first time ``measure``, ``rplus`` or ``_rbounds`` needs it,
    whether or not a family keeps the field: the index is the field's
    working memory.  The crossed tiles are recomputed by the grid's
    elementwise arithmetic, one array of them per chunk of the index.

    A field depends on its symbol, r_max and level and on tau at its
    radii ``_r`` only, which is what the kept families (_Family) check.
    """

    def __init__(self, tau_prof, deriv, r_max, level):
        if not 0.0 < r_max < 1.0:
            raise WeightDomainError(f"r_max must lie in (0, 1), got {r_max}")
        if isinstance(level, bool) or not isinstance(level, (int, np.integer)) or level < 0:
            raise ValueError(f"level must be a nonnegative integer, got level={level!r}")
        u = np.linspace(0.0, -np.log1p(-r_max), 1024 * 2**level + 1)
        self._setup(tau_prof, deriv, u, r_max, level)

    @classmethod
    def _annulus(cls, tau_prof, deriv, r_in, r_out, level):
        """The field of the annulus r_in < |z| <= r_out on the u step of
        the disk |z| <= r_in at ``level``, and on the angular cells of
        the disk |z| <= r_out (the CE spike mesh must reach its edge).

        The annulus has at most the disk's 1024 * 2**level cells: for
        r_in < 1/2 the disk's step would need more, and there the step
        stays finer than that of the whole disk |z| <= r_out."""
        u_in, u_out = -np.log1p(-r_in), -np.log1p(-r_out)
        n = 1024 * 2**level
        cells = min(max(1, int(np.ceil((u_out - u_in) / (u_in / n)))), n)
        field = cls.__new__(cls)
        field._setup(tau_prof, deriv, np.linspace(u_in, u_out, cells + 1), r_out, level)
        return field

    def _setup(self, tau_prof, deriv, u, r_max, level):
        self.du = u[1] - u[0]
        self._r = -np.expm1(-u)
        self._tau = np.asarray(tau_prof(self._r), dtype=float)
        self.dens = self._r * (1.0 - self._r) / self._tau**2
        # the trapezoid rule along u: weights du*dens, halved at both ends
        self._wu = self.du * self.dens
        self._wu[[0, -1]] *= 0.5
        # the tile index: tile k holds cells k*_TILE .. k*_TILE + _TILE - 1,
        # the last one padded with empty cells on its last node repeated
        nodes = len(self.dens)
        tiles = -(-(nodes - 1) // _TILE)
        starts = np.arange(0, tiles * _TILE, _TILE)
        self._nodes = np.minimum(starts[:, None] + np.arange(_TILE + 1), nodes - 1)
        self._cell = np.zeros((tiles, _TILE))
        self._cell.reshape(-1)[: nodes - 1] = 0.5 * self.du * (self.dens[:-1] + self.dens[1:])
        self._tile_mass = self._cell.sum(axis=1)
        self._deriv = deriv
        self._theta, self._wts = _theta_cells(deriv, r_max, level)
        self._wts.flags.writeable = False
        self._lo = self._hi = self._bounds = None

    @property
    def nbytes(self):
        """The bytes of its arrays, the tile index and R+'s bounds counted
        before they are built."""
        kept = sum(a.nbytes for a in vars(self).values() if isinstance(a, np.ndarray))
        kept += 16 * len(self._wts) * len(self._cell) if self._lo is None else 0
        return kept + (5 * 8 * _EDGES if self._bounds is None else 0)

    def _tile_ranges(self, f):
        """Each row's min and max node value over each tile of ``f``."""
        starts, ends = self._nodes[:, 0], self._nodes[:, -1]
        lo = np.minimum.reduceat(f, starts, axis=1)
        np.minimum(lo, f[:, ends], out=lo)
        hi = np.maximum.reduceat(f, starts, axis=1)
        np.maximum(hi, f[:, ends], out=hi)
        return lo, hi

    def _index(self):
        """Build the tile index by one streamed pass, the first time only,
        and keep it read-only; returns self."""
        if self._lo is None:
            lo, hi = np.empty((2, len(self._wts), len(self._cell)))
            for a, f in _field_rows(self._deriv, self._r, self._tau, self._theta):
                lo[a : a + len(f)], hi[a : a + len(f)] = self._tile_ranges(f)
            lo.flags.writeable = hi.flags.writeable = False
            self._lo, self._hi = lo, hi
        return self

    def top(self):
        """The largest node value, the largest tile max: R is 0 from there on."""
        return float(self._index()._hi.max())

    def _chunks(self):
        """(first row, tile mins, tile maxes) of row chunks of the tile
        index, about _BLOCK_ELEMS tiles each."""
        self._index()
        rows = _chunk_rows(self._lo.shape[1])
        for a in range(0, len(self._lo), rows):
            yield a, self._lo[a : a + rows], self._hi[a : a + rows]

    def blocks(self):
        """(weights, field) pairs of cache-sized row chunks, built one at a time."""
        chunks = _field_rows(self._deriv, self._r, self._tau, self._theta)
        return ((self._wts[a : a + len(f)], f) for a, f in chunks)

    def _row_sum(self, I):
        """Row weights times per-row values I, over all rows, in _DOT_ROWS groups."""
        total = 0.0
        for lo in range(0, len(I), _DOT_ROWS):
            total += float(self._wts[lo : lo + _DOT_ROWS] @ I[lo : lo + _DOT_ROWS])
        return total

    def _crossed(self, a, lo, hi, t_lo, t_hi):
        """A chunk's per-row mass of its tiles above t_hi, and its tiles
        neither above t_hi nor at or below t_lo (a nan tile is one): their
        rows, tiles and u nodes (_TILE + 1 each) and the values computed
        on those nodes, one (k, _TILE + 1) array for the chunk."""
        above = lo > t_hi
        # a row's sum runs over its own tiles only, in the same order in
        # any chunk, so the chunking moves no bit
        I = np.where(above, self._tile_mass, 0.0).sum(axis=1)
        off = hi <= t_lo
        off |= above
        i, j = (~off).nonzero()
        nodes = self._nodes[j]
        g = _tau_abs(self._deriv, self._r[nodes], self._tau[nodes], self._theta[a + i][:, None])
        return I, i, j, nodes, g

    def measure(self, t):
        """R(t) on this level: the dA/tau^2 mass of {tau|phi'| > t}, per row
        the whole mass of the tiles above t and, in the tiles t crosses,
        each cell whole, by its linear crossing, or not at all."""
        per_row = []
        for c in self._chunks():
            I, i, j, nodes, g = self._crossed(*c, t, t)
            gt = g > t
            part = ((gt[:, :-1] & gt[:, 1:]) * self._cell[j]).sum(axis=1)
            xi, xc = (gt[:, :-1] ^ gt[:, 1:]).nonzero()
            n = nodes[xi, xc]
            cut = _crossing_mass(g[xi, xc], g[xi, xc + 1], self.dens[n], self.dens[n + 1], self.du, t)
            part += np.bincount(xi, cut, minlength=len(i))
            I += np.bincount(i, part, minlength=len(I))
            per_row.append(I)
        return self._row_sum(np.concatenate(per_row))

    def trace(self, h):
        """int h(tau|phi'|) dA/tau^2 on this level, over every value, streamed."""
        per_row = [(np.asarray(h(f)) * self._wu).sum(axis=1) for _, f in self.blocks()]
        return self._row_sum(np.concatenate(per_row))

    def _bracket_cells(self, t_lo, t_hi):
        """The cells whose node range meets (t_lo, t_hi), found from the tiles.

        Returns the weighted mass of the cells with both nodes at or
        above t_hi, which is whole at every t in the bracket, and an
        (8, k) array of the k cells that meet it: their two node values,
        the dens at those nodes, their row weight, their weighted whole
        mass, and their smaller and larger node value.  Cells with both
        nodes <= t_lo have no mass there.
        """
        full, parts = [], []
        for a, lo, hi in self._chunks():
            I, i, j, nodes, g = self._crossed(a, lo, hi, t_lo, t_hi)
            low = np.minimum(g[:, :-1], g[:, 1:])
            high = np.maximum(g[:, :-1], g[:, 1:])
            I += np.bincount(i, ((low >= t_hi) * self._cell[j]).sum(axis=1), minlength=len(I))
            full.append(I)
            # a padded cell repeats the last node: flat, empty, never gathered
            meets = (low < t_hi) & (high > t_lo) & (nodes[:, 1:] > nodes[:, :-1])
            ci, cc = meets.nonzero()
            n = nodes[ci, cc]
            w = self._wts[a + i[ci]]
            parts.append([g[ci, cc], g[ci, cc + 1], self.dens[n], self.dens[n + 1],
                          w, w * self._cell[j[ci], cc], low[ci, cc], high[ci, cc]])
        return self._row_sum(np.concatenate(full)), np.array([np.concatenate(p) for p in zip(*parts)])

    def _rbounds(self):
        """Bounds on R at the _EDGES edges, from the tile index, built once.

        Returns a read-only (5, _EDGES) array: the edges e, from t_max =
        ``top()`` down, where R and both bounds are 0; R_lower(e) <= R(e)
        <= R_upper(e), the weighted whole mass of the tiles whose min,
        resp. max, is above e, widened by _MARGIN; and the counts of
        those tiles.  Each tile's mass is binned by the number of edges
        at or above its min and its max, one row chunk of the index at a
        time.
        """
        if self._bounds is None:
            edges = self.top() * np.exp(-_NARROW * np.arange(_EDGES))
            down = -edges
            bins = np.zeros((4, _EDGES + 1))
            for a, lo, hi in self._chunks():
                mass = (self._wts[a : a + len(lo), None] * self._tile_mass).ravel()
                for k, v in enumerate((lo, hi)):
                    # a tile counts at every edge below its min (max)
                    b = np.searchsorted(down, -v.ravel(), side="right")
                    bins[k] += np.bincount(b, mass, _EDGES + 1)
                    bins[k + 2] += np.bincount(b, minlength=_EDGES + 1)
            bounds = np.vstack([edges, np.cumsum(bins[:, :-1], axis=1)])
            bounds[1] *= 1.0 - _MARGIN
            bounds[2] *= 1.0 + _MARGIN
            bounds.flags.writeable = False
            self._bounds = bounds
        return self._bounds

    def rplus(self, x):
        """R+(x) = sup { t : R(t) >= x } on this level.

        R is the mass of the field's linear interpolant along u, the
        function that ``measure`` evaluates, 0 from t_max = ``top()`` on.
        R+ is 0 where R < x even at the lowest edge, below t_max 1e-15,
        too deep below the top to resolve, and so on a zero field.

        The bracket comes from bounds on R at log-spaced edges
        (``_rbounds``), before R is evaluated at all: t_lo is the
        highest edge where R_lower >= x, t_hi the lowest where R_upper
        < x.  Where the tiles that meet it hold more than _BLOCK_ELEMS
        cells, bisection over the edges between (an open end probed
        first) narrows it, evaluating R there, until they hold at most
        that many or the bracket is one edge step wide.  ``_invert``
        then finds the root exactly on the cells that meet it.
        """
        if not x > 0.0:
            raise ValueError(f"rplus needs x > 0, got {x}")
        R = self.measure
        edges, lower, upper, n_lo, n_hi = self._rbounds()
        n = len(edges)
        # R(edges[l]) >= x > R(edges[h]), h >= 0 as R_upper(edges[0]) is
        # 0; l = n stands for an unknown R below the bottom edge
        h = int(np.searchsorted(upper, x, side="left")) - 1
        l = int(np.searchsorted(lower, x, side="left"))
        while l - h > 1 and (l == n or _TILE * (n_hi[l] - n_lo[h]) > _BLOCK_ELEMS):
            j = n - 1 if l == n else (h + l) // 2
            if R(edges[j]) >= x:
                l = j
            else:
                h = j
        if l == n:
            return 0.0
        return float(_first_below(R, self._invert(x, edges[l], edges[h]), x))

    def _invert(self, x, t_lo, t_hi):
        """The root of R(t) = x in a bracket with R(t_lo) >= x > R(t_hi),
        on the cells that meet it, to the first double where they give R < x.

        Between the sorted node values of those cells each cell is
        whole, empty or crossed, and a crossed cell's mass is quadratic
        in t, so R is piecewise quadratic there.  A search over the node
        values finds the piece where R falls below x: each round
        evaluates R at once at as many of them as keep the (level, cell)
        pairs within _BLOCK_ELEMS, evenly spaced (one, the middle, for
        _BLOCK_ELEMS cells or more; all of them for a few dozen cells),
        keeps the piece between two where R falls below x and folds the
        cells it decides (whole or empty on that piece) into the total.
        The piece's quadratic gives the root.  rplus lets ``measure``
        settle the last ulps: the two sums round differently.
        """
        full, cells = self._bracket_cells(t_lo, t_hi)
        du = self.du

        def mass(ts):
            """R at each level of ts, from the cells left and the total."""
            f0, f1, d0, d1, w, wm = cells[:6]
            a0 = f0 > ts[:, None]
            a1 = f1 > ts[:, None]
            ti, ci = (a0 != a1).nonzero()
            cut = w[ci] * _crossing_mass(f0[ci], f1[ci], d0[ci], d1[ci], du, ts[ti])
            return full + (a0 & a1) @ wm + np.bincount(ti, cut, len(ts))

        knots = np.unique(cells[:2])
        knots = knots[(knots > t_lo) & (knots < t_hi)]
        while len(knots):
            n = len(knots)
            m = min(n, max(1, _BLOCK_ELEMS // cells.shape[1]))
            # m probes that split the knots into m + 1 runs of near equal length
            probes = knots[np.arange(1, m + 1) * (n + 1) // (m + 1) - 1]
            below = mass(probes) < x
            i = int(below.argmax()) if below.any() else m  # the first probe below x
            t_lo = probes[i - 1] if i > 0 else t_lo
            t_hi = probes[i] if i < m else t_hi
            knots = knots[(knots > t_lo) & (knots < t_hi)]
            whole = cells[6] >= t_hi  # whole below t_hi
            full += float(cells[5, whole].sum())
            cells = cells[:, ~whole & (cells[7] > t_lo)]  # and empty from t_lo on
        # each cell left crosses the whole piece [t_lo, t_hi): with a its
        # node above, s = (f_a - t)/(f_a - f_b) of it lies above t, and
        # its mass is du/2 (2 d_a s + (d_b - d_a) s^2).  The quadratic is
        # taken in t p, p the power of two that brings t_hi into [1/2, 1)
        # (a subnormal t_hi no higher than 1/2), so that q^2 and b^2 stay
        # finite on a field far below 1; p scales every term of a normal
        # t_hi exactly, and t is the bits of the unscaled form
        p = np.ldexp(1.0, min(-int(np.frexp(t_hi)[1]), 1021))
        up = cells[1] > cells[0]
        da, db = np.where(up, cells[3], cells[2]), np.where(up, cells[2], cells[3])
        w = cells[4]
        q = 1.0 / (cells[7] * p - cells[6] * p)
        s0 = (cells[7] * p - t_lo * p) * q
        c0 = full + 0.5 * du * float(w @ ((2.0 * da + (db - da) * s0) * s0)) - x
        b = du * float(w @ (q * (da + (db - da) * s0)))
        a = 0.5 * du * float(w @ ((db - da) * q * q))
        # the smaller root of c0 - b h + a h^2, in its cancellation-free form
        den = b + np.sqrt(max(b * b - 4.0 * a * c0, 0.0))
        t = t_lo if c0 <= 0.0 else (t_hi if den <= 0.0 else min((t_lo * p + 2.0 * c0 / den) / p, t_hi))

        def piece(t):
            # R >= x at t_lo and R < x at t_hi, whatever the cells' sums give
            return np.inf if t < t_lo else (mass(np.array([t]))[0] if t < t_hi else -np.inf)

        return _first_below(piece, t, x)


class _Family:
    """The kept families: what the calls on each symbol and r_max reuse.

    A family is keyed by its symbol and r_max, by value.  Each item (a
    level's field, an annulus, an R+ level choice) is kept with radii that
    hold all it read (for an R+ level choice, its level's) and tau on them,
    and is reused only while one tau call on those radii gives the same
    bits; tau must act elementwise, as a radial profile does.  A miss
    replaces only that item.  Families are kept side by side within
    _HOLD_BYTES (``nbytes``, a running total: a field counts its nbytes,
    index included, another item its radii and tau): a keep drops the least
    recently used other families until the item fits, if it can.
    """

    def __init__(self):
        self.clear()

    def clear(self):
        # key -> {name: (r, tau, item)}, the least recently used first
        self.families = OrderedDict()
        self.nbytes = 0

    def get(self, key, name, tau_prof):
        """Item ``name`` of family ``key`` if tau_prof gives its bits, else None."""
        items = self.families.get(key)
        if items is None or name not in items:
            return None
        self.families.move_to_end(key)
        r, tau, item = items[name]
        return item if np.asarray(tau_prof(r), dtype=float).tobytes() == tau.tobytes() else None

    def keep(self, key, name, r, tau, item):
        """Keep ``item`` as ``name`` of family ``key``, read from radii r
        with these tau values, if it fits in _HOLD_BYTES.  Returns ``item``."""
        items = self.families.setdefault(key, {})
        self.families.move_to_end(key)
        if name in items:
            self.nbytes -= _item_bytes(*items.pop(name))
        need = _item_bytes(r, tau, item)
        while self.nbytes + need > _HOLD_BYTES and len(self.families) > 1:
            self.nbytes -= sum(_item_bytes(*v) for v in self.families.popitem(last=False)[1].values())
        if self.nbytes + need <= _HOLD_BYTES:
            items[name] = (r, tau, item)
            self.nbytes += need
        return item


def _item_bytes(r, tau, item):
    return item.nbytes if isinstance(item, LevelField) else r.nbytes + tau.nbytes


_FAMILY = _Family()


def _family_key(deriv, r_max):
    """The symbol and r_max, by value, that a family's items belong to."""
    c = None if deriv.coeffs is None else np.asarray(deriv.coeffs)
    return (deriv.kind, deriv.gamma, None if c is None else (c.dtype.str, c.tobytes()), r_max)


def _field(tau_prof, deriv, r_max, level, r_push=None):
    """The kept family's field of ``level`` (its annulus out to r_push if given), or a new one."""
    key = _family_key(deriv, r_max)
    name = ("field", level) if r_push is None else ("annulus", level, r_push)
    field = _FAMILY.get(key, name, tau_prof)
    if field is None:
        field = (LevelField(tau_prof, deriv, r_max, level) if r_push is None
                 else LevelField._annulus(tau_prof, deriv, r_max, r_push, level))
        _FAMILY.keep(key, name, field._r, field._tau, field)
    return field


# the dyadic mesh refinement of R, R+ and the trace stops at the first
# level that moves by less than _REFINE_TOL relative; none by _MAX_LEVEL
# raises NonConvergedError
_MAX_LEVEL = 5
_REFINE_TOL = 1e-4


def _refined(fn):
    """fn(level) at the first level from 1 where it moves by less than
    _REFINE_TOL relative to the level before; a nan or inf level value
    raises NonConvergedError, as no later level can agree with it."""
    for level in range(_MAX_LEVEL + 1):
        cur = fn(level)
        if not np.isfinite(cur):
            raise NonConvergedError(f"dyadic refinement got {cur} at mesh level {level}")
        if level:
            scale = max(abs(cur), abs(prev))
            err = abs(cur - prev) / scale if scale > 0.0 else 0.0
            if err < _REFINE_TOL:
                return cur, err, level
        prev = cur
    raise NonConvergedError(
        f"dyadic refinement did not reach rel tol {_REFINE_TOL:.1e} within "
        f"{_MAX_LEVEL} levels (last delta {err:.3e})"
    )


def level_measure(tau_prof, deriv, t, r_max, check_r_max=True):
    """R(t) = integral of dA/tau^2 over {tau|phi'| > t, |z| <= r_max}.

    Returns a MeasureResult float whose ``refine_error`` is the last
    dyadic-refinement delta (below _REFINE_TOL = 1e-4 by mesh level
    _MAX_LEVEL, or NonConvergedError) and whose ``r_max_delta`` reports
    how much the value grows when r_max is pushed to r_push, halfway to
    1 and capped at the tau profile's own reach: the dA/tau^2 mass of
    {tau|phi'| > t} on the annulus r_max < |z| <= r_push, integrated on
    the converged level's u step (0.0 where r_push = r_max or where the
    set stays inside r_max).  The caller owns the truncation decision.

    Its level fields and annulus are items of the kept family
    (_Family), so a sweep over t builds each once.
    """
    if not t > 0.0:
        raise ValueError(f"level t must be positive, got {t}")

    val, err, level = _refined(lambda lv: _field(tau_prof, deriv, r_max, lv).measure(t))
    delta = None
    if check_r_max:
        r_push = _r_push(tau_prof, r_max)
        delta = 0.0
        if r_push > r_max:
            delta = _field(tau_prof, deriv, r_max, level, r_push).measure(t)
    return MeasureResult(val, refine_error=err, r_max_delta=delta, level=level)


def _r_push(tau_prof, r_max):
    """The outer radius of level_measure's r_max check."""
    return min(0.5 * (1.0 + r_max), tau_prof.r_hi)


def rearrangement_plus(tau_prof, deriv, x, r_max):
    """R+(x) = sup { t : R(t) >= x }, inverted exactly on one mesh level.

    The mesh level L is the one level_measure converges on for R(T/8),
    T the top of the level-0 field, its largest node value;
    LevelField.rplus then inverts R on that one level.  The level
    fields and the choice of L (checked on level L's radii) are items
    of the kept family (_Family), so a repeated call reads tau twice on
    level L's radii, neither the level-0 field nor T, and goes straight
    to level L.  A T below the smallest normal double raises
    WeightDomainError.
    """
    if not x > 0.0:
        raise ValueError(f"rearrangement_plus needs x > 0, got {x}")
    key, name = _family_key(deriv, r_max), ("rplus",)
    level = _FAMILY.get(key, name, tau_prof)
    if level is not None:
        return _field(tau_prof, deriv, r_max, level).rplus(x)
    T = _field(tau_prof, deriv, r_max, 0).top()
    if T == 0.0:
        return 0.0
    if T < np.finfo(float).tiny:
        raise WeightDomainError(f"R+ needs the top of tau|phi'| to be a normal double, got top={T}")
    level = level_measure(tau_prof, deriv, T / 8.0, r_max, check_r_max=False).level
    field = _field(tau_prof, deriv, r_max, level)
    # level L's radii hold those of levels 0 .. L, all the choice read: the u
    # grids nest bit for bit (node i is i * (u_max / div), div times 2**(L - l))
    _FAMILY.keep(key, name, field._r, field._tau, level)
    return field.rplus(x)


def trace_integral(tau_prof, deriv, h, r_max):
    """int h(tau |phi'|) dA/tau^2 over {|z| <= r_max}.

    h must be finite, increasing and convex with h(0) = 0; this is
    spot-checked on a geometric sample up to the top of the kept level-0
    field, the one tile index the trace reads (a ValueError naming h);
    the caller owns the rest.  The trace needs every value, so it builds
    each level's field itself and streams it, and keeps none, refining
    to _REFINE_TOL as level_measure does; a nan or inf level value
    raises NonConvergedError.
    """
    h0 = float(h(np.asarray(0.0)))
    T = max(_field(tau_prof, deriv, r_max, 0).top(), 1e-300)
    probe = T * np.logspace(-6, 0, 9)
    hp = np.asarray(h(probe), dtype=float)
    mids = np.asarray(h(0.5 * (probe[:-1] + probe[1:])), dtype=float)
    if not np.isfinite(np.r_[h0, hp, mids]).all():
        raise ValueError("h must be finite on [0, sup tau|phi'|], got a nan or inf on the spot-check grid")
    if abs(h0) > 1e-12 * max(1.0, float(hp[-1])):
        raise ValueError(f"h(0) must be 0, got {h0}")
    if np.any(np.diff(hp) < -1e-12 * max(1.0, float(np.max(np.abs(hp))))):
        raise ValueError("h must be nondecreasing on (0, sup tau|phi'|]")
    if np.any(mids > 0.5 * (hp[:-1] + hp[1:]) + 1e-9 * max(1.0, float(hp[-1]))):
        raise ValueError("h fails midpoint convexity on the spot-check grid")
    val, err, level = _refined(lambda lv: LevelField(tau_prof, deriv, r_max, lv).trace(h))
    return MeasureResult(val, refine_error=err, r_max_delta=None, level=level)


def bloch_norm(tau_prof, deriv, r_max=None):
    """sup over |z| <= r_max of tau(r) |phi'(z)|, by grid + local zoom.

    The coarse grid uses the same angular grading as the integrators,
    then the running argmax is refined on shrinking windows.
    """
    if r_max is None:
        r_max = min(tau_prof.r_hi, 1.0 - 1e-9)
    elif not 0.0 < r_max < 1.0:
        raise WeightDomainError(f"r_max must lie in (0, 1), got {r_max}")
    u_max = -np.log1p(-r_max)

    def peak(u_arr, theta):
        """The grid's first maximum of tau|phi'|, as np.argmax picks it,
        and its (row, column)."""
        r = -np.expm1(-u_arr)
        best, at = -np.inf, None
        for lo, f in _field_rows(deriv, r, np.asarray(tau_prof(r), dtype=float), theta):
            k = int(np.argmax(f))
            # a later chunk wins only when strictly larger
            if f.flat[k] > best:
                best = float(f.flat[k])
                at = (lo + k // f.shape[1], k % f.shape[1])
        return best, at

    u = np.linspace(0.0, u_max, 2049)
    theta = _theta_cells(deriv, r_max, 0)[0]
    best, (it, iu) = peak(u, theta)
    if best == 0.0:
        return 0.0
    cu, ct = u[iu], theta[it]
    wu, wt = u[1] - u[0], np.pi / len(theta)
    for _ in range(14):
        uu = np.clip(np.linspace(cu - wu, cu + wu, 17), 0.0, u_max)
        tt = np.linspace(ct - wt, ct + wt, 17)
        fz, (it, iu) = peak(uu, tt)
        best = max(best, fz)
        cu, ct = uu[iu], tt[it]
        wu /= 6.0
        wt /= 6.0
    return best


class Lattice:
    """(tau, delta)-lattice: centers with disks D(z_k, delta tau(z_k)).

    ``multiplicity`` is the measured maximum overlap count of the
    b-dilated disks on the verification grid.
    """

    def __init__(self, centers, radii, delta, b, multiplicity, r_max, tau_prof):
        self.centers = centers
        self.radii = radii
        self.delta = delta
        self.b = b
        self.multiplicity = multiplicity
        self.r_max = r_max
        self.tau = tau_prof

    def __len__(self):
        return len(self.centers)

    def __repr__(self):
        return (
            f"Lattice(n={len(self)}, delta={self.delta}, b={self.b}, "
            f"multiplicity={self.multiplicity})"
        )


class _Rings(NamedTuple):
    """A grid of concentric rings: ring k holds count[k] points at radius
    r[k] and angles 2 pi (j + off[k]) / count[k], j = 0 .. count[k]-1,
    flat indices first[k] .. first[k+1]-1.  Radii are nondecreasing."""

    r: np.ndarray
    count: np.ndarray
    off: np.ndarray
    first: np.ndarray

    @classmethod
    def build(cls, r, count, off):
        count = np.asarray(count, dtype=np.intp)
        first = np.zeros(len(count) + 1, dtype=np.intp)
        np.cumsum(count, out=first[1:])
        return cls(np.asarray(r, dtype=float), count, np.asarray(off, dtype=float), first)

    def points(self):
        z = np.empty(self.first[-1], dtype=complex)
        for r, M, off, lo in zip(self.r, self.count, self.off, self.first):
            th = 2.0 * np.pi * (np.arange(M) + off) / M
            np.multiply(r, np.exp(1j * th), out=z[lo : lo + M])
        return z


def _rings(tau_prof, step, r_start, r_max, phase):
    """Rings from r_start out to r_max, step*tau(r) apart.

    A ring at r holds max(8, ceil(2 pi r / (step tau(r)))) points at
    angles 2 pi (j + phase)/M; every other ring is turned half a cell.
    A ring at r = 0 is the single point 0.
    """
    radii, counts, offs = [], [], []
    r = r_start
    while r <= r_max:
        h = step * float(tau_prof(r))
        offs.append(phase + 0.5 * (len(radii) % 2))
        radii.append(r)
        counts.append(1 if r == 0.0 else max(8, int(np.ceil(2.0 * np.pi * r / h))))
        r += h
    return _Rings.build(radii, counts, offs)


def _reach(rho):
    """rho widened past the rounding of the grid points and of |p - z|, so
    that an arc window from it holds every point the exact disk test takes."""
    return rho * (1.0 + 1e-9) + 1e-15


def _disk_candidates(grid, zc, rho):
    """(center, flat point) index pairs holding every grid point of the disks D(zc, rho).

    A superset: on each ring that comes within reach of a center, the
    disk holds one arc, and its index window is taken from the law of
    cosines, |p - z|^2 = (r - |z|)^2 + 4 r |z| sin^2(dtheta/2), and
    widened by one point each side.  A ring at r = 0, a center at 0
    and a ring that lies inside the disk give the whole ring.  The
    caller applies the exact disk test to the pairs.
    """
    a = np.abs(zc)
    reach = _reach(rho)
    lo = np.searchsorted(grid.r, a - reach, side="left")
    hi = np.searchsorted(grid.r, a + reach, side="right")
    nring = np.maximum(hi - lo, 0)
    # one row per (center, ring) pair
    ci = np.repeat(np.arange(len(zc)), nring)
    k = np.arange(len(ci)) + np.repeat(lo - np.cumsum(nring) + nring, nring)
    r, M, ak, rk = grid.r[k], grid.count[k], a[ci], reach[ci]
    d = r - ak
    den = 4.0 * r * ak
    s = np.divide((rk - d) * (rk + d), den, out=np.ones_like(den), where=den > 0.0)
    half = 2.0 * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))
    # the center's and the arc's ends in units of the ring's index
    u = np.angle(zc)[ci] * M / (2.0 * np.pi) - grid.off[k]
    w = half * M / (2.0 * np.pi)
    j0 = np.floor(u - w).astype(np.intp) - 1
    # a window of M or more points is the whole ring
    n = np.minimum(np.ceil(u + w).astype(np.intp) + 2 - j0, M)
    # one row per (center, point) pair
    pt = np.arange(n.sum())
    pt -= np.repeat(np.cumsum(n) - n - j0, n)
    pt %= M.repeat(n)
    pt += grid.first[k].repeat(n)
    return ci.repeat(n), pt


# _cover_counts takes the candidates of this many centers at a time;
# build_lattice on the benchmark's lattice (3,378 centers) peaks at 69.2,
# 12.6 and 9.5 MiB with all at once, 256 and 64, in 0.055, 0.044 and
# 0.047 s (fastest of 5 on a 2-core VM)
_COVER_CHUNK = 64


def build_lattice(tau_prof, delta, r_max, b=1.25):
    """(tau, delta)-lattice on {|z| <= r_max} in closed form, covering-verified.

    The centers are the points of the rings delta*tau(r) apart
    (_rings at step delta): the ring at r holds max(8, ceil(2 pi r /
    (delta tau(r)))) centers, every other ring is turned half a cell,
    the ring at r = 0 is the single center 0, and each disk has radius
    delta*tau at its ring's radius.  Centers on a ring are at most
    delta*tau apart and so are the rings, so the undilated disks cover,
    up to the variation of tau over one step.  Centers z_j, z_k are at
    least 2 sin(pi/8) min(delta min(tau_j, tau_k), max(|z_j|, |z_k|))
    apart, the spacing of an 8-point ring; the |z| term binds only on a
    ring nearer 0 than its own step, which needs a tau growing outward.

    The b-dilated disks (1 <= b < inf) must cover the verification grid,
    rings delta*tau/8 apart and offset from the lattice; a point they
    miss raises CoveringError with the first such point as witness.  A
    disk holds one arc of each verification ring it meets, so the
    points of a disk come from index windows (_disk_candidates) and the
    exact disk test, with no spatial tree.
    """
    if not 0.0 < delta <= 0.5:
        raise WeightDomainError(f"delta must lie in (0, 0.5], got {delta}")
    if not 0.0 < r_max < 1.0 or r_max > tau_prof.r_hi:
        raise WeightDomainError(
            f"r_max must lie in (0, 1) within the profile reach {tau_prof.r_hi}"
        )
    if not 1.0 <= b < np.inf:
        raise WeightDomainError(f"dilation must satisfy 1 <= b < inf, got b={b}")

    rings = _rings(tau_prof, delta, 0.0, r_max, 0.0)
    centers = rings.points()
    taus = np.repeat(np.asarray(tau_prof(rings.r), dtype=float), rings.count)

    # verification grid: rings offset by half a step, angles offset too,
    # after one point on the positive axis at the first ring's radius
    r0 = 0.5 * delta * float(tau_prof(0.0)) / 8.0
    g = _rings(tau_prof, delta / 8.0, r0, r_max, 0.25)
    grid = _Rings.build(np.r_[r0, g.r], np.r_[1, g.count], np.r_[0.0, g.off])
    test = grid.points()
    counts = _cover_counts(grid, test, centers, b * delta * taus)
    # rounding can put a point of the last ring just past r_max
    inside = np.abs(test) <= r_max
    miss = np.flatnonzero((counts == 0) & inside)
    if miss.size:
        wz = complex(test[miss[0]])
        raise CoveringError(
            f"dilated disks leave {miss.size} verification points "
            f"uncovered, first at {wz:.6f}",
            witness=wz,
        )
    mult = int(counts[inside].max()) if inside.any() else 0
    return Lattice(centers, delta * taus, delta, b, mult, r_max, tau_prof)


def _cover_counts(grid, test, centers, rho):
    """Per point of a ring grid (``test``, its points): how many of the
    disks D(centers[k], rho[k]) hold it."""
    counts = np.zeros(len(test), dtype=np.int32)
    for lo in range(0, len(centers), _COVER_CHUNK):
        zc = centers[lo : lo + _COVER_CHUNK]
        rz = rho[lo : lo + _COVER_CHUNK]
        ci, pt = _disk_candidates(grid, zc, rz)
        if not pt.size:
            continue
        d = test[pt]
        d -= zc[ci]
        d = np.abs(d)
        # the points of one chunk of centers span one run of flat indices
        first = pt.min()
        c = np.bincount(pt[d <= rz[ci]] - first)
        counts[first : first + len(c)] += c
        del ci, pt, d  # before the next chunk's candidates
    return counts


# besov_sum evaluates the disks of this many centers at a time; all of
# geometry's lattice at once (3,378 centers x 128 nodes) peaked at 40 MiB
_BESOV_CHUNK = 256


def besov_sum(lattice, deriv, p):
    """Sum over lattice cells of (cell average of tau|phi'|)^p weighted
    by the cell's lambda-measure int dA/tau^2.

    Cell integrals run on a local polar Gauss-Legendre x uniform-angle
    grid over each disk, clipped to {|z| <= r_max}, for _BESOV_CHUNK
    centers at a time; the terms are summed largest first.
    """
    if not p > 0.0:
        raise ValueError(f"besov_sum needs p > 0, got {p}")
    tau_prof = lattice.tau
    gl_x, gl_w = np.polynomial.legendre.leggauss(8)
    s = 0.5 * (gl_x + 1.0)
    ws = 0.5 * gl_w
    psi = 2.0 * np.pi * (np.arange(16) + 0.5) / 16.0
    # local disk nodes: z = z_k + rho * s * e^(i psi), area weight s ds dpsi
    local = (s[:, None] * np.exp(1j * psi)[None, :]).ravel()
    wloc = (ws[:, None] * s[:, None] * np.full((1, 16), 2.0 * np.pi / 16.0)).ravel()

    lim = min(lattice.r_max, tau_prof.r_hi)
    terms = [np.zeros(0)]
    for lo in range(0, len(lattice), _BESOV_CHUNK):
        radii = lattice.radii[lo : lo + _BESOV_CHUNK]
        z = lattice.centers[lo : lo + _BESOV_CHUNK, None] + radii[:, None] * local[None, :]
        rr = np.abs(z)
        mask = rr <= lim
        tz = np.zeros_like(rr)
        tz[mask] = tau_prof(rr[mask])
        fz = np.zeros_like(rr)
        fz[mask] = tz[mask] * deriv(z[mask])
        wm = np.where(mask, wloc[None, :], 0.0)
        rho2 = radii**2
        area = rho2 * wm.sum(axis=1)
        mu = rho2 * (fz * wm).sum(axis=1)
        lam_cells = rho2 * (wm / np.where(mask, tz, 1.0) ** 2).sum(axis=1)
        ok = area > 0.0
        terms.append((mu[ok] / area[ok]) ** p * lam_cells[ok])
    return float(np.sum(np.sort(np.concatenate(terms))[::-1]))

"""Level-set geometry: R(t), its inverse, trace integrals, lattices.

Everything here integrates over the truncated disk {|z| <= r_max} in
polar coordinates with the boundary substitution u = log(1/(1-r)), so
dA/tau^2 = r (1-r) / tau(r)^2 du dtheta.  Integrands like 1/tau^2 are
not integrable up to |z| = 1, so r_max is always an explicit argument
and level_measure reports how much the answer moves when r_max is
pushed halfway closer to 1.

Superlevel sets are resolved per angle: along each radial slice the
crossing of tau|phi'| through the level t is located by linear
interpolation and the boundary cell is split, which keeps the
indicator integral second-order accurate.  Meshes refine dyadically
until successive estimates agree to a relative tolerance.

The Cauchy-type family phi'(z) = 1/((1-z) log^gamma(e/(1-z))) puts all
its mass in a spike of angular width ~ (1-r) around theta = 0, so its
angular mesh is log-graded toward the singular angle; a uniform mesh
aliases the spike and converges to wrong answers while looking stable.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .errors import CoveringError, NonConvergedError, WeightDomainError


# LevelField.rplus holds its field across all probes up to this size;
# finer fields (0.5 GiB for phi = z + c z^2 at level 4) are rebuilt per probe
_FIELD_BYTES = 256 * 2**20

# |w|^2 of the Cauchy-type kernel is a normal, finite double while
# |log |w|| stays below this (|w|^2 within 1e-295 and 1e295)
_LOG_W_MAX = 340.0

# LevelField.rplus probes a held field whole for this many bisection
# steps, then only the cells that straddle its bracket; on the first
# 10-octave bracket nearly every cell straddles
_HELD_STEPS = 6


class SymbolDerivative:
    """|phi'| evaluation for polynomial symbols or the Cauchy-type family.

    Use the classmethods ``polynomial`` (coefficients of phi', constant
    first), ``from_symbol`` (hankel.PolynomialSymbol), or ``ce_family``
    (phi'(z) = 1/((1-z) log^gamma(e/(1-z))), gamma > 1).
    """

    def __init__(self, kind, coeffs=None, gamma=None):
        self.kind = kind
        self.coeffs = coeffs
        self.gamma = gamma

    @classmethod
    def polynomial(cls, coeffs):
        c = np.atleast_1d(np.asarray(coeffs))
        if c.ndim != 1 or len(c) == 0:
            raise ValueError("coeffs of phi' must be a nonempty 1-d sequence")
        if not np.iscomplexobj(c) or np.all(c.imag == 0.0):
            c = c.real.astype(float)
        return cls("poly", coeffs=c)

    @classmethod
    def from_symbol(cls, symbol):
        return cls.polynomial(symbol.derivative_coeffs())

    @classmethod
    def ce_family(cls, gamma):
        if not gamma > 1.0:
            raise WeightDomainError(f"ce family needs gamma > 1, got {gamma}")
        return cls("ce", gamma=float(gamma))

    @property
    def is_radial(self):
        if self.kind != "poly":
            return False
        return np.count_nonzero(self.coeffs) <= 1

    def __call__(self, z):
        """|phi'(z)| at arbitrary complex points."""
        z = np.asarray(z, dtype=complex)
        if self.kind == "poly":
            return np.abs(np.polyval(self.coeffs[::-1], z))
        # w = 1 - z by parts (1 - Re z is exact near z = 1); [()] gives a
        # scalar for a scalar z, as the poly branch does
        zz = np.atleast_1d(z)
        return self._ce_abs(1.0 - zz.real, -zz.imag).reshape(z.shape)[()]

    def radial_abs(self, r):
        """|phi'| on a radius for radial moduli (single-term phi')."""
        if not self.is_radial:
            raise ValueError("symbol derivative modulus is not radial")
        r = np.asarray(r, dtype=float)
        k = np.nonzero(self.coeffs)[0]
        if k.size == 0:
            return np.zeros_like(r)
        return np.abs(self.coeffs[k[0]]) * r ** int(k[0])

    def abs_grid(self, r, theta):
        """|phi'| on an outer(theta, r) polar grid, boundary-stable.

        For the Cauchy-type family w = 1 - z is assembled as
        (1-r) + 2 r sin^2(theta/2) - i r sin(theta), exact near z = 1
        where the naive difference cancels.
        """
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if self.kind == "poly":
            z = r[None, :] * np.exp(1j * theta[:, None])
            return np.abs(np.polyval(self.coeffs[::-1], z))
        s = 1.0 - r
        rew = s[None, :] + 2.0 * r[None, :] * np.sin(0.5 * theta[:, None]) ** 2
        imw = -r[None, :] * np.sin(theta)[:, None]
        return self._ce_abs(rew, imw)

    def _ce_abs(self, rew, imw):
        """1/(|w| |1 - log w|^gamma) from w's real and imaginary parts.

        Real arithmetic only.  log w = L + iA with L = log(|w|^2)/2,
        which skips hypot; where |L| > _LOG_W_MAX, |w|^2 may have
        under- or overflowed and L is log hypot instead.  At w = 0, the
        pole, 1/|w| outgrows log^gamma and the value is +inf.  The
        in-place steps keep block-sized temporaries, so peak memory, down.
        """
        A = np.arctan2(imw, rew)
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
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
        A += (1.0 - L) ** 2
        out = np.exp(-L - 0.5 * self.gamma * np.log(A, out=A), out=A)
        if pole is not None:
            out[pole] = np.inf
        return out

    def __repr__(self):
        if self.kind == "poly":
            c = [complex(v) if np.iscomplexobj(self.coeffs) else float(v) for v in self.coeffs]
            return f"SymbolDerivative.polynomial({c})"
        return f"SymbolDerivative.ce_family(gamma={self.gamma})"


class MeasureResult(float):
    """A float carrying its refinement delta and mesh level and its truncation delta."""

    def __new__(cls, value, refine_error=0.0, r_max_delta=None, level=None):
        obj = super().__new__(cls, value)
        obj.refine_error = refine_error
        obj.r_max_delta = r_max_delta
        obj.level = level
        return obj


def _theta_cells(deriv, r_max, level):
    """Angular nodes and weights so that sum w_j I(theta_j) ~ int I dtheta."""
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


def _crossing_mass(f0, f1, d0, d1, du, t):
    """du-integral over {f > t} of a cell where f crosses t, both linear in u.

    f0, d0 and f1, d1 are the field and dens at the cell's two nodes.
    """
    frac = (t - f0) / (f1 - f0)
    dm = d0 + (d1 - d0) * frac
    left = du * 0.5 * (d0 + dm) * frac
    right = du * 0.5 * (dm + d1) * (1.0 - frac)
    return np.where(f0 > t, left, right)


class LevelField:
    """tau|phi'| on the polar grid of one dyadic mesh level.

    ``dens`` is dA/tau^2 per du dtheta along the u axis and ``blocks()``
    yields (weights, field) pairs of at most 256 angular rows, field
    being tau|phi'| on those rows.  A radial modulus is one row of
    weight 2 pi.  The blocks are built lazily, so ``measure`` and
    ``trace`` hold one block at a time; ``rplus`` holds the whole field
    across its probes while it fits in _FIELD_BYTES.
    """

    def __init__(self, tau_prof, deriv, r_max, level):
        u = np.linspace(0.0, -np.log1p(-r_max), 1024 * 2**level + 1)
        self.du = u[1] - u[0]
        self._r = -np.expm1(-u)
        self._tau = np.asarray(tau_prof(self._r), dtype=float)
        self.dens = self._r * (1.0 - self._r) / self._tau**2
        # the trapezoid rule along u: weights du*dens, halved at both ends
        self._wu = self.du * self.dens
        self._wu[[0, -1]] *= 0.5
        self._deriv = deriv
        if deriv.is_radial:
            self._theta, self._wts = None, np.array([2.0 * np.pi])
        else:
            self._theta, self._wts = _theta_cells(deriv, r_max, level)

    def blocks(self):
        if self._theta is None:
            yield self._wts, (self._tau * self._deriv.radial_abs(self._r))[None, :]
            return
        for lo in range(0, len(self._theta), 256):
            f = self._deriv.abs_grid(self._r, self._theta[lo : lo + 256])
            yield self._wts[lo : lo + 256], self._tau[None, :] * f

    def _slice_integrals(self, f, t):
        """Per-row integral of dens over {f > t} along the u axis.

        The trapezoid rule on the indicator-masked integrand plus a
        linear-crossing correction in each cell where f - t changes sign.
        """
        ind = f > t
        I = (ind * self._wu).sum(axis=1)
        ii, jj = np.nonzero(ind[:, :-1] != ind[:, 1:])
        if ii.size:
            f0 = f[ii, jj]
            d0 = self.dens[jj]
            d1 = self.dens[jj + 1]
            # the masked sum gave the cell the half weight of its one node above t
            counted = np.where(f0 > t, d0, d1) * (self.du * 0.5)
            np.add.at(I, ii, _crossing_mass(f0, f[ii, jj + 1], d0, d1, self.du, t) - counted)
        return I

    def _mass(self, blocks, t):
        total = 0.0
        for wts, f in blocks:
            total += float(wts @ self._slice_integrals(f, t))
        return total

    def measure(self, t):
        """R(t) on this level: the dA/tau^2 mass of {tau|phi'| > t}."""
        return self._mass(self.blocks(), t)

    def trace(self, h):
        """int h(tau|phi'|) dA/tau^2 on this level."""
        total = 0.0
        for wts, f in self.blocks():
            total += float(wts @ (np.asarray(h(f)) * self._wu).sum(axis=1))
        return total

    def _straddling(self, held, cell, t_lo, t_hi):
        """Split the held field's cells by the bracket (t_lo, t_hi].

        ``cell`` is each u cell's whole mass.  Returns the mass of the
        cells above the bracket (both nodes > t_hi), which is whole at
        every t in it, and the node values, left node index and row
        weight of the cells whose range meets it; cells with both nodes
        <= t_lo have no mass there.
        """
        full = 0.0
        parts = []
        for wts, f in held:
            low = np.minimum(f[:, :-1], f[:, 1:])
            full += float(wts @ ((low > t_hi) * cell).sum(axis=1))
            meets = low <= t_hi
            meets &= np.maximum(f[:, :-1], f[:, 1:]) > t_lo
            ii, jj = np.nonzero(meets)
            parts.append((f[ii, jj], f[ii, jj + 1], jj, wts[ii]))
        return (full,) + tuple(np.concatenate(p) for p in zip(*parts))

    def rplus(self, x, t_max, iters=48):
        """R+(x) = sup { t : R(t) >= x } on this level, by bisection in log t.

        t_max is the sup of tau|phi'| (bloch_norm).  R is evaluated on
        the same field at every probe, so it is monotone in t.  The
        returned value is the high end of the final bracket, which
        preserves R+(R(t)) >= t.  If even the smallest probed level has
        R < x the sup runs over an empty set and 0 is returned.

        A held field is probed whole for the first _HELD_STEPS
        bisection steps only; after that only the cells whose range
        meets the bracket are kept, and they drop out as it shrinks.
        """
        if not x > 0.0:
            raise ValueError(f"rplus needs x > 0, got {x}")
        if t_max == 0.0:
            return 0.0
        # the field is rows x columns float64; hold it only if it fits
        held = None
        if len(self._wts) * len(self.dens) * 8 <= _FIELD_BYTES:
            held = list(self.blocks())
            R = lambda t: self._mass(held, t)
        else:
            R = self.measure
        t_hi = t_max * (1.0 + 1e-9)
        if R(t_hi) >= x:
            return t_hi
        t_lo = t_max * 2.0**-10
        while R(t_lo) < x:
            t_lo *= 0.25
            if t_lo < t_max * 1e-15:
                return 0.0
        whole = iters if held is None else min(iters, _HELD_STEPS)
        for _ in range(whole):
            mid = np.sqrt(t_lo * t_hi)
            if R(mid) >= x:
                t_lo = mid
            else:
                t_hi = mid
        if whole == iters:
            return float(t_hi)
        cell = 0.5 * self.du * (self.dens[:-1] + self.dens[1:])
        full, f0, f1, jj, wr = self._straddling(held, cell, t_lo, t_hi)
        del held, R  # release the whole field; only the gathered cells are probed
        for _ in range(iters - whole):
            mid = np.sqrt(t_lo * t_hi)
            a0 = f0 > mid
            a1 = f1 > mid
            both = a0 & a1
            inside = float(wr[both] @ cell[jj[both]])
            c = np.nonzero(a0 != a1)[0]
            j = jj[c]
            cut = _crossing_mass(f0[c], f1[c], self.dens[j], self.dens[j + 1], self.du, mid)
            if full + inside + float(wr[c] @ cut) >= x:
                t_lo = mid
                keep = a0 | a1  # cells at or below mid are empty from here on
            else:
                t_hi = mid
                full += inside  # cells above mid are whole from here on
                keep = ~both
            f0, f1, jj, wr = f0[keep], f1[keep], jj[keep], wr[keep]
        return float(t_hi)


def _refined(fn, rel_tol, max_level):
    prev = fn(0)
    for level in range(1, max_level + 1):
        cur = fn(level)
        scale = max(abs(cur), abs(prev))
        err = abs(cur - prev) / scale if scale > 0.0 else 0.0
        if err < rel_tol:
            return cur, err, level
        prev = cur
    raise NonConvergedError(
        f"dyadic refinement did not reach rel tol {rel_tol:.1e} within "
        f"{max_level} levels (last delta {err:.3e})"
    )


def level_measure(tau_prof, deriv, t, r_max, rel_tol=1e-4, max_level=5, check_r_max=True):
    """R(t) = integral of dA/tau^2 over {tau|phi'| > t, |z| <= r_max}.

    Returns a MeasureResult float whose ``refine_error`` is the last
    dyadic-refinement delta and whose ``r_max_delta`` reports how much
    the value moves when r_max is pushed halfway to 1 (capped at the
    tau profile's own reach).  The caller owns the truncation decision.
    """
    if not t > 0.0:
        raise ValueError(f"level t must be positive, got {t}")
    if not 0.0 < r_max < 1.0:
        raise WeightDomainError(f"r_max must lie in (0, 1), got {r_max}")
    val, err, level = _refined(
        lambda lv: LevelField(tau_prof, deriv, r_max, lv).measure(t), rel_tol, max_level
    )
    delta = None
    if check_r_max:
        r_push = min(0.5 * (1.0 + r_max), tau_prof.r_hi)
        if r_push > r_max:
            delta = abs(LevelField(tau_prof, deriv, r_push, level).measure(t) - val)
        else:
            delta = 0.0
    return MeasureResult(val, refine_error=err, r_max_delta=delta, level=level)


def rearrangement_plus(tau_prof, deriv, x, r_max, rel_tol=1e-4, iters=48):
    """R+(x) = sup { t : R(t) >= x }, by monotone bisection in log t.

    The mesh level is the first one on which R(T/8) converges to
    rel_tol, T the sup of tau|phi'|; LevelField.rplus then bisects on
    that one level.
    """
    if not x > 0.0:
        raise ValueError(f"rearrangement_plus needs x > 0, got {x}")
    T = bloch_norm(tau_prof, deriv, r_max=r_max)
    _, _, level = _refined(
        lambda lv: LevelField(tau_prof, deriv, r_max, lv).measure(T / 8.0), rel_tol, 5
    )
    return LevelField(tau_prof, deriv, r_max, level).rplus(x, T, iters)


def trace_integral(tau_prof, deriv, h, r_max, rel_tol=1e-4, max_level=5):
    """int h(tau |phi'|) dA/tau^2 over {|z| <= r_max}.

    h must be increasing and convex with h(0) = 0; this is spot-checked
    on a geometric sample, the caller owns the rest.
    """
    if not 0.0 < r_max < 1.0:
        raise WeightDomainError(f"r_max must lie in (0, 1), got {r_max}")
    h0 = float(h(np.asarray(0.0)))
    T = max(bloch_norm(tau_prof, deriv, r_max=r_max), 1e-300)
    probe = T * np.logspace(-6, 0, 9)
    hp = np.asarray(h(probe), dtype=float)
    if abs(h0) > 1e-12 * max(1.0, float(hp[-1])):
        raise ValueError(f"h(0) must be 0, got {h0}")
    if np.any(np.diff(hp) < -1e-12 * max(1.0, float(np.max(np.abs(hp))))):
        raise ValueError("h must be nondecreasing on (0, sup tau|phi'|]")
    mids = np.asarray(h(0.5 * (probe[:-1] + probe[1:])), dtype=float)
    if np.any(mids > 0.5 * (hp[:-1] + hp[1:]) + 1e-9 * max(1.0, float(hp[-1]))):
        raise ValueError("h fails midpoint convexity on the spot-check grid")
    val, err, level = _refined(
        lambda lv: LevelField(tau_prof, deriv, r_max, lv).trace(h), rel_tol, max_level
    )
    return MeasureResult(val, refine_error=err, r_max_delta=None, level=level)


def bloch_norm(tau_prof, deriv, r_max=None):
    """sup over |z| <= r_max of tau(r) |phi'(z)|, by grid + local zoom.

    The coarse grid uses the same angular grading as the integrators,
    then the running argmax is refined on shrinking windows.
    """
    if r_max is None:
        r_max = min(tau_prof.r_hi, 1.0 - 1e-9)
    u_max = -np.log1p(-r_max)

    def f_of(u_arr, th_arr):
        r = -np.expm1(-np.asarray(u_arr, dtype=float))
        tau_vals = np.asarray(tau_prof(r), dtype=float)
        if deriv.is_radial:
            return (tau_vals * deriv.radial_abs(r))[None, :]
        return tau_vals[None, :] * deriv.abs_grid(r, np.asarray(th_arr, dtype=float))

    u = np.linspace(0.0, u_max, 2049)
    if deriv.is_radial:
        theta = np.array([0.0])
    else:
        theta, _ = _theta_cells(deriv, r_max, 0)
    f = f_of(u, theta)
    it, iu = np.unravel_index(np.argmax(f), f.shape)
    best = float(f[it, iu])
    if best == 0.0:
        return 0.0
    cu, ct = u[iu], theta[it if not deriv.is_radial else 0]
    wu = u[1] - u[0]
    wt = np.pi / max(len(theta), 1)
    for _ in range(14):
        uu = np.clip(np.linspace(cu - wu, cu + wu, 17), 0.0, u_max)
        tt = np.linspace(ct - wt, ct + wt, 17) if not deriv.is_radial else np.array([0.0])
        fz = f_of(uu, tt)
        it, iu = np.unravel_index(np.argmax(fz), fz.shape)
        best = max(best, float(fz[it, iu]))
        cu = uu[iu]
        if not deriv.is_radial:
            ct = tt[it]
        wu /= 6.0
        wt /= 6.0
    return best


class Lattice:
    """(tau, delta)-lattice: centers with disks D(z_k, delta tau(z_k)).

    ``multiplicity`` is the measured maximum overlap count of the
    b-dilated disks on the verification grid; ``comparability`` is the
    measured tau-ratio constant C over delta*tau displacements.
    """

    def __init__(self, centers, radii, delta, b, multiplicity, comparability, r_max, tau_prof):
        self.centers = centers
        self.radii = radii
        self.delta = delta
        self.b = b
        self.multiplicity = multiplicity
        self.comparability = comparability
        self.r_max = r_max
        self.tau = tau_prof

    def __len__(self):
        return len(self.centers)

    def __repr__(self):
        return (
            f"Lattice(n={len(self)}, delta={self.delta}, b={self.b}, "
            f"multiplicity={self.multiplicity}, C={self.comparability:.3f})"
        )


def _rings(tau_prof, delta, r_start, r_max, phase):
    """Yield (tau(r), points) of the lattice scan rings from r_start out to r_max.

    Rings are delta*tau(r)/8 apart and hold max(8, ceil(2 pi r / step))
    points at angles 2 pi (j + phase)/M; every other ring is turned half
    a cell.  A ring at r = 0 is the single point 0.
    """
    r = r_start
    ring_idx = 0
    while r <= r_max:
        tau_r = float(tau_prof(r))
        step = delta * tau_r / 8.0
        if r == 0.0:
            pts = np.array([0.0 + 0.0j])
        else:
            M = max(8, int(np.ceil(2.0 * np.pi * r / step)))
            th = 2.0 * np.pi * (np.arange(M) + phase + 0.5 * (ring_idx % 2)) / M
            pts = r * np.exp(1j * th)
        yield tau_r, pts
        r += step
        ring_idx += 1


def _tree(z):
    return cKDTree(np.column_stack([z.real, z.imag]))


def build_lattice(tau_prof, delta, r_max, b=1.25):
    """Greedy (tau, delta)-lattice on {|z| <= r_max}, covering-verified.

    Scan rings are delta*tau/8 apart; a scanned point becomes a center
    iff it lies in no accepted disk D(z_k, delta tau(z_k)), which makes
    the accepted set maximal on the scan grid: separation >=
    delta*tau(z_k) gives the shrunk-disk disjointness for any C >= 1,
    and maximality makes the b-dilated disks cover as long as
    b >= 1 + C/8.  Covering is then verified on an offset grid and the
    failure carries an uncovered witness.
    """
    if not 0.0 < delta <= 0.5:
        raise WeightDomainError(f"delta must lie in (0, 0.5], got {delta}")
    if not 0.0 < r_max < 1.0 or r_max > tau_prof.r_hi:
        raise WeightDomainError(
            f"r_max must lie in (0, 1) within the profile reach {tau_prof.r_hi}"
        )
    C = tau_prof.measured_comparability(delta, r_max)
    if 1.0 + C / 8.0 > b:
        raise WeightDomainError(
            f"dilation b={b} cannot cover: measured comparability C={C:.3f} "
            f"needs b >= {1.0 + C / 8.0:.3f}"
        )

    centers = np.empty(0, dtype=complex)
    taus = np.empty(0)
    for tau_r, cand in _rings(tau_prof, delta, 0.0, r_max, 0.0):
        # the KD distances only select the pairs within reach of the ring;
        # the strict disk test on them is exact
        reach = delta * C * tau_r * 1.0001 + 1e-15
        pairs = _tree(cand).sparse_distance_matrix(_tree(centers), reach, output_type="ndarray")
        ic, kc = pairs["i"], pairs["j"]
        keep = np.ones(len(cand), dtype=bool)
        keep[ic[np.abs(cand[ic] - centers[kc]) < delta * taus[kc]]] = False
        # sequential intra-ring acceptance
        accepted_here = []
        for i in np.nonzero(keep)[0]:
            ok = True
            for zc, tz in accepted_here:
                if abs(cand[i] - zc) < delta * tz:
                    ok = False
                    break
            if ok:
                tz = float(tau_prof(abs(cand[i])))
                accepted_here.append((cand[i], tz))
        if accepted_here:
            zs, ts = zip(*accepted_here)
            centers = np.concatenate([centers, zs])
            taus = np.concatenate([taus, ts])

    # verification grid: rings offset by half a step, angles offset too
    r0 = 0.5 * delta * float(tau_prof(0.0)) / 8.0
    test = np.concatenate(
        [[r0 + 0.0j]] + [pts for _, pts in _rings(tau_prof, delta, r0, r_max, 0.25)]
    )
    test = test[np.abs(test) <= r_max]
    counts, covered = _cover_counts(test, centers, taus, delta, b)
    miss = np.nonzero(~covered)[0]
    if miss.size:
        # maximality only guarantees coverage by the dilated disks
        dil_miss = np.nonzero(counts == 0)[0]
        if dil_miss.size:
            wz = complex(test[dil_miss[0]])
            raise CoveringError(
                f"dilated disks leave {dil_miss.size} verification points "
                f"uncovered, first at {wz:.6f}",
                witness=wz,
            )
    mult = int(counts.max()) if len(counts) else 0
    return Lattice(centers, delta * taus, delta, b, mult, C, r_max, tau_prof)


def _cover_counts(test, centers, taus, delta, b):
    """Per test point: how many b-dilated disks hold it, and whether an undilated one does."""
    ttree = _tree(test)
    counts = np.zeros(len(test), dtype=np.int32)
    covered = np.zeros(len(test), dtype=bool)
    for zc, tz in zip(centers, taus):
        hit = np.array(ttree.query_ball_point([zc.real, zc.imag], b * delta * tz), dtype=np.intp)
        counts[hit] += 1
        covered[hit[np.abs(test[hit] - zc) <= delta * tz]] = True
    return counts, covered


def besov_sum(lattice, deriv, p):
    """Sum over lattice cells of (cell average of tau|phi'|)^p weighted
    by the cell's lambda-measure int dA/tau^2.

    Cell integrals run on a local polar Gauss-Legendre x uniform-angle
    grid over each disk, clipped to {|z| <= r_max}.
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

    z = lattice.centers[:, None] + lattice.radii[:, None] * local[None, :]
    rr = np.abs(z)
    lim = min(lattice.r_max, tau_prof.r_hi)
    mask = rr <= lim
    tz = np.zeros_like(rr)
    tz[mask] = tau_prof(rr[mask])
    fz = np.zeros_like(rr)
    fz[mask] = tz[mask] * deriv(z[mask])
    wm = np.where(mask, wloc[None, :], 0.0)
    rho2 = lattice.radii**2
    area = rho2 * wm.sum(axis=1)
    mu = rho2 * (fz * wm).sum(axis=1)
    lam_cells = rho2 * (wm / np.where(mask, tz, 1.0) ** 2).sum(axis=1)
    ok = area > 0.0
    avg = np.zeros(len(area))
    avg[ok] = mu[ok] / area[ok]
    return float(np.sum(np.sort(avg[ok] ** p * lam_cells[ok])[::-1]))

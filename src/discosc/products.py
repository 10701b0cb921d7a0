"""Canonical products over disc zero sequences, evaluated in log space.

Factors are E(w_n(z), s) with w_n(z) = (1 - |z_n|^2) / (1 - conj(z_n) z),
E(w, 0) = 1 - w and E(w, s) = (1 - w) exp(w + w^2/2 + ... + w^s/s).  Every
evaluation sums per-factor principal logs; moduli are exact and phase
ambiguities cancel in the ratios consumed downstream (P'/P, P''/P, term
ratios).

Every per-factor quantity -- the factor logs, the first and second
log-derivatives, the node targets and the interpolation series' term logs --
is built from one pair of pieces per point and node, (z - z_n,
1 - conj(z_n) z).  _pieces forms them at given points; _offset_pieces forms
them at z_k + d without materialising the sum (one node k per row), which
keeps contours around deep nodes accurate.  Points x nodes passes loop over
_blocks, which holds each block to at most _BLOCK_PAIRS points x nodes pairs
(and _CHUNK points), so a block's temporaries stay cache-sized at any node
count; the nearest-node search and the exclusion rule take their distances
over the same blocks.
Their principal logs come from numutil.clog, log|z| + i atan2(Im z, Re z):
the branch cut and signed zeros of np.log at a fraction of the cost, and
accurate to the absolute rounding the pieces already carry.

Stability notes baked into the implementation:

* 1 - w_n(z) is always formed from the pieces as
  -conj(z_n) (z - z_n) / (1 - conj(z_n) z), which vanishes exactly at the
  node and never suffers cancellation.
* A zero at the origin would make w identically 1, so that point
  contributes a plain factor z instead.
* Near-boundary denominators use the regrouped 1 - conj(a) b helper.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .numutil import (CONTOUR_MAX_POINTS, circle_fault, circle_max,
                      circle_modes, circle_nodes, clog, clog1p_sum,
                      disc_points, flat_points, like_input, nested_circle,
                      one_minus_abs, one_minus_abs2, one_minus_conj_mul)
from .sequences import ZeroSequence, blaschke_sum, log_integrated_count

__all__ = [
    "CanonicalProduct",
    "primary_factor",
]

# points per block of every points x nodes pass (products, series, targets)
_CHUNK = 512
# points x nodes pairs per block: a complex temporary of 2^15 pairs is
# 512 KB, which stays in cache where a (512, N) one leaves it for N in the
# hundreds
_BLOCK_PAIRS = 2 ** 15
# first grid of the exclusion-circle contour (see node_contour_modes)
NODE_CONTOUR_START_POINTS = 32
# on the exclusion circle of node k, factors with |z_n - z_k| <
# NODE_NEAR_RATIO r_k are taken exactly at every grid point; the others
# enter through NODE_FAR_SAMPLES centred samples (see _far_field)
NODE_NEAR_RATIO = 16.0
NODE_FAR_SAMPLES = 16


def harmonic_sum(s: int) -> float:
    """1 + 1/2 + ... + 1/s (0 for s = 0)."""
    return float(sum(1.0 / j for j in range(1, s + 1)))


def _poly_part(w, s: int):
    """w + w^2/2 + ... + w^s/s, elementwise (zeros for s = 0)."""
    w = np.asarray(w, dtype=complex)
    if s == 0:
        return np.zeros_like(w)
    acc = pw = w
    for j in range(2, s + 1):
        pw = pw * w
        acc = acc + pw / j
    return acc


def _poly_diff(w, w0, dw, s: int):
    """_poly_part(w, s) - _poly_part(w0, s) from dw = w - w0, through
    w^j - w0^j = w (w^(j-1) - w0^(j-1)) + w0^(j-1) dw, so a small dw keeps
    its relative accuracy (zeros for s = 0)."""
    if s == 0:
        return np.zeros_like(dw)
    acc = d = dw
    p0 = 1.0
    for j in range(2, s + 1):
        p0 = p0 * w0
        d = w * d + p0 * dw
        acc = acc + d / j
    return acc


class NodeModes(NamedTuple):
    """Fourier modes of P on exclusion circles, one entry per node:
    m1 = P'(z_k) r_k e^-scale and m2 = P''(z_k) r_k^2 e^-scale / 2, and
    the grid size of the round on which both settled."""
    scale: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    points: np.ndarray


def primary_factor(w, s: int):
    """E(w, s) = (1 - w) exp(w + ... + w^s/s)."""
    if s < 0:
        raise ValueError("genus must be nonnegative")
    w = np.asarray(w, dtype=complex)
    return (1.0 - w) * np.exp(_poly_part(w, s))


class CanonicalProduct:
    """Genus-s product over a zero sequence with per-node exclusion discs.

    The exclusion radius of node k is r_k = min(nn_k/4, (1 - |z_k|)/8), nn_k
    its nearest-neighbour distance; node_contour_modes relies on this rule,
    and the coefficient's node jets on the disc of radius 4 r_k about z_k
    that it leaves free of other nodes.  Inside the exclusion disc of a node
    the full product is numerically dominated by its vanishing factor; the
    deleted product, the regular part of the node's own log-derivative and
    the node derivatives are exact there, while log_eval refuses and asks
    the caller to use those forms.
    """

    def __init__(self, zeros: ZeroSequence, genus: int):
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        self.zeros = zeros
        self.genus = int(genus)
        z = zeros.points
        self.z = z
        mod = np.abs(z)
        sub = (mod > 0.0) & (mod < np.finfo(float).tiny)
        if np.any(sub):
            k = int(np.flatnonzero(sub)[0])
            raise ValueError(
                f"node {k} has subnormal modulus {mod[k]:.3g}: its factor "
                f"1 - w_n underflows to 0 in binary64")
        self._zc = np.conjugate(z)
        self._gap2 = one_minus_abs2(z)          # 1 - |z_n|^2
        self._gap = one_minus_abs(z)            # 1 - |z_n|
        # complex 1 - |z_n|^2 and (s+2) conj(z_n)/(1 - |z_n|^2) for the
        # log-derivative kernel
        self._gap2c = self._gap2.astype(complex)
        self._dlog_coef = (self.genus + 2.0) * self._zc / self._gap2
        # column of the node at the origin (the zeros are distinct), or None
        origin = np.flatnonzero(z == 0.0)
        self._origin_idx = int(origin[0]) if origin.size else None
        self.exclusion_radii = self._exclusion_rule()
        # the nodes sorted for node_index, with nan after them so that a
        # search past the last node misses, and their indices (-1 for nan)
        order = np.argsort(z)
        self._sorted_nodes = (np.append(z[order], np.nan),
                              np.append(order, -1))
        self.convergence_sum = blaschke_sum(zeros, self.genus).value
        self._deleted_logs: np.ndarray | None = None

    # -- geometry ----------------------------------------------------------

    def _exclusion_rule(self) -> np.ndarray:
        """r_k = min(nn_k/4, (1 - |z_k|)/8), with the nearest-neighbour
        distances nn_k taken over _distances (inf for a lone node)."""
        nn = np.empty(self.z.size)
        for sl, d in self._distances(self.z):
            d[np.arange(d.shape[0]), np.arange(sl.start, sl.stop)] = math.inf
            nn[sl] = np.min(d, axis=1)
        return np.minimum(nn / 4.0, self._gap / 8.0)

    def nearest_node(self, pts):
        """(index, distance) of each point's closest node, over _distances
        (-1 and inf without nodes)."""
        pts = np.atleast_1d(np.asarray(pts, dtype=complex))
        flat = pts.ravel()
        idx, dist = np.full(flat.size, -1), np.full(flat.size, math.inf)
        for sl, d in self._distances(flat if self.z.size else flat[:0]):
            i = np.argmin(d, axis=1)
            idx[sl] = i
            dist[sl] = d[np.arange(i.size), i]
        return idx.reshape(pts.shape), dist.reshape(pts.shape)

    def node_index(self, pts):
        """Index of the node equal to each point (signed zeros equal), or
        -1, from one sort of the nodes and a binary search."""
        pts = np.asarray(pts, dtype=complex)
        zs, ids = self._sorted_nodes
        at = np.searchsorted(zs, pts)
        return np.where(zs[at] == pts, ids[at], -1)

    def _exclusion(self, pts):
        """(inside its disc, index, distance) of each point's nearest node."""
        idx, dist = self.nearest_node(pts)
        radii = self.exclusion_radii[idx] if self.z.size else 0.0
        return dist <= radii, idx, dist

    def in_exclusion(self, pts):
        return self._exclusion(pts)[:2]

    def require_outside_exclusion(self, pts, what: str = "point"):
        """Raise ValueError naming the first point inside an exclusion disc;
        otherwise return each point's distance to its nearest node."""
        pts = np.atleast_1d(pts)
        bad, idx, dist = self._exclusion(pts)
        if np.any(bad):
            j = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"{what} {pts.flat[j]:.6g} lies in the exclusion disc of "
                f"node {int(idx.flat[j])}")
        return dist

    # -- per-factor pieces and kernels --------------------------------------

    def _pieces(self, pts: np.ndarray):
        """(z - z_n, 1 - conj(z_n) z), shape (len(pts), n_zeros) each."""
        p = np.asarray(pts, dtype=complex)[:, None]
        return p - self.z[None, :], one_minus_conj_mul(self.z[None, :], p)

    def _slices(self, size: int):
        """Slices of size points in blocks of min(_CHUNK, _BLOCK_PAIRS //
        n_zeros) points, at least one: every block holds at most
        _BLOCK_PAIRS points x nodes pairs (one point at a time past
        _BLOCK_PAIRS nodes).  Each point's row is computed on its own, so
        the block size moves no value; it follows the node count, so at
        N <= 64 nodes blocks keep _CHUNK points."""
        step = max(1, min(_CHUNK, _BLOCK_PAIRS // max(self.z.size, 1)))
        for lo in range(0, size, step):
            yield slice(lo, min(lo + step, size))

    def _blocks(self, pts: np.ndarray):
        """Yield (slice, pieces) over pts by _slices, so memory stays
        O(_BLOCK_PAIRS) however many points are asked."""
        for sl in self._slices(pts.size):
            yield (sl, *self._pieces(pts[sl]))

    def _distances(self, pts: np.ndarray):
        """Yield (slice, |z - z_n|) over pts by _slices."""
        for sl in self._slices(pts.size):
            yield sl, np.abs(pts[sl, None] - self.z[None, :])

    def _offset_pieces(self, k, d, cols=slice(None)):
        """The pieces at z_k + d, computed without forming the sum.

        k (node indices: one, or one per row) and d broadcast together; the
        factors (all, or the indices cols) run along a new last axis.
        Materialising z_k + d rounds the offset into the gap of z_k, which
        destroys contour accuracy at deep nodes; here every factor uses the
        exact pieces (z_k - z_n) + d and (1 - conj(z_n) z_k) - conj(z_n) d.
        """
        zk = np.asarray(self.z[k])[..., None]
        dd = np.asarray(d, dtype=complex)[..., None]
        zn = self.z[cols]
        return ((zk - zn) + dd,
                one_minus_conj_mul(zn, zk) - self._zc[cols] * dd)

    def _factor_logs(self, delta: np.ndarray, den: np.ndarray,
                     cols=None) -> np.ndarray:
        """Per-factor principal logs from the pieces (delta, den) of every
        factor, or of the factors indexed by cols (broadcasting with the
        pieces).

        Exact zeros produce -inf entries; callers mask as appropriate.
        """
        zc = self._zc if cols is None else self._zc[cols]
        omw = -zc * delta / den
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = clog(omw) + _poly_part(1.0 - omw, self.genus)
            i = self._origin_idx
            if i is not None and cols is None:
                logs[..., i] = clog(delta[..., i])
            elif i is not None and np.any(cols == i):
                at = np.broadcast_to(cols == i, logs.shape)
                logs[at] = clog(delta[at])
        return logs

    def _log_derivatives(self, delta: np.ndarray, w: np.ndarray):
        """Per-factor (dlog E, d2log E) from z - z_n and w = w_n(z).

        With u = conj(z_n)/(1 - conj(z_n) z) and w = w_n(z),

            dlog E = -u w^(s+1) / (1 - w)
            d2log E = -u^2 w^(s+1) [ (s+2)/(1-w) + w/(1-w)^2 ]

        Since 1 - w = -u (z - z_n) and u = w conj(z_n)/(1 - |z_n|^2), these
        are dlog E = w^(s+1)/(z - z_n) and d2log E = dlog E * w *
        ((s+2) conj(z_n)/(1 - |z_n|^2) - 1/(z - z_n)): two complex
        divisions per factor.  Callers take w as (1 - |z_n|^2)/(1 -
        conj(z_n) z), so small |w| keep full relative accuracy.  A node at
        the origin (w = 1) gives 1/z and -1/z^2 from the same forms.
        """
        inv = 1.0 / delta
        L = w * inv
        for _ in range(self.genus):
            L = L * w
        dL = L * (w * self._dlog_coef - w * inv)
        return L, dL

    def _regular_part(self, k, den, w, order: int):
        """[R, R', ..., R^(order)] for R = dlog E_k - 1/(z - z_k), the
        regular part of factor k's log-derivative, from den = 1 - conj(z_k)
        z and w = w_k(z) (k, den and w broadcast together).

        dlog E_k = w^(s+1)/(z - z_k) and 1 - w = -v (z - z_k) with v =
        conj(z_k)/den, so R = (w^(s+1) - 1)/(z - z_k) = v sum_{j<=s} w^j
        with no cancellation; dv/dz = v^2 and dw/dz = v w then give

            R^(m) = m! v^(m+1) sum_{j<=s} C(j+m, m) w^j.

        A node at the origin (a plain factor z) has v = 0: R vanishes.
        """
        v = self._zc[k] / den
        out = []
        for m in range(order + 1):
            acc = 0.0
            for j in range(self.genus, -1, -1):
                acc = acc * w + math.comb(j + m, m)
            out.append(math.factorial(m) * v ** (m + 1) * acc)
        return out

    def _raw_log_eval(self, pts: np.ndarray) -> np.ndarray:
        """Row sums of the factor logs over _blocks(pts)."""
        if self.z.size == 0:
            return np.zeros(pts.shape, dtype=complex)
        out = np.empty(pts.size, dtype=complex)
        for sl, delta, den in self._blocks(pts):
            out[sl] = np.sum(self._factor_logs(delta, den), axis=1)
        return out

    def log_eval(self, z):
        """Sum of factor logs at z; Re is exact log|P(z)|.

        Requires z inside the disc and outside every exclusion disc; use the
        deleted/ratio accessors near nodes.
        """
        arr = disc_points(z)
        self.require_outside_exclusion(arr)
        return like_input(self._raw_log_eval(arr), z)

    def eval(self, z):
        arr = disc_points(z)
        vals = np.exp(self._raw_log_eval(arr))
        vals[self.node_index(arr) >= 0] = 0.0
        return like_input(vals, z)

    def deleted_log_eval(self, k: int, z):
        """Log of the product with factor k removed; finite at z = z_k."""
        self._check_index(k)
        logs = self._factor_logs(*self._pieces(disc_points(z)))
        mask = np.ones(self.z.size, dtype=bool)
        mask[k] = False
        return like_input(np.sum(logs[:, mask], axis=1), z)

    def _check_index(self, k: int) -> None:
        if not (0 <= k < self.z.size):
            raise IndexError(f"node index {k} out of range")

    def node_deleted_logs(self) -> np.ndarray:
        """Deleted-product logs at every node, sum over n != k of log
        E_n(z_k), from one blocked nodes x nodes pass (cached).  Each row
        sums its N - 1 off-diagonal logs contiguously, as deleted_log_eval
        does at a single node: the logs after the diagonal move one place
        left, in place."""
        if self._deleted_logs is None:
            out = np.empty(self.z.size, dtype=complex)
            for sl, delta, den in self._blocks(self.z):
                logs = self._factor_logs(delta, den)
                for i, row in enumerate(logs, start=sl.start):
                    row[i:-1] = row[i + 1:]
                out[sl] = np.sum(logs[:, :-1], axis=1)
            self._deleted_logs = out
        return self._deleted_logs

    def node_deleted_log(self, k: int) -> complex:
        """Deleted-product log at the node itself."""
        self._check_index(k)
        return complex(self.node_deleted_logs()[k])

    # -- node derivatives --------------------------------------------------

    def log_derivative_at_zero(self, k: int) -> complex:
        """Complex log of P'(z_k) via the deleted-product identity.

        P'(z_k) = -conj(z_k) B_k(z_k) e^{H_s} / (1 - |z_k|^2) for ordinary
        nodes; a node at the origin contributes a plain factor z, so there
        P'(0) = B_k(0).
        """
        self._check_index(k)
        if k == self._origin_idx:
            return self.node_deleted_log(k)
        coeff = -self._zc[k] / self._gap2[k]
        return (self.node_deleted_log(k) + harmonic_sum(self.genus)
                + complex(np.log(complex(coeff))))

    def _far_tail_bound(self, r, dist, den, far):
        """Per row, a bound on the error of the NODE_FAR_SAMPLES-point
        interpolant of the centred far sum F (see _far_field) anywhere on
        the circle |u| = r, from |z_k - z_n| (dist) and den_n at the node.

        The centred log of factor n is log1p(u/(z_k - z_n)) -
        log1p(-conj(z_n) u/den_n) + poly(w_n(z_k + u)) - poly(w_n(z_k)),
        with den_n = 1 - conj(z_n) z_k and w_n(z_k + u) = w_n(z_k)/(1 -
        conj(z_n) u/den_n).  With q = r/|z_k - z_n|, which bounds r
        |z_n|/|den_n| as well (the reflected pole 1/conj(z_n) lies farther
        out than z_n), its Taylor coefficients in u, scaled to the circle,
        are at most q^j/j for each log1p and |w_n(z_k)|^i/i C(j+i-1, i-1)
        q^j for the term w^i/i of the polynomial part.  With M samples,
        modes j >= M alias onto modes 0..M-1 and are cut off, so the
        interpolant is off by at most twice their sum, which C(M+t+i-1,
        i-1) <= C(M+i-1, i-1) C(t+i-1, i-1) bounds in closed form:

            sum_{j>=M} q^j/j <= q^M/(M (1-q)),
            sum_{j>=M} C(j+i-1, i-1) q^j <= C(M+i-1, i-1) q^M/(1-q)^i.

        Far factors have q <= 1/NODE_NEAR_RATIO, so at 16 samples each adds
        at most about 1e-20 (Trefethen & Weideman, "The exponentially
        convergent trapezoidal rule", SIAM Rev. 56, 2014).
        """
        m = NODE_FAR_SAMPLES
        with np.errstate(divide="ignore"):
            q = np.where(far, r / dist, 0.0)
        inv = 1.0 / (1.0 - q)
        acc = 2.0 / m * inv
        wq = np.abs(self._gap2 / den) * inv
        power = 1.0
        for i in range(1, self.genus + 1):
            power = power * wq
            acc += math.comb(m + i - 1, i - 1) / i * power
        return 2.0 * np.sum(q ** m * acc, axis=1)

    def _far_field(self, nodes: np.ndarray):
        """(const, coef, near) for the exclusion circles of the given nodes.

        For node k the far factors are those with |z_n - z_k| >=
        NODE_NEAR_RATIO r_k; near[i] lists the others, node k included.
        On the circle z_k + u, |u| = r_k, the far factors' log sum is
        const_k + F_k(u): const_k = sum_far log E_n(z_k) at the node, and
        the centred F_k(u) = sum_far log1p(u w_n(z_k + u)/(z_k - z_n)) +
        poly(w_n(z_k + u)) - poly(w_n(z_k)), which is log E_n(z_k + u) -
        log E_n(z_k) up to 2 pi i since (1 - w_n(z_k + u))/(1 - w_n(z_k)) =
        1 + u w_n(z_k + u)/(z_k - z_n).  A centred term is at most about
        |u|/|z_k - z_n| <= 1/NODE_NEAR_RATIO in size and its rounding eps
        times that, where an uncentred log carries eps |log E_n| (uncentred
        samples lift the origin-node mismatch of the N = 2686 lattice from
        4e-7 to 1e-6 and more).  F_k is analytic for |u| < min_far |z_n -
        z_k|, so it has no negative Fourier modes on the circle; coef[i]
        holds its modes 0..M-1 from the DFT of M = NODE_FAR_SAMPLES
        samples.  Raises RuntimeError naming the node when _far_tail_bound
        exceeds the unit roundoff, i.e. when the interpolant could add more
        than one rounding to a circle value.  Only factor values enter.
        """
        m = NODE_FAR_SAMPLES
        _, unit = circle_nodes(m)
        # the m-point DFT as a matrix: mode j of the samples
        dft = np.conj(np.vander(unit, m, increasing=True)) / m
        const = np.empty(nodes.size, dtype=complex)
        coef = np.empty((nodes.size, m), dtype=complex)
        near = []
        eps = float(np.finfo(float).eps)
        step = max(1, _CHUNK // m)
        for lo in range(0, nodes.size, step):
            blk = nodes[lo:lo + step]
            r = self.exclusion_radii[blk][:, None]
            delta, den = self._pieces(self.z[blk])
            dist = np.abs(delta)
            far = dist >= NODE_NEAR_RATIO * r
            rows, cols = np.nonzero(~far)
            near += np.split(cols, np.cumsum(np.bincount(
                rows, minlength=len(blk)))[:-1])
            bound = self._far_tail_bound(r, dist, den, far)
            if np.any(bound > eps):
                i = int(np.flatnonzero(bound > eps)[0])
                raise RuntimeError(
                    f"far field of node {int(blk[i])}: Fourier tail bound "
                    f"{bound[i]:.2e} at {m} samples exceeds the unit "
                    f"roundoff {eps:.2e}")
            const[lo:lo + step] = np.sum(
                np.where(far, self._factor_logs(delta, den), 0.0), axis=1)
            # near columns get 1/(z_k - z_n) = conj(z_n)/den_n = 0, so they
            # add exactly 0 below
            with np.errstate(divide="ignore", invalid="ignore"):
                inv = np.where(far, 1.0 / delta, 0.0)
            c = np.where(far, self._zc / den, 0.0)
            w0 = self._gap2c / den
            vals = np.empty((len(blk), m), dtype=complex)
            # one sample at a time keeps the temporaries cache-sized
            for j, u in enumerate((r * unit).T):
                v = c * u[:, None]
                w = w0 / (1.0 - v)
                vals[:, j] = (clog1p_sum(u[:, None] * inv * w, axis=1)
                              + np.sum(_poly_diff(w, w0, w * v, self.genus),
                                       axis=1))
            coef[lo:lo + step] = vals @ dft
        return const, coef, near

    def node_contour_modes(self, nodes=None) -> NodeModes:
        """Fourier modes of P on the exclusion circles of the given nodes
        (all by default), in one pass over blocks of nodes.

        On the circle z_k + r_k e^{i theta} the factor logs split as in
        _far_field: the near factors (|z_n - z_k| < NODE_NEAR_RATIO r_k,
        node k included) are taken exactly at every grid point from the
        offset pieces and summed along the factor axis, and the far ones
        add const_k + F_k, with F_k evaluated on each grid from its
        NODE_FAR_SAMPLES Fourier modes.  The nested_circle rounds run until
        both modes of a node move by at most 1e-9 (1 + |m|); scale, the
        first round's maximum of Re log P, stays frozen so that the rounds
        compare in one unit, and const_k enters only the returned scale and
        the modes' phase.

        The rounds start at NODE_CONTOUR_START_POINTS = 32, not at the 64
        of the other contours.  The exclusion rule r = min(nn/4, (1 -
        |z_k|)/8) keeps every other zero at least 4r and the unit circle at
        least 8r from z_k, so P is analytic on the disc of radius 4r about
        z_k and, by the Cauchy estimate there, mode j of P on the circle is
        at most M(4r) 4^-j (M = maximum of |P| on a circle about z_k).  The
        m-point trapezoid rule aliases mode j with mode j + m, so modes 1
        and 2 carry an error of order (M(4r)/M(r)) 4^-m relative to the
        circle maximum: 4^-32 ~ 5e-20 at 32 points, far below binary64
        (Trefethen & Weideman, SIAM Rev. 56, 2014).  The 64-point round
        still certifies the 32-point modes under the same drift test.

        The near sums cost (near factors) x 64 per node and the far field
        N x 16, against N x 64 for all factors on the grid.  A block holds
        at most _CHUNK / 32 nodes, so the temporaries of its 32-point rounds
        have _CHUNK rows, as in the other passes, by its longest near list.
        Its nodes' near counts lie within a factor 1.5 of each other (the
        lists are padded to the longest with factors that add 0), so padding
        stays below a third of the near work.
        """
        nodes = (np.arange(self.z.size) if nodes is None
                 else np.atleast_1d(np.asarray(nodes, dtype=int)))
        bad = (nodes < 0) | (nodes >= self.z.size)
        if np.any(bad):
            raise IndexError(f"node index {nodes[bad][0]} out of range")
        const, coef, near = self._far_field(nodes)
        out = NodeModes(np.empty(nodes.size), np.empty(nodes.size, complex),
                        np.empty(nodes.size, complex),
                        np.zeros(nodes.size, dtype=int))
        counts = np.array([c.size for c in near], dtype=int)
        order = np.argsort(counts, kind="stable")
        start = NODE_CONTOUR_START_POINTS
        lo = 0
        while lo < order.size:
            hi = lo + 1
            while (hi < order.size and (hi + 1 - lo) * start <= _CHUNK
                   and counts[order[hi]] <= 1.5 * counts[order[lo]]):
                hi += 1
            self._near_rounds(nodes, order[lo:hi], near, const, coef, out)
            lo = hi
        return out

    def _near_rounds(self, nodes, blk, near, const, coef, out) -> None:
        """The nested_circle rounds of node_contour_modes for the nodes
        nodes[blk]; fills out at those positions."""
        ks = nodes[blk]
        width = max(near[i].size for i in blk)
        # pad each near list with node k itself, masked to 0 below
        cols = np.array([np.concatenate([near[i], np.full(
            width - near[i].size, nodes[i])]) for i in blk])[:, None, :]
        valid = (np.arange(width)[None, :]
                 < np.array([near[i].size for i in blk])[:, None])[:, None, :]
        r = self.exclusion_radii[ks][:, None]
        start = NODE_CONTOUR_START_POINTS

        def logs(unit):
            vals = []
            for i in range(0, unit.size, start):
                part = unit[i:i + start]
                pieces = self._offset_pieces(ks[:, None], r * part, cols)
                fl = self._factor_logs(*pieces, cols)
                vals.append(np.sum(np.where(valid, fl, 0.0), axis=2)
                            + coef[blk] @ np.vander(part, NODE_FAR_SAMPLES,
                                                    increasing=True).T)
            return np.concatenate(vals, axis=1)

        scale = prev = None
        done = np.zeros(ks.size, dtype=bool)
        for theta, _, vals in nested_circle(logs, CONTOUR_MAX_POINTS, start):
            fault = circle_fault(vals)
            if fault is not None:
                raise RuntimeError(f"exclusion circle of node "
                                   f"{int(ks[fault[0]])}: {fault[1]}")
            scale, cur = circle_modes(theta, vals, (1, 2), scale)
            if prev is not None:
                new = ~done & np.all(
                    np.abs(cur - prev) <= 1e-9 * (1.0 + np.abs(cur)), axis=1)
                sel = blk[new]
                phase = np.exp(1j * const[sel].imag)
                out.scale[sel] = scale[new] + const[sel].real
                out.m1[sel] = cur[new, 0] * phase
                out.m2[sel] = cur[new, 1] * phase
                out.points[sel] = theta.size
                done |= new
                if np.all(done):
                    return
            prev = cur
        raise RuntimeError(
            f"exclusion-circle contour at node {int(ks[~done][0])} did not "
            f"converge within {CONTOUR_MAX_POINTS} points")

    # -- logarithmic derivative sums --------------------------------------

    def log_derivative_sums(self, pts):
        """(P'/P, P''/P) at points outside all exclusion discs.

        Sums of the per-factor _log_derivatives, with
        P''/P = (P'/P)^2 + sum d2log E.
        """
        arr = flat_points(pts)
        self.require_outside_exclusion(arr)
        lam, dlam = np.zeros((2, arr.size), dtype=complex)
        for sl, delta, den in self._blocks(arr):
            L, dL = self._log_derivatives(delta, self._gap2c / den)
            lam[sl] = np.sum(L, axis=1)
            dlam[sl] = np.sum(dL, axis=1)
        return like_input(lam, pts), like_input(lam * lam + dlam, pts)

    # -- diagnostics -------------------------------------------------------

    def balance_check(self, k: int, delta: float = 0.5):
        """(lhs, rhs) of the deleted-product / integrated-count balance.

        lhs = | log|B_k(z_k)| + N_{z_k}(delta (1 - |z_k|)) |,
        rhs = sum_n |(1 - |z_n|^2)/(1 - conj(z_n) z_k)|^(s+1).
        The ratio lhs/rhs over nodes estimates the balance constant.
        """
        self._check_index(k)
        if not (0.0 < delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        zk = self.z[k]
        lhs = abs(self.node_deleted_log(k).real
                  + log_integrated_count(self.zeros, zk,
                                         delta * self._gap[k]))
        ratios = np.abs(self._gap2 / one_minus_conj_mul(self.z, zk))
        rhs = float(np.sum(ratios ** (self.genus + 1)))
        return float(lhs), rhs

    def balance_checks(self, delta: float = 0.5):
        """(lhs, rhs) of balance_check at every node, as two arrays, from
        one blocked nodes x nodes pass.  Each node's distances are sorted
        and its logs and ratios summed in balance_check's order, so every
        entry equals the single-node form bit for bit."""
        if not (0.0 < delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        # before the blocks below, as in balance_check: taken after them,
        # the deleted-log pass raised ru_maxrss of the N = 368 build by 7 MB
        deleted = self.node_deleted_logs().real
        count, rhs = np.zeros(self.z.size), np.empty(self.z.size)
        radius = delta * self._gap
        for sl, diff, den in self._blocks(self.z):
            dist = np.abs(diff)
            r = radius[sl, None]
            # the node itself (distance 0) and the others within r: only
            # these smallest distances are sorted, and the node is dropped
            inside = np.sum(dist <= r, axis=1) - 1
            m = int(np.max(inside, initial=0)) + 1
            if m < dist.shape[1]:
                dist = np.partition(dist, m, axis=1)[:, :m]
            d = np.sort(dist, axis=1)[:, 1:m]
            if np.any(d == 0.0):
                raise ValueError("two sequence points coincide with the "
                                 "center")
            logs = np.log(r / d)
            for i in np.flatnonzero(inside):
                count[sl.start + i] = np.sum(logs[i, :inside[i]])
            ratios = np.abs(self._gap2c / den)
            rhs[sl] = np.sum(ratios ** (self.genus + 1), axis=1)
        return np.abs(deleted + count), rhs

    def balance_constant(self, delta: float = 0.5) -> float:
        """Largest lhs/rhs of balance_checks over the nodes (0 for none)."""
        lhs, rhs = self.balance_checks(delta)
        return float(np.max(lhs / rhs)) if lhs.size else 0.0

    def circle_log_max(self, r, samples: int = 1024):
        """max of log|P| on |z| = r: a float for one radius, an array for
        an array of radii, all scanned and refined by golden section in
        lockstep (circle_max)."""
        radii = np.asarray(r, dtype=float)
        if not np.all((0.0 < radii) & (radii < 1.0)):
            raise ValueError("circle radius must lie in (0, 1)")

        def log_abs_p(z):
            return like_input(np.real(self._raw_log_eval(flat_points(z))), z,
                              float)

        return circle_max(log_abs_p, r, samples)

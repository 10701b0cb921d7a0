"""Canonical products over disc zero sequences, evaluated in log space.

Factors are E(w_n(z), s) with w_n(z) = (1 - |z_n|^2) / (1 - conj(z_n) z),
E(w, 0) = 1 - w and E(w, s) = (1 - w) exp(w + w^2/2 + ... + w^s/s).  Every
evaluation sums per-factor principal logs; moduli are exact and phase
ambiguities cancel in the ratios consumed downstream (P'/P, P''/P, term
ratios).

Every per-factor quantity -- the factor logs, the first and second
log-derivatives, the node targets and the interpolation series' term logs --
is built from one pair of pieces per point and node, (z - z_n,
1 - conj(z_n) z), which _pieces forms at given points.  The exclusion-circle
contours never form z_k + u: node k's own factor is taken from u, and every
other factor enters centred on the node, as log E_n(z_k + u) - log
E_n(z_k), through samples of the pieces at z_k, which keeps contours around
deep nodes accurate (node_contour_modes).  Points x nodes passes loop over
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
                      circle_modes, circle_nodes, clog, clog1p, disc_points,
                      flat_points, like_input, one_minus_abs, one_minus_abs2,
                      one_minus_conj_mul, refine_circle)
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
# on the exclusion circle of node k, the other factors with |z_n - z_k| <
# NODE_NEAR_RATIO r_k enter through NODE_CONTOUR_START_POINTS centred
# samples and the rest through NODE_FAR_SAMPLES (see _centred_modes)
NODE_NEAR_RATIO = 16.0
NODE_FAR_SAMPLES = 16
# factor x sample pairs per step of the exclusion-circle samples: against
# 2^15, 2^14 took the contours of the N = 368 and N = 964 lattices about 14%
# and 6% faster, and 2^12 took them 17% and 33% slower
_SAMPLE_PAIRS = 2 ** 14


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


def _poly_diff(w0, dw, s: int):
    """_poly_part(w0 + dw, s) - _poly_part(w0, s), through w^j - w0^j =
    w (w^(j-1) - w0^(j-1)) + w0^(j-1) dw with w = w0 + dw, so a small dw
    keeps its relative accuracy (zeros for s = 0)."""
    if s == 0:
        return np.zeros_like(dw)
    if s == 1:
        return dw
    acc = d = dw
    w, p0 = w0 + dw, 1.0
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

    def _factor_logs(self, delta: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Per-factor principal logs from the pieces (delta, den) of every
        factor.

        Exact zeros produce -inf entries; callers mask as appropriate.
        """
        omw = -self._zc * delta / den
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = clog(omw) + _poly_part(1.0 - omw, self.genus)
            i = self._origin_idx
            if i is not None:
                logs[..., i] = clog(delta[..., i])
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

    def _tail_bound(self, q, qc, w0, m: int):
        """Per factor, a bound on the error of the m-point interpolant of
        its centred log on the circle |u| = r about z_k (see
        _field_samples), from q = r/|z_k - z_n|, qc = r |conj(z_n)/den_n|
        and w0 = w_n(z_k), with den_n = 1 - conj(z_n) z_k.

        The centred log is log1p(u/(z_k - z_n)) - log1p(-conj(z_n) u/den_n)
        + poly(w_n(z_k + u)) - poly(w0), with w_n(z_k + u) = w0/(1 -
        conj(z_n) u/den_n).  Scaled to the circle, its Taylor coefficients in
        u are at most q^j/j and qc^j/j for the two log1p, and |w0|^i/i
        C(j+i-1, i-1) qc^j for the term w^i/i of the polynomial part.  With
        m samples, modes j >= m alias onto modes 0..m-1 and are cut off, so
        the interpolant is off by at most twice their sum, which C(m+t+i-1,
        i-1) <= C(m+i-1, i-1) C(t+i-1, i-1) bounds in closed form:

            sum_{j>=m} q^j/j <= q^m/(m (1-q)),
            sum_{j>=m} C(j+i-1, i-1) qc^j <= C(m+i-1, i-1) qc^m/(1-qc)^i.

        The exclusion rule keeps every other zero at least 4r from z_k, so
        q <= 1/4, and the unit circle at least 8r, so the reflected pole
        1/conj(z_n), at distance |den_n/conj(z_n)| >= 1 - |z_k| from z_k,
        gives qc <= 1/8 (Trefethen & Weideman, "The exponentially
        convergent trapezoidal rule", SIAM Rev. 56, 2014).
        """
        acc = (q ** m / (1.0 - q) + qc ** m / (1.0 - qc)) / m
        wq = np.abs(w0) / (1.0 - qc)
        power = qc ** m
        for i in range(1, self.genus + 1):
            power = power * wq
            acc = acc + math.comb(m + i - 1, i - 1) / i * power
        return 2.0 * acc

    def _field_samples(self, r, delta, den, mask, m: int):
        """(samples, bound) for the factors in mask on the exclusion
        circles of a block of nodes, one row per node.

        Row i belongs to node k, with radius r[i] and the pieces delta =
        z_k - z_n and den = 1 - conj(z_n) z_k of every factor n.
        samples[i, j] sums log E_n(z_k + u) - log E_n(z_k) over the factors
        of row i in mask at u = r[i] e^{2 pi i j/m}, each centred as
        log1p(u w_n(z_k + u)/(z_k - z_n)) + poly(w_n(z_k + u)) -
        poly(w_n(z_k)): (1 - w_n(z_k + u))/(1 - w_n(z_k)) = 1 + u w_n(z_k +
        u)/(z_k - z_n), so a term is about |u|/|z_k - z_n| in size and its
        rounding eps times that, where an uncentred log carries eps |log
        E_n| (centring the near factors as well took the origin-node
        mismatch of the N = 2686 lattice from 3.2e-7 to 9.2e-8).  With y =
        u/(1 - conj(z_n) u/den_n) = r/(e^{-2 pi i j/m} - r conj(z_n)/den_n),
        the log1p argument is w_n(z_k) y/(z_k - z_n) and w_n(z_k + u) -
        w_n(z_k) = w_n(z_k) conj(z_n) y/den_n, so a sample costs one
        complex division.  bound[i] sums _tail_bound over the same factors.
        The pairs in mask are taken in row order, at most _SAMPLE_PAIRS
        pairs x samples at a time, and summed by row.
        """
        rows, cols = np.nonzero(mask)
        out = np.zeros((mask.shape[0], m), dtype=complex)
        bound = np.zeros(mask.shape[0])
        if rows.size == 0:
            return out, bound
        delta, den = delta[rows, cols], den[rows, cols]
        inv, c, w0 = 1.0 / delta, self._zc[cols] / den, self._gap2c[cols] / den
        rr = r[rows]
        # the first pair of each row that has any
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        at = rows[starts]
        bound[at] = np.add.reduceat(
            self._tail_bound(rr * np.abs(inv), rr * np.abs(c), w0, m), starts)
        _, unit = circle_nodes(m)
        a, b, c = rr * inv * w0, rr * c * w0, rr * c
        step = max(1, _SAMPLE_PAIRS // rows.size)
        for lo in range(0, m, step):
            y = 1.0 / (np.conj(unit[lo:lo + step, None]) - c)
            logs = clog1p(a * y)
            logs += _poly_diff(w0, b * y, self.genus)
            out[at, lo:lo + step] = np.add.reduceat(logs, starts, axis=1).T
        return out, bound

    def _centred_modes(self, nodes: np.ndarray) -> np.ndarray:
        """Fourier modes 0..K-1 of F_k(e^{i theta}) = sum_{n != k} log
        E_n(z_k + r_k e^{i theta}) - log E_n(z_k), one row per node, K =
        max(NODE_FAR_SAMPLES, NODE_CONTOUR_START_POINTS).

        F_k is analytic for |u| < min_n |z_n - z_k|, so it has no negative
        Fourier modes on the circle.  The far factors (|z_n - z_k| >=
        NODE_NEAR_RATIO r_k, so q <= 1/16) enter from NODE_FAR_SAMPLES
        samples and the near ones (q <= 1/4) from NODE_CONTOUR_START_POINTS,
        each field through the DFT of its samples (_field_samples); a row
        holds the sum of both.  Raises RuntimeError naming the node and the
        field when the field's tail bound exceeds the unit roundoff, i.e.
        when its interpolant could add more than one rounding to a circle
        value.  Only factor values enter.
        """
        eps = float(np.finfo(float).eps)
        fields = (("far", NODE_FAR_SAMPLES),
                  ("near", NODE_CONTOUR_START_POINTS))
        coef = np.zeros((nodes.size, max(m for _, m in fields)),
                        dtype=complex)
        step = max(1, _SAMPLE_PAIRS // max(self.z.size, 1))
        for lo in range(0, nodes.size, step):
            blk = nodes[lo:lo + step]
            r = self.exclusion_radii[blk]
            delta, den = self._pieces(self.z[blk])
            far = np.abs(delta) >= NODE_NEAR_RATIO * r[:, None]
            near = ~far
            near[np.arange(blk.size), blk] = False
            for (field, m), mask in zip(fields, (far, near)):
                vals, bound = self._field_samples(r, delta, den, mask, m)
                bad = np.flatnonzero(bound > eps)
                if bad.size:
                    i = bad[0]
                    raise RuntimeError(
                        f"{field} field of node {int(blk[i])}: Fourier tail "
                        f"bound {bound[i]:.2e} at {m} samples exceeds the "
                        f"unit roundoff {eps:.2e}")
                coef[lo:lo + step, :m] += np.fft.fft(vals, axis=1) / m
        return coef

    def _circle_logs(self, ks: np.ndarray, coef: np.ndarray, m: int,
                     pick=slice(None)):
        """log P(z_k + r_k e^{i theta}) - sum_{n != k} log E_n(z_k) at the
        points pick of the m-point grid on the exclusion circles of the
        nodes ks, one row each, from node k's own factor and the modes coef
        of F_k (_centred_modes).

        The own factor is taken exactly, log(-conj(z_k) u/(1 - |z_k|^2 -
        conj(z_k) u)) + poly(w_k(z_k + u)), or log u at the origin node;
        the sum z_k + u is never formed.  F_k comes from its modes by an
        inverse FFT on a grid of at least K points, which holds the m-point
        grid.
        """
        _, unit = circle_nodes(m)
        u = self.exclusion_radii[ks][:, None] * unit[pick]
        t = self._zc[ks][:, None] * u
        gap2 = self._gap2[ks][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = clog(-t / (gap2 - t)) + _poly_part(gap2 / (gap2 - t),
                                                      self.genus)
            at = ks == self._origin_idx
            logs[at] = clog(u[at])
        size = max(m, coef.shape[1])
        grid = size * np.fft.ifft(coef, n=size, axis=1)[:, ::size // m]
        return logs + grid[:, pick]

    def node_contour_modes(self, nodes=None) -> NodeModes:
        """Fourier modes of P on the exclusion circles of the given nodes
        (all by default).

        On the circle z_k + u, u = r_k e^{i theta}, log P = log E_k(z_k +
        u) + const_k + F_k(u) up to 2 pi i, with const_k = sum_{n != k} log
        E_n(z_k) from node_deleted_logs and F_k the centred sum of the
        other factors, which _centred_modes reads off NODE_FAR_SAMPLES
        samples for the far factors and NODE_CONTOUR_START_POINTS for the
        near ones.  A round then evaluates only node k's own factor and
        adds F_k from its modes (_circle_logs).  The rounds run in lockstep
        over the nodes still live, refining their grids as nested_circle
        does, until both modes of a node move by at most 1e-9 (1 + |m|);
        scale, the first round's maximum of Re(log P - const_k), stays
        frozen so that the rounds compare in one unit, and const_k enters
        only the returned scale and the modes' phase.

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

        The samples cost N x 16 + (near factors) x 32 factor evaluations
        per node, against N x 64 for every factor on the grid, and a round
        one factor per grid point and one inverse FFT of K modes.
        """
        nodes = (np.arange(self.z.size) if nodes is None
                 else np.atleast_1d(np.asarray(nodes, dtype=int)))
        bad = (nodes < 0) | (nodes >= self.z.size)
        if np.any(bad):
            raise IndexError(f"node index {nodes[bad][0]} out of range")
        const = self.node_deleted_logs()
        out = NodeModes(np.empty(nodes.size), np.empty(nodes.size, complex),
                        np.empty(nodes.size, complex),
                        np.zeros(nodes.size, dtype=int))
        # blocks of nodes whose 64-point round holds _BLOCK_PAIRS samples
        step = _BLOCK_PAIRS // (2 * NODE_CONTOUR_START_POINTS)
        for lo in range(0, nodes.size, step):
            blk = nodes[lo:lo + step]
            coef = self._centred_modes(blk)
            live = np.arange(blk.size)
            m = NODE_CONTOUR_START_POINTS
            vals = self._circle_logs(blk, coef, m)
            scale = prev = None
            while True:
                theta = circle_nodes(m)[0]
                fault = circle_fault(vals)
                if fault is not None:
                    raise RuntimeError(f"exclusion circle of node "
                                       f"{int(blk[live[fault[0]]])}: "
                                       f"{fault[1]}")
                frozen = None if scale is None else scale[live]
                first, cur = circle_modes(theta, vals, (1, 2), frozen)
                if scale is None:
                    scale = first
                else:
                    done = np.all(np.abs(cur - prev)
                                  <= 1e-9 * (1.0 + np.abs(cur)), axis=1)
                    sel, k = lo + live[done], blk[live[done]]
                    phase = np.exp(1j * const[k].imag)
                    out.scale[sel] = scale[live[done]] + const[k].real
                    out.m1[sel] = cur[done, 0] * phase
                    out.m2[sel] = cur[done, 1] * phase
                    out.points[sel] = m
                    live, vals, cur = live[~done], vals[~done], cur[~done]
                if live.size == 0:
                    break
                if 2 * m > CONTOUR_MAX_POINTS:
                    raise RuntimeError(
                        f"exclusion-circle contour at node "
                        f"{int(blk[live[0]])} did not converge within "
                        f"{CONTOUR_MAX_POINTS} points")
                prev = cur
                m *= 2
                vals = refine_circle(vals, self._circle_logs(
                    blk[live], coef[live], m, slice(1, None, 2)))
        return out

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

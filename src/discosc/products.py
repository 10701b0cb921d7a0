"""Canonical products over disc zero sequences, evaluated in log space.

Factors are E(w_n(z), s) with w_n(z) = (1 - |z_n|^2) / (1 - conj(z_n) z),
E(w, 0) = 1 - w and E(w, s) = (1 - w) exp(w + w^2/2 + ... + w^s/s).  Every
evaluation sums per-factor principal logs; moduli are exact and phase
ambiguities cancel in the ratios consumed downstream (P'/P, P''/P, term
ratios).

Every per-factor quantity -- the factor logs, the first and second
log-derivatives, the node targets and the interpolation series' term logs --
is built from one pair of pieces per point and node, (z - z_n, 1 - conj(z_n)
z), which _pieces forms at given points (and _field_samples for given node x
factor pairs); at the nodes one pass (_node_pass) takes every node x node
quantity from one set of pieces, the exclusion radii and each node's near
factors from the distances |z_k - z_n| in them.  The exclusion-circle
contours never form z_k + u: node k's own factor is taken from u, and every
other factor enters centred on the node, as log E_n(z_k + u) - log E_n(z_k),
through samples of the pieces at z_k, which keeps contours around deep nodes
accurate (node_contour_modes); a far factor that a whole cluster of nodes
sees from afar enters them all through one proxy circle about the cluster,
whose interpolant each member reads at its own circle (_proxies).  Points
x nodes passes loop over cache-sized blocks (numutil.slices);
numutil.map_work splits the series pass, the node pass and the residue
contour over two threads, each row counted by its cost.  The series pass
forms its pieces, factor logs and log-derivatives in buffers that each run
allocates once (the out= forms of _pieces, _factor_logs and
_log_derivatives).  Their principal logs come from numutil.clog, log|z| +
i atan2(Im z, Re z): the branch cut and signed zeros of np.log at a
fraction of the cost, and accurate to the absolute rounding the pieces
already carry.

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
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import numutil
from .numutil import (CONTOUR_MAX_POINTS, CONTOUR_START_POINTS,
                      circle_fault, circle_modes, circle_nodes, clog, clog1p,
                      disc_points, distance_rows, flat_points, like_input,
                      map_work, one_minus_abs, one_minus_abs2,
                      one_minus_conj_mul, settle_circles, slices)
from .sequences import ZeroSequence, blaschke_sum, near_counts

__all__ = [
    "CanonicalProduct",
    "primary_factor",
]

# on the exclusion circle of node k, the other factors with |z_n - z_k| <
# NODE_NEAR_RATIO r_k enter through CONTOUR_START_POINTS centred samples
# and the rest through NODE_FAR_SAMPLES (see _centred_modes)
NODE_NEAR_RATIO = 16.0
NODE_FAR_SAMPLES = 16
# a far factor enters every member of a node cluster through the cluster's
# proxy circle, of radius NODE_PROXY_MARGIN times the members' reach, when
# its zero and its reflected pole lie NODE_PROXY_RATIO proxy radii or more
# from the centre; a cluster takes its proxy when that saves more than
# NODE_PROXY_SAVING samples (see _clusters and _proxies)
NODE_PROXY_RATIO = 4.0
NODE_PROXY_MARGIN = 1.25
NODE_PROXY_SAVING = 4096
# factor x sample pairs per step of the exclusion- and proxy-circle samples
# (_field_samples): against 2^15, 2^14 took the contours of the N = 368 and
# N = 964 lattices about 14% and 6% faster, and 2^12 took them 17% and 33%
# slower
_SAMPLE_PAIRS = 2 ** 14
# direct samples per stage of the residue contour (numutil.map_work), whose
# node and cluster blocks then hold up to 2^18 samples on two workers and
# 2^19 on one, whatever N: the N = 368 lattice's nodes take 855,552, two
# blocks for each of two workers, where 2^14 // N // 2 nodes per block
# made 22 nodes at N = 368 and 1 above N = 4096.  Blocks of 2^19 took that
# contour 11% faster than 2^18 on two CPUs but raised a lattice368-build
# run's peak RSS by 2.0 MB; 2^20 took N = 2686 14% faster, and its build's
# peak RSS from 38 to 54 MB
_BLOCK_SAMPLES = 2 ** 19


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


# the arrays of CanonicalProduct._node_pass
NodePass = namedtuple("NodePass", "targets deleted zeroed log_dp count rhs "
                                  "radii near near_cols")


def _lists(count: np.ndarray, flat: np.ndarray, ids: np.ndarray):
    """(i, v) for each entry v of list ids[i], in row order, of the lists
    that flat holds one after another, count[j] entries for list j: the
    members of clusters and the near factors of nodes."""
    c = count[ids]
    i = np.repeat(np.arange(ids.size), c)
    ends = np.cumsum(count)[ids] - np.cumsum(c)
    return i, flat[np.repeat(ends, c) + np.arange(i.size)]


class Clusters(NamedTuple):
    """The node clusters of CanonicalProduct._clusters: node k lies in
    cluster of[k]; cluster i has the seed node seed[i], the proxy radius
    rho[i] and the members members[starts[i]:starts[i + 1]], in ascending
    node order."""
    of: np.ndarray
    seed: np.ndarray
    rho: np.ndarray
    members: np.ndarray
    starts: np.ndarray


class Proxies(NamedTuple):
    """The proxy circles of one residue contour (CanonicalProduct._proxies),
    one row per cluster that takes one: node k's row is slot[k] (-1 for
    none); a row's circle has the centre centre and the radius rho, modes
    holds its interpolant's modes 0..CONTOUR_START_POINTS-1, and covered
    the factors it carries as packed bits and sources their count, each
    with one more row of zeros that slot -1 picks."""
    slot: np.ndarray
    centre: np.ndarray
    rho: np.ndarray
    modes: np.ndarray
    covered: np.ndarray
    sources: np.ndarray


class CanonicalProduct:
    """Genus-s product over a zero sequence with per-node exclusion discs.

    The exclusion radius of node k is r_k = min(nn_k/4, (1 - |z_k|)/8), nn_k
    its nearest-neighbour distance; node_contour_modes relies on this rule,
    and the coefficient's node jets on the disc of radius 4 r_k about z_k
    that it leaves free of other nodes.  The radii come from the node pass
    (_node_pass), run on first use, so a product used only for log_eval or
    in_exclusion pays for that whole pass.  Inside the exclusion disc of a
    node the full product is numerically dominated by its vanishing factor;
    the deleted product, the regular part of the node's own log-derivative
    and the node derivatives are exact there, while log_eval refuses and
    asks the caller to use those forms.
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
        # nodes so near the origin that 1 - w_n(z_k), about |z_n| |z_k -
        # z_n|, can fall below 2^-1024, where numpy's complex division by it
        # overflows (_node_rows)
        self._tiny = np.flatnonzero((mod > 0.0) & (mod < 2.0 ** -960))
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
        # the nodes sorted for node_index, with nan after them so that a
        # search past the last node misses, and their indices (-1 for nan)
        order = np.argsort(z)
        self._sorted_nodes = (np.append(z[order], np.nan),
                              np.append(order, -1))
        self.convergence_sum = blaschke_sum(zeros, self.genus).value
        self._nodes: NodePass | None = None
        self._partition: Clusters | None = None

    # -- geometry ----------------------------------------------------------

    @property
    def exclusion_radii(self) -> np.ndarray:
        """The exclusion radii, read-only, from the node pass."""
        return self._node_pass().radii

    def nearest_node(self, pts):
        """(index, distance) of each point's closest node, over
        distance_rows (-1 and inf without nodes)."""
        pts = np.atleast_1d(np.asarray(pts, dtype=complex))
        flat = pts.ravel()
        idx, dist = np.full(flat.size, -1), np.full(flat.size, math.inf)
        for sl, d in distance_rows(flat if self.z.size else flat[:0],
                                   self.z):
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

    def _pieces(self, pts: np.ndarray, out=None):
        """(z - z_n, 1 - conj(z_n) z), shape (len(pts), n_zeros) each, in
        the two arrays out when given."""
        p = np.asarray(pts, dtype=complex)[:, None]
        delta, den = (None, None) if out is None else out
        return (np.subtract(p, self.z[None, :], out=delta),
                one_minus_conj_mul(self.z[None, :], p, out=den))

    def _blocks(self, pts: np.ndarray):
        """Yield (slice, pieces) over pts by numutil.slices, so memory
        stays O(_BLOCK_PAIRS) however many points are asked."""
        for sl in slices(pts.size, self.z.size):
            yield (sl, *self._pieces(pts[sl]))

    def _factor_logs(self, delta: np.ndarray, den: np.ndarray,
                     out=()) -> np.ndarray:
        """Per-factor principal logs from the pieces (delta, den) of every
        factor.  out, when given, is buffers of the pieces' shape: the logs
        (returned), 1 - w_n and |1 - w_n| (real).

        Exact zeros produce -inf entries; callers mask as appropriate.
        """
        logs, omw, mod = out or (None, None, None)
        omw = np.multiply(-self._zc, delta, out=omw)
        omw /= den
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = clog(omw, logs, mod)
            logs += _poly_part(np.subtract(1.0, omw, out=omw), self.genus)
            i = self._origin_idx
            if i is not None:
                logs[..., i] = clog(delta[..., i])
        return logs

    def _log_derivatives(self, delta: np.ndarray, w: np.ndarray, out=None):
        """Per-factor (dlog E, d2log E) from z - z_n and w = w_n(z), in the
        two arrays out when given.

        With u = conj(z_n)/(1 - conj(z_n) z) and w = w_n(z),

            dlog E = -u w^(s+1) / (1 - w)
            d2log E = -u^2 w^(s+1) [ (s+2)/(1-w) + w/(1-w)^2 ]

        Since 1 - w = -u (z - z_n) and u = w conj(z_n)/(1 - |z_n|^2), these
        are dlog E = w^(s+1)/(z - z_n) and d2log E = (w (s+2) conj(z_n)/(1 -
        |z_n|^2) - w/(z - z_n)) dlog E: two complex divisions per factor,
        w/(z - z_n) formed once, and every product in its operand order at
        any block size (see numutil.slices).  Callers take w as (1 -
        |z_n|^2)/(1 - conj(z_n) z), so small |w| keep full relative
        accuracy.  A node at the origin (w = 1) gives 1/z and -1/z^2 from
        the same forms.
        """
        L, dL = (None, None) if out is None else out
        L = np.multiply(w, np.divide(1.0, delta, out=L), out=L)
        dL = np.multiply(w, self._dlog_coef, out=dL)
        dL -= L
        for _ in range(self.genus):
            L *= w
        dL *= L
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

    def _node_rows(self, blocks, out: NodePass, cols: dict):
        """Rows of out (_node_pass) for the node blocks, from one set of
        pieces and one 1 - w_n(z_k) per block, each value by the operations
        of its own former pass (tests/references.py), and cols[block start]
        the block's near_cols.  At most four of a block's complex matrices
        live at once: the targets reuse the pieces' memory."""
        s, zc, i = self.genus, self._zc, self._origin_idx
        for sl in blocks:
            delta, den = self._pieces(self.z[sl])
            diag = np.eye(len(delta), self.z.size, sl.start, dtype=bool)
            # from |z_k - z_n|: the balance count N_{z_k}(r), and off the
            # diagonal the exclusion radius and the near factors
            d = np.abs(delta)
            out.count[sl] = near_counts(d, 0.5 * self._gap[sl, None])[1]
            d[diag] = math.inf
            r = out.radii[sl] = np.minimum(np.min(d, axis=1) / 4.0,
                                           self._gap[sl] / 8.0)
            near = np.less(d, NODE_NEAR_RATIO * r[:, None])
            out.near[sl] = np.count_nonzero(near, axis=1)
            cols[sl.start] = np.nonzero(near)[1].astype(np.int32)
            del d, near
            w = np.divide(self._gap2c, den)  # w_n(z_k)
            aw = np.abs(w)
            aw **= s + 1
            out.rhs[sl] = np.sum(aw, axis=1)
            del aw
            with np.errstate(divide="ignore", invalid="ignore"):
                # the origin node's column: 1/(z - z_n) and log(z - z_n)
                col = None if i is None else (1.0 / delta[:, i],
                                              clog(delta[:, i]))
                omw = np.multiply(-zc, delta, out=delta)
                omw /= den
                # target terms -u w^(s+1)/(1 - w), u = conj(z_n)/den
                L = np.negative(np.divide(zc, den, out=den), out=den)
                w **= s + 1
                L *= w
                t = self._tiny
                if t.size:  # the quotient of both scaled by 2^64 is exact
                    L[:, t] *= 2.0 ** 64
                    omw[:, t] *= 2.0 ** 64
                L /= omw
                if t.size:
                    omw[:, t] /= 2.0 ** 64
                if col:
                    L[:, i] = col[0]
                L[diag] = 0.0
                out.targets[sl] = -np.sum(L, axis=1)
                del w, L, den, delta
                logs = clog(omw)  # the factor logs, as _factor_logs forms them
                logs += _poly_part(np.subtract(1.0, omw, out=omw), s)
                if col:
                    logs[:, i] = col[1]
            out.deleted[sl] = logs[~diag].reshape(len(logs), -1).sum(axis=1)
            logs[diag] = 0.0
            out.zeroed[sl] = np.sum(logs, axis=1)
            del logs, omw

    def _node_pass(self) -> NodePass:
        """Every node x node quantity from one blocked nodes x nodes pass
        (_node_rows under numutil.map_work, each node counted at its N pairs
        against numutil._BLOCK_PAIRS), run once per product, on first use,
        and cached read-only.

        targets: b_k = -P''(z_k)/(2 P'(z_k)), the sum over n != k of dlog
        E_n = -u_n w_n^(s+1)/(1 - w_n), u_n = conj(z_n)/(1 - conj(z_n) z),
        less the factor-k limit (s+1) conj(z_k)/(1 - |z_k|^2) (1/z_k and
        no limit at an origin node, a plain factor z).  deleted: sum over
        n != k of log E_n(z_k); zeroed: the same N logs summed with 0 on
        the diagonal (InterpolationSeries._node_terms).  log_dp: log
        P'(z_k) = deleted + H_s + log(-conj(z_k)/(1 - |z_k|^2)), deleted
        alone at the origin.  count: N_{z_k}((1 - |z_k|)/2), at the balance
        radius of the exponent rule, and rhs: sum_n |w_n(z_k)|^(s+1)
        (balance_checks).  radii: r_k = min(nn_k/4, (1 - |z_k|)/8), nn_k
        the least |z_k - z_n|, n != k (inf for none); near: the count of
        the n != k with |z_k - z_n| < NODE_NEAR_RATIO r_k, and near_cols
        those n, ascending, node after node (_lists)."""
        if self._nodes is not None:
            return self._nodes
        n, s = self.z.size, self.genus
        out = NodePass(*np.empty((4, n), dtype=complex), *np.zeros((3, n)),
                       np.empty(n, dtype=int), None)
        cols = {}
        map_work(lambda run: self._node_rows(run, out, cols), np.full(n, n),
                 numutil._BLOCK_PAIRS)
        out = out._replace(near_cols=np.concatenate(
            [cols[k] for k in sorted(cols)] or [np.zeros(0, np.int32)]))
        out.targets[:] -= (s + 1) * self._zc / self._gap2
        h_s = sum(1.0 / j for j in range(1, s + 1))
        with np.errstate(divide="ignore"):
            out.log_dp[:] = out.deleted + h_s + np.log(-self._zc / self._gap2)
        np.copyto(out.log_dp, out.deleted, where=self.z == 0.0)
        for arr in out:
            arr.flags.writeable = False
        self._nodes = out
        return out

    def node_deleted_logs(self) -> np.ndarray:
        """sum over n != k of log E_n(z_k) at every node, read-only."""
        return self._node_pass().deleted

    # -- node derivatives --------------------------------------------------

    def log_derivative_at_zero(self, k: int) -> complex:
        """Complex log of P'(z_k) by the deleted-product identity: P'(z_k) =
        -conj(z_k) B_k(z_k) e^{H_s}/(1 - |z_k|^2), B_k(0) at the origin."""
        if not (0 <= k < self.z.size):
            raise IndexError(f"node index {k} out of range")
        return complex(self._node_pass().log_dp[k])

    def _tail_bound(self, q, qc, aw0, m: int):
        """Per factor, a bound on the error of the m-point interpolant of
        its centred log on the circle |u| = r about z_k (see
        _field_samples), from q = r/|z_k - z_n|, qc = r |conj(z_n)/den_n|
        and aw0 = |w0|, w0 = w_n(z_k), with den_n = 1 - conj(z_n) z_k.

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
        convergent trapezoidal rule", SIAM Rev. 56, 2014).  The bound grows
        with each of q, qc and aw0.
        """
        acc = (q ** m / (1.0 - q) + qc ** m / (1.0 - qc)) / m
        wq = aw0 / (1.0 - qc)
        power = qc ** m
        for i in range(1, self.genus + 1):
            power = power * wq
            acc = acc + math.comb(m + i - 1, i - 1) / i * power
        return 2.0 * acc

    def _row_tail_bounds(self, q, qc, aw0, starts, m: int):
        """Per row of pairs (row i from pair starts[i] to the next start),
        a bound on the sum of _tail_bound over the row's pairs.

        Since _tail_bound grows with each argument, (pairs in the row) x
        (_tail_bound at the row's largest q, qc and aw0) bounds the sum.
        Rows where that exceeds eps/2 (a margin far above its rounding)
        get the sum itself, so a bound above eps is the exact sum.
        """
        counts = np.diff(np.r_[starts, q.size])
        peak = [np.maximum.reduceat(x, starts) for x in (q, qc, aw0)]
        bound = counts * self._tail_bound(*peak, m)
        check = bound > 0.5 * np.finfo(float).eps
        if np.any(check):
            sel = np.repeat(check, counts)
            sums = np.cumsum(counts[check])
            bound[check] = np.add.reduceat(
                self._tail_bound(q[sel], qc[sel], aw0[sel], m),
                sums - counts[check])
        return bound

    def _field_samples(self, r, zk, mask, unit):
        """(samples, bound) for the factors in mask on circles about a
        block of nodes, one row per circle, at the m points unit =
        circle_nodes(m)[1]: the exclusion circles of _centred_modes and the
        proxy circles of _proxies.

        Row i belongs to the node z_k = zk[i], with radius r[i], and
        mask[i, n] selects factor n (never node k's own).  samples[i, j]
        sums log E_n(z_k + u) - log E_n(z_k) over the factors of row i at
        u = r[i] e^{2 pi i j/m}, each centred as log1p(u w_n(z_k + u)/(z_k -
        z_n)) + poly(w_n(z_k + u)) - poly(w_n(z_k)): (1 - w_n(z_k + u))/(1 -
        w_n(z_k)) = 1 + u w_n(z_k + u)/(z_k - z_n), so a term is about
        |u|/|z_k - z_n| in size and its rounding eps times that, where an
        uncentred log carries eps |log E_n| (centring the near factors as
        well took the origin-node mismatch of the N = 2686 lattice from
        3.2e-7 to 9.2e-8).  With den_n = 1 - conj(z_n) z_k and y = u/(1 -
        conj(z_n) u/den_n) = r/(e^{-2 pi i j/m} - r conj(z_n)/den_n), the
        log1p argument is w_n(z_k) y/(z_k - z_n) and w_n(z_k + u) - w_n(z_k)
        = w_n(z_k) conj(z_n) y/den_n, so a sample costs one complex
        division.  bound[i] bounds the sum of _tail_bound over the same factors
        (_row_tail_bounds).

        The pairs in mask are taken in row order, at most _SAMPLE_PAIRS
        pairs x samples at a time (one sample of every pair when there are
        more pairs), and summed by row.  The pieces z_k - z_n and den_n are
        formed for these pairs only, in place where a piece's memory is free,
        each per-pair array is freed after its last use, and every step
        reuses two buffers.
        """
        rows, cols = np.nonzero(mask)
        out = np.zeros((mask.shape[0], unit.size), dtype=complex)
        bound = np.zeros(mask.shape[0])
        if rows.size == 0:
            return out, bound
        # the first pair of each row that has any
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        at = rows[starts]
        rr, zk = r[rows], zk[rows]
        zn = self.z[cols]
        del rows
        inv = np.subtract(zk, zn)
        np.divide(1.0, inv, out=inv)
        den = one_minus_conj_mul(zn, zk, out=zk)
        del zk, zn
        c, w0 = self._zc[cols], self._gap2c[cols]
        del cols
        c /= den
        w0 /= den
        del den
        q, qc = np.abs(inv), np.abs(c)
        q *= rr
        qc *= rr
        bound[at] = self._row_tail_bounds(q, qc, np.abs(w0), starts, unit.size)
        del q, qc
        # a = rr inv w0, b = rr c w0 and c = rr c, each product in the
        # operand order of its written form
        a = np.multiply(rr, inv, out=inv)
        a *= w0
        c = np.multiply(rr, c, out=c)
        b = c * w0
        del rr
        step = min(unit.size, max(1, _SAMPLE_PAIRS // a.size))
        ys, dws = np.empty((2, step, a.size), dtype=complex)
        for lo in range(0, unit.size, step):
            y, dw = ys[:unit.size - lo], dws[:unit.size - lo]
            np.subtract(np.conj(unit[lo:lo + step, None]), c, out=y)
            np.divide(1.0, y, out=y)
            np.multiply(b, y, out=dw)
            logs = clog1p(np.multiply(a, y, out=y))
            logs += _poly_diff(w0, dw, self.genus)
            out[at, lo:lo + step] = np.add.reduceat(logs, starts, axis=1).T
        return out, bound

    def _clusters(self) -> Clusters:
        """The nodes' partition into clusters, cached: the deepest free node
        c (least 1 - |c|, lowest index first) seeds a cluster that takes
        every free node within 1 - |c| of it, until no node is free.  The
        proxy radius is NODE_PROXY_MARGIN max_k(|z_k - c| + r_k) over the
        members, so every exclusion circle of the cluster lies in the proxy
        disc at a margin."""
        if self._partition is None:
            of = np.full(self.z.size, -1)
            seed = []
            free = np.argsort(self._gap, kind="stable")  # deepest first
            while free.size:
                c = free[0]
                near = np.abs(self.z[free] - self.z[c]) <= self._gap[c]
                of[free[near]] = len(seed)
                seed.append(c)
                free = free[~near]
            seed = np.array(seed, dtype=int)
            members = np.argsort(of, kind="stable")
            starts = np.searchsorted(of[members], np.arange(seed.size + 1))
            reach = np.abs(self.z - self.z[seed[of]]) + self.exclusion_radii
            rho = NODE_PROXY_MARGIN * (np.maximum.reduceat(
                reach[members], starts[:-1]) if seed.size else reach)
            self._partition = Clusters(of, seed, rho, members, starts)
        return self._partition

    def _proxies(self, nodes: np.ndarray) -> Proxies:
        """The proxy circles of the clusters of the given nodes.

        A factor n qualifies for cluster B (centre c, proxy radius rho)
        when it is far (|z_n - z_k| >= NODE_NEAR_RATIO r_k) for every
        member k and its zero z_n and reflected pole 1/conj(z_n) both lie at
        least NODE_PROXY_RATIO rho from c.  B takes a proxy when members x
        sources x NODE_FAR_SAMPLES direct samples exceed the proxy's sources
        x CONTOUR_START_POINTS by more than NODE_PROXY_SAVING.  The proxy's
        centred field G_B(v) = sum_n log E_n(c + v) - log E_n(c) is sampled
        on |v| = rho by _field_samples, one row per cluster; its zeros and
        poles lie at least NODE_PROXY_RATIO rho away, so q, qc <= 1/4, and
        a _tail_bound sum above eps/2 (a member's value takes two values of
        the interpolant, _member_modes) raises RuntimeError naming the
        cluster's lowest-index node, as does a nan or inf sample.

        The clusters run through numutil.map_work, each counted at (n -
        members) x CONTOUR_START_POINTS samples, the most its sources can
        take, against a budget of _BLOCK_SAMPLES.  A block clears its
        members' near factors, the near lists of the node pass, from its
        clusters' sources.  Each cluster is computed on its own, so no
        value depends on the block, the worker count or the other nodes
        asked for.
        """
        part = self._clusters()
        npass = self._node_pass()
        n, m = self.z.size, CONTOUR_START_POINTS
        sizes = np.diff(part.starts)
        need = np.flatnonzero(np.bincount(part.of[nodes],
                                          minlength=part.seed.size))
        # no cluster saves more than all other factors as its sources would
        need = need[(n - sizes[need]) * (sizes[need] * NODE_FAR_SAMPLES - m)
                    > NODE_PROXY_SAVING]
        unit = circle_nodes(m)[1]
        half_eps = 0.5 * float(np.finfo(float).eps)
        modes = np.zeros((need.size, m), dtype=complex)
        covered = np.zeros((need.size + 1, -(-n // 8)), dtype=np.uint8)
        count = np.zeros(need.size + 1, dtype=int)
        used = np.zeros(need.size, dtype=bool)

        def run(blocks):
            for sl in blocks:
                ids = need[sl]
                owner, rows = _lists(sizes, part.members, ids)
                # far for every member: clear the near pairs
                qual = np.ones((ids.size, n), dtype=bool)
                k, j = _lists(npass.near, npass.near_cols, rows)
                qual[owner[k], j] = False
                c, rho = self.z[part.seed[ids]], part.rho[ids]
                gap = NODE_PROXY_RATIO * rho[:, None]
                qual &= np.abs(self.z - c[:, None]) >= gap
                qual &= (np.abs(one_minus_conj_mul(self.z, c[:, None]))
                         >= gap * np.abs(self.z))
                sources = np.count_nonzero(qual, axis=1)
                saving = sources * (sizes[ids] * NODE_FAR_SAMPLES - m)
                take = np.flatnonzero(saving > NODE_PROXY_SAVING)
                if take.size == 0:
                    continue
                vals, bound = self._field_samples(rho[take], c[take],
                                                  qual[take], unit)
                fault = ~np.all(np.isfinite(vals), axis=1)
                hit = np.flatnonzero(fault | (bound > half_eps))
                if hit.size:
                    i = hit[0]
                    why = ("a sample is nan or inf" if fault[i] else
                           f"Fourier tail bound {bound[i]:.2e} at {m} "
                           f"samples exceeds half the unit roundoff "
                           f"{half_eps:.2e}")
                    first = part.members[part.starts[ids[take[i]]]]
                    raise RuntimeError(f"proxy circle of node {first}: {why}")
                at = sl.start + take
                used[at] = True
                modes[at] = np.fft.fft(vals, axis=1) / m
                covered[at] = np.packbits(qual[take], axis=1)
                count[at] = sources[take]

        map_work(run, (n - sizes[need]) * m, _BLOCK_SAMPLES)
        slot = np.full(part.seed.size, -1)
        slot[need[used]] = np.arange(np.count_nonzero(used))
        keep = np.flatnonzero(used)
        return Proxies(slot[part.of], self.z[part.seed[need[keep]]],
                       part.rho[need[keep]], modes[keep],
                       covered[np.append(keep, -1)],
                       count[np.append(keep, -1)])

    def _member_modes(self, ks: np.ndarray, rows: np.ndarray,
                      prox: Proxies, unit: np.ndarray) -> np.ndarray:
        """Modes 0..M-1 (M = unit.size = CONTOUR_START_POINTS) of p(d_k + u)
        - p(d_k) on the exclusion circle u = r_k e^{i theta} of each node
        ks[i], p the interpolant of proxy row rows[i] and d_k = z_k - c.

        With s = d_k/rho, t = u/rho and p(v) = sum_j a_j (v/rho)^j, Horner's
        rule gives p(s) = B_0 by B_j = a_j + s B_(j+1), and the difference
        D_j = (s + t)(...) - s(...) of the two Horner sums by D_j = (s + t)
        D_(j+1) + t B_(j+1), the Horner form of (s + t)^j - s^j = (s + t)
        ((s + t)^(j-1) - s^(j-1)) + t s^(j-1): every term carries t, so a
        small t keeps its relative accuracy.  The values are a polynomial
        of degree < M in u, so the DFT of the M values on the grid unit
        holds them exactly.  |d_k + u| <= rho/NODE_PROXY_MARGIN, so by the
        maximum-modulus principle each value, and with it each mode, is off
        by at most twice the proxy's tail bound."""
        rho = prox.rho[rows][:, None]
        s = (self.z[ks] - prox.centre[rows])[:, None] / rho
        t = (self.exclusion_radii[ks][:, None] / rho) * unit
        a = prox.modes[rows]
        st = s + t
        horner = a[:, -1:]
        diff = np.zeros_like(t)
        for j in range(unit.size - 2, -1, -1):
            diff = st * diff + t * horner
            horner = a[:, j:j + 1] + s * horner
        return np.fft.fft(diff, axis=1) / unit.size

    def _centred_modes(self, nodes: np.ndarray,
                       prox: Proxies) -> np.ndarray:
        """Fourier modes 0..K-1 of F_k(e^{i theta}) = sum_{n != k} log
        E_n(z_k + r_k e^{i theta}) - log E_n(z_k), one row per node, K =
        max(NODE_FAR_SAMPLES, CONTOUR_START_POINTS).

        F_k is analytic for |u| < min_n |z_n - z_k|, so it has no negative
        Fourier modes on the circle.  The far factors (|z_n - z_k| >=
        NODE_NEAR_RATIO r_k, so q <= 1/16) that node k's cluster carries on
        its proxy circle (prox, from _proxies) enter from the proxy's
        interpolant (_member_modes); the other far factors enter from
        NODE_FAR_SAMPLES samples and the near ones (q <= 1/4) from
        CONTOUR_START_POINTS, each field through the DFT of its samples
        (_field_samples); a row holds the sum of the three.  Raises
        RuntimeError when a field's tail bound exceeds the unit roundoff,
        i.e. when its interpolant could add more than one rounding to a
        circle value; it names the first such node, and its far field if
        both fail.  Only factor values enter.

        The nodes run through numutil.map_work against _BLOCK_SAMPLES,
        each counted at the samples it takes: NODE_FAR_SAMPLES per far
        factor that its proxy does not carry (prox.sources) and
        CONTOUR_START_POINTS per near one.  A block's near and far masks
        come from the near lists of the node pass; the unit grids and the
        proxy modes are formed here, in the calling thread.
        """
        eps = float(np.finfo(float).eps)
        fields = (("far", NODE_FAR_SAMPLES),
                  ("near", CONTOUR_START_POINTS))
        units = [circle_nodes(m)[1] for _, m in fields]
        coef = np.zeros((nodes.size, max(m for _, m in fields)),
                        dtype=complex)
        npass, slot = self._node_pass(), prox.slot[nodes]
        on = np.flatnonzero(slot >= 0)
        if on.size:
            coef[on, :CONTOUR_START_POINTS] = self._member_modes(
                nodes[on], slot[on], prox, units[1])

        def run(blocks):
            for sl in blocks:
                blk = nodes[sl]
                r, zk = npass.radii[blk], self.z[blk]
                near = np.zeros((blk.size, self.z.size), dtype=bool)
                near[_lists(npass.near, npass.near_cols, blk)] = True
                far = ~near
                far[np.arange(blk.size), blk] = False
                if on.size:
                    far &= ~np.unpackbits(prox.covered[slot[sl]], axis=1,
                                          count=self.z.size).view(bool)
                samples = [self._field_samples(r, zk, mask, unit)
                           for mask, unit in zip((far, near), units)]
                bad = np.array([bound > eps for _, bound in samples])
                hit = np.flatnonzero(np.any(bad, axis=0))
                if hit.size:
                    i = hit[0]
                    f = int(np.argmax(bad[:, i]))
                    raise RuntimeError(
                        f"{fields[f][0]} field of node {int(blk[i])}: "
                        f"Fourier tail bound {samples[f][1][i]:.2e} at "
                        f"{fields[f][1]} samples exceeds the unit roundoff "
                        f"{eps:.2e}")
                for (vals, _), (_, m) in zip(samples, fields):
                    coef[sl, :m] += np.fft.fft(vals, axis=1) / m

        near = npass.near[nodes]
        far = self.z.size - 1 - near - prox.sources[slot]
        map_work(run, NODE_FAR_SAMPLES * far + CONTOUR_START_POINTS * near,
                 _BLOCK_SAMPLES)
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
        samples for the far factors, CONTOUR_START_POINTS for the near ones
        and, for the far factors its cluster carries, the interpolant of
        the cluster's proxy circle (_proxies, computed once per call).  A
        round then evaluates only node k's own factor and adds F_k
        from its modes (_circle_logs).  The rounds run in lockstep over the
        nodes still live (numutil.settle_circles), until both modes of a
        node move by at most 1e-9 (1 + |m|); scale, the first round's
        maximum of Re(log P - const_k), stays frozen so that the rounds
        compare in one unit, and const_k enters only the returned scale and
        the modes' phase.

        The rounds start at CONTOUR_START_POINTS = 32.  The exclusion rule
        r = min(nn/4, (1 - |z_k|)/8) keeps every other zero at least 4r and
        the unit circle at least 8r from z_k, so mode j of P on the circle
        is at most M(4r) 4^-j (Cauchy; M the maximum of |P| on a circle
        about z_k), and the m-point rule, which aliases mode j with mode j +
        m, leaves modes 1 and 2 off by about 4^-m M(4r)/M(r) of the circle
        maximum (Trefethen & Weideman, SIAM Rev. 56, 2014): 4^-32 ~ 5e-20.
        The 64-point round certifies that under the same drift test.

        The samples cost (direct far factors) x 16 + (near factors) x 32
        factor evaluations per node, against N x 64 for every factor on the
        grid, and (proxy factors) x 32 per proxy circle, which stands for
        16 per member and factor; a round costs one factor per grid point
        and one inverse FFT of K modes.
        """
        nodes = (np.arange(self.z.size) if nodes is None
                 else np.atleast_1d(np.asarray(nodes, dtype=int)))
        bad = (nodes < 0) | (nodes >= self.z.size)
        if np.any(bad):
            raise IndexError(f"node index {nodes[bad][0]} out of range")
        const = self.node_deleted_logs()
        prox = self._proxies(nodes)
        out = NodeModes(np.empty(nodes.size), np.empty(nodes.size, complex),
                        np.empty(nodes.size, complex),
                        np.zeros(nodes.size, dtype=int))
        # blocks of nodes whose 64-point round holds _BLOCK_PAIRS samples
        for sl in slices(nodes.size, 2 * CONTOUR_START_POINTS):
            blk = nodes[sl]
            coef = self._centred_modes(blk, prox)
            # the first round's scale and the last round's modes, per node
            scale, prev = None, np.empty((blk.size, 2), dtype=complex)

            def settle(live, theta, unit, vals):
                nonlocal scale
                fault = circle_fault(vals)
                if fault is not None:
                    raise RuntimeError(f"exclusion circle of node "
                                       f"{int(blk[live[fault[0]]])}: "
                                       f"{fault[1]}")
                frozen = None if scale is None else scale[live]
                first, cur = circle_modes(theta, vals, (1, 2), frozen)
                done = np.zeros(live.size, dtype=bool)
                if scale is None:
                    scale = first
                else:
                    done = np.all(np.abs(cur - prev[live])
                                  <= 1e-9 * (1.0 + np.abs(cur)), axis=1)
                    sel, k = sl.start + live[done], blk[live[done]]
                    phase = np.exp(1j * const[k].imag)
                    out.scale[sel] = scale[live[done]] + const[k].real
                    out.m1[sel] = cur[done, 0] * phase
                    out.m2[sel] = cur[done, 1] * phase
                    out.points[sel] = theta.size
                prev[live] = cur
                return done

            left = settle_circles(
                self._circle_logs(blk, coef, CONTOUR_START_POINTS),
                lambda live, unit: self._circle_logs(
                    blk[live], coef[live], 2 * unit.size, slice(1, None, 2)),
                settle, CONTOUR_MAX_POINTS)
            if left.size:
                raise RuntimeError(
                    f"exclusion-circle contour at node {int(blk[left[0]])} "
                    f"did not converge within {CONTOUR_MAX_POINTS} points")
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

    def balance_checks(self):
        """(lhs, rhs) of the deleted-product / integrated-count balance at
        every node, as two arrays, from the node pass (_node_pass):

            lhs_k = | log|B_k(z_k)| + N_{z_k}((1 - |z_k|)/2) |,
            rhs_k = sum_n |(1 - |z_n|^2)/(1 - conj(z_n) z_k)|^(s+1).

        The ratio lhs/rhs over nodes estimates the balance constant.  Every
        entry equals the single-node form bit for bit."""
        nodes = self._node_pass()
        return np.abs(nodes.deleted.real + nodes.count), nodes.rhs.copy()

    def balance_constant(self) -> float:
        """Largest lhs/rhs of balance_checks over the nodes (0 for none)."""
        lhs, rhs = self.balance_checks()
        return float(np.max(lhs / rhs)) if lhs.size else 0.0

"""Canonical products over disc zero sequences, evaluated in log space: the
closed form of P and its log-derivatives, at points and at the nodes.

Factors are E(w_n(z), s) with w_n(z) = (1 - |z_n|^2) / (1 - conj(z_n) z),
E(w, 0) = 1 - w and E(w, s) = (1 - w) exp(w + w^2/2 + ... + w^s/s).  Every
evaluation sums per-factor principal logs; moduli are exact and phase
ambiguities cancel in the ratios consumed downstream (P'/P, P''/P, term
ratios).

Every per-factor quantity -- the factor logs, the first and second
log-derivatives, the node targets and the interpolation series' term logs --
is built from one pair of pieces per point and node, (z - z_n, 1 - conj(z_n)
z), which _pieces forms; at the nodes one pass (_node_pass) takes every node
x node quantity from one set of pieces, the exclusion radii and each node's
near factors from the distances |z_k - z_n| in them.  The residue contour
that checks the node targets is discosc.contour.  Points x nodes passes
loop over cache-sized blocks (numutil.slices); numutil.map_work splits the
series pass and the node pass over two threads, each row counted by its
cost.  The series pass forms its pieces, factor logs and log-derivatives in
buffers that each run allocates once (the out= forms of _pieces,
_factor_logs and _log_derivatives); their principal logs come from
numutil.clog.

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

import numpy as np

from . import contour, numutil
# circle_nodes is looked up here by bench/tracer.py
from .numutil import (circle_nodes, clog, disc_points,  # noqa: F401
                      distance_rows, flat_points, like_input, map_work,
                      one_minus_abs, one_minus_abs2, one_minus_conj_mul,
                      poly_part, slices)
from .sequences import ZeroSequence, blaschke_sum, near_counts

__all__ = [
    "CanonicalProduct",
    "primary_factor",
]


def primary_factor(w, s: int):
    """E(w, s) = (1 - w) exp(w + ... + w^s/s)."""
    if s < 0:
        raise ValueError("genus must be nonnegative")
    w = np.asarray(w, dtype=complex)
    return (1.0 - w) * np.exp(poly_part(w, s))


# the arrays of CanonicalProduct._node_pass
NodePass = namedtuple("NodePass", "targets deleted zeroed log_dp count rhs "
                                  "radii near near_cols")


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
        self._geometry: contour.Geometry | None = None

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
            logs += poly_part(np.subtract(1.0, omw, out=omw), self.genus)
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
            near = np.less(d, contour.NODE_NEAR_RATIO * r[:, None])
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
                logs += poly_part(np.subtract(1.0, omw, out=omw), s)
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
        the n != k with |z_k - z_n| < contour.NODE_NEAR_RATIO r_k, and
        near_cols those n, ascending, node after node."""
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

    def _contour(self) -> contour.Geometry:
        """What the residue contour reads of the product, formed once."""
        if self._geometry is None:
            npass = self._node_pass()
            self._geometry = contour.geometry(
                self.z, self.genus, npass.radii, npass.near, npass.near_cols)
        return self._geometry

    def node_contour_modes(self, nodes=None) -> contour.NodeModes:
        """Fourier modes of P on the exclusion circles of the given nodes (all
        by default), from contour.node_modes; const_k = node_deleted_logs()[k]
        enters here alone, Re into the scale and Im as the modes' phase."""
        nodes = (np.arange(self.z.size) if nodes is None
                 else np.atleast_1d(np.asarray(nodes, dtype=int)))
        bad = (nodes < 0) | (nodes >= self.z.size)
        if np.any(bad):
            raise IndexError(f"node index {nodes[bad][0]} out of range")
        const = self.node_deleted_logs()[nodes]
        out = contour.node_modes(self._contour(), nodes)
        phase = np.exp(1j * const.imag)
        return out._replace(scale=out.scale + const.real, m1=out.m1 * phase,
                            m2=out.m2 * phase)

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

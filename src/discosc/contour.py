"""The residue contour: Fourier modes of a canonical product P on the
exclusion circles of its nodes, which certify the closed-form node targets
b_k = -P''(z_k)/(2 P'(z_k)).

It reads only the nodes, the genus, the exclusion radii r_k and the near
lists of the node pass (Geometry), and imports nothing from the package but
numutil.  On the circle z_k + u, u = r_k e^{i theta}, log P = log E_k(z_k +
u) + const_k + F_k(u) up to 2 pi i, const_k = sum_{n != k} log E_n(z_k),
which node_modes leaves to its caller.  z_k + u is never formed: node k's
own factor is taken from u (_circle_logs), and every other factor enters
F_k centred on the node (_field_samples), which keeps contours around deep
nodes accurate.  Far factors (|z_n - z_k| >= NODE_NEAR_RATIO r_k) enter
from NODE_FAR_SAMPLES samples, near ones from CONTOUR_START_POINTS, and a
far factor that a whole cluster sees from afar through the cluster's proxy
circle (_proxies, _member_modes); the proxy and node circles are the rows
of two sampling stages with one runner (_stage).

The exclusion rule r = min(nn/4, (1 - |z_k|)/8) keeps every other zero at
least 4r and the unit circle at least 8r from z_k, so mode j of P on the
circle is at most M(4r) 4^-j (Cauchy; M the maximum of |P| on a circle
about z_k), and the m-point rule, which aliases mode j with mode j + m,
leaves modes 1 and 2 off by about 4^-m M(4r)/M(r) of the circle maximum
(Trefethen & Weideman, SIAM Rev. 56, 2014): 4^-32 ~ 5e-20 on the first
round, which the 64-point round certifies under the drift test.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# numutil.circle_nodes is looked up at call time: bench/tracer.py counts it
from . import numutil
from .numutil import (CONTOUR_MAX_POINTS, CONTOUR_START_POINTS, circle_fault,
                      circle_modes, clog, clog1p, map_work, one_minus_abs,
                      one_minus_abs2, one_minus_conj_mul, poly_diff,
                      poly_part, settle_circles, slices)

# on the exclusion circle of node k the factors with |z_n - z_k| <
# NODE_NEAR_RATIO r_k (the node pass's near lists) enter through
# CONTOUR_START_POINTS samples and the rest through NODE_FAR_SAMPLES
NODE_NEAR_RATIO = 16.0
NODE_FAR_SAMPLES = 16
# a far factor enters every member of a node cluster through the cluster's
# proxy circle, of radius NODE_PROXY_MARGIN times the members' reach, when
# its zero and its reflected pole lie NODE_PROXY_RATIO proxy radii or more
# from the centre; a cluster takes its proxy when that saves more than
# NODE_PROXY_SAVING samples (see geometry and _proxies)
NODE_PROXY_RATIO = 4.0
NODE_PROXY_MARGIN = 1.25
NODE_PROXY_SAVING = 4096
# factor x sample pairs per step of _field_samples (2^14 took the N = 368
# and 964 contours 14% and 6% faster than 2^15, 2^12 17% and 33% slower),
# and direct samples per block of a stage (_stage): up to 2^18 a block on
# two workers and 2^19 on one, whatever N (timings in the README)
_SAMPLE_PAIRS = 2 ** 14
_BLOCK_SAMPLES = 2 ** 19
_EPS = float(np.finfo(float).eps)


class NodeModes(NamedTuple):
    """Fourier modes of P on exclusion circles, one entry per node:
    m1 = P'(z_k) r_k e^-scale and m2 = P''(z_k) r_k^2 e^-scale / 2, and
    the grid size of the round on which both settled."""
    scale: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    points: np.ndarray


def _lists(count: np.ndarray, flat: np.ndarray, ids: np.ndarray):
    """(i, v) for each entry v of list ids[i], in row order, of the lists
    that flat holds one after another, count[j] entries for list j."""
    c = count[ids]
    i = np.repeat(np.arange(ids.size), c)
    ends = np.cumsum(count)[ids] - np.cumsum(c)
    return i, flat[np.repeat(ends, c) + np.arange(i.size)]


class Clusters(NamedTuple):
    """The node clusters of geometry(): node k lies in cluster of[k];
    cluster i has the seed node seed[i], the proxy radius rho[i] and the
    members members[starts[i]:starts[i + 1]], in ascending node order."""
    of: np.ndarray
    seed: np.ndarray
    rho: np.ndarray
    members: np.ndarray
    starts: np.ndarray


class Proxies(NamedTuple):
    """The proxy circles of one contour (_proxies), one row per cluster:
    node k's row is slot[k], its cluster, or -1 if that takes no proxy; a
    row holds the interpolant's modes, the factors it carries as packed bits
    (covered) and their count (sources), both with a last row of zeros."""
    slot: np.ndarray
    modes: np.ndarray
    covered: np.ndarray
    sources: np.ndarray


class Geometry(NamedTuple):
    """All the contour reads of a product: nodes, genus, exclusion radii,
    near lists (near[k] per node, in near_cols), clusters, conj(z), 1-|z|^2."""
    z: np.ndarray
    genus: int
    radii: np.ndarray
    near: np.ndarray
    near_cols: np.ndarray
    clusters: Clusters
    zc: np.ndarray
    gap2c: np.ndarray


def _tail_bound(q, qc, aw0, m: int, genus: int):
    """Per factor, a bound on the error of the m-point interpolant of its
    centred log on the circle |u| = r about z_k (_field_samples), from q =
    r/|z_k - z_n|, qc = r |conj(z_n)/den_n| and aw0 = |w0|, w0 = w_n(z_k),
    with den_n = 1 - conj(z_n) z_k.

    The centred log is log1p(u/(z_k - z_n)) - log1p(-conj(z_n) u/den_n) +
    poly(w_n(z_k + u)) - poly(w0), with w_n(z_k + u) = w0/(1 - conj(z_n)
    u/den_n).  Scaled to the circle, its Taylor coefficients in u are at
    most q^j/j and qc^j/j for the two log1p, and |w0|^i/i C(j+i-1, i-1) qc^j
    for the term w^i/i of the polynomial part.  With m samples, modes j >= m
    alias onto modes 0..m-1 and are cut off, so the interpolant is off by at
    most twice their sum, which C(m+t+i-1, i-1) <= C(m+i-1, i-1) C(t+i-1,
    i-1) bounds in closed form:

        sum_{j>=m} q^j/j <= q^m/(m (1-q)),
        sum_{j>=m} C(j+i-1, i-1) qc^j <= C(m+i-1, i-1) qc^m/(1-qc)^i.

    The exclusion rule keeps every other zero at least 4r from z_k, so q
    <= 1/4, and the unit circle at least 8r, so the reflected pole
    1/conj(z_n), at distance |den_n/conj(z_n)| >= 1 - |z_k| from z_k, gives
    qc <= 1/8.  The bound grows with each of q, qc and aw0.
    """
    acc = (q ** m / (1.0 - q) + qc ** m / (1.0 - qc)) / m
    wq = aw0 / (1.0 - qc)
    power = qc ** m
    for i in range(1, genus + 1):
        power = power * wq
        acc = acc + math.comb(m + i - 1, i - 1) / i * power
    return 2.0 * acc


def _row_tail_bounds(q, qc, aw0, starts, m: int, genus: int):
    """Per row of pairs (row i from pair starts[i] to the next start), a
    bound on the sum of _tail_bound over the row's pairs: (pairs in the row)
    x (_tail_bound at the row's largest q, qc and aw0), since _tail_bound
    grows with each, or where that exceeds eps/2 (a margin far above its
    rounding) the sum itself, so a bound above eps is the exact sum."""
    counts = np.diff(np.r_[starts, q.size])
    peak = [np.maximum.reduceat(x, starts) for x in (q, qc, aw0)]
    bound = counts * _tail_bound(*peak, m, genus)
    check = bound > 0.5 * _EPS
    if np.any(check):
        sel = np.repeat(check, counts)
        sums = np.cumsum(counts[check])
        bound[check] = np.add.reduceat(
            _tail_bound(q[sel], qc[sel], aw0[sel], m, genus),
            sums - counts[check])
    return bound


def _field_samples(geo: Geometry, r, zk, mask, unit):
    """(samples, bound) for the factors in mask on circles about a block
    of centres, one row per circle, at the m points unit: row i has the
    centre zk[i], a node or a cluster's seed, and the radius r[i], and
    mask[i, n] selects factor n (never one whose zero is the centre).
    samples[i, j] sums log E_n(z_k + u) - log E_n(z_k) over the factors of
    row i at u = r[i] e^{2 pi i j/m}, z_k = zk[i], each centred as
    log1p(u w_n(z_k + u)/(z_k - z_n)) + poly(w_n(z_k + u)) - poly(w_n(z_k)):
    (1 - w_n(z_k + u))/(1 - w_n(z_k)) = 1 + u w_n(z_k + u)/(z_k - z_n), so a
    term is about |u|/|z_k - z_n| in size and its rounding eps times that,
    where an uncentred log carries eps |log E_n|.  With den_n = 1 - conj(z_n)
    z_k and y = u/(1 - conj(z_n) u/den_n) = r/(e^{-2 pi i j/m} - r
    conj(z_n)/den_n), the log1p argument is w_n(z_k) y/(z_k - z_n) and
    w_n(z_k + u) - w_n(z_k) = w_n(z_k) conj(z_n) y/den_n, so a sample costs
    one complex division.  bound[i] bounds the sum of _tail_bound over the
    same factors (_row_tail_bounds).

    The pairs are taken in row order, _SAMPLE_PAIRS pairs x samples (or one
    sample of every pair) a step, each per-pair array freed after its last
    use, and every step reuses two buffers.
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
    zn = geo.z[cols]
    del rows
    inv = np.subtract(zk, zn)
    np.divide(1.0, inv, out=inv)
    den = one_minus_conj_mul(zn, zk, out=zk)
    del zk, zn
    c, w0 = geo.zc[cols], geo.gap2c[cols]
    del cols
    c /= den
    w0 /= den
    del den
    q, qc = np.abs(inv), np.abs(c)
    q *= rr
    qc *= rr
    bound[at] = _row_tail_bounds(q, qc, np.abs(w0), starts, unit.size,
                                 geo.genus)
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
        logs += poly_diff(w0, dw, geo.genus)
        out[at, lo:lo + step] = np.add.reduceat(logs, starts, axis=1).T
    return out, bound


def _stage(geo: Geometry, fields, tol, finite: bool, work, block, out):
    """One sampling stage over numutil.map_work, row i costing work[i]
    samples against _BLOCK_SAMPLES.  block(sl) gives the circles of rows sl,
    (rows, names, centres, radii, masks): circle i adds to out[rows[i]],
    names node names[i] and has one factor mask per field (label, unit).  A
    field's samples (_field_samples) with a tail bound above tol = (value,
    what), or, when finite, a nan or inf sample, raise RuntimeError naming
    the first such row's node and field; else their DFT adds to out."""
    def run(blocks):
        for sl in blocks:
            rows, names, zk, r, masks = block(sl)
            samples = [_field_samples(geo, r, zk, mask, unit)
                       for mask, (_, unit) in zip(masks, fields)]
            nan = np.array([finite & ~np.isfinite(v).all(axis=1)
                            for v, _ in samples])
            bad = nan | np.array([bound > tol[0] for _, bound in samples])
            hit = np.flatnonzero(np.any(bad, axis=0))
            if hit.size:
                i = hit[0]
                f = int(np.argmax(bad[:, i]))
                (label, unit), bound = fields[f], samples[f][1][i]
                why = ("a sample is nan or inf" if nan[f, i] else
                       f"Fourier tail bound {bound:.2e} at {unit.size} "
                       f"samples exceeds {tol[1]} {tol[0]:.2e}")
                raise RuntimeError(f"{label} of node {int(names[i])}: {why}")
            for (vals, _), (_, unit) in zip(samples, fields):
                out[rows, :unit.size] += np.fft.fft(vals, axis=1) / unit.size

    map_work(run, work, _BLOCK_SAMPLES)


def geometry(z, genus: int, radii, near, near_cols) -> Geometry:
    """The Geometry of a product, with its clusters: the deepest free node c
    (least 1 - |c|, lowest index first) seeds a cluster that takes every
    free node within 1 - |c| of it, until no node is free.  The proxy radius
    is NODE_PROXY_MARGIN max_k(|z_k - c| + r_k) over the members, so every
    exclusion circle of the cluster lies in the proxy disc at a margin."""
    gap = one_minus_abs(z)
    of = np.full(z.size, -1)
    seed = []
    free = np.argsort(gap, kind="stable")  # deepest first
    while free.size:
        c = free[0]
        taken = np.abs(z[free] - z[c]) <= gap[c]
        of[free[taken]] = len(seed)
        seed.append(c)
        free = free[~taken]
    seed = np.array(seed, dtype=int)
    members = np.argsort(of, kind="stable")
    starts = np.searchsorted(of[members], np.arange(seed.size + 1))
    reach = np.abs(z - z[seed[of]]) + radii
    rho = NODE_PROXY_MARGIN * (np.maximum.reduceat(
        reach[members], starts[:-1]) if seed.size else reach)
    return Geometry(z, genus, radii, near, near_cols,
                    Clusters(of, seed, rho, members, starts), np.conjugate(z),
                    one_minus_abs2(z).astype(complex))


def _proxies(geo: Geometry, nodes: np.ndarray) -> Proxies:
    """The proxy circles of the clusters of the given nodes.  A factor n
    qualifies for cluster B (centre c, proxy radius rho) when it is far
    (|z_n - z_k| >= NODE_NEAR_RATIO r_k) for every member k and its zero and
    reflected pole 1/conj(z_n) both lie at least NODE_PROXY_RATIO rho from
    c.  B takes a proxy when members x sources x NODE_FAR_SAMPLES direct
    samples exceed the proxy's sources x CONTOUR_START_POINTS by more than
    NODE_PROXY_SAVING.  The proxy's centred field G_B(v) = sum_n log E_n(c +
    v) - log E_n(c) is sampled on |v| = rho, a row of _stage counted at (n -
    members) x CONTOUR_START_POINTS samples, the most its sources can take.
    Its zeros and poles lie at least NODE_PROXY_RATIO rho away, so q, qc <=
    1/4, and a _tail_bound sum above eps/2 (a member's value takes two values
    of the interpolant) or a nan or inf sample, which would otherwise pass
    for a fault of every member's exclusion circle, raises RuntimeError
    naming the cluster's lowest-index node.  No value depends on the block,
    the worker count or the other nodes asked for.
    """
    z, part = geo.z, geo.clusters
    n, m = z.size, CONTOUR_START_POINTS
    sizes = np.diff(part.starts)
    need = np.flatnonzero(np.bincount(part.of[nodes],
                                      minlength=part.seed.size))
    # no cluster saves more than all other factors as its sources would
    need = need[(n - sizes[need]) * (sizes[need] * NODE_FAR_SAMPLES - m)
                > NODE_PROXY_SAVING]
    slot = np.full(part.seed.size, -1)
    modes = np.zeros((part.seed.size, m), dtype=complex)
    covered = np.zeros((part.seed.size + 1, -(-n // 8)), dtype=np.uint8)
    count = np.zeros(part.seed.size + 1, dtype=int)

    def block(sl):
        ids = need[sl]
        owner, rows = _lists(sizes, part.members, ids)
        # far for every member: clear the near pairs
        qual = np.ones((ids.size, n), dtype=bool)
        k, j = _lists(geo.near, geo.near_cols, rows)
        qual[owner[k], j] = False
        c, rho = z[part.seed[ids]], part.rho[ids]
        gap = NODE_PROXY_RATIO * rho[:, None]
        qual &= np.abs(z - c[:, None]) >= gap
        qual &= (np.abs(one_minus_conj_mul(z, c[:, None]))
                 >= gap * np.abs(z))
        sources = np.count_nonzero(qual, axis=1)
        saving = sources * (sizes[ids] * NODE_FAR_SAMPLES - m)
        take = np.flatnonzero(saving > NODE_PROXY_SAVING)
        at = ids[take]
        slot[at] = at
        covered[at] = np.packbits(qual[take], axis=1)
        count[at] = sources[take]
        return (at, part.members[part.starts[ids[take]]], c[take],
                rho[take], [qual[take]])

    _stage(geo, [("proxy circle", numutil.circle_nodes(m)[1])],
           (0.5 * _EPS, "half the unit roundoff"), True,
           (n - sizes[need]) * m, block, modes)
    return Proxies(slot[part.of], modes, covered, count)


def _member_modes(geo: Geometry, ks: np.ndarray, rows: np.ndarray,
                  prox: Proxies, unit: np.ndarray) -> np.ndarray:
    """Modes 0..M-1 (M = unit.size) of p(d_k + u) - p(d_k) on the circle u =
    r_k e^{i theta} of each node ks[i], p the interpolant of the proxy of
    cluster rows[i], of centre c, and d_k = z_k - c.

    With s = d_k/rho, t = u/rho and p(v) = sum_j a_j (v/rho)^j, Horner's
    rule gives p(s) = B_0 by B_j = a_j + s B_(j+1), and the difference of
    the two Horner sums by D_j = (s + t) D_(j+1) + t B_(j+1): every term
    carries t, so a small t keeps its relative accuracy.  The values are a
    polynomial of degree < M in u, which the DFT of the M values holds
    exactly.  |d_k + u| <= rho/NODE_PROXY_MARGIN, so by the maximum-modulus
    principle each mode is off by at most twice the proxy's tail bound."""
    rho = geo.clusters.rho[rows][:, None]
    s = (geo.z[ks] - geo.z[geo.clusters.seed[rows]])[:, None] / rho
    t = (geo.radii[ks][:, None] / rho) * unit
    a = prox.modes[rows]
    st = s + t
    horner = a[:, -1:]
    diff = np.zeros_like(t)
    for j in range(unit.size - 2, -1, -1):
        diff = st * diff + t * horner
        horner = a[:, j:j + 1] + s * horner
    return np.fft.fft(diff, axis=1) / unit.size


def _centred_modes(geo: Geometry, nodes: np.ndarray,
                   prox: Proxies) -> np.ndarray:
    """Fourier modes 0..K-1 of F_k(e^{i theta}) = sum_{n != k} log
    E_n(z_k + r_k e^{i theta}) - log E_n(z_k), one row per node, K =
    max(NODE_FAR_SAMPLES, CONTOUR_START_POINTS); F_k is analytic for |u| <
    min_n |z_n - z_k|, so it has no negative modes.  A row sums the proxy's
    interpolant (_member_modes) for the far factors that node k's cluster
    carries, and the far (q <= 1/16) and near (q <= 1/4) fields of the
    others, a row of _stage.  A field's tail bound above the unit roundoff
    raises RuntimeError naming the node, and its far field if both fail; a
    nan sample is left to the exclusion circle (node_modes)."""
    fields = [("far field", numutil.circle_nodes(NODE_FAR_SAMPLES)[1]),
              ("near field", numutil.circle_nodes(CONTOUR_START_POINTS)[1])]
    n = geo.z.size
    coef = np.zeros((nodes.size, max(NODE_FAR_SAMPLES, CONTOUR_START_POINTS)),
                    dtype=complex)
    slot = prox.slot[nodes]
    on = np.flatnonzero(slot >= 0)
    if on.size:
        coef[on, :CONTOUR_START_POINTS] = _member_modes(
            geo, nodes[on], slot[on], prox, fields[1][1])

    def block(sl):
        blk = nodes[sl]
        near = np.zeros((blk.size, n), dtype=bool)
        near[_lists(geo.near, geo.near_cols, blk)] = True
        far = ~near
        far[np.arange(blk.size), blk] = False
        if on.size:
            far &= ~np.unpackbits(prox.covered[slot[sl]], axis=1,
                                  count=n).view(bool)
        return sl, blk, geo.z[blk], geo.radii[blk], (far, near)

    near = geo.near[nodes]
    far = n - 1 - near - prox.sources[slot]
    _stage(geo, fields, (_EPS, "the unit roundoff"), False,
           NODE_FAR_SAMPLES * far + CONTOUR_START_POINTS * near, block, coef)
    return coef


def _circle_logs(geo: Geometry, ks: np.ndarray, coef: np.ndarray, m: int,
                 pick=slice(None)):
    """log P(z_k + u) - const_k at the points pick of the m-point grid u =
    r_k e^{i theta} about the nodes ks, one row each: node k's own factor,
    log(-conj(z_k) u/(1 - |z_k|^2 - conj(z_k) u)) + poly(w_k(z_k + u)) (log
    u at the origin), plus F_k from its modes coef by an inverse FFT on a
    grid of at least K points, which holds the m-point grid."""
    _, unit = numutil.circle_nodes(m)
    u = geo.radii[ks][:, None] * unit[pick]
    t = geo.zc[ks][:, None] * u
    gap2 = geo.gap2c[ks].real[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = clog(-t / (gap2 - t)) + poly_part(gap2 / (gap2 - t),
                                                 geo.genus)
        at = geo.z[ks] == 0.0
        logs[at] = clog(u[at])
    size = max(m, coef.shape[1])
    grid = size * np.fft.ifft(coef, n=size, axis=1)[:, ::size // m]
    return logs + grid[:, pick]


def node_modes(geo: Geometry, nodes: np.ndarray) -> NodeModes:
    """Fourier modes of P e^-const_k on the exclusion circles of the nodes
    (valid indices), in rounds run in lockstep (numutil.settle_circles)
    until both modes of a node move by at most 1e-9 (1 + |m|); scale, the
    first round's maximum of Re(log P - const_k), stays frozen so that the
    rounds compare in one unit.  A nan or +inf circle value, or a circle
    not settled within CONTOUR_MAX_POINTS points, raises RuntimeError."""
    prox = _proxies(geo, nodes)
    out = NodeModes(np.empty(nodes.size), *np.empty((2, nodes.size), complex),
                    np.zeros(nodes.size, dtype=int))
    # blocks of nodes whose 64-point round holds _BLOCK_PAIRS samples
    for sl in slices(nodes.size, 2 * CONTOUR_START_POINTS):
        blk = nodes[sl]
        coef = _centred_modes(geo, blk, prox)
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
            if scale is None:
                scale, done = first, np.zeros(live.size, dtype=bool)
            else:
                done = np.all(np.abs(cur - prev[live])
                              <= 1e-9 * (1.0 + np.abs(cur)), axis=1)
                sel = sl.start + live[done]
                out.scale[sel] = scale[live[done]]
                out.m1[sel] = cur[done, 0]
                out.m2[sel] = cur[done, 1]
                out.points[sel] = theta.size
            prev[live] = cur
            return done

        left = settle_circles(
            _circle_logs(geo, blk, coef, CONTOUR_START_POINTS),
            lambda live, unit: _circle_logs(
                geo, blk[live], coef[live], 2 * unit.size,
                slice(1, None, 2)),
            settle, CONTOUR_MAX_POINTS)
        if left.size:
            raise RuntimeError(
                f"exclusion-circle contour at node {int(blk[left[0]])} "
                f"did not converge within {CONTOUR_MAX_POINTS} points")
    return out

"""Reference forms shared by the test modules: exact forms that the package
no longer needs but that tests compare its faster routes against."""

import math

import numpy as np

from discosc.geometry import pseudo_distance
from discosc.interpolation import (_PASS_ERRSTATE, SeriesPass, _above_floor,
                                   _row_sums)
from discosc import numutil
from discosc.contour import NODE_NEAR_RATIO
from discosc.numutil import clog, disc_points, one_minus_conj_mul, poly_part
from discosc.sequences import _boundary_grid, log_integrated_count


def offset_pieces(prod, k, d):
    """The pieces of every factor of prod at z_k + d, (z_k - z_n) + d and
    (1 - conj(z_n) z_k) - conj(z_n) d, computed without forming the sum.

    k (node indices: one, or one per row) and d broadcast together; the
    factors run along a new last axis.  Materialising z_k + d rounds the
    offset into the gap of z_k, which destroys contour accuracy at deep
    nodes.
    """
    zk = np.asarray(prod.z[k])[..., None]
    dd = np.asarray(d, dtype=complex)[..., None]
    return ((zk - prod.z) + dd,
            one_minus_conj_mul(prod.z, zk) - prod._zc * dd)


def deleted_log_eval(prod, k, z):
    """Log of prod with factor k removed, at the points z; finite at z =
    z_k.  Each row sums its N - 1 logs in node order, as
    node_deleted_logs does at the nodes."""
    logs = prod._factor_logs(*prod._pieces(disc_points(z)))
    mask = np.ones(prod.z.size, dtype=bool)
    mask[k] = False
    return np.sum(logs[:, mask], axis=1)


def balance_check(prod, k, delta=0.5):
    """(lhs, rhs) of the deleted-product / integrated-count balance at node
    k alone, the form balance_checks takes at every node:

        lhs = | log|B_k(z_k)| + N_{z_k}(delta (1 - |z_k|)) |,
        rhs = sum_n |(1 - |z_n|^2)/(1 - conj(z_n) z_k)|^(s+1).
    """
    zk = prod.z[k]
    lhs = abs(prod.node_deleted_logs()[k].real
              + log_integrated_count(prod.zeros, zk, delta * prod._gap[k]))
    ratios = np.abs(prod._gap2 / one_minus_conj_mul(prod.z, zk))
    return float(lhs), float(np.sum(ratios ** (prod.genus + 1)))


# -- the four nodes x nodes passes before CanonicalProduct._node_pass --------
# Each forms its own pieces over prod._blocks(prod.z); the node pass must
# give their values bit for bit.


def node_targets_pass(prod):
    """b_k = -P''(z_k)/(2 P'(z_k)) at every node: the deleted sum of the
    factors' -u w^(s+1)/(1 - w), u = conj(z_n)/(1 - conj(z_n) z), minus
    the factor-k limit (s+1) conj(z_k)/(1 - |z_k|^2); a node at the origin
    takes 1/(z - z_n) in its column."""
    s, zc, gap2 = prod.genus, prod._zc, prod._gap2
    out = np.empty(prod.z.size, dtype=complex)
    for sl, delta, den in prod._blocks(prod.z):
        omw = -zc * delta / den
        with np.errstate(divide="ignore", invalid="ignore"):
            L = -(zc / den) * (gap2 / den) ** (s + 1) / omw
            i = prod._origin_idx
            if i is not None:
                L[:, i] = 1.0 / delta[:, i]
        rows = np.arange(len(delta))
        L[rows, sl.start + rows] = 0.0
        out[sl] = -np.sum(L, axis=1)
    out -= (s + 1) * zc / gap2
    return out


def node_deleted_logs_pass(prod):
    """sum over n != k of log E_n(z_k) at every node: each row's logs after
    the diagonal moved one place left, the first N - 1 summed."""
    out = np.empty(prod.z.size, dtype=complex)
    for sl, delta, den in prod._blocks(prod.z):
        logs = prod._factor_logs(delta, den)
        for i, row in enumerate(logs, start=sl.start):
            row[i:-1] = row[i + 1:]
        out[sl] = np.sum(logs[:, :-1], axis=1)
    return out


def exclusion_rule(prod):
    """(r, near) at every node: r_k = min(nn_k/4, (1 - |z_k|)/8), with the
    nearest-neighbour distances nn_k over numutil.distance_rows (inf for a
    lone node), and near[k, n] = (|z_k - z_n| < NODE_NEAR_RATIO r_k) for n
    != k: the serial nearest-neighbour pass that products ran at
    construction before the node pass took the radii and near lists."""
    n = prod.z.size
    r, near = np.empty(n), np.empty((n, n), dtype=bool)
    for sl, d in numutil.distance_rows(prod.z, prod.z):
        d[np.arange(d.shape[0]), np.arange(sl.start, sl.stop)] = math.inf
        r[sl] = np.minimum(np.min(d, axis=1) / 4.0, prod._gap[sl] / 8.0)
        np.less(d, NODE_NEAR_RATIO * r[sl, None], out=near[sl])
    return r, near


def balance_checks_pass(prod, delta=0.5):
    """(lhs, rhs) of balance_checks at every node, each node's distances
    sorted and its logs summed in the order of log_integrated_count."""
    deleted = node_deleted_logs_pass(prod).real
    count, rhs = np.zeros(prod.z.size), np.empty(prod.z.size)
    radius = delta * prod._gap
    for sl, diff, den in prod._blocks(prod.z):
        dist = np.abs(diff)
        r = radius[sl, None]
        inside = np.sum(dist <= r, axis=1) - 1
        m = int(np.max(inside, initial=0)) + 1
        if m < dist.shape[1]:
            dist = np.partition(dist, m, axis=1)[:, :m]
        d = np.sort(dist, axis=1)[:, 1:m]
        logs = np.log(r / d)
        for i in np.flatnonzero(inside):
            count[sl.start + i] = np.sum(logs[i, :inside[i]])
        ratios = np.abs(prod._gap2c / den)
        rhs[sl] = np.sum(ratios ** (prod.genus + 1), axis=1)
    return np.abs(deleted + count), rhs


def node_terms_pass(series, k):
    """InterpolationSeries._node_terms(k): (Re t, exp(t - Re t)) for t the
    log of the series at the nodes k, the factor logs at z_k summed with
    column k set to 0."""
    prod = series.product
    t = np.empty(k.size, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        for sl, delta, den in prod._blocks(prod.z[k]):
            kk, rows = k[sl], np.arange(len(delta))
            logs = prod._factor_logs(delta, den)
            logs[rows, kk] = 0.0
            zk, den_k = prod.z[kk], den[rows, kk]
            wk = prod._gap2[kk] / den_k
            fact = np.where(zk == 0.0, 0.0,
                            clog(-np.conj(zk) / den_k)
                            + poly_part(wk, prod.genus))
            t[sl] = (series._log_b[kk] - series._log_dp[kk]
                     + np.sum(logs, axis=1) + fact
                     + (series.exponents[kk] - 1) * clog(wk))
        return t.real, np.where(np.isfinite(t), np.exp(t - t.real), 0.0)


def log_derivative_at_zero(prod, k):
    """log P'(z_k) one node at a time, in scalar arithmetic: the deleted
    log, plus H_s and log(-conj(z_k)/(1 - |z_k|^2)) off the origin."""
    if k == prod._origin_idx:
        return complex(prod.node_deleted_logs()[k])
    coeff = -prod._zc[k] / prod._gap2[k]
    return (complex(prod.node_deleted_logs()[k])
            + float(sum(1.0 / j for j in range(1, prod.genus + 1)))
            + complex(np.log(complex(coeff))))


def clog1p(x):
    """numutil.clog1p on the strided real and imaginary views of x, in
    place."""
    a, b = x.real, x.imag
    excess = 2.0 + a
    excess *= a
    excess += b * b
    a1 = 1.0 + a
    np.log1p(excess, out=a)
    a *= 0.5
    np.arctan2(b, a1, out=b)
    return x


# -- the series pass in its plain form ----------------------------------------
# InterpolationSeries._pass as one expression per array, each block's
# temporaries fresh: the pass's buffered form must give its bits.


def plain_factor_logs(prod, delta, den):
    """CanonicalProduct._factor_logs with fresh temporaries."""
    omw = -prod._zc * delta / den
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = clog(omw) + poly_part(1.0 - omw, prod.genus)
        i = prod._origin_idx
        if i is not None:
            logs[..., i] = clog(delta[..., i])
    return logs


def plain_log_derivatives(prod, delta, w):
    """CanonicalProduct._log_derivatives with fresh temporaries, w/(z -
    z_n) formed twice."""
    inv = 1.0 / delta
    L = w * inv
    for _ in range(prod.genus):
        L = L * w
    return L, (w * prod._dlog_coef - w * inv) * L


def _plain_sums(series, pts, derivatives, node=None, rows=256):
    """Yield (slice, sums) as InterpolationSeries._sums does, over serial
    blocks of rows points."""
    prod = series.product
    floor = math.log(np.finfo(float).eps / prod.z.size)
    for lo in range(0, pts.size, rows):
        sl = slice(lo, min(lo + rows, pts.size))
        p = pts[sl][:, None]
        delta = p - prod.z[None, :]
        den = one_minus_conj_mul(prod.z[None, :], p)
        disc = None if node is None else node[sl]
        log_p = np.sum(plain_factor_logs(prod, delta, den), axis=1)
        w = prod._gap2c / den
        ad, aw = np.abs(delta), np.abs(w)
        re = series._c.real - np.log(ad) + series._sm1 * np.log(aw)
        sm, keep = _above_floor(re, floor)
        if derivatives:
            i = np.arange(len(ad))
            own = 1.0 / ad + series._bound_coef * aw
            if disc is not None:
                own += 1.0 / ad[i, disc][:, None]
                own[i, disc] = series._bound_coef[disc] * aw[i, disc]
            keep |= _above_floor(re + np.log(own), floor)[1]
        at = np.flatnonzero(keep)
        rows_at, cols = np.divmod(at, prod.z.size)
        d = delta.ravel()[at]
        t = np.empty(rows_at.size, dtype=complex)
        t.real = re.ravel()[at] - sm[rows_at]
        t.imag = (series._c.imag[cols] - np.angle(d)
                  + series._sm1[cols] * np.angle(w.ravel()[at]))
        e = np.exp(t)
        total = _row_sums(rows_at, e, len(delta))
        if not derivatives:
            yield sl, (log_p, sm, total)
            continue
        L, dL = plain_log_derivatives(prod, delta, w)
        inv = 1.0 / d
        if disc is None:
            near = np.argmin(ad, axis=1)
            disc_of = np.where(ad[i, near] <= prod.exclusion_radii[near],
                               near, -1)
        else:
            disc_of = disc
            L[i, disc], dL[i, disc] = prod._regular_part(
                disc, den[i, disc], w[i, disc], 1)
            inv -= 1.0 / delta[i, disc][rows_at]
        lam = np.sum(L, axis=1)
        factor = (lam[rows_at] - inv
                  + series._sm1[cols] * (prod._zc[cols] / den.ravel()[at]))
        yield sl, (log_p, sm, total,
                   _row_sums(rows_at, e * factor, len(delta)), lam,
                   np.sum(dL, axis=1), disc_of)


def series_pass(series, pts, derivatives=False):
    """InterpolationSeries._pass(pts, derivatives) on one thread, every
    block in the plain form: every point, then with derivatives the points
    in exclusion discs again with the node's pole divided out."""
    n = pts.size
    sm = np.full(n, -math.inf)
    log_p, total = np.zeros((2, n), dtype=complex)
    dtotal, lam, dlam = (np.zeros((3, n), dtype=complex) if derivatives
                         else (None, None, None))
    node = np.full(n, -1) if derivatives else None
    out = (log_p, sm, total, dtotal, lam, dlam, node)
    with np.errstate(**_PASS_ERRSTATE):
        for sl, vals in _plain_sums(series, pts, derivatives):
            for arr, val in zip(out, vals):
                arr[sl] = val
        inside = np.flatnonzero(node >= 0) if derivatives else []
        if len(inside):
            for sl, vals in _plain_sums(series, pts[inside], True,
                                        node[inside]):
                for arr, val in zip(out[:6], vals):
                    arr[inside[sl]] = val
    return SeriesPass(*out)


# -- the sequence estimators on full N x N matrices ---------------------------
# The package forms these row by row over numutil.slices blocks; each must
# give the values of its full-matrix form bit for bit.


def separation_constant(seq):
    """Smallest pseudohyperbolic distance over the upper triangle."""
    z = seq.points
    iu = np.triu_indices(len(seq), k=1)
    return float(np.min(pseudo_distance(z[:, None], z[None, :])[iu]))


def uniform_separation_log(seq):
    """The smallest row sum of log sigma(z_j, z_n), 0 on the diagonal."""
    z = seq.points
    with np.errstate(divide="ignore"):
        logs = np.log(pseudo_distance(z[:, None], z[None, :]))
    np.fill_diagonal(logs, 0.0)
    return float(np.min(np.sum(logs, axis=1)))


def uniform_separation_constant(seq):
    """exp of uniform_separation_log."""
    return float(np.exp(uniform_separation_log(seq)))


def uniform_density_estimate(seq, r_ladder):
    """The (r, value) ladder from one centres x points matrix of
    pseudohyperbolic distances."""
    centers = np.concatenate([seq.points, _boundary_grid(32, 64)])
    sig = pseudo_distance(centers[:, None], seq.points[None, :])
    out = []
    with np.errstate(divide="ignore"):
        neglog = -np.log(sig)
    for r in r_ladder:
        mask = (sig > 0.5) & (sig < r)
        sums = np.sum(np.where(mask, neglog, 0.0), axis=1)
        out.append((float(r), float(np.max(sums) / math.log(1.0 / (1.0 - r)))))
    return out


def rho_density_estimate(seq, rho, R_ladder):
    """The (R, value) ladder from one centres x points distance matrix."""
    top = float(np.max(seq.moduli()))
    grid = _boundary_grid(16, 32, gap_lo=max(1e-3, 1.0 - top))
    centers = np.concatenate([seq.points, grid])
    rad = np.asarray(rho(np.abs(centers)), dtype=float)
    dist = np.abs(centers[:, None] - seq.points[None, :])
    out = []
    for R in R_ladder:
        counts = np.count_nonzero(dist <= R * rad[:, None], axis=1)
        contained = np.abs(centers) + R * rad <= top
        pool = counts[contained] if np.any(contained) else counts
        out.append((float(R), float(np.max(pool) / R ** 2)))
    return out


def rho_separation(seq, rho):
    """Smallest |z_k - z_n| / min(rho(|z_k|), rho(|z_n|)) over the upper
    triangle."""
    z = seq.points
    rad = np.asarray(rho(np.abs(z)), dtype=float)
    dist = np.abs(z[:, None] - z[None, :])
    floor = np.minimum(rad[:, None], rad[None, :])
    iu = np.triu_indices(len(seq), k=1)
    return float(np.min(dist[iu] / floor[iu]))


# -- the block rule of numutil.map_work, one row at a time --------------------


def work_runs(work, budget, parts=1):
    """numutil.work_runs by one Python loop over the rows: each row is given
    its run, and opens a block when it starts its run, when it would take
    the block before it past budget // p units, or when that block holds
    numutil._CHUNK rows."""
    total = int(np.sum(work))
    if total < budget:
        parts = 1
    limit = budget // parts
    start = np.cumsum(work) - work
    run = np.minimum(start * parts // max(total, 1), parts - 1).tolist()
    edges, fresh, held = [], [], 0
    for i, w in enumerate(np.asarray(work).tolist()):
        first = i == 0 or run[i] != run[i - 1]
        if first or held + w > limit or i - edges[-1] == numutil._CHUNK:
            edges.append(i)
            fresh.append(first)
            held = 0
        held += w
    runs = []
    for lo, hi, first in zip(edges, edges[1:] + [len(run)], fresh):
        if first:
            runs.append([])
        runs[-1].append(slice(lo, hi))
    return runs

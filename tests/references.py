"""Reference forms shared by the test modules: exact forms that the package
no longer needs but that tests compare its faster routes against."""

import numpy as np

from discosc.numutil import disc_points, one_minus_conj_mul
from discosc.sequences import log_integrated_count


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
    lhs = abs(prod.node_deleted_log(k).real
              + log_integrated_count(prod.zeros, zk, delta * prod._gap[k]))
    ratios = np.abs(prod._gap2 / one_minus_conj_mul(prod.z, zk))
    return float(lhs), float(np.sum(ratios ** (prod.genus + 1)))

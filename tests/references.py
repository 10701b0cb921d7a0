"""Reference forms shared by the test modules: exact forms that the package
no longer needs but that tests compare its faster routes against."""

import numpy as np

from discosc.numutil import one_minus_conj_mul


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

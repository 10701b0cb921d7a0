"""High-precision oracle for log P, P'/P, P''/P, the node targets, h and a.

The oracle rebuilds the canonical product in mpmath at 50 digits straight
from its definition, P(z) = prod_n E(w_n(z), s) (a node at the origin
contributes a plain factor z), and takes every derivative from mp.diff of
that product or of the series, never from the closed forms the package
uses.  The series h uses the oracle's own targets b_n = -P''(z_n)/(2P'(z_n))
and P'(z_n); only the integer damping exponents come from the package.
"""

import math

import numpy as np
import pytest
from mpmath import mp

from discosc import (GrowthScale, ZeroSequence, build_coefficient,
                     generate_radial_geometric, node_targets)

LOG = GrowthScale.log_power(1.0)
REL = 1e-10


class Oracle:
    """P, h and a of a built bundle, evaluated in mpmath."""

    def __init__(self, bundle):
        self.genus = bundle.genus
        self.nodes = [mp.mpc(complex(z)) for z in bundle.product.z]
        self.exps = [int(s) for s in bundle.gprime.exponents]
        self.dp = [mp.diff(self.P, zn, 1) for zn in self.nodes]
        d2p = [mp.diff(self.P, zn, 2) for zn in self.nodes]
        self.b = [-q / (2 * p) for p, q in zip(self.dp, d2p)]

    def w(self, zn, z):
        return (1 - abs(zn) ** 2) / (1 - mp.conj(zn) * z)

    def P(self, z):
        val = mp.mpc(1)
        for zn in self.nodes:
            if zn == 0:
                val *= z
                continue
            w = self.w(zn, z)
            val *= (1 - w) * mp.exp(sum(w ** j / j
                                        for j in range(1, self.genus + 1)))
        return val

    def h(self, z):
        p = self.P(z)
        return sum(b / (z - zn) * p / dp * self.w(zn, z) ** (s - 1)
                   for zn, b, dp, s in zip(self.nodes, self.b, self.dp,
                                           self.exps))

    def a(self, z):
        p = self.P(z)
        lam = mp.diff(self.P, z, 1) / p
        lam2 = mp.diff(self.P, z, 2) / p
        h = self.h(z)
        return -lam2 - 2 * h * lam - h * h - mp.diff(self.h, z, 1)

    def a_at_node(self, k):
        """a(z_k) by l'Hopital's rule: a = -N/P with N = P'' + 2 h P' +
        (h^2 + h') P, and N(z_k) = 0 since h(z_k) = b_k = -P''/(2P'), so
        a(z_k) = -N'(z_k)/P'(z_k), where N' = P^(3) + 2 h' P' + 2 h P'' +
        (h^2 + h') P'.  A sample 2^-(prec + addprec) from the node loses
        about that many bits in 1 - w_k, so the differences take 60 extra
        bits: at mp.diff's default 10, h' at node 0 of geo50 is off by
        1e-7."""
        zk, b = self.nodes[k], self.b[k]
        d1, d2 = self.dp[k], -2 * b * self.dp[k]
        d3, h1 = (mp.diff(f, zk, j, addprec=60)
                  for f, j in ((self.P, 3), (self.h, 1)))
        return -(d3 + 2 * h1 * d1 + 2 * b * d2 + (b * b + h1) * d1) / d1


def _close(got, want, what):
    want = complex(want)
    err = abs(complex(got) - want) / abs(want)
    assert err <= REL, f"{what}: relative error {err:.3e}"


def _fixture(name):
    if name == "geo10":
        return build_coefficient(generate_radial_geometric(0.8, 10), LOG)
    turned = generate_radial_geometric(0.5, 6).points * np.exp(0.4j)
    seq = ZeroSequence(np.concatenate([[0j], turned]), label="origin+geo6")
    return build_coefficient(seq, LOG, genus=0)


def _points(prod):
    """(generic, near-node, close) points: the generic set holds interior
    points, near-boundary points at |z| = 0.97 and 0.99, and points
    1.1-1.2 r_k from a node; the near-node set sits at 0.3-0.5 r_k, inside
    the exclusion discs, and the close set at 1e-3 and 1e-8 r_k by the
    same three nodes."""
    z, r = prod.z, prod.exclusion_radii
    generic = [0.1 - 0.2j, -0.4 + 0.3j, 0.2 + 0.6j, -0.5 - 0.55j]
    generic += [rad * np.exp(1j * t) for rad in (0.97, 0.99)
                for t in (2.0, -2.6)]
    ks = (0, z.size // 2, z.size - 1)
    generic += [z[k] + f * r[k] * np.exp(1j * t)
                for k, f, t in zip(ks, (1.1, 1.2, 1.15), (0.7, -2.0, 2.9))]
    near = [z[k] + f * r[k] * np.exp(1j * t)
            for k, f, t in zip(ks, (0.3, 0.5, 0.4), (1.3, -0.4, 3.0))]
    close = [z[k] + f * r[k] * np.exp(1j * t)
             for k, t in zip(ks, (0.2, 2.4, -1.1)) for f in (1e-3, 1e-8)]
    generic, near = np.asarray(generic), np.asarray(near)
    assert not np.any(prod.in_exclusion(generic)[0])
    assert np.all(prod.in_exclusion(near)[0])
    return generic, near, np.asarray(close)


@pytest.mark.parametrize("name", ["geo10", "origin-geo6-genus0"])
def test_oracle_matches_package(name):
    with mp.workdps(50):
        _check_fixture(name)


def _check_fixture(name):
    bundle = _fixture(name)
    prod = bundle.product
    oracle = Oracle(bundle)
    generic, near, close = _points(prod)

    for k, b in enumerate(node_targets(prod)):
        _close(b, oracle.b[k], f"b_{k}")

    log_p = prod.log_eval(generic)
    lam, lam2 = prod.log_derivative_sums(generic)
    for j, z in enumerate(generic):
        zm = mp.mpc(complex(z))
        p = oracle.P(zm)
        want = float(mp.log(abs(p)))
        assert math.isfinite(want)
        _close(log_p[j].real, want, f"Re log P at {z:.6g}")
        _close(lam[j], mp.diff(oracle.P, zm, 1) / p, f"P'/P at {z:.6g}")
        _close(lam2[j], mp.diff(oracle.P, zm, 2) / p, f"P''/P at {z:.6g}")

    pts = np.concatenate([generic, near])
    h = bundle.gprime.evaluate(pts)
    a = bundle.eval_coefficient(pts)
    for j, z in enumerate(pts):
        zm = mp.mpc(complex(z))
        _close(h[j], oracle.h(zm), f"h at {z:.6g}")
        _close(a[j], oracle.a(zm), f"a at {z:.6g}")

    # h alone by the nodes: the series pass, with no near-node branch
    for z, hz in zip(close, bundle.gprime.evaluate(close)):
        _close(hz, oracle.h(mp.mpc(complex(z))), f"h at {z:.6g}")


@pytest.mark.parametrize("count", [12, 16])
def test_oracle_matches_a_at_and_by_every_node(count):
    # a at each node z_k (l'Hopital on the oracle's side, the node jets on
    # the package's) and 1e-12 to 0.4 r_k from it, inside the exclusion
    # disc, where the series pass divides the node's pole out of P: 1e-4
    # and 3e-4 r_k lie where the jets' cubic term matters by the shallow
    # nodes, and 1e-12 r_k rounds onto the deepest nodes themselves
    bundle = build_coefficient(generate_radial_geometric(0.5, count), LOG)
    prod = bundle.product
    offsets = np.array([0.0, 1e-12, 1e-8, 1e-4, 3e-4, 1e-3, 0.4])
    with mp.workdps(50):
        oracle = Oracle(bundle)
        for k, zk in enumerate(prod.z):
            pts = zk + offsets * prod.exclusion_radii[k] * np.exp(1j * k)
            for z, a in zip(pts, bundle.eval_coefficient(pts)):
                want = (oracle.a_at_node(k) if z == zk
                        else oracle.a(mp.mpc(complex(z))))
                _close(a, want, f"a at z_{k} + {z - zk:.3g}")

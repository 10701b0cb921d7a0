"""Canonical products: primary factors, derivatives at zeros, balance."""

import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discosc import (CanonicalProduct, GrowthScale, SharpnessParams,
                     WeightPair, ZeroSequence, blaschke_sum,
                     build_coefficient, contour, generate_radial_geometric,
                     generate_rho_lattice, generate_sharpness,
                     genus_from_scale, node_targets, numutil,
                     primary_factor, products, sequences, weight_to_psi)
from discosc.numutil import (circle_modes, circle_nodes, poly_part, slices,
                             work_runs, wrap_angle)
from references import (balance_check, deleted_log_eval, exclusion_rule,
                        offset_pieces)
from strategies import separated_sets

ONE = ZeroSequence(np.array([0.5], dtype=complex), label="one")
PAIR = ZeroSequence(np.array([0.5, -0.5], dtype=complex), label="pair")


def product_values(prod, z):
    """P at the points z (a flat array, or a scalar as one point), from
    the row sums of the factor logs: 0 at the nodes."""
    return np.exp(prod._raw_log_eval(np.atleast_1d(np.asarray(z, complex))))


def contour_derivatives(prod):
    """(P'(z_k), P''(z_k)) at every node from one node_contour_modes pass:
    m1 = P' r_k e^-scale and m2 = P'' r_k^2 e^-scale / 2."""
    res = prod.node_contour_modes()
    r = prod.exclusion_radii
    return (np.exp(res.scale + np.log(1.0 / r) + np.log(res.m1)),
            np.exp(res.scale + np.log(2.0 / r ** 2) + np.log(res.m2)))


def test_primary_factor_values():
    assert primary_factor(0.5, 0) == pytest.approx(0.5, rel=1e-14)
    assert primary_factor(0.5, 1) == pytest.approx(0.5 * math.exp(0.5),
                                                   rel=1e-14)
    assert primary_factor(0.5, 2) == pytest.approx(
        0.5 * math.exp(0.5 + 0.125), rel=1e-14)


def test_one_point_values_genus0():
    # P(z) = 1 - w(z) with w(z) = (1 - 0.25)/(1 - 0.5 z)
    prod = CanonicalProduct(ONE, 0)
    assert product_values(prod, 0.0)[0] == pytest.approx(0.25, rel=1e-13)
    assert product_values(prod, 0.5)[0] == 0.0
    assert np.exp(prod.log_derivative_at_zero(0)) == pytest.approx(
        -2.0 / 3.0, rel=1e-12)
    assert contour_derivatives(prod)[1][0] == pytest.approx(-8.0 / 9.0,
                                                            rel=1e-12)


def test_one_point_values_genus1():
    prod = CanonicalProduct(ONE, 1)
    assert product_values(prod, 0.0)[0] == pytest.approx(
        0.25 * math.exp(0.75), rel=1e-13)
    assert np.exp(prod.log_derivative_at_zero(0)) == pytest.approx(
        -2.0 * math.e / 3.0, rel=1e-12)


def test_contour_derivative_matches_closed_form():
    prod = CanonicalProduct(ONE, 1)
    assert contour_derivatives(prod)[0][0] == pytest.approx(
        -2.0 * math.e / 3.0, rel=1e-10)


def test_derivative_routes_agree_on_geometric():
    prod = CanonicalProduct(generate_radial_geometric(0.8, 20), 1)
    contour = contour_derivatives(prod)[0]
    for k in (0, 7, 19):
        direct = np.exp(prod.log_derivative_at_zero(k))
        assert contour[k] == pytest.approx(direct, rel=1e-10)


def test_log_derivative_sums_one_point():
    # genus 1: P = (1 - w) e^w gives P'/P(0) = -1.125 and P''/P(0) = -2.109375
    prod = CanonicalProduct(ONE, 1)
    lam, lam2 = prod.log_derivative_sums(np.array([0.0 + 0.0j]))
    assert lam[0] == pytest.approx(-1.125, rel=1e-12)
    assert lam2[0] == pytest.approx(-2.109375, rel=1e-12)


def test_node_targets_one_point():
    assert node_targets(CanonicalProduct(ONE, 0))[0] == pytest.approx(
        -2.0 / 3.0, rel=1e-12)
    assert node_targets(CanonicalProduct(ONE, 1))[0] == pytest.approx(
        -4.0 / 3.0, rel=1e-12)


def test_origin_node_factor_is_z():
    seq = ZeroSequence(np.array([0.0, 0.5], dtype=complex), label="origin")
    prod = CanonicalProduct(seq, 0)
    z = 0.2
    w = 0.75 / (1.0 - 0.5 * z)
    assert product_values(prod, z)[0] == pytest.approx(z * (1.0 - w),
                                                       rel=1e-13)
    assert product_values(prod, 0.0)[0] == 0.0


def test_deleted_product_identity():
    prod = CanonicalProduct(PAIR, 1)
    z = np.array([0.2 + 0.1j])
    w0 = (1.0 - 0.25) / (1.0 - 0.5 * z[0])
    factor = primary_factor(w0, 1)
    assert np.exp(deleted_log_eval(prod, 0, z))[0] * factor == pytest.approx(
        product_values(prod, z)[0], rel=1e-12)


def test_evaluators_refuse_points_outside_the_disc():
    bundle = build_coefficient(generate_radial_geometric(0.5, 5),
                               GrowthScale.log_power(1.0))
    prod, series = bundle.product, bundle.gprime
    bad = (2.0, np.array([0.1, 1.0]), 1j, np.array([0.1, np.nan]))
    for call in (prod.log_eval, series.evaluate,
                 series.evaluate_derivative, series.log_abs_evaluate,
                 bundle.eval_coefficient, bundle.g, bundle.log_solution,
                 bundle.eval_solution):
        for z in bad:
            with pytest.raises(ValueError, match="outside the open disc"):
                call(z)
    for z in bad:
        with pytest.raises(ValueError, match="probes must satisfy"):
            bundle.ode_residual(z)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(pts=separated_sets(allow_subnormal=False),
       flips=st.lists(st.booleans(), min_size=16, max_size=16))
def test_node_index_is_the_equal_node(pts, flips):
    # each node with the signs of its zero parts flipped as drawn, the
    # origin both ways, and points off every node
    prod = CanonicalProduct(ZeroSequence(pts), 1)
    flipped = pts.copy()
    flipped.real[(pts.real == 0.0) & flips[:pts.size]] *= -1.0
    flipped.imag[(pts.imag == 0.0) & flips[8:8 + pts.size]] *= -1.0
    queries = np.concatenate([flipped, [complex(0.0, 0.0),
                                        complex(-0.0, -0.0)],
                              pts + 0.01, pts * (1.0 - 1e-16j)])
    want = [(np.flatnonzero(prod.z == p).tolist() or [-1])[0]
            for p in queries]
    assert prod.node_index(queries).tolist() == want
    assert prod.node_index(queries[:, None]).tolist() == [[k] for k in want]


def test_deleted_log_at_single_node_is_zero():
    prod = CanonicalProduct(ONE, 1)
    assert np.exp(prod.node_deleted_logs()[0]) == pytest.approx(1.0, rel=1e-13)


def test_blaschke_sum_geometric_closed_forms():
    seq = generate_radial_geometric(0.5, 4)
    assert blaschke_sum(seq, 0) == pytest.approx(1.0 - 0.5 ** 4, rel=1e-14)
    assert blaschke_sum(seq, 1) == pytest.approx(0.25 * (1.0 - 0.5 ** 8) / 0.75,
                                     rel=1e-14)


def test_exclusion_rule_quarter_neighbour_eighth_gap():
    prod = CanonicalProduct(PAIR, 0)
    # neighbour distance 1.0 gives 0.25; gap 0.5 gives 0.0625; min wins
    np.testing.assert_allclose(prod.exclusion_radii, [0.0625, 0.0625],
                               rtol=1e-13)
    bad, idx = prod.in_exclusion(np.array([0.5 + 0.05j, 0.5 + 0.1j]))
    assert bad.tolist() == [True, False]
    assert idx[0] == 0
    # the node pass takes the rule's radii and near lists, bit for bit, for
    # two nodes, one (no neighbour: the gap alone) and none
    empty = ZeroSequence(np.zeros(0, dtype=complex))
    for seq, radii in ((PAIR, [0.0625, 0.0625]), (ONE, [0.0625]),
                       (empty, [])):
        prod = CanonicalProduct(seq, 0)
        r, near = exclusion_rule(prod)
        nodes = prod._node_pass()
        assert prod.exclusion_radii.tolist() == r.tolist() == radii
        assert nodes.near.tolist() == np.count_nonzero(near, axis=1).tolist()
        assert nodes.near_cols.tolist() == np.nonzero(near)[1].tolist()
    assert prod.in_exclusion(np.array([0.5]))[0].tolist() == [False]


def test_a_build_forms_the_node_distances_in_one_node_pass(weight_pipeline,
                                                           monkeypatch):
    # lattice368: constructing a product neither searches distances nor
    # runs the node pass; a whole build runs _node_rows once over every
    # node, which forms |z_k - z_n|, and hands no node x node search to
    # numutil.distance_rows
    _, scale, lattice, _ = weight_pipeline
    searches, runs = [], []
    distance_rows = numutil.distance_rows

    def search(centres, points):
        searches.append((centres.size, np.array_equal(points, lattice.points)))
        return distance_rows(centres, points)

    for module in (numutil, products, sequences):
        monkeypatch.setattr(module, "distance_rows", search)
    node_rows = CanonicalProduct._node_rows

    def recorded(self, blocks, *args):
        blocks = list(blocks)
        runs.append(blocks)
        return node_rows(self, blocks, *args)

    monkeypatch.setattr(CanonicalProduct, "_node_rows", recorded)
    monkeypatch.setattr(numutil, "_worker_count", lambda: 1)
    genus = genus_from_scale(scale)
    CanonicalProduct(lattice, genus)
    assert searches == [] and runs == []
    build_coefficient(lattice, scale, genus=genus)
    (blocks,) = runs
    assert np.array_equal(np.concatenate([np.arange(len(lattice))[b]
                                          for b in blocks]),
                          np.arange(len(lattice)))
    assert not any(nodes for _, nodes in searches), searches


def test_blocks_hold_the_pair_budget_and_move_no_distance(weight_pipeline):
    # N = 368: blocks of 2^15 // 368 = 89 points, where the dense N x N
    # distances give the same radii and nearest nodes bit for bit
    prod = weight_pipeline[3].product
    n = prod.z.size
    sizes = [sl.stop - sl.start for sl in slices(1000, n)]
    assert sizes[:-1] == [(2 ** 15) // n] * (len(sizes) - 1)
    assert sum(sizes) == 1000
    assert [sl.stop - sl.start for sl in slices(1100, 2)] == [512, 512, 76]
    # the series derivative pass's blocks sized by buffer bytes, 98 a pair:
    # on two workers blocks of at most 2 MiB, 58 points at N = 368; on one,
    # of 4 MiB (116 points); a pass of two nodes under 4 MiB stays serial,
    # in blocks of 512 points.  Counted in pairs against 2^15, as the pass
    # without derivatives is, two workers take the serial blocks' halves.
    def sizes(work, budget, parts):
        return [[b.stop - b.start for b in run]
                for run in work_runs(work, budget, parts)]

    assert numutil._SPLIT_BYTES == 2 ** 22
    split = numutil._SPLIT_BYTES
    assert sizes(np.full(200, 98 * n), split, 2) == [[58, 42], [58, 42]]
    assert sizes(np.full(200, 98 * n), split, 1) == [[116, 84]]
    assert sizes(np.full(600, 98 * 2), split, 2) == [[512, 88]]
    assert sizes(np.full(200, n), 2 ** 15, 2) == [[44, 44, 12], [44, 44, 12]]
    assert sizes(np.full(200, n), 2 ** 15, 1) == [[89, 89, 22]]
    d = np.abs(prod.z[:, None] - prod.z[None, :])
    np.fill_diagonal(d, math.inf)
    np.testing.assert_array_equal(
        prod.exclusion_radii,
        np.minimum(np.min(d, axis=1) / 4.0, prod._gap / 8.0))
    pts = 0.9 * np.exp(1j * np.linspace(0.0, 6.0, 300))
    d = np.abs(pts[:, None] - prod.z[None, :])
    idx, dist = prod.nearest_node(pts)
    np.testing.assert_array_equal(idx, np.argmin(d, axis=1))
    np.testing.assert_array_equal(dist, np.min(d, axis=1))
    empty = CanonicalProduct(ZeroSequence(np.zeros(0, dtype=complex)), 0)
    assert empty.exclusion_radii.size == 0
    assert empty.nearest_node(pts[:2])[0].tolist() == [-1, -1]
    assert empty.node_contour_modes().points.size == 0
    assert CanonicalProduct(ONE, 0).exclusion_radii.tolist() == [0.0625]


def test_node_contour_names_the_first_node_that_does_not_settle(
        monkeypatch):
    # a 32-point cap leaves no round to compare the first one against
    monkeypatch.setattr(contour, "CONTOUR_MAX_POINTS", 32)
    with pytest.raises(RuntimeError) as err:
        CanonicalProduct(_LATTICE07, 1).node_contour_modes()
    assert str(err.value) == ("exclusion-circle contour at node 0 did not "
                              "converge within 32 points")


def _proxy_call(prod, r):
    """Whether a _field_samples call with the radii r samples proxy circles
    (contour._proxies) rather than exclusion circles."""
    return bool(np.all(np.isin(r, prod._contour().clusters.rho)))


def test_node_contour_names_the_node_of_a_nan_sample(monkeypatch):
    # a nan near-field sample on an exclusion circle is refused, naming the
    # node, not counted as an exact zero
    prod = CanonicalProduct(_LATTICE07, 1)
    real = contour._field_samples
    poisoned_rows = []

    def poisoned(geo, r, zk, mask, unit):
        vals, bound = real(geo, r, zk, mask, unit)
        if (unit.size == contour.CONTOUR_START_POINTS
                and not _proxy_call(prod, r) and not poisoned_rows):
            # the near field of the first block's last node (row i of the
            # first block is node i)
            i = mask.shape[0] - 1
            assert np.any(mask[i])
            vals[i, 5] = np.nan
            poisoned_rows.append(i)
        return vals, bound

    monkeypatch.setattr(contour, "_field_samples", poisoned)
    with pytest.raises(RuntimeError) as err:
        prod.node_contour_modes()
    assert str(err.value) == (f"exclusion circle of node {poisoned_rows[0]}: "
                              f"contour sample is nan or +inf")


@pytest.mark.parametrize("which", ["geo50", "lattice368"])
def test_balance_checks_equal_the_single_node_form(which, geo50_bundle,
                                                   weight_pipeline):
    prod = (geo50_bundle if which == "geo50" else weight_pipeline[3]).product
    lhs, rhs = prod.balance_checks()
    want = np.array([balance_check(prod, k) for k in range(prod.z.size)])
    assert lhs.tobytes() == want[:, 0].tobytes()
    assert rhs.tobytes() == want[:, 1].tobytes()
    assert prod.balance_constant() == max(want[:, 0] / want[:, 1])


def test_balance_constant_consistency():
    prod = CanonicalProduct(generate_radial_geometric(0.8, 20), 1)
    c = prod.balance_constant()
    assert 0.0 < c < 50.0
    for k in (0, 5, 19):
        lhs, rhs = balance_check(prod, k)
        assert lhs <= c * rhs + 1e-12


def test_genus_validation():
    with pytest.raises(ValueError):
        CanonicalProduct(ONE, -1)


def test_factor_logs_match_np_log_at_the_deepest_node():
    # ratio 1/2, 16 points: the last gap is 2^-16 ~ 1.5e-5, and the
    # exclusion circle of that node is an eighth of it
    prod = CanonicalProduct(generate_radial_geometric(0.5, 16), 1)
    k = prod.z.size - 1
    _, unit = circle_nodes(128)
    delta, den = offset_pieces(prod, k, prod.exclusion_radii[k] * unit)
    got = np.sum(prod._factor_logs(delta, den), axis=1)
    # the same factor logs through numpy's complex log
    omw = -prod._zc * delta / den
    logs = np.log(omw) + poly_part(1.0 - omw, prod.genus)
    assert prod._origin_idx is None     # no origin column to overwrite
    want = np.sum(logs, axis=1)
    tol = 64 * prod.z.size * np.finfo(float).eps
    assert np.all(np.isfinite(want))
    np.testing.assert_array_less(np.abs(got.real - want.real), tol)
    np.testing.assert_array_less(np.abs(wrap_angle(got.imag - want.imag)),
                                 tol)


def _old_poly_part(w, s):
    # the accumulation poly_part replaced: from zeros and ones
    acc = np.zeros_like(np.asarray(w, dtype=complex))
    pw = np.ones_like(acc)
    for j in range(1, s + 1):
        pw = pw * w
        acc = acc + pw / j
    return acc


def test_poly_part_equals_the_old_accumulation():
    rng = np.random.default_rng(7)
    w = 1.0 - rng.random(200) ** 4 * np.exp(1j * rng.uniform(-3, 3, 200))
    for s in range(4):
        assert np.array_equal(poly_part(w, s), _old_poly_part(w, s))
        assert np.array_equal(poly_part(w[:3, None], s),
                              _old_poly_part(w[:3, None], s))
    assert poly_part(0.5, 0).shape == ()


_WEIGHT = WeightPair.log_power_weight(2.0)


_LATTICE07 = generate_rho_lattice(_WEIGHT.rho, 0.8, 0.7)


def _exact_modes(prod, k, m):
    """(scale, modes 1 and 2) of P on node k's exclusion circle from an
    m-point grid of every factor's log at the offset pieces."""
    theta, unit = circle_nodes(m)
    pieces = offset_pieces(prod, k, prod.exclusion_radii[k] * unit)
    logs = np.sum(prod._factor_logs(*pieces), axis=1)
    return circle_modes(theta, logs, (1, 2))


def _assert_modes_match(prod, res, k, m, tol):
    ref_scale, want = _exact_modes(prod, k, m)
    # both sides in units of the reference circle maximum, so the error is
    # measured against the integrand's size
    got = np.array([res.m1[k], res.m2[k]]) * np.exp(res.scale[k] - ref_scale)
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


@pytest.mark.parametrize("seq, scale, proxies", [
    (generate_radial_geometric(0.8, 50), GrowthScale.log_power(1.0), False),
    (generate_sharpness(SharpnessParams(1.0, 1.0, 8)),
     GrowthScale.log_power(3.0), False),
    (_LATTICE07, weight_to_psi(_WEIGHT), False),
    (generate_rho_lattice(_WEIGHT.rho, 0.8, 0.9), weight_to_psi(_WEIGHT),
     True),
    (generate_sharpness(SharpnessParams(1.0, 1.0, 14)),
     GrowthScale.log_power(3.0), True),
], ids=["geo50", "sharp8", "lattice07", "lattice368", "sharp14"])
def test_node_contour_settles_at_64_points(monkeypatch, seq, scale, proxies):
    # the exclusion-circle contour starts at 32 points and takes every
    # other factor of a node once: the far ones its cluster's proxy circle
    # carries through that circle, the other far ones from 16 samples and
    # the near ones from 32; every node settles on the 64-point round,
    # whose modes match a fresh 128-point grid of all factors
    prod = CanonicalProduct(seq, genus_from_scale(scale))
    part = prod._contour().clusters
    field_samples = contour._field_samples
    # one thread, so that no count is lost between two workers
    monkeypatch.setattr(numutil, "_worker_count", lambda: 1)
    rows, pairs = {16: 0, 32: 0}, {16: 0, 32: 0, "proxy": 0}

    def counted(geo, r, zk, mask, unit):
        vals, bound = field_samples(geo, r, zk, mask, unit)
        m = unit.size
        assert vals.shape == (mask.shape[0], m)
        if _proxy_call(prod, r):
            # each factor a proxy carries enters every member of its cluster
            members = np.diff(part.starts)[part.of[prod.node_index(zk)]]
            pairs["proxy"] += int(members @ np.sum(mask, axis=1))
        else:
            rows[m] += mask.shape[0]
            pairs[m] += int(np.sum(mask))
        return vals, bound

    monkeypatch.setattr(contour, "_field_samples", counted)
    res = prod.node_contour_modes()
    n = prod.z.size
    assert rows == {16: n, 32: n}
    assert sum(pairs.values()) == n * (n - 1)
    assert (pairs["proxy"] > 0) == proxies
    assert np.all(res.points == 64)
    for k in range(prod.z.size):
        _assert_modes_match(prod, res, k, 128, 1e-12)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(pts=separated_sets(allow_subnormal=False), genus=st.integers(0, 3))
def test_node_contour_matches_the_exact_grid_on_separated_sets(pts, genus):
    _assert_all_modes_match(CanonicalProduct(ZeroSequence(pts), genus))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(pts=separated_sets(allow_subnormal=False), genus=st.integers(0, 3))
def test_proxy_modes_match_the_exact_grid_on_separated_sets(pts, genus):
    # every cluster that has a source takes its proxy, however little it
    # saves
    prod = CanonicalProduct(ZeroSequence(pts), genus)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contour, "NODE_PROXY_SAVING", -math.inf)
        assume(_proxy_pairs(prod) > 0)
        _assert_all_modes_match(prod)


def _proxy_pairs(prod):
    """The (member, factor) pairs that proxy circles carry in a contour of
    every node of prod."""
    prox = contour._proxies(prod._contour(), np.arange(prod.z.size))
    covered = np.unpackbits(prox.covered, axis=1, count=prod.z.size)
    return int(np.sum(covered[prox.slot]))


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_node_contour_matches_the_exact_grid_on_lattice07(genus):
    prod = CanonicalProduct(_LATTICE07, genus)
    # the origin node has every other factor near; the others have far ones
    assert prod._origin_idx == 0
    dist = np.abs(prod.z[:, None] - prod.z[None, :])
    near = np.sum(dist < contour.NODE_NEAR_RATIO
                  * prod.exclusion_radii[:, None], axis=1) - 1
    assert near[0] == prod.z.size - 1 and max(near[1:]) < prod.z.size - 1
    _assert_all_modes_match(prod)


def _assert_all_modes_match(prod):
    # the near/far modes against every factor's log on the same grid
    res = prod.node_contour_modes()
    for k in range(prod.z.size):
        _assert_modes_match(prod, res, k, int(res.points[k]), 1e-12)


def test_far_field_tail_check_names_the_node(monkeypatch):
    # below a ratio of 4 every other node is far (the exclusion rule keeps
    # it at least 4r away), so a neighbour at q = r/|z_n - z_k| near 1/4
    # puts the 16-sample tail bound far above the unit roundoff
    monkeypatch.setattr(contour, "NODE_NEAR_RATIO", 3.0)
    prod = CanonicalProduct(generate_radial_geometric(0.8, 50), 1)
    with pytest.raises(RuntimeError,
                       match=r"far field of node \d+: Fourier tail bound"):
        prod.node_contour_modes()


def _lowest_member(prod, k):
    """The lowest-index node of node k's cluster."""
    part = prod._contour().clusters
    return int(part.members[part.starts[part.of[k]]])


def test_proxy_tail_check_names_the_clusters_lowest_node(weight_pipeline,
                                                         monkeypatch):
    # at a separation of 1.5 proxy radii a source has q up to 2/3, whose
    # 32-sample tail is far above half the unit roundoff
    prod = weight_pipeline[3].product
    monkeypatch.setattr(contour, "NODE_PROXY_RATIO", 1.5)
    with pytest.raises(RuntimeError, match=r"^proxy circle of node \d+: "
                       r"Fourier tail bound \S+ at 32 samples exceeds half "
                       r"the unit roundoff") as err:
        prod.node_contour_modes()
    k = int(str(err.value).split()[4].rstrip(":"))
    assert k == _lowest_member(prod, k)


def test_proxy_nan_sample_names_the_clusters_lowest_node(weight_pipeline,
                                                        monkeypatch):
    # a nan on the proxy circle of a cluster late in the order: on two
    # workers its block runs in the second worker, and the error is the
    # serial one
    prod = weight_pipeline[3].product
    part = prod._contour().clusters
    seeds = part.seed[_proxy_seeds(prod)]
    target = prod.z[seeds[3 * seeds.size // 4]]
    real = contour._field_samples
    threads = set()

    def poisoned(geo, r, zk, mask, unit):
        vals, bound = real(geo, r, zk, mask, unit)
        if _proxy_call(prod, r) and np.any(zk == target):
            vals[np.flatnonzero(zk == target)[0], 7] = np.nan
            threads.add(threading.current_thread() is
                        threading.main_thread())
        return vals, bound

    monkeypatch.setattr(contour, "_field_samples", poisoned)
    monkeypatch.setattr(contour, "_BLOCK_SAMPLES", 2 ** 12)
    k = _lowest_member(prod, int(prod.node_index(target)))
    for workers in (1, 2):
        monkeypatch.setattr(numutil, "_worker_count", lambda: workers)
        with pytest.raises(RuntimeError) as err:
            prod.node_contour_modes()
        assert str(err.value) == (f"proxy circle of node {k}: a sample is "
                                  f"nan or inf")
    assert threads == {True, False}


def _proxy_seeds(prod):
    """The clusters of prod that take a proxy in a contour of every node."""
    slot = contour._proxies(prod._contour(), np.arange(prod.z.size)).slot
    return np.unique(slot[slot >= 0])


def test_near_field_tail_check_names_the_node(monkeypatch):
    # a neighbour at q = r/|z_n - z_k| = 1/4 leaves a tail of about
    # (1/4)^8 at 8 samples, far above the unit roundoff
    monkeypatch.setattr(contour, "CONTOUR_START_POINTS", 8)
    prod = CanonicalProduct(generate_radial_geometric(0.8, 50), 1)
    with pytest.raises(RuntimeError,
                       match=r"near field of node \d+: Fourier tail bound "
                             r"\S+ at 8 samples"):
        prod.node_contour_modes()


def _assert_one_node_bits(prod, ks):
    # a node's modes do not depend on the block it shares with others, nor
    # on the other nodes of its cluster being asked for
    res = prod.node_contour_modes()
    for k in ks:
        one = prod.node_contour_modes([k])
        for a, b in zip(one, res):
            assert np.array_equal(a.view(np.uint8),
                                  b[k:k + 1].view(np.uint8)), (k, a, b[k])


def test_node_contour_modes_of_one_node_match_the_full_pass():
    prod = CanonicalProduct(_LATTICE07, 1)
    _assert_one_node_bits(prod, (0, 5, prod.z.size - 1))
    with pytest.raises(IndexError, match="node index 41 out of range"):
        prod.node_contour_modes([41])


def test_proxy_members_alone_match_the_full_pass(weight_pipeline):
    prod = weight_pipeline[3].product
    ks = np.flatnonzero(np.isin(prod._contour().clusters.of,
                               _proxy_seeds(prod)))
    assert ks.size > 300
    _assert_one_node_bits(prod, ks[::60])


def test_node_deleted_logs_match_the_single_node_form():
    # one blocked pass, each row summed as the single-node form sums it
    prod = CanonicalProduct(_LATTICE07, 1)
    got = prod.node_deleted_logs()
    for k in range(prod.z.size):
        assert got[k] == complex(deleted_log_eval(prod, k, prod.z[k])[0])


_TINY = np.finfo(float).tiny


@settings(derandomize=True, deadline=None, max_examples=25)
@given(pts=separated_sets(), mod=st.floats(5e-324, _TINY, exclude_max=True),
       j=st.integers(0, 7))
def test_subnormal_node_is_refused_by_name(pts, mod, j):
    pts = pts.copy()
    pts[j % pts.size] = mod
    assume(np.unique(pts).size == pts.size)
    seq = ZeroSequence(pts)
    mods = np.abs(seq.points)
    k = int(np.flatnonzero((mods > 0.0) & (mods < _TINY))[0])
    with pytest.raises(ValueError, match=f"node {k} has subnormal modulus"):
        build_coefficient(seq, GrowthScale.log_power(1.0))

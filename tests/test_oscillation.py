"""Coefficient assembly: residue cancellation, the ODE, zero counting."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discosc import (CanonicalProduct, GrowthScale, InterpolationSeries,
                     OscillationBundle, ResidueCancellationError,
                     SharpnessParams, ZeroSequence, build_coefficient,
                     generate_radial_geometric, generate_sharpness,
                     oscillation, sample_probes)
from discosc.numutil import adaptive_segment_integral, circle_nodes
from strategies import separated_sets


def _same_bits(a, b):
    return np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                          np.ascontiguousarray(b).view(np.uint8))


LOG = GrowthScale.log_power(1.0)
ONE = ZeroSequence(np.array([0.5], dtype=complex), label="one")


@pytest.fixture(scope="module")
def geo6_bundle():
    return build_coefficient(generate_radial_geometric(0.5, 6), LOG)


def test_one_point_bundle_builds_clean():
    bun = build_coefficient(ONE, LOG)
    assert bun.genus == 1
    assert float(np.max(bun.residue_mismatch)) <= 1e-12


def test_residue_tolerance_trigger():
    with pytest.raises(ResidueCancellationError):
        build_coefficient(ONE, LOG, residue_tol=1e-18)


def test_coefficient_component_assembly(geo6_bundle):
    # a = -(P''/P) - 2 g' (P'/P) - g'^2 - g'' pointwise, each piece from its
    # own public route
    cases = [(build_coefficient(ONE, LOG), [0.1 - 0.2j]),
             (geo6_bundle, [0.1 - 0.2j, -0.3 + 0.5j, 0.6 + 0.2j,
                            0.95 * np.exp(2.2j), 0.95 * np.exp(-0.5j)])]
    for bun, zs in cases:
        for z in zs:
            lam, lam2 = bun.product.log_derivative_sums(np.array([z]))
            hval = bun.gprime.evaluate(z)
            hp = bun.gprime.evaluate_derivative(np.array([z]))[0]
            manual = -(lam2[0] + 2.0 * hval * lam[0] + hval ** 2 + hp)
            assert bun.eval_coefficient(z) == pytest.approx(manual,
                                                            rel=1e-10)


def test_eval_coefficient_classifies_points_once(geo6_bundle, monkeypatch):
    # the series pass marks the points in exclusion discs from the
    # distances it forms anyway: no nearest-node search, and one pass for
    # points outside the discs, inside them and next to a node; exact nodes
    # take the node jets, which make no pass
    prod = geo6_bundle.product
    pts = np.concatenate([
        sample_probes(prod, np.random.default_rng(3), 40, r_max=0.9),
        prod.z + 0.5 * prod.exclusion_radii * np.exp(1j),
        prod.z + 1e-9 * prod.exclusion_radii, prod.z[:2]])
    calls = {"nearest_node": 0, "_pass": 0}
    # patched on the class: undoing an instance patch would leave the bound
    # method on the shared bundle, hidden from later class patches
    for cls, name in ((CanonicalProduct, "nearest_node"),
                      (InterpolationSeries, "_pass")):
        def counted(*args, _name=name, _fn=getattr(cls, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    assert np.all(np.isfinite(geo6_bundle.eval_coefficient(pts)))
    assert calls == {"nearest_node": 0, "_pass": 1}


def test_ode_residual_makes_one_pass_per_point_set(geo6_bundle, monkeypatch):
    # the probes' a, P'/P + h and log f come from one batched pass and each
    # contour round from one series pass for all probes: no single-point
    # passes, one nearest-node search serves the guard and the radius cap,
    # and four times the probes take no more passes
    probes = sample_probes(geo6_bundle.product, np.random.default_rng(5), 24,
                           r_max=0.9)
    calls = {}
    for cls, name in ((CanonicalProduct, "_raw_log_eval"),
                      (CanonicalProduct, "log_derivative_sums"),
                      (CanonicalProduct, "nearest_node"),
                      (InterpolationSeries, "evaluate"),
                      (InterpolationSeries, "_pass")):
        calls[name] = 0

        def counted(*args, _name=name, _fn=getattr(cls, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    passes = []
    for n in (6, 24):
        calls.update(dict.fromkeys(calls, 0))
        assert geo6_bundle.ode_residual(probes[:n]).value <= 1e-5
        assert calls["_raw_log_eval"] == 0
        assert calls["log_derivative_sums"] == 0
        assert calls["evaluate"] == 0
        assert calls["nearest_node"] == 1
        passes.append(calls["_pass"])
    assert passes[0] == passes[1]
    # the batched pass, then one per round of 32, 64, ... points
    assert passes[1] <= 6


def _probe_inputs(bun, probes):
    """The arguments of _probe_residuals, as ode_residual forms them."""
    dist = bun.product.require_outside_exclusion(probes, "probe")
    p, h, a0 = bun._coefficient(probes)
    return (probes, a0, np.hypot((p.lam + h).real, (p.lam + h).imag),
            p.log_p, dist)


def _one_at_a_time(bun, z0, a0, d1, log_f0, dist):
    """(residuals, points) of _probe_residuals, one probe per call."""
    return tuple(np.array(col) for col in zip(*(
        [x[0] for x in bun._probe_residuals(*(y[j:j + 1] for y in (
            z0, a0, d1, log_f0, dist)))] for j in range(z0.size))))


def test_lockstep_residuals_equal_single_probe_calls(geo50_bundle):
    probes = sample_probes(geo50_bundle.product, np.random.default_rng(19),
                           20, r_max=0.9)
    args = _probe_inputs(geo50_bundle, probes)
    res, points = geo50_bundle._probe_residuals(*args)
    one_res, one_points = _one_at_a_time(geo50_bundle, *args)
    np.testing.assert_array_equal(res, one_res)
    np.testing.assert_array_equal(points, one_points)
    rep = geo50_bundle.ode_residual(probes)
    assert rep == (np.max(res), np.max(points))
    assert max(geo50_bundle.ode_residual(z) for z in probes) == rep


def test_lockstep_shrinks_each_probe_on_its_own(geo50_bundle, monkeypatch):
    # a0 = 0 and d1 = 0 lift the caps 1/sqrt(|a0| + 1) and 1/(d1 + 1), so
    # the circles of some probes span too wide a range of log f and halve
    # their radius, each as many times as it needs
    z0, a0, d1, log_f0, dist = _probe_inputs(
        geo50_bundle, sample_probes(geo50_bundle.product,
                                    np.random.default_rng(4), 40,
                                    r_max=0.95))
    args = (z0, np.zeros_like(a0), np.zeros_like(d1), log_f0, dist)
    starts = []
    real = OscillationBundle._probe_circles

    def recorded(self, z, r, unit):
        if unit[0] == 1.0:          # a first round, not a refinement
            starts.append(z.copy())
        return real(self, z, r, unit)

    monkeypatch.setattr(OscillationBundle, "_probe_circles", recorded)
    lockstep = geo50_bundle._probe_residuals(*args)
    shrunk = {z for zs in starts[1:] for z in zs.tolist()}
    assert 0 < len(shrunk) < z0.size
    assert len(starts) > 2          # some probes shrink more than once
    for got, want in zip(lockstep, _one_at_a_time(geo50_bundle, *args)):
        np.testing.assert_array_equal(got, want)


def test_ode_residual_of_no_probes_is_zero(geo6_bundle):
    assert geo6_bundle.ode_residual(np.zeros(0, dtype=complex)) == (0.0, 0)


def test_sample_probes_names_the_disc_that_holds_every_candidate():
    # |z_0| + r_max <= r_0: every candidate falls in node 0's disc
    prod = CanonicalProduct(ZeroSequence(np.array([0.0, 0.5])), 1)
    assert prod.exclusion_radii[0] == 0.125
    rng = np.random.default_rng(0)
    for r_max in (0.001, 0.125):
        with pytest.raises(ValueError, match="exclusion disc of node 0"):
            sample_probes(prod, rng, 5, r_max=r_max)
    assert sample_probes(prod, rng, 5, r_max=0.2).size == 5


def test_sample_probes_refuses_a_disc_covered_by_overlapping_discs(
        monkeypatch):
    # candidates that keep landing in exclusion discs, as they would where
    # overlapping discs cover the probe disc, stop the sampler after
    # PROBE_MAX_REJECTED in a row; here every candidate is drawn inside the
    # disc of node 0.  A bound on the candidates drawn keeps the test from
    # hanging if the cap is lost
    prod = CanonicalProduct(ZeroSequence(np.array([0.1, -0.1])), 1)
    draws = []
    sample_disc = oscillation.sample_disc

    def in_one_disc(rng, n, r_max):
        draws.append(n)
        assert sum(draws) <= 2 * oscillation.PROBE_MAX_REJECTED
        return prod.z[0] + 0.5 * prod.exclusion_radii[0] * sample_disc(
            rng, n, 1.0)

    monkeypatch.setattr(oscillation, "sample_disc", in_one_disc)
    with pytest.raises(ValueError, match="appear to cover it"):
        sample_probes(prod, np.random.default_rng(0), 50, r_max=0.1)
    assert sum(draws) == oscillation.PROBE_MAX_REJECTED


@pytest.fixture(scope="module")
def geo_half30_bundle():
    return build_coefficient(generate_radial_geometric(0.5, 30), LOG)


@pytest.mark.parametrize("offset", [1.2, 0.5])
def test_eval_coefficient_names_binary64_overflow(geo_half30_bundle, offset):
    # h reaches 1e156 by the deepest node: h^2 overflows just outside its
    # exclusion disc, and inside it at 0.5 r_29, where F = Q'/Q + h (F(z_29)
    # = 0, F' ~ 1e166) is 5e155 and |a| ~ F^2 ~ 2e311
    prod = geo_half30_bundle.product
    z = prod.z[29] + offset * prod.exclusion_radii[29]
    with pytest.raises(ValueError, match="coefficient a overflows binary64"):
        geo_half30_bundle.eval_coefficient(z)


def test_eval_coefficient_within_a_subnormal_distance_of_a_node(
        geo6_bundle):
    # 1/(z - z_k) overflows there; such points match the node and take
    # a(z_k), as do points at the origin's neighbours for a node at 0
    zk = geo6_bundle.product.z[2]
    at = geo6_bundle.eval_coefficient(zk)
    for u in (1e-310j, 5e-324j, -1e-300j):
        assert geo6_bundle.eval_coefficient(zk + u) == at
    bun = build_coefficient(ZeroSequence(np.array([0.0, 0.5])), LOG)
    assert np.all(bun.eval_coefficient(np.array([1e-310, -5e-324j]))
                  == bun.eval_coefficient(0.0))


def test_eval_coefficient_is_finite_at_every_node(geo50_bundle,
                                                 weight_pipeline):
    # a is analytic across the nodes: geo50 and the N = 368 lattice take
    # a(z_k) = -3 F'(z_k) from the node jets at all of them
    for bundle in (geo50_bundle, weight_pipeline[3]):
        assert np.all(np.isfinite(bundle.eval_coefficient(bundle.product.z)))


@pytest.fixture(scope="module")
def sharp14_bundle():
    return build_coefficient(generate_sharpness(SharpnessParams(1.0, 1.0, 14)),
                             GrowthScale.log_power(3.0))


def test_eval_coefficient_at_the_sharpness_nodes_is_finite_or_named(
        sharp14_bundle):
    # sharpness(1, 1, 14) under log-power:3: the 28 nodes of the first
    # blocks take finite values.  By the 81 others |h'| already exceeds
    # binary64 one ulp from the node (the series pass, in log space), so
    # a(z_k) = -3 (Q'/Q + h)'(z_k) does too and is refused by name
    bundle = sharp14_bundle
    top = math.log(np.finfo(float).max)
    finite = 0
    for k, zk in enumerate(bundle.product.z):
        try:
            a = bundle.eval_coefficient(zk)
        except ValueError as exc:
            assert str(exc) == "coefficient a overflows binary64"
            p = bundle.gprime._pass(
                np.array([complex(np.nextafter(zk.real, 0.0), zk.imag)]),
                derivatives=True)
            assert p.node[0] == k
            assert p.log_p[0].real + p.scale[0] + math.log(
                abs(p.dtotal[0])) > top + 20.0
        else:
            assert np.isfinite(a)
            finite += 1
    assert finite == 28


def test_eval_coefficient_shapes():
    # every pointwise evaluator keeps the input's shape, with the values it
    # gives on the flattened points, and maps a scalar to a scalar
    bun = build_coefficient(ONE, LOG)
    grid = np.array([[0.1, 0.2j], [-0.2, 0.15 + 0.1j]])
    sums = bun.product.log_derivative_sums
    for fn in (bun.eval_coefficient, bun.product.log_eval,
               lambda z: sums(z)[0], lambda z: sums(z)[1],
               bun.gprime.evaluate_derivative, bun.log_solution,
               bun.eval_solution, bun.g):
        assert np.ndim(fn(0.1 + 0.1j)) == 0
        vals = fn(grid)
        assert vals.shape == grid.shape
        np.testing.assert_array_equal(vals.ravel(), fn(grid.ravel()))


def test_ode_residual_small(geo6_bundle):
    rng = np.random.default_rng(11)
    probes = sample_probes(geo6_bundle.product, rng, 20, r_max=0.85)
    assert geo6_bundle.ode_residual(probes).value <= 1e-6


def test_ode_residual_genus0_unit_exponents():
    # damping exponent 1 at every node leaves h with a rounding floor near
    # 1.6e-11 of |h| in its top circle modes; the residual must not need
    # h resolved below that floor
    n = 50
    bun = build_coefficient(generate_radial_geometric(0.8, n), LOG, genus=0,
                            exponents=np.ones(n, dtype=int))
    probes = sample_probes(bun.product, np.random.default_rng(0), 50,
                           r_max=0.9)
    assert bun.ode_residual(probes).value <= 1e-5


def test_spoke_integrals_match_segment_quadrature(geo6_bundle):
    # the FFT route against Gauss-Legendre along each straight spoke
    h = geo6_bundle.gprime.evaluate
    probes = sample_probes(geo6_bundle.product, np.random.default_rng(7), 4,
                           r_max=0.85)
    _, unit = circle_nodes(64)
    for z0 in probes:
        zeta = z0 + (1.0 - abs(z0)) / 8.0 * unit
        spectral = geo6_bundle._spoke_integrals(z0, zeta, h(zeta))
        segment = np.array([adaptive_segment_integral(h, z0, zj, 1e-14)
                            for zj in zeta])
        np.testing.assert_allclose(spectral, segment, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("name, count, seed", [("geo50_bundle", 20, 1),
                                               ("sharp14_bundle", 50, 0)])
def test_settled_probe_contours_match_a_1024_point_contour(
        request, monkeypatch, name, count, seed):
    # the contours start at CONTOUR_START_POINTS: each probe's settled f''
    # agrees with the 1024-point contour on its own circle to the drift
    # test's CONTOUR_REL_TOL of |f''| + |a f|, in the settled round's scale
    bun = request.getfixturevalue(name)
    args = _probe_inputs(bun, sample_probes(
        bun.product, np.random.default_rng(seed), count, r_max=0.9))
    circles, rounds = [], []
    real_circles, real_modes = (OscillationBundle._probe_circles,
                                oscillation.circle_modes)

    def circle(self, z, r, unit):
        circles.append((unit[0], r.copy()))
        return real_circles(self, z, r, unit)

    def modes(theta, logs, orders, scale=None):
        got = real_modes(theta, logs, orders, scale)
        rounds.append((theta.size, got))
        return got

    monkeypatch.setattr(OscillationBundle, "_probe_circles", circle)
    monkeypatch.setattr(oscillation, "circle_modes", modes)
    theta, unit = circle_nodes(oscillation.CONTOUR_MAX_POINTS)
    tol = oscillation.CONTOUR_REL_TOL
    for z0, a0, d1, log_f0, dist in zip(*(x[:, None] for x in args)):
        circles.clear()
        rounds.clear()
        points = bun._probe_residuals(z0, a0, d1, log_f0, dist)[1][0]
        # the last placement's radius; the last round is the settled one
        r = [r for first, r in circles if first == 1.0][-1]
        m, (scale, settled) = rounds[-1]
        assert m == points < oscillation.CONTOUR_MAX_POINTS
        vals = real_circles(bun, z0, r, unit)[0]
        logf = vals[:, 0] + bun._spoke_integrals(
            z0, z0[:, None] + r[:, None] * unit, vals[:, 1])
        fine = real_modes(theta, logf, (2,), scale)[1]
        fpp, ref = 2.0 * settled[0, 0] / r ** 2, 2.0 * fine[0, 0] / r ** 2
        size = abs(fpp) + abs(a0[0] * np.exp(log_f0[0] - scale[0]))
        assert abs(fpp - ref[0]) <= tol * size


def test_probe_residual_names_unresolvable_circle(geo6_bundle):
    # |a| = 1e40 caps the radius at 1e-20, below one ulp of the probe
    z0, a0, d1, log_f0, dist = _probe_inputs(geo6_bundle, sample_probes(
        geo6_bundle.product, np.random.default_rng(3), 3))
    with pytest.raises(RuntimeError, match="below binary64 resolution"):
        geo6_bundle._probe_residuals(z0[:1], np.array([1e40 + 0j]),
                                     np.zeros(1), log_f0[:1], dist[:1])
    # two failing probes: the lower index is named
    a0[1:] = 1e40
    with pytest.raises(RuntimeError,
                       match=f"probe {re.escape(format(z0[1], '.6g'))}: "
                             f"circle radius"):
        geo6_bundle._probe_residuals(z0, a0, d1, log_f0, dist)


def test_probe_residuals_raise_the_lowest_failing_probe(geo6_bundle,
                                                        monkeypatch):
    # probe 2 fails before any round (blur limit) and probe 1 only on the
    # second round, where its h is made infinite: probe 1's error wins
    z0, a0, d1, log_f0, dist = _probe_inputs(geo6_bundle, sample_probes(
        geo6_bundle.product, np.random.default_rng(8), 4, r_max=0.85))
    a0[2] = 1e40
    real = InterpolationSeries._pass
    start = oscillation.CONTOUR_START_POINTS

    def poisoned(self, pts, derivatives=False):
        p = real(self, pts, derivatives)
        if pts.size == 4 * start * 2:   # the placement pass, 2m points each
            # probe 1's odd points, which round 2 reads
            p.total[2 * start + 1:4 * start:2] = np.inf
        return p

    monkeypatch.setattr(InterpolationSeries, "_pass", poisoned)
    with pytest.raises(ValueError, match="series value produced a "
                                         "non-finite value"):
        geo6_bundle._probe_residuals(z0, a0, d1, log_f0, dist)
    monkeypatch.undo()
    with pytest.raises(RuntimeError, match="below binary64 resolution"):
        geo6_bundle._probe_residuals(z0, a0, d1, log_f0, dist)


def test_an_odd_point_fault_of_a_probe_cut_by_the_blur_limit_is_not_raised(
        geo6_bundle, monkeypatch):
    # probe 2's h is infinite only on the odd points of its placement pass,
    # which round 2 would read; the blur limit cuts probe 2 before any
    # round, so the error is the blur limit's, not the series'
    z0, a0, d1, log_f0, dist = _probe_inputs(geo6_bundle, sample_probes(
        geo6_bundle.product, np.random.default_rng(8), 4, r_max=0.85))
    a0[2] = 1e40
    real = InterpolationSeries._pass
    start = oscillation.CONTOUR_START_POINTS
    poisoned = []

    def poison(self, pts, derivatives=False):
        p = real(self, pts, derivatives)
        if pts.size == 4 * start * 2:
            p.total[4 * start + 1:6 * start:2] = np.inf
            poisoned.append(pts.size)
        return p

    monkeypatch.setattr(InterpolationSeries, "_pass", poison)
    with pytest.raises(RuntimeError,
                       match=f"probe {re.escape(format(z0[2], '.6g'))}: "
                             f"circle radius"):
        geo6_bundle._probe_residuals(z0, a0, d1, log_f0, dist)
    assert poisoned


@pytest.mark.parametrize("name, r_max, lifted", [
    ("geo50_bundle", 0.9, False), ("weight_pipeline", 0.8, False),
    ("sharp14_bundle", 0.95, False), ("geo50_bundle", 0.95, True)])
def test_the_first_two_rounds_equal_a_pass_of_their_own(
        request, monkeypatch, name, r_max, lifted):
    # the placement pass samples each probe on 2m points: round 1 takes
    # its even points, round 2 its odd ones (a fresh pass for a probe that
    # shrank), each bit for bit what a pass over those points alone gives.
    # Lifted caps (a0 = 0, d1 = 0) make some probes shrink
    bun = request.getfixturevalue(name)
    bun = bun[3] if name == "weight_pipeline" else bun
    z0, a0, d1, log_f0, dist = _probe_inputs(bun, sample_probes(
        bun.product, np.random.default_rng(4 if lifted else 2), 40,
        r_max=r_max))
    if lifted:
        a0, d1 = np.zeros_like(a0), np.zeros_like(d1)
    args = z0, a0, d1, log_f0, dist
    real_circles, real_settle = (OscillationBundle._probe_circles,
                                 oscillation.settle_circles)
    radius, rounds, placed = {}, [], []

    def circles(self, z, r, unit):
        if unit[0] == 1.0:          # a placement, not a refinement
            radius.update(zip(z.tolist(), r.tolist()))
            placed.append(r.copy())
        return real_circles(self, z, r, unit)

    def settle_circles(values, sample, settle, max_points):
        rounds.append((np.arange(len(values)), values.copy()))

        def recorded(idx, unit):
            fresh = sample(idx, unit)
            rounds.append((idx[:len(fresh)], fresh.copy(), unit))
            return fresh
        return real_settle(values, recorded, settle, max_points)

    monkeypatch.setattr(OscillationBundle, "_probe_circles", circles)
    monkeypatch.setattr(oscillation, "settle_circles", settle_circles)
    bun._probe_residuals(*args)
    m = oscillation.CONTOUR_START_POINTS
    unit = circle_nodes(2 * m)[1]
    (idx1, vals1), (idx2, vals2, unit2) = rounds[:2]
    assert idx2.size and _same_bits(unit2, unit[1::2])
    for idx, vals, grid in ((idx1, vals1, circle_nodes(m)[1]),
                            (idx2, vals2, unit2)):
        r = np.array([radius[x] for x in z0[idx].tolist()])
        assert _same_bits(vals, real_circles(bun, z0[idx], r, grid)[0])
    shrunk = r != placed[0][idx2]
    assert np.any(shrunk) == lifted and not np.all(shrunk)


def test_verify_probes_take_one_pass_for_their_first_two_rounds(
        geo50_bundle, monkeypatch):
    # 20 probes as geo50 verify draws them: the coefficient at the probes
    # and one placement pass, whose odd points serve round 2
    probes = sample_probes(geo50_bundle.product, np.random.default_rng(1),
                           20, r_max=0.9)
    real = InterpolationSeries._pass
    calls = []

    def counted(self, pts, derivatives=False):
        calls.append(pts.size)
        return real(self, pts, derivatives)

    monkeypatch.setattr(InterpolationSeries, "_pass", counted)
    assert geo50_bundle.ode_residual(probes).points == 64
    assert calls == [20, 20 * 64]


def test_probe_contour_names_the_first_probe_that_does_not_settle(
        geo6_bundle, monkeypatch):
    # a cap equal to the start leaves no round to compare the first one
    # against
    probes = sample_probes(geo6_bundle.product, np.random.default_rng(5), 3,
                           r_max=0.85)
    start = oscillation.CONTOUR_START_POINTS
    monkeypatch.setattr(oscillation, "CONTOUR_MAX_POINTS", start)
    with pytest.raises(RuntimeError) as err:
        geo6_bundle.ode_residual(probes)
    assert str(err.value) == (f"solution contour at probe {probes[0]:.6g} "
                              f"did not converge within {start} points")


def test_probe_residuals_refuse_a_residual_that_is_not_finite(geo6_bundle):
    # f(z0) beyond binary64 against the circle: a f reads inf + nan i, so
    # the residual is nan; it is named, not dropped by the maximum
    z0, a0, d1, log_f0, dist = _probe_inputs(geo6_bundle, sample_probes(
        geo6_bundle.product, np.random.default_rng(9), 3, r_max=0.85))
    a0[1], log_f0[1] = 1.0, 1000.0
    with pytest.raises(RuntimeError,
                       match=f"probe {re.escape(format(z0[1], '.6g'))}: "
                             f"residual nan is not finite"):
        geo6_bundle._probe_residuals(z0, a0, d1, log_f0, dist)


def test_solution_vanishes_exactly_on_nodes(geo6_bundle):
    z = geo6_bundle.product.z
    np.testing.assert_allclose(np.abs(geo6_bundle.eval_solution(z)), 0.0,
                               atol=1e-12)
    off = z[:3] + 0.02
    assert np.all(np.abs(geo6_bundle.eval_solution(off)) > 0.0)


def test_log_solution_consistency():
    bun = build_coefficient(ONE, LOG)
    z = np.array([0.2 + 0.1j, -0.4 + 0.0j])
    np.testing.assert_allclose(np.exp(bun.log_solution(z)),
                               bun.eval_solution(z), rtol=1e-10)


@pytest.mark.parametrize("name, zs", [("geo50_bundle", (0.995, 0.999)),
                                      ("sharp6_bundle", (0.99, 0.999))])
def test_log_solution_is_finite_near_the_boundary(request, name, zs):
    bun = request.getfixturevalue(name)
    assert np.all(np.isfinite(bun.log_solution(np.array(zs))))


@pytest.mark.parametrize("name, zs", [("geo50_bundle", (0.995, 0.999)),
                                      ("sharp6_bundle", (0.99, 0.995))])
def test_g_is_additive_over_a_split_path(request, name, zs):
    # sharpness at 0.999 agrees only to 1.2e-12: the rounding of the nodes
    # nearest z limits g there (README, log_solution)
    bun = request.getfixturevalue(name)
    z = np.array(zs)
    g = bun.g(z)
    h = bun.gprime.evaluate
    split = (adaptive_segment_integral(h, 0.0, 0.9 * z)
             + adaptive_segment_integral(h, 0.9 * z, z))
    np.testing.assert_array_less(np.abs(g - split), 1e-12 * (1.0 + np.abs(g)))


def test_g_is_primitive_of_gprime():
    bun = build_coefficient(ONE, LOG)
    z0 = 0.3 + 0.1j
    h = 1e-6
    fd = (bun.g(z0 + h) - bun.g(z0 - h)) / (2.0 * h)
    assert fd == pytest.approx(bun.gprime.evaluate(z0), rel=1e-6)


def test_zero_count_matches_nodes(geo6_bundle):
    # moduli 0.5, 0.75, 0.875 sit inside radius 0.9; 0.9375 and deeper do not
    rep = geo6_bundle.count_zeros(radius=0.9)
    assert rep.count == 3
    assert rep.nodes_inside == 3
    assert rep.matches
    assert abs(rep.winding - 3.0) <= 0.02


@pytest.mark.parametrize("radius, count",
                         [(0.5, 1), (0.75, 2), (0.875, 3), (0.95, 4)])
def test_zero_count_radius_clears_every_band(geo6_bundle, radius, count):
    # geo6 moduli are 1 - 2^-k; radii 0.5, 0.75 and 0.875 fall on a node's
    # own modulus, so the circle moves out past that node's band
    prod = geo6_bundle.product
    rep = geo6_bundle.count_zeros(radius=radius)
    assert rep.count == rep.nodes_inside == count
    assert rep.matches
    assert rep.radius >= radius
    mod, r = np.abs(prod.z), prod.exclusion_radii
    assert not np.any((mod - r < rep.radius) & (rep.radius < mod + r))


def test_zero_count_unresolved_circle_raises(geo50_bundle, monkeypatch):
    # geo50 at 0.9 settles at 1024 points; a 64-point cap must fail by
    # name instead of reporting matches=False
    monkeypatch.setattr(oscillation, "WINDING_MAX_POINTS", 64)
    with pytest.raises(RuntimeError, match="unresolved"):
        geo50_bundle.count_zeros(radius=0.9)


def test_zero_count_on_rho_lattice(weight_pipeline):
    _, _, lattice, bundle = weight_pipeline
    rep = bundle.count_zeros(radius=0.9)
    assert rep.count == rep.nodes_inside == len(lattice) == 368


def test_zero_count_grid_holds_eight_points_per_node_inside(
        weight_pipeline):
    # steps of at most pi/4 on m points wind at most m/8 times: on the
    # lattice's circle |z| = 0.8 the 99 nodes inside wind 3 times on 32
    # points (99 = 3 mod 32), so the count starts on a grid that can show 99
    rep = weight_pipeline[3].count_zeros(radius=0.8)
    assert rep.count == rep.nodes_inside == 99
    assert rep.matches
    assert rep.points >= 8 * 99


@settings(derandomize=True, deadline=None, max_examples=25)
@given(pts=separated_sets(allow_subnormal=False),
       radius=st.floats(0.3, 0.95))
def test_zero_count_property(pts, radius):
    bun = build_coefficient(ZeroSequence(pts), LOG)
    rep = bun.count_zeros(radius=radius)
    assert rep.count == rep.nodes_inside
    assert abs(rep.winding - rep.count) <= 1e-9


def test_probe_sampler_determinism_and_support(geo6_bundle):
    prod = geo6_bundle.product
    a = sample_probes(prod, np.random.default_rng(5), 30, r_max=0.8)
    b = sample_probes(prod, np.random.default_rng(5), 30, r_max=0.8)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a)) <= 0.8
    bad, _ = prod.in_exclusion(a)
    assert not np.any(bad)


def test_coefficient_growth_table_comparators(geo6_bundle):
    rows = geo6_bundle.coefficient_growth_table([0.3, 0.5], samples=128)
    assert [row.r for row in rows] == [0.3, 0.5]
    for row in rows:
        assert np.isfinite(row.ratio)
        # log scale: comparator column carries the integrated majorant
        assert row.growth_integral == pytest.approx(
            LOG.psi_tilde(1.0 / (1.0 - row.r)), rel=1e-12)


def _counting_eval(bundle, monkeypatch):
    calls = []
    inner = bundle.eval_coefficient

    def counted(z):
        calls.append(np.size(z))
        return inner(z)

    monkeypatch.setattr(bundle, "eval_coefficient", counted)
    return calls


def test_coefficient_growth_table_is_the_per_radius_search(geo6_bundle):
    # the table of a ladder, row by row, against the radius-at-a-time
    # search it replaced: a 128-point scan taking np.abs, then a scalar
    # golden-section search taking builtin abs of one value per call
    from test_numutil import _scalar_golden_section_max

    ladder = [0.3, 0.5, 0.9]
    rows = geo6_bundle.coefficient_growth_table(ladder, samples=128)
    theta, unit = circle_nodes(128)
    for r, row in zip(ladder, rows):
        assert row == geo6_bundle.coefficient_growth_table(
            [r], samples=128)[0]
        vals = np.abs(geo6_bundle.eval_coefficient(r * unit))
        j = int(np.argmax(vals))
        _, best = _scalar_golden_section_max(
            lambda t: abs(geo6_bundle.eval_coefficient(r * np.exp(1j * t))),
            theta[j] - 2.0 * np.pi / 128, theta[j] + 2.0 * np.pi / 128)
        assert row.log_max == np.log(max(float(vals[j]), float(best)))


def test_growth_table_through_an_exclusion_disc_is_the_table_per_radius(
        geo50_bundle):
    # two circles through the disc of node 6 (the first through the node
    # itself) and one clear of every disc: each value of a depends on its
    # own point, so the ladder's rows are the per-radius tables bit for bit
    prod = geo50_bundle.product
    z6, r6 = abs(prod.z[6]), prod.exclusion_radii[6]
    ladder = [z6, z6 + 0.3 * r6, 0.9]
    _, unit = circle_nodes(1024)
    assert [bool(np.any(prod.in_exclusion(r * unit)[0]))
            for r in ladder] == [True, True, False]
    rows = geo50_bundle.coefficient_growth_table(ladder)
    assert rows == [geo50_bundle.coefficient_growth_table([r])[0]
                    for r in ladder]


def test_coefficient_growth_table_evaluates_in_lockstep(geo6_bundle,
                                                        monkeypatch):
    # one scan of all three circles, one call for the two inner points of
    # every bracket, 40 golden-section steps taken two per call with three
    # points per bracket, and the midpoints: 23 calls, against 44 per
    # radius (132) one radius at a time
    calls = _counting_eval(geo6_bundle, monkeypatch)
    geo6_bundle.coefficient_growth_table([0.3, 0.5, 0.9], samples=128)
    assert calls == [3 * 128, 2 * 3] + [3 * 3] * 20 + [3]


@pytest.mark.parametrize("bad", [1.0, 0.0, np.nan])
def test_growth_ladders_are_checked_before_any_evaluation(
        geo6_bundle, monkeypatch, bad):
    ladder = [0.3, 0.5, bad]
    calls = _counting_eval(geo6_bundle, monkeypatch)
    with pytest.raises(ValueError, match=r"ladder radii must lie in "
                                         r"\(0, 0\.995\]"):
        geo6_bundle.coefficient_growth_table(ladder, samples=64)
    series = geo6_bundle.gprime
    monkeypatch.setattr(series, "log_abs_evaluate", calls.append)
    with pytest.raises(ValueError, match=r"ladder radii must lie in "
                                         r"\(0, 1\)"):
        series.growth_table(ladder, samples=64)
    assert calls == []


def test_carleson_table_positive(geo6_bundle):
    tab = geo6_bundle.carleson_table([0.2, 0.1])
    assert [d for d, _ in tab] == [0.2, 0.1]
    assert all(np.isfinite(v) and v > 0.0 for _, v in tab)
    dens = geo6_bundle.carleson_density()
    val = dens(np.array([0.1 + 0.1j]))
    assert np.isfinite(val[0]) and val[0] >= 0.0


"""Coefficient assembly: residue cancellation, the ODE, zero counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discosc import (CanonicalProduct, GrowthScale, InterpolationSeries,
                     ResidueCancellationError, ZeroSequence, anorm_estimate,
                     build_coefficient, generate_radial_geometric,
                     oscillation, sample_probes)
from discosc.numutil import adaptive_segment_integral, circle_nodes
from strategies import separated_sets

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
    # points outside every disc go straight to the series pass: one
    # nearest-node search for the whole call
    prod = geo6_bundle.product
    pts = sample_probes(prod, np.random.default_rng(3), 40, r_max=0.9)
    calls = []
    # patched on the class: undoing an instance patch would leave the bound
    # method on the shared bundle, hidden from later class patches
    search = CanonicalProduct.nearest_node
    monkeypatch.setattr(CanonicalProduct, "nearest_node",
                        lambda self, z: calls.append(np.size(z))
                        or search(self, z))
    geo6_bundle.eval_coefficient(pts)
    assert calls == [pts.size]


def test_ode_residual_makes_one_pass_per_point_set(geo6_bundle, monkeypatch):
    # the probes' a, P'/P + h and log f come from one batched pass and each
    # contour round from one series pass: no single-point passes, and one
    # nearest-node search serves the guard and the radius cap
    probes = sample_probes(geo6_bundle.product, np.random.default_rng(5), 6,
                           r_max=0.9)
    calls = {}
    for cls, name in ((CanonicalProduct, "_raw_log_eval"),
                      (CanonicalProduct, "log_derivative_sums"),
                      (CanonicalProduct, "nearest_node"),
                      (InterpolationSeries, "evaluate")):
        calls[name] = 0

        def counted(*args, _name=name, _fn=getattr(cls, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(cls, name, counted)
    assert geo6_bundle.ode_residual(probes) <= 1e-5
    assert calls["_raw_log_eval"] == 0
    assert calls["log_derivative_sums"] == 0
    assert calls["evaluate"] == 0
    assert calls["nearest_node"] == 1


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


def _assert_recovery_circles_clear(prod):
    # every point of each node's recovery circle (radius 1.5 r_k, on its
    # finest grid) lies in the open disc and outside every exclusion disc,
    # so _recover_at_node evaluates a there without a check
    _, unit = circle_nodes(oscillation.RECOVERY_MAX_POINTS)
    pts = prod.z[:, None] + 1.5 * prod.exclusion_radii[:, None] * unit
    assert np.all(np.abs(pts) < 1.0)
    assert not np.any(prod.in_exclusion(pts)[0])


@settings(derandomize=True, deadline=None, max_examples=50)
@given(pts=separated_sets(allow_subnormal=False))
def test_recovery_circles_clear_every_exclusion_disc(pts):
    _assert_recovery_circles_clear(CanonicalProduct(ZeroSequence(pts), 1))


def test_recovery_circles_clear_every_exclusion_disc_at_deep_nodes():
    # the deepest node sits 2^-48 ~ 3.6e-15 from the unit circle
    _assert_recovery_circles_clear(
        CanonicalProduct(generate_radial_geometric(0.5, 48), 1))


@pytest.fixture(scope="module")
def geo_half30_bundle():
    return build_coefficient(generate_radial_geometric(0.5, 30), LOG)


@pytest.mark.parametrize("offset", [1.2, 0.5])
def test_eval_coefficient_names_binary64_overflow(geo_half30_bundle, offset):
    # h reaches 1e158 by the deepest node: h^2 overflows just outside its
    # exclusion disc, and inside it on the recovery circle
    prod = geo_half30_bundle.product
    z = prod.z[29] + offset * prod.exclusion_radii[29]
    with pytest.raises(ValueError, match="coefficient a overflows binary64"):
        geo_half30_bundle.eval_coefficient(z)


def test_eval_coefficient_shapes():
    # every pointwise evaluator keeps the input's shape, with the values it
    # gives on the flattened points, and maps a scalar to a scalar
    bun = build_coefficient(ONE, LOG)
    grid = np.array([[0.1, 0.2j], [-0.2, 0.15 + 0.1j]])
    sums = bun.product.log_derivative_sums
    for fn in (bun.eval_coefficient, bun.product.log_eval, bun.product.eval,
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
    assert geo6_bundle.ode_residual(probes) <= 1e-6


def test_ode_residual_genus0_unit_exponents():
    # damping exponent 1 at every node leaves h with a rounding floor near
    # 1.6e-11 of |h| in its top circle modes; the residual must not need
    # h resolved below that floor
    n = 50
    bun = build_coefficient(generate_radial_geometric(0.8, n), LOG, genus=0,
                            exponents=np.ones(n, dtype=int))
    probes = sample_probes(bun.product, np.random.default_rng(0), 50,
                           r_max=0.9)
    assert bun.ode_residual(probes) <= 1e-5


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


def test_probe_residual_names_unresolvable_circle(geo6_bundle):
    # |a| = 1e40 caps the radius at 1e-20, below one ulp of the probe
    prod = geo6_bundle.product
    z0 = complex(sample_probes(prod, np.random.default_rng(3), 1)[0])
    _, dist = prod.nearest_node(z0)
    with pytest.raises(RuntimeError, match="below binary64 resolution"):
        geo6_bundle._probe_residual(z0, 1e40, 0.0, complex(prod.log_eval(z0)),
                                    float(dist[0]))


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


def test_coefficient_growth_table_evaluates_in_lockstep(geo6_bundle,
                                                        monkeypatch):
    # one scan of all three circles, one call for the two inner points of
    # every bracket, 40 golden-section steps and the midpoints: 43 calls,
    # against 44 per radius (132) one radius at a time
    calls = _counting_eval(geo6_bundle, monkeypatch)
    geo6_bundle.coefficient_growth_table([0.3, 0.5, 0.9], samples=128)
    assert len(calls) <= 43
    assert calls[0] == 3 * 128 and set(calls[2:]) == {3}


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


def test_anorm_estimate_unit_function():
    rng = np.random.default_rng(3)
    grid = np.concatenate([[0.0 + 0.0j],
                           0.9 * rng.uniform(size=50) *
                           np.exp(2j * np.pi * rng.uniform(size=50))])
    got = anorm_estimate(lambda z: np.ones_like(z), 2.0, grid)
    assert got == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        anorm_estimate(lambda z: np.ones_like(z), -1.0, grid)

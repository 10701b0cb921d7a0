"""Coefficient assembly: residue cancellation, the ODE, zero counting."""

import numpy as np
import pytest

from discosc import (GrowthScale, ResidueCancellationError, ZeroSequence,
                     anorm_estimate, build_coefficient,
                     generate_radial_geometric, sample_probes)
from discosc.numutil import adaptive_segment_integral, circle_nodes

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
    z0 = complex(sample_probes(geo6_bundle.product,
                               np.random.default_rng(3), 1)[0])
    with pytest.raises(RuntimeError, match="below binary64 resolution"):
        geo6_bundle._probe_residual(z0, 1e40)


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

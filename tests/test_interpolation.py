"""Interpolating series hitting prescribed values on the product's zeros."""

import math

import numpy as np
import pytest

from discosc import (CanonicalProduct, GrowthScale, InterpolationSeries,
                     TargetData, WeightPair, ZeroSequence, choose_exponents,
                     generate_radial_geometric, generate_rho_lattice,
                     target_bound_constant, targets_from_product,
                     weight_to_psi)

ONE = ZeroSequence(np.array([0.5], dtype=complex), label="one")
PAIR = ZeroSequence(np.array([0.5, -0.5], dtype=complex), label="pair")
LOG = GrowthScale.log_power(1.0)


def _one_point(genus):
    prod = CanonicalProduct(ONE, genus)
    targets = targets_from_product(prod, LOG)
    return prod, targets, InterpolationSeries.build(prod, targets)


def test_targets_one_point_closed_form():
    assert targets_from_product(CanonicalProduct(ONE, 0),
                                LOG).values[0] == pytest.approx(-2.0 / 3.0,
                                                                rel=1e-12)
    assert targets_from_product(CanonicalProduct(ONE, 1),
                                LOG).values[0] == pytest.approx(-4.0 / 3.0,
                                                                rel=1e-12)


def test_bound_constant_one_point():
    # log1p(4/3) over psi_tilde(2) clamped at 1
    prod = CanonicalProduct(ONE, 1)
    t = targets_from_product(prod, LOG)
    assert t.bound_constant == pytest.approx(math.log(7.0 / 3.0), rel=1e-12)
    assert target_bound_constant(ONE, t.values, LOG) == t.bound_constant


def test_target_validation():
    with pytest.raises(ValueError):
        target_bound_constant(ONE, np.array([np.inf + 0j]), LOG)
    with pytest.raises(ValueError):
        target_bound_constant(ONE, np.array([1.0, 2.0], dtype=complex), LOG)


def test_node_value_is_interpolated():
    for genus in (0, 1):
        _, targets, series = _one_point(genus)
        assert series.evaluate(0.5) == pytest.approx(targets.values[0],
                                                     rel=1e-12)


def test_geometric_node_residuals():
    seq = generate_radial_geometric(0.8, 25)
    prod = CanonicalProduct(seq, 1)
    targets = targets_from_product(prod, LOG)
    series = InterpolationSeries.build(prod, targets)
    got = series.evaluate(prod.z)
    resid = np.abs(got - targets.values) / (1.0 + np.abs(targets.values))
    assert np.max(resid) <= 1e-9


def test_exponent_rule():
    seq = generate_radial_geometric(0.8, 10)
    prod = CanonicalProduct(seq, 1)
    targets = targets_from_product(prod, LOG)
    exps = choose_exponents(prod, targets, margin=10.0)
    c_hat = targets.bound_constant + prod.balance_constant(0.5)
    gaps = seq.gaps()
    tilde = np.asarray([LOG.psi_tilde(1.0 / g) for g in gaps])
    n_idx = np.arange(1, len(seq) + 1, dtype=float)
    manual = 1 + np.ceil((10.0 + c_hat * tilde + 2.0 * np.log(n_idx + 1.0))
                         / math.log(2.0)).astype(int)
    np.testing.assert_array_equal(exps, manual)
    # deeper nodes never get smaller exponents
    assert np.all(np.diff(exps) >= 0)


def test_node_tilde_one_quadrature_per_distinct_gap(monkeypatch):
    wt = WeightPair.log_power_weight(2.0)
    scale = weight_to_psi(wt)
    seq = generate_rho_lattice(wt.rho, 0.8, 0.7)
    gaps = seq.gaps()
    per_node = np.asarray([scale.psi_tilde(1.0 / g) for g in gaps],
                          dtype=float)
    calls = []
    quad = scale.psi_tilde
    monkeypatch.setattr(scale, "psi_tilde",
                        lambda x: calls.append(x) or quad(x))
    targets = TargetData(seq, np.zeros(len(seq), dtype=complex), scale)
    assert np.array_equal(targets.node_tilde, per_node)
    assert len(calls) == np.unique(gaps).size < len(seq)


def test_margin_validation():
    prod = CanonicalProduct(ONE, 1)
    targets = targets_from_product(prod, LOG)
    with pytest.raises(ValueError):
        choose_exponents(prod, targets, margin=0.0)
    with pytest.raises(ValueError, match="different zero sequence"):
        choose_exponents(CanonicalProduct(PAIR, 1), targets)


def test_explicit_exponent_override():
    prod = CanonicalProduct(ONE, 1)
    targets = targets_from_product(prod, LOG)
    series = InterpolationSeries.build(prod, targets,
                                       exponents=np.array([7]))
    assert series.exponents.tolist() == [7]
    assert series.evaluate(0.5) == pytest.approx(targets.values[0],
                                                 rel=1e-12)


def test_derivative_matches_finite_difference():
    _, _, series = _one_point(1)
    z0 = 0.1 + 0.2j
    h = 1e-6
    fd = (series.evaluate(z0 + h) - series.evaluate(z0 - h)) / (2.0 * h)
    assert series.evaluate_derivative(np.array([z0]))[0] == pytest.approx(
        fd, rel=1e-5)


def test_log_abs_consistency_including_near_node():
    _, _, series = _one_point(1)
    pts = np.array([0.1 + 0.2j, -0.3 + 0.05j, 0.52 + 0.0j])
    la = series.log_abs_evaluate(pts)
    np.testing.assert_allclose(la, np.log(np.abs(series.evaluate(pts))),
                               atol=1e-10)


def test_evaluate_shapes():
    _, _, series = _one_point(1)
    assert np.ndim(series.evaluate(0.2 + 0.1j)) == 0
    grid = np.array([[0.1, 0.2], [0.3j, -0.1]])
    assert series.evaluate(grid).shape == grid.shape


def test_growth_table_rows():
    seq = generate_radial_geometric(0.8, 15)
    prod = CanonicalProduct(seq, 1)
    targets = targets_from_product(prod, LOG)
    series = InterpolationSeries.build(prod, targets)
    rows = series.growth_table([0.3, 0.5, 0.7], samples=256)
    assert [row.r for row in rows] == [0.3, 0.5, 0.7]
    for row in rows:
        assert np.isfinite(row.ratio)
        assert row.ratio == pytest.approx(row.log_max / row.growth_integral,
                                          rel=1e-12)

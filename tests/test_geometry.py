"""Disc geometry: Mobius maps, pseudo-hyperbolic distance, Carleson boxes."""

import numpy as np
import pytest

from discosc import (CarlesonBox, box_contains, carleson_box_table,
                     mobius_map, pseudo_distance)


def _disc_sample(rng, n, r=0.9):
    return r * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def test_mobius_point_value():
    # (z - w)/(1 - conj(z) w) at z = 0.5, w = -0.3
    assert mobius_map(0.5, -0.3) == pytest.approx(16.0 / 23.0, rel=1e-14)
    assert abs(mobius_map(0.3 + 0.4j, 0.3 + 0.4j)) < 1e-15


def test_mobius_is_involution():
    rng = np.random.default_rng(7)
    z = _disc_sample(rng, 300)
    w = _disc_sample(rng, 300)
    np.testing.assert_allclose(mobius_map(z, mobius_map(z, w)), w, atol=1e-13)


def test_mobius_maps_disc_into_disc():
    rng = np.random.default_rng(8)
    z = _disc_sample(rng, 300)
    w = _disc_sample(rng, 300)
    assert np.max(np.abs(mobius_map(z, w))) < 1.0


def test_pseudo_distance_point_value():
    assert pseudo_distance(0.5, 0.5 + 0.1j) == pytest.approx(
        0.1 / abs(0.75 - 0.05j), rel=1e-14)


def test_pseudo_distance_symmetry_and_range():
    rng = np.random.default_rng(9)
    z = _disc_sample(rng, 200)
    w = _disc_sample(rng, 200)
    s = pseudo_distance(z, w)
    np.testing.assert_allclose(s, pseudo_distance(w, z), rtol=1e-13)
    assert np.all((0.0 <= s) & (s < 1.0))


def test_box_membership():
    box = CarlesonBox(0.2, np.pi / 2)
    assert box_contains(box, 0.95j)
    assert not box_contains(box, 0.5j)  # below the inner radius 1 - delta
    half = np.pi * 0.2
    assert box_contains(box, 0.9 * np.exp(1j * (np.pi / 2 + 0.999 * half)))
    assert not box_contains(box, 0.9 * np.exp(1j * (np.pi / 2 + 1.01 * half)))


def test_box_wraps_around_angle_zero():
    box = CarlesonBox(0.1, 0.05)
    # angle -0.2 is within pi*0.1 of 0.05 only through the wrap
    assert box_contains(box, 0.97 * np.exp(-0.2j))
    assert not box_contains(box, 0.97 * np.exp(-0.4j))


def test_box_parameter_validation():
    for delta, phi in ((0.0, 0.0), (1.5, 0.0), (0.5, -1.0), (0.5, 7.0)):
        with pytest.raises(ValueError):
            CarlesonBox(delta, phi)


def test_unit_density_mass_is_exact_box_area():
    # area of {|z| in [1-d, 1], |arg - phi| <= pi d} is pi d^2 (2 - d); the
    # midpoint rule integrates r dr exactly, so mass/d matches pi d (2 - d)
    # to roundoff
    deltas = [0.1, 0.05, 0.025]
    table = carleson_box_table(lambda z: np.ones_like(np.real(z)), deltas)
    for delta, ratio in table:
        assert ratio == pytest.approx(np.pi * delta * (2.0 - delta), rel=1e-10)


def test_boundary_mass_grows_per_unit_area():
    # density 1/(1-|z|) integrates to ~log(1/(1-r)) radially, so the mean
    # density over a delta-box doubles (up to log corrections) per halving;
    # dividing by the unit-density ratio isolates that mean
    deltas = [0.1, 0.05, 0.025]
    edge = carleson_box_table(lambda z: 1.0 / (1.0 - np.abs(z)), deltas)
    unit = carleson_box_table(lambda z: np.ones_like(np.real(z)), deltas)
    mean = [e / u for (_, e), (_, u) in zip(edge, unit)]
    assert mean[1] / mean[0] >= 1.5
    assert mean[2] / mean[1] >= 1.5


def test_negative_density_rejected():
    with pytest.raises(ValueError):
        carleson_box_table(lambda z: np.real(z), [0.2])

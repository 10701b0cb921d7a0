"""The nested trapezoid circle and its scaled Fourier modes."""

import numpy as np
import pytest

from discosc.numutil import circle_modes, circle_nodes, nested_circle


def test_nested_circle_rounds_equal_fresh_grids():
    def fn(unit):
        return np.stack([np.log(2.0 + unit), unit ** 3])

    seen = []

    def counted(unit):
        seen.append(unit.size)
        return fn(unit)

    rounds = list(nested_circle(counted, 512))
    assert [theta.size for theta, _, _ in rounds] == [64, 128, 256, 512]
    for theta, unit, vals in rounds:
        fresh_theta, fresh_unit = circle_nodes(theta.size)
        assert np.array_equal(theta, fresh_theta)
        assert np.array_equal(unit, fresh_unit)
        assert np.array_equal(vals, fn(fresh_unit))
    # each point is evaluated once: 64 + 64 + 128 + 256, not 64 + ... + 512
    assert seen == [64, 64, 128, 256]


def test_nested_circle_stops_at_max_points():
    sizes = []
    rounds = nested_circle(lambda unit: sizes.append(unit.size) or unit, 128)
    assert [theta.size for theta, _, _ in rounds] == [64, 128]
    assert sizes == [64, 64]


def test_circle_modes_scale_and_zeros():
    theta, unit = circle_nodes(64)
    logs = np.log(3.0 * unit ** 2 + 0.5 * unit)
    scale, modes = circle_modes(theta, logs, (1, 2))
    assert scale == pytest.approx(np.log(3.5))
    np.testing.assert_allclose(modes * np.exp(scale), [0.5, 3.0], atol=1e-14)
    logs[::2] = -np.inf      # exact zeros count as 0
    _, frozen = circle_modes(theta, logs, (0,), scale=0.0)
    assert frozen[0] == pytest.approx(np.mean(np.exp(logs[1::2])) / 2.0)
    with pytest.raises(RuntimeError, match="collapses at binary64"):
        circle_modes(theta, np.full(64, -np.inf + 0j), (1,))

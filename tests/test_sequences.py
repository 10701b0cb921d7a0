"""Zero-sequence generators, counting functions, separation and densities."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discosc import (GrowthScale, SharpnessParams, ZeroSequence,
                     condition_report, count_near, generate_radial_geometric,
                     generate_rho_lattice, generate_sharpness,
                     log_integrated_count, rho_density_estimate,
                     rho_separation, separation_constant,
                     uniform_density_estimate, uniform_separation_constant)
from discosc.sequences import _duplicate_pairs


def _flat_rho(value):
    return lambda r: np.full_like(np.asarray(r, dtype=float), value)


def test_geometric_moduli_and_gaps():
    seq = generate_radial_geometric(0.5, 5)
    np.testing.assert_allclose(seq.moduli(), 1.0 - 0.5 ** np.arange(1, 6),
                               rtol=1e-15)
    np.testing.assert_allclose(seq.gaps(), 0.5 ** np.arange(1, 6), rtol=1e-15)


def test_geometric_gap_underflow_guard():
    # 0.5^k drops below the spacing of binary64 around 1 at k = 54; the
    # deeper points would all collapse onto the boundary
    generate_radial_geometric(0.5, 50)
    with pytest.raises(ValueError, match="underflow"):
        generate_radial_geometric(0.5, 60)


def test_json_round_trip(tmp_path):
    seq = generate_radial_geometric(0.8, 7)
    path = tmp_path / "seq.json"
    seq.save(path)
    back = ZeroSequence.load(path)
    np.testing.assert_array_equal(back.points, seq.points)
    assert back.label == seq.label
    raw = json.loads(path.read_text())
    assert set(raw) == {"label", "points", "meta"}
    assert all(set(p) == {"re", "im"} for p in raw["points"])


def _brute_duplicate_pairs(pts):
    # every (i, j), i < j, of the N x N difference matrix that vanishes
    diff = np.abs(pts[:, None] - pts[None, :])
    iu = np.triu_indices(pts.size, k=1)
    hits = np.flatnonzero(diff[iu] == 0.0)
    return [(int(iu[0][h]), int(iu[1][h])) for h in hits]


# few distinct coordinates, so draws repeat points (pairs and triples), put
# signed zeros side by side, and share moduli (0.3, -0.3, 0.3i, ...)
_COORD = st.sampled_from([0.0, -0.0, 0.3, -0.3, 0.5])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD), max_size=12))
def test_duplicate_pairs_match_the_brute_force_form(coords):
    pts = np.array([complex(re, im) for re, im in coords], dtype=complex)
    assert _duplicate_pairs(pts) == _brute_duplicate_pairs(pts)


def test_duplicate_points_are_refused_with_their_sorted_indices():
    pts = [0.5, 0.1j, -0.5, 0.5, complex(0.0, 0.1), 0.5, complex(-0.0, 0.0),
           0.0]
    with pytest.raises(ValueError, match=r"duplicate points at sorted "
                       r"indices \[\(0, 1\), \(2, 3\), \(4, 6\), "
                       r"\(4, 7\), \(6, 7\)\]"):
        ZeroSequence(pts)


def test_separation_constant_geometric():
    # consecutive pseudo-distance is (1-q)/(1+q-q^{k+1}), smallest at the
    # deepest pair of the truncation
    seq = generate_radial_geometric(0.5, 5)
    assert separation_constant(seq) == pytest.approx(0.5 / (1.5 - 0.5 ** 5),
                                                     rel=1e-13)


def test_uniform_separation_two_points():
    two = ZeroSequence(np.array([0.25, 0.5], dtype=complex), label="pair")
    assert uniform_separation_constant(two) == pytest.approx(2.0 / 7.0,
                                                             rel=1e-13)
    assert uniform_separation_constant(two) <= separation_constant(two)


def test_counting_functions_small_sequence():
    seq = ZeroSequence(np.array([0.5, 0.25, 0.125], dtype=complex), label="t")
    assert count_near(seq, 0.5, 0.3) == 2
    assert count_near(seq, 0.5, 0.4) == 3
    assert log_integrated_count(seq, 0.5, 0.3) == pytest.approx(
        math.log(0.3 / 0.25), rel=1e-13)
    # only the center itself inside: integrated excess is empty
    assert log_integrated_count(seq, 0.5, 0.2) == 0.0


def test_condition_report_single_point():
    one = ZeroSequence(np.array([0.5], dtype=complex), label="one")
    rep = condition_report(one, GrowthScale.log_power(1.0))
    assert rep.c_hat_n == pytest.approx(1.0 / math.log(2.0), rel=1e-13)
    assert rep.c_hat_N == 0.0
    assert len(rep.table) == 1


def test_condition_report_halving_special_case():
    # at ratio 1/2 the nearest neighbour sits exactly at the half-gap
    # integration radius, so every integrated term log(r/d) vanishes
    rep = condition_report(generate_radial_geometric(0.5, 12),
                           GrowthScale.log_power(1.0))
    assert rep.c_hat_N == 0.0
    assert rep.c_hat_n > 0.0
    rep8 = condition_report(generate_radial_geometric(0.8, 12),
                            GrowthScale.log_power(1.0))
    assert rep8.c_hat_N > 0.0


def test_sharpness_block_structure():
    seq = generate_sharpness(SharpnessParams(1.0, 1.0, 6))
    blocks = seq.meta["blocks"]
    assert blocks
    assert sum(b["m"] for b in blocks) == len(seq)
    assert np.all(seq.moduli() < 1.0)
    for b in blocks:
        assert set(b) >= {"n", "m", "eps", "eps_eff", "base", "clamped"}
        assert b["m"] >= 1
    assert isinstance(seq.meta["skipped_blocks"], list)


def test_sharpness_param_validation():
    with pytest.raises(ValueError):
        SharpnessParams(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        SharpnessParams(1.0, 1.0, 31)


def test_rho_lattice_respects_truncation():
    lat = generate_rho_lattice(_flat_rho(0.05), 1.0, 0.6)
    assert len(lat) > 50
    assert np.max(lat.moduli()) <= 0.6 + 1e-12


def test_rho_density_reads_plane_density():
    # spacing c*rho puts about pi/c^2 points in a disc of radius R*rho once
    # R is large enough to average out the ring discretization
    rho = _flat_rho(0.03)
    lat = generate_rho_lattice(rho, 0.8, 0.6)
    ladder = rho_density_estimate(lat, rho, [4.0, 8.0, 16.0])
    vals = [v for _, v in ladder]
    assert max(vals) / min(vals) <= 1.3
    assert vals[-1] == pytest.approx(np.pi / 0.64, rel=0.15)


def test_rho_density_scaling_laws():
    rho = _flat_rho(0.03)
    lat = generate_rho_lattice(rho, 0.8, 0.6)
    wide = generate_rho_lattice(rho, 1.6, 0.6)
    v_lat = dict(rho_density_estimate(lat, rho, [8.0]))[8.0]
    v_wide = dict(rho_density_estimate(wide, rho, [8.0]))[8.0]
    # doubling the spacing divides the count by about four
    assert 4.0 / 1.5 <= v_lat / v_wide <= 4.0 * 1.5
    # doubling rho itself quadruples every disc count
    v_double = dict(rho_density_estimate(lat, _flat_rho(0.06), [8.0]))[8.0]
    assert 4.0 / 1.3 <= v_double / v_lat <= 4.0 * 1.3


def test_rho_density_validation():
    lat = generate_rho_lattice(_flat_rho(0.05), 1.0, 0.5)
    with pytest.raises(ValueError):
        rho_density_estimate(ZeroSequence(np.array([], dtype=complex),
                                          label="empty"),
                             _flat_rho(0.05), [4.0])
    with pytest.raises(ValueError):
        rho_density_estimate(lat, _flat_rho(0.05), [-1.0])


def test_rho_separation_two_points():
    two = ZeroSequence(np.array([0.3, 0.6], dtype=complex), label="pair")
    assert rho_separation(two, _flat_rho(0.1)) == pytest.approx(3.0,
                                                                rel=1e-13)


def test_uniform_density_geometric_bounded():
    seq = generate_radial_geometric(0.5, 30)
    table = uniform_density_estimate(seq, [0.9, 0.99, 0.999])
    vals = [v for _, v in table]
    assert all(0.0 < v < 2.0 for v in vals)
    assert vals[2] < vals[0]


def test_uniform_density_ladder_validation():
    seq = generate_radial_geometric(0.5, 10)
    with pytest.raises(ValueError):
        uniform_density_estimate(seq, [])
    with pytest.raises(ValueError):
        uniform_density_estimate(seq, [0.4, 0.9])

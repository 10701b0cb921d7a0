"""Zero-sequence generators, counting functions, separation and densities."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discosc import (GrowthScale, SharpnessParams, WeightPair, ZeroSequence,
                     condition_report, count_near, generate_radial_geometric,
                     generate_rho_lattice, generate_sharpness,
                     log_integrated_count, numutil, rho_density_estimate,
                     rho_separation, sequences, sigma_report, weight_to_psi)
from discosc.sequences import _duplicate_pairs

import references


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
    assert sigma_report(seq).separation == pytest.approx(
        0.5 / (1.5 - 0.5 ** 5), rel=1e-13)


def test_uniform_separation_two_points():
    two = sigma_report(ZeroSequence(np.array([0.25, 0.5], dtype=complex),
                                    label="pair"))
    uniform = math.exp(two.uniform_separation_log)
    assert uniform == pytest.approx(2.0 / 7.0, rel=1e-13)
    assert uniform <= two.separation
    # one point: the empty minimum and the empty sum
    one = sigma_report(ZeroSequence(np.array([0.5j])))
    assert one.separation == math.inf and one.uniform_separation_log == 0.0


def test_uniform_separation_log_where_the_constant_underflows():
    # 300 points 2e-4 apart on a small circle: each row sums about 300
    # logs near -8, far below the -745 where exp underflows
    seq = ZeroSequence(0.3 + 0.01 * np.exp(2j * np.pi * np.arange(300) / 300))
    log = sigma_report(seq).uniform_separation_log
    assert -3000.0 < log < -1000.0
    assert log == references.uniform_separation_log(seq)
    assert np.exp(log) == 0.0
    two = ZeroSequence(np.array([0.25, 0.5], dtype=complex))
    assert sigma_report(two).uniform_separation_log == pytest.approx(
        math.log(2.0 / 7.0), rel=1e-13)


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


def test_condition_report_leaves_psi_tilde_zero_out_of_c_hat_N():
    # the lattice's origin node has psi_tilde(1) = 0 and a positive
    # integrated count: its ratio is infinite, and c_hat_N is the largest
    # ratio over the other nodes
    lat = generate_rho_lattice(_RHO, 0.6, 0.5)
    for scale in (GrowthScale.log_power(1.0),
                  weight_to_psi(WeightPair.log_power_weight(2.0))):
        rep = condition_report(lat, scale)
        assert rep.psi_tilde_zero == [0] and lat.points[0] == 0.0
        assert rep.table[0]["integrated"] > 0.0
        assert rep.table[0]["ratio_N"] == math.inf
        assert rep.c_hat_N == max(r["ratio_N"] for r in rep.table[1:])
        assert 0.0 < rep.c_hat_N < math.inf
    assert condition_report(generate_radial_geometric(0.8, 12),
                            _SCALE).psi_tilde_zero == []


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


def test_generators_refuse_a_count_above_the_point_limit_unformed():
    # each count is refused from its closed form, or the lattice's from its
    # rings, before any point is formed: SharpnessParams(20, 1, 3) asks
    # 22,872,526,833 points of block 3 (and 6,878,424 of block 2), (4, 1,
    # 29) holds every block under the limit but 6,502,805 points in all,
    # and spacing 1e-6 passes the limit after 578 rings
    assert sequences.MAX_POINTS == 2 ** 20
    assert SharpnessParams(4.0, 1.0, 29).block_count(29) == 1030314
    rho = WeightPair.log_power_weight(2.0).rho
    cases = [
        (lambda: SharpnessParams(20.0, 1.0, 3).block_count(3),
         "block 3: point count 22872526833 exceeds the point limit 1048576"),
        (lambda: generate_sharpness(SharpnessParams(20.0, 1.0, 3)),
         "block 2: point count 6878424 exceeds the point limit 1048576"),
        (lambda: generate_sharpness(SharpnessParams(4.0, 1.0, 29)),
         "blocks 1..29: point count 6502805 exceeds the point limit 1048576"),
        (lambda: generate_rho_lattice(rho, 1e-6, 0.9),
         "ring 578 at r = 0.000288953: point count 1051198 exceeds the point "
         "limit 1048576"),
        (lambda: generate_radial_geometric(0.5, 2 ** 20 + 1),
         "geometric: point count 1048577 exceeds the point limit 1048576"),
    ]
    tracemalloc.start()
    try:
        for call, message in cases:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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
    table = sigma_report(seq, [0.9, 0.99, 0.999]).density
    vals = [v for _, v in table]
    assert all(0.0 < v < 2.0 for v in vals)
    assert vals[2] < vals[0]


def test_uniform_density_ladder_validation():
    # an empty ladder is the pass without the grid, as gen takes it
    seq = generate_radial_geometric(0.5, 10)
    assert sigma_report(seq, []) == sigma_report(seq)
    assert sigma_report(seq).density == []
    with pytest.raises(ValueError, match=r"lie in \(1/2, 1\)"):
        sigma_report(seq, [0.4, 0.9])


# -- the estimators over blocks of rows ---------------------------------------

_RHO = WeightPair.log_power_weight(2.0).rho
_SCALE = GrowthScale.log_power(1.0)


@pytest.fixture(scope="module")
def estimator_sets():
    return {"geo50": generate_radial_geometric(0.8, 50),
            # one point at the origin
            "lattice368": generate_rho_lattice(_RHO, 0.8, 0.9),
            "sharp14": generate_sharpness(SharpnessParams(1.0, 1.0, 14)),
            "two": ZeroSequence(np.array([0.25, 0.5j], dtype=complex))}


def _record_slices(monkeypatch):
    """A list that receives, from now on, the rows of every block of
    numutil.slices that the sequence estimators and numutil.distance_rows
    take."""
    rows = []
    real = numutil.slices

    def recorded(*args, **kwargs):
        for sl in real(*args, **kwargs):
            rows.append(sl.stop - sl.start)
            yield sl

    monkeypatch.setattr(numutil, "slices", recorded)
    monkeypatch.setattr(sequences, "slices", recorded)
    return rows


def _estimates(seq):
    """The blocked estimators: sigma_report's fields with a ladder and
    without, and the two rho estimators."""
    with_ladder = sigma_report(seq, [0.9, 0.95, 0.99])
    return (*with_ladder, *sigma_report(seq)[:2],
            rho_density_estimate(seq, _RHO, [0.5, 0.75, 1.0]),
            rho_separation(seq, _RHO))


def _references(seq):
    """The full-matrix forms of _estimates."""
    sigma = (references.separation_constant(seq),
             references.uniform_separation_log(seq))
    return (*sigma,
            references.uniform_density_estimate(seq, [0.9, 0.95, 0.99]),
            *sigma, references.rho_density_estimate(seq, _RHO,
                                                    [0.5, 0.75, 1.0]),
            references.rho_separation(seq, _RHO))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("name", ["geo50", "lattice368", "sharp14", "two"])
def test_blocked_estimators_equal_their_full_matrix_forms(
        estimator_sets, monkeypatch, name):
    seq = estimator_sets[name]
    want = _references(seq)
    counts = [(count_near(seq, z, r), log_integrated_count(seq, z, r))
              for z, r in zip(seq.points, 0.5 * seq.gaps())]
    rows = _record_slices(monkeypatch)
    for pairs in (2 ** 10, 2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14, 2 ** 15):
        monkeypatch.setattr(numutil, "_BLOCK_PAIRS", pairs)
        rows.clear()
        got = _estimates(seq)
        table = condition_report(seq, _SCALE).table
        for field, a, b in zip(("separation", "uniform separation log",
                                "uniform density", "separation, no ladder",
                                "uniform separation log, no ladder",
                                "rho density", "rho separation"), got, want):
            assert _bits(a) == _bits(b), (pairs, field)
        assert [(r["count"], r["integrated"]) for r in table] == counts
        assert _bits([r["integrated"] for r in table]) == _bits(
            [c[1] for c in counts]), pairs
        assert 0 < max(rows) <= max(1, min(512, pairs // len(seq))), pairs


def test_estimators_hold_no_matrix_of_the_set_at_n_2686():
    # the full-matrix forms peak at 197-485 MB here (tracemalloc)
    seq = generate_rho_lattice(_RHO, 0.3, 0.9)
    assert len(seq) == 2686
    calls = {"sigma_report": lambda: sigma_report(seq),
             "sigma_report with a ladder":
                 lambda: sigma_report(seq, [0.9, 0.95, 0.99]),
             "rho_density_estimate":
                 lambda: rho_density_estimate(seq, _RHO, [0.5, 0.75, 1.0]),
             "rho_separation": lambda: rho_separation(seq, _RHO),
             "condition_report": lambda: condition_report(seq, _SCALE)}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, (name, peak)

"""Acceptance gate: one test per release criterion, in fixed order.

Each test asserts the full criterion at its pinned tolerance, so the
pass/fail line of this module is the release report.  Shared expensive
fixtures live in conftest.py.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from discosc import (CanonicalProduct, GrowthScale, SharpnessParams,
                     ZeroSequence, build_coefficient, carleson_box_table, cli,
                     condition_report,
                     count_near, generate_radial_geometric,
                     generate_rho_lattice, generate_sharpness,
                     log_integrated_count, mobius_map, pseudo_distance,
                     rho_density_estimate, rho_separation, sample_probes,
                     sharpness_witness)


def _disc_uniform(rng, n, radius):
    return (radius * np.sqrt(rng.uniform(size=n))
            * np.exp(2j * np.pi * rng.uniform(size=n)))


def test_01_mobius_invariance_of_pseudo_distance():
    # 1e4 random triples (a, z, w); sup |sigma(phi_a z, phi_a w) - sigma(z, w)|
    rng = np.random.default_rng(2026)
    a = _disc_uniform(rng, 10_000, 0.95)
    z = _disc_uniform(rng, 10_000, 0.95)
    w = _disc_uniform(rng, 10_000, 0.95)
    err = np.abs(pseudo_distance(mobius_map(a, z), mobius_map(a, w))
                 - pseudo_distance(z, w))
    assert float(np.max(err)) <= 1e-12


def test_02_integrated_count_matches_adaptive_quadrature():
    # closed form sum log(r/d_j) against quad of (n(t)-1)^+ / t, 100 instances
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n_pts = int(rng.integers(5, 30))
        pts = _disc_uniform(rng, n_pts, 0.9)
        seq = ZeroSequence(pts, label="rand")
        center = complex(pts[int(rng.integers(0, n_pts))])
        dists = np.sort(np.abs(pts - center))
        r = float(dists[1] * 1.2 + rng.uniform(0.0, 0.5))
        closed = log_integrated_count(seq, center, r)
        interior = [float(d) for d in dists if 0.0 < d < r]
        val, _ = quad(lambda t: max(count_near(seq, center, t) - 1, 0) / t,
                      dists[1] / 2.0, r, points=interior, limit=200)
        worst = max(worst, abs(val - closed) / abs(closed))
    assert worst <= 1e-9


def test_03_derivative_at_zero_contour_identity(geo100, sharp6):
    from test_products import contour_derivatives

    worst = 0.0
    for seq in (geo100, sharp6):
        prod = CanonicalProduct(seq, 1)
        contour = contour_derivatives(prod)[0]
        for k in range(len(seq)):
            direct = np.exp(prod.log_derivative_at_zero(k))
            worst = max(worst, abs(contour[k] - direct) / abs(direct))
    assert worst <= 1e-8


def test_04_index_constant_stable_under_doubling(geo100):
    # C(1/2, 1) = max_k lhs/rhs of the deleted-product balance inequality
    half = generate_radial_geometric(0.8, 50)
    c50 = CanonicalProduct(half, 1).balance_constant()
    c100 = CanonicalProduct(geo100, 1).balance_constant()
    assert np.isfinite(c50) and np.isfinite(c100)
    assert 0.8 <= c100 / c50 <= 1.2


def test_05_interpolation_node_residuals(geo50_bundle, sharp6_bundle):
    for bundle in (geo50_bundle, sharp6_bundle):
        prod = bundle.product
        targets = bundle.targets
        keep = np.abs(prod.z) <= 0.995
        got = np.atleast_1d(bundle.gprime.evaluate(prod.z[keep]))
        want = targets.values[keep]
        resid = np.abs(got - want) / (1.0 + np.abs(want))
        assert float(np.max(resid)) <= 1e-6


def test_06_residue_cancellation_ode_and_zero_count(geo50_bundle):
    assert float(np.max(geo50_bundle.residue_mismatch)) <= 1e-6
    rng = np.random.default_rng(2026)
    probes = sample_probes(geo50_bundle.product, rng, 50, r_max=0.9)
    assert geo50_bundle.ode_residual(probes).value <= 1e-5
    rep = geo50_bundle.count_zeros(radius=0.9)
    assert rep.matches
    assert rep.count == rep.nodes_inside == 10


def test_07_coefficient_growth_against_integrated_majorant(geo50_bundle):
    rows = geo50_bundle.coefficient_growth_table([0.9, 0.95, 0.99])
    ratios = [row.ratio for row in rows]
    assert all(np.isfinite(v) and v > 0.0 for v in ratios)
    assert max(ratios) / min(ratios) <= 3.0


def test_08_weight_pipeline(weight_pipeline):
    wt, scale, lattice, bundle = weight_pipeline
    # psi from the weight laplacian is monotone on a wide ladder
    x = np.geomspace(2.0, 1e6, 40)
    assert np.all(np.diff(scale.psi(x)) > 0.0)
    assert rho_separation(lattice, wt.rho) > 0.0
    # counting-density ladder: R small enough that R*rho stays inside the
    # truncation; stabilized = values do not move when the truncation deepens
    ladder = [0.5, 0.75, 1.0]
    shallow = rho_density_estimate(lattice, wt.rho, ladder)
    deeper = rho_density_estimate(generate_rho_lattice(wt.rho, 0.8, 0.95),
                                  wt.rho, ladder)
    np.testing.assert_allclose([v for _, v in shallow],
                               [v for _, v in deeper], rtol=1e-12)
    vals = [v for _, v in shallow]
    assert max(vals) / min(vals) <= 2.0
    rows = bundle.coefficient_growth_table([0.9, 0.95, 0.99])
    ratios = [row.ratio for row in rows]
    assert all(np.isfinite(v) and v > 0.0 for v in ratios)
    assert max(ratios) / min(ratios) <= 3.0


def test_09_cluster_condition_constants_and_block_formula():
    reports = {}
    for n_max in (6, 8, 10):
        seq = generate_sharpness(SharpnessParams(1.0, 1.0, n_max))
        reports[n_max] = (seq, condition_report(seq,
                                                GrowthScale.log_power(1.0)))
    c_n = [rep.c_hat_n for _, rep in reports.values()]
    c_N = [rep.c_hat_N for _, rep in reports.values()]
    assert all(np.isfinite(v) for v in c_n + c_N)
    assert max(c_n) / min(c_n) <= 2.0
    assert max(c_N) / min(c_N) <= 2.0
    # block formula m_n log((1-|z|)/(2 eps)) against the integrated count at
    # a block member, deep blocks only
    seq, _ = reports[10]
    start = 0
    for block in seq.meta["blocks"]:
        m = block["m"]
        if block["n"] >= 4:
            z = seq.points[start + m // 2]
            gap = 1.0 - abs(z)
            measured = log_integrated_count(seq, complex(z), gap / 2.0)
            formula = m * math.log(gap / (2.0 * block["eps_eff"]))
            assert 0.5 <= measured / formula <= 2.0
        start += m


def test_10_witness_kernel_lower_bound():
    params = SharpnessParams(1.0, 1.0, 6)
    good = {}
    for n in range(2, 7):
        w = sharpness_witness(params, n)
        good[n] = (w.i1_abs >= w.i1_floor
                   and w.i1_abs / w.i2_upper >= 10.0)
    threshold = next(n0 for n0 in range(2, 8)
                     if all(good.get(n, True) for n in range(n0, 7)))
    assert threshold <= 6


def test_11_carleson_box_estimator(geo50_bundle):
    deltas = [0.1, 0.05, 0.025]
    unit = carleson_box_table(lambda z: np.ones_like(np.real(z)), deltas)
    for delta, ratio in unit:
        assert ratio == pytest.approx(np.pi * delta * (2.0 - delta),
                                      rel=1e-9)
    edge = carleson_box_table(lambda z: 1.0 / (1.0 - np.abs(z)), deltas)
    mean = [e / u for (_, e), (_, u) in zip(edge, unit)]
    assert mean[1] / mean[0] >= 1.5
    assert mean[2] / mean[1] >= 1.5
    # Clause 3: Groehn, Nicolau & Raettyae (J. Anal. Math. 2018) realise a
    # uniformly separated zero set by f = B e^g, B the Blaschke product, with
    # |a|^2 (1-|z|^2)^3 dA a Carleson measure.  That is the genus-0 product
    # (blaschke_sum(geo50, 0) = 4.0, generator tail 5.7e-5) with exponent s
    # chosen from a bound, not from the masses: on a separated set
    # |b_n| (1-|z_n|^2) and 1/(|B'(z_n)| (1-|z_n|^2)) are bounded and
    # |B(z)/(z - z_n)| <= 1/|1 - conj(z_n) z|, so term n of h is
    # O((1-|z_n|^2)^(s-1) / |1 - conj(z_n) z|^s), and the Forelli-Rudin
    # estimate sums these to O((1-|z|^2)^-1) once s - 3 > -1.  s = 3 is the
    # smallest integer exponent that keeps (1-|z|^2)|h| and (1-|z|^2)^2|h'|
    # bounded.  The default bundle is not this object: its log|a| tracks
    # psi_tilde (test_07), which outgrows the bound |a| = O((1-|z|)^-2) that
    # a Carleson density imposes.
    zeros = geo50_bundle.product.zeros
    blaschke = build_coefficient(zeros, geo50_bundle.scale, genus=0,
                                 exponents=np.full(len(zeros), 3))
    # Nested boxes (same angles at every depth) bound a resolved estimate by
    # ratio(delta) <= (delta'/delta) ratio(delta') for delta < delta', so only
    # a ladder spanning more than the bound lets growth show.  The Carleson
    # condition bounds growth as the boxes shrink, and that is all it bounds.
    ladder = [0.1, 0.025, 0.00625]

    def grown(table):
        top = table[0][1]  # the ratio at the largest delta
        return [(d, v) for d, v in table if v > 10.0 * top]

    coef = blaschke.carleson_table(ladder)
    if grown(coef):
        lines = ", ".join(f"delta {d}: {v:.3e}" for d, v in coef)
        pytest.fail(
            "squared-coefficient box masses of the Blaschke-product "
            f"coefficient grow as the boxes shrink ({lines}): some ratio "
            "exceeds 10 times the ratio at delta 0.1, so |a|^2 (1-|z|^2)^3 dA "
            "does not look like a Carleson measure.")
    # the criterion can fail: the default coefficient's masses outgrow it
    assert grown(geo50_bundle.carleson_table(ladder))


def test_12_verify_reports_are_byte_identical(tmp_path):
    seq_path = tmp_path / "seq.json"
    assert cli.main(["gen", "geometric", "--ratio", "0.5", "--count", "10",
                     "--out", str(seq_path)]) == 0
    argv = ["verify", "--sequence", str(seq_path), "--scale", "log",
            "--samples", "25", "--seed", "2026"]
    assert cli.main(argv + ["--out", str(tmp_path / "first")]) == 0
    assert cli.main(argv + ["--out", str(tmp_path / "second")]) == 0
    first = (tmp_path / "first.json").read_bytes()
    second = (tmp_path / "second.json").read_bytes()
    assert first == second
    assert json.loads(first)["pass"] is True

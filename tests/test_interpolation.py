"""Interpolating series hitting prescribed values on the product's zeros."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discosc import (CanonicalProduct, GrowthScale, InterpolationSeries,
                     TargetData, WeightPair, ZeroSequence, choose_exponents,
                     generate_radial_geometric, generate_rho_lattice,
                     sample_probes, targets_from_product, weight_to_psi)
from discosc.numutil import clog
from discosc.products import _poly_part
from references import offset_pieces
from strategies import separated_sets

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


def test_target_validation():
    with pytest.raises(ValueError):
        TargetData(ONE, np.array([np.inf + 0j]), LOG)
    with pytest.raises(ValueError):
        TargetData(ONE, np.array([1.0, 2.0], dtype=complex), LOG)


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
    c_hat = targets.bound_constant + prod.balance_constant()
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
    # the batch gives each gap the value of its own scalar call, bit for bit
    assert np.array_equal(targets.node_tilde, per_node)
    assert len(calls) == 1
    assert np.array_equal(calls[0], 1.0 / np.unique(gaps))
    assert calls[0].size < len(seq)


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


def test_growth_table_on_a_ladder_is_the_table_per_radius():
    # the circles 0.5 and 0.8 run through the exclusion discs of the nodes
    # 1 - 0.8^3 and 1 - 0.8^7
    prod = CanonicalProduct(generate_radial_geometric(0.8, 15), 1)
    series = InterpolationSeries.build(prod, targets_from_product(prod, LOG))
    ladder = [0.3, 0.5, 0.8, 0.9]
    rows = series.growth_table(ladder, samples=128)
    assert rows == [series.growth_table([r], samples=128)[0]
                    for r in ladder]


# -- the skipping series pass against the all-term route -------------------


def _five_division_log_derivatives(prod, delta, den):
    """The earlier form of CanonicalProduct._log_derivatives, kept as a
    reference: -u w^(s+1)/(1-w) and -u^2 w^(s+1) [(s+2)/(1-w) + w/(1-w)^2]
    with w = 1 - (1 - w), and the origin column overwritten."""
    s = prod.genus
    u = prod._zc / den
    omw = -prod._zc * delta / den
    w = 1.0 - omw
    wp = w ** (s + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        L = -u * wp / omw
        dL = -u * u * wp * ((s + 2.0) / omw + w / omw ** 2)
    origin = np.flatnonzero(prod.z == 0.0)
    L[:, origin] = 1.0 / delta[:, origin]
    dL[:, origin] = -1.0 / delta[:, origin] ** 2
    return L, dL


def _term_logs(series, delta, den):
    """log b_n - log P'(z_n) - log(z - z_n) + (s_n - 1) log w_n(z) for
    every term from the product's pieces (delta, den); the shared log P is
    not added."""
    w = series.product._gap2 / den
    with np.errstate(divide="ignore", invalid="ignore"):
        return (series._log_b - series._log_dp - clog(delta)
                + (series.exponents - 1) * clog(w))


def _dense_sums(series, pts, lam):
    """Every term, none skipped: term logs t_n from _term_logs (the shared
    log P left out, as in the pass), e_n = exp(t_n - M) under the row
    maximum M of Re t (nan and infinite logs count 0), and f_n the term's
    derivative factor with P'/P = lam.  Returns M and the row sums of e_n,
    |e_n|, e_n f_n and |e_n f_n|."""
    prod = series.product
    delta, den = prod._pieces(pts)
    t = _term_logs(series, delta, den)
    re = np.where(np.isnan(t.real), -np.inf, t.real)
    big = np.max(re, axis=1)
    with np.errstate(invalid="ignore"):
        e = np.where(np.isfinite(t), np.exp(t - big[:, None]), 0.0)
    f = (lam[:, None] - 1.0 / delta
         + (series.exponents - 1) * (prod._zc / den))
    ef = e * f
    return (big, np.sum(e, axis=1), np.sum(np.abs(e), axis=1),
            np.sum(ef, axis=1), np.sum(np.abs(ef), axis=1))


def _outside_points(prod, seed, count=300):
    """Uniform points of |z| <= 0.95 plus points just outside each
    exclusion disc, where the own term dominates and the others cancel;
    all outside every disc."""
    rng = np.random.default_rng(seed)
    rim = (prod.z[:, None] + 1.05 * prod.exclusion_radii[:, None]
           * np.exp(2j * np.pi * rng.random((prod.z.size, 4)))).ravel()
    rim = rim[(np.abs(rim) < 1.0) & ~prod.in_exclusion(rim)[0]]
    return np.concatenate([sample_probes(prod, rng, count, r_max=0.95), rim])


def _assert_pass_matches_dense(series, pts):
    # P'/P is the pass's own: the kernel is checked on its own below
    p = series._pass(pts, derivatives=True)
    big, h, h_abs, dh, dh_abs = _dense_sums(series, pts, p.lam)
    empty = big == -np.inf          # every target 0: no term at all
    assert np.all(p.scale[empty] == -np.inf)
    assert np.all(p.total[empty] == 0.0) and np.all(p.dtotal[empty] == 0.0)
    live = ~empty
    unit = np.exp(p.scale[live] - big[live])
    assert np.all(np.abs(unit * p.total[live] - h[live])
                  <= 1e-13 * h_abs[live])
    assert np.all(np.abs(unit * p.dtotal[live] - dh[live])
                  <= 1e-13 * dh_abs[live])


def _series(seq, genus=1, values=None):
    prod = CanonicalProduct(seq, genus)
    targets = targets_from_product(prod, LOG) if values is None \
        else TargetData(seq, values, LOG)
    return InterpolationSeries.build(prod, targets)


@pytest.mark.parametrize("seq", [
    generate_radial_geometric(0.8, 50),
    generate_radial_geometric(0.5, 12),
    generate_rho_lattice(WeightPair.log_power_weight(2.0).rho, 0.8, 0.7),
], ids=["geo50", "geo-half-12", "rho-lattice-origin"])
def test_pass_matches_the_dense_sum(seq):
    series = _series(seq)
    _assert_pass_matches_dense(series, _outside_points(series.product, 3))


def _removable_form_reference(series, k, pts):
    """(scale, scaled sum) of the series at the nodes pts == z_k by the
    earlier near-node route, kept as a reference: all term logs at the
    offset pieces of node k, log P from the factor logs there, term k in
    its factored removable form, and the row summed under its maximum."""
    prod = series.product
    rows = np.arange(pts.size)
    zk = prod.z[k]
    delta, den = offset_pieces(prod, k, pts - zk)
    logs = prod._factor_logs(delta, den)
    log_ek = logs[rows, k]
    logs[rows, k] = 0.0
    log_bk = np.sum(logs, axis=1)
    den_k = den[rows, k]
    wk = prod._gap2[k] / den_k
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _term_logs(series, delta, den) + (log_bk + log_ek)[:, None]
        fact = np.where(zk == 0.0, 0.0,
                        clog(-np.conj(zk) / den_k)
                        + _poly_part(wk, prod.genus))
        t[rows, k] = (series._log_b[k] - series._log_dp[k] + log_bk + fact
                      + (series.exponents[k] - 1) * clog(wk))
        sm = np.max(np.where(np.isnan(t.real), -np.inf, t.real), axis=1)
        e = np.exp(t - sm[:, None])
    return sm, np.sum(np.where(np.isfinite(t), e, 0.0), axis=1)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.uint64),
                          np.asarray(b).view(np.uint64))


@pytest.mark.parametrize("seq", [
    generate_radial_geometric(0.8, 50),
    generate_rho_lattice(WeightPair.log_power_weight(2.0).rho, 0.8, 0.7),
], ids=["geo50", "rho-lattice-origin"])
def test_evaluate_is_the_pass_off_the_nodes_and_the_removable_form_at_them(
        seq, monkeypatch):
    # a 2-D batch: the nodes with the signs of their zero parts flipped
    # (the origin passed as -0 - 0j), points at 0.5 and 1e-3 r_k inside the
    # exclusion discs, and points outside them
    series = _series(seq)
    prod = series.product
    n = prod.z.size
    nodes = prod.z.copy()
    nodes.real[nodes.real == 0.0] *= -1.0
    nodes.imag[nodes.imag == 0.0] *= -1.0
    assert np.all(np.signbit(nodes[prod.z == 0.0].view(float)))
    turn = np.exp(2j * np.pi * np.random.default_rng(5).random(n))
    batch = np.stack([nodes,
                      prod.z + 0.5 * prod.exclusion_radii * turn,
                      prod.z + 1e-3 * prod.exclusion_radii * turn,
                      _outside_points(prod, 8)[:n]])
    calls = []
    search = CanonicalProduct.nearest_node
    monkeypatch.setattr(CanonicalProduct, "nearest_node",
                        lambda *a: calls.append(1) or search(*a))
    h = series.evaluate(batch)
    log_abs = series.log_abs_evaluate(batch)
    assert calls == []
    assert h.shape == log_abs.shape == batch.shape
    sm, total = _removable_form_reference(series, np.arange(n), nodes)
    assert _same_bits(h[0], np.exp(sm) * total)
    assert _same_bits(log_abs[0], sm + np.log(np.abs(total)))
    p = series._pass(batch[1:].ravel())
    assert _same_bits(h[1:].ravel(), np.exp(p.log_p + p.scale) * p.total)
    assert _same_bits(log_abs[1:].ravel(),
                      p.log_p.real + p.scale + np.log(np.abs(p.total)))
    # the derivative names exact nodes, then keeps the exclusion guard
    with pytest.raises(ValueError, match="at an exact node"):
        series.evaluate_derivative(batch)
    with pytest.raises(ValueError, match="exclusion disc of node"):
        series.evaluate_derivative(batch[1:])


# targets drawn apart from the nodes, zeros included: the series
# interpolates any values.  A node of subnormal modulus is not drawn: its
# factor 1 - w_n underflows to 0 at the other nodes, so CanonicalProduct
# refuses it by name (tests/test_products.py).
target_lists = st.lists(st.complex_numbers(max_magnitude=1e3,
                                           allow_subnormal=False),
                        min_size=8, max_size=8)
normal_sets = separated_sets(allow_subnormal=False)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(pts=normal_sets, values=target_lists)
def test_pass_matches_the_dense_sum_on_separated_sets(pts, values):
    series = _series(ZeroSequence(pts), values=values[:pts.size])
    _assert_pass_matches_dense(series, _outside_points(series.product, 4,
                                                       count=50))


def test_pass_with_a_zero_target_matches_the_dense_sum():
    seq = generate_radial_geometric(0.8, 20)
    values = targets_from_product(CanonicalProduct(seq, 1), LOG).values
    values[[0, 7]] = 0.0
    series = _series(seq, values=values)
    _assert_pass_matches_dense(series, _outside_points(series.product, 5))


def test_pass_keeps_a_small_term_whose_factor_is_large():
    # near node 1 its damping part (s_1 - 1)|z_1|/|1 - conj(z_1) z| is about
    # 5e6 against P'/P ~ 7e2; b_1 puts term 1 just below eps/N of term 0,
    # so only the derivative rule keeps it, and h' needs it
    seq = ZeroSequence(np.array([0.5, 0.99], dtype=complex))
    prod = CanonicalProduct(seq, 1)
    z = np.array([0.99 + 1.5e-3j])
    assert not prod.in_exclusion(z)[0][0]
    exps = np.array([1, 100001])
    unit = InterpolationSeries(prod, TargetData(seq, [1.0, 1.0], LOG), exps)
    t = _term_logs(unit, *prod._pieces(z))[0].real
    b1 = math.exp(t[0] - t[1] + math.log(np.finfo(float).eps / 2) - 1.0)
    series = InterpolationSeries(prod, TargetData(seq, [1.0, b1], LOG), exps)
    _assert_pass_matches_dense(series, z)


def test_zero_targets_give_the_zero_series():
    seq = generate_radial_geometric(0.8, 20)
    series = _series(seq, values=np.zeros(len(seq), dtype=complex))
    pts = _outside_points(series.product, 6)
    assert np.all(series.evaluate(pts) == 0.0)
    assert np.all(series.evaluate_derivative(pts) == 0.0)
    assert np.all(series.log_abs_evaluate(pts) == -np.inf)


@pytest.mark.parametrize("seq", [
    generate_radial_geometric(0.8, 50),
    generate_rho_lattice(WeightPair.log_power_weight(2.0).rho, 0.8, 0.7),
], ids=["geo50", "rho-lattice-origin"])
@pytest.mark.parametrize("genus", [0, 1, 3])
def test_log_derivatives_match_the_five_division_form(seq, genus):
    prod = CanonicalProduct(seq, genus)
    delta, den = prod._pieces(_outside_points(prod, 7))
    L, dL = prod._log_derivatives(delta, prod._gap2c / den)
    L0, dL0 = _five_division_log_derivatives(prod, delta, den)
    for got, want in ((L, L0), (dL, dL0)):
        err = np.abs(np.sum(got, axis=1) - np.sum(want, axis=1))
        assert np.all(err <= 1e-13 * np.sum(np.abs(want), axis=1))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(pts=normal_sets)
def test_node_residuals_on_separated_sets(pts):
    series = _series(ZeroSequence(pts))
    b = series.targets.values
    resid = np.abs(series.evaluate(series.product.z) - b) / (1.0 + np.abs(b))
    assert np.max(resid) <= 1e-9

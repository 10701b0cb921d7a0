"""Growth scales, the integrated majorant, Polya estimates, radial weights."""

import math

import mpmath
import numpy as np
import pytest

from discosc import (GrowthScale, WeightPair, generate_rho_lattice,
                     genus_from_scale,
                     polya_doubling, polya_order_estimate, weight_to_psi)


def test_log_power_closed_forms():
    sc = GrowthScale.log_power(1.0)
    assert sc.psi(math.e) == pytest.approx(1.0, rel=1e-13)
    # integral of log^p t / t from 1 to x is log^{p+1} x / (p+1)
    assert sc.psi_tilde(math.e ** 2) == pytest.approx(2.0, rel=1e-12)
    sc3 = GrowthScale.log_power(3.0)
    assert sc3.psi_tilde(math.e ** 2) == pytest.approx(2.0 ** 4 / 4.0,
                                                       rel=1e-12)


def test_power_closed_form():
    sc = GrowthScale.power(0.5)
    assert sc.psi_tilde(4.0) == pytest.approx(2.0, rel=1e-12)


def test_tabulated_matches_quadrature():
    sc = GrowthScale.tabulated(lambda x: np.log(x))
    assert sc.psi_tilde(math.e ** 2) == pytest.approx(2.0, rel=1e-8)


def test_domain_validation():
    sc = GrowthScale.log_power(1.0)
    with pytest.raises(ValueError):
        sc.psi(0.5)
    with pytest.raises(ValueError):
        sc.psi_tilde(0.5)
    for scale in (sc, GrowthScale.tabulated(lambda x: np.log(x))):
        with pytest.raises(ValueError, match="must be >= 1"):
            scale.psi_tilde([2.0, math.nan])


W2 = weight_to_psi(WeightPair.log_power_weight(2.0))


@pytest.mark.parametrize("x", [1.0 + 1e-4, 1.5, 3.0, 10.0, 1e3, 1e6])
def test_weight_psi_tilde_matches_the_closed_form(x):
    # for gamma = 2, psi(e^u) = 2 + 2u + 2u/(e^u - 1), so with L = log x
    # psi_tilde(x) = 2L + L^2 + 2 int_0^L u/(e^u - 1) du
    with mpmath.workdps(30):
        L = mpmath.log(mpmath.mpf(x))
        exact = 2 * L + L ** 2 + 2 * mpmath.quad(
            lambda u: u / mpmath.expm1(u), [0, L])
    assert W2.psi_tilde(x) == pytest.approx(float(exact), rel=1e-12)


def test_psi_tilde_matches_adaptive_quadrature():
    # scipy is the reference here only; discosc itself never imports it
    from scipy.integrate import quad

    wt = WeightPair.log_power_weight(2.0)
    gaps = np.unique(generate_rho_lattice(wt.rho, 0.8, 0.9).gaps())
    cases = ((W2, 1.0 / gaps),
             (GrowthScale.tabulated(lambda x: np.log(x)),
              np.geomspace(1.0, 1e12, 25)))
    for sc, xs in cases:
        ref = [quad(lambda u: float(sc.psi(math.exp(u))), 0.0, math.log(x),
                    epsabs=1e-13, epsrel=1e-13, limit=200)[0] for x in xs]
        np.testing.assert_allclose(sc.psi_tilde(xs), ref, rtol=1e-12,
                                   atol=1e-13)


def test_psi_tilde_batch_equals_its_scalar_calls():
    xs = np.array([[1.0, 1.5, 1e6], [3.0, 1.0 + 1e-4, 40.0]])
    got = W2.psi_tilde(xs)
    assert got.shape == xs.shape
    assert np.array_equal(got, [[W2.psi_tilde(v) for v in row]
                                for row in xs])
    assert isinstance(W2.psi_tilde(2.0), float)


def test_psi_tilde_names_a_nonfinite_integrand():
    sc = GrowthScale.tabulated(lambda x: np.where(x > 2.0, np.nan, 1.0),
                               label="holey")
    assert sc.psi_tilde(1.5) == pytest.approx(math.log(1.5), rel=1e-12)
    with pytest.raises(ValueError,
                       match=r"'holey' at x = 3\.0: psi is not finite"):
        sc.psi_tilde([1.5, 3.0])


def test_psi_tilde_names_an_unsettled_quadrature():
    # a kink at t = e inside [1, x]: the rule converges only algebraically
    sc = GrowthScale.tabulated(lambda x: np.abs(np.log(x) - 1.0),
                               label="kinked")
    with pytest.raises(ValueError, match=r"'kinked' at x = 1000000\.0: "
                                         r"quadrature unsettled"):
        sc.psi_tilde([2.0, 1e6])


def test_polya_doubling_log_ladder():
    sc = GrowthScale.log_power(1.0)
    got = polya_doubling(sc, [math.e, math.e ** 2, math.e ** 4])
    # psi(2x)/psi(x) = 1 + log2/log x, largest at the left end x = e
    assert got == pytest.approx(1.0 + math.log(2.0), rel=1e-12)


def test_polya_doubling_rejects_vanishing_psi():
    with pytest.raises(ValueError):
        polya_doubling(GrowthScale.log_power(1.0), [1.0, 10.0])


def test_polya_order_pure_power():
    assert polya_order_estimate(GrowthScale.power(1.2)) == pytest.approx(
        1.2, rel=1e-10)


def test_polya_order_slowly_growing_shrinks():
    sc = GrowthScale.log_power(2.0)
    near = polya_order_estimate(sc, list(np.geomspace(1e2, 1e6, 8)))
    far = polya_order_estimate(sc, list(np.geomspace(1e8, 1e12, 8)))
    assert 0.0 < far < near < 1.0


def test_polya_order_x_log_x_band():
    sc = GrowthScale.tabulated(lambda x: x * np.log(x))
    est = polya_order_estimate(sc, list(np.geomspace(1e3, 1e12, 10)))
    assert 1.0 < est <= 1.2


def test_order_ladder_needs_three_decades():
    with pytest.raises(ValueError, match="three decades"):
        polya_order_estimate(GrowthScale.log_power(1.0), [10.0, 100.0])


def test_genus_selection():
    assert genus_from_scale(GrowthScale.log_power(1.0)) == 1
    assert genus_from_scale(GrowthScale.power(1.2)) == 2


def test_config_round_trip():
    sc = GrowthScale.log_power(2.0)
    back = GrowthScale.from_config(sc.config())
    x = np.geomspace(2.0, 1e6, 7)
    np.testing.assert_allclose(back.psi(x), sc.psi(x), rtol=1e-13)
    wsc = weight_to_psi(WeightPair.log_power_weight(2.0))
    wback = GrowthScale.from_config(wsc.config())
    np.testing.assert_allclose(wback.psi(x), wsc.psi(x), rtol=1e-10)


def test_log_power_weight_closed_forms():
    wt = WeightPair.log_power_weight(2.0)
    L = math.log(2.0)
    assert wt.h(0.5) == pytest.approx(L ** 2, rel=1e-13)
    assert wt.hp(0.5) == pytest.approx(4.0 * L, rel=1e-13)
    # radial laplacian h'' + h'/r
    assert wt.laplacian(0.5) == pytest.approx((2.0 + 2.0 * L) * 4.0 + 8.0 * L,
                                              rel=1e-13)
    assert wt.rho(0.5) == pytest.approx(1.0 / math.sqrt(wt.laplacian(0.5)),
                                        rel=1e-13)


def test_weight_gamma_validation():
    with pytest.raises(ValueError):
        WeightPair.log_power_weight(1.0)


def test_weight_validate_report():
    out = WeightPair.log_power_weight(2.0).validate()
    assert out["max_slow_variation"] > 0.0
    lo, hi = out["sigma_range"]
    assert 0.0 < lo < hi


def test_weight_ratio_monotonicity():
    wt = WeightPair.log_power_weight(2.0)
    r = np.linspace(0.1, 0.99, 60)
    # (1-r)/rho = sqrt(sigma) nondecreasing; h outruns the plain log
    assert np.all(np.diff((1.0 - r) / wt.rho(r)) > -1e-12)
    assert np.all(np.diff(wt.h(r) / np.log(1.0 / (1.0 - r))) > 0.0)


def test_weight_to_psi_bridge():
    wt = WeightPair.log_power_weight(2.0)
    sc = weight_to_psi(wt)
    # psi(t) = laplacian(1 - 1/t)/t^2
    assert sc.psi(2.0) == pytest.approx(wt.laplacian(0.5) / 4.0, rel=1e-12)
    x = np.geomspace(2.0, 1e5, 9)
    assert np.all(np.diff(sc.psi(x)) > 0.0)
    assert sc.weight is wt


def test_integrated_majorant_outruns_log():
    for sc in (GrowthScale.log_power(1.0),
               weight_to_psi(WeightPair.log_power_weight(2.0))):
        top = np.geomspace(1e4, 1e6, 5)
        ratio = np.asarray([sc.psi_tilde(t) for t in top]) / np.log(top)
        assert np.all(np.diff(ratio) > 0.0)

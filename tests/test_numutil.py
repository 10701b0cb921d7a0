"""Disc algebra, the principal log, the block rule of a split pass, the
contour refinement driver, scaled Fourier modes, the circle maximum and the
segment quadrature."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discosc import numutil
from discosc.numutil import (SegmentIntegralError, adaptive_segment_integral,
                             circle_fault, circle_max, circle_modes,
                             circle_nodes, clog, clog1p, golden_section_max,
                             one_minus_abs2, one_minus_conj_mul, sample_disc,
                             settle_circles, work_runs)

import references

EPS = np.finfo(float).eps


def test_one_minus_conj_mul_batch_equals_its_elements():
    rng = np.random.default_rng(11)
    z, w = sample_disc(rng, 1000, 0.999), sample_disc(rng, 1000, 0.999)
    got = one_minus_conj_mul(z, w)
    want = [one_minus_conj_mul(a, b) for a, b in zip(z, w)]
    assert got.tobytes() == np.array(want).tobytes()
    got = one_minus_abs2(z)
    assert got.tobytes() == np.array([one_minus_abs2(a) for a in z]).tobytes()


def _assert_clog_close(z):
    got, want = clog(z), np.log(z)
    np.testing.assert_array_less(
        np.abs(got.imag - want.imag), 2.0 * np.spacing(np.abs(want.imag)))
    np.testing.assert_array_less(
        np.abs(got.real - want.real),
        4.0 * EPS * np.maximum(1.0, np.abs(want.real)))


def test_clog_matches_np_log():
    rng = np.random.default_rng(7)
    moduli = np.logspace(-12.0, 3.0, 2000)
    _assert_clog_close(moduli * np.exp(1j * rng.uniform(-np.pi, np.pi,
                                                        moduli.size)))
    # near z = 1, where log|z| is small and np.log is relatively exact
    offsets = np.logspace(-14.0, -1.0, 2000)
    _assert_clog_close(1.0 + offsets * np.exp(1j * rng.uniform(
        -np.pi, np.pi, offsets.size)))


def test_clog_specials_equal_np_log():
    specials = np.array([0j, complex(-1.0, 0.0), complex(-1.0, -0.0),
                         complex(0.0, 0.0), complex(-0.0, 0.0),
                         complex(0.0, -0.0), complex(-0.0, -0.0), 1j, -1j])
    with np.errstate(divide="ignore"):
        got, want = clog(specials), np.log(specials)
    np.testing.assert_array_equal(got, want)
    # the branch cut and log 0 carry signed zeros and infinities
    np.testing.assert_array_equal(np.signbit(got.real), np.signbit(want.real))
    np.testing.assert_array_equal(np.signbit(got.imag), np.signbit(want.imag))
    assert clog(np.array([[2.0 + 0j]])).shape == (1, 1)


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None)
@given(re=finite, im=finite)
def test_clog_property(re, im):
    z = complex(re, im)
    assume(z != 0)
    _assert_clog_close(np.array([z]))


def _two_fields(rows, unit):
    # values on the circles rows, two fields along axis 1
    c = 2.0 + np.asarray(rows, dtype=float)[:, None]
    return np.stack([np.log(c + unit), (c * unit) ** 3], axis=1)


def test_clog1p_keeps_the_bits_of_the_strided_form():
    # contiguous copies of the parts run the same operations in the same
    # order as the strided views did
    rng = np.random.default_rng(13)
    scale = 10.0 ** rng.uniform(-20.0, 2.0, (3, 4096))
    x = scale * (rng.standard_normal((3, 4096))
                 + 1j * rng.standard_normal((3, 4096)))
    edges = np.array([complex(a, b) for a in (0.0, -0.0, -1.0, 1e-300,
                                              -1e-300, 1e300, -1e300)
                      for b in (0.0, -0.0, 1e-300, -1e300, 1e300)])
    for arr in (x, x[:, ::3], edges, edges[3:4]):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            got = clog1p(arr.copy())
            want = references.clog1p(arr.copy())
        assert got.tobytes() == want.tobytes()
    y = x.copy()
    assert clog1p(y) is y


@settings(derandomize=True, deadline=None, max_examples=300)
@given(work=st.lists(st.one_of(st.just(0), st.integers(0, 50),
                               st.integers(0, 10 ** 6)), max_size=60),
       budget=st.one_of(st.integers(1, 200), st.integers(1, 10 ** 7)),
       parts=st.integers(1, 5), chunk=st.integers(1, 9))
def test_work_runs_equals_its_row_loop(work, budget, parts, chunk):
    # the cumulative-work search against the loop over every row, with
    # passes under their budget (one run), empty runs and zero-work rows
    work = np.array(work, dtype=np.int64)
    with mock.patch.object(numutil, "_CHUNK", chunk):
        assert (work_runs(work, budget, parts)
                == references.work_runs(work, budget, parts))


def test_settle_circles_rounds_equal_fresh_grids():
    seen, sampled = [], []

    def sample(live, unit):
        sampled.append(unit.size)
        return _two_fields(live, unit)

    def settle(live, theta, unit, values):
        fresh_theta, fresh_unit = circle_nodes(theta.size)
        assert np.array_equal(theta, fresh_theta)
        assert np.array_equal(unit, fresh_unit)
        assert np.array_equal(values, _two_fields(live, fresh_unit))
        seen.append((theta.size, live.tolist()))
        return live == 0 if theta.size == 128 else np.zeros(live.size, bool)

    first = _two_fields(np.arange(3), circle_nodes(64)[1])
    left = settle_circles(first, sample, settle, 512)
    assert seen == [(64, [0, 1, 2]), (128, [0, 1, 2]), (256, [1, 2]),
                    (512, [1, 2])]
    # each point is evaluated once: 64 + 64 + 128 + 256, not 64 + ... + 512
    assert sampled == [64, 128, 256]
    assert left.tolist() == [1, 2]


def test_settle_circles_stops_at_max_points():
    sizes = []

    def settle(live, theta, unit, values):
        sizes.append(theta.size)
        return np.zeros(live.size, bool)

    first = _two_fields([0], circle_nodes(64)[1])
    assert settle_circles(first, _two_fields, settle, 128).tolist() == [0]
    assert sizes == [64, 128]
    # every circle settled: no refinement, nothing left
    assert settle_circles(first, None, lambda live, *_: live == 0,
                          1024).size == 0


def test_settle_circles_drops_the_circles_after_a_short_mask_or_sample():
    seen = []

    def settle(live, theta, unit, values):
        seen.append((theta.size, live.tolist()))
        if theta.size == 64:
            # circle 1 settles; circle 3 fails, which stops circle 4 too
            return live[:3] == 1
        return np.zeros(live.size, bool)

    def sample(live, unit):
        seen.append(("sample", live.tolist()))
        # circle 2, the second row, fails: one row comes back
        return _two_fields(live[:1], unit)

    first = _two_fields(np.arange(5), circle_nodes(64)[1])
    assert settle_circles(first, sample, settle, 128).tolist() == [0]
    assert seen == [(64, [0, 1, 2, 3, 4]), ("sample", [0, 2]), (128, [0])]


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
    # only -inf is an exact zero: nan and +inf are refused, not dropped
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        vals = np.log(3.0 * unit ** 2 + 0.5 * unit)
        vals[5] = bad
        with pytest.raises(RuntimeError, match="sample is nan or \\+inf"):
            circle_modes(theta, vals, (1,))


def test_circle_fault_names_the_first_refused_circle():
    _, unit = circle_nodes(64)
    logs = np.tile(np.log(2.0 + unit), (4, 1))
    assert circle_fault(logs) is None
    logs[3, 0] = np.nan
    logs[2] = -np.inf
    assert circle_fault(logs) == (2, "contour collapses at binary64 "
                                     "resolution: every sample is an exact "
                                     "zero")
    assert circle_fault(logs[[0, 3]]) == (1, "contour sample is nan or +inf")
    assert circle_fault(logs.reshape(2, 2, 64))[0] == 2   # C order


@pytest.mark.parametrize("phi", [0.3, -1e-3, np.pi - 1e-3])
def test_circle_max_refines_between_grid_points(phi):
    # Re(z e^{-i phi}) peaks at r off the 16-point grid; phi just below 0
    # puts the best sample at angle 0, so the search straddles the seam
    def fn(z):
        return np.real(z * np.exp(-1j * phi))

    _, unit = circle_nodes(16)
    assert np.max(fn(0.7 * unit)) < 0.7 * (1.0 - 1e-8)
    assert circle_max(fn, 0.7, 16) == pytest.approx(0.7, rel=1e-14)


def _scalar_golden_section_max(f, lo, hi):
    # the one-bracket search that golden_section_max runs per element
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(40):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-np.pi, 2.0 * np.pi),
                          st.floats(1e-9, 1.0),
                          st.sampled_from([0.0, 0.7, 3.0, np.pi])),
                min_size=1, max_size=6))
def test_golden_section_max_is_the_scalar_search_per_bracket(cases):
    # brackets around 0 or 2 pi straddle the seam of the circle; the
    # plateaus of the quantised cosine make ties (fc == fd), and NaN below
    # phase - 2 makes the comparison false, so both branches meet the
    # comparison's edge cases
    lo = np.array([c - w for c, w, _ in cases])
    hi = np.array([c + w for c, w, _ in cases])
    phase = np.array([p for _, _, p in cases])

    def f(t, phase=phase):
        v = np.round(8.0 * np.cos(t - phase)) / 8.0
        return np.where(t - phase < -2.0, np.nan, v)

    x, fx = golden_section_max(f, lo, hi)
    for i in range(lo.size):
        want = _scalar_golden_section_max(
            lambda t: f(t, phase[i]), lo[i], hi[i])
        assert x[i].tobytes() == np.float64(want[0]).tobytes()
        assert fx[i].tobytes() == np.float64(want[1]).tobytes()


def test_golden_section_max_takes_two_steps_per_call():
    # the two inner points, then three points per bracket for each pair of
    # the 40 steps, then the midpoints: 22 calls
    shapes = []

    def f(t):
        shapes.append(np.shape(t))
        return np.cos(t - 0.4)

    lo = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    golden_section_max(f, lo, lo + 1.5)
    assert shapes == [(2, 2, 3)] + [(3, 2, 3)] * 20 + [(2, 3)]


def test_circle_max_on_a_ladder_is_circle_max_per_radius():
    def fn(z):
        return np.real(z * np.exp(-0.3j)) + 0.1 * np.abs(z - 0.2) ** 2

    radii = np.array([0.1, 0.45, 0.7, 0.99])
    got = circle_max(fn, radii, 64)
    assert got.shape == radii.shape
    assert got.tolist() == [circle_max(fn, r, 64) for r in radii]
    assert isinstance(circle_max(fn, 0.7, 64), float)


def test_segment_integral_batch_equals_its_scalar_calls():
    def f(z):
        return np.exp(z) / (1.5 - z)

    a = np.array([[0j, 0.2 - 0.3j, 0.5j], [-0.4 + 0.1j, 0.7 + 0.0j, 0j]])
    b = np.array([[0.6 + 0.6j, 0.2 - 0.3j, -0.9j], [0.9 + 0.1j, 0.0j, 1e-9]])
    got = adaptive_segment_integral(f, a, b)
    assert got.shape == a.shape
    want = [[adaptive_segment_integral(f, complex(u), complex(v))
             for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert np.array_equal(got, want)
    assert got[0, 1] == 0.0
    # an empty segment is 0 without a call, even where f is not finite
    assert adaptive_segment_integral(lambda z: 1.0 / (z - 0.3j), 0.3j,
                                     0.3j) == 0.0
    assert isinstance(adaptive_segment_integral(f, 0j, 0.5 + 0.5j), complex)
    real = adaptive_segment_integral(np.exp, 0.0, 1.0)
    assert isinstance(real, float)
    assert real == pytest.approx(np.e - 1.0, rel=1e-15)
    assert adaptive_segment_integral(np.exp, 0j, 1j) == pytest.approx(
        np.exp(1j) - 1.0, rel=1e-15)


def test_segment_integral_names_a_nonfinite_integrand():
    with pytest.raises(SegmentIntegralError,
                       match=r"over \[0\.0, 3\.0\]: integrand is not "
                             r"finite") as err:
        adaptive_segment_integral(lambda x: np.where(x > 2.0, np.nan, 1.0),
                                  0.0, np.array([1.0, 3.0]))
    assert isinstance(err.value, ValueError)
    assert err.value.index == 1


def test_segment_integral_names_an_unsettled_segment():
    # a kink inside the segment: the rule converges only algebraically
    with pytest.raises(SegmentIntegralError,
                       match=r"over \[0j, \(3\+0j\)\]: quadrature "
                             r"unsettled"):
        adaptive_segment_integral(lambda z: np.abs(z.real - 1.0) + 0j,
                                  0j, np.array([0.5, 3.0 + 0j]))

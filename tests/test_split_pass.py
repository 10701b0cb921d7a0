"""The series pass and the residue contour split over blocks and worker
threads.

Each point's row of InterpolationSeries._pass, and each node's row of the
exclusion-circle samples (CanonicalProduct._centred_modes), is computed on
its own, so the block size and the number of workers
(CanonicalProduct._map_blocks) must not move a bit of any value, and a
split pass must keep the serial pass's numpy error state, warnings and
exceptions.
"""

import sys
import threading
import warnings

import numpy as np
import pytest

from discosc import (CanonicalProduct, GrowthScale, SharpnessParams,
                     generate_sharpness, genus_from_scale, node_targets,
                     products)
from discosc.oscillation import _residue_mismatch


def _bits(a):
    return np.ascontiguousarray(np.atleast_1d(a)).view(np.uint64)


def _same_bits(a, b):
    return np.array_equal(_bits(a), _bits(b))


def _disc_points(prod, seed, count):
    """count points uniform on |z| <= 0.95, then two points in each of the
    first ten exclusion discs (the pass's disc round)."""
    rng = np.random.default_rng(seed)
    pts = 0.95 * np.sqrt(rng.random(count)) * np.exp(
        2j * np.pi * rng.random(count))
    k = np.arange(min(10, prod.z.size))
    near = [prod.z[k] + f * prod.exclusion_radii[k] * np.exp(1j * t)
            for f, t in ((0.5, 0.3), (1e-3, 2.0))]
    return np.concatenate([pts, *near])


def _values(bundle, pts):
    series = bundle.gprime
    return (series._pass(pts), series._pass(pts, derivatives=True),
            bundle.eval_coefficient(np.concatenate([pts, bundle.product.z])))


def _assert_same(got, want):
    for g, w in zip(got[:2], want[:2]):
        for field, a, b in zip(g._fields, g, w):
            if b is None:
                assert a is None, field
            else:
                assert _same_bits(a, b), field
    assert _same_bits(got[2], want[2])


def _set_blocks(monkeypatch, chunk, pairs, workers):
    monkeypatch.setattr(products, "_CHUNK", chunk)
    monkeypatch.setattr(products, "_BLOCK_PAIRS", pairs)
    monkeypatch.setattr(products, "_worker_count", lambda: workers)


@pytest.mark.parametrize("name", ["geo50", "lattice368"])
def test_same_bits_at_any_block_size_and_worker_count(
        request, monkeypatch, name):
    if name == "geo50":
        bundle, count = request.getfixturevalue("geo50_bundle"), 2000
    else:
        bundle, count = request.getfixturevalue("weight_pipeline")[3], 500
    pts = _disc_points(bundle.product, 3, count)
    _set_blocks(monkeypatch, 512, 2 ** 15, 1)
    want = _values(bundle, pts)
    for chunk, pairs, workers in [(512, 2 ** 15, 2), (256, 2 ** 15, 1),
                                  (256, 2 ** 15, 2), (7, 2 ** 15, 2),
                                  (512, 2 ** 12, 1), (512, 2 ** 12, 2),
                                  (512, 2 ** 17, 2), (1, 1, 2)]:
        _set_blocks(monkeypatch, chunk, pairs, workers)
        _assert_same(_values(bundle, pts), want)


def _row(values, j, count):
    """The values of point j of a count-point _values batch (and the
    nodes'), as _values gives them for that point alone."""
    def pick(p):
        return type(p)(*(None if x is None else x[j:j + 1] for x in p))
    a = values[2]
    return pick(values[0]), pick(values[1]), np.append(a[j], a[count:])


def test_one_point_alone_has_the_bits_it_has_in_a_20k_batch(
        geo50_bundle, monkeypatch):
    # a 20k batch makes 256 KiB temporaries, for which numpy computes some
    # operators in place on a temporary operand; a single point never does
    pts = _disc_points(geo50_bundle.product, 5, 20000)
    for workers in (1, 2):
        monkeypatch.setattr(products, "_worker_count", lambda: workers)
        batch = _values(geo50_bundle, pts)
        for j in [*range(0, 20000, 331), 19999, 20000, 20011, 20019]:
            _assert_same(_values(geo50_bundle, pts[j:j + 1]),
                         _row(batch, j, pts.size))


def test_node_jets_have_the_same_bits_for_any_set_of_nodes(
        weight_pipeline):
    # at N = 368 the jets of all nodes fill 89 x 368 blocks (512 KiB), the
    # jets of one node a single row
    series = weight_pipeline[3].gprime
    k = np.arange(series.product.z.size)
    jets, scale = series._node_jets(k)
    for j in k[::7]:
        one, one_scale = series._node_jets(k[j:j + 1])
        assert _same_bits(one[:, 0], jets[:, j]), j
        assert _same_bits(one_scale, scale[j]), j


def test_a_split_pass_keeps_the_error_state_and_raises_no_warning(
        geo50_bundle, monkeypatch):
    # a point within 1e-200 of a node (the geo50 nodes lie on the real
    # axis) overflows the P'/P form; the pass ignores that under its
    # np.errstate, which every worker must enter itself.  One such point
    # sits in the calling thread's run, one in the worker's.
    prod = geo50_bundle.product
    pts = _disc_points(prod, 7, 4000)
    pts[10] = prod.z[3] + 1e-200j
    pts[-30] = prod.z[4] - 1e-200j
    monkeypatch.setattr(products, "_worker_count", lambda: 1)
    want = _values(geo50_bundle, pts[:-20])
    monkeypatch.setattr(products, "_worker_count", lambda: 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _values(geo50_bundle, pts[:-20])
    _assert_same(got, want)


def test_an_error_in_a_block_reaches_the_caller_as_the_serial_pass_raises(
        geo50_bundle, monkeypatch):
    prod = geo50_bundle.product
    pts = _disc_points(prod, 9, 4000)
    pieces = CanonicalProduct._pieces

    def poisoned(self, block):
        for j in (100, 3500):
            if np.any(block == pts[j]):
                raise ArithmeticError(f"poisoned point {j}")
        return pieces(self, block)

    monkeypatch.setattr(CanonicalProduct, "_pieces", poisoned)
    before = threading.active_count()
    for sub, j in ((pts, 100), (pts[200:], 3500)):
        for workers in (1, 2):
            monkeypatch.setattr(products, "_worker_count",
                                lambda: workers)
            for derivatives in (False, True):
                with pytest.raises(ArithmeticError,
                                   match=f"^poisoned point {j}$"):
                    geo50_bundle.gprime._pass(sub, derivatives)
    # every worker has ended by the time the error reaches the caller
    assert threading.active_count() == before


def test_a_split_pass_over_more_workers_than_cores_loses_no_row(
        geo50_bundle, monkeypatch):
    # the workers write disjoint rows of shared arrays; with eight of them
    # and a thread switch every microsecond, a lost or misplaced write
    # would show as a changed bit
    pts = _disc_points(geo50_bundle.product, 11, 3000)
    monkeypatch.setattr(products, "_worker_count", lambda: 1)
    want = _values(geo50_bundle, pts)
    monkeypatch.setattr(products, "_worker_count", lambda: 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _values(geo50_bundle, pts)
    finally:
        sys.setswitchinterval(old)
    _assert_same(got, want)


# -- the residue contour ------------------------------------------------------


def _contour(prod):
    """node_contour_modes and the residue mismatch it certifies."""
    modes = prod.node_contour_modes()
    return (*modes, _residue_mismatch(prod, node_targets(prod)))


@pytest.fixture(scope="module")
def sharp14_product():
    # 109 nodes: one serial node block at _SAMPLE_PAIRS = 2^14, split over
    # two workers from 2^12 down
    scale = GrowthScale.log_power(3.0)
    return CanonicalProduct(generate_sharpness(SharpnessParams(1.0, 1.0, 14)),
                            genus_from_scale(scale))


@pytest.mark.parametrize("name", ["lattice368", "sharp14"])
def test_residue_contour_keeps_its_bits_at_any_node_block_and_worker_count(
        request, monkeypatch, name):
    if name == "lattice368":
        prod = request.getfixturevalue("weight_pipeline")[3].product
    else:
        prod = request.getfixturevalue("sharp14_product")
    monkeypatch.setattr(products, "_worker_count", lambda: 1)
    want = _contour(prod)
    for pairs in (2 ** 10, 2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14):
        monkeypatch.setattr(products, "_SAMPLE_PAIRS", pairs)
        for workers in (1, 2):
            monkeypatch.setattr(products, "_worker_count", lambda: workers)
            got = _contour(prod)
            for field, a, b in zip(
                    ("scale", "m1", "m2", "points", "mismatch"), got, want):
                assert _same_bits(a, b), (pairs, workers, field)


def test_a_split_residue_contour_names_the_node_the_serial_one_names(
        weight_pipeline, monkeypatch):
    # at 12 far samples every lattice node but the origin fails the far
    # tail bound, at 13 only some of the inner ones do; in reverse order
    # the first failing node of the 13-sample pass lies in the worker's run
    prod = weight_pipeline[3].product
    n = prod.z.size
    threads = set()
    field_samples = CanonicalProduct._field_samples

    def recorded(self, *args):
        threads.add(threading.current_thread() is threading.main_thread())
        return field_samples(self, *args)

    monkeypatch.setattr(CanonicalProduct, "_field_samples", recorded)
    before = threading.active_count()
    for samples in (12, 13):
        monkeypatch.setattr(products, "NODE_FAR_SAMPLES", samples)
        for nodes in (np.arange(n), np.arange(n)[::-1]):
            errors = []
            for workers in (1, 2):
                monkeypatch.setattr(products, "_worker_count",
                                    lambda: workers)
                with pytest.raises(RuntimeError,
                                   match=f"^far field of node .* at "
                                         f"{samples} samples") as err:
                    prod.node_contour_modes(nodes)
                errors.append(str(err.value))
            assert errors[0] == errors[1], (samples, errors)
    k = int(errors[1].split()[4].rstrip(":"))
    assert np.flatnonzero(nodes == k)[0] >= n // 2
    assert threads == {True, False}
    # every worker has ended by the time the error reaches the caller
    assert threading.active_count() == before


def test_a_split_residue_contour_forms_its_grids_in_the_calling_thread(
        weight_pipeline, monkeypatch):
    # bench/tracer.py wraps products.circle_nodes, and its span stack
    # assumes one thread
    prod = weight_pipeline[3].product
    grids, threads = [], set()
    nodes = products.circle_nodes
    field_samples = CanonicalProduct._field_samples

    def recorded_nodes(m):
        grids.append(threading.current_thread() is threading.main_thread())
        return nodes(m)

    def recorded_samples(self, *args):
        threads.add(threading.current_thread() is threading.main_thread())
        return field_samples(self, *args)

    monkeypatch.setattr(products, "circle_nodes", recorded_nodes)
    monkeypatch.setattr(CanonicalProduct, "_field_samples", recorded_samples)
    monkeypatch.setattr(products, "_worker_count", lambda: 2)
    prod.node_contour_modes()
    assert threads == {True, False}
    assert grids and all(grids)


def test_a_residue_contour_over_more_workers_than_cores_loses_no_row(
        weight_pipeline, monkeypatch):
    # eight workers over blocks of five nodes write disjoint rows of the
    # shared modes; with a thread switch every microsecond, a lost or
    # misplaced write would show as a changed bit
    prod = weight_pipeline[3].product
    monkeypatch.setattr(products, "_worker_count", lambda: 1)
    want = _contour(prod)
    monkeypatch.setattr(products, "_worker_count", lambda: 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _contour(prod)
    finally:
        sys.setswitchinterval(old)
    for a, b in zip(got, want):
        assert _same_bits(a, b)

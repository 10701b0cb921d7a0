"""The series pass, the node pass and the residue contour split over blocks
and worker threads.

Each point's row of InterpolationSeries._pass, each node's row of the node
pass (CanonicalProduct._node_pass) and each node's row of the
exclusion-circle samples (CanonicalProduct._centred_modes), is computed on
its own, so the block size (numutil.slices) and the number of workers
(numutil.map_blocks) must not move a bit of any value, and a split pass
must keep the serial pass's numpy error state, warnings and exceptions.
The tests that set a block size also check that the passes ran in blocks
of that size, so that a setting no pass reads cannot pass for one.
"""

import sys
import threading
import warnings

import numpy as np
import pytest

from discosc import (CanonicalProduct, GrowthScale, InterpolationSeries,
                     SharpnessParams, build_coefficient, generate_sharpness,
                     genus_from_scale, node_targets, numutil, products,
                     targets_from_product)
from discosc.interpolation import _unscale
from discosc.oscillation import _residue_mismatch

import references


def _bits(a):
    return np.ascontiguousarray(np.atleast_1d(a)).view(np.uint64)


def _same_bits(a, b):
    return np.array_equal(_bits(a), _bits(b))


def _disc_points(prod, seed, count):
    """count points uniform on |z| <= 0.95, then two points in each of the
    first ten exclusion discs (the pass's pole-free form)."""
    rng = np.random.default_rng(seed)
    pts = 0.95 * np.sqrt(rng.random(count)) * np.exp(
        2j * np.pi * rng.random(count))
    k = np.arange(min(10, prod.z.size))
    near = [prod.z[k] + f * prod.exclusion_radii[k] * np.exp(1j * t)
            for f, t in ((0.5, 0.3), (1e-3, 2.0))]
    return np.concatenate([pts, *near])


def _coefficient_values(bundle, pts, nodes=None):
    """The series derivative pass at pts, and a(z) at pts and the nodes
    (all of them by default)."""
    nodes = bundle.product.z if nodes is None else nodes
    return (bundle.gprime._pass(pts, derivatives=True),
            bundle.eval_coefficient(np.concatenate([pts, nodes])))


def _values(bundle, pts, nodes=None):
    """Both series passes at pts, and a(z) at pts and the nodes."""
    return (bundle.gprime._pass(pts), *_coefficient_values(bundle, pts, nodes))


def _assert_same(got, want):
    for g, w in zip(got[:2], want[:2]):
        for field, a, b in zip(g._fields, g, w):
            if b is None:
                assert a is None, field
            else:
                assert _same_bits(a, b), field
    assert _same_bits(got[2], want[2])


def _set_blocks(monkeypatch, chunk, pairs, workers, split_bytes=2 ** 21):
    monkeypatch.setattr(numutil, "_CHUNK", chunk)
    monkeypatch.setattr(numutil, "_BLOCK_PAIRS", pairs)
    monkeypatch.setattr(numutil, "_SPLIT_BYTES", split_bytes)
    monkeypatch.setattr(numutil, "_worker_count", lambda: workers)


def _block_rows(monkeypatch, name="_pieces"):
    """A list that receives, from now on, the rows of every block the
    passes hand to CanonicalProduct.<name> (its first argument): _pieces
    takes each block of the series pass, the node pass and the node jets,
    _field_samples each node block of the residue contour."""
    rows = []
    method = getattr(CanonicalProduct, name)

    def recorded(self, block, *args, **kwargs):
        rows.append(len(block))
        return method(self, block, *args, **kwargs)

    monkeypatch.setattr(CanonicalProduct, name, recorded)
    return rows


@pytest.fixture(scope="module")
def sharp14_genus3():
    # sharpness(1, 1, 14) under log-power:3 takes genus 1; at genus 3 the
    # factor logs add _poly_part's two powers
    return build_coefficient(generate_sharpness(SharpnessParams(1.0, 1.0, 14)),
                             GrowthScale.log_power(3.0), genus=3)


@pytest.fixture(scope="module")
def geo50_genus0(geo50_bundle):
    zeros = geo50_bundle.product.zeros
    return build_coefficient(zeros, geo50_bundle.scale, genus=0,
                             exponents=np.full(len(zeros), 3))


def _bundle(request, name):
    """(bundle, nodes at which a(z) is taken) of a series-pass bit test."""
    if name == "lattice368":
        # one node at the origin
        return request.getfixturevalue("weight_pipeline")[3], None
    if name == "sharp14-genus3":
        # a(z_k) at the other 81 nodes is beyond binary64
        bundle = request.getfixturevalue("sharp14_genus3")
        return bundle, bundle.product.z[:28]
    fixture = {"geo50": "geo50_bundle", "geo50-genus0": "geo50_genus0"}
    return request.getfixturevalue(fixture[name]), None


_BUNDLES = ["geo50", "lattice368", "sharp14-genus3", "geo50-genus0"]


@pytest.mark.parametrize("name", _BUNDLES)
def test_same_bits_at_any_block_size_and_worker_count(
        request, monkeypatch, name):
    bundle, nodes = _bundle(request, name)
    series, n = bundle.gprime, bundle.product.z.size
    pts = _disc_points(bundle.product, 3, 2000 if n < 100 else 500)
    _set_blocks(monkeypatch, 512, 2 ** 15, 1)
    want = _values(bundle, pts, nodes)
    rows = _block_rows(monkeypatch)
    pair_bytes = series._pair_bytes(True)
    for chunk, pairs, workers in [(512, 2 ** 15, 2), (256, 2 ** 15, 1),
                                  (256, 2 ** 15, 2), (7, 2 ** 15, 2),
                                  (512, 2 ** 12, 1), (512, 2 ** 12, 2),
                                  (512, 2 ** 17, 2), (1, 1, 2)]:
        _set_blocks(monkeypatch, chunk, pairs, workers)
        rows.clear()
        _assert_same(_values(bundle, pts, nodes), want)
        step = max(1, min(chunk, pairs // n))
        if workers > 1:  # the derivative pass's blocks sized by bytes
            step = max(step, min(chunk, 2 ** 21 // (pair_bytes * n)))
        assert 0 < max(rows) <= step, (chunk, pairs, workers)
    # the derivative pass's worker blocks sized by its buffers' bytes:
    # blocks of size points on two workers (two of 1024 points per worker
    # from 3,073 points on), serial blocks of as many on one; a(z) off the
    # nodes, the values that pass gives
    off = bundle.product.z[:0]
    big = _disc_points(bundle.product, 5, 3100)
    _set_blocks(monkeypatch, 512, 2 ** 15, 1)
    small = (pts, _coefficient_values(bundle, pts, off))
    large = (big, _coefficient_values(bundle, big, off))
    for size in (1, 7, 384, 512, 1024):
        at, want = large if size > 7 else small
        for workers in (1, 2):
            _set_blocks(monkeypatch, size, 2 ** 20, workers,
                        size * n * pair_bytes)
            rows.clear()
            got = _coefficient_values(bundle, at, off)
            assert 0 < max(rows) <= size, (size, workers)
            for field, a, b in zip(got[0]._fields, got[0], want[0]):
                assert _same_bits(a, b), (size, workers, field)
            assert _same_bits(got[1], want[1]), (size, workers)


@pytest.mark.parametrize("name", _BUNDLES)
def test_the_series_pass_equals_its_plain_form(request, monkeypatch, name):
    # every per-pair array of the pass is formed in its run's buffers;
    # references.series_pass forms each as one plain expression
    bundle, _ = _bundle(request, name)
    prod = bundle.product
    pts = _disc_points(prod, 13, 2000 if prod.z.size < 100 else 500)
    # a point 1e-200 from a node overflows the P'/P form that its disc's
    # pole-free form replaces
    pts = np.append(pts, [prod.z[2] + 1e-200j, prod.z[5] - 1e-200])
    for workers in (1, 2):
        monkeypatch.setattr(numutil, "_worker_count", lambda: workers)
        for derivatives in (False, True):
            got = bundle.gprime._pass(pts, derivatives)
            want = references.series_pass(bundle.gprime, pts, derivatives)
            for field, a, b in zip(got._fields, got, want):
                if b is None:
                    assert a is None, field
                else:
                    assert _same_bits(a, b), (workers, derivatives, field)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_derivative_pass_forms_each_point_once(geo50_bundle, monkeypatch,
                                                 workers):
    # points in exclusion discs take their pole-free form in the block
    # that holds them, not in a second round over those points
    pts = _disc_points(geo50_bundle.product, 7, 3000)
    monkeypatch.setattr(numutil, "_worker_count", lambda: workers)
    rows = _block_rows(monkeypatch)
    p = geo50_bundle.gprime._pass(pts, derivatives=True)
    assert np.count_nonzero(p.node >= 0) >= 20
    assert sum(rows) == pts.size


def test_two_calls_at_once_on_one_bundle_get_the_serial_bits(
        geo50_bundle, monkeypatch):
    # each run of a pass allocates its own buffers: two threads calling
    # eval_coefficient on one bundle, each call split over two workers,
    # with a thread switch every microsecond, must not see each other's
    prod = geo50_bundle.product
    batches = [_disc_points(prod, seed, 3000) for seed in (17, 19)]
    monkeypatch.setattr(numutil, "_worker_count", lambda: 1)
    want = [geo50_bundle.eval_coefficient(b) for b in batches]
    monkeypatch.setattr(numutil, "_worker_count", lambda: 2)
    got = [None, None]

    def call(i):
        got[i] = [geo50_bundle.eval_coefficient(batches[i])
                  for _ in range(3)]

    threads = [threading.Thread(target=call, args=(i,)) for i in (0, 1)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(old)
    for i in (0, 1):
        for a in got[i]:
            assert _same_bits(a, want[i]), i


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
        monkeypatch.setattr(numutil, "_worker_count", lambda: workers)
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
    monkeypatch.setattr(numutil, "_worker_count", lambda: 1)
    want = _values(geo50_bundle, pts[:-20])
    monkeypatch.setattr(numutil, "_worker_count", lambda: 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _values(geo50_bundle, pts[:-20])
    _assert_same(got, want)


def test_an_error_in_a_block_reaches_the_caller_as_the_serial_pass_raises(
        geo50_bundle, monkeypatch):
    prod = geo50_bundle.product
    pts = _disc_points(prod, 9, 4000)
    pieces = CanonicalProduct._pieces

    def poisoned(self, block, out=None):
        for j in (100, 3500):
            if np.any(block == pts[j]):
                raise ArithmeticError(f"poisoned point {j}")
        return pieces(self, block, out)

    monkeypatch.setattr(CanonicalProduct, "_pieces", poisoned)
    before = threading.active_count()
    for sub, j in ((pts, 100), (pts[200:], 3500)):
        for workers in (1, 2):
            monkeypatch.setattr(numutil, "_worker_count",
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
    monkeypatch.setattr(numutil, "_worker_count", lambda: 1)
    want = _values(geo50_bundle, pts)
    monkeypatch.setattr(numutil, "_worker_count", lambda: 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _values(geo50_bundle, pts)
    finally:
        sys.setswitchinterval(old)
    _assert_same(got, want)


# -- the node pass ------------------------------------------------------------


@pytest.fixture(scope="module")
def sharp14_series():
    # 109 nodes, genus 1: one serial node block at _BLOCK_PAIRS = 2^15,
    # split over two workers from 2^12 down
    scale = GrowthScale.log_power(3.0)
    prod = CanonicalProduct(generate_sharpness(SharpnessParams(1.0, 1.0, 14)),
                            genus_from_scale(scale))
    return InterpolationSeries.build(prod, targets_from_product(prod, scale))


def _series(request, name):
    if name == "lattice368":
        # one node at the origin
        return request.getfixturevalue("weight_pipeline")[3].gprime
    if name == "geo50":
        return request.getfixturevalue("geo50_bundle").gprime
    return request.getfixturevalue("sharp14_series")


def _node_values(series):
    """The four per-node passes of a build from a fresh product on the
    series' nodes (so its node pass runs anew), and balance_checks:
    targets, deleted logs, the series at the nodes (value and the two
    parts of _node_terms) and (lhs, rhs)."""
    prod = CanonicalProduct(series.product.zeros, series.product.genus)
    fresh = InterpolationSeries(prod, series.targets, series.exponents)
    k = np.arange(prod.z.size)
    return (node_targets(prod), prod.node_deleted_logs(),
            fresh.evaluate(prod.z), *fresh._node_terms(k),
            *prod.balance_checks())


@pytest.mark.parametrize("name", ["lattice368", "geo50", "sharp14"])
def test_node_pass_equals_the_four_passes_at_any_block_size_and_worker_count(
        request, monkeypatch, name):
    series = _series(request, name)
    prod = series.product
    k = np.arange(prod.z.size)
    terms = references.node_terms_pass(series, k)
    want = (references.node_targets_pass(prod),
            references.node_deleted_logs_pass(prod),
            _unscale(0.0, *terms, "value"), *terms,
            *references.balance_checks_pass(prod))
    fields = ("targets", "deleted", "h", "re t", "phase", "lhs", "rhs")
    rows = _block_rows(monkeypatch)
    for pairs in (2 ** 10, 2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14, 2 ** 15):
        monkeypatch.setattr(numutil, "_BLOCK_PAIRS", pairs)
        for workers in (1, 2):
            monkeypatch.setattr(numutil, "_worker_count", lambda: workers)
            rows.clear()
            got = _node_values(series)
            assert 0 < max(rows) <= min(512, pairs // prod.z.size), pairs
            for field, a, b in zip(fields, got, want):
                assert _same_bits(a, b), (pairs, workers, field)


@pytest.mark.parametrize("name", ["lattice368", "geo50", "sharp14"])
def test_node_log_derivatives_equal_the_one_node_form(request, name):
    series = _series(request, name)
    prod = series.product
    want = [references.log_derivative_at_zero(prod, k)
            for k in range(prod.z.size)]
    assert _same_bits(series._log_dp, np.array(want))
    assert _same_bits(prod.log_derivative_at_zero(3), want[3])


def test_the_node_pass_runs_once_and_hands_out_no_writable_cache(
        weight_pipeline, monkeypatch):
    bundle = weight_pipeline[3]
    prod = CanonicalProduct(bundle.product.zeros, bundle.product.genus)
    runs = []
    node_rows = CanonicalProduct._node_rows

    def recorded(self, slices, out):
        slices = list(slices)
        runs.extend(slices)
        return node_rows(self, slices, out)

    monkeypatch.setattr(CanonicalProduct, "_node_rows", recorded)
    monkeypatch.setattr(numutil, "_worker_count", lambda: 1)
    targets = node_targets(prod)
    series = InterpolationSeries(prod, bundle.targets,
                                 bundle.gprime.exponents)
    series.evaluate(prod.z)
    prod.balance_constant()
    prod.balance_checks()
    prod.node_contour_modes(np.arange(3))
    assert runs == list(numutil.slices(prod.z.size, prod.z.size))
    targets[0] = 0.0
    assert node_targets(prod)[0] != 0.0
    for arr in prod._node_pass():
        assert not arr.flags.writeable
    lhs, rhs = prod.balance_checks()
    assert lhs.flags.writeable and rhs.flags.writeable


def test_a_node_pass_over_more_workers_than_cores_loses_no_row(
        weight_pipeline, monkeypatch):
    # eight workers over blocks of two nodes write disjoint rows of the
    # shared arrays; with a thread switch every microsecond, a lost or
    # misplaced write would show as a changed bit
    series = weight_pipeline[3].gprime
    monkeypatch.setattr(numutil, "_BLOCK_PAIRS", 2 ** 13)
    monkeypatch.setattr(numutil, "_worker_count", lambda: 1)
    want = _node_values(series)
    monkeypatch.setattr(numutil, "_worker_count", lambda: 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _node_values(series)
    finally:
        sys.setswitchinterval(old)
    for a, b in zip(got, want):
        assert _same_bits(a, b)


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
    monkeypatch.setattr(numutil, "_worker_count", lambda: 1)
    want = _contour(prod)
    rows = _block_rows(monkeypatch, "_field_samples")
    for pairs in (2 ** 10, 2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14):
        monkeypatch.setattr(products, "_SAMPLE_PAIRS", pairs)
        for workers in (1, 2):
            monkeypatch.setattr(numutil, "_worker_count", lambda: workers)
            rows.clear()
            got = _contour(prod)
            assert 0 < max(rows) <= min(512, pairs // prod.z.size), pairs
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
                monkeypatch.setattr(numutil, "_worker_count",
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
    monkeypatch.setattr(numutil, "_worker_count", lambda: 2)
    prod.node_contour_modes()
    assert threads == {True, False}
    assert grids and all(grids)


def test_a_proxy_stage_over_more_workers_than_cores_loses_no_row(
        weight_pipeline, monkeypatch):
    # eight workers over blocks of one cluster write disjoint rows of the
    # proxies' modes and covered factors; with a thread switch every
    # microsecond, a lost or misplaced write would show as a changed bit
    prod = weight_pipeline[3].product
    nodes = np.arange(prod.z.size)
    monkeypatch.setattr(numutil, "_worker_count", lambda: 1)
    want = prod._proxies(nodes)
    rows = _block_rows(monkeypatch, "_field_samples")
    monkeypatch.setattr(products, "_SAMPLE_PAIRS", 2 ** 11)
    monkeypatch.setattr(numutil, "_worker_count", lambda: 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = prod._proxies(nodes)
    finally:
        sys.setswitchinterval(old)
    assert max(rows) == 1 and len(rows) > 16
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def test_a_residue_contour_over_more_workers_than_cores_loses_no_row(
        weight_pipeline, monkeypatch):
    # eight workers over blocks of five nodes write disjoint rows of the
    # shared modes; with a thread switch every microsecond, a lost or
    # misplaced write would show as a changed bit
    prod = weight_pipeline[3].product
    monkeypatch.setattr(numutil, "_worker_count", lambda: 1)
    want = _contour(prod)
    monkeypatch.setattr(numutil, "_worker_count", lambda: 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _contour(prod)
    finally:
        sys.setswitchinterval(old)
    for a, b in zip(got, want):
        assert _same_bits(a, b)

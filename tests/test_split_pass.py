"""The series pass, the node pass and the residue contour split over blocks
and worker threads.

Each point's row of InterpolationSeries._pass, each node's row of the node
pass (CanonicalProduct._node_pass) and each node's row of the
exclusion-circle samples (contour._centred_modes), is computed on
its own, so the block size and the number of workers (numutil.map_work)
must not move a bit of any value, and a split pass must keep the serial
pass's numpy error state, warnings and exceptions.  The tests that set a
block size also check that the passes ran in blocks of that size, by one
block rule for all four split passes (_assert_block_rule), so that a
setting no pass reads cannot pass for one.
"""

import sys
import threading
import warnings

import numpy as np
import pytest

from discosc import (CanonicalProduct, GrowthScale, InterpolationSeries,
                     SharpnessParams, build_coefficient, contour,
                     generate_sharpness, genus_from_scale, node_targets,
                     numutil, targets_from_product)
from discosc.interpolation import _unscale
from discosc.oscillation import _residue_mismatch

import references


def _bits(a):
    return np.ascontiguousarray(np.atleast_1d(a)).view(np.uint8)


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


def _set_blocks(monkeypatch, chunk, pairs, split_bytes, workers):
    monkeypatch.setattr(numutil, "_CHUNK", chunk)
    monkeypatch.setattr(numutil, "_BLOCK_PAIRS", pairs)
    monkeypatch.setattr(numutil, "_SPLIT_BYTES", split_bytes)
    monkeypatch.setattr(numutil, "_worker_count", lambda: workers)


def _record_runs(monkeypatch):
    """A list that receives, from now on, (work, budget, runs) of every
    numutil.work_runs call: the runs and blocks of every pass that
    numutil.map_work splits (the series passes, the node pass, and the
    residue contour's cluster and node stages)."""
    calls = []
    work_runs = numutil.work_runs

    def recorded(work, budget, parts=1):
        runs = work_runs(work, budget, parts)
        calls.append((np.asarray(work), budget, runs))
        return runs

    monkeypatch.setattr(numutil, "work_runs", recorded)
    return calls


def _assert_block_rule(work, budget, runs, workers):
    """runs tile the rows in order; a pass of budget units or more takes p
    = workers runs (fewer only when it has fewer rows), a smaller one p =
    1; every block holds at most numutil._CHUNK rows and, past its first
    row, at most budget // p units, and every block but a run's last holds
    _CHUNK rows or would pass budget // p units with the row after it."""
    blocks = [b for run in runs for b in run]
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == work.size
    p = workers if np.sum(work) >= budget else 1
    assert len(runs) == min(p, work.size)
    limit, chunk = budget // p, numutil._CHUNK
    for run in runs:
        assert all(np.sum(work[b.start:b.stop + 1]) > limit
                   or b.stop - b.start == chunk for b in run[:-1])
        assert all(b.stop - b.start <= chunk for b in run)
        assert all(np.sum(work[b]) <= limit for b in run
                   if b.stop - b.start > 1)


def _assert_series_blocks(calls, series, workers):
    """The series passes of calls follow the block rule: the pass without
    derivatives costs each point its N pairs against numutil._BLOCK_PAIRS,
    the derivative pass its bytes of buffers (_pair_bytes x N) against
    numutil._SPLIT_BYTES."""
    n = series.product.z.size
    costs = {(numutil._BLOCK_PAIRS, n),
             (numutil._SPLIT_BYTES, series._pair_bytes() * n)}
    assert calls
    for work, budget, runs in calls:
        assert work.size and (budget, work[0]) in costs
        assert np.all(work == work[0])
        _assert_block_rule(work, budget, runs, workers)


def _block_rows(monkeypatch, name="_pieces", owner=CanonicalProduct):
    """A list that receives, from now on, the rows of every block the
    passes hand to owner.<name> (its argument after the first): the method
    CanonicalProduct._pieces takes each block of the series pass, the node
    pass and the node jets, the function contour._field_samples each block
    of the residue contour."""
    rows = []
    method = getattr(owner, name)

    def recorded(first, block, *args, **kwargs):
        rows.append(len(block))
        return method(first, block, *args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
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
    _set_blocks(monkeypatch, 512, 2 ** 15, 2 ** 22, 1)
    want = _values(bundle, pts, nodes)
    rows = _block_rows(monkeypatch)
    calls = _record_runs(monkeypatch)
    for chunk, pairs, split_bytes, workers in [
            (512, 2 ** 15, 2 ** 22, 2), (256, 2 ** 15, 2 ** 22, 1),
            (256, 2 ** 15, 2 ** 22, 2), (7, 2 ** 15, 2 ** 22, 2),
            (512, 2 ** 12, 2 ** 18, 1), (512, 2 ** 12, 2 ** 18, 2),
            (512, 2 ** 17, 2 ** 24, 2), (1, 1, 1, 2)]:
        _set_blocks(monkeypatch, chunk, pairs, split_bytes, workers)
        rows.clear()
        calls.clear()
        _assert_same(_values(bundle, pts, nodes), want)
        _assert_series_blocks(calls, series, workers)
        # the pass without derivatives counted in pairs, the derivative
        # pass in bytes
        assert {(budget, work[0]) for work, budget, _ in calls} == {
            (pairs, n), (split_bytes, series._pair_bytes() * n)}
        # the series passes' blocks, and the node jets' serial ones
        step = max(1, min(chunk, pairs // n))
        split = max(b.stop - b.start for _, _, runs in calls
                    for run in runs for b in run)
        assert 0 < max(rows) <= max(step, split), (chunk, pairs, workers)
    # blocks of size points, split or not: serial blocks of at most size
    # points on one worker, and on two, a pass of two blocks' buffers or
    # more split into blocks of size points (from 2 size points on); a(z)
    # off the nodes, the values the derivative pass gives
    pair_bytes = series._pair_bytes()
    off = bundle.product.z[:0]
    big = _disc_points(bundle.product, 5, 3100)
    _set_blocks(monkeypatch, 512, 2 ** 15, 2 ** 22, 1)
    small = (pts, _coefficient_values(bundle, pts, off))
    large = (big, _coefficient_values(bundle, big, off))
    for size in (1, 7, 384, 512, 1024):
        at, want = large if size > 7 else small
        for workers in (1, 2):
            _set_blocks(monkeypatch, size, 2 ** 20,
                        2 * size * n * pair_bytes, workers)
            rows.clear()
            calls.clear()
            got = _coefficient_values(bundle, at, off)
            _assert_series_blocks(calls, series, workers)
            assert max(rows) == size, (size, workers)
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
    # split over two workers from 2^13 down
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
    series' nodes (so its node pass runs anew), balance_checks and the
    exclusion rule: targets, deleted logs, the series at the nodes (value
    and the two parts of _node_terms), (lhs, rhs), the exclusion radii and
    the near lists (counts and columns)."""
    prod = CanonicalProduct(series.product.zeros, series.product.genus)
    fresh = InterpolationSeries(prod, series.targets, series.exponents)
    k = np.arange(prod.z.size)
    return (node_targets(prod), prod.node_deleted_logs(),
            fresh.evaluate(prod.z), *fresh._node_terms(k),
            *prod.balance_checks(), prod.exclusion_radii,
            prod._node_pass().near, prod._node_pass().near_cols)


@pytest.mark.parametrize("name", ["lattice368", "geo50", "sharp14"])
def test_node_pass_equals_the_four_passes_at_any_block_size_and_worker_count(
        request, monkeypatch, name):
    series = _series(request, name)
    prod = series.product
    k = np.arange(prod.z.size)
    terms = references.node_terms_pass(series, k)
    radii, near = references.exclusion_rule(prod)
    want = (references.node_targets_pass(prod),
            references.node_deleted_logs_pass(prod),
            _unscale(0.0, *terms, "value"), *terms,
            *references.balance_checks_pass(prod), radii,
            np.count_nonzero(near, axis=1),
            np.nonzero(near)[1].astype(np.int32))
    fields = ("targets", "deleted", "h", "re t", "phase", "lhs", "rhs",
              "radii", "near", "near_cols")
    rows = _block_rows(monkeypatch)
    calls = _record_runs(monkeypatch)
    n = prod.z.size
    for pairs in (2 ** 10, 2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14, 2 ** 15):
        monkeypatch.setattr(numutil, "_BLOCK_PAIRS", pairs)
        for workers in (1, 2):
            monkeypatch.setattr(numutil, "_worker_count", lambda: workers)
            rows.clear()
            calls.clear()
            got = _node_values(series)
            # one pass, each node counted at its N pairs
            ((work, budget, runs),) = calls
            assert budget == pairs and set(work.tolist()) == {n}
            _assert_block_rule(work, budget, runs, workers)
            assert sorted(rows) == sorted(b.stop - b.start for run in runs
                                          for b in run), pairs
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

    def recorded(self, slices, *args):
        slices = list(slices)
        runs.extend(slices)
        return node_rows(self, slices, *args)

    monkeypatch.setattr(CanonicalProduct, "_node_rows", recorded)
    monkeypatch.setattr(numutil, "_worker_count", lambda: 1)
    targets = node_targets(prod)
    series = InterpolationSeries(prod, bundle.targets,
                                 bundle.gprime.exponents)
    series.evaluate(prod.z)
    prod.balance_constant()
    prod.balance_checks()
    prod.node_contour_modes(np.arange(3))
    n = prod.z.size
    assert [runs] == numutil.work_runs(np.full(n, n), numutil._BLOCK_PAIRS)
    targets[0] = 0.0
    assert node_targets(prod)[0] != 0.0
    for arr in prod._node_pass():
        assert not arr.flags.writeable
    lhs, rhs = prod.balance_checks()
    assert lhs.flags.writeable and rhs.flags.writeable


def test_a_node_pass_over_more_workers_than_cores_loses_no_row(
        weight_pipeline, monkeypatch):
    # eight workers over blocks of three nodes write disjoint rows of the
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
    # 109 nodes, 42,784 direct samples: one serial node block at
    # _BLOCK_SAMPLES = 2^19, split over two workers from 2^15 down
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
    calls = _record_runs(monkeypatch)
    # (factor x sample pairs per step, samples per block)
    for pairs, samples in ((2 ** 10, 2 ** 12), (2 ** 12, 2 ** 14),
                           (2 ** 14, 2 ** 16), (2 ** 14, 2 ** 18),
                           (2 ** 14, 2 ** 20)):
        monkeypatch.setattr(contour, "_SAMPLE_PAIRS", pairs)
        monkeypatch.setattr(contour, "_BLOCK_SAMPLES", samples)
        for workers in (1, 2):
            monkeypatch.setattr(numutil, "_worker_count", lambda: workers)
            calls.clear()
            got = _contour(prod)
            # the cluster stage and the nodes, for both contours
            assert len(calls) == 4
            for work, budget, runs in calls:
                assert budget == samples
                _assert_block_rule(work, budget, runs, workers)
            for field, a, b in zip(
                    ("scale", "m1", "m2", "points", "mismatch"), got, want):
                assert _same_bits(a, b), (pairs, samples, workers, field)


def test_a_node_block_counts_the_samples_it_takes(weight_pipeline,
                                                  monkeypatch):
    # the node stage counts each node at NODE_FAR_SAMPLES per far factor
    # its proxy does not carry and CONTOUR_START_POINTS per near one, and
    # that is exactly what _field_samples takes for it; a cluster's count
    # bounds its proxy circle's samples
    prod = weight_pipeline[3].product
    rho = prod._contour().clusters.rho
    # one thread, so that the far and near calls of a block come in turn
    monkeypatch.setattr(numutil, "_worker_count", lambda: 1)
    calls = _record_runs(monkeypatch)
    taken = {"proxy": [], "node": []}
    field_samples = contour._field_samples

    def counted(geo, r, zk, mask, unit):
        kind = "proxy" if np.all(np.isin(r, rho)) else "node"
        taken[kind].append(np.count_nonzero(mask, axis=1) * unit.size)
        return field_samples(geo, r, zk, mask, unit)

    monkeypatch.setattr(contour, "_field_samples", counted)
    prod.node_contour_modes()
    (cluster_work, _, _), (node_work, _, runs) = calls
    # far and near calls alternate, block by block in row order
    node = taken["node"]
    assert len(node) == 2 * sum(len(run) for run in runs)
    samples = np.concatenate([f + n for f, n in zip(node[::2], node[1::2])])
    np.testing.assert_array_equal(samples, node_work)
    assert np.sum(np.concatenate(taken["proxy"])) <= np.sum(cluster_work)


@pytest.mark.parametrize("n", [50, 2686, 11324])
def test_residue_contour_blocks_hold_many_nodes_at_any_size(monkeypatch, n):
    # the block rule alone, on two workers: blocks of at most
    # _BLOCK_SAMPLES // 2 samples at most NODE_FAR_SAMPLES (N - 1) samples
    # a node at N = 2686 and 11324 (every other factor far and sampled
    # directly), where the rule of 2^14 // N // 2 nodes gave blocks of 3
    # and 1 node: every block but a run's last holds more than half of
    # that, at any N; at most CONTOUR_START_POINTS (N - 1) (every factor
    # near) at N = 50, which stays one serial block
    monkeypatch.setattr(numutil, "_worker_count", lambda: 2)
    near = n == 50
    per_node = (contour.CONTOUR_START_POINTS if near
                else contour.NODE_FAR_SAMPLES) * (n - 1)
    work = np.full(min(n, 512), per_node)
    runs = []
    numutil.map_work(runs.append, work, contour._BLOCK_SAMPLES)
    runs.sort(key=lambda run: run[0].start)
    _assert_block_rule(work, contour._BLOCK_SAMPLES, runs, 2)
    blocks = [b.stop - b.start for run in runs for b in run]
    if near:
        assert blocks == [n]
    else:
        assert all(np.sum(work[b]) > contour._BLOCK_SAMPLES // 4
                   for run in runs for b in run[:-1])
        assert n > 2686 or min(blocks) >= 2
        assert len(runs) == 2


def test_a_split_residue_contour_names_the_node_the_serial_one_names(
        weight_pipeline, monkeypatch):
    # at 12 far samples every lattice node but the origin fails the far
    # tail bound, at 13 only some of the inner ones do; in reverse order
    # the first failing node of the 13-sample pass lies in the worker's run
    prod = weight_pipeline[3].product
    n = prod.z.size
    threads = set()
    field_samples = contour._field_samples

    def recorded(*args):
        threads.add(threading.current_thread() is threading.main_thread())
        return field_samples(*args)

    monkeypatch.setattr(contour, "_field_samples", recorded)
    before = threading.active_count()
    for samples in (12, 13):
        monkeypatch.setattr(contour, "NODE_FAR_SAMPLES", samples)
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
    # bench/tracer.py wraps numutil.circle_nodes, which the contour looks
    # up at call time, and its span stack assumes one thread
    prod = weight_pipeline[3].product
    grids, threads = [], set()
    nodes = numutil.circle_nodes
    field_samples = contour._field_samples

    def recorded_nodes(m):
        grids.append(threading.current_thread() is threading.main_thread())
        return nodes(m)

    def recorded_samples(*args):
        threads.add(threading.current_thread() is threading.main_thread())
        return field_samples(*args)

    monkeypatch.setattr(numutil, "circle_nodes", recorded_nodes)
    monkeypatch.setattr(contour, "_field_samples", recorded_samples)
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
    want = contour._proxies(prod._contour(), nodes)
    rows = _block_rows(monkeypatch, "_field_samples", contour)
    monkeypatch.setattr(contour, "_BLOCK_SAMPLES", 2 ** 11)
    monkeypatch.setattr(numutil, "_worker_count", lambda: 8)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = contour._proxies(prod._contour(), nodes)
    finally:
        sys.setswitchinterval(old)
    assert max(rows) == 1 and len(rows) > 16
    for a, b in zip(got, want):
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))


def test_a_residue_contour_over_more_workers_than_cores_loses_no_row(
        weight_pipeline, monkeypatch):
    # eight workers, each over an eighth of the samples, write disjoint
    # rows of the shared modes; with a thread switch every microsecond, a
    # lost or misplaced write would show as a changed bit
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

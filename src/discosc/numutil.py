"""Shared numerical helpers: boundary-stable disc algebra, the blocks of
every rows x columns pass, contour rules, 1-D search, and the package's one
quadrature (a tanh-sinh rule over many segments at once, behind both
psi_tilde and the solution's g).

Everything here is plain numpy and works elementwise on arrays unless noted.
"""

from __future__ import annotations

import os
import threading

import numpy as np

TWO_PI = 2.0 * np.pi

# rows per block of every rows x columns pass (points x nodes in the
# product and series passes, centres x points in the sequence estimators,
# nodes in the residue contour)
_CHUNK = 512
# rows x columns pairs per serial block (slices), and the budget of the
# node pass and of the series pass without derivatives (map_work): a
# complex temporary of 2^15 pairs is 512 KB, which stays in cache where a
# (512, N) one leaves it for N in the hundreds
_BLOCK_PAIRS = 2 ** 15
# most threads one pass is split over (see map_work)
_MAX_WORKERS = 2
# the series derivative pass's budget of buffer bytes
# (InterpolationSeries._pass, whose runs allocate their buffers once):
# split over two threads, each run's buffers hold at most 2^21 bytes, no
# more than the plain form's live temporaries of one 2^15-pair block
# (about 160 bytes per pair), and at N = 50 a block holds 427 points,
# where 256 took about 17% more wall time
_SPLIT_BYTES = 2 ** 22


def one_minus_conj_mul(z, w, out=None):
    """1 - conj(z)*w, computed as (1 - conj(z)) + conj(z)*(1 - w).

    The naive expression loses all relative accuracy when both arguments
    approach the unit circle (the true value is tiny while conj(z)*w rounds
    near 1).  The regrouped form keeps relative error at machine level as
    long as 1-z and 1-w are themselves accurate, which holds for points
    generated by 1 - <small> formulas.  The product is a ufunc call so
    that scalars take numpy's array loop, not its scalar arithmetic, whose
    complex product can differ in the last bit: a batch then equals its
    elements one at a time.  out, when given, receives the result.
    """
    zc = np.conjugate(z)
    if out is None:
        return (1.0 - zc) + np.multiply(zc, 1.0 - w)
    return np.add(1.0 - zc, np.multiply(zc, 1.0 - w, out=out), out=out)


def one_minus_abs2(z):
    """1 - |z|^2 with the same boundary-stable grouping; real valued."""
    return np.real(one_minus_conj_mul(z, z))


def one_minus_abs(z):
    """1 - |z| via (1 - |z|^2)/(1 + |z|)."""
    return one_minus_abs2(z) / (1.0 + np.abs(z))


def poly_part(w, s: int):
    """w + w^2/2 + ... + w^s/s, elementwise (zeros for s = 0)."""
    w = np.asarray(w, dtype=complex)
    if s == 0:
        return np.zeros_like(w)
    acc = pw = w
    for j in range(2, s + 1):
        pw = pw * w
        acc = acc + pw / j
    return acc


def poly_diff(w0, dw, s: int):
    """poly_part(w0 + dw, s) - poly_part(w0, s), through w^j - w0^j =
    w (w^(j-1) - w0^(j-1)) + w0^(j-1) dw with w = w0 + dw, so a small dw
    keeps its relative accuracy (zeros for s = 0)."""
    if s == 0:
        return np.zeros_like(dw)
    if s == 1:
        return dw
    acc = d = dw
    w, p0 = w0 + dw, 1.0
    for j in range(2, s + 1):
        p0 = p0 * w0
        d = w * d + p0 * dw
        acc = acc + d / j
    return acc


def clog(z, out=None, mod=None):
    """Principal log of complex z as log|z| + i atan2(Im z, Re z).

    The same branch cut (-pi, pi] as np.log, with signed zeros
    (-1 - 0j -> -pi i), and 0 -> -inf + 0j under the same divide warning.
    numpy's complex log costs seven to fourteen times as much per element
    (numpy 2.4.6), and every points x nodes pass takes one or two logs per
    element.  The imaginary part is within 1 ulp of np.log and the real
    part within 2 eps max(1, |log|z||): 2 ulp for |log|z|| >= 1, and near
    |z| = 1 3e-16 absolute, no more than the rounding the pieces it is
    applied to already carry.  out (complex) and mod (real), arrays of z's
    shape, receive the log and |z| when given.
    """
    z = np.asarray(z, dtype=complex)
    if out is None:
        out = np.empty(z.shape, dtype=complex)
    np.log(np.abs(z, out=mod), out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


def clog1p(x):
    """Principal log of 1 + x, accurate for small |x|: log|1 + x| =
    log1p(2 Re x + |x|^2)/2 and arg(1 + x) = atan2(Im x, 1 + Re x), so the
    absolute error stays within a few eps |x| where clog(1 + x) would carry
    the eps of rounding 1 + x.  x is a complex array, which receives the
    result in place (and is returned).  The loops run on contiguous copies
    of the parts, 0.7 of the time strided views take, to the same bits."""
    a = x.real.copy()
    excess = 2.0 + a  # |1 + x|^2 - 1
    excess *= a
    excess += x.imag * x.imag
    a += 1.0
    np.log1p(excess, out=excess)
    excess *= 0.5
    x.real = excess
    np.copyto(excess, x.imag)
    x.imag = np.arctan2(excess, a, out=excess)
    return x


def wrap_angle(x):
    """Reduce an angle difference to (-pi, pi]."""
    y = np.mod(-np.asarray(x) + np.pi, TWO_PI)
    return -(y - np.pi)


def flat_points(z) -> np.ndarray:
    """z (a scalar or an array of any shape) as a 1-D complex array."""
    return np.atleast_1d(np.asarray(z, dtype=complex)).ravel()


def disc_points(z) -> np.ndarray:
    """flat_points(z), refusing nan and any point outside the open disc."""
    arr = flat_points(z)
    if not np.all(np.abs(arr) < 1.0):
        raise ValueError("evaluation point outside the open disc")
    return arr


def like_input(vals: np.ndarray, z, kind=complex):
    """Values computed on flat_points(z), in the shape of z; a scalar z
    gives a scalar of the given kind."""
    return vals.reshape(np.shape(z)) if np.ndim(z) else kind(vals[0])


def _worker_count() -> int:
    """Threads a split pass uses: the CPUs this process may run on, at most
    _MAX_WORKERS."""
    if hasattr(os, "sched_getaffinity"):
        return min(_MAX_WORKERS, len(os.sched_getaffinity(0)))
    return min(_MAX_WORKERS, os.cpu_count() or 1)


def slices(size: int, n: int):
    """Slices of size rows of a serial pass over n columns: a block holds
    at most _CHUNK rows and _BLOCK_PAIRS pairs, one row past that many
    columns.

    Each row is computed on its own, with the same operations in the same
    order whatever the block's size, so neither the block size nor the
    split over threads (map_work) moves a bit of any value.  (That rules
    out a commutative operator whose second operand is a temporary, such
    as x * (y - z): for arrays of 256 KiB or more numpy reuses the
    temporary and computes (y - z) * x in its place, and its complex
    product rounds differently from x * (y - z).)"""
    step = max(1, min(_CHUNK, _BLOCK_PAIRS // max(n, 1)))
    for lo in range(0, size, step):
        yield slice(lo, min(lo + step, size))


def work_runs(work: np.ndarray, budget: int, parts: int = 1) -> list:
    """The rows of a pass, row i costing work[i] >= 0 units, as up to p
    contiguous runs of about equal work, each a list of block slices: p =
    parts for a pass of budget units or more, 1 otherwise.  Row i goes to
    run min(floor(p s_i/total), p - 1), s_i the units of the rows before
    it, and a run's block closes before a row that would take it past
    budget // p units, or at _CHUNK rows, so the p runs' blocks together
    hold at most one budget.  Every block holds at most budget // p units
    (a row of more is a block of its own) and _CHUNK rows, and every block
    but a run's last would pass budget // p units with the row after it,
    or holds _CHUNK rows.  Runs without rows are left out.

    A pass under budget is one run of _CHUNK-row blocks.  Otherwise both
    kinds of edge come from a binary search of the cumulative work: the
    cost grows with the blocks, not the rows."""
    cum = work.cumsum()
    size = cum.size
    total = int(cum[-1]) if size else 0
    if total < budget:
        return [[slice(lo, min(lo + _CHUNK, size))
                 for lo in range(0, size, _CHUNK)]] if size else []
    p = parts
    limit, whole = budget // p, max(total, 1)
    # run j starts at the first row i >= 1 with p s_i >= j total, s_i =
    # cum[i - 1]
    edges = [0] + [min(int(cum.searchsorted(-(-j * whole // p))) + 1, size)
                   for j in range(1, p)] + [size]
    runs = []
    for lo, hi in zip(edges, edges[1:]):
        run = []
        while lo < hi:
            held = int(cum[lo - 1]) if lo else 0
            stop = int(cum.searchsorted(held + limit, side="right"))
            stop = min(max(stop, lo + 1), lo + _CHUNK, hi)
            run.append(slice(lo, stop))
            lo = stop
        if run:
            runs.append(run)
    return runs


def map_work(fn, work: np.ndarray, budget: int) -> None:
    """Run a pass over len(work) rows, row i costing work[i] units:
    fn(blocks) computes and stores the rows of every block in blocks.

    The blocks are work_runs(work, budget, w), w = _worker_count(): a pass
    of less than budget units, or one with a single worker, is one run in
    the calling thread, and a larger one w runs of about equal work.
    fn(runs[0]) runs in the calling thread and every other run in a thread
    of its own.  Every run ends before this returns or raises; an error
    reaches the caller as the serial pass raises it, the one of the first
    failing run in block order.  fn must write only the rows of its own
    blocks, enter the np.errstate it needs itself (numpy's error state is
    per thread), and call nothing that bench/tracer.py wraps (its span
    stack assumes one thread).  The callers: the series and node passes
    (InterpolationSeries._pass, CanonicalProduct._node_pass) and the
    residue contour's two sampling stages (contour._stage), and the
    factor-log sums of the winding count (CanonicalProduct._raw_log_eval)."""
    runs = work_runs(work, budget, _worker_count()) or [[]]
    errors = [None] * len(runs)

    def run(i):
        try:
            fn(runs[i])
        except BaseException as exc:  # raised in the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(1, len(runs))]
    for thread in threads:
        thread.start()
    try:
        fn(runs[0])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def distance_rows(centres: np.ndarray, points: np.ndarray):
    """Yield (slice, |centre - point|) over the blocks slices(centres.size,
    points.size), one row per centre of the block."""
    for sl in slices(centres.size, points.size):
        yield sl, np.abs(centres[sl, None] - points[None, :])


def circle_nodes(m: int):
    """Uniform angles and unit points for an m-point trapezoid contour rule."""
    theta = TWO_PI * np.arange(m) / m
    return theta, np.exp(1j * theta)


# first grid of every adaptive contour (probe, zero-count and exclusion
# circles), and the largest grid of the probe and node contours
CONTOUR_START_POINTS = 32
CONTOUR_MAX_POINTS = 1024


def settle_circles(values, sample, settle, max_points: int) -> np.ndarray:
    """Refine trapezoid contours until each circle settles; return the
    indices of those still unsettled when the next grid would exceed
    max_points (empty when none is).

    values is the first round, one circle per row on circle_nodes(m) along
    the last axis.  Each round calls settle(live, theta, unit, values) for
    the rows of the circles live (indices into the first round) and drops
    those its boolean mask marks settled.  The next round doubles m:
    sample(live, unit[1::2]) gives values at the new odd-indexed points
    only, and they are interleaved with the kept ones.  The angles
    2 pi j / m are exact under doubling, so every round equals a fresh
    m-point grid bit for bit.  A mask or a sample with fewer rows than live
    drops the circles after it: the caller has failed those and recorded
    why, and since each failure cuts off all later circles, the last one it
    records is the lowest-index one.
    """
    live = np.arange(len(values))
    theta, unit = circle_nodes(values.shape[-1])
    while live.size:
        done = settle(live, theta, unit, values)
        live, values = live[:done.size][~done], values[:done.size][~done]
        if live.size == 0 or 2 * theta.size > max_points:
            break
        theta, unit = circle_nodes(2 * theta.size)
        fresh = sample(live, unit[1::2])
        live, kept = live[:len(fresh)], values[:len(fresh)]
        values = np.empty(kept.shape[:-1] + (theta.size,), dtype=fresh.dtype)
        values[..., 0::2], values[..., 1::2] = kept, fresh
    return live


def circle_fault(logs):
    """(index, reason) of the first circle of logs that circle_modes
    refuses, or None: one with a nan or +inf sample, or one whose samples
    are all exact zeros (-inf real part).  logs holds one circle along its
    last axis, or one per row; index counts the circles in C order."""
    zero = np.real(logs) == -np.inf
    bad = np.any(~zero & ~np.isfinite(logs), axis=-1).ravel()
    dead = np.all(zero, axis=-1).ravel()
    if not np.any(bad | dead):
        return None
    i = int(np.flatnonzero(bad | dead)[0])
    return i, ("contour sample is nan or +inf" if bad[i] else
               "contour collapses at binary64 resolution: every sample is "
               "an exact zero")


def circle_modes(theta, logs, orders, scale=None):
    """(scale, modes) with modes[..., i] = mean(exp(logs - scale) e^{-i k
    theta}) for k = orders[i], on the trapezoid grid theta.

    logs holds one circle along its last axis, or one per row: scale and
    modes then carry the leading axes.  scale defaults to the largest
    Re logs of each circle; a caller that compares rounds may freeze it at
    its first value so the modes stay in one unit.  Entries at -inf real
    part (exact zeros of the integrand) count as 0.  Raises RuntimeError
    with the reason of circle_fault when a sample is nan or +inf, and when
    a circle has no nonzero sample: the contour then collapses at binary64
    resolution.
    """
    fault = circle_fault(logs)
    if fault is not None:
        raise RuntimeError(fault[1])
    re = np.real(logs)
    zero = re == -np.inf
    if scale is None:
        scale = np.max(re, axis=-1)
        if scale.ndim == 0:
            scale = float(scale)
    with np.errstate(invalid="ignore", over="ignore"):
        q = np.where(zero, 0.0, np.exp(logs - np.expand_dims(scale, -1)))
    return scale, np.stack([np.mean(q * np.exp(-1j * k * theta), axis=-1)
                            for k in orders], axis=-1)


# The tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974) on a segment
# [a, b]: nodes a + (b - a) / (1 + e^(-pi sinh t)) at t = j h for |t| <=
# TANH_SINH_T_MAX; beyond it the weights fall below 1e-35 of |b - a|, far
# under binary64 resolution of the integral.
TANH_SINH_T_MAX = 4.0
# The first level has step 1/2 (17 nodes) and each further one halves it,
# evaluating only the new nodes.  The error of the rule falls doubly
# exponentially in 1/h for an integrand analytic near the segment; one
# still moving at h = 1/256 (2049 nodes) has a kink or singularity the rule
# cannot resolve.
TANH_SINH_LEVELS = 8
# A segment is done when two successive levels agree to tol relative to
# the value, or to tol * TANH_SINH_FLOOR absolute where the value is
# smaller than that.  Past the first such agreement the error squares with
# each level, so smooth integrands come out within a few ulp.
TANH_SINH_FLOOR = 0.01


class SegmentIntegralError(ValueError):
    """adaptive_segment_integral has no value on one segment: index is its
    flat position among the broadcast segments, reason what went wrong."""

    def __init__(self, index, a, b, reason: str):
        super().__init__(f"segment integral over [{a[index].item()!r}, "
                         f"{b[index].item()!r}]: {reason}")
        self.index, self.reason = int(index), reason


def adaptive_segment_integral(f, a, b, tol: float = 1e-12):
    """Integral of f along every straight segment [a, b] by the tanh-sinh
    rule.

    a and b are real or complex scalars or arrays that broadcast together,
    one segment per element.  f maps an array of points to values
    elementwise; each level is one f call on the segments not yet settled
    times the level's new nodes.  A segment is done at the first level
    within tol * max(|value|, TANH_SINH_FLOOR) of the level before, so it
    gets the value a call with it alone would.  a == b gives exactly 0, and
    a scalar pair gives a scalar.  Raises SegmentIntegralError (a
    ValueError) naming the first segment where f is not finite at a node,
    or that is still unsettled when the levels run out.
    """
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    shape, a, b = a.shape, a.ravel(), b.ravel()
    span = b - a
    out = np.zeros(span.shape, dtype=np.result_type(span, 1.0))
    live = np.flatnonzero(span != 0.0)
    est = None
    for level in range(TANH_SINH_LEVELS):
        if live.size == 0:
            break
        h = 0.5 ** (level + 1)
        n = round(TANH_SINH_T_MAX / h)
        t = h * (np.arange(-n, n + 1) if est is None
                 else np.arange(1 - n, n, 2))
        s = 0.5 * np.pi * np.sinh(t)
        frac = 1.0 / (1.0 + np.exp(-2.0 * s))
        weights = 0.25 * np.pi * np.cosh(t) / np.cosh(s) ** 2
        vals = np.asarray(f(a[live, None] + span[live, None] * frac))
        finite = np.all(np.isfinite(vals), axis=1)
        if not np.all(finite):
            raise SegmentIntegralError(live[~finite][0], a, b,
                                       "integrand is not finite")
        part = span[live] * (h * (vals * weights).sum(axis=1))
        out = out.astype(part.dtype, copy=False)
        if est is not None:
            new = 0.5 * est + part
            done = np.abs(new - est) <= tol * np.maximum(np.abs(new),
                                                         TANH_SINH_FLOOR)
            out[live[done]] = new[done]
            live, part = live[~done], new[~done]
        est = part
    if live.size:
        raise SegmentIntegralError(
            live[0], a, b, f"quadrature unsettled at step "
                           f"{0.5 ** TANH_SINH_LEVELS:g}")
    return out.reshape(shape) if shape else out[0].item()


# golden-section steps: each shrinks the bracket by 0.618, 40 by 4e-9;
# golden_section_max takes them two per f call, so the count is even
GOLDEN_SECTION_STEPS = 40


def golden_section_max(f, lo, hi):
    """Maximize f by golden-section search on [lo, hi], elementwise.

    lo and hi are floats or arrays of one shape, one bracket per element.
    f is elementwise: it is called once with the two inner points stacked,
    shape (2,) + lo.shape, then once per two steps with three points per
    bracket stacked, shape (3,) + lo.shape, and once at the midpoints.  The
    first step's branch is known from (fc, fd), so its new point p is fixed
    before the call; the second step's branch depends only on f(p), so its
    two possible new points join p in the call and the search keeps the
    one its branch takes.  Each bracket takes the branch the scalar search
    would (fc >= fd shrinks it from the right; NaN from the left) with the
    same arithmetic, so every element is bit for bit the search run on its
    bracket alone.  Returns (x, f(x)).
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(np.stack([c, d]))
    for _ in range(GOLDEN_SECTION_STEPS // 2):
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        p = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        c, d = np.where(left, p, d), np.where(left, c, p)
        # the second step's new point on its left and on its right branch
        q_left, q_right = d - invphi * (d - a), c + invphi * (b - c)
        fp, fq_left, fq_right = f(np.stack([p, q_left, q_right]))
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        q, fq = np.where(left, q_left, q_right), np.where(left, fq_left,
                                                          fq_right)
        c, d = np.where(left, q, d), np.where(left, c, q)
        fc, fd = np.where(left, fq, fd), np.where(left, fc, fq)
    x = 0.5 * (a + b)
    return x, f(x)


def circle_max(fn, radii, samples: int, refine_fn=None):
    """Largest value of a real fn on each circle |z| = r, r in radii.

    fn maps points (an array of any shape) to real values elementwise.  One
    call scans a uniform grid of samples points on every circle at once,
    shape (len(radii), samples); then one golden-section search per circle,
    between the two neighbours of its best sample, runs in lockstep: its 22
    calls carry every circle at once, three points per circle in each
    two-step call, so a ladder of any length takes 23 calls.  The larger of
    the best sample and the refined value is kept (the sample on a tie or a
    NaN).  refine_fn, when given, stands in for fn at the search points.  A
    scalar radius gives a float, radii an array.  samples < 1 raises
    ValueError.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    r = np.atleast_1d(np.asarray(radii, dtype=float))
    theta, unit = circle_nodes(samples)
    vals = fn(r[:, None] * unit)
    j = np.argmax(vals, axis=1)
    peak = vals[np.arange(r.size), j]
    f = fn if refine_fn is None else refine_fn
    _, best = golden_section_max(lambda t: f(r * np.exp(1j * t)),
                                 theta[j] - TWO_PI / samples,
                                 theta[j] + TWO_PI / samples)
    out = np.where(best > peak, best, peak)
    return float(out[0]) if np.ndim(radii) == 0 else out


def sample_disc(rng: np.random.Generator, n: int, r_max: float = 0.95) -> np.ndarray:
    """n points uniform w.r.t. area on |z| <= r_max."""
    r = r_max * np.sqrt(rng.random(n))
    th = TWO_PI * rng.random(n)
    return r * np.exp(1j * th)


"""Node-interpolation series built on a canonical product.

Given nodes z_n, target values b_n, and per-node damping exponents s_n, the
series is

    f(z) = sum_n  b_n / (z - z_n) * P(z) / P'(z_n) * w_n(z)^(s_n - 1),

with w_n(z) = (1 - |z_n|^2)/(1 - conj(z_n) z).  Each term vanishes at every
node except its own, where it equals b_n, so f interpolates the targets.
The exponents are chosen so the tail is summable and the growth of log|f|
stays a bounded multiple of the integrated growth scale.

All term arithmetic happens on logs: a term's log is

    log b_n - log P'(z_n) - log(z - z_n) + (s_n - 1) log w_n(z)

plus the shared log P(z), and the sum over n is exponentiated under a
per-point scale so no intermediate product can overflow or underflow.  The
term logs, log P and (on request) P'/P, P''/P and the derivative sum all come
from one chunked pass over points x nodes that forms the product's pieces
(z - z_n, 1 - conj(z_n) z) once per chunk; the coefficient a(z) is assembled
from that same pass.  The series takes the pass at every point but the
nodes; at node z_k term k alone survives, in its factored removable form.

The damping factors w_n^(s_n - 1) leave a few terms dominant at each point,
so the pass ranks terms by the real part of their logs (real logs of moduli
only) and forms the phase, the exponential and the derivative factor only
for terms within eps/N of the largest (N nodes; for the derivative sum, of
the largest term times its factor bound).  The skipped terms move the sum
by less than eps times its largest term, the rounding the sum carries
anyway; InterpolationSeries._pass gives the bound for both sums.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# golden_section_max is looked up here by bench/tracer.py
from . import numutil
from .numutil import (circle_max, clog, disc_points,  # noqa: F401
                      golden_section_max, like_input, map_work,
                      one_minus_conj_mul, poly_part)
from .products import CanonicalProduct
from .scales import GrowthScale
from .sequences import ZeroSequence

__all__ = [
    "TargetData",
    "InterpolationSeries",
    "GrowthRow",
    "choose_exponents",
]


# numpy error state of the series pass: a point within 1e-154 of a node (one
# at the origin) overflows the P'/P form, whose column k the pass replaces
# for a point in the disc of node k; one within a subnormal distance
# overflows both, and the non-finite values are refused by name downstream.
# In a disc the own term's bound B_k is 0 for s_k = 1, and its log -inf.
_PASS_ERRSTATE = dict(divide="ignore", over="ignore", invalid="ignore")


def _above_floor(x: np.ndarray, floor: float, out=None):
    """(m, keep): m the row maxima of x ignoring nan, and keep the entries
    at or above m + floor (in the bool array out when given); a row with no
    entry above -inf has m = -inf and keeps nothing."""
    m = np.fmax.reduce(x, axis=1)
    m[~(m > -math.inf)] = -math.inf
    thr = np.where(m > -math.inf, m + floor, math.inf)
    return m, np.greater_equal(x, thr[:, None], out=out)


def _row_sums(rows: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Sums of the complex vals grouped by their row index, n rows."""
    return (np.bincount(rows, vals.real, n)
            + 1j * np.bincount(rows, vals.imag, n))


def _arg(x: np.ndarray) -> np.ndarray:
    """np.angle of a complex array, without its argument checks."""
    return np.arctan2(x.imag, x.real)


def _unscale(log_p, sm, total, what: str, dtotal=None):
    """exp(log P + m) * total; overflow and non-finite values raise
    ValueError naming the series quantity.  With dtotal, the pair of that
    and the series derivative exp(log P + m) * dtotal, from the same
    exponential and checked after it."""
    out, e = [], None
    for t, name in ((total, what), (dtotal, "derivative")):
        if t is None:
            break
        with np.errstate(invalid="ignore", over="raise"):
            try:
                e = np.exp(log_p + sm) if e is None else e
                out.append(e * t)
            except FloatingPointError:
                raise ValueError(f"series {name} overflows binary64") \
                    from None
        if not np.all(np.isfinite(out[-1])):
            raise ValueError(f"series {name} produced a non-finite value")
    return out[0] if dtotal is None else out


class SeriesPass(NamedTuple):
    """One pass over points x nodes: the series is exp(log_p + scale) * total
    and, when derivatives were asked, its derivative is
    exp(log_p + scale) * dtotal.  node holds the index of the exclusion
    disc each point lies in (-1 outside every disc).  Outside the discs
    lam = P'/P and dlam = (P'/P)'; in the disc of node k, where P = (z -
    z_k) Q, they are Q'/Q and (Q'/Q)', free of the node's pole."""
    log_p: np.ndarray
    scale: np.ndarray
    total: np.ndarray
    dtotal: np.ndarray | None = None
    lam: np.ndarray | None = None
    dlam: np.ndarray | None = None
    node: np.ndarray | None = None


class TargetData:
    """Target values pinned to a zero sequence, plus their growth budget:
    node_tilde[k] = psi_tilde(1/(1 - |z_k|)), from one psi_tilde call on
    the distinct node gaps, shared with choose_exponents, and

        bound_constant = sup_k log(1 + |b_k|) / max(node_tilde[k], 1).

    Clamping the denominator at 1 keeps shallow nodes (where the integrated
    scale is still below 1) from blowing the constant up; for the deep nodes
    that drive exponent growth the clamp is inactive."""

    def __init__(self, zeros: ZeroSequence, values, scale: GrowthScale):
        vals = np.asarray(values, dtype=complex)
        if vals.shape != zeros.points.shape:
            raise ValueError("one target value per node is required")
        if not np.all(np.isfinite(vals)):
            raise ValueError("target values must be finite")
        self.zeros = zeros
        self.values = vals
        self.scale = scale
        gaps, where = np.unique(zeros.gaps(), return_inverse=True)
        self.node_tilde = np.asarray(scale.psi_tilde(1.0 / gaps),
                                     dtype=float)[where]
        self.bound_constant = float(np.max(
            np.log1p(np.abs(vals)) / np.maximum(self.node_tilde, 1.0))) \
            if vals.size else 0.0

    def __len__(self) -> int:
        return self.values.size


def choose_exponents(product: CanonicalProduct, targets: TargetData,
                     margin: float = 10.0) -> np.ndarray:
    """Per-node damping exponents.

    s_n = s + ceil((margin + C * psi_tilde(1/(1-|z_n|)) + 2 log(n+1)) / log 2)

    with n counted from 1 in modulus order and C the sum of the target
    bound constant and the deleted-product balance constant.  The first
    piece of C absorbs log|b_n|, the second absorbs log(1/|P'(z_n)|) up to
    the bounded convergence sum, and the 2 log(n+1) gives a summable tail.
    Exponents are nondecreasing because the gaps are sorted.  The
    psi_tilde values are the targets' node_tilde, so the targets must be
    pinned to the product's zeros.  A margin that is not positive (nan
    included), or that gives exponents beyond int64 (inf included), raises
    ValueError naming it.
    """
    if not margin > 0.0:
        raise ValueError(f"margin must be positive, got {margin!r}")
    if not np.array_equal(targets.zeros.points, product.z):
        raise ValueError("targets are pinned to a different zero sequence")
    c_hat = targets.bound_constant + product.balance_constant()
    n_idx = np.arange(1, product.z.size + 1, dtype=float)
    raw = (margin + c_hat * targets.node_tilde
           + 2.0 * np.log(n_idx + 1.0)) / math.log(2.0)
    s_n = product.genus + np.ceil(raw)
    if not np.all(s_n < 2.0 ** 63):
        raise ValueError(f"margin {margin!r} gives damping exponents beyond "
                         f"int64")
    return s_n.astype(int)


class GrowthRow(NamedTuple):
    r: float
    log_max: float
    growth_integral: float
    ratio: float


class InterpolationSeries:
    """Evaluable interpolation series; construct through build()."""

    def __init__(self, product: CanonicalProduct, targets: TargetData,
                 exponents):
        if targets.zeros is not product.zeros and \
                not np.array_equal(targets.zeros.points, product.zeros.points):
            raise ValueError("targets are pinned to a different zero sequence")
        exps = np.asarray(exponents)
        if exps.shape != product.z.shape:
            raise ValueError("one exponent per node is required")
        if not np.issubdtype(exps.dtype, np.integer):
            raise ValueError("exponents must be integers")
        if np.any(exps < 1):
            raise ValueError("exponents must be at least 1")
        if np.any(np.diff(exps) < 0):
            raise ValueError("exponents must be nondecreasing in modulus order")
        self.product = product
        self.targets = targets
        self.exponents = exps.astype(int)
        with np.errstate(divide="ignore"):
            self._log_b = np.log(targets.values.astype(complex))
        self._log_dp = product._node_pass().log_dp
        if not np.all(np.isfinite(self._log_dp)):
            raise ValueError("product derivative vanishes at a node; the "
                             "series is undefined")
        # per-node parts of the term logs for _pass: c_n = log b_n -
        # log P'(z_n), s_n - 1 and the (s_n - 1)|z_n|/(1 - |z_n|^2) of the
        # derivative-factor bound
        self._c = self._log_b - self._log_dp
        self._sm1 = (self.exponents - 1).astype(float)
        self._bound_coef = self._sm1 * np.abs(product.z) / product._gap2

    @classmethod
    def build(cls, product: CanonicalProduct, targets: TargetData,
              margin: float = 10.0, exponents=None) -> "InterpolationSeries":
        if exponents is None:
            exponents = choose_exponents(product, targets, margin)
        return cls(product, targets, exponents)

    # -- evaluation --------------------------------------------------------

    def _pass(self, pts: np.ndarray, derivatives: bool = False) -> SeriesPass:
        """log P, the scaled term sum and its scale at points other than
        the nodes; with derivatives=True also the scaled derivative sum and
        the log-derivatives lam, dlam of SeriesPass from the same pieces.

        The pass takes every point once, in one round through
        numutil.map_work, each point costing its N pairs against
        numutil._BLOCK_PAIRS, or with derivatives the bytes of its row of
        the run's buffers (_pair_bytes x N) against numutil._SPLIT_BYTES:
        a serial block holds at most numutil._CHUNK points and the budget,
        and a pass of a budget or more is split over two threads into
        blocks of at most half of it.  At geo50's N = 50 that splits the
        pass without derivatives from 656 points on, in blocks of 327, and
        the derivative pass from 856 points on, in blocks of 427.  Points
        in exclusion discs take their pole-free form in the block that
        holds them (_sums).  The round enters _PASS_ERRSTATE in every
        thread it runs in.  A point's values depend on that point alone,
        not on its batch, the block size or the split.

        Each term's derivative is the term itself times

            P'/P - 1/(z - z_n) + (s_n - 1) conj(z_n)/(1 - conj(z_n) z).

        With derivatives, a point whose |z - z_k| is at most the exclusion
        radius r_k lies in the disc of node k (the discs are disjoint).
        There P = u Q with u = z - z_k: column k of the log-derivative sums
        takes the regular part of factor k (CanonicalProduct._regular_part),
        so lam = Q'/Q, and the factor above is Q'/Q + 1/u - 1/(z - z_n) +
        ... for n != k and Q'/Q + (s_k - 1) conj(z_k)/(1 - conj(z_k) z) for
        term k, whose 1/u cancels exactly.

        Only terms above the rounding floor are formed.  The log modulus of
        term n (without the shared log P) is

            Re t_n = Re(log b_n - log P'(z_n)) - log|z - z_n|
                     + (s_n - 1) log|w_n(z)|,

        from real logs of moduli alone.  With m the row maximum of Re t and
        N the node count, term n is kept when Re t_n >= m + log(eps/N);
        with derivatives also when Re t_n + log B_n >= max_j(Re t_j +
        log B_j) + log(eps/N), where B_n = 1/|z - z_n| + (s_n - 1)|z_n| /
        |1 - conj(z_n) z| bounds the term's own part of its derivative
        factor (in the disc of node k, B_n gains 1/|u| for n != k and B_k
        is the second part alone, the common part being Q'/Q).  The phase
        Im t_n, the exponential and the factor are taken on kept terms
        only, so a kept term is the value the all-term sum adds.  The
        skipped terms, fewer than N and each below eps/N of the largest,
        move the sum by less than eps max_n |term_n|, and the derivative
        sum by less than 2 eps max_n |term_n| (|lam| + B_n): the rounding
        each sum carries anyway (Higham, Accuracy and Stability of
        Numerical Algorithms, 2nd ed., SIAM 2002, ch. 4).  Terms with -inf
        or nan logs (b_n = 0) are never kept, so they add exactly 0, and a
        row with no finite term log has scale -inf and sums 0.
        """
        prod = self.product
        n = pts.size
        sm = np.full(n, -math.inf)
        log_p, total = np.zeros((2, n), dtype=complex)
        dtotal, lam, dlam = (np.zeros((3, n), dtype=complex) if derivatives
                             else (None, None, None))
        node = np.full(n, -1) if derivatives else None
        out = (log_p, sm, total, dtotal, lam, dlam, node)
        if prod.z.size == 0:
            return SeriesPass(*out)

        def run(blocks):
            with np.errstate(**_PASS_ERRSTATE):
                for sl, vals in self._sums(pts, derivatives, blocks):
                    for arr, val in zip(out, vals):
                        arr[sl] = val

        row, budget = prod.z.size, numutil._BLOCK_PAIRS
        if derivatives:
            row, budget = self._pair_bytes() * row, numutil._SPLIT_BYTES
        map_work(run, np.full(n, row), budget)
        return SeriesPass(*out)

    def _buffers(self, derivatives: bool):
        """(dtype, count) of the (rows, N) buffers one run of _sums holds:
        the pieces, the factor logs and 1 - w_n (then w_n and the
        log-derivatives); |1 - w_n|, then |z - z_n|, and with derivatives
        |w_n|, the term logs and a spare real (without, these take the
        memory of den and 1 - w_n, idle by then); the keep masks, the
        second of which first holds the exclusion-disc test."""
        return ((complex, 4), (float, 4 if derivatives else 1),
                (bool, 2 if derivatives else 1))

    def _pair_bytes(self) -> int:
        """Bytes per points x nodes pair of the derivative pass's buffers,
        _buffers(True)."""
        return sum(np.dtype(t).itemsize * k for t, k in self._buffers(True))

    def _sums(self, pts: np.ndarray, derivatives: bool, blocks):
        """Yield (slice, sums) for _pass over the blocks of pts, the blocks
        of one run of a pass: sums holds log P, the scale and the scaled
        term sum and, with derivatives, the scaled derivative sum, lam,
        dlam and the index of the exclusion disc each point lies in (-1
        outside).  With derivatives a block decides its rows' discs as soon
        as |z - z_n| is formed, and its rows in discs take the pole-free
        form of _pass (the bound B_n, the factor's 1/u and column k of the
        log-derivative sums) by row index within the block.

        The run allocates its (rows, N) buffers (_buffers) once, for its
        largest block, and forms every per-pair array of a block in them
        by explicit in-place ufuncs, each with the operands and operand
        order of the plain expression (tests/references.py keeps that
        form), so no value moves a bit.  A fresh (512, 50) complex
        temporary is 400 KB, above glibc's 128 KB mmap threshold, so the
        plain form mapped and faulted in its temporaries anew on every
        block: a 20,257-point geo50 eval_coefficient call on serial
        512-point blocks took 2,600-3,300 minor page faults, and takes
        1,200-1,550 with the buffers (the counts vary between processes),
        about 600 of them the run's first touch of its 2.5 MB of buffers.
        The arrays left per block are the kept terms' (about a tenth of the
        pairs at geo50) and the per-point sums."""
        prod = self.product
        n = prod.z.size
        floor = math.log(np.finfo(float).eps / n)
        blocks = list(blocks)
        rows_max = max((sl.stop - sl.start for sl in blocks), default=0)
        bufs = [np.empty((k, rows_max, n), dtype=t)
                for t, k in self._buffers(derivatives)]
        for sl in blocks:
            m = sl.stop - sl.start
            delta, den, omw, logs = bufs[0][:, :m]
            ad, *reals = bufs[1][:, :m]
            masks = bufs[2][:, :m]
            prod._pieces(pts[sl], out=(delta, den))
            # |1 - w_n| takes the buffer of |z - z_n| until that is formed
            log_p = prod._factor_logs(delta, den, (logs, omw, ad)).sum(
                axis=1)
            # the logs are summed: w_n takes their buffer
            w = np.divide(prod._gap2c, den, out=logs)
            if derivatives:
                aw, re, spare = reals
            else:
                # den and 1 - w_n are not read again: |w_n| and the term
                # logs take their memory, as C-contiguous (m, N) views (a
                # log over another layout can round differently), and the
                # spare is |z - z_n|, not needed after its log
                aw = den.view(float).reshape(2, m, n)[0]
                re = omw.view(float).reshape(2, m, n)[0]
                spare = ad
            np.abs(delta, out=ad)
            np.abs(w, out=aw)
            # Re t_n = Re c_n - log|z - z_n| + (s_n - 1) log|w_n|
            np.subtract(self._c.real, np.log(ad, out=re), out=re)
            re += np.multiply(self._sm1, np.log(aw, out=spare), out=spare)
            sm, keep = _above_floor(re, floor, masks[0])
            if derivatives:
                # j, the block's rows in exclusion discs, and k, their
                # nodes: the discs are disjoint, and a point in disc k has
                # every other node at least 3 r_k away
                inside = np.less_equal(ad, prod.exclusion_radii,
                                       out=masks[1])
                j, k = np.divmod(inside.ravel().nonzero()[0], n)
                disc = np.full(m, -1)
                disc[j] = k
                # |den| = (1 - |z_n|^2)/|w_n|
                own = np.divide(1.0, ad, out=spare)
                own += np.multiply(self._bound_coef, aw, out=aw)
                if j.size:
                    own[j] += 1.0 / ad[j, k][:, None]
                    # B_k is the second part alone, which aw now holds
                    own[j, k] = aw[j, k]
                np.add(re, np.log(own, out=own), out=own)
                keep |= _above_floor(own, floor, masks[1])[1]
            # flat indices of the kept terms: gathers by index cost a
            # fraction of boolean-mask ones
            at = keep.ravel().nonzero()[0]
            rows, cols = np.divmod(at, n)
            d = delta.ravel()[at]
            t = np.empty(rows.size, dtype=complex)
            t.real = re.ravel()[at] - sm[rows]
            t.imag = (self._c.imag[cols] - _arg(d)
                      + self._sm1[cols] * _arg(w.ravel()[at]))
            e = np.exp(t)
            total = _row_sums(rows, e, m)
            if not derivatives:
                yield sl, (log_p, sm, total)
                continue
            inv = 1.0 / d
            den_at = den.ravel()[at]
            if j.size:
                regular = prod._regular_part(k, den[j, k], w[j, k], 1)
                # 1/(z - z_n) - 1/u on the kept terms of rows in discs,
                # exactly 0 in column k (x - 0 is x on the other rows)
                inv_u = np.zeros(m, dtype=complex)
                inv_u[j] = 1.0 / delta[j, k]
                inv -= inv_u[rows]
            # the gathers of den are done: dlog E and d2log E take the
            # buffers of 1 - w_n and den
            L, dL = prod._log_derivatives(delta, w, out=(omw, den))
            if j.size:
                L[j, k], dL[j, k] = regular
            lam = L.sum(axis=1)
            factor = (lam[rows] - inv
                      + self._sm1[cols] * (prod._zc[cols] / den_at))
            yield sl, (log_p, sm, total,
                       _row_sums(rows, e * factor, m), lam,
                       dL.sum(axis=1), disc)

    def _node_terms(self, k: np.ndarray):
        """(Re t, exp(t - Re t)) for t the log of the series at node z_k.

        Every term but term k vanishes there.  Term k takes the factored
        removable form, from 1 - w_k = -conj(z_k)(z - z_k)/(1 - conj(z_k) z):

            E(w_k, s)/(z - z_k)
                = -conj(z_k)/(1 - conj(z_k) z) * exp(sum_{j<=s} w_k^j / j)

        (1 for a node at the origin, a plain factor z), so no 0/0 forms;
        the rest of P enters as the factor logs at z_k summed with column k
        set to 0 (CanonicalProduct._node_pass).  b_k = 0 gives -inf and 0.
        """
        prod, zk = self.product, self.product.z[k]
        with np.errstate(divide="ignore", invalid="ignore"):
            den_k = one_minus_conj_mul(zk, zk)
            wk = prod._gap2[k] / den_k
            fact = np.where(zk == 0.0, 0.0,
                            clog(-np.conj(zk) / den_k)
                            + poly_part(wk, prod.genus))
            t = (self._log_b[k] - self._log_dp[k] + prod._node_pass().zeroed[k]
                 + fact + (self.exponents[k] - 1) * clog(wk))
            return t.real, np.where(np.isfinite(t), np.exp(t - t.real), 0.0)

    def _node_jets(self, k: np.ndarray):
        """(jets, scale) at the nodes k from one blocked pass over the nodes
        k x all nodes: jets holds F', F'' and F^(3) at z_k, shape (3,
        len(k)), for F = Q'/Q + h where P = (z - z_k) Q; scale is the sum
        of |dlog E_n| over n != k plus |R_k| at z_k (R_k the regular part
        of factor k), the scale of the rounding of Q'/Q.

        Q'/Q and its derivatives sum the factors' log-derivatives with
        column k taken by the regular part of factor k (the _pass rule).
        With v = conj(z_n)/(1 - conj(z_n) z), so that v' = v^2, dlog E_n =
        w_n^(s+1)/(z - z_n) = L has L'/L = g = (s+2) v - w_n/(z - z_n),
        g' = (s+1) v^2 + 1/(z - z_n)^2 and g'' = 2 (s+1) v^3 - 2/(z -
        z_n)^3, whence L'' = L (g^2 + g') and L^(3) = L (g^3 + 3 g g' +
        g'').

        Term n != k of h is (z - z_k) H_n with H_n = C_n Q w_n^(s_n - 1)/(z
        - z_n), so its j-th derivative at z_k is j H_n^(j-1)(z_k): H_n(z_k)
        = D_n = exp(log b_n - log P'(z_n) + log P'(z_k) - log(z_k - z_n) +
        (s_n - 1) log w_n(z_k)), and with psi = log H_n, psi' = Q'/Q +
        (s_n - 1) v_n - 1/(z - z_n) and psi'' = (Q'/Q)' + (s_n - 1) v_n^2 +
        1/(z - z_n)^2, H_n' = D_n psi' and H_n'' = D_n (psi'^2 + psi'').
        Term k is b_k exp(phi(z) - phi(z_k)) with phi = log Q + (s_k - 1)
        log w_k, whose j-th derivative at z_k is (Q'/Q)^(j-1) + (j-1)! (s_k
        - 1) v_k^j.  Values beyond binary64 come out infinite or nan; the
        caller names them.
        """
        prod = self.product
        s = prod.genus
        sm1 = self._sm1
        jets = np.empty((3, k.size), dtype=complex)
        scale = np.empty(k.size)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for sl, delta, den in prod._blocks(prod.z[k]):
                kk, rows = k[sl], np.arange(len(delta))
                w = prod._gap2c / den
                v = prod._zc / den
                inv = 1.0 / delta
                L = prod._log_derivatives(delta, w)[0]
                g = (s + 2.0) * v - w * inv
                g1 = (s + 1.0) * v * v + inv * inv
                g2 = 2.0 * ((s + 1.0) * v ** 3 - inv ** 3)
                # np.multiply keeps the operand order at any block size
                # (see numutil.slices)
                lq = [L, L * g, np.multiply(L, g * g + g1),
                      np.multiply(L, g ** 3 + 3.0 * g * g1 + g2)]
                own = prod._regular_part(kk, prod._gap2[kk], 1.0, 3)
                for x, r in zip(lq, own):
                    x[rows, kk] = r
                l0, l1, l2, l3 = (np.sum(x, axis=1) for x in lq)
                D = np.exp(self._c + self._log_dp[kk][:, None] - clog(delta)
                           + sm1 * clog(w))
                p1 = l0[:, None] + sm1 * v - inv
                p2 = l1[:, None] + sm1 * v * v + inv * inv
                D[rows, kk] = p1[rows, kk] = p2[rows, kk] = 0.0
                vk = prod._zc[kk] / prod._gap2[kk]
                f1 = l0 + sm1[kk] * vk
                f2 = l1 + sm1[kk] * vk ** 2
                f3 = l2 + 2.0 * sm1[kk] * vk ** 3
                b = self.targets.values[kk]
                jets[0, sl] = l1 + b * f1 + np.sum(D, axis=1)
                jets[1, sl] = (l2 + b * (f2 + f1 * f1)
                               + 2.0 * np.sum(D * p1, axis=1))
                jets[2, sl] = (l3 + b * (f3 + 3.0 * f1 * f2 + f1 ** 3)
                               + 3.0 * np.sum(np.multiply(D, p1 * p1 + p2),
                                              axis=1))
                scale[sl] = np.sum(np.abs(L), axis=1)
        return jets, scale

    def _parts(self, arr: np.ndarray):
        """Yield (selection, log P, scale, scaled term sum): one _pass off
        the nodes, then _node_terms at them (log P inside, so 0)."""
        k = self.product.node_index(arr)
        at = k >= 0
        if not np.all(at):
            p = self._pass(arr[~at])
            yield ~at, p.log_p, p.scale, p.total
        if np.any(at):
            yield (at, 0.0, *self._node_terms(k[at]))

    def evaluate(self, z):
        """Series values: one series pass at every point but the nodes,
        inside exclusion discs too, and at node z_k the factored removable
        form of term k.  Values that overflow binary64 raise ValueError
        (log_abs_evaluate stays in log space)."""
        arr = disc_points(z)
        out = np.empty(arr.shape, dtype=complex)
        for sel, log_p, sm, total in self._parts(arr):
            out[sel] = _unscale(log_p, sm, total, "value")
        return like_input(out, z)

    def evaluate_derivative(self, z):
        """Series derivative via per-term logarithmic differentiation,
        summed in the same scaled log space as evaluate() and from the same
        pass.  Points must sit outside every exclusion disc; exact nodes are
        rejected with their own message, since the removable values there
        are derivative data this class does not carry.
        """
        arr = disc_points(z)
        if np.any(self.product.node_index(arr) >= 0):
            raise ValueError("series derivative at an exact node is not "
                             "provided")
        self.product.require_outside_exclusion(arr)
        p = self._pass(arr, derivatives=True)
        return like_input(_unscale(p.log_p, p.scale, p.dtotal, "derivative"),
                          z)

    def log_abs_evaluate(self, z):
        """log|f(z)| computed without leaving log space (-inf at exact
        zeros of the series)."""
        arr = disc_points(z)
        out = np.empty(arr.shape, dtype=float)
        for sel, log_p, sm, total in self._parts(arr):
            with np.errstate(divide="ignore"):
                out[sel] = np.real(log_p) + sm + np.log(np.abs(total))
        return like_input(out, z, float)

    # -- growth ------------------------------------------------------------

    def growth_table(self, r_ladder, samples: int = 1024) -> list[GrowthRow]:
        """Circle maxima of log|f| against the integrated growth scale.

        Each row is (r, max log|f| on |z| = r, psi_tilde(1/(1-r)), ratio).
        The radii are checked before any evaluation; circle_max then scans
        every circle in one call and refines all of them by golden section
        in lockstep, two steps per call with three points per circle (23
        calls in all).  Each value depends on its own point alone (the
        series pass, or the removable form at a node), so each row equals
        the table of its radius alone.
        """
        radii = np.asarray(r_ladder, dtype=float)
        if not np.all((0.0 < radii) & (radii < 1.0)):
            raise ValueError("ladder radii must lie in (0, 1)")
        log_max = circle_max(self.log_abs_evaluate, radii, samples)
        tildes = self.targets.scale.psi_tilde(1.0 / (1.0 - radii))
        rows = []
        for r, lm, tilde in zip(radii, log_max.tolist(), tildes.tolist()):
            ratio = lm / tilde if tilde > 0.0 else math.nan
            rows.append(GrowthRow(float(r), lm, tilde, ratio))
        return rows

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
from that same pass.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .numutil import (circle_nodes, flat_points, golden_section_max,
                      like_input)
from .products import _CHUNK, CanonicalProduct, _poly_part
from .scales import GrowthScale
from .sequences import ZeroSequence

__all__ = [
    "TargetData",
    "InterpolationSeries",
    "GrowthRow",
    "choose_exponents",
    "target_bound_constant",
]


def _scaled_sum(t: np.ndarray, factor=None):
    """Row sums of exp(t - m), and of exp(t - m) * factor when a factor is
    given, with m the row maximum of Re t; nan and infinite entries of t
    contribute 0.  Returns (m, sum, weighted sum or None)."""
    re = np.where(np.isnan(np.real(t)), -math.inf, np.real(t))
    sm = np.max(re, axis=1)
    keep = np.isfinite(t)
    with np.errstate(invalid="ignore"):
        e = np.exp(t - sm[:, None])
        weighted = None if factor is None else \
            np.sum(np.where(keep, e * factor, 0.0), axis=1)
    return sm, np.sum(np.where(keep, e, 0.0), axis=1), weighted


def _unscale(log_p, sm, total, what: str) -> np.ndarray:
    """exp(log P + m) * total; overflow and non-finite values raise
    ValueError naming the series quantity."""
    with np.errstate(invalid="ignore", over="raise"):
        try:
            vals = np.exp(log_p + sm) * total
        except FloatingPointError:
            raise ValueError(f"series {what} overflows binary64") from None
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"series {what} produced a non-finite value")
    return vals


class SeriesPass(NamedTuple):
    """One pass over points x nodes: the series is exp(log_p + scale) * total
    and, when derivatives were asked, its derivative is
    exp(log_p + scale) * dtotal, with lam = P'/P and lam2 = P''/P."""
    log_p: np.ndarray
    scale: np.ndarray
    total: np.ndarray
    dtotal: np.ndarray | None = None
    lam: np.ndarray | None = None
    lam2: np.ndarray | None = None


def target_bound_constant(zeros: ZeroSequence, values, scale: GrowthScale) -> float:
    """sup_k log(1 + |b_k|) / max(psi_tilde(1/(1 - |z_k|)), 1).

    Clamping the denominator at 1 keeps shallow nodes (where the integrated
    scale is still below 1) from blowing the constant up; for the deep nodes
    that drive exponent growth the clamp is inactive.
    """
    vals = np.asarray(values, dtype=complex)
    if vals.shape != zeros.points.shape:
        raise ValueError("one target value per node is required")
    if not np.all(np.isfinite(vals)):
        raise ValueError("target values must be finite")
    x = 1.0 / zeros.gaps()
    denom = np.maximum(np.asarray([scale.psi_tilde(v) for v in x]), 1.0)
    return float(np.max(np.log1p(np.abs(vals)) / denom)) if vals.size else 0.0


class TargetData:
    """Target values pinned to a zero sequence, plus their growth budget."""

    def __init__(self, zeros: ZeroSequence, values, scale: GrowthScale):
        self.zeros = zeros
        self.values = np.asarray(values, dtype=complex)
        self.scale = scale
        self.bound_constant = target_bound_constant(zeros, self.values, scale)

    def __len__(self) -> int:
        return self.values.size


def choose_exponents(product: CanonicalProduct, targets: TargetData,
                     margin: float = 10.0,
                     balance_constant: float | None = None) -> np.ndarray:
    """Per-node damping exponents.

    s_n = s + ceil((margin + C * psi_tilde(1/(1-|z_n|)) + 2 log(n+1)) / log 2)

    with n counted from 1 in modulus order and C the sum of the target
    bound constant and the deleted-product balance constant.  The first
    piece of C absorbs log|b_n|, the second absorbs log(1/|P'(z_n)|) up to
    the bounded convergence sum, and the 2 log(n+1) gives a summable tail.
    Exponents are nondecreasing because the gaps are sorted.
    """
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    if balance_constant is None:
        balance_constant = product.balance_constant(0.5)
    c_hat = targets.bound_constant + balance_constant
    gaps = product.zeros.gaps()
    n_idx = np.arange(1, gaps.size + 1, dtype=float)
    tilde = np.asarray([targets.scale.psi_tilde(1.0 / g) for g in gaps])
    raw = (margin + c_hat * tilde + 2.0 * np.log(n_idx + 1.0)) / math.log(2.0)
    s_n = product.genus + np.ceil(raw).astype(int)
    return s_n


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
        self._log_dp = np.asarray(
            [product.log_derivative_at_zero(k) for k in range(product.z.size)],
            dtype=complex)
        if not np.all(np.isfinite(self._log_dp)):
            raise ValueError("product derivative vanishes at a node; the "
                             "series is undefined")

    @classmethod
    def build(cls, product: CanonicalProduct, targets: TargetData,
              margin: float = 10.0, exponents=None,
              balance_constant: float | None = None) -> "InterpolationSeries":
        if exponents is None:
            exponents = choose_exponents(product, targets, margin,
                                         balance_constant)
        return cls(product, targets, exponents)

    # -- evaluation --------------------------------------------------------

    def _term_logs(self, delta: np.ndarray, den: np.ndarray) -> np.ndarray:
        """log b_n - log P'(z_n) - log(z - z_n) + (s_n - 1) log w_n(z) from
        the product's pieces (delta, den); the shared log P is not added."""
        w = self.product._gap2 / den
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self._log_b - self._log_dp - np.log(delta)
                    + (self.exponents - 1) * np.log(w))

    def _pass(self, pts: np.ndarray, derivatives: bool = False) -> SeriesPass:
        """log P, the scaled term sum and its scale at points outside every
        exclusion disc, _CHUNK points at a time; with derivatives=True also
        the scaled derivative sum, P'/P and P''/P from the same pieces.

        Each term's derivative is the term itself times

            P'/P - 1/(z - z_n) + (s_n - 1) conj(z_n)/(1 - conj(z_n) z).
        """
        prod = self.product
        n = pts.size
        sm = np.full(n, -math.inf)
        log_p, total = np.zeros((2, n), dtype=complex)
        dtotal, lam, lam2 = (np.zeros((3, n), dtype=complex) if derivatives
                             else (None, None, None))
        if prod.z.size == 0:
            return SeriesPass(log_p, sm, total, dtotal, lam, lam2)
        for lo in range(0, n, _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            delta, den = prod._pieces(pts[sl])
            log_p[sl] = np.sum(prod._factor_logs(delta, den), axis=1)
            t = self._term_logs(delta, den)
            if not derivatives:
                sm[sl], total[sl], _ = _scaled_sum(t)
                continue
            L, dL = prod._log_derivatives(delta, den)
            lam[sl] = np.sum(L, axis=1)
            lam2[sl] = lam[sl] * lam[sl] + np.sum(dL, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                factor = (lam[sl, None] - 1.0 / delta
                          + (self.exponents - 1) * (prod._zc / den))
            sm[sl], total[sl], dtotal[sl] = _scaled_sum(t, factor)
        return SeriesPass(log_p, sm, total, dtotal, lam, lam2)

    def _near_node_term_logs(self, k: int, pts: np.ndarray):
        """Per-term logs at points inside the exclusion disc of node k.

        Term k switches to the factored removable form: with
        1 - w_k(z) = -conj(z_k)(z - z_k)/(1 - conj(z_k) z),

            E(w_k, s)/(z - z_k)
                = -conj(z_k)/(1 - conj(z_k) z) * exp(sum_{j<=s} w_k^j / j)

        so the 0/0 at the node never forms; the remaining terms keep the
        generic shape, with log P taken from the factor logs at the offset
        pieces of node k (relative gaps enter exactly, never as a difference
        of near-equal products).  At z = z_k every other term carries
        log P = -inf and drops out, leaving b_k times a ratio of two
        evaluations of the same closed form.
        """
        prod = self.product
        zk = prod.z[k]
        rows = prod._factor_logs(*prod._offset_pieces(k, pts - zk))
        log_ek = rows[:, k].copy()
        rows[:, k] = 0.0
        log_bk = np.sum(rows, axis=1)
        delta, den = prod._pieces(pts)
        wk = prod._gap2[k] / den[:, k]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = self._term_logs(delta, den) + (log_bk + log_ek)[:, None]
            if zk == 0.0:
                fact = np.zeros(pts.shape, dtype=complex)
            else:
                fact = (np.log(-np.conj(zk) / den[:, k])
                        + _poly_part(wk, prod.genus))
            t[:, k] = (self._log_b[k] - self._log_dp[k] + log_bk + fact
                       + (self.exponents[k] - 1) * np.log(wk))
        return t

    def _scaled_parts(self, arr: np.ndarray):
        """Yield (selection, log P, scale, scaled term sum) for the points
        outside every exclusion disc, then for the points near each node,
        where the factored removable form of the node's own term is used
        (log P is already inside those term logs, so 0 is yielded)."""
        bad, idx = self.product.in_exclusion(arr)
        if not np.all(bad):
            p = self._pass(arr[~bad])
            yield ~bad, p.log_p, p.scale, p.total
        for k in np.unique(idx[bad]):
            sel = bad & (idx == k)
            sm, total, _ = _scaled_sum(self._near_node_term_logs(int(k),
                                                                 arr[sel]))
            yield sel, 0.0, sm, total

    def evaluate(self, z):
        """Series values; near-node points (inside an exclusion disc,
        including the nodes themselves) go through the factored removable
        form of their own term.  Values that overflow binary64 raise
        ValueError (log_abs_evaluate stays in log space)."""
        arr = flat_points(z)
        if np.any(np.abs(arr) >= 1.0):
            raise ValueError("evaluation point outside the open disc")
        out = np.empty(arr.shape, dtype=complex)
        for sel, log_p, sm, total in self._scaled_parts(arr):
            out[sel] = _unscale(log_p, sm, total, "value")
        return like_input(out, z)

    def evaluate_derivative(self, z):
        """Series derivative via per-term logarithmic differentiation,
        summed in the same scaled log space as evaluate() and from the same
        pass.  Points must sit outside every exclusion disc; exact nodes are
        rejected with their own message, since the removable values there
        are derivative data this class does not carry.
        """
        arr = flat_points(z)
        if np.any(np.abs(arr) >= 1.0):
            raise ValueError("evaluation point outside the open disc")
        bad, idx = self.product.in_exclusion(arr)
        if np.any(bad):
            if np.any(arr[bad] == self.product.z[idx[bad]]):
                raise ValueError("series derivative at an exact node is not "
                                 "provided")
            self.product.require_outside_exclusion(arr)
        p = self._pass(arr, derivatives=True)
        return like_input(_unscale(p.log_p, p.scale, p.dtotal, "derivative"),
                          z)

    def log_abs_evaluate(self, z):
        """log|f(z)| computed without leaving log space (-inf at exact
        zeros of the series)."""
        arr = flat_points(z)
        if np.any(np.abs(arr) >= 1.0):
            raise ValueError("evaluation point outside the open disc")
        out = np.empty(arr.shape, dtype=float)
        for sel, log_p, sm, total in self._scaled_parts(arr):
            with np.errstate(divide="ignore"):
                out[sel] = np.real(log_p) + sm + np.log(np.abs(total))
        return like_input(out, z, float)

    # -- growth ------------------------------------------------------------

    def growth_table(self, r_ladder, samples: int = 1024) -> list[GrowthRow]:
        """Circle maxima of log|f| against the integrated growth scale.

        Each row is (r, max log|f| on |z| = r, psi_tilde(1/(1-r)), ratio);
        the maximum combines a uniform angular scan with a golden-section
        refinement around the best sample.
        """
        rows = []
        for r in np.asarray(r_ladder, dtype=float):
            if not (0.0 < r < 1.0):
                raise ValueError("ladder radii must lie in (0, 1)")
            theta, unit = circle_nodes(samples)
            vals = self.log_abs_evaluate(r * unit)
            j = int(np.argmax(vals))
            lo = theta[j] - 2.0 * np.pi / samples
            hi = theta[j] + 2.0 * np.pi / samples

            def f(t, _r=r):
                return self.log_abs_evaluate(_r * np.exp(1j * t))

            _, best = golden_section_max(f, lo, hi)
            log_max = max(float(vals[j]), float(best))
            tilde = self.targets.scale.psi_tilde(1.0 / (1.0 - r))
            ratio = log_max / tilde if tilde > 0.0 else math.nan
            rows.append(GrowthRow(float(r), log_max, float(tilde), ratio))
        return rows

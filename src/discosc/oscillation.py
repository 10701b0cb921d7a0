"""Assembly of a coefficient a(z) whose equation f'' + a f = 0 has a
solution vanishing exactly on a prescribed disc sequence.

The solution is built as f = P e^g where P is the canonical product over
the nodes and h = g' is an interpolation series hitting

    b_k = -P''(z_k) / (2 P'(z_k))

at every node.  Substituting f = P e^g into the equation and dividing by
e^g gives P'' + 2 P' h + (h^2 + h') P = -a P, so

    a = -P''/P - 2 h P'/P - h^2 - h',

and the choice of b_k cancels the simple pole of P''/P + 2 h P'/P at each
node: a extends analytically across the whole disc.  Everything here is
organised around that identity -- building the bundle, checking the
cancellation by an independent contour route, evaluating a and f, scoring
the ODE residual, measuring growth against the prescribed scale, counting
zeros by the argument principle, and computing the clustered-block witness
that shows how fast the log-derivative must blow up when separation fails.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, NamedTuple

import numpy as np

from .geometry import carleson_box_table
from .interpolation import (GrowthRow, InterpolationSeries, TargetData,
                            _unscale)
from .numutil import (TWO_PI, adaptive_segment_integral, circle_modes,
                      circle_nodes, flat_points, golden_section_max,
                      like_input, nested_circle, one_minus_abs2, sample_disc,
                      wrap_angle)
from .products import _CHUNK, CanonicalProduct
from .scales import GrowthScale, genus_from_scale
from .sequences import SharpnessParams, ZeroSequence

__all__ = [
    "OscillationBundle",
    "ResidueCancellationError",
    "WitnessReport",
    "ZeroCountReport",
    "anorm_estimate",
    "build_coefficient",
    "log_derivative_envelope",
    "node_targets",
    "sample_probes",
    "sharpness_witness",
    "targets_from_product",
]

class ResidueCancellationError(RuntimeError):
    """The series target disagrees with the contour value of -P''/(2P') at
    some node, so the assembled coefficient would have a pole there."""

    def __init__(self, node: int, mismatch: float, tol: float):
        self.node = node
        self.mismatch = mismatch
        self.tol = tol
        super().__init__(
            f"residue cancellation failed at node {node}: "
            f"mismatch {mismatch:.3e} exceeds {tol:g}")


# ---------------------------------------------------------------------------
# node targets


def node_targets(product: CanonicalProduct) -> np.ndarray:
    """b_k = -P''(z_k)/(2 P'(z_k)) for every node, in closed form.

    P'/P = sum_n L_n with L_n = -u_n w_n^{s+1}/(1 - w_n) and
    u_n = conj(z_n)/(1 - conj(z_n) z); at node k the deleted sum over
    n != k stays finite and the factor-k limit contributes
    -(s+1) conj(z_k)/(1 - |z_k|^2), which together give P''/(2P') there.
    A node at the origin enters as a plain factor z: its column is 1/z_k
    and its own limit term vanishes.
    """
    z = product.z
    n = z.size
    if n == 0:
        return np.zeros(0, dtype=complex)
    s = product.genus
    zc = product._zc
    gap2 = product._gap2
    out = np.empty(n, dtype=complex)
    for lo in range(0, n, _CHUNK):
        delta, den = product._pieces(z[lo:lo + _CHUNK])
        omw = -zc * delta / den
        # -u w^(s+1) / (1 - w) with u = conj(z_n)/den and w taken from
        # 1 - |z_n|^2 directly; only these first-derivative terms are formed,
        # and inline, since at N x N every extra matrix shows in peak memory
        with np.errstate(divide="ignore", invalid="ignore"):
            L = -(zc / den) * (gap2 / den) ** (s + 1) / omw
            if np.any(product._origin):
                L[:, product._origin] = 1.0 / delta[:, product._origin]
        rows = np.arange(lo, min(lo + _CHUNK, n))
        L[rows - lo, rows] = 0.0
        out[lo:lo + _CHUNK] = -np.sum(L, axis=1)
    out -= (s + 1) * zc / gap2
    return out


def targets_from_product(product: CanonicalProduct,
                         scale: GrowthScale) -> TargetData:
    """Interpolation targets -P''/(2P') pinned to the product's nodes."""
    return TargetData(product.zeros, node_targets(product), scale)


# ---------------------------------------------------------------------------
# bundle


class OscillationBundle:
    """Product, log-derivative series, and growth scale, assembled so that
    a = -P''/P - 2hP'/P - h^2 - h' is analytic across the nodes."""

    def __init__(self, product: CanonicalProduct, gprime: InterpolationSeries,
                 scale: GrowthScale, margin: float,
                 residue_mismatch: np.ndarray,
                 integration_base: complex = 0j):
        self.product = product
        self.gprime = gprime
        self.scale = scale
        self.margin = margin
        self.residue_mismatch = residue_mismatch
        self.integration_base = complex(integration_base)

    @property
    def genus(self) -> int:
        return self.product.genus

    @property
    def targets(self) -> TargetData:
        return self.gprime.targets

    # -- coefficient -------------------------------------------------------

    def _coefficient_direct(self, pts: np.ndarray) -> np.ndarray:
        """a = -P''/P - 2 h P'/P - h^2 - h' at points outside every
        exclusion disc, from one pass of the series over points x nodes."""
        self.product.require_outside_exclusion(pts)
        p = self.gprime._pass(pts, derivatives=True)
        h = _unscale(p.log_p, p.scale, p.total, "value")
        hp = _unscale(p.log_p, p.scale, p.dtotal, "derivative")
        return -p.lam2 - 2.0 * h * p.lam - h * h - hp

    def _recover_at_node(self, k: int, z0s: np.ndarray,
                         rel_tol: float = 1e-7,
                         max_points: int = 2048) -> np.ndarray:
        """Cauchy means of a over a circle around node k for the given
        interior points; one shared contour serves them all."""
        zk = self.product.z[k]
        r = 1.5 * float(self.product.exclusion_radii[k])
        prev = None
        for _, unit, vals in nested_circle(
                lambda unit: self._coefficient_direct(zk + r * unit),
                max_points):
            kern = (r * unit)[None, :] / ((zk + r * unit)[None, :]
                                          - z0s[:, None])
            cur = np.mean(vals[None, :] * kern, axis=1)
            if prev is not None and np.all(
                    np.abs(cur - prev) <= rel_tol * (np.abs(cur) + 1e-300)):
                return cur
            prev = cur
        raise RuntimeError(
            f"coefficient recovery circle at node {k} did not converge "
            f"within {max_points} points")

    def eval_coefficient(self, z):
        """a(z) anywhere in the open disc.

        Outside the exclusion discs the defining formula is summed
        factor-wise in log space; inside an exclusion disc the value is
        recovered from the Cauchy integral of a over a circle around the
        node (a is analytic there by residue cancellation, while the raw
        formula is a catastrophic 0/0).
        """
        arr = flat_points(z)
        if np.any(np.abs(arr) >= 1.0):
            raise ValueError("evaluation point outside the open disc")
        out = np.empty(arr.shape, dtype=complex)
        bad, idx = self.product.in_exclusion(arr)
        good = ~bad
        if np.any(good):
            out[good] = self._coefficient_direct(arr[good])
        if np.any(bad):
            for k in np.unique(idx[bad]):
                sel = bad & (idx == k)
                out[sel] = self._recover_at_node(int(k), arr[sel])
        return like_input(out, z)

    # -- solution ----------------------------------------------------------

    def g(self, z, tol: float = 1e-12):
        """Antiderivative of h along straight segments from the base point
        (default 0), so g(0) = 0; path independence is free since h is
        analytic in the disc."""
        arr = flat_points(z)
        if np.any(np.abs(arr) >= 1.0):
            raise ValueError("evaluation point outside the open disc")
        out = np.empty(arr.shape, dtype=complex)
        for j, zj in enumerate(arr):
            out[j] = adaptive_segment_integral(
                self.gprime.evaluate, self.integration_base, complex(zj), tol)
        return like_input(out, z)

    def log_solution(self, z):
        """Complex log of f = P e^g (principal per-factor branches summed);
        real part is exact log|f|.  -inf real part at nodes."""
        arr = flat_points(z)
        return like_input(self.product._raw_log_eval(arr) + self.g(arr), z)

    def eval_solution(self, z):
        """f(z) = P(z) e^{g(z)}; exactly 0 at the nodes."""
        arr = flat_points(z)
        with np.errstate(over="raise"):
            try:
                vals = np.exp(self.log_solution(arr))
            except FloatingPointError:
                raise ValueError("solution value overflows binary64; use "
                                 "log_solution for growth work")
        vals[np.isin(arr, self.product.z)] = 0.0
        return like_input(vals, z)

    # -- ODE residual ------------------------------------------------------

    @staticmethod
    def _spoke_integrals(z0: complex, zeta: np.ndarray,
                         hv: np.ndarray) -> np.ndarray:
        """g(zeta_j) - g(z0) on the trapezoid circle
        zeta_j = z0 + r e^{i theta_j}, theta_j = 2 pi j / m, from the values
        hv_j = h(zeta_j) on that circle alone.

        h is analytic on the closed disc |z - z0| <= r, so the FFT of its
        circle values gives c_k ~ h_k r^k, the Taylor coefficients of h at
        z0 scaled to the circle (exponentially accurate: Trefethen &
        Weideman, SIAM Rev. 2014).  Integrating term by term,

            g(zeta) - g(z0) = sum_k c_k r e^{i(k+1) theta} / (k+1),

        which one inverse FFT evaluates at every circle point.  Only values
        of h enter, never the closed-form coefficient.  The accuracy is
        judged by the caller's drift test on f''.
        """
        k = np.arange(hv.size)
        return (zeta - z0) * np.fft.ifft(np.fft.fft(hv) / (k + 1))

    def _solution_rounds(self, z0: complex, r: float, max_points: int):
        """Yield (theta, log f(zeta) - g(z0)) on the nested_circle rounds
        of zeta = z0 + r e^{i theta}, taking log P and h once per point."""
        def log_p_and_h(unit):
            zeta = z0 + r * unit
            return np.stack([self.product._raw_log_eval(zeta),
                             self.gprime.evaluate(zeta)])

        for theta, unit, (log_p, hv) in nested_circle(log_p_and_h,
                                                       max_points):
            zeta = z0 + r * unit
            yield theta, log_p + self._spoke_integrals(z0, zeta, hv)

    def _probe_residual(self, z0: complex, a0: complex,
                        rel_tol: float = 1e-7,
                        max_points: int = 1024) -> float:
        """|f'' + a f| / (|f''| + |a f| + 1e-300) at one probe.

        f'' comes from a trapezoid contour second derivative on a circle
        around z0; the shared factor e^{g(z0)} cancels in the ratio, so only
        g relative to z0 is needed, which _spoke_integrals takes from the
        FFT of h on the same circle.  The nested_circle rounds (64, 128, ...
        points) run until f'' drifts by at most rel_tol between rounds.  The
        circle radius starts at min((1-|z0|)/8, half the distance to the
        nearest node) and is capped by the local log-derivative scale of f:
        where |a| is large, Re log f would otherwise swing by hundreds across
        the circle and the second Fourier mode of f drowns in the rounding
        floor of the peak values.  A circle too small to be placed in
        binary64 around z0 raises RuntimeError naming the probe and radius.
        """
        _, dist = self.product.nearest_node(np.asarray([z0]))
        r = (1.0 - abs(z0)) / 8.0
        if np.isfinite(dist[0]) and dist[0] > 0.0:
            r = min(r, float(dist[0]) / 2.0)
        d1 = abs(self.product.log_derivative_sums(z0)[0]
                 + self.gprime.evaluate(z0))
        r = min(r, 1.0 / (d1 + 1.0), 1.0 / math.sqrt(abs(a0) + 1.0))
        log_f0 = complex(self.product._raw_log_eval(np.asarray([z0]))[0])
        rounds = self._solution_rounds(z0, r, max_points)
        first = next(rounds)
        shrinks = 0
        while shrinks < 30 and np.ptp(first[1].real) > 30.0:
            # caps missed (e.g. near a zero of a); shrink until the
            # circle's dynamic range is resolvable in binary64
            r *= 0.5
            shrinks += 1
            rounds = self._solution_rounds(z0, r, max_points)
            first = next(rounds)
        # z0 + r e^{i theta} is placed to about eps |z0|, a fraction
        # blur = eps |z0| / r of the radius, so each sample of f is off by
        # up to about blur of the circle maximum (the caps keep r |f'|
        # below that scale).  The second mode averages m <= max_points
        # samples, which leaves an error of at least about blur / m unless
        # the rounding errors cancel exactly; past blur = rel_tol *
        # max_points that floor exceeds the rel_tol the drift test
        # certifies f'' to.  Far smaller circles (blur >~ 1) collapse onto
        # a few binary64 points, where f'' reads ~0 and the drift test
        # would pass a residual of 1.
        blur = float(np.finfo(float).eps) * abs(z0) / r
        if blur > rel_tol * max_points:
            raise RuntimeError(
                f"ODE residual probe {z0:.6g}: circle radius {r:.3e} is "
                f"below binary64 resolution (eps*|z0|/r = {blur:.2e} "
                f"exceeds {rel_tol * max_points:.3g})")
        prev = None
        for theta, logf in itertools.chain([first], rounds):
            scale, (mode,) = circle_modes(theta, logf, (2,))
            fpp = 2.0 * mode / r ** 2
            f0 = np.exp(log_f0 - scale)
            num = abs(fpp + a0 * f0)
            den = abs(fpp) + abs(a0 * f0) + 1e-300
            if prev is not None:
                ps, pf = prev
                drift = abs(pf * np.exp(ps - scale) - fpp)
                if drift <= rel_tol * (abs(fpp) + abs(a0 * f0)) + 1e-300:
                    return float(num / den)
            prev = (scale, fpp)
        raise RuntimeError(
            f"solution contour at probe {z0:.6g} did not converge "
            f"within {max_points} points")

    def ode_residual(self, probes, rel_tol: float = 1e-7) -> float:
        """Worst relative ODE defect over the probes.

        Probes must satisfy |z| <= 0.95 and sit outside every exclusion
        disc (sample_probes produces such sets).
        """
        arr = np.atleast_1d(np.asarray(probes, dtype=complex))
        if np.any(np.abs(arr) > 0.95):
            raise ValueError("probes must satisfy |z| <= 0.95")
        self.product.require_outside_exclusion(arr, "probe")
        a_vals = np.atleast_1d(self._coefficient_direct(arr))
        worst = 0.0
        for z0, a0 in zip(arr, a_vals):
            worst = max(worst,
                        self._probe_residual(complex(z0), complex(a0),
                                             rel_tol))
        return worst

    # -- growth ------------------------------------------------------------

    def coefficient_growth_table(self, r_ladder, samples: int = 1024,
                                 comparator: str = "auto") -> list[GrowthRow]:
        """Circle maxima of log|a| against the growth comparator.

        comparator "psi-tilde" uses the integrated scale at 1/(1-r);
        "weight" uses the attached radial weight h(r) (available when the
        scale came from a weight); "auto" picks the weight when present.
        """
        if comparator == "auto":
            comparator = "weight" if hasattr(self.scale, "weight") \
                else "psi-tilde"
        if comparator not in ("psi-tilde", "weight"):
            raise ValueError("comparator must be psi-tilde, weight, or auto")
        if comparator == "weight" and not hasattr(self.scale, "weight"):
            raise ValueError("scale carries no radial weight")
        rows = []
        for r in np.asarray(r_ladder, dtype=float):
            if not (0.0 < r <= 0.995):
                raise ValueError("ladder radii must lie in (0, 0.995]")
            theta, unit = circle_nodes(samples)
            vals = np.abs(self.eval_coefficient(r * unit))
            j = int(np.argmax(vals))

            def fmax(t, _r=r):
                return abs(self.eval_coefficient(_r * np.exp(1j * t)))

            _, best = golden_section_max(
                fmax, theta[j] - TWO_PI / samples, theta[j] + TWO_PI / samples)
            amax = max(float(vals[j]), float(best))
            log_max = math.log(amax) if amax > 0.0 else -math.inf
            if comparator == "weight":
                comp = float(self.scale.weight.h(r))
            else:
                comp = self.scale.psi_tilde(1.0 / (1.0 - r))
            ratio = log_max / comp if comp > 0.0 else math.nan
            rows.append(GrowthRow(float(r), log_max, comp, ratio))
        return rows

    # -- zero counting -----------------------------------------------------

    def count_zeros(self, radius: float = 0.9, cell: float = 0.045,
                    samples: int = 512, max_samples: int = 8192,
                    winding_tol: float = 0.02) -> "ZeroCountReport":
        return _count_zeros(self, radius, cell, samples, max_samples,
                            winding_tol)

    # -- Carleson density --------------------------------------------------

    def carleson_density(self) -> Callable[[np.ndarray], np.ndarray]:
        """Density |a(zeta)|^2 (1 - |zeta|^2)^3 as a quadrature callable."""

        def density(zeta: np.ndarray) -> np.ndarray:
            a = np.atleast_1d(self.eval_coefficient(zeta))
            return np.abs(a) ** 2 * one_minus_abs2(zeta) ** 3

        return density

    def carleson_table(self, deltas, angular_samples: int = 8):
        """carleson_box_table of carleson_density on the default grid.

        Fixed-grid midpoint estimates with no accuracy control: on the
        nested boxes a resolved table obeys
        ratio(delta) <= (delta'/delta) * ratio(delta') for delta < delta',
        and a table that breaks this is unresolved.
        """
        return carleson_box_table(self.carleson_density(), deltas,
                                  angular_samples)


# ---------------------------------------------------------------------------
# construction


def _node_residue_mismatch(product: CanonicalProduct, b_k: complex,
                           k: int) -> float:
    """|P'' + 2 P' b_k| relative to |P''| + |2 P' b_k| at node k.

    Both derivatives come from the product's node_modes contour on the
    exclusion circle, m1 = P' r / S and m2 = P'' r^2 / (2S) in units of
    the circle maximum S, so the invariant becomes |m2 + r b_k m1| against
    |m2| + |r b_k m1|.  Ring-symmetric configurations can make both sides
    vanish to machine precision (the residue is then genuinely zero); the
    1e-8 floor, in units of S, absorbs that degenerate case without
    loosening the check anywhere the terms are resolvable.
    """
    _, m1, m2 = product.node_modes(k)
    cross = float(product.exclusion_radii[k]) * b_k * m1
    return float(abs(m2 + cross) / (abs(m2) + abs(cross) + 1e-8))


def build_coefficient(zeros: ZeroSequence, scale: GrowthScale,
                      margin: float = 10.0, genus: int | None = None,
                      residue_tol: float = 1e-6,
                      exponents=None) -> OscillationBundle:
    """Full pipeline: product -> targets -> series -> residue check.

    The residue check recomputes the cancellation P'' + 2 P' b at every
    node from an independent contour on the exclusion circle; disagreement
    beyond residue_tol raises ResidueCancellationError naming the node.
    """
    if genus is None:
        genus = genus_from_scale(scale)
    product = CanonicalProduct(zeros, genus)
    targets = targets_from_product(product, scale)
    series = InterpolationSeries.build(product, targets, margin,
                                       exponents=exponents)
    n = product.z.size
    mism = np.zeros(n, dtype=float)
    for k in range(n):
        mism[k] = _node_residue_mismatch(product, complex(targets.values[k]),
                                         k)
    if n and float(np.max(mism)) > residue_tol:
        k = int(np.argmax(mism))
        raise ResidueCancellationError(k, float(mism[k]), residue_tol)
    return OscillationBundle(product, series, scale, margin, mism)


# ---------------------------------------------------------------------------
# probes and diagnostics


def sample_probes(product: CanonicalProduct, rng: np.random.Generator,
                  count: int, r_max: float = 0.9) -> np.ndarray:
    """Uniform disc probes rejected out of the exclusion discs."""
    out: list[complex] = []
    while len(out) < count:
        cand = sample_disc(rng, count, r_max)
        bad, _ = product.in_exclusion(cand)
        for zj in cand[~bad]:
            out.append(complex(zj))
            if len(out) == count:
                break
    return np.asarray(out, dtype=complex)


def anorm_estimate(evaluator: Callable, p: float, grid) -> float:
    """Finite-grid lower estimate of sup (1-|z|^2)^p |evaluator(z)|."""
    if p <= 0.0:
        raise ValueError("norm exponent must be positive")
    arr = np.atleast_1d(np.asarray(grid, dtype=complex))
    if np.any(np.abs(arr) >= 1.0):
        raise ValueError("grid points must be interior")
    vals = np.abs(np.atleast_1d(evaluator(arr)))
    return float(np.max(one_minus_abs2(arr) ** p * vals)) if arr.size else 0.0


def log_derivative_envelope(product: CanonicalProduct, radii,
                            samples: int = 512):
    """Fitted polynomial envelope for |P'/P| and |P''/P| circle maxima.

    Returns (q1, q2, rows); rows are (r, max|P'/P|, max|P''/P|) over circle
    samples outside the exclusion discs, and q1, q2 are least-squares
    slopes of the log maxima against log(1/(1-r)).
    """
    rows = []
    for r in np.asarray(radii, dtype=float):
        pts = r * circle_nodes(samples)[1]
        bad, _ = product.in_exclusion(pts)
        lam, lam2 = product.log_derivative_sums(pts[~bad])
        rows.append((float(r), float(np.max(np.abs(lam))),
                     float(np.max(np.abs(lam2)))))
    x = np.log([1.0 / (1.0 - r) for r, _, _ in rows])
    q1 = float(np.polyfit(x, np.log([m1 for _, m1, _ in rows]), 1)[0])
    q2 = float(np.polyfit(x, np.log([m2 for _, _, m2 in rows]), 1)[0])
    return q1, q2, rows


# ---------------------------------------------------------------------------
# sharpness witness


class WitnessReport(NamedTuple):
    n: int
    m: int
    eps: float
    i1: complex
    i1_abs: float
    i1_floor: float
    i2: complex
    i2_abs: float
    i2_upper: float
    logderiv: complex


def _block_offsets(params: SharpnessParams, j: int):
    """(m_j, eps_j, base gap 3^-j, offsets k eps/m) straight from the
    defining formulas; no sequence materialisation, so the exact requested
    widths survive even where they sit below the binary64 grid near 1."""
    m = params.block_count(j)
    u = 3.0 ** (-j)
    if m == 0:
        return 0, 0.0, u, np.zeros(0)
    eps = params.block_width(j)
    k = np.arange(m, dtype=float)
    return m, eps, u, k * eps / m


def sharpness_witness(params: SharpnessParams, n: int,
                      tail_rel: float = 1e-14) -> WitnessReport:
    """Log-derivative witness at the base point of block n.

    I1 sums the same-block terms 1/(z_{n,0} - z_{n,k}) weighted by
    (1 - |z_{n,k}|^2)/(1 - conj(z_{n,k}) z_{n,0}); I2 sums the cross-block
    terms, with the analytic generator tail appended past the last block
    that contributes at relative tail_rel.  i1_floor is the closed bound
    (1/2)(m_n/eps_n) H_{m_n - 1} and i2_upper the cross-block majorant
    sum_{j<n} 4 m_j/(1-|z_{j,0}|) + sum_{j>n,k} 4(1-|z_{j,k}|)/(1-|z_{n,0}|)^2.

    All node coordinates enter through their boundary gaps u = 1 - z, so
    differences like z_{n,0} - z_{n,k} = -k eps/m are exact even when the
    block widths fall below the floating-point spacing near 1.
    """
    if not (2 <= n <= params.n_max):
        raise ValueError(f"block index must lie in [2, {params.n_max}]")
    if (n * math.log(3.0)) ** (1.0 + params.eta2) > 600.0:
        raise ValueError(
            f"block {n} width underflows binary64; the witness is out of "
            f"desk range for these parameters")
    m, eps, u0, offs = _block_offsets(params, n)
    if m < 2:
        raise ValueError(
            f"block {n} holds {m} point(s); the witness needs at least 2")
    k = np.arange(1, m, dtype=float)
    a_k = offs[1:]
    u_k = u0 - a_k
    num = u_k * (2.0 - u_k)
    den = u_k + u0 - u_k * u0
    i1 = complex(np.sum((-1.0 / a_k) * (num / den)))
    i1_floor = 0.5 * (m / eps) * float(np.sum(1.0 / k))

    i2 = 0.0
    i2_upper = 0.0
    # earlier blocks: every point, exact formulas
    for j in range(1, n):
        mj, epsj, uj, offsj = _block_offsets(params, j)
        if mj == 0:
            continue
        u_jk = uj - offsj
        delta = u0 - u_jk                       # z_{j,k} - z_{n,0}
        den_jk = u_jk + u0 - u_jk * u0
        i2 += float(np.sum((1.0 / delta) * (u_jk * (2.0 - u_jk) / den_jk)))
        i2_upper += 4.0 * mj / uj
    # later blocks: run until the terms fall below tail_rel of the sums
    j = n + 1
    while True:
        mj = params.block_count(j)
        if mj:
            tau = (j * math.log(3.0)) ** (1.0 + params.eta2)
            epsj = math.exp(-tau) if tau <= 700.0 else 0.0
            uj = 3.0 ** (-j)
            offsj = np.arange(mj, dtype=float) * (epsj / mj)
            u_jk = uj - offsj
            delta = u0 - u_jk
            den_jk = u_jk + u0 - u_jk * u0
            i2 += float(np.sum((1.0 / delta) *
                               (u_jk * (2.0 - u_jk) / den_jk)))
            term_up = 4.0 * float(np.sum(u_jk)) / u0 ** 2
            i2_upper += term_up
            if j > n + 4 and term_up <= tail_rel * i2_upper:
                break
        if j > n + 500:
            break
        j += 1
    i2 = complex(i2)
    return WitnessReport(n=n, m=m, eps=eps, i1=i1, i1_abs=abs(i1),
                         i1_floor=i1_floor, i2=i2, i2_abs=abs(i2),
                         i2_upper=i2_upper, logderiv=i1 + i2)


# ---------------------------------------------------------------------------
# argument-principle zero count


class ZeroCountReport(NamedTuple):
    winding: float
    count: int
    nodes_inside: int
    matches: bool
    cells: int
    edges: int
    samples: int
    h_loop: complex
    offset: tuple


def _grid_offset(coords: np.ndarray, cell: float) -> float:
    """Offset in [0, cell) putting grid lines as far as possible from the
    given coordinates (so no winding edge passes near a zero)."""
    best, best_d = 0.0, -1.0
    for k in range(16):
        off = cell * k / 16.0
        if coords.size == 0:
            return off
        frac = np.abs(((coords - off) / cell + 0.5) % 1.0 - 0.5)
        d = float(np.min(frac))
        if d > best_d:
            best, best_d = off, d
    return best


def _count_zeros(bundle: OscillationBundle, radius: float, cell: float,
                 samples: int, max_samples: int,
                 winding_tol: float) -> ZeroCountReport:
    """Winding of f = P e^g around a polyomino of grid cells covering the
    closed disc of the given radius.

    The boundary is the set of cell edges with exactly one kept neighbour,
    directed counterclockwise; along each edge the increment of arg f is
    the wrapped increment of Im log P plus Im of the integral of h.  The
    point count doubles until the total winding is within winding_tol of
    an integer.
    """
    if not (0.0 < radius < 1.0):
        raise ValueError("radius must lie in (0, 1)")
    z = bundle.product.z
    near = z[np.abs(z) <= radius + 2.0 * cell] if z.size else z
    ox = _grid_offset(np.real(near), cell)
    oy = _grid_offset(np.imag(near), cell)

    i0 = int(math.floor((-radius - ox) / cell)) - 1
    i1 = int(math.ceil((radius - ox) / cell)) + 1
    j0 = int(math.floor((-radius - oy) / cell)) - 1
    j1 = int(math.ceil((radius - oy) / cell)) + 1
    ii, jj = np.meshgrid(np.arange(i0, i1 + 1), np.arange(j0, j1 + 1),
                         indexing="ij")
    x_lo = ox + ii * cell
    y_lo = oy + jj * cell
    # nearest point of each cell to the origin
    nx = np.clip(0.0, x_lo, x_lo + cell)
    ny = np.clip(0.0, y_lo, y_lo + cell)
    kept = np.hypot(nx, ny) <= radius

    def neighbor(di: int, dj: int) -> np.ndarray:
        """kept status of the cell displaced by (di, dj)."""
        out = np.zeros_like(kept)
        ni, nj = kept.shape
        out[max(-di, 0):ni + min(-di, 0), max(-dj, 0):nj + min(-dj, 0)] = \
            kept[max(di, 0):ni + min(di, 0), max(dj, 0):nj + min(dj, 0)]
        return out

    edges = []  # (start, end) complex, CCW around kept region
    for (di, dj, s0, s1) in (
            (0, -1, 0j, 1.0),          # bottom: left -> right
            (1, 0, 1.0, 1.0 + 1j),     # right: bottom -> top
            (0, 1, 1.0 + 1j, 1j),      # top: right -> left
            (-1, 0, 1j, 0j)):          # left: top -> bottom
        open_side = kept & ~neighbor(di, dj)
        xs = x_lo[open_side]
        ys = y_lo[open_side]
        corners = xs + 1j * ys
        edges.extend(zip(corners + cell * s0, corners + cell * s1))
    if not edges:
        raise ValueError("no cells intersect the requested disc")
    starts = np.asarray([e[0] for e in edges])
    ends = np.asarray([e[1] for e in edges])

    # h contribution: one adaptive integral per edge, fixed across
    # refinements of the log-product sampling
    h_ints = np.asarray([
        adaptive_segment_integral(bundle.gprime.evaluate, complex(a),
                                  complex(b), 1e-9)
        for a, b in zip(starts, ends)])
    h_im = float(np.sum(np.imag(h_ints)))
    h_loop = complex(np.sum(h_ints))

    m = samples
    while m <= max_samples:
        t = np.arange(m + 1) / m
        pts = starts[:, None] + (ends - starts)[:, None] * t[None, :]
        logs = bundle.product._raw_log_eval(pts.ravel()).reshape(pts.shape)
        dim = wrap_angle(np.diff(np.imag(logs), axis=1))
        total = (float(np.sum(dim)) + h_im) / TWO_PI
        nearest = round(total)
        if abs(total - nearest) <= winding_tol:
            count = int(nearest)
            inside = 0
            if z.size:
                ci = np.floor((np.real(z) - ox) / cell).astype(int) - i0
                cj = np.floor((np.imag(z) - oy) / cell).astype(int) - j0
                ok = (ci >= 0) & (ci < kept.shape[0]) & \
                     (cj >= 0) & (cj < kept.shape[1])
                inside = int(np.sum(kept[ci[ok], cj[ok]]))
            return ZeroCountReport(
                winding=total, count=count, nodes_inside=inside,
                matches=count == inside, cells=int(np.sum(kept)),
                edges=len(edges), samples=m, h_loop=h_loop,
                offset=(ox, oy))
        m *= 2
    raise RuntimeError(
        f"winding total failed to settle near an integer within "
        f"{max_samples} samples per edge")

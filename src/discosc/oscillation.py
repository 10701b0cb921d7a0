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
# golden_section_max is looked up here by bench/tracer.py
from .numutil import (CONTOUR_MAX_POINTS, TWO_PI,  # noqa: F401
                      adaptive_segment_integral, circle_max, circle_modes,
                      circle_nodes, disc_points, flat_points,
                      golden_section_max, like_input, nested_circle,
                      one_minus_abs2, sample_disc, wrap_angle)
from .products import CanonicalProduct
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


# largest grid of the zero-count circle; the N = 368 rho-lattice at radius
# 0.9 settles at 4096 points
WINDING_MAX_POINTS = 2 ** 16
# relative drift between rounds at which the f'' of an ODE-residual probe
# stops (its circle stops at CONTOUR_MAX_POINTS)
CONTOUR_REL_TOL = 1e-7
# coordinates below this modulus count as 0 where eval_coefficient matches
# points to nodes; 1/(z - z_k) overflows once |z - z_k| < 2^-1024 or so
NODE_SNAP = 2.0 ** -968
# consecutive probe candidates in exclusion discs after which sample_probes
# gives up: a part of 1e-4 of the probe disc left uncovered is missed with
# probability e^-10
PROBE_MAX_REJECTED = 10 ** 5


def _require_finite(a: np.ndarray) -> None:
    """Values of a beyond binary64 come out infinite or nan: refuse them
    by name, as the series refuses its own."""
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficient a overflows binary64")


class ZeroCountReport(NamedTuple):
    winding: float
    count: int
    nodes_inside: int
    matches: bool
    radius: float
    samples: int


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
    s = product.genus
    zc = product._zc
    gap2 = product._gap2
    out = np.empty(z.size, dtype=complex)
    for sl, delta, den in product._blocks(z):
        omw = -zc * delta / den
        # -u w^(s+1) / (1 - w) with u = conj(z_n)/den and w taken from
        # 1 - |z_n|^2 directly; only these first-derivative terms are formed,
        # and inline, since at N x N every extra matrix shows in peak memory
        with np.errstate(divide="ignore", invalid="ignore"):
            L = -(zc / den) * (gap2 / den) ** (s + 1) / omw
            i = product._origin_idx
            if i is not None:
                L[:, i] = 1.0 / delta[:, i]
        rows = np.arange(len(delta))
        L[rows, sl.start + rows] = 0.0
        out[sl] = -np.sum(L, axis=1)
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
                 scale: GrowthScale, residue_mismatch: np.ndarray):
        self.product = product
        self.gprime = gprime
        self.scale = scale
        self.residue_mismatch = residue_mismatch

    @property
    def genus(self) -> int:
        return self.product.genus

    @property
    def targets(self) -> TargetData:
        return self.gprime.targets

    # -- coefficient -------------------------------------------------------

    def _coefficient(self, pts: np.ndarray):
        """(pass, h, a) at points other than the nodes, from one derivative
        pass of the series over points x nodes.

        Outside the exclusion discs a = -P''/P - 2 h P'/P - h^2 - h'.  In
        the disc of node k, with P = u Q, u = z - z_k and F = Q'/Q + h,

            a = -(F^2 + F' + 2 F/u),

        which has no pole: F(z_k) = 0 since b_k = -Q'(z_k)/Q(z_k).  F and F'
        come from the pass, free of the node's pole (see SeriesPass).
        Values of a beyond binary64 raise ValueError, as the series' own
        do."""
        p = self.gprime._pass(pts, derivatives=True)
        h = _unscale(p.log_p, p.scale, p.total, "value")
        hp = _unscale(p.log_p, p.scale, p.dtotal, "derivative")
        inside = p.node >= 0
        with np.errstate(over="ignore", invalid="ignore"):
            a = -(p.lam * p.lam + p.dlam) - 2.0 * h * p.lam - h * h - hp
            if np.any(inside):
                a[inside] = self._coefficient_in_discs(
                    pts[inside], p.node[inside], p.lam[inside],
                    p.dlam[inside], h[inside], hp[inside])
        _require_finite(a)
        return p, h, a

    def _coefficient_in_discs(self, pts, k, lam, dlam, h, hp):
        """-(F^2 + F' + 2 F/u) in the discs of the nodes k (see
        _coefficient), with F = lam + h and F' = dlam + hp.

        F carries a rounding of about eps (S_k + |h|), S_k the sum of the
        moduli behind Q'/Q at z_k (see _node_jets), which F/u divides by
        |u|.  The node jets give F/u = F' + F'' u/2 + F^(3) u^2/6 + O(u^3)
        instead.  F is analytic within 4 r_k of z_k (the other nodes are at
        least that far, the unit circle twice as far), so the next term is
        about |F^(3) u^2/6| |u|/(4 r_k).  Each point takes the route with
        the smaller of the two: the jets at the points closest to the node,
        where a Cauchy mean of a would lose digits across its wide dynamic
        range near deep nodes (Austin, Kravanja & Trefethen, SIAM J. Numer.
        Anal. 52, 2014)."""
        u = pts - self.product.z[k]
        f, fp = lam + h, dlam + hp
        nodes, where = np.unique(k, return_inverse=True)
        jets, scale = self.gprime._node_jets(nodes)
        f1, f2, f3 = jets[:, where]
        jet = (np.abs(f3) * np.abs(u) ** 4
               <= 24.0 * self.product.exclusion_radii[k]
               * np.finfo(float).eps * (scale[where] + np.abs(h)))
        fu = np.empty(u.shape, dtype=complex)
        fu[~jet] = f[~jet] / u[~jet]
        uj = u[jet]
        fu[jet] = f1[jet] + uj * (0.5 * f2[jet] + uj * f3[jet] / 6.0)
        return -(f * f + fp + 2.0 * fu)

    def eval_coefficient(self, z):
        """a(z) anywhere in the open disc.

        One derivative pass of the series takes every point but the nodes
        (_coefficient): outside the exclusion discs the defining formula,
        inside the disc of node k the same pass with the node's pole
        divided out of P, and F/u from the jets of F at z_k where it would
        cancel.  At node z_k itself F vanishes and a = -3 F'(z_k), from
        the jets alone.  a is analytic across the nodes by residue
        cancellation, so no contour is needed.

        A coordinate below NODE_SNAP in modulus counts as 0 when the points
        are matched to the nodes: a point that then matches z_k, where
        1/(z - z_k) may overflow, takes a(z_k), which differs from a(z) by
        about |z - z_k| |a'|, far below binary64 resolution.
        """
        arr = disc_points(z)
        out = np.empty(arr.shape, dtype=complex)
        snap = arr.copy()
        snap.real[np.abs(snap.real) < NODE_SNAP] = 0.0
        snap.imag[np.abs(snap.imag) < NODE_SNAP] = 0.0
        k = self.product.node_index(snap)
        at = k >= 0
        if not np.all(at):
            out[~at] = self._coefficient(arr[~at])[2]
        if np.any(at):
            nodes, where = np.unique(k[at], return_inverse=True)
            with np.errstate(over="ignore", invalid="ignore"):
                out[at] = -3.0 * self.gprime._node_jets(nodes)[0][0, where]
            _require_finite(out[at])
        return like_input(out, z)

    # -- solution ----------------------------------------------------------

    def g(self, z):
        """Antiderivative of h along straight segments from 0, so g(0) = 0;
        path independence is free since h is analytic in the disc.  All
        points share one numutil.adaptive_segment_integral call (the
        tanh-sinh rule of psi_tilde), which raises ValueError naming the
        segment where h is not finite or the rule does not settle."""
        arr = disc_points(z)
        return like_input(adaptive_segment_integral(self.gprime.evaluate, 0j,
                                                    arr), z)

    def log_solution(self, z):
        """Complex log of f = P e^g (principal per-factor branches summed);
        real part is exact log|f|.  -inf real part at nodes."""
        arr = disc_points(z)
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
        vals[self.product.node_index(arr) >= 0] = 0.0
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

    def _solution_rounds(self, z0: complex, r: float):
        """Yield (theta, log f(zeta) - g(z0)) on the nested_circle rounds
        of zeta = z0 + r e^{i theta}, taking log P and h from one series
        pass per round.  r is at most half the nearest-node distance, so no
        node lies on the circle, and h there is what evaluate() returns."""
        def log_p_and_h(unit):
            p = self.gprime._pass(z0 + r * unit)
            return np.stack([p.log_p,
                             _unscale(p.log_p, p.scale, p.total, "value")])

        for theta, unit, (log_p, hv) in nested_circle(log_p_and_h,
                                                       CONTOUR_MAX_POINTS):
            zeta = z0 + r * unit
            yield theta, log_p + self._spoke_integrals(z0, zeta, hv)

    def _probe_residual(self, z0: complex, a0: complex, d1: float,
                        log_f0: complex, dist: float) -> float:
        """|f'' + a f| / (|f''| + |a f| + 1e-300) at one probe, given a0 =
        a(z0), d1 = |P'/P + h|, log_f0 = log P(z0) and the nearest-node
        distance dist; the only points x nodes work here is on the circle.

        f'' comes from a trapezoid contour second derivative on a circle
        around z0; the shared factor e^{g(z0)} cancels in the ratio, so only
        g relative to z0 is needed, which _spoke_integrals takes from the
        FFT of h on the same circle.  The nested_circle rounds (64, 128, ...
        points) run until f'' drifts by at most CONTOUR_REL_TOL per round.  The
        circle radius starts at min((1-|z0|)/8, half the distance to the
        nearest node) and is capped by the local log-derivative scale of f,
        1/(d1 + 1) and 1/sqrt(|a0| + 1): where |a| is large, Re log f would
        otherwise swing by hundreds across the circle and the second Fourier
        mode of f drowns in the rounding floor of the peak values.  A circle
        too small to be placed in binary64 around z0 raises RuntimeError
        naming the probe and radius.
        """
        r = min((1.0 - abs(z0)) / 8.0, dist / 2.0, 1.0 / (d1 + 1.0),
                1.0 / math.sqrt(abs(a0) + 1.0))
        rounds = self._solution_rounds(z0, r)
        first = next(rounds)
        shrinks = 0
        while shrinks < 30 and np.ptp(first[1].real) > 30.0:
            # caps missed (e.g. near a zero of a); shrink until the
            # circle's dynamic range is resolvable in binary64
            r *= 0.5
            shrinks += 1
            rounds = self._solution_rounds(z0, r)
            first = next(rounds)
        # z0 + r e^{i theta} is placed to about eps |z0|, a fraction
        # blur = eps |z0| / r of the radius, so each sample of f is off by
        # up to about blur of the circle maximum (the caps keep r |f'|
        # below that scale).  The second mode averages m <=
        # CONTOUR_MAX_POINTS samples, which leaves an error of at least
        # about blur / m unless the rounding errors cancel exactly; past
        # blur = CONTOUR_REL_TOL * CONTOUR_MAX_POINTS that floor exceeds
        # the CONTOUR_REL_TOL the drift test certifies f'' to.  Far smaller
        # circles (blur >~ 1) collapse onto a few binary64 points, where
        # f'' reads ~0 and the drift test would pass a residual of 1.
        blur = float(np.finfo(float).eps) * abs(z0) / r
        limit = CONTOUR_REL_TOL * CONTOUR_MAX_POINTS
        if blur > limit:
            raise RuntimeError(
                f"ODE residual probe {z0:.6g}: circle radius {r:.3e} is "
                f"below binary64 resolution (eps*|z0|/r = {blur:.2e} "
                f"exceeds {limit:.3g})")
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
                if drift <= (CONTOUR_REL_TOL * (abs(fpp) + abs(a0 * f0))
                             + 1e-300):
                    return float(num / den)
            prev = (scale, fpp)
        raise RuntimeError(
            f"solution contour at probe {z0:.6g} did not converge "
            f"within {CONTOUR_MAX_POINTS} points")

    def ode_residual(self, probes) -> float:
        """Worst relative ODE defect over the probes.

        Probes must satisfy |z| <= 0.95 and sit outside every exclusion
        disc (sample_probes produces such sets).
        """
        arr = np.atleast_1d(np.asarray(probes, dtype=complex))
        if not np.all(np.abs(arr) <= 0.95):
            raise ValueError("probes must satisfy |z| <= 0.95")
        dist = self.product.require_outside_exclusion(arr, "probe")
        p, h, a_vals = self._coefficient(arr)
        d1 = p.lam + h
        worst = 0.0
        for j, z0 in enumerate(arr):
            # builtin abs: np.abs can differ from it in the last bit
            worst = max(worst, self._probe_residual(
                complex(z0), complex(a_vals[j]), abs(complex(d1[j])),
                complex(p.log_p[j]), float(dist[j])))
        return worst

    # -- growth ------------------------------------------------------------

    def coefficient_growth_table(self, r_ladder,
                                 samples: int = 1024) -> list[GrowthRow]:
        """Circle maxima of log|a| against the growth comparator: the
        radial weight h(r) when the scale came from a weight, otherwise the
        integrated scale psi_tilde(1/(1-r)).

        The radii are checked before any evaluation.  circle_max takes the
        whole ladder in lockstep: one eval_coefficient call scans every
        circle, and each golden-section step evaluates one point per
        circle.  Each value of a depends on its own point alone, so the
        rows are those of a radius-by-radius table.
        """
        radii = np.asarray(r_ladder, dtype=float)
        if not np.all((0.0 < radii) & (radii <= 0.995)):
            raise ValueError("ladder radii must lie in (0, 0.995]")

        def refine_abs(z):
            # builtin abs of each value, as the search has always taken it:
            # hypot, from which np.abs of an array (the scan's) can differ
            # in the last bit
            a = self.eval_coefficient(z)
            return np.hypot(a.real, a.imag)

        amax = circle_max(lambda z: np.abs(self.eval_coefficient(z)), radii,
                          samples, refine_fn=refine_abs)
        comps = (self.scale.weight.h(radii) if hasattr(self.scale, "weight")
                 else self.scale.psi_tilde(1.0 / (1.0 - radii)))
        rows = []
        for r, am, comp in zip(radii, amax.tolist(), comps.tolist()):
            log_max = math.log(am) if am > 0.0 else -math.inf
            ratio = log_max / comp if comp > 0.0 else math.nan
            rows.append(GrowthRow(float(r), log_max, comp, ratio))
        return rows

    # -- zero counting -----------------------------------------------------

    def count_zeros(self, radius: float = 0.9) -> ZeroCountReport:
        """Argument-principle count of the zeros of f = P e^g in |z| < rho.

        e^g has no zeros, so f winds as P does: the count reads only values
        of log P and node moduli, never h or the closed-form a.  rho is the
        smallest radius >= radius whose circle stays at least r_k from
        every node z_k, i.e. misses each band (|z_k| - r_k, |z_k| + r_k) of
        exclusion radii r_k; r_k <= (1 - |z_k|)/8 keeps rho < 1.  The grid
        on |z| = rho doubles until every wrapped step of Im log P, the
        closing step included, is at most pi/4; the winding is then the
        sum of the steps over 2 pi.  Raises RuntimeError when no grid of up
        to WINDING_MAX_POINTS points resolves the circle.
        """
        if not (0.0 < radius < 1.0):
            raise ValueError("radius must lie in (0, 1)")
        prod = self.product
        mod = np.abs(prod.z)
        lo, hi = mod - prod.exclusion_radii, mod + prod.exclusion_radii
        rho = float(radius)
        while np.any(crossed := (lo < rho) & (rho < hi)):
            rho = float(np.max(hi[crossed]))
        for _, _, logs in nested_circle(
                lambda unit: prod._raw_log_eval(rho * unit),
                WINDING_MAX_POINTS):
            im = np.imag(logs)
            steps = wrap_angle(np.diff(im, append=im[:1]))
            if np.max(np.abs(steps)) <= np.pi / 4.0:
                winding = float(np.sum(steps)) / TWO_PI
                count = round(winding)
                inside = int(np.sum(mod < rho))
                return ZeroCountReport(winding, count, inside,
                                       count == inside, rho, logs.size)
        raise RuntimeError(
            f"zero-count circle |z| = {rho!r} unresolved: a wrapped step of "
            f"arg P exceeds pi/4 at {WINDING_MAX_POINTS} points")

    # -- Carleson density --------------------------------------------------

    def carleson_density(self) -> Callable[[np.ndarray], np.ndarray]:
        """Density |a(zeta)|^2 (1 - |zeta|^2)^3 as a quadrature callable."""

        def density(zeta: np.ndarray) -> np.ndarray:
            a = np.atleast_1d(self.eval_coefficient(zeta))
            return np.abs(a) ** 2 * one_minus_abs2(zeta) ** 3

        return density

    def carleson_table(self, deltas):
        """carleson_box_table of carleson_density on the default grid.

        Fixed-grid midpoint estimates with no accuracy control: on the
        nested boxes a resolved table obeys
        ratio(delta) <= (delta'/delta) * ratio(delta') for delta < delta',
        and a table that breaks this is unresolved.
        """
        return carleson_box_table(self.carleson_density(), deltas)


# ---------------------------------------------------------------------------
# construction


def _residue_mismatch(product: CanonicalProduct,
                      targets: np.ndarray) -> np.ndarray:
    """|P'' + 2 P' b_k| relative to |P''| + |2 P' b_k| at every node.

    Both derivatives come from the product's node_contour_modes on the
    exclusion circles, m1 = P' r / S and m2 = P'' r^2 / (2S) in units of
    the circle maximum S, so the invariant becomes |m2 + r b_k m1| against
    |m2| + |r b_k m1|.  Ring-symmetric configurations can make both sides
    vanish to machine precision (the residue is then genuinely zero); the
    1e-8 floor, in units of S, absorbs that degenerate case without
    loosening the check anywhere the terms are resolvable.
    """
    def mod(x):
        # np.hypot, as builtin abs; np.abs can differ from it in the last bit
        return np.hypot(x.real, x.imag)

    modes = product.node_contour_modes()
    cross = product.exclusion_radii * targets * modes.m1
    return mod(modes.m2 + cross) / (mod(modes.m2) + mod(cross) + 1e-8)


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
    mism = _residue_mismatch(product, targets.values)
    if mism.size and float(np.max(mism)) > residue_tol:
        k = int(np.argmax(mism))
        raise ResidueCancellationError(k, float(mism[k]), residue_tol)
    return OscillationBundle(product, series, scale, mism)


# ---------------------------------------------------------------------------
# probes and diagnostics


def sample_probes(product: CanonicalProduct, rng: np.random.Generator,
                  count: int, r_max: float = 0.9) -> np.ndarray:
    """Uniform disc probes rejected out of the exclusion discs.  Raises
    ValueError when |z| <= r_max lies inside one exclusion disc, the only
    way for disjoint discs to reject every candidate, and when
    PROBE_MAX_REJECTED candidates in a row are rejected."""
    inside = np.abs(product.z) + r_max <= product.exclusion_radii
    if np.any(inside):
        raise ValueError(
            f"probe disc |z| <= {r_max:g} lies in the exclusion disc of "
            f"node {int(np.flatnonzero(inside)[0])}")
    out = np.zeros(0, dtype=complex)
    rejected = 0
    while out.size < count:
        cand = sample_disc(rng, count, r_max)
        kept = cand[~product.in_exclusion(cand)[0]]
        rejected = rejected + count if kept.size == 0 else 0
        if rejected >= PROBE_MAX_REJECTED:
            raise ValueError(
                f"probe disc |z| <= {r_max:g}: {rejected} candidates in a "
                f"row fell in exclusion discs, which appear to cover it")
        out = np.concatenate([out, kept])
    return out[:count]


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


def sharpness_witness(params: SharpnessParams, n: int) -> WitnessReport:
    """Log-derivative witness at the base point of block n.

    I1 sums the same-block terms 1/(z_{n,0} - z_{n,k}) weighted by
    (1 - |z_{n,k}|^2)/(1 - conj(z_{n,k}) z_{n,0}); I2 sums the cross-block
    terms, with the analytic generator tail appended past the last block
    that contributes at relative 1e-14.  i1_floor is the closed bound
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
    # later blocks: run until the terms fall below 1e-14 of the sums
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
            if j > n + 4 and term_up <= 1e-14 * i2_upper:
                break
        if j > n + 500:
            break
        j += 1
    i2 = complex(i2)
    return WitnessReport(n=n, m=m, eps=eps, i1=i1, i1_abs=abs(i1),
                         i1_floor=i1_floor, i2=i2, i2_abs=abs(i2),
                         i2_upper=i2_upper, logderiv=i1 + i2)

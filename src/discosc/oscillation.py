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

import math
from typing import Callable, NamedTuple

import numpy as np

from .geometry import carleson_box_table
from .interpolation import (GrowthRow, InterpolationSeries, TargetData,
                            _unscale)
# golden_section_max is looked up here by bench/tracer.py
from .numutil import (CONTOUR_MAX_POINTS,  # noqa: F401
                      CONTOUR_START_POINTS, TWO_PI,
                      adaptive_segment_integral, circle_fault, circle_max,
                      circle_modes, circle_nodes, disc_points, flat_points,
                      golden_section_max, like_input, one_minus_abs2,
                      sample_disc, settle_circles, wrap_angle)
from .products import CanonicalProduct
from .scales import GrowthScale, genus_from_scale
from .sequences import SharpnessParams, ZeroSequence

__all__ = [
    "OdeResidualReport",
    "OscillationBundle",
    "ResidueCancellationError",
    "WitnessReport",
    "ZeroCountReport",
    "build_coefficient",
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


# largest node residue mismatch (_residue_mismatch) that build_coefficient
# accepts by default, and the gate that verify reports
RESIDUE_TOL = 1e-6
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


def _modulus(x: np.ndarray) -> np.ndarray:
    """|x| by np.hypot, which is what builtin abs and numpy's abs of one
    complex scalar give; np.abs of a complex array can differ from them in
    the last bit."""
    return np.hypot(x.real, x.imag)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b for complex arrays, each part rounded term by term as in the
    product of two complex scalars; numpy's array product can differ from
    it in the last bit."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


class ZeroCountReport(NamedTuple):
    winding: float
    count: int
    nodes_inside: int
    matches: bool
    radius: float
    points: int


class OdeResidualReport(NamedTuple):
    value: float    # worst relative ODE defect over the probes
    points: int     # largest settled grid over the probes


# ---------------------------------------------------------------------------
# node targets


def node_targets(product: CanonicalProduct) -> np.ndarray:
    """b_k = -P''(z_k)/(2 P'(z_k)) for every node, in closed form, from the
    product's node pass (CanonicalProduct._node_pass)."""
    return product._node_pass().targets.copy()


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
        # np.multiply keeps the operand order at any batch size (see
        # numutil.slices)
        fu[jet] = f1[jet] + np.multiply(
            uj, 0.5 * f2[jet] + np.multiply(uj, f3[jet]) / 6.0)
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
    def _spoke_integrals(z0, zeta: np.ndarray, hv: np.ndarray) -> np.ndarray:
        """g(zeta_j) - g(z0) on the trapezoid circle
        zeta_j = z0 + r e^{i theta_j}, theta_j = 2 pi j / m, from the values
        hv_j = h(zeta_j) on that circle alone: one circle along the last
        axis, or one per row with one centre z0 per row.

        h is analytic on the closed disc |z - z0| <= r, so the FFT of its
        circle values gives c_k ~ h_k r^k, the Taylor coefficients of h at
        z0 scaled to the circle (exponentially accurate: Trefethen &
        Weideman, SIAM Rev. 2014).  Integrating term by term,

            g(zeta) - g(z0) = sum_k c_k r e^{i(k+1) theta} / (k+1),

        which one inverse FFT evaluates at every circle point.  Only values
        of h enter, never the closed-form coefficient.  The accuracy is
        judged by the caller's drift test on f''.
        """
        k = np.arange(hv.shape[-1])
        return ((zeta - np.asarray(z0)[..., None])
                * np.fft.ifft(np.fft.fft(hv) / (k + 1)))

    def _probe_circles(self, z0: np.ndarray, r: np.ndarray,
                       unit: np.ndarray):
        """(vals, fault): vals[i] = (log P, h) at z0_i + r_i unit, shape
        (probes, 2, unit.size), from one series pass over every point.  r
        is at most half the nearest-node distance, so no node lies on a
        circle, and h there is what evaluate() returns.  fault is None, or
        (i, error) for the first probe i with a value of h beyond binary64:
        the ValueError that _unscale raises on its circle alone."""
        p = self.gprime._pass((z0[:, None] + r[:, None] * unit).ravel())
        with np.errstate(over="ignore", invalid="ignore"):
            h = np.exp(p.log_p + p.scale) * p.total
        vals = np.stack([p.log_p, h]).reshape(2, z0.size, unit.size)
        bad = np.flatnonzero(~np.all(np.isfinite(vals[1]), axis=1))
        if bad.size:
            rows = slice(bad[0] * unit.size, (bad[0] + 1) * unit.size)
            try:
                _unscale(p.log_p[rows], p.scale[rows], p.total[rows], "value")
            except ValueError as exc:
                return vals.swapaxes(0, 1), (int(bad[0]), exc)
        return vals.swapaxes(0, 1), None

    def _probe_residuals(self, z0: np.ndarray, a0: np.ndarray,
                         d1: np.ndarray, log_f0: np.ndarray,
                         dist: np.ndarray):
        """(residuals, points): |f'' + a f| / (|f''| + |a f| + 1e-300) and
        the settled grid at every probe z0, given a0 = a(z0), d1 = |P'/P +
        h|, log_f0 = log P(z0) and the nearest-node distances dist, one
        entry per probe; the only points x nodes work is on the circles.

        f'' comes from a trapezoid contour second derivative on a circle
        around z0; the shared factor e^{g(z0)} cancels in the ratio, so only
        g relative to z0 is needed, which _spoke_integrals takes from the
        FFT of h on the same circle.  The circle radius starts at
        min((1-|z0|)/8, half the distance to the nearest node) and is capped
        by the local log-derivative scale of f, 1/(d1 + 1) and 1/sqrt(|a0| +
        1): where |a| is large, Re log f would otherwise swing by hundreds
        across the circle and the second Fourier mode of f drowns in the
        rounding floor of the peak values.

        The rounds of 32, 64, ... points (CONTOUR_START_POINTS on) run until
        f'' drifts by at most CONTOUR_REL_TOL per round; the residual is the
        last round's.  r <= (1-|z0|)/8 keeps f = P e^g and h analytic on
        the disc of radius 8r about z0, so mode j on the circle is at most
        M(8r) 8^-j (Cauchy; M the maximum modulus on a circle about z0), and
        the m-point rule, which aliases mode j with mode j + m, is off by
        about 8^-m M(8r)/M(r) (Trefethen & Weideman, SIAM Rev. 56, 2014):
        8^-32 ~ 1e-29.  The 64-point round certifies that, and the drift
        test doubles the grid on where M(8r)/M(r) is large.

        The probes run in lockstep (numutil.settle_circles): each round
        takes log P and h on the circles of every running probe from one
        _probe_circles pass, and a probe leaves once its drift test passes.  Each decision (the caps,
        the shrinks, the blur limit, the drift test, the last grid) is the
        probe's own, with the arithmetic of one probe alone, so a residual
        does not depend on the other probes.  A probe fails on a circle too
        small to be placed in binary64 around z0 (RuntimeError naming the
        probe and radius), on a value of h beyond binary64 (ValueError), and
        on a contour sample that is nan or +inf, a residual that is not
        finite or a contour that does not settle (RuntimeError naming the
        probe).  The probes after a failing one stop with it, and the error
        raised is that of the lowest-index failing probe.
        """
        out, points = np.empty(z0.size), np.zeros(z0.size, dtype=int)
        error = None
        r = np.minimum.reduce([(1.0 - _modulus(z0)) / 8.0, dist / 2.0,
                               1.0 / (d1 + 1.0),
                               1.0 / np.sqrt(_modulus(a0) + 1.0)])

        def fail(i, exc, *rows):
            # the probe in row i fails with exc and the probes after it
            # stop; returns rows, arrays of one row per probe, cut to match
            nonlocal error
            error = exc
            return [x[:i] for x in rows]

        def circle_logs(idx, unit, vals):
            # log f(zeta) - g(z0) on the circles of the probes idx
            zeta = z0[idx, None] + r[idx, None] * unit
            return vals[:, 0] + self._spoke_integrals(z0[idx], zeta,
                                                      vals[:, 1])

        def named(k, what):
            return RuntimeError(
                f"ODE residual probe {complex(z0[k]):.6g}: {what}")

        # placement: the probes still running are the rows of vals, the
        # first len(vals) probes
        _, unit = circle_nodes(CONTOUR_START_POINTS)
        vals, fault = self._probe_circles(z0, r, unit)
        if fault is not None:
            vals, = fail(*fault, vals)
        logf = circle_logs(np.arange(len(vals)), unit, vals)
        for _ in range(30):
            # caps missed (e.g. near a zero of a): shrink until the
            # circle's dynamic range is resolvable in binary64
            big = np.flatnonzero(np.ptp(logf.real, axis=1) > 30.0)
            if big.size == 0:
                break
            r[big] *= 0.5
            fresh, fault = self._probe_circles(z0[big], r[big], unit)
            if fault is not None:
                j, exc = fault
                vals, logf = fail(big[j], exc, vals, logf)
                big, fresh = big[:j], fresh[:j]
            vals[big] = fresh
            logf[big] = circle_logs(big, unit, fresh)
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
        n = len(vals)
        blur = float(np.finfo(float).eps) * _modulus(z0[:n]) / r[:n]
        limit = CONTOUR_REL_TOL * CONTOUR_MAX_POINTS
        over = np.flatnonzero(blur > limit)
        if over.size:
            i = over[0]
            vals, = fail(i, named(
                i, f"circle radius {r[i]:.3e} is below binary64 "
                   f"resolution (eps*|z0|/r = {blur[i]:.2e} exceeds "
                   f"{limit:.3g})"), vals)
        # the scale and f'' of each probe's last round: nan fails the first
        # round's drift test
        ps = np.full(z0.size, np.nan)
        pf = np.full(z0.size, np.nan, dtype=complex)

        def settle(idx, theta, unit, vals):
            # idx: the probes still running, one per row of vals
            logf = circle_logs(idx, unit, vals)
            fault = circle_fault(logf)
            if fault is not None:
                i, what = fault
                idx, logf = fail(i, named(idx[i], what), idx, logf)
            scale, modes = circle_modes(theta, logf, (2,))
            # values beyond binary64 read inf or nan here: such a contour
            # never settles, or its residual is refused below
            with np.errstate(over="ignore", invalid="ignore"):
                fpp = 2.0 * modes[:, 0] / r[idx] ** 2
                af0 = _product(a0[idx], np.exp(log_f0[idx] - scale))
                size = _modulus(fpp) + _modulus(af0)
                drift = _modulus(pf[idx] * np.exp(ps[idx] - scale) - fpp)
                res = _modulus(fpp + af0) / (size + 1e-300)
            done = drift <= CONTOUR_REL_TOL * size + 1e-300
            bad = np.flatnonzero(done & ~np.isfinite(res))
            if bad.size:
                i = bad[0]
                idx, scale, fpp, done, res = fail(i, named(
                    idx[i], f"residual {float(res[i])!r} is not finite"),
                    idx, scale, fpp, done, res)
            out[idx[done]], points[idx[done]] = res[done], theta.size
            ps[idx], pf[idx] = scale, fpp
            return done

        def sample(idx, unit):
            fresh, fault = self._probe_circles(z0[idx], r[idx], unit)
            if fault is not None:
                fresh, = fail(*fault, fresh)
            return fresh

        left = settle_circles(vals, sample, settle, CONTOUR_MAX_POINTS)
        if left.size:
            error = RuntimeError(
                f"solution contour at probe {complex(z0[left[0]]):.6g} did "
                f"not converge within {CONTOUR_MAX_POINTS} points")
        if error is not None:
            raise error
        return out, points

    def ode_residual(self, probes) -> OdeResidualReport:
        """Worst relative ODE defect over the probes and the largest grid
        their contours settled on (_probe_residuals); 0 and 0 for no
        probes.

        Probes must satisfy |z| <= 0.95 and sit outside every exclusion
        disc (sample_probes produces such sets).
        """
        arr = np.atleast_1d(np.asarray(probes, dtype=complex))
        if not np.all(np.abs(arr) <= 0.95):
            raise ValueError("probes must satisfy |z| <= 0.95")
        dist = self.product.require_outside_exclusion(arr, "probe")
        p, h, a0 = self._coefficient(arr)
        res, points = self._probe_residuals(arr, a0, _modulus(p.lam + h),
                                            p.log_p, dist)
        return OdeResidualReport(float(np.max(res, initial=0.0)),
                                 int(np.max(points, initial=0)))

    # -- growth ------------------------------------------------------------

    def coefficient_growth_table(self, r_ladder,
                                 samples: int = 1024) -> list[GrowthRow]:
        """Circle maxima of log|a| against the growth comparator: the
        radial weight h(r) when the scale came from a weight, otherwise the
        integrated scale psi_tilde(1/(1-r)).

        The radii are checked before any evaluation.  circle_max takes the
        whole ladder in lockstep: one eval_coefficient call scans every
        circle, and the golden-section search takes two steps per call with
        three points per circle, 23 calls in all.  Each value of a depends
        on its own point alone, so the rows are those of a radius-by-radius
        table.
        """
        radii = np.asarray(r_ladder, dtype=float)
        if not np.all((0.0 < radii) & (radii <= 0.995)):
            raise ValueError("ladder radii must lie in (0, 0.995]")

        def refine_abs(z):
            # builtin abs of each value, as the search has always taken it
            return _modulus(self.eval_coefficient(z))

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
        sum of the steps over 2 pi, and points the grid it was read on.
        Steps of at most pi/4 on m points wind at most m/8 times, so the
        first grid is the smallest of CONTOUR_START_POINTS, twice that, ...
        with 8 points per node inside: a coarser one could only alias the
        count (99 nodes wind 3 times on 32 points of the N = 368 lattice's
        circle |z| = 0.8).  Raises RuntimeError when no grid of up to
        WINDING_MAX_POINTS points resolves the circle.
        """
        if not (0.0 < radius < 1.0):
            raise ValueError("radius must lie in (0, 1)")
        prod = self.product
        mod = np.abs(prod.z)
        lo, hi = mod - prod.exclusion_radii, mod + prod.exclusion_radii
        rho = float(radius)
        while np.any(crossed := (lo < rho) & (rho < hi)):
            rho = float(np.max(hi[crossed]))
        inside = int(np.sum(mod < rho))
        report = []

        def settle(live, theta, unit, logs):
            im = np.imag(logs[0])
            steps = wrap_angle(np.diff(im, append=im[:1]))
            done = np.max(np.abs(steps)) <= np.pi / 4.0
            if done:
                winding = float(np.sum(steps)) / TWO_PI
                count = round(winding)
                report.append(ZeroCountReport(winding, count, inside,
                                              count == inside, rho,
                                              theta.size))
            return np.array([done])

        def sample(live, unit):
            return prod._raw_log_eval(rho * unit)[None]

        m = CONTOUR_START_POINTS
        while m < 8 * inside and m < WINDING_MAX_POINTS:
            m *= 2
        first = sample(None, circle_nodes(m)[1])
        if settle_circles(first, sample, settle, WINDING_MAX_POINTS).size:
            raise RuntimeError(
                f"zero-count circle |z| = {rho!r} unresolved: a wrapped step "
                f"of arg P exceeds pi/4 at {WINDING_MAX_POINTS} points")
        return report[0]

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
    modes = product.node_contour_modes()
    cross = product.exclusion_radii * targets * modes.m1
    return (_modulus(modes.m2 + cross)
            / (_modulus(modes.m2) + _modulus(cross) + 1e-8))


def build_coefficient(zeros: ZeroSequence, scale: GrowthScale,
                      margin: float = 10.0, genus: int | None = None,
                      residue_tol: float = RESIDUE_TOL,
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

"""Canonical products over disc zero sequences, evaluated in log space.

Factors are E(w_n(z), s) with w_n(z) = (1 - |z_n|^2) / (1 - conj(z_n) z),
E(w, 0) = 1 - w and E(w, s) = (1 - w) exp(w + w^2/2 + ... + w^s/s).  Every
evaluation sums per-factor principal logs; moduli are exact and phase
ambiguities cancel in the ratios consumed downstream (P'/P, P''/P, term
ratios).

Every per-factor quantity -- the factor logs, the first and second
log-derivatives, the node targets and the interpolation series' term logs --
is built from one pair of pieces per point and node, (z - z_n,
1 - conj(z_n) z).  _pieces forms them at given points; _offset_pieces forms
them at z_k + d without materialising the sum, which keeps contours around
deep nodes accurate.  Points x nodes passes loop over _blocks.
Their principal logs come from numutil.clog, log|z| + i atan2(Im z, Re z):
the branch cut and signed zeros of np.log at a fraction of the cost, and
accurate to the absolute rounding the pieces already carry.

Stability notes baked into the implementation:

* 1 - w_n(z) is always formed from the pieces as
  -conj(z_n) (z - z_n) / (1 - conj(z_n) z), which vanishes exactly at the
  node and never suffers cancellation.
* A zero at the origin would make w identically 1, so that point
  contributes a plain factor z instead.
* Near-boundary denominators use the regrouped 1 - conj(a) b helper.
"""

from __future__ import annotations

import math

import numpy as np

# circle_nodes is looked up here by bench/tracer.py
from .numutil import (CONTOUR_MAX_POINTS, circle_max,  # noqa: F401
                      circle_modes, circle_nodes, clog, disc_points,
                      flat_points, like_input, nested_circle,
                      one_minus_abs, one_minus_abs2, one_minus_conj_mul)
from .sequences import ZeroSequence, blaschke_sum, log_integrated_count

__all__ = [
    "CanonicalProduct",
    "primary_factor",
    "log_primary_factor",
    "harmonic_sum",
]

# points per block of every points x nodes pass (products, series, targets)
_CHUNK = 512
# first grid of the exclusion-circle contour in node_modes (see there)
NODE_CONTOUR_START_POINTS = 32


def harmonic_sum(s: int) -> float:
    """1 + 1/2 + ... + 1/s (0 for s = 0)."""
    return float(sum(1.0 / j for j in range(1, s + 1)))


def _poly_part(w, s: int):
    """w + w^2/2 + ... + w^s/s, elementwise (zeros for s = 0)."""
    w = np.asarray(w, dtype=complex)
    if s == 0:
        return np.zeros_like(w)
    acc = pw = w
    for j in range(2, s + 1):
        pw = pw * w
        acc = acc + pw / j
    return acc


def primary_factor(w, s: int):
    """E(w, s) = (1 - w) exp(w + ... + w^s/s)."""
    if s < 0:
        raise ValueError("genus must be nonnegative")
    w = np.asarray(w, dtype=complex)
    return (1.0 - w) * np.exp(_poly_part(w, s))


def log_primary_factor(w, s: int):
    """Principal log of E(w, s); rejects w = 1 where E vanishes."""
    if s < 0:
        raise ValueError("genus must be nonnegative")
    w = np.asarray(w, dtype=complex)
    if np.any(w == 1.0):
        raise ValueError("primary factor vanishes at w = 1; log undefined")
    return clog(1.0 - w) + _poly_part(w, s)


class CanonicalProduct:
    """Genus-s product over a zero sequence with per-node exclusion discs.

    Inside the exclusion disc of a node the full product is numerically
    dominated by its vanishing factor; ratio-form accessors (deleted
    product, node derivatives) are exact there, while log_eval refuses and
    asks the caller to use those forms.
    """

    def __init__(self, zeros: ZeroSequence, genus: int,
                 exclusion_radii=None):
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        self.zeros = zeros
        self.genus = int(genus)
        z = zeros.points
        self.z = z
        self._zc = np.conjugate(z)
        self._gap2 = one_minus_abs2(z)          # 1 - |z_n|^2
        self._gap = one_minus_abs(z)            # 1 - |z_n|
        # complex 1 - |z_n|^2 and (s+2) conj(z_n)/(1 - |z_n|^2) for the
        # log-derivative kernel
        self._gap2c = self._gap2.astype(complex)
        self._dlog_coef = (self.genus + 2.0) * self._zc / self._gap2
        # column of the node at the origin (the zeros are distinct), or None
        origin = np.flatnonzero(z == 0.0)
        self._origin_idx = int(origin[0]) if origin.size else None
        if exclusion_radii is not None:
            radii = np.asarray(exclusion_radii, dtype=float)
            if radii.shape != z.shape or np.any(radii <= 0.0):
                raise ValueError("exclusion radii must be positive, one per node")
        else:
            radii = self._default_radii()
        self.exclusion_radii = radii
        self.convergence_sum = blaschke_sum(zeros, self.genus).value
        self._node_logs: dict[int, complex] = {}

    # -- geometry ----------------------------------------------------------

    def _default_radii(self) -> np.ndarray:
        z = self.z
        n = z.size
        if n == 0:
            return np.zeros(0)
        if n == 1:
            nn = np.array([math.inf])
        else:
            d = np.abs(z[:, None] - z[None, :])
            np.fill_diagonal(d, math.inf)
            nn = np.min(d, axis=1)
        return np.minimum(nn / 4.0, self._gap / 8.0)

    def nearest_node(self, pts):
        """(index, distance) of the closest node for each point."""
        pts = np.atleast_1d(np.asarray(pts, dtype=complex))
        if self.z.size == 0:
            return (np.full(pts.shape, -1, dtype=int),
                    np.full(pts.shape, math.inf))
        flat = pts.ravel()
        d = np.abs(flat[:, None] - self.z[None, :])
        idx = np.argmin(d, axis=1)
        dist = d[np.arange(flat.size), idx]
        return idx.reshape(pts.shape), dist.reshape(pts.shape)

    def in_exclusion(self, pts):
        idx, dist = self.nearest_node(pts)
        if self.z.size == 0:
            return np.zeros(np.shape(idx), dtype=bool), idx
        return dist <= self.exclusion_radii[idx], idx

    def require_outside_exclusion(self, pts, what: str = "point") -> None:
        """Raise ValueError naming the first point inside an exclusion disc."""
        pts = np.atleast_1d(pts)
        bad, idx = self.in_exclusion(pts)
        if np.any(bad):
            j = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"{what} {pts.flat[j]:.6g} lies in the exclusion disc of "
                f"node {int(idx.flat[j])}")

    # -- per-factor pieces and kernels --------------------------------------

    def _pieces(self, pts: np.ndarray):
        """(z - z_n, 1 - conj(z_n) z), shape (len(pts), n_zeros) each."""
        p = np.asarray(pts, dtype=complex)[:, None]
        return p - self.z[None, :], one_minus_conj_mul(self.z[None, :], p)

    def _blocks(self, pts: np.ndarray):
        """Yield (slice, pieces) over pts, _CHUNK points at a time, so memory
        stays O(_CHUNK * n_zeros) however many points are asked."""
        for lo in range(0, pts.size, _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            yield (sl, *self._pieces(pts[sl]))

    def _offset_pieces(self, k: int, d: np.ndarray):
        """The pieces at z_k + d, computed without forming the sum.

        Materialising z_k + d rounds the offset into the gap of z_k, which
        destroys contour accuracy at deep nodes; here every factor uses the
        exact pieces (z_k - z_n) + d and (1 - conj(z_n) z_k) - conj(z_n) d.
        """
        dd = np.asarray(d, dtype=complex)[:, None]
        zk = self.z[k]
        return ((zk - self.z)[None, :] + dd,
                one_minus_conj_mul(self.z, zk)[None, :] - self._zc * dd)

    def _factor_logs(self, delta: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Per-factor principal logs from the pieces (delta, den).

        Exact zeros produce -inf entries; callers mask as appropriate.
        """
        omw = -self._zc * delta / den
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = clog(omw) + _poly_part(1.0 - omw, self.genus)
            i = self._origin_idx
            if i is not None:
                logs[:, i] = clog(delta[:, i])
        return logs

    def _log_derivatives(self, delta: np.ndarray, w: np.ndarray):
        """Per-factor (dlog E, d2log E) from z - z_n and w = w_n(z).

        With u = conj(z_n)/(1 - conj(z_n) z) and w = w_n(z),

            dlog E = -u w^(s+1) / (1 - w)
            d2log E = -u^2 w^(s+1) [ (s+2)/(1-w) + w/(1-w)^2 ]

        Since 1 - w = -u (z - z_n) and u = w conj(z_n)/(1 - |z_n|^2), these
        are dlog E = w^(s+1)/(z - z_n) and d2log E = dlog E * w *
        ((s+2) conj(z_n)/(1 - |z_n|^2) - 1/(z - z_n)): two complex
        divisions per factor.  Callers take w as (1 - |z_n|^2)/(1 -
        conj(z_n) z), so small |w| keep full relative accuracy.  A node at
        the origin (w = 1) gives 1/z and -1/z^2 from the same forms.
        """
        inv = 1.0 / delta
        L = w * inv
        for _ in range(self.genus):
            L = L * w
        dL = L * (w * self._dlog_coef - w * inv)
        return L, dL

    def _raw_log_eval(self, pts: np.ndarray) -> np.ndarray:
        """Row sums of the factor logs over _blocks(pts)."""
        if self.z.size == 0:
            return np.zeros(pts.shape, dtype=complex)
        out = np.empty(pts.size, dtype=complex)
        for sl, delta, den in self._blocks(pts):
            out[sl] = np.sum(self._factor_logs(delta, den), axis=1)
        return out

    def log_eval(self, z):
        """Sum of factor logs at z; Re is exact log|P(z)|.

        Requires z inside the disc and outside every exclusion disc; use the
        deleted/ratio accessors near nodes.
        """
        arr = disc_points(z)
        self.require_outside_exclusion(arr)
        return like_input(self._raw_log_eval(arr), z)

    def eval(self, z):
        arr = disc_points(z)
        vals = np.exp(self._raw_log_eval(arr))
        vals[np.isin(arr, self.z)] = 0.0
        return like_input(vals, z)

    def deleted_log_eval(self, k: int, z):
        """Log of the product with factor k removed; finite at z = z_k."""
        self._check_index(k)
        logs = self._factor_logs(*self._pieces(disc_points(z)))
        mask = np.ones(self.z.size, dtype=bool)
        mask[k] = False
        return like_input(np.sum(logs[:, mask], axis=1), z)

    def deleted_eval(self, k: int, z):
        val = self.deleted_log_eval(k, z)
        return np.exp(val)

    def _check_index(self, k: int) -> None:
        if not (0 <= k < self.z.size):
            raise IndexError(f"node index {k} out of range")

    def node_deleted_log(self, k: int) -> complex:
        """Cached deleted-product log at the node itself."""
        if k not in self._node_logs:
            self._node_logs[k] = complex(self.deleted_log_eval(k, self.z[k]))
        return self._node_logs[k]

    # -- node derivatives --------------------------------------------------

    def log_derivative_at_zero(self, k: int) -> complex:
        """Complex log of P'(z_k) via the deleted-product identity.

        P'(z_k) = -conj(z_k) B_k(z_k) e^{H_s} / (1 - |z_k|^2) for ordinary
        nodes; a node at the origin contributes a plain factor z, so there
        P'(0) = B_k(0).
        """
        self._check_index(k)
        if k == self._origin_idx:
            return self.node_deleted_log(k)
        coeff = -self._zc[k] / self._gap2[k]
        return (self.node_deleted_log(k) + harmonic_sum(self.genus)
                + complex(np.log(complex(coeff))))

    def derivative_at_zero(self, k: int) -> complex:
        """P'(z_k); may under/overflow binary64 for extreme sequences, in
        which case the log form remains usable."""
        return complex(np.exp(self.log_derivative_at_zero(k)))

    def node_modes(self, k: int):
        """(scale, m1, m2) with m1 = P'(z_k) r e^-scale and
        m2 = P''(z_k) r^2 e^-scale / 2, the Fourier modes of P on the
        exclusion circle (radius r) of node k.

        The nested_circle rounds run until both modes move by at most
        1e-9 (1 + |m|); scale, the first round's maximum of log|P|, stays
        frozen so that the rounds compare in one unit.

        The rounds start at NODE_CONTOUR_START_POINTS = 32, not at the 64
        of the other contours.  The exclusion rule r <= min(nn/4, (1 -
        |z_k|)/8) keeps every other zero at least 4r and the unit circle at
        least 8r from z_k, so P is analytic on the disc of radius 4r about
        z_k and, by the Cauchy estimate there, mode j of P on the circle is
        at most M(4r) 4^-j (M = maximum of |P| on a circle about z_k).  The
        m-point trapezoid rule aliases mode j with mode j + m, so modes 1
        and 2 carry an error of order (M(4r)/M(r)) 4^-m relative to the
        circle maximum: 4^-32 ~ 5e-20 at 32 points, far below binary64
        (Trefethen & Weideman, "The exponentially convergent trapezoidal
        rule", SIAM Rev. 56, 2014).  The 64-point round still certifies the
        32-point modes under the same drift test.
        """
        self._check_index(k)
        r = float(self.exclusion_radii[k])

        def logs(unit):
            pieces = self._offset_pieces(k, r * unit)
            return np.sum(self._factor_logs(*pieces), axis=1)

        scale = prev = None
        for theta, _, vals in nested_circle(logs, CONTOUR_MAX_POINTS,
                                            NODE_CONTOUR_START_POINTS):
            try:
                scale, cur = circle_modes(theta, vals, (1, 2), scale)
            except RuntimeError as err:
                raise RuntimeError(f"exclusion circle of node {k}: {err}") \
                    from None
            if prev is not None and np.all(
                    np.abs(cur - prev) <= 1e-9 * (1.0 + np.abs(cur))):
                return scale, cur[0], cur[1]
            prev = cur
        raise RuntimeError(
            f"exclusion-circle contour at node {k} did not converge within "
            f"{CONTOUR_MAX_POINTS} points")

    def log_contour_derivative_at_zero(self, k: int, order: int = 1):
        """Complex log of P^(order)(z_k) from the node_modes contour."""
        if order not in (1, 2):
            raise ValueError("only first and second derivatives are provided")
        scale, *modes = self.node_modes(k)
        mode = modes[order - 1]
        if mode == 0.0:
            return complex(-math.inf)
        fact = math.factorial(order) / float(self.exclusion_radii[k]) ** order
        return complex(scale + np.log(complex(fact)) + np.log(complex(mode)))

    def contour_derivative_at_zero(self, k: int) -> complex:
        """P'(z_k) by contour integration; log-free convenience form."""
        return complex(np.exp(self.log_contour_derivative_at_zero(k)))

    def second_derivative_at_zero(self, k: int) -> complex:
        """P''(z_k) by contour integration over the exclusion circle."""
        return complex(np.exp(self.log_contour_derivative_at_zero(k, 2)))

    # -- logarithmic derivative sums --------------------------------------

    def log_derivative_sums(self, pts):
        """(P'/P, P''/P) at points outside all exclusion discs.

        Sums of the per-factor _log_derivatives, with
        P''/P = (P'/P)^2 + sum d2log E.
        """
        arr = flat_points(pts)
        self.require_outside_exclusion(arr)
        lam, dlam = np.zeros((2, arr.size), dtype=complex)
        for sl, delta, den in self._blocks(arr):
            L, dL = self._log_derivatives(delta, self._gap2c / den)
            lam[sl] = np.sum(L, axis=1)
            dlam[sl] = np.sum(dL, axis=1)
        return like_input(lam, pts), like_input(lam * lam + dlam, pts)

    # -- diagnostics -------------------------------------------------------

    def balance_check(self, k: int, delta: float = 0.5):
        """(lhs, rhs) of the deleted-product / integrated-count balance.

        lhs = | log|B_k(z_k)| + N_{z_k}(delta (1 - |z_k|)) |,
        rhs = sum_n |(1 - |z_n|^2)/(1 - conj(z_n) z_k)|^(s+1).
        The ratio lhs/rhs over nodes estimates the balance constant.
        """
        self._check_index(k)
        if not (0.0 < delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        zk = self.z[k]
        lhs = abs(self.node_deleted_log(k).real
                  + log_integrated_count(self.zeros, zk,
                                         delta * self._gap[k]))
        ratios = np.abs(self._gap2 / one_minus_conj_mul(self.z, zk))
        rhs = float(np.sum(ratios ** (self.genus + 1)))
        return float(lhs), rhs

    def balance_constant(self, delta: float = 0.5) -> float:
        vals = [self.balance_check(k, delta) for k in range(self.z.size)]
        return max((lhs / rhs) for lhs, rhs in vals) if vals else 0.0

    def circle_log_max(self, r: float, samples: int = 1024) -> float:
        """max over a sampled circle of log|P|, refined by golden section."""
        if not (0.0 < r < 1.0):
            raise ValueError("circle radius must lie in (0, 1)")

        def log_abs_p(z):
            return like_input(np.real(self._raw_log_eval(flat_points(z))), z,
                              float)

        return circle_max(log_abs_p, r, samples)

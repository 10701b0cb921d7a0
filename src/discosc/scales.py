"""Growth scales psi on [1, inf), their integrated form, and radial weights.

A GrowthScale wraps a nondecreasing comparison function psi(x) together
with psi_tilde(x) = int_1^x psi(t)/t dt.  Log-power and power kinds use the
closed forms

    psi = log^p x      ->  psi_tilde = log^(p+1) x / (p+1)
    psi = x^rho        ->  psi_tilde = (x^rho - 1) / rho

while tabulated and weight-induced scales integrate numerically after the
substitution u = log t, where the integrand psi(e^u) varies slowly: the
package's one quadrature, numutil.adaptive_segment_integral (a tanh-sinh
rule, shared with the solution's g = int h), on [0, log x] for every x
of a call at once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .numutil import SegmentIntegralError, adaptive_segment_integral

__all__ = [
    "GrowthScale",
    "WeightPair",
    "polya_doubling",
    "polya_order_estimate",
    "genus_from_scale",
    "weight_to_psi",
]

# spans nine decades and stays clear of x = 1 where log-power scales vanish
_DEFAULT_LADDER = np.geomspace(1e3, 1e12, 19)
# psi_tilde by quadrature settles where two successive levels agree to
# _QUAD_REL_TOL, or to 1e-12 absolute where psi_tilde(x) is near 0 (x near
# 1).  That is what the weight-induced psi can meet: its rounding grows
# like eps * t, so its levels agree only to about 1e-12 at x = 5e6 and
# 1e-10 at x = 1e8, and beyond that they may never agree (x = 3.9e8 fails
# by name).
_QUAD_REL_TOL = 1e-10


class GrowthScale:
    """Comparison scale with cached doubling order.

    Use the constructors log_power, power, tabulated, or from_config.
    """

    def __init__(self, kind: str, psi_fn: Callable, label: str,
                 params: dict | None = None,
                 psi_tilde_fn: Callable | None = None):
        self.kind = kind
        self.label = label
        self.params = dict(params or {})
        self._psi = psi_fn
        self._psi_tilde = psi_tilde_fn
        self._order: float | None = None

    @classmethod
    def log_power(cls, p: float) -> "GrowthScale":
        if not (math.isfinite(p) and p >= 0.0):
            raise ValueError(f"log-power exponent must be finite and "
                             f"nonnegative, got {p!r}")

        def psi(x):
            return np.log(x) ** p

        def psit(x):
            return np.log(x) ** (p + 1.0) / (p + 1.0)

        return cls("log-power", psi, f"log^{p:g}", {"p": p}, psit)

    @classmethod
    def power(cls, rho: float) -> "GrowthScale":
        if not (math.isfinite(rho) and rho > 0.0):
            raise ValueError(f"power exponent must be finite and positive, "
                             f"got {rho!r}")

        def psi(x):
            return np.asarray(x, dtype=float) ** rho

        def psit(x):
            return (np.asarray(x, dtype=float) ** rho - 1.0) / rho

        return cls("power", psi, f"x^{rho:g}", {"rho": rho}, psit)

    @classmethod
    def tabulated(cls, psi_fn: Callable, label: str = "tabulated") -> "GrowthScale":
        return cls("tabulated", psi_fn, label)

    @classmethod
    def from_config(cls, cfg: dict) -> "GrowthScale":
        kind = cfg.get("kind")
        if kind == "log-power":
            return cls.log_power(float(cfg["p"]))
        if kind == "power":
            return cls.power(float(cfg["rho"]))
        if kind == "weight":
            return weight_to_psi(WeightPair.from_config(cfg))
        raise ValueError(f"unknown scale kind {kind!r}")

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 1.0):
            raise ValueError("scale argument must be >= 1")
        return self._psi(x)

    def psi_tilde(self, x):
        """int_1^x psi(t)/t dt: the closed form where the kind has one, else
        int_0^log x psi(e^u) du by numutil's tanh-sinh rule, which names
        the scale and x (ValueError) where psi is not finite at a node or
        the levels run out."""
        x = np.asarray(x, dtype=float)
        if not np.all(x >= 1.0):
            raise ValueError("scale argument must be >= 1")
        if self._psi_tilde is not None:
            return self._psi_tilde(x)
        try:
            return adaptive_segment_integral(lambda u: self._psi(np.exp(u)),
                                             0.0, np.log(x), _QUAD_REL_TOL)
        except SegmentIntegralError as err:
            raise ValueError(
                f"psi_tilde of scale {self.label!r} at x = "
                f"{float(x.flat[err.index])!r}: "
                f"{err.reason.replace('integrand', 'psi')}") from None

    @property
    def polya_order(self) -> float:
        if self._order is None:
            self._order = polya_order_estimate(self)
        return self._order

    def config(self) -> dict:
        return {"kind": self.kind, "label": self.label, **self.params}


def _check_ladder(ladder, decades: bool = False) -> np.ndarray:
    lad = np.asarray(ladder, dtype=float)
    if lad.size < 2 or np.min(lad) < 1.0:
        raise ValueError("ladder must contain at least two points >= 1")
    if decades and np.max(lad) / np.min(lad) < 1e3:
        raise ValueError("ladder must span at least three decades")
    return lad


def polya_doubling(scale: GrowthScale, ladder=None) -> float:
    """sup over the ladder of psi(2x)/psi(x); bounded for doubling scales."""
    lad = _check_ladder(_DEFAULT_LADDER if ladder is None else ladder)
    lo = np.asarray(scale.psi(lad), dtype=float)
    hi = np.asarray(scale.psi(2.0 * lad), dtype=float)
    if np.any(lo <= 0.0):
        raise ValueError("psi vanishes on the ladder; move the ladder right")
    return float(np.max(hi / lo))


def polya_order_estimate(scale: GrowthScale, ladder=None) -> float:
    """sup over ladder points and C in {2,4,8} of log(psi(Cx)/psi(x))/log C."""
    lad = _check_ladder(_DEFAULT_LADDER if ladder is None else ladder,
                        decades=True)
    lo = np.asarray(scale.psi(lad), dtype=float)
    if np.any(lo <= 0.0):
        raise ValueError("psi vanishes on the ladder; move the ladder right")
    best = -math.inf
    for c in (2.0, 4.0, 8.0):
        hi = np.asarray(scale.psi(c * lad), dtype=float)
        best = max(best, float(np.max(np.log(hi / lo) / math.log(c))))
    return best


def genus_from_scale(scale: GrowthScale) -> int:
    """Smallest admissible genus floor(order) + 1 for the scale's order."""
    order = scale.polya_order
    if not math.isfinite(order) or order < 0.0:
        raise ValueError(f"order estimate {order!r} unusable for genus selection")
    return int(math.floor(order)) + 1


# ---------------------------------------------------------------------------
# radial weights


class WeightPair:
    """Radial weight h on [0, 1) with its derived local radius function.

    h must be C^2, increasing, h(0) = 0, with analytic derivatives hp and
    hpp.  The radial Laplacian (r h')' / r feeds rho = (Lap h)^(-1/2) and
    sigma = (1-r)^2 / rho^2.  config is the rebuild recipe for from_config.
    """

    def __init__(self, h: Callable, hp: Callable, hpp: Callable, label: str,
                 config: dict):
        self.h = h
        self.hp = hp
        self.hpp = hpp
        self.label = label
        self.config = dict(config)

    @classmethod
    def log_power_weight(cls, gamma: float) -> "WeightPair":
        """h(r) = log^gamma(1/(1-r)) with analytic derivatives.  Only gamma
        = 2 gives rho a finite, positive value at the origin, so any other
        gamma raises ValueError."""
        if gamma != 2.0:
            raise ValueError(
                f"weight exponent gamma = {gamma:g} is not supported: only "
                "gamma = 2 gives a finite, positive rho at the origin (Lap "
                "h(0) is +inf for gamma < 2 and 0 for gamma > 2)")

        def L(r):
            return -np.log1p(-np.asarray(r, dtype=float))

        def h(r):
            return L(r) ** gamma

        def hp(r):
            r = np.asarray(r, dtype=float)
            return gamma * L(r) ** (gamma - 1.0) / (1.0 - r)

        def hpp(r):
            r = np.asarray(r, dtype=float)
            u = 1.0 - r
            return (gamma * (gamma - 1.0) * L(r) ** (gamma - 2.0)
                    + gamma * L(r) ** (gamma - 1.0)) / u ** 2

        return cls(h, hp, hpp, label=f"log^{gamma:g}-weight",
                   config={"h": "log-power-of-one-minus-r", "gamma": gamma})

    @classmethod
    def from_config(cls, cfg: dict) -> "WeightPair":
        name = cfg.get("h")
        if name == "log-power-of-one-minus-r":
            return cls.log_power_weight(float(cfg.get("gamma", 2.0)))
        raise ValueError(f"unknown weight form {name!r}")

    def laplacian(self, r):
        """(r h')' / r; at r = 0 the rotational limit 2 h''(0)."""
        r = np.asarray(r, dtype=float)
        hpp = np.asarray(self.hpp(r), dtype=float)
        hp = np.asarray(self.hp(r), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return hpp + np.where(r > 0.0, hp / np.where(r > 0.0, r, 1.0), hpp)

    def rho(self, r):
        lap = np.asarray(self.laplacian(r), dtype=float)
        if np.any(lap <= 0.0):
            raise ValueError("weight Laplacian must be positive")
        return lap ** -0.5

    def sigma(self, r):
        r = np.asarray(r, dtype=float)
        return (1.0 - r) ** 2 * np.asarray(self.laplacian(r), dtype=float)

    def validate(self) -> dict:
        """Monotonicity spot-checks on 25 radii from 0.5 to 0.995,
        accumulating toward the boundary; raises on violation, returns
        diagnostics."""
        r = 1.0 - np.geomspace(0.5, 0.005, 25)
        hvals = np.asarray(self.h(r), dtype=float)
        if np.any(np.diff(hvals) <= 0.0):
            raise ValueError("weight must be increasing")
        rho = self.rho(r)
        if np.any(np.diff(rho) > 1e-12):
            raise ValueError("rho must be nonincreasing on the working range")
        sig = self.sigma(r)
        if np.any(np.diff(sig) < -1e-9 * np.abs(sig[1:])):
            raise ValueError("sigma must be nondecreasing on the working range")
        slow = (1.0 - r) * np.asarray(self.hp(r), dtype=float) / hvals
        return {"max_slow_variation": float(np.max(slow)),
                "sigma_range": (float(sig[0]), float(sig[-1]))}


def weight_to_psi(weight: WeightPair) -> GrowthScale:
    """Scale psi(t) = Lap h(1 - 1/t) / t^2 induced by a radial weight.

    Checked to be nondecreasing on a log ladder from 1 to 1e6; the result
    is a scale of kind "weight" (psi_tilde by the tanh-sinh rule, rebuilt by
    from_config from the weight's config) carrying the weight object for
    growth comparisons against h itself.
    """

    def psi(t):
        t = np.asarray(t, dtype=float)
        return np.asarray(weight.laplacian(1.0 - 1.0 / t), dtype=float) / t ** 2

    lad = np.geomspace(1.0, 1e6, 60)
    vals = np.asarray(psi(lad), dtype=float)
    if np.any(~np.isfinite(vals)) or np.any(vals <= 0.0):
        raise ValueError("induced psi must be positive and finite")
    if np.any(np.diff(vals) < -1e-9 * vals[1:]):
        k = int(np.argmin(np.diff(vals)))
        raise ValueError(
            f"induced psi not monotone near t = {lad[k]:.6g}; "
            "the weight is outside the admissible class")
    scale = GrowthScale("weight", psi, f"from-{weight.label}",
                        dict(weight.config))
    scale.params["weight"] = weight.label
    scale.weight = weight
    return scale

"""Unit-disc geometry: Mobius maps, pseudohyperbolic distance, Carleson boxes.

Points are plain complex numbers (or arrays of them) inside the open unit
disc.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numutil import one_minus_conj_mul, wrap_angle

__all__ = [
    "CarlesonBox",
    "mobius_map",
    "pseudo_distance",
    "box_contains",
    "carleson_box_table",
]


def mobius_map(z, w):
    """Disc automorphism (z - w) / (1 - conj(z) w).

    As a function of w this exchanges 0 and z; it maps the disc onto itself.
    Vectorized over either argument.
    """
    return (z - w) / one_minus_conj_mul(z, w)


def pseudo_distance(z, w):
    """Pseudohyperbolic distance |z - w| / |1 - conj(z) w|, in [0, 1)."""
    return np.abs(z - w) / np.abs(one_minus_conj_mul(z, w))


@dataclass(frozen=True)
class CarlesonBox:
    """Boundary box of depth delta at boundary angle phi.

    The box is {zeta in closed disc : |zeta| >= 1 - delta,
    |arg(zeta) - phi| <= pi*delta}, angular distance taken mod 2*pi.
    Requires delta in (0, 1] and phi in [0, 2*pi).
    """

    delta: float
    phi: float

    def __post_init__(self):
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"box depth must lie in (0, 1], got {self.delta!r}")
        if not (0.0 <= self.phi < 2.0 * np.pi):
            raise ValueError(f"box angle must lie in [0, 2*pi), got {self.phi!r}")


def box_contains(box: CarlesonBox, zeta):
    """Membership test for a Carleson box; vectorized over zeta.

    The angular gap is reduced to its representative in (-pi, pi], so boxes
    straddling angle 0 behave correctly.
    """
    zeta = np.asarray(zeta)
    radial = np.abs(zeta) >= 1.0 - box.delta
    # arg of 0 is irrelevant: the radial test already fails for delta < 1
    ang = np.abs(wrap_angle(np.angle(zeta) - box.phi)) <= np.pi * box.delta
    inside = np.abs(zeta) <= 1.0 + 1e-15
    return radial & ang & inside


def _box_mass(density, delta: float, phi: float) -> float:
    """Midpoint-rule mass of density * dA over one box, polar coordinates.

    Midpoints keep the rule clear of |zeta| = 1 where densities may blow up.
    The grid is fixed at 64 radial x 64 angular cells with no accuracy
    control, so a density concentrated below one radial cell is not
    resolved.
    """
    dt = delta / 64
    dth = 2.0 * np.pi * delta / 64
    t = 1.0 - delta + (np.arange(64) + 0.5) * dt
    th = phi - np.pi * delta + (np.arange(64) + 0.5) * dth
    zeta = t[:, None] * np.exp(1j * th[None, :])
    vals = np.asarray(density(zeta), dtype=float)
    if not np.all(np.isfinite(vals)) or np.any(vals < 0.0):
        raise ValueError("density returned a negative or non-finite sample")
    return float(np.sum(vals * t[:, None]) * dt * dth)


def carleson_box_table(density, deltas):
    """Per-depth Carleson ratios max_phi mass(Q_delta) / delta.

    density maps an array of disc points to nonnegative reals.  For each
    delta the boundary angle phi runs over a uniform grid of 8 positions
    and the worst box is kept.  Returns a list of (delta, ratio) pairs in
    the order given.

    Each mass is a fixed-grid midpoint estimate (see _box_mass) with no
    accuracy control.  The angles are the same at every depth, so the boxes
    are nested and resolved masses obey
    ratio(delta) <= (delta'/delta) * ratio(delta') for delta < delta'; an
    estimate that breaks this is unresolved.
    """
    out = []
    for delta in deltas:
        best = 0.0
        for j in range(8):
            phi = 2.0 * np.pi * j / 8
            CarlesonBox(delta, phi)  # validates delta
            best = max(best, _box_mass(density, delta, phi) / delta)
        out.append((float(delta), best))
    return out

"""Zero sequences in the disc: generators, counting functions, separation,
and density diagnostics.

A ZeroSequence is a finite multiset-free list of distinct disc points kept
sorted by modulus.  Generators attach their parameters to the sequence
metadata, so a sequence file records how it was made; no command reads
them from a file.

The estimators are blocked row reductions over numutil.slices, so none
forms an N x N matrix.  sigma_report takes the separation, the uniform
separation and the uniform density from one pass of the pseudohyperbolic
distance; rho_separation, rho_density_estimate and condition_report take
Euclidean distances.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .geometry import pseudo_distance
from .numutil import distance_rows, one_minus_abs, slices

__all__ = [
    "ZeroSequence",
    "SharpnessParams",
    "ConditionReport",
    "generate_sharpness",
    "generate_radial_geometric",
    "generate_rho_lattice",
    "count_near",
    "log_integrated_count",
    "SigmaReport",
    "sigma_report",
    "rho_density_estimate",
    "rho_separation",
    "blaschke_sum",
    "condition_report",
]

LN3 = math.log(3.0)
# the most points a generator builds, far above the largest pinned set (N =
# 11,324): each counts its points before it forms any (_counted)
MAX_POINTS = 2 ** 20


def _counted(count, what: str):
    """count, or ValueError naming what when it passes MAX_POINTS."""
    if count > MAX_POINTS:
        raise ValueError(f"{what}: point count {count} exceeds the point "
                         f"limit {MAX_POINTS}")
    return count


class ZeroSequence:
    """Distinct points of the open unit disc, sorted by increasing modulus."""

    def __init__(self, points, label: str = "", meta: dict | None = None):
        pts = np.asarray(list(points), dtype=complex)
        if pts.ndim != 1:
            raise ValueError("points must form a one-dimensional list")
        if pts.size and not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if pts.size and np.max(np.abs(pts)) >= 1.0:
            k = int(np.argmax(np.abs(pts)))
            raise ValueError(
                f"point {k} has modulus {abs(pts[k]):.17g} >= 1")
        order = np.argsort(np.abs(pts), kind="stable")
        pts = pts[order]
        dup = _duplicate_pairs(pts)
        if dup:
            raise ValueError(f"duplicate points at sorted indices {dup[:8]}")
        self.points = pts
        self.label = label
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return int(self.points.size)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, k):
        return self.points[k]

    def moduli(self) -> np.ndarray:
        return np.abs(self.points)

    def gaps(self) -> np.ndarray:
        """1 - |z_k|, boundary-stable."""
        return one_minus_abs(self.points)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "points": [{"re": float(z.real), "im": float(z.imag)}
                       for z in self.points],
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ZeroSequence":
        """The sequence of a to_json object; a ValueError names a malformed
        object, or a point count above MAX_POINTS before any point is
        formed."""
        try:
            raw = obj["points"]
            _counted(len(raw), "sequence")
            pts = [complex(p["re"], p["im"]) for p in raw]
            label = str(obj.get("label", ""))
            meta = obj.get("meta", {})
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed sequence object: {exc}") from exc
        if not isinstance(meta, dict):
            raise ValueError(f"malformed sequence object: meta must be a "
                             f"JSON object, not {type(meta).__name__}")
        return cls(pts, label=label, meta=meta)

    def to_text(self) -> str:
        """The text of the sequence file, the one encoding of a sequence
        that save and discosc gen write: byte for byte what
        json.dump(self.to_json(), fh, indent=1) writes, plus a newline.

        Schema: one object with the keys "label" (a string), "points" (a
        list of {"re": x, "im": y}, in the order of self.points, by
        increasing modulus) and "meta" (the generator's parameters), in
        that order.  Layout, json's for indent=1: a line per key and per
        list entry, one space of indent per level, "," at the end of every
        line but a container's last, ": " after every key, [] and {} for
        empty containers, strings in ASCII with json's escapes, and every
        float as its repr, which reads back to the same bits (-0.0 and
        subnormals too).  geometric(0.5, 1) is

            {
             "label": "geometric(ratio=0.5,count=1)",
             "points": [
              {
               "re": 0.5,
               "im": 0.0
              }
             ],
             "meta": {
              "generator": "geometric",
              "ratio": 0.5,
              "count": 1
             }
            }

        The label and meta go through json.dumps(..., indent=1), each as
        the only key of an object, so json sets their indent at depth 1;
        the points, which json's pure-Python indent encoder spends most of
        its time on, fill one template per point."""
        head = json.dumps({"label": self.label}, indent=1)[:-2]
        tail = json.dumps({"meta": self.meta}, indent=1)[2:]
        rows = ",\n".join([f'  {{\n   "re": {x!r},\n   "im": {y!r}\n  }}'
                           for x, y in zip(self.points.real.tolist(),
                                           self.points.imag.tolist())])
        points = f"[\n{rows}\n ]" if rows else "[]"
        return f'{head},\n "points": {points},\n{tail}\n'

    def save(self, path) -> None:
        """Write the sequence file (to_text) to path."""
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "ZeroSequence":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def _duplicate_pairs(pts: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of equal points (0.0 == -0.0), in
    upper-triangle order.  One stable sort by (re, im) puts equal points
    in runs of ascending index, and the members of each run are paired:
    O(N log N) time, O(N) memory."""
    order = np.lexsort((pts.imag, pts.real))
    srt = pts[order]
    same = (srt.real[1:] == srt.real[:-1]) & (srt.imag[1:] == srt.imag[:-1])
    edge = np.diff(same.astype(np.int8), prepend=0, append=0)
    pairs = []
    for lo, hi in zip(np.flatnonzero(edge == 1), np.flatnonzero(edge == -1)):
        pairs += itertools.combinations(order[lo:hi + 1].tolist(), 2)
    return sorted(pairs)


@dataclass(frozen=True)
class SharpnessParams:
    """Parameters for the clustered-block family used in sharpness runs.

    Block n sits at distance 3^-n from the boundary and carries
    m_n = floor((n log 3)^eta1) points spread over a window of width
    eps_n = exp(-(n log 3)^(1+eta2)).
    """

    eta1: float
    eta2: float
    n_max: int

    def __post_init__(self):
        for name, eta in (("eta1", self.eta1), ("eta2", self.eta2)):
            if not 0.0 < eta < math.inf:
                raise ValueError(f"{name} = {eta} must be positive and finite")
        if not (1 <= self.n_max <= 30):
            raise ValueError("n_max must lie in 1..30")

    def _power(self, n: int, p: float, what: str) -> float:
        """(n log 3)^p, or ValueError naming block n when it overflows."""
        try:
            return (n * LN3) ** p
        except OverflowError:
            raise ValueError(f"block {n}: {what} overflows binary64") from None

    def block_count(self, n: int) -> int:
        m = int(math.floor(self._power(n, self.eta1, "point count")))
        return _counted(m, f"block {n}")

    def block_width(self, n: int) -> float:
        return math.exp(-self._power(n, 1.0 + self.eta2, "width exponent"))


def generate_sharpness(params: SharpnessParams) -> ZeroSequence:
    """Clustered blocks z_{n,k} = 1 - 3^-n + k*eps_n/m_n, k = 0..m_n-1.

    Blocks with m_n = 0 are skipped and recorded in metadata (with the
    natural log in the defining formula this cannot occur for n >= 1, but
    the guard keeps degenerate parameter choices from silently producing a
    wrong sequence).
    """
    counts = [params.block_count(n) for n in range(1, params.n_max + 1)]
    _counted(sum(counts), f"blocks 1..{params.n_max}")
    pts: list[float] = []
    blocks = []
    skipped = []
    for n, m in enumerate(counts, start=1):
        if m == 0:
            skipped.append(n)
            continue
        eps = params.block_width(n)
        base = 1.0 - 3.0 ** (-n)
        # Deep blocks request widths below the binary64 grid near base; widen
        # to keep the m points distinct (>= 64 ulp between neighbours).
        floor_width = m * 64.0 * float(np.spacing(base))
        if floor_width > eps and floor_width > 0.25 * 3.0 ** (-n):
            raise ValueError(
                f"block {n} cannot hold {m} distinct binary64 points "
                f"within a quarter of its boundary gap"
            )
        eps_eff = max(eps, floor_width)
        zs = [base + k * eps_eff / m for k in range(m)]
        pts.extend(zs)
        blocks.append(
            {
                "n": n,
                "m": m,
                "eps": eps,
                "eps_eff": eps_eff,
                "base": base,
                "clamped": eps_eff > eps,
            }
        )
    seq = ZeroSequence(
        [complex(p) for p in pts],
        label=f"sharpness(eta1={params.eta1:g},eta2={params.eta2:g},n_max={params.n_max})",
        meta={
            "generator": "sharpness",
            "eta1": params.eta1,
            "eta2": params.eta2,
            "n_max": params.n_max,
            "blocks": blocks,
            "skipped_blocks": skipped,
        },
    )
    return seq


def generate_radial_geometric(ratio: float, count: int) -> ZeroSequence:
    """Radial points z_k = 1 - ratio^k, k = 1..count.

    Consecutive points have pseudohyperbolic distance
    (1-ratio)/(1+ratio-ratio^(k+1)) -> (1-ratio)/(1+ratio), so the family
    is uniformly separated at every count.
    """
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must lie in (0, 1)")
    if count < 1:
        raise ValueError("count must be positive")
    _counted(count, "geometric")
    vals = 1.0 - ratio ** np.arange(1, count + 1, dtype=float)
    if np.any(vals >= 1.0) or np.any(np.diff(vals) <= 0.0):
        raise ValueError(
            f"ratio^k underflows binary64 before k = {count}; "
            "reduce count or move ratio toward 1")
    return ZeroSequence(
        vals.astype(complex),
        label=f"geometric(ratio={ratio:g},count={count})",
        meta={"generator": "geometric", "ratio": ratio, "count": count},
    )


def generate_rho_lattice(rho: Callable[[np.ndarray], np.ndarray], spacing: float,
                         r_max: float) -> ZeroSequence:
    """Polar lattice with local mesh proportional to a radius function rho.

    Rings are placed at r_{j+1} = r_j + spacing * rho(r_j) starting from a
    single point at the origin; ring j holds points spaced roughly
    spacing * rho(r_j) along the circle.  Stops at r_max; raises if the
    radial step underflows first, or if a ring would take the count past
    MAX_POINTS: the rings are counted before any point is formed.
    """
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    if not (0.0 < r_max < 1.0):
        raise ValueError("r_max must lie in (0, 1)")
    rings = [{"r": 0.0, "count": 1}]
    total, r = 1, 0.0
    while True:
        step = spacing * float(np.asarray(rho(np.asarray([r])))[0])
        if not (step > 0.0 and np.isfinite(step)):
            raise ValueError(f"rho produced a nonpositive step at r = {r:g}")
        r_next = r + step
        if r_next == r:
            raise ValueError(
                f"radial step underflowed at r = {r:.17g} before reaching r_max")
        if r_next > r_max:
            break
        # angular mesh follows rho at the ring's own radius
        step_ang = spacing * float(np.asarray(rho(np.asarray([r_next])))[0])
        n_ang = max(1, int(math.floor(2.0 * math.pi * r_next / step_ang)))
        total = _counted(total + n_ang,
                         f"ring {len(rings)} at r = {r_next:.6g}")
        rings.append({"r": r_next, "count": n_ang})
        r = r_next
    pts: list[complex] = [0j]
    for j, ring in enumerate(rings[1:], start=1):
        # stagger rings so neighbours are not radially aligned
        offset = 2.0 * math.pi * ((j * 0.381966) % 1.0)
        n_ang = ring["count"]
        angles = offset + 2.0 * math.pi * np.arange(n_ang) / n_ang
        pts.extend(ring["r"] * np.exp(1j * angles))
    seq = ZeroSequence(pts, label="rho-lattice",
                       meta={"generator": "rho-lattice", "spacing": spacing,
                             "r_max": r_max, "rings": rings})
    if len(seq) >= 2:
        seq.meta["rho_separation"] = rho_separation(seq, rho)
    return seq


# ---------------------------------------------------------------------------
# counting functions


def count_near(seq: ZeroSequence, center: complex, t: float) -> int:
    """Number of sequence points with |z_k - center| <= t (closed ball)."""
    if t < 0.0:
        raise ValueError("radius must be nonnegative")
    return int(np.count_nonzero(np.abs(seq.points - center) <= t))


def log_integrated_count(seq: ZeroSequence, center: complex, r: float) -> float:
    """Integral of (count_near(t) - 1)+ / t over 0 < t <= r.

    Equals sum_{j >= 2, d_j <= r} log(r / d_j) over the sorted distances
    d_1 <= d_2 <= ... from center to the sequence; the closest point is
    exempt, so the integrand vanishes near t = 0 and the integral is finite.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    d = np.sort(np.abs(seq.points - center))
    d = d[1:]  # drop the closest point
    d = d[d <= r]
    if d.size == 0:
        return 0.0
    if d[0] == 0.0:
        raise ValueError("two sequence points coincide with the center")
    return float(np.sum(np.log(r / d)))


def near_counts(dist: np.ndarray, r: np.ndarray):
    """count_near and log_integrated_count, bit for bit, at a block of
    centres that are sequence points, from dist, their distances to every
    point, and r, their radii, one row per centre.  Only the count smallest
    distances of a row are sorted, and rows of one count summed together."""
    count = np.count_nonzero(dist <= r, axis=1)
    integrated = np.zeros(len(dist))
    m = int(np.max(count, initial=1))
    if m < dist.shape[1]:
        dist = np.partition(dist, m, axis=1)[:, :m]
    logs = np.log(r / np.sort(dist, axis=1)[:, 1:m])
    # a set: np.unique imports numpy.ma
    for c in set(count.tolist()) - {0, 1}:
        at = np.flatnonzero(count == c)
        integrated[at] = np.sum(logs[at, :c - 1], axis=1)
    return count, integrated


# ---------------------------------------------------------------------------
# separation and densities


def _boundary_grid(n_radii: int, n_angles: int,
                   gap_lo: float = 0.005) -> np.ndarray:
    """Polar probe grid accumulating geometrically toward |z| = 1, from
    boundary gap 1/2 down to gap_lo."""
    gaps = np.geomspace(0.5, gap_lo, n_radii)
    radii = 1.0 - gaps
    th = 2.0 * np.pi * np.arange(n_angles) / n_angles
    return (radii[:, None] * np.exp(1j * th[None, :])).ravel()


class SigmaReport(NamedTuple):
    """The pseudohyperbolic estimators of sigma_report."""
    separation: float
    uniform_separation_log: float
    density: list


def sigma_report(seq: ZeroSequence, r_ladder=()) -> SigmaReport:
    """The estimators of the pseudohyperbolic distance sigma from one
    blocked pass of sigma over the sequence's rows, and with a ladder the
    rows of a boundary-accumulating polar grid of 32 radii and 64 angles.

    separation: the smallest sigma(z_i, z_j) over the pairs i < j (inf for
    one point).  uniform_separation_log: log inf_j prod_{n != j} sigma(z_n,
    z_j), the smallest row sum of log sigma (0 for one point), finite
    where the constant underflows binary64, as it does on the rho-lattices
    from N = 6258 on.  density: (r, value) for each r of r_ladder, the
    finite-r lower estimate of the uniform (Seip-type) density
    sup_z sum_{1/2 < sigma(z, z_j) < r} log(1/sigma) / log(1/(1-r)), the
    sup running over the sequence and the grid.  Values at moderate r
    understate the r -> 1 limit; the ladder is reported as-is rather than
    extrapolated.
    """
    r_ladder = list(r_ladder)
    for r in r_ladder:
        if not (0.5 < r < 1.0):
            raise ValueError("density ladder radii must lie in (1/2, 1)")
    z = seq.points
    n = z.size
    centres = np.concatenate([z, _boundary_grid(32, 64)]) if r_ladder else z
    sep, row_logs = math.inf, np.empty(n)
    dens = np.empty((len(r_ladder), centres.size))
    for sl in slices(centres.size, n):
        sig = pseudo_distance(centres[sl, None], z[None, :])
        with np.errstate(divide="ignore"):
            logs = np.log(sig)
        k = max(0, min(sl.stop, n) - sl.start)  # the block's sequence rows
        if k:
            pairs = sig[:k, sl.start:]
            above = ~np.tri(*pairs.shape, dtype=bool)  # the pairs j > i
            sep = min(sep, float(np.min(pairs, initial=math.inf,
                                        where=above)))
            logs[np.arange(k), np.arange(sl.start, sl.start + k)] = 0.0
            row_logs[sl.start:sl.start + k] = np.sum(logs[:k], axis=1)
        if r_ladder:
            # the radii share the sigma > 1/2 test: -log sigma there, else 0
            neglog = np.where(sig > 0.5, -logs, 0.0)
            for j, r in enumerate(r_ladder):
                dens[j, sl] = np.sum(np.where(sig < r, neglog, 0.0), axis=1)
    return SigmaReport(
        sep, float(np.min(row_logs, initial=0.0)),
        [(float(r), float(np.max(s) / math.log(1.0 / (1.0 - r))))
         for r, s in zip(r_ladder, dens)])


def rho_density_estimate(seq: ZeroSequence, rho, R_ladder):
    """Counting density card(Z cap U(z, R*rho(|z|))) / R^2 along an R ladder.

    The sup runs over sequence points and a polar grid of 16 radii and 32
    angles reaching the largest sequence modulus.  A finite sequence
    undercounts any disc that spills past its truncation radius, which
    turns the sup into a pure N/R^2 saturation artifact once R*rho exceeds
    the headroom; centers are therefore restricted, per R, to those whose
    counting disc stays inside the sampled support.  When no center
    qualifies the unrestricted sup is reported (the caller sees the
    saturation regime explicitly).
    """
    if len(seq) == 0:
        raise ValueError("empty sequence has no density")
    top = float(np.max(seq.moduli()))
    grid = _boundary_grid(16, 32, gap_lo=max(1e-3, 1.0 - top))
    centers = np.concatenate([seq.points, grid])
    rad = np.asarray(rho(np.abs(centers)), dtype=float)
    if any(R <= 0.0 for R in R_ladder):
        raise ValueError("R ladder must be positive")
    counts = np.empty((len(R_ladder), centers.size), dtype=int)
    for sl, dist in distance_rows(centers, seq.points):
        for j, R in enumerate(R_ladder):
            counts[j, sl] = np.count_nonzero(dist <= R * rad[sl, None],
                                             axis=1)
    out = []
    for R, count in zip(R_ladder, counts):
        contained = np.abs(centers) + R * rad <= top
        pool = count[contained] if np.any(contained) else count
        out.append((float(R), float(np.max(pool) / R ** 2)))
    return out


def rho_separation(seq: ZeroSequence, rho) -> float:
    """inf over pairs of |z_k - z_n| / min(rho(|z_k|), rho(|z_n|))."""
    if len(seq) < 2:
        raise ValueError("separation needs at least two points")
    z = seq.points
    rad = np.asarray(rho(np.abs(z)), dtype=float)
    if np.any(rad <= 0.0):
        raise ValueError("rho must be positive on the sequence moduli")
    best = math.inf
    for sl in slices(z.size, z.size):
        # the rows sl against the points sl.start, sl.start + 1, ...
        vals = (np.abs(z[sl, None] - z[None, sl.start:])
                / np.minimum(rad[sl, None], rad[None, sl.start:]))
        vals[np.tri(*vals.shape, dtype=bool)] = math.inf  # the pairs j <= i
        best = min(best, float(np.min(vals)))
    return best


# ---------------------------------------------------------------------------
# convergence-exponent material


def blaschke_sum(seq: ZeroSequence, s: int) -> float:
    """sum_k (1 - |z_k|)^(s+1), the convergence sum of genus s."""
    if s < 0:
        raise ValueError("genus must be nonnegative")
    return float(np.sum(seq.gaps() ** (s + 1)))


# ---------------------------------------------------------------------------
# hypothesis constants


@dataclass
class ConditionReport:
    """Empirical constants tying local counting to a growth scale.

    c_hat_n bounds count_near at radius (1-|z_k|)/2 against psi(1/(1-|z_k|));
    c_hat_N does the same for the integrated count against psi_tilde, over
    the points where psi_tilde > 0.  psi_tilde_zero lists the others by
    index: a point at the origin has psi_tilde(1) = 0, and its integrated
    count may be positive.  Per-point tables are kept for CSV emission.
    """

    c_hat_n: float
    c_hat_N: float
    table: list = field(default_factory=list)
    psi_tilde_zero: list = field(default_factory=list)


def condition_report(seq: ZeroSequence, scale) -> ConditionReport:
    if len(seq) == 0:
        raise ValueError("empty sequence has no condition constants")
    gaps = seq.gaps()
    xs = 1.0 / gaps
    psi = np.asarray(scale.psi(xs), dtype=float)
    psit = np.asarray(scale.psi_tilde(xs), dtype=float)
    radius = 0.5 * gaps
    count, integrated = np.empty(len(seq), dtype=int), np.empty(len(seq))
    for sl, dist in distance_rows(seq.points, seq.points):
        count[sl], integrated[sl] = near_counts(dist, radius[sl, None])
    rows = []
    worst_n = 0.0
    worst_N = 0.0
    zero = np.flatnonzero(~(psit > 0.0)).tolist()
    for k, z in enumerate(seq.points):
        r, nk, Nk = radius[k], int(count[k]), float(integrated[k])
        ratio_n = nk / psi[k] if psi[k] > 0.0 else (math.inf if nk > 0 else 0.0)
        ratio_N = Nk / psit[k] if psit[k] > 0.0 else (math.inf if Nk > 0 else 0.0)
        worst_n = max(worst_n, ratio_n)
        if psit[k] > 0.0:
            worst_N = max(worst_N, ratio_N)
        rows.append({"k": k, "z": complex(z), "radius": float(r),
                     "count": int(nk), "integrated": float(Nk),
                     "ratio_n": float(ratio_n), "ratio_N": float(ratio_N)})
    return ConditionReport(float(worst_n), float(worst_N), rows, zero)

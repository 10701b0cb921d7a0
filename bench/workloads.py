"""The benchmark's workloads: inputs made from a seed, one operation each,
and the checks that decide whether an operation's output is correct.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  The seed picks a rotation e^{i phi} of
the zero set (the construction is rotation-equivariant, so the work keeps
its character) and the per-operation inputs: probe seeds for verify, point
batches for eval.  All calls into discosc go through module attributes so
that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RESIDUE_TOL = 1e-6           # the CLI's own residue gate, re-checked here
# Turning the zero set rounds its coordinates, so values move in the last
# digits: over 100 seeded rotations of geo50 the worst log|a| deviation was
# 4.6e-10 (relative, at the deepest near-node reference points) and the
# worst node residual 2.6e-9.  The tolerances sit well above both.
LOG_ABS_A_RTOL = 1e-7        # log|a| against the recorded reference
NODE_TOL = 1e-7              # |h(z_k) - b_k| / (1 + |b_k|)
REFERENCE = Path(__file__).with_name("reference_geo50.json")


class CheckFailed(Exception):
    """An operation returned, but its output failed a check."""


def rotate(mods, seq, phi: float):
    """The sequence turned by e^{i phi}; label and generator metadata kept."""
    return mods["sequences"].ZeroSequence(seq.points * np.exp(1j * phi),
                                          label=seq.label, meta=seq.meta)


def run_cli(mods, argv: list[str]) -> tuple[int, str]:
    """cli.main in process; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods["cli"].main(argv)
    return code, err.getvalue().strip()


def stage_inputs(mods, seq, scale: str, workdir: Path, phi: float) -> dict:
    """Turn the zero set by e^{i phi}, save it, load it back through
    ZeroSequence.load (the round trip must be lossless: the CLI reads
    exactly these points), and parse the scale and its genus."""
    seq = rotate(mods, seq, phi)
    path = workdir / "sequence.json"
    seq.save(path)
    loaded = mods["sequences"].ZeroSequence.load(path)
    if not np.array_equal(loaded.points, seq.points):
        raise CheckFailed(f"sequence file {path.name} does not round-trip")
    parsed = mods["cli"].parse_scale(scale)
    return {"path": path, "sequence": loaded, "scale": parsed,
            "scale_spec": scale, "phi": phi,
            "genus": mods["scales"].genus_from_scale(parsed)}


def disc_batch(rng: np.random.Generator, n: int, r_max: float = 0.95):
    """n points uniform in area on |z| <= r_max."""
    r = r_max * np.sqrt(rng.random(n))
    return r * np.exp(2j * np.pi * rng.random(n))


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    ref["points"] = np.asarray([complex(re, im) for re, im in ref["points"]])
    ref["log_abs_a"] = np.asarray(ref["log_abs_a"], dtype=float)
    return ref


def check_log_abs_a(values, reference) -> None:
    """log|a| within LOG_ABS_A_RTOL of the reference, relative to
    max(1, |reference|)."""
    got = np.log(np.abs(values))
    err = np.abs(got - reference) / np.maximum(1.0, np.abs(reference))
    if not np.all(err <= LOG_ABS_A_RTOL):
        j = int(np.nanargmax(np.where(np.isfinite(err), err, np.inf)))
        raise CheckFailed(f"log|a| off its reference at reference point {j}: "
                          f"{got[j]!r} against {reference[j]!r}")


def check_nodes(bundle) -> None:
    """The series interpolates the residue targets: h(z_k) = b_k."""
    z = bundle.product.z
    b = bundle.targets.values
    h = np.atleast_1d(bundle.gprime.evaluate(z))
    resid = np.abs(h - b) / (1.0 + np.abs(b))
    if not np.all(resid <= NODE_TOL):
        k = int(np.nanargmax(np.where(np.isfinite(resid), resid, np.inf)))
        raise CheckFailed(f"h(z_k) != b_k at node {k}: residual {resid[k]!r}")


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """prepare() makes the inputs, next_input() draws one operation's
    input, op() is the timed call, check() judges its output."""
    label = "op_s"

    def next_input(self, rng):
        return None

    def headline(self, state, op_s: float) -> tuple[float, str]:
        """The workload's own name for its median operation time."""
        return op_s, "s"


@dataclass
class GeoSetup(Workload):
    """Radial geometric zeros 1 - ratio^k under log-power:1, rotated."""
    count: int = 50
    ratio: float = 0.8
    scale: str = "log-power:1"

    def prepare(self, mods, workdir: Path, phi: float) -> dict:
        seq = mods["sequences"].generate_radial_geometric(self.ratio,
                                                         self.count)
        return stage_inputs(mods, seq, self.scale, workdir, phi)


@dataclass
class GeoVerify(GeoSetup):
    """`discosc verify` in process; the probe count sets the op length."""
    probes: int = 20
    rmax: float = 0.9
    label = "verify_s"

    def next_input(self, rng):
        return int(rng.integers(2 ** 31))

    def op(self, mods, state, probe_seed):
        base = state["path"].with_name("verify")
        code, err = run_cli(mods, [
            "verify", "--sequence", str(state["path"]),
            "--scale", state["scale_spec"],
            "--rmax", str(self.rmax), "--samples", str(self.probes),
            "--seed", str(probe_seed), "--out", str(base)])
        return code, err, base.with_suffix(".json")

    def check(self, mods, state, result) -> None:
        code, err, report = result
        if code != 0:
            raise CheckFailed(f"verify exited {code}: {err}")
        with open(report) as fh:
            rep = json.load(fh)
        failing = [k for k, c in rep["checks"].items() if not c["pass"]]
        if failing or not rep["pass"]:
            raise CheckFailed(f"verify checks failed: {failing}")


@dataclass
class LatticeBuild(Workload):
    """`discosc build` on the rho-lattice of the log^gamma weight."""
    gamma: float = 2.0
    spacing: float = 0.8
    rmax: float = 0.9
    label = "build_s"

    def prepare(self, mods, workdir: Path, phi: float) -> dict:
        weight = mods["scales"].WeightPair.log_power_weight(self.gamma)
        seq = mods["sequences"].generate_rho_lattice(weight.rho, self.spacing,
                                                     self.rmax)
        return stage_inputs(mods, seq, f"weight-log:{self.gamma:g}", workdir,
                            phi)

    def op(self, mods, state, _):
        base = state["path"].with_name("build")
        code, err = run_cli(mods, [
            "build", "--sequence", str(state["path"]),
            "--scale", state["scale_spec"], "--out", str(base)])
        return code, err, base.with_suffix(".json")

    def check(self, mods, state, result) -> None:
        code, err, report = result
        if code != 0:
            raise CheckFailed(f"build exited {code}: {err}")
        with open(report) as fh:
            rep = json.load(fh)
        if rep["points"] != len(state["sequence"]):
            raise CheckFailed(f"build saw {rep['points']} points")
        if not rep["max_residue_mismatch"] <= RESIDUE_TOL:
            raise CheckFailed("residue mismatch "
                              f"{rep['max_residue_mismatch']!r}")


@dataclass
class GeoBundle(GeoSetup):
    """geo50 bundle built in set-up, checked against the recorded
    reference (taken at phi = 0 and turned by e^{i phi} here)."""

    def prepare(self, mods, workdir: Path, phi: float) -> dict:
        state = super().prepare(mods, workdir, phi)
        state["bundle"] = mods["oscillation"].build_coefficient(
            state["sequence"], state["scale"])
        state["reference"] = load_reference()
        return state


@dataclass
class GeoEval(GeoBundle):
    """eval_coefficient on a seeded batch; the reference points ride at the
    end of every batch, so the timed output itself is checked."""
    batch: int = 20000
    label = "eval_points_per_s"

    def next_input(self, rng):
        return disc_batch(rng, self.batch)

    def op(self, mods, state, pts):
        ref = state["reference"]["points"] * np.exp(1j * state["phi"])
        return state["bundle"].eval_coefficient(np.concatenate([pts, ref]))

    def check(self, mods, state, a) -> None:
        if not np.all(np.isfinite(a)):
            raise CheckFailed(f"{int(np.sum(~np.isfinite(a)))} non-finite "
                              "coefficient values")
        ref = state["reference"]["log_abs_a"]
        check_log_abs_a(a[a.size - ref.size:], ref)
        check_nodes(state["bundle"])

    def headline(self, state, op_s: float) -> tuple[float, str]:
        points = self.batch + state["reference"]["points"].size
        return points / op_s, "1/s"


@dataclass
class GeoGrowth(GeoBundle):
    """coefficient_growth_table: 43 single-point golden-section calls per
    radius on top of a 1024-point circle scan."""
    ladder: tuple = (0.9, 0.95, 0.99)
    label = "growth_s"

    def op(self, mods, state, _):
        return state["bundle"].coefficient_growth_table(list(self.ladder))

    def check(self, mods, state, rows) -> None:
        want = state["reference"]["growth_log_max"]
        for row in rows:
            if not (math.isfinite(row.log_max) and math.isfinite(row.ratio)):
                raise CheckFailed(f"non-finite growth row at r = {row.r}")
            ref = want[repr(row.r)]
            if abs(row.log_max - ref) > LOG_ABS_A_RTOL * max(1.0, abs(ref)):
                raise CheckFailed(f"growth log max {row.log_max!r} at r = "
                                  f"{row.r} against reference {ref!r}")


WORKLOADS = {
    "geo50-verify": GeoVerify(),
    "lattice368-build": LatticeBuild(),
    "geo50-eval": GeoEval(),
    "geo50-growth": GeoGrowth(),
}

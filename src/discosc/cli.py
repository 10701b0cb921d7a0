"""Command-line front end: generate sequences, analyze them, build the
oscillation bundle, verify it, and emit growth / witness tables.

JSON carries structured reports, CSV carries plot-ready tables.  Every
report echoes the parsed configuration, the library version, and the
numerical design constants in force, and is byte-reproducible for a fixed
(config, seed) pair: no timestamps, sorted keys, fixed float formatting.

Exit codes: 0 success / all checks pass, 2 bad input, 3 construction
failure (the failing node is named), 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .contour import (NODE_FAR_SAMPLES, NODE_NEAR_RATIO, NODE_PROXY_MARGIN,
                      NODE_PROXY_RATIO, NODE_PROXY_SAVING)
from .numutil import CONTOUR_MAX_POINTS, CONTOUR_START_POINTS
from .oscillation import (RESIDUE_TOL, ResidueCancellationError,
                          build_coefficient, sample_probes, sharpness_witness)
from .scales import GrowthScale, WeightPair, weight_to_psi
from .sequences import (SharpnessParams, ZeroSequence, condition_report,
                        generate_radial_geometric, generate_rho_lattice,
                        generate_sharpness, rho_density_estimate,
                        rho_separation, sigma_report)

# Numerical design constants in force; echoed into every report.
DESIGN = {
    "contour_start_points": CONTOUR_START_POINTS,
    "node_near_ratio": NODE_NEAR_RATIO,
    "node_far_samples": NODE_FAR_SAMPLES,
    "node_proxy_ratio": NODE_PROXY_RATIO,
    "node_proxy_margin": NODE_PROXY_MARGIN,
    "node_proxy_saving": NODE_PROXY_SAVING,
    "contour_max_points": CONTOUR_MAX_POINTS,
    "exclusion_rule": "min(nearest_neighbor/4, (1-|z|)/8)",
    "margin_default": 10.0,
}

ODE_TOL = 1e-5


def parse_scale(spec: str) -> GrowthScale:
    """SPEC is kind:value -- log-power:P, power:RHO, or weight-log:GAMMA."""
    kind, _, val = spec.partition(":")
    if kind in ("log", "log-power"):
        return GrowthScale.log_power(float(val) if val else 1.0)
    if kind == "power":
        if not val:
            raise ValueError("power scale needs an exponent, e.g. power:0.5")
        return GrowthScale.power(float(val))
    if kind in ("weight", "weight-log"):
        return weight_to_psi(
            WeightPair.log_power_weight(float(val) if val else 2.0))
    raise ValueError(f"unknown scale kind {kind!r} "
                     "(use log-power:P, power:RHO, weight-log:GAMMA)")


def parse_ladder(text: str) -> list[float]:
    vals = [float(p) for p in text.split(",") if p.strip()]
    if not vals:
        raise ValueError("empty radius ladder")
    if any(not (0.0 < v < 1.0) for v in vals):
        raise ValueError("ladder radii must lie in (0, 1)")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("ladder must be strictly increasing")
    return vals


def _write(text: str, path: str | None) -> None:
    """text to the file path (stdout for None), or ValueError naming it."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _write_json(obj: dict, path: str | None) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=1) + "\n", path)


def _write_csv(header: list[str], rows: list[list], path: str | None) -> None:
    """Each row through one str.format template per sequence of cell
    types: a float cell takes 17 significant digits, any other cell its
    str."""
    lines = [",".join(header)]
    templates = {}
    for row in rows:
        kinds = tuple(map(type, row))
        template = templates.get(kinds)
        if template is None:
            template = templates[kinds] = ",".join(
                "{:.17g}" if issubclass(t, float) else "{}" for t in kinds)
        lines.append(template.format(*row))
    _write("\n".join(lines) + "\n", path)


def _report(command: str, config: dict) -> dict:
    return {"command": command, "config": config, "version": __version__,
            "design": dict(DESIGN)}


def _load_sequence(path: str) -> ZeroSequence:
    try:
        return ZeroSequence.load(path)
    except OSError as exc:
        raise ValueError(f"cannot read sequence file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"sequence file {path} is not JSON: {exc}") from exc


# -- gen ---------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.generator == "sharpness":
        params = SharpnessParams(args.eta1, args.eta2, args.nmax)
        seq = generate_sharpness(params)
        for n in seq.meta.get("skipped_blocks", []):
            print(f"warning: block {n} is empty (m_n = 0), skipped",
                  file=sys.stderr)
    elif args.generator == "geometric":
        seq = generate_radial_geometric(args.ratio, args.count)
    else:
        weight = WeightPair.log_power_weight(args.gamma)
        seq = generate_rho_lattice(weight.rho, args.spacing, args.rmax)
        seq.meta["weight_gamma"] = args.gamma
    if len(seq) == 0:
        print("warning: generator produced no points; nothing written",
              file=sys.stderr)
        return 0
    _write(json.dumps(seq.to_json(), indent=1) + "\n", args.out)
    print(f"wrote {args.out}: {len(seq)} points, "
          f"max modulus {max(abs(z) for z in seq.points):.6f}")
    if len(seq) >= 2:
        sig = sigma_report(seq)
        log_us = sig.uniform_separation_log
        print(f"separation {sig.separation:.6g}, "
              f"uniform separation {np.exp(log_us):.6g} (log {log_us:.6g})")
    return 0


# -- analyze -----------------------------------------------------------------

def cmd_analyze(args) -> int:
    seq = _load_sequence(args.sequence)
    scale = parse_scale(args.scale)
    ladder = parse_ladder(args.ladder) if args.ladder else [0.9, 0.95, 0.99]
    if any(v <= 0.5 for v in ladder):
        raise ValueError("analysis ladder radii must exceed 1/2")
    rep = condition_report(seq, scale)
    out = _report("analyze", {
        "sequence": args.sequence, "scale": args.scale, "ladder": ladder,
    })
    out["scale_resolved"] = scale.config()
    out["points"] = len(seq)
    out["c_hat_n"] = rep.c_hat_n
    out["c_hat_N"] = rep.c_hat_N
    out["psi_tilde_zero_nodes"] = rep.psi_tilde_zero
    sig = sigma_report(seq, ladder)
    out["uniform_density_ladder"] = [
        {"r": r, "value": v} for r, v in sig.density]
    if len(seq) >= 2:
        out["separation"] = sig.separation
        log_us = sig.uniform_separation_log
        out["uniform_separation"] = float(np.exp(log_us))
        out["uniform_separation_log"] = log_us
    if hasattr(scale, "weight"):
        weight = scale.weight
        # R kept below 1 so R*rho stays well under the distance to the
        # boundary; larger discs leave the regime where count/R^2 reads a
        # density and the finite truncation saturates them.
        r_ladder = [0.5, 0.75, 1.0]
        out["rho_density_ladder"] = [
            {"R": R, "value": v}
            for R, v in rho_density_estimate(seq, weight.rho, r_ladder)]
        if len(seq) >= 2:
            out["rho_separation"] = rho_separation(seq, weight.rho)
    _write_json(out, args.out + ".json" if args.out else None)
    rows = [[r["k"], float(r["z"].real), float(r["z"].imag), r["radius"],
             r["count"], r["integrated"], r["ratio_n"], r["ratio_N"]]
            for r in rep.table]
    _write_csv(["k", "z_re", "z_im", "radius", "count", "integrated",
                "ratio_n", "ratio_N"], rows,
               args.out + ".csv" if args.out else None)
    if args.out:
        print(f"wrote {args.out}.json and {args.out}.csv: "
              f"c_hat_n {rep.c_hat_n:.6g}, c_hat_N {rep.c_hat_N:.6g}")
    return 0


# -- build -------------------------------------------------------------------

def _build_bundle(args):
    seq = _load_sequence(args.sequence)
    scale = parse_scale(args.scale)
    bundle = build_coefficient(seq, scale, margin=args.margin)
    return seq, scale, bundle


def cmd_build(args) -> int:
    seq, scale, bundle = _build_bundle(args)
    prod = bundle.product
    targets = bundle.targets
    node_vals = np.atleast_1d(bundle.gprime.evaluate(prod.z))
    resid = np.abs(node_vals - targets.values) / (1.0 +
                                                  np.abs(targets.values))
    out = _report("build", {
        "sequence": args.sequence, "scale": args.scale,
        "margin": args.margin,
    })
    out["scale_resolved"] = scale.config()
    out["points"] = len(seq)
    out["genus"] = bundle.genus
    out["exponent_rule"] = ("s_n = genus + ceil((margin + C*psi_tilde(1/"
                            "(1-|z_n|)) + 2*log(n+1))/log 2)")
    out["exponent_range"] = [int(bundle.gprime.exponents.min()),
                             int(bundle.gprime.exponents.max())]
    out["target_bound_constant"] = targets.bound_constant
    out["convergence_sum"] = prod.convergence_sum
    out["max_node_residual"] = float(np.max(resid)) if len(seq) else 0.0
    out["max_residue_mismatch"] = (float(np.max(bundle.residue_mismatch))
                                   if len(seq) else 0.0)
    _write_json(out, args.out + ".json" if args.out else None)
    rows = [[k, float(prod.z[k].real), float(prod.z[k].imag),
             float(targets.values[k].real), float(targets.values[k].imag),
             int(bundle.gprime.exponents[k]),
             float(prod.exclusion_radii[k]), float(resid[k]),
             float(bundle.residue_mismatch[k])]
            for k in range(len(seq))]
    _write_csv(["k", "z_re", "z_im", "b_re", "b_im", "exponent",
                "exclusion_radius", "residual", "residue_cancellation"],
               rows, args.out + ".csv" if args.out else None)
    if args.out:
        print(f"wrote {args.out}.json and {args.out}.csv: genus "
              f"{bundle.genus}, max residue mismatch "
              f"{out['max_residue_mismatch']:.3e}")
    return 0


# -- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if not (0.0 < args.rmax <= 0.95):
        raise ValueError(f"--rmax must lie in (0, 0.95], got {args.rmax:g}")
    seq, scale, bundle = _build_bundle(args)
    rng = np.random.default_rng(args.seed)
    probes = sample_probes(bundle.product, rng, args.samples,
                           r_max=args.rmax)
    ode = bundle.ode_residual(probes)
    count = bundle.count_zeros(radius=args.rmax)
    residue_max = (float(np.max(bundle.residue_mismatch))
                   if len(seq) else 0.0)
    checks = {
        "residue_cancellation": {
            "max": residue_max, "tol": RESIDUE_TOL,
            "pass": residue_max <= RESIDUE_TOL,
        },
        "ode_residual": {
            "value": ode.value, "tol": ODE_TOL, "probes": args.samples,
            "points": ode.points, "r_max": args.rmax, "seed": args.seed,
            "pass": ode.value <= ODE_TOL,
        },
        "zero_count": {
            "winding": count.winding, "count": count.count,
            "nodes_inside": count.nodes_inside, "radius": count.radius,
            "points": count.points, "pass": bool(count.matches),
        },
    }
    out = _report("verify", {
        "sequence": args.sequence, "scale": args.scale,
        "margin": args.margin, "samples": args.samples,
        "seed": args.seed, "rmax": args.rmax,
    })
    out["scale_resolved"] = scale.config()
    out["points"] = len(seq)
    out["checks"] = checks
    ok = all(c["pass"] for c in checks.values())
    out["pass"] = ok
    _write_json(out, args.out + ".json" if args.out else None)
    for name, c in checks.items():
        state = "PASS" if c["pass"] else "FAIL"
        print(f"{name}: {state}")
    print("verification:", "PASS" if ok else "FAIL")
    return 0 if ok else 4


# -- growth ------------------------------------------------------------------

def cmd_growth(args) -> int:
    seq, scale, bundle = _build_bundle(args)
    ladder = parse_ladder(args.ladder) if args.ladder else [0.9, 0.95, 0.99]
    if args.target == "coefficient":
        rows = bundle.coefficient_growth_table(ladder, samples=args.samples)
    else:
        rows = bundle.gprime.growth_table(ladder, samples=args.samples)
    _write_csv(["r", "logM", "comparator", "ratio"],
               [[row.r, row.log_max, row.growth_integral, row.ratio]
                for row in rows],
               args.out)
    if args.out:
        print(f"wrote {args.out}: {len(rows)} ladder rows")
    return 0


# -- witness -----------------------------------------------------------------

def cmd_witness(args) -> int:
    params = SharpnessParams(args.eta1, args.eta2, args.nmax)
    rows = []
    for n in range(2, args.nmax + 1):
        try:
            w = sharpness_witness(params, n)
        except ValueError as exc:
            print(f"block {n} skipped: {exc}", file=sys.stderr)
            continue
        rows.append([w.n, w.i1_abs, w.i1_floor, w.i2_upper,
                     w.i1_abs / w.i2_upper])
    if not rows:
        raise ValueError("no witness block is computable for these "
                         "parameters")
    _write_csv(["n", "I1_abs", "I1_lower_bound", "I2_upper", "ratio"],
               rows, args.out)
    if args.out:
        print(f"wrote {args.out}: {len(rows)} witness rows")
    return 0


# -- parser ------------------------------------------------------------------

@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The discosc argument parser, built once per process: parse_args
    leaves it unchanged, and rebuilding its nine sub-parsers cost about
    2 ms per main call."""
    ap = argparse.ArgumentParser(
        prog="discosc",
        description="Prescribed zero sets for f'' + a f = 0 in the unit "
                    "disc: sequence generators, growth analysis, "
                    "coefficient construction, and verification.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a zero sequence file")
    gsub = gen.add_subparsers(dest="generator", required=True)
    gs = gsub.add_parser("sharpness", help="clustered boundary blocks")
    gs.add_argument("--eta1", type=float, required=True)
    gs.add_argument("--eta2", type=float, required=True)
    gs.add_argument("--nmax", type=int, required=True)
    gg = gsub.add_parser("geometric", help="radial geometric points")
    gg.add_argument("--ratio", type=float, required=True)
    gg.add_argument("--count", type=int, required=True)
    gl = gsub.add_parser("rho-lattice", help="rings spaced by the local "
                                             "radius of a log-power weight")
    gl.add_argument("--gamma", type=float, default=2.0,
                    help="weight exponent, h = log^gamma(1/(1-r)); only "
                         "2 is supported")
    gl.add_argument("--spacing", type=float, required=True)
    gl.add_argument("--rmax", type=float, required=True)
    for p in (gs, gg, gl):
        p.add_argument("--out", required=True, help="sequence JSON path")
        p.set_defaults(func=cmd_gen)

    an = sub.add_parser("analyze", help="counting/separation/density report")
    an.add_argument("--sequence", required=True)
    an.add_argument("--scale", required=True,
                    help="log-power:P, power:RHO, or weight-log:GAMMA")
    an.add_argument("--ladder", help="comma-separated radii in (1/2, 1)")
    an.add_argument("--out", help="base path; writes BASE.json and BASE.csv")
    an.set_defaults(func=cmd_analyze)

    bd = sub.add_parser("build", help="build the coefficient bundle")
    vf = sub.add_parser("verify", help="build, then run the gated checks")
    gr = sub.add_parser("growth", help="growth table along a radius ladder")
    for p in (bd, vf, gr):
        p.add_argument("--sequence", required=True)
        p.add_argument("--scale", required=True,
                       help="log-power:P, power:RHO, or weight-log:GAMMA")
        p.add_argument("--margin", type=float, default=10.0,
                       help="exponent-rule safety margin (default 10)")
    bd.add_argument("--out", help="base path; writes BASE.json and BASE.csv")
    bd.set_defaults(func=cmd_build)
    vf.add_argument("--samples", type=int, default=50,
                    help="random probe count for the ODE residual")
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--rmax", type=float, default=0.9,
                    help="probe radius and least zero-count radius")
    vf.add_argument("--out", help="report JSON base path")
    vf.set_defaults(func=cmd_verify)
    gr.add_argument("--target", choices=["coefficient", "series"],
                    default="coefficient")
    gr.add_argument("--ladder", help="comma-separated radii in (0, 1)")
    gr.add_argument("--samples", type=int, default=1024,
                    help="circle samples per ladder radius")
    gr.add_argument("--out", help="CSV path (stdout when omitted)")
    gr.set_defaults(func=cmd_growth)

    wt = sub.add_parser("witness", help="lower-bound witness table for the "
                                        "clustered sharpness blocks")
    wt.add_argument("--eta1", type=float, required=True)
    wt.add_argument("--eta2", type=float, required=True)
    wt.add_argument("--nmax", type=int, required=True)
    wt.add_argument("--out", help="CSV path (stdout when omitted)")
    wt.set_defaults(func=cmd_witness)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResidueCancellationError as exc:
        print(f"construction failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"construction failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

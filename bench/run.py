"""discosc benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload geo50-verify --seed 1 --seconds 15 --trace 0

Set-up (making the inputs from the seed) runs SETUP_REPEATS times; then
operations run back to back, one client, until --seconds have passed (at
least one).  Each operation's output is checked; an operation that fails a
check or raises counts as failed.  With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates untraced
and traced operations on the same inputs and reports the per-layer metrics
(per traced operation; set-up layers per set-up) and the tracing overhead.
The last line of standard output is the JSON result; a fuller report, with
run metadata, every operation and, when traced, every span, goes to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:            # pin BLAS/OpenMP pools before numpy loads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from calibration import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

SETUP_REPEATS = 5
MODULES = ("cli", "geometry", "interpolation", "numutil", "oscillation",
           "products", "scales", "sequences")
# Per-layer names measured during set-up; every other layer is per op.
SETUP_LAYERS = ("sequences.generate", "sequences.ZeroSequence.load",
                "scales.genus_from_scale")


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path.name} not found next to {BENCH.name}/")
    with open(path) as fh:
        return json.load(fh)


def load_discosc() -> dict:
    """The discosc modules from this checkout's src/, never an installed
    copy."""
    pkg = ROOT / "src" / "discosc"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"no discosc sources under {pkg.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    mods = {m: importlib.import_module(f"discosc.{m}") for m in MODULES}
    got = Path(mods["cli"].__file__).resolve().parent
    if got != pkg.resolve():
        raise SetupError(f"imported discosc from {got}, not from {pkg}")
    return mods


# ---------------------------------------------------------------------------
# metadata


def metadata() -> dict:
    import scipy
    src = ROOT / "src" / "discosc"
    digest = hashlib.sha256()
    lines = {}
    for path in sorted(src.glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines[path.stem] = data.count(b"\n")
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def git_commit() -> str | None:
    """HEAD when the checkout is a git repository; None otherwise (the
    source hash in the metadata still identifies the code)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


# ---------------------------------------------------------------------------
# measurement


def timed_op(wl, mods, state, inp, tracer: Tracer | None) -> dict:
    rec = {"traced": tracer is not None, "ok": False, "error": None}
    ctx = tracer.installed() if tracer else contextlib.nullcontext()
    rec["t0"] = time.perf_counter()
    try:
        with ctx:
            result = wl.op(mods, state, inp)
        rec["t1"] = time.perf_counter()
        wl.check(mods, state, result)
        rec["ok"] = True
    except CheckFailed as exc:
        rec["error"] = f"check failed: {exc}"
    except Exception:  # an op that raises counts as failed, never skipped
        rec.setdefault("t1", time.perf_counter())
        rec["error"] = traceback.format_exc()
    rec["wall_s"] = rec["t1"] - rec["t0"]
    return rec


def run_workload(wl, mods, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    """Set up, run operations for `seconds`, and return the raw record.

    Every set-up and operation is bracketed by speed-probe bursts and
    normalised (see calibration.py).  Untraced runs also sample the probe
    during each call; traced runs do not, so no span contains probe time.
    """
    rng = np.random.default_rng(seed)
    phi = float(rng.uniform(0.0, 2.0 * np.pi))
    probe = SpeedProbe()
    setup_tracer = Tracer(mods) if trace else None
    op_tracer = Tracer(mods) if trace else None
    setups, ops = [], []
    with contextlib.nullcontext() if trace else probe.running():
        for _ in range(SETUP_REPEATS):
            probe.burst()
            ctx = setup_tracer.installed() if trace else \
                contextlib.nullcontext()
            t0 = time.perf_counter()
            with ctx:
                state = wl.prepare(mods, workdir, phi)
            setups.append({"t0": t0, "t1": time.perf_counter()})
        deadline = time.perf_counter() + seconds
        while True:
            inp = wl.next_input(rng)
            # traced: the same input untraced and traced, order alternating
            pair = (None,) if not trace else \
                (None, op_tracer) if len(ops) % 4 == 0 else (op_tracer, None)
            for tracer in pair:
                probe.burst()
                ops.append(timed_op(wl, mods, state, inp, tracer))
            if time.perf_counter() >= deadline:
                break
        probe.burst()
    for rec in setups:
        rec["wall_s"] = rec["t1"] - rec["t0"]
    for rec in setups + ops:
        rec["busy_s"], rec["norm_s"] = probe.normalise(rec["t0"], rec["t1"])
    return {"phi": phi, "genus": state["genus"], "state": state,
            "setups": setups, "ops": ops, "probe_samples": probe.samples,
            "setup_tracer": setup_tracer, "op_tracer": op_tracer}


def _median_op(ops, key: str) -> float:
    ok = [r[key] for r in ops if r["ok"]]
    return statistics.median(ok or [r[key] for r in ops])


def end_to_end(raw: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(r["norm_s"] for r in raw["setups"]),
        "op_s": _median_op(raw["ops"], "norm_s"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(raw: dict, names) -> tuple[dict[str, float], dict]:
    """Per-layer values for the requested metric names, plus the full
    per-name tables (per op and per set-up) for the report.  Span seconds
    are normalised with the median speed factor (normalised over wall
    seconds) of the traced calls they came from."""
    ops = raw["ops"]
    traced = [r for r in ops if r["traced"]]
    per_op = _scaled(raw["op_tracer"].stats(), traced)
    per_setup = _scaled(raw["setup_tracer"].stats(), raw["setups"])
    # ops come in (untraced, traced) pairs on one input
    diffs = [(b if b["traced"] else a)["norm_s"] -
             (a if b["traced"] else b)["norm_s"]
             for a, b in zip(ops[0::2], ops[1::2])]
    extra = {
        "trace.overhead_s": statistics.median(diffs),
        "trace.spans": len(raw["op_tracer"].spans) / len(traced),
    }
    values = {}
    for metric in names:
        if metric in extra:
            values[metric] = extra[metric]
            continue
        layer, stat = metric.rsplit(".", 1)
        table = per_setup if layer in SETUP_LAYERS else per_op
        values[metric] = table[layer][stat]
    tables = {"per_op": per_op, "per_setup": per_setup,
              "overhead_s_per_pair": diffs,
              "op_norm_s": [[r["traced"], r["norm_s"]] for r in ops]}
    return values, tables


def _scaled(stats: dict, calls: list[dict]) -> dict:
    """Totals per call; seconds also scaled to normalised seconds."""
    speed = statistics.median(r["norm_s"] / r["wall_s"] for r in calls)
    return {name: {k: v / len(calls) * (speed if k in ("s", "self_s") else 1)
                   for k, v in row.items()}
            for name, row in stats.items()}


# ---------------------------------------------------------------------------
# output


def summary_lines(name: str, wl, raw: dict, e2e: dict | None,
                  layers: dict | None) -> list[str]:
    ops = raw["ops"]
    failed = sum(not r["ok"] for r in ops)
    lines = [f"{name}: {len(ops)} ops, {failed} failed, "
             f"phi {raw['phi']:.6f}, genus {raw['genus']}"]
    if layers is not None:
        top = sorted(layers["per_op"].items(), key=lambda kv: -kv[1]["self_s"])
        lines += [f"  self_s {layer:<38} {row['self_s']:.6g} s per op "
                  "(normalised)"
                  for layer, row in top[:6]]
        lines.append(f"  trace overhead per op (median of "
                     f"{len(layers['overhead_s_per_pair'])} pairs) "
                     f"{statistics.median(layers['overhead_s_per_pair']):.6g}"
                     " s (normalised)")
    if e2e is not None:
        value, unit = wl.headline(raw["state"], e2e["op_s"])
        wall, _ = wl.headline(raw["state"], _median_op(ops, "wall_s"))
        n_ok = sum(r["ok"] for r in ops)
        lines += [
            f"  {wl.label:<18} {value:.6g} {unit} "
            f"(median of {n_ok or len(ops)} ops; wall {wall:.6g} {unit})",
            f"  {'setup_s':<18} {e2e['setup_s']:.6g} s "
            f"(median of {len(raw['setups'])} set-ups; wall "
            f"{statistics.median(r['wall_s'] for r in raw['setups']):.6g}"
            " s)",
            f"  {'fail_frac':<18} {failed / len(ops):.6g} "
            f"({failed} of {len(ops)} ops)",
            f"  {'peak_rss_mb':<18} {e2e['peak_rss_mb']:.6g} MB",
        ]
    for r in ops:
        if r["error"]:
            lines.append("  failed op: " + r["error"].strip().splitlines()[-1])
    return lines


def result(raw: dict, values: dict, units: dict) -> dict:
    ops = raw["ops"]
    failed = sum(not r["ok"] for r in ops)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]}
                        for k in units}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        mods = load_discosc()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    wl = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        raw = run_workload(wl, mods, args.seed, args.seconds,
                           bool(args.trace), Path(tmp))
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "phi": raw["phi"], "genus": raw["genus"],
              "meta": metadata(),
              **{k: raw[k] for k in ("setups", "ops", "probe_samples")}}
    if args.trace:
        e2e = None
        values, layers = per_layer(raw, units)
        report["layers"] = layers
        report["setup_spans"] = raw["setup_tracer"].span_records()
        report["op_spans"] = raw["op_tracer"].span_records()
    else:
        e2e = values = end_to_end(raw)
        layers = None
    res = result(raw, values, units)
    report["result"] = res
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
        fh.write("\n")
    for line in summary_lines(args.workload, wl, raw, e2e, layers):
        print(line)
    print(f"  report             {path.relative_to(ROOT)}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())

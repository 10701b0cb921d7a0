"""Smoke test of the benchmark itself, at tiny sizes (about 15 s):

    python3 bench/smoke.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit, untraced and traced, with no failed operation; and that a corrupted
reference value, a failing program check and an operation that raises each
show up as failed operations (fail_frac > 0, correct false).  Exits 0 when
all of that holds, 1 otherwise.
"""

from __future__ import annotations

import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import run
import workloads

SECONDS = 0.0   # one operation (one untraced/traced pair when traced)
SMOKE = {
    "geo50-verify": workloads.GeoVerify(count=10, probes=1),
    "lattice368-build": workloads.LatticeBuild(rmax=0.6),
    "geo50-eval": workloads.GeoEval(batch=200),
    "geo50-growth": workloads.GeoGrowth(ladder=(0.9,)),
}


def measure(wl, mods, trace: bool, spec: dict) -> dict:
    group = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_out") as tmp:
        raw = run.run_workload(wl, mods, seed=7, seconds=SECONDS, trace=trace,
                               workdir=Path(tmp))
    values = run.per_layer(raw, units)[0] if trace else run.end_to_end(raw)
    return run.result(raw, values, units)


@contextmanager
def patched(owner, attr, value):
    saved = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


def corrupted_reference(load=workloads.load_reference):
    ref = load()
    ref["log_abs_a"][0] += 1e-3
    return ref


def main() -> int:
    spec = run.load_spec()
    mods = run.load_discosc()
    (run.ROOT / ".bench_out").mkdir(exist_ok=True)
    problems = []

    for name, wl in SMOKE.items():
        for trace in (False, True):
            res = measure(wl, mods, trace, spec)
            group = spec["per_layer" if trace else "end_to_end"]
            for m in group:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or \
                        not isinstance(got["value"], float):
                    problems.append(f"{name} trace={trace}: metric "
                                    f"{m['name']} missing or malformed")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{name} trace={trace}: clean run reported "
                                f"{res['failed']} of {res['attempted']} "
                                "failed")
            print(f"{name} trace={trace}: {res['attempted']} ops, "
                  f"{res['failed']} failed")

    def expect_failure(what, wl):
        res = measure(wl, mods, False, spec)
        ok = res["failed"] >= 1 and not res["correct"]
        print(f"{what}: {res['failed']} of {res['attempted']} failed")
        if not ok:
            problems.append(f"{what} did not raise fail_frac")

    with patched(workloads, "load_reference", corrupted_reference):
        expect_failure("corrupted log|a| reference",
                       SMOKE["geo50-eval"])
    # the program's own gate: no residue mismatch can be <= -1
    with patched(mods["cli"], "RESIDUE_TOL", -1.0):
        expect_failure("failing verify check", SMOKE["geo50-verify"])
    with patched(workloads, "RESIDUE_TOL", -1.0):
        expect_failure("failing build check",
                       SMOKE["lattice368-build"])

    class Raises(workloads.GeoEval):
        def next_input(self, rng):
            return super().next_input(rng) * 2.0   # points leave the disc

    expect_failure("raising op", Raises(batch=200))

    for p in problems:
        print("FAIL:", p)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

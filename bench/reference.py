"""Record the geo50 reference values the eval and growth workloads check.

    python3 bench/reference.py

Builds geo50 (ratio 0.8, 50 points, log-power:1) unrotated and writes
bench/reference_geo50.json: 240 points on a sunflower spiral in |z| <= 0.95,
one point at half the exclusion radius of every third node (so the
near-node recovery is checked too), log|a| at all of them, and the
circle-maximum log|a| of the growth ladder.  The file in the repository was
recorded from the commit named in it; rerun only when a change is meant to
alter the coefficient's values.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run
from workloads import REFERENCE, WORKLOADS


def main() -> int:
    mods = run.load_discosc()
    bundle = mods["oscillation"].build_coefficient(
        mods["sequences"].generate_radial_geometric(0.8, 50),
        mods["scales"].GrowthScale.log_power(1.0))
    n = 240
    j = np.arange(n)
    spiral = 0.95 * np.sqrt((j + 0.5) / n) * np.exp(
        1j * j * np.pi * (3.0 - np.sqrt(5.0)))
    prod = bundle.product
    k = np.arange(0, prod.z.size, 3)
    near = prod.z[k] + 0.5 * prod.exclusion_radii[k] * np.exp(1j * (1.0 + k))
    pts = np.concatenate([spiral, near])
    log_abs_a = np.log(np.abs(bundle.eval_coefficient(pts)))
    ladder = list(WORKLOADS["geo50-growth"].ladder)
    rows = bundle.coefficient_growth_table(ladder)
    out = {
        "commit": run.git_commit(),
        "sequence": "geometric ratio 0.8 count 50, unrotated",
        "scale": "log-power:1",
        "points": [[float(z.real), float(z.imag)] for z in pts],
        "log_abs_a": [float(v) for v in log_abs_a],
        "growth_log_max": {repr(float(r.r)): float(r.log_max) for r in rows},
    }
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE.relative_to(run.ROOT)}: {pts.size} points, "
          f"ladder {ladder}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

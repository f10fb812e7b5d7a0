"""Pinned reference values w_F* for the benchmark's workload geometries.

The cell route for the scalar problem converges at first order in the grid
size, so the Richardson extrapolant 2 w(2n) - w(n) removes the leading error
term.  The reference is the extrapolant from n = 800 and 1600; its
uncertainty is the gap to the extrapolant from n = 400 and 800.

Run from the repository root:

    python3 perfbench/reference.py

It prints one JSON object per geometry; copy the values into the
``wF_ref`` entries of perfbench/workloads.json.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from equilab.equilibrium import GridParams, solve_scalar  # noqa: E402
from equilab.kernels import IntervalUnion  # noqa: E402
from workloads import load_workloads, workload_config  # noqa: E402


def richardson_reference(intervals, grading):
    F = IntervalUnion(intervals)
    w = {n: solve_scalar(F, GridParams(n=n, grading=grading)).constant for n in (400, 800, 1600)}
    fine = 2.0 * w[1600] - w[800]
    coarse = 2.0 * w[800] - w[400]
    return {"value": fine, "uncertainty": abs(fine - coarse), "w_n": {str(n): v for n, v in w.items()}}


def main():
    seen = set()
    for wl in load_workloads().values():
        cfg = workload_config(wl, seed=0)
        intervals = cfg["problem"]["f_intervals"]
        key = json.dumps(intervals)
        if key in seen:
            continue
        seen.add(key)
        ref = richardson_reference(intervals, float(cfg["grids"]["grading"]))
        print(json.dumps({"f_intervals": intervals, **ref}))


if __name__ == "__main__":
    main()

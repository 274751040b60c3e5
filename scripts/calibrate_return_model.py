#!/usr/bin/env python3
"""Calibrate the return-model saturation range against the detection brackets.

Runs the clear and foggy range-sweep scenarios over a list of candidate
saturation ranges (and optionally bisects toward a clear-weather target
distance), printing the sustained detection distance per seed. The runs of
each step overlap on the usable CPUs. The chosen value is frozen into the
bundled configs and the schema default.

Usage:
    python scripts/calibrate_return_model.py --values 70,80,90,100 --seeds 0,1,2
    python scripts/calibrate_return_model.py --bisect 125 --lo 40 --hi 160
"""

import argparse
import statistics
import sys
from pathlib import Path

from rosetrack.config import parse_config
from rosetrack.harness import run_many

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CLEAR, FOGGY = "outdoor_sweep_clear.cfg", "outdoor_sweep_foggy.cfg"


def configs(config_name: str, r0: float, seeds) -> list:
    return [parse_config(CONFIG_DIR / config_name,
                         [f"scene.saturation_range={r0}", f"run.seed={seed}"])
            for seed in seeds]


def detection(batch) -> list[float]:
    return [result.metrics.detection_distance for result in run_many(batch)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--values", default="80,90,100",
                        help="comma-separated saturation ranges to evaluate")
    parser.add_argument("--seeds", default="0,1,2")
    parser.add_argument("--bisect", type=float, default=None,
                        help="bisect for this clear-weather detection distance")
    parser.add_argument("--lo", type=float, default=40.0)
    parser.add_argument("--hi", type=float, default=160.0)
    parser.add_argument("--iterations", type=int, default=6)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    if args.bisect is not None:
        lo, hi = args.lo, args.hi
        for it in range(args.iterations):
            mid = 0.5 * (lo + hi)
            clear = statistics.median(detection(configs(CLEAR, mid, seeds)))
            print(f"iter {it}: r0={mid:7.2f} -> clear median {clear:7.2f}")
            if clear < args.bisect:
                lo = mid
            else:
                hi = mid
        mid = 0.5 * (lo + hi)
        print(f"calibrated saturation_range ~ {mid:.1f}")
        foggy = detection(configs(FOGGY, mid, seeds))
        print(f"foggy check at r0={mid:.1f}: {[round(v, 1) for v in foggy]}")
        return 0

    values = [float(v) for v in args.values.split(",")]
    found = detection([cfg for r0 in values for name in (CLEAR, FOGGY)
                       for cfg in configs(name, r0, seeds)])
    k = len(seeds)
    rows = [[round(v, 1) for v in found[i:i + k]] for i in range(0, len(found), k)]
    for r0, clear, foggy in zip(values, rows[0::2], rows[1::2]):
        print(f"r0={r0:6.1f}  clear={clear}  foggy={foggy}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

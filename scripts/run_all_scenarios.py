#!/usr/bin/env python3
"""Run every bundled scenario and print a one-line metrics summary per run,
then the total wall time. The runs overlap on the usable CPUs.

CSV logs land in --out-dir/<scenario>/. Handy for eyeballing the whole
testbed after a change:

    python scripts/run_all_scenarios.py --out-dir out
"""

import argparse
import sys
import time
from pathlib import Path

from rosetrack.config import parse_config
from rosetrack.harness import export_run, run_many

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("out"))
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    overrides = [f"run.seed={args.seed}"] if args.seed is not None else []
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    start = time.perf_counter()
    results = run_many([parse_config(path, overrides) for path in paths])
    wall = time.perf_counter() - start
    for path, result in zip(paths, results):
        export_run(result, args.out_dir / path.stem)
        m = result.metrics
        print(f"{path.stem:24s} rmse={m.rmse:8.4f} "
              f"stationary={m.mean_error_stationary:8.4f} moving={m.mean_error_moving:8.4f} "
              f"detect={m.detection_distance:7.1f} redetect={m.redetect_latency:6.3f} "
              f"lock={m.initial_lock_time:6.3f}")
    print(f"{len(paths)} runs in {wall:.1f} s wall time")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fill in perfbench/digests.json, the reference output digests.

Runs every program seed that benchmark seeds 0-63 (and the held-out seed)
reach for each workload and the file does not list yet, and records
the sha256 prefix of the four CSVs. A change that is meant to alter outputs
deletes the file, regenerates it from the checkout root and says why in the
change log:

    python3 perfbench/record_digests.py --jobs 2
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys

import workloads as wl

BENCHMARK_SEEDS = range(64)
HELD_OUT_SEED = 1000


def _one(job):
    name, seed = job
    wl.import_rosetrack()
    from rosetrack.harness import run_scenario

    result = run_scenario(wl.load_config(wl.WORKLOADS[name], seed))
    out = wl.OUT_DIR / f"record-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    wl.export_all(result, out)
    return name, seed, wl.digest_outputs(out), result.metrics.rmse


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    table = wl.load_digests()
    jobs = []
    for name, workload in wl.WORKLOADS.items():
        seeds = set()
        for seed in [*BENCHMARK_SEEDS, HELD_OUT_SEED]:
            seeds.update(workload.seeds(seed))
        jobs += [(name, s) for s in sorted(seeds) if str(s) not in table.get(name, {})]

    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(max(1, min(args.jobs, os.cpu_count() or 1))) as pool:
        for name, seed, digests, rmse in pool.imap_unordered(_one, jobs):
            table.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed={seed} rmse={rmse:.6g}", flush=True)
    for out in wl.OUT_DIR.glob("record-*"):
        shutil.rmtree(out)
    for name in table:
        table[name] = dict(sorted(table[name].items(), key=lambda kv: int(kv[0])))
    wl.DIGEST_FILE.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

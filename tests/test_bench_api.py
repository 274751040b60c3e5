"""The benchmark script reads rosetrack's API from outside the package
(config.lidar_rate, config.turret.scan_duration, run_scenario's progress
callback, the CSV export); a change that breaks any of it must fail here,
not only when the benchmark runs."""

import importlib.util
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # run.py imports workloads
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_benchmark_scenario_times_its_frames_and_matches_its_digest(monkeypatch, tmp_path):
    bench = load_bench(monkeypatch)
    workload = bench.wl.WORKLOADS["lock_montecarlo"]
    config = bench.wl.load_config(workload, 0)
    clock = bench.FramePeriods(config)
    result = bench.run_and_export(config, tmp_path, clock)
    assert clock.samples()
    checker = bench.Checker(workload)
    assert "0" in checker.recorded  # compared with digests.json, not with itself
    assert checker.check(0, result, tmp_path)

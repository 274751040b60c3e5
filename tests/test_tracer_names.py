"""The benchmark's tracer patches rosetrack names from outside the package;
a deleted or renamed name must fail here, not only in the benchmark, and so
must a count that stops showing the work the tracer is meant to see."""

import importlib.util
from pathlib import Path

import rosetrack.harness as harness
from rosetrack.config import default_config
from rosetrack.harness import run_scenario

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_name_and_uninstall_restores():
    tracer_mod = load_tracer()
    original_scan = harness.scan
    tracer = tracer_mod.Tracer()
    try:
        tracer_mod.install(tracer)
        assert harness.scan is not original_scan
        run_scenario(default_config(["turret.scan_duration=1.0", "run.duration=1.0",
                                     "sensor.point_rate=24000", "target.takeoff_delay=0.5"]))
    finally:
        tracer.uninstall()
    assert harness.scan is original_scan
    names = [span[3] for span in tracer.spans]
    # metrics align track and truth once and cast all visibility rays in one call
    assert names.count("harness.metrics") == 1
    assert names.count("harness.visibility_cast") == 1
    assert tracer.counts["harness.metrics.visibility_rays"] > 0
    # 2400 rays per frame; only the 5 tracking frames that start at or after
    # takeoff cast against the target, the 10 raster frames and the 5 before
    # takeoff cast against the static scene
    target_rays = tracer.counts["scene.ray_cast.target_rays"]
    assert target_rays == 2400 * 5
    assert tracer.counts["scene.ray_cast.rays"] == 2400 * 20
    # the target-cone cull looks up the trajectory for a few rays per frame,
    # not for every ray; positions seen at all means Trajectory.position is traced
    assert 0 < tracer.counts["scene.trajectory.points"] < target_rays // 10
    # every scanned point is transformed exactly once, and scan's output
    # (a bare array) is still counted
    assert tracer.counts["geometry.transform.points"] == tracer.counts["sensor.scan.points_out"] > 0
    # preprocessing runs the chain range -> background -> ROR -> SOR once per
    # delivered cloud, each stage fed by the one before it (the build phase
    # calls the range gate alone, so its span count is not pinned)
    n_pre = names.count("filters.preprocess")
    assert n_pre > 0
    for stage in ("filters.background", "filters.ror", "filters.sor"):
        assert names.count(stage) == n_pre, stage
    counts = tracer.counts
    assert counts["filters.ror.points_in"] == counts["filters.background.points_out"]
    assert counts["filters.sor.points_in"] == counts["filters.ror.points_out"]

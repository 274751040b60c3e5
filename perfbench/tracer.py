"""In-memory span tracer that wraps rosetrack's public functions from outside.

Each wrapped call records one span (run id, span id, parent span id, name,
start, end) and, through an optional counter hook, the exact work it did.
Names are patched where their caller looks them up (``rosetrack.harness.scan``
rather than ``rosetrack.sensor.scan``), and methods on their class, so the
package itself is untouched. ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self._next_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span; count(counts, args, kwargs, result)
        runs after the span closes, charged to the parent's self time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((tracer.run_id, span_id, parent, name, start, end))
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the given name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, owner, attr, name, count=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    @staticmethod
    def durations(name: str, spans) -> np.ndarray:
        """Durations in seconds of the named spans."""
        return np.array([s[5] - s[4] for s in spans if s[3] == name])

    @staticmethod
    def layer_times(spans) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per span name; self time is the span's
        duration minus the durations of its direct children."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for _, span_id, _, name, start, end in spans:
            layer = out[name]
            layer["calls"] += 1
            layer["busy_s"] += end - start
            layer["self_s"] += end - start - child_time[span_id]
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,span_id,parent_id,name,start_s,end_s\n")
            for run_id, span_id, parent, name, start, end in self.spans:
                fh.write(f"{run_id},{span_id},{parent},{name},{start:.9f},{end:.9f}\n")


# -- counter hooks -----------------------------------------------------------

def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _count_scan(counts, args, kwargs, result):
    cloud = result[0] if isinstance(result, tuple) else result
    counts["sensor.scan.points_out"] += len(cloud)


def _count_ray_cast(counts, args, kwargs, result):
    scene, dirs = _arg(args, kwargs, 0, "scene"), _arg(args, kwargs, 2, "dirs")
    include_target = args[4] if len(args) > 4 else kwargs.get("include_target", True)
    counts["scene.ray_cast.rays"] += len(dirs)
    if include_target and scene.target is not None:
        counts["scene.ray_cast.target_rays"] += len(dirs)
        counts["scene.ray_cast.target_hits"] += int(np.count_nonzero(result[1] == 2))


def _count_visibility(counts, args, kwargs, result):
    counts["harness.metrics.visibility_rays"] += len(_arg(args, kwargs, 2, "dirs"))


def _count_return_model(counts, args, kwargs, result):
    counts["scene.return_model.points"] += len(result)


def _count_trajectory(counts, args, kwargs, result):
    counts["scene.trajectory.points"] += int(np.size(_arg(args, kwargs, 1, "t")))


def _count_transform(counts, args, kwargs, result):
    counts["geometry.transform.points"] += len(result)


def _count_build(counts, args, kwargs, result):
    scans = _arg(args, kwargs, 0, "scans")
    counts["background.build.points"] += sum(len(cloud) for cloud, _ in scans)
    counts["background.voxels.count"] += len(result)


def _count_inflate(counts, args, kwargs, result):
    counts["background.inflate.points"] += len(_arg(args, kwargs, 0, "octree"))


def _count_contains(counts, args, kwargs, result):
    counts["background.contains.points"] += len(result)


def _count_filter(layer):
    def count(counts, args, kwargs, result):
        counts[f"{layer}.points_in"] += len(_arg(args, kwargs, 0, "cloud"))
        counts[f"{layer}.points_out"] += len(result)
    return count


def _count_step(counts, args, kwargs, result):
    if _arg(args, kwargs, 1, "cloud") is None:
        counts["tracker.step.predict_only"] += 1


def install(tracer: Tracer) -> None:
    """Patch every traced name; the caller must call tracer.uninstall()."""
    import rosetrack.background as background
    import rosetrack.filters as filters
    import rosetrack.harness as harness
    import rosetrack.sensor as sensor
    import rosetrack.tracker as tracker
    from rosetrack.background import OccupancyOctree
    from rosetrack.geometry import PointCloud
    from rosetrack.scene import Trajectory
    from rosetrack.sensor import RosetteParams

    p = tracer.patch
    p(harness, "scan", "sensor.scan", _count_scan)
    p(harness, "preprocess_cloud", "filters.preprocess")
    p(harness, "step", "tracker.step", _count_step)
    p(harness, "build_background", "background.build", _count_build)
    p(harness, "transform_cloud", "geometry.transform", _count_transform)
    p(background, "transform_cloud", "geometry.transform", _count_transform)
    p(harness, "compute_metrics", "harness.metrics")
    p(harness, "step_dynamics", "turret.step_dynamics")
    p(harness, "ray_cast_arrays", "harness.visibility_cast", _count_visibility)
    p(harness, "export_csv", "harness.export")
    p(sensor, "ray_cast_arrays", "scene.ray_cast", _count_ray_cast)
    p(sensor, "return_probability_arrays", "scene.return_model", _count_return_model)
    p(filters, "range_filter", "filters.range", _count_filter("filters.range"))
    p(filters, "subtract_background", "filters.background", _count_filter("filters.background"))
    p(filters, "radius_outlier_removal", "filters.ror", _count_filter("filters.ror"))
    p(filters, "statistical_outlier_removal", "filters.sor", _count_filter("filters.sor"))
    p(background, "inflate", "background.inflate", _count_inflate)
    for fn in ("predict", "update", "resample", "estimate"):
        p(tracker, fn, f"tracker.{fn}")
    p(Trajectory, "position", "scene.trajectory", _count_trajectory)
    p(PointCloud, "__post_init__", "geometry.pointcloud")
    p(RosetteParams, "directions", "sensor.directions")
    p(OccupancyOctree, "contains_points", "background.contains", _count_contains)

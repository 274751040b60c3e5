"""Scenario orchestration on a virtual clock, metrics, and CSV export.

The simulation is logically sequential, and three values time it. LiDAR
frames follow each other at lidar_rate, each integrating for one full
period. Filter ticks fire at filter_rate, and the turret is commanded on that
clock: once per tick while tracking, once per filter period along the
background raster. A frame starting at t0 becomes visible to the filter at
t0 + pipeline_latency, never earlier, and is consumed by the first tick at or
after that instant (receiving_ticks). Frames and ticks both start at the
beginning of the tracking phase. Every clock decision (event counts, the
receiving tick, the order of frames and ticks, the raster's steps, the
takeoff frame, each frame's start as scan receives it) is made in exact
arithmetic on the config values read by sensor.exact; the logged times stay
the floats t0 + k / rate. Everything is deterministic under the config seed.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .background import build_background
from .config import ScenarioConfig
from .filters import preprocess_cloud
from .geometry import PanTiltPose, PointCloud, SensorPose, pan_tilt_to_rotation, transform_cloud
from .scene import MISS, TARGET, ray_cast_arrays
from .sensor import event_count, exact, scan
from .tracker import TrackStatus, init_filter, step
from .turret import TurretParams, TurretState, scan_mode_command, step_dynamics, tracking_command

# A track only counts as *sustained* stable (for detection distance) if the
# Stable status holds for at least this long; isolated one-tick dips into
# Stable at extreme range are occasional detections, not tracking.
SUSTAIN_WINDOW = 0.4

# truth speeds below this count as a stationary hold
STATIONARY_SPEED = 0.05

# glibc's mallopt parameters and the values set at import: the largest mmap
# threshold glibc takes (32 MiB on 64-bit) and a trim threshold above it.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def _steady_heap() -> bool:
    """Keep frame-sized temporaries on the heap: allocations below
    MMAP_THRESHOLD come from the heap rather than fresh mappings, and the
    heap's free top is returned to the kernel only above TRIM_THRESHOLD, so
    the next frame reuses the pages the last one freed instead of faulting
    them in again. Setting either value turns off glibc's dynamic threshold,
    so both are set. Returns whether libc accepted both; a libc without
    mallopt is left as it is. Arithmetic is unaffected."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mmap_ok = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    trim_ok = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return mmap_ok and trim_ok


STEADY_HEAP = _steady_heap()  # once per process, at import


# One structured dtype per log; the field names are the CSV columns.
TRACK_DTYPE = np.dtype([("t", "f8"), ("est_x", "f8"), ("est_y", "f8"), ("est_z", "f8"),
                        ("sigma_particles", "f8"),
                        ("status", f"U{max(len(s.value) for s in TrackStatus)}"),
                        ("pan", "f8"), ("tilt", "f8")])
TRUTH_DTYPE = np.dtype([("t", "f8"), ("x", "f8"), ("y", "f8"), ("z", "f8"), ("speed", "f8")])
# t is the frame start; n_points counts raw returns off the target surface
SCAN_DTYPE = np.dtype([("t", "f8"), ("n_points", "i8"), ("target_range", "f8")])

_POSITION_FIELDS = {TRACK_DTYPE: ("est_x", "est_y", "est_z"), TRUTH_DTYPE: ("x", "y", "z")}


def positions(log: np.ndarray) -> np.ndarray:
    """(n, 3) positions of a track log (estimates) or a truth log."""
    return np.stack([log[name] for name in _POSITION_FIELDS[log.dtype]], axis=1)


@dataclass
class MetricsReport:
    mean_error: float = math.nan
    sigma_error: float = math.nan
    rmse: float = math.nan
    mean_error_stationary: float = math.nan
    sigma_error_stationary: float = math.nan
    rmse_stationary: float = math.nan
    mean_error_moving: float = math.nan
    sigma_error_moving: float = math.nan
    rmse_moving: float = math.nan
    detection_distance: float = math.nan
    redetect_latency: float = math.nan
    initial_lock_time: float = math.nan
    points_per_scan: list[tuple[float, float, float]] = field(default_factory=list)


@dataclass
class RunResult:
    track: np.ndarray  # TRACK_DTYPE, one row per filter tick
    truth: np.ndarray  # TRUTH_DTYPE, one row per filter tick
    scans: np.ndarray  # SCAN_DTYPE, one row per LiDAR frame
    metrics: MetricsReport


def event_times(t0: float, span: float, rate: float) -> np.ndarray:
    """Start times t0 + k / rate of the event_count(span, rate) events of a clock."""
    return t0 + np.arange(event_count(span, rate)) / rate


def receiving_ticks(frames, config: ScenarioConfig) -> list[int]:
    """Index of the tick that receives each tracking frame k (Python ints);
    the index may lie past the run's last tick, where no tick receives it.

    Frame k starts k / lidar_rate after the first tick and is delivered
    pipeline_latency later, to the first tick at or after that instant:
    ceil(filter_rate * (k / lidar_rate + pipeline_latency)), with the three
    values read by exact(). As filter_rate >= lidar_rate, consecutive frames
    go to increasing ticks, so no tick receives two frames.
    """
    fr = exact(config.filter_rate)
    a, b = fr / exact(config.lidar_rate), fr * exact(config.pipeline_latency)
    p, q = a.numerator * b.denominator, b.numerator * a.denominator
    d = a.denominator * b.denominator
    return [-(-(p * k + q) // d) for k in frames]


def run_scenario(config: ScenarioConfig, progress=None) -> RunResult:
    """Execute one scenario: background build, then the tracking loop.

    Returns the per-tick track/truth logs, the per-frame scan log and computed
    metrics (NaN-filled when the tracking phase is empty). Fully deterministic
    under config.seed. The truth log and the scan log's target_range feed
    nothing back, so they are evaluated from the trajectory after the loop.
    """
    bg_ss, scan_ss, pf_ss = np.random.SeedSequence(config.seed).spawn(3)
    t_track0 = config.turret.scan_duration
    target = config.scene.target
    traj = replace(target.trajectory, start_time=t_track0 + target.takeoff_delay)
    scene = replace(config.scene, target=replace(target, trajectory=traj))
    static = replace(scene, target=None)  # what the sensor sees before takeoff
    tparams = config.turret
    origin = tparams.origin
    floor = scene.ground_z + config.filters.ground_margin  # range_filter's ground band

    # --- background build phase ------------------------------------------
    bg_rng = np.random.default_rng(bg_ss)
    state = TurretState(pose=scan_mode_command(0.0, tparams), t=0.0)
    lr, fr = exact(config.lidar_rate), exact(config.filter_rate)
    steps, step_dt = math.ceil(fr / lr), 1.0 / config.filter_rate

    def raster():
        """The raster frames one at a time; leaves `state` at the last one.
        Up to each frame's start the turret takes `steps` commands, one per
        filter period, the last one short."""
        nonlocal state
        for k, t0 in enumerate(event_times(0.0, tparams.scan_duration, config.lidar_rate).tolist()):
            for _ in range(steps):
                if t0 > state.t:  # the first frame starts where the turret does
                    state = step_dynamics(state, scan_mode_command(state.t, tparams),
                                          min(step_dt, t0 - state.t), tparams)
            pose = SensorPose(origin, state.pose)
            yield scan(static, pose, k / lr, config.sensor, bg_rng, floor=floor)[0], pose

    octree = build_background(raster(), config.background, config.filters, scene.ground_z)

    # --- tracking phase ----------------------------------------------------
    track_rng = np.random.default_rng(scan_ss)
    pset = init_filter(config.tracker, pf_ss)
    frame_t = event_times(t_track0, config.duration, config.lidar_rate)
    tick_t = event_times(t_track0, config.duration, config.filter_rate)
    receiver = receiving_ticks(range(len(frame_t)), config)
    takeoff = math.ceil(exact(target.takeoff_delay) * lr)  # first frame after takeoff
    n_ticks = len(tick_t)
    track = np.zeros(n_ticks, TRACK_DTYPE)
    scans = np.zeros(len(frame_t), SCAN_DTYPE)
    scans["t"] = frame_t
    # frame k starts k / lr and tick j j / fr after the first tick: the
    # events sort by those times scaled to integers, a frame first on a tie
    events = sorted([(k * lr.denominator * fr.numerator, 0, k, t)
                     for k, t in enumerate(frame_t.tolist())]
                    + [(j * fr.denominator * lr.numerator, 1, j, t)
                       for j, t in enumerate(tick_t.tolist())])
    inbox: dict[int, PointCloud] = {}  # tick index -> the cloud it receives
    last_cmd = state.pose

    for _, kind, i, ev_t in events:
        if ev_t > state.t:  # hold the last command up to the event
            state = step_dynamics(state, last_cmd, ev_t - state.t, tparams)
        if kind == 0:  # LiDAR frame
            pose = SensorPose(origin, state.pose)
            points, surfaces = scan(scene if i >= takeoff else static, pose,
                                    exact(t_track0) + i / lr, config.sensor, track_rng, floor=floor)
            cloud = transform_cloud(points, pose)
            if receiver[i] < n_ticks:  # else no tick receives it
                inbox[receiver[i]] = cloud
            scans["n_points"][i] = np.sum(surfaces == TARGET)
        else:  # filter tick
            delivered = inbox.pop(i, None)
            if delivered is not None:
                delivered = preprocess_cloud(delivered, config.filters, scene.ground_z,
                                             octree, sensor_origin=origin)
            pset, est = step(pset, delivered, config.tracker)
            track[i] = (ev_t, *est.position, est.sigma_particles, est.status.value,
                        state.pose.pan, state.pose.tilt)
            if est.status is not TrackStatus.LOST:  # else hold the last command
                last_cmd = tracking_command(state, est.position, tparams)
        if progress is not None:
            progress(ev_t)

    mid = traj.position(scans["t"] + config.sensor.integration_time / 2.0)
    scans["target_range"] = np.linalg.norm(mid - np.asarray(origin), axis=1)
    truth = np.zeros(n_ticks, TRUTH_DTYPE)
    truth["t"] = track["t"]
    truth["x"], truth["y"], truth["z"] = traj.position(track["t"]).T
    truth["speed"] = traj.speed(track["t"])
    if len(track):
        metrics = compute_metrics(track, truth, config, scans)
    else:
        metrics = MetricsReport()
    return RunResult(track, truth, scans, metrics)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# run_many's worker pool, one per process and kept for later calls;
# concurrent.futures shuts it down when the interpreter exits.
_pool: ProcessPoolExecutor | None = None


def run_many(configs) -> list[RunResult]:
    """run_scenario on each config; the results come back in input order.

    Runs overlap on the spawned worker processes of one pool sized to the
    usable CPUs, or run in this process when min(len(configs), usable CPUs)
    is 1. The pool is started on first use and kept; it starts a worker only
    when no idle one can take a run, so a call of two configs starts at most
    two. A pool whose worker died is dropped after its error. Each run is
    seeded by its config alone, so the results do not depend on where it
    ran, and an exception raised by a run is raised here.
    """
    global _pool
    configs = list(configs)
    cpus = _usable_cpus()
    if min(len(configs), cpus) <= 1:
        return [run_scenario(config) for config in configs]
    if _pool is None:
        _pool = ProcessPoolExecutor(cpus, mp_context=multiprocessing.get_context("spawn"))
    try:
        return list(_pool.map(run_scenario, configs))
    except BrokenProcessPool:
        _pool = None
        raise


def _stats(err: np.ndarray):
    if len(err) == 0:
        return math.nan, math.nan, math.nan
    return float(err.mean()), float(err.std()), float(np.sqrt(np.mean(err ** 2)))


def target_visibility(track: np.ndarray, truth: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Per-tick flag: target inside the FoV, unoccluded, and within range.

    Truth row i must be the truth at track row i; compute_metrics passes the
    truth rows nearest in time to the track rows. Uses the logged turret pose
    for the FoV test and the configured static geometry for occlusion, with
    one ray cast for every tick whose target is in range and in the FoV.
    """
    if len(track) != len(truth):
        raise ValueError(f"track and truth logs must be aligned row for row "
                         f"({len(track)} vs {len(truth)} rows)")
    origin = np.asarray(config.turret.origin, dtype=float)
    d = positions(truth) - origin
    dist = np.linalg.norm(d, axis=1)
    far = min(config.filters.far_max, config.sensor.range_max)
    ticks = np.flatnonzero((dist >= config.filters.near_min) & (dist <= far))
    u = d[ticks] / dist[ticks, None]
    rots = np.array([pan_tilt_to_rotation(PanTiltPose(pan, tilt))
                     for pan, tilt in zip(track["pan"][ticks], track["tilt"][ticks])])
    local = np.einsum("nji,nj->ni", rots.reshape(-1, 3, 3), u)
    a_h = np.arctan2(local[:, 1], local[:, 0])
    a_v = np.arctan2(local[:, 2], np.hypot(local[:, 0], local[:, 1]))
    in_fov = np.abs(a_v) <= config.sensor.fov_v / 2.0
    in_fov &= np.abs(a_h) <= config.sensor.fov_h / 2.0
    ticks, u = ticks[in_fov], u[in_fov]
    rng_hit, surf = ray_cast_arrays(replace(config.scene, target=None), origin, u,
                                    track["t"][ticks])
    out = np.zeros(len(track), dtype=bool)
    out[ticks] = ~((surf != MISS) & (rng_hit < dist[ticks] - config.scene.target.diameter / 2.0))
    return out


def compute_metrics(track: np.ndarray, truth: np.ndarray, config: ScenarioConfig,
                    scans: np.ndarray | None = None) -> MetricsReport:
    """Error statistics over Stable ticks, detection distance, re-detection
    latency, initial lock time, and the points-vs-range histogram.

    The logs are in time order, as run_scenario writes them. Each track row
    is paired once with the truth row nearest in time; a non-finite t in any
    log, or skew beyond half a filter period, is an error. Every metric uses
    that pairing. The initial lock reads scan row k as tracking frame k and
    track row j as tick j, as run_scenario writes them.
    """
    if not len(track) or not len(truth):
        raise ValueError("cannot compute metrics from empty logs")
    for name, log in (("track", track), ("truth", truth), ("scan", scans)):
        if log is not None and not np.all(np.isfinite(log["t"])):
            raise ValueError(f"{name} log has a non-finite t")
    tt = track["t"]
    ut = truth["t"]
    idx = np.clip(np.searchsorted(ut, tt), 0, len(ut) - 1)
    idx_prev = np.clip(idx - 1, 0, len(ut) - 1)
    idx = np.where(np.abs(ut[idx_prev] - tt) <= np.abs(ut[idx] - tt), idx_prev, idx)
    skew = np.abs(ut[idx] - tt)
    if np.any(skew > 0.5 / config.filter_rate + 1e-9):
        raise ValueError("track and truth logs are not time-aligned "
                         f"(max skew {skew.max():.4f} s)")
    truth = truth[idx]
    true_pos = positions(truth)

    err = np.linalg.norm(positions(track) - true_pos, axis=1)
    speed = truth["speed"]
    stable = track["status"] == TrackStatus.STABLE.value
    report = MetricsReport()
    report.mean_error, report.sigma_error, report.rmse = _stats(err[stable])
    stationary = stable & (speed < STATIONARY_SPEED)
    moving = stable & (speed >= STATIONARY_SPEED)
    (report.mean_error_stationary, report.sigma_error_stationary,
     report.rmse_stationary) = _stats(err[stationary])
    (report.mean_error_moving, report.sigma_error_moving,
     report.rmse_moving) = _stats(err[moving])

    # detection distance: max target range over *sustained* Stable ticks
    min_run = max(1, int(round(SUSTAIN_WINDOW * config.filter_rate)))
    ranges = np.linalg.norm(true_pos - np.asarray(config.turret.origin), axis=1)
    edges = np.diff(stable.astype(np.int8), prepend=0, append=0)
    run_starts, run_ends = np.flatnonzero(edges > 0), np.flatnonzero(edges < 0)
    sustained = [ranges[a:b].max() for a, b in zip(run_starts, run_ends) if b - a >= min_run]
    if sustained:
        report.detection_distance = float(max(sustained))

    # re-detection latency: from the end of each visibility gap that began
    # after a Stable tick on the visible target, to the next Stable tick
    vis = target_visibility(track, truth, config)
    edges = np.diff(vis.astype(np.int8), prepend=1)
    gap_starts, gap_ends = np.flatnonzero(edges < 0), np.flatnonzero(edges > 0)
    after_stable = np.cumsum(stable & vis)[gap_starts[:len(gap_ends)]] > 0
    gap_ends = gap_ends[after_stable]
    stable_ticks = np.flatnonzero(stable)
    nxt = np.searchsorted(stable_ticks, gap_ends)
    found = nxt < len(stable_ticks)
    latencies = np.full(len(gap_ends), math.nan)
    latencies[found] = tt[stable_ticks[nxt[found]]] - tt[gap_ends[found]]
    if not np.all(np.isnan(latencies)):
        report.redetect_latency = float(np.nanmax(latencies))

    # initial lock: first Stable tick relative to the tick that receives the
    # first frame with target returns, under the loop's delivery rule
    if scans is not None and len(scans):
        n_pts = scans["n_points"]
        with_target = n_pts > 0
        if np.any(with_target):
            first = receiving_ticks(np.flatnonzero(with_target)[:1].tolist(), config)[0]
            stable_after = np.flatnonzero(stable[first:])
            if len(stable_after):
                report.initial_lock_time = float(tt[first + stable_after[0]] - tt[first])
        finite = np.isfinite(scans["target_range"])
        if np.any(finite):
            report.points_per_scan = points_per_scan(scans["target_range"][finite], n_pts[finite])
    return report


def points_per_scan(ranges: np.ndarray, n_points: np.ndarray) -> list[tuple[float, float, float]]:
    """(lo, hi, mean points per scan) for each non-empty 10 m bin [lo, hi) of
    the target ranges, from 0 m up; a range below 0 falls in no bin.

    The cost follows the scans, not the range: only the occupied bins are
    formed, and the counts and point sums are taken with bincount.
    """
    inside = ranges >= 0.0
    r = ranges[inside]
    # r / 10 never rounds up onto the next edge: the float below 10 k lies
    # at least 0.8 ulp of k below k, so floor(r / 10) is r's bin
    bins, slot = np.unique(np.floor(r / 10.0), return_inverse=True)
    counts = np.bincount(slot)
    sums = np.bincount(slot, weights=n_points[inside])
    return [(10.0 * b, 10.0 * (b + 1.0), float(s / c))
            for b, s, c in zip(bins.tolist(), sums.tolist(), counts.tolist())]


# --- CSV import/export ------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def export_csv(obj, path) -> None:
    """Write a log or metrics report as CSV with 6-significant-digit floats."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            if isinstance(obj, MetricsReport):
                fh.write("metric,range_lo,range_hi,value\n")
                for name in (f.name for f in fields(obj) if f.name != "points_per_scan"):
                    fh.write(f"{name},,,{_fmt(getattr(obj, name))}\n")
                for lo, hi, mean_pts in obj.points_per_scan:
                    fh.write(f"points_per_scan,{_fmt(lo)},{_fmt(hi)},{_fmt(mean_pts)}\n")
            elif isinstance(obj, np.ndarray) and obj.dtype.names:
                fh.write(",".join(obj.dtype.names) + "\n")
                for row in obj.tolist():
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
            else:
                raise TypeError(f"cannot export object of type {type(obj).__name__}")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def export_run(result: RunResult, out_dir) -> None:
    """Write track.csv, truth.csv, scans.csv and metrics.csv into out_dir,
    creating it if needed."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("track", "truth", "scans", "metrics"):
        export_csv(getattr(result, name), out_dir / f"{name}.csv")


def _read_log(path, dtype: np.dtype) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if not lines or tuple(lines[0].split(",")) != dtype.names:
        raise ValueError(f"{path}: expected header {','.join(dtype.names)}")
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != len(dtype.names):
            raise ValueError(f"{path}:{lineno}: expected {len(dtype.names)} fields, got {len(parts)}")
        rows.append(parts)
    log = np.zeros(len(rows), dtype)
    for i, name in enumerate(dtype.names):
        text = np.array([parts[i] for parts in rows], dtype=str)
        try:
            column = text.astype(dtype[name])
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: column {name}: {exc}") from exc
        if column.dtype.kind == "U" and np.any(column != text):  # astype truncates strings
            raise ValueError(f"{path}: column {name}: values must be at most "
                             f"{dtype[name].itemsize // 4} characters")
        log[name] = column
    return log


def read_track_log(path) -> np.ndarray:
    log = _read_log(path, TRACK_DTYPE)
    names = [s.value for s in TrackStatus]
    bad = ~np.isin(log["status"], names)
    if np.any(bad):
        raise ValueError(f"{path}: column status: {str(log['status'][bad][0])!r} is not one of "
                         f"{', '.join(names)}")
    return log


def read_truth_log(path) -> np.ndarray:
    return _read_log(path, TRUTH_DTYPE)


def read_scan_log(path) -> np.ndarray:
    return _read_log(path, SCAN_DTYPE)

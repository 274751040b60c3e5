"""Scenario orchestration on a virtual clock, metrics, and CSV export.

The simulation is logically sequential: LiDAR frames fire at lidar_rate,
filter ticks at filter_rate, both clocks starting at the beginning of the
tracking phase. A frame integrated over [t0, t0 + integration_time] becomes
visible to the filter at t0 + pipeline_latency, never earlier, and is
consumed by the first tick at or after that instant. Everything is
deterministic under the config seed.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .background import build_background
from .config import ScenarioConfig
from .filters import preprocess_cloud
from .geometry import PanTiltPose, PointCloud, SensorPose, pan_tilt_to_rotation, transform_cloud
from .scene import ray_cast_arrays
from .sensor import event_count, scan
from .tracker import TrackStatus, init_filter, step
from .turret import TurretParams, TurretState, scan_mode_command, step_dynamics, tracking_command

# A track only counts as *sustained* stable (for detection distance) if the
# Stable status holds for at least this long; isolated one-tick dips into
# Stable at extreme range are occasional detections, not tracking.
SUSTAIN_WINDOW = 0.4

# truth speeds below this count as a stationary hold
STATIONARY_SPEED = 0.05


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


def _raster_turret(state: TurretState, t_target: float, params: TurretParams) -> TurretState:
    """Step the turret forward to t_target along the raster schedule,
    resampled at command_rate."""
    step_dt = 1.0 / params.command_rate
    while state.t + 1e-12 < t_target:
        state = step_dynamics(state, scan_mode_command(state.t, params),
                              min(step_dt, t_target - state.t), params)
    return state


def run_scenario(config: ScenarioConfig, progress=None) -> RunResult:
    """Execute one scenario: background build, then the tracking loop.

    Returns the per-tick track/truth logs, the per-frame scan log and computed
    metrics (NaN-filled when the tracking phase is empty). Fully deterministic
    under config.seed. The truth log and the scan log's target_range feed
    nothing back, so they are evaluated from the trajectory after the loop.
    """
    bg_ss, scan_ss, pf_ss = np.random.SeedSequence(config.seed).spawn(3)
    t_track0 = config.turret.scan_duration
    scene = config.scene
    static = replace(scene, target=None)  # what the sensor sees before takeoff
    traj = scene.target.trajectory
    spawn_t = traj.start_time
    origin = config.turret_origin
    tparams = config.turret

    # --- background build phase ------------------------------------------
    bg_rng = np.random.default_rng(bg_ss)
    state = TurretState(pose=scan_mode_command(0.0, tparams), t=0.0)
    n_bg = event_count(tparams.scan_duration, config.lidar_rate)
    bg_scans = []
    for k in range(n_bg):
        t0 = k / config.lidar_rate
        state = _raster_turret(state, t0, tparams)
        pose = SensorPose(origin, state.pose)
        points, _ = scan(static, pose, t0, config.sensor, bg_rng)
        bg_scans.append((points, pose))
    octree = build_background(bg_scans, config.background, config.filters, scene.ground_z)

    # --- tracking phase ----------------------------------------------------
    track_rng = np.random.default_rng(scan_ss)
    pset = init_filter(config.tracker, np.random.default_rng(pf_ss))
    n_frames = event_count(config.duration, config.lidar_rate)
    n_ticks = event_count(config.duration, config.filter_rate)
    track = np.zeros(n_ticks, TRACK_DTYPE)
    scans = np.zeros(n_frames, SCAN_DTYPE)
    events = sorted(
        [(t_track0 + k / config.lidar_rate, 0, k) for k in range(n_frames)]
        + [(t_track0 + j / config.filter_rate, 1, j) for j in range(n_ticks)]
    )
    pending: list[tuple[float, PointCloud]] = []
    last_cmd = state.pose

    for ev_t, kind, i in events:
        if state.t + 1e-12 < ev_t:  # hold the last command up to the event
            state = step_dynamics(state, last_cmd, ev_t - state.t, tparams)
        if kind == 0:  # LiDAR frame
            pose = SensorPose(origin, state.pose)
            points, surfaces = scan(scene if ev_t + 1e-12 >= spawn_t else static,
                                    pose, ev_t, config.sensor, track_rng)
            pending.append((ev_t + config.pipeline_latency, transform_cloud(points, pose)))
            scans["t"][i], scans["n_points"][i] = ev_t, np.sum(surfaces == 2)
        else:  # filter tick
            ready = [c for dt, c in pending if dt <= ev_t + 1e-12]
            pending = [(dt, c) for dt, c in pending if dt > ev_t + 1e-12]
            delivered = None
            if ready:
                delivered = ready[0] if len(ready) == 1 else PointCloud(
                    np.vstack([c.xyz for c in ready]))
                delivered = preprocess_cloud(delivered, config.filters, scene.ground_z,
                                             octree, sensor_origin=origin)
            pset, est = step(pset, delivered, config.tracker)
            track[i] = (ev_t, *est.position, est.sigma_particles, est.status.value,
                        state.pose.pan, state.pose.tilt)
            if est.status is not TrackStatus.LOST:
                last_cmd = tracking_command(state, est, origin, tparams)
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


def run_many(configs) -> list[RunResult]:
    """run_scenario on each config; the results come back in input order.

    Runs overlap on min(len(configs), usable CPUs) spawned worker processes,
    or run in this process when that is 1. Each run is seeded by its config
    alone, so the results do not depend on where it ran, and an exception
    raised by a run is raised here.
    """
    configs = list(configs)
    workers = min(len(configs), _usable_cpus())
    if workers <= 1:
        return [run_scenario(config) for config in configs]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(run_scenario, configs))


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
    origin = np.asarray(config.turret_origin, dtype=float)
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
    out[ticks] = ~((surf >= 0) & (rng_hit < dist[ticks] - config.scene.target.diameter / 2.0))
    return out


def compute_metrics(track: np.ndarray, truth: np.ndarray, config: ScenarioConfig,
                    scans: np.ndarray | None = None) -> MetricsReport:
    """Error statistics over Stable ticks, detection distance, re-detection
    latency, initial lock time, and the points-vs-range histogram.

    Each track row is paired once with the truth row nearest in time; a
    non-finite t in any log, or skew beyond half a filter period, is an
    error. Every metric uses that pairing.
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
    ranges = np.linalg.norm(true_pos - np.asarray(config.turret_origin), axis=1)
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

    # initial lock: first Stable tick relative to the first update tick fed
    # by a frame with target returns
    if scans is not None and len(scans):
        n_pts = scans["n_points"]
        frame_t = scans["t"]
        with_target = n_pts > 0
        if np.any(with_target):
            deliver = frame_t[with_target][0] + config.pipeline_latency
            tick_after = tt[tt >= deliver - 1e-12]
            first_stable = tt[stable & (tt >= deliver - 1e-12)]
            if len(tick_after) and len(first_stable):
                report.initial_lock_time = float(first_stable[0] - tick_after[0])
        finite = np.isfinite(scans["target_range"])
        if np.any(finite):
            r = scans["target_range"][finite]
            n = n_pts[finite]
            hi = 10.0 * math.ceil(r.max() / 10.0 + 1e-9)
            edges = np.arange(0.0, hi + 10.0, 10.0)
            for lo, hi_edge in zip(edges[:-1], edges[1:]):
                m = (r >= lo) & (r < hi_edge)
                if np.any(m):
                    report.points_per_scan.append((float(lo), float(hi_edge), float(n[m].mean())))
    return report


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

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
from dataclasses import dataclass, field

import numpy as np

from .background import BackgroundBuildParams, OccupancyOctree, build_background
from .config import ScenarioConfig
from .filters import preprocess_cloud
from .geometry import Frame, PanTiltPose, PointCloud, SensorPose, pan_tilt_to_rotation, transform_cloud
from .scene import Scene, ray_cast_arrays
from .sensor import scan
from .tracker import TrackStatus, estimate, init_filter, step
from .turret import TurretMode, TurretParams, TurretState, scan_mode_command, step_dynamics, tracking_command

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
    background: OccupancyOctree


def _advance_turret(state: TurretState, t_target: float, command, params: TurretParams,
                    raster: bool) -> TurretState:
    """Step the turret forward to t_target following either the raster
    schedule (resampled at command_rate) or a held tracking command."""
    step_dt = 1.0 / params.command_rate
    while state.t + 1e-12 < t_target:
        dt = min(step_dt, t_target - state.t) if raster else t_target - state.t
        cmd = scan_mode_command(state.t, params) if raster else command
        state = step_dynamics(state, cmd, dt, params)
    return state


def run_scenario(config: ScenarioConfig, progress=None) -> RunResult:
    """Execute one scenario: background build, then the tracking loop.

    Returns the per-tick track/truth logs, the per-frame scan log, computed
    metrics (NaN-filled when the tracking phase is empty), and the background
    map. Fully deterministic under config.seed.
    """
    bg_ss, scan_ss, pf_ss = np.random.SeedSequence(config.seed).spawn(3)
    t_track0 = config.turret.scan_duration
    spawn_t = t_track0 + config.target_takeoff_delay
    scene = config.build_scene(start_time=spawn_t)
    origin = config.turret_origin
    tparams = config.turret

    # --- background build phase ------------------------------------------
    bg_rng = np.random.default_rng(bg_ss)
    state = TurretState(pose=scan_mode_command(0.0, tparams), mode=TurretMode.INITIALIZATION, t=0.0)
    n_bg = int(math.floor(tparams.scan_duration * config.lidar_rate + 1e-9))
    bg_scans = []
    for k in range(n_bg):
        t0 = k / config.lidar_rate
        state = _advance_turret(state, t0, None, tparams, raster=True)
        pose = SensorPose(origin, state.pose)
        cloud = scan(scene, pose, t0, config.sensor, bg_rng, include_target=False)
        bg_scans.append((cloud, pose))
    octree = build_background(bg_scans, config.background)
    octree.freeze()

    # --- tracking phase ----------------------------------------------------
    state = TurretState(pose=state.pose, mode=TurretMode.TRACKING, t=state.t)
    track_rng = np.random.default_rng(scan_ss)
    pset = init_filter(config.tracker, np.random.default_rng(pf_ss))
    n_frames = int(math.floor(config.duration * config.lidar_rate + 1e-9))
    n_ticks = int(math.floor(config.duration * config.filter_rate + 1e-9))
    track = np.zeros(n_ticks, TRACK_DTYPE)
    truth = np.zeros(n_ticks, TRUTH_DTYPE)
    scans = np.zeros(n_frames, SCAN_DTYPE)
    events = sorted(
        [(t_track0 + k / config.lidar_rate, 0, k) for k in range(n_frames)]
        + [(t_track0 + j / config.filter_rate, 1, j) for j in range(n_ticks)]
    )
    traj = scene.target.trajectory
    pending: list[tuple[float, PointCloud]] = []
    last_cmd = state.pose

    for ev_t, kind, i in events:
        state = _advance_turret(state, ev_t, last_cmd, tparams, raster=False)
        if kind == 0:  # LiDAR frame
            pose = SensorPose(origin, state.pose)
            cloud, surfaces = scan(scene, pose, ev_t, config.sensor, track_rng,
                                   include_target=ev_t + 1e-12 >= spawn_t,
                                   return_surfaces=True)
            world = transform_cloud(cloud, pose)
            pending.append((ev_t + config.pipeline_latency, world))
            mid = traj.position(ev_t + config.sensor.integration_time / 2.0)
            scans[i] = (ev_t, np.sum(surfaces == 2), np.linalg.norm(mid - np.asarray(origin)))
        else:  # filter tick
            ready = [c for dt, c in pending if dt <= ev_t + 1e-12]
            pending = [(dt, c) for dt, c in pending if dt > ev_t + 1e-12]
            delivered = None
            if ready:
                delivered = ready[0] if len(ready) == 1 else _merge_clouds(ready)
                delivered = preprocess_cloud(delivered, config.filters, config.ground_z,
                                             octree, sensor_origin=origin)
            pset, est = step(pset, delivered, ev_t, config.tracker)
            pos = traj.position(ev_t)
            truth[i] = (ev_t, *pos, traj.speed(ev_t))
            track[i] = (ev_t, *est.position, est.sigma_particles, est.status.value,
                        state.pose.pan, state.pose.tilt)
            if est.status is not TrackStatus.LOST:
                last_cmd = tracking_command(state, est, origin, tparams)
        if progress is not None:
            progress(ev_t)

    if len(track):
        metrics = compute_metrics(track, truth, config, scans)
    else:
        metrics = MetricsReport()
    return RunResult(track, truth, scans, metrics, octree)


def _merge_clouds(clouds: list[PointCloud]) -> PointCloud:
    return PointCloud(
        clouds[0].frame_id,
        np.concatenate([c.t for c in clouds]),
        np.vstack([c.xyz for c in clouds]),
        np.concatenate([c.intensity for c in clouds]),
        min(c.t_start for c in clouds),
        max(c.t_end for c in clouds),
    )


def _stats(err: np.ndarray):
    if len(err) == 0:
        return math.nan, math.nan, math.nan
    return float(err.mean()), float(err.std()), float(np.sqrt(np.mean(err ** 2)))


def target_visibility(track: np.ndarray, truth: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Per-tick flag: target inside the FoV, unoccluded, and within range.

    Uses the logged turret pose for the FoV test and the configured static
    geometry for occlusion. Track and truth rows are paired by index.
    """
    static = Scene(config.ground_z, list(config.obstacles), None, config.weather)
    origin = np.asarray(config.turret_origin, dtype=float)
    radius = config.target_diameter / 2.0
    fov_h = getattr(config.sensor, "fov_h", None)
    fov_v = config.sensor.fov_v
    out = np.zeros(len(track), dtype=bool)
    n = min(len(track), len(truth))
    true_pos = positions(truth[:n])
    for i, (t, pan, tilt) in enumerate(zip(track["t"][:n], track["pan"][:n], track["tilt"][:n])):
        d = true_pos[i] - origin
        dist = float(np.linalg.norm(d))
        if dist < config.filters.near_min or dist > min(config.filters.far_max,
                                                        config.sensor.range_max):
            continue
        u = d / dist
        rot = pan_tilt_to_rotation(PanTiltPose(pan, tilt))
        local = rot.T @ u
        a_h = math.atan2(local[1], local[0])
        a_v = math.atan2(local[2], math.hypot(local[0], local[1]))
        if abs(a_v) > fov_v / 2.0 or (fov_h is not None and abs(a_h) > fov_h / 2.0):
            continue
        rng_hit, surf = ray_cast_arrays(static, origin, u[None, :],
                                        np.array([t]), include_target=False)
        if surf[0] >= 0 and rng_hit[0] < dist - radius:
            continue
        out[i] = True
    return out


def compute_metrics(track: np.ndarray, truth: np.ndarray, config: ScenarioConfig,
                    scans: np.ndarray | None = None) -> MetricsReport:
    """Error statistics over Stable ticks, detection distance, re-detection
    latency, initial lock time, and the points-vs-range histogram.

    Track and truth are aligned nearest-neighbor in time; skew beyond half a
    filter period is an error.
    """
    if not len(track) or not len(truth):
        raise ValueError("cannot compute metrics from empty logs")
    tt = track["t"]
    ut = truth["t"]
    idx = np.clip(np.searchsorted(ut, tt), 0, len(ut) - 1)
    idx_prev = np.clip(idx - 1, 0, len(ut) - 1)
    idx = np.where(np.abs(ut[idx_prev] - tt) <= np.abs(ut[idx] - tt), idx_prev, idx)
    skew = np.abs(ut[idx] - tt)
    if np.any(skew > 0.5 / config.filter_rate + 1e-9):
        raise ValueError("track and truth logs are not time-aligned "
                         f"(max skew {skew.max():.4f} s)")

    err = np.linalg.norm(positions(track) - positions(truth)[idx], axis=1)
    speed = truth["speed"][idx]
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
    ranges = np.linalg.norm(positions(truth)[idx] - np.asarray(config.turret_origin), axis=1)
    sustained = np.zeros(len(track), dtype=bool)
    i = 0
    while i < len(stable):
        if stable[i]:
            j = i
            while j < len(stable) and stable[j]:
                j += 1
            if j - i >= min_run:
                sustained[i:j] = True
            i = j
        else:
            i += 1
    if np.any(sustained):
        report.detection_distance = float(ranges[sustained].max())

    # re-detection latency: occlusion/visibility transitions after a stable track
    vis = target_visibility(track, truth, config)
    latencies = []
    seen_stable = False
    in_gap = False
    gap_started_after_stable = False
    for i in range(len(track)):
        if stable[i] and vis[i]:
            seen_stable = True
        if not vis[i]:
            if not in_gap:
                in_gap = True
                gap_started_after_stable = seen_stable
        elif in_gap:
            in_gap = False
            if gap_started_after_stable:
                later = np.nonzero(stable[i:])[0]
                latencies.append(tt[i + later[0]] - tt[i] if len(later) else math.nan)
    if latencies:
        report.redetect_latency = float(np.nanmax(latencies)) if not all(
            math.isnan(v) for v in latencies) else math.nan

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
                for name in ("mean_error", "sigma_error", "rmse",
                             "mean_error_stationary", "sigma_error_stationary", "rmse_stationary",
                             "mean_error_moving", "sigma_error_moving", "rmse_moving",
                             "detection_distance", "redetect_latency", "initial_lock_time"):
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
    return _read_log(path, TRACK_DTYPE)


def read_truth_log(path) -> np.ndarray:
    return _read_log(path, TRUTH_DTYPE)


def read_scan_log(path) -> np.ndarray:
    return _read_log(path, SCAN_DTYPE)

"""Static scene, scripted target, ray queries, and the range/weather return model.

The scene is immutable after construction; the target's position is a pure
function of time, so concurrent ray queries are safe.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

_EPS = 1e-9


class Surface(enum.Enum):
    GROUND = "ground"
    OBSTACLE = "obstacle"
    TARGET = "target"


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in the world frame."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        if not all(h > l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"box extents must be positive: {self.lo}..{self.hi}")


@dataclass
class Trajectory:
    """Waypoint schedule: hold each waypoint for its wait time, then fly a
    straight segment with a raised-cosine speed profile.

    One pass visits the waypoints in order; later passes start with a closing
    segment from the last waypoint back to the first (ping-pong for two-point
    patterns, loop closure for polygons). After the final pass the target
    holds the last waypoint indefinitely.
    """

    waypoints: list[tuple[tuple[float, float, float], float]]  # (position, wait seconds)
    segment_duration: float
    repeat_count: int = 1
    start_time: float = 0.0  # schedule offset; earlier times hold the first waypoint

    def __post_init__(self):
        if len(self.waypoints) < 1:
            raise ValueError("trajectory needs at least one waypoint")
        if self.segment_duration <= 0:
            raise ValueError("segment_duration must be positive")
        if self.repeat_count < 1:
            raise ValueError("repeat_count must be >= 1")
        if any(w < 0 for _, w in self.waypoints):
            raise ValueError("waypoint wait times must be >= 0")
        self._compile()

    def _compile(self):
        """Flatten passes into phase arrays for vectorised position lookup."""
        starts, ends = [], []   # phase endpoints (k, 3)
        t0s, durs = [], []
        t = float(self.start_time)
        wps = [(np.asarray(p, dtype=float), float(w)) for p, w in self.waypoints]
        for rep in range(self.repeat_count):
            seq = wps if rep == 0 else wps[:]
            if rep > 0 and np.any(wps[-1][0] != wps[0][0]):
                # closing segment back to the start of the next pass
                t0s.append(t); durs.append(self.segment_duration)
                starts.append(wps[-1][0]); ends.append(wps[0][0])
                t += self.segment_duration
            for i, (pos, wait) in enumerate(seq):
                if wait > 0:
                    t0s.append(t); durs.append(wait)
                    starts.append(pos); ends.append(pos)
                    t += wait
                if i + 1 < len(seq):
                    t0s.append(t); durs.append(self.segment_duration)
                    starts.append(pos); ends.append(seq[i + 1][0])
                    t += self.segment_duration
        # terminal hold
        t0s.append(t); durs.append(math.inf)
        starts.append(wps[-1][0]); ends.append(wps[-1][0])
        self._t0 = np.array(t0s)
        self._dur = np.array(durs)
        self._a = np.vstack(starts)
        self._b = np.vstack(ends)
        self.total_duration = t

    @property
    def start_position(self) -> np.ndarray:
        return self._a[0].copy()

    def position(self, t) -> np.ndarray:
        """Target position at time(s) t; scalar in, (3,) out; array in, (n, 3) out."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(t_arr < 0):
            raise ValueError("trajectory time must be >= 0")
        idx = np.clip(np.searchsorted(self._t0, t_arr, side="right") - 1, 0, len(self._t0) - 1)
        lo_idx, hi_idx = int(idx.min()), int(idx.max())
        if lo_idx == hi_idx and np.all(self._a[lo_idx] == self._b[lo_idx]):
            # whole batch inside one hold phase (the common case while waiting)
            pos = np.broadcast_to(self._a[lo_idx], (len(t_arr), 3))
            return pos[0].copy() if np.isscalar(t) or np.ndim(t) == 0 else pos.copy()
        u = (t_arr - self._t0[idx]) / self._dur[idx]
        u = np.clip(np.nan_to_num(u, nan=0.0, posinf=1.0), 0.0, 1.0)
        s = 0.5 * (1.0 - np.cos(np.pi * u))
        pos = self._a[idx] + (self._b[idx] - self._a[idx]) * s[:, None]
        return pos[0] if np.isscalar(t) or np.ndim(t) == 0 else pos

    def speed(self, t) -> np.ndarray:
        """Target speed magnitude at time(s) t (analytic profile derivative)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.clip(np.searchsorted(self._t0, t_arr, side="right") - 1, 0, len(self._t0) - 1)
        u = (t_arr - self._t0[idx]) / self._dur[idx]
        u = np.clip(np.nan_to_num(u, nan=0.0, posinf=1.0), 0.0, 1.0)
        length = np.linalg.norm(self._b[idx] - self._a[idx], axis=1)
        with np.errstate(invalid="ignore"):
            v = length * np.pi / (2.0 * self._dur[idx]) * np.sin(np.pi * u)
        v = np.nan_to_num(v, nan=0.0)
        return float(v[0]) if np.isscalar(t) or np.ndim(t) == 0 else v


@dataclass
class TargetModel:
    """Tracked object approximated as a sphere on a scripted trajectory."""

    diameter: float
    reflectivity: float
    trajectory: Trajectory

    def __post_init__(self):
        if self.diameter <= 0:
            raise ValueError("target diameter must be positive")
        if not 0 < self.reflectivity <= 1:
            raise ValueError("target reflectivity must be in (0, 1]")


@dataclass(frozen=True)
class WeatherModel:
    """Atmospheric extinction plus the receiver's detection cutoff.

    saturation_range is the near-field range below which a unit-reflectivity
    return is kept with probability 1; beyond it the keep probability falls
    off as an inverse square. The default was fixed by bisecting simulated
    range sweeps until stable tracking failed around 125 m in clear air and
    around 50 m at extinction_beta = 0.03.
    """

    extinction_beta: float = 0.0
    detection_threshold: float = 0.02
    saturation_range: float = 90.0

    def __post_init__(self):
        if self.extinction_beta < 0:
            raise ValueError("extinction_beta must be >= 0")
        if not 0 < self.detection_threshold < 1:
            raise ValueError("detection_threshold must be in (0, 1)")
        if self.saturation_range <= 0:
            raise ValueError("saturation_range must be positive")


@dataclass
class Scene:
    ground_z: float
    obstacles: list[Box] = field(default_factory=list)
    target: TargetModel | None = None
    weather: WeatherModel = field(default_factory=WeatherModel)


def target_position(traj: Trajectory, t: float) -> np.ndarray:
    """Position of the scripted target at time t (piecewise hold/segment)."""
    return traj.position(t)


def ray_cast_arrays(scene: Scene, origin: np.ndarray, dirs: np.ndarray,
                    times: np.ndarray, include_target: bool = True):
    """Nearest intersection for a batch of rays sharing one origin.

    Returns (ranges, surfaces) where surfaces is int8 coded
    (-1 miss, 0 ground, 1 obstacle, 2 target) and ranges is inf on miss.
    The target sphere is evaluated at each ray's own emission time.
    """
    origin = np.asarray(origin, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    n = len(dirs)
    best = np.full(n, np.inf)
    surf = np.full(n, -1, dtype=np.int8)

    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / dirs  # +-inf on axis-parallel rays; the slab arithmetic stays exact

    dz = dirs[:, 2]
    tg = (scene.ground_z - origin[2]) * inv[:, 2]
    hit = (dz != 0.0) & (tg > _EPS) & (tg < best)
    best[hit] = tg[hit]
    surf[hit] = 0

    for box in scene.obstacles:
        lo = np.asarray(box.lo) - origin
        hi = np.asarray(box.hi) - origin
        with np.errstate(invalid="ignore"):
            t1 = lo[None, :] * inv
            t2 = hi[None, :] * inv
        near = np.fmin(t1, t2)
        far = np.fmax(t1, t2)
        tmin = np.max(near, axis=1)
        tmax = np.min(far, axis=1)
        thit = np.where(tmin > _EPS, tmin, tmax)  # tmax covers an origin inside the box
        hit = (tmax >= np.maximum(tmin, _EPS)) & (thit > _EPS) & (thit < best)
        best[hit] = thit[hit]
        surf[hit] = 1

    if include_target and scene.target is not None:
        centers = np.atleast_2d(scene.target.trajectory.position(np.asarray(times, dtype=float)))
        r = scene.target.diameter / 2.0
        oc = origin[None, :] - centers
        b = np.einsum("ij,ij->i", oc, dirs)
        c = np.einsum("ij,ij->i", oc, oc) - r * r
        disc = b * b - c
        ok = disc >= 0.0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t_near = -b - sq
        t_far = -b + sq
        thit = np.where(t_near > _EPS, t_near, t_far)
        hit = ok & (thit > _EPS) & (thit < best)
        best[hit] = thit[hit]
        surf[hit] = 2

    return best, surf


_SURFACE_BY_CODE = {0: Surface.GROUND, 1: Surface.OBSTACLE, 2: Surface.TARGET}


def ray_cast(scene: Scene, origin, direction, t: float, include_target: bool = True):
    """Nearest hit of a single unit ray, or None.

    Returns (range, Surface) among the ground plane, the obstacle boxes and
    the target sphere at its time-t position.
    """
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-6:
        raise ValueError("ray direction must be a unit vector")
    ranges, surfs = ray_cast_arrays(scene, np.asarray(origin, dtype=float),
                                    direction[None, :], np.array([t]), include_target)
    if surfs[0] < 0:
        return None
    return float(ranges[0]), _SURFACE_BY_CODE[int(surfs[0])]


def return_probability_arrays(ranges: np.ndarray, is_target: np.ndarray, scene: Scene) -> np.ndarray:
    """Keep probability per return; vector form of :func:`return_probability`."""
    w = scene.weather
    refl = np.where(is_target, scene.target.reflectivity if scene.target else 1.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        geom = np.minimum(1.0, (w.saturation_range / ranges) ** 2)
        p = refl * np.exp(-2.0 * w.extinction_beta * ranges) * geom
    p = np.clip(p, 0.0, 1.0)
    return np.where(p < w.detection_threshold, 0.0, p)


def return_probability(range_m: float, target_hit: bool, scene: Scene) -> float:
    """Probability that a return at the given range survives the receiver.

    reflectivity * exp(-2 * beta * range) * min(1, (r_sat / range)^2),
    clamped to [0, 1] and zeroed below the detection threshold. Background
    surfaces use reflectivity 1.
    """
    if range_m <= 0:
        raise ValueError("range must be positive")
    return float(return_probability_arrays(np.array([range_m]),
                                           np.array([target_hit]), scene)[0])


PATTERN_NAMES = ("vertical", "horizontal", "fast", "lost_and_found", "range_sweep", "hover")


def make_pattern(name: str, center=(4.0, 0.0, 1.2), extent: float = 1.8,
                 wait: float = 2.0, max_range: float = 160.0,
                 sweep_speed: float = 6.0) -> Trajectory:
    """Build one of the bundled flight patterns.

    vertical / horizontal are square loops (3 passes) in the y-z and x-y
    planes; fast is a y-axis ping-pong line with 2.25 s segments (4 passes);
    lost_and_found is a three-waypoint y-axis line whose middle waypoint is
    meant to sit behind an occluder (4 passes); range_sweep flies out along
    +x to max_range and back, peak speed capped at sweep_speed.
    """
    cx, cy, cz = (float(c) for c in center)
    e = float(extent)
    h = e / 2.0
    if name == "vertical":
        wps = [(cx, cy - h, cz - h), (cx, cy - h, cz + h), (cx, cy + h, cz + h), (cx, cy + h, cz - h)]
        return Trajectory([(p, wait) for p in wps], segment_duration=3.0, repeat_count=3)
    if name == "horizontal":
        wps = [(cx - h, cy - h, cz), (cx - h, cy + h, cz), (cx + h, cy + h, cz), (cx + h, cy - h, cz)]
        return Trajectory([(p, wait) for p in wps], segment_duration=3.0, repeat_count=3)
    if name == "fast":
        wps = [(cx, cy - h, cz), (cx, cy + h, cz)]
        return Trajectory([(p, wait) for p in wps], segment_duration=2.25, repeat_count=4)
    if name == "lost_and_found":
        wps = [(cx, cy - e, cz), (cx, cy, cz), (cx, cy + e, cz)]
        return Trajectory([(p, wait) for p in wps], segment_duration=3.0, repeat_count=4)
    if name == "range_sweep":
        start = (cx, cy, cz)
        far = (cx + max_range, cy, cz)
        length = max_range
        duration = length * math.pi / (2.0 * sweep_speed)
        return Trajectory([(start, 3.0), (far, 1.0), (start, 0.0)],
                          segment_duration=duration, repeat_count=1)
    if name == "hover":
        return Trajectory([((cx, cy, cz), 1.0)], segment_duration=1.0)
    raise ValueError(f"unknown pattern {name!r}; expected one of {PATTERN_NAMES}")

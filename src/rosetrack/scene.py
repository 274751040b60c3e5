"""Static scene, scripted target, ray queries, and the range/weather return model.

The scene is immutable after construction; the target's position is a pure
function of time, so concurrent ray queries are safe.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import MAX_COORDINATE

_EPS = 1e-9
# Rays per block of ray_cast_arrays on a scene with boxes. The slab tests
# make about a dozen (3, m) temporaries per box. With the heap held steady
# (harness._steady_heap) no size of them faults pages in, so the block is
# chosen for the cache: at 64 KB per axis row a block's temporaries stay in
# the CPU's caches, while whole-frame ones do not, and a block this large
# keeps the per-block numpy calls few. On 24,000-ray indoor frames 8192 cast
# faster than 4096, 16384 and the whole frame in one block. A box-free cast
# needs no blocks: it makes one pass whose temporaries are single rows.
_BLOCK = 8192

# Longest finite waypoint wait, s (about 32 years); a longer hold is written
# inf. The schedule sums the waits of every pass, which must stay finite.
MAX_WAIT = 1e9

_BAD_TIME = "trajectory time must be finite and >= 0"

# The surface code of each ray, as ray_cast_arrays returns it (int8).
MISS, GROUND, OBSTACLE, TARGET = -1, 0, 1, 2


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in the world frame."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self):
        if not all(h > l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"box extents must be positive: {self.lo}..{self.hi}")


@dataclass(frozen=True)
class Trajectory:
    """Waypoint schedule: hold each waypoint for its wait time, then fly a
    straight segment with a raised-cosine speed profile.

    One pass visits the waypoints in order; later passes start with a closing
    segment from the last waypoint back to the first (ping-pong for two-point
    patterns, loop closure for polygons). After the final pass the target
    holds the last waypoint indefinitely.
    """

    waypoints: tuple[tuple[tuple[float, float, float], float], ...]  # (position, wait seconds)
    segment_duration: float
    repeat_count: int = 1
    start_time: float = 0.0  # schedule offset; earlier times hold the first waypoint

    def __post_init__(self):
        object.__setattr__(self, "waypoints", tuple((tuple(p), w) for p, w in self.waypoints))
        if len(self.waypoints) < 1:
            raise ValueError("trajectory needs at least one waypoint")
        if not 0 < self.segment_duration < math.inf:
            raise ValueError("segment_duration must be positive and finite")
        if self.repeat_count < 1:
            raise ValueError("repeat_count must be >= 1")
        if not all(0 <= w <= MAX_WAIT or w == math.inf for _, w in self.waypoints):
            raise ValueError(f"waypoint wait times must be between 0 and {MAX_WAIT:g} s, or inf")
        if not all(abs(c) <= MAX_COORDINATE for p, _ in self.waypoints for c in p):
            raise ValueError(f"waypoint coordinates must be finite and at most "
                             f"{MAX_COORDINATE:g} m in magnitude")
        if not math.isfinite(self.start_time):
            raise ValueError("trajectory start_time (the takeoff time) must be finite")
        self._compile()

    def _compile(self):
        """Flatten passes into phase arrays for vectorised position lookup."""
        starts, ends = [], []   # phase endpoints (k, 3)
        t0s, durs = [], []
        t = float(self.start_time)
        wps = [(np.asarray(p, dtype=float), float(w)) for p, w in self.waypoints]
        for rep in range(self.repeat_count):
            if rep > 0 and np.any(wps[-1][0] != wps[0][0]):
                # closing segment back to the start of the next pass
                t0s.append(t); durs.append(self.segment_duration)
                starts.append(wps[-1][0]); ends.append(wps[0][0])
                t += self.segment_duration
            for i, (pos, wait) in enumerate(wps):
                if wait > 0:
                    t0s.append(t); durs.append(wait)
                    starts.append(pos); ends.append(pos)
                    t += wait
                if i + 1 < len(wps):
                    t0s.append(t); durs.append(self.segment_duration)
                    starts.append(pos); ends.append(wps[i + 1][0])
                    t += self.segment_duration
        # terminal hold
        t0s.append(t); durs.append(math.inf)
        starts.append(wps[-1][0]); ends.append(wps[-1][0])
        for name, value in (("_t0", np.array(t0s)), ("_dur", np.array(durs)),
                            ("_a", np.vstack(starts)), ("_b", np.vstack(ends)),
                            ("total_duration", t)):
            object.__setattr__(self, name, value)

    def _phase(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Phase index of each time and the fraction of that phase done,
        clipped to [0, 1]; times before the first phase map to phase 0, which
        starts by holding the first waypoint. Negative and non-finite times
        are rejected."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.all((t >= 0) & (t < math.inf)):
            raise ValueError(_BAD_TIME)
        # searchsorted(..., "right") - 1 is at most len(_t0) - 1, so only
        # times before the first phase need clamping
        idx = np.maximum(np.searchsorted(self._t0, t, side="right") - 1, 0)
        u = (t - self._t0[idx]) / self._dur[idx]
        np.maximum(u, 0.0, out=u)
        return idx, np.minimum(u, 1.0, out=u)

    def _phase_at(self, t: float) -> tuple[int, float]:
        """_phase for one time, as a scalar index and fraction."""
        if not 0 <= t < math.inf:
            raise ValueError(_BAD_TIME)
        k = max(bisect.bisect_right(self._t0, t) - 1, 0)
        return k, min(max((t - self._t0[k]) / self._dur[k], 0.0), 1.0)

    def _point_at(self, k: int, u: float) -> np.ndarray:
        """_at for one phase index and fraction: one (3,) position."""
        s = 0.5 * (1.0 - math.cos(math.pi * u))
        return self._a[k] + (self._b[k] - self._a[k]) * s

    def _at(self, idx: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(n, 3) positions at the given phase indices and fractions."""
        s = 0.5 * (1.0 - np.cos(np.pi * u))
        return self._a[idx] + (self._b[idx] - self._a[idx]) * s[:, None]

    def position(self, t) -> np.ndarray:
        """(n, 3) target positions at the n times t."""
        return self._at(*self._phase(t))

    def bounding_ball(self, t_lo: float, t_hi: float) -> tuple[np.ndarray, float]:
        """(centre, radius) of a ball that holds position(t) for every t in
        [t_lo, t_hi], up to rounding.

        Each phase moves monotonically along the straight segment from its
        start point to its end point, so over the window the target stays in
        the hull of position(t_lo), position(t_hi) and the endpoints of the
        phases the window crosses; no speed bound is needed.
        """
        (k_lo, u_lo), (k_hi, u_hi) = self._phase_at(float(t_lo)), self._phase_at(float(t_hi))
        if not t_lo <= t_hi:
            raise ValueError("bounding_ball needs t_lo <= t_hi")
        # phases are contiguous: each starts where the one before it ends
        pts = [self._point_at(k_lo, u_lo), self._point_at(k_hi, u_hi),
               *self._a[k_lo + 1:k_hi + 1]]
        cx, cy, cz = centre = [0.5 * (min(c) + max(c)) for c in zip(*pts)]
        r2 = max((x - cx) * (x - cx) + (y - cy) * (y - cy) + (z - cz) * (z - cz)
                 for x, y, z in pts)
        return np.array(centre), math.sqrt(r2)

    def speed(self, t) -> np.ndarray:
        """(n,) target speed magnitudes at the n times t (analytic profile
        derivative)."""
        idx, u = self._phase(t)
        length = np.linalg.norm(self._b[idx] - self._a[idx], axis=1)
        return length * np.pi / (2.0 * self._dur[idx]) * np.sin(np.pi * u)


@dataclass(frozen=True)
class TargetModel:
    """Sphere-shaped target; the run starts its trajectory takeoff_delay after the raster ends."""

    diameter: float
    reflectivity: float
    trajectory: Trajectory
    takeoff_delay: float = 0.0

    def __post_init__(self):
        if not 0 < self.diameter < math.inf:
            raise ValueError("target diameter must be positive and finite")
        if not 0 < self.reflectivity <= 1:
            raise ValueError("target reflectivity must be in (0, 1]")
        if not abs(self.takeoff_delay) <= MAX_WAIT:
            raise ValueError(f"takeoff_delay must be at most {MAX_WAIT:g} s in magnitude")


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


@dataclass(frozen=True)
class Scene:
    ground_z: float
    obstacles: tuple[Box, ...] = ()
    target: TargetModel | None = None
    weather: WeatherModel = field(default_factory=WeatherModel)


def ray_cast_arrays(scene: Scene, origin: np.ndarray, dirs: np.ndarray, times: np.ndarray):
    """Nearest intersection for a batch of rays sharing one origin.

    dirs is (n, 3) in any memory layout and each row must be a unit vector:
    the sphere test measures range along the ray in units of |d|. The
    transpose of a C-ordered (3, n) block, as scan passes it, is the fast
    layout: its axis rows are contiguous. times is (n,) and holds
    the emission times; the target sphere is evaluated at each ray's own
    time, and a scene whose target is None casts no target ray. Any other
    shape raises ValueError.
    Returns (ranges, surfaces) where surfaces holds the int8 codes MISS,
    GROUND, OBSTACLE or TARGET and ranges is inf on MISS.

    Box faces are open to rays that lie in their plane: a ray parallel to a
    face (its component along that axis +0.0 or -0.0) whose origin lies
    exactly on the face plane misses the box, on every face. A level ray
    never hits the ground, whether or not it lies in the ground plane.

    On a scene with boxes the rays are walked in blocks of _BLOCK: the
    ground and box slab tests run on the block's (3, m) axis rows, so every
    temporary stays block-sized. A box-free scene casts the batch in one
    pass and inverts only the z row, the one the ground test reads; every
    ray gets the same arithmetic either way. The target side runs once over
    the whole batch: only rays inside the cone from the origin around a ball
    that holds the target over the batch window (every ray that can reach
    it, from an origin inside it) get the per-ray trajectory lookup and
    sphere test; the ball is padded so that rounding only adds rays, and
    every other ray misses the target.
    """
    origin = np.asarray(origin, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    times = np.asarray(times, dtype=float)
    n = len(dirs)
    if dirs.shape != (n, 3) or times.shape != (n,):
        raise ValueError(f"ray_cast_arrays needs dirs (n, 3) and times (n,), "
                         f"got {dirs.shape} and {times.shape}")
    best = np.full(n, np.inf)
    surf = np.full(n, MISS, dtype=np.int8)
    slabs = [((np.asarray(box.lo) - origin)[:, None], (np.asarray(box.hi) - origin)[:, None])
             for box in scene.obstacles]
    ground = scene.ground_z - origin[2]

    step = _BLOCK if slabs else max(n, 1)
    for s in range(0, n, step):
        blk = slice(s, s + step)
        rows = dirs[blk].T  # (3, m): one row per axis
        blk_best = best[blk]
        blk_surf = surf[blk]
        # inv is +-inf on axis-parallel rays, and 0 * inf is NaN where the
        # origin lies on a slab plane; the fmin / fmax / maximum chain keeps
        # the slab arithmetic exact. A level ray gives tg = +-inf or NaN, and
        # so does a huge ground height that overflows; each fails a ground test
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inv = 1.0 / rows if slabs else 1.0 / rows[2:]  # the z row is the last either way
            tg = ground * inv[-1]
            hit = (tg > _EPS) & (tg < blk_best)
            np.copyto(blk_best, tg, where=hit)
            blk_surf[hit] = GROUND

            for lo, hi in slabs:
                t1 = lo * inv  # (3, m): the entry and exit of each axis slab
                t2 = hi * inv
                near = np.fmin(t1, t2)
                far = np.fmax(t1, t2, out=t1)
                tmin = np.maximum(np.maximum(near[0], near[1]), near[2])
                tmax = np.minimum(np.minimum(far[0], far[1]), far[2])
                thit = np.where(tmin > _EPS, tmin, tmax)  # tmax covers an origin inside the box
                hit = (tmax >= np.maximum(tmin, _EPS)) & (thit > _EPS) & (thit < blk_best)
                np.copyto(blk_best, thit, where=hit)
                blk_surf[hit] = OBSTACLE

    if scene.target is not None and n > 0:
        traj = scene.target.trajectory
        r = scene.target.diameter / 2.0
        centre, radius = traj.bounding_ball(times.min(), times.max())
        w = centre - origin
        dist = float(np.linalg.norm(w))
        reach = radius + r
        # padding far above the rounding of the cull and of the sphere test,
        # so that rounding can only add candidates, never drop a hit
        reach += 1e-6 * (1.0 + reach + dist + float(np.linalg.norm(origin)))
        dw = w @ dirs.T
        cand = np.flatnonzero((dw > -reach) & (dist * dist - dw * dw <= reach * reach))
        oc = origin[None, :] - traj.position(times[cand])
        d = dirs[cand]
        b = np.einsum("ij,ij->i", oc, d)
        c = np.einsum("ij,ij->i", oc, oc) - r * r
        disc = b * b - c
        ok = disc >= 0.0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        t_near = -b - sq
        t_far = -b + sq
        thit = np.where(t_near > _EPS, t_near, t_far)
        hit = ok & (thit > _EPS) & (thit < best[cand])
        best[cand[hit]] = thit[hit]
        surf[cand[hit]] = TARGET

    return best, surf


def return_probability_arrays(ranges: np.ndarray, is_target: np.ndarray, scene: Scene) -> np.ndarray:
    """Probability that each return at the given positive, finite range
    survives the receiver.

    reflectivity * exp(-2 * beta * range) * min(1, (r_sat / range)^2),
    zeroed below the detection threshold. Background surfaces (is_target
    False) use reflectivity 1. Each factor lies in [0, 1] for a positive
    range (reflectivity in (0, 1], beta >= 0), so no clamp is needed.
    In clear air (beta == 0) the extinction factor is exactly 1.0 and is
    not computed: reflectivity * geometry gives the same bits as
    (1.0 * reflectivity) * geometry.
    """
    w = scene.weather
    refl = scene.target.reflectivity if scene.target else 1.0
    with np.errstate(divide="ignore", over="ignore"):
        geom = np.minimum(1.0, (w.saturation_range / ranges) ** 2)
        if w.extinction_beta == 0.0:
            p = geom
            p[is_target] *= refl
        else:
            p = np.exp(-2.0 * w.extinction_beta * ranges)
            p[is_target] *= refl
            p *= geom
    p[p < w.detection_threshold] = 0.0
    return p


# Waypoint loops: (x, y, z) steps from the centre in half-extents, segment s, passes.
_LOOPS = {
    "vertical": (((0, -1, -1), (0, -1, 1), (0, 1, 1), (0, 1, -1)), 3.0, 3),
    "horizontal": (((-1, -1, 0), (-1, 1, 0), (1, 1, 0), (1, -1, 0)), 3.0, 3),
    "fast": (((0, -1, 0), (0, 1, 0)), 2.25, 4),
    "lost_and_found": (((0, -2, 0), (0, 0, 0), (0, 2, 0)), 3.0, 4),
}

# The make_pattern arguments each pattern reads.
PATTERN_KEYS = {
    **{name: ("center", "extent", "wait") for name in _LOOPS},
    "range_sweep": ("center", "max_range", "sweep_speed"),
    "hover": ("center",),
}
PATTERN_NAMES = tuple(PATTERN_KEYS)


def make_pattern(name: str, center=(4.0, 0.0, 1.2), extent: float = 1.8,
                 wait: float = 2.0, max_range: float = 160.0,
                 sweep_speed: float = 6.0) -> Trajectory:
    """Build one of the bundled flight patterns; PATTERN_KEYS names the
    arguments each one reads.

    vertical / horizontal are square loops (3 passes) in the y-z and x-y
    planes; fast is a y-axis ping-pong line with 2.25 s segments (4 passes);
    lost_and_found is a three-waypoint y-axis line whose middle waypoint is
    meant to sit behind an occluder (4 passes); range_sweep flies out along
    +x to max_range and back, peak speed capped at sweep_speed; hover holds
    the centre.
    """
    cx, cy, cz = (float(c) for c in center)
    if name in _LOOPS:
        steps, segment, passes = _LOOPS[name]
        e = float(extent)
        # c + s / 2 * e is exactly c +- e / 2 or c +- e; a zero step keeps c
        # (c + 0 * e would turn -0.0 into 0.0, and an infinite e into NaN)
        wps = [tuple(c + s / 2 * e if s else c for c, s in zip((cx, cy, cz), step)) for step in steps]
        return Trajectory([(p, wait) for p in wps], segment_duration=segment, repeat_count=passes)
    if name == "range_sweep":
        for key, value in (("max_range", max_range), ("sweep_speed", sweep_speed)):
            if not 0 < value < math.inf:
                raise ValueError(f"{key} ({value:g}) must be positive and finite")
        start = (cx, cy, cz)
        far = (cx + max_range, cy, cz)
        duration = max_range * math.pi / (2.0 * sweep_speed)
        if not 0 < duration < math.inf:
            raise ValueError(f"max_range * pi / (2 * sweep_speed) ({max_range:g} * pi / "
                             f"(2 * {sweep_speed:g})) gives segment duration {duration:g} s; "
                             f"it must be positive and finite")
        return Trajectory([(start, 3.0), (far, 1.0), (start, 0.0)],
                          segment_duration=duration, repeat_count=1)
    if name == "hover":
        return Trajectory([((cx, cy, cz), 1.0)], segment_duration=1.0)
    raise ValueError(f"unknown pattern {name!r}; expected one of {PATTERN_NAMES}")

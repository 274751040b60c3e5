"""Exact oracle twins of the fast paths in src/, and the reference scanner,
for the tests to compare with.

Each twin computes the same result as its fast counterpart by the direct
O(n^2) or pointer-walk method, or by the longer form the fast path replaced,
so the two must agree exactly. The reference
scanner, RingScanParams, is the spinning 16-ring LiDAR that the rosette's
return density is compared with (acceptance criterion 7); sensor.scan runs
it through the same ray casting and return model. occupied_indices reads a
voxel map back as indices, a view that only the tests need.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from rosetrack.geometry import pan_tilt_to_rotation
from rosetrack.scene import MISS, TARGET, ray_cast_arrays
from rosetrack.sensor import _angles_to_directions, _frame_directions, event_count


def occupied_indices(octree):
    """(n, 3) absolute indices of an OccupancyOctree's occupied voxels, sorted by key."""
    k, z = np.divmod(octree._occupied_keys(), octree._dims[2])
    x, y = np.divmod(k, octree._dims[1])
    return np.stack([x, y, z], axis=1) + octree._ilo


def all_points_range_filter(cloud, params, ground_z, sensor_origin):
    """Twin of filters.range_filter that measures every point's distance,
    ground included, and applies the ground band and the range window in
    one mask."""
    sq = np.subtract(cloud.xyz.T, np.asarray(sensor_origin, dtype=float)[:, None], order="C")
    sq *= sq
    d = np.sqrt(sq[0] + sq[1] + sq[2])
    keep = (cloud.xyz[:, 2] > ground_z + params.ground_margin) \
        & (d >= params.near_min) & (d <= params.far_max)
    return cloud.select(keep)


def brute_force_ror(cloud, radius, min_neighbors):
    """Twin of filters.radius_outlier_removal from all pairwise squared
    distances, summed and compared as the fast path does."""
    sq = cloud.xyz[:, None, :] - cloud.xyz[None, :, :]
    sq *= sq
    d2 = (sq[..., 0] + sq[..., 1]) + sq[..., 2]
    counts = np.sum(d2 <= radius * radius, axis=1) - 1  # drop self
    return cloud.select(counts >= min_neighbors)


def brute_force_sor(cloud, k, alpha):
    """Twin of filters.statistical_outlier_removal from sorted pairwise distances."""
    if len(cloud) <= k:
        return cloud
    d = np.linalg.norm(cloud.xyz[:, None, :] - cloud.xyz[None, :, :], axis=2)
    d_sorted = np.sort(d, axis=1)
    mean_knn = d_sorted[:, 1:k + 1].mean(axis=1)  # column 0 is the self-distance
    mu = mean_knn.mean()
    sigma = mean_knn.std()
    return cloud.select(mean_knn <= mu + alpha * sigma)


def cdf_walk_indices(weights, offset):
    """Twin of tracker.systematic_indices: walk the cumulative weights with a pointer comb."""
    n = len(weights)
    out = np.empty(n, dtype=int)
    cum = weights[0]
    i = 0
    for j in range(n):
        pointer = offset + j / n
        while pointer >= cum and i < n - 1:
            i += 1
            cum += weights[i]
        out[j] = i
    return out


def list_bounding_ball(traj, t_lo, t_hi):
    """Twin of scene.Trajectory.bounding_ball that reads the phase table as
    Python lists of floats and of point tuples."""
    t0s, durs = traj._t0.tolist(), traj._dur.tolist()
    starts = [tuple(p) for p in traj._a.tolist()]
    ends = [tuple(p) for p in traj._b.tolist()]

    def phase_at(t):
        k = max(bisect.bisect_right(t0s, t) - 1, 0)
        return k, min(max((t - t0s[k]) / durs[k], 0.0), 1.0)

    def point_at(k, u):
        s = 0.5 * (1.0 - math.cos(math.pi * u))
        return tuple(a + (b - a) * s for a, b in zip(starts[k], ends[k]))

    (k_lo, u_lo), (k_hi, u_hi) = phase_at(float(t_lo)), phase_at(float(t_hi))
    pts = [point_at(k_lo, u_lo), point_at(k_hi, u_hi), *starts[k_lo + 1:k_hi + 1]]
    cx, cy, cz = centre = [0.5 * (min(c) + max(c)) for c in zip(*pts)]
    r2 = max((x - cx) * (x - cx) + (y - cy) * (y - cy) + (z - cz) * (z - cz)
             for x, y, z in pts)
    return np.array(centre), math.sqrt(r2)


def clamped_return_probability(ranges, is_target, scene):
    """Twin of scene.return_probability_arrays that selects the reflectivity
    with np.where and clamps the product to [0, 1] before the threshold."""
    w = scene.weather
    refl = np.where(is_target, scene.target.reflectivity if scene.target else 1.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        geom = np.minimum(1.0, (w.saturation_range / ranges) ** 2)
        p = refl * np.exp(-2.0 * w.extinction_beta * ranges) * geom
    p = np.clip(p, 0.0, 1.0)
    return np.where(p < w.detection_threshold, 0.0, p)


def gather_twice_scan(scene, pose, t0, params, rng):
    """Twin of sensor.scan that gathers the kept ranges and codes after each
    selection, draws the noise with rng.normal(0, sigma) and scales a fresh
    direction array; the random draws must come out the same."""
    n = params.rays_per_frame
    offsets = np.arange(n) * (params.integration_time / n)
    dirs_sensor = _frame_directions(params, t0)
    dirs_world = pan_tilt_to_rotation(pose.orientation) @ dirs_sensor
    ranges, surf = ray_cast_arrays(scene, np.asarray(pose.origin, dtype=float), dirs_world.T,
                                   t0 + offsets)
    kept = np.nonzero((surf != MISS) & (ranges <= params.range_max))[0]
    p = clamped_return_probability(ranges[kept], surf[kept] == TARGET, scene)
    kept = kept[rng.random(len(kept)) < p]
    r = ranges[kept]
    if params.range_noise_sigma > 0:
        r = r + rng.normal(0.0, params.range_noise_sigma, len(kept))
    return (np.take(dirs_sensor, kept, axis=1) * r).T, surf[kept]


@dataclass(frozen=True)
class RingScanParams:
    """Reference scanner: n_rings fixed elevations, azimuth spinning at spin_rate."""

    n_rings: int = 16
    spin_rate: float = 10.0
    fov_v: float = math.radians(77.2)
    point_rate: float = 240_000.0
    integration_time: float = 0.1
    range_max: float = 260.0
    range_noise_sigma: float = 0.02

    # no exact repeat period, so sensor.scan evaluates every frame's directions
    frame_phases = math.inf

    @property
    def rays_per_frame(self) -> int:
        return event_count(self.integration_time, self.point_rate)

    @property
    def ring_elevations(self) -> np.ndarray:
        if self.n_rings == 1:
            return np.zeros(1)
        return np.linspace(-self.fov_v / 2.0, self.fov_v / 2.0, self.n_rings)

    def directions(self, times: np.ndarray) -> np.ndarray:
        """(n, 3) unit ray directions at the n times, the transpose of a
        C-ordered (3, n) block."""
        t = np.asarray(times, dtype=float)
        az = (2.0 * math.pi * self.spin_rate * t) % (2.0 * math.pi)
        elev = self.ring_elevations[np.arange(len(t)) % self.n_rings]
        return _angles_to_directions(az, elev)


def binwise_points_per_scan(ranges, n_points):
    """Twin of harness.points_per_scan with one mask per 10 m bin, over every
    bin from 0 m to the bin past the farthest range."""
    hi = 10.0 * math.ceil(ranges.max() / 10.0 + 1e-9)
    edges = np.arange(0.0, hi + 10.0, 10.0)
    masks = (ranges >= edges[:-1, None]) & (ranges < edges[1:, None])  # (bins, ranges)
    return [(float(edges[k]), float(edges[k + 1]), float(n_points[masks[k]].mean()))
            for k in np.flatnonzero(masks.any(axis=1))]

"""Voxel occupancy map of the static scene, with inflation and subtraction queries.

Occupancy is binary: the map is built once from a clean static scene, so
hit/miss evidence accumulation is unnecessary. Voxel indices are absolute
(floor(coordinate / resolution)); the bounds box defines the surveillance
volume and points outside it are skipped on insert.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import transform_cloud

if TYPE_CHECKING:
    from .filters import FilterParams


class OccupancyOctree:
    """Occupied voxels as one sorted, unique int64 array of packed indices.

    Inserts merge into the array, so lookups are a binary search at any time.
    """

    def __init__(self, resolution: float, lo, hi):
        if not (math.isfinite(resolution) and resolution > 0):
            raise ValueError("resolution must be positive and finite")
        self.resolution = float(resolution)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if not np.all(np.isfinite(self.lo) & np.isfinite(self.hi) & (self.hi > self.lo)):
            raise ValueError("bounds must be finite with positive extent")
        self._ilo = np.floor(self.lo / self.resolution).astype(np.int64)
        ihi = np.floor(self.hi / self.resolution).astype(np.int64)
        self._dims = ihi - self._ilo + 1
        if int(np.prod(self._dims.astype(object))) >= 2**62:
            raise ValueError("bounds/resolution produce too many voxels to index")
        self._keys = np.empty(0, dtype=np.int64)

    # -- indexing ---------------------------------------------------------

    def voxel_indices(self, pts: np.ndarray) -> np.ndarray:
        """(n, 3) absolute voxel indices of the given world points: an
        (n, 3) array or a single (3,) point."""
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1:] != (3,):
            raise ValueError(f"points need a last axis of 3, got shape {pts.shape}")
        return np.floor(pts.reshape(-1, 3) / self.resolution).astype(np.int64)

    def _in_bounds(self, idx: np.ndarray) -> np.ndarray:
        rel = idx - self._ilo
        return np.all((rel >= 0) & (rel < self._dims), axis=1)

    def _pack(self, idx: np.ndarray) -> np.ndarray:
        rel = idx - self._ilo
        return (rel[:, 0] * self._dims[1] + rel[:, 1]) * self._dims[2] + rel[:, 2]

    def _unpack(self, keys: np.ndarray) -> np.ndarray:
        k, z = np.divmod(keys, self._dims[2])
        x, y = np.divmod(k, self._dims[1])
        return np.stack([x, y, z], axis=1) + self._ilo

    # -- occupancy --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def occupied_indices(self) -> np.ndarray:
        """(n, 3) absolute indices of occupied voxels, sorted by packed key."""
        return self._unpack(self._keys)

    def insert_points(self, pts: np.ndarray) -> None:
        idx = self.voxel_indices(pts)
        idx = idx[self._in_bounds(idx)]
        if len(idx):
            self._keys = np.union1d(self._keys, self._pack(idx))

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorised occupancy query; (n,) bool for world points."""
        idx = self.voxel_indices(pts)
        ok = self._in_bounds(idx)
        out = np.zeros(len(idx), dtype=bool)
        if np.any(ok) and len(self._keys):
            keys = self._pack(idx[ok])
            pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
            out[ok] = self._keys[pos] == keys
        return out

    def copy(self) -> "OccupancyOctree":
        other = OccupancyOctree(self.resolution, self.lo, self.hi)
        other._keys = self._keys.copy()
        return other


@dataclass(frozen=True)
class BackgroundBuildParams:
    """Voxel map knobs for turning raster scans into the inflated background map."""

    resolution: float = 0.1
    inflation_radius: int = 1
    bounds_lo: tuple[float, float, float] = (-1.0, -5.0, -0.5)
    bounds_hi: tuple[float, float, float] = (9.0, 5.0, 4.0)

    def __post_init__(self):
        if self.inflation_radius < 0:
            raise ValueError("inflation_radius must be >= 0")
        self.empty_map()  # the map's own resolution and bounds rule

    def empty_map(self) -> OccupancyOctree:
        return OccupancyOctree(self.resolution, self.bounds_lo, self.bounds_hi)


def inflate(octree: OccupancyOctree, radius: int) -> OccupancyOctree:
    """Chebyshev dilation: occupy every voxel within `radius` of an occupied one.

    Returns a new octree; the dilation is applied separably per axis (exact
    for the Chebyshev ball) and clipped to the bounds box.
    """
    if radius < 0:
        raise ValueError("inflation radius must be >= 0")
    out = octree.copy()
    keys = out._keys
    if radius == 0 or not len(keys):
        return out
    shifts = np.arange(-radius, radius + 1, dtype=np.int64)
    dims = octree._dims
    for axis in range(3):
        stride = int(np.prod(dims[axis + 1:]))
        coord = (keys // stride) % dims[axis]
        grown = keys[None, :] + shifts[:, None] * stride
        moved = coord[None, :] + shifts[:, None]
        keys = np.unique(grown[(moved >= 0) & (moved < dims[axis])])
    out._keys = keys
    return out


def build_background(scans, params: BackgroundBuildParams, filters: FilterParams,
                     ground_z: float) -> OccupancyOctree:
    """Transform, range/ground gate, and insert raster scans; inflate last.

    `scans` is a sequence of (sensor-frame cloud, sensor pose) pairs from the
    turret's initialization raster. The gate is the tracking phase's range
    gate: `filters` near_min, far_max and ground_margin over `ground_z`.
    """
    from .filters import range_filter

    scans = list(scans)
    if not scans:
        raise ValueError("cannot bootstrap a background model from zero scans")
    octree = params.empty_map()
    for cloud, pose in scans:
        world = transform_cloud(cloud, pose)
        kept = range_filter(world, filters, ground_z, sensor_origin=pose.origin)
        octree.insert_points(kept.xyz)
    return inflate(octree, params.inflation_radius)

"""Voxel occupancy map of the static scene, with inflation and subtraction queries.

Occupancy is binary: the map is built once from a clean static scene, so
hit/miss evidence accumulation is unnecessary. Voxel indices are absolute
(floor(coordinate / resolution)); the bounds box defines the mapped volume,
and points outside it are skipped on insert.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import transform_cloud

if TYPE_CHECKING:
    from .filters import FilterParams


# A map of more cells is refused: 2**32 cells are 512 MiB of bits.
MAX_CELLS = 2**32


def grid_shape(resolution: float, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(lowest absolute voxel index, cells per axis) of the bounds box.

    Raises ValueError for a non-finite or non-positive resolution, bounds
    that are not finite with positive extent, voxel indices that int64 key
    arithmetic could overflow, or more than MAX_CELLS cells; nothing is
    allocated, so it also serves as the parse-time check.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError("resolution must be positive and finite")
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not np.all(np.isfinite(lo) & np.isfinite(hi) & (hi > lo)):
        raise ValueError("bounds must be finite with positive extent")
    with np.errstate(over="ignore"):  # an inf index fails the check below
        ilo = np.floor(lo / resolution)
        ihi = np.floor(hi / resolution)
    if not np.all((np.abs(ilo) < 2**62) & (np.abs(ihi) < 2**62)):
        raise ValueError("bounds/resolution give voxel indices beyond 2**62")
    dims = ihi - ilo + 1
    cells = float(np.prod(dims))
    if not cells <= MAX_CELLS:
        raise ValueError(f"bounds/resolution give {cells:.4g} voxels, "
                         f"more than the {MAX_CELLS} the map holds")
    return ilo.astype(np.int64), dims.astype(np.int64)


class OccupancyOctree:
    """Occupied voxels as a dense 1-bit grid over the bounds box.

    Cell key (x * ny + y) * nz + z, with (x, y, z) counted from the box's
    lowest voxel, is bit key % 8 of byte key // 8, so a lookup is one gather.
    """

    def __init__(self, resolution: float, lo, hi):
        self._ilo, self._dims = grid_shape(resolution, lo, hi)
        self.resolution = float(resolution)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self._bits = np.zeros(-(-int(np.prod(self._dims)) // 8), dtype=np.uint8)

    # -- indexing ---------------------------------------------------------

    def _cell_keys(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """(keys, in-bounds mask) of world points, an (n, 3) array or a (3,)
        point; keys of points outside the box are meaningless."""
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1:] != (3,):
            raise ValueError(f"points need a last axis of 3, got shape {pts.shape}")
        # in place where it can be: an (n, 3) frame's temporaries add to the
        # peak of the build and of every tracking tick
        cols = np.divide(pts.reshape(-1, 3).T, self.resolution, order="C")
        rel = np.floor(cols, out=cols).astype(np.int64)
        del cols
        rel -= self._ilo[:, None]
        nx, ny, nz = self._dims
        x, y, z = rel
        ok = (x >= 0) & (x < nx) & (y >= 0) & (y < ny) & (z >= 0) & (z < nz)
        keys = x * ny
        keys += y
        keys *= nz
        keys += z
        return keys, ok

    def _occupied_keys(self) -> np.ndarray:
        """Sorted keys of the occupied cells."""
        nonzero = np.flatnonzero(self._bits)
        bits = np.unpackbits(self._bits[nonzero], bitorder="little").reshape(-1, 8)
        return ((nonzero[:, None] << 3) + np.arange(8))[bits.astype(bool)]

    def _set(self, keys: np.ndarray) -> None:
        np.bitwise_or.at(self._bits, keys >> 3, np.left_shift(1, keys & 7).astype(np.uint8))

    # -- occupancy --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._occupied_keys())

    def insert_points(self, pts: np.ndarray) -> None:
        """Occupy the voxels of world points; points outside the box are skipped."""
        keys, ok = self._cell_keys(pts)
        self._set(keys[ok])

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorised occupancy query; (n,) bool for world points."""
        keys, ok = self._cell_keys(pts)
        # a point outside the box may have a key outside the grid: clip the
        # gather into range and let `ok` drop it
        byte = np.take(self._bits, keys >> 3, mode="clip")
        return ok & ((byte >> (keys & 7)) & 1).astype(bool)


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
        grid_shape(self.resolution, self.bounds_lo, self.bounds_hi)  # the map's own rule

    def empty_map(self) -> OccupancyOctree:
        return OccupancyOctree(self.resolution, self.bounds_lo, self.bounds_hi)


def _dilation_steps(radius: int) -> list[int]:
    """Shifts 1, 2, 4, ... and then the remainder, summing to radius. Each is
    at most one more than the sum before it, so the sum of the sets
    {-p, 0, p} over the steps is exactly [-radius, radius]."""
    steps, total = [], 0
    while total < radius:
        steps.append(min(total + 1, radius - total))
        total += steps[-1]
    return steps


def inflate(octree: OccupancyOctree, radius: int) -> OccupancyOctree:
    """Chebyshev dilation: occupy every voxel within `radius` of an occupied one.

    Returns a new octree. The dilation is separable (exact for the Chebyshev
    ball), and along each axis it is a chain of dilations by {-p, 0, p} over
    _dilation_steps: each pass shifts the occupied keys by -p and +p, clipped
    to the bounds box, and sets them into the grid, whose bits absorb
    duplicates. So a pass holds a few arrays the size of the keys whatever
    the radius, and there are about log2(radius) passes per axis; the
    radius is clamped to the grid, since a longer shift leaves it.
    """
    if radius < 0:
        raise ValueError("inflation radius must be >= 0")
    out = OccupancyOctree(octree.resolution, octree.lo, octree.hi)
    out._bits[:] = octree._bits
    if radius and out._bits.any():
        dims = octree._dims
        for axis in range(3):
            stride = int(np.prod(dims[axis + 1:]))
            for p in _dilation_steps(min(radius, int(dims[axis]) - 1)):
                keys = out._occupied_keys()
                coord = (keys // stride) % dims[axis]
                out._set(keys[coord >= p] - p * stride)
                out._set(keys[coord < dims[axis] - p] + p * stride)
    return out


def build_background(scans, params: BackgroundBuildParams, filters: FilterParams,
                     ground_z: float) -> OccupancyOctree:
    """Transform, range/ground gate, and insert raster scans; inflate last.

    `scans` is any iterable of (sensor-frame points, sensor pose) pairs from
    the turret's initialization raster, read once: each scan is in the map
    before the next is drawn, so a generator over the raster holds one frame
    at a time. The gate is the tracking phase's range gate: `filters`
    near_min, far_max and ground_margin over `ground_z`.
    """
    from .filters import range_filter

    scans = iter(scans)
    first = next(scans, None)
    if first is None:  # before the map, which can be 512 MiB, is allocated
        raise ValueError("cannot bootstrap a background model from zero scans")
    octree = params.empty_map()
    for points, pose in itertools.chain([first], scans):
        world = transform_cloud(points, pose)
        kept = range_filter(world, filters, ground_z, sensor_origin=pose.origin)
        octree.insert_points(kept.xyz)
    return inflate(octree, params.inflation_radius)

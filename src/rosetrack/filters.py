"""Per-frame cloud filtering: range/ground gating, background subtraction,
radius outlier removal, statistical outlier removal.

All filters are contractions: the output is a subset of the input with order
preserved and coordinates untouched. Neighbor queries go through a k-d tree:
preprocess_cloud runs one k-nearest-neighbour query per cloud and hands it to
both outlier filters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.spatial import cKDTree

from .geometry import PointCloud

if TYPE_CHECKING:
    from .background import OccupancyOctree


@dataclass(frozen=True)
class FilterParams:
    near_min: float = 0.5
    far_max: float = 200.0
    ground_margin: float = 0.3
    ror_radius: float = 0.5
    ror_min_neighbors: int = 2
    sor_k: int = 8
    sor_alpha: float = 1.0

    def __post_init__(self):
        if self.near_min <= 0:
            raise ValueError("near_min must be positive")
        if self.near_min >= self.far_max:
            raise ValueError("near_min must be below far_max")
        if not math.isfinite(self.ground_margin):
            raise ValueError("ground_margin must be finite")
        if self.ror_radius <= 0:
            raise ValueError("ror_radius must be positive")
        if self.ror_min_neighbors < 1:
            raise ValueError("ror_min_neighbors must be >= 1")
        if self.sor_k < 1:
            raise ValueError("sor_k must be >= 1")
        if self.sor_alpha <= 0:
            raise ValueError("sor_alpha must be positive")


def range_filter(cloud: PointCloud, params: FilterParams, ground_z: float,
                 sensor_origin) -> PointCloud:
    """Drop ground-plane points and returns outside [near_min, far_max].

    Keeps points with z above ground_z + ground_margin whose distance from
    the sensor origin lies in the range window. The ground band is tested
    first, on z alone, and only the points above it are gathered and
    measured: most of an outdoor frame is ground.
    """
    above = np.flatnonzero(cloud.xyz[:, 2] > ground_z + params.ground_margin)
    cols = np.take(cloud.xyz.T, above, axis=1)  # (3, m), C-ordered
    sq = cols - np.asarray(sensor_origin, dtype=float)[:, None]
    sq *= sq
    d = np.sqrt(sq[0] + sq[1] + sq[2])
    return PointCloud._checked(cols.T).select((d >= params.near_min) & (d <= params.far_max))


def subtract_background(cloud: PointCloud, octree: "OccupancyOctree") -> PointCloud:
    """Remove points whose voxel is occupied in the (inflated) background map.

    The map holds only voxels inside its bounds box, so a point outside the
    box is always kept, even where the static scene continues beyond it.
    """
    return cloud.select(~octree.contains_points(cloud.xyz))


def knn_query(cloud: PointCloud, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(distances, indices), each (n, k): every point's k nearest points in
    the cloud, nearest first, with the point itself (or a duplicate of it)
    at distance 0. The k-d tree orders them by the squared distance
    (dx*dx + dy*dy) + dz*dz; columns past the cloud's size hold inf and n."""
    return cKDTree(cloud.xyz).query(cloud.xyz, k=k)


def radius_outlier_removal(cloud: PointCloud, params: FilterParams,
                           knn: tuple[np.ndarray, np.ndarray] | None = None) -> PointCloud:
    """Keep a point iff at least ror_min_neighbors other points lie within ror_radius.

    A neighbour at (dx, dy, dz) is within the radius iff, in float64,
    (dx*dx + dy*dy) + dz*dz <= ror_radius * ror_radius, which at the
    boundary can differ from comparing the rounded Euclidean norm with
    ror_radius. The k-d tree orders neighbours by that same sum, so a point
    is kept iff its ror_min_neighbors-th nearest other point, column
    ror_min_neighbors of knn_query (column 0 is the point itself), passes
    the rule, recomputed from the coordinates.

    ``knn`` is a knn_query of this cloud with more than ror_min_neighbors
    columns (preprocess_cloud shares one with statistical_outlier_removal);
    without it the filter runs its own.
    """
    m = params.ror_min_neighbors
    if len(cloud) <= m:  # too few other points for any point to keep
        return cloud.select(np.zeros(len(cloud), dtype=bool))
    _, idx = knn if knn is not None else knn_query(cloud, m + 1)
    sq = cloud.xyz - cloud.xyz[idx[:, m]]
    sq *= sq
    d2 = (sq[:, 0] + sq[:, 1]) + sq[:, 2]
    return cloud.select(d2 <= params.ror_radius * params.ror_radius)


def statistical_outlier_removal(cloud: PointCloud, params: FilterParams,
                                knn: tuple[np.ndarray, np.ndarray] | None = None) -> PointCloud:
    """Keep points whose mean sor_k-nearest-neighbor distance is within
    mu + sor_alpha * sigma of the cloud-wide statistics.

    Clouds with at most sor_k points are returned unchanged (too few points
    to judge). Self-distances are excluded from the neighbor sets. ``knn``
    is a knn_query of this cloud with more than sor_k columns; without it
    the filter runs its own.
    """
    k = params.sor_k
    if len(cloud) <= k:
        return cloud
    dist, _ = knn if knn is not None else knn_query(cloud, k + 1)
    mean_knn = dist[:, 1:k + 1].mean(axis=1)  # column 0 is the self-distance
    mu = mean_knn.mean()
    sigma = mean_knn.std()
    return cloud.select(mean_knn <= mu + params.sor_alpha * sigma)


def preprocess_cloud(cloud: PointCloud, params: FilterParams, ground_z: float,
                     octree: "OccupancyOctree", sensor_origin) -> PointCloud:
    """Full chain in pipeline order: range -> background -> radius -> statistical.

    The two outlier filters share one knn_query of the cloud that reaches
    them, for max(ror_min_neighbors, sor_k) + 1 neighbours; SOR runs its own
    only if ROR dropped a point. The result is C-ordered: the tracker's
    centroid sums in memory order, and C and F layouts differ in the last bit.
    """
    out = range_filter(cloud, params, ground_z, sensor_origin)
    out = subtract_background(out, octree)
    out = PointCloud._checked(np.ascontiguousarray(out.xyz))
    knn = None
    if len(out) > params.ror_min_neighbors:
        knn = knn_query(out, max(params.ror_min_neighbors, params.sor_k) + 1)
    kept = radius_outlier_removal(out, params, knn)
    return statistical_outlier_removal(kept, params, knn if len(kept) == len(out) else None)

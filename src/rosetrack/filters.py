"""Per-frame cloud filtering: range/ground gating, background subtraction,
radius outlier removal, statistical outlier removal.

All filters are contractions: the output is a subset of the input with order
preserved and coordinates untouched. Neighbor queries go through a k-d tree.
"""

from __future__ import annotations

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
    the sensor origin lies in the range window.
    """
    sq = np.subtract(cloud.xyz.T, np.asarray(sensor_origin, dtype=float)[:, None], order="C")
    sq *= sq
    d = np.sqrt(sq[0] + sq[1] + sq[2])
    keep = (cloud.xyz[:, 2] > ground_z + params.ground_margin) \
        & (d >= params.near_min) & (d <= params.far_max)
    return cloud.select(keep)


def subtract_background(cloud: PointCloud, octree: "OccupancyOctree") -> PointCloud:
    """Remove points whose voxel is occupied in the (inflated) background map.

    The map holds only voxels inside its bounds box, so a point outside the
    box is always kept, even where the static scene continues beyond it.
    """
    return cloud.select(~octree.contains_points(cloud.xyz))


def radius_outlier_removal(cloud: PointCloud, params: FilterParams) -> PointCloud:
    """Keep a point iff at least ror_min_neighbors other points lie within ror_radius.

    A neighbour at (dx, dy, dz) is within the radius iff, in float64,
    (dx*dx + dy*dy) + dz*dz <= ror_radius * ror_radius: the k-d tree's
    squared-distance rule, which at the boundary can differ from comparing
    the rounded Euclidean norm with ror_radius.
    """
    tree = cKDTree(cloud.xyz)
    counts = np.array(tree.query_ball_point(cloud.xyz, params.ror_radius, return_length=True)) - 1
    return cloud.select(counts >= params.ror_min_neighbors)


def statistical_outlier_removal(cloud: PointCloud, params: FilterParams) -> PointCloud:
    """Keep points whose mean sor_k-nearest-neighbor distance is within
    mu + sor_alpha * sigma of the cloud-wide statistics.

    Clouds with at most sor_k points are returned unchanged (too few points
    to judge). Self-distances are excluded from the neighbor sets.
    """
    k = params.sor_k
    if len(cloud) <= k:
        return cloud
    dist, _ = cKDTree(cloud.xyz).query(cloud.xyz, k=k + 1)
    mean_knn = dist[:, 1:].mean(axis=1)  # column 0 is the self-distance
    mu = mean_knn.mean()
    sigma = mean_knn.std()
    return cloud.select(mean_knn <= mu + params.sor_alpha * sigma)


def preprocess_cloud(cloud: PointCloud, params: FilterParams, ground_z: float,
                     octree: "OccupancyOctree", sensor_origin) -> PointCloud:
    """Full chain in pipeline order: range -> background -> radius -> statistical."""
    out = range_filter(cloud, params, ground_z, sensor_origin)
    out = subtract_background(out, octree)
    out = radius_outlier_removal(out, params)
    return statistical_outlier_removal(out, params)

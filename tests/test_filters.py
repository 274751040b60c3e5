import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import all_points_range_filter, brute_force_ror, brute_force_sor
from scipy.spatial import cKDTree

import rosetrack.filters as filters
from rosetrack.background import OccupancyOctree, inflate
from rosetrack.filters import (FilterParams, preprocess_cloud, radius_outlier_removal,
                               range_filter, statistical_outlier_removal, subtract_background)
from rosetrack.geometry import PointCloud


def world_cloud(xyz):
    return PointCloud(xyz)


def column_block(pts):
    """The points as the .T of a C-ordered (3, n) block, the layout of scan's output."""
    return np.ascontiguousarray(np.asarray(pts, dtype=float).reshape(-1, 3).T).T


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def kept_ids(cloud, out):
    """Indices of output points within the input (exact coordinate match)."""
    lookup = {tuple(p): i for i, p in enumerate(cloud.xyz.tolist())}
    return [lookup[tuple(p)] for p in out.xyz.tolist()]


class TestRangeFilter:
    PARAMS = FilterParams(near_min=0.5, far_max=20.0, ground_margin=0.3)

    def test_ground_point_removed(self):
        out = range_filter(world_cloud([[3.0, 0.0, 0.0]]), self.PARAMS, ground_z=0.0,
                           sensor_origin=(0, 0, 0))
        assert len(out) == 0

    def test_point_beyond_far_max_removed(self):
        out = range_filter(world_cloud([[21.0, 0.0, 1.0]]), self.PARAMS, ground_z=0.0,
                           sensor_origin=(0, 0, 0))
        assert len(out) == 0

    def test_mixed_cloud_matches_per_point_predicate(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform([-5, -5, -0.5], [25, 5, 3.0], (100, 3))
        origin = (0.5, -0.25, 1.0)
        cloud = world_cloud(pts)
        out = range_filter(cloud, self.PARAMS, ground_z=0.0, sensor_origin=origin)
        want = []
        for i, p in enumerate(pts):
            d = np.linalg.norm(p - np.asarray(origin))
            if p[2] > 0.3 and 0.5 <= d <= 20.0:
                want.append(i)
        assert kept_ids(cloud, out) == want

    @pytest.mark.parametrize("ground_z", [0.0, 0.1, -0.7])
    def test_boundaries_match_per_point_predicate(self, ground_z):
        origin = np.array([0.5, -0.25, 1.0])
        floor = ground_z + self.PARAMS.ground_margin
        # points exactly near_min (0.5) or far_max (20) away, then the same
        # with the largest offset coordinate one ulp lower and one ulp higher
        offsets = [(0.0, 0.0, 0.5), (0.0, -0.5, 0.0), (12.0, 16.0, 0.0), (0.0, 20.0, 0.0)]
        pts = []
        for off in offsets:
            exact = origin + off
            axis = int(np.argmax(np.abs(off)))
            for v in (exact[axis], np.nextafter(exact[axis], -np.inf),
                      np.nextafter(exact[axis], np.inf)):
                p = exact.copy()
                p[axis] = v
                pts.append(p)
        # exactly on the ground cut and one ulp either side, inside the range window
        for z in (floor, np.nextafter(floor, -np.inf), np.nextafter(floor, np.inf)):
            pts.append((3.0, 0.0, z))
        pts = np.array(pts)
        cloud = world_cloud(pts)
        out = range_filter(cloud, self.PARAMS, ground_z=ground_z, sensor_origin=origin)
        want = [i for i, p in enumerate(pts)
                if p[2] > floor and 0.5 <= np.linalg.norm(p - origin) <= 20.0]
        assert kept_ids(cloud, out) == want
        assert {0, 3, 6, 9} <= set(want)  # exactly near_min or far_max away is kept
        assert 12 not in want and 14 in want  # on the ground cut is dropped, above it kept


class TestRangeFilterOracle:
    PARAMS = TestRangeFilter.PARAMS

    @staticmethod
    def boundary_points(rng, origin, floor, params):
        """Points on the ground cut, and points near_min and far_max from the
        origin along random directions, each with one-ulp neighbours."""
        pts = [(x, y, z) for x, y in rng.uniform(-10, 10, (2, 2))
               for z in (floor, np.nextafter(floor, -np.inf), np.nextafter(floor, np.inf))]
        u = rng.normal(size=(4, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        u[:2] = np.eye(3)[rng.integers(0, 3, 2)] * rng.choice([-1.0, 1.0], (2, 1))
        for dist in (params.near_min, params.far_max):
            for p in origin + dist * u:
                for v in (p[0], np.nextafter(p[0], -np.inf), np.nextafter(p[0], np.inf)):
                    pts.append((v, p[1], p[2]))
        return np.array(pts)

    @given(seed=st.integers(0, 10_000), n_above=st.integers(0, 60), n_ground=st.integers(0, 60),
           boundary=st.booleans(), column=st.booleans(),
           ground_z=st.sampled_from([0.0, 0.1, -0.7]))
    @example(seed=3, n_above=10, n_ground=10, boundary=True, column=True, ground_z=0.0)
    @example(seed=3, n_above=10, n_ground=10, boundary=True, column=False, ground_z=-0.7)
    @example(seed=0, n_above=0, n_ground=40, boundary=False, column=True, ground_z=0.0)
    @example(seed=0, n_above=0, n_ground=0, boundary=False, column=False, ground_z=0.0)
    @settings(max_examples=80, deadline=None)
    def test_matches_all_points_oracle(self, seed, n_above, n_ground, boundary, column, ground_z):
        rng = np.random.default_rng(seed)
        params = self.PARAMS
        floor = ground_z + params.ground_margin
        origin = rng.uniform([-1, -1, floor + 0.5], [1, 1, floor + 2])
        ground = rng.uniform([-25, -25, floor - 1], [25, 25, floor], (n_ground, 3))
        ground[::2, 2] = floor  # on the cut is ground
        parts = [rng.uniform([-25, -25, floor], [25, 25, floor + 3], (n_above, 3)), ground]
        if boundary:
            parts.append(self.boundary_points(rng, origin, floor, params))
        pts = np.vstack(parts)
        pts = pts[rng.permutation(len(pts))]
        cloud = PointCloud(column_block(pts) if column else pts)
        out = range_filter(cloud, params, ground_z, origin)
        assert same_bits(out.xyz, all_points_range_filter(cloud, params, ground_z, origin).xyz)
        if n_above == 0 and not boundary:
            assert out.xyz.shape == (0, 3)


class TestSubtractBackground:
    def octree_with(self, pts, radius=0):
        octree = OccupancyOctree(0.1, (-5, -5, -5), (5, 5, 5))
        octree.insert_points(pts)
        return inflate(octree, radius) if radius else octree

    def test_cloud_inside_occupied_voxels_vanishes(self):
        pts = [[1.0, 1.0, 1.0], [1.02, 1.05, 1.01]]
        octree = self.octree_with(pts)
        out = subtract_background(world_cloud(pts), octree)
        assert len(out) == 0

    def test_empty_octree_is_identity(self):
        octree = OccupancyOctree(0.1, (-5, -5, -5), (5, 5, 5))
        cloud = world_cloud([[1, 1, 1], [2, 2, 2]])
        out = subtract_background(cloud, octree)
        assert np.array_equal(out.xyz, cloud.xyz)

    def test_target_in_front_of_wall_survives(self):
        # wall voxels at x=3.0 plane, inflated by one voxel; a hovering
        # cluster 1 m in front keeps its points while wall returns vanish
        yy, zz = np.meshgrid(np.linspace(-1, 1, 21), np.linspace(0, 2, 21))
        wall = np.stack([np.full(yy.size, 3.0), yy.ravel(), zz.ravel()], axis=1)
        octree = self.octree_with(wall, radius=1)
        wall_noisy = wall + np.random.default_rng(0).normal(0, 0.02, wall.shape)
        target = np.array([[2.0, 0.0, 1.0], [2.02, 0.01, 1.03], [1.98, -0.02, 0.98]])
        out = subtract_background(world_cloud(np.vstack([wall_noisy, target])), octree)
        assert len(out) >= 1
        assert np.all(out.xyz[:, 0] < 2.5)

    def test_point_outside_map_bounds_is_kept(self):
        # the map covers [-5, 5]^3: a static return at x = 6 was never
        # inserted, so it passes subtraction while the in-bounds one does not
        static = [[6.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
        octree = self.octree_with(static)
        out = subtract_background(world_cloud(static), octree)
        assert out.xyz.tolist() == [[6.0, 0.0, 1.0]]


ONE_NEIGHBOR = FilterParams(ror_radius=0.5, ror_min_neighbors=1)


class TestRadiusOutlierRemoval:
    def test_isolated_point_removed(self):
        out = radius_outlier_removal(world_cloud([[0, 0, 0]]), ONE_NEIGHBOR)
        assert len(out) == 0

    def test_mutual_neighbors_kept(self):
        out = radius_outlier_removal(world_cloud([[0, 0, 0], [0.01, 0, 0]]), ONE_NEIGHBOR)
        assert len(out) == 2

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 500))
        pts = rng.uniform(-3, 3, (n, 3))
        cloud = world_cloud(pts)
        fast = radius_outlier_removal(cloud, FilterParams(ror_radius=0.8, ror_min_neighbors=3))
        slow = brute_force_ror(cloud, 0.8, 3)
        assert np.array_equal(fast.xyz, slow.xyz)

    def test_matches_brute_force_oracle_at_the_radius(self):
        # pairs r * (1 + k * 1e-16) apart, k in [-20, 20]: the squared-distance
        # rule decides them, and the rounded norm would decide some otherwise
        rng = np.random.default_rng(0)
        r = ONE_NEIGHBOR.ror_radius
        u = rng.normal(size=(600, 3))
        u /= np.linalg.norm(u, axis=1)[:, None]
        centres = rng.uniform(-3, 3, (600, 3))
        ends = centres + (r * (1 + rng.integers(-20, 21, 600) * 1e-16))[:, None] * u
        kept = []
        for pair in np.stack([centres, ends], axis=1):
            cloud = world_cloud(pair)
            fast = radius_outlier_removal(cloud, ONE_NEIGHBOR)
            assert np.array_equal(fast.xyz, brute_force_ror(cloud, r, 1).xyz)
            kept.append(len(fast) == 2)
        assert 0 < sum(kept) < len(kept)
        by_norm = np.linalg.norm(ends - centres, axis=1) <= r
        assert np.any(by_norm != np.array(kept))

    def test_permutation_invariant_kept_set(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2, 2, (120, 3))
        kept_a = radius_outlier_removal(world_cloud(pts), FilterParams(ror_radius=0.6))
        perm = rng.permutation(120)
        kept_b = radius_outlier_removal(world_cloud(pts[perm]), FilterParams(ror_radius=0.6))
        assert {tuple(p) for p in kept_a.xyz.tolist()} == {tuple(p) for p in kept_b.xyz.tolist()}

    def test_min_neighbors_come_from_the_params(self):
        # 0.3 m apart in a row: each end has one neighbor within 0.5 m, the middle two
        cloud = world_cloud([[0, 0, 0], [0.3, 0, 0], [0.6, 0, 0]])
        assert kept_ids(cloud, radius_outlier_removal(cloud, ONE_NEIGHBOR)) == [0, 1, 2]
        assert kept_ids(cloud, radius_outlier_removal(cloud, FilterParams())) == [1]

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError, match="ror_radius must be positive"):
            radius_outlier_removal(world_cloud([[0, 0, 0]]), FilterParams(ror_radius=0.0))


class TestStatisticalOutlierRemoval:
    def test_identical_points_all_kept(self):
        cloud = world_cloud([[1, 1, 1]] * 10)
        out = statistical_outlier_removal(cloud, FilterParams(sor_k=3))
        assert len(out) == 10

    def test_far_straggler_removed(self):
        rng = np.random.default_rng(2)
        cluster = rng.normal(0, 0.05, (20, 3))
        pts = np.vstack([cluster, [[10.0, 0.0, 0.0]]])
        cloud = world_cloud(pts)
        out = statistical_outlier_removal(cloud, FilterParams(sor_k=5))
        ids = kept_ids(cloud, out)
        assert 20 not in ids
        assert len(ids) >= 15

    def test_small_cloud_returned_unchanged(self):
        cloud = world_cloud([[0, 0, 0], [1, 1, 1]])
        out = statistical_outlier_removal(cloud, FilterParams(sor_k=5))
        assert out is cloud

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_knn_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 300))
        pts = rng.uniform(-3, 3, (n, 3))
        cloud = world_cloud(pts)
        fast = statistical_outlier_removal(cloud, FilterParams(sor_k=6))
        slow = brute_force_sor(cloud, 6, 1.0)
        assert np.array_equal(fast.xyz, slow.xyz)

    def test_direct_computation_example(self):
        # oracle: compute mean knn distances, mu, sigma by hand for a tiny cloud
        pts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [10, 0, 0]], dtype=float)
        cloud = world_cloud(pts)
        d = np.abs(pts[:, 0][:, None] - pts[:, 0][None, :])
        knn = np.sort(d, axis=1)[:, 1:3].mean(axis=1)  # k = 2
        mu, sigma = knn.mean(), knn.std()
        keep = knn <= mu + 1.0 * sigma
        out = statistical_outlier_removal(cloud, FilterParams(sor_k=2))
        assert kept_ids(cloud, out) == list(np.nonzero(keep)[0])
        assert 3 not in kept_ids(cloud, out)


    def test_alpha_comes_from_the_params(self):
        # mean 2-NN distances 1.5, 1, 1.5, 8.5: mu + sigma is 6.2, mu + 2 sigma 9.3
        cloud = world_cloud([[0, 0, 0], [1, 0, 0], [2, 0, 0], [10, 0, 0]])
        assert kept_ids(cloud, statistical_outlier_removal(cloud, FilterParams(sor_k=2))) == [0, 1, 2]
        wide = FilterParams(sor_k=2, sor_alpha=2.0)
        assert kept_ids(cloud, statistical_outlier_removal(cloud, wide)) == [0, 1, 2, 3]


class TestChainProperties:
    @given(seed=st.integers(0, 3000))
    @settings(max_examples=25, deadline=None)
    def test_filters_are_contractions_preserving_order(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform([-2, -2, 0], [8, 2, 3], (200, 3))
        cloud = world_cloud(pts)
        octree = OccupancyOctree(0.25, (-5, -5, -5), (10, 5, 5))
        octree.insert_points(rng.uniform([-2, -2, 0], [8, 2, 3], (50, 3)))
        out = preprocess_cloud(cloud, FilterParams(), ground_z=0.0, octree=octree,
                               sensor_origin=(0, 0, 0))
        ids = kept_ids(cloud, out)
        assert ids == sorted(ids)
        idx = np.array(ids, dtype=int)
        assert np.array_equal(out.xyz, cloud.xyz[idx])


def _drawn_cloud(rng, kind, params):
    """Points above the ground band and inside the range window of the
    origin (0, 0, 1), shaped to probe the outlier filters."""
    centre = np.array([3.0, 0.0, 1.5])
    r = params.ror_radius
    if kind == "duplicates":
        base = centre + rng.uniform(-0.6, 0.6, (int(rng.integers(1, 30)), 3))
        return base[rng.integers(0, len(base), int(rng.integers(0, 120)))]
    if kind == "radius_pairs":
        # pairs r * (1 + j * 1e-16) apart, j in [-20, 20], among a sparse cluster
        ends = centre + rng.uniform(-1, 1, (int(rng.integers(1, 40)), 3))
        u = rng.normal(size=ends.shape)
        u /= np.linalg.norm(u, axis=1)[:, None]
        others = ends + (r * (1 + rng.integers(-20, 21, len(ends)) * 1e-16))[:, None] * u
        pts = np.vstack([ends, others])
        return pts[rng.permutation(len(pts))]
    if kind == "dense":  # within 0.44 m of each other: ROR keeps every point
        return centre + rng.uniform(-0.125, 0.125, (int(rng.integers(0, 60)), 3))
    if kind == "at_most_sor_k":
        return centre + rng.uniform(-0.3, 0.3, (int(rng.integers(0, params.sor_k + 1)), 3))
    return centre + rng.uniform(-1, 1, (int(rng.integers(0, 200)), 3))


def _background_near(rng):
    octree = OccupancyOctree(0.25, (-5, -5, -5), (10, 5, 5))
    octree.insert_points(np.array([3.0, 0.0, 1.5]) + rng.uniform(-1, 1, (4, 3)))
    return octree


class TestPreprocessOracle:
    @given(seed=st.integers(0, 10_000),
           kind=st.sampled_from(["duplicates", "radius_pairs", "dense", "at_most_sor_k",
                                 "uniform"]),
           min_neighbors=st.integers(1, 12), sor_k=st.integers(1, 10), column=st.booleans())
    @example(seed=1, kind="uniform", min_neighbors=10, sor_k=2, column=True)
    @example(seed=2, kind="dense", min_neighbors=10, sor_k=3, column=False)
    @settings(max_examples=120, deadline=None)
    def test_matches_chain_with_brute_force_outlier_filters(self, seed, kind, min_neighbors,
                                                              sor_k, column):
        rng = np.random.default_rng(seed)
        params = FilterParams(ror_radius=0.5, ror_min_neighbors=min_neighbors, sor_k=sor_k)
        pts = _drawn_cloud(rng, kind, params)
        cloud = PointCloud(column_block(pts) if column else pts)
        octree = _background_near(rng)
        origin = (0.0, 0.0, 1.0)
        out = preprocess_cloud(cloud, params, 0.0, octree, origin)
        gated = subtract_background(range_filter(cloud, params, 0.0, origin), octree)
        want = brute_force_sor(brute_force_ror(gated, params.ror_radius, min_neighbors),
                               sor_k, params.sor_alpha)
        assert same_bits(out.xyz, want.xyz)
        assert out.xyz.flags.c_contiguous


class TestSharedQuery:
    PARAMS = FilterParams(ror_radius=0.5, ror_min_neighbors=2, sor_k=8)

    @staticmethod
    def trees_built(monkeypatch, pts):
        built = []

        def counting_tree(data, *args, **kwargs):
            built.append(len(data))
            return cKDTree(data, *args, **kwargs)

        monkeypatch.setattr(filters, "cKDTree", counting_tree)
        empty = OccupancyOctree(0.25, (-5, -5, -5), (10, 5, 5))
        out = preprocess_cloud(PointCloud(column_block(pts)), TestSharedQuery.PARAMS, 0.0,
                               empty, sensor_origin=(0, 0, 1))
        return built, out

    def cluster(self):
        return np.array([3.0, 0.0, 1.5]) + np.random.default_rng(6).uniform(-0.15, 0.15, (30, 3))

    def test_one_tree_when_ror_keeps_every_point(self, monkeypatch):
        built, out = self.trees_built(monkeypatch, self.cluster())
        assert built == [30]
        assert 0 < len(out) <= 30

    def test_second_tree_when_ror_drops_a_point(self, monkeypatch):
        pts = np.vstack([self.cluster(), [[6.0, 2.0, 1.5]]])
        built, out = self.trees_built(monkeypatch, pts)
        assert built == [31, 30]
        assert [6.0, 2.0, 1.5] not in out.xyz.tolist()

    def test_no_tree_when_no_point_can_keep(self, monkeypatch):
        built, out = self.trees_built(monkeypatch, self.cluster()[:2])
        assert built == [] and out.xyz.shape == (0, 3)


def test_preprocess_returns_c_ordered_points_for_a_column_block():
    # scan's points reach the filters as the .T of a C-ordered (3, n) block.
    # The tracker's centroid, xyz.mean(axis=0), sums in memory order (C and F
    # layouts differ by 1-2e-16 on 1,000 points), so the filtered cloud must
    # come out C-ordered, with the same points as for a C-ordered input
    rng = np.random.default_rng(4)
    pts = rng.uniform([1.0, -3.0, 0.5], [8.0, 3.0, 3.0], (1000, 3))
    column = PointCloud(np.ascontiguousarray(pts.T).T)
    assert column.xyz.flags.f_contiguous and not column.xyz.flags.c_contiguous
    outs = [preprocess_cloud(cloud, FilterParams(), 0.0, octree=_occupied_map(),
                             sensor_origin=(0, 0, 1)) for cloud in (column, PointCloud(pts))]
    assert len(outs[0]) > 0 and outs[0].xyz.flags.c_contiguous
    assert np.array_equal(outs[0].xyz, outs[1].xyz)


def _occupied_map():
    octree = OccupancyOctree(0.25, (-5, -5, -5), (10, 5, 5))
    octree.insert_points([[3.0, 0.0, 1.0]])
    return octree


ZERO_POINT_STAGES = {
    "range": lambda c: range_filter(c, FilterParams(), 0.0, sensor_origin=(0, 0, 0)),
    "background": lambda c: subtract_background(c, _occupied_map()),
    "ror": lambda c: radius_outlier_removal(c, FilterParams()),
    "ror_brute_force": lambda c: brute_force_ror(c, 0.5, 2),
    "sor": lambda c: statistical_outlier_removal(c, FilterParams()),
    "sor_brute_force": lambda c: brute_force_sor(c, 8, 1.0),
    "preprocess": lambda c: preprocess_cloud(c, FilterParams(), 0.0, octree=_occupied_map(),
                                             sensor_origin=(0, 0, 0)),
}


@pytest.mark.parametrize("stage", list(ZERO_POINT_STAGES))
def test_zero_points_in_zero_points_out(stage):
    out = ZERO_POINT_STAGES[stage](world_cloud(np.empty((0, 3))))
    assert isinstance(out, PointCloud)
    assert out.xyz.shape == (0, 3)

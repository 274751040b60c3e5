import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from rosetrack.background import BackgroundBuildParams, OccupancyOctree, build_background, inflate
from rosetrack.filters import FilterParams
from rosetrack.geometry import SensorPose
from rosetrack.scene import Box, Scene, WeatherModel
from rosetrack.sensor import RosetteParams, scan
from rosetrack.turret import TurretParams, scan_mode_command


def fresh_octree(resolution=0.1, lo=(-5, -5, -5), hi=(5, 5, 5)):
    return OccupancyOctree(resolution, lo, hi)


class TestInsertAndQuery:
    def test_empty_cloud_is_noop(self):
        octree = fresh_octree()
        octree.insert_points(np.empty((0, 3)))
        assert len(octree) == 0

    def test_single_point_voxel_index(self):
        octree = fresh_octree(resolution=0.1)
        octree.insert_points([[1.05, 2.03, 0.98]])
        assert len(octree) == 1
        assert octree.occupied_indices().tolist() == [[10, 20, 9]]

    def test_insert_query_round_trip(self):
        octree = fresh_octree()
        assert not octree.contains_points((0.33, 0.33, 0.33))[0]
        octree.insert_points([[0.33, 0.33, 0.33]])
        assert octree.contains_points((0.33, 0.33, 0.33))[0]
        assert octree.contains_points((0.39, 0.31, 0.36))[0]  # same voxel
        assert not octree.contains_points((0.45, 0.33, 0.33))[0]  # neighbor voxel

    def test_last_axis_must_be_three(self):
        octree = fresh_octree()
        with pytest.raises(ValueError, match="last axis"):
            octree.contains_points(np.zeros((6, 2)))
        with pytest.raises(ValueError, match="last axis"):
            octree.insert_points(np.zeros((6, 2)))
        assert octree.voxel_indices((0.33, 0.33, 0.33)).tolist() == [[3, 3, 3]]

    def test_out_of_bounds_points_skipped(self):
        octree = fresh_octree(lo=(0, 0, 0), hi=(1, 1, 1))
        octree.insert_points([[5.0, 5.0, 5.0], [0.5, 0.5, 0.5]])
        assert len(octree) == 1
        assert not octree.contains_points((5.0, 5.0, 5.0))[0]

    def test_idempotent_for_repeated_points(self):
        octree = fresh_octree()
        pts = [[1.0, 1.0, 1.0]] * 7
        octree.insert_points(pts)
        octree.insert_points(pts)
        assert len(octree) == 1

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_matches_hash_set_oracle(self, seed):
        rng = np.random.default_rng(seed)
        octree = fresh_octree(resolution=0.25)
        pts = rng.uniform(-4.9, 4.9, (1000, 3))
        octree.insert_points(pts)
        oracle = {tuple(v) for v in np.floor(pts / 0.25).astype(int).tolist()}
        queries = np.vstack([pts[:200], rng.uniform(-4.9, 4.9, (300, 3))])
        got = octree.contains_points(queries)
        want = np.array([tuple(v) in oracle
                         for v in np.floor(queries / 0.25).astype(int).tolist()])
        assert np.array_equal(got, want)

    def test_monotonicity_of_insert(self):
        octree = fresh_octree()
        rng = np.random.default_rng(0)
        octree.insert_points(rng.uniform(-4, 4, (100, 3)))
        before = set(map(tuple, octree.occupied_indices().tolist()))
        octree.insert_points(rng.uniform(-4, 4, (100, 3)))
        after = set(map(tuple, octree.occupied_indices().tolist()))
        assert before <= after


class TestInflate:
    def test_radius_zero_is_identity(self):
        octree = fresh_octree()
        octree.insert_points([[0.5, 0.5, 0.5], [2.0, 2.0, 2.0]])
        out = inflate(octree, 0)
        assert np.array_equal(out.occupied_indices(), octree.occupied_indices())

    def test_single_voxel_inflates_to_27(self):
        octree = fresh_octree()
        octree.insert_points([[0.55, 0.55, 0.55]])
        out = inflate(octree, 1)
        assert len(out) == 27

    def test_neighbor_query_after_inflation(self):
        octree = fresh_octree(resolution=0.1)
        octree.insert_points([[1.0, 1.0, 1.0]])
        out = inflate(octree, 1)
        assert out.contains_points((1.0 + 0.1, 1.0, 1.0))[0]
        assert not out.contains_points((1.0 + 0.25, 1.0, 1.0))[0]

    @given(seed=st.integers(0, 5000), radius=st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_grid_dilation_oracle(self, seed, radius):
        rng = np.random.default_rng(seed)
        octree = OccupancyOctree(1.0, (0, 0, 0), (19.999, 19.999, 19.999))
        pts = rng.uniform(0.0, 19.95, (40, 3))
        octree.insert_points(pts)
        out = inflate(octree, radius)
        grid = np.zeros((20, 20, 20), dtype=bool)
        for i, j, k in octree.occupied_indices():
            grid[i, j, k] = True
        size = 2 * radius + 1
        dil = ndimage.binary_dilation(grid, structure=np.ones((size, size, size), dtype=bool))
        want = {tuple(v) for v in np.argwhere(dil).tolist()}
        got = set(map(tuple, out.occupied_indices().tolist()))
        assert got == want

    @given(a=st.integers(0, 2), b=st.integers(0, 2), seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_composition_property(self, a, b, seed):
        rng = np.random.default_rng(seed)
        octree = fresh_octree(resolution=0.5)
        octree.insert_points(rng.uniform(-4.5, 4.5, (30, 3)))
        lhs = inflate(inflate(octree, a), b)
        rhs = inflate(octree, a + b)
        assert np.array_equal(lhs.occupied_indices(), rhs.occupied_indices())


class TestConstruction:
    # resolution 1.0 over [0, 2.5]^3, with one value made non-finite
    @pytest.mark.parametrize("resolution, lo, hi", [
        (math.nan, (0.0, 0.0, 0.0), (2.5, 2.5, 2.5)),
        (math.inf, (0.0, 0.0, 0.0), (2.5, 2.5, 2.5)),
        (1.0, (math.nan, 0.0, 0.0), (2.5, 2.5, 2.5)),
        (1.0, (0.0, 0.0, 0.0), (math.inf, 2.5, 2.5)),
    ], ids=["res-nan", "res-inf", "lo-nan", "hi-inf"])
    def test_non_finite_resolution_or_bounds_rejected(self, resolution, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            OccupancyOctree(resolution, lo, hi)


class TestBuildBackground:
    def build_scene(self):
        wall = Box((7.5, -4.0, 0.0), (8.0, 4.0, 3.0))
        return Scene(0.0, [wall], None, WeatherModel())

    def raster_scans(self, scene, n_frames=20, seed=0):
        params = RosetteParams(point_rate=20000)
        tp = TurretParams(scan_duration=n_frames / 10.0)
        rng = np.random.default_rng(seed)
        out = []
        for k in range(n_frames):
            pose = SensorPose((0, 0, 1.0), scan_mode_command(k / 10.0, tp))
            out.append((scan(scene, pose, k / 10.0, params, rng), pose))
        return out

    def test_static_scene_builds_target_free_octree(self):
        scene = self.build_scene()
        scans = self.raster_scans(scene)
        params = BackgroundBuildParams(bounds_lo=(-1, -5, -0.5), bounds_hi=(9, 5, 4),
                                       resolution=0.1)
        octree = build_background(scans, params, FilterParams(), 0.0)
        assert len(octree) > 100  # the wall is in the map
        # a hovering target in front of the wall survives subtraction
        target_pts = np.array([[5.0, 0.0, 1.2], [5.02, 0.01, 1.22], [5.0, -0.02, 1.18]])
        assert not octree.contains_points(target_pts).any()

    def test_ground_only_scene_builds_empty_octree(self):
        scene = Scene(0.0, [], None, WeatherModel())
        scans = self.raster_scans(scene, n_frames=10)
        octree = build_background(scans, BackgroundBuildParams(), FilterParams(), 0.0)
        assert len(octree) == 0

    def test_double_insertion_is_idempotent(self):
        scene = self.build_scene()
        scans = self.raster_scans(scene)
        params = BackgroundBuildParams(bounds_lo=(-1, -5, -0.5), bounds_hi=(9, 5, 4))
        once = build_background(scans, params, FilterParams(), 0.0)
        twice = build_background(scans + scans, params, FilterParams(), 0.0)
        assert np.array_equal(once.occupied_indices(), twice.occupied_indices())

    def test_gate_is_the_tracking_range_gate(self):
        # the wall is 7.5-8 m away: a 7 m far cut or a ground plane raised
        # above it leaves nothing to insert
        scans = self.raster_scans(self.build_scene(), n_frames=10)
        params = BackgroundBuildParams(bounds_lo=(-1, -5, -0.5), bounds_hi=(9, 5, 4))
        assert len(build_background(scans, params, FilterParams(), 0.0)) > 100
        assert len(build_background(scans, params, FilterParams(far_max=7.0), 0.0)) == 0
        assert len(build_background(scans, params, FilterParams(), 3.5)) == 0

    def test_empty_scan_sequence_rejected(self):
        with pytest.raises(ValueError):
            build_background([], BackgroundBuildParams(), FilterParams(), 0.0)


class TestQueryPerformance:
    def test_bulk_query_under_a_microsecond(self):
        rng = np.random.default_rng(0)
        octree = OccupancyOctree(0.1, (0, 0, 0), (10, 10, 10))
        octree.insert_points(rng.uniform(0, 10, (1_000_000, 3)))
        queries = rng.uniform(0, 10, (1_000_000, 3))
        octree.contains_points(queries[:1000])  # warm up
        start = time.perf_counter()
        octree.contains_points(queries)
        elapsed = time.perf_counter() - start
        assert elapsed / 1_000_000 < 1e-6, f"{elapsed * 1e3:.1f} ms for 1e6 queries"

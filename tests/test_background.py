import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import occupied_indices
from scipy import ndimage

from rosetrack.background import (MAX_CELLS, BackgroundBuildParams, OccupancyOctree,
                                  _dilation_steps, build_background, grid_shape, inflate)
from rosetrack.filters import FilterParams
from rosetrack.geometry import SensorPose
from rosetrack.scene import Box, Scene, WeatherModel
from rosetrack.sensor import RosetteParams, scan
from rosetrack.turret import TurretParams, scan_mode_command


def fresh_octree(resolution=0.1, lo=(-5, -5, -5), hi=(5, 5, 5)):
    return OccupancyOctree(resolution, lo, hi)


def assert_matches_hash_set_oracle(octree, inserted, queries, ilo, ihi):
    """The octree holds exactly the voxels floor(p / resolution) of the
    inserted points that lie in [ilo, ihi], and answers queries from them."""
    def cells(pts):
        idx = np.floor(pts / octree.resolution).astype(int)
        inside = np.all((idx >= ilo) & (idx <= ihi), axis=1)
        return [tuple(v) if ok else None for v, ok in zip(idx.tolist(), inside)]

    oracle = {c for c in cells(inserted) if c is not None}
    want = np.array([c in oracle for c in cells(queries)])
    assert np.array_equal(octree.contains_points(queries), want)
    assert len(octree) == len(oracle)
    assert set(map(tuple, occupied_indices(octree).tolist())) == oracle


class TestInsertAndQuery:
    def test_empty_cloud_is_noop(self):
        octree = fresh_octree()
        octree.insert_points(np.empty((0, 3)))
        assert len(octree) == 0

    def test_single_point_voxel_index(self):
        octree = fresh_octree(resolution=0.1)
        octree.insert_points([[1.05, 2.03, 0.98]])
        assert len(octree) == 1
        assert occupied_indices(octree).tolist() == [[10, 20, 9]]

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
        octree.insert_points((0.33, 0.33, 0.33))  # a single (3,) point
        assert occupied_indices(octree).tolist() == [[3, 3, 3]]

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
        queries = np.vstack([pts[:200], rng.uniform(-4.9, 4.9, (300, 3))])
        assert_matches_hash_set_oracle(octree, pts, queries, (-20, -20, -20), (20, 20, 20))

    # 3 x 5 x 7 = 105 cells (not a multiple of 8) from a negative corner:
    # absolute voxels -2..0, -4..0, -3..3; the grid's far faces are at
    # 0.5, 0.5 and 2.0, one voxel past `hi` on each axis
    EDGE_LO, EDGE_HI, EDGE_FAR = (-1.0, -2.0, -1.5), (0.25, 0.4, 1.5), (0.5, 0.5, 2.0)

    def edge_points(self):
        """Points on the lo and hi faces, on the grid's far faces, and one
        ulp either side of each, with the other coordinates inside."""
        mid = (-0.4, -0.9, 0.3)
        out = []
        for axis in range(3):
            for face in (self.EDGE_LO[axis], self.EDGE_HI[axis], self.EDGE_FAR[axis]):
                for v in (face, np.nextafter(face, -np.inf), np.nextafter(face, np.inf)):
                    p = list(mid)
                    p[axis] = v
                    out.append(p)
        return np.array(out)

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_grid_edges_match_hash_set_oracle(self, seed):
        rng = np.random.default_rng(seed)
        octree = OccupancyOctree(0.5, self.EDGE_LO, self.EDGE_HI)
        edges = self.edge_points()
        pts = np.vstack([edges[rng.random(len(edges)) < 0.5],
                         rng.uniform(-1.6, 2.6, (40, 3))])
        octree.insert_points(pts)
        queries = np.vstack([edges, rng.uniform(-1.6, 2.6, (200, 3))])
        assert_matches_hash_set_oracle(octree, pts, queries, (-2, -4, -3), (0, 0, 3))

    def test_last_cell_of_the_grid(self):
        octree = OccupancyOctree(0.5, self.EDGE_LO, self.EDGE_HI)
        corner = np.nextafter(np.array(self.EDGE_FAR), -np.inf)  # voxel (0, 0, 3)
        octree.insert_points(corner)
        assert occupied_indices(octree).tolist() == [[0, 0, 3]]
        assert octree.contains_points([corner, (0.25, 0.25, 1.5)]).tolist() == [True, True]
        # one ulp further is outside the grid on each axis, and never occupied
        for axis in range(3):
            beyond = corner.copy()
            beyond[axis] = self.EDGE_FAR[axis]
            assert not octree.contains_points(beyond)[0]
            octree.insert_points(beyond)
        assert len(octree) == 1

    def test_monotonicity_of_insert(self):
        octree = fresh_octree()
        rng = np.random.default_rng(0)
        octree.insert_points(rng.uniform(-4, 4, (100, 3)))
        before = set(map(tuple, occupied_indices(octree).tolist()))
        octree.insert_points(rng.uniform(-4, 4, (100, 3)))
        after = set(map(tuple, occupied_indices(octree).tolist()))
        assert before <= after


class TestInflate:
    def test_radius_zero_is_identity(self):
        octree = fresh_octree()
        octree.insert_points([[0.5, 0.5, 0.5], [2.0, 2.0, 2.0]])
        out = inflate(octree, 0)
        assert np.array_equal(occupied_indices(out), occupied_indices(octree))

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

    @given(seed=st.integers(0, 5000), radius=st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_matches_dense_grid_dilation_oracle(self, seed, radius):
        rng = np.random.default_rng(seed)
        octree = OccupancyOctree(1.0, (0, 0, 0), (19.999, 19.999, 19.999))
        pts = rng.uniform(0.0, 19.95, (40, 3))
        octree.insert_points(pts)
        out = inflate(octree, radius)
        grid = np.zeros((20, 20, 20), dtype=bool)
        for i, j, k in occupied_indices(octree):
            grid[i, j, k] = True
        size = 2 * radius + 1
        dil = ndimage.binary_dilation(grid, structure=np.ones((size, size, size), dtype=bool))
        want = {tuple(v) for v in np.argwhere(dil).tolist()}
        got = set(map(tuple, occupied_indices(out).tolist()))
        assert got == want

    # radii up to 7 reach past the 5- and 7-voxel axes, where the radius is clamped
    @given(seed=st.integers(0, 5000), radius=st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_odd_dims_with_every_face_touched_match_dilation_oracle(self, seed, radius):
        rng = np.random.default_rng(seed)
        # 5 x 7 x 9 voxels from a negative corner: absolute -3..1, -2..4, -4..4
        octree = OccupancyOctree(1.0, (-3, -2, -4), (1.5, 4.5, 4.5))
        shape = np.array([5, 7, 9])
        idx = rng.integers(0, shape, (12, 3))
        for axis in range(3):  # one voxel on each of the six faces
            idx[2 * axis, axis] = 0
            idx[2 * axis + 1, axis] = shape[axis] - 1
        octree.insert_points(idx + np.array([-3, -2, -4]) + 0.5)
        grid = np.zeros(shape, dtype=bool)
        grid[tuple(idx.T)] = True
        size = 2 * radius + 1
        dil = ndimage.binary_dilation(grid, structure=np.ones((size, size, size), dtype=bool))
        want = {tuple(v) for v in (np.argwhere(dil) + np.array([-3, -2, -4])).tolist()}
        out = inflate(octree, radius)
        assert set(map(tuple, occupied_indices(out).tolist())) == want
        assert len(out) == len(want)

    @pytest.mark.parametrize("radius", [1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 100])
    def test_dilation_steps_cover_the_radius_exactly(self, radius):
        steps = _dilation_steps(radius)
        reach = {0}
        for p in steps:
            reach = {r + d for r in reach for d in (-p, 0, p)}
        assert reach == set(range(-radius, radius + 1))
        assert len(steps) <= radius.bit_length() + 1

    def test_large_radius_peak_memory_does_not_grow_with_the_radius(self):
        # 24^3 voxels, radius 50: a pass that shifted the keys by every
        # offset in [-50, 50] at once would hold 101 copies of them
        octree = OccupancyOctree(1.0, (0, 0, 0), (23.999, 23.999, 23.999))
        octree.insert_points(np.random.default_rng(0).uniform(0.0, 23.95, (100, 3)))
        tracemalloc.start()
        try:
            out = inflate(octree, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 24 ** 3
        # eight int64 arrays of one key per voxel of the grid
        assert peak <= 8 * 8 * 24 ** 3

    @given(a=st.integers(0, 2), b=st.integers(0, 2), seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_composition_property(self, a, b, seed):
        rng = np.random.default_rng(seed)
        octree = fresh_octree(resolution=0.5)
        octree.insert_points(rng.uniform(-4.5, 4.5, (30, 3)))
        lhs = inflate(inflate(octree, a), b)
        rhs = inflate(octree, a + b)
        assert np.array_equal(occupied_indices(lhs), occupied_indices(rhs))


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


class TestSizeCap:
    def test_cell_count_above_the_cap_rejected(self):
        # 10^4 x 10^4 x 4.5 * 10^3 cells: far above the cap, far below int64
        with pytest.raises(ValueError, match="voxels"):
            OccupancyOctree(0.001, (-1, -5, -0.5), (9, 5, 4))
        with pytest.raises(ValueError, match="voxels"):
            BackgroundBuildParams(resolution=0.001)

    def test_cap_is_inclusive(self):
        # 2^11 x 2^11 x 2^10 = 2^32 cells exactly, without building the map
        assert MAX_CELLS == 2**32
        _, dims = grid_shape(1.0, (0, 0, 0), (2047.5, 2047.5, 1023.5))
        assert int(np.prod(dims)) == MAX_CELLS
        with pytest.raises(ValueError, match="voxels"):
            grid_shape(1.0, (0, 0, 0), (2048.5, 2047.5, 1023.5))

    def test_box_far_from_the_origin_rejected(self):
        # a small box whose absolute voxel indices int64 arithmetic cannot hold
        with pytest.raises(ValueError, match="2\\*\\*62"):
            OccupancyOctree(1.0, (1e19, 0, 0), (1e19 + 4096, 1, 1))

    def test_bundled_sized_map_is_bit_packed(self):
        octree = OccupancyOctree(0.1, (-1, -5, -0.5), (9, 5, 4))
        assert octree._bits.nbytes == -(-101 * 101 * 46 // 8)


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
            out.append((scan(scene, pose, k / 10.0, params, rng)[0], pose))
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
        assert np.array_equal(occupied_indices(once), occupied_indices(twice))

    def test_gate_is_the_tracking_range_gate(self):
        # the wall is 7.5-8 m away: a 7 m far cut or a ground plane raised
        # above it leaves nothing to insert
        scans = self.raster_scans(self.build_scene(), n_frames=10)
        params = BackgroundBuildParams(bounds_lo=(-1, -5, -0.5), bounds_hi=(9, 5, 4))
        assert len(build_background(scans, params, FilterParams(), 0.0)) > 100
        assert len(build_background(scans, params, FilterParams(far_max=7.0), 0.0)) == 0
        assert len(build_background(scans, params, FilterParams(), 3.5)) == 0

    def test_each_scan_is_inserted_before_the_next_is_drawn(self, monkeypatch):
        # the build reads its input once, in order, so a generator over the
        # raster holds one frame at a time
        scans = self.raster_scans(self.build_scene(), n_frames=5)
        params = BackgroundBuildParams(bounds_lo=(-1, -5, -0.5), bounds_hi=(9, 5, 4))
        listed = build_background(scans, params, FilterParams(), 0.0)
        events = []
        real_insert = OccupancyOctree.insert_points

        def recording_insert(octree, pts):
            events.append("insert")
            real_insert(octree, pts)

        def drawn():
            for item in scans:
                events.append("draw")
                yield item

        monkeypatch.setattr(OccupancyOctree, "insert_points", recording_insert)
        streamed = build_background(drawn(), params, FilterParams(), 0.0)
        assert events == ["draw", "insert"] * 5
        assert np.array_equal(occupied_indices(streamed), occupied_indices(listed))

    def test_empty_scan_sequence_rejected(self, monkeypatch):
        # a list or a generator, and before the map (up to 512 MiB) is allocated
        def no_map(params):
            raise AssertionError("map allocated for an empty build")

        monkeypatch.setattr(BackgroundBuildParams, "empty_map", no_map)
        for empty in ([], iter(()), (scan for scan in ())):
            with pytest.raises(ValueError, match="zero scans"):
                build_background(empty, BackgroundBuildParams(), FilterParams(), 0.0)


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

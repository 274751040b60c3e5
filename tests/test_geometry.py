import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosetrack.geometry import (PanTiltPose, PointCloud, SensorPose, pan_tilt_to_rotation,
                                transform_cloud)


def rot_z(a):
    return np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])


def rot_y(a):
    return np.array([[math.cos(a), 0, math.sin(a)], [0, 1, 0], [-math.sin(a), 0, math.cos(a)]])


angles_pan = st.floats(-math.pi, math.pi, allow_nan=False)
angles_tilt = st.floats(-math.pi / 2, math.pi / 2, allow_nan=False)


class TestPanTiltRotation:
    def test_identity_at_rest(self):
        r = pan_tilt_to_rotation(PanTiltPose(0.0, 0.0))
        assert np.allclose(r, np.eye(3), atol=1e-15)

    def test_quarter_turn_pan(self):
        r = pan_tilt_to_rotation(PanTiltPose(math.pi / 2, 0.0))
        assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_matches_composed_elementary_rotations(self):
        # oracle: pan about z then tilt about the carried y-axis; +tilt goes up,
        # which is Ry(-tilt) in the right-handed convention
        pose = PanTiltPose(0.3, -0.2)
        oracle = rot_z(0.3) @ rot_y(0.2)
        r = pan_tilt_to_rotation(pose)
        assert np.allclose(r, oracle, atol=1e-12)
        assert np.allclose(r @ [1, 0, 0], oracle @ [1, 0, 0], atol=1e-12)

    @given(pan=angles_pan, tilt=angles_tilt)
    def test_boresight_formula(self, pan, tilt):
        r = pan_tilt_to_rotation(PanTiltPose(pan, tilt))
        expected = [math.cos(tilt) * math.cos(pan), math.cos(tilt) * math.sin(pan), math.sin(tilt)]
        assert np.allclose(r @ [1, 0, 0], expected, atol=1e-12)

    @given(pan=angles_pan, tilt=angles_tilt)
    def test_orthonormal_positive_determinant(self, pan, tilt):
        r = pan_tilt_to_rotation(PanTiltPose(pan, tilt))
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12
        assert np.linalg.det(r) > 0

    def test_pose_limits_enforced(self):
        with pytest.raises(ValueError):
            PanTiltPose(3.5, 0.0)
        with pytest.raises(ValueError):
            PanTiltPose(0.0, 2.0)


class TestTransformCloud:
    def test_identity_pose_keeps_coordinates(self):
        pts = np.array([[1.0, 2.0, 3.0], [-4.0, 0.0, 2.0]])
        out = transform_cloud(pts, SensorPose((0, 0, 0)))
        assert isinstance(out, PointCloud)
        assert np.allclose(out.xyz, pts)

    def test_pure_translation(self):
        out = transform_cloud(np.zeros((1, 3)), SensorPose((1, 2, 3)))
        assert np.allclose(out.xyz, [[1, 2, 3]])

    def test_quarter_pan_against_matrix_oracle(self):
        origin = (0.5, -0.25, 2.0)
        out = transform_cloud(np.array([[1.0, 0.0, 0.0]]),
                              SensorPose(origin, PanTiltPose(math.pi / 2, 0.0)))
        oracle = rot_z(math.pi / 2) @ np.array([1.0, 0.0, 0.0]) + np.array(origin)
        assert np.allclose(out.xyz[0], oracle, atol=1e-12)
        assert np.allclose(out.xyz[0], np.array([0, 1, 0]) + origin, atol=1e-12)

    @given(pan=angles_pan, tilt=angles_tilt,
           ox=st.floats(-50, 50), oy=st.floats(-50, 50), oz=st.floats(-50, 50))
    @settings(max_examples=60)
    def test_round_trip_within_tolerance(self, pan, tilt, ox, oy, oz):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-20, 20, (25, 3))
        pose = SensorPose((ox, oy, oz), PanTiltPose(pan, tilt))
        out = transform_cloud(pts, pose)
        # the rotation is orthonormal, so R^T undoes it
        back = (out.xyz - np.asarray(pose.origin)) @ pan_tilt_to_rotation(pose.orientation)
        assert np.max(np.abs(back - pts)) < 1e-9

    @given(pan=angles_pan, tilt=angles_tilt)
    @settings(max_examples=60)
    def test_pairwise_distances_preserved(self, pan, tilt):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-10, 10, (15, 3))
        out = transform_cloud(pts, SensorPose((4, -2, 1), PanTiltPose(pan, tilt)))
        d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d_out = np.linalg.norm(out.xyz[:, None] - out.xyz[None, :], axis=2)
        assert np.max(np.abs(d_in - d_out)) < 1e-9

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 7, 24_000])
    def test_bit_identical_to_row_product(self, order, n):
        # the golden outputs hash clouds whose points were made as
        # points @ rot.T + origin: the (3, n) product must give the same bits
        # for a C-ordered array and for the .T of a (3, n) block (scan's points)
        rng = np.random.default_rng(n)
        for _ in range(20):
            pose = SensorPose(tuple(rng.uniform(-5, 5, 3)),
                              PanTiltPose(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5)))
            pts = np.asarray(rng.uniform(-30, 30, (n, 3)), order=order)
            want = pts @ pan_tilt_to_rotation(pose.orientation).T + np.asarray(pose.origin)
            assert np.array_equal(transform_cloud(pts, pose).xyz, want)

    @given(pan=angles_pan, tilt=angles_tilt, seed=st.integers(0, 2**32 - 1),
           n=st.integers(1, 30_000), share=st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_subset_product_is_the_product_subset(self, pan, tilt, seed, n, share):
        # scan builds no point for the ground returns the range gate drops, so
        # transform_cloud multiplies a subset of the columns it used to: each
        # kept column must come out with the same bits either way. A subset
        # of one column of a larger block is the exception (numpy's gemv
        # rounds differently from gemm), and scan never leaves one
        self.assert_subset_product_equal(PanTiltPose(pan, tilt), seed, n, share)

    @pytest.mark.parametrize("n", [*range(1, 49), *range(29_969, 30_001)])
    def test_subset_product_at_every_residue_near_both_ends(self, n):
        # the BLAS kernel splits the columns into blocks and a remainder:
        # every residue mod 16 of the full and the kept count near 1 and 30,000
        rng = np.random.default_rng(n)
        for _ in range(4):
            pose = PanTiltPose(rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5))
            self.assert_subset_product_equal(pose, int(rng.integers(2**32)), n, rng.random())

    @staticmethod
    def assert_subset_product_equal(orientation, seed, n, share):
        rng = np.random.default_rng(seed)
        block = rng.uniform(-150.0, 150.0, (3, n))  # C-ordered, as scan builds its points
        keep = rng.random(n) < share
        if np.count_nonzero(keep) == 1 < n:
            return
        pose = SensorPose(tuple(rng.uniform(-5.0, 5.0, 3)), orientation)
        subset = transform_cloud(np.compress(keep, block, axis=1).T, pose).xyz
        assert subset.tobytes() == transform_cloud(block.T, pose).xyz[keep].tobytes()

    def test_point_count_preserved(self):
        pts = np.arange(30.0).reshape(10, 3)
        out = transform_cloud(pts, SensorPose((1, 1, 1), PanTiltPose(0.4, 0.1)))
        assert len(out) == len(pts)


class TestDomainTypes:
    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(ValueError):
            PointCloud([[math.nan, 0.0, 0.0]])

    def test_last_axis_must_be_three(self):
        with pytest.raises(ValueError, match="last axis"):
            PointCloud(np.zeros((6, 2)))
        assert len(PointCloud(np.zeros(3))) == 1

    def test_sensor_pose_requires_finite_origin(self):
        with pytest.raises(ValueError):
            SensorPose((math.inf, 0, 0))


class TestSelect:
    PTS = np.arange(12.0).reshape(4, 3)

    @pytest.mark.parametrize("column", [False, True])
    def test_keeps_masked_rows_in_order_and_layout(self, column):
        xyz = np.ascontiguousarray(self.PTS.T).T if column else self.PTS
        out = PointCloud(xyz).select(np.array([True, False, True, True]))
        assert np.array_equal(out.xyz, self.PTS[[0, 2, 3]])
        assert out.xyz.flags.f_contiguous if column else out.xyz.flags.c_contiguous

    def test_short_mask_rejected(self):
        # np.compress would keep the rows the mask covers and drop the rest
        with pytest.raises(ValueError, match="boolean mask of shape"):
            PointCloud(self.PTS).select(np.array([True, True]))

    def test_long_mask_rejected(self):
        with pytest.raises(ValueError, match="boolean mask of shape"):
            PointCloud(self.PTS).select(np.ones(5, dtype=bool))

    @pytest.mark.parametrize("mask", [np.array([0, 2]), np.array([1, 0, 1, 1]),
                                      np.array([1.0, 0.0, 1.0, 1.0])])
    def test_non_boolean_mask_rejected(self, mask):
        # np.compress reads [0, 2] as truth values, keeping row 1 only
        with pytest.raises(ValueError, match="boolean mask of shape"):
            PointCloud(self.PTS).select(mask)

    def test_empty_selection_keeps_three_columns(self):
        out = PointCloud(self.PTS).select(np.zeros(4, dtype=bool))
        assert out.xyz.shape == (0, 3)

import numpy as np
import pytest

from multiscan.geometry import Pose, PointCloud, rotation_angle_between
from multiscan.trajectory import ContinuousTrajectory, ControlPose, deskew


def make_traj(times, positions, rotvecs=None):
    rotvecs = rotvecs if rotvecs is not None else [np.zeros(3)] * len(times)
    return ContinuousTrajectory(
        [ControlPose(t, Pose(r, p)) for t, p, r in zip(times, positions, rotvecs)]
    )


def wavy_traj(n=11, spacing=0.1):
    times = spacing * np.arange(n)
    positions = np.stack(
        [np.sin(1.3 * times), 0.4 * times, 0.2 * np.cos(2.0 * times)], axis=1
    )
    rotvecs = [np.array([0.0, 0.0, 0.25 * t]) for t in times]
    return make_traj(times, positions, rotvecs)


class TestValidation:
    def test_needs_two_poses(self):
        with pytest.raises(ValueError, match="at least 2"):
            ContinuousTrajectory([ControlPose(0.0, Pose.identity())])

    def test_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            make_traj([0.0, 0.0], np.zeros((2, 3)))

    def test_uniform_spacing(self):
        with pytest.raises(ValueError, match="uniform"):
            make_traj([0.0, 0.1, 0.35], np.zeros((3, 3)))

    def test_out_of_range_rejected(self):
        traj = wavy_traj()
        with pytest.raises(ValueError, match="outside"):
            traj.sample_pose(traj.t_last + 0.01)
        with pytest.raises(ValueError, match="outside"):
            traj.sample_velocity(traj.t_first - 0.01)


class TestSamplePose:
    def test_knot_reproduction_exact(self):
        traj = wavy_traj()
        for k, t in enumerate(traj.times):
            pose = traj.sample_pose(float(t))
            assert np.allclose(pose.trans, traj.positions[k], atol=1e-15)
            assert rotation_angle_between(pose.rotvec, traj.rotvecs[k]) < 1e-12

    def test_linear_data_midpoint(self):
        traj = make_traj([0.0, 1.0], np.array([[0.0, 0, 0], [1.0, 0, 0]]))
        assert np.allclose(traj.sample_pose(0.5).trans, [0.5, 0, 0], atol=1e-15)

    def test_orientation_slerp_midpoint(self):
        traj = make_traj(
            [0.0, 1.0],
            np.zeros((2, 3)),
            [np.zeros(3), np.array([0.0, 0.0, np.pi / 2])],
        )
        out = traj.sample_pose(0.5)
        assert np.allclose(out.rotvec, [0, 0, np.pi / 4], atol=1e-12)

    def test_constant_angular_speed_between_knots(self):
        traj = make_traj(
            [0.0, 1.0],
            np.zeros((2, 3)),
            [np.array([0.2, -0.1, 0.3]), np.array([-0.4, 0.5, 0.9])],
        )
        us = np.linspace(0.0, 1.0, 9)
        rots = [traj.sample_pose(float(u)).rotvec for u in us]
        increments = [rotation_angle_between(a, b) for a, b in zip(rots[:-1], rots[1:])]
        assert np.ptp(increments) < 1e-9

    def test_position_c1_at_interior_knots(self):
        traj = wavy_traj()
        eps = 1e-7
        for t in traj.times[1:-1]:
            left = (traj.sample_position(t) - traj.sample_position(t - eps)) / eps
            right = (traj.sample_position(t + eps) - traj.sample_position(t)) / eps
            assert np.allclose(left, right, atol=1e-5)


class TestSampleVelocity:
    def test_constant_velocity_reproduced(self):
        times = 0.1 * np.arange(6)
        positions = np.outer(times, [2.0, -1.0, 0.5])
        traj = make_traj(times, positions)
        for t in np.linspace(0.0, 0.5, 21):
            assert np.allclose(traj.sample_velocity(float(t)), [2.0, -1.0, 0.5], atol=1e-12)

    def test_matches_finite_difference(self):
        # compare inside segments: across a knot the second derivative jumps
        # and the central difference of a C1 spline is only O(h) accurate
        traj = wavy_traj()
        h = 5e-4
        for knot in traj.times[:-1]:
            t = float(knot) + 0.37 * traj.spacing
            fd = (traj.sample_position(t + h) - traj.sample_position(t - h))[0] / (2 * h)
            assert np.allclose(traj.sample_velocity(t), fd, atol=1e-6)

    def test_stationary_zero(self):
        traj = make_traj(0.1 * np.arange(4), np.tile([1.0, 2.0, 3.0], (4, 1)))
        assert np.allclose(traj.sample_velocity(0.17), 0.0, atol=1e-15)


class TestDeskew:
    def test_static_trajectory_identity(self):
        traj = make_traj(0.1 * np.arange(11), np.zeros((11, 3)))
        rng = np.random.default_rng(0)
        cloud = PointCloud(points=rng.normal(size=(50, 3)), stamps=np.sort(rng.uniform(0, 1.0, 50)))
        out, dropped = deskew(cloud, traj)
        assert dropped == 0
        assert np.allclose(out.points, cloud.points, atol=1e-12)

    def test_constant_velocity_line(self):
        times = 0.1 * np.arange(11)
        traj = make_traj(times, np.outer(times, [1.0, 0, 0]))
        stamps = np.linspace(0.0, 0.1, 21)
        cloud = PointCloud(points=np.zeros((21, 3)), stamps=stamps)
        out, dropped = deskew(cloud, traj)
        assert dropped == 0
        # nearest 1 ms sample quantizes positions to within 0.5 ms * 1 m/s
        assert np.all(np.abs(out.points[:, 0] - stamps) <= 5.1e-4)
        assert np.allclose(out.points[:, 1:], 0.0, atol=1e-12)

    def test_out_of_window_dropped(self):
        traj = make_traj(0.1 * np.arange(3), np.zeros((3, 3)))
        cloud = PointCloud(points=np.ones((3, 3)), stamps=np.array([0.05, 0.1, 0.5]))
        out, dropped = deskew(cloud, traj)
        assert dropped == 1
        assert len(out) == 2

    def test_rotates_normals(self):
        times = np.array([0.0, 0.1])
        traj = make_traj(times, np.zeros((2, 3)),
                         [np.array([0, 0, np.pi / 2]), np.array([0, 0, np.pi / 2])])
        cloud = PointCloud(
            points=np.array([[1.0, 0, 0]]),
            stamps=np.array([0.05]),
            normals=np.array([[1.0, 0, 0]]),
        )
        out, _ = deskew(cloud, traj)
        assert np.allclose(out.normals[0], [0, 1, 0], atol=1e-9)


class TestControlTimes:
    def test_uniform_grid_ends_at_t_end(self):
        times = 2.0 - 0.1 * np.arange(10, -1, -1)
        assert len(times) == 11
        assert times[-1] == pytest.approx(2.0)
        assert np.allclose(np.diff(times), 0.1)

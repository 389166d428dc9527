import numpy as np
import pytest

from multiscan.geometry import Pose
from multiscan.imu import imu_residual, preintegrate
from multiscan.synthetic import (
    GRAVITY,
    CircleMotion,
    LineMotion,
    RampProfile,
    StaticMotion,
    Wall,
    box_walls,
    corridor_scene,
    generate_synthetic,
    loop_scene,
    raycast,
    room_scene,
)


class TestRaycast:
    def test_single_wall_distance(self):
        wall = Wall((2.0, -1.0, -1.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0))
        origins = np.zeros((2, 3))
        dirs = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        out = raycast([wall], origins, dirs, max_range=10.0)
        assert out[0] == pytest.approx(2.0)
        assert np.isinf(out[1])

    def test_nearest_wall_wins(self):
        walls = box_walls(-1.0, 1.0, -2.0, 2.0, -1.0, 1.0)
        out = raycast(walls, np.zeros((1, 3)), np.array([[0.0, 1.0, 0.0]]), 10.0)
        assert out[0] == pytest.approx(2.0)

    def test_bounded_rectangle(self):
        wall = Wall((2.0, -0.5, -0.5), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        dirs = np.array([[1.0, 0.2, 0.0], [1.0, 0.6, 0.0]])
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        out = raycast([wall], np.zeros((2, 3)), dirs, 10.0)
        assert np.isfinite(out[0])
        assert np.isinf(out[1])  # exits past the wall edge


class TestMotionProfiles:
    def test_ramp_profile_is_c1(self):
        prof = RampProfile(rate=2.0, ramp_start=1.0, ramp_duration=2.0)
        ts = np.linspace(0.0, 5.0, 2001)
        vals = prof.value(ts)
        fd = np.gradient(vals, ts)
        assert np.allclose(fd, prof.derivative(ts), atol=5e-3)
        assert prof.derivative(0.5) == pytest.approx(0.0)
        assert prof.derivative(4.0) == pytest.approx(2.0)

    def test_ramp_total_distance(self):
        prof = RampProfile(rate=2.0, ramp_start=1.0, ramp_duration=2.0)
        # half the ramp plus the constant-rate tail
        assert prof.value(5.0) == pytest.approx(2.0 * (2.0 / 2.0) + 2.0 * 2.0)

    def test_line_motion_consistency(self):
        prof = RampProfile(rate=2.0, ramp_start=1.0, ramp_duration=2.0)
        motion = LineMotion((0, 0, 1), (1, 0, 0), prof)
        ts = np.array([0.0, 1.5, 2.0, 4.0])
        vel = motion.velocities(ts)
        assert np.allclose(vel[:, 0], prof.derivative(ts))
        assert np.allclose(vel[:, 1:], 0.0)
        assert np.allclose(motion.accelerations(ts)[:, 0], prof.second_derivative(ts))
        assert np.allclose(vel[[0, 3], 0], [0.0, 2.0])

    def test_circle_motion_kinematics(self):
        # the ramp ends before t = 0, so the speed is a constant 2 m/s
        constant = RampProfile(rate=2.0, ramp_start=-2.0, ramp_duration=1.0)
        motion = CircleMotion((0, 0, 0), radius=5.0, height=1.0, profile=constant)
        ts = np.linspace(0.0, 3.0, 50)
        pos = motion.positions(ts)
        assert np.allclose(np.linalg.norm(pos[:, :2], axis=1), 5.0)
        # centripetal magnitude v^2/r
        acc = motion.accelerations(ts)
        assert np.allclose(np.linalg.norm(acc, axis=1), 4.0 / 5.0, atol=1e-12)
        # finite-difference cross-check of velocity
        h = 1e-6
        v_fd = (motion.positions(ts + h) - motion.positions(ts - h)) / (2 * h)
        assert np.allclose(motion.velocities(ts), v_fd, atol=1e-6)


class TestGenerate:
    def test_static_zero_noise_identical_scans(self):
        spec = room_scene(duration=0.3, points_per_scan=400, noise_sigma=0.0, imu_rate=0)
        ds = generate_synthetic(spec, seed=0)
        assert len(ds.scans) == 3
        for scan in ds.scans[1:]:
            assert np.allclose(scan.points, ds.scans[0].points, atol=1e-12)

    def test_points_lie_on_walls_zero_noise(self):
        spec = corridor_scene(duration=1.0, noise_sigma=0.0)
        ds = generate_synthetic(spec, seed=0)
        scan = ds.scans[-1]
        # deskew with the exact ground truth: every point must sit on a wall
        from multiscan.trajectory import ContinuousTrajectory, deskew

        t_end = ds.truth_times[-1]
        times = np.arange(t_end - 0.1, t_end + 1e-9, 0.01)
        traj = ContinuousTrajectory(
            times, np.concatenate([spec.motion.pose(float(t)).as_params() for t in times])
        )
        world = deskew(scan, traj)
        assert np.array_equal(world.stamps, scan.stamps)
        walls = np.array([
            [0.0, 1.0, 0.0, -2.0],   # plane rows (n, d) with distance |n.p - d|
            [0.0, 1.0, 0.0, 2.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 3.0],
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 30.0],
        ])
        dist = np.abs(world.points @ walls[:, :3].T - walls[:, 3])
        nearest = dist.min(axis=1)
        assert np.quantile(nearest, 0.99) < 0.01

    def test_imu_consistent_with_truth(self):
        # preintegrating the generated IMU between scan ends must agree
        # with the ground-truth relative motion
        spec = loop_scene(duration=30.0, noise_sigma=0.0)
        ds = generate_synthetic(spec, seed=0)
        worst = 0.0
        for k in range(0, len(ds.truth_times) - 1, 10):
            t_i, t_j = ds.truth_times[k], ds.truth_times[k + 1]
            delta = preintegrate(ds.imu_samples, t_i, t_j)
            pose_i = spec.motion.pose(t_i)
            pose_j = spec.motion.pose(t_j)
            v_i = spec.motion.velocities(np.array([t_i]))[0]
            v_j = spec.motion.velocities(np.array([t_j]))[0]
            r = imu_residual(
                delta, pose_i.matrix(), pose_i.trans, v_i,
                pose_j.matrix(), pose_j.trans, v_j, GRAVITY,
            )
            worst = max(worst, float(np.linalg.norm(r)))
        assert worst < 1e-3

    def test_dynamic_fraction_tagged(self):
        spec = room_scene(duration=0.2, points_per_scan=1000, dynamic_fraction=0.15, imu_rate=0)
        ds = generate_synthetic(spec, seed=0)
        for mask, scan in zip(ds.dynamic_masks, ds.scans):
            frac = mask.sum() / len(scan)
            assert abs(frac - 0.15) < 0.01

    def test_scan_stamps_monotone(self):
        spec = room_scene(duration=0.2, points_per_scan=500, imu_rate=0, ray_pattern="scatter")
        ds = generate_synthetic(spec, seed=0)
        for scan in ds.scans:
            scan.validate()

    def test_empty_walls_rejected(self):
        spec = room_scene(duration=0.2, imu_rate=0)
        spec.walls = []
        with pytest.raises(ValueError, match="wall"):
            generate_synthetic(spec, seed=0)

    def test_static_motion_pose(self):
        motion = StaticMotion(Pose(np.zeros(3), np.array([1.0, 2, 3])))
        assert np.allclose(motion.pose(3.0).trans, [1, 2, 3])
        assert np.allclose(motion.velocities(np.array([0.5])), 0.0)

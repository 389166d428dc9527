import numpy as np
import pytest

from multiscan.geometry import Pose, matrix_to_rotvec, rotvec_to_matrix
from multiscan.imu import (
    GravityEstimate,
    ImuSample,
    compose_deltas,
    estimate_gravity,
    imu_residual,
    preintegrate,
    stack_deltas,
    static_initialization,
)
from multiscan.trajectory import ContinuousTrajectory, ControlPose

GRAVITY = np.array([0.0, 0.0, -9.81])


def stream(times, gyro, accel):
    gyro = np.broadcast_to(np.asarray(gyro, dtype=float), (len(times), 3))
    accel = np.broadcast_to(np.asarray(accel, dtype=float), (len(times), 3))
    return [ImuSample(float(t), g.copy(), a.copy()) for t, g, a in zip(times, gyro, accel)]


class TestPreintegrate:
    def test_zero_input_is_identity(self):
        samples = stream(np.linspace(0, 1, 101), [0, 0, 0], [0, 0, 0])
        delta = preintegrate(samples, 0.0, 1.0)
        assert np.allclose(delta.delta_rot, np.eye(3))
        assert np.allclose(delta.delta_vel, 0.0)
        assert np.allclose(delta.delta_pos, 0.0)
        assert delta.dt == pytest.approx(1.0)

    def test_constant_acceleration_closed_form(self):
        samples = stream(np.arange(0, 1.0005, 1e-3), [0, 0, 0], [1.0, 0, 0])
        delta = preintegrate(samples, 0.0, 1.0)
        assert np.allclose(delta.delta_vel, [1.0, 0, 0], atol=1e-3)
        assert np.allclose(delta.delta_pos, [0.5, 0, 0], atol=1e-3)

    def test_constant_rotation_closed_form(self):
        samples = stream(np.arange(0, 1.0005, 1e-3), [0, 0, np.pi / 2], [0, 0, 0])
        delta = preintegrate(samples, 0.0, 1.0)
        expected = rotvec_to_matrix(np.array([0, 0, np.pi / 2]))
        assert np.linalg.norm(matrix_to_rotvec(delta.delta_rot.T @ expected)) < 1e-6

    def test_bias_correction(self):
        bias_g = np.array([0.01, -0.02, 0.005])
        bias_a = np.array([0.1, 0.0, -0.05])
        samples = stream(np.arange(0, 1.0005, 1e-3), bias_g, bias_a)
        delta = preintegrate(samples, 0.0, 1.0, gyro_bias=bias_g, accel_bias=bias_a)
        assert np.allclose(delta.delta_rot, np.eye(3), atol=1e-12)
        assert np.allclose(delta.delta_vel, 0.0, atol=1e-12)

    def test_concatenation_composition(self):
        rng = np.random.default_rng(0)
        times = np.arange(0, 0.6001, 1e-3)
        gyro = 0.4 * np.sin(3 * times)[:, None] * [1.0, -0.5, 0.8]
        accel = np.cos(2 * times)[:, None] * [0.5, 1.0, -0.3] + [0, 0, 9.81]
        samples = [ImuSample(float(t), g, a) for t, g, a in zip(times, gyro, accel)]
        whole = preintegrate(samples, 0.0, 0.6)
        first = preintegrate(samples, 0.0, 0.25)
        second = preintegrate(samples, 0.25, 0.6)
        chained = compose_deltas(first, second)
        assert np.linalg.norm(matrix_to_rotvec(whole.delta_rot.T @ chained.delta_rot)) < 1e-6
        assert np.allclose(chained.delta_vel, whole.delta_vel, atol=1e-6)
        assert np.allclose(chained.delta_pos, whole.delta_pos, atol=1e-6)

    def test_empty_interval_raises(self):
        samples = stream([0.0, 0.1], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError, match="empty"):
            preintegrate(samples, 0.5, 0.5)

    def test_no_overlap_raises(self):
        samples = stream([0.0, 0.1], [0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError, match="overlap"):
            preintegrate(samples, 5.0, 6.0)


def pose_residual(delta, pose_i, pose_j, v_i, v_j):
    return imu_residual(
        delta, pose_i.matrix(), pose_i.trans, v_i, pose_j.matrix(), pose_j.trans, v_j, GRAVITY
    )


class TestImuResidual:
    def test_static_with_gravity_zero(self):
        samples = stream(np.arange(0, 0.1005, 5e-3), [0, 0, 0], [0, 0, 9.81])
        delta = preintegrate(samples, 0.0, 0.1)
        r = pose_residual(delta, Pose.identity(), Pose.identity(), np.zeros(3), np.zeros(3))
        assert r.shape == (9,)
        assert np.allclose(r, 0.0, atol=1e-9)

    def test_constant_acceleration_consistent_states(self):
        a_world = np.array([1.0, 0, 0])
        samples = stream(np.arange(0, 0.2005, 1e-3), [0, 0, 0], a_world - GRAVITY)
        dt = 0.2
        delta = preintegrate(samples, 0.0, dt)
        pose_i = Pose.identity()
        pose_j = Pose(np.zeros(3), 0.5 * a_world * dt * dt)
        r = pose_residual(delta, pose_i, pose_j, np.zeros(3), a_world * dt)
        assert np.linalg.norm(r) < 1e-9

    def test_translation_offset_maps_to_position_residual(self):
        samples = stream(np.arange(0, 0.1005, 5e-3), [0, 0, 0], [0, 0, 9.81])
        delta = preintegrate(samples, 0.0, 0.1)
        rot_i = np.array([0.0, 0.0, 0.7])
        pose_i = Pose(rot_i, np.array([1.0, 2.0, 3.0]))
        pose_j = Pose(rot_i, pose_i.trans + [0.1, 0, 0])
        r = pose_residual(delta, pose_i, pose_j, np.zeros(3), np.zeros(3))
        expected = rotvec_to_matrix(rot_i).T @ np.array([0.1, 0, 0])
        assert np.allclose(r[6:], expected, atol=1e-9)
        assert np.allclose(r[:6], 0.0, atol=1e-9)

    def test_stack_equals_single_calls(self):
        # V state sequences against S stacked segment deltas in one call
        rng = np.random.default_rng(4)
        times = np.arange(0, 0.6001, 5e-3)
        gyro = 0.5 * np.sin(4 * times)[:, None] * [1.0, -0.7, 0.4]
        accel = np.cos(3 * times)[:, None] * [0.8, 0.3, -0.5] + [0, 0, 9.81]
        samples = [ImuSample(float(t), g, a) for t, g, a in zip(times, gyro, accel)]
        bounds = np.linspace(0.0, 0.6, 5)
        deltas = [preintegrate(samples, t0, t1) for t0, t1 in zip(bounds[:-1], bounds[1:])]
        n_var, n_seg = 3, len(deltas)
        rots = np.array([
            rotvec_to_matrix(rng.normal(scale=1.0, size=3)) for _ in range(n_var * (n_seg + 1))
        ]).reshape(n_var, n_seg + 1, 3, 3)
        rots[0, 1] = -np.eye(3) + 2.0 * np.outer([0, 0, 1.0], [0, 0, 1.0])  # pi about z
        pos = rng.normal(size=(n_var, n_seg + 1, 3))
        vel = rng.normal(size=(n_var, n_seg + 1, 3))
        r = imu_residual(
            stack_deltas(deltas), rots[:, :-1], pos[:, :-1], vel[:, :-1],
            rots[:, 1:], pos[:, 1:], vel[:, 1:], GRAVITY,
        )
        assert r.shape == (n_var, n_seg, 9)
        for v in range(n_var):
            for s, delta in enumerate(deltas):
                single = imu_residual(
                    delta, rots[v, s], pos[v, s], vel[v, s],
                    rots[v, s + 1], pos[v, s + 1], vel[v, s + 1], GRAVITY,
                )
                assert np.array_equal(r[v, s], single)


def static_traj(rotvec=None, duration=1.0, spacing=0.1):
    rotvec = np.zeros(3) if rotvec is None else rotvec
    times = np.arange(0.0, duration + 1e-9, spacing)
    return ContinuousTrajectory([ControlPose(float(t), Pose(rotvec, np.zeros(3))) for t in times])


class TestEstimateGravity:
    def test_static_level_sensor(self):
        traj = static_traj()
        samples = stream(np.arange(0, 1.0, 5e-3), [0, 0, 0], [0, 0, 9.81])
        est = estimate_gravity(traj, samples)
        assert np.allclose(est.direction, [0, 0, 1], atol=1e-9)
        assert est.weight == pytest.approx(1.0)

    def test_static_rotated_sensor(self):
        rot = np.array([np.pi / 2, 0, 0])
        traj = static_traj(rotvec=rot)
        body_up = rotvec_to_matrix(rot).T @ np.array([0, 0, 9.81])
        samples = stream(np.arange(0, 1.0, 5e-3), [0, 0, 0], body_up)
        est = estimate_gravity(traj, samples)
        assert np.allclose(est.direction, [0, 1, 0], atol=1e-9)

    def test_accelerating_sensor_motion_removed(self):
        # constant world acceleration along x; spline built from the truth
        a_world = np.array([1.0, 0, 0])
        times = np.arange(0.0, 1.0 + 1e-9, 0.1)
        traj = ContinuousTrajectory(
            [ControlPose(float(t), Pose(np.zeros(3), 0.5 * a_world * t * t)) for t in times]
        )
        samples = stream(np.arange(0, 1.0, 5e-3), [0, 0, 0], a_world - GRAVITY)
        est = estimate_gravity(traj, samples)
        angle = np.rad2deg(np.arccos(np.clip(est.direction @ [0, 0, 1.0], -1, 1)))
        assert angle < 1.0

    def test_weight_shrinks_with_rotation_rate(self):
        traj = static_traj()
        still = estimate_gravity(traj, stream(np.arange(0, 1.0, 5e-3), [0, 0, 0], [0, 0, 9.81]))
        spinning = estimate_gravity(
            traj, stream(np.arange(0, 1.0, 5e-3), [0, 0, 2.0], [0, 0, 9.81])
        )
        assert spinning.weight < still.weight

    def test_near_zero_mean_gives_zero_confidence(self):
        traj = static_traj()
        est = estimate_gravity(traj, stream(np.arange(0, 1.0, 5e-3), [0, 0, 0], [0, 0, 0.01]))
        assert est.weight == 0.0

    def test_short_overlap_raises(self):
        traj = static_traj()
        samples = stream([0.4, 0.45, 0.5], [0, 0, 0], [0, 0, 9.81])
        with pytest.raises(ValueError, match="overlap"):
            estimate_gravity(traj, samples)


class TestStaticInitialization:
    def test_recovers_bias_and_direction(self):
        rng = np.random.default_rng(1)
        bias = np.array([0.01, -0.005, 0.002])
        times = np.arange(0, 0.5, 5e-3)
        gyro = bias + rng.normal(0, 1e-4, size=(len(times), 3))
        accel = np.array([0, 0, 9.81]) + rng.normal(0, 1e-3, size=(len(times), 3))
        samples = [ImuSample(float(t), g, a) for t, g, a in zip(times, gyro, accel)]
        gyro_bias, up, mag = static_initialization(samples)
        assert np.allclose(gyro_bias, bias, atol=1e-4)
        assert np.allclose(up, [0, 0, 1], atol=1e-3)
        assert mag == pytest.approx(9.81, abs=1e-2)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            static_initialization([])

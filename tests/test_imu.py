import numpy as np
import pytest

from multiscan.geometry import Pose, matrix_to_rotvec, rotvec_to_matrix
from multiscan.imu import (
    ImuStream,
    PreintegratedDelta,
    estimate_gravity,
    imu_jacobian,
    imu_residual,
    preintegrate,
    static_initialization,
)
from multiscan.trajectory import ContinuousTrajectory

GRAVITY = np.array([0.0, 0.0, -9.81])


def stream(times, gyro, accel):
    """A stream of the stamps with gyro and accel broadcast to (N, 3)."""
    shape = (len(times), 3)
    return ImuStream(times, np.broadcast_to(gyro, shape), np.broadcast_to(accel, shape))


class TestImuStream:
    def test_empty_by_default(self):
        empty = ImuStream()
        assert len(empty) == 0
        assert empty.gyro.shape == empty.accel.shape == (0, 3)

    @pytest.mark.parametrize("field, row, value", [
        ("times", 2, np.nan),
        ("gyro", 1, np.inf),
        ("accel", 3, -np.inf),
    ])
    def test_rejects_non_finite_values(self, field, row, value):
        arrays = {"times": np.arange(5) * 0.01, "gyro": np.zeros((5, 3)), "accel": np.ones((5, 3))}
        arrays[field][row] = value
        with pytest.raises(ValueError, match="non-finite"):
            ImuStream(**arrays)

    @pytest.mark.parametrize("times", [[0.0, 0.01, 0.01, 0.02], [0.0, 0.02, 0.01, 0.03]])
    def test_rejects_repeated_or_decreasing_times(self, times):
        with pytest.raises(ValueError, match="increasing"):
            stream(times, [0, 0, 0], [0, 0, 9.81])

    @pytest.mark.parametrize("times, gyro, accel", [
        (np.zeros(0), np.zeros((1, 3)), np.zeros((0, 3))),  # a gyro row too many
        (np.arange(2.0), np.zeros((2, 3)), np.zeros((2, 2))),  # accel rows of 2
        (np.arange(2.0)[:, None], np.zeros((2, 3)), np.zeros((2, 3))),  # times (N, 1)
        (0.0, np.zeros(3), np.zeros(3)),  # one sample without its axis
    ])
    def test_rejects_mismatched_shapes(self, times, gyro, accel):
        with pytest.raises(ValueError, match="shapes"):
            ImuStream(times, gyro, accel)

    def test_arrays_are_read_only(self):
        times = np.arange(3) * 0.01
        imu = stream(times, [0, 0, 0], [0, 0, 9.81])
        with pytest.raises(ValueError, match="read-only"):
            imu.times[0] = np.nan
        assert times.flags.writeable  # the caller's array keeps its flags

    def test_between_is_inclusive_at_both_ends(self):
        imu = stream(np.arange(10) * 0.1, [0, 0, 0], [0, 0, 9.81])
        inside = imu.between(imu.times[2], imu.times[5])
        assert np.array_equal(inside.times, imu.times[2:6])
        assert np.array_equal(imu.between(0.15, 0.45).times, imu.times[2:5])
        assert len(imu.between(0.41, 0.49)) == 0
        assert np.array_equal(imu.between(-np.inf, np.inf).times, imu.times)

    def test_concatenate_needs_a_later_start(self):
        gyro = np.arange(30.0).reshape(10, 3)
        imu = ImuStream(np.arange(10) * 0.1, gyro, gyro + 1.0)
        first, second = imu.between(0.0, 0.45), imu.between(0.5, 1.0)
        joined = first.concatenate(second)
        for name in ("times", "gyro", "accel"):
            assert np.array_equal(getattr(joined, name), getattr(imu, name))
        assert len(first.concatenate(ImuStream())) == len(ImuStream().concatenate(first)) == 5
        for overlapping in (imu.between(0.4, 1.0), imu.between(0.2, 0.3)):
            with pytest.raises(ValueError, match="increasing"):
                first.concatenate(overlapping)
        assert np.array_equal(first.times, imu.times[:5])


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
        samples = ImuStream(times, gyro, accel)
        whole = preintegrate(samples, 0.0, 0.6)
        first = preintegrate(samples, 0.0, 0.25)
        second = preintegrate(samples, 0.25, 0.6)

        def advance(delta, rot, pos, vel):
            # the state at the end of delta whose imu_residual is zero
            dt = delta.dt
            return (
                rot @ delta.delta_rot,
                pos + vel * dt + 0.5 * GRAVITY * dt * dt + rot @ delta.delta_pos,
                vel + GRAVITY * dt + rot @ delta.delta_vel,
            )

        start = (rotvec_to_matrix(rng.normal(size=3)), rng.normal(size=3), rng.normal(size=3))
        middle = advance(first, *start)
        end = advance(second, *middle)
        assert np.allclose(imu_residual(first, *start, *middle, GRAVITY), 0.0, atol=1e-12)
        # chaining the two halves' states satisfies the whole interval's delta
        r = imu_residual(whole, *start, *end, GRAVITY)
        assert np.linalg.norm(r[:3]) < 1e-6
        assert np.allclose(r[3:], 0.0, atol=1e-6)

    def test_batch_equals_scalar_calls(self):
        # S intervals in one call, each entry bit for bit its own scalar call,
        # with both biases: 4, 39 and 50 samples inside, none inside (one
        # ending short of the next sample, one from a sample to the next),
        # and one starting before the first sample
        rng = np.random.default_rng(5)
        times = np.cumsum(rng.uniform(4e-3, 6e-3, 200))
        gyro = rng.normal(scale=0.5, size=(200, 3))
        accel = rng.normal(size=(200, 3)) + [0, 0, 9.81]
        samples = ImuStream(times, gyro, accel)
        starts = times[[0, 10, 50, 100, 20]] + [-0.02, 1e-4, 1e-3, 0.0, 0.0]
        ends = times[[3, 10, 90, 150, 21]] + [2e-3, 3e-3, 0.0, 1e-3, 0.0]
        biases = {"gyro_bias": [0.01, -0.02, 0.03], "accel_bias": [0.1, 0.0, -0.2]}
        batch = preintegrate(samples, starts, ends, **biases)
        assert batch.dt.shape == (5,) and batch.delta_rot.shape == (5, 3, 3)
        assert batch.delta_vel.shape == batch.delta_pos.shape == (5, 3)
        for s, (t0, t1) in enumerate(zip(starts, ends)):
            single = preintegrate(samples, t0, t1, **biases)
            for name in ("dt", "delta_rot", "delta_vel", "delta_pos"):
                assert np.array_equal(getattr(batch, name)[s], getattr(single, name))
        # the early start takes the first sample's values: as if that sample
        # were repeated at the start
        early = ImuStream(np.r_[starts[0], times], np.vstack([gyro[:1], gyro]),
                          np.vstack([accel[:1], accel]))
        clamped = preintegrate(early, starts[0], ends[0], **biases)
        for name in ("delta_rot", "delta_vel", "delta_pos"):
            assert np.array_equal(getattr(batch, name)[0], getattr(clamped, name))

    def test_zero_intervals_read_no_sample(self):
        # an empty batch, whatever the stream, and residuals and Jacobians
        # of no segment
        delta = preintegrate(ImuStream(), np.zeros(0), np.zeros(0))
        assert delta.dt.shape == (0,) and delta.delta_rot.shape == (0, 3, 3)
        assert delta.delta_vel.shape == delta.delta_pos.shape == (0, 3)
        states = (np.zeros((0, 3, 3)), np.zeros((0, 3)), np.zeros((0, 3))) * 2
        assert imu_residual(delta, *states, GRAVITY).shape == (0, 9)
        assert imu_jacobian(delta, *states, GRAVITY).shape == (0, 9, 18)

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
        samples = ImuStream(times, gyro, accel)
        bounds = np.linspace(0.0, 0.6, 5)
        stacked = preintegrate(samples, bounds[:-1], bounds[1:])
        deltas = [preintegrate(samples, t0, t1) for t0, t1 in zip(bounds[:-1], bounds[1:])]
        n_var, n_seg = 3, len(deltas)
        rots = np.array([
            rotvec_to_matrix(rng.normal(scale=1.0, size=3)) for _ in range(n_var * (n_seg + 1))
        ]).reshape(n_var, n_seg + 1, 3, 3)
        rots[0, 1] = -np.eye(3) + 2.0 * np.outer([0, 0, 1.0], [0, 0, 1.0])  # pi about z
        pos = rng.normal(size=(n_var, n_seg + 1, 3))
        vel = rng.normal(size=(n_var, n_seg + 1, 3))
        r = imu_residual(
            stacked, rots[:, :-1], pos[:, :-1], vel[:, :-1],
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


def secant_jacobian(delta, state_i, state_j, h=1e-6):
    """Central secants of imu_residual, one column per turn Exp(w) R of a
    rotation and per position and velocity axis, in imu_jacobian's order."""
    columns = []
    for side in range(2):
        for part in range(3):
            for axis in range(3):
                moved = []
                for step in (h, -h):
                    states = [list(state_i), list(state_j)]
                    d = step * np.eye(3)[axis]
                    if part == 0:
                        states[side][0] = rotvec_to_matrix(d) @ states[side][0]
                    else:
                        states[side][part] = states[side][part] + d
                    moved.append(imu_residual(delta, *states[0], *states[1], GRAVITY))
                columns.append((moved[0] - moved[1]) / (2 * h))
    return np.stack(columns, axis=1)


class TestImuJacobian:
    @pytest.mark.parametrize("relative_angle, consistent", [
        (0.3, False), (2.5, False), (0.3, True),
    ])
    def test_matches_secants(self, relative_angle, consistent):
        # a generic mismatch, a 2.5 rad turn between the two states, and
        # state j integrated from state i so that the residual is near zero
        rng = np.random.default_rng(5)
        dt = 0.1
        delta = PreintegratedDelta(
            dt=dt, delta_rot=rotvec_to_matrix(0.05 * rng.normal(size=3)),
            delta_vel=rng.normal(size=3), delta_pos=0.1 * rng.normal(size=3),
        )
        axis = rng.normal(size=3)
        rot_i, pos_i, vel_i = rotvec_to_matrix(rng.normal(size=3)), rng.normal(size=3), rng.normal(size=3)
        if consistent:
            rot_j = rot_i @ delta.delta_rot
            vel_j = vel_i + GRAVITY * dt + rot_i @ delta.delta_vel
            pos_j = pos_i + vel_i * dt + 0.5 * GRAVITY * dt * dt + rot_i @ delta.delta_pos
        else:
            rot_j = rot_i @ rotvec_to_matrix(relative_angle * axis / np.linalg.norm(axis))
            pos_j, vel_j = rng.normal(size=3), rng.normal(size=3)
        state_i, state_j = (rot_i, pos_i, vel_i), (rot_j, pos_j, vel_j)
        r = imu_residual(delta, *state_i, *state_j, GRAVITY)
        if consistent:
            assert np.abs(r).max() < 1e-12
        else:
            assert np.linalg.norm(r[:3]) == pytest.approx(relative_angle, abs=0.2)
        jac = imu_jacobian(delta, *state_i, *state_j, GRAVITY)
        secant = secant_jacobian(delta, state_i, state_j)
        assert jac.shape == (9, 18)
        assert np.abs(jac - secant).max() <= 1e-7 * np.abs(secant).max()
        assert np.all(jac[secant == 0.0] == 0.0)


def static_traj(rotvec=None, duration=1.0, spacing=0.1):
    rotvec = np.zeros(3) if rotvec is None else rotvec
    times = np.arange(0.0, duration + 1e-9, spacing)
    return ContinuousTrajectory(times, np.tile(Pose(rotvec, np.zeros(3)).as_params(), len(times)))


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
            times, np.concatenate([Pose(np.zeros(3), 0.5 * a_world * t * t).as_params() for t in times])
        )
        samples = stream(np.arange(0, 1.0, 5e-3), [0, 0, 0], a_world - GRAVITY)
        est = estimate_gravity(traj, samples)
        angle = np.rad2deg(np.arccos(np.clip(est.direction @ [0, 0, 1.0], -1, 1)))
        assert angle < 1.0

    def test_rolling_sensor_gives_the_last_frames_up(self):
        # under pure gravity every reading of a sensor rolling 0.3 rad over
        # the span agrees in the world frame; the estimate is the up
        # direction of the frame at t_last, not of an average body frame
        roll = np.array([0.3, 0.0, 0.0])
        times = np.arange(0.0, 1.0 + 1e-9, 0.1)
        traj = ContinuousTrajectory(
            times, np.concatenate([Pose(roll * t, np.zeros(3)).as_params() for t in times])
        )
        t_imu = np.arange(0.0, 1.0, 5e-3)
        accel = np.einsum("nji,j->ni", traj.sample_rotations(t_imu), -GRAVITY)
        samples = stream(t_imu, roll, accel)
        est = estimate_gravity(traj, samples)
        last_up = rotvec_to_matrix(roll).T @ [0.0, 0.0, 1.0]
        assert np.allclose(est.direction, last_up, rtol=0.0, atol=1e-6)

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

    def test_short_overlap_gives_zero_weight(self):
        # under 0.2 s of readings inside the span, none inside it, or none
        # at all: no estimate, the same as a weak mean
        traj = static_traj()
        for times in ([0.4, 0.45, 0.5], [1.5, 1.6, 1.7], []):
            est = estimate_gravity(traj, stream(times, [0, 0, 0], [0, 0, 9.81]))
            assert est.weight == 0.0
            assert np.array_equal(est.direction, [0.0, 0.0, 1.0])

    def test_truth_spline_with_samples_on_knots(self):
        # the motion is the spline itself; at a knot its acceleration jumps,
        # and a reading there senses the segment the knot starts (the last
        # knot the segment it ends), which the spline's closed-form second
        # derivative also takes
        times = np.arange(0.0, 1.0 + 1e-9, 0.1)
        positions = np.stack([np.sin(3.0 * times), 0.4 * times, 0.2 * np.cos(5.0 * times)], axis=1)
        rotvecs = np.outer(times, [0.3, -0.2, 0.4])
        traj = ContinuousTrajectory(times, np.hstack([rotvecs, positions]).ravel())
        fractions = np.array([0.0, 0.25, 0.5, 0.75])
        t_imu = np.append((times[:-1, None] + 0.1 * fractions).ravel(), times[-1])
        assert np.isin(times, t_imu).all()
        # each segment's acceleration by a three-point difference of its
        # velocity, on the side of the knot whose segment the stamp takes
        h = 1e-5
        side = np.where(t_imu < times[-1], 1.0, -1.0)[:, None]
        vel = [traj.sample_position(t_imu + side[:, 0] * k * h, 1) for k in range(3)]
        accel_world = side * (-3.0 * vel[0] + 4.0 * vel[1] - vel[2]) / (2.0 * h)
        rots = traj.sample_rotations(t_imu)
        accel = np.einsum("nji,nj->ni", rots, accel_world - GRAVITY)
        samples = stream(t_imu, np.zeros(3), accel)
        est = estimate_gravity(traj, samples)
        last_up = traj.sample_rotations(times[-1])[0].T @ [0.0, 0.0, 1.0]
        assert np.allclose(est.direction, last_up, rtol=0.0, atol=1e-9)


class TestStaticInitialization:
    def test_recovers_bias_and_direction(self):
        rng = np.random.default_rng(1)
        bias = np.array([0.01, -0.005, 0.002])
        times = np.arange(0, 0.5, 5e-3)
        gyro = bias + rng.normal(0, 1e-4, size=(len(times), 3))
        accel = np.array([0, 0, 9.81]) + rng.normal(0, 1e-3, size=(len(times), 3))
        samples = ImuStream(times, gyro, accel)
        gyro_bias, up, mag = static_initialization(samples)
        assert np.allclose(gyro_bias, bias, atol=1e-4)
        assert np.allclose(up, [0, 0, 1], atol=1e-3)
        assert mag == pytest.approx(9.81, abs=1e-2)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            static_initialization(ImuStream())

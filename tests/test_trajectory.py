import numpy as np
import pytest

from multiscan.geometry import (
    PointCloud, left_jacobian, matrix_to_rotvec, rotvec_to_matrix, rotvec_to_quat,
)
from multiscan.trajectory import (
    ContinuousTrajectory,
    deskew,
    hermite_positions,
    rotation_chain,
    slerp_rotation_matrices,
    slerp_turns,
    spline_table,
)


def spline_rotations(times, rotvecs, t_eval):
    """Spline rotations at t_eval of control rotation vectors at unit-spaced times."""
    return slerp_rotation_matrices(*rotation_chain(rotvecs), spline_table(times, 1.0, t_eval))


def rotation_angle_between(ra, rb):
    """Geodesic angle (radians) between two rotation vectors."""
    return float(np.linalg.norm(matrix_to_rotvec(rotvec_to_matrix(ra).T @ rotvec_to_matrix(rb))))


def make_traj(times, positions, rotvecs=None):
    rotvecs = rotvecs if rotvecs is not None else np.zeros((len(times), 3))
    return ContinuousTrajectory(times, np.hstack([rotvecs, positions]).ravel())


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
            ContinuousTrajectory([0.0], np.zeros(6))

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
            traj.sample_position(traj.t_first - 0.01, 1)


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
            assert np.allclose(traj.sample_position(float(t), 1), [2.0, -1.0, 0.5], atol=1e-12)

    def test_matches_finite_difference(self):
        # compare inside segments: across a knot the second derivative jumps
        # and the central difference of a C1 spline is only O(h) accurate
        traj = wavy_traj()
        h = 5e-4
        for knot in traj.times[:-1]:
            t = float(knot) + 0.37 * traj.spacing
            fd = (traj.sample_position(t + h) - traj.sample_position(t - h)) / (2 * h)
            assert np.allclose(traj.sample_position(t, 1), fd, atol=1e-6)

    def test_stationary_zero(self):
        traj = make_traj(0.1 * np.arange(4), np.tile([1.0, 2.0, 3.0], (4, 1)))
        assert np.allclose(traj.sample_position(0.17, 1), 0.0, atol=1e-15)


class TestHermiteDerivatives:
    def test_quadratic_path_exact_on_interior_segments(self):
        # centered tangents are exact on a quadratic, so every segment whose
        # two tangents are centered reproduces it; the one-sided end
        # tangents make the first and last segments deviate
        times = 0.1 * np.arange(8)
        p0, v0, a = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.0, -1.2]), np.array([2.0, -0.5, 1.0])
        traj = make_traj(times, p0 + np.outer(times, v0) + 0.5 * np.outer(times * times, a))
        # times[-2] itself starts the last segment
        inner = np.linspace(times[1], times[-2], 101)[:-1]
        assert np.allclose(traj.sample_position(inner, 2), a, rtol=0.0, atol=1e-10)
        assert np.allclose(traj.sample_position(inner, 1), v0 + np.outer(inner, a), rtol=0.0, atol=1e-12)
        ends = np.array([0.5 * times[1], 0.5 * (times[-2] + times[-1])])
        assert np.all(np.abs(traj.sample_position(ends, 2) - a).max(axis=1) > 0.1)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_order_is_the_derivative_of_the_order_below(self, order):
        # inside segments, with leading batch axes
        rng = np.random.default_rng(order)
        spacing = 0.1
        times = spacing * np.arange(7)
        positions = rng.normal(size=(2, 4, 7, 3))
        t_eval = times[:-1] + spacing * rng.uniform(0.1, 0.9, size=6)
        h = 1e-6
        value = hermite_positions(positions, spline_table(times, spacing, t_eval, order))
        below = [hermite_positions(positions, spline_table(times, spacing, t_eval + dt, order - 1))
                 for dt in (h, -h)]
        assert value.shape == (2, 4, 6, 3)
        assert np.allclose(value, (below[0] - below[1]) / (2 * h), rtol=1e-6, atol=1e-4)

    def test_knot_takes_the_segment_it_starts(self):
        traj = wavy_traj()
        h = 1e-7
        for k, t in enumerate(traj.times):
            side = h if k < len(traj.times) - 1 else -h
            near = traj.sample_position(float(t) + side, 2)
            assert np.allclose(traj.sample_position(float(t), 2), near, rtol=0.0, atol=1e-4)


class TestDeskew:
    def test_static_trajectory_identity(self):
        traj = make_traj(0.1 * np.arange(11), np.zeros((11, 3)))
        rng = np.random.default_rng(0)
        cloud = PointCloud(points=rng.normal(size=(50, 3)), stamps=np.sort(rng.uniform(0, 1.0, 50)))
        out = deskew(cloud, traj)
        assert np.array_equal(out.stamps, cloud.stamps)
        assert np.allclose(out.points, cloud.points, atol=1e-12)

    def test_constant_velocity_line(self):
        times = 0.1 * np.arange(11)
        traj = make_traj(times, np.outer(times, [1.0, 0, 0]))
        stamps = np.sort(np.random.default_rng(0).uniform(0.0, 0.1, 21))
        cloud = PointCloud(points=np.zeros((21, 3)), stamps=stamps)
        out = deskew(cloud, traj)
        assert np.array_equal(out.stamps, stamps)
        # each point moves by the pose at its own stamp
        assert np.all(np.abs(out.points[:, 0] - stamps) <= 1e-12)
        assert np.allclose(out.points[:, 1:], 0.0, atol=1e-12)

    def test_out_of_window_dropped(self):
        traj = make_traj(0.1 * np.arange(3), np.zeros((3, 3)))
        cloud = PointCloud(points=np.ones((3, 3)), stamps=np.array([0.05, 0.1, 0.5]))
        out = deskew(cloud, traj)
        assert len(out) == 2
        assert np.array_equal(out.stamps, [0.05, 0.1])


class TestControlTimes:
    def test_uniform_grid_ends_at_t_end(self):
        times = 2.0 - 0.1 * np.arange(10, -1, -1)
        assert len(times) == 11
        assert times[-1] == pytest.approx(2.0)
        assert np.allclose(np.diff(times), 0.1)


def turn_columns_by_secant(times, rotvecs, t_eval, h=1e-6):
    """World-frame turn per unit change of each rotation parameter, (M, 3, K, 3),
    from central differences of slerp_rotation_matrices."""
    rots = spline_rotations(times, rotvecs, t_eval)
    out = np.zeros((len(t_eval), 3, len(times), 3))
    for k in range(len(times)):
        for i in range(3):
            plus, minus = rotvecs.copy(), rotvecs.copy()
            plus[k, i] += h
            minus[k, i] -= h
            d_rot = (
                spline_rotations(times, plus, t_eval) - spline_rotations(times, minus, t_eval)
            ) / (2 * h)
            turn = d_rot @ np.swapaxes(rots, 1, 2)  # [w]x
            out[:, :, k, i] = np.stack([turn[:, 2, 1], turn[:, 0, 2], turn[:, 1, 0]], axis=1)
    return out


def then(ra, rotvec):
    """Rotation vector of Exp(ra) Exp(rotvec)."""
    return matrix_to_rotvec(rotvec_to_matrix(ra) @ rotvec_to_matrix(rotvec))


class TestSlerpTurns:
    # two segments over control times 0, 1, 2; u = 0 at t = 0 and t = 1, u = 1 at t = 2
    TIMES = np.array([0.0, 1.0, 2.0])
    T_EVAL = np.array([0.0, 0.3, 0.99, 1.0, 1.5, 2.0])

    def turns(self, rotvecs):
        """Spline rotations at T_EVAL, and the matrices (I - A) J_l(r_a) and
        A J_l(r_b) that multiply dr_a and dr_b, A from slerp_turns."""
        table = spline_table(self.TIMES, 1.0, self.T_EVAL)
        mats, phi = rotation_chain(rotvecs)
        rots = slerp_rotation_matrices(mats, phi, table)
        lever = slerp_turns(mats, phi, table)
        jac = left_jacobian(rotvecs)
        return rots, jac[table.seg] - lever @ jac[table.seg], lever @ jac[table.seg + 1]

    def assert_matches_secant(self, rotvecs):
        _, turn_a, turn_b = self.turns(rotvecs)
        closed = np.zeros((len(self.T_EVAL), 3, len(self.TIMES), 3))
        seg = spline_table(self.TIMES, 1.0, self.T_EVAL).seg
        m = np.arange(len(self.T_EVAL))
        closed[m, :, seg] = turn_a
        closed[m, :, seg + 1] = turn_b
        secant = turn_columns_by_secant(self.TIMES, rotvecs, self.T_EVAL)
        assert np.abs(closed - secant).max() <= 1e-6 * np.abs(closed).max()

    def test_generic_and_near_identity_segments(self):
        rng = np.random.default_rng(30)
        r0 = rng.normal(size=3)
        r1 = then(r0, 0.8 * rng.normal(size=3))
        self.assert_matches_secant(np.stack([r0, r1, then(r1, np.full(3, 1e-9))]))

    def test_sign_flip_and_long_segments(self):
        # a quaternion dot below zero (slerp flips qb) and a 2.5 rad segment
        z = np.array([0.0, 0.0, 1.0])
        r0, r1 = 3.0 * z, -3.0 * z + [0.01, 0.0, 0.0]
        assert rotvec_to_quat(r0) @ rotvec_to_quat(r1) < 0.0
        axis = np.array([0.6, -0.8, 0.0])
        r2 = then(r1, 2.5 * axis)
        assert rotation_angle_between(r1, r2) == pytest.approx(2.5)
        self.assert_matches_secant(np.stack([r0, r1, r2]))

    def test_endpoints(self):
        # u = 0 moves only with the first pose, u = 1 only with the second
        rng = np.random.default_rng(31)
        rotvecs = rng.normal(size=(3, 3))
        rots, turn_a, turn_b = self.turns(rotvecs)
        assert np.abs(rots[[0, 3, 5]] - rotvec_to_matrix(rotvecs[[0, 1, 2]])).max() < 1e-12
        assert np.array_equal(turn_b[[0, 3]], np.zeros((2, 3, 3)))
        assert np.abs(turn_a[-1]).max() < 1e-12


def quaternion_slerp(qa, qb, u):
    """Reference slerp of unit quaternions [x, y, z, w], (4,) each, at fractions
    u, (M,), as rotation matrices (M, 3, 3): the shorter arc, linear below a
    half-angle sine of 1e-9, renormalised."""
    if qa @ qb < 0.0:
        qb = -qb
    theta = np.arccos(np.clip(abs(qa @ qb), 0.0, 1.0))
    if np.sin(theta) < 1e-9:
        wa, wb = 1.0 - u, u
    else:
        wa, wb = np.sin((1.0 - u) * theta) / np.sin(theta), np.sin(u * theta) / np.sin(theta)
    q = wa[:, None] * qa + wb[:, None] * qb
    x, y, z, w = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
        2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
        2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y),
    ], axis=1).reshape(-1, 3, 3)


class TestSlerpMatchesQuaternionSlerp:
    # Segments stop at 2.5 rad: near pi both forms lose digits (Log's axis and
    # the quaternion's arccos are ill-conditioned there), and they differ by
    # about 1e-9 at pi - 1e-3. Control poses 0.1 s apart never turn that far.
    @pytest.mark.parametrize("angle", [1e-9, 1e-5, 0.3, 2.5])
    def test_exp_form_matches_quaternion_slerp(self, angle):
        rng = np.random.default_rng(32)
        u = np.linspace(0.0, 1.0, 101)
        z = np.array([0.0, 0.0, 1.0])
        # the first pair's quaternions have a negative dot, so the
        # quaternion slerp flips the second
        pairs = [(3.0 * z, (3.0 + angle - 2.0 * np.pi) * z)]
        for _ in range(5):
            ra, axis = rng.normal(size=3), rng.normal(size=3)
            pairs.append((ra, then(ra, angle * axis / np.linalg.norm(axis))))
        assert rotvec_to_quat(pairs[0][0]) @ rotvec_to_quat(pairs[0][1]) < 0.0
        for ra, rb in pairs:
            assert rotation_angle_between(ra, rb) == pytest.approx(angle, rel=1e-6)
            got = spline_rotations(np.array([0.0, 1.0]), np.stack([ra, rb]), u)
            want = quaternion_slerp(rotvec_to_quat(ra), rotvec_to_quat(rb), u)
            assert np.abs(got - want).max() <= 1e-14

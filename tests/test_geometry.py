import numpy as np
import pytest
from scipy.spatial.transform import Rotation as ScipyRotation

from multiscan.geometry import (
    Pose,
    PointCloud,
    left_jacobian,
    left_jacobian_inv,
    matrix_to_rotvec,
    rotvec_to_matrix,
    rotvec_to_quat,
    quat_to_rotvec,
)
from multiscan.trajectory import rotation_chain, slerp_rotation_matrices, spline_table


def rotation_angle_between(ra, rb):
    """Geodesic angle (radians) between two rotation vectors."""
    return float(np.linalg.norm(matrix_to_rotvec(rotvec_to_matrix(ra).T @ rotvec_to_matrix(rb))))


def random_rotvec(rng, max_angle=np.pi - 1e-3):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return axis * rng.uniform(0.0, max_angle)


def random_pose(rng):
    return Pose(random_rotvec(rng), rng.uniform(-5.0, 5.0, size=3))


def mixed_rotvecs(rng, n):
    """Rotation vectors cycling through small-angle, generic and near-pi cases."""
    rvecs = []
    for k in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = (rng.uniform(0.0, 1e-10), rng.uniform(0.0, np.pi), np.pi - 1e-7)[k % 3]
        rvecs.append(axis * angle)
    return np.array(rvecs)


def mixed_rotation_stack(rng, n):
    """Rotation matrices cycling through small-angle, generic and near-pi cases."""
    return np.array([rotvec_to_matrix(r) for r in mixed_rotvecs(rng, n)])


def slerp(ra, rb, u):
    """Rotation vector a fraction u of the way from ra to rb, by the spline's slerp."""
    table = spline_table(np.array([0.0, 1.0]), 1.0, np.array([float(u)]))
    rot = slerp_rotation_matrices(*rotation_chain(np.stack([ra, rb])), table)
    return matrix_to_rotvec(rot[0])


class TestRotation:
    def test_matrix_is_orthonormal(self):
        rng = np.random.default_rng(0)
        rvecs = np.array([random_rotvec(rng) for _ in range(100)])
        for mat in list(map(rotvec_to_matrix, rvecs)) + list(rotvec_to_matrix(rvecs)):
            assert np.allclose(mat @ mat.T, np.eye(3), atol=1e-9)
            assert np.linalg.det(mat) == pytest.approx(1.0, abs=1e-9)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(1)
        rvecs = np.array([random_rotvec(rng) for _ in range(200)])
        mats = rotvec_to_matrix(rvecs.reshape(10, 20, 3)).reshape(200, 3, 3)
        assert np.max(np.linalg.norm(matrix_to_rotvec(mats) - rvecs, axis=1)) < 1e-9
        for r, mat in zip(rvecs, mats):
            assert np.linalg.norm(matrix_to_rotvec(mat) - r) < 1e-9

    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            r = random_rotvec(rng)
            assert np.allclose(rotvec_to_matrix(r), ScipyRotation.from_rotvec(r).as_matrix(), atol=1e-12)
            mat = ScipyRotation.random(random_state=int(rng.integers(1 << 30))).as_matrix()
            assert np.allclose(
                rotvec_to_matrix(matrix_to_rotvec(mat)), mat, atol=1e-9
            )
        rvecs = np.array([random_rotvec(rng) for _ in range(60)]).reshape(3, 20, 3)
        expected = ScipyRotation.from_rotvec(rvecs.reshape(-1, 3)).as_matrix().reshape(3, 20, 3, 3)
        assert np.allclose(rotvec_to_matrix(rvecs), expected, atol=1e-12)
        mats = ScipyRotation.random(60, random_state=7).as_matrix().reshape(3, 20, 3, 3)
        expected = ScipyRotation.from_matrix(mats.reshape(-1, 3, 3)).as_rotvec().reshape(3, 20, 3)
        assert np.allclose(matrix_to_rotvec(mats), expected, atol=1e-9)

    def test_small_angle(self):
        r = np.array([1e-12, -2e-12, 3e-13])
        assert np.allclose(matrix_to_rotvec(rotvec_to_matrix(r)), r, atol=1e-15)
        stack = rotvec_to_matrix(np.stack([r, -r]))
        assert np.allclose(matrix_to_rotvec(stack), [r, -r], atol=1e-15)

    def test_near_pi_preserves_action(self):
        rng = np.random.default_rng(3)
        rvecs = []
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            r = axis * (np.pi - 1e-7)
            mat = rotvec_to_matrix(r)
            assert np.allclose(rotvec_to_matrix(matrix_to_rotvec(mat)), mat, atol=1e-6)
            rvecs.append(r)
        mats = rotvec_to_matrix(np.array(rvecs))
        assert np.allclose(rotvec_to_matrix(matrix_to_rotvec(mats)), mats, atol=1e-6)

    def test_stack_shapes_and_rows_equal_single_calls(self):
        mats = mixed_rotation_stack(np.random.default_rng(5), 24)
        assert matrix_to_rotvec(mats[0]).shape == (3,)
        flat = matrix_to_rotvec(mats)
        assert flat.shape == (24, 3)
        nested = matrix_to_rotvec(mats.reshape(4, 6, 3, 3))
        assert nested.shape == (4, 6, 3)
        singles = np.array([matrix_to_rotvec(mat) for mat in mats])
        assert np.array_equal(flat, singles)
        assert np.array_equal(nested.reshape(24, 3), singles)

    def test_mixed_stack_matches_scipy_and_keeps_action(self):
        mats = mixed_rotation_stack(np.random.default_rng(6), 30).reshape(5, 6, 3, 3)
        logs = matrix_to_rotvec(mats)
        generic = np.linalg.norm(logs, axis=-1) < np.pi - 1e-6
        expected = ScipyRotation.from_matrix(mats.reshape(-1, 3, 3)).as_rotvec().reshape(5, 6, 3)
        assert np.allclose(logs[generic], expected[generic], atol=1e-9)
        rebuilt = np.array([rotvec_to_matrix(r) for r in logs.reshape(-1, 3)]).reshape(mats.shape)
        assert np.allclose(rebuilt, mats, atol=1e-6)

    def test_exp_stack_shapes_and_rows_equal_single_calls(self):
        rvecs = mixed_rotvecs(np.random.default_rng(7), 24)
        rvecs[5] = 0.0
        for exp, tail in ((rotvec_to_matrix, (3, 3)), (rotvec_to_quat, (4,))):
            assert exp(rvecs[0]).shape == tail
            flat = exp(rvecs)
            assert flat.shape == (24,) + tail
            nested = exp(rvecs.reshape(4, 6, 3))
            assert nested.shape == (4, 6) + tail
            singles = np.array([exp(r) for r in rvecs])
            assert np.array_equal(flat, singles)
            assert np.array_equal(nested.reshape(flat.shape), singles)

    def test_quat_round_trip(self):
        rng = np.random.default_rng(4)
        rvecs = np.array([random_rotvec(rng) for _ in range(100)])
        for r, q in zip(rvecs, rotvec_to_quat(rvecs)):
            assert np.allclose(quat_to_rotvec(rotvec_to_quat(r)), r, atol=1e-9)
            assert np.allclose(quat_to_rotvec(q), r, atol=1e-9)


def cross_matrix(v):
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


# the series switch lies between 1e-5 and 1e-3 rad
JACOBIAN_ANGLES = [1e-9, 1e-5, 1e-3, 1.0, 3.0]


class TestLeftJacobian:
    @pytest.mark.parametrize("angle", JACOBIAN_ANGLES)
    def test_matches_exp_secant(self, angle):
        # (Exp(r + h e_i) - Exp(r - h e_i)) / 2h = [J_l e_i]x Exp(r)
        rng = np.random.default_rng(20)
        h = 1e-6
        for _ in range(4):
            r = random_rotvec(rng)
            r *= angle / np.linalg.norm(r)
            jac = left_jacobian(r)
            for i in range(3):
                e = h * np.eye(3)[i]
                secant = (rotvec_to_matrix(r + e) - rotvec_to_matrix(r - e)) / (2 * h)
                assert np.abs(secant - cross_matrix(jac[:, i]) @ rotvec_to_matrix(r)).max() < 1e-8

    @pytest.mark.parametrize("angle", JACOBIAN_ANGLES)
    def test_inverse(self, angle):
        rng = np.random.default_rng(21)
        axes = rng.normal(size=(6, 3))
        r = angle * axes / np.linalg.norm(axes, axis=1, keepdims=True)
        product = left_jacobian_inv(r) @ left_jacobian(r)
        assert np.abs(product - np.eye(3)).max() < 1e-12

    def test_stack_shapes_and_zero(self):
        r = np.random.default_rng(22).normal(size=(4, 5, 3))
        assert left_jacobian(r).shape == (4, 5, 3, 3)
        assert left_jacobian_inv(r).shape == (4, 5, 3, 3)
        assert np.array_equal(left_jacobian(r)[2, 3], left_jacobian(r[2, 3]))
        assert np.array_equal(left_jacobian(np.zeros(3)), np.eye(3))
        assert np.array_equal(left_jacobian_inv(np.zeros(3)), np.eye(3))


class TestPose:
    def test_identity_compose(self):
        ident = Pose.identity()
        out = ident.compose(ident)
        assert np.allclose(out.rotvec, 0.0)
        assert np.allclose(out.trans, 0.0)

    def test_group_law_z_rotations(self):
        quarter = Pose(np.array([0.0, 0.0, np.pi / 2]), np.zeros(3))
        half = quarter.compose(quarter)
        assert np.allclose(half.rotvec, [0.0, 0.0, np.pi], atol=1e-9)

    def test_apply_identity(self):
        assert np.allclose(Pose.identity().apply(np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_apply_axis_rotation(self):
        quarter = Pose(np.array([0.0, 0.0, np.pi / 2]), np.zeros(3))
        assert np.allclose(quarter.apply(np.array([1.0, 0.0, 0.0])), [0, 1, 0], atol=1e-12)

    def test_apply_translation(self):
        shift = Pose(np.zeros(3), np.ones(3))
        assert np.allclose(shift.apply(np.array([1.0, 2.0, 3.0])), [2, 3, 4])

    def test_compose_inverse_fixes_points(self):
        # oracle: apply both pose and inverse to random points, expect no motion
        rng = np.random.default_rng(5)
        for _ in range(100):
            pose = random_pose(rng)
            both = pose.compose(pose.inverse())
            pts = rng.uniform(-10, 10, size=(5, 3))
            assert np.allclose(both.apply(pts), pts, atol=1e-9)

    def test_compose_matches_sequential_apply(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            pts = rng.uniform(-10, 10, size=(4, 3))
            assert np.allclose(a.compose(b).apply(pts), a.apply(b.apply(pts)), atol=1e-9)

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, b, c = (random_pose(rng) for _ in range(3))
            left = a.compose(b).compose(c)
            right = a.compose(b.compose(c))
            pts = rng.uniform(-3, 3, size=(3, 3))
            assert np.allclose(left.apply(pts), right.apply(pts), atol=1e-9)

    def test_params_round_trip(self):
        rng = np.random.default_rng(8)
        pose = random_pose(rng)
        again = Pose.from_params(pose.as_params())
        assert np.allclose(again.rotvec, pose.rotvec)
        assert np.allclose(again.trans, pose.trans)


class TestSlerp:
    def test_midpoint(self):
        out = slerp(np.zeros(3), np.array([0.0, 0.0, np.pi / 2]), 0.5)
        assert np.allclose(out, [0.0, 0.0, np.pi / 4], atol=1e-12)

    def test_endpoints(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ra, rb = random_rotvec(rng), random_rotvec(rng)
            assert rotation_angle_between(slerp(ra, rb, 0.0), ra) < 1e-9
            assert rotation_angle_between(slerp(ra, rb, 1.0), rb) < 1e-9

    def test_angle_linear_in_u(self):
        # oracle: relative angle from the start grows as u * total_angle
        rng = np.random.default_rng(10)
        for _ in range(30):
            ra, rb = random_rotvec(rng), random_rotvec(rng)
            total = rotation_angle_between(ra, rb)
            for u in (0.25, 0.5, 0.75):
                got = rotation_angle_between(ra, slerp(ra, rb, u))
                assert got == pytest.approx(u * total, abs=1e-9)

    def test_angle_monotone_in_u(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ra, rb = random_rotvec(rng), random_rotvec(rng)
            angles = [rotation_angle_between(ra, slerp(ra, rb, u)) for u in np.linspace(0, 1, 11)]
            assert np.all(np.diff(angles) >= -1e-12)

    def test_identical_inputs(self):
        rng = np.random.default_rng(12)
        r = random_rotvec(rng)
        assert rotation_angle_between(slerp(r, r, 0.37), r) < 1e-9


class TestPointCloud:
    def test_length_checks(self):
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros((3, 3)), stamps=np.zeros(2))
        with pytest.raises(ValueError):
            PointCloud(points=np.zeros((3, 3)), normals=np.zeros((2, 3)))

    def test_default_stamps(self):
        cloud = PointCloud(points=np.ones((4, 3)))
        assert np.allclose(cloud.stamps, 0.0)
        assert len(cloud) == 4

    def test_validate_checks_unit_normals(self):
        cloud = PointCloud(points=np.zeros((2, 3)), normals=np.array([[1, 0, 0], [0, 2, 0]], dtype=float))
        with pytest.raises(ValueError, match="unit"):
            cloud.validate()

    def test_validate_checks_stamp_order(self):
        cloud = PointCloud(points=np.zeros((2, 3)), stamps=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="monotone"):
            cloud.validate()

    def test_select_keeps_attributes(self):
        cloud = PointCloud(
            points=np.arange(12, dtype=float).reshape(4, 3),
            stamps=np.arange(4, dtype=float),
            planarity=np.linspace(0, 1, 4),
        )
        sub = cloud.select(np.array([0, 2]))
        assert len(sub) == 2
        assert np.allclose(sub.planarity, [0.0, 2.0 / 3.0])
        assert sub.normals is None

import numpy as np
import pytest

from multiscan.adjustment import (
    AdjustmentProblem,
    GravityConstraint,
    InsufficientStructureError,
    _RigidSystem,
    freeze_landmarks,
    gravity_residual,
    lm_step,
    relative_pose_errors,
    run_adjustment,
)
from multiscan.geometry import Pose, PointCloud
from multiscan.landmarks import VoxelConfig
from multiscan.synthetic import generate_synthetic, room_scene


def small_room(points_per_scan=1200, duration=0.2, dynamic_fraction=0.0, seed=1):
    spec = room_scene(
        duration=duration,
        points_per_scan=points_per_scan,
        noise_sigma=0.005,
        imu_rate=0,
        ray_pattern="scatter",
        dynamic_fraction=dynamic_fraction,
    )
    return generate_synthetic(spec, seed=seed)


def sample_pert(rng, max_t, max_deg):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    tdir = rng.normal(size=3)
    tdir /= np.linalg.norm(tdir)
    return Pose(axis * np.deg2rad(rng.uniform(0, max_deg)), tdir * rng.uniform(0, max_t))


def free_params(system, poses):
    return np.concatenate([poses[ci].as_params() for ci in system.free])


def frozen_system(prob, poses):
    """Rigid system frozen at poses, and the free-pose parameters there."""
    system = _RigidSystem(prob)
    params = free_params(system, poses)
    system.freeze(params)
    return system, params


class TestEvaluateCost:
    def test_trace_identity_single_landmark(self):
        # all points inside one cell of each level; zero regularization
        # makes the per-landmark error exactly 3 at the linearization point
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(40, 3)) * 0.08 + 0.5
        cloud = PointCloud(points=pts)
        prob = AdjustmentProblem(
            clouds=[cloud, cloud],
            initial_poses=[Pose.identity(), Pose.identity()],
            voxel=VoxelConfig(coarse_size=2.0, fine_size=1.0, n_min=5, epsilon=0.0),
        )
        system, params = frozen_system(prob, prob.initial_poses)
        lms = system.landmarks
        assert lms.n_landmarks == 2
        r = system.residuals(params).reshape(-1, 3)
        errors = np.bincount(lms.member_lm, weights=np.sum(r * r, axis=1))
        assert np.allclose(errors, 3.0, rtol=1e-10)
        assert system.cost(params) == pytest.approx(3.0 * lms.n_landmarks, rel=1e-10)

    def test_no_overlap_raises(self):
        rng = np.random.default_rng(1)
        a = PointCloud(points=rng.uniform(0, 0.3, size=(4, 3)))
        b = PointCloud(points=rng.uniform(0, 0.3, size=(4, 3)) + [10.0, 0, 0])
        prob = AdjustmentProblem(clouds=[a, b], initial_poses=[Pose.identity(), Pose.identity()])
        with pytest.raises(InsufficientStructureError, match="insufficient overlap/structure"):
            freeze_landmarks(prob, prob.initial_poses)

    def test_empty_landmark_list_raises(self):
        cloud = PointCloud(points=np.zeros((0, 3)))
        prob = AdjustmentProblem(clouds=[cloud], initial_poses=[Pose.identity()], fix_first_pose=False)
        with pytest.raises(InsufficientStructureError):
            freeze_landmarks(prob, prob.initial_poses)

    def test_perturbed_pose_costs_more_than_truth(self):
        ds = small_room(points_per_scan=500, duration=0.2)
        truth = ds.truth_poses[:2]
        prob = AdjustmentProblem(clouds=ds.scans[:2], initial_poses=truth)
        system, params = frozen_system(prob, truth)
        shifted = [truth[0], Pose(truth[1].rotvec, truth[1].trans + [0.2, 0, 0])]
        assert system.cost(free_params(system, shifted)) > system.cost(params)


class TestNumericJacobian:
    def test_mirror_symmetry_zeroes_gradient(self):
        # cloud 2 is cloud 1 reflected through the landmark mean, both in a
        # single cell: the error is even in any translation of cloud 2, so
        # the translation gradient vanishes at the symmetric configuration
        rng = np.random.default_rng(2)
        base = rng.normal(size=(60, 3)) * [0.2, 0.15, 0.1] + [1.0, 1.0, 1.0]
        reflected = 2.0 * base.mean(axis=0) - base
        prob = AdjustmentProblem(
            clouds=[PointCloud(points=base), PointCloud(points=reflected)],
            initial_poses=[Pose.identity(), Pose.identity()],
            voxel=VoxelConfig(coarse_size=4.0, fine_size=2.0, n_min=5),
        )
        system, params = frozen_system(prob, prob.initial_poses)
        assert system.landmarks.n_landmarks == 2
        jac, r = system.jacobian(params)
        grad = 2.0 * jac.T @ r
        assert np.all(np.abs(grad[3:]) < 1e-6)  # translations of the free pose

    def test_richardson_step_consistency(self):
        ds = small_room(points_per_scan=600)
        rng = np.random.default_rng(3)
        truth = ds.truth_poses[:2]
        init = [truth[0], sample_pert(rng, 0.05, 1.0).compose(truth[1])]
        prob = AdjustmentProblem(clouds=ds.scans[:2], initial_poses=init)
        system, params = frozen_system(prob, init)
        j_h, _ = system.jacobian(params, step=1e-4)
        j_h2, _ = system.jacobian(params, step=5e-5)
        scale = max(np.abs(j_h2).max(), 1.0)
        assert np.abs(j_h - j_h2).max() / scale < 1e-4

    def test_secant_directional_derivative(self):
        ds = small_room(points_per_scan=600)
        rng = np.random.default_rng(4)
        for trial in range(5):
            truth = ds.truth_poses[:2]
            init = [truth[0], sample_pert(rng, 0.1, 2.0).compose(truth[1])]
            prob = AdjustmentProblem(clouds=ds.scans[:2], initial_poses=init)
            system, params = frozen_system(prob, init)
            jac, r = system.jacobian(params)
            direction = rng.normal(size=6)
            direction /= np.linalg.norm(direction)
            h = 1e-5
            secant = (system.cost(params + h * direction) - system.cost(params - h * direction)) / (2 * h)
            analytic = float(2.0 * r @ (jac @ direction))
            assert analytic == pytest.approx(secant, rel=1e-5, abs=1e-8)


class TestLMStep:
    def test_zero_errors_zero_update(self):
        jac = np.random.default_rng(5).normal(size=(10, 3))
        assert np.allclose(lm_step(jac, np.zeros(10), 1e-4), 0.0)

    def test_linear_residual_exact_root(self):
        # e(x) = x: Gauss-Newton with lam -> 0 jumps to the root
        jac = np.array([[1.0]])
        delta = lm_step(jac, np.array([2.0]), 0.0)
        assert delta[0] == pytest.approx(-2.0, abs=1e-12)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(6)
        jac = rng.normal(size=(40, 6))
        errors = rng.normal(size=40)
        delta = lm_step(jac, errors, 0.0)
        oracle = np.linalg.solve(jac.T @ jac, -jac.T @ errors)
        assert np.allclose(delta, oracle, atol=1e-9)

    def test_damping_shrinks_step(self):
        rng = np.random.default_rng(7)
        jac = rng.normal(size=(40, 6))
        errors = rng.normal(size=40)
        small = np.linalg.norm(lm_step(jac, errors, 1e3))
        big = np.linalg.norm(lm_step(jac, errors, 1e-6))
        assert small < big


class TestGravityResidual:
    UP = np.array([0.0, 0, 1.0])

    def test_aligned_zero(self):
        r = gravity_residual(np.eye(3)[None], self.UP[None], self.UP, np.array([2.0]))
        assert r.shape == (1, 3)
        assert np.allclose(r, 0.0)

    def test_ten_degrees_off_chord_length(self):
        tilt = Pose(np.deg2rad(10.0) * np.array([1.0, 0, 0]), np.zeros(3))
        r = gravity_residual(tilt.matrix()[None], self.UP[None], self.UP, np.array([1.0]))
        assert np.linalg.norm(r) == pytest.approx(2 * np.sin(np.deg2rad(5.0)), abs=1e-12)

    def test_weight_scales(self):
        tilt = Pose(np.deg2rad(10.0) * np.array([1.0, 0, 0]), np.zeros(3))
        rots = np.stack([tilt.matrix(), tilt.matrix()])
        r = gravity_residual(rots, np.stack([self.UP, self.UP]), self.UP, np.array([1.0, 5.0]))
        assert np.allclose(r[1], 5.0 * r[0])

    def test_rigid_jacobian_gravity_rows_match_secant(self):
        # each constraint's rows move only with its own cloud's rotation
        ds = small_room(points_per_scan=800, duration=0.3)
        rng = np.random.default_rng(3)
        init = [ds.truth_poses[0]] + [
            sample_pert(rng, 0.05, 2.0).compose(p) for p in ds.truth_poses[1:]
        ]
        constraints = [
            GravityConstraint(cloud_id=i, direction_local=self.UP, weight=1.0 + i)
            for i in (0, 2, 1)
        ]
        prob = AdjustmentProblem(
            clouds=ds.scans, initial_poses=init, gravity_constraints=constraints
        )
        system, params = frozen_system(prob, init)
        jac, r = system.jacobian(params)
        n_grav = 3 * len(constraints)
        assert jac.shape == (len(r), len(params))
        h = 1e-6
        for q in range(len(params)):
            d = np.zeros(len(params))
            d[q] = h
            secant = (system.residuals(params + d) - system.residuals(params - d))[-n_grav:] / (2 * h)
            assert np.allclose(jac[-n_grav:, q], secant, rtol=1e-6, atol=1e-9)


class TestRunAdjustment:
    def test_already_aligned_identity(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-2, 2, size=(600, 3))
        cloud = PointCloud(points=pts)
        prob = AdjustmentProblem(
            clouds=[cloud, cloud], initial_poses=[Pose.identity(), Pose.identity()]
        )
        res = run_adjustment(prob)
        assert res.converged
        rel = res.poses[0].inverse().compose(res.poses[1])
        assert np.linalg.norm(rel.trans) < 1e-9
        assert np.linalg.norm(rel.rotvec) < 1e-9

    def test_recovers_small_perturbation(self):
        ds = small_room(points_per_scan=1000, duration=0.2)
        rng = np.random.default_rng(9)
        truth = ds.truth_poses[:2]
        init = [truth[0], sample_pert(rng, 0.15, 3.0).compose(truth[1])]
        prob = AdjustmentProblem(clouds=ds.scans[:2], initial_poses=init)
        res = run_adjustment(prob)
        et, er = relative_pose_errors(res.poses, truth)
        assert et < 0.01
        assert np.rad2deg(er) < 0.2

    def test_cost_pairs_non_increasing(self):
        ds = small_room(points_per_scan=800, duration=0.2)
        rng = np.random.default_rng(10)
        truth = ds.truth_poses[:2]
        init = [truth[0], sample_pert(rng, 0.2, 3.0).compose(truth[1])]
        prob = AdjustmentProblem(clouds=ds.scans[:2], initial_poses=init)
        res = run_adjustment(prob)
        history = res.cost_history
        assert len(history) % 2 == 0
        for k in range(0, len(history), 2):
            assert history[k + 1] <= history[k] + 1e-12

    def test_insufficient_structure_propagates(self):
        rng = np.random.default_rng(11)
        a = PointCloud(points=rng.uniform(0, 0.3, size=(4, 3)))
        b = PointCloud(points=rng.uniform(0, 0.3, size=(4, 3)) + [10.0, 0, 0])
        prob = AdjustmentProblem(clouds=[a, b], initial_poses=[Pose.identity(), Pose.identity()])
        with pytest.raises(InsufficientStructureError):
            run_adjustment(prob)

    def test_gauge_shift_equivariance(self):
        # translating everything by a whole coarse cell leaves voxelization
        # identical, so the solution must shift by exactly the same offset
        ds = small_room(points_per_scan=800, duration=0.2)
        rng = np.random.default_rng(12)
        truth = ds.truth_poses[:2]
        init = [truth[0], sample_pert(rng, 0.15, 2.0).compose(truth[1])]
        prob = AdjustmentProblem(clouds=ds.scans[:2], initial_poses=init)
        res = run_adjustment(prob)

        shift = Pose(np.zeros(3), np.array([2.0, -4.0, 2.0]))
        init_shifted = [shift.compose(p) for p in init]
        prob_shifted = AdjustmentProblem(clouds=ds.scans[:2], initial_poses=init_shifted)
        res_shifted = run_adjustment(prob_shifted)
        for a, b in zip(res.poses, res_shifted.poses):
            expected = shift.compose(a)
            assert np.linalg.norm(expected.trans - b.trans) < 1e-6
            assert np.linalg.norm(expected.rotvec - b.rotvec) < 1e-6

    def test_outlier_damping_sublinear(self):
        # doubling the dynamic cluster's motion must not double the error
        from multiscan.synthetic import DynamicBoxSpec

        errs = []
        for vel in (3.0, 6.0):
            spec = room_scene(
                duration=0.3, points_per_scan=1500, noise_sigma=0.005,
                imu_rate=0, ray_pattern="scatter", dynamic_fraction=0.15,
            )
            spec.dynamic = DynamicBoxSpec(
                center0=(3.0, -1.5, 1.0), velocity=(0.0, vel, 0.0), fraction=0.15
            )
            ds = generate_synthetic(spec, seed=3)
            rng = np.random.default_rng(13)
            truth = ds.truth_poses
            init = [truth[0]] + [sample_pert(rng, 0.2, 3.0).compose(truth[i]) for i in (1, 2)]
            prob = AdjustmentProblem(clouds=ds.scans, initial_poses=init)
            res = run_adjustment(prob)
            et, _ = relative_pose_errors(res.poses, truth)
            errs.append(et)
        assert errs[1] < 2.0 * errs[0]

    def test_gravity_constraints_hold_level(self):
        # the frozen world-frame metric resists common rotations, so the
        # residuals' job here is station keeping: a level solution with
        # translation-only perturbations must stay level
        ds = small_room(points_per_scan=1000, duration=0.2)
        clouds = ds.scans[:2]
        truth = ds.truth_poses[:2]
        init = [truth[0], Pose(truth[1].rotvec, truth[1].trans + [0.15, -0.1, 0.05])]
        constraints = [
            GravityConstraint(cloud_id=i, direction_local=np.array([0.0, 0, 1.0]), weight=10.0)
            for i in range(2)
        ]
        prob = AdjustmentProblem(
            clouds=clouds, initial_poses=init, gravity_constraints=constraints
        )
        res = run_adjustment(prob)
        et, er = relative_pose_errors(res.poses, truth)
        assert et < 0.01
        for pose in res.poses:
            up_world = pose.matrix() @ np.array([0.0, 0, 1.0])
            tilt_deg = np.rad2deg(np.arccos(np.clip(up_world[2], -1, 1)))
            assert tilt_deg < 0.2


class TestFreezeWithSplitting:
    def test_two_sided_wall_splits(self):
        rng = np.random.default_rng(14)
        n = 120
        sheet = np.zeros((n, 3))
        sheet[:, 0] = rng.uniform(-0.9, 0.9, n)
        sheet[:, 1] = rng.uniform(-0.9, 0.9, n)
        front = sheet.copy()
        back = sheet.copy() + [0.0, 0.0, 0.02]
        normals_front = np.tile([0.0, 0, -1.0], (n, 1))
        normals_back = np.tile([0.0, 0, 1.0], (n, 1))
        clouds = [
            PointCloud(points=front, normals=normals_front, planarity=np.ones(n)),
            PointCloud(points=back, normals=normals_back, planarity=np.ones(n)),
        ]
        prob_plain = AdjustmentProblem(
            clouds=clouds, initial_poses=[Pose.identity()] * 2, split_normals=False
        )
        prob_split = AdjustmentProblem(
            clouds=clouds, initial_poses=[Pose.identity()] * 2,
            split_normals=True, planarity_min=0.5,
        )
        _, plain = freeze_landmarks(prob_plain, prob_plain.initial_poses)
        _, split = freeze_landmarks(prob_split, prob_split.initial_poses)
        assert len(split["counts"]) > len(plain["counts"])
        # the two halves of a split landmark share its cell and level
        keys = [(*cell, level) for cell, level in zip(split["cells"].tolist(), split["levels"])]
        assert len(set(keys)) < len(keys)

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from multiscan.adjustment import (
    STOP_ROTATION,
    STOP_TRANSLATION,
    AdjustmentProblem,
    FrozenLandmarks,
    GravityConstraint,
    InsufficientStructureError,
    _RigidSystem,
    freeze_landmarks,
    gravity_residual,
    levenberg_marquardt,
    lm_step,
    relative_pose_errors,
    run_adjustment,
    scatter_factor,
)
from multiscan.geometry import Pose, PointCloud, left_jacobian
from multiscan.landmarks import VoxelConfig, _level_groups, point_clusters, voxel_cell_indices
from multiscan.synthetic import generate_synthetic, room_scene
from members import frozen_groups, per_member
from secants import assert_normal_equations_match_secant_jacobian


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


def two_sided_sheet(rng, angle):
    """Two clouds seeing a thin sheet from either side, in clutter, with
    fixed points and gravity rows; every pose turned by about angle rad."""
    n = 150
    sheet = np.zeros((n, 3))
    sheet[:, :2] = rng.uniform(-0.9, 0.9, size=(n, 2))
    clutter = rng.uniform(-1.5, 1.5, size=(n, 3))
    clouds = []
    for side in (-1.0, 1.0):
        points = np.vstack([sheet + [0.0, 0.0, 0.01 * (1 + side)], clutter])
        normals = np.vstack([np.tile([0.0, 0.0, side], (n, 1)), rng.normal(size=(n, 3))])
        planarity = np.concatenate([np.ones(n), np.full(n, np.nan)])
        clouds.append(PointCloud(points=points, normals=normals, planarity=planarity))
    turn = Pose(angle * np.array([0.6, 0.0, 0.8]), np.zeros(3))
    init = [turn.compose(sample_pert(rng, 0.01, 0.5)) for _ in clouds]
    fixed = turn.apply(rng.uniform(-1.5, 1.5, size=(200, 3)))
    tilted_up = np.array([0.1, 0.0, 1.0]) / np.hypot(0.1, 1.0)
    return AdjustmentProblem(
        clouds=clouds,
        initial_poses=init,
        fixed_points=fixed,
        gravity_constraints=[
            GravityConstraint(cloud_id=i, direction_local=tilted_up, weight=2.0 + i)
            for i in range(2)
        ],
        split_normals=True,
        planarity_min=0.5,
    )


class TestEvaluateCost:
    def test_trace_identity_single_landmark(self):
        # all points inside one cell of each level; zero regularization
        # makes the per-landmark error exactly 1 at the linearization point
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
        # no gravity or fixed rows: the mean rows, then each scatter column's
        r = system.residuals(params).reshape(4, -1)
        errors = np.bincount(system.landmarks.cluster_lm, weights=np.sum(r * r, axis=0))
        assert np.allclose(errors, 1.0, rtol=1e-10)
        r = system.residuals(params)
        assert r @ r == pytest.approx(1.0 * lms.n_landmarks, rel=1e-10)

    def test_no_overlap_raises(self):
        rng = np.random.default_rng(1)
        a = PointCloud(points=rng.uniform(0, 0.3, size=(4, 3)))
        b = PointCloud(points=rng.uniform(0, 0.3, size=(4, 3)) + [10.0, 0, 0])
        prob = AdjustmentProblem(clouds=[a, b], initial_poses=[Pose.identity(), Pose.identity()])
        system = _RigidSystem(prob)
        with pytest.raises(InsufficientStructureError, match="insufficient overlap/structure"):
            system.freeze(free_params(system, prob.initial_poses))

    def test_empty_landmark_list_raises(self):
        with pytest.raises(InsufficientStructureError):
            freeze_landmarks(np.zeros((0, 3)), VoxelConfig(), None)

    def test_perturbed_pose_costs_more_than_truth(self):
        ds = small_room(points_per_scan=500, duration=0.2)
        truth = ds.truth_poses[:2]
        prob = AdjustmentProblem(clouds=ds.scans[:2], initial_poses=truth)
        system, params = frozen_system(prob, truth)
        shifted = [truth[0], Pose(truth[1].rotvec, truth[1].trans + [0.2, 0, 0])]
        r_shifted = system.residuals(free_params(system, shifted))
        r = system.residuals(params)
        assert r_shifted @ r_shifted > r @ r


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
        grad = 2.0 * system.linearize(params).jtr(system.residuals(params))
        assert np.all(np.abs(grad[3:]) < 1e-6)  # translations of the free pose

    def test_secant_directional_derivative(self):
        # along d, the cost's slope is 2 d.J^T r and the residuals' squared
        # slope is d^T J^T J d
        ds = small_room(points_per_scan=600)
        rng = np.random.default_rng(4)
        for trial in range(5):
            truth = ds.truth_poses[:2]
            init = [truth[0], sample_pert(rng, 0.1, 2.0).compose(truth[1])]
            prob = AdjustmentProblem(clouds=ds.scans[:2], initial_poses=init)
            system, params = frozen_system(prob, init)
            lin = system.linearize(params)
            direction = rng.normal(size=6)
            direction /= np.linalg.norm(direction)
            h = 1e-5
            r_plus = system.residuals(params + h * direction)
            r_minus = system.residuals(params - h * direction)
            secant = (r_plus @ r_plus - r_minus @ r_minus) / (2 * h)
            analytic = float(2.0 * direction @ lin.jtr(system.residuals(params)))
            assert analytic == pytest.approx(secant, rel=1e-5, abs=1e-8)
            moved = (
                system.residuals(params + h * direction) - system.residuals(params - h * direction)
            ) / (2 * h)
            assert float(direction @ lin.jtj @ direction) == pytest.approx(moved @ moved, rel=1e-5)

    def test_normal_equations_match_secant_jacobian(self):
        # fixed points, gravity rows and a split landmark; the second pass
        # turns every pose by about 3.05 rad, near the log map's edge
        rng = np.random.default_rng(15)
        for angle in (0.0, 3.05):
            prob = two_sided_sheet(rng, angle)
            system, params = frozen_system(prob, prob.initial_poses)
            assert system.free == [0, 1]
            assert np.all(np.abs(np.linalg.norm(params.reshape(-1, 6)[:, :3], axis=1) - angle) < 0.02)
            plain = freeze_landmarks(system.world_points(params), prob.voxel, system.fixed_cells)
            assert system.landmarks.n_landmarks > len(plain["counts"])
            assert_normal_equations_match_secant_jacobian(
                system, params + 1e-3 * rng.normal(size=len(params))
            )


def member_cost(system, frozen, params):
    """The landmark cost with one row per cloud member, on the landmarks
    that system froze at frozen, with its clouds at params. A landmark's
    fixed part, n_f anchor points with mean fbar, moves its mean m_j and
    adds n_f (w_j . (fbar - m_j))^2: its members' cost less their scatter."""
    prob = system.problem
    groups = frozen_groups(system, frozen)
    lm = groups["member_group"]
    lms = FrozenLandmarks(groups, prob.voxel.epsilon, lm, np.ones(len(lm)))
    poses = system.poses(params)
    world = np.vstack([pose.apply(cloud.points) for cloud, pose in zip(prob.clouds, poses)])
    p = world[groups["member_row"]]
    n_f, fbar, _ = groups["fixed"]
    total = np.stack([lms.sums(p[:, a], lm) for a in range(3)], axis=1) + n_f[:, None] * fbar
    m = total / lms.counts[:, None]
    r = np.einsum("ni,ni->n", lms.white_lm[lm], p - m[lm])
    fixed = n_f * np.einsum("ji,ji->j", lms.white_lm, fbar - m) ** 2
    return float(r @ r + fixed.sum())


def cluster_cost(system, params):
    r = system.residuals(params)
    r = r[: len(r) - 3 * len(system.grav_cloud)]
    return r @ r


def many_small_clouds(rng, n_clouds=10, points=100):
    """Sparse clouds over a 6 m box, so that no cloud puts more than a few
    points into any cell, with fixed points as sparse; every pose moved a
    little off the identity."""
    clouds = [PointCloud(points=rng.uniform(0.0, 6.0, size=(points, 3))) for _ in range(n_clouds)]
    return AdjustmentProblem(
        clouds=clouds,
        initial_poses=[sample_pert(rng, 0.02, 1.0) for _ in clouds],
        fixed_points=rng.uniform(0.0, 6.0, size=(points, 3)),
        voxel=VoxelConfig(coarse_size=1.0, fine_size=0.5, n_min=5),
    )


class TestPointClusters:
    @pytest.mark.parametrize("rank", [0, 1, 2, 3])
    def test_scatter_factor_reproduces_scatter(self, rank):
        # noise-free points on a line (rank 1) or a plane (rank 2) make
        # singular scatters, on which a Cholesky factor fails
        rng = np.random.default_rng(30 + rank)
        clusters = []
        for _ in range(400):
            n = int(rng.integers(1, 9))
            spread = rng.normal(size=(n, rank)) * rng.uniform(0.01, 1.0)
            clusters.append(spread @ rng.normal(size=(rank, 3)) + rng.uniform(-10.0, 10.0, size=3))
        starts = np.cumsum([0] + [len(c) for c in clusters[:-1]])
        sizes, means, scatter = point_clusters(np.vstack(clusters), starts)
        for c, points in enumerate(clusters):
            centered = points - points.mean(axis=0)
            assert sizes[c] == len(points)
            assert np.allclose(means[c], points.mean(axis=0), rtol=0.0, atol=1e-12)
            assert np.allclose(scatter[c], centered.T @ centered, rtol=0.0, atol=1e-12)
        factor = scatter_factor(scatter)
        assert np.all(np.isfinite(factor))
        gap = np.abs(factor @ np.swapaxes(factor, 1, 2) - scatter).max(axis=(1, 2))
        assert np.all(gap <= 1e-12 * np.abs(scatter).max(axis=(1, 2)))
        # a single point has a zero scatter and a zero factor
        single = sizes == 1
        assert single.any() and not np.any(factor[single])

    def test_single_point_runs(self):
        # runs of one point, also back to back and last, have the point as
        # their mean and an exactly zero scatter
        rng = np.random.default_rng(33)
        points = rng.uniform(-10.0, 10.0, size=(12, 3))
        starts = np.array([0, 1, 2, 6, 7, 11])
        sizes, means, scatter = point_clusters(points, starts)
        assert sizes.tolist() == [1, 1, 4, 1, 4, 1]
        single = sizes == 1
        assert np.array_equal(means[single], points[starts[single]])
        assert not np.any(scatter[single]) and np.all(np.linalg.eigvalsh(scatter[~single]) > 0.0)

    def test_cluster_cost_equals_member_cost(self):
        # the 4 rows of a cloud cluster score its members exactly, and the
        # mean row of a fixed cluster its anchors less their scatter, at the
        # frozen parameters and away from them
        rng = np.random.default_rng(31)
        problems = [two_sided_sheet(rng, angle) for angle in (0.0, 3.05)]
        problems.append(many_small_clouds(rng))
        for prob in problems:
            system, params = frozen_system(prob, prob.initial_poses)
            for at in (params, params + 1e-2 * rng.normal(size=len(params))):
                expected = member_cost(system, params, at)
                assert cluster_cost(system, at) == pytest.approx(expected, rel=1e-10)
        # the last problem's clusters hold at most 4 members
        assert system.landmarks.cluster_sizes.max() <= 4 and len(system.landmarks.cluster_lm) > 100

    def test_one_cluster_per_landmark_and_cloud(self):
        # each landmark's members from one cloud form a single run, split
        # landmarks included, and its fixed part, if any, one more cluster
        prob = two_sided_sheet(np.random.default_rng(32), 0.0)
        system, params = frozen_system(prob, prob.initial_poses)
        ends = np.cumsum([len(c) for c in prob.clouds])
        lms = system.landmarks
        groups = frozen_groups(system, params)
        cloud = np.searchsorted(ends, groups["member_row"], side="right")
        pairs = set(zip(groups["member_group"].tolist(), cloud.tolist()))
        n_fixed = groups["fixed"][0]
        assert np.count_nonzero(n_fixed) > 0 and len(pairs) == len(system.cluster_pose)
        assert len(lms.cluster_lm) == len(pairs) + np.count_nonzero(n_fixed)
        assert lms.cluster_sizes.sum() == len(groups["member_group"]) + n_fixed.sum()


class TestLMStep:
    def test_zero_errors_zero_update(self):
        jac = np.random.default_rng(5).normal(size=(10, 3))
        assert np.allclose(lm_step(jac.T @ jac, jac.T @ np.zeros(10), 1e-4), 0.0)

    def test_linear_residual_exact_root(self):
        # e(x) = x: Gauss-Newton with lam -> 0 jumps to the root
        jac = np.array([[1.0]])
        delta = lm_step(jac.T @ jac, jac.T @ np.array([2.0]), 0.0)
        assert delta[0] == pytest.approx(-2.0, abs=1e-12)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(6)
        jac = rng.normal(size=(40, 6))
        errors = rng.normal(size=40)
        delta = lm_step(jac.T @ jac, jac.T @ errors, 0.0)
        oracle = np.linalg.lstsq(jac, -errors, rcond=None)[0]
        assert np.allclose(delta, oracle, atol=1e-9)

    def test_damping_shrinks_step(self):
        rng = np.random.default_rng(7)
        jac = rng.normal(size=(40, 6))
        errors = rng.normal(size=40)
        small = np.linalg.norm(lm_step(jac.T @ jac, jac.T @ errors, 1e3))
        big = np.linalg.norm(lm_step(jac.T @ jac, jac.T @ errors, 1e-6))
        assert small < big


class TestLevenbergMarquardt:
    def test_each_residual_vector_evaluated_once(self):
        # the driver sees a system only through freeze, residuals and
        # linearize; within one freeze it never asks for the residuals twice
        # at the same parameters, and it linearizes once per outer iteration
        ds = small_room(points_per_scan=800, duration=0.2)
        rng = np.random.default_rng(16)
        truth = ds.truth_poses[:2]
        init = [truth[0], sample_pert(rng, 0.1, 2.0).compose(truth[1])]
        rigid = _RigidSystem(AdjustmentProblem(clouds=ds.scans[:2], initial_poses=init))
        calls = []

        class Recording:
            stop_steps = rigid.stop_steps

            def freeze(self, params):
                calls.append(("freeze", params.copy()))
                rigid.freeze(params)

            def residuals(self, params):
                calls.append(("residuals", params.copy()))
                return rigid.residuals(params)

            def linearize(self, params):
                calls.append(("linearize", params.copy()))
                return rigid.linearize(params)

        _, history, _, iterations = levenberg_marquardt(Recording(), free_params(rigid, init), 3)
        assert iterations >= 2
        starts = [i for i, (kind, _) in enumerate(calls) if kind == "freeze"]
        assert len(starts) == iterations and starts[0] == 0
        for lo, hi in zip(starts, starts[1:] + [len(calls)]):
            frozen_at = calls[lo][1]
            kinds = [kind for kind, _ in calls[lo:hi]]
            assert kinds.count("linearize") == 1
            assert np.array_equal(calls[lo + kinds.index("linearize")][1], frozen_at)
            seen = [params for kind, params in calls[lo:hi] if kind == "residuals"]
            assert len(seen) >= 2
            for a in range(len(seen)):
                for b in range(a + 1, len(seen)):
                    assert not np.array_equal(seen[a], seen[b])
        assert len(history) == 2 * iterations

    def test_non_finite_cost_raises(self):
        # a NaN cost rejects every trial, so the driver would otherwise
        # return its start as converged
        class NanSystem:
            def freeze(self, params):
                pass

            def residuals(self, params):
                return np.array([1.0, np.nan])

            def linearize(self, params):
                raise AssertionError("linearized at a non-finite cost")

        with pytest.raises(FloatingPointError, match="non-finite cost"):
            levenberg_marquardt(NanSystem(), np.zeros(6), 32)


# stop_steps of one (r1 r2 r3 x y z) pose
POSE_STEPS = np.repeat([STOP_ROTATION, STOP_TRANSLATION], 3)


class DriftingSystem:
    """r = params - target, where every freeze moves the target by the next
    drift (one row per parameter), so each outer iteration moves the
    parameters by about that drift. It stops by the steps of three poses
    unless given its own."""

    def __init__(self, drifts, stop_steps=np.tile(POSE_STEPS, 3)):
        self.drifts = list(drifts)
        self.target = None
        self.stop_steps = stop_steps

    def freeze(self, params):
        self.target = params + self.drifts.pop(0)

    def residuals(self, params):
        return params - self.target

    def linearize(self, params):
        return SimpleNamespace(jtj=np.eye(len(params)), jtr=lambda r: r)


class TestStoppingRule:
    @staticmethod
    def drift(rot, trans, n_poses=3, pose=1):
        d = np.zeros((n_poses, 6))
        d[pose, :3] = rot
        d[pose, 3:] = trans
        return d.ravel()

    def test_stops_once_poses_move_less_than_thresholds(self):
        # every drift below both thresholds: the first outer iteration stops
        drift = self.drift(0.9 * STOP_ROTATION, 0.9 * STOP_TRANSLATION)
        params, _, converged, iterations = levenberg_marquardt(
            DriftingSystem([drift] * 10), np.zeros(18), 10
        )
        assert converged and iterations == 1
        assert np.allclose(params, drift, rtol=1e-6)
        # halving 1 mm steps: 1, 0.5, 0.25, 0.125 mm move, 0.0625 mm stops
        drifts = [self.drift(0.0, 1e-3 / 2**k) for k in range(10)]
        _, _, converged, iterations = levenberg_marquardt(
            DriftingSystem(drifts), np.zeros(18), 10
        )
        assert converged and iterations == 5

    @pytest.mark.parametrize("rot, trans", [(0.0, 1e-3), (2 * STOP_ROTATION, 0.0)])
    def test_keeps_going_while_a_pose_moves(self, rot, trans):
        drift = self.drift(rot, trans)
        _, history, converged, iterations = levenberg_marquardt(
            DriftingSystem([drift] * 6), np.zeros(18), 6
        )
        assert not converged and iterations == 6
        assert len(history) == 12

    def test_never_accepted_step_stops(self):
        class Flat:
            stop_steps = POSE_STEPS

            def freeze(self, params):
                pass

            def residuals(self, params):
                return np.ones(6)

            def linearize(self, params):
                return DriftingSystem([]).linearize(params)

        start = np.arange(6.0)
        params, history, converged, iterations = levenberg_marquardt(
            Flat(), start, 5
        )
        assert converged and iterations == 1
        assert np.array_equal(params, start)
        assert history == [6.0, 6.0]


    def test_stops_by_the_systems_own_steps(self):
        # four scalar parameters, no pose among them: the driver reads the
        # layout from stop_steps alone
        steps = np.array([1e-3, 1e-6, 1.0, 0.5])
        params, _, converged, iterations = levenberg_marquardt(
            DriftingSystem([0.9 * steps] * 4, steps), np.zeros(4), 4
        )
        assert converged and iterations == 1
        assert np.allclose(params, 0.9 * steps, rtol=1e-6)
        # parameter 1 moving twice its step, less than any pose's step,
        # keeps the solve going
        drift = 0.9 * steps
        drift[1] = 2 * steps[1]
        _, _, converged, iterations = levenberg_marquardt(
            DriftingSystem([drift] * 4, steps), np.zeros(4), 4
        )
        assert not converged and iterations == 4


class Stubborn:
    """One parameter whose every trial step but the tries-th of the solve
    costs more than the start; any move counts as converged."""

    stop_steps = np.array([np.inf])

    def __init__(self, tries):
        self.tries = tries
        self.trials = -1  # the first residual call is at the frozen parameters

    def freeze(self, params):
        pass

    def residuals(self, params):
        self.trials += 1
        return np.array([0.5 if self.trials == self.tries else 1.0 if self.trials == 0 else 2.0])

    def linearize(self, params):
        return SimpleNamespace(jtj=np.eye(1), jtr=lambda r: r)


class TestLambdaRetries:
    def test_twelfth_try_is_taken(self):
        system = Stubborn(12)
        params, history, converged, iterations = levenberg_marquardt(system, np.zeros(1), 3)
        assert params[0] < 0.0 and history == [1.0, 0.25]
        assert converged and iterations == 1
        # the second inner iteration's 12 tries all fail
        assert system.trials == 24

    def test_thirteenth_try_is_never_made(self):
        system = Stubborn(13)
        params, history, converged, iterations = levenberg_marquardt(system, np.zeros(1), 3)
        assert np.array_equal(params, np.zeros(1)) and history == [1.0, 1.0]
        assert converged and iterations == 1
        assert system.trials == 12


class TestGravityResidual:
    UP = np.array([0.0, 0, 1.0])

    def test_aligned_zero(self):
        r = gravity_residual(np.eye(3)[None], self.UP[None], np.array([2.0]))
        assert r.shape == (1, 3)
        assert np.allclose(r, 0.0)

    def test_ten_degrees_off_chord_length(self):
        tilt = Pose(np.deg2rad(10.0) * np.array([1.0, 0, 0]), np.zeros(3))
        r = gravity_residual(tilt.matrix()[None], self.UP[None], np.array([1.0]))
        assert np.linalg.norm(r) == pytest.approx(2 * np.sin(np.deg2rad(5.0)), abs=1e-12)

    def test_weight_scales(self):
        tilt = Pose(np.deg2rad(10.0) * np.array([1.0, 0, 0]), np.zeros(3))
        rots = np.stack([tilt.matrix(), tilt.matrix()])
        r = gravity_residual(rots, np.stack([self.UP, self.UP]), np.array([1.0, 5.0]))
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
        grav_jac = system.linearize(params).dense
        n_grav = 3 * len(constraints)
        assert grav_jac.shape == (n_grav, len(params))
        h = 1e-6
        for q in range(len(params)):
            d = np.zeros(len(params))
            d[q] = h
            secant = (system.residuals(params + d) - system.residuals(params - d))[-n_grav:] / (2 * h)
            assert np.allclose(grav_jac[:, q], secant, rtol=1e-6, atol=1e-9)


class TestAdjustmentProblem:
    @pytest.mark.parametrize("fixed_points", [np.zeros((50, 6)), np.full((4, 3), np.nan)])
    def test_rejects_fixed_points_that_are_not_finite_rows_of_three(self, fixed_points):
        # a (50, 6) array would be read as (100, 3) points, and a NaN point
        # would fail later as a voxel index out of packable range
        with pytest.raises(ValueError, match="fixed_points"):
            AdjustmentProblem(
                clouds=[PointCloud(points=np.zeros((4, 3)))], initial_poses=[Pose.identity()],
                fixed_points=fixed_points,
            )

    @pytest.mark.parametrize("planarity_min", [np.nan, 2.0, -1.0])
    def test_rejects_planarity_min_outside_unit_interval(self, planarity_min):
        # above 1 or NaN no landmark could split; below 0 every one would be tested
        clouds = [PointCloud(points=np.zeros((4, 3)))] * 2
        with pytest.raises(ValueError, match="planarity_min"):
            AdjustmentProblem(
                clouds=clouds, initial_poses=[Pose.identity()] * 2,
                split_normals=True, planarity_min=planarity_min,
            )

    @pytest.mark.parametrize("cloud_id", [-1, 3, 1.0])
    def test_rejects_gravity_cloud_id_outside_the_clouds(self, cloud_id):
        # -1 would read the last cloud's residual with no Jacobian row, and
        # 3 would index past the clouds
        clouds = [PointCloud(points=np.zeros((4, 3)))] * 3
        up = np.array([0.0, 0, 1.0])
        with pytest.raises(ValueError, match="cloud_id"):
            AdjustmentProblem(
                clouds=clouds, initial_poses=[Pose.identity()] * 3,
                gravity_constraints=[GravityConstraint(cloud_id, up, 1.0)],
            )
        AdjustmentProblem(
            clouds=clouds, initial_poses=[Pose.identity()] * 3,
            gravity_constraints=[GravityConstraint(np.int64(2), up, 1.0)],
        )


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
        # anchors that fill only cells of their own make no landmark either:
        # their rows would be constant
        rng = np.random.default_rng(11)
        a = PointCloud(points=rng.uniform(0, 0.3, size=(4, 3)))
        b = PointCloud(points=rng.uniform(0, 0.3, size=(4, 3)) + [10.0, 0, 0])
        for fixed in (None, rng.uniform(5.0, 5.3, size=(50, 3))):
            prob = AdjustmentProblem(
                clouds=[a, b], initial_poses=[Pose.identity(), Pose.identity()], fixed_points=fixed
            )
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


def dense_rigid_jacobian(system, at):
    """The keyframe system's Jacobian at `at`, formed row by row from its
    residual definition. A moving cluster of landmark j, at the pose of
    cloud c with sensor-frame mean q and scatter factor columns f_i, moves
    its mean projection e = w_j . (R q + t) by w_j under t and by
    ((R q) x w_j)^T J_l(r) under r, and its scatter row w_j . R f_i by
    ((R f_i) x w_j)^T J_l(r), in the columns of its cloud's band; a cluster
    of a pinned cloud (no band) does not move, nor does a fixed cluster,
    which has a mean row alone. The mean row sqrt(n_c) (e_c - sum n_c' e_c'
    / n_j) moves by sqrt(n_c) (de_c - S_j / n_j), S_j the size-weighted sum
    of landmark j's mean motions. The rows are the moving clusters' mean
    rows, their rows of each scatter column in turn, the fixed clusters'
    mean rows, then per gravity constraint w (R d - up), which moves by
    -w [R d]x J_l(r)."""
    lms, bodies = system.landmarks, system.bodies
    poses = system.poses(at)
    n_moving, n_clusters, n_params = len(system.cluster_pose), len(lms.cluster_lm), len(at)
    n_factors = system.cluster_columns.shape[1] - 1
    mean = np.zeros((n_clusters, n_params))
    scatter = np.zeros((n_factors, n_moving, n_params))
    for n, c in enumerate(system.cluster_pose):
        k = bodies.band[c]
        if k < 0:
            continue
        rot, jac = poses[c].matrix(), left_jacobian(poses[c].rotvec)
        white = lms.white_lm[lms.cluster_lm[n]]
        q, factor = system.cluster_columns[:, 0, n], system.cluster_columns[:, 1:, n]
        mean[n, 6 * k : 6 * k + 3] = np.cross(rot @ q, white) @ jac
        mean[n, 6 * k + 3 : 6 * k + 6] = white
        for i in range(n_factors):
            scatter[i, n, 6 * k : 6 * k + 3] = np.cross(rot @ factor[:, i], white) @ jac
    sums = np.zeros((lms.n_landmarks, n_params))
    for n in range(n_clusters):
        sums[lms.cluster_lm[n]] += lms.cluster_sizes[n] * mean[n]
    rows = [np.sqrt(lms.cluster_sizes[n]) * (mean[n] - sums[j] / lms.counts[j])
            for n, j in enumerate(lms.cluster_lm)]
    rows[n_moving:n_moving] = list(scatter.reshape(-1, n_params))
    for con in system.problem.gravity_constraints:
        row = np.zeros((3, n_params))
        k = bodies.band[con.cloud_id]
        if k >= 0:
            pose = poses[con.cloud_id]
            up = pose.matrix() @ con.direction_local
            cross = np.cross(up, np.eye(3))  # row i is up x e_i, so its transpose is [up]x
            row[:, 6 * k : 6 * k + 3] = -con.weight * cross.T @ left_jacobian(pose.rotvec)
        rows.extend(row)
    return np.array(rows)


def room_with_gravity(anchored):
    """Four room scans near truth with gravity rows, the first pinned or,
    anchored, its points at truth as fixed points; and the rng to go on with."""
    ds = small_room(points_per_scan=600, duration=0.4)
    rng = np.random.default_rng(18)
    truth = ds.truth_poses
    init = [truth[0]] + [sample_pert(rng, 0.05, 1.0).compose(p) for p in truth[1:]]
    up = np.array([0.0, 0, 1.0])
    first = 1 if anchored else 0
    prob = AdjustmentProblem(
        clouds=ds.scans[first:], initial_poses=init[first:],
        fixed_points=truth[0].apply(ds.scans[0].points) if anchored else None,
        gravity_constraints=[
            GravityConstraint(cloud_id=i, direction_local=pose.matrix().T @ up, weight=2.0)
            for i, pose in enumerate(truth[first:])
        ],
    )
    return prob, rng


@pytest.mark.parametrize("anchored", [False, True])
def test_rigid_normal_equations_match_dense_jacobian(anchored):
    # exact, where the secant checks hold to 1e-6: cluster mean and scatter
    # rows, mean removal, a pinned first cloud or fixed clusters of anchor
    # points, and gravity rows
    prob, rng = room_with_gravity(anchored)
    system, params = frozen_system(prob, prob.initial_poses)
    assert system.free == list(range(0 if anchored else 1, len(prob.clouds)))
    assert (len(system.landmarks.cluster_lm) > len(system.cluster_pose)) == anchored
    at = params + 1e-3 * rng.normal(size=len(params))
    jac = dense_rigid_jacobian(system, at)
    r = system.residuals(at)
    assert jac.shape == (len(r), len(at))
    lin = system.linearize(at)
    jtj, jtr = jac.T @ jac, jac.T @ r
    assert np.abs(lin.jtj - jtj).max() <= 1e-10 * np.abs(jtj).max()
    assert np.abs(lin.jtr(r) - jtr).max() <= 1e-10 * np.abs(jtr).max()


def test_anchors_score_as_fixed_clusters():
    # the same normal equations and step as one row per anchor point; the
    # cost less each landmark's anchor scatter along its w_j. A far block of
    # anchors makes landmarks of its own, which no cloud reaches
    prob, rng = room_with_gravity(anchored=True)
    far = rng.uniform(0.0, 0.4, size=(30, 3)) + [200.0, 0.0, 0.0]
    prob = dataclasses.replace(prob, fixed_points=np.vstack([prob.fixed_points, far]))
    system, params = frozen_system(prob, prob.initial_poses)
    ref = per_member(system, prob.fixed_points, params)
    at = params + 1e-3 * rng.normal(size=len(params))
    lin, r = system.linearize(at), system.residuals(at)
    lin_ref, r_ref = ref.linearize(at), ref.residuals(at)
    jtr, jtr_ref = lin.jtr(r), lin_ref.jtr(r_ref)
    assert np.abs(lin.jtj - lin_ref.jtj).max() <= 1e-9 * np.abs(lin_ref.jtj).max()
    assert np.abs(jtr - jtr_ref).max() <= 1e-9 * np.abs(jtr_ref).max()
    step, step_ref = lm_step(lin.jtj, jtr, 1e-4), lm_step(lin_ref.jtj, jtr_ref, 1e-4)
    assert np.abs(step - step_ref).max() <= 1e-9 * np.abs(step_ref).max()
    # each landmark's anchors' scatter about their own mean, along w_j,
    # anchor-only landmarks included
    lms = ref.landmarks
    assert lms.n_landmarks > system.landmarks.n_landmarks
    anchor = ref.cluster_pose == len(system.bodies.band)
    anchor_lm, points = lms.cluster_lm[: len(anchor)][anchor], ref.cluster_columns[:, 0, anchor].T
    scatter = 0.0
    for j in np.unique(anchor_lm):
        own = points[anchor_lm == j]
        scatter += np.sum(((own - own.mean(axis=0)) @ lms.white_lm[j]) ** 2)
    assert scatter > 1e-3 * (r @ r)
    assert r_ref @ r_ref - r @ r == pytest.approx(scatter, rel=1e-9)


def test_landmark_residuals_sum_to_zero_per_landmark():
    # each landmark's mean rows rho_c are weighted mean-free,
    # sum_c sqrt(n_c) rho_c = 0, which is why J^T r needs no landmark-mean term
    ds = small_room(points_per_scan=800, duration=0.2)
    rng = np.random.default_rng(17)
    truth = ds.truth_poses
    init = [truth[0]] + [sample_pert(rng, 0.05, 1.0).compose(p) for p in truth[1:]]
    up = np.array([0.0, 0, 1.0])
    prob = AdjustmentProblem(
        clouds=ds.scans, initial_poses=init,
        gravity_constraints=[GravityConstraint(cloud_id=1, direction_local=up, weight=2.0)],
    )
    system, params = frozen_system(prob, init)
    lms = system.landmarks
    n_clusters = len(system.landmarks.cluster_lm)
    assert n_clusters < lms.cluster_sizes.sum()
    for at in (params, params + 1e-2 * rng.normal(size=len(params))):
        rho = system.residuals(at)[:n_clusters]  # the mean rows come first
        weighted = np.sqrt(system.landmarks.cluster_sizes) * rho
        sums = lms.sums(weighted, system.landmarks.cluster_lm)
        assert np.abs(sums).max() <= 1e-12 * np.abs(weighted).max() * lms.counts.max()


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
        pts = np.vstack([front, back])
        plain = frozen_groups(*frozen_system(prob_plain, prob_plain.initial_poses))
        split = frozen_groups(*frozen_system(prob_split, prob_split.initial_poses))
        assert len(split["counts"]) > len(plain["counts"])
        # the two halves of a split landmark take its place in the order, and
        # together hold its members, which lie in one cell at its level
        voxel = prob_split.voxel
        n_coarse = len(_level_groups(pts, voxel.coarse_size, voxel.n_min)[2])
        plain_rows = np.split(plain["member_row"], np.cumsum(plain["counts"])[:-1])
        split_rows = np.split(split["member_row"], np.cumsum(split["counts"])[:-1])
        k, halved = 0, 0
        for g, rows in enumerate(plain_rows):
            if np.array_equal(split_rows[k], rows):
                k += 1
                continue
            halves = np.concatenate(split_rows[k : k + 2])
            assert np.array_equal(np.sort(halves), np.sort(rows))
            size = voxel.coarse_size if g < n_coarse else voxel.fine_size
            assert len(np.unique(voxel_cell_indices(pts[halves], size), axis=0)) == 1
            k, halved = k + 2, halved + 1
        assert k == len(split_rows) and halved > 0

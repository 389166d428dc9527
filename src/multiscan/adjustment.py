"""Joint fine registration of multiple scans against voxel landmarks.

The optimizer minimizes, over the scan poses, the Mahalanobis scatter of
all transformed points within their voxel cells:

    sum_j (1 / n_j) * sum_k (p_k - mu_j)^T inv(Sigma_j) (p_k - mu_j)

Each outer iteration of `levenberg_marquardt` freezes the landmarks at the
current parameters: it re-voxelizes the merged cloud and recomputes the
per-cell statistics. It then takes up to `inner_iterations` accepted damped
Gauss-Newton steps on the whitened per-member residuals of
`FrozenLandmarks`, with a Jacobian from central differences of the point
motion. During those steps only the membership and the inverse covariances
are held constant; the cell means follow the moving points, so every cell
scores the current scatter of its own members. A cell whose members move
rigidly together is invariant, while a cell mixing misaligned scans is
driven toward agreement. Cells full of inconsistent geometry (dynamic
objects) keep a broad covariance and therefore little weight, which is why
no outlier rejection is needed.

Neither `FrozenLandmarks` nor `levenberg_marquardt` knows how the points
move. Keyframe adjustment moves each cloud rigidly and adds gravity rows
(`_RigidSystem`, here); the odometry window moves points along a
continuous-time spline and adds IMU and prior rows (`multiscan.pipeline`).

Fixed points (for example the points of anchor keyframes) take part in
voxelization, in the cell means and in the error sums, but carry no
parameters; they anchor the free scans to previously established
structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from multiscan.geometry import Pose, PointCloud
from multiscan.landmarks import VoxelConfig, dual_grid_groups, split_by_normals

# central-difference step for every rotation-vector and translation parameter
FD_STEP = 1e-6


class InsufficientStructureError(RuntimeError):
    """No voxel collected enough points to form a single landmark."""


@dataclass
class LMConfig:
    """Levenberg-Marquardt schedule and termination thresholds."""

    lambda_init: float = 1e-4
    lambda_up: float = 10.0
    lambda_down: float = 0.5
    max_outer_iterations: int = 32
    cost_rel_tol: float = 1e-8
    step_norm_tol: float = 1e-8
    max_lambda_retries: int = 12
    inner_iterations: int = 2

    def __post_init__(self):
        if not (self.lambda_up > 1.0 > self.lambda_down > 0.0):
            raise ValueError("require lambda_up > 1 > lambda_down > 0")
        for name in ("lambda_init", "max_outer_iterations", "cost_rel_tol", "step_norm_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class GravityConstraint:
    """Ties cloud_id's body-frame direction to a common world direction."""

    cloud_id: int
    direction_local: np.ndarray
    weight: float


@dataclass
class AdjustmentProblem:
    clouds: list[PointCloud]
    initial_poses: list[Pose]
    fixed_points: np.ndarray | None = None
    gravity_constraints: list[GravityConstraint] = field(default_factory=list)
    gravity_world_dir: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    split_normals: bool = False
    planarity_min: float = 0.5
    fix_first_pose: bool | None = None
    voxel: VoxelConfig = field(default_factory=VoxelConfig)

    def __post_init__(self):
        if len(self.clouds) != len(self.initial_poses):
            raise ValueError("one initial pose per cloud required")
        if self.fixed_points is not None:
            self.fixed_points = np.asarray(self.fixed_points, dtype=float).reshape(-1, 3)

    def first_pose_fixed(self) -> bool:
        # without full anchoring the problem has a free rigid gauge; pin it
        # to the first scan, mirroring a reference-cloud formulation.
        # Gravity constraints pin only roll and pitch, so they do not count:
        # translation and yaw would stay free and the solution would wander.
        if self.fix_first_pose is not None:
            return self.fix_first_pose
        return not (self.fixed_points is not None and len(self.fixed_points) > 0)

    def free_indices(self) -> list[int]:
        start = 1 if self.first_pose_fixed() else 0
        idx = list(range(start, len(self.clouds)))
        if not idx:
            raise ValueError("problem has no free pose")
        return idx


@dataclass
class AdjustmentResult:
    poses: list[Pose]
    cost_history: list[float]
    converged: bool
    iterations: int


def _cloud_offsets(problem: AdjustmentProblem) -> np.ndarray:
    sizes = [len(c) for c in problem.clouds]
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)


def freeze_landmarks(problem: AdjustmentProblem, poses: list[Pose]) -> tuple[np.ndarray, dict]:
    """Voxelize the merged world cloud and compute per-cell statistics.

    Returns the world-frame point stack [cloud 0, ..., cloud n-1, fixed]
    and its landmarks in the layout of `dual_grid_groups`. With
    split_normals enabled, planar cells whose member normals oppose each
    other are divided into front and back landmarks. Splitting needs
    normals and planarity on every member, so cells touching
    attribute-free points are left whole.
    """
    chunks = [pose.apply(cloud.points) for cloud, pose in zip(problem.clouds, poses)]
    if problem.fixed_points is not None and len(problem.fixed_points):
        chunks.append(problem.fixed_points)
    pts = np.vstack(chunks)
    voxel = problem.voxel
    groups = dual_grid_groups(
        pts,
        coarse_size=voxel.coarse_size,
        fine_size=voxel.fine_size,
        n_min=voxel.n_min,
        epsilon=voxel.epsilon,
    )
    if groups is None:
        raise InsufficientStructureError(
            "insufficient overlap/structure: no voxel exceeds the landmark threshold"
        )
    if problem.split_normals:
        normals_w, planarity = _stacked_attributes(problem, poses)
        groups = split_by_normals(
            groups, pts, normals_w, planarity,
            planarity_min=problem.planarity_min,
            n_min=voxel.n_min,
            epsilon=voxel.epsilon,
        )
    return pts, groups


def _stacked_attributes(problem: AdjustmentProblem, poses: list[Pose]):
    """World-frame normals and planarity aligned with the point stack."""
    normal_chunks, plan_chunks = [], []
    for cloud, pose in zip(problem.clouds, poses):
        if cloud.normals is None or cloud.planarity is None:
            normal_chunks.append(np.zeros((len(cloud), 3)))
            plan_chunks.append(np.full(len(cloud), np.nan))
        else:
            normal_chunks.append(cloud.normals @ pose.matrix().T)
            plan_chunks.append(cloud.planarity)
    if problem.fixed_points is not None and len(problem.fixed_points):
        normal_chunks.append(np.zeros((len(problem.fixed_points), 3)))
        plan_chunks.append(np.full(len(problem.fixed_points), np.nan))
    return np.vstack(normal_chunks), np.concatenate(plan_chunks)


def lm_step(jacobian: np.ndarray, errors: np.ndarray, lam: float) -> np.ndarray:
    """Damped normal-equation step: (J^T J + lam diag(J^T J)) d = -J^T e.

    The damping diagonal is floored relative to its largest entry so that
    directions the residuals barely observe (gauge or near-gauge motions)
    stay damped instead of soaking up huge steps from numerical noise.
    """
    jtj = jacobian.T @ jacobian
    diag = np.diag(jtj).copy()
    floor = max(1e-6 * diag.max(), 1e-12)
    diag[diag < floor] = floor
    lhs = jtj + lam * np.diag(diag)
    return np.linalg.solve(lhs, -(jacobian.T @ errors))


def gravity_residual(
    rots: np.ndarray, directions_local: np.ndarray, g_world: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """weights * (R @ local_direction - world_direction) for unit directions,
    stacked over constraints: rots (..., 3, 3) to rows (..., 3)."""
    return weights[..., None] * ((rots @ directions_local[..., None])[..., 0] - g_world)


class FrozenLandmarks:
    """Whitened per-member residuals of one frozen set of landmarks.

    Built from the arrays of `dual_grid_groups` (or `split_by_normals`).
    Stacking one whitened 3-vector per member k of landmark j,

        r_k = sqrt(w_j) * chol(inv(Sigma_j))^T (d_k - mean(d_j)),  w_j = 1 / n_j,

    with d_k = p_k - mu_j, makes sum |r_k|^2 equal the scatter cost while
    the residuals stay affine in the point positions, so damped
    normal-equation steps land on the frozen optimum instead of
    extrapolating an already-quadratic error toward zero. Membership and
    inverse covariances are frozen; each cell's mean follows its members.
    Because whitening and mean removal are linear, moving some members
    changes r by their own whitened displacement plus a per-landmark mean
    shift gathered back to every member (`column`).
    """

    def __init__(self, groups: dict):
        self.member_row = groups["member_row"]
        self.member_lm = groups["member_group"]
        self.counts = groups["counts"].astype(float)
        self.mu_ref = groups["means"]
        self.n_landmarks = len(self.counts)
        self.chol = np.linalg.cholesky(groups["inv_covs"])
        self.chol_m = self.chol[self.member_lm]
        self.sw_m = np.sqrt(1.0 / self.counts)[self.member_lm][:, None]

    def _lm_sums(self, lm: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.stack(
            [np.bincount(lm, weights=values[:, a], minlength=self.n_landmarks) for a in range(3)],
            axis=1,
        )

    def residuals(self, points: np.ndarray) -> np.ndarray:
        """Residual vector (3 per member) with the members at rows of points."""
        d = points[self.member_row] - self.mu_ref[self.member_lm]
        dbar = self._lm_sums(self.member_lm, d) / self.counts[:, None]
        centered = d - dbar[self.member_lm]
        return (self.sw_m * np.einsum("nji,nj->ni", self.chol_m, centered)).ravel()

    def column(self, rows: np.ndarray, moved: np.ndarray) -> np.ndarray:
        """Change of the residual vector when members rows move by moved."""
        s = self._lm_sums(self.member_lm[rows], moved)
        shift_lm = -np.einsum("lji,lj->li", self.chol, s / self.counts[:, None])
        own = self.sw_m[rows] * np.einsum("nji,nj->ni", self.chol_m[rows], moved)
        return self.spread(shift_lm, rows, own)

    def spread(self, shift_lm: np.ndarray, rows: np.ndarray, own: np.ndarray) -> np.ndarray:
        """Per-landmark whitened mean shifts on every member, plus own on rows."""
        col = self.sw_m * shift_lm[self.member_lm]
        col[rows] += own
        return col.ravel()


class _RigidSystem:
    """Rigid point-motion model of keyframe adjustment, with gravity rows.

    Parameters are the free poses' (r1 r2 r3 x y z) blocks in free-index
    order. Perturbing one pose moves only that cloud's members, so each
    Jacobian column is one `FrozenLandmarks` column.
    """

    def __init__(self, problem: AdjustmentProblem):
        self.problem = problem
        self.free = problem.free_indices()
        self.offsets = _cloud_offsets(problem)
        cons = problem.gravity_constraints
        self.grav_cloud = np.array([c.cloud_id for c in cons], dtype=np.int64)
        self.grav_local = np.array([c.direction_local for c in cons], dtype=float).reshape(-1, 3)
        self.grav_weight = np.array([c.weight for c in cons], dtype=float)

    def poses(self, params: np.ndarray) -> list[Pose]:
        out = list(self.problem.initial_poses)
        for k, ci in enumerate(self.free):
            out[ci] = Pose.from_params(params[6 * k : 6 * k + 6])
        return out

    def freeze(self, params: np.ndarray) -> None:
        # the point stack doubles as a world-point buffer: only free clouds move
        self.world, groups = freeze_landmarks(self.problem, self.poses(params))
        self.landmarks = lms = FrozenLandmarks(groups)
        self.cloud_rows, self.cloud_raw, self.cloud_ratio = {}, {}, {}
        for ci in self.free:
            lo, hi = self.offsets[ci], self.offsets[ci + 1]
            rows = np.nonzero((lms.member_row >= lo) & (lms.member_row < hi))[0]
            self.cloud_rows[ci] = rows
            self.cloud_raw[ci] = self.problem.clouds[ci].points[lms.member_row[rows] - lo]
            self.cloud_ratio[ci] = (
                np.bincount(lms.member_lm[rows], minlength=lms.n_landmarks) / lms.counts
            )

    def _member_residuals(self, poses: list[Pose]) -> np.ndarray:
        for ci in self.free:
            self.world[self.offsets[ci] : self.offsets[ci + 1]] = poses[ci].apply(
                self.problem.clouds[ci].points
            )
        return self.landmarks.residuals(self.world)

    def _gravity_residuals(self, poses: list[Pose]) -> np.ndarray:
        rots = np.stack([pose.matrix() for pose in poses])[self.grav_cloud]
        return gravity_residual(
            rots, self.grav_local, self.problem.gravity_world_dir, self.grav_weight
        ).ravel()

    def residuals(self, params: np.ndarray) -> np.ndarray:
        poses = self.poses(params)
        r = self._member_residuals(poses)
        return np.concatenate([r, self._gravity_residuals(poses)])

    def cost(self, params: np.ndarray) -> float:
        poses = self.poses(params)
        r = self._member_residuals(poses)
        extras = self._gravity_residuals(poses)
        return float(r @ r + extras @ extras)

    def jacobian(self, params: np.ndarray, step: float = FD_STEP):
        """Central-difference Jacobian of residuals(params), and the residuals."""
        lms = self.landmarks
        n_lm_rows = 3 * len(lms.member_lm)
        jac = np.zeros((n_lm_rows + 3 * len(self.grav_cloud), len(params)))
        # gravity rows, one block of 3 per constraint; translation never
        # enters them, and a rotation moves only its own cloud's constraints
        grav_jac = jac[n_lm_rows:].reshape(-1, 3, len(params))
        for k, ci in enumerate(self.free):
            rows = self.cloud_rows[ci]
            base = params[6 * k : 6 * k + 6]
            own = self.grav_cloud == ci
            for p in range(6):
                if p >= 3:
                    # translation: every member of this cloud moves by the
                    # same 2h step along one axis; whitened contribution is
                    # a Cholesky row scaled by the cloud's member share
                    axis = p - 3
                    shift_lm = -2.0 * step * lms.chol[:, axis, :] * self.cloud_ratio[ci][:, None]
                    own = lms.sw_m[rows] * (2.0 * step) * lms.chol_m[rows, axis, :]
                    col = lms.spread(shift_lm, rows, own)
                else:
                    delta = np.zeros(6)
                    delta[p] = step
                    rot_p = Pose.from_params(base + delta)
                    rot_m = Pose.from_params(base - delta)
                    mat_p, mat_m = rot_p.matrix(), rot_m.matrix()
                    moved = self.cloud_raw[ci] @ (mat_p - mat_m).T + (rot_p.trans - rot_m.trans)
                    col = lms.column(rows, moved)
                    grav = gravity_residual(
                        np.stack([mat_p, mat_m])[:, None], self.grav_local[own],
                        self.problem.gravity_world_dir, self.grav_weight[own],
                    )
                    grav_jac[own, :, 6 * k + p] = (grav[0] - grav[1]) / (2.0 * step)
                jac[:n_lm_rows, 6 * k + p] = col / (2.0 * step)
        return jac, self.residuals(params)


def levenberg_marquardt(system, params: np.ndarray, config: LMConfig):
    """Minimize a system's cost over a flat parameter vector.

    system provides freeze(params), which fixes its landmarks at params;
    cost(params) and residuals(params) against the frozen landmarks; and
    jacobian(params), which returns the Jacobian and the residuals. Every
    outer iteration freezes at the current parameters and then takes up to
    inner_iterations accepted damped steps; later steps reuse the first
    Jacobian with fresh residuals, since the residuals are near-affine in
    the parameters over one pass. A step is only accepted if it strictly
    decreases the frozen cost, so the recorded (linearization, accepted)
    cost pairs are non-increasing within every outer iteration. Terminates
    when the outer improvement falls below cost_rel_tol, the parameter step
    norm falls below step_norm_tol (as when no step is accepted), or the
    iteration budget runs out.

    Returns (params, cost_history, converged, iterations).
    """
    history: list[float] = []
    converged = False
    iterations = 0
    for outer in range(config.max_outer_iterations):
        iterations = outer + 1
        jac = None  # release the last pass's Jacobian before building the next
        system.freeze(params)
        cost_outer = system.cost(params)
        history.append(cost_outer)
        lam = config.lambda_init
        cost_cur = cost_outer
        step_norm = 0.0
        for inner in range(config.inner_iterations):
            if inner == 0:
                jac, r_all = system.jacobian(params)
            else:
                r_all = system.residuals(params)
            accepted = None
            for _ in range(config.max_lambda_retries):
                try:
                    delta = lm_step(jac, r_all, lam)
                except np.linalg.LinAlgError:
                    lam *= config.lambda_up
                    continue
                if float(np.linalg.norm(delta)) < config.step_norm_tol:
                    break
                trial = params + delta
                trial_cost = system.cost(trial)
                if trial_cost < cost_cur:
                    accepted = (trial, trial_cost, float(np.linalg.norm(delta)))
                    break
                lam *= config.lambda_up
            if accepted is None:
                break
            params, cost_cur, inner_step = accepted
            step_norm += inner_step
            lam = max(lam * config.lambda_down, 1e-12)
        history.append(cost_cur)
        rel_drop = (cost_outer - cost_cur) / max(cost_outer, np.finfo(float).tiny)
        if rel_drop < config.cost_rel_tol or step_norm < config.step_norm_tol:
            converged = True
            break
    return params, history, converged, iterations


def run_adjustment(problem: AdjustmentProblem, config: LMConfig | None = None) -> AdjustmentResult:
    """Adjust the free poses of problem by `levenberg_marquardt`."""
    system = _RigidSystem(problem)
    params0 = np.concatenate([problem.initial_poses[ci].as_params() for ci in system.free])
    params, history, converged, iterations = levenberg_marquardt(
        system, params0, config or LMConfig()
    )
    return AdjustmentResult(system.poses(params), history, converged=converged, iterations=iterations)


def relative_pose_errors(
    poses_a: list[Pose], poses_b: list[Pose]
) -> tuple[float, float]:
    """Worst translation (m) and rotation (rad) gap between relative poses.

    Compares pose_0^-1 pose_i across the two sets, so a common rigid offset
    (the free gauge of a registration solution) does not count as error.
    """
    worst_t, worst_r = 0.0, 0.0
    ref_a = poses_a[0].inverse()
    ref_b = poses_b[0].inverse()
    for pa, pb in zip(poses_a, poses_b):
        rel_a = ref_a.compose(pa)
        rel_b = ref_b.compose(pb)
        gap = rel_a.inverse().compose(rel_b)
        worst_t = max(worst_t, float(np.linalg.norm(gap.trans)))
        worst_r = max(worst_r, float(np.linalg.norm(gap.rotvec)))
    return worst_t, worst_r

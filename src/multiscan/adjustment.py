"""Joint fine registration of multiple scans against voxel landmarks.

The optimizer minimizes, over the scan poses, the Mahalanobis scatter of
all transformed points within their voxel cells:

    sum_j (1 / n_j) * sum_k (p_k - mu_j)^T Omega_j (p_k - mu_j)

where Omega_j weights cell j by its covariance (see `FrozenLandmarks`).

Each outer iteration of `levenberg_marquardt` freezes the landmarks at the
current parameters: it re-voxelizes the merged cloud and recomputes the
per-cell statistics. It then takes up to INNER_ITERATIONS accepted damped
Gauss-Newton steps on the whitened per-member residuals of
`FrozenLandmarks`. The steps solve normal equations that a `Linearization`
assembles band by band from each member's own motion and per-landmark
sums, never forming the dense Jacobian; J^T J is built once per outer
iteration. A band is a set of members that move only with the same few
parameter columns: one free cloud's pose here, one spline segment's
control poses in the odometry window. Translations move points linearly;
every rotation column, here and in the window, is the closed form
`turned_motion` of a turn w = J_l(r) dr (`geometry.left_jacobian`).
During those steps only the membership and the inverse covariances are
held constant; the cell means follow the moving points, so every cell
scores the current scatter of its own members. A cell whose members move
rigidly together is invariant, while a cell mixing misaligned scans is
driven toward agreement. Cells full of inconsistent geometry (dynamic
objects) keep a broad covariance and therefore little weight, which is
why no outlier rejection is needed.

Neither `FrozenLandmarks` nor `levenberg_marquardt` knows how the points
move. The driver sees a system only through three methods, freeze,
residuals and linearize, and its parameters as a stack of 6-blocks
(rotation vector, translation). Its damping schedule (LAMBDA_INIT,
LAMBDA_UP, LAMBDA_DOWN), INNER_ITERATIONS and its one stopping rule are
module constants: it stops once an outer iteration moved no block by more
than STOP_TRANSLATION in a translation or STOP_ROTATION in a rotation
parameter. `LMConfig` holds only the two budgets callers set. Keyframe
adjustment moves each cloud rigidly and adds gravity rows (`_RigidSystem`,
here); the odometry window moves points along a continuous-time spline and
adds IMU and prior rows (`multiscan.pipeline`).

Fixed points (for example the points of anchor keyframes) take part in
voxelization, in the cell means and in the error sums, but carry no
parameters; they anchor the free scans to previously established
structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from multiscan.geometry import Pose, PointCloud, left_jacobian, rotvec_to_matrix
from multiscan.landmarks import VoxelConfig, dual_grid_groups, regularized_inverse, split_by_normals

# world direction that every gravity constraint ties its cloud's direction to
GRAVITY_UP = np.array([0.0, 0.0, 1.0])


class InsufficientStructureError(RuntimeError):
    """No voxel collected enough points to form a single landmark."""


# damping schedule of `levenberg_marquardt`
LAMBDA_INIT = 1e-4
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.5
INNER_ITERATIONS = 2
# stopping rule: converged once no 6-block moved more than these in any
# translation (m) or rotation (rad) parameter over one outer iteration
STOP_TRANSLATION = 1e-4
STOP_ROTATION = 5e-5


@dataclass
class LMConfig:
    """Iteration budgets of `levenberg_marquardt`."""

    max_outer_iterations: int = 32
    max_lambda_retries: int = 12

    def __post_init__(self):
        for name in ("max_outer_iterations", "max_lambda_retries"):
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
    fixed_points: np.ndarray | None = None  # (0, 3) after construction when None
    gravity_constraints: list[GravityConstraint] = field(default_factory=list)
    split_normals: bool = False
    planarity_min: float = 0.5
    voxel: VoxelConfig = field(default_factory=VoxelConfig)

    def __post_init__(self):
        if len(self.clouds) != len(self.initial_poses):
            raise ValueError("one initial pose per cloud required")
        for con in self.gravity_constraints:
            ok = isinstance(con.cloud_id, (int, np.integer)) and 0 <= con.cloud_id < len(self.clouds)
            if not ok:
                raise ValueError(f"gravity cloud_id {con.cloud_id!r} is not an index of the clouds")
        fixed = np.zeros((0, 3)) if self.fixed_points is None else self.fixed_points
        self.fixed_points = np.asarray(fixed, dtype=float).reshape(-1, 3)

    def free_indices(self) -> list[int]:
        # without fixed points the problem has a free rigid gauge; pin it
        # to the first scan, mirroring a reference-cloud formulation.
        # Gravity constraints pin only roll and pitch, so they do not count:
        # translation and yaw would stay free and the solution would wander.
        idx = list(range(0 if len(self.fixed_points) else 1, len(self.clouds)))
        if not idx:
            raise ValueError("problem has no free pose")
        return idx


@dataclass
class AdjustmentResult:
    poses: list[Pose]
    cost_history: list[float]
    converged: bool
    iterations: int


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
    pts = np.vstack(chunks + [problem.fixed_points])
    groups = dual_grid_groups(pts, problem.voxel)
    if groups is None:
        raise InsufficientStructureError(
            "insufficient overlap/structure: no voxel exceeds the landmark threshold"
        )
    if problem.split_normals:
        normals_w, planarity = _stacked_attributes(problem, poses)
        groups = split_by_normals(
            groups, pts, normals_w, planarity,
            planarity_min=problem.planarity_min,
            n_min=problem.voxel.n_min,
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
    normal_chunks.append(np.zeros((len(problem.fixed_points), 3)))
    plan_chunks.append(np.full(len(problem.fixed_points), np.nan))
    return np.vstack(normal_chunks), np.concatenate(plan_chunks)


def lm_step(jtj: np.ndarray, jtr: np.ndarray, lam: float) -> np.ndarray:
    """Damped normal-equation step: (J^T J + lam diag(J^T J)) d = -J^T r.

    Takes the normal equations of a `Linearization`, so the caller forms
    J^T J once and only the solve repeats for every lam. The damping
    diagonal is floored relative to its largest entry so that directions
    the residuals barely observe (gauge or near-gauge motions) stay damped
    instead of soaking up huge steps from numerical noise.
    """
    diag = np.diag(jtj).copy()
    floor = max(1e-6 * diag.max(), 1e-12)
    diag[diag < floor] = floor
    return np.linalg.solve(jtj + lam * np.diag(diag), -jtr)


def gravity_residual(rots: np.ndarray, directions_local: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weights * (R @ local_direction - GRAVITY_UP) for unit directions,
    stacked over constraints: rots (..., 3, 3) to rows (..., 3)."""
    return weights[..., None] * ((rots @ directions_local[..., None])[..., 0] - GRAVITY_UP)


def turned_motion(white: np.ndarray, rotated: np.ndarray, turn: np.ndarray, out=None) -> np.ndarray:
    """Whitened motion -W [R x]x turn, (..., 3, m), of points R x (..., 3).

    Exp(w) turns R x by -[R x]x w to first order, and row i of -W [R x]x
    is (R x) cross W_i. turn (..., 3, m) maps parameters to the world-frame
    turn w, for example J_l(r) for a rotation vector r.
    """
    return np.matmul(np.cross(rotated[..., None, :], white), turn, out=out)


class FrozenLandmarks:
    """Whitened per-member residuals of one frozen set of landmarks.

    Built from the statistics of `dual_grid_groups` (or `split_by_normals`):
    this is the one place where they become weights. Landmark j, with n_j
    members p_k, mean mu_j and 1/n covariance Sigma_j at freezing, scores
    the scatter of its members about their current mean m_j,

        cost_j = (1 / n_j) * sum_k (p_k - m_j)^T Omega_j (p_k - m_j),
        Omega_j = (Sigma_j + epsilon I)^-1  (`regularized_inverse`).

    At the frozen points and with epsilon = 0, cost_j is exactly 3 (trace
    identity); epsilon > 0 keeps Omega_j finite for a flat or linear cell.
    Stacking one whitened 3-vector per member k of landmark j,

        r_k = sqrt(w_j) * chol(Omega_j)^T (d_k - mean(d_j)),  w_j = 1 / n_j,

    with d_k = p_k - mu_j, makes sum |r_k|^2 equal the scatter cost while
    the residuals stay affine in the point positions, so damped
    normal-equation steps land on the frozen optimum instead of
    extrapolating an already-quadratic error toward zero. Membership and
    Omega_j are frozen; each cell's mean follows its members.

    Because whitening and mean removal are linear, member k's Jacobian rows
    are J_k = B_k - mean_j(B): its own whitened motion
    B_k = sqrt(w_j) chol_j^T dp_k/dtheta (`white_m`; zero for a fixed point)
    less the mean of B over its landmark. A `Linearization` therefore needs
    only each member's own motion and the per-landmark sums (`sums`).
    """

    def __init__(self, groups: dict, epsilon: float):
        self.member_row = groups["member_row"]
        self.member_lm = groups["member_group"]
        self.counts = groups["counts"].astype(float)
        self.mu_ref = groups["means"]
        self.n_landmarks = len(self.counts)
        omega = regularized_inverse(groups["covs"], epsilon)
        self.chol_m = np.linalg.cholesky(omega)[self.member_lm]
        self.sw_m = np.sqrt(1.0 / self.counts)[self.member_lm][:, None]
        # sqrt(w_j) chol_j^T per member: B_k = white_m[k] @ dp_k/dtheta
        self.white_m = self.sw_m[:, :, None] * np.swapaxes(self.chol_m, 1, 2)

    def sums(self, values: np.ndarray, members: np.ndarray | None = None) -> np.ndarray:
        """Per-landmark sums of values, one row per member (all, or those at members)."""
        lm = self.member_lm if members is None else self.member_lm[members]
        width = int(np.prod(values.shape[1:]))
        bins = (lm[:, None] * width + np.arange(width)).ravel()
        flat = np.bincount(bins, weights=values.ravel(), minlength=self.n_landmarks * width)
        return flat.reshape(self.n_landmarks, *values.shape[1:])

    def residuals(self, points: np.ndarray) -> np.ndarray:
        """Residual vector (3 per member) with the members at rows of points."""
        d = points[self.member_row] - self.mu_ref[self.member_lm]
        centered = d - (self.sums(d) / self.counts[:, None])[self.member_lm]
        return (self.sw_m * np.einsum("nji,nj->ni", self.chol_m, centered)).ravel()


class Linearization:
    """Normal equations of a frozen system at one parameter vector.

    The landmark rows arrive as bands. A band (members, cols, block) holds
    landmark members whose own whitened motion B_k is non-zero only in the
    parameter columns cols; block is B over those columns, (n, 3, len(cols)).
    Every moving member lies in exactly one band, and members of no band
    (fixed points) do not move. dense (D) is the Jacobian of the rows that
    follow the landmark rows in the residual vector (gravity, IMU, prior).
    With S_j the sum of B over landmark j (see `FrozenLandmarks`),

        J^T J = sum_k B_k^T B_k - sum_j S_j^T S_j / n_j + D^T D
        J^T r = sum_k B_k^T r_k + D^T r_D,

    so the 3M-row landmark Jacobian is never formed: each band adds one
    product of its flattened block with itself into J^T J at (cols, cols)
    and its landmark sums into the columns cols of S. Bands may share
    columns (the window's neighbouring spline segments share control
    poses). J^T r drops the term -sum_j S_j^T (sum_{k in j} r_k) / n_j: the
    residuals of `FrozenLandmarks.residuals` are mean-free within every
    landmark, so each inner sum is zero up to rounding.
    """

    def __init__(self, landmarks: FrozenLandmarks, bands, dense):
        self.n_rows = 3 * len(landmarks.member_lm)
        self.bands = bands
        self.dense = dense
        n_params = dense.shape[1]
        lm_sums = np.zeros((landmarks.n_landmarks, 3, n_params))
        jtj = dense.T @ dense
        for members, cols, block in bands:
            flat = block.reshape(-1, len(cols))
            jtj[np.ix_(cols, cols)] += flat.T @ flat
            lm_sums[:, :, cols] += landmarks.sums(block, members)
        scaled = (lm_sums / np.sqrt(landmarks.counts)[:, None, None]).reshape(-1, n_params)
        self.jtj = jtj - scaled.T @ scaled

    def jtr(self, r: np.ndarray) -> np.ndarray:
        """J^T r for a residual vector r of the system (at any parameters)."""
        r_m = r[: self.n_rows].reshape(-1, 3)
        out = self.dense.T @ r[self.n_rows :]
        for members, cols, block in self.bands:
            out[cols] += block.reshape(-1, len(cols)).T @ r_m[members].ravel()
        return out


class _RigidSystem:
    """Rigid point-motion model of keyframe adjustment, with gravity rows.

    Parameters are the free poses' (r1 r2 r3 x y z) blocks in free-index
    order. Perturbing one pose moves only that cloud's members, so the
    `Linearization` gets one band per free cloud, over that pose's 6
    columns, and B^T B is block-diagonal. A member's motion under the
    rotation is `turned_motion(W, R_k x, J_l(r_k))`; under a translation
    it is the unit axis, so those columns of B are W itself. The gravity
    rows form the small dense block, turned_motion(w I, R_k d, J_l(r_k)).
    """

    def __init__(self, problem: AdjustmentProblem):
        self.problem = problem
        self.free = problem.free_indices()
        self.offsets = np.cumsum([0] + [len(c) for c in problem.clouds])
        cons = problem.gravity_constraints
        self.grav_cloud = np.array([c.cloud_id for c in cons], dtype=np.int64)
        # free index of each constraint's cloud: the free clouds are the
        # tail from free[0] on, so a pinned first cloud maps to -1
        self.grav_free = self.grav_cloud - self.free[0]
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
        self.landmarks = lms = FrozenLandmarks(groups, self.problem.voxel.epsilon)
        self.cloud_rows, self.cloud_raw = [], []
        for ci in self.free:
            lo, hi = self.offsets[ci], self.offsets[ci + 1]
            rows = np.nonzero((lms.member_row >= lo) & (lms.member_row < hi))[0]
            self.cloud_rows.append(rows)
            self.cloud_raw.append(self.problem.clouds[ci].points[lms.member_row[rows] - lo])

    def residuals(self, params: np.ndarray) -> np.ndarray:
        poses = self.poses(params)
        for ci in self.free:
            self.world[self.offsets[ci] : self.offsets[ci + 1]] = poses[ci].apply(
                self.problem.clouds[ci].points
            )
        rots = rotvec_to_matrix(np.stack([pose.rotvec for pose in poses]))[self.grav_cloud]
        gravity = gravity_residual(rots, self.grav_local, self.grav_weight)
        return np.concatenate([self.landmarks.residuals(self.world), gravity.ravel()])

    def linearize(self, params: np.ndarray) -> Linearization:
        """Normal equations at params, every rotation column in closed form."""
        rotvecs = params.reshape(-1, 6)[:, :3]
        rots, turns = rotvec_to_matrix(rotvecs), left_jacobian(rotvecs)
        bands = []
        for k, rows in enumerate(self.cloud_rows):
            white = self.landmarks.white_m[rows]
            turned = turned_motion(white, self.cloud_raw[k] @ rots[k].T, turns[k])
            block = np.concatenate([turned, white], axis=2)
            bands.append((rows, np.arange(6 * k, 6 * k + 6), block))
        grav_jac = np.zeros((len(self.grav_cloud), 3, len(rotvecs), 6))
        own = np.nonzero(self.grav_free >= 0)[0]
        pose = self.grav_free[own]
        grav_jac[own, :, pose, :3] = turned_motion(
            self.grav_weight[own, None, None] * np.eye(3),
            (rots[pose] @ self.grav_local[own, :, None])[..., 0],
            turns[pose],
        )
        return Linearization(self.landmarks, bands, grav_jac.reshape(-1, len(params)))


def levenberg_marquardt(system, params: np.ndarray, config: LMConfig):
    """Minimize the squared norm of a system's residuals over a flat parameter vector.

    system provides three methods: freeze(params), which fixes its
    landmarks at params; residuals(params), the residual vector against the
    frozen landmarks; and linearize(params), which returns the
    `Linearization` there: J^T J and the map r -> J^T r. Every outer
    iteration freezes at the current parameters, linearizes there once and
    then takes up to INNER_ITERATIONS accepted damped steps. J^T J is reused
    by every inner iteration and lam retry; each inner iteration refreshes
    only J^T r, since the residuals are near-affine in the parameters over
    one pass. Each residual vector is evaluated once and kept with its
    parameters: the one at the frozen parameters gives the outer cost and
    the first J^T r, and an accepted trial's, computed to judge the step,
    gives the next J^T r. A step is only accepted if it strictly decreases
    the frozen cost, so the recorded (linearization, accepted) cost pairs
    are non-increasing within every outer iteration. lam starts at
    LAMBDA_INIT, grows by LAMBDA_UP on a rejected step and shrinks by
    LAMBDA_DOWN after an accepted one.

    params is a stack of 6-blocks (r1 r2 r3 x y z): a rotation vector and a
    translation. The one stopping rule reads that layout: the solve stops,
    converged, after an outer iteration in which no block moved more than
    STOP_TRANSLATION (m) in any translation parameter and STOP_ROTATION
    (rad) in any rotation parameter. An outer iteration that accepts no
    step moves nothing, so it stops too. Otherwise the solve runs until
    the iteration budget is spent and reports converged=False. Raises
    FloatingPointError if the cost at the frozen parameters is not finite,
    since no step could then decrease it.

    Returns (params, cost_history, converged, iterations).
    """
    history: list[float] = []
    converged = False
    iterations = 0
    for outer in range(config.max_outer_iterations):
        iterations = outer + 1
        lin = None  # release the last pass's linearization before building the next
        start = params
        system.freeze(params)
        r = system.residuals(params)
        cost_cur = float(r @ r)
        if not np.isfinite(cost_cur):
            raise FloatingPointError(f"non-finite cost {cost_cur} at the frozen parameters")
        history.append(cost_cur)
        lin = system.linearize(params)
        lam = LAMBDA_INIT
        for _ in range(INNER_ITERATIONS):
            jtr = lin.jtr(r)
            accepted = None
            for _ in range(config.max_lambda_retries):
                try:
                    delta = lm_step(lin.jtj, jtr, lam)
                except np.linalg.LinAlgError:
                    lam *= LAMBDA_UP
                    continue
                trial = params + delta
                r_trial = system.residuals(trial)
                trial_cost = float(r_trial @ r_trial)
                if trial_cost < cost_cur:
                    accepted = (trial, r_trial, trial_cost)
                    break
                lam *= LAMBDA_UP
            if accepted is None:
                break
            params, r, cost_cur = accepted
            lam = max(lam * LAMBDA_DOWN, 1e-12)
        history.append(cost_cur)
        moved = np.abs(params - start).reshape(-1, 6)
        if moved[:, :3].max() <= STOP_ROTATION and moved[:, 3:].max() <= STOP_TRANSLATION:
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

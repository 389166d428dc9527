"""Joint fine registration of multiple scans against voxel landmarks.

The optimizer minimizes, over the scan poses, the scatter of all
transformed points within their voxel cells along each cell's normal:

    sum_j sum_k (w_j . (p_k - mu_j))^2,  w_j = v_j / sqrt(n_j (lambda_j + eps))

where (lambda_j, v_j) is the smallest eigenpair of cell j's covariance (see
`FrozenLandmarks`).

Each outer iteration of `levenberg_marquardt` freezes the landmarks at the
current parameters: it re-voxelizes the merged cloud and recomputes the
per-cell statistics. It then takes up to INNER_ITERATIONS accepted damped
Gauss-Newton steps on the whitened residuals of `FrozenLandmarks`. The
steps solve normal equations that a `Linearization` assembles band by band
from each row's own motion and the per-landmark sums S, never forming the
dense Jacobian; J^T J is built once per outer iteration. A band is a set
of rows that move only with the same few parameter columns: one free
cloud's pose here, one spline segment's control poses in the odometry
window. Each system sums S itself from flat (landmark, column) indices it
builds once per freeze, with one `np.bincount` (`landmark_sums`).
Translations move points linearly; every rotation column is closed-form
in a turn w = J_l(r) dr (`geometry.left_jacobian`): here `turned_motion`,
in the window the slerp lever of `trajectory.slerp_turns`.

Both score the one residual of `FrozenLandmarks` on point clusters. The
odometry window's moving clusters are single members, since its points
move along a spline, each by the pose at its own stamp. Keyframe
adjustment moves each cloud rigidly, and then a landmark's cost depends on a cloud's members only
through their count, sum and scatter: the point-cluster statistics of BALM2
(Liu, Liu & Zhang, arXiv:2209.08854), which HBA (arXiv:2209.11939) uses at
map scale. `_RigidSystem` therefore scores one cluster per (landmark,
cloud) pair, 4 rows instead of one per member, with the same cost, J^T J
and J^T r.
During those steps only the membership and the weights are held
constant; the cell means follow the moving points, so every cell scores
the current scatter of its own members. A cell whose members move
rigidly together is invariant, while a cell mixing misaligned scans is
driven toward agreement. Cells full of inconsistent geometry (dynamic
objects) have a large smallest eigenvalue and therefore little weight,
which is why no outlier rejection is needed.

Neither `FrozenLandmarks` nor `levenberg_marquardt` knows how the points
move or how the parameters are laid out. The driver sees a system only
through three methods, freeze, residuals and linearize, and one array,
stop_steps: it stops once an outer iteration moved no parameter by more
than its step. Both systems here stack one 6-block (rotation vector,
translation) per pose and step STOP_ROTATION for each rotation and
STOP_TRANSLATION for each translation parameter. The damping schedule
(LAMBDA_INIT, LAMBDA_UP, LAMBDA_DOWN, LAMBDA_RETRIES) and INNER_ITERATIONS
are module constants; a caller sets only the outer-iteration budget.
Keyframe adjustment moves each cloud rigidly and adds gravity rows
(`_RigidSystem`, here); the odometry window moves points along a
continuous-time spline and adds IMU and prior rows (`multiscan.pipeline`).

Fixed points (keyframe adjustment's anchors, the window's static map
points) carry no parameters. Each solve bins them once
(`landmarks.cell_statistics`), each freeze merges them into the cells the
moving points touch (`dual_grid_groups`), and `FrozenLandmarks` scores a
landmark's fixed part as one cluster, in no band, by its mean row alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from multiscan.geometry import Pose, PointCloud, left_jacobian, rotvec_to_matrix
from multiscan.landmarks import (
    VoxelConfig, cell_statistics, dual_grid_groups, point_clusters, split_by_normals,
)

# world direction that every gravity constraint ties its cloud's direction to
GRAVITY_UP = np.array([0.0, 0.0, 1.0])


class InsufficientStructureError(RuntimeError):
    """No voxel collected enough points to form a single landmark."""


# damping schedule of `levenberg_marquardt`: a step is tried at most
# LAMBDA_RETRIES times, lam growing by LAMBDA_UP after each rejection
LAMBDA_INIT = 1e-4
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.5
LAMBDA_RETRIES = 12
INNER_ITERATIONS = 2
# a pose's stop_steps: the most an outer iteration may move each of its
# rotation (rad) and translation (m) parameters and still count as converged
STOP_ROTATION = 5e-5
STOP_TRANSLATION = 1e-4


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
        # planarity lies in [0, 1]; split_normals=False switches splitting off
        if not 0.0 <= self.planarity_min <= 1.0:
            raise ValueError(f"planarity_min must lie in [0, 1], got {self.planarity_min}")
        fixed = np.zeros((0, 3)) if self.fixed_points is None else np.asarray(self.fixed_points, float)
        if fixed.ndim != 2 or fixed.shape[1] != 3 or not np.all(np.isfinite(fixed)):
            raise ValueError(f"fixed_points must be a finite (n, 3) array, got shape {fixed.shape}")
        self.fixed_points = fixed

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


def freeze_landmarks(problem: AdjustmentProblem, poses: list[Pose], fixed_cells) -> dict:
    """Voxelize the clouds at poses and compute per-cell statistics.

    Returns the landmarks of the world-frame point stack [cloud 0, ...,
    cloud n-1], merged with fixed_cells (`cell_statistics` of the fixed
    points, or None), in the layout of `dual_grid_groups`. With
    split_normals enabled, planar cells whose member normals oppose each
    other are divided into front and back landmarks (`split_by_normals`).
    """
    pts = np.vstack([pose.apply(cloud.points) for cloud, pose in zip(problem.clouds, poses)])
    groups = dual_grid_groups(pts, problem.voxel, fixed_cells)
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
    return groups


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


def turned_motion(white: np.ndarray, rotated: np.ndarray, turn: np.ndarray) -> np.ndarray:
    """Whitened motion -W [R x]x turn, (..., k, m), of points R x (..., 3)
    under weight rows W (..., k, 3): one row for a landmark's w_j, three for
    a gravity or IMU block.

    Exp(w) turns R x by -[R x]x w to first order, and row i of -W [R x]x
    is (R x) cross W_i. turn (..., 3, m) maps parameters to the world-frame
    turn w, for example J_l(r) for a rotation vector r.
    """
    return np.cross(rotated[..., None, :], white) @ turn


class FrozenLandmarks:
    """Whitened residuals of one frozen set of landmarks, one cost over point clusters.

    Built from the statistics of `dual_grid_groups` (or `split_by_normals`):
    this is the one place where they become weights. Landmark j, with n_j
    members p_k, mean mu_j and 1/n covariance Sigma_j at freezing, scores
    the scatter of its members about their current mean m_j along its
    normal v_j, the eigenvector of Sigma_j's smallest eigenvalue lambda_j:

        cost_j = sum_k (w_j . (p_k - m_j))^2,
        w_j = v_j / sqrt(n_j (lambda_j + epsilon)).

    This is the plane factor of BALM2 (Liu, Liu & Zhang, arXiv:2209.08854)
    and the point-to-plane term of CT-ICP (arXiv:2109.12979): in-plane
    scatter costs nothing. At the frozen points and with epsilon = 0,
    cost_j = v_j^T Sigma_j v_j / lambda_j is exactly 1 per landmark;
    epsilon > 0 keeps w_j finite for a flat cell. Membership and w_j are
    frozen; each cell's mean follows its members.

    The cost is scored on point clusters (`residuals`), one scalar per row.
    Split landmark j's members into clusters c of n_c points with mean
    pbar_c and scatter C_c = sum (p - pbar_c)(p - pbar_c)^T = F_c F_c^T.
    The cross terms vanish within each cluster, so with d_c = pbar_c - mu_j,

        cost_j = sum_c rho_c^2 + sum_c sum_i (w_j . f_ci)^2,
        rho_c = sqrt(n_c) (e_c - sum_c' n_c' e_c' / n_j),  e_c = w_j . d_c,

    one mean row rho_c and one scatter row w_j . f_ci per column of F_c.
    The mean row is projected onto w_j first, so a landmark's shift is one
    scalar. A member is a cluster of one: n_c = 1, F_c has no columns, and
    its one row is w_j . (d_k - mean(d_j)). The odometry window scores its
    moving members so; keyframe adjustment scores one cluster per
    (landmark, cloud) pair. A landmark's fixed part never moves: its
    cluster keeps the mean row and drops the constant scatter rows, which
    lowers the cost by that scatter along w_j and changes no step.

    The rows are affine in the point positions, so damped normal-equation
    steps land on the frozen optimum instead of extrapolating an
    already-quadratic error toward zero. If a cluster moves rigidly, its
    rows and their Jacobian are affine in its members' sensor-frame points,
    so the cost, J^T J and J^T r at any parameters depend on the members
    only through n_c, their sum and their second moment: the cluster rows
    give them exactly as its members' rows would. The scatter rows turn
    with their cluster and do not enter m_j, and the mean rows are
    weighted mean-free: sum_c sqrt(n_c) rho_c = 0 for every landmark.

    Because whitening and mean removal are linear, row r of landmark j has
    the Jacobian B_r - a_r S_j / n_j: its own whitened motion B_r less a
    share of S_j = sum_r a_r B_r, with a_r = sqrt(n_c) for a mean row and 0
    for a scatter row. A `Linearization` therefore needs only each row's
    own motion and the per-landmark sums S_j.

    The clusters scored are fixed for a freeze, so they are given once,
    with the landmarks: each moving one's landmark (cluster_lm) and size
    n_c (cluster_sizes); the constructor appends a fixed cluster for each
    landmark's fixed part. `residuals(means, factors)` then takes only
    what moves.
    """

    def __init__(self, groups: dict, epsilon: float, cluster_lm: np.ndarray, cluster_sizes: np.ndarray):
        self.counts = groups["counts"].astype(float)
        self.mu_ref = groups["means"]
        self.n_landmarks = len(self.counts)
        evals, evecs = np.linalg.eigh(groups["covs"])  # ascending
        # w_j = v_min / sqrt(n_j (lambda_min + epsilon)) per landmark
        self.white_lm = evecs[:, :, 0] / np.sqrt(self.counts * (evals[:, 0] + epsilon))[:, None]
        # the clusters scored, moving then fixed: landmark, n_c, sqrt(n_c), w_j and mu_j
        fixed_counts, fixed_means, _ = groups.get("fixed", (np.zeros(0), np.zeros((0, 3)), None))
        fixed_lm = np.flatnonzero(fixed_counts)
        self.cluster_lm = np.concatenate([cluster_lm, fixed_lm])
        self.cluster_sizes = np.concatenate([cluster_sizes, fixed_counts[fixed_lm]]).astype(float)
        self.cluster_root = np.sqrt(self.cluster_sizes)
        self.cluster_white = np.take(self.white_lm, self.cluster_lm, axis=0)
        self.cluster_mu = np.take(self.mu_ref, self.cluster_lm, axis=0)
        moving = len(cluster_lm)
        self.fixed_along = np.einsum("ni,ni->n", self.cluster_white[moving:],
                                     fixed_means[fixed_lm] - self.cluster_mu[moving:])

    def sums(self, values: np.ndarray, lm: np.ndarray) -> np.ndarray:
        """Per-landmark sums of one scalar per row, row k on landmark lm[k]."""
        return np.bincount(lm, weights=values, minlength=self.n_landmarks)

    def residuals(self, means: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Residual vector of the clusters at the moving clusters' world-frame
        means pbar_c (m, 3) and scatter factors F_c (m, 3, f): per moving
        cluster the mean row, then f scatter rows, one scalar each; then
        each fixed cluster's mean row."""
        lm, m = self.cluster_lm, len(means)
        moved = np.einsum("ni,ni->n", self.cluster_white[:m], means - self.cluster_mu[:m])
        along = np.concatenate([moved, self.fixed_along])
        shift = self.sums(self.cluster_sizes * along, lm) / self.counts
        mean_rows = self.cluster_root * (along - shift[lm])
        rows = np.empty((m, 1 + factors.shape[2]))
        rows[:, 0] = mean_rows[:m]
        rows[:, 1:] = np.einsum("ni,nif->nf", self.cluster_white[:m], factors)
        return np.concatenate([rows.ravel(), mean_rows[m:]])


def scatter_factor(scatter: np.ndarray) -> np.ndarray:
    """F with F F^T = C for a stack of 3x3 positive semidefinite C, (m, 3, 3).

    A closed-form LDL^T with diagonal pivoting: each step pivots on the
    largest remaining diagonal, so every multiplier stays bounded and a
    pivot lost in rounding comes last; a non-positive pivot gives a zero
    column. Without pivoting, the singular scatters of collinear or coplanar
    points can put a rounding-level positive pivot before a larger one and
    blow up the last pivot. Batched `cholesky` fails on those scatters, and
    batched `eigh` is about ten times slower.
    """
    m = len(scatter)
    flat = scatter.reshape(-1)
    base = 9 * np.arange(m)[:, None]
    diag = scatter.reshape(m, 9)[:, ::4]
    first = diag.argmax(axis=1)
    perm = (first[:, None] + np.arange(3)) % 3
    top = diag[np.arange(m), first]
    inv = np.divide(1.0, top, out=np.zeros(m), where=top > 0.0)[:, None]
    cross = flat[base + 3 * perm[:, 1:] + first[:, None]]
    schur = flat[base + 4 * perm[:, 1:]] - cross * cross * inv
    swap = schur[:, 1] > schur[:, 0]
    perm[swap, 1:] = perm[swap, :0:-1]
    row, col = np.tril_indices(3)
    c00, c10, c11, c20, c21, c22 = flat[base + 3 * perm[:, row] + perm[:, col]].T
    inv1 = np.divide(1.0, c00, out=np.zeros(m), where=c00 > 0.0)
    l10, l20 = c10 * inv1, c20 * inv1
    d2 = c11 - l10 * c10
    inv2 = np.divide(1.0, d2, out=np.zeros(m), where=d2 > 0.0)
    l21 = (c21 - l20 * c10) * inv2
    d3 = c22 - l20 * c20 - l21 * l21 * np.maximum(d2, 0.0)
    s1, s2, s3 = np.sqrt(np.maximum(np.stack([c00, d2, d3]), 0.0))
    lower = np.stack([s1, l10 * s1, s2, l20 * s1, l21 * s2, s3], axis=1)
    factor = np.zeros(9 * m)
    factor[base + 3 * perm[:, row] + col] = lower
    return factor.reshape(m, 3, 3)


class Linearization:
    """Normal equations of a frozen system at one parameter vector.

    The landmark rows arrive as bands. A band (rows, cols, block) holds
    landmark rows whose own whitened motion B_r is non-zero only in the
    parameter columns cols: rows index or slice the residual vector, whose
    landmark rows come first, one scalar each, and block is B over those
    columns, (n, len(cols)). Every moving row lies in exactly one band, and
    rows of no band (fixed points, pinned clouds) do not move. sums is S,
    (landmarks, parameters), which the system assembles (`landmark_sums`),
    and dense (D) is the Jacobian of the rows that follow the landmark rows
    in the residual vector (gravity, IMU, prior). Row r of landmark j has
    the Jacobian B_r - a_r S_j / n_j, with S_j = sum_r a_r B_r over
    landmark j's rows, a_r = sqrt(n_c) for every mean row and 0 for every
    scatter row (see `FrozenLandmarks`; a member is a cluster of one, so
    its a_r is 1). As sum_r a_r^2 = n_j,

        J^T J = sum_r B_r^T B_r - sum_j S_j^T S_j / n_j + D^T D
        J^T r = sum_r B_r^T r_r + D^T r_D,

    so the landmark Jacobian is never formed: each band adds one product of
    its block with itself into J^T J at (cols, cols). Bands may share
    columns (the window's neighbouring spline segments share control
    poses). J^T r drops the term -sum_j S_j^T (sum_{r in j} a_r r_r) / n_j:
    the landmark rows are weighted mean-free within every landmark, so each
    inner sum is zero up to rounding.
    """

    def __init__(self, landmarks: FrozenLandmarks, bands, sums: np.ndarray, dense: np.ndarray):
        self.bands = bands
        self.dense = dense
        jtj = dense.T @ dense
        for _, cols, block in bands:
            jtj[np.ix_(cols, cols)] += block.T @ block
        scaled = sums / np.sqrt(landmarks.counts)[:, None]
        self.jtj = jtj - scaled.T @ scaled

    def jtr(self, r: np.ndarray) -> np.ndarray:
        """J^T r for a residual vector r of the system (at any parameters)."""
        out = self.dense.T @ r[len(r) - len(self.dense):]
        for rows, cols, block in self.bands:
            out[cols] += block.T @ r[rows]
        return out


def landmark_sums(index: np.ndarray, shares: np.ndarray, n_landmarks: int, n_params: int) -> np.ndarray:
    """S, (n_landmarks, n_params), from shares added at flat indices
    landmark * n_params + column, one `np.bincount`."""
    return np.bincount(
        index.ravel(), weights=shares.ravel(), minlength=n_landmarks * n_params
    ).reshape(n_landmarks, n_params)


class _RigidSystem:
    """Rigid point-motion model of keyframe adjustment, on point clusters,
    with gravity rows.

    Parameters are the free poses' (r1 r2 r3 x y z) blocks in free-index
    order, each with the stop_steps of a pose. `freeze` groups each
    landmark's cloud members into clusters, one per cloud it touches; a
    pinned cloud keeps its pose. Every cluster moves rigidly with its
    cloud, so it is scored by its size, mean and scatter factor in the
    cloud's sensor frame (`landmarks.point_clusters`, `scatter_factor`) through
    `FrozenLandmarks.residuals`: 4 scalar rows per cluster, a mean row and
    three scatter rows, with the same cost and normal equations as one row
    per member (see `FrozenLandmarks`).

    Perturbing one pose moves only that cloud's clusters, so the
    `Linearization` gets one band per free cloud, over that pose's 6
    columns. A mean row's own motion is sqrt(n_c) w_j under a translation
    and `turned_motion(sqrt(n_c) w_j, R qbar, J_l(r))` under the rotation; a
    scatter row's is `turned_motion(w_j, R f, J_l(r))`, with nothing under a
    translation. A cluster adds sqrt(n_c) times its mean row motion to S,
    at the flat indices of its landmark and its pose's columns, which
    `freeze` builds once. The gravity rows form the small dense block,
    turned_motion(w I, R_k d, J_l(r_k)).
    """

    def __init__(self, problem: AdjustmentProblem):
        self.problem = problem
        self.free = problem.free_indices()
        self.stop_steps = np.tile(np.repeat([STOP_ROTATION, STOP_TRANSLATION], 3), len(self.free))
        self.fixed_cells = cell_statistics(problem.fixed_points, problem.voxel)
        # sensor-frame point stack aligned with the world stack of
        # `freeze_landmarks`; rows from ends[c - 1] to ends[c] are cloud c's
        self.local = np.vstack([cloud.points for cloud in problem.clouds])
        self.ends = np.cumsum([len(cloud) for cloud in problem.clouds])
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
        groups = freeze_landmarks(self.problem, self.poses(params), self.fixed_cells)
        member_row, member_lm = groups["member_row"], groups["member_group"]
        # cloud of each member; each landmark's members are contiguous and in
        # ascending row order, so its members in one cloud form one run
        cloud = np.searchsorted(self.ends, member_row, side="right")
        starts = np.flatnonzero(
            (np.diff(member_lm, prepend=-1) != 0) | (np.diff(cloud, prepend=-1) != 0)
        )
        sizes, means, scatter = point_clusters(self.local[member_row], starts)
        # clusters grouped by cloud: cloud c's are [bounds[c], bounds[c + 1])
        by_cloud = np.argsort(cloud[starts], kind="stable")
        cluster_cloud = cloud[starts][by_cloud]
        self.bounds = np.searchsorted(cluster_cloud, np.arange(len(self.ends) + 1))
        self.landmarks = lms = FrozenLandmarks(
            groups, self.problem.voxel.epsilon, member_lm[starts][by_cloud], sizes[by_cloud]
        )
        self.means = means[by_cloud]
        self.factors = scatter_factor(scatter[by_cloud])
        # the free clouds are the tail from free[0] on, so their clusters are
        # contiguous; each one's share of S lies in its landmark's row, over
        # its pose's 6 columns
        free = slice(self.bounds[self.free[0]], self.bounds[self.free[-1] + 1])
        pose = cluster_cloud[free] - self.free[0]
        self.share_index = (lms.cluster_lm[free, None] * len(self.stop_steps)
                            + 6 * pose[:, None] + np.arange(6))

    def residuals(self, params: np.ndarray) -> np.ndarray:
        poses = self.poses(params)
        rots = rotvec_to_matrix(np.stack([pose.rotvec for pose in poses]))
        means, factors = self.means.copy(), self.factors.copy()
        for c, pose in enumerate(poses):
            at = slice(self.bounds[c], self.bounds[c + 1])
            means[at] = means[at] @ rots[c].T + pose.trans
            factors[at] = rots[c] @ factors[at]
        lm_rows = self.landmarks.residuals(means, factors)
        gravity = gravity_residual(rots[self.grav_cloud], self.grav_local, self.grav_weight)
        return np.concatenate([lm_rows, gravity.ravel()])

    def linearize(self, params: np.ndarray) -> Linearization:
        """Normal equations at params, every rotation column in closed form."""
        rotvecs = params.reshape(-1, 6)[:, :3]
        rots, turns = rotvec_to_matrix(rotvecs), left_jacobian(rotvecs)
        lms = self.landmarks
        bands, shares = [], []
        for k, ci in enumerate(self.free):
            lo, hi = self.bounds[ci], self.bounds[ci + 1]
            white = lms.cluster_white[lo:hi, None]
            root = lms.cluster_root[lo:hi, None]
            # per cluster: the mean row, then the three scatter rows
            block = np.zeros((hi - lo, 4, 6))
            block[:, :1, 3:] = root[:, None] * white
            block[:, :1, :3] = turned_motion(block[:, :1, 3:], self.means[lo:hi] @ rots[k].T, turns[k])
            block[:, 1:, :3] = turned_motion(
                white[:, None], np.swapaxes(rots[k] @ self.factors[lo:hi], 1, 2), turns[k]
            )[:, :, 0]
            bands.append((slice(4 * lo, 4 * hi), np.arange(6 * k, 6 * k + 6), block.reshape(-1, 6)))
            shares.append(root * block[:, 0])
        grav_jac = np.zeros((len(self.grav_cloud), 3, len(rotvecs), 6))
        own = np.nonzero(self.grav_free >= 0)[0]
        pose = self.grav_free[own]
        grav_jac[own, :, pose, :3] = turned_motion(
            self.grav_weight[own, None, None] * np.eye(3),
            (rots[pose] @ self.grav_local[own, :, None])[..., 0],
            turns[pose],
        )
        sums = landmark_sums(self.share_index, np.concatenate(shares), lms.n_landmarks, len(params))
        return Linearization(lms, bands, sums, grav_jac.reshape(-1, len(params)))


def levenberg_marquardt(system, params: np.ndarray, max_iterations: int):
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
    LAMBDA_DOWN after an accepted one; an inner iteration that rejects
    LAMBDA_RETRIES steps in a row ends its outer iteration.

    The one stopping rule reads system.stop_steps, one step per parameter:
    the solve stops, converged, after an outer iteration in which no
    parameter moved by more than its step. An outer iteration that accepts
    no step moves nothing, so it stops too. Otherwise the solve runs
    max_iterations outer iterations and reports converged=False. Raises
    FloatingPointError if the cost at the frozen parameters is not finite,
    since no step could then decrease it.

    Returns (params, cost_history, converged, iterations).
    """
    history: list[float] = []
    converged = False
    iterations = 0
    for outer in range(max_iterations):
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
            for _ in range(LAMBDA_RETRIES):
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
        if np.all(np.abs(params - start) <= system.stop_steps):
            converged = True
            break
    return params, history, converged, iterations


def run_adjustment(problem: AdjustmentProblem, max_iterations: int = 32) -> AdjustmentResult:
    """Adjust the free poses of problem by `levenberg_marquardt`."""
    system = _RigidSystem(problem)
    params0 = np.concatenate([problem.initial_poses[ci].as_params() for ci in system.free])
    params, history, converged, iterations = levenberg_marquardt(system, params0, max_iterations)
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

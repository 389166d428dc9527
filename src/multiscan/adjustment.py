"""Dense multi-scan adjustment: one landmark engine over moving bodies.

The odometry window and keyframe adjustment both run on `MultiScanSystem`.
It minimizes, over a flat parameter vector, the scatter of all moving
points within their voxel cells along each cell's normal,

    sum_j sum_k (w_j . (p_k - mu_j))^2,  w_j = v_j / sqrt(n_j (lambda_j + eps)),

with (lambda_j, v_j) the smallest eigenpair of cell j's covariance, in
closed form (`smallest_eigenpairs`, `FrozenLandmarks`), plus the dense rows
of the system that runs it. A cell of inconsistent geometry (dynamic
objects) has a large lambda_j and so little weight, which is why no
outlier rejection is needed.

A body is a set of points that move rigidly together, at one pose of the
table a system evaluates per parameter vector. A pose turns with the
rotations of m parameter blocks through levers L_i (sum L_i = I) and moves
with the translations of P blocks through fixed weights. A band is the
poses that move with the same blocks; the normal equations take its rows
as one block; every pose lies in one, since points that no parameter
moves are fixed points. A free keyframe cloud is a body at its own pose,
the one pose of its band, over that pose's 6 columns; a pinned first
cloud's points are fixed points. An odometry window point is a body of
its own at its stamp's spline pose (`multiscan.pipeline`).

A cluster is the members of one landmark within one body. They move
rigidly, so the landmark's cost depends on them only through their count,
mean and scatter F F^T: one mean row and one scatter row per column of F,
the point clusters of BALM2 (Liu, Liu & Zhang, arXiv:2209.08854). A cluster
of n_c points scores min(n_c - 1, 3) scatter rows, the most columns its
scatter can need: a cluster of one takes its point directly and has none,
so the window, all of whose clusters are single points, scores none.
Fixed points (the window's static map points, keyframe adjustment's
anchors or its pinned first cloud) are binned once per solve
(`landmarks.cell_statistics`), merged into the cells the moving points
touch (`dual_grid_groups`), and each landmark's fixed part scored as one
fixed cluster, in no band, by its mean row alone.

Each outer iteration of `levenberg_marquardt` freezes the landmarks
(membership and weights; each cell's mean follows its members) and takes
up to INNER_ITERATIONS damped Gauss-Newton steps, whose normal equations a
`Linearization` assembles band by band from each row's own motion and the
per-landmark sums S, never forming the Jacobian; every rotation column is
closed-form in a turn J_l(r) dr (`geometry.left_jacobian`). Each table has
one owner level and is built there once:

- per solve: the body model (`Bodies`), each band's columns and the fixed
  points' cells;
- per parameter vector: the system's `pose_table`, the moving points'
  world positions (a freeze bins them) and the clusters' turned columns;
- per freeze: the landmarks, the clusters ordered by band and rank with
  their weights, the row slices of each band, the S index of their
  rotation columns and the translation half of S, which no parameter
  moves.

The driver sees a system only through freeze, residuals, linearize and
stop_steps, one movement threshold per parameter; the damping schedule is
module constants, and a caller sets only the outer-iteration budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
# `smallest_eigenpairs` leaves to `np.linalg.eigh` each matrix whose two
# smallest eigenvalues lie within this fraction of its largest
EIGEN_GAP = 1e-2


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


def freeze_landmarks(points: np.ndarray, voxel: VoxelConfig, fixed_cells, normals=None,
                     planarity=None, planarity_min: float = 0.5) -> dict:
    """The landmarks of world-frame points (N, 3), in the layout of
    `dual_grid_groups`, merged with fixed_cells (`cell_statistics` of the
    fixed points, or None). With world-frame normals and planarity aligned
    with points, planar cells whose member normals oppose each other are
    divided into front and back landmarks (`split_by_normals`). Raises
    `InsufficientStructureError` when no cell makes a landmark.
    """
    groups = dual_grid_groups(points, voxel, fixed_cells)
    if groups is None:
        raise InsufficientStructureError(
            "insufficient overlap/structure: no voxel exceeds the landmark threshold"
        )
    if normals is not None:
        groups = split_by_normals(
            groups, points, normals, planarity, planarity_min=planarity_min, n_min=voxel.n_min
        )
    return groups


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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over axis 0, for vectors stored one row per component; several
    times faster than `np.cross`, which moves that axis last."""
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]])


def smallest_eigenpairs(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest eigenvalue lambda, clamped at 0, and a unit eigenvector v
    of each symmetric 3x3 matrix C of covs (L, 3, 3): (L,) and (3, L), one
    row per component. The sign of v is arbitrary.

    Closed form on component rows: Smith's trigonometric eigenvalues, then
    v as the largest cross product of two rows of C - lambda I (Kopp,
    arXiv:physics/0610206). Its error in v grows as eps / g^2 with the
    relative gap g = (lambda_mid - lambda) / lambda_max, where a batched
    `np.linalg.eigh`'s grows as eps / g; where g <= EIGEN_GAP, `eigh` gives
    the pair, so the two agree to about 1e-12 everywhere. The closed form
    is several times faster than `eigh`, which computes all three pairs.
    """
    a, d, f, _, b, e, _, _, c = np.ascontiguousarray(covs.reshape(-1, 9).T)
    q = (a + b + c) / 3.0
    aq, bq, cq = a - q, b - q, c - q
    p = np.sqrt((aq * aq + bq * bq + cq * cq + 2.0 * (d * d + e * e + f * f)) / 6.0)
    # det(C - q I) / 2p^3 = cos(3 phi); 0 for an isotropic C, whose pair eigh gives
    det = aq * (bq * cq - e * e) - d * (d * cq - e * f) + f * (d * e - bq * f)
    phi = np.arccos(np.clip(np.divide(det, 2.0 * p ** 3, out=np.zeros_like(p), where=p > 0.0),
                            -1.0, 1.0)) / 3.0
    top = q + 2.0 * p * np.cos(phi)
    lam = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    # rows 0, 0, 1 of C - lambda I crossed with rows 1, 2, 2: (component, pair, matrix)
    cross = _cross(np.stack([[a - lam, a - lam, d], [d, d, b - lam], [f, f, e]]),
                   np.stack([[d, f, f], [b - lam, e, e], [e, c - lam, c - lam]]))
    norms = np.einsum("ikl,ikl->kl", cross, cross)
    best, at = norms.argmax(axis=0), np.arange(len(lam))
    length = np.sqrt(norms[best, at])  # 0 only where eigh takes over
    normal = cross[:, best, at] * np.divide(1.0, length, out=np.zeros_like(length), where=length > 0.0)
    near = np.flatnonzero(3.0 * q - top - 2.0 * lam <= EIGEN_GAP * top)
    if len(near):
        evals, evecs = np.linalg.eigh(covs[near])
        lam[near], normal[:, near] = evals[:, 0], evecs[:, :, 0].T
    return np.maximum(lam, 0.0), normal


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
    scalar. n_c points span at most n_c - 1 directions about their mean,
    so F_c needs at most min(n_c - 1, 3) columns, and a cluster scores
    that many scatter rows, the first columns of F_c (`scatter_factor`).
    A member, a cluster of one, scores none: its one row is
    w_j . (d_k - mean(d_j)). A landmark's fixed part never moves: its
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
    n_c (cluster_sizes), from which it takes the scatter rows it scores;
    the constructor appends a fixed cluster for each landmark's fixed
    part. `residuals(means, factors)` then takes only what moves. The
    per-cluster tables cluster_white and cluster_mu hold one row per
    component, (3, clusters): numpy runs long rows far faster than (n, 3)
    arrays. (lambda_j, v_j) come from `smallest_eigenpairs`.
    """

    def __init__(self, groups: dict, epsilon: float, cluster_lm: np.ndarray, cluster_sizes: np.ndarray):
        self.counts = groups["counts"].astype(float)
        self.mu_ref = groups["means"]
        self.n_landmarks = len(self.counts)
        lam, normal = smallest_eigenpairs(groups["covs"])
        # w_j = v_min / sqrt(n_j (lambda_min + epsilon)) per landmark
        self.white_lm = (normal / np.sqrt(self.counts * (lam + epsilon))).T
        # each moving cluster's scatter rows, min(n_c - 1, 3), and their
        # places among the factor columns' rows (column, cluster), flattened
        rank = np.minimum(np.asarray(cluster_sizes, dtype=np.int64) - 1, 3)
        self.scatter_at = np.flatnonzero(rank > np.arange(rank.max(initial=0))[:, None])
        # the clusters scored, moving then fixed: landmark, n_c, sqrt(n_c), w_j and mu_j
        fixed_counts, fixed_means, _ = groups.get("fixed", (np.zeros(0), np.zeros((0, 3)), None))
        fixed_lm = np.flatnonzero(fixed_counts)
        self.cluster_lm = np.concatenate([cluster_lm, fixed_lm])
        self.cluster_sizes = np.concatenate([cluster_sizes, fixed_counts[fixed_lm]]).astype(float)
        self.cluster_root = np.sqrt(self.cluster_sizes)
        self.cluster_white = np.take(self.white_lm.T, self.cluster_lm, axis=1)
        self.cluster_mu = np.take(self.mu_ref.T, cluster_lm, axis=1)
        self.fixed_along = np.einsum("in,ni->n", self.cluster_white[:, len(cluster_lm):],
                                     fixed_means[fixed_lm] - self.mu_ref[fixed_lm])

    def sums(self, values: np.ndarray, lm: np.ndarray) -> np.ndarray:
        """Per-landmark sums of one scalar per row, row k on landmark lm[k]."""
        return np.bincount(lm, weights=values, minlength=self.n_landmarks)

    def residuals(self, means: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """Residual vector of the clusters at the moving clusters' world-frame
        means pbar_c (3, m) and scatter factors F_c (3, f, m), f their
        largest rank, one scalar per row: every cluster's mean row, moving
        then fixed, then the scatter rows of each factor column in turn,
        one per moving cluster of a higher rank than that column's index."""
        lm, m = self.cluster_lm, means.shape[1]
        white = self.cluster_white[:, :m]
        gap = means - self.cluster_mu
        along = np.concatenate([white[0] * gap[0] + white[1] * gap[1] + white[2] * gap[2],
                                self.fixed_along])
        shift = self.sums(self.cluster_sizes * along, lm) / self.counts
        mean_rows = self.cluster_root * (along - np.take(shift, lm))
        scatter_rows = white[0] * factors[0] + white[1] * factors[1] + white[2] * factors[2]
        return np.concatenate([mean_rows, np.take(scatter_rows, self.scatter_at)])


def scatter_factor(scatter: np.ndarray) -> np.ndarray:
    """F with F F^T = C for a stack of 3x3 positive semidefinite C, (m, 3, 3).

    A closed-form LDL^T with diagonal pivoting: each step pivots on the
    largest remaining diagonal, so every multiplier stays bounded and a
    pivot lost in rounding comes last; a non-positive pivot gives a zero
    column. Without pivoting, the singular scatters of collinear or coplanar
    points can put a rounding-level positive pivot before a larger one and
    blow up the last pivot. With it, the columns past a scatter's rank hold
    rounding alone, so the scatter of n_c points is carried by its first
    min(n_c - 1, 3) columns, those `FrozenLandmarks` scores. Batched
    `cholesky` fails on those scatters, and batched `eigh` is about ten
    times slower.
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
    parameter columns cols: rows slice the residual vector, whose landmark
    rows come first, one scalar each, and block is B over those columns,
    (n, len(cols)). Every moving row lies in exactly one band; the rows of
    no band, the fixed clusters' mean rows, do not move. sums is S,
    (landmarks, parameters), and dense (D) the Jacobian of the rows that
    follow the landmark rows (gravity, IMU, prior). Row r of landmark j has
    the Jacobian B_r - a_r S_j / n_j, with S_j = sum_r a_r B_r over landmark j's
    rows, a_r = sqrt(n_c) for a mean row and 0 for a scatter row (see
    `FrozenLandmarks`). As sum_r a_r^2 = n_j,

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


class Bodies(NamedTuple):
    """A system's moving points and how they move, fixed for a solve.

    Point k, points[k] in its sensor frame, belongs to body body[k] and sits
    at pose pose[k] of the system's `pose_table`. Pose i lies in band
    band[i]; a point that no parameter moves is a fixed point, not a body,
    so every pose lies in a band. Band b's poses turn with the rotations of
    the parameter blocks rotations[b] (m each) and move with the
    translations of the blocks positions[b] (P each), pose i weighted by
    weights[i]; a parameter block is one 6-block (r1 r2 r3 x y z).
    Sensor-frame normals and their planarity, when given, split landmarks
    by normals at every freeze.
    """

    points: np.ndarray
    pose: np.ndarray
    body: np.ndarray
    band: np.ndarray
    rotations: np.ndarray
    positions: np.ndarray
    weights: np.ndarray
    normals: np.ndarray | None = None
    planarity: np.ndarray | None = None


class MultiScanSystem:
    """The landmark rows of moving bodies, and a system's dense rows.

    A system builds one from its `Bodies`, fixed points, `VoxelConfig` and
    stop_steps, and states the rest in four methods: `pose_table(params)`,
    a record whose rot (poses, 3, 3) and trans (poses, 3) give every pose;
    `levers(params)`, (poses, m - 1, 3, 3), the levers L_1 .. L_{m-1} of
    each pose's turn (L_0 = I - their sum); `dense_rows(params)`; and
    `dense_jacobian(params, turns)`, turns the J_l(r) of every block.

    `freeze` bins the moving points at their poses, groups each landmark's
    members within one body into a cluster and orders the clusters by band,
    each band's by descending rank, so that every scatter column's rows are
    a prefix of each band's clusters. `residuals` moves each cluster by its
    pose. In `linearize`, with c = (R x) x w_j (x a cluster's sensor-frame
    mean or scatter column, w_j times sqrt(n_c) on a mean row), a row moves by
    c^T L_i J_l(r) under the rotation of its band's i-th block and, a mean
    row, by sqrt(n_c) times its pose's weight times w_j under each
    translation. Each band gives one `Linearization` band per row kind:
    its mean rows, then each scatter column's rows over the rotations only,
    one per cluster of a higher rank than the column's index.
    """

    def __init__(self, bodies: Bodies, fixed_points: np.ndarray, voxel: VoxelConfig,
                 stop_steps: np.ndarray, planarity_min: float = 0.5):
        self.bodies = bodies
        self.voxel = voxel
        self.stop_steps = stop_steps
        self.planarity_min = planarity_min
        self.fixed_cells = cell_statistics(fixed_points, voxel)
        # the points and each pose's position weights, one row per component
        self.points_t = np.ascontiguousarray(bodies.points.T)
        self.weights_t = np.ascontiguousarray(bodies.weights.T)
        # columns of band b: its blocks' rotations, then their translations;
        # the rotation columns and the position blocks also one row per entry
        rot = (6 * bodies.rotations[:, :, None] + np.arange(3)).reshape(len(bodies.rotations), -1)
        pos = (6 * bodies.positions[:, :, None] + 3 + np.arange(3)).reshape(len(bodies.positions), -1)
        self.band_cols = np.concatenate([rot, pos], axis=1)
        self.rotation_cols = np.ascontiguousarray(rot.T)
        self.position_blocks = np.ascontiguousarray(bodies.positions.T)
        self._key = None

    def _at(self, params: np.ndarray):
        """The pose table at params; the last call's is kept and returned
        again for bit-identical params, with the tables moved by it."""
        key = params.tobytes()
        if key != self._key:
            self._table, self._world, self._moved = self.pose_table(params), None, None
            self._key = key
        return self._table

    def world_points(self, params: np.ndarray) -> np.ndarray:
        """World positions of the moving points at params, (N, 3)."""
        table = self._at(params)
        if self._world is None:
            pose, points = self.bodies.pose, self.bodies.points
            # np.take: the gather of fancy indexing, several times faster
            self._world = (np.einsum("nij,nj->ni", np.take(table.rot, pose, axis=0), points)
                           + np.take(table.trans, pose, axis=0))
        return self._world

    def _moved_clusters(self, params: np.ndarray) -> np.ndarray:
        """The moving clusters' columns at params, rotated, (3, 1 + f, m):
        R qbar_c, then R F_c."""
        self._at(params)
        if self._moved is None:
            rot = np.take(self._table.rot.transpose(1, 2, 0), self.cluster_pose, axis=2)
            self._moved = np.einsum("ijn,jcn->icn", rot, self.cluster_columns)
        return self._moved

    def freeze(self, params: np.ndarray) -> None:
        b, table = self.bodies, self._at(params)
        normals = None
        if b.normals is not None:
            normals = np.einsum("nij,nj->ni", np.take(table.rot, b.pose, axis=0), b.normals)
        groups = freeze_landmarks(self.world_points(params), self.voxel, self.fixed_cells,
                                  normals, b.planarity, self.planarity_min)
        rows, lm = groups["member_row"], groups["member_group"]
        # each landmark's members are contiguous and in ascending row order,
        # so its members in one body of contiguous rows form one run
        body = np.take(b.body, rows)
        new = np.empty(len(rows), dtype=bool)
        new[0] = True
        new[1:] = (lm[1:] != lm[:-1]) | (body[1:] != body[:-1])
        starts = np.flatnonzero(new)
        pose = np.take(b.pose, np.take(rows, starts))
        band = np.take(b.band, pose)
        sizes = np.diff(starts, append=len(rows))
        rank = np.minimum(sizes - 1, 3)  # the scatter rows each scores (`FrozenLandmarks`)
        # the clusters by band, each band's by descending rank, so that the
        # rows of every scatter column are a prefix of each band's clusters;
        # a stable sort of small integers is a radix sort
        n_bands = len(b.rotations)
        order = np.argsort((4 * band + 3 - rank).astype(np.min_scalar_type(4 * n_bands)), kind="stable")
        band, rank, first = np.take(band, order), np.take(rank, order), np.take(starts, order)
        self.band_bounds = np.searchsorted(band, np.arange(n_bands + 1))
        self.cluster_pose = np.take(pose, order)
        f = rank.max()  # the factor columns, none when every cluster is one point
        self.cluster_columns = np.empty((3, 1 + f, len(order)))
        if f:
            _, means, scatter = point_clusters(np.take(b.points, rows, axis=0), starts)
            self.cluster_columns[:, 0] = means[order].T
            self.cluster_columns[:, 1:] = scatter_factor(scatter[order])[:, :, :f].transpose(1, 2, 0)
        else:  # each cluster is its point
            self.cluster_columns[:, 0] = np.take(self.points_t, np.take(rows, first), axis=1)
        self.landmarks = lms = FrozenLandmarks(groups, self.voxel.epsilon, np.take(lm, first),
                                               np.take(sizes, order))
        self._moved = None
        # per cluster: w_j per row (sqrt(n_c) w_j on the mean row), its
        # pose's position weights, and the flat S index, landmark * n_params
        # + column, of each rotation column
        m = len(order)
        cluster_lm = lms.cluster_lm[:m]
        self.cluster_weights = np.take(self.weights_t, self.cluster_pose, axis=1)
        self.row_white = lms.cluster_white[:, None, :m]
        weighted = self.cluster_weights
        if f:  # sqrt(n_c) and n_c are 1 on clusters of one point
            self.row_white = np.repeat(self.row_white, 1 + f, axis=1)
            self.row_white[:, 0] *= lms.cluster_root[:m]
            weighted = lms.cluster_sizes[:m] * weighted
        n_params, n_blocks = len(self.stop_steps), len(self.stop_steps) // 6
        self.share_index = cluster_lm * n_params + np.take(self.rotation_cols, band, axis=1)
        # the translation half of S: per landmark and block, sum n_c weight w_j
        weight_sums = landmark_sums(cluster_lm * n_blocks + np.take(self.position_blocks, band, axis=1),
                                    weighted, lms.n_landmarks, n_blocks)
        translation = np.zeros((lms.n_landmarks, n_blocks, 6))
        # multiplied on long rows, then placed
        translation[:, :, 3:] = (weight_sums.T[None] * lms.white_lm.T[:, None]).T
        self.translation_sums = translation.reshape(lms.n_landmarks, n_params)
        # the row slices of the normal equations: (row kind, band, its
        # clusters lo:hi, their first row). Every cluster's mean row comes
        # first, then factor column i's rows band by band, a prefix of each
        lo, hi = self.band_bounds[:-1].tolist(), self.band_bounds[1:].tolist()
        self.row_slices = [(0, k, lo[k], hi[k], lo[k]) for k in range(n_bands) if lo[k] < hi[k]]
        row = len(lms.cluster_lm)
        for i in range(f):
            for k, held in enumerate(np.bincount(band[rank > i], minlength=n_bands).tolist()):
                if held:
                    self.row_slices.append((1 + i, k, lo[k], lo[k] + held, row))
                    row += held

    def residuals(self, params: np.ndarray) -> np.ndarray:
        moved = self._moved_clusters(params)
        means = moved[:, 0] + np.take(self._table.trans.T, self.cluster_pose, axis=1)
        return np.concatenate([self.landmarks.residuals(means, moved[:, 1:]), self.dense_rows(params)])

    def linearize(self, params: np.ndarray) -> Linearization:
        """Normal equations at params, every column in closed form."""
        b, lms = self.bodies, self.landmarks
        turns = left_jacobian(params.reshape(-1, 6)[:, :3])
        c = _cross(self._moved_clusters(params), self.row_white)
        # each lever's share of the turn, L_i^T c; L_0's is what is left
        levers = self.levers(params)
        shares = []
        for i in range(levers.shape[1]):
            lever = np.take(levers[:, i].transpose(1, 2, 0), self.cluster_pose, axis=2)
            shares.append(lever[0, :, None] * c[0] + lever[1, :, None] * c[1] + lever[2, :, None] * c[2])
            c -= shares[-1]
        shares.insert(0, c)
        # the rows' motions, one row per column: (columns, row kinds, clusters);
        # a scatter row does not move with a translation
        n_rot = 3 * len(shares)
        block = np.empty((self.band_cols.shape[1],) + c.shape[1:])
        for p, weights in enumerate(self.cluster_weights):
            np.multiply(weights, self.row_white[:, 0], out=block[n_rot + 3 * p : n_rot + 3 * p + 3, 0])
        bands = []
        for kind, k, lo, hi, row in self.row_slices:
            for i, share in enumerate(shares):
                block[3 * i : 3 * i + 3, kind, lo:hi] = turns[b.rotations[k, i]].T @ share[:, kind, lo:hi]
            cols = slice(None) if kind == 0 else slice(n_rot)
            bands.append((slice(row, row + hi - lo), self.band_cols[k, cols], block[cols, kind, lo:hi].T))
        sums = self.translation_sums + landmark_sums(
            self.share_index, block[:n_rot, 0] * lms.cluster_root[: len(self.cluster_pose)],
            lms.n_landmarks, len(params),
        )
        return Linearization(lms, bands, sums, self.dense_jacobian(params, turns))


class _Poses(NamedTuple):
    """Every cloud's rotation matrix and translation at one parameter vector."""

    rot: np.ndarray
    trans: np.ndarray


class _RigidSystem(MultiScanSystem):
    """Keyframe adjustment: each free cloud a rigid body at its own pose,
    with gravity rows.

    Parameters are the free poses' (r1 r2 r3 x y z) blocks in free-index
    order, each with the stop_steps of a pose; the pose table holds the
    free poses alone, each the one pose of its band, over its block's 6
    columns. A pinned first cloud never moves within a solve, so its
    points at their initial pose are the fixed points, binned once, as a
    problem's anchors are. Each landmark's members in one cloud form one
    cluster. The gravity rows w (R_k d - up) of the free clouds form the
    small dense block, turned_motion(w I, R_k d, J_l(r_k)); a pinned
    cloud's would be constant and are dropped.
    """

    def __init__(self, problem: AdjustmentProblem):
        self.problem = problem
        self.free = problem.free_indices()
        # the free clouds are the tail from free[0] on, block k the cloud free[0] + k
        clouds = problem.clouds[self.free[0]:]
        fixed = problem.fixed_points
        if self.free[0]:
            pinned, pose = problem.clouds[0].points, problem.initial_poses[0]
            # as `world_points` places a cloud's points
            rot = np.repeat(rotvec_to_matrix(pose.rotvec[None]), len(pinned), axis=0)
            fixed = np.einsum("nij,nj->ni", rot, pinned) + pose.trans
        cloud = np.repeat(np.arange(len(clouds)), [len(c) for c in clouds])
        blocks = np.arange(len(clouds))[:, None]
        normals = planarity = None
        if problem.split_normals:  # a cloud without normals has undefined ones
            bare = [c.normals is None or c.planarity is None for c in clouds]
            normals = np.vstack([np.zeros((len(c), 3)) if no else c.normals for c, no in zip(clouds, bare)])
            planarity = np.concatenate([np.full(len(c), np.nan) if no else c.planarity
                                        for c, no in zip(clouds, bare)])
        bodies = Bodies(
            np.vstack([c.points for c in clouds]), cloud, cloud, np.arange(len(clouds)),
            blocks, blocks, np.ones((len(clouds), 1)), normals, planarity,
        )
        super().__init__(bodies, fixed, problem.voxel,
                         np.tile(np.repeat([STOP_ROTATION, STOP_TRANSLATION], 3), len(self.free)),
                         problem.planarity_min)
        cons = [c for c in problem.gravity_constraints if c.cloud_id >= self.free[0]]
        self.grav_pose = np.array([c.cloud_id for c in cons], dtype=np.int64) - self.free[0]
        self.grav_local = np.array([c.direction_local for c in cons], dtype=float).reshape(-1, 3)
        self.grav_weight = np.array([c.weight for c in cons], dtype=float)

    def poses(self, params: np.ndarray) -> list[Pose]:
        out = list(self.problem.initial_poses)
        for k, ci in enumerate(self.free):
            out[ci] = Pose.from_params(params[6 * k : 6 * k + 6])
        return out

    def pose_table(self, params: np.ndarray) -> _Poses:
        blocks = params.reshape(-1, 6)
        return _Poses(rotvec_to_matrix(blocks[:, :3]), blocks[:, 3:])

    def levers(self, params: np.ndarray) -> np.ndarray:
        return np.zeros((len(self.free), 0, 3, 3))

    def dense_rows(self, params: np.ndarray) -> np.ndarray:
        rots = self._at(params).rot[self.grav_pose]
        return gravity_residual(rots, self.grav_local, self.grav_weight).ravel()

    def dense_jacobian(self, params: np.ndarray, turns: np.ndarray) -> np.ndarray:
        # the parameter block of each constraint's cloud is its pose
        block = self.grav_pose
        grav_jac = np.zeros((len(block), 3, len(turns), 6))
        grav_jac[np.arange(len(block)), :, block, :3] = turned_motion(
            self.grav_weight[:, None, None] * np.eye(3),
            (self._at(params).rot[block] @ self.grav_local[:, :, None])[..., 0],
            turns[block],
        )
        return grav_jac.reshape(-1, len(params))


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

"""LiDAR-inertial odometry: ring buffers, sliding window, keyframes, map.

Per scan: adaptively downsample and buffer, extract the sliding time
window, preintegrate IMU between control poses, then optimize the window's
continuous trajectory against voxel landmarks built from the window points
plus static map points, with preintegrated IMU terms appended to the
residual vector. A scan becomes a keyframe when its pose is more than
`keyframe_distance` from every keyframe; adding one triggers an adjustment
over the affected keyframe range with normal splitting and per-keyframe
gravity terms.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from multiscan.adjustment import (
    AdjustmentProblem,
    FrozenLandmarks,
    GravityConstraint,
    InsufficientStructureError,
    Linearization,
    STOP_ROTATION,
    STOP_TRANSLATION,
    landmark_sums,
    levenberg_marquardt,
    lm_step,  # noqa: F401  unused: kept bound so the benchmark's tracer can wrap it here
    run_adjustment,
)
from multiscan.downsample import DownsampleConfig, adaptive_downsample
from multiscan.geometry import (
    Pose,
    PointCloud,
    left_jacobian,
    matrix_to_rotvec,
    rotvec_to_matrix,
)
from multiscan.imu import (
    GravityEstimate,
    ImuStream,
    PreintegratedDelta,
    estimate_gravity,
    imu_jacobian,
    imu_residual,
    preintegrate,
    stack_deltas,
    static_initialization,
)
from multiscan.landmarks import (
    VoxelConfig, cell_statistics, dual_grid_groups, pack_cell_indices, voxel_cell_indices,
)
from multiscan.trajectory import (
    ContinuousTrajectory,
    deskew,
    hermite_positions,
    position_weights,
    rotation_chain,
    slerp_rotation_matrices,
    slerp_turns,
    spline_table,
    stamp_slots,
)

logger = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    window_duration: float = 1.0
    control_spacing: float = 0.1
    window_lm: int = 6  # outer-iteration budget of each window solve
    voxel: VoxelConfig = field(default_factory=VoxelConfig)
    downsample: DownsampleConfig = field(default_factory=DownsampleConfig)
    buffer_capacity: float = 5.0
    imu_init_duration: float = 0.5
    imu_weight_rot: float = 1000.0
    imu_weight_vel: float = 300.0
    imu_weight_pos: float = 300.0
    prior_weight_rot: float = 200.0
    prior_weight_trans: float = 100.0
    gravity_weight: float = 10.0
    # intended keyframe spacing (m): a scan becomes a keyframe when its pose
    # is farther than this from every keyframe
    keyframe_distance: float = 0.5
    kf_opt_distance: float = 10.0
    kf_opt_overlap: float = 0.3
    kf_fallback_window: int = 5
    kf_anchor_count: int = 3
    kf_lm: int = 10  # outer-iteration budget of each keyframe adjustment
    k_neighbors: int = 10
    static_radius: float = 30.0
    planarity_min: float = 0.5

    def __post_init__(self):
        for item in fields(self):
            value = getattr(self, item.name)
            if isinstance(value, (int, float)) and not np.isfinite(value):
                raise ValueError(f"config key {item.name!r} must be finite, got {value}")
        for name in ("window_duration", "control_spacing", "buffer_capacity", "keyframe_distance"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"config key {name!r} must be positive, got {getattr(self, name)}")
        # squared or compared against distances and durations
        for name in ("kf_opt_distance", "static_radius", "imu_init_duration"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"config key {name!r} must be >= 0, got {getattr(self, name)}")
        for name in ("planarity_min", "kf_opt_overlap"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"config key {name!r} must lie in [0, 1], got {getattr(self, name)}")
        # a point's normal and planarity need a plane through its neighbours;
        # the keyframe counts slice the keyframe list; a budget of 0 would
        # return the start as the solve's answer
        for name, least in (("k_neighbors", 3), ("kf_fallback_window", 1), ("kf_anchor_count", 0),
                            ("window_lm", 1), ("kf_lm", 1)):
            value = getattr(self, name)
            integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (integer and value >= least):
                raise ValueError(f"config key {name!r} must be an integer >= {least}, got {value!r}")


def _parse_like(key: str, raw: str, default):
    """raw read as the type of default; a tuple from comma- or space-separated floats."""
    try:
        if isinstance(default, tuple):
            return tuple(float(v) for v in raw.replace(",", " ").split())
        return type(default)(raw)
    except ValueError as err:
        raise ValueError(f"config key {key!r}: {err}") from err


def pipeline_config_from_dict(values: dict) -> PipelineConfig:
    """Build a config from flat `key = value` strings; unknown keys fail.

    Numbers take their field's name, the two LM budgets `window_lm` and
    `kf_lm` too; voxel and downsampling settings take `voxel_<field>` and
    `downsample_<field>`.
    """
    defaults = PipelineConfig()
    nested = {"voxel": asdict(defaults.voxel), "downsample": asdict(defaults.downsample)}
    top = {}
    for key, raw in values.items():
        group, _, name = key.partition("_")
        if name in nested.get(group, {}):
            nested[group][name] = _parse_like(key, raw, nested[group][name])
        elif isinstance(getattr(defaults, key, None), (int, float)):
            top[key] = _parse_like(key, raw, getattr(defaults, key))
        else:
            raise ValueError(f"unknown config key {key!r}")
    return PipelineConfig(
        **top,
        voxel=VoxelConfig(**nested["voxel"]),
        downsample=DownsampleConfig(**nested["downsample"]),
    )


class RingBuffer:
    """Bounded, time-ordered store; drops entries older than the capacity."""

    def __init__(self, capacity: float):
        self.capacity = float(capacity)
        self.times: list[float] = []
        self.items: list = []

    def push(self, time: float, item) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError(f"out-of-order entry: {time} after {self.times[-1]}")
        self.times.append(float(time))
        self.items.append(item)
        horizon = time - self.capacity
        drop = bisect.bisect_left(self.times, horizon)
        if drop:
            del self.times[:drop]
            del self.items[:drop]

    def window(self, t_start: float, t_end: float) -> list:
        lo = bisect.bisect_left(self.times, t_start)
        hi = bisect.bisect_right(self.times, t_end)
        return self.items[lo:hi]


def compute_point_attributes(cloud: PointCloud, k_neighbors: int = 10):
    """Per-point normal and planarity from the k-nearest-neighbor scatter.

    Planarity is (lambda2 - lambda3) / lambda1 for eigenvalues in
    descending order; the normal is the smallest eigenvector flipped
    toward the sensor origin. A degenerate neighborhood yields planarity
    0 and a zero normal as the undefined flag.
    """
    if len(cloud) < k_neighbors:
        raise ValueError(f"cloud has {len(cloud)} points, need >= {k_neighbors}")
    tree = cKDTree(cloud.points)
    _, idx = tree.query(cloud.points, k=k_neighbors)
    neigh = cloud.points[idx]  # (N, k, 3)
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k_neighbors
    evals, evecs = np.linalg.eigh(cov)  # ascending
    lam1 = evals[:, 2]
    ok = lam1 > 1e-12
    planarity = np.zeros(len(cloud))
    planarity[ok] = (evals[ok, 1] - evals[ok, 0]) / lam1[ok]
    normals = np.where(ok[:, None], evecs[:, :, 0], 0.0)
    # orient toward the origin of the sensor frame
    flip = np.einsum("ni,ni->n", normals, cloud.points) > 0.0
    normals[flip] *= -1.0
    return normals, np.clip(planarity, 0.0, 1.0)


@dataclass
class Keyframe:
    pose: Pose
    cloud: PointCloud
    gravity: GravityEstimate

    def world_points(self) -> np.ndarray:
        return self.pose.apply(self.cloud.points)

    def world_normals(self) -> np.ndarray:
        return self.cloud.normals @ self.pose.matrix().T

    def cell_keys(self, cell_size: float) -> np.ndarray:
        """Unique packed ids of the world cells of side cell_size holding the points."""
        return np.unique(pack_cell_indices(voxel_cell_indices(self.world_points(), cell_size)))


class Map:
    """Keyframes, and the world-frame points and normals of all their clouds
    at the keyframes' current poses, stacked in keyframe order: `add`
    appends the new keyframe's, and `rebuild_index` restacks them all after
    the poses move."""

    def __init__(self):
        self.keyframes: list[Keyframe] = []
        self.points = np.zeros((0, 3))
        self.normals = np.zeros((0, 3))

    def __len__(self) -> int:
        return len(self.keyframes)

    def add(self, kf: Keyframe) -> None:
        self.keyframes.append(kf)
        self.points = np.vstack([self.points, kf.world_points()])
        self.normals = np.vstack([self.normals, kf.world_normals()])

    def rebuild_index(self) -> None:
        """Recompute the world points and normals; needs a keyframe."""
        self.points = np.vstack([kf.world_points() for kf in self.keyframes])
        self.normals = np.vstack([kf.world_normals() for kf in self.keyframes])

    def nearest_keyframe_distance(self, position: np.ndarray) -> float:
        if not self.keyframes:
            return np.inf
        dists = [np.linalg.norm(kf.pose.trans - position) for kf in self.keyframes]
        return float(min(dists))


def extract_static_points(world_map: Map, position: np.ndarray, radius: float) -> np.ndarray:
    """Map points within radius of the sensor position whose normal faces it.

    A back-facing point (normal pointing away from the sensor) and a point
    with an undefined (zero) normal are not visible and are dropped.
    """
    rel = world_map.points - position
    near = np.einsum("ni,ni->n", rel, rel) <= radius * radius
    pts = world_map.points[near]
    facing = np.einsum("ni,ni->n", world_map.normals[near], position - pts) > 0.0
    return pts[facing]


@dataclass
class ScanResult:
    time: float
    pose: Pose
    degraded: bool
    reasons: tuple
    keyframe_created: bool
    dropped_points: int  # points of the scan stamped before its window


def _up_to_z_rotvec(up: np.ndarray) -> np.ndarray:
    """Rotation vector turning the unit vector up onto +z; a half turn about x for -z."""
    axis = np.cross(up, [0.0, 0.0, 1.0])
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        return np.array([np.pi, 0.0, 0.0]) if up[2] < 0.0 else np.zeros(3)
    angle = np.arccos(np.clip(up @ [0.0, 0.0, 1.0], -1.0, 1.0))
    return axis / norm * angle


class _Spline(NamedTuple):
    """The window's spline at one parameter vector: the control rotations
    R_k and segment turns phi_s (`trajectory.rotation_chain`), and each
    moving point's rotated sensor position R x and world position."""

    mats: np.ndarray
    phi: np.ndarray
    rotated: np.ndarray
    world: np.ndarray


class _WindowSystem:
    """Spline point-motion model of one window pass, with IMU and prior rows.

    Parameters are the control poses, one 6-block (r1 r2 r3 x y z) each,
    with the stop_steps of a pose. Each point moves by the spline pose at
    its own stamp, the pose `deskew` gives it through
    `ContinuousTrajectory(ctrl_times, params)`: a slot is one distinct
    stamp (`trajectory.stamp_slots`). A stamp in spline segment s (control
    poses s to s + 1) reads only the rotations of poses s and s + 1 (slerp)
    and the positions of P = min(4, K) poses around it (Hermite on the
    tangents v = T p, with the tangent matrix T = `np.gradient(I, dt)`;
    the IMU rows read v as each control pose's velocity). Each moving
    member is a cluster of one. Every table has one owner level and is
    built there once:

    - per window (`__init__`): each slot's `trajectory.SplineTable` row
      (segment, fraction, Hermite basis) and the weights of its P control
      positions (`trajectory.position_weights`), the columns of each
      segment (6 rotation, 3 P translation), the rows of T that give the
      IMU end poses' velocities, the prior, and the static map points'
      `landmarks.cell_statistics`, since they never move within the window.
    - per parameter vector (`_at`, a one-entry cache keyed on the
      parameter bytes): the control rotations R_k, the segment turns
      phi_s, and the moving points' R x and world positions, so a freeze
      at an accepted trial, the first residuals after a freeze, the IMU
      rows and `linearize` share one evaluation.
    - per freeze (`freeze`, `sort_members`): the landmarks and clusters
      (`FrozenLandmarks`: each cluster's w_j, mu_j and sqrt(n_c)), the
      members ordered by segment with each one's w_j and position weights
      (positions are linear in the control positions, so a member's
      motion under a translation is its weight times w_j), the flat index
      of each member's rotation columns in S, and the translation half of
      S, which no parameter moves.

    `linearize` gives the `Linearization` one band per segment. A member's
    motion under a rotation is closed-form: with c = (R x) x w_j and the
    slot's lever A (`trajectory.slerp_turns`), d = A^T c, its row is
    (c - d)^T J_l(r_s) under pose s and d^T J_l(r_{s+1}) under pose s + 1.
    J_l of the control rotations is built once per call and shared with the
    IMU rows, and the rotation half of S is one bincount of the member
    rows, added to the translation half of the freeze. The IMU rows (one
    batched `imu.imu_residual` call, differentiated by `imu.imu_jacobian`)
    and the prior rows form the small dense block.
    """

    def __init__(self, ctrl_times, ctrl_params, sensor_points, stamps,
                 static_points, deltas, gravity_vec, config: PipelineConfig):
        self.ctrl_times = ctrl_times
        self.spacing = float(ctrl_times[1] - ctrl_times[0])
        self.n_ctrl = len(ctrl_times)
        self.stop_steps = np.tile(np.repeat([STOP_ROTATION, STOP_TRANSLATION], 3), self.n_ctrl)
        self.sensor_points = sensor_points
        self.static_cells = cell_statistics(static_points, config.voxel)
        self._key = None
        # instrumented segments and their deltas, stacked over segments
        self.imu_seg = np.array([seg for seg, _ in deltas], dtype=np.int64)
        self.delta = stack_deltas([d for _, d in deltas]) if deltas else None
        self.gravity_vec = gravity_vec
        self.config = config
        # continuity prior: every control pose except the newest stays soft-
        # anchored to its warm-start value (the previous window's estimate),
        # which pins the drift-rate deformations the data cannot observe
        self.prior_params = np.asarray(ctrl_params, dtype=float).copy()
        w = np.concatenate([
            np.full(3, config.prior_weight_rot), np.full(3, config.prior_weight_trans)
        ])
        self.prior_weights = np.tile(w, self.n_ctrl)
        self.prior_weights[-6:] = 0.0  # newest pose is what odometry must find
        self.prior_jacobian = np.diag(self.prior_weights)
        slot_times, self.point_slot = stamp_slots(stamps)
        self.slots = spline_table(ctrl_times, self.spacing, slot_times)
        # (slot, P): the weights of the P control positions that move the slot,
        # built by this module's `hermite_positions`, which a benchmark trace counts
        self.slot_first, self.slot_weights = position_weights(
            hermite_positions(np.eye(self.n_ctrl), self.slots), self.slots
        )
        # columns of segment s: rotations of poses s and s + 1, then the
        # translations of its P poses, the first of them clipped to [0, K - P]
        n_pos = self.slot_weights.shape[1]
        first = np.clip(np.arange(self.n_ctrl - 1) - 1, 0, self.n_ctrl - n_pos)
        reach = first[:, None] + np.arange(n_pos)
        self.segment_cols = np.concatenate([
            6 * np.arange(self.n_ctrl - 1)[:, None] + [0, 1, 2, 6, 7, 8],
            (6 * reach[:, :, None] + 3 + np.arange(3)).reshape(self.n_ctrl - 1, -1),
        ], axis=1)
        self.imu_weights = np.concatenate([
            np.full(3, config.imu_weight_rot),
            np.full(3, config.imu_weight_vel),
            np.full(3, config.imu_weight_pos),
        ])
        # each instrumented segment's end poses, and the rows of the tangent
        # matrix T that give their velocities v = T p
        self.imu_ends = np.stack([self.imu_seg, self.imu_seg + 1], axis=1)
        self.imu_tangent = np.gradient(np.eye(self.n_ctrl), self.spacing, axis=0)[self.imu_ends]

    # ---- trajectory evaluation -------------------------------------------------

    def _at(self, params: np.ndarray) -> _Spline:
        """The spline at params; the last call's is kept and returned again
        for bit-identical params."""
        key = params.tobytes()
        if key != self._key:
            blocks = params.reshape(-1, 6)
            mats, phi = rotation_chain(blocks[:, :3])
            rots = slerp_rotation_matrices(mats, phi, self.slots)
            pos = hermite_positions(blocks[:, 3:], self.slots)
            # np.take: the gather of fancy indexing, several times faster
            rotated = np.einsum("nij,nj->ni", np.take(rots, self.point_slot, axis=0), self.sensor_points)
            self._spline = _Spline(mats, phi, rotated, rotated + np.take(pos, self.point_slot, axis=0))
            self._key = key
        return self._spline

    def world_points(self, params: np.ndarray) -> np.ndarray:
        """World positions of the moving points at params."""
        return self._at(params).world

    def imu_states(self, params: np.ndarray) -> tuple:
        """The arguments of `imu_residual` for the instrumented segments at params."""
        blocks = params.reshape(-1, 6)
        vel = np.gradient(blocks[:, 3:], self.spacing, axis=0)
        mats = self._at(params).mats
        i, j = self.imu_seg, self.imu_seg + 1
        return (self.delta, mats[i], blocks[i, 3:], vel[i],
                mats[j], blocks[j, 3:], vel[j], self.gravity_vec)

    def imu_rows(self, params: np.ndarray) -> np.ndarray:
        """Weighted preintegration residuals, 9 per instrumented segment."""
        if self.delta is None:
            return np.zeros(0)
        return (self.imu_weights * imu_residual(*self.imu_states(params))).ravel()

    def imu_jacobian(self, params: np.ndarray, turns: np.ndarray) -> np.ndarray:
        """Jacobian of `imu_rows`: `imu_jacobian` chained by w = J_l(r) dr,
        turns the control poses' J_l(r), and by v = T p, so segment s reaches
        the positions of poses s - 1 to s + 2."""
        if self.delta is None:
            return np.zeros((0, len(params)))
        # (segment, row, end pose i or j, turn / position / velocity, axis)
        jac = self.imu_weights[:, None] * imu_jacobian(*self.imu_states(params))
        jac = jac.reshape(-1, 9, 2, 3, 3)
        out = np.zeros((len(self.imu_seg), 9, self.n_ctrl, 6))
        segs = np.arange(len(self.imu_seg))
        for end in (0, 1):
            pose = self.imu_seg + end
            out[segs, :, pose, :3] = jac[:, :, end, 0] @ turns[pose]
            out[segs, :, pose, 3:] = jac[:, :, end, 1]
        out[..., 3:] += np.einsum("saeb,sek->sakb", jac[:, :, :, 2], self.imu_tangent)
        return out.reshape(-1, len(params))

    # ---- residual system -----------------------------------------------------------

    def freeze(self, params: np.ndarray) -> None:
        groups = dual_grid_groups(self.world_points(params), self.config.voxel, self.static_cells)
        if groups is None:
            raise InsufficientStructureError(
                "insufficient overlap/structure in the sliding window"
            )
        # every member is a cluster of one
        self.member_row, member_lm = groups["member_row"], groups["member_group"]
        self.landmarks = FrozenLandmarks(
            groups, self.config.voxel.epsilon, member_lm, np.ones(len(member_lm))
        )
        self.no_factors = np.empty((len(member_lm), 3, 0))
        self.sort_members(self.member_row, member_lm)

    def sort_members(self, rows: np.ndarray, lm: np.ndarray) -> None:
        """Order the members, moving points rows on landmarks lm, by segment:
        members [member_bounds[s], member_bounds[s + 1]) of that order lie
        in segment s, and order maps it back to the members' rows. Builds
        the per-freeze tables `linearize` reads in that order, each member's
        w_j and Hermite weights and the flat index, landmark * n_params +
        column, of its rotation columns in S, and the translation half of
        S, which no parameter moves: per landmark, its members' summed
        Hermite weights times w_j."""
        lms = self.landmarks
        slot = self.point_slot[rows]
        seg = self.slots.seg[slot]
        # a stable sort of small integers is a radix sort
        self.order = np.argsort(seg.astype(np.min_scalar_type(self.n_ctrl)), kind="stable")
        seg, lm, slot = seg[self.order], lm[self.order], slot[self.order]
        self.member_point = rows[self.order]
        self.member_slot = slot
        self.member_bounds = np.searchsorted(seg, np.arange(self.n_ctrl))
        # member tables are stored transposed, one row per component: numpy
        # runs long rows far faster than (n, 3) arrays
        self.member_white = np.take(lms.white_lm.T, lm, axis=1)
        self.member_weights = np.take(self.slot_weights.T, slot, axis=1)
        n_params = len(self.stop_steps)
        self.member_index = np.add.outer([0, 1, 2, 6, 7, 8], lm * n_params + 6 * seg)
        # each landmark's summed weight of every control position, times w_j
        position = lm * self.n_ctrl + np.take(self.slot_first, slot)
        weight_sums = landmark_sums(
            np.add.outer(np.arange(len(self.member_weights)), position), self.member_weights,
            lms.n_landmarks, self.n_ctrl,
        )
        translation = np.zeros((lms.n_landmarks, self.n_ctrl, 6))
        translation[:, :, 3:] = weight_sums[:, :, None] * lms.white_lm[:, None, :]
        self.translation_sums = translation.reshape(lms.n_landmarks, n_params)

    def prior_rows(self, params: np.ndarray) -> np.ndarray:
        return self.prior_weights * (params - self.prior_params)

    def residuals(self, params: np.ndarray) -> np.ndarray:
        means = np.take(self.world_points(params), self.member_row, axis=0)
        return np.concatenate([
            self.landmarks.residuals(means, self.no_factors),
            self.imu_rows(params),
            self.prior_rows(params),
        ])

    def linearize(self, params: np.ndarray) -> Linearization:
        """Normal equations at params, every column in closed form."""
        spline = self._at(params)
        # J_l of the control rotations, shared by the slerp turns and the IMU rows
        turns = left_jacobian(params.reshape(-1, 6)[:, :3])
        # each member's slot lever A, c = (R x) x w_j and d = A^T c: its rows
        # under the two end poses' rotations are (c - d)^T J_l(r_s) and
        # d^T J_l(r_{s+1})
        lever = np.take(slerp_turns(spline.mats, spline.phi, self.slots).transpose(1, 2, 0),
                        self.member_slot, axis=2)
        c = np.cross(np.take(spline.rotated.T, self.member_point, axis=1), self.member_white, axis=0)
        d = lever[0] * c[0] + lever[1] * c[1] + lever[2] * c[2]
        c -= d
        # the member rows' motions, transposed: (columns, members)
        block = np.empty((self.segment_cols.shape[1], len(self.member_point)))
        for p, weights in enumerate(self.member_weights):
            # under a translation: its Hermite weight times w_j
            np.multiply(weights, self.member_white, out=block[6 + 3 * p : 9 + 3 * p])
        bands = []
        for s, (lo, hi) in enumerate(zip(self.member_bounds, self.member_bounds[1:])):
            if lo < hi:
                block[:3, lo:hi] = turns[s].T @ c[:, lo:hi]
                block[3:6, lo:hi] = turns[s + 1].T @ d[:, lo:hi]
                bands.append((self.order[lo:hi], self.segment_cols[s], block[:, lo:hi].T))
        sums = self.translation_sums + landmark_sums(
            self.member_index, block[:6], self.landmarks.n_landmarks, len(params)
        )
        dense = np.vstack([self.imu_jacobian(params, turns), self.prior_jacobian])
        return Linearization(self.landmarks, bands, sums, dense)


class _Segment(NamedTuple):
    """A preintegrated segment: the times it was integrated over, the stamp
    of the first sample it read, and its delta."""

    t_i: float
    t_j: float
    first: float
    delta: PreintegratedDelta


def _segment_key(t_i: float, t_j: float) -> tuple[int, int]:
    """A segment's cache key: its times rounded to 1 ns."""
    return round(t_i * 1e9), round(t_j * 1e9)


class OdometryPipeline:
    """Scan-by-scan odometry with keyframe map maintenance."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.scans = RingBuffer(self.config.buffer_capacity)
        self.imu = ImuStream()
        self.map = Map()
        self.trajectory_times: list[float] = []
        self.trajectory_poses: list[Pose] = []
        self.results: list[ScanResult] = []
        self._traj: ContinuousTrajectory | None = None
        # `_segment_key` -> `_Segment` of the segments of the last window
        # that no later sample can change
        self._segments: dict = {}
        self._initialized = False
        self._imu_warned = False
        self.gyro_bias = np.zeros(3)
        self.gravity_vec = np.array([0.0, 0.0, -9.81])
        self.base_rot = np.zeros(3)

    # ---- inputs ------------------------------------------------------------------

    def add_imu(self, stream: ImuStream) -> None:
        """Append stream to the stored one, or raise ValueError and store none
        of it: it must start after the last stored sample (`ImuStream.concatenate`)."""
        self.imu = self.imu.concatenate(stream)

    def _trim_imu(self, horizon: float) -> None:
        """Drop stored samples older than horizon, always keeping the newest."""
        if len(self.imu):
            self.imu = self.imu.between(min(horizon, self.imu.times[-1]), np.inf)

    def _maybe_initialize(self) -> None:
        if self._initialized:
            return
        if len(self.imu):
            t0 = self.imu.times[0]
            init = self.imu.between(t0, t0 + self.config.imu_init_duration)
            if len(init) >= 2 and init.times[-1] - init.times[0] >= 0.8 * self.config.imu_init_duration:
                gyro_bias, up_body, magnitude = static_initialization(init)
                self.gyro_bias = gyro_bias
                self.gravity_vec = np.array([0.0, 0.0, -magnitude])
                self.base_rot = _up_to_z_rotvec(up_body)
        self._initialized = True

    # ---- per-scan processing -------------------------------------------------------

    def process_scan(self, scan: PointCloud) -> ScanResult:
        """Estimate the pose at the scan's last stamp.

        Raises ValueError, before any state changes, for a scan that fails
        `PointCloud.validate` (non-finite values or decreasing stamps) or
        that ends before the previous scan (out-of-order).
        """
        cfg = self.config
        scan.validate()
        reasons: list[str] = []
        if len(scan) == 0:
            return self._fallback_result(None, reasons + ["empty_scan"], 0)
        t_now = float(scan.stamps[-1])
        self._maybe_initialize()
        self._trim_imu(t_now - cfg.buffer_capacity)
        down = adaptive_downsample(scan, cfg.downsample)
        self.scans.push(t_now, down)

        ctrl_times = self._control_times(t_now)
        dropped = int(np.count_nonzero(down.stamps < ctrl_times[0]))
        params0 = self._initial_params(ctrl_times)
        pts, stamps = self._window_points(ctrl_times[0], t_now)

        if len(self.imu):
            deltas = self._segment_deltas(ctrl_times)
            imu_reason = None if deltas else "no_imu_coverage"
        else:
            deltas, imu_reason = [], "no_imu"
        if imu_reason is not None:
            reasons.append(imu_reason)
            if not self._imu_warned:
                logger.warning("running LiDAR-only: %s", imu_reason)
                self._imu_warned = True

        static_pts = np.zeros((0, 3))
        if len(self.map):
            # seen from the newest control pose's predicted position
            static_pts = extract_static_points(self.map, params0[-3:], cfg.static_radius)

        if len(pts) < cfg.voxel.n_min + 1:
            return self._fallback_result(t_now, reasons + ["too_few_points"], dropped)

        system = _WindowSystem(
            ctrl_times, params0, pts, stamps, static_pts, deltas, self.gravity_vec, cfg
        )
        try:
            params, _, _, _ = levenberg_marquardt(system, params0, cfg.window_lm)
        except InsufficientStructureError:
            return self._fallback_result(t_now, reasons + ["insufficient_structure"], dropped)

        self._traj = ContinuousTrajectory(system.ctrl_times, params)
        pose_now = self._traj.sample_pose(t_now)
        self.trajectory_times.append(t_now)
        self.trajectory_poses.append(pose_now)

        created = self._maybe_create_keyframe(down, pose_now)
        result = ScanResult(
            time=t_now,
            pose=pose_now,
            degraded=bool(reasons),
            reasons=tuple(reasons),
            keyframe_created=created,
            dropped_points=dropped,
        )
        self.results.append(result)
        return result

    def _control_times(self, t_now: float) -> np.ndarray:
        cfg = self.config
        n_seg_max = max(1, int(round(cfg.window_duration / cfg.control_spacing)))
        t_data0 = self.scans.times[0] - 0.2
        span = max(t_now - t_data0, cfg.control_spacing)
        n_seg = min(n_seg_max, max(1, int(np.ceil(span / cfg.control_spacing - 1e-9))))
        return t_now - cfg.control_spacing * np.arange(n_seg, -1, -1)

    def _initial_params(self, ctrl_times: np.ndarray) -> np.ndarray:
        return self._predict(ctrl_times).ravel()

    def _predict(self, times: np.ndarray) -> np.ndarray:
        """Poses at times before the window is solved, one (r, p) row each:
        the base pose until a trajectory exists, then samples of the last
        solved trajectory (times clipped to its span), one batch, or its
        constant-velocity extrapolation past its end."""
        prev = self._traj
        out = np.zeros((len(times), 6))
        if prev is None:
            out[:, :3] = self.base_rot
            return out
        past = times > prev.t_last + 1e-9
        inside = np.clip(times[~past], prev.t_first, prev.t_last)
        out[~past, :3] = matrix_to_rotvec(prev.sample_rotations(inside))
        out[~past, 3:] = prev.sample_position(inside)
        if np.any(past):
            out[past] = self._extrapolate(prev, times[past])
        return out

    @staticmethod
    def _extrapolate(traj: ContinuousTrajectory, times: np.ndarray) -> np.ndarray:
        dt = times - traj.t_last
        vel = traj.sample_position(traj.t_last, 1)[0]
        # the last segment's turn, continued at its constant rate
        rot = traj.rotations[-1] @ rotvec_to_matrix(traj.turns[-1] * (dt / traj.spacing)[:, None])
        return np.concatenate([matrix_to_rotvec(rot), traj.positions[-1] + vel * dt[:, None]], axis=1)

    def _window_points(self, t_start: float, t_end: float):
        """Points and stamps of the buffered scans inside [t_start, t_end].

        A scan is keyed by its last stamp, so one keyed before t_start has
        no point inside."""
        pts, stamps = [], []
        for cloud in self.scans.window(t_start, t_end):
            inside = (cloud.stamps >= t_start) & (cloud.stamps <= t_end)
            pts.append(cloud.points[inside])
            stamps.append(cloud.stamps[inside])
        if not pts:
            return np.zeros((0, 3)), np.zeros(0)
        return np.vstack(pts), np.concatenate(stamps)

    def _segment_deltas(self, ctrl_times: np.ndarray):
        """Preintegrated deltas for segments the IMU stream covers.

        A segment counts as covered when at most a small fraction at either
        end lies outside the stream; the integrator clamps boundary values
        there, which is negligible against one missing sample period.

        A segment reads the samples in [t_i - 0.05, t_j + 0.05]. Once the
        stream reaches past t_j + 0.05, no later sample falls there, so the
        delta is kept, with the times it was integrated over and the first
        sample it read, and reused while that sample is still stored.
        Control times are the scan's end less multiples of the spacing, so
        one segment comes back under times a few ulps apart: it is kept
        under its times rounded to 1 ns (`_segment_key`), and a kept delta
        stands for any segment within that rounding. Every kept segment
        stays while its midpoint lies in the window.
        """
        t_start = float(ctrl_times[0])
        kept = {key: entry for key, entry in self._segments.items()
                if entry.t_i + entry.t_j > 2.0 * t_start}
        deltas = []
        for seg in range(len(ctrl_times) - 1):
            t_i, t_j = float(ctrl_times[seg]), float(ctrl_times[seg + 1])
            key = _segment_key(t_i, t_j)
            entry = kept.get(key)
            if entry is None or self.imu.times[0] > entry.first:
                slack = 0.25 * (t_j - t_i)
                samples = self.imu.between(t_i - 0.05, t_j + 0.05)
                times = samples.times
                if len(times) < 2 or times[0] > t_i + slack or times[-1] < t_j - slack:
                    continue
                entry = _Segment(t_i, t_j, times[0],
                                 preintegrate(samples, t_i, t_j, gyro_bias=self.gyro_bias))
                if self.imu.times[-1] > t_j + 0.05:
                    kept[key] = entry
            deltas.append((seg, entry.delta))
        self._segments = kept
        return deltas

    def _fallback_result(self, t_now: float | None, reasons: list[str], dropped: int) -> ScanResult:
        """The predicted pose at t_now, appended to the trajectory, when
        optimization cannot run; for a scan without a stamp (t_now None) the
        last pose, appended to nothing. dropped is the scan's count of points
        stamped before its window."""
        if t_now is None:
            t_now = self.trajectory_times[-1] if self.trajectory_times else 0.0
            pose = self.trajectory_poses[-1] if self.trajectory_poses else Pose(self.base_rot, np.zeros(3))
        else:
            pose = Pose.from_params(self._predict(np.array([t_now]))[0])
            self.trajectory_times.append(t_now)
            self.trajectory_poses.append(pose)
        result = ScanResult(
            time=t_now, pose=pose, degraded=True, reasons=tuple(reasons),
            keyframe_created=False, dropped_points=dropped,
        )
        self.results.append(result)
        return result

    # ---- keyframes -----------------------------------------------------------------

    def _maybe_create_keyframe(self, down: PointCloud, pose_now: Pose) -> bool:
        cfg = self.config
        if self.map.nearest_keyframe_distance(pose_now.trans) <= cfg.keyframe_distance:
            return False
        world = deskew(down, self._traj)
        # counted after deskew, which drops the points stamped before the window
        if len(world) < cfg.k_neighbors:
            return False
        sensor_cloud = PointCloud(
            points=pose_now.inverse().apply(world.points), stamps=world.stamps
        )
        sensor_cloud.normals, sensor_cloud.planarity = compute_point_attributes(
            sensor_cloud, cfg.k_neighbors
        )
        kf = Keyframe(pose_now, sensor_cloud, estimate_gravity(self._traj, self.imu))
        self.map.add(kf)
        if len(self.map) >= 2:
            self.keyframe_optimization(kf)
        return True

    def keyframe_optimization(self, current: Keyframe) -> None:
        """Adjust the keyframe range affected by the newest keyframe."""
        cfg = self.config
        kfs = self.map.keyframes
        cur_idx = len(kfs) - 1
        keys = current.cell_keys(cfg.voxel.fine_size)
        start = None
        for i, kf in enumerate(kfs[:cur_idx]):
            dist = np.linalg.norm(kf.pose.trans - current.pose.trans)
            # overlap: the fraction of the newest keyframe's cells that kf holds
            if dist < cfg.kf_opt_distance and np.isin(
                keys, kf.cell_keys(cfg.voxel.fine_size), assume_unique=True
            ).mean() > cfg.kf_opt_overlap:
                start = i
                break
        if start is None:
            start = max(0, cur_idx - cfg.kf_fallback_window + 1)
        window = kfs[start : cur_idx + 1]
        if len(window) < 2:
            return

        anchors = kfs[max(0, start - cfg.kf_anchor_count) : start]
        fixed = np.vstack([kf.world_points() for kf in anchors]) if anchors else None

        poses = [kf.pose for kf in window]
        if not anchors:
            poses = self._level_poses(window, poses)
        constraints = [
            GravityConstraint(cloud_id=i, direction_local=kf.gravity.direction,
                              weight=cfg.gravity_weight * kf.gravity.weight)
            for i, kf in enumerate(window)
            if kf.gravity.weight > 0.0
        ]
        problem = AdjustmentProblem(
            clouds=[kf.cloud for kf in window],
            initial_poses=poses,
            fixed_points=fixed,
            gravity_constraints=constraints,
            split_normals=True,
            planarity_min=cfg.planarity_min,
            voxel=cfg.voxel,
        )
        try:
            result = run_adjustment(problem, cfg.kf_lm)
        except InsufficientStructureError:
            return
        for kf, pose in zip(window, result.poses):
            kf.pose = pose
        self.map.rebuild_index()

    def _level_poses(self, window: list[Keyframe], poses: list[Pose]) -> list[Pose]:
        """Rotate the whole free range so gravity estimates average to +z.

        The landmark metric resists common rotations, so the shared tilt is
        removed analytically before the optimizer runs; the gravity
        residuals then only have to hold the result.
        """
        acc = np.zeros(3)
        for kf, pose in zip(window, poses):
            if kf.gravity.weight > 0.0:
                acc += kf.gravity.weight * (pose.matrix() @ kf.gravity.direction)
        norm = np.linalg.norm(acc)
        if norm < 1e-9:
            return poses
        turn = _up_to_z_rotvec(acc / norm)
        if not turn.any():
            return poses
        pivot = np.mean([p.trans for p in poses], axis=0)
        rot = rotvec_to_matrix(turn)
        new_rots = matrix_to_rotvec(rot @ np.stack([pose.matrix() for pose in poses]))
        return [Pose(r, rot @ (pose.trans - pivot) + pivot) for r, pose in zip(new_rots, poses)]

    # ---- outputs ---------------------------------------------------------------------

    def trajectory(self) -> tuple[np.ndarray, list[Pose]]:
        return np.array(self.trajectory_times), list(self.trajectory_poses)

    def map_cloud(self) -> PointCloud:
        return PointCloud(points=self.map.points)

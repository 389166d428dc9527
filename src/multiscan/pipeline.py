"""LiDAR-inertial odometry: ring buffers, sliding window, keyframes, map.

Per scan: adaptively downsample and buffer, extract the sliding time
window, preintegrate IMU between control poses, then optimize the window's
continuous trajectory against voxel landmarks built from the window points
plus static map points, with preintegrated IMU terms appended to the
residual vector. Keyframes are selected by map overlap and spacing; adding
one triggers an adjustment over the affected keyframe range with normal
splitting and per-keyframe gravity terms.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from multiscan.adjustment import (
    FD_STEP,
    AdjustmentProblem,
    FrozenLandmarks,
    GravityConstraint,
    InsufficientStructureError,
    LMConfig,
    levenberg_marquardt,
    lm_step,  # noqa: F401  unused: kept bound so the benchmark's tracer can wrap it here
    run_adjustment,
)
from multiscan.downsample import DownsampleConfig, adaptive_downsample
from multiscan.geometry import (
    Pose,
    PointCloud,
    matrix_to_rotvec,
    rotvec_to_matrix,
    rotvecs_to_matrices,
    rotvecs_to_quats,
)
from multiscan.imu import (
    GravityEstimate,
    ImuSample,
    estimate_gravity,
    imu_residual,
    preintegrate,
    stack_deltas,
    static_initialization,
)
from multiscan.landmarks import VoxelConfig, dual_grid_groups, pack_cell_indices, voxel_cell_indices
from multiscan.trajectory import (
    ContinuousTrajectory,
    ControlPose,
    catmull_rom_tangents,
    deskew,
    hermite_positions,
    slerp_rotation_matrices,
)

logger = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    window_duration: float = 1.0
    control_spacing: float = 0.1
    window_lm: LMConfig = field(
        default_factory=lambda: LMConfig(
            max_outer_iterations=6, inner_iterations=2, max_lambda_retries=10
        )
    )
    table_resolution: float = 1e-3
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
    overlap_max: float = 0.9
    keyframe_distance: float = 1.0
    kf_opt_distance: float = 10.0
    kf_opt_overlap: float = 0.3
    kf_fallback_window: int = 5
    kf_anchor_count: int = 3
    kf_lm: LMConfig = field(default_factory=lambda: LMConfig(max_outer_iterations=10))
    k_neighbors: int = 10
    static_radius: float = 30.0
    planarity_min: float = 0.5


def pipeline_config_from_dict(values: dict) -> PipelineConfig:
    """Build a config from flat `key = value` strings; unknown keys fail."""
    cfg = PipelineConfig()
    voxel = {"coarse_size": cfg.voxel.coarse_size, "fine_size": cfg.voxel.fine_size,
             "n_min": cfg.voxel.n_min, "epsilon": cfg.voxel.epsilon}
    down = {"levels": cfg.downsample.levels, "min_points": cfg.downsample.min_points,
            "trim_range": cfg.downsample.trim_range, "seed": cfg.downsample.seed}
    for key, raw in values.items():
        if key.startswith("voxel_") and key[6:] in voxel:
            voxel[key[6:]] = type(voxel[key[6:]])(float(raw) if key[6:] != "n_min" else int(raw))
        elif key == "downsample_levels":
            down["levels"] = tuple(float(v) for v in raw.replace(",", " ").split())
        elif key == "downsample_min_points":
            down["min_points"] = int(raw)
        elif key == "downsample_trim_range":
            down["trim_range"] = float(raw)
        elif key == "downsample_seed":
            down["seed"] = int(raw)
        elif hasattr(cfg, key) and not key.startswith(("voxel", "downsample", "kf_lm", "window_lm")):
            current = getattr(cfg, key)
            if isinstance(current, bool):
                setattr(cfg, key, raw.lower() in ("1", "true", "yes", "on"))
            elif isinstance(current, int):
                setattr(cfg, key, int(raw))
            elif isinstance(current, float):
                setattr(cfg, key, float(raw))
            else:
                raise ValueError(f"config key {key!r} has unsupported type")
        else:
            raise ValueError(f"unknown config key {key!r}")
    cfg.voxel = VoxelConfig(**voxel)
    cfg.downsample = DownsampleConfig(**down)
    return cfg


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

    def __len__(self) -> int:
        return len(self.items)


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
    kf_id: int
    pose: Pose
    cloud: PointCloud
    gravity: GravityEstimate
    fine_keys: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def world_points(self) -> np.ndarray:
        return self.pose.apply(self.cloud.points)

    def world_normals(self) -> np.ndarray:
        if self.cloud.normals is None:
            return np.zeros((len(self.cloud), 3))
        return self.cloud.normals @ self.pose.matrix().T

    def refresh_keys(self, fine_size: float) -> None:
        self.fine_keys = np.unique(
            pack_cell_indices(voxel_cell_indices(self.world_points(), fine_size))
        )


class Map:
    """Keyframe store plus a world-frame point index for static points."""

    def __init__(self, fine_size: float):
        self.fine_size = fine_size
        self.keyframes: list[Keyframe] = []
        self._points = np.zeros((0, 3))
        self._normals = np.zeros((0, 3))
        self._key_set = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.keyframes)

    def add(self, kf: Keyframe) -> None:
        kf.refresh_keys(self.fine_size)
        self.keyframes.append(kf)
        self.rebuild_index()

    def rebuild_index(self) -> None:
        """Recompute world positions, normals and the fine-voxel key set."""
        if not self.keyframes:
            return
        self._points = np.vstack([kf.world_points() for kf in self.keyframes])
        self._normals = np.vstack([kf.world_normals() for kf in self.keyframes])
        self._key_set = np.unique(np.concatenate([kf.fine_keys for kf in self.keyframes]))

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def normals(self) -> np.ndarray:
        return self._normals

    def overlap(self, keys: np.ndarray) -> float:
        """Fraction of the given fine-voxel keys present in the map."""
        if len(keys) == 0 or len(self._key_set) == 0:
            return 0.0
        return float(np.isin(keys, self._key_set, assume_unique=True).mean())

    def nearest_keyframe_distance(self, position: np.ndarray) -> float:
        if not self.keyframes:
            return np.inf
        dists = [np.linalg.norm(kf.pose.trans - position) for kf in self.keyframes]
        return float(min(dists))


def extract_static_points(
    world_map: Map, window_pose: Pose, radius: float, sensor_origin: np.ndarray
) -> np.ndarray:
    """Map points near the window that face the sensor.

    Back-facing points (normal pointing away from the sensor) are removed;
    points with an undefined (zero) normal are treated as non-visible.
    """
    if len(world_map) == 0 or len(world_map.points) == 0:
        return np.zeros((0, 3))
    rel = world_map.points - window_pose.trans
    near = np.einsum("ni,ni->n", rel, rel) <= radius * radius
    pts = world_map.points[near]
    normals = world_map.normals[near]
    facing = np.einsum("ni,ni->n", normals, sensor_origin - pts) > 0.0
    return pts[facing]


@dataclass
class ScanResult:
    time: float
    pose: Pose
    degraded: bool
    reasons: tuple
    keyframe_created: bool
    dropped_points: int = 0


def _up_to_z_rotvec(up: np.ndarray) -> np.ndarray:
    """Rotation vector turning the unit vector up onto +z; zero if parallel."""
    axis = np.cross(up, [0.0, 0.0, 1.0])
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        return np.zeros(3)
    angle = np.arccos(np.clip(up @ [0.0, 0.0, 1.0], -1.0, 1.0))
    return axis / norm * angle


class _WindowSystem:
    """Spline point-motion model of one window pass, with IMU and prior rows.

    Parameters are the control poses (6 each). World positions come from
    the millisecond pose table; each point is bound to its nearest table
    slot. A perturbation of control pose k only alters table slots within
    its spline support, so a Jacobian column re-evaluates just those slots
    and hands the displacement of the points bound to them to the shared
    `FrozenLandmarks` core. Static map points join the landmarks but never
    move. The IMU rows are one batched `imu.imu_residual` call.
    """

    def __init__(self, ctrl_times, ctrl_params, sensor_points, stamps,
                 static_points, deltas, gravity_vec, config: PipelineConfig):
        self.ctrl_times = ctrl_times
        self.spacing = float(ctrl_times[1] - ctrl_times[0])
        self.n_ctrl = len(ctrl_times)
        self.sensor_points = sensor_points
        self.static_points = static_points
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
        res = config.table_resolution
        n_slots = int(np.floor((ctrl_times[-1] - ctrl_times[0]) / res + 1e-9)) + 1
        self.slot_times = ctrl_times[0] + res * np.arange(n_slots)
        self.slot_times[-1] = min(self.slot_times[-1], ctrl_times[-1])
        self.point_slot = np.clip(
            np.rint((stamps - ctrl_times[0]) / res).astype(np.int64), 0, n_slots - 1
        )
        self.imu_weights = np.concatenate([
            np.full(3, config.imu_weight_rot),
            np.full(3, config.imu_weight_vel),
            np.full(3, config.imu_weight_pos),
        ])

    # ---- trajectory evaluation -------------------------------------------------

    def _trajectory(self, params: np.ndarray) -> ContinuousTrajectory:
        ctrl = [
            ControlPose(float(t), Pose.from_params(params[6 * k : 6 * k + 6]))
            for k, t in enumerate(self.ctrl_times)
        ]
        return ContinuousTrajectory(ctrl)

    def _slot_poses(self, params: np.ndarray, times: np.ndarray):
        """Rotations and positions at times; params may have leading batch axes."""
        blocks = params.reshape(*params.shape[:-1], -1, 6)
        quats = rotvecs_to_quats(blocks[..., :3].reshape(-1, 3)).reshape(*blocks.shape[:-1], 4)
        rot = slerp_rotation_matrices(self.ctrl_times, quats, self.spacing, times)
        pos = hermite_positions(self.ctrl_times, blocks[..., 3:].copy(), self.spacing, times)
        return rot, pos

    def world_points(self, params: np.ndarray) -> np.ndarray:
        rot_tab, pos_tab = self._slot_poses(params, self.slot_times)
        rot = rot_tab[self.point_slot]
        pos = pos_tab[self.point_slot]
        moving = np.einsum("nij,nj->ni", rot, self.sensor_points) + pos
        if len(self.static_points):
            return np.vstack([moving, self.static_points])
        return moving

    def imu_rows(self, params: np.ndarray) -> np.ndarray:
        """Weighted preintegration residuals, 9 per segment; params may be batched."""
        if self.delta is None:
            return np.zeros(params.shape[:-1] + (0,))
        blocks = params.reshape(*params.shape[:-1], -1, 6)
        vel = catmull_rom_tangents(blocks[..., 3:], self.spacing)
        mats = rotvecs_to_matrices(blocks[..., :3]).reshape(*blocks.shape[:-1], 3, 3)
        i, j = self.imu_seg, self.imu_seg + 1
        r = imu_residual(
            self.delta, mats[..., i, :, :], blocks[..., i, 3:], vel[..., i, :],
            mats[..., j, :, :], blocks[..., j, 3:], vel[..., j, :], self.gravity_vec,
        )
        return (self.imu_weights * r).reshape(*params.shape[:-1], -1)

    # ---- residual system -----------------------------------------------------------

    def freeze(self, params: np.ndarray) -> None:
        groups = dual_grid_groups(
            self.world_points(params),
            coarse_size=self.config.voxel.coarse_size,
            fine_size=self.config.voxel.fine_size,
            n_min=self.config.voxel.n_min,
            epsilon=self.config.voxel.epsilon,
        )
        if groups is None:
            raise InsufficientStructureError(
                "insufficient overlap/structure in the sliding window"
            )
        self.landmarks = FrozenLandmarks(groups)
        # table slot of every member whose point moves with the trajectory
        member_row = self.landmarks.member_row
        moving = member_row < len(self.sensor_points)
        self.member_slot = np.full(len(member_row), -1, dtype=np.int64)
        self.member_slot[moving] = self.point_slot[member_row[moving]]

    def prior_rows(self, params: np.ndarray) -> np.ndarray:
        return self.prior_weights * (params - self.prior_params)

    def residuals(self, params: np.ndarray) -> np.ndarray:
        return np.concatenate([
            self.landmarks.residuals(self.world_points(params)),
            self.imu_rows(params),
            self.prior_rows(params),
        ])

    def cost(self, params: np.ndarray) -> float:
        r = self.residuals(params)
        return float(r @ r)

    def _slots_in_span(self, k: int):
        lo = self.ctrl_times[max(0, k - 2)] - 1e-12
        hi = self.ctrl_times[min(self.n_ctrl - 1, k + 2)] + 1e-12
        return np.nonzero((self.slot_times >= lo) & (self.slot_times <= hi))[0]

    def jacobian(self, params: np.ndarray, step: float = FD_STEP):
        """Central-difference Jacobian of residuals(params), and the residuals."""
        lms = self.landmarks
        n_lm_rows = 3 * len(lms.member_row)
        n_imu_rows = 9 * len(self.imu_seg)
        n_params = 6 * self.n_ctrl
        jac = np.zeros((n_lm_rows + n_imu_rows + n_params, n_params))
        jac[n_lm_rows + n_imu_rows:, :] = np.diag(self.prior_weights)
        # rows 2q and 2q + 1: params with +h and -h on parameter q
        variants = np.repeat(params[None, :], 2 * n_params, axis=0)
        q = np.arange(n_params)
        variants[2 * q, q] += step
        variants[2 * q + 1, q] -= step
        # segments outside a pose's spline support see identical inputs, so
        # their differences are exactly zero
        imu = self.imu_rows(variants)
        jac[n_lm_rows : n_lm_rows + n_imu_rows] = (imu[0::2] - imu[1::2]).T / (2.0 * step)
        for k in range(self.n_ctrl):
            slots = self._slots_in_span(k)
            affected = np.nonzero(np.isin(self.member_slot, slots))[0]
            if len(affected) == 0:
                continue
            rot_b, pos_b = self._slot_poses(variants[12 * k : 12 * k + 12], self.slot_times[slots])
            raw = self.sensor_points[lms.member_row[affected]]
            local = np.searchsorted(slots, self.member_slot[affected])
            for p in range(6):
                rp, pp = rot_b[2 * p][local], pos_b[2 * p][local]
                rm, pm = rot_b[2 * p + 1][local], pos_b[2 * p + 1][local]
                moved = (
                    np.einsum("nij,nj->ni", rp, raw) + pp
                    - np.einsum("nij,nj->ni", rm, raw) - pm
                )
                jac[:n_lm_rows, 6 * k + p] = lms.column(affected, moved) / (2.0 * step)
        return jac, self.residuals(params)


class OdometryPipeline:
    """Scan-by-scan odometry with keyframe map maintenance."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self.scans = RingBuffer(self.config.buffer_capacity)
        self.imu_times: list[float] = []
        self.imu_samples: list[ImuSample] = []
        self.map = Map(self.config.voxel.fine_size)
        self.trajectory_times: list[float] = []
        self.trajectory_poses: list[Pose] = []
        self.results: list[ScanResult] = []
        self._traj: ContinuousTrajectory | None = None
        self._initialized = False
        self._imu_warned = False
        self.gyro_bias = np.zeros(3)
        self.gravity_vec = np.array([0.0, 0.0, -9.81])
        self.base_rot = np.zeros(3)
        self._next_kf_id = 0

    # ---- inputs ------------------------------------------------------------------

    def add_imu(self, samples) -> None:
        for s in samples:
            if self.imu_times and s.time <= self.imu_times[-1]:
                raise ValueError("IMU samples must arrive in increasing time order")
            self.imu_times.append(s.time)
            self.imu_samples.append(s)

    def _imu_in(self, t0: float, t1: float) -> list[ImuSample]:
        lo = bisect.bisect_left(self.imu_times, t0)
        hi = bisect.bisect_right(self.imu_times, t1)
        return self.imu_samples[lo:hi]

    def _maybe_initialize(self) -> None:
        if self._initialized:
            return
        if self.imu_times:
            t0 = self.imu_times[0]
            init = self._imu_in(t0, t0 + self.config.imu_init_duration)
            if len(init) >= 2 and init[-1].time - init[0].time >= 0.8 * self.config.imu_init_duration:
                gyro_bias, up_body, magnitude = static_initialization(init)
                self.gyro_bias = gyro_bias
                self.gravity_vec = np.array([0.0, 0.0, -magnitude])
                self.base_rot = _up_to_z_rotvec(up_body)
        self._initialized = True

    # ---- per-scan processing -------------------------------------------------------

    def process_scan(self, scan: PointCloud) -> ScanResult:
        """Estimate the pose at the scan's last stamp.

        Raises ValueError, before any state changes, for a scan that fails
        `PointCloud.validate` (non-finite values or decreasing stamps).
        """
        cfg = self.config
        scan.validate()
        reasons: list[str] = []
        if len(scan) == 0:
            return self._fallback_result(None, reasons + ["empty_scan"])
        t_now = float(scan.stamps[-1])
        self._maybe_initialize()
        down = adaptive_downsample(scan, cfg.downsample)
        self.scans.push(t_now, down)

        ctrl_times = self._control_times(t_now)
        params0 = self._initial_params(ctrl_times)
        pts, stamps, dropped = self._window_points(ctrl_times[0], t_now)

        if self.imu_times:
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
            guess = Pose.from_params(params0[-6:])
            static_pts = extract_static_points(
                self.map, guess, cfg.static_radius, guess.trans
            )

        if len(pts) < cfg.voxel.n_min + 1:
            return self._fallback_result(ctrl_times, reasons + ["too_few_points"])

        system = _WindowSystem(
            ctrl_times, params0, pts, stamps, static_pts, deltas, self.gravity_vec, cfg
        )
        try:
            params, _, _, _ = levenberg_marquardt(system, params0, cfg.window_lm)
        except InsufficientStructureError:
            return self._fallback_result(ctrl_times, reasons + ["insufficient_structure"])

        self._traj = system._trajectory(params)
        pose_now = self._traj.sample_pose(t_now)
        self.trajectory_times.append(t_now)
        self.trajectory_poses.append(pose_now)

        created = self._maybe_create_keyframe(down, pose_now, t_now)
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
        t_data0 = self.scans.times[0] - 0.2 if self.scans.times else t_now - cfg.control_spacing
        span = max(t_now - t_data0, cfg.control_spacing)
        n_seg = min(n_seg_max, max(1, int(np.ceil(span / cfg.control_spacing - 1e-9))))
        return t_now - cfg.control_spacing * np.arange(n_seg, -1, -1)

    def _initial_params(self, ctrl_times: np.ndarray) -> np.ndarray:
        out = np.zeros(6 * len(ctrl_times))
        prev = self._traj
        for k, t in enumerate(ctrl_times):
            if prev is None:
                pose = Pose(self.base_rot, np.zeros(3))
            elif t <= prev.t_last + 1e-9:
                pose = prev.sample_pose(float(np.clip(t, prev.t_first, prev.t_last)))
            else:
                pose = self._extrapolate(prev, float(t))
            out[6 * k : 6 * k + 6] = pose.as_params()
        return out

    @staticmethod
    def _extrapolate(traj: ContinuousTrajectory, t: float) -> Pose:
        dt = t - traj.t_last
        vel = traj.sample_velocity(traj.t_last)
        rel = rotvec_to_matrix(traj.rotvecs[-2]).T @ rotvec_to_matrix(traj.rotvecs[-1])
        rate = matrix_to_rotvec(rel) / traj.spacing
        rot = rotvec_to_matrix(traj.rotvecs[-1]) @ rotvec_to_matrix(rate * dt)
        return Pose(matrix_to_rotvec(rot), traj.positions[-1] + vel * dt)

    def _window_points(self, t_start: float, t_end: float):
        clouds = self.scans.window(t_start - 0.2, t_end)
        pts, stamps = [], []
        dropped = 0
        for cloud in clouds:
            inside = (cloud.stamps >= t_start) & (cloud.stamps <= t_end)
            dropped += int((~inside).sum())
            pts.append(cloud.points[inside])
            stamps.append(cloud.stamps[inside])
        if not pts:
            return np.zeros((0, 3)), np.zeros(0), dropped
        return np.vstack(pts), np.concatenate(stamps), dropped

    def _segment_deltas(self, ctrl_times: np.ndarray):
        """Preintegrated deltas for segments the IMU stream covers.

        A segment counts as covered when at most a small fraction at either
        end lies outside the stream; the integrator clamps boundary values
        there, which is negligible against one missing sample period.
        """
        deltas = []
        for seg in range(len(ctrl_times) - 1):
            t_i, t_j = float(ctrl_times[seg]), float(ctrl_times[seg + 1])
            slack = 0.25 * (t_j - t_i)
            samples = self._imu_in(t_i - 0.05, t_j + 0.05)
            if len(samples) < 2 or samples[0].time > t_i + slack or samples[-1].time < t_j - slack:
                continue
            deltas.append((seg, preintegrate(samples, t_i, t_j, gyro_bias=self.gyro_bias)))
        return deltas

    def _fallback_result(self, ctrl_times, reasons: list[str]) -> ScanResult:
        """Constant-velocity prediction when optimization cannot run."""
        if ctrl_times is not None and self._traj is not None:
            t_now = float(ctrl_times[-1])
            pose = self._extrapolate(self._traj, t_now) if t_now > self._traj.t_last else self._traj.sample_pose(t_now)
        elif ctrl_times is not None:
            t_now = float(ctrl_times[-1])
            pose = Pose(self.base_rot, np.zeros(3))
        else:
            t_now = self.trajectory_times[-1] if self.trajectory_times else 0.0
            pose = self.trajectory_poses[-1] if self.trajectory_poses else Pose(self.base_rot, np.zeros(3))
        if ctrl_times is not None:
            self.trajectory_times.append(t_now)
            self.trajectory_poses.append(pose)
        result = ScanResult(
            time=t_now, pose=pose, degraded=True, reasons=tuple(reasons),
            keyframe_created=False,
        )
        self.results.append(result)
        return result

    # ---- keyframes -----------------------------------------------------------------

    def _maybe_create_keyframe(self, down: PointCloud, pose_now: Pose, t_now: float) -> bool:
        cfg = self.config
        if len(down) < cfg.k_neighbors:
            return False
        world, _ = deskew(down, self._traj, cfg.table_resolution)
        keys = np.unique(
            pack_cell_indices(voxel_cell_indices(world.points, cfg.voxel.fine_size))
        )
        overlap = self.map.overlap(keys)
        distance = self.map.nearest_keyframe_distance(pose_now.trans)
        if not (overlap < cfg.overlap_max or distance > cfg.keyframe_distance):
            return False
        sensor_cloud = PointCloud(
            points=pose_now.inverse().apply(world.points), stamps=world.stamps
        )
        normals, planarity = compute_point_attributes(sensor_cloud, cfg.k_neighbors)
        sensor_cloud.normals = normals
        sensor_cloud.planarity = planarity
        gravity = GravityEstimate(direction=np.array([0.0, 0, 1.0]), weight=0.0)
        if self.imu_times and self._traj is not None:
            samples = self._imu_in(self._traj.t_first, self._traj.t_last)
            span = samples[-1].time - samples[0].time if len(samples) >= 2 else 0.0
            if span >= 0.2:
                # averaged over the window's body frames, not re-expressed in
                # this keyframe's frame; the fix belongs to ROADMAP item 2
                gravity = estimate_gravity(self._traj, samples)
        kf = Keyframe(
            kf_id=self._next_kf_id,
            pose=pose_now,
            cloud=sensor_cloud,
            gravity=gravity,
        )
        self._next_kf_id += 1
        self.map.add(kf)
        if len(self.map) >= 2:
            self.keyframe_optimization(kf)
        return True

    def keyframe_optimization(self, current: Keyframe) -> None:
        """Adjust the keyframe range affected by the newest keyframe."""
        cfg = self.config
        kfs = self.map.keyframes
        cur_idx = len(kfs) - 1
        start = None
        for i, kf in enumerate(kfs[:cur_idx]):
            dist = np.linalg.norm(kf.pose.trans - current.pose.trans)
            if dist < cfg.kf_opt_distance and self._kf_overlap(kf, current) > cfg.kf_opt_overlap:
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
            fix_first_pose=None if fixed is not None else True,
            voxel=cfg.voxel,
        )
        try:
            result = run_adjustment(problem, cfg.kf_lm)
        except InsufficientStructureError:
            return
        for kf, pose in zip(window, result.poses):
            kf.pose = pose
            kf.refresh_keys(cfg.voxel.fine_size)
        self.map.rebuild_index()

    def _kf_overlap(self, a: Keyframe, b: Keyframe) -> float:
        if len(a.fine_keys) == 0 or len(b.fine_keys) == 0:
            return 0.0
        return float(np.isin(b.fine_keys, a.fine_keys, assume_unique=True).mean())

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
        if len(self.map) == 0:
            return PointCloud(points=np.zeros((0, 3)))
        return PointCloud(points=self.map.points)

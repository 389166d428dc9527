"""LiDAR-inertial odometry: ring buffers, sliding window, keyframes, map.

Per scan: adaptively downsample and buffer, extract the sliding time
window, preintegrate IMU between control poses, then optimize the window's
continuous trajectory against voxel landmarks built from the window points
plus static map points, with preintegrated IMU terms appended to the
residual vector. A scan becomes a keyframe when its pose is more than
`keyframe_distance` from every keyframe; adding one triggers an adjustment
over the affected keyframe range with per-keyframe gravity terms, which
splits each landmark seen from both sides by the keyframe positions its
points were seen from. The static map points are the keyframes' points
within `static_radius`: every plane comes from a landmark's own cell
statistics, so the odometry computes no per-point normals and loads no scipy.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from multiscan.adjustment import (
    AdjustmentProblem,
    Bodies,
    GravityConstraint,
    InsufficientStructureError,
    MultiScanSystem,
    STOP_ROTATION,
    STOP_TRANSLATION,
    levenberg_marquardt,
    lm_step,  # noqa: F401  unused: kept bound so the benchmark's tracer can wrap it here
    run_adjustment,
    smallest_eigenpairs,
)
from multiscan.downsample import DownsampleConfig, adaptive_downsample
from multiscan.geometry import (
    Pose,
    PointCloud,
    matrix_to_rotvec,
    rotvec_to_matrix,
)
from multiscan.imu import (
    GravityEstimate,
    ImuStream,
    estimate_gravity,
    imu_jacobian,
    imu_residual,
    preintegrate,
    static_initialization,
)
from multiscan.landmarks import (
    VoxelConfig,
    dual_grid_groups,  # noqa: F401  unused: kept bound so the benchmark's tracer can wrap it here
    pack_cell_indices,
    point_clusters,
    voxel_cell_indices,
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
        # k_neighbors is a keyframe's least point count and the neighbourhood
        # `perfbench/measure.py` hands `compute_point_attributes`, whose plane
        # needs 3 points; the keyframe counts slice the keyframe list; a
        # budget of 0 would return the start as the solve's answer
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
    """Per-point normal and planarity from the k-nearest-neighbour scatter,
    for callers outside the odometry, which reads neither.

    The neighbours' covariances go through `point_clusters` and
    `smallest_eigenpairs`: planarity is (lambda_mid - lambda_min) /
    lambda_max, the normal the smallest eigenvector flipped toward the
    sensor origin; a degenerate neighbourhood (lambda_max <= 1e-12) gives
    planarity 0 and a zero normal. Raises ValueError for fewer than
    k_neighbors points. scipy is imported here so the odometry loads none.
    """
    from scipy.spatial import cKDTree

    if len(cloud) < k_neighbors:
        raise ValueError(f"cloud has {len(cloud)} points, need >= {k_neighbors}")
    _, idx = cKDTree(cloud.points).query(cloud.points, k=k_neighbors)
    _, _, scatter = point_clusters(np.take(cloud.points, idx.ravel(), axis=0),
                                   np.arange(0, idx.size, k_neighbors))
    covs = scatter / k_neighbors
    lam, normal, planarity = smallest_eigenpairs(covs)
    # the trace is lambda_min + lambda_mid + lambda_max, and lambda_mid is
    # lambda_min + planarity lambda_max
    top = (np.trace(covs, axis1=1, axis2=2) - 2.0 * lam) / (1.0 + planarity)
    ok = top > 1e-12
    normals = np.where(ok[:, None], normal.T, 0.0)
    # orient toward the origin of the sensor frame
    flip = np.einsum("ni,ni->n", normals, cloud.points) > 0.0
    normals[flip] *= -1.0
    return normals, np.clip(np.where(ok, planarity, 0.0), 0.0, 1.0)


@dataclass
class Keyframe:
    pose: Pose
    cloud: PointCloud
    gravity: GravityEstimate

    def world_points(self) -> np.ndarray:
        return self.pose.apply(self.cloud.points)

    def cell_keys(self, cell_size: float) -> np.ndarray:
        """Unique packed ids of the world cells of side cell_size holding the points."""
        return np.unique(pack_cell_indices(voxel_cell_indices(self.world_points(), cell_size)))


class Map:
    """Keyframes, and the world-frame points of all their clouds at the
    keyframes' current poses, stacked in keyframe order: `add` appends the
    new keyframe's, and `rebuild_index` restacks them all after the poses
    move. The map keeps points only, no per-point normals."""

    def __init__(self):
        self.keyframes: list[Keyframe] = []
        self.points = np.zeros((0, 3))

    def __len__(self) -> int:
        return len(self.keyframes)

    def add(self, kf: Keyframe) -> None:
        self.keyframes.append(kf)
        self.points = np.vstack([self.points, kf.world_points()])

    def rebuild_index(self) -> None:
        """Recompute the world points; needs a keyframe."""
        self.points = np.vstack([kf.world_points() for kf in self.keyframes])

    def nearest_keyframe_distance(self, position: np.ndarray) -> float:
        if not self.keyframes:
            return np.inf
        dists = [np.linalg.norm(kf.pose.trans - position) for kf in self.keyframes]
        return float(min(dists))


def extract_static_points(world_map: Map, position: np.ndarray, radius: float) -> np.ndarray:
    """Map points within radius of the sensor position, the radius included;
    none is dropped for the side it faces, as map points carry no normals
    (a facing filter on kNN normals helped the loop on as many seeds as it hurt)."""
    rel = world_map.points - position
    return world_map.points[np.einsum("ni,ni->n", rel, rel) <= radius * radius]


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
    slot's rotation and position."""

    mats: np.ndarray
    phi: np.ndarray
    rot: np.ndarray
    trans: np.ndarray


class _WindowSystem(MultiScanSystem):
    """One window pass: each point a body of its own at its stamp's spline
    pose, with IMU and prior rows.

    Parameters are the control poses, one 6-block (r1 r2 r3 x y z) each,
    with the stop_steps of a pose. A pose is a slot, one distinct stamp
    (`trajectory.stamp_slots`), at the pose `deskew` gives it through
    `ContinuousTrajectory(ctrl_times, params)`. A slot of spline segment s,
    its band, turns with the rotations of control poses s and s + 1 through
    the slerp lever (I - A, A) (`trajectory.slerp_turns`) and moves with the
    positions of the P = min(4, K) poses around it through its Hermite
    weights (`trajectory.position_weights`), on the tangents v = T p with
    T = `np.gradient(I, dt)`. The IMU rows read v as each control pose's
    velocity; they (one batched `imu.imu_residual`, differentiated by
    `imu.imu_jacobian`) and the prior rows form the dense block. imu_seg
    holds the indices of the instrumented segments and delta their deltas,
    stacked over them by one batched `imu.preintegrate`
    (`OdometryPipeline._segment_deltas`); with no segment there are no IMU
    rows.
    """

    def __init__(self, ctrl_times, ctrl_params, sensor_points, stamps,
                 static_points, imu_seg, delta, gravity_vec, config: PipelineConfig):
        self.ctrl_times = ctrl_times
        self.spacing = float(ctrl_times[1] - ctrl_times[0])
        self.n_ctrl = len(ctrl_times)
        slot_times, point_slot = stamp_slots(stamps)
        self.slots = spline_table(ctrl_times, self.spacing, slot_times)
        # (slot, P): the weights of the P control positions that move the slot,
        # built by this module's `hermite_positions`, which a benchmark trace counts
        _, weights = position_weights(hermite_positions(np.eye(self.n_ctrl), self.slots), self.slots)
        # segment s reads the positions of its P poses from clip(s - 1, 0, K - P)
        segments = np.arange(self.n_ctrl - 1)
        n_pos = weights.shape[1]
        reach = np.clip(segments - 1, 0, self.n_ctrl - n_pos)[:, None] + np.arange(n_pos)
        bodies = Bodies(sensor_points, point_slot, np.arange(len(sensor_points)), self.slots.seg,
                        np.stack([segments, segments + 1], axis=1), reach, weights)
        super().__init__(bodies, static_points, config.voxel,
                         np.tile(np.repeat([STOP_ROTATION, STOP_TRANSLATION], 3), self.n_ctrl))
        self.imu_seg = imu_seg
        self.delta = delta
        self.gravity_vec = gravity_vec
        # continuity prior: every control pose except the newest stays soft-
        # anchored to its warm-start value (the previous window's estimate),
        # which pins the drift-rate deformations the data cannot observe
        self.prior_params = np.asarray(ctrl_params, dtype=float).copy()
        w = np.array([config.prior_weight_rot, config.prior_weight_trans], dtype=float)
        self.prior_weights = np.tile(np.repeat(w, 3), self.n_ctrl)
        self.prior_weights[-6:] = 0.0  # newest pose is what odometry must find
        self.prior_jacobian = np.diag(self.prior_weights)
        w = np.array([config.imu_weight_rot, config.imu_weight_vel, config.imu_weight_pos], dtype=float)
        self.imu_weights = np.repeat(w, 3)
        # the rows of the tangent matrix T that give the velocities v = T p of
        # each instrumented segment's end poses
        ends = np.stack([self.imu_seg, self.imu_seg + 1], axis=1)
        self.imu_tangent = np.gradient(np.eye(self.n_ctrl), self.spacing, axis=0)[ends]

    def pose_table(self, params: np.ndarray) -> _Spline:
        blocks = params.reshape(-1, 6)
        mats, phi = rotation_chain(blocks[:, :3])
        return _Spline(mats, phi, slerp_rotation_matrices(mats, phi, self.slots),
                       hermite_positions(blocks[:, 3:], self.slots))

    def levers(self, params: np.ndarray) -> np.ndarray:
        spline = self._at(params)
        return slerp_turns(spline.mats, spline.phi, self.slots)[:, None]

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
        return (self.imu_weights * imu_residual(*self.imu_states(params))).ravel()

    def imu_jacobian(self, params: np.ndarray, turns: np.ndarray) -> np.ndarray:
        """Jacobian of `imu_rows`: `imu_jacobian` chained by w = J_l(r) dr,
        turns the control poses' J_l(r), and by v = T p, so segment s reaches
        the positions of poses s - 1 to s + 2."""
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

    def prior_rows(self, params: np.ndarray) -> np.ndarray:
        return self.prior_weights * (params - self.prior_params)

    def dense_rows(self, params: np.ndarray) -> np.ndarray:
        return np.concatenate([self.imu_rows(params), self.prior_rows(params)])

    def dense_jacobian(self, params: np.ndarray, turns: np.ndarray) -> np.ndarray:
        return np.vstack([self.imu_jacobian(params, turns), self.prior_jacobian])


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

        imu_seg, delta = self._segment_deltas(ctrl_times)
        if not len(imu_seg):
            imu_reason = "no_imu_coverage" if len(self.imu) else "no_imu"
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
            ctrl_times, params0, pts, stamps, static_pts, imu_seg, delta, self.gravity_vec, cfg
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
        """The spline segments the IMU stream covers, and their deltas stacked
        over them from one batched `preintegrate` of the stream in
        [t_0 - 0.05, t_K + 0.05], as the window's `_WindowSystem` takes them.

        A segment [t_i, t_j] counts as covered when the samples in
        [t_i - 0.05, t_j + 0.05] reach within a quarter segment of both ends,
        so at least 2 lie there; the integrator clamps boundary values past
        the stream's ends, which is negligible against one missing sample
        period. Every window integrates its segments afresh, so no delta
        outlives it.
        """
        t_i, t_j = ctrl_times[:-1], ctrl_times[1:]
        stream = self.imu.between(t_i[0] - 0.05, t_j[-1] + 0.05)
        times, slack = stream.times, 0.25 * (t_j - t_i)

        def reached(t0, t1):
            """Whether a sample lies in [t0, t1]."""
            return np.searchsorted(times, t1, side="right") > np.searchsorted(times, t0)

        seg = np.flatnonzero(reached(t_i - 0.05, t_i + slack) & reached(t_j - slack, t_j + 0.05))
        return seg, preintegrate(stream, t_i[seg], t_j[seg], gyro_bias=self.gyro_bias)

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
        # counted after deskew, which drops the points stamped before the
        # window. No keyframe takes per-point normals; the k_neighbors floor
        # stays as the keyframe rule, and `perfbench/measure.py` reads the key
        if len(world) < cfg.k_neighbors:
            return False
        sensor_cloud = PointCloud(
            points=pose_now.inverse().apply(world.points), stamps=world.stamps
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

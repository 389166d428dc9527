"""Continuous trajectory over a time window of uniform control poses.

Positions are interpolated with a cubic Hermite spline using centered
(Catmull-Rom) tangents, one-sided at the window ends; orientations with
spherical linear interpolation between the bracketing control poses.
Point deskewing goes through a pose table precomputed at fixed (1 ms)
resolution and nearest-sample lookup.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from multiscan.geometry import Pose, PointCloud, rotvec_to_quat, slerp

DEFAULT_TABLE_RESOLUTION = 1e-3


def catmull_rom_tangents(positions: np.ndarray, spacing: float) -> np.ndarray:
    """Centered-difference tangents, one-sided at the ends, along axis -2."""
    tangents = np.empty_like(positions)
    tangents[..., 0, :] = (positions[..., 1, :] - positions[..., 0, :]) / spacing
    tangents[..., -1, :] = (positions[..., -1, :] - positions[..., -2, :]) / spacing
    if positions.shape[-2] > 2:
        tangents[..., 1:-1, :] = (positions[..., 2:, :] - positions[..., :-2, :]) / (2.0 * spacing)
    return tangents


def _segment_params(ctrl_times: np.ndarray, spacing: float, t_eval: np.ndarray):
    seg = np.clip(np.searchsorted(ctrl_times, t_eval, side="right") - 1, 0, len(ctrl_times) - 2)
    return seg, np.clip((t_eval - ctrl_times[seg]) / spacing, 0.0, 1.0)


def hermite_positions(
    ctrl_times: np.ndarray, positions: np.ndarray, spacing: float, t_eval: np.ndarray
) -> np.ndarray:
    """Cubic Hermite interpolation of control positions at t_eval.

    positions is (..., K, 3), with any leading batch axes; the result is
    (..., M, 3) for M evaluation times.
    """
    tangents = catmull_rom_tangents(positions, spacing)
    seg, u = _segment_params(ctrl_times, spacing, t_eval)
    u2, u3 = u * u, u * u * u
    h00 = 2 * u3 - 3 * u2 + 1
    h10 = u3 - 2 * u2 + u
    h01 = -2 * u3 + 3 * u2
    h11 = u3 - u2
    return (
        h00[:, None] * positions[..., seg, :]
        + (h10 * spacing)[:, None] * tangents[..., seg, :]
        + h01[:, None] * positions[..., seg + 1, :]
        + (h11 * spacing)[:, None] * tangents[..., seg + 1, :]
    )


def slerp_rotation_matrices(
    ctrl_times: np.ndarray, quats: np.ndarray, spacing: float, t_eval: np.ndarray
) -> np.ndarray:
    """Piecewise slerp between control quaternions, returned as matrices.

    quats is (..., K, 4), with any leading batch axes; the result is
    (..., M, 3, 3) for M evaluation times.
    """
    seg, u = _segment_params(ctrl_times, spacing, t_eval)
    qa = quats[..., seg, :]
    qb = quats[..., seg + 1, :]
    dots = np.sum(qa * qb, axis=-1)
    qb = np.where(dots[..., None] < 0.0, -qb, qb)
    dots = np.clip(np.abs(dots), 0.0, 1.0)
    theta = np.arccos(dots)
    sin_theta = np.sin(theta)
    near = sin_theta < 1e-9
    wa = np.where(near, 1.0 - u, np.sin((1.0 - u) * theta) / np.where(near, 1.0, sin_theta))
    wb = np.where(near, u, np.sin(u * theta) / np.where(near, 1.0, sin_theta))
    q = wa[..., None] * qa + wb[..., None] * qb
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return _quats_to_matrices(q)


@dataclass(frozen=True)
class ControlPose:
    time: float
    pose: Pose


@dataclass
class PoseTable:
    """Poses sampled on a uniform grid for cheap per-point lookup."""

    times: np.ndarray
    rotations: np.ndarray  # (M, 3, 3)
    positions: np.ndarray  # (M, 3)

    def nearest_index(self, stamps: np.ndarray) -> np.ndarray:
        res = self.times[1] - self.times[0] if len(self.times) > 1 else 1.0
        idx = np.rint((np.asarray(stamps) - self.times[0]) / res).astype(np.int64)
        return np.clip(idx, 0, len(self.times) - 1)


def _quats_to_matrices(q: np.ndarray) -> np.ndarray:
    """Unit quaternions [x, y, z, w], (..., 4), to rotation matrices (..., 3, 3)."""
    x, y, z, w = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3))
    out[..., 0, 0] = 1 - 2 * (y * y + z * z)
    out[..., 0, 1] = 2 * (x * y - z * w)
    out[..., 0, 2] = 2 * (x * z + y * w)
    out[..., 1, 0] = 2 * (x * y + z * w)
    out[..., 1, 1] = 1 - 2 * (x * x + z * z)
    out[..., 1, 2] = 2 * (y * z - x * w)
    out[..., 2, 0] = 2 * (x * z - y * w)
    out[..., 2, 1] = 2 * (y * z + x * w)
    out[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return out


class ContinuousTrajectory:
    """Interpolating trajectory over [t_first, t_last]."""

    def __init__(self, control_poses: list[ControlPose]):
        if len(control_poses) < 2:
            raise ValueError("need at least 2 control poses")
        self.times = np.array([c.time for c in control_poses], dtype=float)
        gaps = np.diff(self.times)
        if np.any(gaps <= 0.0):
            raise ValueError("control times must be strictly increasing")
        if np.max(gaps) - np.min(gaps) > 1e-9:
            raise ValueError("control times must be uniformly spaced")
        self.spacing = float(gaps[0])
        self.positions = np.stack([c.pose.trans for c in control_poses])
        self.rotvecs = np.stack([c.pose.rotvec for c in control_poses])
        self.quats = np.stack([rotvec_to_quat(r) for r in self.rotvecs])
        self.tangents = catmull_rom_tangents(self.positions, self.spacing)

    @property
    def t_first(self) -> float:
        return float(self.times[0])

    @property
    def t_last(self) -> float:
        return float(self.times[-1])

    @property
    def duration(self) -> float:
        return self.t_last - self.t_first

    def _check_range(self, t: np.ndarray) -> None:
        if np.any(t < self.t_first - 1e-12) or np.any(t > self.t_last + 1e-12):
            raise ValueError(
                f"time outside trajectory window [{self.t_first}, {self.t_last}]"
            )

    def sample_position(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_range(t)
        return hermite_positions(self.times, self.positions, self.spacing, t)

    def sample_velocity(self, t) -> np.ndarray:
        """Analytic time derivative of the Hermite position polynomial."""
        scalar = np.isscalar(t) or np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_range(t)
        seg, u = _segment_params(self.times, self.spacing, t)
        u2 = u * u
        d00 = 6 * u2 - 6 * u
        d10 = 3 * u2 - 4 * u + 1
        d01 = -6 * u2 + 6 * u
        d11 = 3 * u2 - 2 * u
        dt = self.spacing
        vel = (
            (d00 / dt)[:, None] * self.positions[seg]
            + d10[:, None] * self.tangents[seg]
            + (d01 / dt)[:, None] * self.positions[seg + 1]
            + d11[:, None] * self.tangents[seg + 1]
        )
        return vel[0] if scalar else vel

    def sample_rotations(self, t) -> np.ndarray:
        """Batch slerp between bracketing control orientations, (M, 3, 3)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_range(t)
        return slerp_rotation_matrices(self.times, self.quats, self.spacing, t)

    def sample_pose(self, t: float) -> Pose:
        """Pose at time t; exact at every control time."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_range(t_arr)
        seg, u = _segment_params(self.times, self.spacing, t_arr)
        pos = self.sample_position(t_arr)[0]
        rot = slerp(self.rotvecs[seg[0]], self.rotvecs[seg[0] + 1], float(u[0]))
        return Pose(rot, pos)

    def pose_table(self, resolution: float = DEFAULT_TABLE_RESOLUTION) -> PoseTable:
        """Uniformly sampled poses covering the window at the given step."""
        n = int(np.floor(self.duration / resolution + 1e-9)) + 1
        times = self.t_first + resolution * np.arange(n)
        times[-1] = min(times[-1], self.t_last)
        return PoseTable(
            times=times,
            rotations=self.sample_rotations(times),
            positions=self.sample_position(times),
        )


def deskew(
    cloud: PointCloud,
    traj: ContinuousTrajectory,
    resolution: float = DEFAULT_TABLE_RESOLUTION,
) -> tuple[PointCloud, int]:
    """Transform each point by the pose at its own stamp (nearest table sample).

    Points stamped outside the trajectory window are dropped; the count of
    dropped points is returned alongside the world-frame cloud.
    """
    inside = (cloud.stamps >= traj.t_first - 1e-12) & (cloud.stamps <= traj.t_last + 1e-12)
    dropped = int(len(cloud) - inside.sum())
    kept = cloud.select(np.nonzero(inside)[0])
    if len(kept) == 0:
        return PointCloud(points=np.zeros((0, 3))), dropped
    table = traj.pose_table(resolution)
    idx = table.nearest_index(kept.stamps)
    rot = table.rotations[idx]
    world = np.einsum("nij,nj->ni", rot, kept.points) + table.positions[idx]
    normals = None
    if kept.normals is not None:
        normals = np.einsum("nij,nj->ni", rot, kept.normals)
    return (
        PointCloud(
            points=world,
            stamps=kept.stamps,
            normals=normals,
            planarity=kept.planarity,
            ranges=kept.ranges,
        ),
        dropped,
    )


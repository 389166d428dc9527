"""IMU preintegration between control poses and gravity direction estimation.

Deltas accumulate body-frame relative motion (rotation, velocity, position)
from rate and specific-force samples, independent of any world pose and of
gravity. `imu_residual` compares deltas, stacked over segments, against
batches of state pairs (rotation matrix, position, velocity) under a known
world gravity vector; the odometry window's IMU rows are one such call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from multiscan.geometry import matrix_to_rotvec, rotvec_to_matrix
from multiscan.trajectory import ContinuousTrajectory


@dataclass(frozen=True)
class ImuSample:
    """One inertial sample: body-frame rate (rad/s) and specific force (m/s^2)."""

    time: float
    angular_velocity: np.ndarray
    linear_acceleration: np.ndarray


@dataclass
class PreintegratedDelta:
    """Relative motion over [t_i, t_j] integrated in the frame at t_i."""

    dt: float
    delta_rot: np.ndarray  # (3, 3)
    delta_vel: np.ndarray
    delta_pos: np.ndarray
    gyro_bias: np.ndarray
    accel_bias: np.ndarray


@dataclass
class GravityEstimate:
    """Unit direction of the sensed upward specific force in the body frame."""

    direction: np.ndarray
    weight: float


def _stream_arrays(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    times = np.array([s.time for s in samples], dtype=float)
    gyro = np.stack([np.asarray(s.angular_velocity, dtype=float) for s in samples])
    accel = np.stack([np.asarray(s.linear_acceleration, dtype=float) for s in samples])
    return times, gyro, accel


def _interp_row(times: np.ndarray, values: np.ndarray, t: float) -> np.ndarray:
    return np.array([np.interp(t, times, values[:, d]) for d in range(values.shape[1])])


def preintegrate(
    samples,
    t_start: float,
    t_end: float,
    gyro_bias: np.ndarray | None = None,
    accel_bias: np.ndarray | None = None,
) -> PreintegratedDelta:
    """First-order integration of the bias-corrected samples over [t_start, t_end].

    Sample values at the interval endpoints are linearly interpolated from
    the surrounding stream; within the interval each sample's value holds
    until the next one (left Euler).
    """
    if t_end <= t_start:
        raise ValueError("empty preintegration interval")
    if len(samples) == 0:
        raise ValueError("no IMU samples supplied")
    gyro_bias = np.zeros(3) if gyro_bias is None else np.asarray(gyro_bias, dtype=float)
    accel_bias = np.zeros(3) if accel_bias is None else np.asarray(accel_bias, dtype=float)
    times, gyro, accel = _stream_arrays(samples)
    if times[-1] < t_start or times[0] > t_end:
        raise ValueError("no IMU samples overlap the interval")
    inside = (times > t_start) & (times < t_end)

    node_times = np.concatenate([[t_start], times[inside], [t_end]])
    node_gyro = np.vstack([[_interp_row(times, gyro, t_start)], gyro[inside], [np.zeros(3)]])
    node_accel = np.vstack([[_interp_row(times, accel, t_start)], accel[inside], [np.zeros(3)]])

    delta_rot = np.eye(3)
    delta_vel = np.zeros(3)
    delta_pos = np.zeros(3)
    for k in range(len(node_times) - 1):
        dt = node_times[k + 1] - node_times[k]
        if dt <= 0.0:
            continue
        w = node_gyro[k] - gyro_bias
        a = node_accel[k] - accel_bias
        delta_pos = delta_pos + delta_vel * dt + 0.5 * (delta_rot @ a) * dt * dt
        delta_vel = delta_vel + (delta_rot @ a) * dt
        delta_rot = delta_rot @ rotvec_to_matrix(w * dt)
    return PreintegratedDelta(
        dt=t_end - t_start,
        delta_rot=delta_rot,
        delta_vel=delta_vel,
        delta_pos=delta_pos,
        gyro_bias=gyro_bias,
        accel_bias=accel_bias,
    )


def compose_deltas(a: PreintegratedDelta, b: PreintegratedDelta) -> PreintegratedDelta:
    """Chain two consecutive deltas into one covering both intervals."""
    return PreintegratedDelta(
        dt=a.dt + b.dt,
        delta_rot=a.delta_rot @ b.delta_rot,
        delta_vel=a.delta_vel + a.delta_rot @ b.delta_vel,
        delta_pos=a.delta_pos + a.delta_vel * b.dt + a.delta_rot @ b.delta_pos,
        gyro_bias=a.gyro_bias,
        accel_bias=a.accel_bias,
    )


def stack_deltas(deltas) -> PreintegratedDelta:
    """One delta whose fields stack those of deltas along a new leading axis."""
    return PreintegratedDelta(**{
        f.name: np.stack([getattr(d, f.name) for d in deltas]) for f in fields(PreintegratedDelta)
    })


def imu_residual(
    delta: PreintegratedDelta, rot_i, pos_i, vel_i, rot_j, pos_j, vel_j, gravity: np.ndarray
) -> np.ndarray:
    """[rotation, velocity, position] mismatch against the delta, (..., 9).

    States i and j are world-frame rotation matrices (..., 3, 3), positions
    and velocities (..., 3) with any leading batch axes. For a delta stacked
    over S segments (`stack_deltas`) the last batch axis runs over them.
    gravity is the world-frame gravitational acceleration (about
    (0, 0, -9.81) in a z-up frame). Zero on any state sequence consistent
    with the integrated samples.
    """
    dt = np.asarray(delta.dt, dtype=float)[..., None]
    rot_i_t = np.swapaxes(rot_i, -1, -2)
    r_rot = matrix_to_rotvec(np.swapaxes(delta.delta_rot, -1, -2) @ rot_i_t @ rot_j)
    r_vel = (rot_i_t @ (vel_j - vel_i - gravity * dt)[..., None])[..., 0] - delta.delta_vel
    r_pos = (
        rot_i_t @ (pos_j - pos_i - vel_i * dt - 0.5 * gravity * dt * dt)[..., None]
    )[..., 0] - delta.delta_pos
    return np.concatenate([r_rot, r_vel, r_pos], axis=-1)


def estimate_gravity(
    traj: ContinuousTrajectory,
    samples,
    accel_bias: np.ndarray | None = None,
    min_overlap: float = 0.2,
) -> GravityEstimate:
    """Average the motion-corrected specific force over the trajectory span.

    The spline's linear acceleration (finite difference of the sampled
    velocity) is removed from each accelerometer reading, leaving the
    gravity reaction. The confidence weight decays with the mean angular
    rate; a mean vector weaker than 1 m/s^2 yields a zero-confidence
    estimate.
    """
    accel_bias = np.zeros(3) if accel_bias is None else np.asarray(accel_bias, dtype=float)
    times, gyro, accel = _stream_arrays(samples)
    inside = (times >= traj.t_first) & (times <= traj.t_last)
    if not np.any(inside):
        return GravityEstimate(direction=np.array([0.0, 0.0, 1.0]), weight=0.0)
    t_in = times[inside]
    if t_in[-1] - t_in[0] < min_overlap:
        raise ValueError("trajectory/IMU overlap shorter than minimum")
    h = 1e-3
    lo = np.maximum(t_in - h, traj.t_first)
    hi = np.minimum(t_in + h, traj.t_last)
    accel_world = (traj.sample_velocity(hi) - traj.sample_velocity(lo)) / (hi - lo)[:, None]
    rots = traj.sample_rotations(t_in)
    up_body = (accel[inside] - accel_bias) - np.einsum("nji,nj->ni", rots, accel_world)
    mean_vec = up_body.mean(axis=0)
    norm = float(np.linalg.norm(mean_vec))
    if norm < 1.0:
        return GravityEstimate(direction=np.array([0.0, 0.0, 1.0]), weight=0.0)
    mean_rate = float(np.linalg.norm(gyro[inside], axis=1).mean())
    weight = 1.0 / (1.0 + 10.0 * mean_rate)
    return GravityEstimate(direction=mean_vec / norm, weight=weight)


def static_initialization(samples) -> tuple[np.ndarray, np.ndarray, float]:
    """Gyro bias, unit body-frame up direction, gravity magnitude from rest.

    Meant for a short initial standstill; the accelerometer then senses the
    pure gravity reaction.
    """
    if len(samples) == 0:
        raise ValueError("no IMU samples for static initialization")
    _, gyro, accel = _stream_arrays(samples)
    gyro_bias = gyro.mean(axis=0)
    mean_accel = accel.mean(axis=0)
    magnitude = float(np.linalg.norm(mean_accel))
    if magnitude < 1.0:
        raise ValueError("static accelerometer mean too weak to define gravity")
    return gyro_bias, mean_accel / magnitude, magnitude

"""IMU stream, preintegration between control poses, gravity direction.

`ImuStream` is the one form of inertial data: the file reader, the simulator
and the odometry buffer hold one, and every function here reads its arrays.
Deltas accumulate body-frame relative motion (rotation, velocity, position)
from rate and specific-force samples, independent of any world pose and of
gravity. `imu_residual` compares deltas, stacked over segments, against
batches of state pairs (rotation matrix, position, velocity) under a known
world gravity vector; the odometry window's IMU rows are one such call.
`imu_jacobian` is its closed form (Forster et al., arXiv:1512.02363).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from multiscan.adjustment import turned_motion
from multiscan.geometry import left_jacobian_inv, matrix_to_rotvec, rotvec_to_matrix
from multiscan.trajectory import ContinuousTrajectory


@dataclass(frozen=True)
class ImuStream:
    """Stamps (N,) in s, body-frame rates (N, 3) in rad/s and specific forces
    (N, 3) in m/s^2, as read-only arrays; empty by default. Checked once,
    when built: ValueError unless the shapes match, every value is finite
    and the stamps strictly increase."""

    times: np.ndarray = field(default_factory=lambda: np.zeros(0))
    gyro: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    accel: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    def __post_init__(self):
        for item in fields(self):
            value = np.ascontiguousarray(getattr(self, item.name), dtype=float).view()
            value.flags.writeable = False
            object.__setattr__(self, item.name, value)
        shapes = (self.times.shape, self.gyro.shape, self.accel.shape)
        n = len(self.times) if self.times.ndim == 1 else -1
        if shapes != ((n,), (n, 3), (n, 3)):
            raise ValueError(f"IMU stream shapes {shapes} are not (N,), (N, 3), (N, 3)")
        if not all(np.isfinite(values).all() for values in (self.times, self.gyro, self.accel)):
            raise ValueError("non-finite IMU sample time, gyro or accel")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("IMU sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def between(self, t0: float, t1: float) -> ImuStream:
        """The samples stamped in [t0, t1], both ends inclusive."""
        lo = np.searchsorted(self.times, t0, side="left")
        hi = np.searchsorted(self.times, t1, side="right")
        return ImuStream(self.times[lo:hi], self.gyro[lo:hi], self.accel[lo:hi])

    def concatenate(self, later: ImuStream) -> ImuStream:
        """This stream, then later; ValueError unless later starts after this ends."""
        pairs = zip((self.times, self.gyro, self.accel), (later.times, later.gyro, later.accel))
        return ImuStream(*(np.concatenate(pair) for pair in pairs))


@dataclass
class PreintegratedDelta:
    """Relative motion over [t_i, t_j] integrated in the frame at t_i."""

    dt: float
    delta_rot: np.ndarray  # (3, 3)
    delta_vel: np.ndarray
    delta_pos: np.ndarray


@dataclass
class GravityEstimate:
    """Unit direction of the sensed upward specific force in the body frame."""

    direction: np.ndarray
    weight: float


def _interp_row(times: np.ndarray, values: np.ndarray, t: float) -> np.ndarray:
    return np.array([np.interp(t, times, values[:, d]) for d in range(values.shape[1])])


def preintegrate(
    stream: ImuStream,
    t_start: float,
    t_end: float,
    gyro_bias: np.ndarray | None = None,
    accel_bias: np.ndarray | None = None,
) -> PreintegratedDelta:
    """First-order integration of the stream's bias-corrected samples over
    [t_start, t_end], read from its arrays.

    Sample values at the interval endpoints are linearly interpolated from
    the surrounding stream; within the interval each sample's value holds
    until the next one (left Euler).
    """
    if t_end <= t_start:
        raise ValueError("empty preintegration interval")
    if len(stream) == 0:
        raise ValueError("no IMU samples supplied")
    gyro_bias = np.zeros(3) if gyro_bias is None else np.asarray(gyro_bias, dtype=float)
    accel_bias = np.zeros(3) if accel_bias is None else np.asarray(accel_bias, dtype=float)
    times, gyro, accel = stream.times, stream.gyro, stream.accel
    if times[-1] < t_start or times[0] > t_end:
        raise ValueError("no IMU samples overlap the interval")
    inside = (times > t_start) & (times < t_end)

    node_times = np.concatenate([[t_start], times[inside], [t_end]])
    node_gyro = np.vstack([[_interp_row(times, gyro, t_start)], gyro[inside], [np.zeros(3)]])
    node_accel = np.vstack([[_interp_row(times, accel, t_start)], accel[inside], [np.zeros(3)]])

    node_dt = np.diff(node_times)
    step_rots = rotvec_to_matrix((node_gyro[:-1] - gyro_bias) * node_dt[:, None])
    delta_rot = np.eye(3)
    delta_vel = np.zeros(3)
    delta_pos = np.zeros(3)
    for k, dt in enumerate(node_dt):
        if dt <= 0.0:
            continue
        a = node_accel[k] - accel_bias
        delta_pos = delta_pos + delta_vel * dt + 0.5 * (delta_rot @ a) * dt * dt
        delta_vel = delta_vel + (delta_rot @ a) * dt
        delta_rot = delta_rot @ step_rots[k]
    return PreintegratedDelta(
        dt=t_end - t_start,
        delta_rot=delta_rot,
        delta_vel=delta_vel,
        delta_pos=delta_pos,
    )


def stack_deltas(deltas) -> PreintegratedDelta:
    """One delta whose fields stack those of deltas along a new leading axis."""
    return PreintegratedDelta(**{
        f.name: np.stack([getattr(d, f.name) for d in deltas]) for f in fields(PreintegratedDelta)
    })


def _imu_terms(delta: PreintegratedDelta, rot_i, pos_i, vel_i, rot_j, pos_j, vel_j, gravity):
    """R_i^T, Log(dR^T R_i^T R_j), and the changes a of velocity and b of
    position, less gravity, whose images under R_i^T the delta predicts."""
    dt = np.asarray(delta.dt, dtype=float)[..., None]
    rot_i_t = np.swapaxes(rot_i, -1, -2)
    r_rot = matrix_to_rotvec(np.swapaxes(delta.delta_rot, -1, -2) @ rot_i_t @ rot_j)
    a = vel_j - vel_i - gravity * dt
    return rot_i_t, r_rot, a, pos_j - pos_i - vel_i * dt - 0.5 * gravity * dt * dt


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
    rot_i_t, r_rot, a, b = _imu_terms(delta, rot_i, pos_i, vel_i, rot_j, pos_j, vel_j, gravity)
    r_vel = (rot_i_t @ a[..., None])[..., 0] - delta.delta_vel
    r_pos = (rot_i_t @ b[..., None])[..., 0] - delta.delta_pos
    return np.concatenate([r_rot, r_vel, r_pos], axis=-1)


def imu_jacobian(delta: PreintegratedDelta, rot_i, pos_i, vel_i, rot_j, pos_j, vel_j, gravity):
    """Jacobian of `imu_residual` at the same arguments, (..., 9, 18).

    Columns, 3 each: the world-frame turn w_i (R_i to Exp(w_i) R_i), the
    position and the velocity of state i, then of state j. Log(dR^T R_i^T
    R_j) moves by J_r^-1 R_j^T (w_j - w_i), J_r^-1(x) = J_l^-1(-x); R_i^T a
    and R_i^T b move as a and b turned by -w_i, and linearly in p and v.
    """
    rot_i_t, r_rot, a, b = _imu_terms(delta, rot_i, pos_i, vel_i, rot_j, pos_j, vel_j, gravity)
    dt = np.asarray(delta.dt, dtype=float)[..., None, None]
    jac = np.zeros(r_rot.shape[:-1] + (9, 18))
    jac[..., :3, 9:12] = left_jacobian_inv(-r_rot) @ np.swapaxes(rot_j, -1, -2)
    jac[..., :3, :3] = -jac[..., :3, 9:12]
    jac[..., 3:6, :3] = turned_motion(rot_i_t, a, -np.eye(3))
    jac[..., 6:9, :3] = turned_motion(rot_i_t, b, -np.eye(3))
    # R_i^T a reads v_i and v_j; R_i^T b reads p_i, v_i and p_j
    jac[..., 3:6, 6:9], jac[..., 3:6, 15:18] = -rot_i_t, rot_i_t
    jac[..., 6:9, 3:6], jac[..., 6:9, 6:9], jac[..., 6:9, 12:15] = -rot_i_t, -dt * rot_i_t, rot_i_t
    return jac


def estimate_gravity(traj: ContinuousTrajectory, stream: ImuStream) -> GravityEstimate:
    """Average the motion-corrected specific force over the trajectory span,
    as a direction in the body frame at traj.t_last.

    Each accelerometer reading f at stamp t is turned into the world frame
    by the spline's rotation there, and the spline's own acceleration, the
    closed-form second derivative of its position polynomial, is removed:
    R(t) f - p''(t) leaves the gravity reaction. The readings are averaged
    in the world frame, so a sensor that turns over the span still agrees
    on one direction, and the mean is expressed in the frame at t_last, the
    newest pose's. The confidence weight decays with the mean angular rate.
    Fewer than 0.2 s of readings inside the span, or a mean vector weaker
    than 1 m/s^2, yield a zero-confidence estimate.
    """
    unknown = GravityEstimate(direction=np.array([0.0, 0.0, 1.0]), weight=0.0)
    inside = stream.between(traj.t_first, traj.t_last)
    t_in = inside.times
    if len(t_in) == 0 or t_in[-1] - t_in[0] < 0.2:
        return unknown
    rots = traj.sample_rotations(t_in)
    up_world = np.einsum("nij,nj->ni", rots, inside.accel) - traj.sample_position(t_in, 2)
    mean_vec = traj.sample_rotations(traj.t_last)[0].T @ up_world.mean(axis=0)
    norm = float(np.linalg.norm(mean_vec))
    if norm < 1.0:
        return unknown
    mean_rate = float(np.linalg.norm(inside.gyro, axis=1).mean())
    weight = 1.0 / (1.0 + 10.0 * mean_rate)
    return GravityEstimate(direction=mean_vec / norm, weight=weight)


def static_initialization(stream: ImuStream) -> tuple[np.ndarray, np.ndarray, float]:
    """Gyro bias, unit body-frame up direction, gravity magnitude from rest.

    Meant for a short initial standstill; the accelerometer then senses the
    pure gravity reaction.
    """
    if len(stream) == 0:
        raise ValueError("no IMU samples for static initialization")
    gyro_bias = stream.gyro.mean(axis=0)
    mean_accel = stream.accel.mean(axis=0)
    magnitude = float(np.linalg.norm(mean_accel))
    if magnitude < 1.0:
        raise ValueError("static accelerometer mean too weak to define gravity")
    return gyro_bias, mean_accel / magnitude, magnitude

"""Continuous-time trajectory: one spline evaluator over uniform control poses.

A trajectory is given by its control times and the flat parameter vector
(r, t) per control pose that the odometry window optimizes: a rotation
vector and a position. Positions follow a cubic Hermite spline whose
tangents are the centered differences of the control positions, one-sided
at the ends (`np.gradient`). `hermite_positions` evaluates it and its time
derivatives from one table of the four Hermite basis polynomials, so the
value, the velocity and the acceleration are the same polynomial.
Orientations follow one chain of control rotations R_k = Exp(r_k) and
segment turns phi_s = Log(R_s^T R_{s+1}): on segment s the rotation is
R_s Exp(u phi_s), constant-rate slerp for u in [0, 1]
(`slerp_rotation_matrices`). `slerp_turns` differentiates that same
formula under its two end poses' rotation vectors, and the odometry
extrapolates past the last control pose by the last segment's turn at the
same rate. `hermite_positions` and `slerp_rotation_matrices` take leading
batch axes, so the window evaluates its parameters with the same
arithmetic as `ContinuousTrajectory`.

Each point moves by the pose at its own stamp. `stamp_slots` gives the
distinct stamps of a point set and each point's index among them; the
window and `deskew` both evaluate the spline once per distinct stamp and
gather by that index, so the two move a point identically.
"""

from __future__ import annotations

import numpy as np

from multiscan.geometry import (
    Pose,
    PointCloud,
    left_jacobian,
    left_jacobian_inv,
    matrix_to_rotvec,
    rotvec_to_matrix,
)


# coefficients of the Hermite basis h00, h10, h01, h11 (rows) over 1, u, u^2, u^3
_HERMITE = np.array([
    [1.0, 0.0, -3.0, 2.0],
    [0.0, 1.0, -2.0, 1.0],
    [0.0, 0.0, 3.0, -2.0],
    [0.0, 0.0, -1.0, 1.0],
])


def segment_params(ctrl_times: np.ndarray, spacing: float, t_eval: np.ndarray):
    """Spline segment of each time (control pose seg to seg + 1) and its fraction u in [0, 1]."""
    seg = np.clip(np.searchsorted(ctrl_times, t_eval, side="right") - 1, 0, len(ctrl_times) - 2)
    return seg, np.clip((t_eval - ctrl_times[seg]) / spacing, 0.0, 1.0)


def hermite_positions(
    ctrl_times: np.ndarray, positions: np.ndarray, spacing: float, t_eval: np.ndarray,
    order: int = 0,
) -> np.ndarray:
    """Cubic Hermite interpolation of control positions at t_eval, or its
    order-th time derivative.

    positions is (..., K, 3), with any leading batch axes; the result is
    (..., M, 3) for M evaluation times. The tangents are
    `np.gradient(positions, spacing, axis=-2)`. On segment s with fraction
    u the value is h00 p_s + h10 dt m_s + h01 p_{s+1} + h11 dt m_{s+1}; the
    derivative differentiates the basis table in u and scales it by
    dt^-order, dt the spacing. The second derivative is linear on each
    segment and jumps at the knots, where a time takes the segment it
    starts (the last knot the segment it ends).
    """
    # the one tangent rule: centered differences, one-sided at the ends
    tangents = np.gradient(positions, spacing, axis=-2)
    seg, u = segment_params(ctrl_times, spacing, t_eval)
    coef = _HERMITE
    for _ in range(order):
        coef = coef[:, 1:] * np.arange(1.0, coef.shape[1])
    powers = [np.ones_like(u)]
    for _ in range(coef.shape[1] - 1):
        powers.append(powers[-1] * u)
    scale = np.array([1.0, spacing, 1.0, spacing]) / spacing**order
    h00, h10, h01, h11 = (coef * scale[:, None]) @ np.stack(powers)
    return (
        h00[:, None] * positions[..., seg, :]
        + h10[:, None] * tangents[..., seg, :]
        + h01[:, None] * positions[..., seg + 1, :]
        + h11[:, None] * tangents[..., seg + 1, :]
    )


def _rotation_chain(rotvecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Control rotations R_k = Exp(r_k), (..., K, 3, 3), and segment turns
    phi_s = Log(R_s^T R_{s+1}), (..., K - 1, 3), of rotation vectors (..., K, 3)."""
    mats = rotvec_to_matrix(rotvecs)
    return mats, matrix_to_rotvec(np.swapaxes(mats[..., :-1, :, :], -1, -2) @ mats[..., 1:, :, :])


def _slerp(mats: np.ndarray, phi: np.ndarray, seg: np.ndarray, u: np.ndarray) -> np.ndarray:
    """R_s Exp(u phi_s) for each segment s and fraction u, (..., M, 3, 3)."""
    return mats[..., seg, :, :] @ rotvec_to_matrix(u[:, None] * phi[..., seg, :])


def slerp_rotation_matrices(
    ctrl_times: np.ndarray, rotvecs: np.ndarray, spacing: float, t_eval: np.ndarray
) -> np.ndarray:
    """Spline rotations R_s Exp(u phi_s) at t_eval, with phi_s = Log(R_s^T R_{s+1}).

    rotvecs is (..., K, 3), the control rotation vectors with any leading
    batch axes; the result is (..., M, 3, 3) for M evaluation times.
    """
    return _slerp(*_rotation_chain(rotvecs), *segment_params(ctrl_times, spacing, t_eval))


def slerp_turns(
    ctrl_times: np.ndarray, rotvecs: np.ndarray, spacing: float, t_eval: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spline rotations at t_eval and their closed-form derivatives, (M, 3, 3) each.

    rotvecs is (K, 3). On segment s the rotation is R(u) = R_a Exp(u phi)
    with phi = Log(R_a^T R_b), as in `slerp_rotation_matrices`, so under
    changes dr_a and dr_b of its two end poses' rotation vectors R(u) turns
    in the world frame by

        (I - A) J_l(r_a) dr_a + A J_l(r_b) dr_b,
        A = u R(u) J_r(u phi) J_r^-1(phi) R_b^T,

    with J_r(x) = J_l(x)^T. Returns (R(u), turn_a, turn_b), the rotations and
    the matrices that multiply dr_a and dr_b.
    """
    seg, u = segment_params(ctrl_times, spacing, t_eval)
    mats, phi = _rotation_chain(rotvecs)
    rots = _slerp(mats, phi, seg, u)
    # J_r^-1(phi) R_b^T per segment, then A per time
    tail = np.swapaxes(left_jacobian_inv(phi), 1, 2) @ np.swapaxes(mats[1:], 1, 2)
    inner = np.swapaxes(left_jacobian(u[:, None] * phi[seg]), 1, 2)
    a = u[:, None, None] * (rots @ inner @ tail[seg])
    jac = left_jacobian(rotvecs)
    return rots, jac[seg] - a @ jac[seg], a @ jac[seg + 1]


def stamp_slots(stamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct stamps in ascending order, and each stamp's index among them."""
    return np.unique(stamps, return_inverse=True)


class ContinuousTrajectory:
    """Interpolating trajectory over [t_first, t_last].

    times are the K uniformly spaced control times; params is the flat
    vector of K blocks (r1, r2, r3, x, y, z): rotation vector, then position.
    """

    def __init__(self, times, params):
        self.times = np.asarray(times, dtype=float)
        if len(self.times) < 2:
            raise ValueError("need at least 2 control poses")
        gaps = np.diff(self.times)
        if np.any(gaps <= 0.0):
            raise ValueError("control times must be strictly increasing")
        if np.max(gaps) - np.min(gaps) > 1e-9:
            raise ValueError("control times must be uniformly spaced")
        self.spacing = float(gaps[0])
        blocks = np.asarray(params, dtype=float).reshape(len(self.times), 6)
        self.rotvecs = blocks[:, :3].copy()
        self.positions = blocks[:, 3:].copy()
        self.rotations, self.turns = _rotation_chain(self.rotvecs)

    @property
    def t_first(self) -> float:
        return float(self.times[0])

    @property
    def t_last(self) -> float:
        return float(self.times[-1])

    def _check_range(self, t: np.ndarray) -> None:
        if np.any(t < self.t_first - 1e-12) or np.any(t > self.t_last + 1e-12):
            raise ValueError(
                f"time outside trajectory window [{self.t_first}, {self.t_last}]"
            )

    def sample_position(self, t, order: int = 0) -> np.ndarray:
        """Spline position at t, or its order-th time derivative, (M, 3)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_range(t)
        return hermite_positions(self.times, self.positions, self.spacing, t, order)

    def sample_rotations(self, t) -> np.ndarray:
        """Batch slerp between bracketing control orientations, (M, 3, 3)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_range(t)
        return _slerp(self.rotations, self.turns, *segment_params(self.times, self.spacing, t))

    def sample_pose(self, t: float) -> Pose:
        """Pose at time t; exact at every control time up to rounding."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return Pose(matrix_to_rotvec(self.sample_rotations(t)[0]), self.sample_position(t)[0])


def deskew(cloud: PointCloud, traj: ContinuousTrajectory) -> PointCloud:
    """The points stamped inside the trajectory window, with their stamps,
    each moved into the world frame by the pose at its own stamp; points
    stamped outside the window are dropped."""
    inside = (cloud.stamps >= traj.t_first - 1e-12) & (cloud.stamps <= traj.t_last + 1e-12)
    points, stamps = cloud.points[inside], cloud.stamps[inside]
    times, slot = stamp_slots(stamps)
    rot = traj.sample_rotations(times)[slot]
    world = np.einsum("nij,nj->ni", rot, points) + traj.sample_position(times)[slot]
    return PointCloud(points=world, stamps=stamps)

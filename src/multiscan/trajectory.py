"""Continuous-time trajectory: one spline evaluator over uniform control poses.

A trajectory is given by its control times and the flat parameter vector
(r, t) per control pose that the odometry window optimizes: a rotation
vector and a position. Evaluation is split by what it depends on. The
times alone give a `SplineTable` (`spline_table`): each time's segment,
its fraction u and its Hermite basis weights, for the value or any time
derivative. The rotation vectors alone give one chain of control
rotations R_k = Exp(r_k) and segment turns phi_s = Log(R_s^T R_{s+1})
(`rotation_chain`). A caller that evaluates the same times at many
parameter vectors, as the odometry window does, builds the table once and
the chain once per vector.

Positions follow a cubic Hermite spline whose tangents are the centered
differences of the control positions, one-sided at the ends
(`np.gradient`). `hermite_positions` is one fixed-order weighted sum of
each time's two end positions and tangents, so the value, the velocity
and the acceleration are the same polynomial, and a time's position does
not depend on the times evaluated with it. Positions are linear in the
control positions; `position_weights` gives those weights, at most four
per time. On segment s the rotation is R_s Exp(u phi_s), constant-rate
slerp for u in [0, 1] (`slerp_rotation_matrices`). `slerp_turns`
differentiates that same formula under its two end poses' rotation
vectors, and the odometry extrapolates past the last control pose by the
last segment's turn at the same rate. `hermite_positions` and
`slerp_rotation_matrices` take leading batch axes.

Each point moves by the pose at its own stamp. `stamp_slots` gives the
distinct stamps of a point set and each point's index among them; the
window and `deskew` (through `ContinuousTrajectory`) both evaluate the
spline once per distinct stamp through the functions here and gather by
that index, so the two move a point identically.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from multiscan.geometry import (
    Pose,
    PointCloud,
    cross_matrix,
    left_jacobian_coefficients,
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


class SplineTable(NamedTuple):
    """Per-time table of a spline over uniform control times, for M times:
    the segment seg (control poses seg to seg + 1) and fraction u in [0, 1]
    of each time, and its Hermite basis (M, 4), the weights of p_s, g_s,
    p_{s+1} and g_{s+1}, with g = `np.gradient(p, axis=-2)` the tangents at
    unit spacing."""

    seg: np.ndarray
    u: np.ndarray
    basis: np.ndarray


def spline_table(ctrl_times: np.ndarray, spacing: float, t_eval: np.ndarray, order: int = 0) -> SplineTable:
    """The `SplineTable` of times t_eval, its basis for the order-th time derivative.

    On segment s with fraction u the position is h00 p_s + h10 dt m_s +
    h01 p_{s+1} + h11 dt m_{s+1}, with the tangents m the centered
    differences of the control positions, one-sided at the ends, so dt m
    is g. A derivative differentiates the basis in u and scales it by
    dt^-order, dt the spacing. The second derivative is linear on each
    segment and jumps at the knots, where a time takes the segment it
    starts (the last knot the segment it ends). Each time's basis is
    computed elementwise, so a time gets the same basis in any batch.
    """
    seg = np.clip(np.searchsorted(ctrl_times, t_eval, side="right") - 1, 0, len(ctrl_times) - 2)
    u = np.clip((t_eval - ctrl_times[seg]) / spacing, 0.0, 1.0)
    coef = _HERMITE
    for _ in range(order):
        coef = coef[:, 1:] * np.arange(1.0, coef.shape[1])
    coef = coef / spacing**order
    basis = coef[:, -1] * np.ones_like(u)[:, None]
    for k in range(coef.shape[1] - 2, -1, -1):  # Horner's rule in u
        basis = basis * u[:, None] + coef[:, k]
    return SplineTable(seg, u, basis)


def hermite_positions(positions: np.ndarray, table: SplineTable) -> np.ndarray:
    """Spline positions (or their time derivative) at the times of table.

    positions is (..., K, 3), the control positions with any leading batch
    axes; the result is (..., M, 3). One fixed-order weighted sum of the
    two end positions and tangents of each time's segment, so a time's
    position does not depend on the other times evaluated with it.
    """
    tangents = np.gradient(positions, axis=-2)  # the one tangent rule, at unit spacing
    seg, w = table.seg, table.basis
    return (
        w[:, 0, None] * positions[..., seg, :]
        + w[:, 1, None] * tangents[..., seg, :]
        + w[:, 2, None] * positions[..., seg + 1, :]
        + w[:, 3, None] * tangents[..., seg + 1, :]
    )


def position_weights(full: np.ndarray, table: SplineTable) -> tuple[np.ndarray, np.ndarray]:
    """The weights of the control positions in each time's `hermite_positions`.

    full is (M, K), `hermite_positions(np.eye(K), table)`: the positions'
    derivative of `hermite_positions` at the times of table. A time on
    segment s reads poses s - 1 to s + 2 of the K, clipped to the grid;
    they lie among the P = min(4, K) from first = clip(s - 1, 0, K - P).
    Returns first (M,) and the weights (M, P) of those P positions.
    """
    n_ctrl = full.shape[1]
    n_pos = min(4, n_ctrl)
    first = np.clip(table.seg - 1, 0, n_ctrl - n_pos)
    return first, np.take_along_axis(full, first[:, None] + np.arange(n_pos), axis=1)


def rotation_chain(rotvecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Control rotations R_k = Exp(r_k), (..., K, 3, 3), and segment turns
    phi_s = Log(R_s^T R_{s+1}), (..., K - 1, 3), of rotation vectors (..., K, 3)."""
    mats = rotvec_to_matrix(rotvecs)
    return mats, matrix_to_rotvec(np.swapaxes(mats[..., :-1, :, :], -1, -2) @ mats[..., 1:, :, :])


def slerp_rotation_matrices(mats: np.ndarray, phi: np.ndarray, table: SplineTable) -> np.ndarray:
    """Spline rotations R_s Exp(u phi_s) at the times of table, (..., M, 3, 3),
    of one `rotation_chain` (mats, phi) with any leading batch axes."""
    return mats[..., table.seg, :, :] @ rotvec_to_matrix(table.u[:, None] * phi[..., table.seg, :])


def slerp_turns(mats: np.ndarray, phi: np.ndarray, table: SplineTable) -> np.ndarray:
    """The lever A of each spline rotation under its end poses, (M, 3, 3).

    mats and phi are one `rotation_chain` of K control poses. On segment s
    the rotation is R(u) = R_a Exp(u phi) with phi = Log(R_a^T R_b), so
    under changes dr_a and dr_b of its two end poses' rotation vectors R(u)
    turns in the world frame by

        (I - A) J_l(r_a) dr_a + A J_l(r_b) dr_b,
        A = u R(u) J_r(u phi) J_r^-1(phi) R_b^T = u R_a J_l(u phi) J_r^-1(phi) R_b^T,

    with J_r(x) = J_l(x)^T = Exp(-x) J_l(x). As J_l(u phi) = I + u c1 [phi]x
    + u^2 c2 [phi]x^2, with c1 and c2 of `left_jacobian_coefficients` at the
    angle u |phi|, A weighs three matrices of its segment,
    Q_k = R_a [phi]x^k J_r^-1(phi) R_b^T, by u, u^2 c1 and u^3 c2.
    """
    seg, u = table.seg, table.u
    head = mats[:-1]
    tail = np.swapaxes(left_jacobian_inv(phi), 1, 2) @ np.swapaxes(mats[1:], 1, 2)
    skew = cross_matrix(phi)
    q0, q1 = head @ tail, head @ skew @ tail
    q2 = head @ skew @ skew @ tail
    c1, c2 = left_jacobian_coefficients(u * u * np.sum(phi * phi, axis=1)[seg])
    return (u[:, None, None] * q0[seg] + (u * u * c1)[:, None, None] * q1[seg]
            + (u * u * u * c2)[:, None, None] * q2[seg])


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
        self.rotations, self.turns = rotation_chain(self.rotvecs)

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
        return hermite_positions(self.positions, spline_table(self.times, self.spacing, t, order))

    def sample_rotations(self, t) -> np.ndarray:
        """Batch slerp between bracketing control orientations, (M, 3, 3)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_range(t)
        return slerp_rotation_matrices(self.rotations, self.turns, spline_table(self.times, self.spacing, t))

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

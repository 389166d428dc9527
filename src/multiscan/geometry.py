"""Rigid-body math: rotation vectors, poses, point cloud container.

Rotations are carried as 3-vectors (axis * angle, radians). Matrices are
built on demand via the Rodrigues formula; quaternions ([x, y, z, w]) are
used internally only for interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SMALL_ANGLE = 1e-10


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a 3-vector."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotvec_to_matrix(r: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector to 3x3 orthonormal matrix."""
    r = np.asarray(r, dtype=float)
    angle = np.linalg.norm(r)
    if angle < _SMALL_ANGLE:
        # second-order series, exact to machine precision for tiny angles
        k = skew(r)
        return np.eye(3) + k + 0.5 * (k @ k)
    axis = r / angle
    k = skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def matrix_to_rotvec(mat: np.ndarray) -> np.ndarray:
    """Log map: orthonormal matrices (..., 3, 3) to rotation vectors (..., 3).

    Angles lie in [0, pi]; any leading batch axes are kept.
    """
    mat = np.asarray(mat, dtype=float)
    flat = mat.reshape(-1, 3, 3)
    angle = np.arccos(np.clip((flat[:, 0, 0] + flat[:, 1, 1] + flat[:, 2, 2] - 1.0) * 0.5, -1.0, 1.0))
    # (m21 - m12, m02 - m20, m10 - m01)
    ref = (flat - np.swapaxes(flat, 1, 2))[:, [2, 0, 1], [1, 2, 0]]
    small = angle < _SMALL_ANGLE
    out = np.where(small, 0.5, angle / (2.0 * np.sin(np.where(small, 1.0, angle))))[:, None] * ref
    near = np.nonzero(np.pi - angle < 1e-6)[0]
    if len(near):
        # near pi the off-diagonal differences vanish; recover axis from
        # the dominant diagonal entry of (mat + I) / 2
        sym = 0.5 * (flat[near] + np.eye(3))
        i = np.argmax(np.diagonal(sym, axis1=1, axis2=2), axis=1)
        k = np.arange(len(near))
        axis = sym[k, :, i] / np.sqrt(np.maximum(sym[k, i, i], 1e-12))[:, None]
        axis /= np.sqrt(axis[:, None, :] @ axis[:, :, None])[:, 0]
        # fix sign using the skew part where it is still informative
        axis *= np.where((ref[near, None, :] @ axis[:, :, None])[:, 0] < 0.0, -1.0, 1.0)
        out[near] = axis * angle[near, None]
    return out.reshape(mat.shape[:-1])


def rotvec_to_quat(r: np.ndarray) -> np.ndarray:
    """Rotation vector to unit quaternion [x, y, z, w]."""
    r = np.asarray(r, dtype=float)
    angle = np.linalg.norm(r)
    if angle < _SMALL_ANGLE:
        q = np.array([0.5 * r[0], 0.5 * r[1], 0.5 * r[2], 1.0])
        return q / np.linalg.norm(q)
    axis = r / angle
    s = np.sin(0.5 * angle)
    return np.array([axis[0] * s, axis[1] * s, axis[2] * s, np.cos(0.5 * angle)])


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Unit quaternion [x, y, z, w] to rotation vector, |angle| <= pi."""
    q = np.asarray(q, dtype=float)
    if q[3] < 0.0:
        q = -q
    vec_norm = np.linalg.norm(q[:3])
    if vec_norm < _SMALL_ANGLE:
        return 2.0 * q[:3]
    angle = 2.0 * np.arctan2(vec_norm, q[3])
    return q[:3] * (angle / vec_norm)


def slerp(ra: np.ndarray, rb: np.ndarray, u: float) -> np.ndarray:
    """Constant-angular-velocity interpolation between two rotation vectors.

    u=0 returns ra, u=1 returns rb. The shorter of the two great-circle
    paths is taken; for antipodal inputs the representative of rb with
    non-negative w component is used.
    """
    qa = rotvec_to_quat(ra)
    qb = rotvec_to_quat(rb)
    dot = float(qa @ qb)
    if dot < 0.0:
        qb = -qb
        dot = -dot
    elif dot == 0.0 and qb[3] < 0.0:
        qb = -qb
    dot = min(dot, 1.0)
    theta = np.arccos(dot)
    if theta < 1e-9:
        q = qa + u * (qb - qa)
        return quat_to_rotvec(q / np.linalg.norm(q))
    sin_theta = np.sin(theta)
    wa = np.sin((1.0 - u) * theta) / sin_theta
    wb = np.sin(u * theta) / sin_theta
    return quat_to_rotvec(wa * qa + wb * qb)


def rotation_angle_between(ra: np.ndarray, rb: np.ndarray) -> float:
    """Geodesic angle (radians) between two rotation vectors."""
    rel = rotvec_to_matrix(ra).T @ rotvec_to_matrix(rb)
    return float(np.linalg.norm(matrix_to_rotvec(rel)))


def rotvecs_to_matrices(r: np.ndarray) -> np.ndarray:
    """Batched Rodrigues formula, (N, 3) rotation vectors to (N, 3, 3)."""
    r = np.asarray(r, dtype=float).reshape(-1, 3)
    angle = np.linalg.norm(r, axis=1)
    small = angle < _SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    axis = r / safe[:, None]
    x, y, z = axis[:, 0], axis[:, 1], axis[:, 2]
    zero = np.zeros_like(x)
    k = np.stack(
        [zero, -z, y, z, zero, -x, -y, x, zero], axis=1
    ).reshape(-1, 3, 3)
    k2 = k @ k
    sin_a = np.sin(angle)[:, None, None]
    cos_a = (1.0 - np.cos(angle))[:, None, None]
    out = np.eye(3) + sin_a * k + cos_a * k2
    if np.any(small):
        ks = np.stack(
            [zero, -r[:, 2], r[:, 1], r[:, 2], zero, -r[:, 0], -r[:, 1], r[:, 0], zero],
            axis=1,
        ).reshape(-1, 3, 3)
        out[small] = (np.eye(3) + ks + 0.5 * (ks @ ks))[small]
    return out


def rotvecs_to_quats(r: np.ndarray) -> np.ndarray:
    """Batched rotation vectors to unit quaternions [x, y, z, w], (N, 4)."""
    r = np.asarray(r, dtype=float).reshape(-1, 3)
    angle = np.linalg.norm(r, axis=1)
    small = angle < _SMALL_ANGLE
    safe = np.where(small, 1.0, angle)
    out = np.empty((len(r), 4))
    s = np.sin(0.5 * angle) / safe
    out[:, :3] = r * s[:, None]
    out[:, 3] = np.cos(0.5 * angle)
    if np.any(small):
        out[small, :3] = 0.5 * r[small]
        out[small, 3] = 1.0
        out[small] /= np.linalg.norm(out[small], axis=1, keepdims=True)
    return out


@dataclass(frozen=True)
class Pose:
    """Rigid transform: p_out = R(rotvec) @ p_in + trans."""

    rotvec: np.ndarray
    trans: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotvec", np.asarray(self.rotvec, dtype=float).reshape(3))
        object.__setattr__(self, "trans", np.asarray(self.trans, dtype=float).reshape(3))

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.zeros(3))

    @staticmethod
    def from_params(params: np.ndarray) -> "Pose":
        """Build from the flat optimizer vector (r1, r2, r3, x, y, z)."""
        params = np.asarray(params, dtype=float).reshape(6)
        return Pose(params[:3], params[3:])

    def as_params(self) -> np.ndarray:
        return np.concatenate([self.rotvec, self.trans])

    def matrix(self) -> np.ndarray:
        return rotvec_to_matrix(self.rotvec)

    def apply(self, pts: np.ndarray) -> np.ndarray:
        """Transform a (3,) point or (N, 3) array of points."""
        pts = np.asarray(pts, dtype=float)
        rot = self.matrix()
        if pts.ndim == 1:
            return rot @ pts + self.trans
        return pts @ rot.T + self.trans

    def compose(self, other: "Pose") -> "Pose":
        """self after other: (self compose other).apply(p) == self.apply(other.apply(p))."""
        ra = self.matrix()
        rb = other.matrix()
        return Pose(matrix_to_rotvec(ra @ rb), ra @ other.trans + self.trans)

    def inverse(self) -> "Pose":
        rot_t = self.matrix().T
        return Pose(matrix_to_rotvec(rot_t), -(rot_t @ self.trans))


@dataclass
class PointCloud:
    """Points in a single frame with per-point acquisition times.

    Optional per-point attributes (unit normals, planarity in [0, 1],
    range from the sensor origin) must match the point count when set.
    """

    points: np.ndarray
    stamps: np.ndarray = None
    normals: np.ndarray | None = None
    planarity: np.ndarray | None = None
    ranges: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        n = len(self.points)
        if self.stamps is None:
            self.stamps = np.zeros(n)
        self.stamps = np.asarray(self.stamps, dtype=float).reshape(-1)
        if len(self.stamps) != n:
            raise ValueError(f"stamps length {len(self.stamps)} != point count {n}")
        for name in ("normals", "planarity", "ranges"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if len(arr) != n:
                raise ValueError(f"{name} length {len(arr)} != point count {n}")
            setattr(self, name, arr)

    def __len__(self) -> int:
        return len(self.points)

    def select(self, idx: np.ndarray) -> "PointCloud":
        """Subset cloud keeping all present attributes."""
        return PointCloud(
            points=self.points[idx],
            stamps=self.stamps[idx],
            normals=None if self.normals is None else self.normals[idx],
            planarity=None if self.planarity is None else self.planarity[idx],
            ranges=None if self.ranges is None else self.ranges[idx],
        )

    def validate(self) -> None:
        """Check the container invariants; raises ValueError on violation."""
        if not (np.all(np.isfinite(self.points)) and np.all(np.isfinite(self.stamps))):
            raise ValueError("non-finite point coordinates or stamps")
        if np.any(np.diff(self.stamps) < 0.0):
            raise ValueError("stamps are not monotone non-decreasing")
        if self.normals is not None and len(self.normals):
            norms = np.linalg.norm(self.normals, axis=1)
            valid = norms > 0.0
            if np.any(np.abs(norms[valid] - 1.0) > 1e-6):
                raise ValueError("normals are not unit length")

"""Rigid-body math: exp and log maps, poses, point cloud container.

Rotations are carried as rotation vectors (axis * angle, radians).
`rotvec_to_matrix` (exp, Rodrigues' formula) and `matrix_to_rotvec` (log)
are the one pair of conversions to and from 3x3 matrices; `rotvec_to_quat`
is the one conversion to quaternions [x, y, z, w], which the trajectory
file format stores (`fileio.write_trajectory`). All three take any leading
batch axes, and each entry of a stack equals the single call on it bit for
bit. `left_jacobian` and `left_jacobian_inv` are the SO(3) Jacobians of the
exp map (Sola et al., arXiv:1812.01537), batched the same way; the right
Jacobian is the transpose of the left. `Pose` is one rigid transform built
on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SMALL_ANGLE = 1e-10
# below this angle (rad) the SO(3) Jacobians use their series coefficients
_JACOBIAN_SERIES_ANGLE = 1e-4

# the cross-product matrix as a linear map: (x, y, z) @ _CROSS is its
# row-major entries (0, -z, y, z, 0, -x, -y, x, 0), exactly
_CROSS = np.zeros((3, 9))
_CROSS[[0, 1, 2], [7, 2, 3]] = 1.0
_CROSS[[0, 1, 2], [5, 6, 1]] = -1.0
_EYE = np.eye(3)


def _norms(flat: np.ndarray) -> np.ndarray:
    """Row norms of (N, 3), the arithmetic of np.linalg.norm(flat, axis=1)."""
    return np.sqrt(np.add.reduce(flat * flat, axis=1))


def rotvec_to_matrix(r: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vectors (..., 3) to orthonormal matrices (..., 3, 3).

    Rodrigues' formula on the unit axis; below _SMALL_ANGLE the second-order
    series in r itself, exact to machine precision there.
    """
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1, 3)
    angle = _norms(flat)
    small = angle < _SMALL_ANGLE
    k = (flat / np.where(small, 1.0, angle)[:, None] @ _CROSS).reshape(-1, 3, 3)
    sin_a = np.where(small, 1.0, np.sin(angle))[:, None, None]
    cos_a = np.where(small, 0.5, 1.0 - np.cos(angle))[:, None, None]
    return (_EYE + sin_a * k + cos_a * (k @ k)).reshape(r.shape + (3,))


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
    """Rotation vectors (..., 3) to unit quaternions [x, y, z, w], (..., 4)."""
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1, 3)
    angle = _norms(flat)
    small = angle < _SMALL_ANGLE
    out = np.empty((len(flat), 4))
    out[:, :3] = flat * (np.sin(0.5 * angle) / np.where(small, 1.0, angle))[:, None]
    out[:, 3] = np.cos(0.5 * angle)
    if np.any(small):
        out[small, :3] = 0.5 * flat[small]
        out[small, 3] = 1.0
        out[small] /= np.linalg.norm(out[small], axis=1, keepdims=True)
    return out.reshape(r.shape[:-1] + (4,))


def left_jacobian(r: np.ndarray) -> np.ndarray:
    """Left Jacobians of SO(3), (..., 3) to (..., 3, 3): Exp(r + dr) = Exp(J_l dr) Exp(r).

    J_l = I + (1 - cos a) / a^2 [r]x + (a - sin a) / a^3 [r]x^2 for angle a;
    the right Jacobian is its transpose. Below _JACOBIAN_SERIES_ANGLE the
    coefficients come from their Taylor series.
    """
    k, a2, _ = _jacobian_parts(r)
    first, second = left_jacobian_coefficients(a2)
    return _EYE + first[..., None, None] * k + second[..., None, None] * (k @ k)


def left_jacobian_coefficients(a2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scalars (1 - cos a) / a^2 and (a - sin a) / a^3 of `left_jacobian`
    at squared angles a2; below _JACOBIAN_SERIES_ANGLE their Taylor series."""
    small = a2 < _JACOBIAN_SERIES_ANGLE**2
    a = np.sqrt(np.where(small, 1.0, a2))
    half = np.sin(0.5 * a)
    first = np.where(small, 0.5 - a2 / 24.0, 2.0 * half * half / (a * a))
    second = np.where(small, 1.0 / 6.0 - a2 / 120.0, (a - np.sin(a)) / (a * a * a))
    return first, second


def left_jacobian_inv(r: np.ndarray) -> np.ndarray:
    """Inverses of `left_jacobian`, (..., 3) to (..., 3, 3), for angles below 2 pi.

    J_l^-1 = I - [r]x / 2 + (1 - (a / 2) cot(a / 2)) / a^2 [r]x^2.
    """
    k, a2, small = _jacobian_parts(r)
    a = np.sqrt(np.where(small, 1.0, a2))
    half = 0.5 * a
    second = np.where(small, 1.0 / 12.0 + a2 / 720.0, (1.0 - half / np.tan(half)) / (a * a))
    return _EYE - 0.5 * k + second[..., None, None] * (k @ k)


def cross_matrix(r: np.ndarray) -> np.ndarray:
    """Cross-product matrices [r]x, (..., 3) to (..., 3, 3): [r]x v = r x v."""
    r = np.asarray(r, dtype=float)
    return (r.reshape(-1, 3) @ _CROSS).reshape(r.shape + (3,))


def _jacobian_parts(r: np.ndarray):
    """Cross-product matrices of r, squared angles, and the series mask."""
    r = np.asarray(r, dtype=float)
    a2 = np.sum(r * r, axis=-1)
    return cross_matrix(r), a2, a2 < _JACOBIAN_SERIES_ANGLE**2


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

    Optional per-point attributes (unit normals, planarity in [0, 1]) must
    match the point count when set.
    """

    points: np.ndarray
    stamps: np.ndarray = None
    normals: np.ndarray | None = None
    planarity: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        n = len(self.points)
        if self.stamps is None:
            self.stamps = np.zeros(n)
        self.stamps = np.asarray(self.stamps, dtype=float).reshape(-1)
        if len(self.stamps) != n:
            raise ValueError(f"stamps length {len(self.stamps)} != point count {n}")
        for name in ("normals", "planarity"):
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

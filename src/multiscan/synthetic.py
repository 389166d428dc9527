"""Synthetic test scenes: wall geometry, ray-cast scans, exact-IMU streams.

Every scene is driven by an analytic motion profile with closed-form
velocity, acceleration and body rates, so generated scans and IMU samples
are exactly consistent with the ground-truth trajectory before noise is
added. Scans follow spinning-sensor timing: the azimuth sweep is spread
over the scan duration and every point carries the stamp of its column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from multiscan.geometry import Pose, PointCloud, matrix_to_rotvec
from multiscan.imu import ImuStream

GRAVITY = np.array([0.0, 0.0, -9.81])


# ---------------------------------------------------------------------------
# walls and ray casting

@dataclass(frozen=True)
class Wall:
    """Planar rectangle spanned by two edge vectors from a corner."""

    origin: tuple
    edge_u: tuple
    edge_v: tuple


def _wall_arrays(walls: list[Wall]):
    origins = np.array([w.origin for w in walls], dtype=float)
    eu = np.array([w.edge_u for w in walls], dtype=float)
    ev = np.array([w.edge_v for w in walls], dtype=float)
    normals = np.cross(eu, ev)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return origins, eu, ev, normals


def raycast(
    walls: list[Wall], ray_origins: np.ndarray, ray_dirs: np.ndarray, max_range: float
) -> np.ndarray:
    """Distance to the nearest wall hit per ray; inf where nothing is hit."""
    origins, eu, ev, normals = _wall_arrays(walls)
    best = np.full(len(ray_origins), np.inf)
    uu = np.sum(eu * eu, axis=1)
    vv = np.sum(ev * ev, axis=1)
    for w in range(len(walls)):
        denom = ray_dirs @ normals[w]
        ok = np.abs(denom) > 1e-12
        t = np.full(len(ray_origins), np.inf)
        t[ok] = ((origins[w] - ray_origins[ok]) @ normals[w]) / denom[ok]
        ok &= (t > 1e-6) & (t <= max_range)
        if not np.any(ok):
            continue
        hits = ray_origins[ok] + t[ok, None] * ray_dirs[ok]
        rel = hits - origins[w]
        a = (rel @ eu[w]) / uu[w]
        b = (rel @ ev[w]) / vv[w]
        inside = (a >= 0.0) & (a <= 1.0) & (b >= 0.0) & (b <= 1.0)
        idx = np.nonzero(ok)[0][inside]
        best[idx] = np.minimum(best[idx], t[ok][inside])
    return best


def box_walls(x0, x1, y0, y1, z0, z1) -> list[Wall]:
    """Six rectangles enclosing an axis-aligned box."""
    return [
        Wall((x0, y0, z0), (x1 - x0, 0, 0), (0, y1 - y0, 0)),  # floor
        Wall((x0, y0, z1), (x1 - x0, 0, 0), (0, y1 - y0, 0)),  # ceiling
        Wall((x0, y0, z0), (x1 - x0, 0, 0), (0, 0, z1 - z0)),  # y = y0
        Wall((x0, y1, z0), (x1 - x0, 0, 0), (0, 0, z1 - z0)),  # y = y1
        Wall((x0, y0, z0), (0, y1 - y0, 0), (0, 0, z1 - z0)),  # x = x0
        Wall((x1, y0, z0), (0, y1 - y0, 0), (0, 0, z1 - z0)),  # x = x1
    ]


def ring_corridor_walls(outer_half: float, inner_half: float, height: float) -> list[Wall]:
    """Square ring corridor: outer shell, inner shaft, floor and ceiling."""
    o, i, h = outer_half, inner_half, height
    walls = box_walls(-o, o, -o, o, 0.0, h)
    walls += [
        Wall((-i, -i, 0), (2 * i, 0, 0), (0, 0, h)),  # inner y = -i
        Wall((-i, i, 0), (2 * i, 0, 0), (0, 0, h)),   # inner y = +i
        Wall((-i, -i, 0), (0, 2 * i, 0), (0, 0, h)),  # inner x = -i
        Wall((i, -i, 0), (0, 2 * i, 0), (0, 0, h)),   # inner x = +i
    ]
    return walls


# ---------------------------------------------------------------------------
# motion profiles (scalar path parameter with analytic derivatives)

@dataclass(frozen=True)
class RampProfile:
    """Rest, then a quintic-smooth ramp to a constant rate.

    C2 in time: the rate follows the quintic smoothstep during the ramp, so
    acceleration is continuous everywhere (including both ramp ends).
    """

    rate: float
    ramp_start: float = 0.0
    ramp_duration: float = 1.0

    def value(self, t):
        t = np.asarray(t, dtype=float)
        u = np.clip((t - self.ramp_start) / self.ramp_duration, 0.0, None)
        ramp_u = np.clip(u, 0.0, 1.0)
        integral = ramp_u**6 - 3 * ramp_u**5 + 2.5 * ramp_u**4
        linear = np.clip(u - 1.0, 0.0, None)
        return self.rate * self.ramp_duration * integral + self.rate * self.ramp_duration * linear

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        u = np.clip((t - self.ramp_start) / self.ramp_duration, 0.0, 1.0)
        return self.rate * (6 * u**5 - 15 * u**4 + 10 * u**3)

    def second_derivative(self, t):
        t = np.asarray(t, dtype=float)
        u = (t - self.ramp_start) / self.ramp_duration
        inside = (u > 0.0) & (u < 1.0)
        u = np.clip(u, 0.0, 1.0)
        d = self.rate * (30 * u**4 - 60 * u**3 + 30 * u**2) / self.ramp_duration
        return np.where(inside, d, 0.0)


def _rz_batch(yaw: np.ndarray) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    out = np.zeros(yaw.shape + (3, 3))
    out[..., 0, 0] = c
    out[..., 0, 1] = -s
    out[..., 1, 0] = s
    out[..., 1, 1] = c
    out[..., 2, 2] = 1.0
    return out


class StaticMotion:
    """Sensor at rest in a fixed pose."""

    def __init__(self, pose: Pose | None = None):
        self.fixed = pose or Pose.identity()

    def positions(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return np.tile(self.fixed.trans, (len(t), 1))

    def velocities(self, t):
        return np.zeros((len(np.atleast_1d(t)), 3))

    def accelerations(self, t):
        return np.zeros((len(np.atleast_1d(t)), 3))

    def rotations(self, t):
        return np.tile(self.fixed.matrix(), (len(np.atleast_1d(t)), 1, 1))

    def body_rates(self, t):
        return np.zeros((len(np.atleast_1d(t)), 3))

    def pose(self, t: float) -> Pose:
        return self.fixed


class LineMotion:
    """Straight-line travel along a unit direction, yaw facing forward."""

    def __init__(self, start, direction, profile):
        self.start = np.asarray(start, dtype=float)
        self.direction = np.asarray(direction, dtype=float)
        self.direction = self.direction / np.linalg.norm(self.direction)
        self.profile = profile
        yaw = np.arctan2(self.direction[1], self.direction[0])
        self._rot = _rz_batch(np.array(yaw))

    def positions(self, t):
        s = np.atleast_1d(self.profile.value(t))
        return self.start + s[:, None] * self.direction

    def velocities(self, t):
        ds = np.atleast_1d(self.profile.derivative(t))
        return ds[:, None] * self.direction

    def accelerations(self, t):
        dds = np.atleast_1d(self.profile.second_derivative(t))
        return dds[:, None] * self.direction

    def rotations(self, t):
        return np.tile(self._rot, (len(np.atleast_1d(t)), 1, 1))

    def body_rates(self, t):
        return np.zeros((len(np.atleast_1d(t)), 3))

    def pose(self, t: float) -> Pose:
        return Pose(matrix_to_rotvec(self.rotations(t)[0]), self.positions(t)[0])


class CircleMotion:
    """Circular path at fixed height, yaw aligned with the tangent."""

    def __init__(self, center, radius, height, profile):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.height = float(height)
        self.profile = profile

    def _theta(self, t):
        return np.atleast_1d(self.profile.value(t)) / self.radius

    def positions(self, t):
        th = self._theta(t)
        return self.center + np.stack(
            [self.radius * np.cos(th), self.radius * np.sin(th), np.full_like(th, self.height)],
            axis=1,
        )

    def velocities(self, t):
        th = self._theta(t)
        ds = np.atleast_1d(self.profile.derivative(t))
        tangent = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=1)
        return ds[:, None] * tangent

    def accelerations(self, t):
        th = self._theta(t)
        ds = np.atleast_1d(self.profile.derivative(t))
        dds = np.atleast_1d(self.profile.second_derivative(t))
        tangent = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=1)
        inward = np.stack([-np.cos(th), -np.sin(th), np.zeros_like(th)], axis=1)
        return dds[:, None] * tangent + (ds * ds / self.radius)[:, None] * inward

    def rotations(self, t):
        return _rz_batch(self._theta(t) + np.pi / 2)

    def body_rates(self, t):
        ds = np.atleast_1d(self.profile.derivative(t))
        out = np.zeros((len(ds), 3))
        out[:, 2] = ds / self.radius
        return out

    def pose(self, t: float) -> Pose:
        return Pose(matrix_to_rotvec(self.rotations(t)[0]), self.positions(t)[0])


# ---------------------------------------------------------------------------
# scene specification and generation

@dataclass
class DynamicBoxSpec:
    """A moving box whose surface replaces a fraction of each scan's points."""

    center0: tuple = (3.0, 0.0, 1.0)
    velocity: tuple = (0.0, 0.8, 0.0)
    size: tuple = (0.8, 0.8, 0.8)
    fraction: float = 0.15


@dataclass
class SceneSpec:
    walls: list[Wall]
    motion: object
    duration: float
    scan_rate: float = 10.0
    scan_sweep: float = 0.1
    n_azimuth: int = 120
    n_rings: int = 16
    elevation_lo: float = -0.9
    elevation_hi: float = 0.9
    noise_sigma: float = 0.005
    max_range: float = 60.0
    ray_pattern: str = "rings"  # "rings": elevation rings; "scatter": random directions
    imu_rate: float = 200.0
    gyro_noise: float = 0.0
    accel_noise: float = 0.0
    gyro_bias: tuple = (0.0, 0.0, 0.0)
    accel_bias: tuple = (0.0, 0.0, 0.0)
    dynamic: DynamicBoxSpec | None = None
    gravity: np.ndarray = field(default_factory=lambda: GRAVITY.copy())


@dataclass
class SyntheticDataset:
    scans: list[PointCloud]
    imu_samples: ImuStream
    truth_times: np.ndarray
    truth_poses: list[Pose]
    dynamic_masks: list[np.ndarray]


def room_scene(
    size=(10.0, 8.0, 3.0),
    duration=0.3,
    points_per_scan=3000,
    noise_sigma=0.005,
    dynamic_fraction=0.0,
    **overrides,
) -> SceneSpec:
    """Closed box room observed from its center by a static sensor."""
    sx, sy, sz = size
    walls = box_walls(-sx / 2, sx / 2, -sy / 2, sy / 2, 0.0, sz)
    n_rings = 20
    n_azimuth = max(8, int(round(points_per_scan / n_rings)))
    motion = StaticMotion(Pose(np.zeros(3), np.array([0.0, 0.0, sz / 2])))
    dynamic = DynamicBoxSpec(fraction=dynamic_fraction) if dynamic_fraction > 0 else None
    return SceneSpec(
        walls=walls,
        motion=motion,
        duration=duration,
        n_azimuth=n_azimuth,
        n_rings=n_rings,
        elevation_lo=-1.1,
        elevation_hi=1.1,
        noise_sigma=noise_sigma,
        dynamic=dynamic,
        **overrides,
    )


def corridor_scene(
    length=30.0,
    width=4.0,
    height=3.0,
    duration=10.0,
    speed=1.0,
    noise_sigma=0.01,
    **overrides,
) -> SceneSpec:
    """Straight closed corridor traversed along +x after a smooth start."""
    walls = box_walls(0.0, length, -width / 2, width / 2, 0.0, height)
    profile = RampProfile(rate=speed, ramp_start=1.0, ramp_duration=2.0)
    motion = LineMotion(
        start=(2.0, 0.0, height / 2), direction=(1.0, 0.0, 0.0), profile=profile
    )
    return SceneSpec(
        walls=walls,
        motion=motion,
        duration=duration,
        noise_sigma=noise_sigma,
        **overrides,
    )


def loop_scene(
    outer_half=8.0,
    inner_half=4.0,
    height=3.0,
    path_radius=6.0,
    duration=60.0,
    noise_sigma=0.01,
    **overrides,
) -> SceneSpec:
    """Square ring corridor with one full counter-clockwise lap."""
    walls = ring_corridor_walls(outer_half, inner_half, height)
    ramp_start, ramp_duration = 1.0, 2.0
    effective = duration - ramp_start - ramp_duration / 2.0
    rate = 2.0 * np.pi * path_radius / effective
    profile = RampProfile(rate=rate, ramp_start=ramp_start, ramp_duration=ramp_duration)
    motion = CircleMotion(
        center=(0.0, 0.0, 0.0), radius=path_radius, height=height / 2, profile=profile
    )
    return SceneSpec(
        walls=walls,
        motion=motion,
        duration=duration,
        noise_sigma=noise_sigma,
        **overrides,
    )


def _scan_directions(spec: SceneSpec, rng: np.random.Generator):
    """Body-frame ray directions plus per-ray sweep offsets, stamp-ordered.

    "rings" mimics a spinning sensor (fixed elevation rings, azimuth sweep);
    "scatter" draws independent random directions, which avoids the
    arc-shaped degenerate cell distributions rings produce from a
    stationary viewpoint.
    """
    if spec.ray_pattern == "scatter":
        n = spec.n_azimuth * spec.n_rings
        az = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
        el = rng.uniform(spec.elevation_lo, spec.elevation_hi, size=n)
        dirs = np.stack(
            [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=1
        )
        stamps = spec.scan_sweep * az / (2.0 * np.pi)
        return dirs, stamps
    az = 2.0 * np.pi * np.arange(spec.n_azimuth) / spec.n_azimuth
    el = np.linspace(spec.elevation_lo, spec.elevation_hi, spec.n_rings)
    az_grid = np.repeat(az, spec.n_rings)
    el_grid = np.tile(el, spec.n_azimuth)
    dirs = np.stack(
        [np.cos(el_grid) * np.cos(az_grid), np.cos(el_grid) * np.sin(az_grid), np.sin(el_grid)],
        axis=1,
    )
    col_offsets = spec.scan_sweep * np.arange(spec.n_azimuth) / spec.n_azimuth
    stamps = np.repeat(col_offsets, spec.n_rings)
    return dirs, stamps


def _sample_box_surface(box: DynamicBoxSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish points on the box surface, centered at the origin."""
    size = np.asarray(box.size, dtype=float)
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.zeros((n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, -0.5, 0.5)
    for a in range(3):
        m = axis == a
        others = [d for d in range(3) if d != a]
        pts[m, a] = sign[m] * size[a]
        pts[m, others[0]] = uv[m, 0] * size[others[0]]
        pts[m, others[1]] = uv[m, 1] * size[others[1]]
    return pts


def _raycast_scan(spec: SceneSpec, t_start: float, rng: np.random.Generator):
    dirs_body, rel_stamps = _scan_directions(spec, rng)
    stamps = t_start + rel_stamps
    rot = spec.motion.rotations(stamps)
    pos = spec.motion.positions(stamps)
    dirs_world = np.einsum("nij,nj->ni", rot, dirs_body)
    ranges = raycast(spec.walls, pos, dirs_world, spec.max_range)
    hit = np.isfinite(ranges)
    ranges = ranges[hit]
    dirs_body = dirs_body[hit]
    stamps = stamps[hit]
    rot, pos = rot[hit], pos[hit]
    noisy = ranges + rng.normal(0.0, spec.noise_sigma, size=len(ranges))
    points = dirs_body * noisy[:, None]
    dynamic_mask = np.zeros(len(points), dtype=bool)
    if spec.dynamic is not None and spec.dynamic.fraction > 0.0:
        n_dyn = int(round(spec.dynamic.fraction * len(points)))
        chosen = rng.choice(len(points), size=n_dyn, replace=False)
        surface = _sample_box_surface(spec.dynamic, n_dyn, rng)
        centers = np.asarray(spec.dynamic.center0) + np.outer(
            stamps[chosen], np.asarray(spec.dynamic.velocity)
        )
        world = centers + surface + rng.normal(0.0, spec.noise_sigma, size=(n_dyn, 3))
        points[chosen] = np.einsum(
            "nji,nj->ni", rot[chosen], world - pos[chosen]
        )
        dynamic_mask[chosen] = True
    cloud = PointCloud(points=points, stamps=stamps)
    return cloud, dynamic_mask


def generate_imu(spec: SceneSpec, rng: np.random.Generator) -> ImuStream:
    """Forward IMU model along the motion profile, gravity included."""
    n = int(np.floor(spec.duration * spec.imu_rate)) + 1
    times = np.arange(n) / spec.imu_rate
    rots = spec.motion.rotations(times)
    accel_world = spec.motion.accelerations(times) - spec.gravity
    accel_body = np.einsum("nji,nj->ni", rots, accel_world)
    gyro_body = spec.motion.body_rates(times)
    accel_body = accel_body + np.asarray(spec.accel_bias)
    gyro_body = gyro_body + np.asarray(spec.gyro_bias)
    if spec.accel_noise > 0.0:
        accel_body = accel_body + rng.normal(0.0, spec.accel_noise, size=accel_body.shape)
    if spec.gyro_noise > 0.0:
        gyro_body = gyro_body + rng.normal(0.0, spec.gyro_noise, size=gyro_body.shape)
    return ImuStream(times, gyro_body, accel_body)


def generate_synthetic(spec: SceneSpec, seed: int = 0) -> SyntheticDataset:
    """Scans, IMU stream and ground-truth poses for the given scene."""
    if not spec.walls:
        raise ValueError("scene has no wall geometry")
    rng = np.random.default_rng(seed)
    n_scans = int(round(spec.duration * spec.scan_rate))
    if n_scans < 1:
        raise ValueError("duration too short for a single scan")
    scans, masks, ends = [], [], []
    for k in range(n_scans):
        t0 = k / spec.scan_rate
        cloud, mask = _raycast_scan(spec, t0, rng)
        scans.append(cloud)
        masks.append(mask)
        ends.append(t0 + spec.scan_sweep)
    imu = generate_imu(spec, rng) if spec.imu_rate > 0 else ImuStream()
    truth_times = np.array(ends)
    truth_poses = [spec.motion.pose(t) for t in truth_times]
    return SyntheticDataset(
        scans=scans,
        imu_samples=imu,
        truth_times=truth_times,
        truth_poses=truth_poses,
        dynamic_masks=masks,
    )

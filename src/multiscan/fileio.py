"""File formats: polygon-file point clouds, IMU CSV, trajectory text, config.

Point clouds use the standard polygon file format with float32 x/y/z and an
optional float64 per-point time field t, read in ascii or binary
little-endian encoding and written in binary. The IMU stream is a CSV with
header t,gx,gy,gz,ax,ay,az, one sample per row, read into and written from
an `imu.ImuStream`.
Trajectories are plain text, one pose per line:
timestamp tx ty tz qx qy qz qw.
"""

from __future__ import annotations

import math

import numpy as np

from multiscan.geometry import Pose, PointCloud, quat_to_rotvec, rotvec_to_quat
from multiscan.imu import ImuStream


class DataError(RuntimeError):
    """Malformed or inconsistent input data."""


_PLY_TYPES = {
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
}


def write_point_cloud(cloud: PointCloud, path) -> None:
    """Write x/y/z (float32) plus per-point t (float64), binary little-endian."""
    header = [
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "property double t",
        "end_header",
    ]
    dtype = np.dtype([("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("t", "<f8")])
    rows = np.empty(len(cloud), dtype=dtype)
    rows["x"], rows["y"], rows["z"] = cloud.points.T.astype(np.float32)
    rows["t"] = cloud.stamps
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        fh.write(rows.tobytes())


def read_point_cloud(path) -> PointCloud:
    """Read a cloud; missing t field defaults stamps to the header scan time."""
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    if newline < 0 or raw[:newline].strip() != b"ply":
        raise DataError(f"{path}: line 1: not a polygon file (missing 'ply')")
    properties: list[tuple[str, str]] = []
    vertex_count = None
    fmt = None
    scan_time = 0.0
    pos = 0
    line_no = 0
    while True:
        end = raw.find(b"\n", pos)
        if end < 0:
            raise DataError(f"{path}: header never terminated with end_header")
        line = raw[pos:end].decode("ascii", errors="replace").strip()
        pos = end + 1
        line_no += 1
        if line_no == 1:
            continue
        if line == "end_header":
            break
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "format":
            if len(parts) < 2 or parts[1] not in ("ascii", "binary_little_endian"):
                raise DataError(f"{path}: line {line_no}: unsupported format {line!r}")
            fmt = parts[1]
        elif parts[0] == "comment":
            if len(parts) >= 3 and parts[1] == "scan_time":
                [scan_time] = _finite_floats(parts[2:3], f"{path}: line {line_no}")
        elif parts[0] == "element":
            # the properties that follow an element line are that element's
            if parts[1:2] != ["vertex"] or vertex_count is not None:
                raise DataError(f"{path}: line {line_no}: only one element, vertex, is supported")
            try:
                vertex_count = int(parts[2])
            except (IndexError, ValueError):
                vertex_count = -1
            if vertex_count < 0:
                raise DataError(f"{path}: line {line_no}: bad vertex count in {line!r}")
        elif parts[0] == "property":
            if len(parts) != 3:
                raise DataError(f"{path}: line {line_no}: bad property line {line!r}")
            kind, name = parts[1], parts[2]
            if kind not in _PLY_TYPES:
                raise DataError(f"{path}: line {line_no}: unsupported type {kind!r}")
            if any(name == known for known, _ in properties):
                raise DataError(f"{path}: line {line_no}: duplicate property {name!r}")
            properties.append((name, _PLY_TYPES[kind]))
    if fmt is None:
        raise DataError(f"{path}: header missing format line")
    if vertex_count is None:
        raise DataError(f"{path}: header missing 'element vertex' line")
    names = [n for n, _ in properties]
    for needed in ("x", "y", "z"):
        if needed not in names:
            raise DataError(f"{path}: header lacks vertex property {needed!r}")
    dtype = np.dtype([(n, "<" + t) for n, t in properties])
    if fmt == "binary_little_endian":
        body = raw[pos : pos + dtype.itemsize * vertex_count]
        if len(body) < dtype.itemsize * vertex_count:
            raise DataError(f"{path}: binary payload shorter than vertex count")
        rows = np.frombuffer(body, dtype=dtype, count=vertex_count)
    else:
        text_rows = raw[pos:].decode("ascii", errors="replace").splitlines()
        rows = np.zeros(vertex_count, dtype=dtype)
        for i in range(vertex_count):
            if i >= len(text_rows):
                raise DataError(f"{path}: line {line_no + i + 1}: missing vertex row")
            fields = text_rows[i].split()
            if len(fields) != len(properties):
                raise DataError(
                    f"{path}: line {line_no + i + 1}: expected {len(properties)} fields"
                )
            for (name, _), value in zip(properties, fields):
                rows[name][i] = float(value)
    points = np.stack(
        [rows["x"].astype(float), rows["y"].astype(float), rows["z"].astype(float)], axis=1
    )
    if "t" in names:
        stamps = rows["t"].astype(float)
    else:
        stamps = np.full(vertex_count, scan_time)
    return PointCloud(points=points, stamps=stamps)


def _finite_floats(fields, where: str) -> list[float]:
    """The fields as floats; DataError naming where if one is not a finite number."""
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise DataError(f"{where}: non-numeric value")
    if not all(map(math.isfinite, values)):
        raise DataError(f"{where}: non-finite value")
    return values


def write_imu_csv(stream: ImuStream, path) -> None:
    with open(path, "w") as fh:
        fh.write("t,gx,gy,gz,ax,ay,az\n")
        for t, g, a in zip(stream.times, stream.gyro, stream.accel):
            fh.write(
                f"{t:.9f},{g[0]:.9g},{g[1]:.9g},{g[2]:.9g},{a[0]:.9g},{a[1]:.9g},{a[2]:.9g}\n"
            )


def read_imu_csv(path) -> ImuStream:
    """The rows as one stream in time order; DataError naming the line of a
    duplicate timestamp or a non-finite value."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "t,gx,gy,gz,ax,ay,az":
            raise DataError(f"{path}: line 1: expected header 't,gx,gy,gz,ax,ay,az'")
        rows = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 7:
                raise DataError(f"{path}: line {line_no}: expected 7 comma-separated values")
            rows.append((line_no, _finite_floats(fields, f"{path}: line {line_no}")))
    rows.sort(key=lambda item: item[1][0])
    for (line_a, a), (line_b, b) in zip(rows, rows[1:]):
        if b[0] == a[0]:
            raise DataError(
                f"{path}: line {line_b}: duplicate timestamp {b[0]!r} (also on line {line_a})"
            )
    values = np.array([v for _, v in rows], dtype=float).reshape(-1, 7)
    return ImuStream(values[:, 0], values[:, 1:4], values[:, 4:7])


def write_trajectory(path, times, poses) -> None:
    """One pose per line: timestamp tx ty tz qx qy qz qw."""
    with open(path, "w") as fh:
        for t, pose in zip(times, poses):
            q = rotvec_to_quat(pose.rotvec)
            x, y, z = pose.trans
            fh.write(
                f"{t:.9f} {x:.9f} {y:.9f} {z:.9f} {q[0]:.9f} {q[1]:.9f} {q[2]:.9f} {q[3]:.9f}\n"
            )


def read_trajectory(path) -> tuple[np.ndarray, list[Pose]]:
    times, poses = [], []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 8:
                raise DataError(f"{path}: line {line_no}: expected 8 columns")
            values = _finite_floats(fields, f"{path}: line {line_no}")
            q = np.array(values[4:8])
            norm = np.linalg.norm(q)
            if abs(norm - 1.0) > 1e-6:
                raise DataError(f"{path}: line {line_no}: quaternion norm {norm:.6f} != 1")
            times.append(values[0])
            poses.append(Pose(quat_to_rotvec(q / norm), np.array(values[1:4])))
    times_arr = np.array(times)
    if len(times_arr) >= 2 and np.any(np.diff(times_arr) <= 0.0):
        bad = int(np.nonzero(np.diff(times_arr) <= 0.0)[0][0]) + 2
        raise DataError(f"{path}: row {bad}: timestamps not strictly increasing")
    return times_arr, poses


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """`key = value` lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataError(f"{source}: line {line_no}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise DataError(f"{source}: line {line_no}: empty key")
        out[key] = value
    return out


def read_config(path) -> dict[str, str]:
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))

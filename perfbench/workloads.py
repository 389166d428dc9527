"""Workload definitions and the seeded input generator.

Each workload's inputs are written once per seed with the `multiscan.fileio`
writers into `perfbench/.inputs/<workload>/seed-<n>/`: scans as polygon files
(float32 x/y/z plus per-point stamps), the IMU stream as CSV and ground truth
as a trajectory file. A `manifest.json` beside them says what the measured
process should do with them. The measured process reads only these files.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

# name -> how its inputs are made; "odometry" workloads replay scans through
# OdometryPipeline, "adjust" workloads solve keyframe adjustments directly
WORKLOADS = {
    "loop_imu": {"kind": "odometry", "scans": 60},
    "room_adjust": {
        "kind": "adjust", "scenes": 12, "clouds": 5, "points_per_scan": 3000, "perturbations": 1,
    },
}

# injected error of every free room pose: 3 cm along a random direction and
# 1 degree about a random axis
ROOM_TRANS_PERT_M = 0.03
ROOM_ROT_PERT_DEG = 1.0

INPUT_ROOT = Path(__file__).resolve().parent / ".inputs"


def ensure_inputs(workload: str, seed: int, root: Path = INPUT_ROOT) -> Path:
    """Return the input directory, generating it first if it is missing."""
    target = root / workload / f"seed-{seed}"
    if (target / "manifest.json").is_file():
        return target
    staging = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        _write_inputs(workload, seed, staging)
        shutil.rmtree(target, ignore_errors=True)
        staging.rename(target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return target


def _write_inputs(workload: str, seed: int, out: Path) -> None:
    spec = WORKLOADS[workload]
    if spec["kind"] == "odometry":
        _write_odometry(spec, seed, out)
    else:
        _write_room(spec, seed, out)


def _write_odometry(spec: dict, seed: int, out: Path) -> None:
    from multiscan import fileio
    from multiscan.synthetic import generate_synthetic, loop_scene

    scene = loop_scene()
    n = spec["scans"]
    # the motion keeps the full lap's speed profile; only the recording is
    # cut after the n-th scan, so these are the first n scans of the lap
    scene.duration = n / scene.scan_rate
    data = generate_synthetic(scene, seed=seed)
    for k, scan in enumerate(data.scans):
        fileio.write_point_cloud(scan, out / f"scan_{k:03d}.ply")
    fileio.write_imu_csv(data.imu_samples, out / "imu.csv")
    fileio.write_trajectory(out / "truth.txt", data.truth_times, data.truth_poses)
    manifest = {
        "kind": "odometry",
        "seed": seed,
        "scans": len(data.scans),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _write_room(spec: dict, seed: int, out: Path) -> None:
    """Independent static room recordings, each with seeded perturbed starts."""
    import numpy as np

    from multiscan import fileio
    from multiscan.synthetic import generate_synthetic, room_scene

    rng = np.random.default_rng([seed, 1])
    up = np.array([0.0, 0.0, 1.0])
    scenes = []
    for s in range(spec["scenes"]):
        scene = room_scene(
            duration=spec["clouds"] / 10.0,
            points_per_scan=spec["points_per_scan"],
            ray_pattern="scatter",
            imu_rate=0,
        )
        data = generate_synthetic(scene, seed=1000 * seed + s)
        truth = data.truth_poses
        folder = out / f"scene_{s}"
        folder.mkdir()
        for k, scan in enumerate(data.scans):
            fileio.write_point_cloud(scan, folder / f"cloud_{k:03d}.ply")
        fileio.write_trajectory(folder / "truth.txt", data.truth_times, truth)
        for p in range(spec["perturbations"]):
            # the first pose is the gauge the solve keeps fixed
            init = [truth[0]] + [_perturbation(rng).compose(pose) for pose in truth[1:]]
            fileio.write_trajectory(folder / f"init_{p:03d}.txt", data.truth_times, init)
        scenes.append({
            "clouds": len(data.scans),
            "perturbations": spec["perturbations"],
            # gravity as a static IMU would measure it: world up in each body frame
            "gravity_local": [(pose.matrix().T @ up).tolist() for pose in truth],
        })
    manifest = {"kind": "adjust", "seed": seed, "scenes": scenes}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _perturbation(rng):
    import numpy as np

    from multiscan.geometry import Pose

    axis = rng.normal(size=3)
    tdir = rng.normal(size=3)
    return Pose(
        axis / np.linalg.norm(axis) * np.deg2rad(ROOM_ROT_PERT_DEG),
        tdir / np.linalg.norm(tdir) * ROOM_TRANS_PERT_M,
    )

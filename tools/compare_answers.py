"""Compare the answers of two checkouts on the benchmark inputs.

    python3 tools/compare_answers.py PARENT CHANGE

PARENT and CHANGE are checkout roots that each hold `src/multiscan`. The
inputs are the benchmark's own, made by `ensure_inputs` of the checkout
holding this script (`perfbench/workloads.py`, under
`perfbench/.inputs/`) for both workloads at seeds 0 and 1. Each checkout
replays them in its own interpreter with `PYTHONPATH=<checkout>/src`. The
first two cases make only the calls `perfbench/measure.py` makes:

- `loop_imu`: every scan through one `OdometryPipeline`; its answers are
  each scan's pose, keyframe flag and reasons.
- `room_adjust`: every room solved once by `run_adjustment` with
  `PipelineConfig().kf_lm`; its answers are each solve's poses, iteration
  count and converged flag.
- `room_anchored`: the `room_adjust` inputs solved again with cloud 0 at
  its true pose as the fixed points, the other clouds free: the anchored
  keyframe adjustment, which no benchmark input reaches.

For each case and seed it prints `identical`, or the largest pose
difference (m, rad) and the indices whose flags, reasons or counts differ.
The exit status is 1 on any difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# each case and the benchmark workload whose inputs it replays
CASES = {"loop_imu": "loop_imu", "room_adjust": "room_adjust", "room_anchored": "room_adjust"}
SEEDS = (0, 1)


def replay(inputs: Path, anchored: bool = False) -> dict:
    """The answers of the multiscan on sys.path for one input directory;
    anchored, the rooms' first clouds at their true poses are fixed points."""
    from multiscan import adjustment, fileio, pipeline as pipeline_module

    manifest = json.loads((inputs / "manifest.json").read_text())
    if manifest["kind"] == "odometry":
        scans = [
            fileio.read_point_cloud(inputs / f"scan_{k:03d}.ply") for k in range(manifest["scans"])
        ]
        pipeline = pipeline_module.OdometryPipeline()
        pipeline.add_imu(fileio.read_imu_csv(inputs / "imu.csv"))
        results = [pipeline.process_scan(scan) for scan in scans]
        return {
            "poses": [r.pose.as_params().tolist() for r in results],
            "keyframe": [bool(r.keyframe_created) for r in results],
            "reasons": [list(r.reasons) for r in results],
        }
    config = pipeline_module.PipelineConfig()
    first = 1 if anchored else 0  # the first free cloud
    poses, iterations, converged = [], [], []
    for s, scene in enumerate(manifest["scenes"]):
        folder = inputs / f"scene_{s}"
        clouds = [
            fileio.read_point_cloud(folder / f"cloud_{k:03d}.ply") for k in range(scene["clouds"])
        ]
        for cloud in clouds:
            cloud.normals, cloud.planarity = pipeline_module.compute_point_attributes(
                cloud, config.k_neighbors
            )
        _, truth = fileio.read_trajectory(folder / "truth.txt")
        constraints = [
            adjustment.GravityConstraint(
                cloud_id=i, direction_local=np.array(up), weight=config.gravity_weight
            )
            for i, up in enumerate(scene["gravity_local"][first:])
        ]
        for p in range(scene["perturbations"]):
            _, init = fileio.read_trajectory(folder / f"init_{p:03d}.txt")
            problem = adjustment.AdjustmentProblem(
                clouds=clouds[first:],
                initial_poses=init[first:],
                fixed_points=truth[0].apply(clouds[0].points) if anchored else None,
                gravity_constraints=constraints,
                split_normals=True,
                planarity_min=config.planarity_min,
                voxel=config.voxel,
            )
            result = adjustment.run_adjustment(problem, config.kf_lm)
            poses.append([pose.as_params().tolist() for pose in result.poses])
            iterations.append(result.iterations)
            converged.append(bool(result.converged))
    return {"poses": poses, "iterations": iterations, "converged": converged}


def run_checkout(checkout: Path, code: str) -> str:
    """Standard output of code run by a fresh interpreter on checkout's src."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=False
    )
    if done.returncode:
        sys.exit(f"{checkout}: replay failed\n{done.stderr}")
    return done.stdout


def answers(checkout: Path, runs: list[tuple[str, bool]]) -> list[dict]:
    """The answers of checkout for each (input directory, anchored) run."""
    code = (
        f"import json, sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
        "from compare_answers import replay; from pathlib import Path; "
        f"print(json.dumps([replay(Path(p), a) for p, a in {runs!r}]))"
    )
    return json.loads(run_checkout(checkout, code).splitlines()[-1])


def rotation_matrices(rotvecs: np.ndarray) -> np.ndarray:
    """Rodrigues' formula for a stack of rotation vectors, (n, 3) to (n, 3, 3)."""
    angle = np.linalg.norm(rotvecs, axis=1)[:, None, None]
    safe = np.where(angle > 0.0, angle, 1.0)
    x, y, z = (rotvecs / safe[:, :, 0]).T
    zero = np.zeros_like(x)
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=1).reshape(-1, 3, 3)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def pose_gap(a, b) -> tuple[float, float]:
    """Largest translation (m) and rotation (rad) between two pose stacks."""
    a, b = np.asarray(a).reshape(-1, 6), np.asarray(b).reshape(-1, 6)
    trans = np.linalg.norm(a[:, 3:] - b[:, 3:], axis=1)
    # |R_a - R_b|_F = 2 sqrt(2) sin(theta / 2), accurate for small theta
    frob = np.linalg.norm(rotation_matrices(a[:, :3]) - rotation_matrices(b[:, :3]), axis=(1, 2))
    rot = 2.0 * np.arcsin(np.minimum(frob / (2.0 * np.sqrt(2.0)), 1.0))
    return float(trans.max(initial=0.0)), float(rot.max(initial=0.0))


def differences(parent: dict, change: dict) -> list[str]:
    if len(parent["poses"]) != len(change["poses"]):
        return [f"{len(parent['poses'])} answers against {len(change['poses'])}"]
    out = []
    if parent["poses"] != change["poses"]:
        trans, rot = pose_gap(parent["poses"], change["poses"])
        out.append(f"poses differ by up to {trans:.3g} m, {rot:.3g} rad")
    for key in sorted(set(parent) - {"poses"}):
        differ = [i for i, (p, c) in enumerate(zip(parent[key], change[key])) if p != c]
        if differ:
            out.append(f"{key} differ at {differ}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    parent, change = (Path(arg).resolve() for arg in argv)
    cases = [(case, s) for case in CASES for s in SEEDS]
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'perfbench')!r}); import workloads; "
        f"[print(workloads.ensure_inputs(w, s)) for w, s in {[(CASES[c], s) for c, s in cases]!r}]"
    )
    inputs = run_checkout(ROOT, code).splitlines()[-len(cases):]
    runs = [(path, case == "room_anchored") for path, (case, _) in zip(inputs, cases)]
    before, after = answers(parent, runs), answers(change, runs)
    same = True
    for (case, seed), p, c in zip(cases, before, after):
        found = differences(p, c)
        same = same and not found
        print(f"{case} seed {seed}: {'; '.join(found) or 'identical'}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

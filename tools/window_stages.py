"""Per-stage times of one outer iteration, for the window and keyframe solves.

    python3 tools/window_stages.py

Replays the benchmark's seed-0 `loop_imu` inputs (`perfbench/workloads.py`)
through one `OdometryPipeline` up to scan SCAN and keeps the system and
warm start that `process_scan` hands to `levenberg_marquardt` for that
scan's window. It also runs one round of the seed-0 `room_adjust` solves
the way `perfbench/measure.py` does, and one round anchored the way the
`room_anchored` case of `tools/compare_answers.py` replays them, and keeps
the system and start of the first of each (scene 0). Each stage is then
timed REPEATS times at that start and the minimum is printed in ms, with
BLAS pinned to 1 thread:

- `freeze`: landmarks frozen at the parameters, and four of its parts:
  - `binning`: `dual_grid_groups` of the moving points, merged with the
    fixed points' cells;
  - `split`: `split_by_normals` of those landmarks (none in the window,
    whose points carry no normals);
  - `weights`: `FrozenLandmarks` of the frozen landmarks and clusters;
  - `clusters`: the rest, freeze less the three parts above: each
    landmark's members in one body grouped into a cluster, with its
    scatter factor, and the tables of the clusters' rows;
- `residuals`: the residual vector at a parameter vector not seen before
  (two vectors 1e-6 apart alternate, so no call reuses the last one's points);
- `linearize`: the normal equations at the frozen parameters;
- `lm_step`: one damped solve of those normal equations.

Beside the times, each row gives the size of the system it times at that
start: its residual rows, its moving and fixed clusters, the bands of its
normal equations (`Linearization.bands`) and its dense rows (gravity, or
IMU and prior). The minimum of many calls is steady where end-to-end times
on a shared machine are not; the output is a Markdown table. The
`multiscan` timed is the one on PYTHONPATH, else this checkout's `src`.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 300
SCAN = 40


def min_ms(fn) -> float:
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def stage_times(system, params: np.ndarray) -> dict:
    """Minimum ms of each stage of one outer iteration of system at params,
    and the counts of the system frozen there."""
    from multiscan.adjustment import LAMBDA_INIT, FrozenLandmarks, lm_step
    from multiscan.landmarks import dual_grid_groups, split_by_normals

    system.freeze(params)
    lin = system.linearize(params)
    r = system.residuals(params)
    jtr = lin.jtr(r)
    lms = system.landmarks
    b, world, m = system.bodies, system.world_points(params), len(system.cluster_pose)
    groups = dual_grid_groups(world, system.voxel, system.fixed_cells)
    parts = {"binning": min_ms(lambda: dual_grid_groups(world, system.voxel, system.fixed_cells))}
    parts["split"] = 0.0
    if b.normals is not None:
        normals = np.einsum("nij,nj->ni", system.pose_table(params).rot[b.pose], b.normals)
        parts["split"] = min_ms(lambda: split_by_normals(groups, world, normals, b.planarity,
                                                         system.planarity_min, system.voxel.n_min))
        groups = split_by_normals(groups, world, normals, b.planarity, system.planarity_min,
                                  system.voxel.n_min)
    parts["weights"] = min_ms(lambda: FrozenLandmarks(groups, system.voxel.epsilon, lms.cluster_lm[:m],
                                                      lms.cluster_sizes[:m]))
    counts = {
        "rows": len(r),
        "moving clusters": len(lms.cluster_lm) - len(lms.fixed_along),
        "fixed clusters": len(lms.fixed_along),
        "bands": len(lin.bands),
        "dense rows": len(lin.dense),
    }
    trials = itertools.cycle([params + 1e-6, params - 1e-6])
    freeze = min_ms(lambda: system.freeze(params))
    return {
        "freeze": freeze,
        **parts,
        "clusters": freeze - sum(parts.values()),
        "residuals": min_ms(lambda: system.residuals(next(trials))),
        "linearize": min_ms(lambda: system.linearize(params)),
        "lm_step": min_ms(lambda: lm_step(lin.jtj, jtr, LAMBDA_INIT)),
        **counts,
    }


def first_solve(module, run) -> tuple:
    """The system and start of the first `levenberg_marquardt` call that
    run() makes through module; the solve itself runs as usual."""
    solve, calls = module.levenberg_marquardt, []

    def record(system, params, max_iterations):
        calls.append((system, params.copy()))
        return solve(system, params, max_iterations)

    module.levenberg_marquardt = record
    try:
        run()
    finally:
        module.levenberg_marquardt = solve
    if not calls:
        raise RuntimeError(f"no solve went through {module.__name__}")
    return calls[0]


def window_system(inputs: Path) -> tuple:
    """The window system of scan SCAN of an odometry input, and its warm start."""
    from multiscan import fileio, pipeline as pipeline_module

    scans = [fileio.read_point_cloud(inputs / f"scan_{k:03d}.ply") for k in range(SCAN + 1)]
    pipeline = pipeline_module.OdometryPipeline()
    pipeline.add_imu(fileio.read_imu_csv(inputs / "imu.csv"))
    for cloud in scans[:SCAN]:
        pipeline.process_scan(cloud)
    return first_solve(pipeline_module, lambda: pipeline.process_scan(scans[SCAN]))


def room_system(inputs: Path) -> tuple:
    """The keyframe system of the first problem of a room input, and its start."""
    import measure
    from multiscan import adjustment

    args = SimpleNamespace(inputs=inputs, seconds=0.0, spawned=time.time(),
                           trace=None, setup_only=False)
    manifest = json.loads((inputs / "manifest.json").read_text())
    return first_solve(adjustment, lambda: measure.run_adjust(args, manifest))


def anchored_system(inputs: Path) -> tuple:
    """The keyframe system of the first anchored problem of a room input, and its start."""
    import compare_answers
    from multiscan import adjustment

    return first_solve(adjustment, lambda: compare_answers.replay(inputs, anchored=True))


def main() -> int:
    # a multiscan on PYTHONPATH (another checkout's, say) comes first
    sys.path.append(str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    room = workloads.ensure_inputs("room_adjust", 0)
    rows = {
        f"window, loop_imu seed 0 scan {SCAN}":
            stage_times(*window_system(workloads.ensure_inputs("loop_imu", 0))),
        "keyframe, room_adjust seed 0 scene 0": stage_times(*room_system(room)),
        "keyframe, room_anchored seed 0 scene 0": stage_times(*anchored_system(room)),
    }
    stages = ("freeze", "binning", "split", "weights", "clusters", "residuals", "linearize", "lm_step")
    counts = ("rows", "moving clusters", "fixed clusters", "bands", "dense rows")
    print(f"| min of {REPEATS} calls, ms | " + " | ".join(stages + counts) + " |")
    print("|---" * (len(stages) + len(counts) + 1) + "|")
    for name, row in rows.items():
        cells = [f"{row[s]:.3f}" for s in stages] + [f"{row[c]:,}" for c in counts]
        print(f"| {name} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

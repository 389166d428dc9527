"""The measured process: one workload, one fresh interpreter, BLAS pinned to 1 thread.

    python3 perfbench/measure.py --inputs DIR --seconds S --spawned T [--trace SPANS] [--setup-only]

`--spawned` is the wall-clock time at which the parent started this process;
set-up time runs from then to the first timed call. `--trace` records spans
and writes them to the file SPANS when the run ends. The last line of
standard output is one JSON object with the raw measurements; `run.py` turns
it into the benchmark's metrics.
"""

import os
import sys

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_threads() -> None:
    # must run before numpy is imported anywhere in this process
    for var in PINNED:
        value = os.environ.get(var, "1")
        if value != "1":
            sys.exit(f"refusing to measure: {var}={value}, the benchmark needs 1")
        os.environ[var] = "1"


_pin_threads()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# scan results carrying one of these reasons count as failed scans
FAILED_REASONS = {"empty_scan", "too_few_points", "insufficient_structure"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--spawned", required=True, type=float)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace is not None:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        manifest = json.loads((args.inputs / "manifest.json").read_text())
        run = run_odometry if manifest["kind"] == "odometry" else run_adjust
        record = run(args, manifest)
    finally:
        if tracer is not None:
            tracer.restore()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from spans import layer_metrics

        record["layers"] = layer_metrics(tracer.spans)
        record["missing_bindings"] = tracer.missing
        tracer.write(args.trace)
    print(json.dumps(record))
    return 0


def _setup_done(args) -> float:
    return time.time() - args.spawned


def run_odometry(args, manifest) -> dict:
    from multiscan import fileio
    from multiscan.pipeline import OdometryPipeline

    n = manifest["scans"]
    scans = [fileio.read_point_cloud(args.inputs / f"scan_{k:03d}.ply") for k in range(n)]
    imu = fileio.read_imu_csv(args.inputs / "imu.csv")
    truth_times, truth_poses = fileio.read_trajectory(args.inputs / "truth.txt")
    pipeline = OdometryPipeline()
    pipeline.add_imu(imu)
    setup_s = _setup_done(args)
    if args.setup_only:
        return {"setup_s": setup_s}

    latencies, failed, checks = [], 0, []
    passes = []
    t_begin = time.perf_counter()
    while True:
        if passes:
            pipeline = OdometryPipeline()
            pipeline.add_imu(imu)
        for scan in scans:
            t0 = time.perf_counter()
            try:
                result = pipeline.process_scan(scan)
            except Exception as exc:  # a raising scan is a failure, not an abort
                latencies.append(time.perf_counter() - t0)
                failed += 1
                checks.append(f"scan raised {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            if FAILED_REASONS.intersection(result.reasons):
                failed += 1
        passes.append(_check_odometry(pipeline, scans, truth_times, truth_poses, checks))
        # replay whole sequences until the measuring time is used up; the
        # traced run makes exactly one replay so its totals are per replay
        if args.trace is not None or time.perf_counter() - t_begin >= args.seconds:
            break
    return {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "failed": failed,
        "errors": checks,
        "passes": len(passes),
        "accuracy": passes[0],
    }


def _check_odometry(pipeline, scans, truth_times, truth_poses, errors) -> dict:
    """One finite pose per scan at that scan's end time, and APE computable."""
    import numpy as np

    from multiscan.adjustment import relative_pose_errors
    from multiscan.evaluation import associate_timestamps, evaluate_ape

    times, poses = pipeline.trajectory()
    ends = np.array([float(scan.stamps[-1]) for scan in scans])
    if len(poses) != len(scans) or not np.array_equal(times, ends):
        errors.append(f"{len(poses)} poses for {len(scans)} scans, or not at scan end times")
        return {}
    if not all(np.all(np.isfinite(p.as_params())) for p in poses):
        errors.append("non-finite pose in the trajectory")
        return {}
    try:
        ape = evaluate_ape(times, poses, truth_times, truth_poses)
    except ValueError as exc:
        errors.append(f"APE not computable: {exc}")
        return {}
    idx_est, idx_ref = associate_timestamps(times, truth_times)
    est = np.stack([poses[i].trans for i in idx_est])
    ref = np.stack([truth_poses[i].trans for i in idx_ref])
    est_len = float(np.linalg.norm(np.diff(est, axis=0), axis=1).sum())
    ref_len = float(np.linalg.norm(np.diff(ref, axis=0), axis=1).sum())
    if ref_len <= 0.0:
        errors.append("the true path has zero length")
        return {}
    rpe_t, rpe_r = relative_pose_errors(
        [poses[i] for i in idx_est], [truth_poses[i] for i in idx_ref]
    )
    return {
        "ape_rmse_m": ape.rmse,
        "path_len_err": abs(1.0 - est_len / ref_len),
        "rpe_max_m": rpe_t,
        "rpe_max_rad": rpe_r,
    }


def run_adjust(args, manifest) -> dict:
    import numpy as np

    from multiscan import fileio, pipeline as pipeline_module
    from multiscan.adjustment import AdjustmentProblem, GravityConstraint

    config = pipeline_module.PipelineConfig()
    solves = []  # (problem, initial poses, true poses)
    for s, scene in enumerate(manifest["scenes"]):
        folder = args.inputs / f"scene_{s}"
        clouds = [
            fileio.read_point_cloud(folder / f"cloud_{k:03d}.ply") for k in range(scene["clouds"])
        ]
        _, truth = fileio.read_trajectory(folder / "truth.txt")
        for cloud in clouds:
            cloud.normals, cloud.planarity = pipeline_module.compute_point_attributes(
                cloud, config.k_neighbors
            )
        constraints = [
            GravityConstraint(cloud_id=i, direction_local=np.array(up),
                              weight=config.gravity_weight)
            for i, up in enumerate(scene["gravity_local"])
        ]
        for p in range(scene["perturbations"]):
            _, init = fileio.read_trajectory(folder / f"init_{p:03d}.txt")
            problem = AdjustmentProblem(
                clouds=clouds,
                initial_poses=init,
                gravity_constraints=constraints,
                split_normals=True,
                planarity_min=config.planarity_min,
                voxel=config.voxel,
            )
            solves.append((problem, init, truth))
    setup_s = _setup_done(args)
    if args.setup_only:
        return {"setup_s": setup_s}

    from multiscan import adjustment

    latencies, failed, checks = [], 0, []
    errors_t, errors_r = [], []
    t_begin = time.perf_counter()
    # whole rounds over every problem, so each weighs the same; the traced
    # run makes one round, the untraced run rounds until its time is used up
    for round_no in itertools.count():
        for problem, init, truth in solves:
            t0 = time.perf_counter()
            try:
                result = adjustment.run_adjustment(problem, config.kf_lm)
            except Exception as exc:  # a raising solve is a failure, not an abort
                latencies.append(time.perf_counter() - t0)
                failed += 1
                checks.append(f"solve raised {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - t0)
            if not all(np.all(np.isfinite(p.as_params())) for p in result.poses):
                failed += 1
                checks.append("solve returned a non-finite pose")
                continue
            err_t, err_r = adjustment.relative_pose_errors(result.poses, truth)
            injected_t, _ = adjustment.relative_pose_errors(init, truth)
            if not err_t < injected_t:
                checks.append(f"solve left {err_t:.4f} m of {injected_t:.4f} m injected error")
            if round_no == 0:
                errors_t.append(err_t)
                errors_r.append(err_r)
        if args.trace is not None or time.perf_counter() - t_begin >= args.seconds:
            break
    accuracy = {}
    if errors_t:
        accuracy = {
            "rpe_median_m": float(np.median(errors_t)),
            "rpe_max_m": max(errors_t),
            "rpe_max_rad": max(errors_r),
        }
    return {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "failed": failed,
        "errors": checks,
        "passes": round_no + 1,
        "accuracy": accuracy,
    }


if __name__ == "__main__":
    sys.exit(main())

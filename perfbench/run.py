"""Odometry benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload loop_imu --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the root of a checkout that holds `src/multiscan`. Inputs are
generated once per workload and seed under `perfbench/.inputs/`; each
measurement runs in a fresh interpreter (`measure.py`) with BLAS pinned to
one thread, one measured process at a time. The last line of standard output
is a JSON object with `correct`, `attempted`, `failed` and `metrics`; the
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"

# set-up is measured in this many extra processes that stop before the first
# timed call, half before and half after the measured one, which adds one
# more sample; setup_s is their median
SETUP_SAMPLES = 2
CHILD_TIMEOUT_S = 170
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# traced-run figures that, set against the untraced run, give tracing overhead
TRACE_EXTRAS = {"trace.latency_ms.p50": "latency_ms.p50", "trace.throughput": "throughput"}


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def end_to_end(record: dict, setup_samples: list[float]) -> dict[str, float]:
    lat = record["latencies_s"]
    q = statistics.quantiles(lat, n=4, method="inclusive") if len(lat) > 1 else lat * 3
    return {
        "setup_s": statistics.median(setup_samples),
        "latency_ms.p50": 1e3 * statistics.median(lat),
        "latency_ms.p75": 1e3 * q[2],
        "throughput": len(lat) / sum(lat),
        "ok_ratio": 1.0 - record["failed"] / len(lat),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def evaluation_metrics(acc: dict) -> dict[str, float]:
    """Accuracy against truth; it varies too much between seeds to bound, so
    the traced run reports it with the layers (0 where a workload has none)."""
    return {
        "evaluation.ape_rmse_m": acc.get("ape_rmse_m", 0.0),
        "evaluation.path_len_err": acc.get("path_len_err", 0.0),
        "evaluation.rpe_median_mm": 1e3 * acc.get("rpe_median_m", 0.0),
        "evaluation.rpe_max_mm": 1e3 * acc.get("rpe_max_m", 0.0),
        "evaluation.rpe_max_mdeg": 1e3 * math.degrees(acc.get("rpe_max_rad", 0.0)),
    }


def environment(workload: str, seed: int) -> dict:
    def git(*cmd):
        if not (ROOT / ".git").exists():
            return None
        try:
            out = subprocess.run(
                ["git", *cmd], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    env = {
        "workload": workload,
        "seed": seed,
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 cannot report its BLAS
        blas = {}
    env.update(numpy=numpy.__version__, scipy=scipy.__version__,
               blas=blas.get("name"), blas_version=blas.get("version"))
    return env


def child_env() -> dict:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure(inputs: Path, seconds: float, spans_out: Path | None, setup_only: bool) -> dict:
    """Run measure.py once; tracing is on when spans_out names the span file."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--inputs", str(inputs),
           "--seconds", str(seconds)]
    if spans_out is not None:
        cmd += ["--trace", str(spans_out)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.time())]
    out = subprocess.run(
        cmd, capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S
    )
    if out.returncode != 0:
        raise RuntimeError(f"measured process failed ({out.returncode}):\n{out.stderr[-4000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import ensure_inputs

    inputs = ensure_inputs(workload, seed)
    tag = f"{workload}-seed{seed}" + ("-trace" if trace else "")
    spans_out = RUNS / f"{tag}-spans.json" if trace else None
    details = run_measured(inputs, seconds, spans_out, SETUP_SAMPLES)
    details["env"] = environment(workload, seed)
    (RUNS / f"{tag}.json").write_text(json.dumps(details, indent=1))
    return details


def run_measured(inputs: Path, seconds: float, spans_out: Path | None, setup_samples: int) -> dict:
    """Measure one workload's inputs; the traced run skips the set-up samples."""
    trace = spans_out is not None
    extra = 0 if trace else setup_samples
    setups = [measure(inputs, seconds, None, True)["setup_s"] for _ in range(extra // 2)]
    record = measure(inputs, seconds, spans_out, False)
    setups.append(record["setup_s"])
    setups += [measure(inputs, seconds, None, True)["setup_s"] for _ in range(extra - extra // 2)]
    metrics = end_to_end(record, setups)
    result = {
        "correct": not record["errors"] and bool(record["accuracy"]),
        "attempted": len(record["latencies_s"]),
        "failed": record["failed"],
    }
    if trace:
        layers = record["layers"]
        for name, source in TRACE_EXTRAS.items():
            layers[name] = metrics[source]
        layers.update(evaluation_metrics(record["accuracy"]))
        # self times of every span under the timed roots must add up to the
        # roots' wall time
        if abs(layers["trace.self_coverage"] - 1.0) > 0.05:
            record["errors"].append(f"self times cover {layers['trace.self_coverage']:.3f}")
            result["correct"] = False
        metrics = layers
    return {
        "result": result,
        "metrics": metrics,
        "info": {
            "passes": record["passes"],
            "setup_samples_s": setups,
            "accuracy": record["accuracy"],
            "errors": record["errors"][:20],
            "missing_bindings": record.get("missing_bindings", []),
            "latencies_s": record["latencies_s"],
        },
    }


def summarize(results: dict, unit_of: dict) -> dict:
    """The result object: one workload's metrics, or all, prefixed by workload."""
    if len(results) == 1:
        [(_, details)] = results.items()
        summary = dict(details["result"])
        summary["metrics"] = {
            k: {"value": v, "unit": unit_of[k]} for k, v in details["metrics"].items()
        }
        return summary
    return {
        "correct": all(d["result"]["correct"] for d in results.values()),
        "attempted": sum(d["result"]["attempted"] for d in results.values()),
        "failed": sum(d["result"]["failed"] for d in results.values()),
        "metrics": {
            f"{name}/{k}": {"value": v, "unit": unit_of[k]}
            for name, d in results.items() for k, v in d["metrics"].items()
        },
    }


def report(name: str, details: dict, unit_of: dict) -> None:
    env = details["env"]
    print(f"# {name}: seed {env['seed']}, git {env['git_sha'][:12]}"
          f"{' (dirty)' if env['git_dirty'] else ''}, python {env['python']}, "
          f"numpy {env.get('numpy')}, scipy {env.get('scipy')}, "
          f"{env.get('blas')} {env.get('blas_version')}, nproc {env['nproc']}")
    info = details["info"]
    print(f"# {name}: {details['result']['attempted']} timed calls in "
          f"{info['passes']} replay(s) or round(s); accuracy {json.dumps(info['accuracy'])}")
    for error in info["errors"]:
        print(f"# {name}: CHECK FAILED: {error}")
    for metric, value in details["metrics"].items():
        print(f"{name:14s} {metric:36s} {value:14.6g} {unit_of[metric]}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "multiscan" / "__init__.py").is_file():
        print(f"no multiscan sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    # input generation and the version record import numpy here too
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    RUNS.mkdir(exist_ok=True)
    unit_of = units()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    with open(RUNS / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("another measured run is in progress", file=sys.stderr)
            return 3
        results = {}
        for name in names:
            try:
                results[name] = run_workload(name, args.seed, seconds, bool(args.trace))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 1
            report(name, results[name], unit_of)

    summary = summarize(results, unit_of)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

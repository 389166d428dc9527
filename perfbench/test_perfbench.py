"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import importlib
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
LAYERS = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(name, start, end, parent=-1, attrs=None):
    return spans.Span(name, start, end, parent, attrs)


class TestSelfTimes:
    def test_hand_built_tree(self):
        tree = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, 0),
            span("a.x", 1.5, 2.0, 1),
            span("a.y", 3.0, 3.5, 1),
            span("b", 5.0, 9.0, 0),
            span("root2", 11.0, 12.0),
        ]
        assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 0.5, 0.5, 4.0, 1.0])
        assert spans.self_time_coverage(tree, {"root"}) == pytest.approx(1.0)

    def test_overlapping_children_count_once(self):
        tree = [span("p", 0.0, 4.0), span("c1", 1.0, 3.0, 0), span("c2", 2.0, 5.0, 0)]
        assert spans.self_times(tree)[0] == pytest.approx(1.0)

    def test_lm_step_split_by_parent(self):
        tree = [
            span("pipeline.process_scan", 0.0, 10.0),
            span("adjustment.lm_step", 1.0, 2.0, 0, {"rows": 10}),
            span("pipeline.keyframe_optimization", 3.0, 9.0, 0),
            span("adjustment.run_adjustment", 3.0, 9.0, 2,
                 {"clouds": 2, "iterations": 3, "converged": True}),
            span("adjustment.lm_step", 4.0, 7.0, 3, {"rows": 30}),
        ]
        m = spans.layer_metrics(tree)
        assert m["adjustment.lm_step.window.ms"] == pytest.approx(1e3)
        assert m["adjustment.lm_step.keyframe.ms"] == pytest.approx(3e3)
        assert m["adjustment.lm_step.rows"] == pytest.approx(20.0)
        assert m["adjustment.run_adjustment.self_ms"] == pytest.approx(3e3)
        assert m["pipeline.window_self.ms"] == pytest.approx(3e3)
        assert m["adjustment.outer_iterations"] == 3
        assert m["adjustment.converged_ratio"] == 1.0


def _bindings():
    out = []
    for module_name, class_name, attr, _, _ in spans.BINDINGS:
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        out.append((owner, attr, getattr(owner, attr)))
    return out


def test_tracer_restores_every_binding():
    from multiscan.pipeline import OdometryPipeline
    from multiscan.synthetic import corridor_scene, generate_synthetic

    before = _bindings()
    data = generate_synthetic(corridor_scene(duration=0.3), seed=0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, attr, original in before:
            assert getattr(owner, attr) is not original
        pipeline = OdometryPipeline()
        pipeline.add_imu(data.imu_samples)
        for scan in data.scans:
            pipeline.process_scan(scan)
    finally:
        tracer.restore()
    assert not tracer.missing
    names = {s.name for s in tracer.spans}
    assert {"pipeline.process_scan", "downsample", "adjustment.lm_step"} <= names
    for owner, attr, original in before:
        assert getattr(owner, attr) is original


def test_metric_names_match_benchmark_json():
    assert len(set(E2E + LAYERS)) == len(E2E + LAYERS)
    for name in E2E + LAYERS:
        assert len(name) <= 64 and NAME.fullmatch(name), name
    record = {"latencies_s": [0.1, 0.2, 0.3], "failed": 0, "peak_rss_mb": 100.0,
              "accuracy": {"ape_rmse_m": 0.1}}
    assert list(run.end_to_end(record, [0.5, 0.6])) == E2E
    layer_names = (
        set(spans.layer_metrics([])) | set(run.TRACE_EXTRAS) | set(run.evaluation_metrics({}))
    )
    assert layer_names == set(LAYERS)


def _small_inputs(tmp_path, workload):
    """A few-scan or one-solve cut of the workload's real inputs."""
    inputs = workloads.ensure_inputs(workload, 7, root=tmp_path)
    manifest = json.loads((inputs / "manifest.json").read_text())
    if manifest["kind"] == "odometry":
        manifest["scans"] = 14  # the loop starts moving after one second
    else:
        manifest["scenes"] = [dict(manifest["scenes"][0], perturbations=1)]
    (inputs / "manifest.json").write_text(json.dumps(manifest))
    return inputs


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_schema(tmp_path, workload, trace):
    inputs = _small_inputs(tmp_path, workload)
    spans_out = tmp_path / "spans.json" if trace else None
    details = run.run_measured(inputs, 0.0, spans_out, setup_samples=2)
    summary = run.summarize({workload: details}, run.units())
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True, details["info"]["errors"]
    assert summary["attempted"] >= 1 and summary["failed"] == 0
    expected = LAYERS if trace else E2E
    assert sorted(summary["metrics"]) == sorted(expected)
    for name, entry in summary["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert math.isfinite(entry["value"]), name
    if trace:
        assert summary["metrics"]["trace.self_coverage"]["value"] == pytest.approx(1.0, abs=0.05)
        assert json.loads(spans_out.read_text())


def test_inputs_are_deterministic_per_seed(tmp_path):
    a = workloads.ensure_inputs("room_adjust", 3, root=tmp_path / "a")
    b = workloads.ensure_inputs("room_adjust", 3, root=tmp_path / "b")
    c = workloads.ensure_inputs("room_adjust", 4, root=tmp_path / "c")
    for name in ("scene_0/cloud_000.ply", "scene_11/init_000.txt", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "scene_0/cloud_000.ply").read_bytes() != (c / "scene_0/cloud_000.ply").read_bytes()


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop_imu", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_measured_process_refuses_unpinned_blas(tmp_path):
    inputs = _small_inputs(tmp_path, "room_adjust")
    env = run.child_env()
    env["OPENBLAS_NUM_THREADS"] = "2"
    out = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--inputs", str(inputs),
         "--seconds", "0", "--spawned", "0", "--setup-only"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode != 0
    assert "OPENBLAS_NUM_THREADS" in out.stderr

"""Span recorder that times calls into `multiscan` from outside the package.

`Tracer.install()` replaces module-level bindings and methods the program
looks up at call time with wrappers that record one span per call: name,
start, end, parent span and a few counts read from the arguments or the
result. `Tracer.restore()` puts every original binding back. Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, end, parent, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, -1 for a root
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


def _downsample_attrs(args, kwargs, out):
    return {"points_in": len(args[0]), "points_out": len(out)}


def _grid_attrs(args, kwargs, out):
    points = args[0] if args else kwargs["points"]
    members = 0 if out is None else len(out["member_row"])
    return {"points": len(points), "members": members}


def _lm_attrs(args, kwargs, out):
    jac = args[0] if args else kwargs["jacobian"]
    return {"rows": jac.shape[0]}


def _adjust_attrs(args, kwargs, out):
    problem = args[0] if args else kwargs["problem"]
    return {
        "clouds": len(problem.clouds),
        "iterations": out.iterations,
        "converged": bool(out.converged),
    }


def _count_attrs(args, kwargs, out):
    return {"points": len(out)}


def _scan_attrs(args, kwargs, out):
    return {"keyframe": bool(out.keyframe_created)}


# (module, class or None, attribute, span name, attribute collector)
BINDINGS = [
    ("multiscan.pipeline", None, "adaptive_downsample", "downsample", _downsample_attrs),
    ("multiscan.pipeline", None, "dual_grid_groups", "landmarks.dual_grid", _grid_attrs),
    ("multiscan.adjustment", None, "dual_grid_groups", "landmarks.dual_grid", _grid_attrs),
    ("multiscan.landmarks", None, "dual_grid_groups", "landmarks.dual_grid", _grid_attrs),
    ("multiscan.adjustment", None, "split_by_normals", "landmarks.split_by_normals", None),
    ("multiscan.pipeline", None, "preintegrate", "imu.preintegrate", None),
    ("multiscan.pipeline", None, "hermite_positions", "trajectory.hermite", None),
    ("multiscan.pipeline", None, "slerp_rotation_matrices", "trajectory.slerp", None),
    ("multiscan.pipeline", None, "deskew", "trajectory.deskew", None),
    ("multiscan.pipeline", None, "lm_step", "adjustment.lm_step", _lm_attrs),
    ("multiscan.adjustment", None, "lm_step", "adjustment.lm_step", _lm_attrs),
    ("multiscan.pipeline", None, "run_adjustment", "adjustment.run_adjustment", _adjust_attrs),
    ("multiscan.adjustment", None, "run_adjustment", "adjustment.run_adjustment", _adjust_attrs),
    ("multiscan.adjustment", None, "freeze_landmarks", "adjustment.freeze_landmarks", None),
    ("multiscan.pipeline", None, "extract_static_points", "pipeline.static_points", _count_attrs),
    ("multiscan.pipeline", None, "compute_point_attributes", "pipeline.point_attributes", None),
    ("multiscan.pipeline", "OdometryPipeline", "process_scan", "pipeline.process_scan", _scan_attrs),
    ("multiscan.pipeline", "OdometryPipeline", "keyframe_optimization",
     "pipeline.keyframe_optimization", None),
    ("multiscan.pipeline", "Map", "rebuild_index", "pipeline.map_rebuild", None),
    ("multiscan.fileio", None, "read_point_cloud", "fileio.read", None),
    ("multiscan.fileio", None, "read_imu_csv", "fileio.read", None),
    ("multiscan.fileio", None, "read_trajectory", "fileio.read", None),
]


# spans of the timed calls; everything the program does in them nests below
TIMED_ROOTS = ("pipeline.process_scan", "adjustment.run_adjustment")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, fn, name, collect=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if collect is not None:
                span.attrs = collect(args, kwargs, out)
            return out

        return traced

    def install(self, bindings=BINDINGS) -> None:
        """Wrap every binding that exists; names of absent ones go to `missing`."""
        for module_name, class_name, attr, name, collect in bindings:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{class_name or ''}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, collect))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def _under(spans: list[Span], i: int, ancestor: str) -> bool:
    parent = spans[i].parent
    while parent >= 0:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of a traced run, which makes one replay or one round."""
    own = self_times(spans)
    ms = defaultdict(float)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(list)
    for i, span in enumerate(spans):
        key = span.name
        if key == "adjustment.lm_step":
            kind = "keyframe" if _under(spans, i, "adjustment.run_adjustment") else "window"
            key = f"adjustment.lm_step.{kind}"
        ms[key] += 1e3 * span.duration
        self_ms[key] += 1e3 * own[i]
        calls[key] += 1
        if span.attrs:
            attrs[span.name].append(span.attrs)

    def mean(name, field):
        values = [a[field] for a in attrs[name]]
        return sum(values) / len(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    down = attrs["downsample"]
    grid = attrs["landmarks.dual_grid"]
    adjust = attrs["adjustment.run_adjustment"]
    return {
        "downsample.ms": ms["downsample"],
        "downsample.calls": calls["downsample"],
        "downsample.keep_ratio": ratio(
            sum(a["points_out"] for a in down), sum(a["points_in"] for a in down)
        ),
        "landmarks.dual_grid.ms": ms["landmarks.dual_grid"],
        "landmarks.dual_grid.calls": calls["landmarks.dual_grid"],
        "landmarks.dual_grid.points": mean("landmarks.dual_grid", "points"),
        "landmarks.member_ratio": ratio(
            sum(a["members"] for a in grid), sum(a["points"] for a in grid)
        ),
        "landmarks.split_by_normals.ms": ms["landmarks.split_by_normals"],
        "landmarks.split_by_normals.calls": calls["landmarks.split_by_normals"],
        "imu.preintegrate.ms": ms["imu.preintegrate"],
        "imu.preintegrate.calls": calls["imu.preintegrate"],
        "trajectory.spline.ms": ms["trajectory.hermite"] + ms["trajectory.slerp"],
        "trajectory.spline.calls": calls["trajectory.hermite"],
        "trajectory.deskew.ms": ms["trajectory.deskew"],
        "adjustment.lm_step.window.ms": ms["adjustment.lm_step.window"],
        "adjustment.lm_step.window.calls": calls["adjustment.lm_step.window"],
        "adjustment.lm_step.keyframe.ms": ms["adjustment.lm_step.keyframe"],
        "adjustment.lm_step.keyframe.calls": calls["adjustment.lm_step.keyframe"],
        "adjustment.lm_step.rows": mean("adjustment.lm_step", "rows"),
        "adjustment.run_adjustment.ms": ms["adjustment.run_adjustment"],
        "adjustment.run_adjustment.self_ms": self_ms["adjustment.run_adjustment"],
        "adjustment.run_adjustment.calls": calls["adjustment.run_adjustment"],
        "adjustment.run_adjustment.clouds": mean("adjustment.run_adjustment", "clouds"),
        "adjustment.outer_iterations": mean("adjustment.run_adjustment", "iterations"),
        "adjustment.converged_ratio": ratio(
            sum(a["converged"] for a in adjust), len(adjust)
        ),
        "adjustment.freeze_landmarks.ms": ms["adjustment.freeze_landmarks"],
        "pipeline.window_self.ms": self_ms["pipeline.process_scan"],
        "pipeline.keyframe_optimization.ms": ms["pipeline.keyframe_optimization"],
        "pipeline.keyframes": 
            sum(a["keyframe"] for a in attrs["pipeline.process_scan"])
        ,
        "pipeline.static_points.ms": ms["pipeline.static_points"],
        "pipeline.static_points.mean": mean("pipeline.static_points", "points"),
        "pipeline.map_rebuild.ms": ms["pipeline.map_rebuild"],
        "pipeline.map_rebuild.calls": calls["pipeline.map_rebuild"],
        "pipeline.point_attributes.ms": ms["pipeline.point_attributes"],
        "fileio.read.ms": ms["fileio.read"],
        "trace.self_coverage": self_time_coverage(spans, TIMED_ROOTS, own),
        "trace.spans": len(spans),
    }


def self_time_coverage(spans: list[Span], roots, own=None) -> float:
    """Sum of self times under the named root spans over the roots' total."""
    own = self_times(spans) if own is None else own
    total = sum(s.duration for s in spans if s.name in roots and s.parent < 0)
    inside = [False] * len(spans)
    covered = 0.0
    for i, span in enumerate(spans):  # parents precede their children
        inside[i] = (span.name in roots and span.parent < 0) or (
            span.parent >= 0 and inside[span.parent]
        )
        if inside[i]:
            covered += own[i]
    return covered / total if total else 0.0

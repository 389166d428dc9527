import logging

import numpy as np
import pytest

from multiscan.pipeline import OdometryPipeline, _WindowSystem
from multiscan.synthetic import corridor_scene, generate_synthetic


@pytest.fixture(scope="module")
def corridor():
    return generate_synthetic(corridor_scene(duration=0.8), seed=0)


@pytest.fixture(scope="module")
def corridor_run(corridor):
    pipeline = OdometryPipeline()
    pipeline.add_imu(corridor.imu_samples)
    results = [pipeline.process_scan(scan) for scan in corridor.scans]
    return pipeline, results


def test_smoke_run_one_finite_pose_per_scan(corridor, corridor_run):
    pipeline, results = corridor_run
    times, poses = pipeline.trajectory()
    ends = np.array([float(scan.stamps[-1]) for scan in corridor.scans])
    assert len(poses) == len(corridor.scans)
    assert np.array_equal(times, ends)
    assert all(np.all(np.isfinite(pose.as_params())) for pose in poses)
    assert all(result.reasons == () for result in results)


@pytest.fixture(scope="module")
def corridor_window(corridor, corridor_run):
    """The newest scan's window rebuilt the way process_scan does, frozen
    at its warm start, and a point moved off the prior's minimum so every
    residual block contributes."""
    pipeline, _ = corridor_run
    t_now = float(corridor.scans[-1].stamps[-1])
    ctrl_times = pipeline._control_times(t_now)
    params = pipeline._initial_params(ctrl_times)
    pts, stamps, _ = pipeline._window_points(ctrl_times[0], t_now)
    deltas = pipeline._segment_deltas(ctrl_times)
    assert deltas
    system = _WindowSystem(
        ctrl_times, params, pts, stamps, np.zeros((0, 3)), deltas,
        pipeline.gravity_vec, pipeline.config,
    )
    system.freeze(params)
    rng = np.random.default_rng(0)
    return system, params + 1e-3 * rng.normal(size=len(params))


def test_window_jacobian_matches_cost_secant(corridor_window):
    # the Jacobian through the shared landmark core against its own cost
    system, at = corridor_window
    rng = np.random.default_rng(0)
    rng.normal(size=len(at))  # the draw the fixture spent on the offset
    jac, r = system.jacobian(at)
    assert jac.shape == (len(r), len(at))
    h = 1e-5
    for _ in range(5):
        direction = rng.normal(size=len(at))
        direction /= np.linalg.norm(direction)
        secant = (system.cost(at + h * direction) - system.cost(at - h * direction)) / (2 * h)
        analytic = float(2.0 * r @ (jac @ direction))
        assert analytic == pytest.approx(secant, rel=1e-5, abs=1e-8)


def test_window_imu_block_matches_imu_rows_secant(corridor_window):
    # the combined cost is dominated by the landmark rows, so check the IMU
    # block alone against a central secant of imu_rows
    system, at = corridor_window
    jac, _ = system.jacobian(at)
    imu = system.imu_rows(at)
    assert len(imu) == 9 * len(system.imu_seg)
    n_lm = 3 * len(system.landmarks.member_row)
    block = jac[n_lm : n_lm + len(imu)]
    assert system.imu_rows(np.stack([at, at])).shape == (2, len(imu))
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(5):
        direction = rng.normal(size=len(at))
        direction /= np.linalg.norm(direction)
        secant = (system.imu_rows(at + h * direction) - system.imu_rows(at - h * direction)) / (2 * h)
        assert np.linalg.norm(block @ direction - secant) <= 1e-5 * np.linalg.norm(secant)


def test_non_finite_scan_rejected_without_state_change(corridor):
    pipeline = OdometryPipeline()
    pipeline.add_imu(corridor.imu_samples)
    for scan in corridor.scans[:2]:
        pipeline.process_scan(scan)
    times_before, poses_before = pipeline.trajectory()
    n_results = len(pipeline.results)
    for field, value, match in (
        ("points", np.nan, "non-finite"),
        ("stamps", np.nan, "non-finite"),
        ("stamps", None, "monotone"),  # two stamps swapped
    ):
        bad = corridor.scans[2].select(np.arange(len(corridor.scans[2])))
        values = getattr(bad, field)
        if value is None:
            values[[5, -1]] = values[[-1, 5]]
        else:
            values[5] = value
        with pytest.raises(ValueError, match=match):
            pipeline.process_scan(bad)
        times, poses = pipeline.trajectory()
        assert len(pipeline.results) == n_results
        assert np.array_equal(times, times_before)
        assert [p.as_params().tolist() for p in poses] == [
            p.as_params().tolist() for p in poses_before
        ]
    result = pipeline.process_scan(corridor.scans[2])
    assert len(pipeline.results) == n_results + 1
    assert result.time == float(corridor.scans[2].stamps[-1])


def test_lidar_only_run_tags_every_scan(corridor, caplog):
    pipeline = OdometryPipeline()
    with caplog.at_level(logging.WARNING, logger="multiscan.pipeline"):
        results = [pipeline.process_scan(scan) for scan in corridor.scans[:3]]
    assert all("no_imu" in result.reasons for result in results)
    assert len([r for r in caplog.records if "LiDAR-only" in r.getMessage()]) == 1


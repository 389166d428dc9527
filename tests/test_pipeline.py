import logging

import numpy as np
import pytest

from multiscan.geometry import PointCloud
from multiscan.imu import ImuSample
from multiscan.adjustment import LMConfig
from multiscan.pipeline import (
    OdometryPipeline,
    PipelineConfig,
    _WindowSystem,
    pipeline_config_from_dict,
)
from multiscan.synthetic import corridor_scene, generate_synthetic
from multiscan.trajectory import TABLE_RESOLUTION, ContinuousTrajectory, deskew, nearest_slot


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
    # the linearization through the shared landmark core against its own
    # cost r.r (slope 2 d.J^T r) and residuals (squared slope d^T J^T J d)
    system, at = corridor_window
    rng = np.random.default_rng(0)
    rng.normal(size=len(at))  # the draw the fixture spent on the offset
    lin = system.linearize(at)
    jtr = lin.jtr(system.residuals(at))
    assert lin.jtj.shape == (len(at), len(at)) and jtr.shape == (len(at),)
    h = 1e-5
    for _ in range(5):
        direction = rng.normal(size=len(at))
        direction /= np.linalg.norm(direction)
        r_plus = system.residuals(at + h * direction)
        r_minus = system.residuals(at - h * direction)
        secant = (r_plus @ r_plus - r_minus @ r_minus) / (2 * h)
        analytic = float(2.0 * direction @ jtr)
        assert analytic == pytest.approx(secant, rel=1e-5, abs=1e-8)
        moved = (system.residuals(at + h * direction) - system.residuals(at - h * direction)) / (2 * h)
        assert float(direction @ lin.jtj @ direction) == pytest.approx(moved @ moved, rel=1e-5)


def test_window_normal_equations_match_secant_jacobian(corridor_window):
    # J^T J and J^T r equal the products of a Jacobian built column by
    # column from central secants of the residuals
    system, at = corridor_window
    lin = system.linearize(at)
    h = 1e-6
    jac = np.stack([
        (system.residuals(at + h * e) - system.residuals(at - h * e)) / (2 * h)
        for e in np.eye(len(at))
    ], axis=1)
    r = system.residuals(at)
    jtj, jtr = jac.T @ jac, jac.T @ r
    assert np.abs(lin.jtj - jtj).max() <= 1e-6 * np.abs(jtj).max()
    assert np.abs(lin.jtr(r) - jtr).max() <= 1e-6 * np.abs(jtr).max()


def test_window_landmark_residuals_sum_to_zero_per_landmark(corridor_window):
    system, at = corridor_window
    lms = system.landmarks
    r = system.residuals(at)[: 3 * len(lms.member_lm)].reshape(-1, 3)
    assert np.abs(lms.sums(r)).max() <= 1e-12 * np.abs(r).max() * lms.counts.max()


def test_window_imu_block_matches_imu_rows_secant(corridor_window):
    # the combined cost is dominated by the landmark rows, so check the IMU
    # block alone against a central secant of imu_rows
    system, at = corridor_window
    lin = system.linearize(at)
    imu = system.imu_rows(at)
    assert len(imu) == 9 * len(system.imu_seg)
    block = lin.dense[: len(imu)]
    assert system.imu_rows(np.stack([at, at])).shape == (2, len(imu))
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(5):
        direction = rng.normal(size=len(at))
        direction /= np.linalg.norm(direction)
        secant = (system.imu_rows(at + h * direction) - system.imu_rows(at - h * direction)) / (2 * h)
        assert np.linalg.norm(block @ direction - secant) <= 1e-5 * np.linalg.norm(secant)


def test_window_points_equal_deskew_through_its_trajectory(corridor_run, corridor_window):
    # the window and the keyframe deskew move points by the same table poses;
    # their bindings may only part on stamps that lie on a half-slot tie
    pipeline, _ = corridor_run
    system, at = corridor_window
    pts, stamps, _ = pipeline._window_points(system.ctrl_times[0], float(system.ctrl_times[-1]))
    assert np.array_equal(pts, system.sensor_points)
    n = len(pts)
    traj = ContinuousTrajectory(system.ctrl_times, at)
    world, dropped = deskew(PointCloud(points=pts, stamps=stamps), traj)
    assert dropped == 0
    times = system.slot_times
    rot, pos = traj.sample_rotations(times), traj.sample_position(times)

    def moved(slot):
        return np.einsum("nij,nj->ni", rot[slot], pts) + pos[slot]

    assert np.array_equal(system.world_points(at)[:n], moved(system.point_slot))
    deskew_slot = nearest_slot(times, stamps, times[1] - times[0])
    assert np.array_equal(world.points, moved(deskew_slot))
    parted = deskew_slot != system.point_slot
    offset = (stamps[parted] - times[0]) / TABLE_RESOLUTION - system.point_slot[parted]
    assert np.all(np.abs(np.abs(offset) - 0.5) < 1e-6)


def test_bad_imu_batch_raises_and_stores_nothing(corridor):
    pipeline = OdometryPipeline()
    samples = corridor.imu_samples
    pipeline.add_imu(samples[:10])
    later = samples[10:20]
    swapped = later[:4] + [later[5], later[4]] + later[6:]
    nan_gyro = later[:4] + [ImuSample(later[4].time, np.array([0.0, np.nan, 0.0]),
                                      later[4].linear_acceleration)] + later[5:]
    inf_accel = later[:4] + [ImuSample(later[4].time, later[4].angular_velocity,
                                       np.array([np.inf, 0.0, 0.0]))] + later[5:]
    for batch, match in (
        (swapped, "increasing"),
        (samples[5:15], "increasing"),  # starts before the last stored sample
        (nan_gyro, "non-finite"),
        (inf_accel, "non-finite"),
    ):
        with pytest.raises(ValueError, match=match):
            pipeline.add_imu(batch)
        assert pipeline.imu_times == [s.time for s in samples[:10]]
        assert pipeline.imu_samples == samples[:10]
    pipeline.add_imu(later)
    assert pipeline.imu_samples == samples[:20]


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
        (None, None, "out-of-order"),  # the first scan replayed
    ):
        if field is None:
            bad = corridor.scans[0]
        else:
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


def test_config_from_dict_round_trip():
    cfg = pipeline_config_from_dict({
        "window_duration": "0.8",
        "k_neighbors": "12",
        "voxel_fine_size": "0.4",
        "voxel_n_min": "7",
        "downsample_levels": "2.0, 1.0 0.5,0.2",
    })
    assert cfg.window_duration == 0.8
    assert cfg.k_neighbors == 12 and isinstance(cfg.k_neighbors, int)
    assert cfg.voxel.fine_size == 0.4 and cfg.voxel.n_min == 7
    assert cfg.voxel.coarse_size == PipelineConfig().voxel.coarse_size
    assert cfg.downsample.levels == (2.0, 1.0, 0.5, 0.2)
    assert cfg.window_lm == LMConfig(max_outer_iterations=6, max_lambda_retries=10)


@pytest.mark.parametrize(
    "key", ["kf_lm", "window_lm", "window_lm_max_lambda_retries", "voxel_size", "bogus"]
)
def test_config_from_dict_rejects_unknown_keys(key):
    with pytest.raises(ValueError, match="unknown config key"):
        pipeline_config_from_dict({key: "3"})


@pytest.mark.parametrize("key, raw", [
    ("window_duration", "nan"),
    ("control_spacing", "inf"),
    ("control_spacing", "0"),
    ("buffer_capacity", "-1"),
    ("imu_weight_rot", "nan"),
])
def test_config_from_dict_rejects_bad_values(key, raw):
    with pytest.raises(ValueError, match=key):
        pipeline_config_from_dict({key: raw})
    with pytest.raises(ValueError, match=key):
        PipelineConfig(**{key: float(raw)})

import copy
import json
import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from multiscan import pipeline as pipeline_module
from multiscan.geometry import Pose, PointCloud, left_jacobian, matrix_to_rotvec, rotvec_to_matrix
from multiscan.imu import GravityEstimate, ImuStream, imu_jacobian, preintegrate
from multiscan.adjustment import (
    AdjustmentProblem, InsufficientStructureError, _RigidSystem, levenberg_marquardt, lm_step,
    run_adjustment,
)
from multiscan.downsample import DownsampleConfig, adaptive_downsample
from multiscan.evaluation import associate_timestamps, evaluate_ape
from multiscan.landmarks import VoxelConfig
from multiscan.pipeline import (
    Keyframe,
    Map,
    OdometryPipeline,
    PipelineConfig,
    _up_to_z_rotvec,
    _WindowSystem,
    extract_static_points,
    pipeline_config_from_dict,
)
from multiscan.synthetic import corridor_scene, generate_synthetic, loop_scene
from multiscan.trajectory import (
    ContinuousTrajectory,
    deskew,
    hermite_positions,
    rotation_chain,
    slerp_rotation_matrices,
    slerp_turns,
    stamp_slots,
)
from members import frozen_groups, per_member
from secants import assert_normal_equations_match_secant_jacobian


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


def frozen_window(pipeline, t_now, gap=None, static=np.zeros((0, 3))):
    """The window of the scan ending at t_now rebuilt the way process_scan
    does, less the points stamped in [gap[0], gap[1]), with static points,
    frozen at its warm start, and a point moved off the prior's minimum so
    every residual block contributes."""
    ctrl_times = pipeline._control_times(t_now)
    params = pipeline._initial_params(ctrl_times)
    pts, stamps = pipeline._window_points(ctrl_times[0], t_now)
    if gap is not None:
        keep = (stamps < gap[0]) | (stamps >= gap[1])
        pts, stamps = pts[keep], stamps[keep]
    imu_seg, delta = pipeline._segment_deltas(ctrl_times)
    assert len(imu_seg)
    system = _WindowSystem(
        ctrl_times, params, pts, stamps, static, imu_seg, delta, pipeline.gravity_vec,
        pipeline.config,
    )
    system.freeze(params)
    rng = np.random.default_rng(0)
    return system, params + 1e-3 * rng.normal(size=len(params))


@pytest.fixture(scope="module")
def corridor_window(corridor, corridor_run):
    return frozen_window(corridor_run[0], float(corridor.scans[-1].stamps[-1]))


@pytest.fixture(scope="module")
def gap_window(corridor, corridor_run):
    """corridor_window without the points of scans 3 to 5, as if those scans
    came back empty: some spline segment then holds no stamp."""
    gap = (corridor.scans[3].stamps[0], corridor.scans[6].stamps[0])
    return frozen_window(corridor_run[0], float(corridor.scans[-1].stamps[-1]), gap)


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
    assert_normal_equations_match_secant_jacobian(*corridor_window)


def test_gap_window_normal_equations_match_secant_jacobian(gap_window):
    system, at = gap_window
    assert np.any(np.diff(system.band_bounds) == 0)
    assert_normal_equations_match_secant_jacobian(system, at)


def test_window_landmark_residuals_sum_to_zero_per_landmark(corridor_window):
    system, at = corridor_window
    lms = system.landmarks
    lm = lms.cluster_lm[: len(system.cluster_pose)]
    r = system.residuals(at)[: len(lm)]
    assert np.abs(lms.sums(r, lm)).max() <= 1e-12 * np.abs(r).max() * lms.counts.max()


def test_window_landmark_rows_are_member_rows(corridor_window):
    # a window member is a cluster of one, whose one row is the per-member
    # w_j . (d_k - mean(d_j)), d_k = p_k - mu_j
    system, at = corridor_window
    lms = system.landmarks
    lm = lms.cluster_lm[: len(system.cluster_pose)]
    members = frozen_groups(system, system.prior_params)  # frozen at the warm start
    clusters = sorted(zip(lm.tolist(), system.cluster_columns[:, 0].T.tolist()))
    points = system.bodies.points[members["member_row"]]
    assert clusters == sorted(zip(members["member_group"].tolist(), points.tolist()))
    table = system.pose_table(at)
    pose, x = system.cluster_pose, system.cluster_columns[:, 0].T
    d = np.einsum("nij,nj->ni", table.rot[pose], x) + table.trans[pose] - lms.mu_ref[lm]
    mean = np.stack([np.bincount(lm, weights=d[:, a]) for a in range(3)], axis=1) / lms.counts[:, None]
    expected = np.einsum("ni,ni->n", lms.white_lm[lm], d - mean[lm])
    r = system.residuals(at)[: len(lm)]
    assert np.allclose(r, expected, rtol=0.0, atol=1e-12)


def test_window_imu_block_matches_imu_rows_secant(corridor_window):
    # the combined cost is dominated by the landmark rows, so check the IMU
    # block alone against a central secant of imu_rows
    system, at = corridor_window
    lin = system.linearize(at)
    imu = system.imu_rows(at)
    assert len(imu) == 9 * len(system.imu_seg)
    block = lin.dense[: len(imu)]
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(5):
        direction = rng.normal(size=len(at))
        direction /= np.linalg.norm(direction)
        secant = (system.imu_rows(at + h * direction) - system.imu_rows(at - h * direction)) / (2 * h)
        assert np.linalg.norm(block @ direction - secant) <= 1e-5 * np.linalg.norm(secant)


def test_window_imu_jacobian_matches_column_secants(corridor_window):
    # every column within 1e-7 of its largest secant entry, and exactly
    # zero wherever the secant is: segment s reaches poses s - 1 to s + 2
    system, at = corridor_window
    h = 1e-6
    jac = system.linearize(at).dense[: 9 * len(system.imu_seg)]
    assert jac.shape == (9 * len(system.imu_seg), len(at))
    for q, e in enumerate(np.eye(len(at))):
        secant = (system.imu_rows(at + h * e) - system.imu_rows(at - h * e)) / (2.0 * h)
        assert np.abs(jac[:, q] - secant).max() <= 1e-7 * np.abs(secant).max()
        assert np.all(jac[secant == 0.0, q] == 0.0)
    offset = np.arange(system.n_ctrl) - system.imu_seg[:, None]
    touched = np.any(jac.reshape(-1, 9, system.n_ctrl, 6) != 0.0, axis=(1, 3))
    assert np.array_equal(touched, (offset >= -1) & (offset <= 2))


@pytest.fixture(scope="module")
def static_window(corridor, corridor_run):
    """corridor_window with static points: every third window point at the
    warm start, moved by up to 2 cm, and a far block that no moving point
    reaches. Returns the system, its static points, the parameters it was
    frozen at and the offset point."""
    pipeline = corridor_run[0]
    t_now = float(corridor.scans[-1].stamps[-1])
    ctrl_times = pipeline._control_times(t_now)
    params = pipeline._initial_params(ctrl_times)
    pts, stamps = pipeline._window_points(ctrl_times[0], t_now)
    rng = np.random.default_rng(2)
    no_imu = OdometryPipeline()._segment_deltas(ctrl_times)
    world = _WindowSystem(
        ctrl_times, params, pts, stamps, np.zeros((0, 3)), *no_imu, pipeline.gravity_vec,
        pipeline.config,
    ).world_points(params)
    static = np.vstack([
        world[::3] + rng.uniform(-0.02, 0.02, size=world[::3].shape),
        rng.uniform(0.0, 0.4, size=(30, 3)) + [200.0, 0.0, 0.0],
    ])
    system, at = frozen_window(pipeline, t_now, static=static)
    return system, static, params, at


def test_static_points_score_as_fixed_clusters(static_window):
    # the same normal equations and step as one row per static point; the
    # cost less each landmark's static scatter along its w_j
    system, static, params, at = static_window
    n_fixed = len(system.landmarks.cluster_lm) - len(system.cluster_pose)
    assert 0 < n_fixed < len(static)
    ref = per_member(system, static, params)
    lin, r = system.linearize(at), system.residuals(at)
    lin_ref, r_ref = ref.linearize(at), ref.residuals(at)
    jtr, jtr_ref = lin.jtr(r), lin_ref.jtr(r_ref)
    assert np.abs(lin.jtj - lin_ref.jtj).max() <= 1e-9 * np.abs(lin_ref.jtj).max()
    assert np.abs(jtr - jtr_ref).max() <= 1e-9 * np.abs(jtr_ref).max()
    step, step_ref = lm_step(lin.jtj, jtr, 1e-4), lm_step(lin_ref.jtj, jtr_ref, 1e-4)
    assert np.abs(step - step_ref).max() <= 1e-9 * np.abs(step_ref).max()
    # each landmark's static members' scatter about their own mean, along
    # w_j, the far block's static-only landmarks included
    lms = ref.landmarks
    assert lms.n_landmarks > system.landmarks.n_landmarks
    is_static = ref.cluster_pose == len(system.bodies.band)
    static_lm, points = lms.cluster_lm[: len(is_static)][is_static], ref.cluster_columns[:, 0, is_static].T
    scatter = 0.0
    for j in np.unique(static_lm):
        own = points[static_lm == j]
        scatter += np.sum(((own - own.mean(axis=0)) @ lms.white_lm[j]) ** 2)
    assert scatter > 1e-3 * (r @ r)
    assert r_ref @ r_ref - r @ r == pytest.approx(scatter, rel=1e-9)


def dense_window_jacobian(system, at):
    """The window's Jacobian at `at`, formed row by row from its residual
    definition. A moving cluster is one point x of landmark j at its slot's
    pose, and moves by e = w_j . dp: under the rotations of its segment's
    poses a = s and b = s + 1 by c^T (I - A) J_l(r_a) and c^T A J_l(r_b),
    c = (R x) x w_j and A the slot's `slerp_turns` lever, and under each
    control position by its Hermite weight times w_j. A cluster's mean
    row, sqrt(n_c) (e_c - sum n_c' e_c' / n_j), then moves by sqrt(n_c)
    (e_c - S_j / n_j), with S_j the sum of landmark j's member motions and
    e_c = 0 for a fixed cluster. Each IMU row chains `imu_jacobian` by
    w = J_l(r) dr and v = T p, T = `np.gradient(I, dt)`; the prior rows are
    diagonal."""
    n_ctrl, n_params = system.n_ctrl, len(at)
    blocks = at.reshape(-1, 6)
    table = system.slots
    mats, phi = rotation_chain(blocks[:, :3])
    rots = slerp_rotation_matrices(mats, phi, table)
    lever = slerp_turns(mats, phi, table)
    turns = left_jacobian(blocks[:, :3])
    weights = hermite_positions(np.eye(n_ctrl), table)  # (slot, control position)
    lms = system.landmarks
    lm, sizes = lms.cluster_lm, lms.cluster_sizes
    motion = np.zeros((len(lm), n_params))
    for m, slot in enumerate(system.cluster_pose):
        s, white = table.seg[slot], lms.white_lm[lm[m]]
        c = np.cross(rots[slot] @ system.cluster_columns[:, 0, m], white)
        motion[m, 6 * s : 6 * s + 3] += c @ (np.eye(3) - lever[slot]) @ turns[s]
        motion[m, 6 * s + 6 : 6 * s + 9] += c @ lever[slot] @ turns[s + 1]
        for q in range(n_ctrl):
            motion[m, 6 * q + 3 : 6 * q + 6] += weights[slot, q] * white
    sums = np.zeros((lms.n_landmarks, n_params))
    for m in range(len(system.cluster_pose)):
        sums[lm[m]] += motion[m]
    imu = np.zeros((9 * len(system.imu_seg), n_params))
    if len(system.imu_seg):
        tangent = np.gradient(np.eye(n_ctrl), system.spacing, axis=0)
        jac = system.imu_weights[:, None] * imu_jacobian(*system.imu_states(at))
        for i, s in enumerate(system.imu_seg):
            rows = imu[9 * i : 9 * i + 9]
            for end, k in enumerate((s, s + 1)):
                turn, position, velocity = np.split(jac[i, :, 9 * end : 9 * end + 9], 3, axis=1)
                rows[:, 6 * k : 6 * k + 3] += turn @ turns[k]
                rows[:, 6 * k + 3 : 6 * k + 6] += position
                for q in range(n_ctrl):
                    rows[:, 6 * q + 3 : 6 * q + 6] += tangent[k, q] * velocity
    landmark = np.stack([
        np.sqrt(sizes[k]) * (motion[k] - sums[lm[k]] / lms.counts[lm[k]]) for k in range(len(lm))
    ])
    return np.vstack([landmark, imu, np.diag(system.prior_weights)])


@pytest.mark.parametrize("window", ["corridor_window", "gap_window", "static_window"])
def test_window_normal_equations_match_dense_jacobian(window, request):
    # exact, where the secant checks hold to 1e-6: member rows, mean
    # removal, fixed clusters (the static window's), IMU and prior rows
    fixture = request.getfixturevalue(window)
    system, at = fixture[0], fixture[-1]
    if window == "static_window":
        assert len(system.landmarks.cluster_lm) > len(system.cluster_pose)
    jac = dense_window_jacobian(system, at)
    r = system.residuals(at)
    assert jac.shape == (len(r), len(at))
    lin = system.linearize(at)
    jtj, jtr = jac.T @ jac, jac.T @ r
    assert np.abs(lin.jtj - jtj).max() <= 1e-10 * np.abs(jtj).max()
    assert np.abs(lin.jtr(r) - jtr).max() <= 1e-10 * np.abs(jtr).max()


def test_window_of_one_pose_is_one_rigid_cloud(corridor_run, static_window):
    # a window whose control poses all equal one pose moves every point
    # rigidly, so its landmark rows are those of one cloud at that pose, with
    # the same fixed points: the same cost, and J^T J and J^T r once the
    # poses move together (E stacks one 6x6 identity per control pose)
    pipeline = corridor_run[0]
    system, static, params, _ = static_window
    ctrl_times = system.ctrl_times
    pts, stamps = pipeline._window_points(ctrl_times[0], float(ctrl_times[-1]))
    pose = params[-6:]
    flat = np.tile(pose, len(ctrl_times))
    # without IMU rows, as a pipeline without IMU builds it
    no_imu = OdometryPipeline()._segment_deltas(ctrl_times)
    window = _WindowSystem(ctrl_times, flat, pts, stamps, static, *no_imu, pipeline.gravity_vec,
                           pipeline.config)
    rigid = _RigidSystem(AdjustmentProblem(
        clouds=[PointCloud(points=pts)], initial_poses=[Pose.from_params(pose)],
        fixed_points=static, voxel=pipeline.config.voxel,
    ))
    window.freeze(flat)
    rigid.freeze(pose)
    step = 1e-3 * np.random.default_rng(3).normal(size=6)
    turn = np.tile(np.eye(6), (len(ctrl_times), 1))
    r_window, r_rigid = window.residuals(flat + turn @ step), rigid.residuals(pose + step)
    # the landmark rows only: no IMU rows, and the prior rows come last
    prior = window.prior_weights
    landmark = r_window[: -len(prior)]
    assert landmark @ landmark == pytest.approx(r_rigid @ r_rigid, rel=1e-9)
    lin_window, lin_rigid = window.linearize(flat + turn @ step), rigid.linearize(pose + step)
    jtj = turn.T @ (lin_window.jtj - np.diag(prior**2)) @ turn
    jtr = turn.T @ (lin_window.jtr(r_window) - prior * r_window[-len(prior):])
    jtj_rigid, jtr_rigid = lin_rigid.jtj, lin_rigid.jtr(r_rigid)
    assert np.abs(jtj - jtj_rigid).max() <= 1e-9 * np.abs(jtj_rigid).max()
    assert np.abs(jtr - jtr_rigid).max() <= 1e-9 * np.abs(jtr_rigid).max()


def path_ratio(estimated, true):
    """Length of the estimated path over the true one, positions (N, 3) each."""
    return np.linalg.norm(np.diff(estimated, axis=0), axis=1).sum() / np.linalg.norm(
        np.diff(true, axis=0), axis=1
    ).sum()


def tracked_ape_and_path_ratio(data):
    """APE and path ratio of the odometry over every scan of data, each
    scan solved and, its sweep lying inside its window, dropping no point."""
    pipeline = OdometryPipeline()
    pipeline.add_imu(data.imu_samples)
    results = [pipeline.process_scan(scan) for scan in data.scans]
    assert all(result.reasons == () and result.dropped_points == 0 for result in results)
    times, poses = pipeline.trajectory()
    idx_est, idx_ref = associate_timestamps(times, data.truth_times)
    ratio = path_ratio(np.stack([poses[i].trans for i in idx_est]),
                       np.stack([data.truth_poses[i].trans for i in idx_ref]))
    return evaluate_ape(times, poses, data.truth_times, data.truth_poses).rmse, ratio


@pytest.mark.parametrize("seed", [0, 1])
def test_tracks_a_short_corridor(seed):
    # 30 scans: 1 s at rest, a 2 s ramp to 1 m/s and about 1 m of path
    ape, ratio = tracked_ape_and_path_ratio(
        generate_synthetic(corridor_scene(duration=3.0), seed=seed)
    )
    assert ape <= 0.03
    assert 0.95 <= ratio <= 1.05


@pytest.fixture(scope="module")
def loop_start():
    """The first 80 scans of the loop at its full lap's speed profile, as
    the benchmark replays them (loop_scene(duration=8.0) would instead drive
    a whole lap in 8 s)."""
    scene = loop_scene()
    scene.duration = 8.0
    return scene, generate_synthetic(scene, seed=0)


def test_tracks_the_start_of_the_loop(loop_start):
    # measured 0.153 m and 0.881 (seed 1: 0.189 m, 0.854); the full-rank
    # landmark weight gave 0.93 m and 0.37
    ape, ratio = tracked_ape_and_path_ratio(loop_start[1])
    assert ape <= 0.20
    assert 0.85 <= ratio <= 1.05


def test_sweep_longer_than_the_window_drops_the_excess(corridor, tracked):
    # a 1.5 s sweep in a 1 s window: the points stamped before the window
    last = corridor.scans[-1]
    t_end = float(last.stamps[-1]) + 0.05
    scan = PointCloud(points=last.points, stamps=np.linspace(t_end - 1.5, t_end, len(last)))
    result = tracked.process_scan(scan)
    assert result.reasons == ()
    t_start = tracked._control_times(t_end)[0]
    assert t_start == pytest.approx(t_end - tracked.config.window_duration)
    kept = tracked.scans.items[-1]
    assert result.dropped_points == np.count_nonzero(kept.stamps < t_start) > 0.2 * len(kept)


@pytest.mark.parametrize("scan", [25, 35, 45, 55])
def test_truth_initialised_window_holds_the_truth(loop_start, scan):
    # one window solve from the true control poses, with its prior there and
    # no map points; measured 0.32 / 1.77 / 1.73 / 0.94 mm of drift at the
    # newest pose and a path ratio of 0.995-0.998, where the full-rank
    # landmark weight gave 11-19 mm and 0.908-0.971
    scene, data = loop_start
    pipeline = OdometryPipeline()
    pipeline.add_imu(data.imu_samples)
    for cloud in data.scans[: scan + 1]:
        pipeline.scans.push(float(cloud.stamps[-1]),
                            adaptive_downsample(cloud, pipeline.config.downsample))
    t_now = float(data.scans[scan].stamps[-1])
    ctrl_times = pipeline._control_times(t_now)
    truth = np.concatenate([scene.motion.pose(float(t)).as_params() for t in ctrl_times])
    pts, stamps = pipeline._window_points(ctrl_times[0], t_now)
    system = _WindowSystem(
        ctrl_times, truth, pts, stamps, np.zeros((0, 3)), *pipeline._segment_deltas(ctrl_times),
        pipeline.gravity_vec, pipeline.config,
    )
    params, _, _, _ = levenberg_marquardt(system, truth, pipeline.config.window_lm)
    est, ref = params.reshape(-1, 6)[:, 3:], truth.reshape(-1, 6)[:, 3:]
    assert np.linalg.norm(est[-1] - ref[-1]) <= 3e-3
    assert path_ratio(est, ref) >= 0.99


def test_keyframe_only_beyond_keyframe_distance(tracked, monkeypatch):
    # a pose within keyframe_distance of a keyframe makes none and deskews
    # nothing; one beyond it makes a keyframe from its deskewed scan
    deskewed = []

    def counted(cloud, traj):
        deskewed.append(len(cloud))
        return deskew(cloud, traj)

    monkeypatch.setattr(pipeline_module, "deskew", counted)
    monkeypatch.setattr(tracked, "keyframe_optimization", lambda current: None)
    down = tracked.scans.items[-1]
    rotvec, start = tracked.trajectory_poses[-1].rotvec, tracked.map.keyframes[-1].pose.trans
    n_keyframes, spacing = len(tracked.map), tracked.config.keyframe_distance
    near = Pose(rotvec, start + [spacing - 1e-3, 0.0, 0.0])
    assert not tracked._maybe_create_keyframe(down, near)
    assert len(tracked.map) == n_keyframes and deskewed == []
    far = Pose(rotvec, start + [spacing + 1e-3, 0.0, 0.0])
    assert tracked.map.nearest_keyframe_distance(far.trans) > spacing
    assert tracked._maybe_create_keyframe(down, far)
    assert len(tracked.map) == n_keyframes + 1 and deskewed == [len(down)]


def test_keyframe_attempt_counts_the_points_deskew_keeps():
    # a scan beyond keyframe_distance whose points mostly precede its
    # window: 5 of its 12 points survive deskew, too few for point
    # attributes, so it makes no keyframe and still gets its result
    data = generate_synthetic(corridor_scene(duration=4.0), seed=0)
    pipeline = OdometryPipeline()
    pipeline.add_imu(data.imu_samples)
    for scan in data.scans[:25]:
        pipeline.process_scan(scan)
    t_end = float(data.scans[24].stamps[-1]) + 0.1
    stamps = np.concatenate([np.linspace(t_end - 1.5, t_end - 1.2, 7),
                             np.linspace(t_end - 0.1, t_end, 5)])
    source = data.scans[25].points
    scan = PointCloud(points=source[:: len(source) // 12][:12], stamps=stamps)
    n_poses, n_results = len(pipeline.trajectory_poses), len(pipeline.results)
    n_keyframes = len(pipeline.map)
    result = pipeline.process_scan(scan)
    assert result.reasons == () and result.dropped_points == 7 and not result.keyframe_created
    spacing = pipeline.config.keyframe_distance
    assert pipeline.map.nearest_keyframe_distance(result.pose.trans) > spacing
    assert len(pipeline.trajectory_poses) == n_poses + 1 and pipeline.results[-1] is result
    assert len(pipeline.results) == n_results + 1 and len(pipeline.map) == n_keyframes


def test_map_add_appends_the_new_keyframes_points():
    # add stacks only the new keyframe's world points, bit for bit what
    # restacking every keyframe gives
    rng = np.random.default_rng(4)
    world_map = Map()
    gravity = GravityEstimate(direction=np.array([0.0, 0.0, 1.0]), weight=0.0)
    for k in range(3):
        cloud = PointCloud(points=rng.normal(size=(5, 3)))
        world_map.add(Keyframe(Pose(rng.normal(size=3), rng.normal(size=3)), cloud, gravity))
    points = world_map.points
    assert points.shape == (15, 3)
    world_map.rebuild_index()
    assert np.array_equal(points, world_map.points)


def test_static_points_are_the_near_map_points():
    # one keyframe, turned and moved, holding (world frame) five points
    # within the radius of the sensor, the last exactly on it, and one
    # beyond it: every near point is kept, in map order, whichever way
    # its surface faces
    world = np.array([[11.0, 0, 0], [13.0, 0, 0], [10.0, 1.5, 0], [10.0, 0, 1.0],
                      [10.0, -1.5, 0.5], [10.0, 2.0, 0]])
    pose = Pose(np.array([0.0, 0.0, np.pi / 2]), np.array([9.0, 1.0, 0.0]))
    cloud = PointCloud(points=pose.inverse().apply(world))
    world_map = Map()
    gravity = GravityEstimate(direction=np.array([0.0, 0.0, 1.0]), weight=0.0)
    world_map.add(Keyframe(pose, cloud, gravity))
    position = np.array([10.0, 0.0, 0.0])
    assert np.sum((world_map.points[5] - position) ** 2) == 4.0
    static = extract_static_points(world_map, position, radius=2.0)
    assert np.array_equal(static, world_map.points[[0, 2, 3, 4, 5]])


def test_point_attributes_match_a_per_point_eigh():
    # a noisy tilted plane seen from the origin: each point's normal and
    # planarity are those of its k nearest neighbours' 1/k covariance
    rng = np.random.default_rng(7)
    u, v = rng.uniform(-2.0, 2.0, size=(2, 400))
    points = np.stack([u, v, 3.0 + 0.3 * u - 0.2 * v + 0.01 * rng.normal(size=400)], axis=1)
    cloud = PointCloud(points=points)
    normals, planarity = pipeline_module.compute_point_attributes(cloud, 10)
    for i, p in enumerate(points):
        near = points[np.argsort(np.sum((points - p) ** 2, axis=1))[:10]]
        centred = near - near.mean(axis=0)
        evals, evecs = np.linalg.eigh(centred.T @ centred / 10)
        assert min(np.abs(normals[i] - evecs[:, 0]).max(),
                   np.abs(normals[i] + evecs[:, 0]).max()) <= 1e-9
        assert abs(planarity[i] - (evals[1] - evals[0]) / evals[2]) <= 1e-12
    assert np.all(np.einsum("ni,ni->n", normals, points) <= 0.0)
    cloud.normals, cloud.planarity = normals, planarity
    cloud.validate()


def test_point_attributes_of_identical_neighbours_are_undefined():
    # ten copies of one point, far from a plane of 30 points: each copy's
    # neighbourhood is the copies, with no plane through it
    rng = np.random.default_rng(8)
    plane = np.column_stack([rng.uniform(-1.0, 1.0, size=(30, 2)), np.full(30, 5.0)])
    points = np.vstack([np.tile([40.0, 2.0, 3.0], (10, 1)), plane])
    normals, planarity = pipeline_module.compute_point_attributes(PointCloud(points=points), 10)
    assert not normals[:10].any() and not planarity[:10].any()
    assert np.allclose(normals[10:], [0.0, 0.0, -1.0], rtol=0.0, atol=1e-9)
    assert np.all(planarity[10:] > 0.0)


def test_point_attributes_need_k_points():
    with pytest.raises(ValueError, match="need >= 10"):
        pipeline_module.compute_point_attributes(PointCloud(points=np.zeros((9, 3))), 10)


def test_the_odometry_loads_no_scipy():
    # a fresh process replays a short corridor through two keyframes and a
    # keyframe adjustment; only a cloud's kNN attributes load scipy
    script = textwrap.dedent("""
        import json, sys
        from multiscan import pipeline
        from multiscan.synthetic import corridor_scene, generate_synthetic

        adjustments = []
        run_adjustment = pipeline.run_adjustment

        def counted(*args, **kwargs):
            adjustments.append(1)
            return run_adjustment(*args, **kwargs)

        pipeline.run_adjustment = counted
        data = generate_synthetic(corridor_scene(duration=1.6, speed=2.0), seed=0)
        odometry = pipeline.OdometryPipeline(pipeline.PipelineConfig(keyframe_distance=0.05))
        odometry.add_imu(data.imu_samples)
        for scan in data.scans:
            odometry.process_scan(scan)
        loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
        cloud = odometry.map.keyframes[-1].cloud
        cloud.normals, cloud.planarity = pipeline.compute_point_attributes(cloud)
        cloud.validate()
        print(json.dumps({"keyframes": len(odometry.map), "adjustments": len(adjustments),
                          "scipy": loaded, "spatial": "scipy.spatial" in sys.modules}))
    """)
    src = str(Path(pipeline_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["keyframes"] >= 2 and report["adjustments"] >= 1
    assert report["scipy"] == []
    assert report["spatial"]


def test_window_points_equal_deskew_through_its_trajectory(corridor_run, corridor_window):
    # the window and the keyframe deskew move each point by the spline pose
    # at its own stamp, bound through the same distinct-stamp slots
    pipeline, _ = corridor_run
    system, at = corridor_window
    pts, stamps = pipeline._window_points(system.ctrl_times[0], float(system.ctrl_times[-1]))
    assert np.array_equal(pts, system.bodies.points)
    assert np.array_equal(stamp_slots(stamps)[1], system.bodies.pose)
    traj = ContinuousTrajectory(system.ctrl_times, at)
    world = deskew(PointCloud(points=pts, stamps=stamps), traj)
    assert np.array_equal(world.stamps, stamps)
    assert np.array_equal(system.world_points(at)[: len(pts)], world.points)
    own = np.einsum("nij,nj->ni", traj.sample_rotations(stamps), pts) + traj.sample_position(stamps)
    assert np.allclose(world.points, own, rtol=0.0, atol=1e-12)


def imu_ramp(t0, t1, rate=200.0):
    """An IMU stream sampled over [t0, t1) whose rates grow with time, so a
    delta changes with each sample it reads."""
    times = np.arange(np.ceil(t0 * rate), np.ceil(t1 * rate)) / rate
    gyro = np.stack([times, -times, 0.1 + times], axis=1)
    return ImuStream(times, gyro, gyro + [0.0, 0.0, 9.81])


def count_preintegrations(monkeypatch):
    """Patch the pipeline's preintegrate to record the bounds of each call."""
    calls = []

    def counted(stream, t_start, t_end, **kwargs):
        calls.append((t_start, t_end))
        return preintegrate(stream, t_start, t_end, **kwargs)

    monkeypatch.setattr(pipeline_module, "preintegrate", counted)
    return calls


def assert_fresh_deltas(pipeline, ctrl_times, imu_seg, delta):
    # each delta bit for bit a scalar preintegration of the stream the
    # window passed, over its segment's control times
    passed = pipeline.imu.between(ctrl_times[0] - 0.05, ctrl_times[-1] + 0.05)
    for s, seg in enumerate(imu_seg):
        fresh = preintegrate(passed, ctrl_times[seg], ctrl_times[seg + 1],
                             gyro_bias=pipeline.gyro_bias)
        for name in ("dt", "delta_rot", "delta_vel", "delta_pos"):
            assert np.array_equal(getattr(delta, name)[s], getattr(fresh, name))


def test_segment_deltas_are_reused_within_the_window(corridor_run, monkeypatch):
    # the last window's covered segments share one batched integration of
    # the one stream the window passed, each entry a fresh scalar call
    pipeline = corridor_run[0]
    ctrl_times = pipeline._control_times(pipeline.scans.times[-1])
    calls = count_preintegrations(monkeypatch)
    imu_seg, delta = pipeline._segment_deltas(ctrl_times)
    assert len(imu_seg) >= 5 and len(calls) == 1
    t_start, t_end = calls[0]
    assert np.array_equal(t_start, ctrl_times[imu_seg])
    assert np.array_equal(t_end, ctrl_times[imu_seg + 1])
    assert_fresh_deltas(pipeline, ctrl_times, imu_seg, delta)


def test_segment_cache_holds_one_window_over_200_scans(monkeypatch):
    # no delta outlives its window. 200 scans ending at stamps like a
    # sensor's, 1/1200 s before each tenth with jitter; the IMU arrives every
    # 5 scans, up to 0 to 0.6 s past the scan, so the stream often ends
    # mid-window, at any offset from the control times; every 40th window is
    # trimmed past its first segment's first sample. Each window integrates
    # once; its segments are those of the per-segment coverage rule, and each
    # delta equals, bit for bit, a scalar preintegration of the stream the
    # window passed
    rng = np.random.default_rng(0)
    times = np.arange(-200, 4200) / 200.0 + rng.uniform(-1e-4, 1e-4, 4400)
    gyro = [0.0, 0.0, 0.1] + 0.05 * rng.normal(size=(4400, 3))
    accel = [0.0, 0.0, 9.81] + 0.2 * rng.normal(size=(4400, 3))
    pipeline = OdometryPipeline()
    pipeline.gyro_bias = np.array([0.002, -0.001, 0.003])
    calls = count_preintegrations(monkeypatch)
    fed, partial, trimmed = 0, 0, 0
    for k in range(200):
        t_now = 0.1 * (k + 1) - 1.0 / 1200.0 + rng.uniform(-2e-4, 2e-4)
        if k % 5 == 0:
            upto = np.searchsorted(times, t_now + rng.uniform(0.0, 0.6))
            pipeline.add_imu(ImuStream(times[fed:upto], gyro[fed:upto], accel[fed:upto]))
            fed = upto
        pipeline.scans.push(t_now, None)
        pipeline._trim_imu(t_now - pipeline.config.buffer_capacity)
        ctrl_times = pipeline._control_times(t_now)
        if k % 40 == 39:
            pipeline._trim_imu(ctrl_times[0] + 0.012)
            trimmed += 1
        imu_seg, delta = pipeline._segment_deltas(ctrl_times)
        assert len(calls) == k + 1
        covered = []
        for seg in range(len(ctrl_times) - 1):
            t_i, t_j = ctrl_times[seg], ctrl_times[seg + 1]
            seen = pipeline.imu.between(t_i - 0.05, t_j + 0.05).times
            slack = 0.25 * (t_j - t_i)
            if len(seen) >= 2 and seen[0] <= t_i + slack and seen[-1] >= t_j - slack:
                covered.append(seg)
        assert imu_seg.tolist() == covered and len(covered) > 0
        partial += len(covered) < len(ctrl_times) - 1
        assert_fresh_deltas(pipeline, ctrl_times, imu_seg, delta)
    assert partial >= 50 and trimmed == 5


def test_segment_short_of_the_stream_end_is_integrated_again(monkeypatch):
    # the stream ends at 0.93 s, short of the last segment [0.9, 1.0] by more
    # than a quarter segment, so the window leaves that segment out; once
    # more samples arrive, the next call integrates it along with the others,
    # which read the same samples and come back bit for bit
    pipeline = OdometryPipeline()
    pipeline.add_imu(imu_ramp(0.0, 0.931))
    ctrl_times = 0.1 * np.arange(11)
    calls = count_preintegrations(monkeypatch)
    imu_seg, short = pipeline._segment_deltas(ctrl_times)
    assert imu_seg.tolist() == list(range(9))
    pipeline.add_imu(imu_ramp(0.931, 2.0))
    imu_seg, delta = pipeline._segment_deltas(ctrl_times)
    assert imu_seg.tolist() == list(range(10)) and len(calls) == 2
    assert np.array_equal(calls[1][0], ctrl_times[:10])
    for name in ("dt", "delta_rot", "delta_vel", "delta_pos"):
        assert np.array_equal(getattr(delta, name)[:9], getattr(short, name))
    assert_fresh_deltas(pipeline, ctrl_times, imu_seg, delta)


def test_segment_is_integrated_again_once_its_samples_are_trimmed(monkeypatch):
    # trimming the stream past the first segment's first sample makes that
    # segment read fewer samples: the next call integrates the trimmed
    # stream, so its delta changes, while the later segments read as before
    pipeline = OdometryPipeline()
    pipeline.add_imu(imu_ramp(0.0, 2.0))
    ctrl_times = 0.5 + 0.1 * np.arange(6)
    imu_seg, whole = pipeline._segment_deltas(ctrl_times)
    calls = count_preintegrations(monkeypatch)
    pipeline._trim_imu(0.52)
    trimmed_seg, delta = pipeline._segment_deltas(ctrl_times)
    assert imu_seg.tolist() == trimmed_seg.tolist() == list(range(5)) and len(calls) == 1
    assert not np.allclose(delta.delta_rot[0], whole.delta_rot[0], rtol=0.0, atol=1e-9)
    for name in ("dt", "delta_rot", "delta_vel", "delta_pos"):
        assert np.array_equal(getattr(delta, name)[1:], getattr(whole, name)[1:])
    assert_fresh_deltas(pipeline, ctrl_times, trimmed_seg, delta)


def test_imu_gap_across_a_control_time_is_interpolated():
    # 90 ms gaps in the samples straddle the control times 1.0 s (the
    # window's first) and 1.5 s. The segment from 1.5 s starts at the value
    # interpolated across its gap, read from the stream the window passed
    # (0.95 to 2.05 s), where a stream cut to the segment's own reach (1.45
    # to 1.65 s) clamps it to the sample at 1.52 s; the window's first
    # segment, whose gap starts before the window's reach, is clamped
    times = np.arange(600) / 200.0
    times = times[(times <= 0.93) | (times >= 1.02) & (times <= 1.43) | (times >= 1.52)]
    gyro = np.stack([times, -times, 2.0 * times], axis=1)
    pipeline = OdometryPipeline()
    pipeline.add_imu(ImuStream(times, gyro, gyro + [0.0, 0.0, 9.81]))
    ctrl_times = 1.0 + 0.1 * np.arange(11)
    imu_seg, delta = pipeline._segment_deltas(ctrl_times)
    assert imu_seg.tolist() == list(range(10))
    for seg, across in ((0, False), (5, True)):
        t_i, t_j = ctrl_times[seg : seg + 2]
        whole = preintegrate(pipeline.imu, t_i, t_j)
        own = preintegrate(pipeline.imu.between(t_i - 0.05, t_j + 0.05), t_i, t_j)
        assert not np.allclose(whole.delta_rot, own.delta_rot, rtol=0.0, atol=1e-6)
        for name in ("delta_rot", "delta_vel", "delta_pos"):
            assert np.array_equal(getattr(delta, name)[seg], getattr(whole if across else own, name))


def test_imu_history_trimmed_to_buffer_capacity():
    data = generate_synthetic(corridor_scene(duration=2.0), seed=0)
    pipeline = OdometryPipeline(PipelineConfig(buffer_capacity=1.5))
    pipeline.add_imu(data.imu_samples)
    results = [pipeline.process_scan(scan) for scan in data.scans]
    assert all(result.reasons == () for result in results)
    stored, given = pipeline.imu, data.imu_samples
    assert stored.times[0] >= float(data.scans[-1].stamps[-1]) - 1.5
    assert stored.times[-1] == given.times[-1]
    tail = given.between(stored.times[0], np.inf)
    for name in ("times", "gyro", "accel"):
        assert np.array_equal(getattr(stored, name), getattr(tail, name))
    # the newest sample outlives any horizon, so the order check still holds
    pipeline._trim_imu(np.inf)
    assert pipeline.imu.times.tolist() == given.times[-1:].tolist()
    assert np.array_equal(pipeline.imu.gyro, given.gyro[-1:])
    with pytest.raises(ValueError, match="increasing"):
        pipeline.add_imu(given.between(given.times[-2], given.times[-2]))


def test_bad_imu_batch_raises_and_stores_nothing(corridor):
    # a bad batch fails as a stream or as the stored stream's continuation
    pipeline = OdometryPipeline()
    given = corridor.imu_samples
    times, gyro, accel = given.times[:20], given.gyro[:20], given.accel[:20]
    pipeline.add_imu(ImuStream(times[:10], gyro[:10], accel[:10]))
    swapped = np.concatenate([times[10:14], times[[15, 14]], times[16:]])
    nan_gyro, inf_accel = gyro[10:].copy(), accel[10:].copy()
    nan_gyro[4, 1], inf_accel[4, 0] = np.nan, np.inf
    # the second batch starts before the last stored sample
    for batch, match in (
        ((swapped, gyro[10:], accel[10:]), "increasing"),
        ((times[5:15], gyro[5:15], accel[5:15]), "increasing"),
        ((times[10:], nan_gyro, accel[10:]), "non-finite"),
        ((times[10:], gyro[10:], inf_accel), "non-finite"),
    ):
        with pytest.raises(ValueError, match=match):
            pipeline.add_imu(ImuStream(*batch))
        assert np.array_equal(pipeline.imu.times, times[:10])
        assert np.array_equal(pipeline.imu.gyro, gyro[:10])
        assert np.array_equal(pipeline.imu.accel, accel[:10])
    pipeline.add_imu(ImuStream(times[10:], gyro[10:], accel[10:]))
    assert np.array_equal(pipeline.imu.times, times)
    assert np.array_equal(pipeline.imu.accel, accel)


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


@pytest.fixture
def tracked(corridor_run):
    """A copy of the corridor run's pipeline, free to take more scans."""
    return copy.deepcopy(corridor_run[0])


def test_empty_scan_after_tracking_keeps_the_last_pose(tracked):
    times, poses = tracked.trajectory()
    result = tracked.process_scan(PointCloud(points=np.zeros((0, 3))))
    assert result.reasons == ("empty_scan",) and result.degraded
    assert result.time == times[-1]
    assert np.array_equal(result.pose.as_params(), poses[-1].as_params())
    assert len(tracked.trajectory()[1]) == len(poses)


def test_prediction_is_one_batch_of_the_last_trajectory(tracked):
    # one batch equals sampling the last trajectory time by time (clipped to
    # its span) and extrapolating past its end at the last turn rate and
    # end velocity
    traj = tracked._traj

    def one_time(t):
        if t <= traj.t_last + 1e-9:
            return traj.sample_pose(float(np.clip(t, traj.t_first, traj.t_last))).as_params()
        dt = t - traj.t_last
        rot = traj.rotations[-1] @ rotvec_to_matrix(traj.turns[-1] * (dt / traj.spacing))
        vel = traj.sample_position(traj.t_last, 1)[0]
        return np.concatenate([matrix_to_rotvec(rot), traj.positions[-1] + vel * dt])

    times = np.linspace(traj.t_first - 0.05, traj.t_last + 0.35, 17)
    assert np.any(times > traj.t_last + 1e-9) and np.any(times < traj.t_first)
    expected = np.concatenate([one_time(float(t)) for t in times])
    assert np.allclose(tracked._initial_params(times), expected, rtol=0.0, atol=1e-12)
    fresh = OdometryPipeline()
    fresh.base_rot = np.array([0.1, -0.2, 0.0])
    assert np.array_equal(fresh._initial_params(times[:2]), np.tile([0.1, -0.2, 0.0, 0, 0, 0], 2))


def test_sparse_scan_after_a_gap_extrapolates_at_constant_velocity(corridor, tracked):
    traj = tracked._traj
    n_poses = len(tracked.trajectory()[1])
    t_end = float(corridor.scans[-1].stamps[-1]) + 2.0
    stamps = t_end - np.array([0.02, 0.01, 0.0])
    scan = PointCloud(points=corridor.scans[-1].points[:3], stamps=stamps)
    result = tracked.process_scan(scan)
    # the IMU stream ends with the corridor, so the gap has no coverage either
    assert result.reasons == ("no_imu_coverage", "too_few_points")
    times, poses = tracked.trajectory()
    assert len(poses) == n_poses + 1 and times[-1] == t_end == result.time
    assert np.array_equal(poses[-1].as_params(), result.pose.as_params())
    assert np.array_equal(result.pose.as_params(), OdometryPipeline._extrapolate(traj, np.array([t_end]))[0])
    # the last solved pose carried on at the trajectory's end velocity
    dt = t_end - traj.t_last
    assert dt == pytest.approx(2.0)
    moved = traj.sample_position(traj.t_last, 1)[0] * dt
    assert np.linalg.norm(moved) > 1e-3  # so the sum below is not the last position
    assert np.allclose(result.pose.trans, traj.positions[-1] + moved, rtol=0.0, atol=1e-12)


def test_too_sparse_first_scan_takes_the_base_pose():
    # a static, tilted IMU start sets the base rotation
    up_body = rotvec_to_matrix(np.array([0.2, -0.1, 0.0])).T @ [0.0, 0.0, 1.0]
    times = np.arange(0.0, 1.0, 5e-3)
    pipeline = OdometryPipeline()
    n = len(times)
    pipeline.add_imu(ImuStream(times, np.zeros((n, 3)), np.tile(9.81 * up_body, (n, 1))))
    scan = PointCloud(points=np.eye(3), stamps=[0.08, 0.09, 0.1])
    result = pipeline.process_scan(scan)
    assert result.reasons == ("too_few_points",)
    assert np.linalg.norm(pipeline.base_rot) > 0.1
    assert np.array_equal(result.pose.rotvec, pipeline.base_rot)
    assert np.array_equal(result.pose.trans, np.zeros(3))
    times_out, poses = pipeline.trajectory()
    assert times_out.tolist() == [0.1] and poses == [result.pose]


def test_fallback_scan_counts_the_points_before_its_window():
    # the first window starts 0.2 s before the scan's end, at 0.8 s, so the
    # four points stamped 0.5 s precede it and four are too few to solve
    rng = np.random.default_rng(3)
    stamps = [0.5, 0.5, 0.5, 0.5, 0.95, 0.96, 0.98, 1.0]
    scan = PointCloud(points=rng.uniform(-5.0, 5.0, size=(8, 3)), stamps=stamps)
    result = OdometryPipeline().process_scan(scan)
    assert result.reasons == ("no_imu", "too_few_points")
    assert result.dropped_points == 4


@pytest.mark.parametrize("up", [
    [0.0, 0.0, -1.0],
    [1e-13, 0.0, -1.0],  # antiparallel within the cross product's tolerance
    [0.0, 0.0, 1.0],
    [0.3, -0.5, 0.2],
    [0.3, -0.5, -0.8],
])
def test_up_to_z_rotvec_turns_up_onto_z(up):
    up = np.asarray(up) / np.linalg.norm(up)
    assert np.allclose(rotvec_to_matrix(_up_to_z_rotvec(up)) @ up, [0.0, 0.0, 1.0],
                       rtol=0.0, atol=1e-12)


def test_upside_down_static_start_turns_half_over():
    times = np.arange(0.0, 1.0, 5e-3)
    n = len(times)
    pipeline = OdometryPipeline()
    pipeline.add_imu(ImuStream(times, np.zeros((n, 3)), np.tile([0.0, 0.0, -9.81], (n, 1))))
    result = pipeline.process_scan(PointCloud(points=np.eye(3), stamps=[0.08, 0.09, 0.1]))
    assert result.reasons == ("too_few_points",)
    assert np.linalg.norm(pipeline.base_rot) == pytest.approx(np.pi)
    assert np.allclose(rotvec_to_matrix(pipeline.base_rot) @ [0.0, 0.0, -1.0], [0.0, 0.0, 1.0])


# a 2 m x 2 m patch at the centres of its 16 fine (0.5 m) cells' quarter cells
PATCH = np.stack(np.meshgrid(0.125 + 0.25 * np.arange(8), 0.125 + 0.25 * np.arange(8), [0.25]),
                 axis=-1).reshape(-1, 3)


def add_keyframes(pipeline, positions, shifts, patch=PATCH):
    """Keyframes at positions whose world points are patch moved by shifts."""
    for position, shift in zip(positions, shifts):
        cloud = PointCloud(points=patch + np.subtract(shift, position),
                           normals=np.tile([0.0, 0.0, 1.0], (len(patch), 1)))
        gravity = GravityEstimate(direction=np.array([0.0, 0.0, 1.0]), weight=0.0)
        pose = Pose(np.zeros(3), np.asarray(position, dtype=float))
        pipeline.map.add(Keyframe(pose, cloud, gravity))


def adjusted_window(monkeypatch, pipeline):
    """The clouds and fixed points of the adjustment that the newest
    keyframe starts."""
    captured = []

    def capture(problem, config):
        captured.append(problem)
        raise InsufficientStructureError("captured")

    monkeypatch.setattr(pipeline_module, "run_adjustment", capture)
    pipeline.keyframe_optimization(pipeline.map.keyframes[-1])
    [problem] = captured
    return problem.clouds, problem.fixed_points


def test_keyframe_window_starts_at_the_oldest_overlapping_keyframe(monkeypatch):
    pipeline = OdometryPipeline()
    kfs = pipeline.map.keyframes
    # keyframe 0 covers the newest one's cells but lies 20 m away, keyframe
    # 1 covers 4 of its 16 cells (0.25, not above kf_opt_overlap), keyframe
    # 2 all of them
    add_keyframes(
        pipeline,
        positions=[[20.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0], [0.0, 0, 0]],
        shifts=[[0.0, 0, 0], [1.5, 0, 0], [0.0, 0, 0], [0.0, 0, 0], [0.0, 0, 0]],
    )
    clouds, fixed = adjusted_window(monkeypatch, pipeline)
    assert len(clouds) == 3 and all(c is kf.cloud for c, kf in zip(clouds, kfs[2:]))
    assert np.array_equal(fixed, np.vstack([kf.world_points() for kf in kfs[:2]]))
    # the overlap is taken at the keyframes' current poses: moved onto the
    # newest keyframe's cells, as an adjustment may move it, keyframe 1
    # starts the window
    kfs[1].pose = Pose(np.zeros(3), np.array([-0.5, 0.0, 0.0]))
    clouds, fixed = adjusted_window(monkeypatch, pipeline)
    assert len(clouds) == 4 and all(c is kf.cloud for c, kf in zip(clouds, kfs[1:]))
    assert np.array_equal(fixed, kfs[0].world_points())


def test_keyframe_window_falls_back_without_overlap(monkeypatch):
    pipeline = OdometryPipeline()
    kfs = pipeline.map.keyframes
    # seven keyframes 1 m apart, none sharing a cell with the newest
    add_keyframes(
        pipeline,
        positions=[[float(k), 0, 0] for k in range(7)],
        shifts=[[0.0, 0, 3.0 + k] for k in range(6)] + [[0.0, 0, 0]],
    )
    clouds, fixed = adjusted_window(monkeypatch, pipeline)
    start = len(kfs) - pipeline.config.kf_fallback_window
    assert start == 2
    assert len(clouds) == 5 and all(c is kf.cloud for c, kf in zip(clouds, kfs[start:]))
    assert np.array_equal(fixed, np.vstack([kf.world_points() for kf in kfs[:start]]))


def test_anchored_window_without_structure_keeps_its_poses():
    # no keyframe shares a cell with the newest, so the window is the last
    # five, anchored by the first two. The anchors' patches fill cells of
    # their own, but each free keyframe puts 4 points into a coarse cell of
    # its own: no landmark forms, the adjustment raises, and no pose moves
    pipeline = OdometryPipeline()
    add_keyframes(pipeline, positions=[[0.0, 0, 0], [1.0, 0, 0]], shifts=[[0.0, 0, 0], [0.0, 0, 3.0]])
    add_keyframes(
        pipeline,
        positions=[[float(k), 0, 0] for k in range(2, 7)],
        shifts=[[0.0, 0, 4.0 * k] for k in range(2, 7)],
        patch=PATCH[::16],
    )
    kfs = pipeline.map.keyframes
    poses = [kf.pose for kf in kfs]
    with pytest.raises(InsufficientStructureError):
        run_adjustment(AdjustmentProblem(
            clouds=[kf.cloud for kf in kfs[2:]], initial_poses=poses[2:],
            fixed_points=np.vstack([kf.world_points() for kf in kfs[:2]]),
        ))
    pipeline.keyframe_optimization(kfs[-1])
    assert all(kf.pose is pose for kf, pose in zip(kfs, poses))


def test_config_from_dict_round_trip():
    cfg = pipeline_config_from_dict({
        "window_duration": "0.8",
        "k_neighbors": "12",
        "voxel_fine_size": "0.4",
        "voxel_n_min": "7",
        "downsample_levels": "2.0, 1.0 0.5,0.2",
        "window_lm": "8",
        "kf_lm": "12",
    })
    assert cfg.window_duration == 0.8
    assert cfg.k_neighbors == 12 and isinstance(cfg.k_neighbors, int)
    assert cfg.voxel.fine_size == 0.4 and cfg.voxel.n_min == 7
    assert cfg.voxel.coarse_size == PipelineConfig().voxel.coarse_size
    assert cfg.downsample.levels == (2.0, 1.0, 0.5, 0.2)
    assert (cfg.window_lm, cfg.kf_lm) == (8, 12) and isinstance(cfg.kf_lm, int)


@pytest.mark.parametrize(
    "key",
    ["window_lm_max_lambda_retries", "voxel_size", "bogus", "overlap_max"],
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
    ("voxel_epsilon", "nan"),
    ("voxel_epsilon", "-1"),
    ("voxel_coarse_size", "inf"),
    ("voxel_fine_size", "2.5"),
    ("voxel_n_min", "-3"),
    ("k_neighbors", "0"),
    ("k_neighbors", "2"),
    ("k_neighbors", "ten"),
    ("voxel_n_min", "2.5"),
    ("keyframe_distance", "abc"),
    ("keyframe_distance", "0"),
    ("keyframe_distance", "-1"),
    ("kf_opt_distance", "-1"),
    ("kf_opt_overlap", "2.0"),
    ("static_radius", "-5"),
    ("imu_init_duration", "-1"),
    ("downsample_levels", "nan 0.5 0.25 0.1"),
    ("downsample_trim_range", "nan"),
    ("planarity_min", "2.0"),
    ("planarity_min", "-1"),
])
def test_config_from_dict_rejects_bad_values(key, raw):
    # the dict reader names the key, also for a value that does not parse
    group, _, name = key.partition("_")
    nested = group in ("voxel", "downsample")
    with pytest.raises(ValueError, match=name if nested else key):
        pipeline_config_from_dict({key: raw})
    try:
        value = float(raw)
    except ValueError:
        return
    if nested:
        with pytest.raises(ValueError, match=name):
            (VoxelConfig if group == "voxel" else DownsampleConfig)(**{name: value})
        return
    with pytest.raises(ValueError, match=key):
        PipelineConfig(**{key: value})


def test_config_rejects_non_integer_counts():
    # a float count would reach a k-d tree query or a cell-size comparison
    with pytest.raises(ValueError, match="n_min"):
        VoxelConfig(n_min=2.5)
    with pytest.raises(ValueError, match="n_min"):
        VoxelConfig(n_min=True)
    with pytest.raises(ValueError, match="k_neighbors"):
        PipelineConfig(k_neighbors=10.0)
    assert PipelineConfig(k_neighbors=3, voxel=VoxelConfig(n_min=0)).k_neighbors == 3
    # the keyframe counts slice the keyframe list
    for key, value in [
        ("kf_fallback_window", 2.5), ("kf_fallback_window", 0), ("kf_fallback_window", True),
        ("kf_anchor_count", 3.0), ("kf_anchor_count", -1), ("kf_anchor_count", False),
    ]:
        with pytest.raises(ValueError, match=key):
            PipelineConfig(**{key: value})
    config = PipelineConfig(kf_fallback_window=np.int64(1), kf_anchor_count=0)
    assert (config.kf_fallback_window, config.kf_anchor_count) == (1, 0)


@pytest.mark.parametrize("key", ["window_lm", "kf_lm"])
@pytest.mark.parametrize("value", [0, 2.5, 3.0, True, "3"])
def test_config_rejects_bad_lm_budgets(key, value):
    # at 0 the solve would return its start; a budget of 2.5 would fail
    # inside the solve, as a TypeError from range()
    with pytest.raises(ValueError, match=key):
        PipelineConfig(**{key: value})
    assert getattr(PipelineConfig(**{key: 1}), key) == 1
    assert getattr(PipelineConfig(**{key: np.int64(3)}), key) == 3

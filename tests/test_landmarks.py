import numpy as np
import pytest

from multiscan.adjustment import FrozenLandmarks
from multiscan.landmarks import (
    VoxelConfig,
    _level_groups,
    cell_statistics,
    dual_grid_groups,
    pack_cell_indices,
    point_clusters,
    split_by_normals,
    voxel_cell_indices,
)

GRID = VoxelConfig(coarse_size=2.0, fine_size=0.5, n_min=5)


def occupancy_oracle(points, cell_size, n_min):
    """Independent per-cell histogram: dict cell -> member count."""
    cells = {}
    for p in points:
        key = tuple(int(np.floor(c / cell_size)) for c in p)
        cells[key] = cells.get(key, 0) + 1
    return {k: v for k, v in cells.items() if v > n_min}


def group_rows(groups):
    """Member rows of every landmark, in landmark order."""
    return np.split(groups["member_row"], np.cumsum(groups["counts"])[:-1])


def group_keys(groups, points, voxel):
    """(ix, iy, iz, cell size) of every landmark of `dual_grid_groups`.

    The landmarks before the count that `_level_groups` keeps at the coarse
    size are coarse, the rest fine; every member must lie in the key's cell.
    """
    n_coarse = len(_level_groups(points, voxel.coarse_size, voxel.n_min)[2])
    keys = []
    for g, rows in enumerate(group_rows(groups)):
        size = voxel.coarse_size if g < n_coarse else voxel.fine_size
        cells = np.unique(voxel_cell_indices(points[rows], size), axis=0)
        assert len(cells) == 1
        keys.append((*cells[0].tolist(), size))
    return keys


def stats(points):
    """Mean and 1/n covariance of one point set."""
    sizes, means, scatter = point_clusters(points, np.array([0]))
    return means[0], scatter[0] / sizes[0]


class TestVoxelizeDual:
    def test_colocated_points_two_levels(self):
        pts = np.tile([0.1, 0.1, 0.1], (10, 1)) + np.linspace(0, 0.01, 10)[:, None]
        groups = dual_grid_groups(pts, GRID)
        assert len(groups["counts"]) == 2
        assert [key[3] for key in group_keys(groups, pts, GRID)] == [2.0, 0.5]
        assert np.all(groups["counts"] == 10)

    def test_below_threshold_dropped(self):
        pts = np.tile([0.1, 0.1, 0.1], (4, 1))
        assert dual_grid_groups(pts, GRID) is None

    def test_empty_input(self):
        assert dual_grid_groups(np.zeros((0, 3)), GRID) is None

    def test_counts_match_occupancy_oracle(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(0, 10, size=(1000, 3))
        groups = dual_grid_groups(pts, GRID)
        for size in (2.0, 0.5):
            expected = occupancy_oracle(pts, size, 5)
            got = {
                key[:3]: int(count)
                for key, count in zip(group_keys(groups, pts, GRID), groups["counts"])
                if key[3] == size
            }
            assert got == expected

    def test_membership_partition_per_level(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-5, 5, size=(600, 3))
        grid = VoxelConfig(coarse_size=2.0, fine_size=0.5, n_min=3)
        groups = dual_grid_groups(pts, grid)
        keys = group_keys(groups, pts, grid)
        for size in (2.0, 0.5):
            seen = [
                r for rows, key in zip(group_rows(groups), keys) if key[3] == size
                for r in rows.tolist()
            ]
            assert len(seen) == len(set(seen))

    def test_point_in_at_most_two_landmarks(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1.9, size=(50, 3))
        groups = dual_grid_groups(pts, VoxelConfig(coarse_size=2.0, fine_size=0.5, n_min=2))
        assert np.bincount(groups["member_row"]).max() <= 2

    def test_permutation_invariant_stats(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 4, size=(400, 3))
        groups_a = dual_grid_groups(pts, GRID)
        perm = rng.permutation(len(pts))
        groups_b = dual_grid_groups(pts[perm], GRID)
        by_key_a = dict(zip(group_keys(groups_a, pts, GRID), range(len(groups_a["counts"]))))
        by_key_b = dict(zip(group_keys(groups_b, pts[perm], GRID), range(len(groups_b["counts"]))))
        assert by_key_a.keys() == by_key_b.keys()
        for key, g in by_key_a.items():
            h = by_key_b[key]
            assert np.allclose(groups_a["means"][g], groups_b["means"][h], atol=1e-12)
            assert np.allclose(groups_a["covs"][g], groups_b["covs"][h], atol=1e-12)

    def test_owner_pairs_passed_through(self):
        # member rows index the input points
        pts = np.tile([0.2, 0.2, 0.2], (8, 1))
        groups = dual_grid_groups(pts, GRID)
        assert all(set(rows.tolist()) == set(range(8)) for rows in group_rows(groups))

    @pytest.mark.parametrize("n_min", [0, 5])
    def test_level_counts_are_the_occupied_cells(self, n_min):
        # counts read from the runs of sorted keys, in key order, as
        # np.unique gives them; empty input included
        rng = np.random.default_rng(12)
        for pts in (rng.uniform(-3.0, 3.0, size=(800, 3)), np.zeros((0, 3))):
            for size in (2.0, 0.5):
                rows, gid, counts, _ = _level_groups(pts, size, n_min)
                _, occupied = np.unique(pack_cell_indices(voxel_cell_indices(pts, size)), return_counts=True)
                assert np.array_equal(counts, occupied[occupied > n_min])
                assert np.array_equal(np.bincount(gid, minlength=len(counts)), counts)

    def test_rejects_bad_sizes(self):
        # the grid's configuration, not the voxelization, checks the sizes
        with pytest.raises(ValueError, match="coarse_size > fine_size"):
            VoxelConfig(coarse_size=0.5, fine_size=2.0, n_min=5)


class TestLandmarkStats:
    def test_square_mean(self):
        pts = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0], [2, 2, 0]], dtype=float)
        mean, _ = stats(pts)
        assert np.allclose(mean, [1, 1, 0])

    def test_two_point_covariance_is_biased(self):
        # 1/n normalization: var of {-1, +1} is 1, not 2
        pts = np.array([[1, 0, 0], [-1, 0, 0]], dtype=float)
        _, cov = stats(pts)
        assert np.allclose(cov, np.diag([1.0, 0.0, 0.0]))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 3)) * [1.0, 0.5, 0.1] + [4.0, -2.0, 1.0]
        mean, cov = stats(pts)
        assert np.allclose(mean, pts.mean(axis=0), atol=1e-12)
        assert np.allclose(cov, np.cov(pts.T, bias=True), atol=1e-12)

    def test_requires_two_points(self):
        # a landmark needs more than n_min members, so even n_min=1 asks for two
        grid = VoxelConfig(coarse_size=2.0, fine_size=0.5, n_min=1)
        assert dual_grid_groups(np.zeros((1, 3)), grid) is None
        assert dual_grid_groups(np.zeros((2, 3)), grid) is not None


def one_landmark(points):
    """Groups dict holding all points as one fine landmark."""
    n = len(points)
    mean, cov = stats(points)
    return {
        "member_row": np.arange(n),
        "member_group": np.zeros(n, dtype=np.int64),
        "counts": np.array([n]),
        "means": mean[None],
        "covs": cov[None],
    }


def split_oracle(rows, normals, planarities, planarity_min, n_min):
    """Reference per-landmark split rule: the row sets of the landmark's parts."""
    n, p = normals[rows], planarities[rows]
    if np.any(~np.isfinite(p)) or np.any(np.linalg.norm(n, axis=1) < 0.5):
        return [rows]
    if p.mean() < planarity_min:
        return [rows]
    _, vecs = np.linalg.eigh(n.T @ n)
    side = n @ vecs[:, -1] >= 0.0
    n_pos, n_neg = int(side.sum()), int((~side).sum())
    if n_pos == 0 or n_neg == 0:
        return [rows]
    if n[side].mean(axis=0) @ n[~side].mean(axis=0) >= 0.0:
        return [rows]
    if min(n_pos, n_neg) <= n_min:
        return [rows]
    if not side[0]:
        side = ~side
    return [rows[side], rows[~side]]


class TestSplitByNormals:
    def plane_points(self, n, rng, z=0.0):
        pts = np.zeros((n, 3))
        pts[:, :2] = rng.uniform(-0.25, 0.25, size=(n, 2))
        pts[:, 2] = z
        return pts

    def test_single_cluster_not_split(self):
        rng = np.random.default_rng(6)
        pts = self.plane_points(20, rng)
        groups = one_landmark(pts)
        normals = np.tile([0.0, 0.0, 1.0], (20, 1))
        out = split_by_normals(groups, pts, normals, np.ones(20), planarity_min=0.5, n_min=5)
        assert out is groups

    def test_opposing_normals_split(self):
        rng = np.random.default_rng(7)
        pts = np.vstack([self.plane_points(10, rng, z=0.0), self.plane_points(10, rng, z=0.02)])
        normals = np.vstack([np.tile([0, 0, 1.0], (10, 1)), np.tile([0, 0, -1.0], (10, 1))])
        out = split_by_normals(one_landmark(pts), pts, normals, np.ones(20), planarity_min=0.5, n_min=5)
        assert sorted(out["counts"].tolist()) == [10, 10]
        halves = group_rows(out)
        assert 0 in halves[0]  # the first member's half comes first
        # each half keeps consistent stats for its own points
        for g, idx in enumerate(halves):
            assert np.allclose(out["means"][g], pts[idx].mean(axis=0), atol=1e-12)

    def test_minority_below_threshold_rejected(self):
        rng = np.random.default_rng(8)
        pts = self.plane_points(16, rng)
        normals = np.vstack([np.tile([0, 0, 1.0], (12, 1)), np.tile([0, 0, -1.0], (4, 1))])
        out = split_by_normals(one_landmark(pts), pts, normals, np.ones(16), planarity_min=0.5, n_min=5)
        assert len(out["counts"]) == 1

    def test_low_planarity_rejected(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(20, 3))
        normals = np.vstack([np.tile([0, 0, 1.0], (10, 1)), np.tile([0, 0, -1.0], (10, 1))])
        out = split_by_normals(
            one_landmark(pts), pts, normals, np.full(20, 0.1), planarity_min=0.5, n_min=5
        )
        assert len(out["counts"]) == 1

    def test_matches_per_landmark_oracle(self):
        pts, normals, planarity = oracle_scene()
        groups = dual_grid_groups(pts, GRID)
        out = split_by_normals(groups, pts, normals, planarity, planarity_min=0.5, n_min=5)
        parent_keys = group_keys(groups, pts, GRID)
        expected = [
            (key, part)
            for key, rows in zip(parent_keys, group_rows(groups))
            for part in split_oracle(rows, normals, planarity, 0.5, 5)
        ]
        got = group_rows(out)
        assert len(expected) > len(group_rows(groups))  # some landmarks split
        assert len(got) == len(expected)
        for g, (rows_got, (key, rows_exp)) in enumerate(zip(got, expected)):
            assert np.array_equal(rows_got, rows_exp)
            mean = pts[rows_exp].mean(axis=0)
            cov = np.cov(pts[rows_exp].T, bias=True)
            assert np.allclose(out["means"][g], mean, atol=1e-12)
            assert np.allclose(out["covs"][g], cov, atol=1e-12)
            # every part lies in its parent's cell at its parent's level
            assert np.all(voxel_cell_indices(pts[rows_got], key[3]) == key[:3])


def tilted_normals(n_each, degrees, length=1.0):
    """The z axis, then n_each normals at +degrees and n_each at -degrees about it in xz."""
    a = np.radians(degrees)
    tilted = length * np.array([[np.sin(a), 0.0, np.cos(a)], [-np.sin(a), 0.0, np.cos(a)]])
    return np.vstack([[0.0, 0.0, 1.0], np.repeat(tilted, n_each, axis=0)])


class TestConeBound:
    """split_by_normals settles a landmark whose normals all lie within 30
    degrees of its first member's; each case is checked against the
    per-landmark rule, which knows no bound."""

    def check_against_oracle(self, normals, rng):
        pts = rng.uniform(0.0, 0.5, size=(len(normals), 3))
        groups = one_landmark(pts)
        rows = np.arange(len(pts))
        planarity = np.ones(len(pts))
        expected = split_oracle(rows, normals, planarity, 0.5, 5)
        out = split_by_normals(groups, pts, normals, planarity, planarity_min=0.5, n_min=5)
        got = group_rows(out)
        assert len(got) == len(expected)
        for rows_got, rows_exp in zip(got, expected):
            assert np.array_equal(rows_got, rows_exp)
        return groups, out, expected

    def test_normals_just_past_45_degrees_split(self):
        # at +-46 degrees the two sides meet at 92 degrees: the rule splits,
        # so a bound wider than 46 degrees would keep this landmark whole
        _, _, expected = self.check_against_oracle(tilted_normals(25, 46.0), np.random.default_rng(11))
        assert len(expected) == 2

    def test_bound_weighs_normal_lengths(self):
        # normals of length 2 at 46 degrees have n . n0 = 1.39 > cos 30 = 0.87;
        # only the lengths keep them outside the cone
        normals = tilted_normals(25, 46.0, length=2.0)
        _, _, expected = self.check_against_oracle(normals, np.random.default_rng(12))
        assert len(expected) == 2

    def test_one_sided_cell_returns_its_input(self):
        rng = np.random.default_rng(13)
        polar = np.radians(rng.uniform(0.0, 25.0, 40))
        polar[0] = 0.0
        azimuth = rng.uniform(0.0, 2 * np.pi, 40)
        normals = np.stack(
            [np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1
        )
        groups, out, expected = self.check_against_oracle(normals, rng)
        assert len(expected) == 1
        assert out is groups

    def test_oracle_scene_has_landmarks_on_both_sides_of_the_bound(self):
        # the oracle tests above and below cover settled and open landmarks
        pts, normals, planarity = oracle_scene()
        groups = dual_grid_groups(pts, GRID)
        inside = []
        for rows in group_rows(groups):
            n, n0 = normals[rows], normals[rows[0]]
            defined = np.all(np.linalg.norm(n, axis=1) >= 0.5)
            planar = planarity[rows].mean() >= 0.5
            if defined and planar:
                cos = n @ n0 / (np.linalg.norm(n, axis=1) * np.linalg.norm(n0))
                inside.append(bool(np.all(cos > np.cos(np.radians(30.0)))))
        assert any(inside) and not all(inside)


def test_unsplit_landmarks_keep_their_statistics_bitwise():
    # split_by_normals recomputes every landmark's statistics as
    # dual_grid_groups does, so a landmark it leaves whole keeps them exactly
    pts, normals, planarity = oracle_scene()
    groups = dual_grid_groups(pts, GRID)
    out = split_by_normals(groups, pts, normals, planarity, planarity_min=0.5, n_min=5)
    parent = {tuple(rows.tolist()): g for g, rows in enumerate(group_rows(groups))}
    kept = 0
    for g, rows in enumerate(group_rows(out)):
        j = parent.get(tuple(rows.tolist()))
        if j is not None:
            kept += 1
            assert np.array_equal(out["means"][g], groups["means"][j])
            assert np.array_equal(out["covs"][g], groups["covs"][j])
    assert 0 < kept < len(out["counts"])


def test_fixed_cells_merge_into_the_cells_the_points_touch():
    # fixed points binned once and merged: the landmarks of the stacked
    # points that a moving point touches, with only the moving members, the
    # fixed points counting toward n_min; a fixed-only block makes none
    rng = np.random.default_rng(21)
    moving = rng.uniform(-3.0, 3.0, size=(600, 3))
    fixed = np.vstack([rng.uniform(-3.0, 3.0, size=(400, 3)), rng.uniform(10.0, 10.4, size=(20, 3))])
    merged = dual_grid_groups(moving, GRID, cell_statistics(fixed, GRID))
    whole = dual_grid_groups(np.vstack([moving, fixed]), GRID)
    own = whole["member_row"] < len(moving)
    touched = np.unique(whole["member_group"][own])
    assert len(touched) < len(whole["counts"])
    assert np.array_equal(merged["member_row"], whole["member_row"][own])
    assert np.array_equal(merged["counts"], whole["counts"][touched])
    assert np.allclose(merged["means"], whole["means"][touched], rtol=0.0, atol=1e-12)
    assert np.allclose(merged["covs"], whole["covs"][touched], rtol=0.0, atol=1e-12)
    n_fixed = np.bincount(whole["member_group"][~own], minlength=len(whole["counts"]))[touched]
    assert np.array_equal(merged["fixed_counts"], n_fixed)
    assert np.any(merged["counts"] - merged["fixed_counts"] <= GRID.n_min)
    for g in np.flatnonzero(n_fixed):
        rows = whole["member_row"][~own & (whole["member_group"] == touched[g])] - len(moving)
        assert np.allclose(merged["fixed_means"][g], fixed[rows].mean(axis=0), rtol=0.0, atol=1e-12)


def test_members_ascend_within_each_landmark():
    # keyframe adjustment reads the members a landmark takes from one scan
    # of the point stack as one run; split halves keep the order too
    pts, normals, planarity = oracle_scene()
    groups = dual_grid_groups(pts, GRID)
    out = split_by_normals(groups, pts, normals, planarity, planarity_min=0.5, n_min=5)
    assert len(out["counts"]) > len(groups["counts"])
    for layout in (groups, out):
        assert np.all(np.diff(layout["member_group"]) >= 0)
        for rows in group_rows(layout):
            assert np.all(np.diff(rows) > 0)


def oracle_scene():
    """Points, normals and planarities in which some landmarks split."""
    rng = np.random.default_rng(10)
    pts = rng.uniform(0, 4, size=(3000, 3))
    # two-sided cells for x < 2, mostly one-sided beyond; low planarity
    # for y < 1; some undefined normals for z < 0.5
    flip_prob = np.where(pts[:, 0] < 2.0, 0.5, 0.1)
    sign = np.where(rng.uniform(size=len(pts)) < flip_prob, -1.0, 1.0)
    normals = np.zeros((len(pts), 3))
    normals[:, 2] = sign
    normals[:, :2] = 0.05 * rng.normal(size=(len(pts), 2))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals[(pts[:, 2] < 0.5) & (rng.uniform(size=len(pts)) < 0.05)] = 0.0
    planarity = np.where(pts[:, 1] < 1.0, rng.uniform(0.0, 0.6, len(pts)), rng.uniform(0.4, 1.0, len(pts)))
    return pts, normals, planarity


def frozen(groups, epsilon):
    """The FrozenLandmarks of groups, every member a cluster of one."""
    lm = groups["member_group"]
    return FrozenLandmarks(groups, epsilon, lm, np.ones(len(lm)))


class TestFrozenLandmarks:
    @pytest.mark.parametrize("epsilon", [1e-4, 0.0])
    def test_whitening_is_regularized_inverse(self, epsilon):
        # the one place where statistics become weights: white_lm of landmark
        # j is +-v_min / sqrt(n_j (lambda_min + epsilon)), the regularized
        # inverse of Sigma_j along its normal, on split and unsplit
        # landmarks alike. Sigma_j comes from the rows through `stats`: at
        # epsilon = 0, w_j scales as lambda_min^-1/2, so np.cov's rounding
        # alone would move it by more than the tolerance
        pts, normals, planarity = oracle_scene()
        groups = dual_grid_groups(pts, GRID)
        out = split_by_normals(groups, pts, normals, planarity, planarity_min=0.5, n_min=5)
        unsplit = {tuple(rows.tolist()) for rows in group_rows(groups)}
        parts = group_rows(out)
        is_split = np.array([tuple(rows.tolist()) not in unsplit for rows in parts])
        assert is_split.any() and not is_split.all()
        lms = frozen(out, epsilon)
        for j, rows in enumerate(parts):
            evals, evecs = np.linalg.eigh(stats(pts[rows])[1])
            white = evecs[:, 0] / np.sqrt(len(rows) * (evals[0] + epsilon))
            sign = np.sign(lms.white_lm[j] @ white)
            assert np.allclose(lms.white_lm[j], sign * white, rtol=0.0, atol=1e-12)

    def test_cost_is_one_per_landmark_at_its_frozen_points(self):
        # with epsilon = 0, sum_k (w_j . (p_k - mu_j))^2 = v^T Sigma_j v / lambda_min = 1
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(6, 40))
            pts = rng.normal(size=(n, 3)) * rng.uniform(0.1, 2.0, size=3)
            lms = frozen(one_landmark(pts), 0.0)
            total = float(np.sum(((pts - lms.mu_ref[0]) @ lms.white_lm[0]) ** 2))
            assert total == pytest.approx(1.0, rel=1e-8)

    def test_flat_cell_gets_a_finite_weight_along_its_normal(self):
        # lambda_min = 0: epsilon alone bounds the weight, 1 / sqrt(n epsilon)
        rng = np.random.default_rng(4)
        pts = np.zeros((30, 3))
        pts[:, :2] = rng.uniform(-1.0, 1.0, size=(30, 2))
        lms = frozen(one_landmark(pts), 1e-4)
        assert np.allclose(np.abs(lms.white_lm[0]), [0.0, 0.0, 1.0 / np.sqrt(30 * 1e-4)])


def landmark_of_cov(cov, n):
    """Groups dict of one landmark of n members with covariance cov."""
    return {
        "member_row": np.arange(n),
        "member_group": np.zeros(n, dtype=np.int64),
        "counts": np.array([n]),
        "means": np.zeros((1, 3)),
        "covs": np.asarray(cov, dtype=float)[None],
    }


class TestRegularizedInverse:
    # n_j w_j w_j^T is (Sigma_j + epsilon I)^-1 restricted to the normal v_j:
    # v_j v_j^T / (lambda_min + epsilon)

    def test_identity_epsilon_zero(self):
        # Sigma = I: the inverse is 1 along every direction, so |w| = 1/sqrt(n)
        s = np.sqrt(3.0)
        pts = np.vstack([np.diag([s, s, s]), -np.diag([s, s, s])])
        lms = frozen(one_landmark(pts), 0.0)
        assert np.allclose(lms.mu_ref[0], 0.0)
        assert np.linalg.norm(lms.white_lm[0]) == pytest.approx(1.0 / np.sqrt(6.0), rel=1e-12)

    def test_product_is_identity(self):
        # on random SPD covariances, n w w^T Sigma is the projector onto the
        # normal, and the normal is Sigma's smallest eigenvector
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            spd = a @ a.T + 0.5 * np.eye(3)
            n = int(rng.integers(6, 40))
            w = frozen(landmark_of_cov(spd, n), 0.0).white_lm[0]
            v = w / np.linalg.norm(w)
            assert np.allclose(n * np.outer(w, w) @ spd, np.outer(v, v), atol=1e-9)
            assert v @ spd @ v == pytest.approx(np.linalg.eigvalsh(spd)[0], rel=1e-9)


class TestTraceIdentity:
    def test_quadratic_sum_equals_3n(self):
        # the landmark statistic is the 1/n covariance about the mean, so the
        # full Mahalanobis sum is 3 per member; FrozenLandmarks' rank-one row
        # keeps the normal's 1 of it per landmark
        # (test_cost_is_one_per_landmark_at_its_frozen_points, same cells)
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(6, 40))
            pts = rng.normal(size=(n, 3)) * rng.uniform(0.1, 2.0, size=3)
            mean, cov = stats(pts)
            d = pts - mean
            total = float(np.einsum("ni,ij,nj->", d, np.linalg.inv(cov), d))
            assert total == pytest.approx(3.0 * n, rel=1e-8)


import numpy as np
import pytest

from multiscan.landmarks import (
    COARSE,
    FINE,
    _grouped_mean_cov,
    dual_grid_groups,
    regularized_inverse,
    split_by_normals,
)


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


def group_keys(groups):
    return [(*cell, level) for cell, level in zip(groups["cells"].tolist(), groups["levels"])]


def stats(points):
    """Mean and 1/n covariance of one point set."""
    means, covs, _ = _grouped_mean_cov(points, np.zeros(len(points), dtype=np.int64), 1)
    return means[0], covs[0]


class TestVoxelizeDual:
    def test_colocated_points_two_levels(self):
        pts = np.tile([0.1, 0.1, 0.1], (10, 1)) + np.linspace(0, 0.01, 10)[:, None]
        groups = dual_grid_groups(pts, coarse_size=2.0, fine_size=0.5, n_min=5)
        assert len(groups["counts"]) == 2
        assert set(groups["levels"]) == {COARSE, FINE}
        assert np.all(groups["counts"] == 10)

    def test_below_threshold_dropped(self):
        pts = np.tile([0.1, 0.1, 0.1], (4, 1))
        assert dual_grid_groups(pts, 2.0, 0.5, n_min=5) is None

    def test_empty_input(self):
        assert dual_grid_groups(np.zeros((0, 3)), 2.0, 0.5, 5) is None

    def test_counts_match_occupancy_oracle(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(0, 10, size=(1000, 3))
        groups = dual_grid_groups(pts, coarse_size=2.0, fine_size=0.5, n_min=5)
        for level, size in ((COARSE, 2.0), (FINE, 0.5)):
            expected = occupancy_oracle(pts, size, 5)
            got = {
                key[:3]: int(count)
                for key, count in zip(group_keys(groups), groups["counts"])
                if key[3] == level
            }
            assert got == expected

    def test_membership_partition_per_level(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-5, 5, size=(600, 3))
        groups = dual_grid_groups(pts, 2.0, 0.5, n_min=3)
        for level in (COARSE, FINE):
            seen = [
                r for rows, lv in zip(group_rows(groups), groups["levels"]) if lv == level
                for r in rows.tolist()
            ]
            assert len(seen) == len(set(seen))

    def test_point_in_at_most_two_landmarks(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1.9, size=(50, 3))
        groups = dual_grid_groups(pts, 2.0, 0.5, n_min=2)
        assert np.bincount(groups["member_row"]).max() <= 2

    def test_permutation_invariant_stats(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 4, size=(400, 3))
        groups_a = dual_grid_groups(pts, 2.0, 0.5, n_min=5)
        perm = rng.permutation(len(pts))
        groups_b = dual_grid_groups(pts[perm], 2.0, 0.5, n_min=5)
        by_key_a = dict(zip(group_keys(groups_a), range(len(groups_a["counts"]))))
        by_key_b = dict(zip(group_keys(groups_b), range(len(groups_b["counts"]))))
        assert by_key_a.keys() == by_key_b.keys()
        for key, g in by_key_a.items():
            h = by_key_b[key]
            assert np.allclose(groups_a["means"][g], groups_b["means"][h], atol=1e-12)
            assert np.allclose(groups_a["covs"][g], groups_b["covs"][h], atol=1e-12)

    def test_owner_pairs_passed_through(self):
        # member rows index the input points
        pts = np.tile([0.2, 0.2, 0.2], (8, 1))
        groups = dual_grid_groups(pts, 2.0, 0.5, n_min=5)
        assert all(set(rows.tolist()) == set(range(8)) for rows in group_rows(groups))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            dual_grid_groups(np.zeros((3, 3)), 0.5, 2.0, 5)


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
        assert dual_grid_groups(np.zeros((1, 3)), 2.0, 0.5, n_min=1) is None
        assert dual_grid_groups(np.zeros((2, 3)), 2.0, 0.5, n_min=1) is not None


class TestRegularizedInverse:
    def test_identity_epsilon_zero(self):
        assert np.allclose(regularized_inverse(np.eye(3), 0.0), np.eye(3))

    def test_rank_deficient_analytic(self):
        out = regularized_inverse(np.diag([1.0, 1.0, 0.0]), 1e-4)
        assert np.allclose(out, np.diag([1 / (1 + 1e-4), 1 / (1 + 1e-4), 1e4]))

    def test_product_is_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            spd = a @ a.T + 0.5 * np.eye(3)
            inv = regularized_inverse(spd, 0.0)
            assert np.allclose(inv @ spd, np.eye(3), atol=1e-9)


class TestTraceIdentity:
    def test_quadratic_sum_equals_3n(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(6, 40))
            pts = rng.normal(size=(n, 3)) * rng.uniform(0.1, 2.0, size=3)
            mean, cov = stats(pts)
            inv = regularized_inverse(cov, 0.0)
            d = pts - mean
            total = float(np.einsum("ni,ij,nj->", d, inv, d))
            assert total == pytest.approx(3.0 * n, rel=1e-8)


def one_landmark(points):
    """Groups dict holding all points as one fine landmark."""
    n = len(points)
    means, covs, _ = _grouped_mean_cov(points, np.zeros(n, dtype=np.int64), 1)
    return {
        "member_row": np.arange(n),
        "member_group": np.zeros(n, dtype=np.int64),
        "counts": np.array([n]),
        "means": means,
        "covs": covs,
        "inv_covs": regularized_inverse(covs, 1e-4),
        "cells": np.zeros((1, 3), dtype=np.int64),
        "levels": [FINE],
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
        out = split_by_normals(groups, pts, normals, np.ones(20), planarity_min=0.5)
        assert out is groups

    def test_opposing_normals_split(self):
        rng = np.random.default_rng(7)
        pts = np.vstack([self.plane_points(10, rng, z=0.0), self.plane_points(10, rng, z=0.02)])
        normals = np.vstack([np.tile([0, 0, 1.0], (10, 1)), np.tile([0, 0, -1.0], (10, 1))])
        out = split_by_normals(one_landmark(pts), pts, normals, np.ones(20), planarity_min=0.5)
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
        out = split_by_normals(one_landmark(pts), pts, normals, np.full(20, 0.1), planarity_min=0.5)
        assert len(out["counts"]) == 1

    def test_matches_per_landmark_oracle(self):
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
        groups = dual_grid_groups(pts, 2.0, 0.5, n_min=5)
        out = split_by_normals(groups, pts, normals, planarity, planarity_min=0.5, n_min=5)
        expected = [
            part
            for rows in group_rows(groups)
            for part in split_oracle(rows, normals, planarity, 0.5, 5)
        ]
        got = group_rows(out)
        assert len(expected) > len(group_rows(groups))  # some landmarks split
        assert len(got) == len(expected)
        for g, (rows_got, rows_exp) in enumerate(zip(got, expected)):
            assert np.array_equal(rows_got, rows_exp)
            mean = pts[rows_exp].mean(axis=0)
            cov = np.cov(pts[rows_exp].T, bias=True)
            assert np.allclose(out["means"][g], mean, atol=1e-12)
            assert np.allclose(out["covs"][g], cov, atol=1e-12)
            inv = np.linalg.inv(cov + 1e-4 * np.eye(3))
            assert np.allclose(out["inv_covs"][g], inv, rtol=1e-9, atol=1e-9)
        assert group_keys(out) == [
            key for key, rows in zip(group_keys(groups), group_rows(groups))
            for _ in split_oracle(rows, normals, planarity, 0.5, 5)
        ]

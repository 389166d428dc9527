import numpy as np
import pytest

from multiscan.downsample import DownsampleConfig, adaptive_downsample, grid_random_filter
from multiscan.geometry import PointCloud


def occupied_cells(points, grid):
    return {tuple(np.floor(p / grid).astype(int)) for p in points}


class TestGridRandomFilter:
    def test_single_cell_keeps_one_member(self):
        pts = np.tile([0.3, 0.3, 0.3], (10, 1)) + np.linspace(0, 0.05, 10)[:, None]
        cloud = PointCloud(points=pts, stamps=np.arange(10.0))
        out = grid_random_filter(cloud, 1.0, seed=3)
        assert len(out) == 1
        assert any(np.allclose(out.points[0], p) for p in pts)

    def test_isolated_points_pass_through(self):
        pts = np.arange(30, dtype=float).reshape(10, 3) * 5.0
        cloud = PointCloud(points=pts)
        out = grid_random_filter(cloud, 1.0, seed=0)
        assert {tuple(p) for p in out.points} == {tuple(p) for p in pts}

    def test_count_matches_occupancy_oracle(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(0, 10, size=(10000, 3))
        cloud = PointCloud(points=pts)
        out = grid_random_filter(cloud, 1.0, seed=1)
        assert len(out) == len(occupied_cells(pts, 1.0))

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(7)
        cloud = PointCloud(points=rng.uniform(0, 5, size=(500, 3)))
        a = grid_random_filter(cloud, 0.5, seed=9)
        b = grid_random_filter(cloud, 0.5, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_keeps_attributes_and_stamp_order(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 3, size=(200, 3))
        cloud = PointCloud(
            points=pts,
            stamps=np.sort(rng.uniform(0, 1, 200)),
            planarity=rng.uniform(0, 1, 200),
        )
        out = grid_random_filter(cloud, 0.5, seed=2)
        assert np.all(np.diff(out.stamps) >= 0.0)
        assert out.planarity is not None and len(out.planarity) == len(out)
        # every survivor is an input point with its own attributes
        idx = [np.argmin(np.linalg.norm(pts - p, axis=1)) for p in out.points]
        assert np.allclose(cloud.planarity[idx], out.planarity)

    def test_empty_cloud(self):
        out = grid_random_filter(PointCloud(points=np.zeros((0, 3))), 1.0)
        assert len(out) == 0


class TestAdaptiveDownsample:
    def test_picks_first_level_reaching_min(self):
        # dense planar sheet: each level yields about (2/size)^2 survivors
        rng = np.random.default_rng(0)
        pts = np.zeros((4000, 3))
        pts[:, :2] = rng.uniform(0, 2.0, size=(4000, 2))
        pts[:, 2] = rng.normal(0, 0.005, 4000)
        cloud = PointCloud(points=pts)
        cfg = DownsampleConfig(min_points=30, trim_range=100.0, seed=1)
        out = adaptive_downsample(cloud, cfg)
        counts = [len(grid_random_filter(cloud, lv, seed=1)) for lv in cfg.levels]
        expected = next((c for c in counts if c >= 30), counts[-1])
        # all points sit inside the trim guard, so no trimming happens and
        # the output is exactly the first level that reached min_points
        assert len(out) == expected
        assert any(c < 30 for c in counts)  # coarser levels really were skipped

    def test_small_cloud_passthrough_finest(self):
        rng = np.random.default_rng(1)
        cloud = PointCloud(points=rng.uniform(0, 5, size=(50, 3)))
        out = adaptive_downsample(cloud, DownsampleConfig(min_points=300, seed=0))
        finest = grid_random_filter(cloud, 0.1, seed=0)
        assert len(out) == len(finest)

    def test_trim_guard_blocks_close_points(self):
        rng = np.random.default_rng(2)
        # 400 isolated cells, all within 1.5 m of the origin
        pts = rng.uniform(-1.5, 1.5, size=(400, 3)) * [1, 1, 0.5]
        pts = pts / np.maximum(np.linalg.norm(pts, axis=1, keepdims=True) / 1.4, 1.0)
        cloud = PointCloud(points=pts)
        cfg = DownsampleConfig(levels=(0.2, 0.1, 0.05, 0.01), min_points=300, trim_range=2.0, seed=0)
        out = adaptive_downsample(cloud, cfg)
        assert len(out) > 300  # nothing beyond trim_range, so no trimming

    def test_trims_far_points_to_min(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(2.0, 20.0, size=(800, 3))
        cloud = PointCloud(points=pts)
        cfg = DownsampleConfig(levels=(8.0, 4.0, 1.0, 0.5), min_points=100, trim_range=2.0, seed=0)
        out = adaptive_downsample(cloud, cfg)
        assert len(out) == 100
        kept_max = np.linalg.norm(out.points, axis=1).max()
        # the removed points were the farthest ones
        full = grid_random_filter(cloud, next(lv for lv in cfg.levels if len(grid_random_filter(cloud, lv, seed=0)) >= 100), seed=0)
        removed = len(full) - 100
        assert removed > 0
        far = np.sort(np.linalg.norm(full.points, axis=1))[-removed:]
        assert kept_max <= far[0] + 1e-12

    def test_subset_invariant(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 10, size=(2000, 3))
        cloud = PointCloud(points=pts)
        out = adaptive_downsample(cloud, DownsampleConfig(min_points=200, seed=5))
        pool = {tuple(p) for p in pts}
        assert all(tuple(p) in pool for p in out.points)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DownsampleConfig(levels=(1.0, 0.5, 0.6, 0.1))
        with pytest.raises(ValueError):
            DownsampleConfig(min_points=0)

    @pytest.mark.parametrize("name, value", [
        # a NaN level passed the order test and failed in the grid packing
        ("levels", (np.nan, 0.5, 0.25, 0.1)),
        ("levels", (1.0, 0.5, 0.25, 0.0)),
        ("min_points", 2.5),
        ("min_points", True),
        ("trim_range", np.nan),
        ("seed", 1.5),
    ])
    def test_config_rejects_values_that_fail_later(self, name, value):
        with pytest.raises(ValueError, match=name):
            DownsampleConfig(**{name: value})

"""Grid random filter with an adaptive four-level resolution scheme.

One real measured point survives per occupied grid cell (no centroid
averaging). The adaptive wrapper walks four grid sizes from coarse to fine
until enough points survive, then trims the farthest points back down while
they remain beyond a distance guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from multiscan.geometry import PointCloud
from multiscan.landmarks import pack_cell_indices, voxel_cell_indices


@dataclass
class DownsampleConfig:
    levels: tuple = (1.0, 0.5, 0.25, 0.1)
    min_points: int = 300
    trim_range: float = 2.0
    seed: int = 0

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        ok = levels.shape == (4,) and np.all(np.isfinite(levels)) and levels[-1] > 0.0
        if not (ok and np.all(np.diff(levels) < 0.0)):
            raise ValueError(
                f"downsample levels must be 4 finite, positive, strictly decreasing "
                f"grid sizes, got {self.levels!r}"
            )
        for name, least in (("min_points", 1), ("seed", 0)):
            value = getattr(self, name)
            integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not (integer and value >= least):
                raise ValueError(f"downsample {name} must be an integer >= {least}, got {value!r}")
        if not (np.isfinite(self.trim_range) and self.trim_range >= 0.0):
            raise ValueError(f"downsample trim_range must be finite and >= 0, got {self.trim_range}")


def grid_random_filter(cloud: PointCloud, grid_size: float, seed: int = 0) -> PointCloud:
    """Keep one uniformly chosen point per occupied cell.

    Selection is deterministic for a given seed; retained points keep their
    stamps and attributes and stay in their original order, so stamp
    monotonicity is preserved.
    """
    if grid_size <= 0.0:
        raise ValueError("grid_size must be positive")
    if len(cloud) == 0:
        return cloud.select(np.zeros(0, dtype=np.int64))
    rng = np.random.default_rng(seed)
    packed = pack_cell_indices(voxel_cell_indices(cloud.points, grid_size))
    # random per-point key; the argmax key within each cell picks the survivor
    keys = rng.random(len(packed))
    order = np.lexsort((keys, packed))
    sorted_ids = packed[order]
    last_of_cell = np.nonzero(np.append(sorted_ids[1:] != sorted_ids[:-1], True))[0]
    chosen = np.sort(order[last_of_cell])
    return cloud.select(chosen)


def adaptive_downsample(cloud: PointCloud, config: DownsampleConfig | None = None) -> PointCloud:
    """Coarse-to-fine grid search, then farthest-point trimming.

    The first level keeping at least min_points wins (the finest level is
    used unconditionally otherwise). Trimming then removes the most distant
    points one at a time while the count exceeds min_points and the current
    farthest point is at least trim_range from the sensor origin.
    """
    config = config or DownsampleConfig()
    filtered = cloud
    for level in config.levels:
        filtered = grid_random_filter(cloud, level, seed=config.seed)
        if len(filtered) >= config.min_points:
            break
    if len(filtered) <= config.min_points:
        return filtered
    ranges = np.linalg.norm(filtered.points, axis=1)
    order = np.argsort(ranges)  # ascending; trim from the far end
    n_keep = len(filtered)
    while n_keep > config.min_points and ranges[order[n_keep - 1]] >= config.trim_range:
        n_keep -= 1
    return filtered.select(np.sort(order[:n_keep]))

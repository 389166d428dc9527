"""Dual-resolution voxelization into per-cell point statistics.

A landmark is the point set of one voxel cell, summarized by its member
count, mean and 1/n covariance: the per-voxel sufficient statistics of
BALM2 (Liu, Liu & Zhang, arXiv:2209.08854). Cells are laid out twice, once
coarse and once fine, so a point can contribute to up to two landmarks.
`point_clusters` computes every such statistic, here and for the point
clusters of keyframe adjustment. This module turns no statistic into a
weight; `adjustment.FrozenLandmarks` alone does.

Landmarks are held as one dict of flat arrays (see `dual_grid_groups`):
every member is a row of the input point stack, the members of one
landmark are contiguous and in ascending row order, and coarse landmarks
come first.
`split_by_normals` maps such a dict to another of the same layout.

Points that never move during a solve (the window's static map points,
keyframe adjustment's anchors or pinned first cloud) are binned once, by
`cell_statistics`, into one statistic per occupied cell at each level.
`dual_grid_groups` then bins only the moving points and merges in the
fixed statistic of every cell they touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# voxel index packing: each shifted index must fit in 20 bits
_PACK_OFFSET = 1 << 19
_PACK_LIMIT = 1 << 20
# the most cells a compacted cell key sorts over in one 16-bit radix pass
_RADIX_SPAN = 1 << 16
# split_by_normals' cone bound: cos 30 degrees (any half-angle below 45 is exact)
_CONE_COS = np.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class VoxelConfig:
    """Grid parameters shared by every landmark-based optimization."""

    coarse_size: float = 2.0
    fine_size: float = 0.5
    n_min: int = 5
    epsilon: float = 1e-4

    def __post_init__(self):
        for name in ("coarse_size", "fine_size", "epsilon"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"voxel {name} must be finite, got {getattr(self, name)}")
        if not self.coarse_size > self.fine_size > 0.0:
            raise ValueError(
                f"voxel sizes must satisfy coarse_size > fine_size > 0, got "
                f"coarse_size={self.coarse_size}, fine_size={self.fine_size}"
            )
        if self.epsilon < 0.0:
            raise ValueError(f"voxel epsilon must be >= 0, got {self.epsilon}")
        integer = isinstance(self.n_min, (int, np.integer)) and not isinstance(self.n_min, bool)
        if not (integer and self.n_min >= 0):
            raise ValueError(f"voxel n_min must be an integer >= 0, got {self.n_min!r}")


def voxel_cell_indices(points: np.ndarray, cell_size: float) -> np.ndarray:
    """Integer cell index per point, floor division anchored at the origin."""
    return np.floor(np.asarray(points, dtype=float) / cell_size).astype(np.int64)


def pack_cell_indices(idx3: np.ndarray) -> np.ndarray:
    """Pack (N, 3) cell indices into sortable int64 ids."""
    shifted = idx3 + _PACK_OFFSET
    if shifted.size and (shifted.min() < 0 or shifted.max() >= _PACK_LIMIT):
        raise ValueError("voxel index out of packable range (scene too large?)")
    return (shifted[:, 0] << 40) | (shifted[:, 1] << 20) | shifted[:, 2]


def point_clusters(points: np.ndarray, starts: np.ndarray):
    """Size, mean and scatter of each run of points that begins at starts.

    starts are ascending and begin at 0. Returns n_c (m,), pbar_c (m, 3)
    and C_c = sum (p - pbar_c)(p - pbar_c)^T (m, 3, 3), two-pass.
    """
    sizes = np.diff(np.append(starts, len(points)))
    means = np.add.reduceat(points, starts, axis=0) / sizes[:, None]
    c = (points - np.repeat(means, sizes, axis=0)).T
    # the six distinct products, each summed per run, mirrored into 3x3
    upper = [np.add.reduceat(c[i] * c[j], starts) for i, j in zip(*np.triu_indices(3))]
    return sizes, means, np.stack(upper, axis=1)[:, [[0, 1, 2], [1, 3, 4], [2, 4, 5]]]


class CellStatistics(NamedTuple):
    """The occupied cells of one grid level, by ascending packed key, with
    the count, mean and scatter of the points in each (`point_clusters`).
    counts, means and scatter end with one more, empty cell (all zeros),
    the one index -1 reads."""

    keys: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    scatter: np.ndarray


def _sorted_cells(points: np.ndarray, cell_size: float):
    """Stable order of points by packed cell key, the packed key of each
    occupied cell in that order, and the start of each cell's run.

    The packed ids stay the cells' identity; the sort reads a compacted
    key, each axis index less its minimum, laid out lexicographically over
    the occupied box. It is monotone in the packed key, so the order is
    the one a stable sort of the packed keys gives. numpy sorts integers of
    16 bits or fewer by radix when asked for a stable sort, in time linear
    in their count, so a box of at most 2^16 cells takes one radix pass; a
    larger one the comparison sort of the compacted key.
    """
    idx = voxel_cell_indices(np.ascontiguousarray(points.T), cell_size)  # one row per axis
    lo, hi = (idx.min(axis=1), idx.max(axis=1)) if idx.size else (np.zeros(3, np.int64),) * 2
    pack_cell_indices(np.stack([lo, hi]))  # the box's corners are packable, so is every cell
    span = hi - lo + 1
    key = ((idx[0] - lo[0]) * span[1] + (idx[1] - lo[1])) * span[2] + (idx[2] - lo[2])
    if span.prod() <= _RADIX_SPAN:
        key = key.astype(np.min_scalar_type(span.prod() - 1))
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
    return order, pack_cell_indices(idx[:, order[starts]].T), starts


def cell_statistics(points: np.ndarray, voxel: VoxelConfig):
    """The coarse and the fine `CellStatistics` of a point set, None for no points."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if not len(points):
        return None
    levels = []
    for size in (voxel.coarse_size, voxel.fine_size):
        order, keys, starts = _sorted_cells(points, size)
        counts, means, scatter = point_clusters(points[order], starts)
        levels.append(CellStatistics(
            keys, np.append(counts, 0), np.vstack([means, np.zeros((1, 3))]),
            np.concatenate([scatter, np.zeros((1, 3, 3))]),
        ))
    return levels[0], levels[1]


def _landmarks(points: np.ndarray, member_row: np.ndarray, member_group: np.ndarray,
               fixed=None) -> dict:
    """The landmark dict of members whose groups are contiguous runs.

    fixed, when given, is each landmark's fixed part (counts, means and
    scatter; count 0 for none). It is merged into the statistics and kept
    as the key fixed."""
    starts = np.flatnonzero(np.diff(member_group, prepend=-1))
    counts, means, scatter = point_clusters(np.take(points, member_row, axis=0), starts)
    groups = {"member_row": member_row, "member_group": member_group}
    if fixed is not None:
        fixed_counts, fixed_means, fixed_scatter = fixed
        total = counts + fixed_counts
        gap = fixed_means - means
        # the parallel-axis merge; a landmark without fixed points keeps
        # its statistics bit for bit
        scatter = scatter + fixed_scatter + (
            (counts * fixed_counts / total)[:, None, None] * gap[:, :, None] * gap[:, None, :]
        )
        means = means + (fixed_counts / total)[:, None] * gap
        counts = total
        groups["fixed"] = fixed
    groups.update(counts=counts, means=means, covs=scatter / counts[:, None, None])
    return groups


def _level_groups(points: np.ndarray, cell_size: float, n_min: int, fixed=None):
    """Sort points into cells; return member rows/gid for cells with > n_min points.

    Returns (rows, member_gid, group_counts, fixed_at) where rows indexes
    into points and member_gid maps each row to a retained group. The sort
    is stable, so each group's rows are in ascending order. With fixed, the
    `CellStatistics` of fixed points at this level, a cell's fixed points
    count toward n_min and fixed_at is each group's cell among them (-1 for
    none); without, fixed_at is all -1.
    """
    order, keys, starts = _sorted_cells(points, cell_size)
    counts = np.diff(starts, append=len(points))
    fixed_at = np.full(len(counts), -1)
    total = counts
    if fixed is not None:
        at = np.minimum(np.searchsorted(fixed.keys, keys), len(fixed.keys) - 1)
        fixed_at = np.where(fixed.keys[at] == keys, at, -1)
        total = counts + fixed.counts[fixed_at]
    keep = total > n_min
    kept = counts[keep]
    return order[np.repeat(keep, counts)], np.repeat(np.arange(len(kept)), kept), kept, fixed_at[keep]


def dual_grid_groups(points: np.ndarray, voxel: VoxelConfig, fixed=None):
    """Dual voxelization into landmark statistics, as one dict of flat arrays.

    Returns None when no cell holds more than voxel.n_min points. Keys:
    member_row (into the input points, all retained groups concatenated),
    member_group, counts, means and covs; coarse landmarks come first. Each
    landmark's members are contiguous and in ascending row order, so the
    members it takes from any contiguous block of rows (one scan of a
    stack) form one run.

    fixed, the `cell_statistics` of points that do not move, adds them to
    the cells that points touch: counts, means and covs cover both, each
    cell's fixed points count toward n_min, and one more key gives each
    landmark's fixed part, fixed = (counts, means, scatter), count 0 for
    none. Cells that only fixed points occupy are no landmarks.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    sizes = (voxel.coarse_size, voxel.fine_size)
    (coarse_rows, coarse_gid, coarse_counts, coarse_at), (fine_rows, fine_gid, _, fine_at) = (
        _level_groups(points, size, voxel.n_min, cells)
        for size, cells in zip(sizes, fixed or (None, None))
    )
    member_row = np.concatenate([coarse_rows, fine_rows])
    if len(member_row) == 0:
        return None
    member_group = np.concatenate([coarse_gid, fine_gid + len(coarse_counts)])
    if fixed is None:
        return _landmarks(points, member_row, member_group)
    coarse, fine = fixed
    parts = tuple(np.concatenate([c[coarse_at], f[fine_at]]) for c, f in zip(coarse[1:], fine[1:]))
    return _landmarks(points, member_row, member_group, parts)


def split_by_normals(
    groups: dict,
    points: np.ndarray,
    normals: np.ndarray,
    planarities: np.ndarray,
    planarity_min: float,
    n_min: int,
) -> dict:
    """Split planar landmarks whose member normals point both ways.

    Thin structures scanned from both sides (walls, signs) collapse front
    and back surfaces into one voxel. If a landmark's members are planar on
    average and their normals fall into two opposing clusters, the set is
    partitioned by the sign of the dot product with the dominant normal.
    A landmark splits only when the normal sums of its two sides have a
    negative dot product and both halves keep more than n_min members;
    otherwise it stays whole. So does a landmark with any member whose
    planarity is not finite or whose normal is shorter than 0.5 (undefined),
    or with a fixed part, whose points carry no normals.

    A cone bound settles most landmarks before the normal scatter and its
    eigenvector: a landmark whose every member normal n lies within 30
    degrees of its first member's n0, n . n0 > cos 30 |n| |n0|, cannot
    split. Every partial sum of its normals lies in that convex cone, so
    the two side sums meet at under 60 degrees and their dot product is
    either 0 (one side empty) or at least half the product of their norms,
    far from rounding. Any half-angle below 45 degrees would be exact. Only
    the landmarks the bound leaves open are tested in full, each on its
    members in their order, so every answer is bitwise the full test's.

    points, normals and planarities are aligned with the rows that
    groups["member_row"] indexes. The result has the layout of
    `dual_grid_groups`; the two halves of a split landmark take its place
    in the order, the half holding its first member first. When nothing
    splits the result is groups itself. The regrouping is a stable sort,
    so each half keeps its members in ascending row order, as every
    landmark of the input has them, and every landmark's statistics are
    recomputed as `dual_grid_groups` computes them, fixed part included:
    an unsplit landmark's come out bitwise equal to its input's.
    """
    rows, gid, fixed = groups["member_row"], groups["member_group"], groups.get("fixed")
    n_groups = len(groups["counts"])
    counts = np.bincount(gid, minlength=n_groups)  # members only, without fixed parts
    normals = np.asarray(normals, dtype=float)
    plan = np.asarray(planarities, dtype=float).take(rows)
    finite = np.isfinite(plan)
    first = np.cumsum(counts) - counts

    def members(chosen):
        """Positions of the chosen landmarks' members, in order, and their landmarks."""
        at = np.flatnonzero(chosen[gid])
        return at, gid[at]

    def any_member(values, of):
        return np.bincount(of, weights=values, minlength=n_groups) > 0

    mean_plan = np.bincount(gid, weights=np.where(finite, plan, 0.0), minlength=n_groups) / counts
    planar = mean_plan >= planarity_min
    if fixed is not None:
        planar &= fixed[0] == 0
    # the cone bound, on the members of planar landmarks; lead is each one's
    # first member among them
    at, of = members(planar)
    lead = np.searchsorted(at, first[of])
    n = normals.take(rows[at], axis=0)
    length = np.linalg.norm(n, axis=1)
    undefined = ~finite[at] | (length < 0.5)
    outside = np.einsum("ni,ni->n", n, n[lead]) <= _CONE_COS * length * length[lead]
    open_ = planar & ~any_member(undefined, of) & any_member(outside, of)
    if not np.any(open_):
        return groups

    # the full test on the open landmarks' members; local numbers those landmarks 0, 1, ...
    at, of = members(open_)
    n = normals.take(rows[at], axis=0)
    local = (np.cumsum(open_) - 1)[of]

    def per_group(values):
        return np.bincount(local, weights=values)

    # dominant direction: principal eigenvector of the normal scatter,
    # sign-invariant so +n and -n vote for the same axis
    scatter = np.stack(
        [per_group(n[:, a] * n[:, b]) for a in range(3) for b in range(3)], axis=1
    ).reshape(-1, 3, 3)
    dominant = np.linalg.eigh(scatter)[1][:, :, -1]
    side_open = np.einsum("ni,ni->n", n, dominant[local]) >= 0.0
    n_pos = per_group(side_open)
    sum_pos = np.stack([per_group(np.where(side_open, n[:, a], 0.0)) for a in range(3)], axis=1)
    sum_neg = np.stack([per_group(np.where(side_open, 0.0, n[:, a])) for a in range(3)], axis=1)
    split = np.zeros(n_groups, dtype=bool)
    split[open_] = (np.minimum(n_pos, counts[open_] - n_pos) > n_min) & (
        np.einsum("gi,gi->g", sum_pos, sum_neg) < 0.0
    )
    if not np.any(split):
        return groups

    # the first member's half comes first, so the outcome does not depend on
    # the eigenvector's arbitrary sign
    side = np.zeros(len(gid), dtype=bool)
    side[at] = side_open
    second_half = split[gid] & (side != side[first][gid])
    width = 1 + split.astype(np.int64)
    new_gid = (np.cumsum(width) - width)[gid] + second_half
    order = np.argsort(new_gid, kind="stable")
    parent = np.repeat(np.arange(n_groups), width)  # a split landmark's fixed part is empty
    fixed = None if fixed is None else tuple(part[parent] for part in fixed)
    return _landmarks(np.asarray(points, dtype=float), rows[order], new_gid[order], fixed)

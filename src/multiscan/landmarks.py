"""Dual-resolution voxelization and per-voxel Gaussian landmark statistics.

A landmark is the point set of one voxel cell, summarized by its mean and
covariance. Cells are laid out twice, once coarse and once fine, so a point
can contribute to up to two landmarks. Covariances use 1/n normalization,
which makes the per-landmark quadratic cost at the statistics' own points
exactly 3 (trace identity) and gives a strong analytic test hook.

Landmarks are held as one dict of flat arrays (see `dual_grid_groups`):
every member is a row of the input point stack, and the members of one
landmark are contiguous. `split_by_normals` maps such a dict to another of
the same layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# voxel index packing: each shifted index must fit in 20 bits
_PACK_OFFSET = 1 << 19
_PACK_LIMIT = 1 << 20

COARSE = "coarse"
FINE = "fine"

DEFAULT_COARSE_SIZE = 2.0
DEFAULT_FINE_SIZE = 0.5
DEFAULT_N_MIN = 5
DEFAULT_EPSILON = 1e-4


@dataclass(frozen=True)
class VoxelConfig:
    """Grid parameters shared by every landmark-based optimization."""

    coarse_size: float = DEFAULT_COARSE_SIZE
    fine_size: float = DEFAULT_FINE_SIZE
    n_min: int = DEFAULT_N_MIN
    epsilon: float = DEFAULT_EPSILON


def voxel_cell_indices(points: np.ndarray, cell_size: float) -> np.ndarray:
    """Integer cell index per point, floor division anchored at the origin."""
    return np.floor(np.asarray(points, dtype=float) / cell_size).astype(np.int64)


def pack_cell_indices(idx3: np.ndarray) -> np.ndarray:
    """Pack (N, 3) cell indices into sortable int64 ids."""
    shifted = idx3 + _PACK_OFFSET
    if shifted.size and (shifted.min() < 0 or shifted.max() >= _PACK_LIMIT):
        raise ValueError("voxel index out of packable range (scene too large?)")
    return (shifted[:, 0] << 40) | (shifted[:, 1] << 20) | shifted[:, 2]


def regularized_inverse(cov: np.ndarray, epsilon: float) -> np.ndarray:
    """(cov + epsilon * I)^-1, symmetrized, for one (3, 3) or a stack (..., 3, 3).

    epsilon > 0 guarantees SPD.
    """
    inv = np.linalg.inv(np.asarray(cov, dtype=float) + epsilon * np.eye(3))
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def _grouped_mean_cov(points: np.ndarray, gid: np.ndarray, n_groups: int):
    """Vectorized per-group mean and 1/n covariance (two-pass, stable)."""
    counts = np.bincount(gid, minlength=n_groups).astype(float)
    sums = np.stack([np.bincount(gid, weights=points[:, d], minlength=n_groups) for d in range(3)], axis=1)
    means = sums / counts[:, None]
    centered = points - means[gid]
    covs = np.empty((n_groups, 3, 3))
    for a in range(3):
        for b in range(a, 3):
            s = np.bincount(gid, weights=centered[:, a] * centered[:, b], minlength=n_groups)
            covs[:, a, b] = s / counts
            covs[:, b, a] = covs[:, a, b]
    return means, covs, counts


def _level_groups(points: np.ndarray, cell_size: float, n_min: int):
    """Sort points into cells; return member rows/gid for cells with > n_min points.

    Yields (rows, member_gid, group_cells, group_counts) where rows indexes
    into points, member_gid maps each row to a retained group, and
    group_cells holds the (ix, iy, iz) of each retained group.
    """
    idx3 = voxel_cell_indices(points, cell_size)
    packed = pack_cell_indices(idx3)
    order = np.argsort(packed, kind="stable")
    _, starts, counts = np.unique(packed[order], return_index=True, return_counts=True)
    keep = counts > n_min
    group_of_pos = np.repeat(np.arange(len(counts)), counts)
    pos_keep = keep[group_of_pos]
    rows = order[pos_keep]
    new_gid = np.cumsum(keep) - 1
    member_gid = new_gid[group_of_pos[pos_keep]]
    group_cells = idx3[order[starts[keep]]]
    return rows, member_gid, group_cells, counts[keep]


def dual_grid_groups(
    points: np.ndarray,
    coarse_size: float = DEFAULT_COARSE_SIZE,
    fine_size: float = DEFAULT_FINE_SIZE,
    n_min: int = DEFAULT_N_MIN,
    epsilon: float = DEFAULT_EPSILON,
):
    """Dual voxelization into landmarks, as one dict of flat arrays.

    Returns None when no cell exceeds n_min. Keys: member_row (into the
    input points, all retained groups concatenated), member_group, counts,
    means, covs, inv_covs, cells (ix iy iz per group), levels.
    """
    if not coarse_size > fine_size > 0.0:
        raise ValueError("require coarse_size > fine_size > 0")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    all_rows, all_gid, all_cells, all_counts, levels = [], [], [], [], []
    base = 0
    if len(points):
        for level, size in ((COARSE, coarse_size), (FINE, fine_size)):
            rows, gid, cells, counts = _level_groups(points, size, n_min)
            if len(counts) == 0:
                continue
            all_rows.append(rows)
            all_gid.append(gid + base)
            all_cells.append(cells)
            all_counts.append(counts)
            levels.extend([level] * len(counts))
            base += len(counts)
    if base == 0:
        return None
    member_row = np.concatenate(all_rows)
    member_group = np.concatenate(all_gid)
    counts = np.concatenate(all_counts)
    means, covs, _ = _grouped_mean_cov(points[member_row], member_group, base)
    return {
        "member_row": member_row,
        "member_group": member_group,
        "counts": counts,
        "means": means,
        "covs": covs,
        "inv_covs": regularized_inverse(covs, epsilon),
        "cells": np.vstack(all_cells),
        "levels": levels,
    }


def split_by_normals(
    groups: dict,
    points: np.ndarray,
    normals: np.ndarray,
    planarities: np.ndarray,
    planarity_min: float,
    n_min: int = DEFAULT_N_MIN,
    epsilon: float = DEFAULT_EPSILON,
) -> dict:
    """Split planar landmarks whose member normals point both ways.

    Thin structures scanned from both sides (walls, signs) collapse front
    and back surfaces into one voxel. If a landmark's members are planar on
    average and their normals fall into two opposing clusters, the set is
    partitioned by the sign of the dot product with the dominant normal
    and each half gets fresh statistics. Both halves must keep more than
    n_min members, otherwise the landmark stays whole. So does a landmark
    with any member whose planarity is not finite or whose normal is
    shorter than 0.5 (undefined).

    points, normals and planarities are aligned with the rows that
    groups["member_row"] indexes. The result has the layout of
    `dual_grid_groups`; the two halves of a split landmark take its place
    in the order, the half holding its first member first.
    """
    rows, gid, counts = groups["member_row"], groups["member_group"], groups["counts"]
    n_groups = len(counts)
    n = np.asarray(normals, dtype=float)[rows]
    plan = np.asarray(planarities, dtype=float)[rows]

    def per_group(values):
        return np.bincount(gid, weights=values, minlength=n_groups)

    finite = np.isfinite(plan)
    undefined = ~finite | (np.linalg.norm(n, axis=1) < 0.5)
    candidate = (per_group(undefined) == 0) & (
        per_group(np.where(finite, plan, 0.0)) / counts >= planarity_min
    )
    # dominant direction: principal eigenvector of the normal scatter,
    # sign-invariant so +n and -n vote for the same axis
    scatter = np.stack(
        [per_group(n[:, a] * n[:, b]) for a in range(3) for b in range(3)], axis=1
    ).reshape(-1, 3, 3)
    dominant = np.zeros((n_groups, 3))
    if np.any(candidate):
        dominant[candidate] = np.linalg.eigh(scatter[candidate])[1][:, :, -1]
    side = np.einsum("ni,ni->n", n, dominant[gid]) >= 0.0
    n_pos = per_group(side)
    sum_pos = np.stack([per_group(np.where(side, n[:, a], 0.0)) for a in range(3)], axis=1)
    sum_neg = np.stack([per_group(np.where(side, 0.0, n[:, a])) for a in range(3)], axis=1)
    split = (
        candidate
        & (np.minimum(n_pos, counts - n_pos) > n_min)
        & (np.einsum("gi,gi->g", sum_pos, sum_neg) < 0.0)
    )
    if not np.any(split):
        return groups

    # the first member's half comes first, so the outcome does not depend on
    # the eigenvector's arbitrary sign
    first = np.cumsum(counts) - counts
    second_half = split[gid] & (side != side[first][gid])
    width = 1 + split.astype(np.int64)
    new_gid = (np.cumsum(width) - width)[gid] + second_half
    order = np.argsort(new_gid, kind="stable")
    member_row, member_group = rows[order], new_gid[order]
    parent = np.repeat(np.arange(n_groups), width)
    means = groups["means"][parent]
    covs = groups["covs"][parent]
    inv_covs = groups["inv_covs"][parent]
    fresh = split[parent]
    in_fresh = fresh[member_group]
    local = np.cumsum(fresh) - 1
    means[fresh], covs[fresh], _ = _grouped_mean_cov(
        np.asarray(points, dtype=float)[member_row[in_fresh]],
        local[member_group[in_fresh]],
        int(fresh.sum()),
    )
    inv_covs[fresh] = regularized_inverse(covs[fresh], epsilon)
    return {
        "member_row": member_row,
        "member_group": member_group,
        "counts": np.bincount(member_group, minlength=len(parent)),
        "means": means,
        "covs": covs,
        "inv_covs": inv_covs,
        "cells": groups["cells"][parent],
        "levels": [groups["levels"][g] for g in parent],
    }

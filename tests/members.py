"""Per-member references over the landmark engine, shared by the adjustment
and pipeline tests."""

import copy

import numpy as np

from multiscan.adjustment import MultiScanSystem, freeze_landmarks


def frozen_groups(system, params):
    """The landmarks a freeze of system at params bins: `freeze_landmarks`
    of its moving points, their normals turned by their poses."""
    b = system.bodies
    normals = None
    if b.normals is not None:
        normals = np.einsum("nij,nj->ni", system.pose_table(params).rot[b.pose], b.normals)
    return freeze_landmarks(system.world_points(params), system.voxel, system.fixed_cells,
                            normals, b.planarity, system.planarity_min)


def per_member(system, fixed_points, frozen):
    """system frozen at frozen with every member a cluster of one, as one
    row per member: its fixed points join its moving points as points at
    one more pose, the identity, which no band holds, and every point is a
    body of its own. The landmarks are those of the stacked points,
    fixed-only cells included; the dense rows are the system's. The copy's
    clusters at that last pose, `len(system.bodies.band)`, are the fixed
    points', each one's sensor-frame point its world position; they carry
    no normal, so their landmarks stay whole, as a fixed part keeps its own."""
    b = system.bodies
    n = len(b.points) + len(fixed_points)
    bodies = b._replace(
        points=np.vstack([b.points, fixed_points]),
        pose=np.concatenate([b.pose, np.full(len(fixed_points), len(b.band))]),
        body=np.arange(n),
        band=np.append(b.band, -1),
        weights=np.vstack([b.weights, np.zeros(b.weights.shape[1])]),
    )
    if b.normals is not None:
        bodies = bodies._replace(normals=np.vstack([b.normals, np.zeros((len(fixed_points), 3))]),
                                 planarity=np.append(b.planarity, np.full(len(fixed_points), np.nan)))
    ref = copy.copy(system)
    MultiScanSystem.__init__(ref, bodies, np.zeros((0, 3)), system.voxel, system.stop_steps,
                             system.planarity_min)

    def pose_table(params):
        table = system.pose_table(params)
        return table._replace(rot=np.concatenate([table.rot, np.eye(3)[None]]),
                              trans=np.vstack([table.trans, np.zeros(3)]))

    def levers(params):
        out = system.levers(params)
        return np.concatenate([out, np.zeros((1,) + out.shape[1:])])

    ref.pose_table, ref.levers = pose_table, levers
    ref.freeze(frozen)
    return ref

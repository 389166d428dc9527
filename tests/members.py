"""Per-member references over the landmark engine, shared by the adjustment
and pipeline tests."""

import copy
from types import SimpleNamespace

import numpy as np

from multiscan.adjustment import MultiScanSystem, freeze_landmarks
from multiscan.geometry import rotvec_to_matrix


def frozen_groups(system, params):
    """The landmarks a freeze of system at params bins: `freeze_landmarks`
    of its moving points, each seen from its pose's position when the
    system splits landmarks."""
    origins = None
    if system.planarity_min is not None:
        origins = system.pose_table(params).trans[system.bodies.pose]
    groups, _ = freeze_landmarks(system.world_points(params), system.voxel, system.fixed_cells,
                                 origins, system.planarity_min)
    return groups


def per_member(system, fixed_points, frozen):
    """system frozen at frozen with every member a cluster of one, as one
    row per member: its fixed points join its moving points as points at
    one more pose, which one more parameter block moves, held at zero, so
    that the pose is the identity; every point is a body of its own. The
    landmarks are those of the stacked points, fixed-only cells included;
    the dense rows are the system's. The copy takes the system's
    parameters and gives its J^T J and J^T r over their columns alone: a
    fixed point's row has no motion there, and enters them only through
    its landmark's mean. The copy's clusters at that last pose,
    `len(system.bodies.band)`, are the fixed points', each one's
    sensor-frame point its world position. The copy splits no landmark, so
    each that holds fixed points stays whole, as a fixed part keeps its
    own; it serves systems that split none."""
    assert system.planarity_min is None, "the per-member copy splits no landmark"
    b = system.bodies
    n, n_params = len(b.points) + len(fixed_points), len(system.stop_steps)
    extra = n_params // 6  # the block that moves the fixed points
    bodies = b._replace(
        points=np.vstack([b.points, fixed_points]),
        pose=np.concatenate([b.pose, np.full(len(fixed_points), len(b.band))]),
        body=np.arange(n),
        band=np.append(b.band, len(b.rotations)),
        rotations=np.vstack([b.rotations, np.full(b.rotations.shape[1], extra)]),
        positions=np.vstack([b.positions, np.full(b.positions.shape[1], extra)]),
        weights=np.vstack([b.weights, np.eye(1, b.weights.shape[1])]),
    )
    ref = copy.copy(system)
    MultiScanSystem.__init__(ref, bodies, np.zeros((0, 3)), system.voxel,
                             np.append(system.stop_steps, np.ones(6)))

    def pose_table(params):
        table = system.pose_table(params[:n_params])
        return table._replace(rot=np.concatenate([table.rot, rotvec_to_matrix(params[None, -6:-3])]),
                              trans=np.vstack([table.trans, params[-3:]]))

    def levers(params):
        out = system.levers(params[:n_params])
        return np.concatenate([out, np.zeros((1,) + out.shape[1:])])

    def dense_jacobian(params, turns):
        out = system.dense_jacobian(params[:n_params], turns[:-1])
        return np.hstack([out, np.zeros((len(out), 6))])

    def extended(params):
        return np.append(params, np.zeros(6))

    def linearize(params):
        lin = MultiScanSystem.linearize(ref, extended(params))
        return SimpleNamespace(jtj=lin.jtj[:n_params, :n_params], jtr=lambda r: lin.jtr(r)[:n_params])

    ref.pose_table, ref.levers = pose_table, levers
    ref.dense_rows = lambda params: system.dense_rows(params[:n_params])
    ref.dense_jacobian = dense_jacobian
    ref.residuals = lambda params: MultiScanSystem.residuals(ref, extended(params))
    ref.linearize = linearize
    ref.freeze(extended(frozen))
    return ref

"""Central-secant checks shared by the adjustment and pipeline tests."""

import numpy as np


def assert_normal_equations_match_secant_jacobian(system, at):
    # J^T J and J^T r equal the products of a Jacobian built column by
    # column from central secants of the residuals
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

"""Independent correctness check of a fine-grid solution.

The residual R = F - sum_l K_l U G_l^T is formed densely with numpy and
scipy sparse products from the operator's stored matrices; no factored
arithmetic of ``sglowrank.lowrank`` is used.
"""

from __future__ import annotations

import numpy as np


def dense_relative_residual(operator, solution) -> float:
    """||F - sum_l K_l U G_l^T||_F / ||F||_F for U = Y Z^T of ``solution``."""
    F = np.asarray(operator.rhs.Y) @ np.asarray(operator.rhs.Z).T
    U = np.asarray(solution.Y) @ np.asarray(solution.Z).T
    R = F.copy()
    for G, K in operator.terms:
        # (K U) G^T == (G (K U)^T)^T keeps both products sparse-times-dense
        R -= (G @ (K @ U).T).T
    return float(np.linalg.norm(R) / np.linalg.norm(F))

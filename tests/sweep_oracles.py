"""Sequential sweeps over a step table, one grid point at a time.

The production sweeps compose the step maps by a prefix scan
(``chronoslyap.transition.scan_maps``); these loops apply them in grid
order and serve as the differential oracles for it.
"""

import numpy as np


def forward_sweep_loop(F: np.ndarray, base_index: int = 0) -> np.ndarray:
    """stack[i+1] = F[i] @ stack[i] from stack[base_index] = I; NaN before
    the base."""
    G, n = len(F) + 1, F.shape[1]
    stack = np.full((G, n, n), np.nan)
    stack[base_index] = np.eye(n)
    for i in range(base_index, G - 1):
        stack[i + 1] = F[i] @ stack[i]
    return stack


def backward_gramian_loop(F: np.ndarray, K: np.ndarray) -> np.ndarray:
    """P_i = F_i^T P_{i+1} F_i + K_i from P_{G-1} = 0, symmetrized at every
    step."""
    G, n = len(F) + 1, F.shape[1]
    P = np.zeros((G, n, n))
    for i in range(G - 2, -1, -1):
        Pi = F[i].T @ P[i + 1] @ F[i] + K[i]
        P[i] = 0.5 * (Pi + Pi.T)
    return P

"""Magnitude pruning for the sparse architectures (SIGMA, MAGMA).

Bifrost's evaluation prunes AlexNet to fixed sparsity ratios (Figure 9);
:func:`prune_to_sparsity` produces the deterministically pruned weights
the Bifrost API computes with on a sparse configuration.  The cycle
models read the configured ratio, not the tensor, so no bitmap encoding
of the pruned weights is modelled.
"""

from __future__ import annotations

from repro.errors import SimulationError


def prune_to_sparsity(weights, sparsity_ratio: int):
    """Magnitude-prune ``weights`` so ``sparsity_ratio`` percent are zero.

    The smallest-magnitude elements are zeroed, matching the standard
    pruning recipe the paper's Figure 9 assumes.  The input is not
    modified.  ``sparsity_ratio`` is an integer percentage in [0, 100].
    """
    import numpy as np

    if not 0 <= sparsity_ratio <= 100:
        raise SimulationError(
            f"sparsity_ratio must be in [0, 100], got {sparsity_ratio}"
        )
    pruned = np.array(weights, dtype=np.float64, copy=True)
    if sparsity_ratio == 0:
        return pruned
    flat = pruned.reshape(-1)
    n_zero = int(round(flat.size * sparsity_ratio / 100.0))
    if n_zero >= flat.size:
        return np.zeros_like(pruned)
    if n_zero == 0:
        return pruned
    order = np.argsort(np.abs(flat), kind="stable")
    flat[order[:n_zero]] = 0.0
    return pruned

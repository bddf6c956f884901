"""The localizer's forward pass as one plain allocating expression.

``DelayFaultLocalizer`` serves from cached per-graph operators stacked by
segment offsets, and writes every intermediate into reused scratch buffers
through ``out=``. This oracle builds each operator afresh, packs the batch
with ``scipy.sparse.block_diag`` and lets numpy allocate every
intermediate. The optimized path promises the same floats, so tests compare
the two bitwise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from m3d_fault_loc.graph.schema import CircuitGraph
from m3d_fault_loc.model.aggregate import build_in_neighbor_mean
from m3d_fault_loc.model.localizer import DelayFaultLocalizer


def forward_reference(
    model: DelayFaultLocalizer, graphs: Sequence[CircuitGraph]
) -> list[np.ndarray]:
    """Per-graph logits from one stacked forward over fresh arrays."""
    sizes = [g.num_nodes for g in graphs]
    x = np.concatenate([g.x.astype(np.float64) for g in graphs], axis=0)
    m = sp.block_diag([build_in_neighbor_mean(g) for g in graphs], format="csr")
    p = model.params
    mx = m @ x
    a1 = x @ p["W1s"] + mx @ p["W1n"] + p["b1"]
    h1 = np.maximum(a1, 0.0)
    mh1 = m @ h1
    a2 = h1 @ p["W2s"] + mh1 @ p["W2n"] + p["b2"]
    h2 = np.maximum(a2, 0.0)
    logits = (np.einsum("nh,ho->no", h2, p["w3"]) + p["b3"]).ravel()
    return np.split(logits, np.cumsum(sizes)[:-1])

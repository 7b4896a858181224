"""Integer-key edge routines shared by the morphing and transfer layers.

An edge (a, b) between node ids below ``n`` is keyed by the int64 scalar
``a * n + b``.  Sorting keys orders edges lexicographically, so one
``np.unique``, ``argsort`` or ``searchsorted`` over scalars replaces a
structured sort of (k, 2) rows or a Python set of tuples.
"""

from __future__ import annotations

import numpy as np


def directed_edges(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sources, targets) of every triangle's three directed edges; entry
    ``3 * t + j`` joins triangle ``t``'s local vertices ``j`` and
    ``(j + 1) % 3``."""
    return triangles.ravel(), triangles[:, [1, 2, 0]].ravel()


def edge_keys(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Scalar key ``a * n + b`` of each edge (a, b); ids must lie below n."""
    return a.astype(np.int64) * n + b


def boundary_edges(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edges of exactly one triangle as (owner ids, slots), owner-sorted;
    slot ``j`` joins the owner's local vertices ``j`` and ``(j + 1) % 3``."""
    n = int(triangles.max(initial=0)) + 1
    src, dst = directed_edges(triangles)
    undirected = edge_keys(np.minimum(src, dst), np.maximum(src, dst), n)
    _, inverse, counts = np.unique(undirected, return_inverse=True,
                                   return_counts=True)
    single = np.flatnonzero(counts[inverse] == 1)
    return single // 3, single % 3

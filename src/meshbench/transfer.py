"""Finite-element field transfer between planar triangulations.

For every target point the containing source triangle is located through a
uniform-grid spatial index and linear (P1) barycentric weights are stored.
The point of a triangulated region nearest to an outside point lies on one
of its boundary edges (the edges of exactly one triangle), so a target no
triangle contains is snapped onto the nearest boundary edge: it gets the
weights ``(1 - t, t)`` on that edge's two vertices.  A target farther out
than a tolerance (a fraction of the source bounding-box diagonal) is an
error.  The snap looks up a second uniform grid, of the boundary edges'
bounding boxes grown by that tolerance, so a target meets only the edges
that can lie within reach, and still gets the all-edge scan's nearest
edge and tie-break.  Applying the operator to a per-vertex field then
evaluates the source's piecewise-linear interpolant at each target, which
reproduces affine fields exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .edges import boundary_edges
from .errors import IndexOutOfRange, PointOutsideDomain, ShapeMismatch

#: default snap tolerance (fraction of the source bounding-box diagonal);
#: coincident domains leak only by rounding, so the default is tight
DEFAULT_SNAP_TOL = 1e-8

#: a barycentric coordinate this small (relative) still counts as inside
_INSIDE_EPS = 1e-12


@dataclass(frozen=True)
class TransferOperator:
    """P1 interpolation weights from one triangulation onto target points."""

    element_ids: np.ndarray    # (k,) containing (or snapped-to) triangle ids
    vertex_ids: np.ndarray     # (k, 3) source vertex ids of those triangles
    weights: np.ndarray        # (k, 3) barycentric weights, rows sum to 1
    n_source_vertices: int


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group id and position within the group of every entry of
    consecutive groups with the given sizes."""
    group = np.repeat(np.arange(len(counts)), counts)
    starts = np.cumsum(counts) - counts
    return group, np.arange(len(group)) - starts[group]


def _corners(nodes: np.ndarray, triangles: np.ndarray) -> list[np.ndarray]:
    """Positions of every triangle's three vertices, as three (m, 2)
    arrays; ``np.take`` gathers rows several times faster than indexing."""
    return [np.take(nodes, triangles[:, j], axis=0) for j in range(3)]


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative keys below
    2**32, as two stable passes over 16-bit digits (low, then high), each
    of which numpy sorts by radix."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    high = (keys[order] >> 16).astype(np.uint16)
    return order[np.argsort(high, kind="stable")]


class _UniformGrid:
    """Bins boxes (of triangles or edges) into a uniform grid over the box
    ``[lo, hi]``, about one cell per box.

    Compressed rows: cell ``c`` holds ``items[offsets[c]:offsets[c + 1]]``,
    the ids of the boxes that overlap it, ascending.  Points and boxes
    outside ``[lo, hi]`` are clipped to its border cells.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, box_lo: np.ndarray,
                 box_hi: np.ndarray):
        self.lo = lo
        extent = np.maximum(hi - lo, 1e-300)
        self.ncell = max(1, int(np.sqrt(len(box_lo))))
        self.cell_size = extent / self.ncell

        lo_cells = self._cell_of(box_lo)
        span = self._cell_of(box_hi) - lo_cells + 1
        item, j = _ragged(span[:, 0] * span[:, 1])
        span_y = span[item, 1]
        keys = ((lo_cells[item, 0] + j // span_y) * self.ncell
                + lo_cells[item, 1] + j % span_y)
        # a stable sort keeps each cell's ids ascending
        self.items = item[_stable_order(keys)]
        self.offsets = np.concatenate([[0], np.cumsum(
            np.bincount(keys, minlength=self.ncell * self.ncell))])

    def _cell_of(self, points: np.ndarray) -> np.ndarray:
        rel = (points - self.lo) / self.cell_size
        return np.clip(rel.astype(np.int64), 0, self.ncell - 1)

    def candidates(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(point ids, item ids) pairing every point with each item of its
        own cell, point-major, item ids ascending."""
        cells = self._cell_of(points)
        cell = cells[:, 0] * self.ncell + cells[:, 1]
        start = self.offsets[cell]
        pair_t, j = _ragged(self.offsets[cell + 1] - start)
        return pair_t, self.items[start[pair_t] + j]


def _triangle_grid(nodes: np.ndarray, triangles: np.ndarray) -> _UniformGrid:
    """The triangles binned by their bounding boxes over the nodes' box."""
    a, b, c = _corners(nodes, triangles)
    return _UniformGrid(nodes.min(axis=0), nodes.max(axis=0),
                        np.minimum(np.minimum(a, b), c),
                        np.maximum(np.maximum(a, b), c))


def _nearest_on_edges(points, q0, q1):
    """Parameter ``t`` of the point of each edge ``(1 - t) q0 + t q1``
    nearest to its paired point, and the squared distance to it."""
    edge = q1 - q0
    length2 = np.einsum("ij,ij->i", edge, edge)
    dot = np.einsum("ij,ij->i", points - q0, edge)
    t = np.clip(np.divide(dot, length2, out=np.zeros_like(dot),
                          where=length2 > 0), 0.0, 1.0)
    gap = points - ((1.0 - t)[:, None] * q0 + t[:, None] * q1)
    return t, np.einsum("ij,ij->i", gap, gap)


def _barycentric(nodes, triangles, tri_ids, points):
    """Barycentric coordinates of each point in its paired triangle."""
    a, b, c = _corners(nodes, np.take(triangles, tri_ids, axis=0))
    v0 = b - a
    v1 = c - a
    v2 = points - a
    d00 = np.einsum("ij,ij->i", v0, v0)
    d01 = np.einsum("ij,ij->i", v0, v1)
    d11 = np.einsum("ij,ij->i", v1, v1)
    d20 = np.einsum("ij,ij->i", v2, v0)
    d21 = np.einsum("ij,ij->i", v2, v1)
    denom = d00 * d11 - d01 * d01
    with np.errstate(invalid="ignore", divide="ignore"):
        v = (d11 * d20 - d01 * d21) / denom
        w = (d00 * d21 - d01 * d20) / denom
    u = 1.0 - v - w
    return np.stack([u, v, w], axis=1)


def build_transfer(source_nodes, source_triangles, targets,
                   tol: float = DEFAULT_SNAP_TOL,
                   boundary: Optional[tuple[np.ndarray, np.ndarray]] = None
                   ) -> TransferOperator:
    """Locate every target in the source triangulation.

    ``tol`` is the snap tolerance as a fraction of the source bounding-box
    diagonal.  ``boundary`` is ``boundary_edges(source_triangles)`` when the
    caller has it already.  Ties between containing triangles resolve to the
    smallest triangle id, so the operator is deterministic.
    """
    nodes = np.ascontiguousarray(source_nodes, dtype=np.float64)
    triangles = np.ascontiguousarray(source_triangles, dtype=np.int64)
    pts = np.ascontiguousarray(targets, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeMismatch(f"targets must be (k, 2), got {pts.shape}")
    if (nodes.ndim != 2 or nodes.shape[1] != 2 or triangles.ndim != 2
            or triangles.shape[1] != 3 or not triangles.size):
        raise ShapeMismatch(f"source must be (n, 2) nodes and (m >= 1, 3) "
                            f"triangles, got {nodes.shape}, {triangles.shape}")
    if triangles.min() < 0 or triangles.max() >= len(nodes):
        raise IndexOutOfRange(f"source triangle ids outside [0, {len(nodes)})")
    if not (np.isfinite(nodes).all() and np.isfinite(pts).all()):
        raise ShapeMismatch("positions must be finite")

    k = len(pts)
    grid = _triangle_grid(nodes, triangles)
    bbox_diag = float(np.linalg.norm(nodes.max(axis=0) - nodes.min(axis=0)))
    snap_dist = tol * bbox_diag

    # batched containment test against each target's own grid cell
    pair_t, pair_tri = grid.candidates(pts)

    element_ids = np.empty(k, dtype=np.int64)
    weights = np.empty((k, 3))
    bary = _barycentric(nodes, triangles, pair_tri,
                        np.take(pts, pair_t, axis=0))
    u, v, w = bary.T
    hit = np.flatnonzero((u >= -_INSIDE_EPS) & (v >= -_INSIDE_EPS)
                         & (w >= -_INSIDE_EPS))
    # pairs are point-major with triangle ids ascending, so a target's first
    # containing pair holds its smallest containing triangle
    first = hit[np.diff(pair_t[hit], prepend=-1) != 0]
    idx = pair_t[first]
    found = np.zeros(k, dtype=bool)
    found[idx] = True
    element_ids[idx] = pair_tri[first]
    weights[idx] = np.take(bary, first, axis=0)

    # snap the rest onto the nearest boundary edge; ties between edges go to
    # the smallest owning triangle id, and (1 - t) q0 + t q1 is exact at
    # t = 0 and 1, so edges whose nearest point is a shared vertex tie
    missing = np.flatnonzero(~found)
    if missing.size:
        owner, slot = (boundary_edges(triangles) if boundary is None
                       else boundary)
        if owner.size == 0:
            raise PointOutsideDomain("the source mesh has no boundary")
        q0 = nodes[triangles[owner, slot]]
        q1 = nodes[triangles[owner, (slot + 1) % 3]]
        # an edge within snap_dist of a target overlaps the target's cell
        # once its box is grown by snap_dist, plus slack for rounding in
        # the coordinates; a farther candidate is harmless, as each target
        # takes its nearest
        reach = snap_dist + 1e-12 * (bbox_diag + np.abs(nodes).max())
        box_lo, box_hi = np.minimum(q0, q1) - reach, np.maximum(q0, q1) + reach
        edges = _UniformGrid(box_lo.min(axis=0), box_hi.max(axis=0),
                             box_lo, box_hi)
        pair_t, pair_e = edges.candidates(pts[missing])
        t, dist2 = _nearest_on_edges(pts[missing[pair_t]], q0[pair_e],
                                     q1[pair_e])
        # a stable sort keeps edge ids ascending among equal distances, so
        # each target's first pair holds its nearest, smallest edge
        order = np.lexsort((dist2, pair_t))
        best = order[np.diff(pair_t[order], prepend=-1) != 0]
        dist = np.full(missing.size, np.inf)
        dist[pair_t[best]] = np.sqrt(dist2[best])
        if (dist > snap_dist).any():
            j = missing[np.argmax(dist > snap_dist)]
            # the all-edge distance, for the message only
            _, scan = _nearest_on_edges(pts[j], q0, q1)
            raise PointOutsideDomain(
                f"target {j} at {pts[j].tolist()} lies "
                f"{np.sqrt(scan.min()):.3e} from the source mesh "
                f"(allowed {snap_dist:.3e})")
        near, t = pair_e[best], t[best]
        weights[missing] = 0.0
        weights[missing, slot[near]] = 1.0 - t
        weights[missing, (slot[near] + 1) % 3] = t
        element_ids[missing] = owner[near]

    vertex_ids = np.take(triangles, element_ids, axis=0)
    weights.setflags(write=False)
    element_ids.setflags(write=False)
    return TransferOperator(element_ids=element_ids, vertex_ids=vertex_ids,
                            weights=weights, n_source_vertices=len(nodes))


def apply_transfer(op: TransferOperator, field) -> np.ndarray:
    """Evaluate the source's P1 interpolant of ``field`` at every target."""
    values = np.asarray(field, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] != op.n_source_vertices:
        raise ShapeMismatch(
            f"field has length {values.shape}, expected "
            f"({op.n_source_vertices},)")
    return np.einsum("kj,kj->k", op.weights, values[op.vertex_ids])

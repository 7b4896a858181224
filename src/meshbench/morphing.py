"""Planar disk embedding of triangulated surfaces.

Maps a disk-topology triangulation onto the closed unit disk: boundary
nodes are pinned to the unit circle at angles proportional to cumulative
boundary arc length, and every interior node is placed at the barycenter
of its graph neighbors (uniform weights).  For a convex target boundary
this produces a valid (fold-free) embedding for any disk triangulation,
which makes fields on differently meshed shapes comparable after
interpolation onto one common discretization.

The rotational gauge is fixed deterministically: the boundary cycle starts
at its lowest node id and runs counter-clockwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, solveh_banded
from scipy.sparse import csr_array
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .edges import directed_edges, edge_keys
from .errors import NotDiskTopology, SolveFailure


@dataclass(frozen=True)
class SurfaceMesh2D:
    """Triangulated planar surface with a single simple boundary loop.

    Triangles are positively oriented (counter-clockwise); the boundary
    loop is an ordered node-id cycle, counter-clockwise, starting at the
    lowest boundary node id.
    """

    nodes: np.ndarray          # (n, 2) float64
    triangles: np.ndarray      # (m, 3) int64
    boundary_loop: np.ndarray  # (b,) int64


@dataclass(frozen=True)
class MorphedMesh:
    """Embedded positions inside the closed unit disk; connectivity shared
    with the source mesh."""

    positions: np.ndarray  # (n, 2) float64
    source: SurfaceMesh2D


def signed_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    # np.take gathers rows several times faster than indexing
    a, b, c = (np.take(nodes, triangles[:, j], axis=0) for j in range(3))
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def build_surface_mesh(nodes, triangles) -> SurfaceMesh2D:
    """Normalize arrays, enforce CCW orientation, extract the boundary.

    Negatively oriented triangles are flipped (the geometry is unchanged);
    non-finite nodes and degenerate (zero-area) triangles are rejected.  The
    mesh holds read-only copies of both arrays, never the caller's own.
    """
    nodes = np.array(nodes, dtype=np.float64, order="C")
    triangles = np.array(triangles, dtype=np.int64)
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise NotDiskTopology(f"nodes must be (n, 2), got {nodes.shape}")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise NotDiskTopology(f"triangles must be (m, 3), got {triangles.shape}")
    if triangles.size and (triangles.min() < 0 or triangles.max() >= len(nodes)):
        raise NotDiskTopology("triangle index out of range")
    if not np.isfinite(nodes).all():
        bad = int(np.flatnonzero(~np.isfinite(nodes).all(axis=1))[0])
        raise NotDiskTopology(f"node {bad} has a non-finite coordinate")

    areas = signed_areas(nodes, triangles)
    if np.any(areas == 0.0):
        bad = int(np.flatnonzero(areas == 0.0)[0])
        raise NotDiskTopology(f"triangle {bad} is degenerate (zero area)")
    flip = areas < 0
    if np.any(flip):
        triangles[flip] = triangles[flip][:, [0, 2, 1]]

    nodes.setflags(write=False)
    triangles.setflags(write=False)
    mesh = SurfaceMesh2D(nodes, triangles, np.empty(0, dtype=np.int64))
    loop = extract_boundary_loop(mesh)
    return SurfaceMesh2D(nodes, triangles, loop)


def extract_boundary_loop(mesh: SurfaceMesh2D) -> np.ndarray:
    """Ordered counter-clockwise cycle of boundary node ids.

    Requires a manifold triangulation with disk topology: every edge in at
    most two triangles, exactly one boundary loop, no pinch vertices, no
    isolated nodes.
    """
    triangles = mesh.triangles
    if len(triangles) == 0:
        raise NotDiskTopology("mesh has no triangles")

    n = len(mesh.nodes)
    used = np.zeros(n, dtype=bool)
    used[triangles.ravel()] = True
    if not used.all():
        raise NotDiskTopology(
            f"{int((~used).sum())} node(s) belong to no triangle")

    src, dst = directed_edges(triangles)
    keys = np.sort(edge_keys(src, dst, n))
    if (keys[1:] == keys[:-1]).any():
        raise NotDiskTopology("duplicate directed edge (non-manifold or "
                              "inconsistent orientation)")

    # boundary edges are those whose reverse is absent; keys are sorted, so
    # their sources ascend
    rev = edge_keys(keys % n, keys // n, n)
    at = np.minimum(np.searchsorted(keys, rev), len(keys) - 1)
    sources, targets = np.divmod(keys[keys[at] != rev], n)
    pinch = sources[1:][sources[1:] == sources[:-1]]
    if pinch.size:
        raise NotDiskTopology(f"node {pinch[0]} is a pinch point (two "
                              f"boundary edges leave it)")
    if not sources.size:
        raise NotDiskTopology("mesh has no boundary (closed surface)")

    successor = dict(zip(sources.tolist(), targets.tolist()))
    start = min(successor)
    loop = [start]
    node = successor[start]
    while node != start:
        loop.append(node)
        nxt = successor.get(node)
        if nxt is None:
            raise NotDiskTopology("boundary chain is broken")
        node = nxt
        if len(loop) > len(successor):
            raise NotDiskTopology("boundary walk does not close")
    if len(loop) != len(successor):
        raise NotDiskTopology(
            f"multiple boundary loops: walked {len(loop)} of "
            f"{len(successor)} boundary edges")
    return np.asarray(loop, dtype=np.int64)


def _boundary_circle_positions(mesh: SurfaceMesh2D) -> np.ndarray:
    """Unit-circle targets for the boundary loop, spaced by arc length."""
    loop = mesh.boundary_loop
    pts = mesh.nodes[loop]
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    total = float(np.sum(seg))
    if total == 0.0:
        raise NotDiskTopology("boundary has zero length")
    cumulative = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    angles = 2.0 * np.pi * cumulative / total
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def tutte_embed(mesh: SurfaceMesh2D) -> MorphedMesh:
    """Embed the mesh into the unit disk with uniform barycentric weights.

    Boundary nodes land exactly on the unit circle; each interior node
    solves x_i = mean of its neighbors, a sparse symmetric positive
    definite system.  Its unknowns are ordered by reverse Cuthill-McKee and
    it is solved by a banded Cholesky factorization, which stores
    (bandwidth + 1) * n floats for n interior nodes: about 13 MB at 120
    nodes per side, growing like n**1.5 on planar meshes, whose RCM
    bandwidth grows like sqrt(n).
    """
    n = len(mesh.nodes)
    loop = mesh.boundary_loop
    if loop.size == 0:
        loop = extract_boundary_loop(mesh)
        mesh = SurfaceMesh2D(mesh.nodes, mesh.triangles, loop)

    positions = np.zeros((n, 2))
    positions[loop] = _boundary_circle_positions(mesh)

    is_boundary = np.zeros(n, dtype=bool)
    is_boundary[loop] = True
    interior = np.flatnonzero(~is_boundary)

    if interior.size:
        positions[interior] = _solve_interior(mesh, positions, interior,
                                              is_boundary)

    embedded_areas = signed_areas(positions, mesh.triangles)
    # written so that NaN areas and radii fail too
    inverted = int(np.sum(~(embedded_areas > 0)))
    if inverted:
        raise SolveFailure(f"embedding produced {inverted} non-positive "
                           f"triangle(s)")
    radii = np.linalg.norm(positions[interior], axis=1)
    if not np.all(radii < 1.0):
        raise SolveFailure("an interior node escaped the open unit disk")

    positions.setflags(write=False)
    return MorphedMesh(positions=positions, source=mesh)


def _interior_system(mesh: SurfaceMesh2D, positions, interior, is_boundary):
    """The Tutte system of the interior nodes in reverse Cuthill-McKee
    order, as ``(ab, rhs, perm)``: row ``i`` is interior node
    ``interior[perm[i]]``, ``ab`` holds the Laplacian's upper band in
    LAPACK banded storage and ``rhs`` the summed positions of each row's
    boundary neighbors.

    Every edge at an interior node is shared by two triangles, and the
    mesh has no duplicate directed edge, so an interior node's out-edges
    list each of its neighbors exactly once.
    """
    ni = interior.size
    index_of = np.full(len(mesh.nodes), -1, dtype=np.int64)
    index_of[interior] = np.arange(ni)

    src, dst = directed_edges(mesh.triangles)
    row = index_of[src]
    inside = row >= 0
    row, dst = row[inside], dst[inside]
    pinned = is_boundary[dst]
    a, b = row[~pinned], index_of[dst[~pinned]]

    order = np.argsort(a, kind="stable")
    graph = csr_array((np.ones(a.size, dtype=np.int8), b[order],
                       np.concatenate([[0], np.cumsum(np.bincount(
                           a, minlength=ni))])), shape=(ni, ni))
    perm = reverse_cuthill_mckee(graph, symmetric_mode=True)
    rank = np.empty(ni, dtype=np.int64)
    rank[perm] = np.arange(ni)

    row = rank[row]
    ra, rb = rank[a], rank[b]
    upper = ra < rb
    ra, rb = ra[upper], rb[upper]
    band = int((rb - ra).max(initial=0))
    ab = np.zeros((band + 1, ni))
    ab[band] = np.bincount(row, minlength=ni)
    ab[band + ra - rb, rb] = -1.0
    rhs = np.stack([np.bincount(row[pinned], weights=positions[dst[pinned], k],
                                minlength=ni) for k in range(2)], axis=1)
    return ab, rhs, perm


def _solve_interior(mesh: SurfaceMesh2D, positions, interior, is_boundary):
    ab, rhs, perm = _interior_system(mesh, positions, interior, is_boundary)
    try:
        solution = solveh_banded(ab, rhs, overwrite_ab=True, overwrite_b=True,
                                 check_finite=False)
    except LinAlgError as exc:
        raise SolveFailure(f"the Tutte system is singular ({exc})") from None
    out = np.empty_like(solution)
    out[perm] = solution
    return out

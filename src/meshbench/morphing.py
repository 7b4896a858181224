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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .edges import directed_edges, edge_keys, unique_edges
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
    a = nodes[triangles[:, 0]]
    b = nodes[triangles[:, 1]]
    c = nodes[triangles[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def build_surface_mesh(nodes, triangles) -> SurfaceMesh2D:
    """Normalize arrays, enforce CCW orientation, extract the boundary.

    Negatively oriented triangles are flipped in place (the geometry is
    unchanged); degenerate (zero-area) triangles are rejected.
    """
    nodes = np.ascontiguousarray(nodes, dtype=np.float64)
    triangles = np.array(triangles, dtype=np.int64)
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise NotDiskTopology(f"nodes must be (n, 2), got {nodes.shape}")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise NotDiskTopology(f"triangles must be (m, 3), got {triangles.shape}")
    if triangles.size and (triangles.min() < 0 or triangles.max() >= len(nodes)):
        raise NotDiskTopology("triangle index out of range")

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
    definite system solved by a direct sparse factorization.
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
    inverted = int(np.sum(embedded_areas <= 0))
    if inverted:
        raise SolveFailure(f"embedding produced {inverted} non-positive "
                           f"triangle(s)")
    radii = np.linalg.norm(positions[interior], axis=1) if interior.size else None
    if radii is not None and np.any(radii >= 1.0):
        raise SolveFailure("an interior node escaped the open unit disk")

    positions.setflags(write=False)
    return MorphedMesh(positions=positions, source=mesh)


def _solve_interior(mesh: SurfaceMesh2D, positions, interior, is_boundary):
    n = len(mesh.nodes)
    ei, ej = unique_edges(mesh.triangles)

    index_of = np.full(n, -1, dtype=np.int64)
    index_of[interior] = np.arange(interior.size)
    ni = interior.size

    rows, cols, vals = [], [], []
    rhs = np.zeros((ni, 2))
    degree = np.zeros(ni)

    def accumulate(a, b):
        # edge a -> b seen from a's equation
        ia = index_of[a]
        inside = ia >= 0
        np.add.at(degree, ia[inside], 1.0)
        b_int = inside & ~is_boundary[b]
        rows.append(ia[b_int])
        cols.append(index_of[b[b_int]])
        vals.append(-np.ones(int(b_int.sum())))
        b_bnd = inside & is_boundary[b]
        np.add.at(rhs, ia[b_bnd], positions[b[b_bnd]])

    accumulate(ei, ej)
    accumulate(ej, ei)

    rows.append(np.arange(ni))
    cols.append(np.arange(ni))
    vals.append(degree)
    laplacian = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ni, ni))

    solution = spla.spsolve(laplacian.tocsc(), rhs)
    return solution.reshape(ni, 2)

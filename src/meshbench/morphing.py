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

With uniform weights everything but the boundary positions depends on the
triangles alone: the boundary loop, the interior system, its ordering and
its Cholesky factor.  Meshes that share their (oriented) triangles, which
:func:`connectivity_key` tells apart, can therefore share one
:class:`TutteSystem` and pay only for their own right-hand side and two
triangular solves in :func:`tutte_embed`, which returns the positions.
:func:`build_surface_mesh` only orients and validates the arrays; disk
topology is checked where :func:`tutte_system` extracts the loop.

scipy's banded Cholesky, banded solve and reverse Cuthill-McKee are
imported where they are first called, so that importing this module loads
neither scipy.linalg nor scipy.sparse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .edges import directed_edges, edge_keys
from .errors import NotDiskTopology, SolveFailure


def cholesky_banded(ab, **options):
    """:func:`scipy.linalg.cholesky_banded`, imported on the first call; a
    name of this module, so that a test can count the factorisations."""
    from scipy.linalg import cholesky_banded
    return cholesky_banded(ab, **options)


@dataclass(frozen=True)
class SurfaceMesh2D:
    """Triangulated planar surface: finite nodes and positively oriented
    (counter-clockwise), non-degenerate triangles.  Its boundary loop, and
    with it its disk topology, is :func:`extract_boundary_loop`'s."""

    nodes: np.ndarray      # (n, 2) float64
    triangles: np.ndarray  # (m, 3) int64


def signed_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    # np.take gathers rows several times faster than indexing
    a, b, c = (np.take(nodes, triangles[:, j], axis=0) for j in range(3))
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


@dataclass(frozen=True)
class TutteSystem:
    """The connectivity-dependent part of a Tutte embedding, shared by
    every mesh with the same :func:`connectivity_key`.

    Row ``i`` of the interior system is node ``rows[i]`` (reverse
    Cuthill-McKee order); ``factor`` is the upper Cholesky factor of its
    Laplacian in LAPACK banded storage.  Boundary neighbor ``rhs_nodes[j]``
    adds its position to row ``rhs_rows[j]`` of the right-hand side.
    """

    boundary_loop: np.ndarray  # (b,) int64
    rows: np.ndarray           # (ni,) int64
    rhs_rows: np.ndarray       # (e,) int64
    rhs_nodes: np.ndarray      # (e,) int64
    factor: np.ndarray         # (bandwidth + 1, ni) float64


def _oriented(nodes, triangles) -> tuple[np.ndarray, np.ndarray]:
    """Read-only float64 and int64 copies of the arrays, each negatively
    oriented triangle flipped; rejects malformed arrays, non-finite nodes
    and degenerate (zero-area) triangles."""
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
    return nodes, triangles


def connectivity_key(mesh: SurfaceMesh2D) -> bytes:
    """Equal for two meshes from :func:`build_surface_mesh` exactly when
    they have the same node count and (oriented) triangles, so that they
    share their :class:`TutteSystem`, boundary loop included."""
    return np.int64(len(mesh.nodes)).tobytes() + mesh.triangles.tobytes()


def build_surface_mesh(nodes, triangles) -> SurfaceMesh2D:
    """Normalize arrays and enforce CCW orientation.

    Negatively oriented triangles are flipped (the geometry is unchanged);
    non-finite nodes and degenerate (zero-area) triangles are rejected.  The
    mesh holds read-only copies of both arrays, never the caller's own.
    Disk topology is checked by :func:`extract_boundary_loop`, not here.
    """
    return SurfaceMesh2D(*_oriented(nodes, triangles))


def extract_boundary_loop(mesh: SurfaceMesh2D) -> np.ndarray:
    """Ordered counter-clockwise cycle of boundary node ids, from the lowest.

    Requires a manifold triangulation with disk topology: every edge in at
    most two triangles, exactly one boundary loop, no pinch vertices, no
    isolated nodes; otherwise raises :class:`NotDiskTopology`.
    """
    triangles = mesh.triangles
    if len(triangles) == 0:
        raise NotDiskTopology("mesh has no triangles")

    n = len(mesh.nodes)
    if triangles.min() < 0 or triangles.max() >= n:
        raise NotDiskTopology("triangle index out of range")
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

    # a node has as many boundary edges in as out (one of each, with no
    # pinch), so the boundary edges form cycles: walk the lowest node's
    successor = dict(zip(sources.tolist(), targets.tolist()))
    loop = [int(sources[0])]
    while ((node := successor[loop[-1]]) != loop[0]
           and len(loop) <= len(successor)):  # bounded on a malformed mesh
        loop.append(node)
    if len(loop) != len(successor):
        raise NotDiskTopology(
            f"multiple boundary loops: walked {len(loop)} of "
            f"{len(successor)} boundary edges")
    return np.asarray(loop, dtype=np.int64)


def _boundary_circle_positions(nodes, loop) -> np.ndarray:
    """Unit-circle targets for the boundary loop, spaced by arc length."""
    pts = nodes[loop]
    seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
    total = float(np.sum(seg))
    if total == 0.0:
        raise NotDiskTopology("boundary has zero length")
    cumulative = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    angles = 2.0 * np.pi * cumulative / total
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def tutte_embed(mesh: SurfaceMesh2D,
                system: Optional[TutteSystem] = None) -> np.ndarray:
    """The mesh's read-only (n, 2) node positions in the unit disk, with
    uniform barycentric weights.

    The nodes of ``system.boundary_loop`` land exactly on the unit circle;
    each interior node solves x_i = mean of its neighbors, a sparse SPD
    system.  ``system`` is ``tutte_system`` of a mesh with the same
    :func:`connectivity_key`, when the caller shares one across such meshes;
    without it the mesh's own is built, which checks its topology.  Either way
    the mesh's own work is its boundary positions, its right-hand side and two
    banded triangular solves.
    """
    if system is None:
        system = tutte_system(mesh)
    loop = system.boundary_loop
    positions = np.zeros((len(mesh.nodes), 2))
    positions[loop] = _boundary_circle_positions(mesh.nodes, loop)
    if system.rows.size:
        from scipy.linalg import cho_solve_banded
        rhs = np.stack([np.bincount(system.rhs_rows,
                                    weights=positions[system.rhs_nodes, k],
                                    minlength=system.rows.size)
                        for k in range(2)], axis=1)
        positions[system.rows] = cho_solve_banded(
            (system.factor, False), rhs, overwrite_b=True, check_finite=False)

    embedded_areas = signed_areas(positions, mesh.triangles)
    # written so that NaN areas and radii fail too
    inverted = int(np.sum(~(embedded_areas > 0)))
    if inverted:
        raise SolveFailure(f"embedding produced {inverted} non-positive "
                           f"triangle(s)")
    radii = np.linalg.norm(positions[system.rows], axis=1)
    if not np.all(radii < 1.0):
        raise SolveFailure("an interior node escaped the open unit disk")

    positions.setflags(write=False)
    return positions


def tutte_system(mesh: SurfaceMesh2D) -> TutteSystem:
    """Extract the boundary loop of a mesh, which checks its disk topology,
    then order and factor its Tutte system.

    The unknowns are ordered by reverse Cuthill-McKee and the Laplacian is
    factored by banded Cholesky, which stores (bandwidth + 1) * n floats
    for n interior nodes: about 13 MB at 120 nodes per side, growing like
    n**1.5 on planar meshes, whose RCM bandwidth grows like sqrt(n).
    """
    loop = extract_boundary_loop(mesh)
    is_boundary = np.zeros(len(mesh.nodes), dtype=bool)
    is_boundary[loop] = True
    interior = np.flatnonzero(~is_boundary)
    if not interior.size:
        return TutteSystem(loop, interior, interior, interior,
                           np.empty((1, 0)))
    ab, perm, rhs_rows, rhs_nodes = _interior_system(mesh, interior,
                                                     is_boundary)
    try:
        factor = cholesky_banded(ab, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"the Tutte system is singular ({exc})") from None
    return TutteSystem(loop, interior[perm], rhs_rows, rhs_nodes, factor)


def _interior_system(mesh: SurfaceMesh2D, interior, is_boundary):
    """The Tutte system of the interior nodes in reverse Cuthill-McKee
    order, as ``(ab, perm, rhs_rows, rhs_nodes)``: row ``i`` is interior
    node ``interior[perm[i]]``, ``ab`` holds the Laplacian's upper band in
    LAPACK banded storage, and boundary node ``rhs_nodes[j]`` is a
    neighbor of row ``rhs_rows[j]``, whose right-hand side sums such
    neighbors' positions.

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

    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import reverse_cuthill_mckee

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
    return ab, perm, row[pinned], dst[pinned]

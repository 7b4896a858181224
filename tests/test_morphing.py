import numpy as np
import pytest
from scipy.linalg import solveh_banded

from meshbench import build_surface_mesh, extract_boundary_loop, tutte_embed
from meshbench.edges import boundary_edges
from meshbench.errors import NotDiskTopology, SolveFailure
from meshbench.morphing import (SurfaceMesh2D, _boundary_circle_positions,
                                _interior_system, connectivity_key,
                                signed_areas, tutte_system)

from conftest import random_disk_mesh


def test_boundary_loop_single_triangle():
    mesh = build_surface_mesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    assert extract_boundary_loop(mesh).tolist() == [0, 1, 2]


def test_boundary_loop_square():
    mesh = build_surface_mesh([[0, 0], [1, 0], [1, 1], [0, 1]],
                              [[0, 1, 2], [0, 2, 3]])
    assert extract_boundary_loop(mesh).tolist() == [0, 1, 2, 3]


def test_boundary_loop_starts_at_lowest_id_ccw():
    # same square, nodes permuted so the lowest boundary id is 1
    nodes = [[1, 1], [0, 0], [1, 0], [0, 1]]
    mesh = build_surface_mesh(nodes, [[1, 2, 0], [1, 0, 3]])
    loop = extract_boundary_loop(mesh).tolist()
    assert loop[0] == 0
    assert set(loop) == {0, 1, 2, 3}
    # counter-clockwise: positive polygon area
    pts = np.asarray(nodes)[loop]
    area = 0.5 * np.sum(pts[:, 0] * np.roll(pts[:, 1], -1)
                        - np.roll(pts[:, 0], -1) * pts[:, 1])
    assert area > 0


def test_mesh_with_hole_rejected():
    # ring between two squares: two boundary loops
    outer = [[-2, -2], [2, -2], [2, 2], [-2, 2]]
    inner = [[-1, -1], [1, -1], [1, 1], [-1, 1]]
    nodes = np.array(outer + inner, dtype=float)
    tris = []
    for k in range(4):
        a, b = k, (k + 1) % 4
        tris.append([a, b, 4 + a])
        tris.append([b, 4 + b, 4 + a])
    with pytest.raises(NotDiskTopology,
                       match="multiple boundary loops: walked 4 of 8"):
        extract_boundary_loop(build_surface_mesh(nodes, tris))


def test_bowtie_pinch_rejected():
    nodes = [[0, 0], [1, 1], [1, -1], [-1, 1], [-1, -1]]
    tris = [[0, 1, 3], [0, 4, 2]]
    with pytest.raises(NotDiskTopology, match="node 0 is a pinch point"):
        extract_boundary_loop(build_surface_mesh(nodes, tris))


def test_isolated_node_rejected():
    nodes = [[0, 0], [1, 0], [0, 1], [5, 5]]
    with pytest.raises(NotDiskTopology,
                       match=r"1 node\(s\) belong to no triangle"):
        extract_boundary_loop(build_surface_mesh(nodes, [[0, 1, 2]]))


def test_degenerate_triangle_rejected():
    nodes = [[0, 0], [1, 0], [2, 0]]
    with pytest.raises(NotDiskTopology):
        build_surface_mesh(nodes, [[0, 1, 2]])


def test_negative_orientation_is_flipped():
    mesh = build_surface_mesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])
    assert signed_areas(mesh.nodes, mesh.triangles)[0] > 0


def test_callers_arrays_stay_writeable_and_unchanged():
    # C-contiguous float64 nodes and int64 triangles are the layouts the
    # mesh stores, so only a copy keeps the caller's arrays its own
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 2, 1]])
    mesh = build_surface_mesh(nodes, tris)
    assert nodes.flags.writeable and tris.flags.writeable
    assert not mesh.nodes.flags.writeable and not mesh.triangles.flags.writeable
    assert tris.tolist() == [[0, 2, 1]]
    nodes[1, 0] = 2.0
    assert mesh.nodes[1, 0] == 1.0


def test_hexagon_center_maps_to_origin():
    angles = np.arange(6) * np.pi / 3
    nodes = np.vstack([np.stack([np.cos(angles), np.sin(angles)], axis=1),
                       [[0.0, 0.0]]])
    tris = [[i, (i + 1) % 6, 6] for i in range(6)]
    positions = tutte_embed(build_surface_mesh(nodes, tris))
    assert np.abs(positions[6]).max() < 1e-12


def test_circular_boundary_is_fixed_point():
    # uniformly spaced circle nodes (node 0 at angle 0) + fan center:
    # identical arc-length parameterization reproduces the boundary
    n = 12
    angles = 2 * np.pi * np.arange(n) / n
    nodes = np.vstack([np.stack([np.cos(angles), np.sin(angles)], axis=1),
                       [[0.0, 0.0]]])
    tris = [[i, (i + 1) % n, n] for i in range(n)]
    positions = tutte_embed(build_surface_mesh(nodes, tris))
    assert np.abs(positions[:n] - nodes[:n]).max() < 1e-12


def test_square_plus_center_matches_dense_oracle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [0.5, 0.5]])
    tris = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
    mesh = build_surface_mesh(nodes, tris)
    positions = tutte_embed(mesh)

    # dense oracle: boundary on circle by arc length, interior node solves
    # deg * x = sum of neighbor positions with a dense solve
    loop = extract_boundary_loop(mesh)
    seg = np.linalg.norm(nodes[np.roll(loop, -1)] - nodes[loop], axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg[:-1])])
    ang = 2 * np.pi * cum / seg.sum()
    boundary_pos = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    # center (node 4) neighbors all four boundary nodes: 4 x = sum(neigh)
    oracle_center = boundary_pos.sum(axis=0) / 4.0

    assert np.abs(positions[loop] - boundary_pos).max() == 0.0
    assert np.abs(positions[4] - oracle_center).max() < 1e-12


def randomized_delaunay_meshes():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        pts, tris = random_disk_mesh(rng, int(rng.integers(50, 400)))
        yield pts, build_surface_mesh(pts, tris)


def test_randomized_delaunay_embeddings_are_valid():
    for pts, mesh in randomized_delaunay_meshes():
        positions = tutte_embed(mesh)
        loop = extract_boundary_loop(mesh)
        areas = signed_areas(positions, mesh.triangles)
        assert (areas > 0).all()
        radii = np.linalg.norm(positions[loop], axis=1)
        assert np.abs(radii - 1.0).max() < 1e-12
        interior = np.setdiff1d(np.arange(len(pts)), loop)
        if interior.size:
            assert np.linalg.norm(positions[interior], axis=1).max() < 1.0


def dense_tutte_oracle(mesh):
    """Interior positions from np.linalg.solve on the dense interior
    Laplacian, its neighbor sets built from a Python set of edges."""
    n = len(mesh.nodes)
    loop = extract_boundary_loop(mesh)
    boundary = _boundary_circle_positions(mesh.nodes, loop)
    pinned = dict(zip(loop.tolist(), boundary))
    neighbors = {i: set() for i in range(n)}
    for tri in mesh.triangles.tolist():
        for a, b in zip(tri, tri[1:] + tri[:1]):
            neighbors[a].add(b)
            neighbors[b].add(a)
    interior = [i for i in range(n) if i not in pinned]
    row = {node: r for r, node in enumerate(interior)}
    lap = np.zeros((len(interior), len(interior)))
    rhs = np.zeros((len(interior), 2))
    for node, r in row.items():
        lap[r, r] = len(neighbors[node])
        for other in neighbors[node]:
            if other in pinned:
                rhs[r] += pinned[other]
            else:
                lap[r, row[other]] = -1.0
    return np.array(interior), np.linalg.solve(lap, rhs)


def test_banded_solution_matches_dense_oracle():
    for _, mesh in randomized_delaunay_meshes():
        interior, expected = dense_tutte_oracle(mesh)
        positions = tutte_embed(mesh)
        assert np.abs(positions[interior] - expected).max() < 1e-12


#: RCM half-bandwidth allowed per square root of the interior node count;
#: the fixtures reach 2.2, their natural (Delaunay) order about n / 2
RCM_BANDWIDTH_PER_SQRT_N = 2.5


def test_rcm_bandwidth_grows_like_sqrt_n_on_irregular_meshes():
    for _, mesh in randomized_delaunay_meshes():
        n = len(mesh.nodes)
        is_boundary = np.zeros(n, dtype=bool)
        is_boundary[extract_boundary_loop(mesh)] = True
        interior = np.flatnonzero(~is_boundary)
        ab, perm, _, _ = _interior_system(mesh, interior, is_boundary)
        assert ab.shape == (ab.shape[0], interior.size)
        assert sorted(perm.tolist()) == list(range(interior.size))
        assert ab.shape[0] - 1 <= RCM_BANDWIDTH_PER_SQRT_N * np.sqrt(
            interior.size)


def solveh_banded_reference(mesh):
    """Positions from one ``solveh_banded`` call on the assembled system,
    whose bits a factor shared across meshes must reproduce."""
    n = len(mesh.nodes)
    loop = extract_boundary_loop(mesh)
    is_boundary = np.zeros(n, dtype=bool)
    is_boundary[loop] = True
    interior = np.flatnonzero(~is_boundary)
    ab, perm, rhs_rows, rhs_nodes = _interior_system(mesh, interior,
                                                     is_boundary)
    positions = np.zeros((n, 2))
    positions[loop] = _boundary_circle_positions(mesh.nodes, loop)
    rhs = np.stack([np.bincount(rhs_rows, weights=positions[rhs_nodes, k],
                                minlength=interior.size) for k in range(2)],
                   axis=1)
    positions[interior[perm]] = solveh_banded(ab, rhs)
    return positions


def test_shared_factor_reproduces_solveh_banded_bits():
    for _, mesh in randomized_delaunay_meshes():
        # the same triangles on sheared nodes share the first mesh's system
        moved = build_surface_mesh(mesh.nodes @ [[1.1, 0.2], [0.1, 0.9]] + 3.0,
                                   mesh.triangles)
        system = tutte_system(mesh)
        for m in (mesh, moved):
            expected = solveh_banded_reference(m).tobytes()
            assert tutte_embed(m).tobytes() == expected
            assert tutte_embed(m, system).tobytes() == expected


def test_connectivity_key_tells_shared_triangulations_apart():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [0.5, 0.5]])
    tris = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])

    def key_of(nodes, tris):
        return connectivity_key(build_surface_mesh(nodes, tris))

    key = key_of(nodes, tris)
    assert connectivity_key(build_surface_mesh(nodes, tris)) == key
    # other positions, or triangles given clockwise, keep the key
    assert key_of(nodes * 2.0 + 1.0, tris) == key
    assert key_of(nodes, tris[:, [0, 2, 1]]) == key
    # other triangles, or one more (unused) node, change it
    assert key_of(nodes, tris[[1, 2, 3, 0]]) != key
    extra = np.vstack([nodes, [[2.0, 2.0]]])
    assert key_of(extra, tris) != key
    with pytest.raises(NotDiskTopology, match="belong to no triangle"):
        extract_boundary_loop(build_surface_mesh(extra, tris))
    with pytest.raises(NotDiskTopology, match="zero area"):
        key_of(np.vstack([nodes[:4], nodes[:1]]), tris)


@pytest.mark.parametrize("second_disk, message", [
    # one triangle: its assembled block is indefinite, so Cholesky fails
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], "singular"),
    # a hexagon fan: Cholesky succeeds, and with no pinned neighbor every
    # node of the fan lands at the origin
    (np.vstack([np.stack([np.cos(np.arange(6) * np.pi / 3),
                          np.sin(np.arange(6) * np.pi / 3)], axis=1),
                [[0.0, 0.0]]]), "non-positive"),
])
def test_unpinned_component_raises_solve_failure(second_disk, message,
                                                 monkeypatch):
    # two disjoint disks, with a boundary loop around the first alone: the
    # second is an interior component that no boundary node pins
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
    k = len(second_disk)
    second = ([[5, 6, 7]] if k == 3 else
              [[5 + i, 5 + (i + 1) % 6, 11] for i in range(6)])
    nodes = np.vstack([square, np.asarray(second_disk) + 5.0])
    tris = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]] + second)
    monkeypatch.setattr("meshbench.morphing.extract_boundary_loop",
                        lambda mesh: np.array([0, 1, 2, 3]))
    mesh = SurfaceMesh2D(nodes, tris)
    with pytest.raises(SolveFailure, match=message):
        tutte_embed(mesh)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("node", [0, 4])  # a boundary node, the center
def test_non_finite_node_rejected(value, node):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [0.5, 0.5]])
    nodes[node, 1] = value
    tris = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]
    with pytest.raises(NotDiskTopology,
                       match=f"node {node} has a non-finite coordinate"):
        build_surface_mesh(nodes, tris)


def test_non_finite_boundary_fails_the_embedding_checks():
    # a mesh built by hand skips build_surface_mesh's check; the NaN
    # boundary position makes every area NaN, which counts as inverted
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [0.5, 0.5]])
    tris = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    nodes[2, 0] = np.nan
    with pytest.raises(SolveFailure, match="4 non-positive"):
        tutte_embed(SurfaceMesh2D(nodes, tris))


def test_large_plate_embeds_fold_free():
    # 150 nodes per side: 21,904 interior nodes in one banded solve
    r = 150
    s = np.linspace(0.0, 1.0, r)
    pts = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1).reshape(-1, 2)
    v00 = (np.arange(r - 1)[:, None] * r + np.arange(r - 1)).ravel()
    tris = np.concatenate([np.stack([v00, v00 + r, v00 + r + 1], axis=1),
                           np.stack([v00, v00 + r + 1, v00 + 1], axis=1)])
    mesh = build_surface_mesh(pts, tris)
    loop = extract_boundary_loop(mesh)
    assert len(pts) - loop.size == 21_904
    positions = tutte_embed(mesh)
    assert (signed_areas(positions, mesh.triangles) > 0).all()
    radii = np.linalg.norm(positions[loop], axis=1)
    assert np.abs(radii - 1.0).max() < 1e-12


def test_embedding_is_bitwise_deterministic():
    rng = np.random.default_rng(99)
    pts, tris = random_disk_mesh(rng, 300)
    mesh = build_surface_mesh(pts, tris)
    a = tutte_embed(mesh)
    b = tutte_embed(build_surface_mesh(pts.copy(), tris.copy()))
    assert a.tobytes() == b.tobytes()


def test_extract_boundary_loop_on_plain_mesh_obj():
    # extract_boundary_loop also accepts a mesh built by hand
    nodes = np.array([[0, 0], [1, 0], [0, 1]], dtype=float)
    tris = np.array([[0, 1, 2]])
    mesh = SurfaceMesh2D(nodes, tris)
    assert extract_boundary_loop(mesh).tolist() == [0, 1, 2]


@pytest.mark.parametrize("index", [-1, 4])
def test_hand_built_mesh_index_out_of_range_rejected(index):
    # a mesh built by hand skips build_surface_mesh's range check; -1
    # would wrap to node 3 and read as a pinch point, 4 would overrun
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    mesh = SurfaceMesh2D(square, np.array([[0, 1, 2], [0, 2, index]]))
    for check in (extract_boundary_loop, tutte_system):
        with pytest.raises(NotDiskTopology,
                           match="triangle index out of range"):
            check(mesh)


def test_pinch_message_names_the_smallest_pinch_node():
    # three triangles in a row, touching at (1, 0) = node 4 and (2, 0) =
    # node 0; a set of directed edges happens to reach node 4 first
    nodes = [[2, 0], [0, 0], [0.5, 1], [1.5, 1], [1, 0], [3, 0], [2.5, 1]]
    tris = [[1, 4, 2], [4, 0, 3], [0, 5, 6]]
    with pytest.raises(NotDiskTopology, match="node 0 is a pinch point"):
        extract_boundary_loop(build_surface_mesh(nodes, tris))


def test_duplicate_directed_edge_rejected():
    # two counter-clockwise triangles on the same side of edge 0 -> 1
    nodes = [[0, 0], [1, 0], [0, 1], [1, 1]]
    with pytest.raises(NotDiskTopology, match="duplicate directed edge"):
        extract_boundary_loop(build_surface_mesh(nodes, [[0, 1, 2], [0, 1, 3]]))


def test_closed_surface_rejected():
    # the faces of a tetrahedron, consistently oriented: every edge is
    # shared, so there is no boundary
    nodes = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    tris = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    mesh = SurfaceMesh2D(nodes, tris)
    with pytest.raises(NotDiskTopology, match="closed surface"):
        extract_boundary_loop(mesh)


def set_walk_boundary_loop(triangles):
    """Boundary cycle from a Python set of directed edges, walked from the
    lowest boundary node."""
    directed = {(a, b) for tri in triangles.tolist()
                for a, b in zip(tri, tri[1:] + tri[:1])}
    successor = {a: b for a, b in directed if (b, a) not in directed}
    loop = [min(successor)]
    while successor[loop[-1]] != loop[0]:
        loop.append(successor[loop[-1]])
    return loop


def test_edge_routines_match_set_and_structured_oracles():
    rng = np.random.default_rng(77)
    for _ in range(8):
        pts, tris = random_disk_mesh(rng, int(rng.integers(10, 400)))
        mesh = build_surface_mesh(pts, tris)
        assert extract_boundary_loop(mesh).tolist() == set_walk_boundary_loop(
            mesh.triangles)

        owners = {}
        for t, tri in enumerate(tris.tolist()):
            for j in range(3):
                owners.setdefault(frozenset((tri[j], tri[(j + 1) % 3])),
                                  []).append((t, j))
        single = sorted(o[0] for o in owners.values() if len(o) == 1)
        owner, slot = boundary_edges(tris)
        assert list(zip(owner.tolist(), slot.tolist())) == single

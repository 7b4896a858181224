from dataclasses import astuple

import numpy as np
import pytest

from scipy.spatial import Delaunay

from meshbench import (SynthConfig, apply_transfer, build_surface_mesh,
                       build_transfer, tutte_embed)
from meshbench.edges import boundary_edges
from meshbench.errors import IndexOutOfRange, PointOutsideDomain, ShapeMismatch
from meshbench.mmgp import extract_triangle_geometry
from meshbench.synthetic import build_plate_sample
from meshbench.transfer import _barycentric, _stable_order, _triangle_grid

from conftest import random_disk_mesh, square_triangulation


def four_triangle_mesh():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [0.5, 0.5]])
    tris = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return nodes, tris


def oracle_locate(nodes, tris, point):
    """Brute-force scan: first containing triangle and dense barycentrics."""
    for t, (i, j, k) in enumerate(tris):
        a, b, c = nodes[i], nodes[j], nodes[k]
        mat = np.array([[b[0] - a[0], c[0] - a[0]],
                        [b[1] - a[1], c[1] - a[1]]])
        vw = np.linalg.solve(mat, point - a)
        bary = np.array([1.0 - vw.sum(), vw[0], vw[1]])
        if (bary >= -1e-12).all():
            return t, bary
    raise AssertionError("oracle found no containing triangle")


def closest_point_on_triangle(p, a, b, c):
    """Closest point to an outside point p on triangle abc, with its
    squared distance."""
    best = None
    for q0, q1 in ((a, b), (b, c), (c, a)):
        d = q1 - q0
        t = float(np.clip((p - q0) @ d / (d @ d), 0.0, 1.0))
        cp = q0 + t * d
        dist2 = float((p - cp) @ (p - cp))
        if best is None or dist2 < best[0]:
            best = (dist2, cp)
    return best


def oracle_snap_value(nodes, tris, point, field):
    """Brute-force scan of every triangle: the field at the nearest point."""
    nearest = [closest_point_on_triangle(point, *nodes[tri]) for tri in tris]
    t = int(np.argmin([dist2 for dist2, _ in nearest]))
    _, bary = oracle_locate(nodes, tris[t:t + 1], nearest[t][1])
    bary = np.clip(bary, 0.0, None)
    return (bary / bary.sum()) @ field[tris[t]]


def scan_snap(nodes, tris, point):
    """All-edge scan in Python floats: the nearest boundary edge's owner
    and weights (ties to the smallest edge index), its distance, and
    whether another edge ties with it."""
    owner, slot = boundary_edges(tris)
    p0, p1 = (float(x) for x in point)
    best, tied = None, False
    for e in range(owner.size):
        (a0, a1), (b0, b1) = (nodes[tris[owner[e], (slot[e] + j) % 3]].tolist()
                              for j in (0, 1))
        e0, e1 = b0 - a0, b1 - a1
        length2 = e0 * e0 + e1 * e1
        dot = (p0 - a0) * e0 + (p1 - a1) * e1
        t = min(max(dot / length2, 0.0), 1.0) if length2 > 0 else 0.0
        g0 = p0 - ((1.0 - t) * a0 + t * b0)
        g1 = p1 - ((1.0 - t) * a1 + t * b1)
        dist2 = g0 * g0 + g1 * g1
        if best is not None and dist2 == best[0]:
            tied = True
        if best is None or dist2 < best[0]:
            best, tied = (dist2, e, t), False
    dist2, e, t = best
    weights = np.zeros(3)
    weights[slot[e]] = 1.0 - t
    weights[(slot[e] + 1) % 3] = t
    return owner[e], weights, np.sqrt(dist2), tied


def probes_outside_unit_square(rng, n):
    """Points up to 0.05 outside each side of the unit square, and beyond
    its corners."""
    along = rng.uniform(0.0, 1.0, n)
    out = rng.uniform(1e-6, 0.05, n)
    sides = [np.stack([along, -out], axis=1),
             np.stack([1.0 + out, along], axis=1),
             np.stack([along, 1.0 + out], axis=1),
             np.stack([-out, along], axis=1)]
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    beyond = corners + np.sign(corners - 0.5) * rng.uniform(1e-6, 0.03,
                                                             (4, 2))
    return np.vstack(sides + [beyond])


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_snap_matches_bruteforce_oracle(seed):
    nodes, tris = square_triangulation(seed=seed, n_interior=40)
    rng = np.random.default_rng(seed)
    # all outside the source's bounding box, so their grid cells are
    # clipped; the probes below the bottom side's inner vertices and beyond
    # the corners are as near to two edges meeting at a vertex
    probes = np.vstack([probes_outside_unit_square(rng, 10),
                        nodes[4:9] - [0.0, 0.01]])
    field = rng.normal(size=len(nodes))
    op = build_transfer(nodes, tris, probes, tol=0.05)
    out = apply_transfer(op, field)
    ties = 0
    for i, p in enumerate(probes):
        expected = oracle_snap_value(nodes, tris, p, field)
        assert abs(out[i] - expected) < 1e-12
        owner, weights, _, tied = scan_snap(nodes, tris, p)
        assert op.element_ids[i] == owner
        assert op.weights[i].tobytes() == weights.tobytes()
        ties += tied
    assert ties >= 9
    # boundary edges handed in by the caller give the same operator
    given = build_transfer(nodes, tris, probes, tol=0.05,
                           boundary=boundary_edges(tris))
    for a, b in zip(astuple(op), astuple(given)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_snap_matches_scan_on_a_fine_polygon():
    # 400 chords of the unit circle in a 20 x 20 edge grid: a target out
    # on the circle, or beyond it, can sit in a cell that its nearest
    # chord's own box misses
    k = 400
    angle = 2.0 * np.pi * np.arange(k) / k
    nodes = np.vstack([np.stack([np.cos(angle), np.sin(angle)], axis=1),
                       [[0.0, 0.0]]])
    tris = np.stack([np.arange(k), (np.arange(k) + 1) % k,
                     np.full(k, k)], axis=1)
    rng = np.random.default_rng(25)
    phi = rng.uniform(0.0, 2.0 * np.pi, 300)
    radius = np.concatenate([rng.uniform(1.0, 1.04, 200), np.ones(100)])
    probes = np.vstack([np.stack([radius * np.cos(phi),
                                  radius * np.sin(phi)], axis=1),
                        1.03 * nodes[:k:40]])  # beyond vertices: ties
    op = build_transfer(nodes, tris, probes, tol=0.02)
    ties = 0
    for i, p in enumerate(probes):
        owner, weights, _, tied = scan_snap(nodes, tris, p)
        assert op.element_ids[i] == owner
        assert op.weights[i].tobytes() == weights.tobytes()
        ties += tied
    assert ties >= 10


def test_snap_to_boundary_vertex_takes_smallest_owner_id():
    nodes, tris = square_triangulation(seed=24, n_interior=30)
    vertex = 4  # (1/6, 0), inside the bottom side
    probe = nodes[vertex] + [0.0, -0.01]
    # the two bottom-side edges meeting at the vertex are equally near
    owners = [t for t, tri in enumerate(tris)
              if vertex in tri and sum(nodes[j][1] == 0.0 for j in tri) == 2]
    assert len(owners) == 2
    op = build_transfer(nodes, tris, [probe], tol=0.05)
    assert op.element_ids[0] == min(owners)
    at_vertex = op.vertex_ids[0] == vertex
    assert op.weights[0][at_vertex].tolist() == [1.0]
    assert (op.weights[0][~at_vertex] == 0.0).all()


def test_vertex_target_gets_unit_weight():
    nodes, tris = four_triangle_mesh()
    op = build_transfer(nodes, tris, [[0.5, 0.5]])
    weights = np.round(op.weights[0], 12)
    assert sorted(weights) == [0.0, 0.0, 1.0]
    vertex = op.vertex_ids[0][np.argmax(op.weights[0])]
    assert vertex == 4


def test_centroid_weights_are_thirds():
    nodes, tris = four_triangle_mesh()
    centroid = nodes[[0, 1, 4]].mean(axis=0)
    op = build_transfer(nodes, tris, [centroid])
    assert op.element_ids[0] == 0
    assert np.abs(op.weights[0] - 1.0 / 3.0).max() < 1e-12


def test_far_outside_point_rejected():
    nodes, tris = four_triangle_mesh()
    with pytest.raises(PointOutsideDomain):
        build_transfer(nodes, tris, [[1.1414, 0.5]], tol=1e-8)


@pytest.mark.parametrize("far", [
    [1.06, 1.06],   # 0.085 from the corner, in a cell with edges
    [-3.0, 9.0],    # far beyond the grid, clipped into a corner cell
])
def test_snap_error_names_the_first_far_target_and_its_distance(far):
    nodes, tris = square_triangulation(seed=21, n_interior=40)
    # tol = 0.05 allows 0.05 * sqrt(2) = 0.0707 of the unit square
    targets = np.array([[0.5, 0.5], [1.05, 0.5], far, [2.0, 2.0]])
    _, _, dist, _ = scan_snap(nodes, tris, targets[2])
    with pytest.raises(PointOutsideDomain) as err:
        build_transfer(nodes, tris, targets, tol=0.05)
    assert str(err.value).startswith(
        f"target 2 at {targets[2].tolist()} lies {dist:.3e} from the source "
        f"mesh (allowed {0.05 * np.sqrt(2):.3e})")


def test_snap_error_for_a_target_in_a_cell_without_edges():
    # two unit squares 3 apart: the edge grid's 2 x 2 cells split between
    # them, and the off-diagonal cells hold no edge
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    nodes = np.vstack([square, square + 3.0])
    tris = np.array([[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]])
    with pytest.raises(PointOutsideDomain,
                       match=r"target 0 at \[0.5, 3.5\] lies 2.500e\+00 "):
        build_transfer(nodes, tris, [[0.5, 3.5]], tol=0.1)


def test_barely_outside_point_snaps():
    nodes, tris = four_triangle_mesh()
    op = build_transfer(nodes, tris, [[1.0 + 1e-9, 0.5]], tol=1e-8)
    w = op.weights[0]
    assert (w >= 0.0).all()
    assert abs(w.sum() - 1.0) < 1e-12
    value = apply_transfer(op, nodes[:, 0])  # x-coordinate field
    assert abs(value[0] - 1.0) < 1e-8


def test_affine_field_reproduced_exactly():
    nodes, tris = square_triangulation(seed=3, n_interior=60)
    f = lambda p: 1.0 + 2.0 * p[:, 0] - p[:, 1]
    rng = np.random.default_rng(4)
    targets = rng.uniform(0.01, 0.99, size=(40, 2))
    op = build_transfer(nodes, tris, targets)
    out = apply_transfer(op, f(nodes))
    assert np.abs(out - f(targets)).max() < 1e-12


def test_affine_between_unrelated_triangulations():
    na, ta = square_triangulation(seed=5, n_interior=50)
    nb, tb = square_triangulation(seed=6, n_interior=75)
    f = lambda p: -0.5 + 0.25 * p[:, 0] + 3.0 * p[:, 1]
    op = build_transfer(na, ta, nb)
    assert np.abs(apply_transfer(op, f(na)) - f(nb)).max() < 1e-12


def test_constant_field_stays_constant():
    nodes, tris = square_triangulation(seed=8, n_interior=40)
    targets = np.random.default_rng(9).uniform(0.05, 0.95, size=(25, 2))
    op = build_transfer(nodes, tris, targets)
    out = apply_transfer(op, np.full(len(nodes), 2.75))
    assert np.abs(out - 2.75).max() < 1e-12


def test_random_probes_match_bruteforce_oracle():
    nodes, tris = four_triangle_mesh()
    rng = np.random.default_rng(11)
    probes = np.array([[0.3, 0.2], [0.7, 0.6], [0.45, 0.9]])
    field = rng.normal(size=len(nodes))
    op = build_transfer(nodes, tris, probes)
    out = apply_transfer(op, field)
    for i, p in enumerate(probes):
        t, bary = oracle_locate(nodes, tris, p)
        expected = bary @ field[tris[t]]
        assert abs(out[i] - expected) < 1e-12


def test_linearity_in_the_field():
    nodes, tris = square_triangulation(seed=12, n_interior=30)
    rng = np.random.default_rng(13)
    targets = rng.uniform(0.1, 0.9, size=(20, 2))
    op = build_transfer(nodes, tris, targets)
    f = rng.normal(size=len(nodes))
    g = rng.normal(size=len(nodes))
    a, b = 2.5, -1.25
    combined = apply_transfer(op, a * f + b * g)
    separate = a * apply_transfer(op, f) + b * apply_transfer(op, g)
    assert np.abs(combined - separate).max() < 1e-12


def test_source_vertices_transfer_to_identity():
    nodes, tris = square_triangulation(seed=14, n_interior=35)
    op = build_transfer(nodes, tris, nodes)
    for k in range(2):
        out = apply_transfer(op, nodes[:, k])
        assert np.abs(out - nodes[:, k]).max() < 1e-12


def test_weights_sum_to_one_invariant():
    nodes, tris = square_triangulation(seed=15, n_interior=45)
    targets = np.random.default_rng(16).uniform(0.0, 1.0, size=(60, 2))
    op = build_transfer(nodes, tris, targets)
    assert np.abs(op.weights.sum(axis=1) - 1.0).max() < 1e-12
    assert op.weights.min() >= -1e-10


def test_apply_transfer_shape_mismatch():
    nodes, tris = four_triangle_mesh()
    op = build_transfer(nodes, tris, [[0.5, 0.4]])
    with pytest.raises(ShapeMismatch):
        apply_transfer(op, np.zeros(7))


@pytest.mark.parametrize("nodes, tris, error", [
    (np.eye(3, 2), [[0, 1, -1]], IndexOutOfRange),
    (np.eye(3, 2), [[0, 1, 3]], IndexOutOfRange),
    (np.zeros((0, 2)), np.zeros((0, 3), dtype=int), ShapeMismatch),
    (np.eye(3, 2), np.zeros((0, 3), dtype=int), ShapeMismatch),
    (np.eye(3, 2), [0, 1, 2], ShapeMismatch),
    (np.eye(3), [[0, 1, 2]], ShapeMismatch),
], ids=["negative_id", "id_past_end", "empty", "no_triangles",
        "flat_triangles", "3d_nodes"])
def test_malformed_source_mesh_raises_typed_error(nodes, tris, error):
    with pytest.raises(error):
        build_transfer(nodes, tris, [[0.2, 0.2]])


def test_deterministic_tie_break_smallest_triangle_id():
    nodes, tris = four_triangle_mesh()
    # point on the shared edge between triangles 0 and 1
    op = build_transfer(nodes, tris, [[0.75, 0.25]])
    assert op.element_ids[0] == 0


def grid_rows_oracle(grid, nodes, tris):
    """Per-triangle double loop over the cells its bounding box overlaps."""
    rows = [[] for _ in range(grid.ncell * grid.ncell)]
    for t, tri in enumerate(tris):
        lo, hi = grid._cell_of(np.stack([nodes[tri].min(axis=0),
                                         nodes[tri].max(axis=0)]))
        for ix in range(lo[0], hi[0] + 1):
            for iy in range(lo[1], hi[1] + 1):
                rows[ix * grid.ncell + iy].append(t)
    return rows


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_grid_rows_match_per_triangle_bbox_loop(seed):
    rng = np.random.default_rng(seed)
    nodes, tris = random_disk_mesh(rng, int(rng.integers(20, 300)))
    grid = _triangle_grid(nodes, tris.astype(np.int64))
    assert grid.offsets[0] == 0
    assert grid.offsets[-1] == len(grid.items)
    for c, expected in enumerate(grid_rows_oracle(grid, nodes, tris)):
        # the oracle appends ids in increasing order: rows must ascend
        assert grid.items[grid.offsets[c]:grid.offsets[c + 1]].tolist() \
            == expected

    points = rng.uniform(-1.2, 1.2, size=(50, 2))
    pair_t, pair_tri = grid.candidates(points)
    cells = grid._cell_of(points)
    expected = [(i, t) for i, (ix, iy) in enumerate(cells)
                for t in grid.items[grid.offsets[ix * grid.ncell + iy]:
                                    grid.offsets[ix * grid.ncell + iy + 1]]]
    assert list(zip(pair_t.tolist(), pair_tri.tolist())) == expected


def test_radix_order_equals_int64_stable_argsort_beyond_16_bits():
    rng = np.random.default_rng(51)
    keys = rng.integers(0, 2**32, 5000)
    keys[::7] = keys[3]  # ties, resolved by position
    assert _stable_order(keys).tolist() == \
        np.argsort(keys, kind="stable").tolist()

    # a plate of 190 nodes per side: 71,442 triangles, 267**2 cells
    r = 190
    s = np.linspace(0.0, 1.0, r)
    nodes = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1).reshape(-1, 2)
    nodes += rng.uniform(-0.3, 0.3, nodes.shape) / r
    v00 = (np.arange(r - 1)[:, None] * r + np.arange(r - 1)).ravel()
    tris = np.concatenate([np.stack([v00, v00 + r, v00 + r + 1], axis=1),
                           np.stack([v00, v00 + r + 1, v00 + 1], axis=1)])
    grid = _triangle_grid(nodes, tris)
    assert len(tris) > 65_536 and grid.ncell ** 2 > 65_536

    # every (triangle, overlapped cell) pair, triangle-major
    corners = nodes[tris]
    lo = grid._cell_of(corners.min(axis=1))
    span = grid._cell_of(corners.max(axis=1)) - lo + 1
    tri_ids, keys = [], []
    for dx in range(span[:, 0].max()):
        for dy in range(span[:, 1].max()):
            ok = (dx < span[:, 0]) & (dy < span[:, 1])
            tri_ids.append(np.flatnonzero(ok))
            keys.append((lo[ok, 0] + dx) * grid.ncell + lo[ok, 1] + dy)
    tri_ids, keys = np.concatenate(tri_ids), np.concatenate(keys)
    major = np.argsort(tri_ids, kind="stable")
    tri_ids, keys = tri_ids[major], keys[major]
    assert keys.max() >= 2**16
    assert grid.items.tolist() == \
        tri_ids[np.argsort(keys, kind="stable")].tolist()
    assert grid.offsets.tolist() == [0] + np.cumsum(np.bincount(
        keys, minlength=grid.ncell ** 2)).tolist()


def bruteforce_locate(nodes, tris, targets):
    """Smallest id of a triangle containing each target (scanning every
    triangle), or -1, and the weights in that triangle."""
    k, m = len(targets), len(tris)
    pair_tri = np.tile(np.arange(m), k)
    bary = _barycentric(nodes, tris, pair_tri,
                        np.repeat(targets, m, axis=0)).reshape(k, m, 3)
    inside = (bary >= -1e-12).all(axis=2)
    first = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    return first, bary[np.arange(k), first]


def assert_locator_matches_bruteforce(nodes, tris, targets, tol):
    op = build_transfer(nodes, tris, targets, tol=tol)
    first, weights = bruteforce_locate(nodes, tris, targets)
    found = first >= 0
    assert found.sum() > len(targets) // 2
    assert op.element_ids[found].tolist() == first[found].tolist()
    assert op.weights[found].tobytes() == weights[found].tobytes()
    # the one barycentric pass equals a second pass over the located pairs
    second = _barycentric(nodes, tris, op.element_ids[found], targets[found])
    assert op.weights[found].tobytes() == second.tobytes()
    # the rest were snapped onto a boundary edge: one weight is exactly 0
    assert (op.weights[~found] == 0.0).any(axis=1).all()


@pytest.mark.parametrize("seed", [41, 42, 43, 44])
def test_locator_matches_bruteforce_on_random_disk_meshes(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 300))
    radius, angle = np.sqrt(rng.uniform(0, 1, n)), rng.uniform(0, 2 * np.pi, n)
    nodes = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    tris = Delaunay(nodes).simplices
    edges = tris[:, [0, 1]]
    probes = np.vstack([
        rng.uniform(-0.8, 0.8, size=(120, 2)),
        nodes[rng.integers(0, n, 40)],                        # vertex ties
        0.5 * (nodes[edges[:, 0]] + nodes[edges[:, 1]])[:40],  # edge ties
        rng.uniform(-1.0, 1.0, size=(20, 2))])                 # some outside
    assert_locator_matches_bruteforce(nodes, tris, probes, tol=1.0)


@pytest.mark.parametrize("res_a, res_b", [(12, 17), (20, 9)])
def test_locator_matches_bruteforce_on_tutte_embedded_plates(res_a, res_b):
    embedded = []
    for sid, res in enumerate((res_a, res_b)):
        config = SynthConfig(seed=7, min_nodes_per_side=res,
                             max_nodes_per_side=res)
        mesh = build_surface_mesh(
            *extract_triangle_geometry(build_plate_sample(config, sid)))
        embedded.append((tutte_embed(mesh), mesh.triangles))
    (source, tris), (targets, _) = embedded
    assert_locator_matches_bruteforce(source, tris, targets, tol=0.05)

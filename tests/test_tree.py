import dataclasses
import enum

import numpy as np
import pytest

from meshbench import (
    Base,
    ElementType,
    LinkSpec,
    Location,
    build_tree,
    implicit_connectivity,
    make_field,
    make_structured_zone,
    make_unstructured_zone,
    resolve_links,
    trees_equal,
    validate_tree,
)
from meshbench.errors import (
    DimensionMismatch,
    DuplicateName,
    IndexOutOfRange,
    MissingLinkTarget,
    NotStructured,
)
from meshbench.tree import (
    ElementBlock,
    FieldArray,
    MeshTree,
    TagKind,
    TagSet,
    Zone,
    ZoneType,
)

from conftest import square_zone


def tri_zone(name="Zone"):
    return make_unstructured_zone(
        name, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        blocks=[(ElementType.TRI_3, [[0, 1, 2]])])


def test_build_minimal_tree():
    tree = build_tree([Base("Base_2_2", 2, 2, (tri_zone(),))], time=0.0)
    assert len(tree.bases) == 1
    assert tree.bases[0].zones[0].n_vertices == 3
    assert validate_tree(tree).empty


def test_duplicate_base_names_rejected():
    bases = [Base("Base_2_2", 2, 2, (tri_zone(),)),
             Base("Base_2_2", 2, 2, (tri_zone(),))]
    with pytest.raises(DuplicateName):
        build_tree(bases, time=0.0)


def test_connectivity_out_of_range_rejected():
    zone = make_unstructured_zone(
        "Zone", [[0, 0], [1, 0], [0, 1], [1, 1]],
        blocks=[(ElementType.TRI_3, [[0, 1, 7]])])
    with pytest.raises(IndexOutOfRange):
        build_tree([Base("Base_2_2", 2, 2, (zone,))], time=0.0)


def test_cell_dim_exceeding_phys_dim_rejected():
    with pytest.raises(DimensionMismatch):
        build_tree([Base("Base_3_2", 3, 2, ())], time=0.0)


@pytest.mark.parametrize("time", [-1.0, float("nan"), float("inf")])
def test_tree_time_must_be_finite_and_non_negative(time):
    with pytest.raises(DimensionMismatch, match="time"):
        build_tree([Base("B", 2, 2, (square_zone(),))], time=time)


def test_validate_vertex_field_length():
    bad = Zone(name="Zone", zone_type=ZoneType.Unstructured, n_vertices=4,
               coordinates=np.zeros((4, 2)),
               fields=(FieldArray("f", Location.Vertex, np.zeros(5)),))
    report = validate_tree(MeshTree(bases=(Base("B", 2, 2, (bad,)),), time=0.0))
    assert len(report.violations) == 1
    path, message = report.violations[0]
    assert path == "B/Zone/fields/f"
    assert "5" in message and "4" in message


@pytest.mark.parametrize("shape", [(), (4, 1), (1, 4)])
@pytest.mark.parametrize("location", [Location.Vertex, Location.CellCenter,
                                      Location.FaceCenter])
def test_field_values_must_be_1d(shape, location):
    zone = dataclasses.replace(square_zone(), fields=(
        FieldArray("f", location, np.zeros(shape)),))
    tree = MeshTree(bases=(Base("B", 2, 2, (zone,)),), time=0.0)
    assert validate_tree(tree).violations == [
        ("B/Fluid/fields/f", f"field values must be 1-D, got shape {shape}")]
    with pytest.raises(DimensionMismatch, match="1-D"):
        build_tree(tree.bases)


@pytest.mark.parametrize("shape", [(), (2, 1)])
@pytest.mark.parametrize("kind", [TagKind.NodalTag, TagKind.ElementTag])
def test_tag_ids_must_be_1d(shape, kind):
    zone = dataclasses.replace(square_zone(), tags=(
        TagSet("t", kind, np.zeros(shape, dtype=np.int64)),))
    tree = MeshTree(bases=(Base("B", 2, 2, (zone,)),), time=0.0)
    assert validate_tree(tree).violations == [
        ("B/Fluid/tags/t", f"tag ids must be 1-D, got shape {shape}")]
    with pytest.raises(DimensionMismatch, match="1-D"):
        build_tree(tree.bases)


def test_validate_structured_dims_product():
    zone = Zone(name="S", zone_type=ZoneType.Structured, n_vertices=8,
                coordinates=np.zeros((8, 3)), structured_dims=(3, 3, 1))
    report = validate_tree(MeshTree(bases=(Base("B", 3, 3, (zone,)),), time=0.0))
    assert len(report.violations) == 1
    assert "dims" in report.violations[0][1]


def test_facecenter_length_is_noted_not_violated():
    zone = make_unstructured_zone(
        "Zone", [[0, 0], [1, 0], [0, 1]],
        blocks=[(ElementType.TRI_3, [[0, 1, 2]])],
        fields=[make_field("flux", [1.0, 2.0, 3.0, 4.0], Location.FaceCenter)])
    tree = build_tree([Base("B", 2, 2, (zone,))], 0.0)
    report = validate_tree(tree)
    assert report.empty
    assert any("unchecked" in note for _, note in report.notes)


def test_construction_implies_conformance_randomized():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(3, 30))
        coords = rng.normal(size=(n, 2))
        conn = rng.integers(0, n, size=(int(rng.integers(1, 20)), 3))
        fields = [make_field("f", rng.normal(size=n), Location.Vertex)]
        zone = make_unstructured_zone("Z", coords,
                                      blocks=[(ElementType.TRI_3, conn)],
                                      fields=fields)
        tree = build_tree([Base("Base_2_2", 2, 2, (zone,))],
                          time=float(rng.uniform(0, 10)))
        assert validate_tree(tree).empty


# -- links -------------------------------------------------------------------


def linked_pair():
    tree0 = build_tree([Base("B", 2, 2, (square_zone(),))], time=0.0)
    shell = Zone(name="Fluid", zone_type=ZoneType.Unstructured, n_vertices=4,
                 coordinates=None)
    tree1 = build_tree([Base("B", 2, 2, (shell,))], time=0.01,
                       links=[LinkSpec(0.0, ("B/Fluid",))])
    return tree0, tree1


def test_zones_copy_the_callers_writable_arrays_and_hold_read_only_ones():
    base = np.arange(6.0)
    given = {"coordinates": np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                      [0.0, 1.0]]),
             "connectivity": np.array([[0, 1, 2], [0, 2, 3]]),
             "u": base[:4],  # a contiguous view of the caller's array
             "grid": np.zeros((2, 2, 2))}
    before = {name: a.copy() for name, a in given.items()}
    zone = make_unstructured_zone(
        "Z", given["coordinates"],
        blocks=[(ElementType.TRI_3, given["connectivity"])],
        fields=[make_field("u", given["u"])])
    grid = make_structured_zone("G", given["grid"].reshape(4, 2), (2, 2))
    held = {"coordinates": zone.coordinates,
            "connectivity": zone.element_blocks[0].connectivity,
            "u": zone.fields[0].values, "grid": grid.coordinates}
    for name, a in given.items():
        assert a.flags.writeable, name
        a[...] = 9
    base[:] = 9
    for name, a in held.items():
        assert not a.flags.writeable, name
        assert np.array_equal(a.reshape(before[name].shape), before[name]), name

    frozen = np.arange(4.0)
    frozen.setflags(write=False)
    assert make_field("u", frozen).values is frozen


def test_resolve_links_copies_content():
    tree0, tree1 = linked_pair()
    resolved = resolve_links(tree1, {0.0: tree0}.get)
    zone = resolved.bases[0].zones[0]
    source = tree0.bases[0].zones[0]
    assert np.array_equal(zone.coordinates, source.coordinates)
    assert np.array_equal(zone.element_blocks[0].connectivity,
                          source.element_blocks[0].connectivity)
    assert resolved.links == ()
    assert tree1.bases[0].zones[0].coordinates is None  # source unmodified


def test_resolve_without_links_is_identity():
    tree = build_tree([Base("B", 2, 2, (square_zone(),))], time=0.0)
    assert trees_equal(resolve_links(tree, lambda t: None), tree)


def test_resolve_is_idempotent():
    tree0, tree1 = linked_pair()
    once = resolve_links(tree1, {0.0: tree0}.get)
    twice = resolve_links(once, lambda t: None)
    assert trees_equal(once, twice)


def test_resolve_missing_time_raises():
    _, tree1 = linked_pair()
    other = build_tree([Base("B", 2, 2, (square_zone(),))], time=0.005)
    with pytest.raises(MissingLinkTarget):
        resolve_links(tree1, {0.005: other}.get)


def test_resolve_missing_path_raises():
    tree0 = build_tree([Base("Other", 2, 2, (square_zone(),))], time=0.0)
    _, tree1 = linked_pair()
    with pytest.raises(MissingLinkTarget):
        resolve_links(tree1, {0.0: tree0}.get)


def test_link_must_point_at_a_gap():
    zone = square_zone()  # fully materialized
    with pytest.raises(MissingLinkTarget):
        build_tree([Base("B", 2, 2, (zone,))], time=0.01,
                   links=[LinkSpec(0.0, ("B/Fluid/coordinates",))])


def test_gap_without_link_rejected():
    shell = Zone(name="Fluid", zone_type=ZoneType.Unstructured, n_vertices=4,
                 coordinates=None)
    with pytest.raises(MissingLinkTarget):
        build_tree([Base("B", 2, 2, (shell,))], time=0.01)


def test_link_target_time_must_be_earlier():
    shell = Zone(name="Fluid", zone_type=ZoneType.Unstructured, n_vertices=4,
                 coordinates=None)
    with pytest.raises(MissingLinkTarget):
        build_tree([Base("B", 2, 2, (shell,))], time=0.01,
                   links=[LinkSpec(0.02, ("B/Fluid",))])


# -- implicit connectivity ----------------------------------------------------


def quad_oracle(ni, nj):
    """Enumerate quad cells of an (ni, nj) vertex grid, i fastest."""
    cells = []
    for cj in range(nj - 1):
        for ci in range(ni - 1):
            v = lambda di, dj: (ci + di) + ni * (cj + dj)
            cells.append([v(0, 0), v(1, 0), v(1, 1), v(0, 1)])
    return np.asarray(cells)


def hexa_oracle(ni, nj, nk):
    cells = []
    for ck in range(nk - 1):
        for cj in range(nj - 1):
            for ci in range(ni - 1):
                v = lambda di, dj, dk: ((ci + di) + ni * ((cj + dj)
                                        + nj * (ck + dk)))
                cells.append([v(0, 0, 0), v(1, 0, 0), v(1, 1, 0), v(0, 1, 0),
                              v(0, 0, 1), v(1, 0, 1), v(1, 1, 1), v(0, 1, 1)])
    return np.asarray(cells)


def test_implicit_quads_3x2():
    zone = make_structured_zone("S", np.zeros((6, 2)), (3, 2))
    blocks = implicit_connectivity(zone)
    assert blocks[0].element_type is ElementType.QUAD_4
    assert blocks[0].connectivity.tolist() == [[0, 1, 4, 3], [1, 2, 5, 4]]
    assert np.array_equal(blocks[0].connectivity, quad_oracle(3, 2))


def test_implicit_quads_2x2():
    zone = make_structured_zone("S", np.zeros((4, 2)), (2, 2))
    blocks = implicit_connectivity(zone)
    assert blocks[0].connectivity.tolist() == [[0, 1, 3, 2]]


def test_implicit_not_structured():
    with pytest.raises(NotStructured):
        implicit_connectivity(tri_zone())


@pytest.mark.parametrize("dims", [(2, 3), (4, 4), (5, 2), (7, 3)])
def test_implicit_quads_match_oracle(dims):
    ni, nj = dims
    zone = make_structured_zone("S", np.zeros((ni * nj, 2)), dims)
    blocks = implicit_connectivity(zone)
    assert np.array_equal(blocks[0].connectivity, quad_oracle(ni, nj))
    assert blocks[0].n_elements == (ni - 1) * (nj - 1)
    assert blocks[0].connectivity.min() >= 0
    assert blocks[0].connectivity.max() < ni * nj


@pytest.mark.parametrize("dims", [(1, 3), (4, 1), (5, 5, 1), (1, 2, 2)])
def test_implicit_cells_of_a_flat_grid_are_empty(dims):
    zone = make_structured_zone("S", None, dims)
    assert implicit_connectivity(zone) == []


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2), (3, 4, 2)])
def test_implicit_hexa_match_oracle(dims):
    ni, nj, nk = dims
    zone = make_structured_zone("S", np.zeros((ni * nj * nk, 3)), dims)
    blocks = implicit_connectivity(zone)
    assert blocks[0].element_type is ElementType.HEXA_8
    assert np.array_equal(blocks[0].connectivity, hexa_oracle(*dims))


def test_structured_zone_validates_against_cellcenter_field():
    coords = np.zeros((6, 2))
    zone = make_structured_zone(
        "S", coords, (3, 2),
        fields=[make_field("q", [1.0, 2.0], Location.CellCenter)])
    tree = build_tree([Base("B", 2, 2, (zone,))], 0.0)
    assert validate_tree(tree).empty  # 2 implicit cells and 2 values


# -- structural equality --------------------------------------------------------


def test_trees_equal_tells_signed_zeros_apart():
    def at(time):
        return build_tree([Base("B", 2, 2, (square_zone(),))], time=time)

    shell = Zone(name="Fluid", zone_type=ZoneType.Unstructured, n_vertices=4,
                 coordinates=None)

    def linked_to(target_time):
        return build_tree([Base("B", 2, 2, (shell,))], time=1.0,
                          links=[LinkSpec(target_time, ("B/Fluid",))])

    assert trees_equal(at(0.0), at(0.0))
    assert not trees_equal(at(0.0), at(-0.0))
    assert trees_equal(linked_to(0.0), linked_to(0.0))
    assert not trees_equal(linked_to(0.0), linked_to(-0.0))
    assert trees_equal(linked_to(0), linked_to(0.0))  # stored as a real


def test_trees_equal_tells_dtypes_apart():
    tree = build_tree([Base("B", 2, 2, (square_zone(),))], time=0.0)
    zone = tree.bases[0].zones[0]
    block = zone.element_blocks[0]
    as_float = dataclasses.replace(
        block, connectivity=block.connectivity.astype(np.float64))
    other = MeshTree(bases=(Base("B", 2, 2, (dataclasses.replace(
        zone, element_blocks=(as_float,)),)),), time=0.0)
    assert np.array_equal(as_float.connectivity, block.connectivity)
    assert not trees_equal(tree, other)


def one_leaf_changes(value):
    """Yield (owner, copy) pairs: each copy differs from ``value`` in one
    leaf, and owner is the (class name, field name) of the innermost
    dataclass field holding that leaf (None above any dataclass)."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            for owner, changed in one_leaf_changes(getattr(value, f.name)):
                yield (owner or (type(value).__name__, f.name),
                       dataclasses.replace(value, **{f.name: changed}))
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            for owner, changed in one_leaf_changes(item):
                yield owner, value[:i] + (changed,) + value[i + 1:]
        yield None, value[:-1] if value else (None,)
    elif isinstance(value, np.ndarray):
        flipped = value.copy()
        flipped.view(np.uint8)[0] ^= 1
        yield None, flipped
    elif isinstance(value, enum.Enum):
        members = list(type(value))
        yield None, members[(members.index(value) + 1) % len(members)]
    elif isinstance(value, float):
        yield None, float(np.nextafter(value, np.inf))
    elif isinstance(value, (int, str)):
        yield None, value + type(value)(1)
    else:
        assert value is None
        yield None, ()


def test_every_datamodel_field_takes_part_in_trees_equal():
    unstructured = make_unstructured_zone(
        "U", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        blocks=[(ElementType.TRI_3, [[0, 1, 2]])],
        fields=[make_field("f", [0.5, -1.0, 2.0])],
        tags=[TagSet("t", TagKind.NodalTag, np.array([0, 2]))])
    structured = make_structured_zone("S", np.zeros((4, 2)), (2, 2))
    tree = MeshTree(bases=(Base("B", 2, 2, (unstructured, structured)),),
                    time=1.0, links=(LinkSpec(0.5, ("B/U", "B/S")),))
    owners = set()
    for owner, changed in one_leaf_changes(tree):
        assert not trees_equal(tree, changed), owner
        owners.add(owner)
    assert owners == {
        (cls.__name__, f.name)
        for cls in (MeshTree, LinkSpec, Base, Zone, ElementBlock, FieldArray,
                    TagSet)
        for f in dataclasses.fields(cls)}

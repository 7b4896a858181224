import pytest

from meshbench import Base, Location, Sample, build_tree, samples_equal
from meshbench.errors import (
    AmbiguousDefault,
    AmbiguousQuery,
    DimensionMismatch,
    FieldNotFound,
    NotFound,
    NoSuchTime,
)

from meshbench.tree import MeshTree

from conftest import square_zone


def single_time_sample(time=0.0):
    tree = build_tree([Base("Base_2_2", 2, 2,
                            (square_zone([0.1, 0.2, 0.3, 0.4]),))], time=time)
    return Sample(trees={time: tree}, scalars={"P": 2.5})


def test_mesh_times_sorted_and_empty():
    s = two_times_sample()
    assert s.get_all_mesh_times() == [0.0, 0.01]
    assert Sample().get_all_mesh_times() == []


def two_times_sample():
    t0 = build_tree([Base("Base_2_2", 2, 2,
                          (square_zone([0.1, 0.2, 0.3, 0.4]),))], time=0.0)
    t1 = build_tree([Base("Base_2_2", 2, 2,
                          (square_zone([1.1, 1.2, 1.3, 1.4]),))], time=0.01)
    return Sample(trees={0.01: t1, 0.0: t0})


def test_tree_time_must_match_key():
    tree = build_tree([Base("B", 2, 2, (square_zone(),))], time=0.5)
    with pytest.raises(DimensionMismatch):
        Sample(trees={0.0: tree})


def test_tree_times_within_tolerance_rejected():
    # get_mesh(time=5e-13) would return the tree at 0.0, so the second
    # tree could never be reached
    t0 = build_tree([Base("B", 2, 2, (square_zone(),))], time=0.0)
    t1 = build_tree([Base("B", 2, 2, (square_zone(),))], time=5e-13)
    with pytest.raises(DimensionMismatch, match="within"):
        Sample(trees={0.0: t0, 5e-13: t1})


@pytest.mark.parametrize("time", [float("nan"), float("inf")])
def test_non_finite_tree_time_rejected(time):
    # built without validation, so only the sample's own check can catch it
    tree = MeshTree(bases=(Base("B", 2, 2, (square_zone(),)),), time=time)
    with pytest.raises(DimensionMismatch, match="finite"):
        Sample(trees={time: tree})
    with pytest.raises(DimensionMismatch, match="finite"):
        Sample(trees={time: single_time_sample(0.0).get_mesh()})


def test_tree_is_stored_under_its_own_time():
    tree = build_tree([Base("B", 2, 2, (square_zone(),))], time=5e-13)
    sample = Sample(trees={0.0: tree})
    assert sample.get_all_mesh_times() == [5e-13]
    assert sample.get_mesh(time=0.0) is tree  # found within the tolerance


def test_samples_equal_is_bit_exact_on_every_real():
    def series(value):
        return Sample(time_series={"r": [(0.0, 1.0), (1.0, value)]})

    assert not samples_equal(series(0.0), series(-0.0))
    # two NaNs made separately, with the same bits
    assert samples_equal(series(float("nan")), series(float("nan")))
    assert not samples_equal(single_time_sample(0.0), single_time_sample(-0.0))


def test_get_mesh_defaults():
    s = single_time_sample(time=0.25)
    assert s.get_mesh().time == 0.25  # unique time wins even when nonzero

    s2 = two_times_sample()
    assert s2.get_mesh().time == 0.0  # smallest, since 0.0 exists

    t1 = build_tree([Base("B", 2, 2, (square_zone(),))], time=0.01)
    t2 = build_tree([Base("B", 2, 2, (square_zone(),))], time=0.02)
    with pytest.raises(AmbiguousDefault):
        Sample(trees={0.01: t1, 0.02: t2}).get_mesh()


def test_get_mesh_no_such_time():
    s = two_times_sample()
    with pytest.raises(NoSuchTime):
        s.get_mesh(time=0.02)


def test_get_mesh_time_tolerance():
    s = two_times_sample()
    assert s.get_mesh(time=0.01 + 5e-13).time == 0.01


def test_empty_sample_get_mesh():
    with pytest.raises(NoSuchTime):
        Sample().get_mesh()


def test_apply_links_reproduces_earlier_coordinates(two_base_sample):
    raw = two_base_sample.get_mesh(time=0.01)
    assert raw.bases[0].zones[0].coordinates is None
    resolved = two_base_sample.get_mesh(time=0.01, apply_links=True)
    expected = two_base_sample.get_mesh(time=0.0).base("Base_2_2") \
        .zones[0].coordinates
    got = resolved.base("Base_2_2").zones[0].coordinates
    assert got.tobytes() == expected.tobytes()
    assert resolved.links == ()


def test_get_field_fully_specified(two_base_sample):
    mach = two_base_sample.get_field("mach", base_name="Base_2_2",
                                     zone_name="Fluid",
                                     location=Location.Vertex, time=0.0)
    assert mach.tolist() == [0.5, 0.6, 0.7, 0.8]
    m_iso = two_base_sample.get_field("M_iso", base_name="Base_1_2")
    assert m_iso.tolist() == [1.0, 1.1, 1.2]


def test_get_field_base_omitted_is_ambiguous(two_base_sample):
    with pytest.raises(AmbiguousQuery):
        two_base_sample.get_field("mach")


def test_get_field_cellcenter_at_time(two_base_sample):
    erosion = two_base_sample.get_field(
        "EROSION_STATUS", base_name="Base_2_2",
        location=Location.CellCenter, time=0.01)
    assert erosion.tolist() == [0.0, 1.0]


def test_get_field_defaults_vertex_location():
    s = single_time_sample()
    assert s.get_field("mach").tolist() == [0.1, 0.2, 0.3, 0.4]


def test_get_field_not_found():
    with pytest.raises(FieldNotFound):
        single_time_sample().get_field("nope")


def test_get_scalar_and_names(two_base_sample):
    assert two_base_sample.get_scalar("P") == 101325.0
    assert two_base_sample.get_scalar_names() == ["Omega", "P"]
    with pytest.raises(NotFound):
        two_base_sample.get_scalar("missing")


def test_get_field_names_across_bases(two_base_sample):
    assert two_base_sample.get_field_names() == ["M_iso", "mach"]
    assert two_base_sample.get_field_names(time=0.01) == \
        ["EROSION_STATUS", "M_iso", "mach"]


def test_get_nodes_per_base(two_base_sample):
    fluid = two_base_sample.get_nodes(base_name="Base_2_2")
    blade = two_base_sample.get_nodes(base_name="Base_1_2")
    assert fluid.shape == (4, 2)
    assert blade.shape == (3, 2)
    with pytest.raises(AmbiguousQuery):
        two_base_sample.get_nodes()


def test_get_elements(two_base_sample):
    fluid = two_base_sample.get_elements(base_name="Base_2_2")
    assert list(fluid) == ["TRI_3"]
    assert fluid["TRI_3"].shape == (2, 3)
    blade = two_base_sample.get_elements(base_name="Base_1_2")
    assert blade["BAR_2"].tolist() == [[0, 1], [1, 2]]


def test_get_elements_linked_time(two_base_sample):
    # geometry at t=0.01 is linked; getters resolve transparently
    fluid = two_base_sample.get_elements(base_name="Base_2_2", time=0.01)
    assert fluid["TRI_3"].tolist() == [[0, 1, 2], [0, 2, 3]]


def test_get_nodal_tags(two_base_sample):
    tags = two_base_sample.get_nodal_tags(base_name="Base_2_2")
    assert {k: v.tolist() for k, v in tags.items()} == {"inlet": [0, 3]}


def test_time_series_sorted_invariant():
    with pytest.raises(DimensionMismatch):
        Sample(time_series={"r": [(0.1, 1.0), (0.1, 2.0)]})
    s = Sample(time_series={"r": [(0.0, 1.0), (0.2, 0.5)]})
    assert s.get_time_series("r") == ((0.0, 1.0), (0.2, 0.5))


def test_resolution_determinism(two_base_sample):
    a = two_base_sample.get_field("mach", base_name="Base_2_2", time=0.01)
    b = two_base_sample.get_field("mach", base_name="Base_2_2", time=0.01)
    assert a.tobytes() == b.tobytes()


def test_fully_specified_selector_never_ambiguous(two_base_sample):
    # every complete (base, zone, field, location, time) combination either
    # yields values or a not-found error, never an ambiguity
    for time in two_base_sample.get_all_mesh_times():
        tree = two_base_sample.get_mesh(time=time, apply_links=True)
        for base in tree.bases:
            for zone in base.zones:
                for f in zone.fields:
                    values = two_base_sample.get_field(
                        f.name, base_name=base.name, zone_name=zone.name,
                        location=f.location, time=time)
                    assert values.shape == f.values.shape
    with pytest.raises(FieldNotFound):
        two_base_sample.get_field("ghost", base_name="Base_2_2",
                                  zone_name="Fluid",
                                  location=Location.Vertex, time=0.0)


def test_resolve_then_query_commutes(two_base_sample):
    # query through the sample vs scan the resolved tree by hand
    via_query = two_base_sample.get_field("mach", base_name="Base_2_2",
                                          time=0.01)
    tree = two_base_sample.get_mesh(time=0.01, apply_links=True)
    zone = tree.base("Base_2_2").zones[0]
    by_hand = next(f.values for f in zone.fields
                   if f.name == "mach" and f.location is Location.Vertex)
    assert via_query.tobytes() == by_hand.tobytes()

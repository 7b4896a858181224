import datetime
import json
import random
import shutil
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from meshbench import (
    Base,
    Dataset,
    ElementType,
    LinkSpec,
    Location,
    MmgpConfig,
    PredictionBundle,
    ProblemDefinition,
    Sample,
    SynthConfig,
    TagKind,
    build_tree,
    datasets_equal,
    generate,
    load_bundle,
    load_dataset,
    load_model,
    make_field,
    make_tag,
    make_unstructured_zone,
    mmgp_fit,
    participant_export,
    save_bundle,
    save_dataset,
    samples_equal,
    save_model,
    score_hidden,
    validate_dataset,
)
from meshbench.dataset import CONSTANT_MESH_KEY
from meshbench.cli import main
from meshbench.codec import ArtifactReader, ArtifactWriter, decode_object
from meshbench.errors import (
    DimensionMismatch,
    FormatError,
    IdOutOfRange,
    InvalidDataset,
    IoFailure,
    MeshBenchError,
    MissingLinkTarget,
    NoPartition,
    NoSuchSplit,
    VersionMismatch,
)
from meshbench.storage import read_sample, write_sample
from meshbench.tree import MeshTree

from conftest import read_artifact, square_zone, write_artifact


def small_dataset(two_base_sample):
    plain = Sample(
        trees={0.0: build_tree(
            [Base("Base_2_2", 2, 2, (square_zone([0.1, 0.25, 1.0 / 3.0, 1e-300]),))],
            time=0.0)},
        scalars={"P": 0.1, "Omega": -2.5e-17, "u_max": 1.0})
    other = Sample(
        trees={0.0: build_tree(
            [Base("Base_2_2", 2, 2, (square_zone([4.0, 3.0, 2.0, 1.0]),))],
            time=0.0)},
        scalars={"P": 7.0, "Omega": 1.0})
    problem = ProblemDefinition(
        in_scalars_names=["P", "Omega"],
        out_scalars_names=["u_max"],
        out_fields_names=["mach"],
        splits={"train": [0], "test": [1, 2]},
    )
    return Dataset(samples=[plain, two_base_sample, other],
                   infos={"origin": "unit-test"}, problem=problem)


def test_round_trip_bitwise(tmp_path, two_base_sample):
    ds = small_dataset(two_base_sample)
    root = tmp_path / "ds"
    save_dataset(ds, root)
    for lazy in (False, True):
        loaded = load_dataset(root, lazy=lazy)
        assert datasets_equal(ds, loaded), f"lazy={lazy}"


def test_tree_stored_off_its_time_round_trips_bit_exactly(tmp_path):
    # the key is within the time tolerance of the tree's own time, which
    # storage writes back
    tree = build_tree([Base("B", 2, 2, (square_zone(),))], time=5e-13)
    sample = Sample(trees={0.0: tree}, scalars={"P": 1.0})
    save_dataset(Dataset(samples=[sample]), tmp_path / "ds")
    for lazy in (False, True):
        loaded = load_dataset(tmp_path / "ds", lazy=lazy).sample_at(0)
        assert samples_equal(loaded, sample), f"lazy={lazy}"


def _files(directory):
    """Paths of the files under ``directory``, relative and sorted."""
    return sorted(p.relative_to(directory).as_posix()
                  for p in directory.rglob("*") if p.is_file())


def test_layout_matches_contract(tmp_path, two_base_sample):
    root = tmp_path / "ds"
    save_dataset(small_dataset(two_base_sample), root)
    # sample 1 adds a time series and a linked second time step, which go
    # into the same file; samples lie flat, one file each
    assert _files(root) == [
        f"dataset/samples/sample_{i:09d}.manifest" for i in range(3)] + [
        "infos.yaml", "problem_definition/problem_infos.yaml"]
    assert not any(p.is_dir() for p in root.glob("dataset/samples/*"))
    problem_text = (root / "problem_definition"
                    / "problem_infos.yaml").read_text()
    assert json.loads(problem_text)["splits"] == {"test": [1, 2],
                                                  "train": [0]}
    assert json.loads((root / "infos.yaml").read_text())[
        "format_version"] == 5
    doc, payload = read_artifact(
        root / "dataset" / "samples" / "sample_000000001.manifest")
    assert [tree["time"] for tree in doc["trees"]] == ["0.0", "0.01"]
    assert doc["time_series"] == {"residual": [["0.0", "1.0"],
                                               ["0.01", "0.1"]]}
    # the payload follows the manifest line, offsets counted from its start
    coords = doc["trees"][0]["bases"][0]["zones"][0]["coordinates"]
    assert coords["offset"] == 0 and payload[:64] == np.asarray(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]).tobytes()
    # LF line endings: no CR in the raw JSON line of either file
    for path in ("dataset/samples/sample_000000001.manifest",
                 "problem_definition/problem_infos.yaml"):
        assert b"\r" not in (root / path).read_bytes().partition(b"\n")[0]


def test_unusual_strings_round_trip(tmp_path, two_base_sample):
    # next line (U+0085), a character beyond U+FFFF and a lone surrogate, in
    # infos and in the names of a field, a scalar, a time series and a
    # split, and a key of 100 characters but 200 bytes
    unusual = "line\x85break, plate \U0001F642, half \ud800"
    ds = small_dataset(two_base_sample)
    ds.infos.update({"note": unusual, "\u00e9" * 100: "long key"})
    ds.problem.splits[unusual] = [3]
    odd = Sample(trees={0.0: build_tree([Base("Base_2_2", 2, 2, (square_zone(
        [4.0, 3.0, 2.0, 1.0], field_name=unusual),))], time=0.0)},
        scalars={"P": 1.0, "Omega": 2.0, "u_max": 3.0, unusual: 4.0},
        time_series={unusual: [(0.0, 5.0)]})
    ds = Dataset(samples=[*ds.iterate(range(ds.n_samples)), odd],
                 infos=ds.infos, problem=ds.problem)
    save_dataset(ds, tmp_path / "ds")
    for path in (tmp_path / "ds").rglob("*"):
        if path.suffix in (".yaml", ".manifest"):  # the manifest line
            assert path.read_bytes().partition(b"\n")[0].isascii(), path.name
    loaded = load_dataset(tmp_path / "ds")
    assert loaded.infos == ds.infos
    assert loaded.sample_at(3).get_field_names() == [unusual]
    assert datasets_equal(ds, loaded)


def test_scalar_exact_decimal_round_trip(tmp_path):
    values = {"a": 0.1, "b": 1.0 / 3.0, "c": -2.5e-17, "d": 1e-300,
              "e": 12345.678901234567}
    sample = Sample(scalars=values)
    write_sample(sample, tmp_path / "s.manifest")
    # a sample without arrays is its manifest line alone
    assert read_artifact(tmp_path / "s.manifest")[1] == b""
    assert _files(tmp_path) == ["s.manifest"]
    back = read_sample(tmp_path / "s.manifest")
    for name, value in values.items():
        assert np.float64(back.scalars[name]).tobytes() == \
            np.float64(value).tobytes()


def test_time_series_round_trip(tmp_path, two_base_sample):
    write_sample(two_base_sample, tmp_path / "s.manifest")
    back = read_sample(tmp_path / "s.manifest")
    assert back.time_series == two_base_sample.time_series


def test_lazy_eager_equivalence(tmp_path, two_base_sample):
    root = tmp_path / "ds"
    save_dataset(small_dataset(two_base_sample), root)
    eager = load_dataset(root, lazy=False)
    lazy = load_dataset(root, lazy=True)
    for sid in (2, 0, 1):  # arbitrary access order
        a = eager.sample_at(sid)
        b = lazy.sample_at(sid)
        assert a.get_scalar_names() == b.get_scalar_names()
        assert a.get_field_names() == b.get_field_names()


def test_split_accessors(tmp_path, two_base_sample):
    ds = small_dataset(two_base_sample)
    assert ds.get_split("train") == [0]
    assert ds.get_split("test") == [1, 2]
    with pytest.raises(NoSuchSplit):
        ds.get_split("nope")
    with pytest.raises(IdOutOfRange):
        ds.sample_at(3)
    assert [s.get_scalar("P") for s in ds.iterate([2, 0])] == [7.0, 0.1]
    assert ds.sample_at(np.int64(2)) is ds.sample_at(2)
    for bad in (True, 1.5, 1.0, "1"):
        with pytest.raises(InvalidDataset, match="is not an integer"):
            ds.sample_at(bad)


def test_save_rejects_out_of_range_split(tmp_path, two_base_sample):
    ds = small_dataset(two_base_sample)
    ds.problem.splits["bogus"] = [5]
    with pytest.raises(InvalidDataset):
        save_dataset(ds, tmp_path / "ds")


def test_save_rejects_split_listing_an_id_twice(tmp_path, two_base_sample):
    ds = small_dataset(two_base_sample)
    ds.problem.splits["train"] = [0, 0, 1]
    with pytest.raises(InvalidDataset, match="splits/train: lists an id twice"):
        save_dataset(ds, tmp_path / "ds")


@pytest.mark.parametrize("splits, hidden", [
    pytest.param({"train": [0.5, 1.9]}, None, id="float_id"),
    pytest.param({"train": [0, True]}, None, id="bool_id"),
    pytest.param({"train": ["1"]}, None, id="str_id"),
    pytest.param({"train": [np.float64(2.0)]}, None, id="numpy_float_id"),
    pytest.param({}, {2.7: "Public"}, id="float_partition_key"),
    pytest.param({}, {np.True_: "Public"}, id="numpy_bool_partition_key"),
])
def test_problem_refuses_ids_that_are_not_integers(splits, hidden):
    # int() would have truncated 1.9 to 1 and read True as 1
    with pytest.raises(InvalidDataset, match="is not an integer"):
        ProblemDefinition(splits=splits, hidden_partition=hidden)


def test_problem_takes_numpy_integer_ids_and_leaves_range_to_validation(
        two_base_sample):
    ds = small_dataset(two_base_sample)
    ds.problem = ProblemDefinition(
        splits={"train": np.array([2, 0, 9])},
        hidden_partition={np.int32(1): "Public", np.uint8(2): "Private"})
    assert ds.problem.splits == {"train": [0, 2, 9]}
    assert ds.problem.hidden_partition == {1: "Public", 2: "Private"}
    assert {type(i) for i in [*ds.problem.splits["train"],
                              *ds.problem.hidden_partition]} == {int}
    assert not validate_dataset(ds).empty  # id 9 of 3 samples


@pytest.mark.parametrize("value", [
    pytest.param({1: "one"}, id="int_key"),
    pytest.param((1, 2), id="tuple"),
    pytest.param(datetime.date(2026, 1, 1), id="date"),
    pytest.param(float("inf"), id="infinity"),
    pytest.param([0.5, float("nan")], id="nan"),
])
def test_save_rejects_infos_json_cannot_restore(tmp_path, two_base_sample,
                                                value):
    ds = small_dataset(two_base_sample)
    ds.infos["extra"] = value
    with pytest.raises(InvalidDataset, match="^infos: not"):
        save_dataset(ds, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def _retyped(array, dtype):
    return lambda zone_part: replace(zone_part, **{array: getattr(
        zone_part, array).astype(dtype)})


@pytest.mark.parametrize("edit, where", [
    pytest.param(_retyped("coordinates", np.int64), "Fluid/coordinates",
                 id="int64_coordinates"),
    pytest.param(lambda z: replace(z, fields=tuple(
        _retyped("values", np.int64)(f) for f in z.fields)),
        "Fluid/fields/mach", id="int64_field_values"),
    pytest.param(lambda z: replace(z, element_blocks=tuple(
        _retyped("connectivity", np.int32)(b) for b in z.element_blocks)),
        r"Fluid/elements\[0\]", id="int32_connectivity"),
    pytest.param(lambda z: replace(z, tags=tuple(
        _retyped("ids", np.int32)(t) for t in z.tags)),
        "Fluid/tags/inlet", id="int32_tag_ids"),
])
def test_tree_of_arrays_the_store_cannot_hold_is_invalid(tmp_path, edit,
                                                         where):
    # the store holds float64 coordinates and field values, and int64
    # connectivity and tag ids; any other dtype fails before a byte is written
    bases = (Base("Base_2_2", 2, 2, (edit(square_zone([1.0, 2.0, 3.0, 4.0])),)),)
    with pytest.raises(DimensionMismatch, match=f"{where}: dtype"):
        build_tree(bases)
    ds = Dataset(samples=[Sample(trees={0.0: MeshTree(bases, 0.0)})],
                 problem=ProblemDefinition(splits={"train": [0]}))
    with pytest.raises(InvalidDataset, match=f"{where}: dtype"):
        save_dataset(ds, tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


def test_save_refuses_non_empty_dir(tmp_path, two_base_sample):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "existing.txt").write_text("hello")
    with pytest.raises(IoFailure):
        save_dataset(small_dataset(two_base_sample), root)


def test_truncated_blob_reports_file(tmp_path, two_base_sample):
    root = tmp_path / "ds"
    save_dataset(small_dataset(two_base_sample), root)
    path = root / "dataset" / "samples" / "sample_000000000.manifest"
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(FormatError) as err:
        load_dataset(root, lazy=False)
    assert path.name in str(err.value)


def test_unknown_format_version(tmp_path, two_base_sample):
    root = tmp_path / "ds"
    save_dataset(small_dataset(two_base_sample), root)
    (root / "infos.yaml").write_text('{"format_version": 99, "infos": {}}')
    with pytest.raises(VersionMismatch):
        load_dataset(root)


def test_validate_dataset_clean(two_base_sample):
    assert validate_dataset(small_dataset(two_base_sample)).empty


def test_validate_nested_split_family(two_base_sample):
    ds = small_dataset(two_base_sample)
    ds.problem.splits["train_2"] = [0, 1]
    ds.problem.splits["train_1"] = [1]  # {1} <= {0, 1}: nested, fine
    assert validate_dataset(ds).empty
    ds.problem.splits["train_1"] = [2]  # not contained in train_2
    report = validate_dataset(ds)
    assert any("subset" in m for _, m in report.violations)
    ds.problem.splits["train_1"] = [0, 1]  # size mismatch with name
    report = validate_dataset(ds)
    assert any("size" in m for _, m in report.violations)


def test_validate_hidden_partition(two_base_sample):
    ds = small_dataset(two_base_sample)
    ds.problem.hidden_partition = {1: "Public", 2: "Private"}
    assert validate_dataset(ds).empty
    ds.problem.hidden_partition = {1: "Public"}
    report = validate_dataset(ds)
    assert any("cover" in m for _, m in report.violations)
    ds.problem.hidden_partition = {1: "Public", 2: "Public"}
    report = validate_dataset(ds)
    assert any("Public and Private" in m for _, m in report.violations)


def test_validate_output_field_coverage(two_base_sample):
    ds = small_dataset(two_base_sample)
    ds.problem.out_fields_names.append("ghost_field")
    report = validate_dataset(ds)
    assert any("ghost_field" in m for _, m in report.violations)


def test_validate_constant_mesh_flag():
    def square_sample(values):
        return Sample(trees={0.0: build_tree(
            [Base("Base_2_2", 2, 2, (square_zone(values),))], time=0.0)})

    same = Dataset(samples=[square_sample([1.0, 2.0, 3.0, 4.0]),
                            square_sample([5.0, 6.0, 7.0, 8.0])],
                   infos={CONSTANT_MESH_KEY: True},
                   problem=ProblemDefinition(splits={"train": [0, 1]}))
    assert validate_dataset(same).empty

    renamed = Sample(trees={0.0: build_tree(
        [Base("Base_2_2", 2, 2, (square_zone([1.0, 2.0, 3.0, 4.0], name="Z"),))],
        time=0.0)})
    differing = Dataset(samples=[square_sample([1.0, 2.0, 3.0, 4.0]), renamed],
                        infos={CONSTANT_MESH_KEY: True},
                        problem=ProblemDefinition(splits={"train": [0, 1]}))
    report = validate_dataset(differing)
    assert any("constant mesh" in m for _, m in report.violations)


@pytest.mark.parametrize("second, violations", [
    pytest.param(None, [], id="same_object"),
    pytest.param([[0, 1, 2], [0, 2, 1]], [
        ("sample_000000001", "declared constant mesh but differs from sample "
         "0 (node count or connectivity)")], id="one_index_differs")])
def test_constant_mesh_compares_connectivity_values(second, violations):
    first = np.array([[0, 1, 2], [0, 2, 3]])
    first.setflags(write=False)  # held as it is: both samples share it

    def sample(triangles):
        zone = make_unstructured_zone(
            "Fluid", [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
            blocks=[(ElementType.TRI_3, triangles)])
        return Sample(trees={0.0: build_tree([Base("B", 2, 2, (zone,))], 0.0)})

    samples = [sample(first), sample(first if second is None else second)]
    blocks = [s.get_mesh().bases[0].zones[0].element_blocks[0]
              for s in samples]
    assert (blocks[0].connectivity is blocks[1].connectivity) == (
        second is None)
    ds = Dataset(samples=samples, infos={CONSTANT_MESH_KEY: True},
                 problem=ProblemDefinition(splits={"train": [0, 1]}))
    assert validate_dataset(ds).violations == violations


@pytest.mark.parametrize("value", ["no", "false", 1, None])
def test_constant_mesh_key_is_a_boolean(value):
    ds = generate(SynthConfig(n_samples=6, seed=1, min_nodes_per_side=4,
                              max_nodes_per_side=7))
    ds.infos[CONSTANT_MESH_KEY] = value
    report = validate_dataset(ds)
    assert [path for path, _ in report.violations] == ["infos"]
    assert report.error_classes == [InvalidDataset]
    ds.infos[CONSTANT_MESH_KEY] = False
    assert validate_dataset(ds).empty
    ds.infos[CONSTANT_MESH_KEY] = True
    assert len(validate_dataset(ds).violations) == 3  # the meshes differ


def _cellcenter_field_too_long(tree0, tree1):
    fluid = tree1.bases[0].zones[0]
    fields = [f for f in fluid.fields if f.location is Location.Vertex]
    fields.append(make_field("EROSION_STATUS", [0.0, 1.0, 0.0],
                             Location.CellCenter))
    bases = [Base("Base_2_2", 2, 2, (replace(fluid, fields=tuple(fields)),)),
             tree1.bases[1]]
    return {0.0: tree0, 0.01: build_tree(bases, tree1.time, tree1.links)}


def _link_to_a_time_not_held(tree0, tree1):
    paths = tree1.links[0].target_paths
    return {0.0: tree0, 0.01: build_tree(tree1.bases, tree1.time,
                                         [LinkSpec(0.005, paths)])}


def _link_path_absent_from_provider(tree0, tree1):
    return {0.0: build_tree(tree0.bases[:1], tree0.time), 0.01: tree1}


def _first_tree_linked(tree0, tree1):
    return {0.01: tree1}


@pytest.mark.parametrize("spoil, error", [
    pytest.param(_cellcenter_field_too_long, DimensionMismatch,
                 id="cellcenter_length"),
    pytest.param(_link_to_a_time_not_held, MissingLinkTarget,
                 id="target_time"),
    pytest.param(_link_path_absent_from_provider, MissingLinkTarget,
                 id="target_path"),
    pytest.param(_first_tree_linked, MissingLinkTarget, id="first_tree"),
])
def test_validation_resolves_links(tmp_path, two_base_sample, capsys, spoil,
                                   error):
    # each raw tree passes its own check; the sample fails on use
    sample = Sample(trees=spoil(*two_base_sample.trees.values()))
    with pytest.raises(error):
        sample.get_mesh(time=0.01, apply_links=True)
    # the constant-mesh check resolves the first tree too
    infos = {CONSTANT_MESH_KEY: True}
    ds = Dataset(samples=[sample], infos=infos)

    report = validate_dataset(ds)
    assert report.violations
    assert report.error_classes == [error] * len(report.violations)
    assert all(path.startswith("sample_000000000/mesh@0.01/")
               for path, _ in report.violations)
    with pytest.raises(InvalidDataset):
        save_dataset(ds, tmp_path / "refused")

    # written past validation, as an older writer could have
    root = tmp_path / "ds"
    save_dataset(Dataset(samples=[two_base_sample], infos=infos), root)
    write_sample(sample,
                 root / "dataset" / "samples" / "sample_000000000.manifest")
    capsys.readouterr()
    assert main(["validate", str(root), "--strict"]) == 1
    assert "1 violations" in capsys.readouterr().out


def test_participant_export_strips_test_outputs(tmp_path, two_base_sample):
    ds = small_dataset(two_base_sample)
    ds.problem.hidden_partition = {1: "Public", 2: "Private"}
    exported = participant_export(ds)

    test_sample = exported.sample_at(2)
    assert "u_max" not in test_sample.scalars
    assert "P" in test_sample.scalars  # inputs kept
    assert test_sample.get_field_names() == []  # 'mach' stripped
    assert test_sample.get_nodes(base_name="Base_2_2").shape == (4, 2)

    linked_test = exported.sample_at(1)  # non-output fields survive
    assert "M_iso" in linked_test.get_field_names()
    assert "mach" not in linked_test.get_field_names()

    train_sample = exported.sample_at(0)
    assert "mach" in train_sample.get_field_names()
    assert exported.problem.hidden_partition is None

    root = tmp_path / "export"
    save_dataset(exported, root)
    assert "hidden_partition" not in json.loads(
        (root / "problem_definition" / "problem_infos.yaml").read_text())


# ---------------------------------------------------------------------------
# whole-dataset passes stream: each sample is read once and none is kept

def _saved_plates(root, n=10, seed=3):
    save_dataset(generate(SynthConfig(n_samples=n, seed=seed,
                                      min_nodes_per_side=4,
                                      max_nodes_per_side=6)), root)
    return root / "dataset" / "samples" / f"sample_{n - 1:09d}.manifest"


class CountingLoaders:
    """Loaders of a saved dataset's samples that count their calls and how
    many of the samples they returned are alive at once."""

    def __init__(self, root):
        self.source = load_dataset(root, lazy=True)
        self.manifests = sorted((root / "dataset" / "samples").iterdir())
        self.calls = [0] * len(self.manifests)
        self.alive = self.most_alive = 0

    def load(self, i):
        self.calls[i] += 1
        sample = read_sample(self.manifests[i])
        self.alive += 1
        self.most_alive = max(self.most_alive, self.alive)
        weakref.finalize(sample, self._died)
        return sample

    def _died(self):
        self.alive -= 1

    def dataset(self):
        return Dataset(loaders=[partial(self.load, i)
                                for i in range(len(self.manifests))],
                       infos=self.source.infos, problem=self.source.problem)


def test_lazy_sample_at_loads_on_every_call_and_keeps_nothing(tmp_path):
    _saved_plates(tmp_path / "src")
    counted = CountingLoaders(tmp_path / "src")
    ds = counted.dataset()
    first = ds.sample_at(3)
    second = ds.sample_at(3)
    assert counted.calls == [0, 0, 0, 2] + [0] * 6
    assert first is not second and samples_equal(first, second)
    assert counted.alive == 2
    del first, second
    assert counted.alive == 0


@pytest.mark.parametrize("run", [
    pytest.param(lambda ds, out: validate_dataset(ds), id="validate"),
    pytest.param(save_dataset, id="save"),
    pytest.param(lambda ds, out: save_dataset(participant_export(ds), out),
                 id="participant_export"),
])
def test_whole_dataset_pass_reads_each_sample_once_and_keeps_none(tmp_path,
                                                                  run):
    _saved_plates(tmp_path / "src")
    counted = CountingLoaders(tmp_path / "src")
    run(counted.dataset(), tmp_path / "out")
    assert counted.calls == [1] * 10
    assert counted.most_alive <= 2


def _counted_scoring(tmp_path, monkeypatch):
    """Counting loaders over 20 saved plates, a perfect bundle of their test
    split, saved, and ``meshbench score`` reading the plates through them."""
    _saved_plates(tmp_path / "src", n=20)
    counted = CountingLoaders(tmp_path / "src")
    bundle = PredictionBundle()
    for sid in counted.source.problem.splits["test"]:
        sample = counted.source.sample_at(sid)
        for name in ("u", "du_dx"):
            bundle.set_field(sid, name, sample.get_field(name))
        bundle.set_scalar(sid, "u_max", sample.get_scalar("u_max"))
    save_bundle(bundle, tmp_path / "bundle")
    monkeypatch.setattr("meshbench.cli.load_dataset",
                        lambda root, lazy: counted.dataset())
    return counted, bundle


def test_score_reads_each_test_sample_once_and_keeps_none(tmp_path,
                                                          monkeypatch):
    counted, _ = _counted_scoring(tmp_path, monkeypatch)
    test = counted.source.problem.splits["test"]
    assert main(["score", "--ref", str(tmp_path / "src"), "--pred",
                 str(tmp_path / "bundle"), "--hidden"]) == 0
    assert counted.calls == [int(i in test) for i in range(20)]
    assert counted.most_alive <= 2


def test_unsound_partition_fails_hidden_scoring_before_any_read(
        tmp_path, monkeypatch, capsys):
    counted, bundle = _counted_scoring(tmp_path, monkeypatch)
    problem = counted.source.problem
    problem.hidden_partition = dict.fromkeys(problem.splits["test"], "Public")
    with pytest.raises(NoPartition, match="both Public and Private"):
        score_hidden(problem, counted.dataset(), bundle)
    assert main(["score", "--ref", str(tmp_path / "src"), "--pred",
                 str(tmp_path / "bundle"), "--hidden"]) == 1
    assert "NoPartition" in capsys.readouterr().err
    assert counted.calls == [0] * 20


def _three_faults():
    ds = generate(SynthConfig(n_samples=10, seed=3, min_nodes_per_side=4,
                              max_nodes_per_side=6))
    samples = list(ds.iterate(range(ds.n_samples)))
    scalars = dict(samples[4].scalars)
    del scalars["a"]  # an input scalar
    samples[4] = Sample(trees=samples[4].trees, scalars=scalars)
    zone = samples[7].get_mesh().bases[0].zones[0]
    bases = (Base("Base_2_2", 2, 2, (replace(zone, name="Zone/7"),)),)
    samples[7] = Sample(trees={0.0: MeshTree(bases, 0.0)},
                        scalars=samples[7].scalars)
    ds.problem.splits["bogus"] = [99]
    return Dataset(samples=samples, infos=ds.infos, problem=ds.problem)


def test_report_lists_sample_trees_then_splits_then_names(tmp_path):
    held = _three_faults()
    lazy = Dataset(loaders=[partial(held.sample_at, i)
                            for i in range(held.n_samples)],
                   infos=held.infos, problem=held.problem)
    for name, ds in (("held", held), ("lazy", lazy)):
        assert validate_dataset(ds).violations == [
            ("sample_000000007/mesh@0.0/Base_2_2/Zone/7",
             "invalid identifier 'Zone/7' (empty or contains '/')"),
            ("splits/bogus", "sample id 99 outside [0, 10)"),
            ("sample_000000004/scalars", "input scalar 'a' missing")]
        with pytest.raises(InvalidDataset) as err:
            save_dataset(ds, tmp_path / name)
        assert str(err.value) == (
            "sample_000000007/mesh@0.0/Base_2_2/Zone/7: invalid identifier "
            "'Zone/7' (empty or contains '/') (3 violation(s) total)")
        assert not (tmp_path / name).exists()


def test_export_of_an_invalid_test_tree_is_refused_by_save(tmp_path):
    ds = generate(SynthConfig(n_samples=10, seed=3, min_nodes_per_side=4,
                              max_nodes_per_side=6))
    samples = list(ds.iterate(range(ds.n_samples)))
    zone = samples[8].get_mesh().bases[0].zones[0]
    bases = (Base("Base_2_2", 2, 2, (replace(zone, name="Zone/8"),)),)
    samples[8] = Sample(trees={0.0: MeshTree(bases, 0.0)},
                        scalars=samples[8].scalars)
    exported = participant_export(Dataset(samples=samples, infos=ds.infos,
                                          problem=ds.problem))
    with pytest.raises(InvalidDataset, match=r"^sample_000000008/mesh@0\.0/"
                       r"Base_2_2/Zone/8: invalid identifier"):
        save_dataset(exported, tmp_path / "export")
    assert not (tmp_path / "export").exists()


@pytest.mark.parametrize("existing", [False, True], ids=["absent", "empty"])
@pytest.mark.parametrize("fault", ["invalid", "corrupt_source"])
def test_failed_save_leaves_the_destination_as_found(tmp_path, existing,
                                                     fault):
    last = _saved_plates(tmp_path / "src")
    source = load_dataset(tmp_path / "src", lazy=True)
    if fault == "invalid":  # known only once every sample has been read
        source.problem.out_fields_names.append("ghost")
        error = InvalidDataset
    else:
        last.write_bytes(last.read_bytes()[:-3])
        error = FormatError
    dest = tmp_path / "new" / "ds"
    if existing:
        dest.mkdir(parents=True)
    with pytest.raises(error):
        save_dataset(source, dest)
    if existing:
        assert list(dest.iterdir()) == []
    else:
        assert not (tmp_path / "new").exists()


def test_convert_of_a_corrupt_source_names_the_file(tmp_path, capsys):
    last = _saved_plates(tmp_path / "src")
    last.write_bytes(last.read_bytes()[:-3])
    capsys.readouterr()
    assert main(["convert", "--in", str(tmp_path / "src"), "--mode",
                 "participant-export", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "FormatError" in err and last.name in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# corrupt artifacts: every malformed file fails with a typed error naming it

_MANIFESTS = {
    "dataset": "dataset/samples/sample_000000000.manifest",
    "bundle": "bundle.manifest",
    "model": "model.manifest",
}
_LOADERS = {"dataset": load_dataset, "bundle": load_bundle, "model": load_model}


@pytest.fixture(scope="module")
def saved_artifacts(tmp_path_factory):
    """A saved prediction bundle and a saved mmgp model."""
    root = tmp_path_factory.mktemp("artifacts")
    bundle = PredictionBundle()
    bundle.set_field(3, "u", [0.5, 1.0 / 3.0, -2.0])
    bundle.set_scalar(3, "u_max", 1.25)
    bundle.set_field(5, "u", [2.0, 4.0])
    save_bundle(bundle, root / "bundle")
    ds = generate(SynthConfig(n_samples=10, seed=10, min_nodes_per_side=7,
                              max_nodes_per_side=10))
    save_model(mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2)),
               root / "model")
    return root


def test_artifact_directories_hold_one_file(saved_artifacts):
    for kind in ("bundle", "model"):
        assert sorted(p.name for p in (saved_artifacts / kind).iterdir()) \
            == [f"{kind}.manifest"]


def _write(name, text):
    def corrupt(root):
        (root / name).write_text(text)
        return root / name
    return corrupt


def _append_bytes(name, data):
    def corrupt(root):
        path = root / name
        path.write_bytes(path.read_bytes() + data)
        return path
    return corrupt


def _replace(name, old, new):
    """Replace the first ``old`` in the file by ``new`` (text or bytes)."""
    def corrupt(root):
        path = root / name
        data = path.read_bytes()
        assert old.encode() in data
        path.write_bytes(data.replace(
            old.encode(), new if isinstance(new, bytes) else new.encode(), 1))
        return path
    return corrupt


def _edit(name, edit):
    """Apply ``edit`` to the manifest document of a file, keeping its payload."""
    def corrupt(root):
        path = root / name
        doc, payload = read_artifact(path)
        edit(doc)
        write_artifact(path, doc, payload)
        return path
    return corrupt


def _truncate_payload(root):
    path = sorted(root.rglob("*.manifest"))[0]
    path.write_bytes(path.read_bytes()[:-3])
    return path


def _array_entries(doc):
    """Every array entry of a manifest document."""
    if isinstance(doc, dict):
        if "offset" in doc:
            return [doc]
        doc = list(doc.values())
    if isinstance(doc, list):
        return [e for item in doc for e in _array_entries(item)]
    return []


def _reshape_blob(locate, change):
    """Replace one model array by ``change(array)`` and re-pack the payload,
    keeping every manifest entry readable and the payload tiled."""
    def corrupt(root):
        path = root / "model.manifest"
        doc, data = read_artifact(path)
        target = locate(doc)
        packed = []
        for entry in sorted(_array_entries(doc), key=lambda e: e["offset"]):
            array = np.frombuffer(data, dtype=entry["dtype"],
                                  count=int(np.prod(entry["shape"])),
                                  offset=entry["offset"])
            if entry is target:
                array = np.ascontiguousarray(
                    change(array.reshape(entry["shape"])))
                entry["shape"] = list(array.shape)
            entry["offset"] = sum(len(b) for b in packed)
            packed.append(array.tobytes())
        write_artifact(path, doc, b"".join(packed))
        return path
    return corrupt


def _blob_entries(edit):
    """Apply ``edit`` to the array entries of a manifest, in payload order."""
    def corrupt_doc(doc):
        edit(sorted(_array_entries(doc), key=lambda e: e["offset"]))
    return corrupt_doc


def _drop_second_sample(root):
    samples = root / "dataset" / "samples"
    (samples / "sample_000000001.manifest").unlink()
    return samples / "sample_000000002.manifest"


def _add_to_samples(name, directory=False):
    """An entry ``name`` under dataset/samples/, a directory or a file."""
    def corrupt(root):
        path = root / "dataset" / "samples" / name
        if directory:
            path.mkdir()
        else:
            path.write_text("")
        return path
    return corrupt


def _first_field(doc, key):
    return doc[key][sorted(doc[key])[0]]


def _first_gp(doc):
    return next(r for r in doc["field_regressors"].values()
                if r["kind"] == "gp")


_CORRUPTIONS = []
for _kind in ("dataset", "bundle", "model"):
    _CORRUPTIONS += [
        pytest.param(_kind, _truncate_payload, FormatError,
                     id=f"{_kind}-truncated_blob"),
        pytest.param(_kind, _replace(_MANIFESTS[_kind], '"dtype": "float64"',
                                     '"dtype": "float32"'),
                     FormatError, id=f"{_kind}-blob_dtype"),
        pytest.param(_kind, _append_bytes(_MANIFESTS[_kind], b"\0" * 8),
                     FormatError, id=f"{_kind}-blob_trailing_bytes"),
        pytest.param(_kind, _edit(_MANIFESTS[_kind], _blob_entries(
            lambda es: es[-1].update(offset=es[-1]["offset"] + 8))),
            FormatError, id=f"{_kind}-offset_past_end"),
        pytest.param(_kind, _edit(_MANIFESTS[_kind], _blob_entries(
            lambda es: es[1].update(offset=es[0]["offset"]))),
            FormatError, id=f"{_kind}-overlapping_spans"),
        pytest.param(_kind, _edit(_MANIFESTS[_kind], _blob_entries(
            lambda es: es[0].update(offset=-8))),
            FormatError, id=f"{_kind}-negative_offset"),
    ]
_CORRUPTIONS += [
    pytest.param("dataset", _edit(_MANIFESTS["dataset"],
                                  lambda d: d["trees"][0].pop("time")),
                 FormatError, id="dataset-missing_key"),
    pytest.param("dataset", _replace(_MANIFESTS["dataset"], '"n_vertices": 4',
                                     '"n_vertices": 1e999'),
                 FormatError, id="dataset-infinite_count"),
    pytest.param("dataset", _replace(_MANIFESTS["dataset"], '"n_vertices": 4',
                                     '"n_vertices": ' + "4" * 5000),
                 FormatError, id="dataset-count_too_long_for_int"),
    pytest.param("dataset", _replace(_MANIFESTS["dataset"], "}\n", b"}#\xff\n"),
                 FormatError, id="dataset-manifest_not_utf8"),
    pytest.param("dataset", _replace(_MANIFESTS["dataset"], '"scalars": {"',
                                     b'"scalars": {"\xff'),
                 FormatError, id="dataset-scalars_not_utf8"),
    pytest.param("dataset", _edit(
        "dataset/samples/sample_000000001.manifest",
        lambda d: d["trees"][1].update(time=d["trees"][0]["time"])),
        FormatError, id="dataset-duplicate_tree_time"),
    pytest.param("dataset", _edit(_MANIFESTS["dataset"], lambda d: d["trees"][0][
        "bases"][0]["zones"][0]["fields"][0]["values"].update(shape=[4, 1])),
        FormatError, id="dataset-field_not_1d"),
    pytest.param("dataset", _drop_second_sample, FormatError,
                 id="dataset-sample_numbering"),
    pytest.param("dataset", _add_to_samples("sample_000000003.manifest",
                                            directory=True),
                 FormatError, id="dataset-sample_directory"),
    pytest.param("dataset", _add_to_samples("sample_000000003"), FormatError,
                 id="dataset-sample_without_suffix"),
    pytest.param("dataset", _add_to_samples("notes.txt"), FormatError,
                 id="dataset-stray_sample_entry"),
    pytest.param("dataset", _replace("infos.yaml", '"format_version": 5',
                                     '"format_version": 4'),
                 VersionMismatch, id="dataset-format_version"),
    pytest.param("dataset", _replace("infos.yaml", '"format_version": 5',
                                     '"format_version": 5.0'),
                 FormatError, id="dataset-format_version_real"),
    pytest.param("dataset", _write("infos.yaml", ""), FormatError,
                 id="dataset-empty_infos"),
    pytest.param("dataset", _write("problem_definition/problem_infos.yaml", ""),
                 FormatError, id="dataset-empty_problem_infos"),
    pytest.param("dataset", _edit("problem_definition/problem_infos.yaml",
                                  lambda d: d["hidden_partition"][0].__setitem__(
                                      0, "one")),
                 FormatError, id="dataset-partition_id"),
    pytest.param("dataset", _edit("problem_definition/problem_infos.yaml",
                                  lambda d: d["hidden_partition"].append(
                                      [d["hidden_partition"][0][0], "Private"])),
                 FormatError, id="dataset-partition_id_twice"),
    pytest.param("dataset", _edit("problem_definition/problem_infos.yaml",
                                  lambda d: d.update(hidden_partition=None)),
                 FormatError, id="dataset-partition_null"),
    pytest.param("dataset", _edit("problem_definition/problem_infos.yaml",
                                  lambda d: d["hidden_partition"][0].__setitem__(
                                      0, 1.7)),
                 FormatError, id="dataset-partition_id_fraction"),
    pytest.param("dataset", _edit("problem_definition/problem_infos.yaml",
                                  lambda d: d["hidden_partition"][0].__setitem__(
                                      0, True)),
                 FormatError, id="dataset-partition_id_bool"),
    pytest.param("dataset", _edit("problem_definition/problem_infos.yaml",
                                  lambda d: next(iter(d["splits"].values()))
                                  .append(1.7)),
                 FormatError, id="dataset-split_id_fraction"),
    pytest.param("dataset", _edit("problem_definition/problem_infos.yaml",
                                  lambda d: next(iter(d["splits"].values()))
                                  .append(True)),
                 FormatError, id="dataset-split_id_bool"),
    # the writer lists split ids strictly increasing
    pytest.param("dataset", _edit("problem_definition/problem_infos.yaml",
                                  lambda d: d["splits"].update(test=[1, 1])),
                 FormatError, id="dataset-split_id_twice"),
    pytest.param("dataset", _edit("problem_definition/problem_infos.yaml",
                                  lambda d: d["splits"].update(test=[2, 1])),
                 FormatError, id="dataset-split_ids_unsorted"),
    pytest.param("dataset", _edit("problem_definition/problem_infos.yaml",
                                  lambda d: d["in_scalars_names"].__setitem__(
                                      0, ["P"])),
                 FormatError, id="dataset-scalar_name_list"),
    pytest.param("dataset", _edit("problem_definition/problem_infos.yaml",
                                  lambda d: d["out_fields_names"].append(
                                      {"mach": 1})),
                 FormatError, id="dataset-field_name_dict"),
    pytest.param("dataset", _edit(_MANIFESTS["dataset"], lambda d: d["trees"][0][
        "bases"][0].update(name=["Base_2_2"])),
        FormatError, id="dataset-base_name_list"),
    pytest.param("dataset", _edit(_MANIFESTS["dataset"], lambda d: d["trees"][0][
        "bases"][0]["zones"][0].update(name={"Fluid": 1})),
        FormatError, id="dataset-zone_name_dict"),
    pytest.param("dataset", _edit(_MANIFESTS["dataset"], lambda d: d["trees"][0][
        "bases"][0]["zones"][0]["fields"][0].update(name=["mach"])),
        FormatError, id="dataset-field_name_list"),
    pytest.param("dataset", _edit(_MANIFESTS["dataset"], lambda d: d["trees"][0][
        "bases"][0]["zones"][0]["tags"][0].update(name=["inlet"])),
        FormatError, id="dataset-tag_name_list"),
    pytest.param("bundle", _replace("bundle.manifest", '"dtype": "float64"',
                                    '"dtype": "int64"'),
                 FormatError, id="bundle-blob_dtype_int64"),
    pytest.param("bundle", _edit("bundle.manifest",
                                 lambda d: d["samples"][0].pop("id")),
                 FormatError, id="bundle-missing_key"),
    pytest.param("bundle", _replace("bundle.manifest", '"format_version": 5',
                                    '"format_version": 4'),
                 VersionMismatch, id="bundle-format_version"),
    pytest.param("bundle", _write("bundle.manifest", ""), FormatError,
                 id="bundle-empty_manifest"),
    pytest.param("bundle", _edit("bundle.manifest", lambda d: d["samples"][0][
        "scalars"].update(u_max="fast")), FormatError, id="bundle-scalar_text"),
    pytest.param("bundle", _edit("bundle.manifest", lambda d: d["samples"][1]
                                 .update(id=d["samples"][0]["id"])),
                 FormatError, id="bundle-id_twice"),
    pytest.param("bundle", _edit("bundle.manifest",
                                 lambda d: d["samples"][1].update(id=5.7)),
                 FormatError, id="bundle-id_not_integer"),
    pytest.param("model", _edit("model.manifest", lambda d: d.pop("config")),
                 FormatError, id="model-missing_config"),
    pytest.param("model", _replace("model.manifest", '"format_version": 5',
                                   '"format_version": 4'),
                 VersionMismatch, id="model-format_version"),
    pytest.param("model", _write("model.manifest", ""), FormatError,
                 id="model-empty_manifest"),
    pytest.param("model", _reshape_blob(lambda d: d["shape_basis"]["modes"],
                                        lambda a: a[:-1]),
                 FormatError, id="model-shape_basis_rows"),
    pytest.param("model", _reshape_blob(
        lambda d: _first_field(d, "field_bases")["modes"], lambda a: a[:-1]),
        FormatError, id="model-field_basis_rows"),
    pytest.param("model", _reshape_blob(lambda d: _first_gp(d)["alpha"],
                                        lambda a: a[:, :-1]),
                 FormatError, id="model-regressor_count"),
    # the layout before one GP per field: a list of regressors per field
    pytest.param("model", _edit("model.manifest", lambda d: d.update(
        field_regressors={name: [r] for name, r
                          in d["field_regressors"].items()})),
        FormatError, id="model-old_layout"),
    pytest.param("model", _reshape_blob(lambda d: d["gp_inputs"]["x_train"],
                                        lambda a: a[:, :-1]),
                 FormatError, id="model-gp_input_columns"),
    pytest.param("model", _reshape_blob(lambda d: d["gp_inputs"]["x_mean"],
                                        lambda a: a[:-1]),
                 FormatError, id="model-gp_input_mean"),
    pytest.param("model", _reshape_blob(
        lambda d: _first_gp(d)["lengthscales"],
        lambda a: np.where(np.arange(a.size) == 0, np.nan, a)),
        FormatError, id="model-gp_lengthscale_nan"),
]
# a GP's variance, output scale and jitter must be positive and finite
_CORRUPTIONS += [
    pytest.param("model", _edit("model.manifest", lambda d, key=key, text=text:
                                _first_gp(d).update({key: text})),
                 FormatError, id=f"model-gp_{key}_{text}")
    for key, text in [("variance", "nan"), ("variance", "-1.0"),
                      ("y_std", "nan"), ("jitter", "nan"), ("jitter", "-1.0")]]
# the stored config is decoded and validated as a config file is
_CORRUPTIONS += [
    pytest.param("model", _edit("model.manifest", lambda d, key=key, value=value:
                                d["config"].update({key: value})),
                 FormatError, id=f"model-config_{key}_{value}")
    for key, value in [("morphing", "off"), ("jitter", "nan"),
                       ("kernel", "Nope"), ("shape_modes", -3),
                       ("field_modes", 2.7), ("train_split", 7),
                       ("unknown", 1)]]
_CORRUPTIONS.append(pytest.param(
    "model", _edit("model.manifest", lambda d: d["config"].pop("kernel")),
    FormatError, id="model-config_missing_key"))
_CORRUPTIONS.append(pytest.param(
    "model", _edit("model.manifest",
                   lambda d: d["in_scalars"].__setitem__(0, ["a"])),
    FormatError, id="model-scalar_name_list"))


@pytest.mark.parametrize("kind, corrupt, error", _CORRUPTIONS)
def test_corrupt_artifact_raises_typed_error(tmp_path, two_base_sample,
                                             saved_artifacts, kind, corrupt,
                                             error):
    root = tmp_path / kind
    if kind == "dataset":
        ds = small_dataset(two_base_sample)
        ds.problem.hidden_partition = {1: "Public", 2: "Private"}
        save_dataset(ds, root)
    else:
        shutil.copytree(saved_artifacts / kind, root)
    path = corrupt(root)
    with pytest.raises(error) as err:
        _LOADERS[kind](root)
    # the error names the file and its directory
    assert path.name in str(err.value) and str(path.parent) in str(err.value)


@pytest.mark.parametrize("kind, name, text", [
    pytest.param("dataset", "infos.yaml", "format_version: 2\ninfos: {}\n",
                 id="dataset"),
    pytest.param("bundle", "bundle.manifest",
                 "format_version: 2\nsamples: []\n", id="bundle"),
    pytest.param("model", "model.manifest",
                 "format_version: 2\nkind: mmgp-model\n", id="model"),
])
def test_yaml_manifest_asks_to_regenerate(tmp_path, two_base_sample,
                                          saved_artifacts, kind, name, text):
    root = tmp_path / kind
    if kind == "dataset":
        save_dataset(small_dataset(two_base_sample), root)
    else:
        shutil.copytree(saved_artifacts / kind, root)
    (root / name).write_text(text)
    with pytest.raises(FormatError,
                       match="JSON since format 3: regenerate or refit") as err:
        _LOADERS[kind](root)
    assert name in str(err.value)


# ---------------------------------------------------------------------------
# every artifact that loads re-saves to itself: one JSON leaf edited, one key
# added to an object, or one object's keys reversed, at a time, the file must
# fail to load with a typed error naming it, or load and re-save to the same
# bytes; an edit of
# problem_infos.yaml may instead give a dataset that save_dataset refuses (an
# unknown subset word, say)

_SAMPLE = "dataset/samples/sample_000000001.manifest"  # links, series


#: kind -> (file edited, load(root), save(loaded, out), file re-saved in out)
_RESAVED = {
    "infos": ("infos.yaml", load_dataset, save_dataset, "infos.yaml"),
    "problem_infos": ("problem_definition/problem_infos.yaml", load_dataset,
                      save_dataset, "problem_definition/problem_infos.yaml"),
    "sample": (_SAMPLE, lambda root: read_sample(root / _SAMPLE),
               lambda sample, out: write_sample(sample, out / "s.manifest"),
               "s.manifest"),
    "model": ("model.manifest", load_model, save_model, "model.manifest"),
    "bundle": ("bundle.manifest", load_bundle, save_bundle, "bundle.manifest"),
}

_LEAF_VALUES = [None, "x", [], {}, True, 1, -1, 2.5, "2", "1.50"]

#: prefix of a key that the leaf-edit test renames to the rest of it once
#: written, so the object holds that key twice
_REPEATED = "~repeated:"


def _leaves(doc, path=()):
    """(key path, value) of every leaf: a scalar, or an empty list or object."""
    if isinstance(doc, (dict, list)) and doc:
        for key in doc if isinstance(doc, dict) else range(len(doc)):
            yield from _leaves(doc[key], path + (key,))
    else:
        yield path, doc


def _objects(doc, path=()):
    """(key path, object) of every JSON object in ``doc``."""
    if isinstance(doc, dict):
        yield path, doc
    if isinstance(doc, (dict, list)):
        for key in doc if isinstance(doc, dict) else range(len(doc)):
            yield from _objects(doc[key], path + (key,))


def _with_leaf(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", sorted(_RESAVED))
def test_every_leaf_edit_fails_or_resaves_to_itself(tmp_path, two_base_sample,
                                                   saved_artifacts, kind):
    name, load, save, saved_name = _RESAVED[kind]
    root = tmp_path / "root"
    if kind in ("model", "bundle"):
        shutil.copytree(saved_artifacts / kind, root)
    else:
        ds = small_dataset(two_base_sample)
        ds.problem.hidden_partition = {1: "Public", 2: "Private"}
        save_dataset(ds, root)
    path = root / name
    original = path.read_bytes()
    doc, payload = read_artifact(path)
    rng = random.Random(kind)
    edits = [(leaf, value) for leaf, old in _leaves(doc) for value in [
        *_LEAF_VALUES, rng.choice(["", " ", "Public", "0.0", "nan", "7"]),
        *([old - 1, old + 1, float(old)] if type(old) is int else [])]]
    edits = rng.sample(edits, min(len(edits), 250))  # about 0.4 s a file
    # a key no writer writes, with a value that a map of reals accepts: an
    # object whose keys the writer fixes must refuse it
    edits += [(key_path + ("~added",), "1.0") for key_path, _ in _objects(doc)]
    # the same object with its keys in reverse order: a map the writer sorts,
    # or an object whose key order the writer fixes, must refuse them
    edits += [(key_path, dict(reversed(obj.items())))
              for key_path, obj in _objects(doc) if len(obj) > 1]
    # an object's first key written again after its last, with the same
    # value: json.loads would keep one of the two and load the edit as is
    edits += [(key_path + (_REPEATED + key,), obj[key])
              for key_path, obj in _objects(doc) if obj
              for key in [next(iter(obj))]]
    loaded_edits = 0
    for i, (leaf, value) in enumerate(edits):
        line = json.dumps(_with_leaf(doc, leaf, value))
        if leaf and str(leaf[-1]).startswith(_REPEATED):
            line = line.replace(json.dumps(leaf[-1]),
                                json.dumps(leaf[-1][len(_REPEATED):]))
        path.write_bytes(line.encode() + b"\n" + payload)
        if (data := path.read_bytes()) == original:
            continue
        try:
            loaded = load(root)
        except MeshBenchError as exc:
            assert path.name in str(exc), (leaf, value, exc)
            continue
        out = tmp_path / f"out{i}"
        out.mkdir()
        try:
            save(loaded, out)
        except InvalidDataset:
            assert kind == "problem_infos", (leaf, value)
            continue
        assert (out / saved_name).read_bytes() == data, (leaf, value)
        loaded_edits += 1
    assert loaded_edits > 0


def test_empty_array_loads_only_at_its_written_offset(tmp_path):
    # one triangle: coordinates (48 bytes), connectivity (24) and a vertex
    # field (24) come before the empty tag
    zone = make_unstructured_zone(
        "Fluid", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        blocks=[(ElementType.TRI_3, [[0, 1, 2]])],
        fields=[make_field("u", [1.0, 2.0, 3.0], Location.Vertex)],
        tags=[make_tag("wall", np.zeros(0, dtype=np.int64),
                       TagKind.NodalTag)])
    sample = Sample(trees={0.0: build_tree([Base("B", 2, 2, (zone,))], 0.0)})
    path = tmp_path / "s.manifest"
    write_sample(sample, path)
    doc, payload = read_artifact(path)
    entry = doc["trees"][0]["bases"][0]["zones"][0]["tags"][0]["ids"]
    assert (entry["offset"], len(payload)) == (96, 96)
    assert samples_equal(read_sample(path), sample)
    entry["offset"] = 0
    write_artifact(path, doc, payload)
    with pytest.raises(FormatError, match="s.manifest"):
        read_sample(path)


@pytest.mark.parametrize("dtype, stored", [
    ("<f8", "float64"), (">f8", "float64"), ("<i8", "int64"),
    (">i8", "int64"), ("float32", None), ("int32", None), ("bool", None)])
def test_writer_stores_each_dtype_as_its_little_endian_64_bit_kind(
        tmp_path, dtype, stored):
    array = np.arange(6).reshape(2, 3).astype(dtype)
    writer = ArtifactWriter(tmp_path / "a.manifest")
    if stored is None:
        with pytest.raises(IoFailure, match="unsupported array dtype"):
            writer.write(array)
        return
    entry = writer.write(array)
    writer.write_manifest({"a": entry})
    with ArtifactReader(tmp_path / "a.manifest") as reader:
        loaded = reader.read(reader.doc["a"], stored)
    assert entry == {"offset": 0, "dtype": stored, "shape": [2, 3]}
    assert loaded.dtype.str == ("<f8" if stored == "float64" else "<i8")
    assert np.array_equal(loaded, array)


_GRID = np.arange(12.0).reshape(3, 4)


@pytest.mark.parametrize("array", [
    pytest.param(np.asfortranarray(_GRID), id="fortran"),
    pytest.param(_GRID[:, ::2], id="strided"),
    pytest.param(_GRID.astype(">f8"), id="big_endian"),
    pytest.param(np.arange(12).reshape(3, 4).astype(">i8").T,
                 id="big_endian_int_transposed"),
    pytest.param(np.array(2.5), id="zero_d"),
    pytest.param(np.zeros((0, 3), dtype=np.int64), id="empty")])
def test_writer_packs_any_layout_as_contiguous_little_endian(tmp_path, array):
    kind = "<f8" if array.dtype.kind == "f" else "<i8"
    writer = ArtifactWriter(tmp_path / "a.manifest")
    entry = writer.write(array)
    writer.write_manifest({"a": entry})
    doc, payload = read_artifact(tmp_path / "a.manifest")
    assert payload == np.ascontiguousarray(array, kind).tobytes()
    assert doc["a"]["shape"] == list(array.shape)


def test_writer_packs_a_contiguous_little_endian_array_without_a_copy(
        tmp_path):
    writer = ArtifactWriter(tmp_path / "a.manifest")
    for array in (_GRID, np.arange(5)):
        writer.write(array)
        assert np.shares_memory(writer.chunks[-1], array)


@pytest.mark.parametrize("value, error", [
    pytest.param({"a": 1, "b": 2}, None, id="the_writers_keys"),
    pytest.param({"a": 1}, None, id="one_key_left_out"),
    pytest.param(["a", "b"], TypeError, id="a_list_of_the_keys"),
    pytest.param({"b": 2, "a": 1}, ValueError, id="reordered"),
    pytest.param({"a": 1, "b": 2, "c": 3}, ValueError, id="a_key_added")])
def test_decode_object_keeps_the_writers_object_as_it_is(value, error):
    if error is None:
        assert decode_object(value, "a", "b") is value
    else:
        with pytest.raises(error):
            decode_object(value, "a", "b")


def _as_format_4(root):
    """Rewrite the artifacts under ``root`` in the layout of format 4: each
    manifest line, its version 4, alone in its file, the payload in a
    ``.blob`` beside it when not empty, each sample in its own directory."""
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        doc, payload = read_artifact(path)
        if "format_version" in doc:
            doc["format_version"] = 4
        if path.parent.name == "samples":
            path.unlink()
            path = path.parent / path.stem / "sample.manifest"
            path.parent.mkdir()
        write_artifact(path, doc)
        if payload:
            path.with_suffix(".blob").write_bytes(payload)


@pytest.mark.parametrize("kind, name", [("dataset", "infos.yaml"),
                                        ("bundle", "bundle.manifest"),
                                        ("model", "model.manifest")])
def test_format_4_artifact_is_a_version_mismatch(tmp_path, two_base_sample,
                                                 saved_artifacts, kind, name):
    root = tmp_path / kind
    if kind == "dataset":
        save_dataset(small_dataset(two_base_sample), root)
    else:
        shutil.copytree(saved_artifacts / kind, root)
    _as_format_4(root)
    assert any(root.rglob("*.blob"))
    with pytest.raises(VersionMismatch, match=f"format_version 4 .*{name}"):
        _LOADERS[kind](root)

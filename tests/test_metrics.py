import math
import re
from functools import partial

import numpy as np
import pytest

from meshbench import (
    Base,
    Dataset,
    PredictionBundle,
    ProblemDefinition,
    Sample,
    SynthConfig,
    build_tree,
    generate,
    load_bundle,
    make_field,
    make_unstructured_zone,
    rrmse_field,
    rrmse_scalar,
    save_bundle,
    score_hidden,
    score_test_split,
    total_error,
    validate_dataset,
)
from meshbench.dataset import SamplePrediction
from meshbench.errors import (
    DegenerateReference,
    FormatError,
    IdOutOfRange,
    InvalidDataset,
    InvalidName,
    MissingOutput,
    NoPartition,
    ShapeMismatch,
)
from meshbench.tree import ElementType


# Independent evaluation of the displayed error formulas, plain Python.

def oracle_rrmse_field(refs, preds):
    acc = 0.0
    for ref, pred in zip(refs, preds):
        sup = max(abs(float(x)) for x in ref)
        num = sum((float(a) - float(b)) ** 2 for a, b in zip(ref, pred))
        acc += (num / len(ref)) / (sup * sup)
    return math.sqrt(acc / len(refs))


def oracle_rrmse_scalar(refs, preds):
    acc = 0.0
    for ref, pred in zip(refs, preds):
        acc += (float(ref) - float(pred)) ** 2 / float(ref) ** 2
    return math.sqrt(acc / len(refs))


def test_rrmse_field_identity_is_zero():
    arrays = [np.array([1.0, -2.0, 3.0]), np.array([0.5])]
    assert rrmse_field(arrays, [a.copy() for a in arrays]) == 0.0


def test_rrmse_field_single_entry():
    assert rrmse_field([[2.0]], [[1.0]]) == 0.5


def test_rrmse_field_two_samples_frozen():
    refs = [np.array([1.0, 1.0]), np.array([2.0])]
    preds = [np.array([1.0, 0.0]), np.array([0.0])]
    expected = math.sqrt(0.75)  # oracle value, frozen
    assert abs(oracle_rrmse_field(refs, preds) - expected) < 1e-15
    assert abs(rrmse_field(refs, preds) - expected) < 1e-15


def test_rrmse_scalar_values():
    assert rrmse_scalar([2.0], [3.0]) == 0.5
    expected = math.sqrt(0.625)  # oracle value for ([1,4], [2,2]), frozen
    assert abs(oracle_rrmse_scalar([1.0, 4.0], [2.0, 2.0]) - expected) < 1e-15
    assert abs(rrmse_scalar([1.0, 4.0], [2.0, 2.0]) - expected) < 1e-15


def test_rrmse_scalar_is_the_one_entry_field_case():
    # bit for bit: x ** 2 and x * x round differently for a few of these draws
    rng = np.random.default_rng(2)
    refs = rng.normal(size=4000)
    preds = refs + rng.normal(size=4000)
    for sid, (ref, pred) in enumerate(zip(refs, preds)):
        assert rrmse_scalar([ref], [pred]) == rrmse_field([[ref]], [[pred]])
        assert rrmse_scalar({sid: ref}, {sid: pred}) == \
            rrmse_field({sid: [ref]}, {sid: [pred]})


def test_rrmse_matches_oracle_randomized():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        refs, preds = [], []
        for _ in range(n):
            length = int(rng.integers(1, 51))
            ref = rng.normal(size=length)
            ref[np.abs(ref).argmax()] += 1.0  # keep sup norm comfortably > 0
            refs.append(ref)
            preds.append(ref + rng.normal(scale=0.3, size=length))
        got = rrmse_field(refs, preds)
        want = oracle_rrmse_field(refs, preds)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

        s_refs = rng.normal(size=n) + np.sign(rng.normal(size=n)) * 1.0
        s_preds = s_refs + rng.normal(scale=0.2, size=n)
        got = rrmse_scalar(s_refs, s_preds)
        want = oracle_rrmse_scalar(s_refs, s_preds)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_rrmse_scale_invariance():
    rng = np.random.default_rng(7)
    refs = [rng.normal(size=9) + 2.0, rng.normal(size=4) + 2.0]
    preds = [r + rng.normal(size=r.shape) * 0.1 for r in refs]
    base = rrmse_field(refs, preds)
    for c in (3.0, -0.125, 1e6):
        scaled = rrmse_field([c * r for r in refs], [c * p for p in preds])
        assert abs(scaled - base) <= 1e-12 * base


def test_rrmse_positivity():
    rng = np.random.default_rng(8)
    ref = [rng.normal(size=6) + 1.5]
    pred = [ref[0] + 1e-8]
    assert rrmse_field(ref, pred) > 0.0


def test_rrmse_mapping_keys_must_match():
    with pytest.raises(ShapeMismatch):
        rrmse_field({0: [1.0]}, {1: [1.0]})


def test_rrmse_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        rrmse_field([[1.0, 2.0]], [[1.0]])


def test_rrmse_degenerate_reference():
    with pytest.raises(DegenerateReference):
        rrmse_field([[0.0, 0.0]], [[1.0, 1.0]])
    with pytest.raises(DegenerateReference):
        rrmse_scalar([0.0], [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rrmse_rejects_non_finite_values(bad):
    with pytest.raises(MissingOutput, match="sample 7: prediction"):
        rrmse_field({7: [1.0, 2.0]}, {7: [1.0, bad]})
    with pytest.raises(DegenerateReference, match="sample 7: reference"):
        rrmse_field({7: [bad, 2.0]}, {7: [1.0, 2.0]})
    with pytest.raises(MissingOutput, match="sample 1: prediction"):
        rrmse_scalar([1.0, 2.0], [1.0, bad])
    with pytest.raises(DegenerateReference, match="sample 1: reference"):
        rrmse_scalar([1.0, bad], [1.0, 2.0])


# -- dataset-level scoring ----------------------------------------------------


def scoring_fixture():
    """4 test samples; field 'f' and scalar 's' crafted for exact RRMSEs."""
    samples = []
    for sid in range(4):
        zone = make_unstructured_zone(
            "Z", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            blocks=[(ElementType.TRI_3, [[0, 1, 2]])],
            fields=[make_field("f", [1.0, 0.5, -0.25])])
        tree = build_tree([Base("Base_2_2", 2, 2, (zone,))], time=0.0)
        samples.append(Sample(trees={0.0: tree}, scalars={"s": 1.0}))
    problem = ProblemDefinition(
        out_scalars_names=["s"], out_fields_names=["f"],
        splits={"train": [], "test": [0, 1, 2, 3]},
        hidden_partition={0: "Public", 1: "Public", 2: "Private", 3: "Private"})
    return Dataset(samples=samples, problem=problem)


def perfect_bundle(dataset):
    bundle = PredictionBundle()
    for sid in dataset.problem.splits["test"]:
        sample = dataset.sample_at(sid)
        bundle.set_field(sid, "f", sample.get_field("f"))
        bundle.set_scalar(sid, "s", sample.get_scalar("s"))
    return bundle


def test_total_error_perfect():
    ds = scoring_fixture()
    report = total_error(ds.problem, ds, perfect_bundle(ds))
    assert report.total_error == 0.0
    assert report.field_rrmse == {"f": 0.0}
    assert report.scalar_rrmse == {"s": 0.0}


def test_total_error_is_mean_of_outputs():
    # field rrmse forced to 0.1: pred = ref except one entry off by a known
    # amount; ref sup norm 1, N=3, one sample out of 4 -> term = e^2/3/4
    ds = scoring_fixture()
    bundle = perfect_bundle(ds)
    off = ds.sample_at(0).get_field("f").copy()
    # rrmse = sqrt(e^2 / 3 / 4) = 0.1  ->  e = 0.1 * sqrt(12)
    off[0] += 0.1 * math.sqrt(12.0)
    bundle.set_field(0, "f", off)
    # scalar rrmse forced to 0.3: one of four refs (=1) predicted 1 + 0.6
    bundle.set_scalar(2, "s", 1.0 + 0.3 * 2.0)
    report = total_error(ds.problem, ds, bundle)
    assert abs(report.field_rrmse["f"] - 0.1) < 1e-13
    assert abs(report.scalar_rrmse["s"] - 0.3) < 1e-13
    assert abs(report.total_error - 0.2) < 1e-13


def test_total_error_missing_output():
    ds = scoring_fixture()
    bundle = perfect_bundle(ds)
    del bundle.predictions[2].scalars["s"]
    with pytest.raises(MissingOutput):
        total_error(ds.problem, ds, bundle)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_total_error_names_a_non_finite_prediction(bad):
    ds = scoring_fixture()
    bundle = perfect_bundle(ds)
    values = ds.sample_at(2).get_field("f").copy()
    values[1] = bad
    bundle.set_field(2, "f", values)
    with pytest.raises(MissingOutput,
                       match="^field 'f', sample 2: prediction is not finite"):
        total_error(ds.problem, ds, bundle)
    bundle = perfect_bundle(ds)
    bundle.set_scalar(3, "s", bad)
    with pytest.raises(MissingOutput,
                       match="^scalar 's', sample 3: prediction is not finite"):
        total_error(ds.problem, ds, bundle)


def test_total_error_refuses_a_test_split_listing_an_id_twice():
    ds = generate(SynthConfig(n_samples=10, seed=1, min_nodes_per_side=4,
                              max_nodes_per_side=6))
    assert ds.problem.splits["test"] == [8, 9]
    bundle = PredictionBundle()
    for sid in (8, 9):
        sample = ds.sample_at(sid)
        u = sample.get_field("u")
        bundle.set_field(sid, "u", 1.1 * u if sid == 8 else u)
        bundle.set_field(sid, "du_dx", sample.get_field("du_dx"))
        bundle.set_scalar(sid, "u_max", sample.get_scalar("u_max"))
    assert total_error(ds.problem, ds, bundle).total_error == \
        pytest.approx(0.0095, abs=5e-5)
    # scored twice, sample 8 would weigh double
    ds.problem.splits["test"] = [8, 8, 9]
    with pytest.raises(InvalidDataset, match="lists an id twice"):
        total_error(ds.problem, ds, bundle)
    # the test split is the one set total_error scores
    with pytest.raises(TypeError):
        total_error(ds.problem, ds, bundle, ids=[8, 9])


def test_score_hidden_restriction():
    ds = scoring_fixture()
    bundle = perfect_bundle(ds)
    public, private = score_hidden(ds.problem, ds, bundle)
    assert public.total_error == 0.0 and private.total_error == 0.0

    # perturb only the Private half
    off = ds.sample_at(3).get_field("f") + 0.05
    bundle.set_field(3, "f", off)
    public, private = score_hidden(ds.problem, ds, bundle)
    assert public.total_error == 0.0
    assert private.total_error > 0.0


def test_score_hidden_requires_partition():
    ds = scoring_fixture()
    ds.problem.hidden_partition = None
    with pytest.raises(NoPartition):
        score_hidden(ds.problem, ds, perfect_bundle(ds))


@pytest.mark.parametrize("partition", [
    {0: "Public", 1: "Public", 2: "Other", 3: "Private"},   # unknown label
    {0: "Public", 1: "Public", 2: "Private"},               # misses id 3
    {0: "Public", 1: "Public", 2: "Public", 3: "Public"},   # no Private
    {},
])
def test_score_hidden_and_validation_share_the_partition_rules(partition):
    ds = scoring_fixture()
    ds.problem.hidden_partition = partition
    found = [m for path, m in validate_dataset(ds).violations
             if path == "hidden_partition"]
    assert found
    with pytest.raises(NoPartition, match=re.escape(found[0])):
        score_hidden(ds.problem, ds, perfect_bundle(ds))


def test_hidden_partition_covers_test_split():
    ds = scoring_fixture()
    part = ds.problem.hidden_partition
    test = ds.problem.splits["test"]
    pub = {i for i, c in part.items() if c == "Public"}
    priv = {i for i, c in part.items() if c == "Private"}
    assert pub.isdisjoint(priv)
    assert pub | priv == set(test)


def test_score_test_split_is_total_error_and_score_hidden():
    ds = generate(SynthConfig(n_samples=30, seed=2, min_nodes_per_side=3,
                              max_nodes_per_side=6))
    rng = np.random.default_rng(0)
    bundle = PredictionBundle()
    for sid in ds.problem.splits["test"]:
        sample = ds.sample_at(sid)
        for name in ("u", "du_dx"):
            values = sample.get_field(name)
            bundle.set_field(sid, name, values + rng.normal(0, 0.01, values.shape))
        bundle.set_scalar(sid, "u_max", sample.get_scalar("u_max") * 1.01)
    report, halves = score_test_split(ds.problem, ds, bundle, hidden=True)
    assert report.as_dict() == total_error(ds.problem, ds, bundle).as_dict()
    assert [h.as_dict() for h in halves] == \
        [h.as_dict() for h in score_hidden(ds.problem, ds, bundle)]
    assert score_test_split(ds.problem, ds, bundle)[1] is None
    ds.problem.hidden_partition = None
    with pytest.raises(NoPartition):
        score_test_split(ds.problem, ds, bundle, hidden=True)


def _unreadable(ds, sid):
    def load(i):
        if i == sid:
            raise FormatError(f"sample {i} unreadable")
        return ds.sample_at(i)
    return Dataset(loaders=[partial(load, i) for i in range(ds.n_samples)],
                   problem=ds.problem)


@pytest.mark.parametrize("spoil, error, message", [
    # one output: a missing prediction on any sample comes before a value
    # that cannot be scored on an earlier one
    ({0: ("f", math.nan), 3: ("f", None)}, MissingOutput,
     "bundle lacks field 'f' for sample 3"),
    # outputs in turn: field 'f' on sample 3 before scalar 's' on sample 0
    ({0: ("s", None), 3: ("f", math.nan)}, MissingOutput,
     "field 'f', sample 3: prediction is not finite"),
    # an unreadable sample is met on the first output, before its values
    ({0: ("f", math.nan), 2: ("unreadable", None)}, FormatError,
     "sample 2 unreadable"),
    ({1: ("f", None), 2: ("unreadable", None)}, MissingOutput,
     "bundle lacks field 'f' for sample 1"),
], ids=["missing_after_not_finite", "outputs_in_turn",
        "unreadable_before_values", "missing_before_unreadable"])
def test_scoring_raises_the_error_met_first_output_by_output(spoil, error,
                                                             message):
    ds = scoring_fixture()
    bundle = perfect_bundle(ds)
    for sid, (name, value) in spoil.items():
        entry = bundle.predictions[sid]
        outputs = entry.fields if name == "f" else entry.scalars
        if name == "unreadable":
            ds = _unreadable(ds, sid)
        elif value is None:
            del outputs[name]
        elif name == "f":
            outputs[name] = np.full(3, value)
        else:
            outputs[name] = value
    for score in (total_error, lambda *args: score_test_split(*args, True)):
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            score(ds.problem, ds, bundle)


def test_bundle_round_trip(tmp_path):
    ds = scoring_fixture()
    bundle = perfect_bundle(ds)
    bundle.set_field(0, "f", np.array([0.1, 1.0 / 3.0, -2.5e-17]))
    save_bundle(bundle, tmp_path / "bundle")
    back = load_bundle(tmp_path / "bundle")
    assert sorted(back.predictions) == sorted(bundle.predictions)
    for sid, entry in bundle.predictions.items():
        got = back.predictions[sid]
        assert got.scalars.keys() == entry.scalars.keys()
        for name in entry.scalars:
            assert np.float64(got.scalars[name]).tobytes() == \
                np.float64(entry.scalars[name]).tobytes()
        for name in entry.fields:
            assert got.fields[name].tobytes() == entry.fields[name].tobytes()


@pytest.mark.parametrize("bad, error", [
    (3.0, InvalidDataset), (True, InvalidDataset), ("3", InvalidDataset),
    (-1, IdOutOfRange)])
def test_bundle_ids_follow_the_sample_id_rule(tmp_path, bad, error):
    bundle = PredictionBundle()
    bundle.set_field(np.int64(3), "u", [0.5, 2.0])
    bundle.set_scalar(np.int64(3), "u_max", 2.0)
    save_bundle(bundle, tmp_path / "ok")
    assert list(load_bundle(tmp_path / "ok").predictions) == [3]
    with pytest.raises(error):
        bundle.set_field(bad, "u", [1.0])
    # refused before anything is written, so every bundle saved also loads
    with pytest.raises(error):
        save_bundle(PredictionBundle({bad: SamplePrediction()}),
                    tmp_path / "bad")
    assert not (tmp_path / "bad").exists()


@pytest.mark.parametrize("kind", ["field", "scalar"])
@pytest.mark.parametrize("bad", [1, None, "", "a/b"])
def test_bundle_output_names_follow_the_tree_name_rule(tmp_path, kind, bad):
    # 1 and None would load back as '1' and 'null'; '' and 'a/b' are no
    # names a tree may hold
    bundle = PredictionBundle()
    bundle.set_field(0, "u", [1.0])
    bundle.set_scalar(0, "u_max", 2.0)
    if kind == "field":
        bundle.set_field(0, bad, [1.0])
    else:
        bundle.set_scalar(0, bad, 2.0)
    with pytest.raises(InvalidName, match=re.escape(repr(bad))):
        save_bundle(bundle, tmp_path / "bad")
    assert not (tmp_path / "bad").exists()


def test_report_table_is_stable():
    ds = scoring_fixture()
    report = total_error(ds.problem, ds, perfect_bundle(ds))
    table = report.table()
    assert table.splitlines()[0].startswith("field f")
    assert table.splitlines()[-1].startswith("total_error")
    assert report.table() == table

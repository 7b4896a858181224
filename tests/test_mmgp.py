from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cholesky_banded

import meshbench.morphing as morphing_module
from meshbench import (
    Base,
    Dataset,
    MmgpConfig,
    PredictionBundle,
    ProblemDefinition,
    Sample,
    SynthConfig,
    build_tree,
    generate,
    load_model,
    make_field,
    mmgp_fit,
    mmgp_predict,
    save_model,
    total_error,
)
from meshbench.dataset import SamplePrediction
from meshbench.edges import boundary_edges
from meshbench.gp import gp_fit, gp_mean
from meshbench.errors import (
    ConfigInvalid,
    DegenerateInputs,
    FormatError,
    IoFailure,
    NoSuchSplit,
    NotDiskTopology,
    PointOutsideDomain,
    ShapeMismatch,
)
from meshbench.mmgp import (Regressor, _fit_regressor,
                            extract_triangle_geometry, load_config,
                            parse_config_text)
from meshbench.morphing import (build_surface_mesh, connectivity_key,
                                extract_boundary_loop, signed_areas,
                                tutte_embed)
from meshbench.pod import pod_project, pod_reconstruct
from meshbench.synthetic import build_plate_sample
from meshbench.transfer import build_transfer
from meshbench.tree import Zone

from conftest import read_artifact, write_artifact


def test_parse_config_text():
    text = """
    # surrogate settings
    morphing = off
    shape_modes = 4
    field_modes = 3
    kernel = matern52   # alias, any case
    train_split = train_8
    jitter = 1e-9
    """
    config = parse_config_text(text)
    assert config.morphing is False
    assert config.shape_modes == 4
    assert config.field_modes == 3
    assert config.kernel == "Matern52"
    assert config.train_split == "train_8"
    assert config.jitter == 1e-9


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigInvalid):
        parse_config_text("modes = 8")
    with pytest.raises(ConfigInvalid):
        parse_config_text("shape_modes = many")
    with pytest.raises(ConfigInvalid):
        parse_config_text("kernel = cubic")
    with pytest.raises(ConfigInvalid):
        parse_config_text("transfer_tol = 0.05")
    with pytest.raises(ConfigInvalid):
        parse_config_text("jitter = nan")
    with pytest.raises(ConfigInvalid):
        parse_config_text("jitter = inf")
    with pytest.raises(ConfigInvalid):
        parse_config_text("shape_modes = 2.7")
    with pytest.raises(ConfigInvalid,
                       match="line 3: key 'shape_modes' repeats line 1"):
        parse_config_text("shape_modes = 8\nkernel = rbf\nshape_modes = 16")


@pytest.mark.parametrize("values", [
    {"morphing": "off"}, {"shape_modes": 2.7}, {"field_modes": True},
    {"train_split": 7}, {"jitter": "x"}, {"jitter": None}, {"jitter": True}])
def test_config_validate_checks_types(values):
    with pytest.raises(ConfigInvalid):
        MmgpConfig(**values).validate()


def test_load_config_rejects_non_utf8(tmp_path):
    path = tmp_path / "mmgp.cfg"
    path.write_bytes(b"kernel = rbf  # \xff\n")
    with pytest.raises(ConfigInvalid, match="mmgp.cfg"):
        load_config(path)


def test_missing_train_split():
    ds = generate(SynthConfig(n_samples=6, seed=1))
    config = MmgpConfig(train_split="nope", shape_modes=2, field_modes=2)
    with pytest.raises(NoSuchSplit):
        mmgp_fit(ds, ds.problem, config)


def test_regressor_count_matches_config_arithmetic():
    # variable connectivity (morphing on), 20 training samples
    ds = generate(SynthConfig(n_samples=25, seed=13, min_nodes_per_side=8,
                              max_nodes_per_side=14))
    config = MmgpConfig(morphing=True, shape_modes=4, field_modes=3,
                        kernel="Matern52")
    model = mmgp_fit(ds, ds.problem, config)
    n_fields = len(ds.problem.out_fields_names)
    n_scalars = len(ds.problem.out_scalars_names)
    n_train = len(ds.problem.splits["train"])
    # one GP per output field regresses all its field_modes coefficients
    assert model.n_regressors == n_fields + n_scalars
    for name in ds.problem.out_fields_names:
        gp = model.field_regressors[name].gp
        assert gp.alpha.shape == (n_train, config.field_modes)
        assert gp.y_mean.shape == (config.field_modes,)
    assert model.gp_input_dim == config.shape_modes + 2  # scalars a, p


def _counted(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _connectivities(ds, split="train"):
    """Distinct (oriented) triangulations of the split's samples."""
    return {build_surface_mesh(*extract_triangle_geometry(
        ds.sample_at(i))).triangles.tobytes()
        for i in ds.problem.splits[split]}


def test_fit_morphs_each_training_sample_once(monkeypatch):
    # one orientation check and one embedding per sample; one boundary walk
    # and one Cholesky factorisation of the Laplacian per distinct training
    # connectivity
    ds = generate(SynthConfig(n_samples=8, seed=3, min_nodes_per_side=5,
                              max_nodes_per_side=7))
    n_train = len(ds.problem.splits["train"])
    n_connectivities = len(_connectivities(ds))
    assert n_connectivities < n_train
    calls = {"orient": 0, "embed": 0, "loop": 0, "factor": 0}
    monkeypatch.setattr("meshbench.morphing._oriented",
                        _counted(calls, "orient", morphing_module._oriented))
    monkeypatch.setattr("meshbench.mmgp.tutte_embed",
                        _counted(calls, "embed", tutte_embed))
    monkeypatch.setattr("meshbench.morphing.extract_boundary_loop",
                        _counted(calls, "loop", extract_boundary_loop))
    monkeypatch.setattr("meshbench.morphing.cholesky_banded",
                        _counted(calls, "factor", cholesky_banded))
    mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2))
    assert calls == {"orient": n_train, "embed": n_train,
                     "loop": n_connectivities, "factor": n_connectivities}


def _split_sharing_connectivities():
    """Plates of 5 to 7 nodes per side whose 5-sample test split holds 3
    connectivities, two of them twice."""
    ds = generate(SynthConfig(n_samples=25, seed=3, min_nodes_per_side=5,
                              max_nodes_per_side=7))
    assert len(_connectivities(ds, "test")) == 3
    return ds


def test_predict_morphs_each_connectivity_once(monkeypatch):
    # one boundary walk, one Cholesky factor and one boundary_edges per
    # distinct predicted connectivity, and the common mesh's boundary
    # edges once per call
    ds = _split_sharing_connectivities()
    model = mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2))
    calls = {"loop": 0, "factor": 0, "edges": 0}
    monkeypatch.setattr("meshbench.morphing.extract_boundary_loop",
                        _counted(calls, "loop", extract_boundary_loop))
    monkeypatch.setattr("meshbench.morphing.cholesky_banded",
                        _counted(calls, "factor", cholesky_banded))
    for module in ("mmgp", "transfer"):
        monkeypatch.setattr(f"meshbench.{module}.boundary_edges",
                            _counted(calls, "edges", boundary_edges))
    mmgp_predict(model, [ds.sample_at(i) for i in ds.problem.splits["test"]])
    assert calls == {"loop": 3, "factor": 3, "edges": 3 + 1}


def _with_zone_edit(ds, sid, edit):
    """Sample ``sid`` rebuilt with ``edit(zone)`` in place of its zone."""
    samples = [ds.sample_at(i) for i in range(ds.n_samples)]
    s = samples[sid]
    trees = {t: build_tree([Base(tree.bases[0].name, 2, 2,
                                 (edit(tree.bases[0].zones[0]),))], tree.time)
             for t, tree in s.trees.items()}
    samples[sid] = Sample(trees=trees, scalars=s.scalars)
    return Dataset(samples=samples, infos=dict(ds.infos), problem=ds.problem)


def _clockwise(zone):
    return replace(zone, element_blocks=tuple(
        replace(block, connectivity=block.connectivity[:, [0, 2, 1]])
        for block in zone.element_blocks))


def test_grouped_fit_morphs_equal_per_sample_embeddings(monkeypatch):
    ds = generate(SynthConfig(n_samples=10, seed=3, min_nodes_per_side=5,
                              max_nodes_per_side=7))
    train = ds.problem.splits["train"]
    geometries = {i: extract_triangle_geometry(ds.sample_at(i))
                  for i in train}
    # a clockwise copy of a mesh whose connectivity another sample shares
    sid, other = next((i, j) for i in train for j in train if j != i
                      and np.array_equal(geometries[i][1], geometries[j][1]))
    ds = _with_zone_edit(ds, sid, _clockwise)
    coords, triangles = extract_triangle_geometry(ds.sample_at(sid))
    assert (signed_areas(coords, triangles) < 0).all()
    assert connectivity_key(build_surface_mesh(coords, triangles)) == \
        connectivity_key(build_surface_mesh(*geometries[other]))
    assert len(_connectivities(ds)) > 1

    morphs = {}

    def recorded(surface, system=None):
        positions = tutte_embed(surface, system)
        morphs[surface.nodes.tobytes()] = positions
        return positions

    monkeypatch.setattr("meshbench.mmgp.tutte_embed", recorded)
    mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2))
    assert len(morphs) == len(train)
    for i in train:
        coords, triangles = extract_triangle_geometry(ds.sample_at(i))
        alone = tutte_embed(build_surface_mesh(coords, triangles))
        assert morphs[coords.tobytes()].tobytes() == alone.tobytes()


@pytest.mark.parametrize("morphing", [True, False])
def test_predicting_a_split_equals_predicting_each_sample(morphing):
    # morphing off needs one node count, so every plate has 6 per side
    ds = (_split_sharing_connectivities() if morphing else
          generate(SynthConfig(n_samples=25, seed=3, min_nodes_per_side=6,
                               max_nodes_per_side=6)))
    test = ds.problem.splits["test"]
    # a clockwise copy of a mesh whose connectivity another sample shares
    sid = next(i for i in test for j in test if j != i and np.array_equal(
        extract_triangle_geometry(ds.sample_at(i))[1],
        extract_triangle_geometry(ds.sample_at(j))[1]))
    ds = _with_zone_edit(ds, sid, _clockwise)
    model = mmgp_fit(ds, ds.problem, MmgpConfig(
        morphing=morphing, shape_modes=2, field_modes=2))
    samples = [ds.sample_at(i) for i in test]
    together = mmgp_predict(model, samples)
    assert len(together) == len(samples)
    assert all(type(p) is SamplePrediction for p in together)
    for sample, prediction in zip(samples, together):
        (alone,) = mmgp_predict(model, [sample])
        assert {k: np.float64(v).tobytes()
                for k, v in prediction.scalars.items()} == \
            {k: np.float64(v).tobytes() for k, v in alone.scalars.items()}
        assert {k: v.tobytes() for k, v in prediction.fields.items()} == \
            {k: v.tobytes() for k, v in alone.fields.items()}
    assert mmgp_predict(model, []) == []


def test_predict_gives_a_training_sample_its_fit_row(monkeypatch):
    # fit and predict embed, transfer and project through one path, so a
    # training sample, morphed alone at predict time, meets the GP at its
    # fit row bit for bit, also where its connectivity is shared
    ds = generate(SynthConfig(n_samples=8, seed=3, min_nodes_per_side=5,
                              max_nodes_per_side=7))
    train = ds.problem.splits["train"]
    assert len(_connectivities(ds)) < len(train)
    inputs = []
    monkeypatch.setattr("meshbench.mmgp.gp_fit", lambda x, y, **kw: (
        inputs.append(x), gp_fit(x, y, **kw))[1])
    monkeypatch.setattr("meshbench.mmgp.gp_mean", lambda gp, x: (
        inputs.append(x), gp_mean(gp, x))[1])
    model = mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2))
    assert model.config.morphing and inputs
    x_train = inputs[0]
    inputs.clear()
    mmgp_predict(model, [ds.sample_at(sid) for sid in train])
    per_sample = len(inputs) // len(train)
    assert per_sample and len(inputs) == per_sample * len(train)
    for j, x in enumerate(inputs):  # each sample's GP queries, in order
        assert x.shape == (1, x_train.shape[1])
        assert x[0].tobytes() == x_train[j // per_sample].tobytes(), j


@pytest.mark.parametrize("node, message", [
    (np.nan, "node 7 has a non-finite coordinate"),
    (8, "degenerate \\(zero area\\)")])  # node 7 moved onto node 8
def test_bad_sample_of_a_shared_connectivity_raises_its_error(node, message):
    ds = generate(SynthConfig(n_samples=12, seed=3, min_nodes_per_side=6,
                              max_nodes_per_side=6))
    assert len(_connectivities(ds)) == 1

    def edit(zone):
        coords = zone.coordinates.copy()
        coords[7] = np.nan if np.isnan(node) else coords[node]
        return replace(zone, coordinates=coords)

    ds = _with_zone_edit(ds, ds.problem.splits["train"][-1], edit)
    with pytest.raises(NotDiskTopology, match=message):
        mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2))


def test_training_sample_error_bounded_by_pod_truncation():
    # no morphing: constant connectivity, transfer is the identity, so the
    # only field error at a training input is POD truncation plus GP noise
    ds = generate(SynthConfig(n_samples=12, seed=21, min_nodes_per_side=11,
                              max_nodes_per_side=11))
    config = MmgpConfig(morphing=False, shape_modes=3, field_modes=3)
    model = mmgp_fit(ds, ds.problem, config)

    samples = [ds.sample_at(sid) for sid in ds.problem.splits["train"][:4]]
    for sample, prediction in zip(samples, mmgp_predict(model, samples)):
        fields = prediction.fields
        for name in ("u", "du_dx"):
            ref = sample.get_field(name)
            basis = model.field_bases[name]
            truncation = np.linalg.norm(
                ref - pod_reconstruct(basis, pod_project(basis, ref)))
            err = np.linalg.norm(fields[name] - ref)
            scale = np.linalg.norm(ref)
            assert err <= truncation + 1e-4 * scale


def test_no_morphing_rejects_mismatched_vertex_count():
    fixed = generate(SynthConfig(n_samples=8, seed=2, min_nodes_per_side=9,
                                 max_nodes_per_side=9))
    config = MmgpConfig(morphing=False, shape_modes=2, field_modes=2)
    model = mmgp_fit(fixed, fixed.problem, config)
    other = generate(SynthConfig(n_samples=2, seed=3, min_nodes_per_side=12,
                                 max_nodes_per_side=12))
    with pytest.raises(ShapeMismatch):
        mmgp_predict(model, [other.sample_at(0)])


def test_no_morphing_requires_constant_vertex_count_at_fit():
    varied = generate(SynthConfig(n_samples=8, seed=4, min_nodes_per_side=8,
                                  max_nodes_per_side=12))
    config = MmgpConfig(morphing=False, shape_modes=2, field_modes=2)
    with pytest.raises(ShapeMismatch):
        mmgp_fit(varied, varied.problem, config)


def _with_constant_field(ds, name, value):
    """Rebuild every sample with field ``name`` replaced by a constant."""
    samples = []
    for i in range(ds.n_samples):
        s = ds.sample_at(i)
        trees = {}
        for t, tree in s.trees.items():
            zones = []
            for z in tree.bases[0].zones:
                fields = [f if f.name != name else
                          make_field(name, np.full(z.n_vertices, value))
                          for f in z.fields]
                zones.append(replace(z, fields=tuple(fields)))
            trees[t] = build_tree(
                [Base(tree.bases[0].name, 2, 2, tuple(zones))], tree.time)
        samples.append(Sample(trees=trees, scalars=s.scalars))
    return Dataset(samples=samples, infos=dict(ds.infos), problem=ds.problem)


def _with_nan_at_interior_node(ds, sid, coordinate):
    """Sample ``sid`` rebuilt with NaN at its interior node 7 (row 1,
    column 1 of a 6-per-side plate): its y coordinate, or its value of
    field "u"."""
    def edit(zone):
        if coordinate:
            coords = zone.coordinates.copy()
            coords[7, 1] = np.nan
            return replace(zone, coordinates=coords)
        fields = []
        for f in zone.fields:
            if f.name == "u":
                values = f.values.copy()
                values[7] = np.nan
                f = make_field("u", values)
            fields.append(f)
        return replace(zone, fields=tuple(fields))
    return _with_zone_edit(ds, sid, edit)


@pytest.mark.parametrize("morphing", [False, True])
@pytest.mark.parametrize("coordinate, morphed_error", [
    (True, NotDiskTopology), (False, DegenerateInputs)])
def test_non_finite_training_sample_raises_typed_error(morphing, coordinate,
                                                       morphed_error):
    # a NaN coordinate stops at the surface build when morphing; every
    # other NaN reaches a POD snapshot
    ds = generate(SynthConfig(n_samples=12, seed=3, min_nodes_per_side=6,
                              max_nodes_per_side=6))
    ds = _with_nan_at_interior_node(ds, ds.problem.splits["train"][1],
                                    coordinate)
    config = MmgpConfig(morphing=morphing, shape_modes=2, field_modes=2)
    with pytest.raises(morphed_error if morphing else DegenerateInputs,
                       match="non-finite"):
        mmgp_fit(ds, ds.problem, config)


def test_no_gp_inputs_raises_degenerate_inputs():
    # no input scalars, and one flat shape that leaves no shape mode
    ds = generate(SynthConfig(n_samples=12, seed=3, min_nodes_per_side=6,
                              max_nodes_per_side=6, amplitude_range=(0.0, 0.0)))
    ds.problem.in_scalars_names = []
    with pytest.raises(DegenerateInputs, match="1\\+ inputs"):
        mmgp_fit(ds, ds.problem, MmgpConfig(morphing=False))


@pytest.mark.parametrize("morphing,res", [(False, (9, 9)), (True, (8, 12))])
def test_constant_output_field_predicted_constant(morphing, res):
    ds = generate(SynthConfig(n_samples=10, seed=6, min_nodes_per_side=res[0],
                              max_nodes_per_side=res[1]))
    ds = _with_constant_field(ds, "u", 3.7)
    config = MmgpConfig(morphing=morphing, shape_modes=2, field_modes=2)
    model = mmgp_fit(ds, ds.problem, config)
    assert model.field_bases["u"].n_modes == 0
    sid = ds.problem.splits["test"][0]
    fields = mmgp_predict(model, [ds.sample_at(sid)])[0].fields
    assert np.abs(fields["u"] - 3.7).max() < 1e-8


def test_rank_zero_output_field_predicts_its_mean(tmp_path):
    # centred snapshots of u == 1 are exactly zero, so u keeps no POD mode
    ds = generate(SynthConfig(n_samples=10, seed=6, min_nodes_per_side=5,
                              max_nodes_per_side=5))
    ds = _with_constant_field(ds, "u", 1.0)
    model = mmgp_fit(ds, ds.problem, MmgpConfig(morphing=False, shape_modes=2,
                                                field_modes=2))
    assert model.field_bases["u"].n_modes == 0
    assert model.field_regressors["u"].constant.shape == (0,)
    sample = ds.sample_at(ds.problem.splits["test"][0])
    fields = mmgp_predict(model, [sample])[0].fields
    assert np.all(fields["u"] == 1.0)

    # the empty constant round-trips as a zero-length span of the one
    # payload, and a model whose rank-0 field has no regressor does not load
    save_model(model, tmp_path / "model")
    assert sorted(p.name for p in (tmp_path / "model").iterdir()) == [
        "model.manifest"]
    loaded = load_model(tmp_path / "model")
    assert loaded.field_regressors["u"].constant.shape == (0,)
    assert mmgp_predict(loaded, [sample])[0].fields["u"].tobytes() == \
        fields["u"].tobytes()
    save_model(replace(model, field_regressors={
        k: r for k, r in model.field_regressors.items() if k != "u"}),
        tmp_path / "no_regressor")
    with pytest.raises(FormatError, match="regressors"):
        load_model(tmp_path / "no_regressor")
    # a constant regressor holds no key but its kind and value
    path = tmp_path / "model" / "model.manifest"
    doc, payload = read_artifact(path)
    doc["field_regressors"]["u"]["extra"] = "1.0"
    write_artifact(path, doc, payload)
    with pytest.raises(FormatError, match="unknown keys"):
        load_model(tmp_path / "model")


def test_constant_coefficient_columns_fall_back_to_a_constant_vector(tmp_path):
    x = np.random.default_rng(14).normal(size=(6, 3))
    targets = np.tile([0.5, -2.0, 0.0], (6, 1))
    regressor = _fit_regressor(x, targets, "Matern52", 1e-10)
    assert not regressor.is_gp
    assert regressor.predict(x[:2]).tobytes() == targets[:2].tobytes()

    # a saved model keeps the field's constant vector
    ds = generate(SynthConfig(n_samples=10, seed=6, min_nodes_per_side=5,
                              max_nodes_per_side=5))
    model = mmgp_fit(ds, ds.problem, MmgpConfig(morphing=False, shape_modes=2,
                                                field_modes=2))
    constant = _fit_regressor(x, targets[:, :2], "Matern52", 1e-10)
    model = replace(model, field_regressors={**model.field_regressors,
                                             "u": constant})
    save_model(model, tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    assert loaded.field_regressors["u"].constant.tobytes() == \
        targets[0, :2].tobytes()
    sample = ds.sample_at(ds.problem.splits["test"][0])
    assert (mmgp_predict(loaded, [sample])[0].fields["u"].tobytes()
            == mmgp_predict(model, [sample])[0].fields["u"].tobytes())


def test_affine_outputs_learned_to_high_accuracy():
    # outputs exactly affine in the coordinate fields and the load scalar:
    # f = 0.5 + 2x - 3y + 0.25p, s = 1.2 + 0.7p + mean(x)
    ds = generate(SynthConfig(n_samples=30, seed=8, min_nodes_per_side=10,
                              max_nodes_per_side=10))
    samples = []
    for i in range(ds.n_samples):
        s = ds.sample_at(i)
        p = s.get_scalar("p")
        trees = {}
        for t, tree in s.trees.items():
            zone = tree.bases[0].zones[0]
            x, y = zone.coordinates[:, 0], zone.coordinates[:, 1]
            f_lin = 0.5 + 2.0 * x - 3.0 * y + 0.25 * p
            zones = (replace(zone, fields=(make_field("f_lin", f_lin),)),)
            trees[t] = build_tree([Base("Base_2_2", 2, 2, zones)], tree.time)
        scalars = {"a": s.get_scalar("a"), "p": p,
                   "s_lin": 1.2 + 0.7 * p + float(np.mean(
                       s.get_nodes(base_name="Base_2_2")[:, 0]))}
        samples.append(Sample(trees=trees, scalars=scalars))
    problem = ProblemDefinition(
        in_scalars_names=["a", "p"], out_scalars_names=["s_lin"],
        out_fields_names=["f_lin"], splits=ds.problem.splits,
        hidden_partition=ds.problem.hidden_partition)
    affine_ds = Dataset(samples=samples, infos={}, problem=problem)

    config = MmgpConfig(morphing=False, shape_modes=2, field_modes=2,
                        kernel="RBF")
    model = mmgp_fit(affine_ds, problem, config)
    ids = problem.splits["test"]
    samples = [affine_ds.sample_at(sid) for sid in ids]
    bundle = PredictionBundle(dict(zip(ids, mmgp_predict(model, samples))))
    report = total_error(problem, affine_ds, bundle)
    assert report.total_error <= 1e-3


def test_model_round_trip_preserves_predictions(tmp_path):
    ds = generate(SynthConfig(n_samples=10, seed=10, min_nodes_per_side=7,
                              max_nodes_per_side=10))
    config = MmgpConfig(shape_modes=2, field_modes=2)
    model = mmgp_fit(ds, ds.problem, config)
    save_model(model, tmp_path / "model")
    loaded = load_model(tmp_path / "model")

    sample = ds.sample_at(ds.problem.splits["test"][0])
    (p1,) = mmgp_predict(model, [sample])
    (p2,) = mmgp_predict(loaded, [sample])
    s1, f1, s2, f2 = p1.scalars, p1.fields, p2.scalars, p2.fields
    assert s1.keys() == s2.keys() and f1.keys() == f2.keys()
    for k in s1:
        assert np.float64(s1[k]).tobytes() == np.float64(s2[k]).tobytes()
    for k in f1:
        assert f1[k].tobytes() == f2[k].tobytes()


def test_permuted_training_split_gives_the_same_model(tmp_path):
    ds = generate(SynthConfig(n_samples=10, seed=10, min_nodes_per_side=7,
                              max_nodes_per_side=10))
    config = MmgpConfig(shape_modes=2, field_modes=2)
    save_model(mmgp_fit(ds, ds.problem, config), tmp_path / "sorted")
    # edited after construction, so ProblemDefinition did not sort it
    ds.problem.splits[config.train_split].reverse()
    save_model(mmgp_fit(ds, ds.problem, config), tmp_path / "reversed")
    assert ((tmp_path / "sorted" / "model.manifest").read_bytes()
            == (tmp_path / "reversed" / "model.manifest").read_bytes())


def test_saved_gps_share_one_copy_of_their_inputs(tmp_path):
    ds = generate(SynthConfig(n_samples=10, seed=10, min_nodes_per_side=7,
                              max_nodes_per_side=10))
    model = mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2))
    save_model(model, tmp_path / "model")
    assert (tmp_path / "model" / "model.manifest").read_bytes().partition(
        b"\n")[0].count(b"x_train") == 1
    loaded = load_model(tmp_path / "model")
    gps = [r.gp for r in (*loaded.field_regressors.values(),
                          *loaded.scalar_regressors.values()) if r.is_gp]
    assert len(gps) > 1
    assert all(gp.x_train is gps[0].x_train and gp.x_std is gps[0].x_std
               for gp in gps)

    name = sorted(model.field_regressors)[0]
    gp = model.field_regressors[name].gp
    other = Regressor(gp=replace(gp, x_train=gp.x_train + 1.0))
    with pytest.raises(IoFailure, match="different inputs"):
        save_model(replace(model, field_regressors={
            **model.field_regressors, name: other}), tmp_path / "other")
    assert not (tmp_path / "other").exists()


def test_transfers_find_boundary_edges_once(monkeypatch):
    # once per distinct training connectivity in fit; in predict, once per
    # distinct predicted connectivity and once for the common mesh
    ds = generate(SynthConfig(n_samples=8, seed=3, min_nodes_per_side=5,
                              max_nodes_per_side=9))
    n_connectivities = len(_connectivities(ds))
    assert n_connectivities < len(ds.problem.splits["train"])
    calls = {"edges": 0, "transfers": 0}
    for module in ("mmgp", "transfer"):
        monkeypatch.setattr(f"meshbench.{module}.boundary_edges",
                            _counted(calls, "edges", boundary_edges))
    monkeypatch.setattr("meshbench.mmgp.build_transfer",
                        _counted(calls, "transfers", build_transfer))
    model = mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2))
    test = [ds.sample_at(i) for i in ds.problem.splits["test"]]
    mmgp_predict(model, test)
    n_test_connectivities = len(_connectivities(ds, "test"))
    assert calls["transfers"] == (len(ds.problem.splits["train"])
                                  + 2 * len(test))
    assert calls["edges"] == n_connectivities + n_test_connectivities + 1


def test_coarsest_plates_predict_and_far_targets_stay_rejected():
    ds = generate(SynthConfig(n_samples=10, seed=10, min_nodes_per_side=6,
                              max_nodes_per_side=10))
    model = mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2))
    coarse = {res: build_plate_sample(
        SynthConfig(seed=5, min_nodes_per_side=res, max_nodes_per_side=res), 0)
        for res in (2, 3)}
    for res, prediction in zip(
            coarse, mmgp_predict(model, list(coarse.values()))):
        assert np.isfinite(list(prediction.scalars.values())).all()
        assert sorted(prediction.fields) == sorted(ds.problem.out_fields_names)
        for values in prediction.fields.values():
            assert values.shape == (res * res,)
            assert np.isfinite(values).all()

    # a common node pushed radially out of the unit disk by more than the
    # sagitta of the 2x2 plate's longest morphed boundary chord lies at
    # least that far from the plate's morphed polygon, and is rejected
    surface = build_surface_mesh(*extract_triangle_geometry(coarse[2]))
    loop = tutte_embed(surface)[extract_boundary_loop(surface)]
    chord = np.linalg.norm(np.roll(loop, -1, axis=0) - loop, axis=1).max()
    sagitta = 1.0 - np.sqrt(1.0 - (chord / 2) ** 2)
    nodes = model.common_nodes.copy()
    on_circle = int(np.argmax(np.linalg.norm(nodes, axis=1)))
    nodes[on_circle] *= 1.0 + 1.01 * sagitta
    with pytest.raises(PointOutsideDomain):
        mmgp_predict(replace(model, common_nodes=nodes), [coarse[2]])


def test_full_pipeline_determinism():
    ds = generate(SynthConfig(n_samples=10, seed=12, min_nodes_per_side=7,
                              max_nodes_per_side=10))
    config = MmgpConfig(shape_modes=2, field_modes=2)
    samples = [ds.sample_at(sid) for sid in ds.problem.splits["test"]]
    outputs = []
    for threads in (1, 4):
        model = mmgp_fit(ds, ds.problem, config, threads=threads)
        outputs.append(mmgp_predict(model, samples))
    for a, b in zip(*outputs):
        assert all(np.float64(a.scalars[k]).tobytes()
                   == np.float64(b.scalars[k]).tobytes() for k in a.scalars)
        assert all(a.fields[k].tobytes() == b.fields[k].tobytes()
                   for k in a.fields)


def test_extract_geometry_requires_unique_triangle_zone(two_base_sample):
    # the two-base fixture has one TRI_3 zone (fluid) and one BAR_2 zone:
    # extraction picks the triangulated one
    coords, triangles = extract_triangle_geometry(two_base_sample)
    assert coords.shape == (4, 2)
    assert triangles.shape == (2, 3)

    quad_zone = Zone(name="Q", zone_type=two_base_sample.get_mesh()
                     .bases[0].zones[0].zone_type, n_vertices=4,
                     coordinates=np.zeros((4, 2)))
    sample = Sample(trees={0.0: build_tree(
        [Base("Base_2_2", 2, 2, (quad_zone,))], 0.0)})
    with pytest.raises(ConfigInvalid):
        extract_triangle_geometry(sample)

"""Inputs at the edges of what the datamodel and SynthConfig accept."""

from dataclasses import replace

import numpy as np

from meshbench import (Base, Dataset, MmgpConfig, Sample, SynthConfig,
                       build_tree, generate, make_field, mmgp_fit,
                       mmgp_predict)
from meshbench.synthetic import plate_fields


def _rebuilt(ds, make_sample):
    """``ds`` with every sample replaced by ``make_sample(sample)``."""
    samples = [make_sample(ds.sample_at(i)) for i in range(ds.n_samples)]
    return Dataset(samples=samples, infos=dict(ds.infos), problem=ds.problem)


def _plate(zone, a, p):
    """A plate sample on ``zone``'s mesh with amplitude ``a`` and load
    ``p``."""
    u, du_dx = plate_fields(zone.coordinates, a, p)
    zone = replace(zone, fields=(make_field("u", u),
                                 make_field("du_dx", du_dx)))
    tree = build_tree([Base("Base_2_2", 2, 2, (zone,))], time=0.0)
    return Sample(trees={0.0: tree},
                  scalars={"a": a, "p": p, "u_max": float(u.max())})


def _predict_test_split(model, ds):
    return mmgp_predict(model, [ds.sample_at(sid)
                                for sid in ds.problem.splits["test"]])


def _all_finite(predictions):
    return all(np.isfinite(list(p.scalars.values())).all()
               and all(np.isfinite(v).all() for v in p.fields.values())
               for p in predictions)


def test_finest_plates_fit_and_predict_deterministically():
    ds = generate(SynthConfig(n_samples=5, seed=3, min_nodes_per_side=120,
                              max_nodes_per_side=125))
    config = MmgpConfig(shape_modes=2, field_modes=2)
    runs = []
    for _ in range(2):
        model = mmgp_fit(ds, ds.problem, config)
        runs.append(_predict_test_split(model, ds))
    for p in runs[0]:
        assert np.isfinite(list(p.scalars.values())).all()
        assert all(np.isfinite(values).all() for values in p.fields.values())
    for a, b in zip(*runs):
        assert {k: np.float64(v).tobytes() for k, v in a.scalars.items()} == \
            {k: np.float64(v).tobytes() for k, v in b.scalars.items()}
        assert {k: v.tobytes() for k, v in a.fields.items()} == \
            {k: v.tobytes() for k, v in b.fields.items()}


def test_samples_sharing_one_mesh_keep_no_shape_mode():
    # with morphing on, every shape snapshot is the same vector, so the
    # centered snapshots are round-off and the GP sees the scalars alone
    ds = generate(SynthConfig(n_samples=12, seed=5, min_nodes_per_side=8,
                              max_nodes_per_side=14))
    mesh = ds.sample_at(0).trees[0.0].bases[0].zones[0]
    ds = _rebuilt(ds, lambda s: _plate(mesh, s.get_scalar("a"),
                                       s.get_scalar("p")))
    model = mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2))
    assert model.shape_basis.n_modes == 0
    assert model.gp_input_dim == 2
    assert _all_finite(_predict_test_split(model, ds))


def test_constant_output_scalar_predicts_the_constant():
    ds = generate(SynthConfig(n_samples=10, seed=7, min_nodes_per_side=8,
                              max_nodes_per_side=12))
    ds = _rebuilt(ds, lambda s: Sample(
        trees=s.trees, scalars={**s.scalars, "u_max": 0.625}))
    model = mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2))
    assert not model.scalar_regressors["u_max"].is_gp
    for prediction in _predict_test_split(model, ds):
        assert prediction.scalars["u_max"] == 0.625


def test_input_scalars_far_outside_the_training_range_predict_finite():
    ds = generate(SynthConfig(n_samples=10, seed=9, min_nodes_per_side=8,
                              max_nodes_per_side=12))
    model = mmgp_fit(ds, ds.problem, MmgpConfig(shape_modes=2, field_modes=2))
    train = [ds.sample_at(i) for i in ds.problem.splits["train"]]
    sample = ds.sample_at(ds.problem.splits["test"][0])
    for name in ("a", "p"):
        values = [s.get_scalar(name) for s in train]
        for far in (50 * max(values), -50 * max(values)):
            query = Sample(trees=sample.trees,
                           scalars={**sample.scalars, name: far})
            assert _all_finite(mmgp_predict(model, [query]))

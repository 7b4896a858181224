"""Inputs at the edges of what the datamodel and SynthConfig accept."""

import numpy as np

from meshbench import MmgpConfig, SynthConfig, generate, mmgp_fit, mmgp_predict


def test_finest_plates_fit_and_predict_deterministically():
    ds = generate(SynthConfig(n_samples=5, seed=3, min_nodes_per_side=120,
                              max_nodes_per_side=125))
    config = MmgpConfig(shape_modes=2, field_modes=2)
    runs = []
    for _ in range(2):
        model = mmgp_fit(ds, ds.problem, config)
        runs.append([mmgp_predict(model, ds.sample_at(sid))
                     for sid in ds.problem.splits["test"]])
    for scalars, fields in runs[0]:
        assert np.isfinite(list(scalars.values())).all()
        assert all(np.isfinite(values).all() for values in fields.values())
    for (sa, fa), (sb, fb) in zip(*runs):
        assert {k: np.float64(v).tobytes() for k, v in sa.items()} == \
            {k: np.float64(v).tobytes() for k, v in sb.items()}
        assert {k: v.tobytes() for k, v in fa.items()} == \
            {k: v.tobytes() for k, v in fb.items()}

"""Acceptance suite: one test per criterion, run with `pytest -v -s`.

Each test prints a single PASS line (prefixed `[acceptance]`) after its
assertions, and enforces the stated runtime budget.
"""

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

from meshbench import (
    Base,
    Dataset,
    Location,
    MmgpConfig,
    PredictionBundle,
    ProblemDefinition,
    Sample,
    SynthConfig,
    build_surface_mesh,
    build_transfer,
    apply_transfer,
    build_tree,
    datasets_equal,
    extract_boundary_loop,
    generate,
    gp_fit,
    gp_predict,
    kernel_eval,
    load_dataset,
    make_field,
    make_unstructured_zone,
    mmgp_fit,
    mmgp_predict,
    pod_fit,
    rrmse_field,
    rrmse_scalar,
    save_dataset,
    score_hidden,
    total_error,
    tutte_embed,
)
from meshbench.cli import main as cli_main
from meshbench.errors import AmbiguousQuery
from meshbench.morphing import signed_areas

from conftest import random_disk_mesh, square_triangulation
from test_metrics import oracle_rrmse_field, oracle_rrmse_scalar


def _report(criterion, description):
    print(f"[acceptance] criterion {criterion} PASS - {description}")


def _assert_budget(started, limit, criterion):
    elapsed = time.monotonic() - started
    assert elapsed < limit, \
        f"criterion {criterion} took {elapsed:.1f}s (budget {limit}s)"


# -- criterion 1 --------------------------------------------------------------

def _random_metric_dataset(rng):
    """Tiny in-memory dataset + bundle with randomized outputs."""
    n_samples = int(rng.integers(1, 11))
    field_names = [f"f{k}" for k in range(int(rng.integers(1, 4)))]
    scalar_names = [f"s{k}" for k in range(int(rng.integers(0, 3)))]

    samples, field_refs, field_preds = [], {}, {}
    scalar_refs, scalar_preds = {}, {}
    bundle = PredictionBundle()
    for sid in range(n_samples):
        zones = []
        for name in field_names:
            length = int(rng.integers(1, 51))
            ref = rng.normal(size=length)
            ref[np.abs(ref).argmax()] += 2.0
            pred = ref + rng.normal(scale=0.4, size=length)
            field_refs.setdefault(name, []).append(ref)
            field_preds.setdefault(name, []).append(pred)
            zones.append(make_unstructured_zone(
                f"Z_{name}", np.zeros((length, 2)),
                fields=[make_field(name, ref)]))
            bundle.set_field(sid, name, pred)
        scalars = {}
        for name in scalar_names:
            ref = float(rng.normal() + np.sign(rng.normal()) * 1.5)
            pred = ref + float(rng.normal(scale=0.2))
            scalar_refs.setdefault(name, []).append(ref)
            scalar_preds.setdefault(name, []).append(pred)
            scalars[name] = ref
            bundle.set_scalar(sid, name, pred)
        tree = build_tree([Base("Base_2_2", 2, 2, tuple(zones))], time=0.0)
        samples.append(Sample(trees={0.0: tree}, scalars=scalars))

    problem = ProblemDefinition(
        out_scalars_names=scalar_names, out_fields_names=field_names,
        splits={"test": list(range(n_samples))})
    dataset = Dataset(samples=samples, problem=problem)
    return dataset, bundle, field_refs, field_preds, scalar_refs, scalar_preds


def test_criterion_1_metric_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        ds, bundle, frefs, fpreds, srefs, spreds = _random_metric_dataset(rng)
        expected = []
        report = total_error(ds.problem, ds, bundle)
        for name in frefs:
            want = oracle_rrmse_field(frefs[name], fpreds[name])
            got_direct = rrmse_field(frefs[name], fpreds[name])
            assert abs(got_direct - want) <= 1e-12 * max(1.0, want)
            assert abs(report.field_rrmse[name] - want) <= 1e-12 * max(1.0, want)
            expected.append(want)
        for name in srefs:
            want = oracle_rrmse_scalar(srefs[name], spreds[name])
            got_direct = rrmse_scalar(srefs[name], spreds[name])
            assert abs(got_direct - want) <= 1e-12 * max(1.0, want)
            assert abs(report.scalar_rrmse[name] - want) <= 1e-12 * max(1.0, want)
            expected.append(want)
        want_total = sum(expected) / len(expected)
        assert abs(report.total_error - want_total) <= 1e-12 * max(1.0, want_total)
    _assert_budget(started, 5.0, 1)
    _report(1, "100 randomized cases match the direct-formula oracle to 1e-12")


# -- criterion 2 --------------------------------------------------------------

def test_criterion_2_round_trip_fidelity(tmp_path):
    started = time.monotonic()
    ds = generate(SynthConfig(n_samples=20, seed=7))
    root = tmp_path / "plate2d"
    save_dataset(ds, root)
    eager = load_dataset(root, lazy=False)
    lazy = load_dataset(root, lazy=True)
    assert datasets_equal(ds, eager)
    assert datasets_equal(ds, lazy)
    _assert_budget(started, 10.0, 2)
    _report(2, "generate/save/load round trip is bit-exact (eager and lazy)")


# -- criterion 3 --------------------------------------------------------------

def test_criterion_3_query_semantics(two_base_sample):
    s = two_base_sample
    # fully specified queries succeed
    mach = s.get_field("mach", base_name="Base_2_2", zone_name="Fluid",
                       location=Location.Vertex, time=0.0)
    assert mach.shape == (4,)
    m_iso = s.get_field("M_iso", base_name="Base_1_2", zone_name="Blade",
                        location=Location.Vertex, time=0.0)
    assert m_iso.shape == (3,)
    # base omitted with two bases is ambiguous
    with pytest.raises(AmbiguousQuery):
        s.get_field("mach")
    # element-located field at a non-default time
    erosion = s.get_field("EROSION_STATUS", base_name="Base_2_2",
                          location=Location.CellCenter, time=0.01)
    assert erosion.tolist() == [0.0, 1.0]
    # link resolution reproduces the t=0 geometry exactly
    t0 = s.get_mesh(time=0.0)
    t1 = s.get_mesh(time=0.01, apply_links=True)
    for base_name in ("Base_2_2", "Base_1_2"):
        a = t0.base(base_name).zones[0].coordinates
        b = t1.base(base_name).zones[0].coordinates
        assert a.tobytes() == b.tobytes()
    _report(3, "two-base sample resolves, rejects, and links per contract")


# -- criterion 4 --------------------------------------------------------------

def test_criterion_4_tutte_validity():
    started = time.monotonic()
    rng = np.random.default_rng(4004)
    for _ in range(50):
        n = int(rng.integers(50, 2001))
        pts, tris = random_disk_mesh(rng, n)
        mesh = build_surface_mesh(pts, tris)
        positions = tutte_embed(mesh)
        assert (signed_areas(positions, mesh.triangles) > 0).all()
        radii = np.linalg.norm(positions[extract_boundary_loop(mesh)], axis=1)
        assert np.abs(radii - 1.0).max() < 1e-12

    angles = np.arange(6) * np.pi / 3
    nodes = np.vstack([np.stack([np.cos(angles), np.sin(angles)], axis=1),
                       [[0.0, 0.0]]])
    hexagon = build_surface_mesh(nodes, [[i, (i + 1) % 6, 6] for i in range(6)])
    center = tutte_embed(hexagon)[6]
    assert np.abs(center).max() < 1e-12
    _assert_budget(started, 30.0, 4)
    _report(4, "50 random Delaunay embeddings fold-free with unit boundary")


# -- criterion 5 --------------------------------------------------------------

def test_criterion_5_transfer_exactness():
    na, ta = square_triangulation(seed=51, n_interior=80)
    nb, tb = square_triangulation(seed=52, n_interior=110)
    affine = lambda p: 0.75 - 1.5 * p[:, 0] + 2.25 * p[:, 1]
    forward = build_transfer(na, ta, nb)
    backward = build_transfer(nb, tb, na)
    assert np.abs(apply_transfer(forward, affine(na)) - affine(nb)).max() < 1e-12
    assert np.abs(apply_transfer(backward, affine(nb)) - affine(na)).max() < 1e-12

    rng = np.random.default_rng(53)
    f = rng.normal(size=len(na))
    g = rng.normal(size=len(na))
    a, b = -1.75, 0.3
    lhs = apply_transfer(forward, a * f + b * g)
    rhs = a * apply_transfer(forward, f) + b * apply_transfer(forward, g)
    assert np.abs(lhs - rhs).max() < 1e-12
    _report(5, "affine fields transfer exactly; operator is linear to 1e-12")


# -- criterion 6 --------------------------------------------------------------

def test_criterion_6_pod_gp_oracles():
    rng = np.random.default_rng(6006)

    snaps = rng.normal(size=(5, 40))
    basis = pod_fit(snaps, 3)
    oracle_sv = np.linalg.svd(snaps - snaps.mean(axis=0), compute_uv=False)
    assert np.abs(basis.singular_values - oracle_sv[:3]).max() < 1e-10

    x3 = np.array([[0.0], [0.5], [1.0]])
    y3 = np.array([1.0, -0.3, 0.7])
    interp = gp_fit(x3, y3)
    mean3, _ = gp_predict(interp, x3)
    assert np.abs(mean3 - y3).max() < 1e-6

    x2 = np.array([[0.0], [1.0]])
    y2 = np.array([1.0, 3.0])
    model = gp_fit(x2, y2)
    xq = np.array([[0.3], [0.9]])
    mean2, _ = gp_predict(model, xq)
    xs = ((x2 - model.x_mean) / model.x_std).ravel()
    ys = (y2 - model.y_mean) / model.y_std
    k = lambda a, b: kernel_eval(model.kernel, [a], [b])
    K = np.array([[k(xs[0], xs[0]) + model.jitter, k(xs[0], xs[1])],
                  [k(xs[1], xs[0]), k(xs[1], xs[1]) + model.jitter]])
    alpha = np.linalg.solve(K, ys)
    for point, got in zip(xq.ravel(), mean2):
        q = (point - model.x_mean[0]) / model.x_std[0]
        want = model.y_mean + model.y_std * \
            (np.array([k(q, xs[0]), k(q, xs[1])]) @ alpha)
        assert abs(got - want) < 1e-12

    xf = rng.uniform(0, 1, size=(6, 2))
    yf = np.sin(2.0 * xf[:, 0]) - xf[:, 1]
    far_model = gp_fit(xf, yf)
    offset = 60.0 * far_model.kernel.lengthscales.max() * far_model.x_std.max()
    far_mean, far_var = gp_predict(far_model, np.array([[offset, -offset]]))
    assert abs(far_mean[0] - far_model.y_mean) < 1e-6
    assert abs(far_var[0]
               - far_model.kernel.variance * far_model.y_std ** 2) < 1e-6
    _report(6, "POD matches the SVD oracle; GP interpolation, 2-point dense "
               "solve and prior reversion hold")


# -- criterion 7 --------------------------------------------------------------

def _score_pipeline(ds, modes):
    config = MmgpConfig(morphing=True, shape_modes=modes, field_modes=modes,
                        kernel="Matern52", train_split="train_100")
    model = mmgp_fit(ds, ds.problem, config, threads=4)
    ids = ds.problem.splits["test"]
    predictions = mmgp_predict(model, [ds.sample_at(sid) for sid in ids])
    bundle = PredictionBundle(dict(zip(ids, predictions)))
    return total_error(ds.problem, ds, bundle).total_error


def test_criterion_7_end_to_end_surrogate():
    started = time.monotonic()
    # 80/20 splits cannot yield 100/20 exactly; n=125 gives the nested
    # train_100 split (100 training samples) and a 25-sample test split
    ds = generate(SynthConfig(n_samples=125, seed=11), threads=4)
    assert len(ds.problem.splits["train_100"]) == 100

    score_8 = _score_pipeline(ds, 8)
    assert score_8 <= 0.05, f"total_error {score_8}"
    score_16 = _score_pipeline(ds, 16)  # oracle run: more modes, not worse
    assert score_16 <= score_8
    _assert_budget(started, 300.0, 7)
    _report(7, f"morphing pipeline total_error {score_8:.4f} <= 0.05 and "
               f"16-mode run ({score_16:.4f}) is not worse")


# -- criterion 8 --------------------------------------------------------------

def test_criterion_8_hidden_split_scoring():
    ds = generate(SynthConfig(n_samples=20, seed=7))
    problem = ds.problem
    part = problem.hidden_partition
    test_ids = problem.splits["test"]
    public_ids = sorted(i for i, c in part.items() if c == "Public")
    private_ids = sorted(i for i, c in part.items() if c == "Private")
    assert set(public_ids).isdisjoint(private_ids)
    assert sorted(public_ids + private_ids) == sorted(test_ids)

    bundle = PredictionBundle()
    for sid in test_ids:
        s = ds.sample_at(sid)
        u = s.get_field("u").copy()
        du = s.get_field("du_dx").copy()
        u_max = s.get_scalar("u_max")
        if sid in private_ids:
            u += 0.05
            u_max *= 1.1
        bundle.set_field(sid, "u", u)
        bundle.set_field(sid, "du_dx", du)
        bundle.set_scalar(sid, "u_max", u_max)

    public, private = score_hidden(problem, ds, bundle)
    assert public.total_error == 0.0
    assert private.total_error > 0.0
    _report(8, "perfect-on-Public bundle scores 0.0 public, > 0 private")


# -- criterion 9 --------------------------------------------------------------

def _dir_bytes(root):
    files = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
    return [(str(p), (root / p).read_bytes()) for p in files]


def _run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(argv)
    assert code == 0, f"CLI failed: {argv}"
    return buffer.getvalue()


def test_criterion_9_thread_determinism(tmp_path):
    # criterion 2 configuration: generate
    roots = []
    for threads in ("1", "4"):
        out = tmp_path / f"gen_t{threads}"
        _run_cli(["generate", "--case", "plate2d", "--n", "20", "--seed", "7",
                  "--out", str(out), "--threads", threads])
        roots.append(out)
    assert _dir_bytes(roots[0]) == _dir_bytes(roots[1])

    # criterion 7 configuration: fit + predict + score (morphing exercises
    # criterion 4's embeddings inside the pipeline)
    data_dir = tmp_path / "ds125"
    _run_cli(["generate", "--case", "plate2d", "--n", "125", "--seed", "11",
              "--out", str(data_dir), "--threads", "4"])
    config = tmp_path / "mmgp.cfg"
    config.write_text("morphing = on\nshape_modes = 8\nfield_modes = 8\n"
                      "kernel = matern52\ntrain_split = train_100\n")

    tables = []
    bundles = []
    models = []
    for threads in ("1", "4"):
        model_dir = tmp_path / f"model_t{threads}"
        bundle_dir = tmp_path / f"bundle_t{threads}"
        _run_cli(["mmgp", "fit", "--train", str(data_dir), "--config",
                  str(config), "--model", str(model_dir),
                  "--threads", threads])
        _run_cli(["mmgp", "predict", "--model", str(model_dir), "--data",
                  str(data_dir), "--split", "test", "--out", str(bundle_dir),
                  "--threads", threads])
        table = _run_cli(["score", "--ref", str(data_dir), "--pred",
                          str(bundle_dir), "--hidden", "--format", "json"])
        models.append(model_dir)
        bundles.append(bundle_dir)
        tables.append(table)

    assert _dir_bytes(models[0]) == _dir_bytes(models[1])
    assert _dir_bytes(bundles[0]) == _dir_bytes(bundles[1])
    assert tables[0] == tables[1]
    score = json.loads(tables[0])
    assert score["total_error"] <= 0.05
    _report(9, "files and score tables are bitwise identical for "
               "--threads 1 and --threads 4")

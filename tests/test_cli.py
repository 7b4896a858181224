import json

import numpy as np
import pytest

import meshbench.cli as cli_module
from meshbench import load_bundle, load_dataset
from meshbench.cli import main

from conftest import read_artifact, write_artifact


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli") / "ds"
    assert main(["generate", "--case", "plate2d", "--n", "12", "--seed", "3",
                 "--out", str(root), "--min-nodes", "7", "--max-nodes", "10",
                 "--threads", "2"]) == 0
    return root


def test_generate_then_validate(generated, capsys):
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "validate", str(generated), "--strict")
    assert code == 0
    assert "0 violations" in out


def test_validate_missing_dir_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["validate", "/nonexistent/path"])
    assert err.value.code == 2


def test_validate_corrupted_blob_names_file(generated, tmp_path, capsys):
    import shutil
    broken = tmp_path / "broken"
    shutil.copytree(generated, broken)
    path = broken / "dataset" / "samples" / "sample_000000000.manifest"
    path.write_bytes(path.read_bytes()[:-4])  # cut into its payload
    capsys.readouterr()
    code, out, err = run_cli(capsys, "validate", str(broken), "--strict")
    assert code == 1
    assert str(path.relative_to(broken)) in err


def test_validate_reports_non_finite_infos(generated, tmp_path, capsys):
    import shutil
    edited = tmp_path / "edited"
    shutil.copytree(generated, edited)
    infos = edited / "infos.yaml"
    text = infos.read_text()
    assert '"seed": 3' in text
    infos.write_text(text.replace('"seed": 3', '"seed": 1e999'))
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "validate", str(edited), "--strict")
    assert code == 1
    assert "violation: infos: not JSON: Out of range float" in out


def test_info_text_and_json(generated, capsys):
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "info", str(generated))
    assert code == 0
    assert "a, p" in out and "u_max" in out
    assert "train" in out and "test" in out

    code, out, _ = run_cli(capsys, "info", str(generated), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_samples"] == 12
    assert doc["splits"]["train"] == 9
    assert doc["splits"]["test"] == 3
    assert doc["in_scalars"] == ["a", "p"]
    assert sorted(doc["out_fields"]) == ["du_dx", "u"]


def test_full_surrogate_loop(generated, tmp_path, capsys):
    config = tmp_path / "mmgp.cfg"
    config.write_text("morphing = on\nshape_modes = 2\nfield_modes = 2\n"
                      "kernel = matern52\n")
    model_dir = tmp_path / "model"
    bundle_dir = tmp_path / "bundle"
    capsys.readouterr()

    code, out, _ = run_cli(capsys, "mmgp", "fit", "--train", str(generated),
                           "--config", str(config), "--model", str(model_dir),
                           "--threads", "2")
    assert code == 0 and "regressors" in out

    code, out, _ = run_cli(capsys, "mmgp", "predict", "--model", str(model_dir),
                           "--data", str(generated), "--split", "test",
                           "--out", str(bundle_dir))
    assert code == 0

    code, out, _ = run_cli(capsys, "score", "--ref", str(generated),
                           "--pred", str(bundle_dir), "--hidden",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_error"] < 0.5
    assert set(doc["fields"]) == {"u", "du_dx"}
    assert "public_total" in doc and "private_total" in doc

    code, out, _ = run_cli(capsys, "score", "--ref", str(generated),
                           "--pred", str(bundle_dir))
    assert code == 0
    assert out.splitlines()[-1].startswith("total_error")


def test_fit_runs_the_gp_fits_sequentially_by_default(generated, tmp_path,
                                                      capsys, monkeypatch):
    # more pool threads only pay with BLAS pinned to one thread each
    calls = []

    def recorded(*args, threads):
        calls.append(threads)
        return fit(*args, threads=threads)

    fit = cli_module.mmgp_fit
    monkeypatch.setattr(cli_module, "mmgp_fit", recorded)
    config = tmp_path / "mmgp.cfg"
    config.write_text("shape_modes = 2\nfield_modes = 2\n")
    code, _, _ = run_cli(capsys, "mmgp", "fit", "--train", str(generated),
                         "--config", str(config),
                         "--model", str(tmp_path / "model"))
    assert code == 0 and calls == [1]


def test_fit_to_a_model_path_that_is_a_file_exits_1(generated, tmp_path,
                                                    capsys):
    config = tmp_path / "mmgp.cfg"
    config.write_text("shape_modes = 2\nfield_modes = 2\n")
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    code, _, err = run_cli(capsys, "mmgp", "fit", "--train", str(generated),
                           "--config", str(config), "--model", str(taken))
    assert code == 1
    assert err.startswith("error: IoFailure: ") and str(taken) in err
    assert taken.read_text() == "not a directory"


def test_predict_to_an_out_path_that_is_a_file_exits_1(generated, tmp_path,
                                                       capsys):
    config = tmp_path / "mmgp.cfg"
    config.write_text("shape_modes = 2\nfield_modes = 2\n")
    model_dir = tmp_path / "model"
    assert main(["mmgp", "fit", "--train", str(generated), "--config",
                 str(config), "--model", str(model_dir)]) == 0
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    code, _, err = run_cli(capsys, "mmgp", "predict", "--model",
                           str(model_dir), "--data", str(generated),
                           "--out", str(taken))
    assert code == 1
    assert err.startswith("error: IoFailure: ") and str(taken) in err
    assert taken.read_text() == "not a directory"


def test_score_perfect_bundle(generated, tmp_path, capsys):
    from meshbench.metrics import PredictionBundle, save_bundle
    ds = load_dataset(generated)
    bundle = PredictionBundle()
    for sid in ds.problem.splits["test"]:
        s = ds.sample_at(sid)
        bundle.set_field(sid, "u", s.get_field("u"))
        bundle.set_field(sid, "du_dx", s.get_field("du_dx"))
        bundle.set_scalar(sid, "u_max", s.get_scalar("u_max"))
    save_bundle(bundle, tmp_path / "perfect")
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "score", "--ref", str(generated),
                           "--pred", str(tmp_path / "perfect"),
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["total_error"] == 0.0


def test_score_missing_output_exits_1(generated, tmp_path, capsys):
    from meshbench.metrics import PredictionBundle, save_bundle
    ds = load_dataset(generated)
    bundle = PredictionBundle()
    for sid in ds.problem.splits["test"]:
        s = ds.sample_at(sid)
        bundle.set_field(sid, "u", s.get_field("u"))
        # du_dx and u_max withheld
    save_bundle(bundle, tmp_path / "partial")
    capsys.readouterr()
    code, _, err = run_cli(capsys, "score", "--ref", str(generated),
                           "--pred", str(tmp_path / "partial"))
    assert code == 1
    assert "MissingOutput" in err


def _spoil_reference(root, sid, name, value):
    path = root / "dataset" / "samples" / f"sample_{sid:09d}.manifest"
    doc, payload = read_artifact(path)
    if name in doc["scalars"]:
        doc["scalars"][name] = repr(value)
    else:
        zone = doc["trees"][0]["bases"][0]["zones"][0]
        offset = next(f["values"]["offset"] for f in zone["fields"]
                      if f["name"] == name)
        payload = bytearray(payload)
        payload[offset:offset + 8] = np.float64(value).tobytes()
    write_artifact(path, doc, bytes(payload))


@pytest.mark.parametrize("side, name, value, error", [
    ("prediction", "u", float("nan"), "MissingOutput"),
    ("prediction", "u_max", float("inf"), "MissingOutput"),
    ("reference", "du_dx", float("-inf"), "DegenerateReference"),
    ("reference", "u_max", float("nan"), "DegenerateReference"),
])
def test_score_non_finite_value_exits_1(generated, tmp_path, capsys, side,
                                        name, value, error):
    import shutil
    from meshbench.metrics import PredictionBundle, save_bundle
    ref = tmp_path / "ref"
    shutil.copytree(generated, ref)
    ds = load_dataset(generated)
    sid = ds.problem.splits["test"][0]
    bundle = PredictionBundle()
    for i in ds.problem.splits["test"]:
        s = ds.sample_at(i)
        bundle.set_field(i, "u", s.get_field("u"))
        bundle.set_field(i, "du_dx", s.get_field("du_dx"))
        bundle.set_scalar(i, "u_max", s.get_scalar("u_max"))
    if side == "prediction":
        entry = bundle.predictions[sid]
        if name in entry.scalars:
            entry.scalars[name] = value
        else:
            entry.fields[name] = np.full_like(entry.fields[name], value)
    else:
        _spoil_reference(ref, sid, name, value)
    save_bundle(bundle, tmp_path / "bundle")
    capsys.readouterr()
    code, out, err = run_cli(capsys, "score", "--ref", str(ref),
                             "--pred", str(tmp_path / "bundle"))
    assert code == 1
    assert out == ""
    assert f"{error}: " in err
    assert f"'{name}', sample {sid}: {side} is not finite" in err


def test_score_hidden_without_partition_exits_1(tmp_path, capsys):
    # n=2 -> test split of one sample -> no hidden partition emitted
    root = tmp_path / "tiny"
    assert main(["generate", "--n", "2", "--seed", "1", "--out", str(root),
                 "--min-nodes", "5", "--max-nodes", "6"]) == 0
    from meshbench.metrics import PredictionBundle, save_bundle
    ds = load_dataset(root)
    bundle = PredictionBundle()
    for sid in ds.problem.splits["test"]:
        s = ds.sample_at(sid)
        bundle.set_field(sid, "u", s.get_field("u"))
        bundle.set_field(sid, "du_dx", s.get_field("du_dx"))
        bundle.set_scalar(sid, "u_max", s.get_scalar("u_max"))
    save_bundle(bundle, tmp_path / "b")
    capsys.readouterr()
    code, _, err = run_cli(capsys, "score", "--ref", str(root),
                           "--pred", str(tmp_path / "b"), "--hidden")
    assert code == 1
    assert "NoPartition" in err


def test_convert_participant_export(generated, tmp_path, capsys):
    out = tmp_path / "export"
    capsys.readouterr()
    code, _, _ = run_cli(capsys, "convert", "--in", str(generated),
                         "--mode", "participant-export", "--out", str(out))
    assert code == 0
    exported = load_dataset(out)
    test_ids = exported.problem.splits["test"]
    sample = exported.sample_at(test_ids[0])
    assert "u_max" not in sample.scalars
    assert "a" in sample.scalars and "p" in sample.scalars
    assert sample.get_field_names() == []
    assert exported.problem.hidden_partition is None
    assert "hidden_partition" not in json.loads(
        (out / "problem_definition" / "problem_infos.yaml").read_text())

    train_sample = exported.sample_at(exported.problem.splits["train"][0])
    assert sorted(train_sample.get_field_names()) == ["du_dx", "u"]


def test_predict_on_participant_export(generated, tmp_path, capsys):
    # inputs survive the export, so prediction must work on it
    export_dir = tmp_path / "export2"
    assert main(["convert", "--in", str(generated), "--mode",
                 "participant-export", "--out", str(export_dir)]) == 0
    config = tmp_path / "cfg"
    config.write_text("shape_modes = 2\nfield_modes = 2\n")
    model_dir = tmp_path / "model2"
    assert main(["mmgp", "fit", "--train", str(generated), "--config",
                 str(config), "--model", str(model_dir)]) == 0
    bundle_dir = tmp_path / "bundle2"
    capsys.readouterr()
    code, _, _ = run_cli(capsys, "mmgp", "predict", "--model", str(model_dir),
                         "--data", str(export_dir), "--split", "test",
                         "--out", str(bundle_dir))
    assert code == 0
    bundle = load_bundle(bundle_dir)
    assert sorted(bundle.predictions) == load_dataset(
        export_dir).problem.splits["test"]


def test_predict_with_mismatched_names_exits_1(generated, tmp_path, capsys):
    # model trained without morphing on another resolution: prediction on
    # the variable-resolution set must fail cleanly
    fixed = tmp_path / "fixed"
    assert main(["generate", "--n", "8", "--seed", "5", "--out", str(fixed),
                 "--min-nodes", "9", "--max-nodes", "9"]) == 0
    config = tmp_path / "nomorph.cfg"
    config.write_text("morphing = off\nshape_modes = 2\nfield_modes = 2\n")
    model_dir = tmp_path / "model3"
    assert main(["mmgp", "fit", "--train", str(fixed), "--config", str(config),
                 "--model", str(model_dir)]) == 0
    capsys.readouterr()
    code, _, err = run_cli(capsys, "mmgp", "predict", "--model", str(model_dir),
                           "--data", str(generated), "--split", "test",
                           "--out", str(tmp_path / "nope"))
    assert code == 1
    assert "ShapeMismatch" in err


def test_fit_without_gp_inputs_exits_1(tmp_path, capsys):
    from meshbench import SynthConfig, generate, save_dataset
    ds = generate(SynthConfig(n_samples=12, seed=3, min_nodes_per_side=6,
                              max_nodes_per_side=6, amplitude_range=(0.0, 0.0)))
    ds.problem.in_scalars_names = []
    save_dataset(ds, tmp_path / "flat")
    config = tmp_path / "nomorph.cfg"
    config.write_text("morphing = off\n")
    code, _, err = run_cli(capsys, "mmgp", "fit", "--train",
                           str(tmp_path / "flat"), "--config", str(config),
                           "--model", str(tmp_path / "model"))
    assert code == 1
    assert "DegenerateInputs" in err and "1+ inputs" in err


def test_info_warns_on_empty_splits(tmp_path, capsys):
    from meshbench import Dataset, ProblemDefinition, Sample, save_dataset
    ds = Dataset(samples=[Sample(scalars={"x": 1.0}),
                          Sample(scalars={"x": 2.0})],
                 problem=ProblemDefinition())
    save_dataset(ds, tmp_path / "nosplits")
    capsys.readouterr()
    code, out, _ = run_cli(capsys, "info", str(tmp_path / "nosplits"))
    assert code == 0
    assert "no splits" in out


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--frobnicate"])
    assert err.value.code == 2
    # the snap allowance follows from the meshes; no flag sets it
    with pytest.raises(SystemExit) as err:
        main(["mmgp", "fit", "--train", "ds", "--config", "mmgp.cfg",
              "--model", "model", "--transfer-tol", "0.05"])
    assert err.value.code == 2

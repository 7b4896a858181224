"""The three meshbench workloads: set-up, timed passes and correctness gates.

Every workload is a closed loop with one client: each command starts when
the previous one returns, all in this process.  Commands go through
``meshbench.cli.main`` exactly as the command line runs them (lazy dataset
loads, model and bundle written to disk and read back); library functions
are looked up on their modules at call time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from meshbench import cli, metrics, storage, synthetic

#: set-ups in one benchmark run; setup_s is their median
SETUP_REPEATS = 3
#: acceptance criterion 7: the surrogate's score on the test split
MAX_TOTAL_ERROR = 0.05
#: acceptance criterion 1: a score matches the direct formula evaluation
SCORE_RTOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "solve" (fit/predict/score) or "store"
    n_samples: int
    min_nodes: int
    max_nodes: int
    threads: int
    morphing: bool = True
    train_split: str = ""
    shape_modes: int = 8
    field_modes: int = 8
    kernel: str = "matern52"
    submissions: int = 0
    #: nodes per side the first training sample (the common mesh) must have;
    #: its size sets most of the transfer work, so it is held fixed
    first_train_nodes: int | None = None
    #: layer predicted to have the largest self time when traced
    largest_self: str = ""
    #: layers (metric prefixes) that must see zero calls when traced
    bypassed: tuple[str, ...] = ()

    def config_text(self) -> str:
        return (f"morphing     = {'on' if self.morphing else 'off'}\n"
                f"shape_modes  = {self.shape_modes}\n"
                f"field_modes  = {self.field_modes}\n"
                f"kernel       = {self.kernel}\n"
                f"train_split  = {self.train_split}\n")


_NOT_ON_STORE = ("transfer.", "morphing.", "gp.", "pod.", "parallel.", "mmgp.")

WORKLOADS = {
    # the ROADMAP canonical case, single-threaded: the transfer layer
    # (build_transfer) does most of fit and nearly all of predict
    "canonical": Workload(
        name="canonical", kind="solve", n_samples=125, min_nodes=15,
        max_nodes=30, threads=1, morphing=True, train_split="train_100",
        first_train_nodes=18, largest_self="transfer.build_transfer",
        bypassed=("dataset.validate_dataset", "parallel.pool_calls")),
    # constant 10x10 meshes with morphing off: no transfer or morphing at
    # all, and the GP hyperparameter search on 400 points dominates fit;
    # the only workload that runs the thread pool
    "gp_heavy": Workload(
        name="gp_heavy", kind="solve", n_samples=500, min_nodes=10,
        max_nodes=10, threads=2, morphing=False, train_split="train_400",
        largest_self="gp.gp_fit",
        bypassed=("transfer.", "morphing.", "dataset.validate_dataset")),
    # what a benchmark host runs: storage, dataset and metrics only, with
    # writes (save, export) beside reads (validate, export, score)
    "store_score": Workload(
        name="store_score", kind="store", n_samples=500, min_nodes=15,
        max_nodes=30, threads=1, submissions=10, bypassed=_NOT_ON_STORE),
}


# ---------------------------------------------------------------------------
# helpers

class Ops:
    """Operations attempted and failed; a failed gate is a failed op."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"{what}: {failed} of {attempted} failed")


def run_cli(argv: list[str]) -> tuple[int | None, str]:
    """Run one meshbench command; (exit code or None if it raised, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
    except Exception:  # a crash inside a command is a failed operation
        traceback.print_exc(file=sys.stderr)
        return None, out.getvalue()
    return code, out.getvalue()


def dir_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def dir_usage(roots: list[Path]) -> tuple[int, int]:
    """(bytes, files) under the given directories."""
    files = [p for r in roots if r.is_dir() for p in r.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def _test_ids(problem, subset=None) -> list[int]:
    ids = problem.splits["test"]
    if subset is None:
        return sorted(ids)
    return sorted(i for i in ids if problem.hidden_partition[i] == subset)


def oracle_scores(reference, predictions) -> dict[str, float]:
    """Direct numpy evaluation of the rRMSE formulas (total, public, private).

    ``predictions`` maps sample id -> (scalars dict, fields dict).
    """
    problem = reference.problem

    def total(ids):
        errors = []
        for name in sorted(problem.out_fields_names):
            terms = []
            for sid in ids:
                ref = metrics.find_reference_field(reference.sample_at(sid), name)
                diff = ref - predictions[sid][1][name]
                terms.append(np.mean(diff ** 2) / np.max(np.abs(ref)) ** 2)
            errors.append(np.sqrt(np.mean(terms)))
        for name in sorted(problem.out_scalars_names):
            ref = np.array([reference.sample_at(s).get_scalar(name) for s in ids])
            pred = np.array([predictions[s][0][name] for s in ids])
            errors.append(np.sqrt(np.mean((ref - pred) ** 2 / ref ** 2)))
        return float(np.mean(errors))

    return {"total_error": total(_test_ids(problem)),
            "public_total": total(_test_ids(problem, "Public")),
            "private_total": total(_test_ids(problem, "Private"))}


def _score_matches(stdout: str, want: dict[str, float]) -> bool:
    try:
        got = json.loads(stdout)
        return all(abs(got[k] - v) <= SCORE_RTOL * max(1.0, abs(v))
                   for k, v in want.items())
    except (ValueError, KeyError, TypeError):
        return False


# ---------------------------------------------------------------------------
# set-up (untimed by solve_s; timed as setup_s)

@dataclass
class Prepared:
    dataset: object            # the generated, in-memory reference dataset
    data_dir: Path | None      # canonical, gp_heavy: the saved dataset
    config_path: Path | None
    submissions: list[Path]    # store_score: submission bundle directories
    oracle: list[dict]         # store_score: direct-formula scores per bundle
    setup_s: float


def _perturbed_submission(dataset, rng, scale):
    problem = dataset.problem
    bundle = metrics.PredictionBundle()
    preds = {}
    for sid in _test_ids(problem):
        sample = dataset.sample_at(sid)
        fields = {}
        for name in sorted(problem.out_fields_names):
            ref = metrics.find_reference_field(sample, name)
            fields[name] = ref + scale * np.max(np.abs(ref)) * rng.standard_normal(ref.shape)
            bundle.set_field(sid, name, fields[name])
        scalars = {}
        for name in sorted(problem.out_scalars_names):
            scalars[name] = sample.get_scalar(name) * (1.0 + scale * rng.standard_normal())
            bundle.set_scalar(sid, name, scalars[name])
        preds[sid] = (scalars, fields)
    return bundle, preds


def synth_config(workload: Workload, seed: int) -> synthetic.SynthConfig:
    """The generator config for a benchmark seed.

    Without ``first_train_nodes`` the generator seed is the benchmark seed.
    With it, the generator seed is the first of ``seed``, ``seed + M``,
    ``seed + 2M``, ... whose sample 0 has that many nodes per side, so
    distinct seeds below M still give distinct datasets and seed 11 (whose
    sample 0 has 18 nodes per side) is the ROADMAP canonical case itself.
    """
    config = synthetic.SynthConfig(
        n_samples=workload.n_samples, seed=seed,
        min_nodes_per_side=workload.min_nodes,
        max_nodes_per_side=workload.max_nodes)
    if workload.first_train_nodes is None:
        return config
    for step in range(10_000):
        config = dataclasses.replace(config, seed=seed + step * _SEED_STRIDE)
        zone = synthetic.build_plate_sample(config, 0).get_mesh().bases[0].zones[0]
        if zone.n_vertices == workload.first_train_nodes ** 2:
            return config
    raise RuntimeError(f"no generator seed gives a first sample with "
                       f"{workload.first_train_nodes} nodes per side")


_SEED_STRIDE = 1_000_003


def prepare(workload: Workload, config: synthetic.SynthConfig, work: Path,
            index: int) -> Prepared:
    root = work / f"setup{index}"
    t0 = time.perf_counter()
    dataset = synthetic.generate(config, threads=1)
    if workload.kind == "solve":
        storage.save_dataset(dataset, root / "data")
        config_path = root / "mmgp.cfg"
        config_path.write_text(workload.config_text(), encoding="utf-8")
        return Prepared(dataset, root / "data", config_path, [], [],
                        time.perf_counter() - t0)

    # submissions: the reference outputs with seeded noise of growing size
    rng = np.random.default_rng([config.seed, 20250502])
    submissions, all_preds = [], []
    for k in range(workload.submissions):
        bundle, preds = _perturbed_submission(dataset, rng, 0.002 * (k + 1))
        path = root / f"submission_{k:02d}"
        metrics.save_bundle(bundle, path)
        submissions.append(path)
        all_preds.append(preds)
    setup_s = time.perf_counter() - t0
    oracle = [oracle_scores(dataset, preds) for preds in all_preds]
    return Prepared(dataset, None, None, submissions, oracle, setup_s)


# ---------------------------------------------------------------------------
# timed passes

@dataclass
class PassResult:
    timings: dict[str, float]
    #: directories the pass wrote; their bytes must not depend on tracing
    outputs: list[Path]
    total_error: float = float("nan")


def _solve_pass(workload: Workload, prep: Prepared, out: Path, ops: Ops,
                tracer=None) -> PassResult:
    model_dir, pred_dir = out / "model", out / "pred"
    threads = str(workload.threads)
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        fit_rc, _ = run_cli(["mmgp", "fit", "--train", prep.data_dir,
                             "--config", prep.config_path, "--model", model_dir,
                             "--threads", threads])
        t1 = time.perf_counter()
        pred_rc, _ = run_cli(["mmgp", "predict", "--model", model_dir,
                              "--data", prep.data_dir, "--split", "test",
                              "--out", pred_dir, "--threads", threads])
        t2 = time.perf_counter()
        score_rc, score_out = run_cli(["score", "--ref", prep.data_dir,
                                       "--pred", pred_dir, "--hidden",
                                       "--format", "json"])
        t3 = time.perf_counter()

    # gates, untimed and untraced
    problem = prep.dataset.problem
    test_ids = _test_ids(problem)
    ops.record(1, int(fit_rc != 0 or not (model_dir / "model.manifest").is_file()),
               "fit")
    bad_samples = len(test_ids)
    try:
        bundle = metrics.load_bundle(pred_dir) if pred_rc == 0 else None
    except Exception:  # an unreadable bundle fails every predicted sample
        traceback.print_exc(file=sys.stderr)
        bundle = None
    if bundle is not None:
        bad_samples = sum(not _prediction_ok(prep.dataset.sample_at(sid),
                                             bundle.predictions.get(sid), problem)
                          for sid in test_ids)
    ops.record(len(test_ids), bad_samples, "predicted samples")
    total = float("nan")
    try:
        doc = json.loads(score_out) if score_rc == 0 else {}
        total = float(doc["total_error"])
        hidden_ok = np.isfinite([doc["public_total"], doc["private_total"]]).all()
    except (ValueError, KeyError, TypeError):
        hidden_ok = False
    ops.record(1, int(not (hidden_ok and total <= MAX_TOTAL_ERROR)),
               f"scored bundle (total_error {total!r})")
    return PassResult(
        timings={"solve_s": t3 - t0, "fit_s": t1 - t0, "predict_s": t2 - t1,
                 "score_s": t3 - t2},
        outputs=[model_dir, pred_dir],
        total_error=total)


def _prediction_ok(sample, entry, problem) -> bool:
    if entry is None:
        return False
    for name in problem.out_fields_names:
        ref = metrics.find_reference_field(sample, name)
        got = entry.fields.get(name)
        if got is None or got.shape != ref.shape or not np.isfinite(got).all():
            return False
    return all(np.isfinite(entry.scalars.get(name, np.nan))
               for name in problem.out_scalars_names)


def _store_pass(workload: Workload, prep: Prepared, out: Path, ops: Ops,
                tracer=None) -> PassResult:
    data_dir, export_dir = out / "data", out / "export"
    dataset = prep.dataset
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        try:
            storage.save_dataset(dataset, data_dir)
            saved = True
        except Exception:
            traceback.print_exc(file=sys.stderr)
            saved = False
        t1 = time.perf_counter()
        val_rc, val_out = run_cli(["validate", data_dir, "--strict",
                                   "--format", "json"])
        t2 = time.perf_counter()
        exp_rc, _ = run_cli(["convert", "--in", data_dir, "--mode",
                             "participant-export", "--out", export_dir])
        t3 = time.perf_counter()
        scores = [run_cli(["score", "--ref", data_dir, "--pred", path,
                           "--hidden", "--format", "json"])
                  for path in prep.submissions]
        t4 = time.perf_counter()

    n = dataset.n_samples
    n_dirs = len(list((data_dir / "dataset" / "samples").glob("sample_*"))) \
        if saved else 0
    ops.record(n, n - n_dirs, "saved samples")
    try:
        violations = json.loads(val_out)["violations"] if val_rc == 0 else None
    except (ValueError, KeyError):
        violations = None
    ops.record(n, 0 if violations == [] else n, "validated samples")
    ops.record(n, _export_failures(dataset, export_dir) if exp_rc == 0 else n,
               "exported samples")
    ops.record(len(scores),
               sum(not (rc == 0 and _score_matches(text, want))
                   for (rc, text), want in zip(scores, prep.oracle)),
               "scored bundles")
    return PassResult(
        timings={"solve_s": t4 - t0, "save_s": t1 - t0, "validate_s": t2 - t1,
                 "export_s": t3 - t2, "score_s": t4 - t3},
        outputs=[data_dir, export_dir])


def _export_failures(dataset, export_dir: Path) -> int:
    """Samples of the reloaded export that are wrong: test outputs kept,
    or the hidden partition published (counted against every sample)."""
    try:
        exported = storage.load_dataset(export_dir, lazy=True)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return dataset.n_samples
    problem = dataset.problem
    if exported.n_samples != dataset.n_samples or \
            exported.problem.hidden_partition is not None:
        return dataset.n_samples
    bad = 0
    for sid in _test_ids(problem):
        try:
            sample = exported.sample_at(sid)
        except Exception:  # an unreadable exported sample is a failed one
            traceback.print_exc(file=sys.stderr)
            bad += 1
            continue
        names = {f.name for b in sample.get_mesh().bases for z in b.zones
                 for f in z.fields}
        bad += bool(names & set(problem.out_fields_names)
                    or set(sample.scalars) & set(problem.out_scalars_names))
    return bad


PASSES = {"solve": _solve_pass, "store": _store_pass}


# ---------------------------------------------------------------------------
# one benchmark run

def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work: Path, tracer_factory=None) -> dict:
    """Set up, run timed passes for ``seconds`` (at least one), check outputs.

    With ``trace`` the run makes one untraced and one traced pass and
    returns layer statistics instead of end-to-end timings.
    """
    ops = Ops()
    config = synth_config(workload, seed)
    setup_times = []
    for i in range(SETUP_REPEATS):
        prep = None
        gc.collect()
        prep = prepare(workload, config, work, i)
        setup_times.append(prep.setup_s)
    pass_fn = PASSES[workload.kind]
    outcome = {"ops": ops, "setup_times": setup_times,
               "generator_seed": config.seed,
               "n_test": len(prep.dataset.problem.splits["test"])}

    if trace:
        tracer = tracer_factory()
        gc.collect()
        plain = pass_fn(workload, prep, work / "pass_plain", ops)
        gc.collect()
        traced = pass_fn(workload, prep, work / "pass_traced", ops, tracer)
        identical = ([dir_digest(p) for p in plain.outputs]
                     == [dir_digest(p) for p in traced.outputs])
        ops.record(1, int(not identical), "traced outputs byte-identical")
        outcome.update(passes=[plain, traced], tracer=tracer,
                       trace_identical=identical,
                       written=dir_usage(traced.outputs))
        return outcome

    passes, lengths = [], []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        gc.collect()
        out = work / f"pass{len(passes)}"
        passes.append(pass_fn(workload, prep, out, ops))
        shutil.rmtree(out, ignore_errors=True)
        lengths.append(time.perf_counter() - t0)
        # start another pass only if it should end within the run length
        if time.perf_counter() - started + statistics.median(lengths) > seconds:
            break
    outcome["passes"] = passes
    return outcome


def end_to_end(workload: Workload, outcome: dict) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric of the run as name -> (value, unit)."""
    passes = outcome["passes"]

    def med(key):
        return statistics.median(p.timings[key] for p in passes)

    n = workload.n_samples
    ops = outcome["ops"]
    found = {
        "setup_s": (statistics.median(outcome["setup_times"]), "s"),
        "solve_s": (med("solve_s"), "s"),
    }
    if workload.kind == "solve":
        found.update({
            "fit_s": (med("fit_s"), "s"),
            "predict_samples_per_s": (outcome["n_test"] / med("predict_s"), "1/s"),
            "total_error": (statistics.median(p.total_error for p in passes), "1"),
        })
    else:
        found.update({
            "save_samples_per_s": (n / med("save_s"), "1/s"),
            "validate_samples_per_s": (n / med("validate_s"), "1/s"),
            "export_samples_per_s": (n / med("export_s"), "1/s"),
            "score_bundles_per_s": (workload.submissions / med("score_s"), "1/s"),
        })
    found["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    found["ops_failed_share"] = (ops.failed / ops.attempted, "ratio")
    return found


def workload_params(workload: Workload) -> dict:
    params = dataclasses.asdict(workload)
    params["bypassed"] = list(params["bypassed"])
    return params

"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest -q perfbench/tests

Every workload runs once untraced and once traced; each run must pass its
correctness gates and report every metric of BENCHMARK.json with its unit.
Tracing must leave the model, bundle and dataset files byte-identical.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_meshbench()

import meshbench  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()

TINY = {
    "canonical": dict(n_samples=20, min_nodes=8, max_nodes=10,
                      train_split="train_16", first_train_nodes=9),
    "gp_heavy": dict(n_samples=20, min_nodes=6, max_nodes=6,
                     train_split="train_16"),
    "store_score": dict(n_samples=20, submissions=3),
}

#: per-workload metrics the report prints by name, with their units
REPORTED = {
    "solve": {"setup_s": "s", "solve_s": "s", "fit_s": "s",
              "predict_samples_per_s": "1/s", "total_error": "1",
              "peak_rss_mb": "MB", "ops_failed_share": "ratio"},
    "store": {"setup_s": "s", "solve_s": "s", "save_samples_per_s": "1/s",
              "validate_samples_per_s": "1/s", "export_samples_per_s": "1/s",
              "score_bundles_per_s": "1/s", "peak_rss_mb": "MB",
              "ops_failed_share": "ratio"},
}


def tiny(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_run_reports_every_metric_with_its_unit(name, trace, tmp_path):
    workload = tiny(name)
    result, report = run.run_workload(workload, 11, 0.0, trace, SPEC,
                                      tracer.Tracer, out_dir=tmp_path)
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert report["trace_identical"]
        assert all(report["design"]["bypassed_zero_calls"].values())
        assert (tmp_path / report["spans_file"]).is_file()
    else:
        for key, unit in REPORTED[workload.kind].items():
            assert report["metrics"][key]["unit"] == unit
        assert report["metrics"]["ops_failed_share"]["value"] == 0.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_changes_no_output(name, tmp_path):
    workload = tiny(name)
    prep = workloads.prepare(workload, workloads.synth_config(workload, 11),
                             tmp_path, 0)
    run_pass = workloads.PASSES[workload.kind]
    plain = run_pass(workload, prep, tmp_path / "plain", workloads.Ops())
    spans = tracer.Tracer()
    traced = run_pass(workload, prep, tmp_path / "traced", workloads.Ops(),
                      spans)
    assert spans.spans
    for a, b in zip(plain.outputs, traced.outputs):
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a and files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_wrappers_are_removed_and_workers_parent_to_the_pool(tmp_path):
    originals = {(m, f): getattr(sys.modules[f"meshbench.{m}"], f)
                 for m, f in tracer.LAYER_FUNCTIONS}
    workload = tiny("gp_heavy")
    prep = workloads.prepare(workload, workloads.synth_config(workload, 11),
                             tmp_path, 0)
    spans = tracer.Tracer()
    workloads.PASSES["solve"](workload, prep, tmp_path / "pass",
                              workloads.Ops(), spans)
    for (m, f), fn in originals.items():
        assert getattr(sys.modules[f"meshbench.{m}"], f) is fn
    assert meshbench.mmgp.build_transfer is meshbench.transfer.build_transfer
    assert meshbench.cli.mmgp_fit is meshbench.mmgp.mmgp_fit

    by_id = {s.span_id: s for s in spans.spans}
    fits = [s for s in spans.spans if s.name == "gp.gp_fit"]
    assert fits
    assert all(by_id[s.parent].name == "parallel.parallel_map" for s in fits)
    # two threads: some fits ran on a pool worker, away from the pool span
    assert any(s.thread != by_id[s.parent].thread for s in fits)
    assert spans.counts["parallel.pool_calls"] > 0


def test_self_time_subtracts_the_union_of_child_spans():
    spans = tracer.Tracer()
    spans.spans = [
        tracer.Span(1, "mmgp.mmgp_fit", None, 1, 0.0, 10.0),
        tracer.Span(2, "gp.gp_fit", 1, 1, 1.0, 4.0),
        tracer.Span(3, "gp.gp_fit", 1, 2, 3.0, 6.0),   # overlaps span 2
        tracer.Span(4, "pod.pod_fit", 1, 1, 8.0, 12.0),  # ends after parent
    ]
    stats = spans.layer_stats()
    assert stats["mmgp.mmgp_fit"]["self_s"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert stats["gp.gp_fit"]["calls"] == 2
    assert stats["gp.gp_fit"]["total_s"] == pytest.approx(6.0)
    assert stats["transfer.build_transfer"]["calls"] == 0


def test_tail_percentile_needs_ten_calls_beyond_it():
    assert tracer.tail_percentile([1.0] * 19) == (None, 0.0)
    assert tracer.tail_percentile(list(range(20)))[0] == 50.0
    assert tracer.tail_percentile(list(range(100)))[0] == 90.0
    assert tracer.tail_percentile(list(range(1000)))[0] == 99.0


def test_fails_without_meshbench_sources(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("_out", "__pycache__",
                                                  ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "canonical",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

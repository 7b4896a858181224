"""meshbench benchmark: one run of one workload.

    python3 perfbench/run.py --workload canonical --seed 11 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics from a traced pass with ``--trace 1``.  The
line before it is the full report (machine, inputs, every metric, gates),
which is also written under ``perfbench/_out/``.  Exit code 2 means the run
could not start (for instance, no meshbench sources next to the benchmark).
"""

from __future__ import annotations

import os

# one BLAS thread, so pool threads x BLAS threads never exceed the cores;
# must be set before numpy loads OpenBLAS
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "_out"


def import_meshbench():
    """Import meshbench from this checkout's ``src/``, never from elsewhere."""
    src = REPO_ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import meshbench
    except ImportError as exc:
        print(f"error: cannot import meshbench from {src}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if src not in Path(meshbench.__file__).resolve().parents:
        print(f"error: meshbench was imported from {meshbench.__file__}, "
              f"not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return meshbench


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def blas_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        version = "unknown"
    return {"blas": version, "blas_threads_requested": BLAS_THREADS,
            "blas_threads_active": _openblas_threads()}


def _openblas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_info() -> dict:
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, **blas_info()}


def layer_metrics(outcome: dict) -> tuple[dict, dict, dict]:
    """(per-layer metrics as name -> (value, unit), layer stats, counters)."""
    tracer = outcome["tracer"]
    stats = tracer.layer_stats()
    found: dict[str, tuple[float, str]] = {}
    for name, s in stats.items():
        found[f"{name}.calls"] = (s["calls"], "count")
        for key in ("total_s", "self_s", "p50_s", "tail_s"):
            found[f"{name}.{key}"] = (s[key], "s")
    c = tracer.counts
    plain, traced = outcome["passes"]
    counters = {
        "transfer.targets": (c["transfer.targets"], "count"),
        "gp.fit_points": (c["gp.fit_points"], "count"),
        "pod.modes_kept_share": (c["pod.modes_kept"] / c["pod.modes_requested"]
                                 if c["pod.modes_requested"] else 0.0, "ratio"),
        "parallel.busy_share": (
            c["parallel.worker_busy_s"] / c["parallel.pool_capacity_s"]
            if c["parallel.pool_capacity_s"] else 0.0, "ratio"),
        "parallel.pool_calls": (c["parallel.pool_calls"], "count"),
        "storage.bytes_written": (outcome["written"][0], "bytes"),
        "storage.files_written": (outcome["written"][1], "count"),
        "trace.overhead_s": (traced.timings["solve_s"] - plain.timings["solve_s"],
                             "s"),
    }
    found.update(counters)
    return found, stats, counters


def design_checks(workload, stats: dict, found: dict) -> dict:
    """The workload design predictions, checked against the trace."""
    largest = max(stats, key=lambda k: stats[k]["self_s"])
    zero = {}
    for entry in workload.bypassed:
        if entry in found:
            zero[entry] = found[entry][0] == 0
        else:
            zero[entry] = all(s["calls"] == 0 for k, s in stats.items()
                              if k.startswith(entry))
    return {"largest_self": largest,
            "largest_self_expected": workload.largest_self or None,
            "largest_self_ok": (not workload.largest_self
                                or largest == workload.largest_self),
            "bypassed_zero_calls": zero}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_meshbench()
    spec = load_spec()
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    result, report = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace), spec,
                                  tracer.Tracer)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def run_workload(workload, seed: int, seconds: float, trace: bool, spec: dict,
                 tracer_factory, out_dir: Path = OUT_DIR):
    """One run; returns (result line object, full report).

    The report, and in a traced run the spans, are written to ``out_dir``.
    """
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=out_dir))
    try:
        outcome = workloads.run(workload, seed, seconds, trace, work,
                                tracer_factory)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = outcome["ops"]
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    report = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "params": workloads.workload_params(workload),
              "generator_seed": outcome["generator_seed"],
              "load_model": "closed loop, one client, one process",
              "setup_repeats": workloads.SETUP_REPEATS,
              "machine": machine_info(),
              "attempted": ops.attempted, "failed": ops.failed,
              "failures": ops.notes}
    if trace:
        found, stats, counters = layer_metrics(outcome)
        wanted = spec["per_layer"]
        report.update(
            layers=stats, counts={k: v for k, (v, _) in counters.items()},
            design=design_checks(workload, stats, found),
            trace_identical=outcome["trace_identical"],
            untraced_solve_s=outcome["passes"][0].timings["solve_s"],
            traced_solve_s=outcome["passes"][1].timings["solve_s"],
            spans_file=f"spans-{stem}.json")
        (out_dir / report["spans_file"]).write_text(
            json.dumps(outcome["tracer"].span_records()) + "\n",
            encoding="utf-8")
    else:
        found = workloads.end_to_end(workload, outcome)
        wanted = spec["end_to_end"]
        report["passes"] = [p.timings for p in outcome["passes"]]
        report["setups_s"] = outcome["setup_times"]
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in found.items()}
    (out_dir / f"report-{stem}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")

    result_metrics = {}
    for entry in wanted:
        value, unit = found[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"metric {entry['name']}: unit {unit} vs "
                               f"{entry['unit']} in BENCHMARK.json")
        result_metrics[entry["name"]] = {"value": value, "unit": unit}
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": result_metrics}
    return result, report


if __name__ == "__main__":
    sys.exit(main())

"""Size sweep of the mmgp pipeline, timed layer by layer.

    python3 scripts/bench_scale.py                          # every row
    python3 scripts/bench_scale.py --rows plate30 irregular30 --out out.json

Run from the repository root.  Each row generates its samples (125 unless
named below), fits on its training split (``train_100`` unless named below;
8 + 8 modes, Matern 5/2, one thread), predicts the test samples in one
``mmgp_predict`` call and scores them, in this process, with perfbench's
span tracer (``perfbench/tracer.py``, imported unchanged) wrapped around
the layers.

- ``plate30``, ``plate60``, ``plate120``: synthetic plates with that many
  nodes per side.  The plates of one resolution that one ``generate`` call
  makes share one connectivity array, so every sample of such a row holds
  the same connectivity object, not just equal ones.
- ``train_400``: 500 plates of 30 nodes per side, fit on ``train_400`` and
  predicting the 100 test samples: the training-set size axis.
- ``irregular30``, ``irregular60``: the ``plate30`` and ``plate60`` plates,
  each remeshed: its interior grid nodes are jittered by up to 0.35 of the
  grid step and the points Delaunay-triangulated, so no two samples share
  a triangulation.

Each row records the commit of the checkout (``git describe --always
--dirty``), the machine and BLAS, the fit and predict wall times, every
traced layer's calls, total and self time, and ``total_error``.  Rows are
appended to the output file, so runs of two commits sit side by side.  A
row is one run: on a shared host, read its times as reference points.
"""

from __future__ import annotations

import os

# one BLAS thread, as perfbench pins it; set before numpy loads OpenBLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import numpy as np  # noqa: E402
from scipy.spatial import Delaunay  # noqa: E402

import meshbench  # noqa: E402
from meshbench import (Base, Dataset, ElementType, MmgpConfig,  # noqa: E402
                       PredictionBundle, Sample, SynthConfig, build_tree,
                       generate, make_field, make_unstructured_zone)
from meshbench import metrics, mmgp  # noqa: E402
from meshbench.dataset import CONSTANT_MESH_KEY  # noqa: E402
from meshbench.synthetic import plate_fields  # noqa: E402
from run import machine_info  # noqa: E402
from tracer import Tracer  # noqa: E402

#: largest interior node move, as a fraction of the grid step
JITTER = 0.35
#: row -> (nodes per side, remeshed, samples, training split)
ROWS = {"plate30": (30, False, 125, "train_100"),
        "plate60": (60, False, 125, "train_100"),
        "plate120": (120, False, 125, "train_100"),
        "train_400": (30, False, 500, "train_400"),
        "irregular30": (30, True, 125, "train_100"),
        "irregular60": (60, True, 125, "train_100")}
DESCRIPTION = ("mmgp fit on each row's training split and predict of its "
               "test samples, traced layer by layer; see "
               "scripts/bench_scale.py. Each row is one run on a shared "
               "host: read its times as reference points, not as a claim.")


def remeshed(sample: Sample, seed: int, sample_id: int) -> Sample:
    """The plate of ``sample`` on a jittered Delaunay mesh of its own."""
    r = int(round(np.sqrt(sample.get_mesh().bases[0].zones[0].n_vertices)))
    a, p = sample.get_scalar("a"), sample.get_scalar("p")
    s = np.linspace(0.0, 1.0, r)
    grid = np.stack(np.meshgrid(s, s, indexing="ij"), axis=-1).reshape(-1, 2)
    inner = ((grid > 0.0) & (grid < 1.0)).all(axis=1)
    rng = np.random.default_rng([seed, sample_id])
    grid[inner] += rng.uniform(-JITTER, JITTER, (inner.sum(), 2)) / (r - 1)
    triangles = Delaunay(grid).simplices
    # the plate's map from the unit square: the top side is 1 + a sin(pi x)
    coords = np.stack([grid[:, 0],
                       grid[:, 1] * (1.0 + a * np.sin(np.pi * grid[:, 0]))],
                      axis=1)
    u, du_dx = plate_fields(coords, a, p)
    zone = make_unstructured_zone(
        "Zone", coords, blocks=[(ElementType.TRI_3, triangles)],
        fields=[make_field("u", u), make_field("du_dx", du_dx)])
    tree = build_tree([Base("Base_2_2", 2, 2, (zone,))], time=0.0)
    return Sample(trees={0.0: tree},
                  scalars={"a": a, "p": p, "u_max": float(np.max(u))})


def dataset_for(row: str, seed: int) -> Dataset:
    side, irregular, n_samples, _ = ROWS[row]
    ds = generate(SynthConfig(n_samples=n_samples, seed=seed,
                              min_nodes_per_side=side, max_nodes_per_side=side))
    if irregular:
        ds = Dataset(samples=[remeshed(ds.sample_at(i), seed, i)
                              for i in range(ds.n_samples)],
                     infos={**ds.infos, CONSTANT_MESH_KEY: False},
                     problem=ds.problem)
    return ds


def run_row(row: str, seed: int) -> dict:
    ds = dataset_for(row, seed)
    side, irregular, n_samples, train_split = ROWS[row]
    config = MmgpConfig(train_split=train_split)
    # layer functions are looked up on their modules, where the tracer
    # installs its wrappers
    with Tracer() as tracer:
        t0 = time.perf_counter()
        model = mmgp.mmgp_fit(ds, ds.problem, config)
        t1 = time.perf_counter()
        ids = ds.problem.splits["test"]
        predictions = mmgp.mmgp_predict(model, [ds.sample_at(i) for i in ids])
        bundle = PredictionBundle(dict(zip(ids, predictions)))
        t2 = time.perf_counter()
        error = metrics.total_error(ds.problem, ds, bundle).total_error
    layers = {name: {"calls": s["calls"], "total_s": round(s["total_s"], 4),
                     "self_s": round(s["self_s"], 4)}
              for name, s in tracer.layer_stats().items() if s["calls"]}
    return {"row": row, "seed": seed, "commit": commit(),
            "nodes_per_side": side, "irregular": irregular,
            "n_samples": n_samples, "train_split": train_split,
            "fit_s": round(t1 - t0, 4), "predict_s": round(t2 - t1, 4),
            "total_error": error, "layers": layers, "machine": machine_info()}


def commit() -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=REPO, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", nargs="+", choices=sorted(ROWS),
                        default=list(ROWS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--out", type=Path, default=REPO / "BENCH_scale.json")
    args = parser.parse_args(argv)
    if Path(meshbench.__file__).resolve().parent != REPO / "src" / "meshbench":
        parser.error(f"meshbench was imported from {meshbench.__file__}")

    doc = (json.loads(args.out.read_text(encoding="utf-8"))
           if args.out.exists() else {"description": DESCRIPTION, "rows": []})
    doc["description"] = DESCRIPTION  # an existing file keeps only its rows
    for row in args.rows:
        result = run_row(row, args.seed)
        print(json.dumps({k: result[k] for k in
                          ("row", "commit", "fit_s", "predict_s",
                           "total_error")}), flush=True)
        doc["rows"].append(result)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

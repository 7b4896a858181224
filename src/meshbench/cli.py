"""Command-line interface: validate, info, score, generate, mmgp, convert.

Every subcommand is a thin shell over library calls.  Exit codes: 0 on
success, 1 on domain errors (validation failures, scoring errors), 2 on
usage errors (bad flags, missing paths).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .dataset import PredictionBundle, validate_dataset
from .errors import MeshBenchError
from .metrics import (
    hidden_table,
    load_bundle,
    report_json,
    save_bundle,
    score_test_split,
)
from .mmgp import load_config, load_model, mmgp_fit, mmgp_predict, save_model
from .storage import load_dataset, participant_export, save_dataset
from .synthetic import SynthConfig, generate


def _dataset_dir(path_str: str, parser: argparse.ArgumentParser) -> Path:
    path = Path(path_str)
    if not path.is_dir():
        parser.error(f"dataset directory not found: {path}")
    return path


def _cmd_validate(args, parser) -> int:
    root = _dataset_dir(args.dataset_dir, parser)
    dataset = load_dataset(root, lazy=True)
    report = validate_dataset(dataset)
    if args.format == "json":
        print(json.dumps({
            "violations": [list(v) for v in report.violations],
            "notes": [list(n) for n in report.notes]}, indent=2))
    else:
        for line in report.lines():
            print(line)
        print(f"{len(report.violations)} violations, "
              f"{len(report.notes)} notes")
    if report.violations and args.strict:
        return 1
    return 0


def _cmd_info(args, parser) -> int:
    root = _dataset_dir(args.dataset_dir, parser)
    dataset = load_dataset(root, lazy=True)
    problem = dataset.problem
    doc = {
        "n_samples": dataset.n_samples,
        "task": problem.task,
        "in_scalars": list(problem.in_scalars_names),
        "out_scalars": list(problem.out_scalars_names),
        "in_fields": list(problem.in_fields_names),
        "out_fields": list(problem.out_fields_names),
        "splits": {name: len(ids) for name, ids in sorted(problem.splits.items())},
        "hidden_partition": problem.hidden_partition is not None,
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"samples:      {doc['n_samples']}")
    print(f"task:         {doc['task']}")
    print(f"in scalars:   {', '.join(doc['in_scalars']) or '-'}")
    print(f"out scalars:  {', '.join(doc['out_scalars']) or '-'}")
    print(f"in fields:    {', '.join(doc['in_fields']) or '-'}")
    print(f"out fields:   {', '.join(doc['out_fields']) or '-'}")
    if doc["splits"]:
        print("splits:")
        for name, size in doc["splits"].items():
            print(f"  {name:<12} {size}")
    else:
        print("splits:       warning: no splits defined")
    print(f"hidden split: {'yes' if doc['hidden_partition'] else 'no'}")
    return 0


def _cmd_score(args, parser) -> int:
    ref_dir = _dataset_dir(args.ref, parser)
    bundle_dir = Path(args.pred)
    if not bundle_dir.is_dir():
        parser.error(f"bundle directory not found: {bundle_dir}")
    dataset = load_dataset(ref_dir, lazy=True)
    bundle = load_bundle(bundle_dir)
    report, halves = score_test_split(dataset.problem, dataset, bundle,
                                      args.hidden)
    public, private = halves or (None, None)
    if args.format == "json":
        sys.stdout.write(report_json(report, public, private))
    else:
        sys.stdout.write(report.table())
        if public is not None:
            sys.stdout.write(hidden_table(public, private))
    return 0


def _cmd_generate(args, parser) -> int:
    out = Path(args.out)
    config = SynthConfig(case=args.case, n_samples=args.n, seed=args.seed,
                         min_nodes_per_side=args.min_nodes,
                         max_nodes_per_side=args.max_nodes)
    dataset = generate(config)
    save_dataset(dataset, out)
    print(f"wrote {dataset.n_samples} samples to {out}")
    return 0


def _cmd_mmgp_fit(args, parser) -> int:
    train_dir = _dataset_dir(args.train, parser)
    config_path = Path(args.config)
    if not config_path.is_file():
        parser.error(f"config file not found: {config_path}")
    dataset = load_dataset(train_dir, lazy=True)
    config = load_config(config_path)
    model = mmgp_fit(dataset, dataset.problem, config, threads=args.threads)
    save_model(model, args.model)
    print(f"trained {model.n_regressors} regressors (one per output field "
          f"and per output scalar, {model.gp_input_dim}-dim inputs); "
          f"model saved to {args.model}")
    return 0


def _cmd_mmgp_predict(args, parser) -> int:
    model_dir = Path(args.model)
    if not model_dir.is_dir():
        parser.error(f"model directory not found: {model_dir}")
    data_dir = _dataset_dir(args.data, parser)
    model = load_model(model_dir)
    dataset = load_dataset(data_dir, lazy=True)
    ids = dataset.get_split(args.split)
    predictions = mmgp_predict(model, [dataset.sample_at(sid) for sid in ids])
    save_bundle(PredictionBundle(dict(zip(ids, predictions))), args.out)
    print(f"wrote predictions for {len(ids)} samples to {args.out}")
    return 0


def _cmd_convert(args, parser) -> int:
    src = _dataset_dir(args.in_dir, parser)
    dataset = load_dataset(src, lazy=True)
    save_dataset(participant_export(dataset), args.out)
    print(f"participant export written to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshbench",
        description="Mesh-based learning datasets, scoring, and the "
                    "morphing/POD/GP surrogate pipeline.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a dataset against its invariants")
    p.add_argument("dataset_dir")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when violations are found")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", help="summarize samples, splits and names")
    p.add_argument("dataset_dir")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("score", help="score a prediction bundle")
    p.add_argument("--ref", required=True, help="reference dataset directory")
    p.add_argument("--pred", required=True, help="prediction bundle directory")
    p.add_argument("--hidden", action="store_true",
                   help="also score the public/private hidden subsets")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--case", default="plate2d")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--min-nodes", type=int, default=15, dest="min_nodes",
                   help="minimum nodes per side")
    p.add_argument("--max-nodes", type=int, default=30, dest="max_nodes",
                   help="maximum nodes per side")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored: generation runs sequentially")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("mmgp", help="surrogate training and prediction")
    mmgp_sub = p.add_subparsers(dest="mmgp_command", required=True)

    q = mmgp_sub.add_parser("fit", help="train a surrogate model")
    q.add_argument("--train", required=True, help="training dataset directory")
    q.add_argument("--config", required=True, help="key = value config file")
    q.add_argument("--model", required=True, help="output model directory")
    q.add_argument("--threads", type=int, default=1,
                   help="worker threads for the GP fits, the only pooled "
                        "stage (default: 1, sequential; with more, set "
                        "OPENBLAS_NUM_THREADS=1)")
    q.set_defaults(func=_cmd_mmgp_fit)

    q = mmgp_sub.add_parser("predict", help="predict outputs for a split")
    q.add_argument("--model", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--split", default="test")
    q.add_argument("--out", required=True, help="output bundle directory")
    q.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored: prediction runs sequentially")
    q.set_defaults(func=_cmd_mmgp_predict)

    p = sub.add_parser("convert", help="dataset transformations")
    p.add_argument("--in", required=True, dest="in_dir")
    p.add_argument("--mode", required=True, choices=("participant-export",))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except MeshBenchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

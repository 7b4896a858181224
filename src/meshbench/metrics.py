"""Benchmark scoring: per-output relative RMSE and its aggregation.

Field RRMSE over a test set of n samples::

    sqrt( (1/n) * sum_i  ( (1/N_i) * ||ref_i - pred_i||_2^2 / ||ref_i||_inf^2 ) )

where N_i is the entity count of sample i at the field's location and the
sup norm is the maximum *absolute* component (so sign conventions cannot
zero the denominator).  A scalar is scored as a one-entry field: its RRMSE
is the N_i = 1 case, where the sup norm is |ref_i|.

The submission score ``total_error`` is the unweighted mean of all
per-output RRMSEs.  A reference whose norm falls below 1e-30 is a hard
error, not a skip: dropping samples would silently alter n and make
scores incomparable across submissions.  A non-finite reference or
prediction is a hard error too, so no score reads nan or inf.

All reductions run in sorted-id order with numpy's pairwise summation, so
scores are bitwise reproducible regardless of thread count.  The bundles
scored and stored here are defined in ``dataset``.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .codec import (FORMAT_VERSION, ArtifactReader, ArtifactWriter,
                    decode_ids, decode_list, decode_map, decode_object,
                    decode_real, format_real)
from .dataset import (PRIVATE, PUBLIC, Dataset, PredictionBundle,
                      ProblemDefinition, SamplePrediction, partition_problems)
from .errors import (
    DegenerateReference,
    InvalidDataset,
    InvalidName,
    IoFailure,
    MeshBenchError,
    MissingOutput,
    NoPartition,
    NoSuchSplit,
    ShapeMismatch,
)
from .sample import find_reference_field
from .tree import is_identifier

DEGENERATE_NORM = 1e-30


@dataclass
class ScoreReport:
    """Per-output RRMSEs and their unweighted mean."""

    field_rrmse: dict[str, float] = field(default_factory=dict)
    scalar_rrmse: dict[str, float] = field(default_factory=dict)
    total_error: float = 0.0

    def as_dict(self) -> dict:
        return {"fields": dict(self.field_rrmse),
                "scalars": dict(self.scalar_rrmse),
                "total_error": self.total_error}

    def table(self) -> str:
        """Stable-ordered text table, one row per output plus the total."""
        rows = [(f"field {name}", self.field_rrmse[name])
                for name in sorted(self.field_rrmse)]
        rows += [(f"scalar {name}", self.scalar_rrmse[name])
                 for name in sorted(self.scalar_rrmse)]
        rows.append(("total_error", self.total_error))
        width = max(len(label) for label, _ in rows)
        return "\n".join(f"{label:<{width}}  {value:.6e}"
                         for label, value in rows) + "\n"


# ---------------------------------------------------------------------------
# core formulas

def _paired(refs, preds):
    """Normalize the two per-sample collections into (key, ref, pred)."""
    if isinstance(refs, Mapping) != isinstance(preds, Mapping):
        raise ShapeMismatch("refs and preds must both be mappings or both sequences")
    if isinstance(refs, Mapping):
        if set(refs) != set(preds):
            raise ShapeMismatch(
                f"sample sets differ: {sorted(set(refs) ^ set(preds))}")
        return [(k, refs[k], preds[k]) for k in sorted(refs)]
    refs = list(refs)
    preds = list(preds)
    if len(refs) != len(preds):
        raise ShapeMismatch(f"{len(refs)} references vs {len(preds)} predictions")
    return [(i, ref, pred) for i, (ref, pred) in enumerate(zip(refs, preds))]


def _term(key, ref, pred, output: str = "") -> float:
    """One sample's term of the RRMSE, ``||ref - pred||^2 / N / sup^2``;
    ``output`` prefixes the sample in error messages."""
    ref = np.asarray(ref, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if ref.shape != pred.shape or ref.ndim != 1:
        raise ShapeMismatch(
            f"{output}sample {key}: reference shape {ref.shape} vs "
            f"prediction shape {pred.shape}")
    if not np.isfinite(ref).all():
        raise DegenerateReference(
            f"{output}sample {key}: reference is not finite")
    if not np.isfinite(pred).all():
        raise MissingOutput(f"{output}sample {key}: prediction is not finite")
    sup = np.max(np.abs(ref)) if ref.size else 0.0
    if sup < DEGENERATE_NORM:
        raise DegenerateReference(f"{output}sample {key}: reference sup "
                                  f"norm {sup} below {DEGENERATE_NORM}")
    diff = ref - pred
    return (diff @ diff) / ref.size / (sup * sup)


def _root_mean(terms: np.ndarray) -> float:
    return float(np.sqrt(np.sum(terms) / len(terms)))


def _rrmse(triples, output: str = "") -> float:
    """RRMSE over ``(key, ref, pred)`` triples of 1-D values."""
    if not triples:
        raise ShapeMismatch(f"{output}empty sample set")
    return _root_mean(np.array([_term(key, ref, pred, output)
                                for key, ref, pred in triples]))


def rrmse_field(refs, preds) -> float:
    """Field RRMSE; refs/preds are per-sample arrays (mapping or sequence)."""
    return _rrmse(_paired(refs, preds))


def rrmse_scalar(refs, preds) -> float:
    """Scalar RRMSE; refs/preds are per-sample reals (mapping or sequence)."""
    return _rrmse([(key, [float(ref)], [float(pred)])
                   for key, ref, pred in _paired(refs, preds)])


# ---------------------------------------------------------------------------
# dataset-level scoring

def total_error(problem: ProblemDefinition, reference: Dataset,
                bundle: PredictionBundle) -> ScoreReport:
    """Score a bundle against reference outputs on the test split."""
    return score_test_split(problem, reference, bundle)[0]


def score_test_split(problem: ProblemDefinition, reference: Dataset,
                     bundle: PredictionBundle, hidden: bool = False
                     ) -> tuple[ScoreReport, Optional[tuple]]:
    """The test split's report and, with ``hidden``, the public and private
    halves' reports: what ``total_error`` and ``score_hidden`` return, from
    one read of each test sample, of which none is kept."""
    if "test" not in problem.splits:
        raise NoSuchSplit("problem defines no 'test' split")
    ids = sorted(problem.splits["test"])
    if len(set(ids)) != len(ids):
        raise InvalidDataset("the test split lists an id twice")
    outputs, terms = _terms(problem, reference, bundle, ids)
    report = _report(outputs, terms)
    if not hidden:
        return report, None
    return report, tuple(_report(outputs, terms, np.isin(ids, half))
                         for half in _hidden_halves(problem))


def _score(problem: ProblemDefinition, reference: Dataset,
           bundle: PredictionBundle, ids: list[int]) -> ScoreReport:
    """Score a bundle on ``ids``, sorted and distinct."""
    return _report(*_terms(problem, reference, bundle, ids))


def _terms(problem: ProblemDefinition, reference: Dataset,
           bundle: PredictionBundle, ids: list[int]) -> tuple[list, dict]:
    """The outputs, and each one's per-sample terms on ``ids`` (sorted and
    distinct), reading each sample once through ``Dataset.iterate``.

    The error raised is the one that scoring the outputs one at a time
    meets first: for each output in turn, a sample that cannot be read or
    lacks the reference or prediction, then a sample whose values cannot
    be scored.
    """
    if not ids:
        raise ShapeMismatch("empty id set to score")
    outputs = sorted({("field", name) for name in problem.out_fields_names}
                     | {("scalar", name) for name in problem.out_scalars_names})
    if not outputs:
        raise MissingOutput("problem declares no outputs to score")
    terms = {output: np.empty(len(ids)) for output in outputs}
    first = None  # ((output, stage, position), error) met first in that order
    # an unreadable sample is met at (0, 0, position), before anything found
    # so far, so its error leaves the loop as it is
    for pos, sample in enumerate(reference.iterate(ids)):
        sid = ids[pos]
        entry = bundle.predictions.get(sid) or SamplePrediction()
        for k, (kind, name) in enumerate(outputs):
            stage = 0
            try:
                if kind == "field":
                    ref = find_reference_field(sample, name)
                    predicted = entry.fields
                else:
                    ref, predicted = [sample.get_scalar(name)], entry.scalars
                if name not in predicted:
                    raise MissingOutput(
                        f"bundle lacks {kind} '{name}' for sample {sid}")
                pred = predicted[name]
                stage = 1
                terms[kind, name][pos] = _term(
                    sid, ref, pred if kind == "field" else [pred],
                    f"{kind} '{name}', ")
            except MeshBenchError as exc:
                if first is None or (k, stage, pos) < first[0]:
                    first = ((k, stage, pos), exc)
        if first is not None and first[0][:2] == (0, 0):
            break  # no later sample can come before it
    if first is not None:
        raise first[1]
    return outputs, terms


def _report(outputs: list, terms: dict, chosen=slice(None)) -> ScoreReport:
    """The report of the ``chosen`` samples of each output's terms."""
    report = ScoreReport()
    scores = {"field": report.field_rrmse, "scalar": report.scalar_rrmse}
    for kind, name in outputs:
        scores[kind][name] = _root_mean(terms[kind, name][chosen])
    report.total_error = float(np.mean([scores[kind][name]
                                        for kind, name in outputs]))
    return report


def _hidden_halves(problem: ProblemDefinition) -> tuple[list[int], list[int]]:
    """The sorted public and private ids of a sound hidden partition."""
    part = problem.hidden_partition
    if part is None:
        raise NoPartition("problem has no hidden partition")
    problems = partition_problems(problem)
    if problems:
        raise NoPartition(f"hidden partition: {problems[0]}")
    return (sorted(i for i, c in part.items() if c == PUBLIC),
            sorted(i for i, c in part.items() if c == PRIVATE))


def score_hidden(problem: ProblemDefinition, reference: Dataset,
                 bundle: PredictionBundle) -> tuple[ScoreReport, ScoreReport]:
    """Score the public and private halves of the hidden test partition."""
    public_ids, private_ids = _hidden_halves(problem)
    return (_score(problem, reference, bundle, public_ids),
            _score(problem, reference, bundle, private_ids))


# ---------------------------------------------------------------------------
# bundle persistence (the one-file encoding of the dataset store)

def save_bundle(bundle: PredictionBundle, root_path) -> None:
    """Write the one file ``bundle.manifest``; an id or an output name that
    would not load back as it is fails before anything is written."""
    root = Path(root_path)
    writer = ArtifactWriter(root / "bundle.manifest")
    docs = []
    for sid in bundle.ids():
        entry = bundle.predictions[sid]
        for name in [*entry.scalars, *entry.fields]:
            if not is_identifier(name):
                raise InvalidName(f"sample {sid}: output name {name!r} is "
                                  f"not a non-empty str without '/'")
        docs.append({
            "id": sid,
            "scalars": {name: format_real(entry.scalars[name])
                        for name in sorted(entry.scalars)},
            "fields": {name: writer.write(entry.fields[name])
                       for name in sorted(entry.fields)},
        })
    try:
        root.mkdir(parents=True, exist_ok=True)
        writer.write_manifest({"format_version": FORMAT_VERSION,
                               "samples": docs})
    except OSError as exc:
        raise IoFailure(f"failed writing bundle to {root}: {exc}") from exc


def load_bundle(root_path) -> PredictionBundle:
    manifest = Path(root_path) / "bundle.manifest"
    with ArtifactReader(manifest, versioned=True) as reader:
        decode_object(reader.doc, "format_version", "samples")
        entries = decode_list(reader.doc["samples"], lambda e: decode_object(
            e, "id", "scalars", "fields"))
        ids = decode_ids([entry["id"] for entry in entries])
        return PredictionBundle({sid: SamplePrediction(
            decode_map(entry["fields"], reader.read),
            decode_map(entry["scalars"], decode_real))
            for sid, entry in zip(ids, entries)})


def hidden_table(public: ScoreReport, private: ScoreReport) -> str:
    buf = io.StringIO()
    buf.write("== public subset ==\n")
    buf.write(public.table())
    buf.write("== private subset ==\n")
    buf.write(private.table())
    return buf.getvalue()


def report_json(report: ScoreReport, public: Optional[ScoreReport] = None,
                private: Optional[ScoreReport] = None) -> str:
    doc = report.as_dict()
    if public is not None and private is not None:
        doc["public"] = public.as_dict()
        doc["private"] = private.as_dict()
        doc["public_total"] = public.total_error
        doc["private_total"] = private.total_error
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

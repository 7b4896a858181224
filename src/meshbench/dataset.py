"""Dataset container: ordered samples, problem definition, named splits,
and predictions for samples (``SamplePrediction``, ``PredictionBundle``).

Samples may be supplied in memory or through per-sample loader callables
(lazy mode); both behave identically to callers.  The lazy cache loads each
sample on its first access and keeps it.  It takes no lock, since no pooled
stage reads samples: threads sharing a lazy dataset may load a sample twice.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import IdOutOfRange, InvalidDataset, MeshBenchError, NoSuchSplit
from .sample import Sample, samples_equal
from .tree import ValidationReport, structurally_equal, validate_tree

_NESTED_SPLIT = re.compile(r"^train_(\d+)$")

PUBLIC = "Public"
PRIVATE = "Private"

#: infos key declaring that every sample shares node count and connectivity
CONSTANT_MESH_KEY = "nodes_and_connectivity_constant"


@dataclass
class ProblemDefinition:
    """Learning task attached to a dataset: names, splits, hidden partition."""

    task: str = "Regression"
    in_scalars_names: list[str] = field(default_factory=list)
    out_scalars_names: list[str] = field(default_factory=list)
    in_fields_names: list[str] = field(default_factory=list)
    out_fields_names: list[str] = field(default_factory=list)
    splits: dict[str, list[int]] = field(default_factory=dict)
    hidden_partition: Optional[dict[int, str]] = None

    def __post_init__(self):
        self.splits = {name: sorted(_sample_id(i) for i in ids)
                       for name, ids in self.splits.items()}
        if self.hidden_partition is not None:
            self.hidden_partition = {_sample_id(k): str(v)
                                     for k, v in self.hidden_partition.items()}


def _sample_id(value) -> int:
    """An integer with ``__index__``, numpy's too; never a bool or a float."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise InvalidDataset(f"sample id {value!r} is not an integer")
    return int(value)


def _bundle_id(value) -> int:
    """A sample id a bundle may hold: the sample-id rule, and never below 0,
    so that every bundle that saves also loads."""
    sample_id = _sample_id(value)
    if sample_id < 0:
        raise IdOutOfRange(f"sample id {sample_id} is negative")
    return sample_id


@dataclass
class SamplePrediction:
    """Predicted outputs for one sample."""

    fields: dict[str, np.ndarray] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)


@dataclass
class PredictionBundle:
    """Per-sample predicted outputs keyed by sample id."""

    predictions: dict[int, SamplePrediction] = field(default_factory=dict)

    def ids(self) -> list[int]:
        """The sample ids in increasing order, each one checked."""
        return sorted(_bundle_id(sid) for sid in self.predictions)

    def prediction_for(self, sample_id: int) -> SamplePrediction:
        return self.predictions.setdefault(_bundle_id(sample_id),
                                           SamplePrediction())

    def set_field(self, sample_id: int, name: str, values) -> None:
        self.prediction_for(sample_id).fields[name] = \
            np.ascontiguousarray(values, dtype=np.float64)

    def set_scalar(self, sample_id: int, name: str, value: float) -> None:
        self.prediction_for(sample_id).scalars[name] = float(value)


class Dataset:
    """Ordered, lazily-loadable collection of samples plus metadata."""

    def __init__(self, samples: Optional[Sequence[Sample]] = None,
                 infos: Optional[dict] = None,
                 problem: Optional[ProblemDefinition] = None,
                 loaders: Optional[Sequence[Callable[[], Sample]]] = None):
        if (samples is None) == (loaders is None):
            raise ValueError("pass exactly one of samples or loaders")
        if samples is not None:
            self._samples: list[Optional[Sample]] = list(samples)
            self._loaders: Optional[list[Callable[[], Sample]]] = None
        else:
            self._samples = [None] * len(loaders)
            self._loaders = list(loaders)
        self.infos: dict = dict(infos or {})
        self.problem: ProblemDefinition = problem or ProblemDefinition()

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def n_samples(self) -> int:
        return len(self._samples)

    def sample_at(self, sample_id: int) -> Sample:
        sample_id = _sample_id(sample_id)
        if not 0 <= sample_id < len(self._samples):
            raise IdOutOfRange(
                f"sample id {sample_id} outside [0, {len(self._samples)})")
        found = self._samples[sample_id]
        if found is None:
            found = self._samples[sample_id] = self._loaders[sample_id]()
        return found

    def __getitem__(self, sample_id: int) -> Sample:
        return self.sample_at(sample_id)

    def get_split(self, name: str) -> list[int]:
        try:
            return list(self.problem.splits[name])
        except KeyError:
            raise NoSuchSplit(
                f"no split '{name}'; available: {sorted(self.problem.splits)}"
            ) from None

    def iterate(self, ids: Iterable[int]) -> Iterator[Sample]:
        """Yield samples in the given id order; lazy loads happen per yield."""
        for i in ids:
            yield self.sample_at(i)


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Aggregate per-sample tree reports plus problem-level checks; a linked
    tree is checked as it resolves, as it will be used."""
    report = ValidationReport()
    problem = dataset.problem
    n = dataset.n_samples

    for i in range(n):
        sample = dataset.sample_at(i)
        for t, tree in sample.trees.items():
            sub = validate_tree(tree)
            if tree.links and sub.empty:
                try:
                    sub = validate_tree(sample.get_mesh(t, apply_links=True))
                except MeshBenchError as exc:
                    sub.add(type(exc), "links", str(exc))
            report.extend_prefixed(f"sample_{i:09d}/mesh@{t!r}", sub)

    for name, ids in problem.splits.items():
        for sid in ids:
            if not 0 <= sid < n:
                report.add(InvalidDataset, f"splits/{name}",
                           f"sample id {sid} outside [0, {n})")
        if len(set(ids)) != len(ids):
            report.add(InvalidDataset, f"splits/{name}", "lists an id twice")

    nested = sorted(
        ((int(m.group(1)), name) for name, m in
         ((nm, _NESTED_SPLIT.match(nm)) for nm in problem.splits) if m))
    for k, name in nested:
        if len(problem.splits[name]) != k:
            report.add(InvalidDataset, f"splits/{name}",
                       f"declared size {k} but holds {len(problem.splits[name])} ids")
    for (k1, n1), (k2, n2) in zip(nested, nested[1:]):
        if not set(problem.splits[n1]) <= set(problem.splits[n2]):
            report.add(InvalidDataset, f"splits/{n1}", f"not a subset of {n2}")

    if problem.hidden_partition is not None:
        for message in partition_problems(problem):
            report.add(InvalidDataset, "hidden_partition", message)

    _check_name_coverage(dataset, report)
    _check_json_infos(dataset.infos, report)
    if dataset.infos.get(CONSTANT_MESH_KEY):
        _check_constant_mesh(dataset, report)
    return report


def partition_problems(problem: ProblemDefinition) -> list[str]:
    """Every way the problem's hidden partition breaks its rules (none when
    it is sound): it covers exactly the test split, labels each id Public
    or Private, and leaves neither subset empty."""
    part = problem.hidden_partition
    problems = []
    if set(part) != set(problem.splits.get("test", [])):
        problems.append("partition ids do not cover exactly the test split")
    labels = set(part.values())
    if not labels <= {PUBLIC, PRIVATE}:
        problems.append(
            f"unknown subset labels: {sorted(labels - {PUBLIC, PRIVATE})}")
    if not {PUBLIC, PRIVATE} <= labels:
        problems.append("both Public and Private subsets must be non-empty")
    return problems


def _iter_field_names(sample: Sample) -> set[str]:
    names = set()
    for tree in sample.trees.values():
        for b in tree.bases:
            for z in b.zones:
                names.update(f.name for f in z.fields)
    return names


def _check_name_coverage(dataset: Dataset, report: ValidationReport) -> None:
    problem = dataset.problem
    n = dataset.n_samples
    test_ids = set(problem.splits.get("test", []))

    seen_fields: set[str] = set()
    for i in range(n):
        sample = dataset.sample_at(i)
        seen_fields |= _iter_field_names(sample)
        scalar_names = set(sample.scalars)
        for name in problem.in_scalars_names:
            if name not in scalar_names:
                report.add(InvalidDataset, f"sample_{i:09d}/scalars",
                           f"input scalar '{name}' missing")
        if i not in test_ids:
            # outputs are only promised outside the test split
            for name in problem.out_scalars_names:
                if name not in scalar_names:
                    report.add(InvalidDataset, f"sample_{i:09d}/scalars",
                               f"output scalar '{name}' missing")

    for name in problem.in_fields_names + problem.out_fields_names:
        if name not in seen_fields:
            report.add(InvalidDataset, "problem", f"field '{name}' appears in no sample")


def _check_json_infos(infos: dict, report: ValidationReport) -> None:
    """Report infos that a JSON round trip would not restore exactly (JSON
    has no tuple, non-str key, date, NaN or infinity)."""
    try:
        restored = json.loads(json.dumps(infos, allow_nan=False))
    except (TypeError, ValueError) as exc:
        report.add(InvalidDataset, "infos", f"not JSON: {exc}")
        return
    if restored != infos:
        report.add(InvalidDataset, "infos",
                   "not restored exactly by JSON (a tuple or a non-str key)")


def _check_constant_mesh(dataset: Dataset, report: ValidationReport) -> None:
    reference = None
    for i in range(dataset.n_samples):
        sample = dataset.sample_at(i)
        times = sample.get_all_mesh_times()
        if not times:
            continue
        try:
            tree = sample.get_mesh(time=times[0], apply_links=True)
        except MeshBenchError:
            continue  # reported with the sample's trees
        signature = [
            (b.name, z.name, z.n_vertices,
             tuple((blk.element_type, blk.connectivity.tobytes())
                   for blk in z.element_blocks))
            for b in tree.bases for z in b.zones]
        if reference is None:
            reference = (i, signature)
        elif signature != reference[1]:
            report.add(InvalidDataset, f"sample_{i:09d}",
                       f"declared constant mesh but differs from sample "
                       f"{reference[0]} (node count or connectivity)")


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Structural equality, bit-exact on arrays and on every real."""
    return (structurally_equal((a.n_samples, a.infos, a.problem),
                               (b.n_samples, b.infos, b.problem))
            and all(samples_equal(a.sample_at(i), b.sample_at(i))
                    for i in range(a.n_samples)))

"""Dataset container: ordered samples, problem definition, named splits,
and predictions for samples (``SamplePrediction``, ``PredictionBundle``).

Samples may be supplied in memory or through per-sample loader callables
(lazy mode); both behave identically to callers.  A lazy dataset calls a
sample's loader on every ``Dataset.sample_at`` and keeps nothing, so a
whole-dataset pass (``validate_dataset``, saving, scoring) holds only the
sample its caller holds.
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
        self._lazy = samples is None
        # the samples held, or in lazy mode their loaders
        self._samples: list = list(loaders if self._lazy else samples)
        self.infos: dict = dict(infos or {})
        self.problem: ProblemDefinition = problem or ProblemDefinition()

    @property
    def n_samples(self) -> int:
        return len(self._samples)

    @property
    def lazy(self) -> bool:
        """Whether samples come from loaders rather than being held."""
        return self._lazy

    def sample_at(self, sample_id: int) -> Sample:
        """The sample ``sample_id``: the one held, or else a fresh load that
        nothing here keeps."""
        found = self._samples[self._index(sample_id)]
        return found() if self._lazy else found

    def get_split(self, name: str) -> list[int]:
        try:
            return list(self.problem.splits[name])
        except KeyError:
            raise NoSuchSplit(
                f"no split '{name}'; available: {sorted(self.problem.splits)}"
            ) from None

    def iterate(self, ids: Iterable[int]) -> Iterator[Sample]:
        """``sample_at`` over ``ids``, in their order."""
        return map(self.sample_at, ids)

    def _index(self, sample_id) -> int:
        sample_id = _sample_id(sample_id)
        if not 0 <= sample_id < len(self._samples):
            raise IdOutOfRange(
                f"sample id {sample_id} outside [0, {len(self._samples)})")
        return sample_id


class DatasetChecks:
    """The checks of ``validate_dataset``, fed one sample at a time.

    Creating it runs the checks that read no sample (splits, the hidden
    partition, infos).  :meth:`check_sample` takes each sample in id order
    and keeps none; :meth:`report` then joins what was found in a fixed
    order: the samples' trees, splits, nested splits, the partition, name
    coverage, infos, and last the constant mesh.
    """

    def __init__(self, dataset: Dataset):
        self._problem = problem = dataset.problem
        self._test_ids = set(problem.splits.get("test", []))
        self._seen_fields: set[str] = set()
        self._mesh_reference = None  # (id, signature, blocks) of the first mesh
        self._trees, self._splits, self._names, self._infos, self._meshes = (
            ValidationReport() for _ in range(5))
        _check_splits(problem, dataset.n_samples, self._splits)
        _check_json_infos(dataset.infos, self._infos)
        constant = dataset.infos.get(CONSTANT_MESH_KEY, False)
        if type(constant) is not bool:
            self._infos.add(InvalidDataset, "infos",
                            f"{CONSTANT_MESH_KEY} is {constant!r}, "
                            f"not true or false")
        self._constant_mesh = constant is True

    @property
    def empty(self) -> bool:
        """No violation found so far (field coverage is known only at the
        end, in :meth:`report`)."""
        return all(part.empty for part in (self._trees, self._splits,
                                           self._names, self._infos,
                                           self._meshes))

    def check_sample(self, i: int, sample: Sample) -> None:
        """Check sample ``i``; a linked tree is checked as it resolves, as
        it will be used."""
        for t, tree in sample.trees.items():
            sub = validate_tree(tree)
            if tree.links and sub.empty:
                try:
                    sub = validate_tree(sample.get_mesh(t, apply_links=True))
                except MeshBenchError as exc:
                    sub.add(type(exc), "links", str(exc))
            self._trees.extend_prefixed(f"sample_{i:09d}/mesh@{t!r}", sub)
        self._check_names(i, sample)
        if self._constant_mesh:
            self._check_constant_mesh(i, sample)

    def report(self) -> ValidationReport:
        """Every violation found, once each sample has been checked."""
        coverage = ValidationReport()
        problem = self._problem
        for name in problem.in_fields_names + problem.out_fields_names:
            if name not in self._seen_fields:
                coverage.add(InvalidDataset, "problem",
                             f"field '{name}' appears in no sample")
        report = ValidationReport()
        for part in (self._trees, self._splits, self._names, coverage,
                     self._infos, self._meshes):
            report.violations += part.violations
            report.error_classes += part.error_classes
            report.notes += part.notes
        return report

    def _check_names(self, i: int, sample: Sample) -> None:
        for tree in sample.trees.values():
            for b in tree.bases:
                for z in b.zones:
                    self._seen_fields.update(f.name for f in z.fields)
        for name in self._problem.in_scalars_names:
            if name not in sample.scalars:
                self._names.add(InvalidDataset, f"sample_{i:09d}/scalars",
                                f"input scalar '{name}' missing")
        if i not in self._test_ids:
            # outputs are only promised outside the test split
            for name in self._problem.out_scalars_names:
                if name not in sample.scalars:
                    self._names.add(InvalidDataset, f"sample_{i:09d}/scalars",
                                    f"output scalar '{name}' missing")

    def _check_constant_mesh(self, i: int, sample: Sample) -> None:
        times = sample.get_all_mesh_times()
        if not times:
            return
        try:
            tree = sample.get_mesh(time=times[0], apply_links=True)
        except MeshBenchError:
            return  # reported with the sample's trees
        signature = [
            (b.name, z.name, z.n_vertices,
             tuple(blk.element_type for blk in z.element_blocks))
            for b in tree.bases for z in b.zones]
        blocks = [blk.connectivity for b in tree.bases for z in b.zones
                  for blk in z.element_blocks]  # compared in place, uncopied
        if self._mesh_reference is None:
            self._mesh_reference = (i, signature, blocks)
        elif signature != self._mesh_reference[1] or not all(
                a is b or (a.dtype == b.dtype and np.array_equal(a, b))
                for a, b in zip(blocks, self._mesh_reference[2])):
            self._meshes.add(InvalidDataset, f"sample_{i:09d}",
                             f"declared constant mesh but differs from sample "
                             f"{self._mesh_reference[0]} (node count or "
                             f"connectivity)")


def validate_dataset(dataset: Dataset) -> ValidationReport:
    """Per-sample tree reports plus the problem-level checks, in one pass
    over ``Dataset.iterate`` that reads each sample once and keeps none."""
    checks = DatasetChecks(dataset)
    for i, sample in enumerate(dataset.iterate(range(dataset.n_samples))):
        checks.check_sample(i, sample)
    return checks.report()


def _check_splits(problem: ProblemDefinition, n: int,
                  report: ValidationReport) -> None:
    """Split ids in range and distinct, ``train_k`` holding k ids and
    nested, and the hidden partition sound."""
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


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Structural equality, bit-exact on arrays and on every real."""
    return (structurally_equal((a.n_samples, a.infos, a.problem),
                               (b.n_samples, b.infos, b.problem))
            and all(samples_equal(a.sample_at(i), b.sample_at(i))
                    for i in range(a.n_samples)))

"""Dataset directories: mesh trees, samples and dataset roots.

Layout under a dataset root::

    root/
      infos.yaml                          # format_version + free metadata
      problem_definition/
        problem_infos.yaml                # task, name lists, splits and
                                          # hidden partition (optional)
      dataset/samples/
        sample_{9-digit}.manifest         # scalars, time series, trees and
                                          # the arrays of all its trees

Every file uses the :mod:`meshbench.codec` encoding (format version 5): a
sample's manifest line holds its scalars, its time series and its mesh
trees in time order, and records each array's offset, dtype and shape in
the payload that follows it in the same file, whose bytes those arrays
tile exactly.  ``dataset/samples/`` holds nothing but the sample files,
numbered from 0.  Node indices are written 0-based; each tree declares the
base.
"""

from __future__ import annotations

import copy
import os
import shutil
from dataclasses import replace
from functools import partial
from pathlib import Path

from .codec import (FORMAT_VERSION, ArtifactReader, ArtifactWriter,
                    decode_ids, decode_int, decode_kind, decode_list,
                    decode_map, decode_name, decode_object, decode_real,
                    decode_shape, decoding, format_real)
from .dataset import Dataset, DatasetChecks, ProblemDefinition
from .errors import FormatError, InvalidDataset, IoFailure
from .sample import Sample
from .tree import (
    Base,
    ElementBlock,
    ElementType,
    FieldArray,
    LinkSpec,
    Location,
    MeshTree,
    TagKind,
    TagSet,
    Zone,
    ZoneType,
    build_tree,
)

# ---------------------------------------------------------------------------
# mesh trees, as documents inside a sample manifest

def _tree_doc(tree: MeshTree, writer: ArtifactWriter) -> dict:
    return {
        "index_base": 0,
        "time": format_real(tree.time),
        "links": [
            {"target_time": format_real(l.target_time),
             "target_paths": list(l.target_paths)}
            for l in tree.links],
        "bases": [_base_doc(b, writer) for b in tree.bases],
    }


def _base_doc(base: Base, writer: ArtifactWriter) -> dict:
    return {
        "name": base.name,
        "cell_dim": base.cell_dim,
        "phys_dim": base.phys_dim,
        "zones": [_zone_doc(z, writer) for z in base.zones],
    }


def _zone_doc(zone: Zone, writer: ArtifactWriter) -> dict:
    return {
        "name": zone.name,
        "zone_type": zone.zone_type.value,
        "n_vertices": zone.n_vertices,
        "structured_dims": (list(zone.structured_dims)
                            if zone.structured_dims is not None else None),
        "coordinates": (writer.write(zone.coordinates)
                        if zone.coordinates is not None else None),
        "element_blocks": [
            {"element_type": blk.element_type.value,
             "global_range": list(blk.global_range),
             "connectivity": writer.write(blk.connectivity)}
            for blk in zone.element_blocks],
        "fields": [
            {"name": f.name, "location": f.location.value,
             "values": writer.write(f.values)}
            for f in zone.fields],
        "tags": [
            {"name": t.name, "kind": t.kind.value, "ids": writer.write(t.ids)}
            for t in zone.tags],
    }


def _tree_args(doc: dict, reader: ArtifactReader) -> tuple:
    """The (bases, time, links) that ``build_tree`` takes for one tree."""
    def link(l: dict) -> LinkSpec:
        decode_object(l, "target_time", "target_paths")
        return LinkSpec(decode_real(l["target_time"]),
                        tuple(decode_list(l["target_paths"], decode_name)))

    def base(b: dict) -> Base:
        decode_object(b, "name", "cell_dim", "phys_dim", "zones")
        return Base(decode_name(b["name"]), decode_int(b["cell_dim"]),
                    decode_int(b["phys_dim"]), tuple(decode_list(
                        b["zones"], lambda z: _zone_from_doc(z, reader))))

    decode_object(doc, "index_base", "time", "links", "bases")
    if decode_int(doc["index_base"]) != 0:
        raise ValueError("only 0-based node indices are supported")
    links = decode_list(doc["links"], link)
    return decode_list(doc["bases"], base), decode_real(doc["time"]), links


def _zone_from_doc(doc: dict, reader: ArtifactReader) -> Zone:
    decode_object(doc, "name", "zone_type", "n_vertices", "structured_dims",
                  "coordinates", "element_blocks", "fields", "tags")
    coords, dims = doc["coordinates"], doc["structured_dims"]

    def block(b: dict) -> ElementBlock:
        decode_object(b, "element_type", "global_range", "connectivity")
        return ElementBlock(decode_kind(b["element_type"], ElementType),
                            reader.read(b["connectivity"], "int64"),
                            tuple(decode_list(b["global_range"], decode_int)))

    def field(f: dict) -> FieldArray:
        decode_object(f, "name", "location", "values")
        return FieldArray(decode_name(f["name"]),
                          decode_kind(f["location"], Location),
                          reader.read(f["values"]))

    def tag(t: dict) -> TagSet:
        decode_object(t, "name", "kind", "ids")
        return TagSet(decode_name(t["name"]), decode_kind(t["kind"], TagKind),
                      reader.read(t["ids"], "int64"))

    return Zone(
        name=decode_name(doc["name"]),
        zone_type=decode_kind(doc["zone_type"], ZoneType),
        n_vertices=decode_int(doc["n_vertices"]),
        coordinates=reader.read(coords) if coords is not None else None,
        element_blocks=tuple(decode_list(doc["element_blocks"], block)),
        fields=tuple(decode_list(doc["fields"], field)),
        tags=tuple(decode_list(doc["tags"], tag)),
        structured_dims=decode_shape(dims) if dims is not None else None,
    )


# ---------------------------------------------------------------------------
# samples

def write_sample(sample: Sample, manifest_path: Path) -> None:
    """Write one sample as the one file ``manifest_path``."""
    writer = ArtifactWriter(manifest_path)
    writer.write_manifest({
        "scalars": {name: format_real(sample.scalars[name])
                    for name in sorted(sample.scalars)},
        "time_series": {name: [[format_real(t), format_real(v)]
                               for t, v in sample.time_series[name]]
                        for name in sorted(sample.time_series)},
        "trees": [_tree_doc(sample.trees[time], writer)
                  for time in sample.get_all_mesh_times()],
    })


def read_sample(manifest_path: Path) -> Sample:
    """The sample in the file ``manifest_path``."""
    with ArtifactReader(manifest_path) as reader:
        doc = decode_object(reader.doc, "scalars", "time_series", "trees")
        scalars = decode_map(doc["scalars"], decode_real)
        time_series = decode_map(doc["time_series"], lambda rows: [
            decode_list(row, decode_real) for row in decode_list(rows)])
        tree_args = decode_list(doc["trees"], lambda t: _tree_args(t, reader))
        times = [time for _, time, _ in tree_args]
        if times != sorted(set(times)):
            raise ValueError(f"tree times {times} are not strictly increasing")
    # trees are built once the payload is known to be tiled exactly
    with decoding(manifest_path):
        return Sample(trees={args[1]: build_tree(*args) for args in tree_args},
                      scalars=scalars, time_series=time_series)


# ---------------------------------------------------------------------------
# datasets

def save_dataset(dataset: Dataset, root_path) -> None:
    """Write the dataset under a fresh root; arrays round-trip bit-exactly.

    Refuses a root that already holds files.  The checks that read no
    sample (infos, splits, the hidden partition) run before anything is
    written, and a sample is written only while no violation has been
    found.  A lazy dataset is checked in the pass that writes it, through
    ``Dataset.iterate``, so each sample is read once and none is kept; one
    that holds its samples is checked whole before the first write, which
    is faster than alternating checks with file writes.  A violation raises
    ``InvalidDataset`` naming the first one in ``validate_dataset``'s order;
    on it, or on any other error, everything written is removed, which
    leaves the root as it was found.
    """
    root = Path(root_path)
    if root.exists() and not root.is_dir():
        raise IoFailure(f"destination {root} exists and is not a directory")
    if root.is_dir() and any(root.iterdir()):
        raise IoFailure(f"refusing to write into non-empty directory {root}")
    # the outermost directory this save creates, if the root is not there
    made = next((p for p in [*reversed(root.parents), root] if not p.exists()),
                None)
    checks = DatasetChecks(dataset)
    samples_dir = root / "dataset" / "samples"

    def checked():
        for i, sample in enumerate(dataset.iterate(range(dataset.n_samples))):
            checks.check_sample(i, sample)
            yield i, sample

    try:
        samples = checked() if dataset.lazy else list(checked())
        if checks.empty:
            root.mkdir(parents=True, exist_ok=True)
            ArtifactWriter(root / "infos.yaml").write_manifest(
                {"format_version": FORMAT_VERSION, "infos": dataset.infos})
            problem_dir = root / "problem_definition"
            problem_dir.mkdir()
            _write_problem(dataset.problem, problem_dir)
            samples_dir.mkdir(parents=True)
        for i, sample in samples:
            if checks.empty:
                write_sample(sample, samples_dir / f"sample_{i:09d}.manifest")
        report = checks.report()
        if not report.empty:
            path, message = report.violations[0]
            raise InvalidDataset(f"{path}: {message} "
                                 f"({len(report.violations)} violation(s) total)")
    except OSError as exc:
        _remove_written(root, made)
        raise IoFailure(f"failed writing dataset to {root}: {exc}") from exc
    except BaseException:
        _remove_written(root, made)
        raise


def _remove_written(root: Path, made) -> None:
    """Remove what a failed save wrote: the directory it made, or else every
    entry of the root, which it found empty."""
    for path in [made] if made is not None else list(root.iterdir()):
        if path.is_file():
            path.unlink()
        else:
            shutil.rmtree(path, ignore_errors=True)


def _write_problem(problem: ProblemDefinition, problem_dir: Path) -> None:
    doc = {
        "task": problem.task,
        "in_scalars_names": list(problem.in_scalars_names),
        "out_scalars_names": list(problem.out_scalars_names),
        "in_fields_names": list(problem.in_fields_names),
        "out_fields_names": list(problem.out_fields_names),
        "splits": {name: sorted(problem.splits[name])
                   for name in sorted(problem.splits)}}
    if problem.hidden_partition is not None:
        doc["hidden_partition"] = [[sid, problem.hidden_partition[sid]]
                                   for sid in sorted(problem.hidden_partition)]
    ArtifactWriter(problem_dir / "problem_infos.yaml").write_manifest(doc)


def load_dataset(root_path, lazy: bool = False) -> Dataset:
    """Load a dataset root, eagerly or with per-sample deferred loading.

    Both modes are observationally identical; lazy mode reads a sample's
    files only on first access.
    """
    root = Path(root_path)
    infos_path = root / "infos.yaml"
    with ArtifactReader(infos_path, versioned=True) as infos_file:
        doc = decode_object(infos_file.doc, "format_version", "infos")
        if type(infos := doc["infos"]) is not dict:
            raise TypeError(f"infos {infos!r} is not a JSON object")

    problem = _read_problem(root / "problem_definition")

    samples_dir = root / "dataset" / "samples"
    entries = sorted((e.name, e.is_dir()) for e in os.scandir(samples_dir)) \
        if samples_dir.is_dir() else []
    for i, (name, is_dir) in enumerate(entries):
        if is_dir or name != f"sample_{i:09d}.manifest":
            raise FormatError(f"found {'directory ' if is_dir else ''}{name} "
                              f"where sample_{i:09d}.manifest belongs",
                              path=samples_dir / name)

    manifests = [samples_dir / name for name, _ in entries]
    if lazy:
        loaders = [(lambda m=m: read_sample(m)) for m in manifests]
        return Dataset(loaders=loaders, infos=infos, problem=problem)
    samples = [read_sample(m) for m in manifests]
    return Dataset(samples=samples, infos=infos, problem=problem)


def _read_problem(problem_dir: Path) -> ProblemDefinition:
    infos_path = problem_dir / "problem_infos.yaml"
    with ArtifactReader(infos_path) as infos_file:
        doc = decode_object(infos_file.doc, "task", "in_scalars_names",
                            "out_scalars_names", "in_fields_names",
                            "out_fields_names", "splits", "hidden_partition")
        rows = doc.get("hidden_partition")  # [sample id, subset], when set
        hidden = None if "hidden_partition" not in doc else dict(zip(
            decode_ids([sid for sid, _ in decode_list(rows)]),
            [decode_name(subset) for _, subset in rows]))
        return ProblemDefinition(
            task=decode_name(doc["task"]),
            in_scalars_names=decode_list(doc["in_scalars_names"], decode_name),
            out_scalars_names=decode_list(doc["out_scalars_names"], decode_name),
            in_fields_names=decode_list(doc["in_fields_names"], decode_name),
            out_fields_names=decode_list(doc["out_fields_names"], decode_name),
            splits=decode_map(doc["splits"], decode_ids),
            hidden_partition=hidden,
        )


# ---------------------------------------------------------------------------
# participant export

def participant_export(dataset: Dataset) -> Dataset:
    """Strip test-split outputs and the hidden partition for publication.

    Test samples keep their meshes, inputs and input fields; output fields
    and output scalars are removed, mirroring benchmarks whose test outputs
    stay hidden.  The export is lazy: each of its samples is read from
    ``dataset`` through ``Dataset.iterate``, and stripped, only when the
    export loads it, so saving the export is one pass that reads each
    source sample once and keeps none.
    """
    problem = dataset.problem
    test_ids = set(problem.splits.get("test", []))
    out_fields = set(problem.out_fields_names)
    out_scalars = set(problem.out_scalars_names)

    def load(i: int) -> Sample:
        sample = next(dataset.iterate([i]))  # not kept by the source
        if i not in test_ids:
            return sample
        scalars = {k: v for k, v in sample.scalars.items() if k not in out_scalars}
        trees = {}
        for t, tree in sample.trees.items():
            bases = [
                Base(b.name, b.cell_dim, b.phys_dim, tuple(
                    replace(z, fields=tuple(f for f in z.fields
                                            if f.name not in out_fields))
                    for z in b.zones))
                for b in tree.bases]
            trees[t] = build_tree(bases, tree.time, tree.links)
        return Sample(trees=trees, scalars=scalars,
                      time_series=sample.time_series)

    stripped = replace(copy.deepcopy(problem), hidden_partition=None)
    return Dataset(loaders=[partial(load, i) for i in range(dataset.n_samples)],
                   infos=dict(dataset.infos), problem=stripped)

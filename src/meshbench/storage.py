"""Dataset directories: mesh trees, samples and dataset roots.

Layout under a dataset root::

    root/
      infos.yaml                          # format_version + free metadata
      problem_definition/
        problem_infos.yaml                # task and input/output name lists
        split.csv                         # split_name,sample_id rows
        hidden_partition.csv              # sample_id,subset rows (optional)
      dataset/samples/sample_{9-digit}/
        scalars.csv                       # header row + one value row
        time_series.csv                   # name,time,value rows (optional)
        meshes/mesh_{9-digit}.manifest    # tree structure (JSON)
        meshes/mesh_{9-digit}.blob        # the tree's arrays, packed

Every file uses the :mod:`meshbench.codec` encoding (format version 3): a
tree's manifest records each array's offset, dtype and shape in the one
blob beside it, whose bytes those arrays tile exactly.  Node indices are
written 0-based; the manifest header declares the base.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .codec import (FORMAT_VERSION, BlobReader, BlobWriter, check_version,
                    decoding, format_real, parse_real, read_manifest,
                    read_table, write_manifest, write_table)
from .dataset import Dataset, ProblemDefinition, validate_dataset
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
    zone_with,
)

_TIME_SERIES_HEADER = ("name", "time", "value")
_SPLIT_HEADER = ("split_name", "sample_id")
_PARTITION_HEADER = ("sample_id", "subset")


# ---------------------------------------------------------------------------
# mesh tree manifests

def write_tree(tree: MeshTree, meshes_dir: Path, prefix: str) -> None:
    """Write one tree as ``{prefix}.manifest`` plus ``{prefix}.blob``."""
    writer = BlobWriter(meshes_dir / f"{prefix}.manifest")
    doc = {
        "index_base": 0,
        "time": format_real(tree.time),
        "links": [
            {"target_time": format_real(l.target_time),
             "target_paths": list(l.target_paths)}
            for l in tree.links],
        "bases": [_base_doc(b, writer) for b in tree.bases],
    }
    writer.write_manifest(doc)


def _base_doc(base: Base, writer: BlobWriter) -> dict:
    return {
        "name": base.name,
        "cell_dim": base.cell_dim,
        "phys_dim": base.phys_dim,
        "zones": [_zone_doc(z, writer) for z in base.zones],
    }


def _zone_doc(zone: Zone, writer: BlobWriter) -> dict:
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


def read_tree(manifest_path: Path) -> MeshTree:
    doc = read_manifest(manifest_path)
    with BlobReader(manifest_path) as blobs, decoding(manifest_path):
        if int(doc.get("index_base", 0)) != 0:
            raise FormatError("only 0-based node indices are supported",
                              path=manifest_path)
        time = parse_real(doc["time"])
        links = [LinkSpec(parse_real(l["target_time"]),
                          tuple(l["target_paths"]))
                 for l in doc.get("links", [])]
        bases = [_base_from_doc(b, blobs) for b in doc.get("bases", [])]
    return build_tree(bases, time, links)


def _base_from_doc(doc: dict, blobs: BlobReader) -> Base:
    zones = tuple(_zone_from_doc(z, blobs) for z in doc.get("zones", []))
    return Base(doc["name"], int(doc["cell_dim"]), int(doc["phys_dim"]), zones)


def _zone_from_doc(doc: dict, blobs: BlobReader) -> Zone:
    coords_entry = doc.get("coordinates")
    coordinates = (blobs.read(coords_entry, "float64")
                   if coords_entry is not None else None)
    blocks = tuple(
        ElementBlock(
            ElementType(b["element_type"]),
            blobs.read(b["connectivity"], "int64"),
            tuple(int(x) for x in b["global_range"]))
        for b in doc.get("element_blocks", []))
    fields = tuple(
        FieldArray(f["name"], Location(f["location"]),
                   blobs.read(f["values"], "float64"))
        for f in doc.get("fields", []))
    tags = tuple(
        TagSet(t["name"], TagKind(t["kind"]),
               blobs.read(t["ids"], "int64"))
        for t in doc.get("tags", []))
    dims = doc.get("structured_dims")
    return Zone(
        name=doc["name"],
        zone_type=ZoneType(doc["zone_type"]),
        n_vertices=int(doc["n_vertices"]),
        coordinates=coordinates,
        element_blocks=blocks,
        fields=fields,
        tags=tags,
        structured_dims=tuple(int(d) for d in dims) if dims is not None else None,
    )


# ---------------------------------------------------------------------------
# samples

def write_sample(sample: Sample, sample_dir: Path) -> None:
    sample_dir.mkdir(parents=True, exist_ok=True)
    names = sorted(sample.scalars)
    write_table(sample_dir / "scalars.csv", names,
                [[format_real(sample.scalars[n]) for n in names]])

    if sample.time_series:
        write_table(sample_dir / "time_series.csv", _TIME_SERIES_HEADER,
                    [[name, format_real(t), format_real(v)]
                     for name in sorted(sample.time_series)
                     for t, v in sample.time_series[name]])

    meshes_dir = sample_dir / "meshes"
    meshes_dir.mkdir(exist_ok=True)
    for index, time in enumerate(sample.get_all_mesh_times()):
        write_tree(sample.trees[time], meshes_dir, f"mesh_{index:09d}")


def read_sample(sample_dir: Path) -> Sample:
    scalars = _read_scalars(sample_dir / "scalars.csv")
    time_series = _read_time_series(sample_dir / "time_series.csv")
    trees = {}
    meshes_dir = sample_dir / "meshes"
    if meshes_dir.is_dir():
        for manifest in sorted(meshes_dir.glob("mesh_*.manifest")):
            tree = read_tree(manifest)
            if tree.time in trees:
                raise FormatError(f"duplicate tree time {tree.time!r}",
                                  path=manifest)
            trees[tree.time] = tree
    return Sample(trees=trees, scalars=scalars, time_series=time_series)


def _read_scalars(path: Path) -> dict[str, float]:
    names, rows = read_table(path) or ([], [])
    if len(rows) != (1 if names else 0):
        raise FormatError("scalars table must be a header row plus one value row",
                          path=path)
    with decoding(path):
        return {name: parse_real(value) for name, value in zip(names, *rows)}


def _read_time_series(path: Path) -> dict[str, list[tuple[float, float]]]:
    series: dict[str, list[tuple[float, float]]] = {}
    _, rows = read_table(path, _TIME_SERIES_HEADER) or (None, [])
    with decoding(path):
        for name, t, v in rows:
            series.setdefault(name, []).append((parse_real(t), parse_real(v)))
    return series


# ---------------------------------------------------------------------------
# datasets

def save_dataset(dataset: Dataset, root_path) -> None:
    """Write the dataset under a fresh root; arrays round-trip bit-exactly.

    Refuses to write when the root already holds files or when the dataset
    violates its invariants.
    """
    root = Path(root_path)
    if root.exists() and not root.is_dir():
        raise IoFailure(f"destination {root} exists and is not a directory")
    if root.is_dir() and any(root.iterdir()):
        raise IoFailure(f"refusing to write into non-empty directory {root}")
    report = validate_dataset(dataset)
    if not report.empty:
        path, message = report.violations[0]
        raise InvalidDataset(f"{path}: {message} "
                             f"({len(report.violations)} violation(s) total)")
    try:
        root.mkdir(parents=True, exist_ok=True)
        write_manifest(root / "infos.yaml", {"format_version": FORMAT_VERSION,
                                             "infos": dataset.infos})

        problem_dir = root / "problem_definition"
        problem_dir.mkdir()
        _write_problem(dataset.problem, problem_dir)

        samples_dir = root / "dataset" / "samples"
        samples_dir.mkdir(parents=True)
        for i in range(dataset.n_samples):
            write_sample(dataset.sample_at(i), samples_dir / f"sample_{i:09d}")
    except OSError as exc:
        raise IoFailure(f"failed writing dataset to {root}: {exc}") from exc


def _write_problem(problem: ProblemDefinition, problem_dir: Path) -> None:
    write_manifest(problem_dir / "problem_infos.yaml", {
        "task": problem.task,
        "in_scalars_names": list(problem.in_scalars_names),
        "out_scalars_names": list(problem.out_scalars_names),
        "in_fields_names": list(problem.in_fields_names),
        "out_fields_names": list(problem.out_fields_names)})
    write_table(problem_dir / "split.csv", _SPLIT_HEADER,
                [[name, sid] for name in sorted(problem.splits)
                 for sid in problem.splits[name]])
    if problem.hidden_partition is not None:
        write_table(problem_dir / "hidden_partition.csv", _PARTITION_HEADER,
                    [[sid, problem.hidden_partition[sid]]
                     for sid in sorted(problem.hidden_partition)])


def load_dataset(root_path, lazy: bool = False) -> Dataset:
    """Load a dataset root, eagerly or with per-sample deferred loading.

    Both modes are observationally identical; lazy mode reads a sample's
    files only on first access.
    """
    root = Path(root_path)
    infos_path = root / "infos.yaml"
    infos_doc = read_manifest(infos_path)
    check_version(infos_doc, infos_path)
    infos = infos_doc.get("infos", {}) or {}

    problem = _read_problem(root / "problem_definition")

    samples_dir = root / "dataset" / "samples"
    sample_dirs = sorted(samples_dir.glob("sample_*")) if samples_dir.is_dir() else []
    for i, d in enumerate(sample_dirs):
        if d.name != f"sample_{i:09d}":
            raise FormatError(f"sample directories not contiguous: found {d.name}, "
                              f"expected sample_{i:09d}", path=d)

    if lazy:
        loaders = [(lambda d=d: read_sample(d)) for d in sample_dirs]
        return Dataset(loaders=loaders, infos=infos, problem=problem)
    samples = [read_sample(d) for d in sample_dirs]
    return Dataset(samples=samples, infos=infos, problem=problem)


def _read_problem(problem_dir: Path) -> ProblemDefinition:
    infos_path = problem_dir / "problem_infos.yaml"
    doc = read_manifest(infos_path)

    splits: dict[str, list[int]] = {}
    split_path = problem_dir / "split.csv"
    _, rows = read_table(split_path, _SPLIT_HEADER) or (None, [])
    with decoding(split_path):
        for name, sid in rows:
            splits.setdefault(name, []).append(int(sid))

    hidden: Optional[dict[int, str]] = None
    hidden_path = problem_dir / "hidden_partition.csv"
    table = read_table(hidden_path, _PARTITION_HEADER)
    if table is not None:
        with decoding(hidden_path):
            hidden = {int(sid): subset for sid, subset in table[1]}

    with decoding(infos_path):
        return ProblemDefinition(
            task=doc.get("task", "Regression"),
            in_scalars_names=list(doc.get("in_scalars_names", [])),
            out_scalars_names=list(doc.get("out_scalars_names", [])),
            in_fields_names=list(doc.get("in_fields_names", [])),
            out_fields_names=list(doc.get("out_fields_names", [])),
            splits=splits,
            hidden_partition=hidden,
        )


# ---------------------------------------------------------------------------
# participant export

def participant_export(dataset: Dataset) -> Dataset:
    """Strip test-split outputs and the hidden partition for publication.

    Test samples keep their meshes, inputs and input fields; output fields
    and output scalars are removed, mirroring benchmarks whose test outputs
    stay hidden.
    """
    problem = dataset.problem
    test_ids = set(problem.splits.get("test", []))
    out_fields = set(problem.out_fields_names)
    out_scalars = set(problem.out_scalars_names)

    samples = []
    for i in range(dataset.n_samples):
        sample = dataset.sample_at(i)
        if i not in test_ids:
            samples.append(sample)
            continue
        scalars = {k: v for k, v in sample.scalars.items() if k not in out_scalars}
        trees = {}
        for t, tree in sample.trees.items():
            bases = [
                Base(b.name, b.cell_dim, b.phys_dim, tuple(
                    zone_with(z, fields=[f for f in z.fields
                                         if f.name not in out_fields])
                    for z in b.zones))
                for b in tree.bases]
            trees[t] = build_tree(bases, tree.time, tree.links)
        samples.append(Sample(trees=trees, scalars=scalars,
                              time_series=sample.time_series))

    stripped = replace(copy.deepcopy(problem), hidden_partition=None)
    return Dataset(samples=samples, infos=dict(dataset.infos), problem=stripped)

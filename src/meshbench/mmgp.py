"""Morphing + interpolation + POD + GP surrogate pipeline.

Training: every sample's triangulated 2-D zone is embedded onto the unit
disk (or used as-is when morphing is off and all meshes share a node
count), its coordinate fields are interpolated onto a common mesh (the
first training sample's, morphed), and snapshot POD over those transferred
coordinate fields yields a compact shape embedding.  GP inputs concatenate
shape coefficients with the problem's input scalars.  Each output field is
transferred to the common mesh and POD-compressed; one GP per output field
regresses all its retained coefficients with shared hyperparameters (one
search on their summed likelihood), plus one GP per output scalar.

Prediction embeds the query samples the same way, GP-predicts each one's
coefficients (one kernel product per field), reconstructs fields on the
common mesh and evaluates them back at the sample's own (morphed) vertex
positions.  Fit and predict share one path: ``_embedded`` orients and
embeds a list of meshes (the training set, or the samples to predict) one
connectivity at a time, ``_transfer`` carries values between two disk
embeddings, and without morphing a sample's transfer is None, which leaves
vertex values where they are.

Everything is deterministic for a fixed config, whatever the thread count
given to the GP fits, the one pooled stage.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .codec import (FORMAT_VERSION, ArtifactReader, ArtifactWriter,
                    decode_kind, decode_list, decode_map, decode_name,
                    decode_object, decode_real, format_real)
from .dataset import Dataset, ProblemDefinition, SamplePrediction
from .edges import boundary_edges
from .errors import (ConfigInvalid, FormatError, IoFailure, NoSuchSplit,
                     ShapeMismatch)
from .gp import DEFAULT_JITTER, GpModel, Kernel, gp_fit, gp_mean
from .morphing import (build_surface_mesh, connectivity_key, tutte_embed,
                       tutte_system)
from .parallel import parallel_map
from .pod import PodBasis, pod_basis, pod_project, pod_reconstruct
from .sample import Sample, find_reference_field
from .transfer import DEFAULT_SNAP_TOL, apply_transfer, build_transfer
from .tree import ElementType, ZoneType

_KERNEL_ALIASES = {"matern52": "Matern52", "rbf": "RBF"}
_BOOL_WORDS = {"on": True, "true": True, "yes": True, "1": True,
               "off": False, "false": False, "no": False, "0": False}


@dataclass(frozen=True)
class MmgpConfig:
    morphing: bool = True
    shape_modes: int = 8
    field_modes: int = 8
    kernel: str = "Matern52"
    train_split: str = "train"
    jitter: float = DEFAULT_JITTER  # the GP nugget, relative to the variance

    def validate(self) -> None:
        if type(self.morphing) is not bool:
            raise ConfigInvalid(f"morphing must be a boolean, not "
                                f"{self.morphing!r}")
        if not all(type(n) is int and n >= 1
                   for n in (self.shape_modes, self.field_modes)):
            raise ConfigInvalid("mode counts must be integers of at least 1")
        if self.kernel not in ("Matern52", "RBF"):
            raise ConfigInvalid(f"unknown kernel '{self.kernel}'")
        if type(self.train_split) is not str:
            raise ConfigInvalid(f"train_split must be a name, not "
                                f"{self.train_split!r}")
        if type(self.jitter) is not float or not 0 < self.jitter < np.inf:
            raise ConfigInvalid(f"jitter must be positive and finite, "
                                f"not {self.jitter}")


_CONFIG_KEYS = tuple(f.name for f in fields(MmgpConfig))


def _config_from(values: dict) -> MmgpConfig:
    """The default config with ``values`` in place, validated: the decoder
    shared by config files and stored models."""
    for key in values:
        if key not in _CONFIG_KEYS:
            raise ConfigInvalid(f"unknown config key '{key}'")
    config = replace(MmgpConfig(), **values)
    config.validate()
    return config


def parse_config_text(text: str) -> MmgpConfig:
    """Parse ``key = value`` lines ('#' starts a comment); a key given
    twice is refused."""
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigInvalid(f"line {lineno}: key '{key}' repeats line "
                                f"{lines[key]}")
        values[key], lines[key] = value.strip(), lineno

    for key, value in values.items():
        try:
            if key == "morphing":
                word = value.lower()
                if word not in _BOOL_WORDS:
                    raise ValueError(f"not a boolean: {value!r}")
                values[key] = _BOOL_WORDS[word]
            elif key in ("shape_modes", "field_modes"):
                values[key] = int(value)
            elif key == "kernel":
                values[key] = _KERNEL_ALIASES.get(value.lower(), value)
            elif key == "jitter":
                values[key] = float(value)
        except (ValueError, TypeError) as exc:
            raise ConfigInvalid(f"bad value for '{key}': {exc}") from None
    return _config_from(values)


def load_config(path) -> MmgpConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigInvalid(f"{path}: not UTF-8 text: {exc.reason} at byte "
                            f"{exc.start}") from None
    return parse_config_text(text)


# ---------------------------------------------------------------------------
# geometry extraction

def extract_triangle_geometry(sample: Sample) -> tuple[np.ndarray, np.ndarray]:
    """The sample's unique triangulated 2-D zone as (coords, triangles),
    its blocks merged by ``Sample.get_elements``: for one block, the zone's
    own read-only arrays, not copies that fit would keep alive."""
    found = [(b, z) for b in sample.get_mesh(apply_links=True).bases
             if b.cell_dim == 2 for z in b.zones
             if z.zone_type is ZoneType.Unstructured and z.element_blocks
             and all(blk.element_type is ElementType.TRI_3
                     for blk in z.element_blocks)]
    if len(found) != 1:
        raise ConfigInvalid(
            f"pipeline needs exactly one all-triangle 2-D zone, found "
            f"{len(found)}")
    base, zone = found[0]
    return (zone.coordinates,
            sample.get_elements(base.name, zone.name)[ElementType.TRI_3.value])


def _output_field(sample: Sample, name: str, n_vertices: int) -> np.ndarray:
    values = find_reference_field(sample, name)
    if values.shape[0] != n_vertices:
        raise ConfigInvalid(
            f"output field '{name}' has {values.shape[0]} entries; only "
            f"vertex fields on the triangulated zone ({n_vertices} nodes) "
            f"are supported")
    return values


# ---------------------------------------------------------------------------
# regressors (GP with a constant-target fallback)

@dataclass(frozen=True)
class Regressor:
    """GP regressor, or a constant when the targets carry no variance: a
    float for an output scalar, a (k,) vector for a field's k coefficients."""

    gp: Optional[GpModel] = None
    constant: Optional[float | np.ndarray] = None

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.gp is not None:
            return gp_mean(self.gp, x)[0]
        return np.full((len(np.atleast_2d(x)),) + np.shape(self.constant),
                       self.constant)

    @property
    def is_gp(self) -> bool:
        return self.gp is not None


def _fit_regressor(x: np.ndarray, y: np.ndarray, kind: str,
                   jitter: float) -> Regressor:
    if not np.ptp(y, axis=0).any():
        return Regressor(constant=y[0].copy() if y.ndim == 2 else float(y[0]))
    return Regressor(gp=gp_fit(x, y, kind=kind, jitter=jitter))


# ---------------------------------------------------------------------------
# model

@dataclass
class MmgpModel:
    config: MmgpConfig
    in_scalars: list[str]
    out_fields: list[str]
    out_scalars: list[str]
    common_nodes: np.ndarray        # (N, 2)
    common_triangles: np.ndarray    # (M, 3)
    shape_basis: PodBasis           # over stacked (x, y) coordinate fields
    field_bases: dict[str, PodBasis] = field(default_factory=dict)
    field_regressors: dict[str, Regressor] = field(default_factory=dict)
    scalar_regressors: dict[str, Regressor] = field(default_factory=dict)

    @property
    def n_regressors(self) -> int:
        return len(self.field_regressors) + len(self.scalar_regressors)

    @property
    def gp_input_dim(self) -> int:
        return self.shape_basis.n_modes + len(self.in_scalars)


def _embedded(geometries):
    """Orient every ``(coords, triangles)`` and embed it onto the unit disk,
    yielding each one's (index, positions, oriented triangles, boundary
    edges).

    Meshes are embedded one ``connectivity_key`` group at a time, groups in
    order of their first index, so index 0 comes first.  A group builds its
    boundary loop, boundary edges and Tutte system once, from its first
    mesh, and its surfaces are freed once it is done.  Fit passes its
    training geometries, predict those of the samples it predicts.
    """
    # each mesh is oriented once, its boundary loop left to its group
    surfaces = [build_surface_mesh(*geometry) for geometry in geometries]
    groups = {}
    for i, surface in enumerate(surfaces):
        groups.setdefault(connectivity_key(surface), []).append(i)
    groups = list(groups.values())  # frees the keys: triangle copies
    for members in groups:
        system = tutte_system(surfaces[members[0]])
        edges = boundary_edges(surfaces[members[0]].triangles)
        for i in members:
            surface, surfaces[i] = surfaces[i], None
            yield i, tutte_embed(surface, system), surface.triangles, edges


def _transfer(nodes, triangles, targets, boundary):
    """``build_transfer`` from one disk embedding onto another's nodes,
    given the source's boundary edges.

    Both boundaries are polygons inscribed in the unit circle, so no target
    lies farther outside the source than the sagitta of its longest
    boundary chord, plus rounding slack: that is the snap allowance.
    """
    owner, slot = boundary
    chord = np.linalg.norm(nodes[triangles[owner, slot]]
                           - nodes[triangles[owner, (slot + 1) % 3]],
                           axis=1).max()
    sagitta = 1.0 - np.sqrt(max(0.0, 1.0 - (chord / 2) ** 2))
    bbox_diag = np.linalg.norm(nodes.max(axis=0) - nodes.min(axis=0))
    return build_transfer(nodes, triangles, targets,
                          tol=sagitta / bbox_diag + DEFAULT_SNAP_TOL,
                          boundary=boundary)


def _moved(op, values: np.ndarray) -> np.ndarray:
    """Vertex ``values`` carried by the transfer ``op``; a transfer of
    None (morphing off) leaves vertex values where they are."""
    return values if op is None else apply_transfer(op, values)


def _shape_vector(op, coords, common_nodes) -> np.ndarray:
    """The sample's x and y coordinate fields on the common mesh, stacked."""
    if op is None and len(coords) != len(common_nodes):
        raise ShapeMismatch(
            f"morphing is off: a sample has {len(coords)} nodes, the common "
            f"mesh {len(common_nodes)}")
    return np.concatenate([_moved(op, coords[:, 0]), _moved(op, coords[:, 1])])


def mmgp_fit(dataset: Dataset, problem: ProblemDefinition, config: MmgpConfig,
             threads: int = 1) -> MmgpModel:
    """Train the full pipeline on the configured training split.

    Only the GP fits, one per regressor, run on ``threads`` pool workers;
    they see ``x_train`` and their targets, never a sample.
    """
    config.validate()
    if config.train_split not in problem.splits:
        raise NoSuchSplit(f"no split '{config.train_split}'")
    # sorted here too: a split edited after construction keeps its order
    ids = sorted(problem.splits[config.train_split])
    if not ids:
        raise ConfigInvalid("training split is empty")
    samples = [dataset.sample_at(i) for i in ids]
    geometries = [extract_triangle_geometry(s) for s in samples]

    ops = [None] * len(ids)  # each sample's transfer onto the common mesh
    if config.morphing:
        # sample 0 comes first: its embedding is the common mesh
        for i, positions, triangles, edges in _embedded(geometries):
            if i == 0:
                common_nodes, common_triangles = positions, triangles
            ops[i] = _transfer(positions, triangles, common_nodes, edges)
    else:
        common_nodes, common_triangles = geometries[0]
    shape_snapshots = np.stack([_shape_vector(op, coords, common_nodes)
                                for op, (coords, _) in zip(ops, geometries)])

    shape_basis = pod_basis(shape_snapshots, config.shape_modes)
    shape_coeffs = np.stack([pod_project(shape_basis, vec)
                             for vec in shape_snapshots])
    scalar_inputs = np.array(
        [[s.get_scalar(name) for name in problem.in_scalars_names]
         for s in samples])
    x_train = np.hstack([shape_coeffs, scalar_inputs])

    model = MmgpModel(
        config=config,
        in_scalars=list(problem.in_scalars_names),
        out_fields=sorted(problem.out_fields_names),
        out_scalars=sorted(problem.out_scalars_names),
        common_nodes=common_nodes,
        common_triangles=common_triangles,
        shape_basis=shape_basis,
    )

    gp_tasks: list[tuple[dict, str, np.ndarray]] = []  # (into, name, targets)
    for name in model.out_fields:
        snapshots = np.stack([
            _moved(op, _output_field(sample, name, len(coords)))
            for op, sample, (coords, _) in zip(ops, samples, geometries)])
        basis = pod_basis(snapshots, config.field_modes)
        model.field_bases[name] = basis
        coeffs = np.stack([pod_project(basis, snap) for snap in snapshots])
        gp_tasks.append((model.field_regressors, name, coeffs))

    for name in model.out_scalars:
        targets = np.array([s.get_scalar(name) for s in samples])
        gp_tasks.append((model.scalar_regressors, name, targets))

    fitted = parallel_map(
        lambda task: _fit_regressor(x_train, task[2], config.kernel,
                                    config.jitter),
        gp_tasks, threads=threads)

    for (regressors, name, _), regressor in zip(gp_tasks, fitted):
        regressors[name] = regressor
    return model


def mmgp_predict(model: MmgpModel, samples: list[Sample]
                 ) -> list[SamplePrediction]:
    """Each sample's ``SamplePrediction`` (defined in ``dataset``),
    predicted on its own mesh."""
    geometries = [extract_triangle_geometry(s) for s in samples]
    ops = [(None, None)] * len(samples)  # onto the common mesh and back
    if model.config.morphing:
        common_edges = boundary_edges(model.common_triangles)
        for i, nodes, triangles, edges in _embedded(geometries):
            ops[i] = (_transfer(nodes, triangles, model.common_nodes, edges),
                      _transfer(model.common_nodes, model.common_triangles,
                                nodes, common_edges))
    predictions = []
    for sample, (coords, _), (op_to, op_back) in zip(samples, geometries, ops):
        shape_vec = _shape_vector(op_to, coords, model.common_nodes)
        scalars_in = [sample.get_scalar(name) for name in model.in_scalars]
        x = np.concatenate([pod_project(model.shape_basis, shape_vec),
                            np.asarray(scalars_in)])[None, :]
        fields_out = {}
        for name in model.out_fields:
            coeffs = model.field_regressors[name].predict(x)[0]
            fields_out[name] = _moved(
                op_back, pod_reconstruct(model.field_bases[name], coeffs))
        scalars_out = {name: float(model.scalar_regressors[name].predict(x)[0])
                       for name in model.out_scalars}
        predictions.append(SamplePrediction(fields_out, scalars_out))
    return predictions


# ---------------------------------------------------------------------------
# persistence (the one-file encoding of the dataset store)

_GP_INPUTS = ("x_train", "x_mean", "x_std")


def save_model(model: MmgpModel, root_path) -> None:
    """Write the one file ``model.manifest``; the GP regressors share one
    copy of their training inputs and standardization."""
    gps = [r.gp for r in (*model.field_regressors.values(),
                          *model.scalar_regressors.values()) if r.is_gp]
    if any(not np.array_equal(getattr(gp, key), getattr(gps[0], key))
           for gp in gps[1:] for key in _GP_INPUTS):
        raise IoFailure("refusing to save a model whose GP regressors "
                        "were fit on different inputs")
    root = Path(root_path)
    writer = ArtifactWriter(root / "model.manifest")

    def basis_doc(basis: PodBasis) -> dict:
        return {"mean": writer.write(basis.mean),
                "modes": writer.write(np.ascontiguousarray(basis.modes)),
                "singular_values": writer.write(basis.singular_values)}

    def real(value) -> object:
        """A scalar regressor's float, or a field regressor's vector."""
        return writer.write(value) if np.ndim(value) else format_real(value)

    def regressor_doc(reg: Regressor) -> dict:
        if not reg.is_gp:
            return {"kind": "constant", "value": real(reg.constant)}
        gp = reg.gp
        return {
            "kind": "gp",
            "kernel": gp.kernel.kind,
            "variance": format_real(gp.kernel.variance),
            "lengthscales": writer.write(gp.kernel.lengthscales),
            "alpha": writer.write(gp.alpha),
            "y_mean": real(gp.y_mean),
            "y_std": format_real(gp.y_std),
            "jitter": format_real(gp.jitter),
        }

    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "mmgp-model",
        "config": {**asdict(model.config),
                   "jitter": format_real(model.config.jitter)},
        "in_scalars": list(model.in_scalars),
        "out_fields": list(model.out_fields),
        "out_scalars": list(model.out_scalars),
        "common_nodes": writer.write(np.ascontiguousarray(model.common_nodes)),
        "common_triangles": writer.write(
            np.ascontiguousarray(model.common_triangles)),
        "shape_basis": basis_doc(model.shape_basis),
        "gp_inputs": ({key: writer.write(getattr(gps[0], key))
                       for key in _GP_INPUTS} if gps else None),
        "field_bases": {name: basis_doc(b)
                        for name, b in sorted(model.field_bases.items())},
        "field_regressors": {
            name: regressor_doc(r)
            for name, r in sorted(model.field_regressors.items())},
        "scalar_regressors": {
            name: regressor_doc(r)
            for name, r in sorted(model.scalar_regressors.items())},
    }
    try:
        root.mkdir(parents=True, exist_ok=True)
        writer.write_manifest(doc)
    except OSError as exc:
        raise IoFailure(f"failed writing model to {root}: {exc}") from exc


def load_model(root_path) -> MmgpModel:
    manifest = Path(root_path) / "model.manifest"
    reader = ArtifactReader(manifest, versioned=True)
    doc, read = reader.doc, reader.read

    def basis_from(doc_b) -> PodBasis:
        decode_object(doc_b, "mean", "modes", "singular_values")
        return PodBasis(mean=read(doc_b["mean"]), modes=read(doc_b["modes"]),
                        singular_values=read(doc_b["singular_values"]))

    def regressor_from(doc_r, real) -> Regressor:  # real: as in save_model
        if decode_kind(doc_r["kind"], ("constant", "gp")) == "constant":
            decode_object(doc_r, "kind", "value")
            return Regressor(constant=real(doc_r["value"]))
        decode_object(doc_r, "kind", "kernel", "variance", "lengthscales",
                      "alpha", "y_mean", "y_std", "jitter")
        kernel = Kernel(kind=doc_r["kernel"],
                        variance=decode_real(doc_r["variance"]),
                        lengthscales=read(doc_r["lengthscales"]))
        y_std, jitter = decode_real(doc_r["y_std"]), decode_real(doc_r["jitter"])
        if not (0 < y_std < np.inf and 0 < jitter < np.inf):
            raise ValueError(f"y_std {y_std} and jitter {jitter} must be > 0")
        return Regressor(gp=GpModel(
            kernel=kernel, alpha=read(doc_r["alpha"]), **gp_inputs,
            y_mean=real(doc_r["y_mean"]), y_std=y_std, jitter=jitter))

    with reader:
        decode_object(doc, "format_version", "kind", "config", "in_scalars",
                      "out_fields", "out_scalars", "common_nodes",
                      "common_triangles", "shape_basis", "gp_inputs",
                      "field_bases", "field_regressors", "scalar_regressors")
        decode_kind(doc["kind"], ("mmgp-model",))
        cfg = decode_object(doc["config"], *_CONFIG_KEYS)
        # the arrays are read in the order save_model packs them
        common = dict(common_nodes=read(doc["common_nodes"]),
                      common_triangles=read(doc["common_triangles"], "int64"),
                      shape_basis=basis_from(doc["shape_basis"]))
        if (inputs := doc["gp_inputs"]) is not None:
            decode_object(inputs, *_GP_INPUTS)
        gp_inputs = None if inputs is None else {
            key: read(inputs[key]) for key in _GP_INPUTS}
        model = MmgpModel(
            config=_config_from({key: cfg[key] for key in _CONFIG_KEYS}
                                | {"jitter": decode_real(cfg["jitter"])}),
            in_scalars=decode_list(doc["in_scalars"], decode_name),
            out_fields=decode_list(doc["out_fields"], decode_name),
            out_scalars=decode_list(doc["out_scalars"], decode_name),
            **common,
            field_bases=decode_map(doc["field_bases"], basis_from),
            field_regressors=decode_map(
                doc["field_regressors"], lambda r: regressor_from(r, read)),
            scalar_regressors=decode_map(
                doc["scalar_regressors"],
                lambda r: regressor_from(r, decode_real)),
        )
        _check_shapes(model, manifest)
    return model


def _check_shapes(model: MmgpModel, manifest: Path) -> None:
    """Raise FormatError unless the model's parts fit together."""
    def require(ok, message):
        if not ok:
            raise FormatError(f"inconsistent model: {message}", path=manifest)

    def predicts(reg: Regressor, shape: tuple) -> bool:
        """Whether ``reg`` predicts values of ``shape`` from the GP inputs."""
        if not reg.is_gp:
            return np.shape(reg.constant) == shape
        gp = reg.gp
        return (np.shape(gp.y_mean) == shape
                and gp.alpha.shape == (len(gp.x_train),) + shape
                and gp.x_train.shape[1] == model.gp_input_dim
                and gp.x_mean.shape == gp.x_std.shape
                == gp.kernel.lengthscales.shape == (model.gp_input_dim,))

    n_nodes = len(model.common_nodes)
    inputs = f"{model.gp_input_dim} GP inputs"
    require(sorted(model.field_bases) == sorted(model.field_regressors)
            == sorted(model.out_fields)
            and sorted(model.scalar_regressors) == sorted(model.out_scalars),
            "bases or regressors do not match the output names")
    require(model.shape_basis.modes.shape[0] == 2 * n_nodes,
            f"shape basis rows are not 2 x {n_nodes} common nodes")
    for name, basis in model.field_bases.items():
        require(basis.modes.shape[0] == n_nodes,
                f"field basis '{name}' rows are not {n_nodes} common nodes")
        require(predicts(model.field_regressors[name], (basis.n_modes,)),
                f"field '{name}' regressor does not match its "
                f"{basis.n_modes} modes and {inputs}")
    require(all(predicts(r, ()) for r in model.scalar_regressors.values()),
            f"an output scalar's regressor does not match one value and "
            f"{inputs}")

"""Deterministic desk-scale dataset generator with closed-form outputs.

The ``plate2d`` case meshes a unit square whose top boundary is the curve
y = 1 + a*sin(pi*x), triangulated from a transfinite grid whose resolution
varies per sample.  Outputs are analytic functions of the inputs, so every
value in a generated dataset can be recomputed exactly:

    u(x, y)  = p * (1 + a*y) * sin(pi*x) * sin(pi*y / (1 + a))
    du_dx    = p * (1 + a*y) * pi * cos(pi*x) * sin(pi*y / (1 + a))
    u_max    = max over nodes of u

Randomness is a counter-based stream keyed by (seed, sample id): each
sample regenerates identically in isolation and independently of schedule.
Plates of one resolution in one ``generate`` call share one read-only TRI_3
connectivity and tag pair; only coordinates, fields and scalars are their own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dataset import CONSTANT_MESH_KEY, Dataset, ProblemDefinition, PRIVATE, PUBLIC
from .errors import ConfigInvalid
from .sample import Sample
from .tree import (
    Base,
    ElementType,
    Location,
    TagKind,
    build_tree,
    make_field,
    make_tag,
    make_unstructured_zone,
)


@dataclass(frozen=True)
class SynthConfig:
    case: str = "plate2d"
    n_samples: int = 20
    seed: int = 0
    min_nodes_per_side: int = 15
    max_nodes_per_side: int = 30
    amplitude_range: tuple[float, float] = (0.0, 0.3)
    load_range: tuple[float, float] = (0.5, 2.0)

    def validate(self) -> None:
        if self.case != "plate2d":
            raise ConfigInvalid(f"unknown case '{self.case}'")
        for name in ("n_samples", "seed", "min_nodes_per_side",
                     "max_nodes_per_side"):
            value = getattr(self, name)
            # numpy's integers too, but never a bool
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ConfigInvalid(f"{name} must be an integer, not {value!r}")
        for name in ("amplitude_range", "load_range"):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(isinstance(v, numbers.Real)
                            and not isinstance(v, bool) for v in pair)):
                raise ConfigInvalid(
                    f"{name} must be a pair of real numbers, not {pair!r}")
        if self.n_samples < 2:
            raise ConfigInvalid("n_samples must be at least 2")
        if not 2 <= self.min_nodes_per_side <= self.max_nodes_per_side:
            raise ConfigInvalid(
                f"resolution range ({self.min_nodes_per_side}, "
                f"{self.max_nodes_per_side}) is empty or below 2")
        for name, (lo, hi) in (("amplitude", self.amplitude_range),
                               ("load", self.load_range)):
            # hi - lo also overflows for finite bounds numpy cannot sample
            if not math.isfinite(hi - lo):
                raise ConfigInvalid(
                    f"{name} range ({lo}, {hi}) is not finite")
            if not lo <= hi:
                raise ConfigInvalid(f"{name} range ({lo}, {hi}) is empty")
        # the top boundary is 1 + a*sin(pi*x): at a = -1 it touches the
        # bottom (u divides by 1 + a) and below it the plate folds
        if self.amplitude_range[0] <= -1.0:
            raise ConfigInvalid(
                f"amplitude lower bound {self.amplitude_range[0]} must exceed -1")


def _sample_rng(seed: int, sample_id: int) -> np.random.Generator:
    key = ((int(seed) & 0xFFFFFFFFFFFFFFFF) << 64) | (sample_id & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.Philox(key=key))


def plate_fields(coords: np.ndarray, amplitude: float, load: float):
    """Closed-form output field and its x-derivative at the given nodes."""
    x = coords[:, 0]
    y = coords[:, 1]
    envelope = load * (1.0 + amplitude * y)
    wave_y = np.sin(np.pi * y / (1.0 + amplitude))
    u = envelope * np.sin(np.pi * x) * wave_y
    du_dx = envelope * np.pi * np.cos(np.pi * x) * wave_y
    return u, du_dx


def _plate_mesh(resolution: int) -> tuple:
    """The grid, top sine, TRI_3 connectivity and tags of one resolution."""
    r = resolution
    s = np.linspace(0.0, 1.0, r)
    xg, tg = np.meshgrid(s, s, indexing="ij")  # node id = i + r*j

    i, j = np.meshgrid(np.arange(r - 1), np.arange(r - 1), indexing="ij")
    v00 = (i + r * j).ravel(order="F")
    v10 = v00 + 1
    v01 = v00 + r
    v11 = v01 + 1
    triangles = np.concatenate([
        np.stack([v00, v10, v11], axis=1),
        np.stack([v00, v11, v01], axis=1)], axis=0)
    triangles.setflags(write=False)  # shared by every plate, never copied
    tags = [make_tag("bottom", np.arange(r), TagKind.NodalTag),  # row j = 0
            make_tag("top", np.arange(r) + r * (r - 1), TagKind.NodalTag)]
    return (xg.ravel(order="F"), tg.ravel(order="F"),
            np.sin(np.pi * xg).ravel(order="F"), triangles, tags)


def build_plate_sample(config: SynthConfig, sample_id: int) -> Sample:
    return _plate_sample(config, sample_id, {})


def _plate_sample(config: SynthConfig, sample_id: int, meshes: dict) -> Sample:
    """Plate ``sample_id`` on its resolution's parts, kept in ``meshes``."""
    rng = _sample_rng(config.seed, sample_id)
    amplitude = rng.uniform(*config.amplitude_range)
    load = rng.uniform(*config.load_range)
    resolution = int(rng.integers(config.min_nodes_per_side,
                                  config.max_nodes_per_side + 1))
    if (mesh := meshes.get(resolution)) is None:
        mesh = meshes[resolution] = _plate_mesh(resolution)
    x, t, sin_top, triangles, tags = mesh
    # the shared sine, then exactly rounded * and +: a lone plate's bits
    coords = np.stack([x, t * (1.0 + amplitude * sin_top)], axis=1)
    u, du_dx = plate_fields(coords, amplitude, load)
    for a in (coords, u, du_dx):
        a.setflags(write=False)  # the zone holds them as they are
    zone = make_unstructured_zone(
        "Zone", coords,
        blocks=[(ElementType.TRI_3, triangles)],
        fields=[make_field("u", u, Location.Vertex),
                make_field("du_dx", du_dx, Location.Vertex)],
        tags=tags)
    tree = build_tree([Base("Base_2_2", 2, 2, (zone,))], time=0.0)
    scalars = {"a": amplitude, "p": load, "u_max": float(np.max(u))}
    return Sample(trees={0.0: tree}, scalars=scalars)


def _make_splits(n_samples: int) -> tuple[dict[str, list[int]], dict[int, str]]:
    n_train = int(0.8 * n_samples)
    n_train = max(1, n_train)
    train = list(range(n_train))
    test = list(range(n_train, n_samples))
    splits = {"train": train, "test": test}
    for k in sorted({max(1, n_train // 4), max(1, n_train // 2), n_train}):
        splits[f"train_{k}"] = train[:k]
    hidden = None
    if len(test) >= 2:
        half = len(test) // 2
        hidden = {sid: PUBLIC for sid in test[:half]}
        hidden.update({sid: PRIVATE for sid in test[half:]})
    return splits, hidden


def generate(config: SynthConfig, threads: int = 1) -> Dataset:
    """Generate the synthetic dataset described by the config.

    Deterministic for a fixed config, bitwise.  Samples are built
    sequentially; ``threads`` is accepted for callers that pass it and
    otherwise ignored.
    """
    config.validate()
    meshes = {}  # one per call: no cache pins a mesh past its dataset
    samples = [_plate_sample(config, i, meshes) for i in range(config.n_samples)]
    splits, hidden = _make_splits(config.n_samples)
    problem = ProblemDefinition(
        task="Regression",
        in_scalars_names=["a", "p"],
        out_scalars_names=["u_max"],
        in_fields_names=[],
        out_fields_names=["du_dx", "u"],
        splits=splits,
        hidden_partition=hidden,
    )
    lo, hi = int(config.min_nodes_per_side), int(config.max_nodes_per_side)
    infos = {
        "case": config.case,
        "seed": int(config.seed),
        "n_samples": int(config.n_samples),
        "resolution_range": [lo, hi],
        CONSTANT_MESH_KEY: lo == hi,
    }
    return Dataset(samples=samples, infos=infos, problem=problem)

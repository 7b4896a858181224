"""Shared mesh/sample builders for the test suite."""

from __future__ import annotations

import json

import numpy as np
import pytest
from scipy.spatial import Delaunay

from meshbench import (
    Base,
    ElementType,
    LinkSpec,
    Location,
    Sample,
    TagKind,
    build_tree,
    make_field,
    make_tag,
    make_unstructured_zone,
)
from meshbench.tree import Zone, ZoneType


def read_artifact(path):
    """The manifest document of an artifact file and the payload after it."""
    line, _, payload = path.read_bytes().partition(b"\n")
    return json.loads(line), payload


def write_artifact(path, doc, payload=b""):
    """An artifact file holding ``doc`` as its manifest line, then ``payload``."""
    path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)


def square_zone(field_values=None, name="Fluid", field_name="mach"):
    """4-node unit square split into two triangles."""
    coords = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    fields = []
    if field_values is not None:
        fields.append(make_field(field_name, field_values, Location.Vertex))
    return make_unstructured_zone(
        name, coords, blocks=[(ElementType.TRI_3, [[0, 1, 2], [0, 2, 3]])],
        fields=fields,
        tags=[make_tag("inlet", [0, 3], TagKind.NodalTag)])


def blade_zone(field_values, name="Blade"):
    """3-node 1-D blade surface embedded in 2-D."""
    coords = [[0.0, 0.0], [0.5, 0.1], [1.0, 0.0]]
    return make_unstructured_zone(
        name, coords, blocks=[(ElementType.BAR_2, [[0, 1], [1, 2]])],
        fields=[make_field("M_iso", field_values, Location.Vertex)])


@pytest.fixture
def two_base_sample():
    """Two-base sample with a linked second time step.

    t=0: 2-D fluid base (square, "mach") + 1-D blade base ("M_iso").
    t=0.01: same structure, geometry linked to t=0, updated fields plus an
    element-located "EROSION_STATUS".
    """
    tree0 = build_tree([
        Base("Base_2_2", 2, 2, (square_zone([0.5, 0.6, 0.7, 0.8]),)),
        Base("Base_1_2", 1, 2, (blade_zone([1.0, 1.1, 1.2]),)),
    ], time=0.0)

    fluid_t1 = Zone(
        name="Fluid", zone_type=ZoneType.Unstructured, n_vertices=4,
        coordinates=None,
        fields=(make_field("mach", [0.55, 0.65, 0.75, 0.85], Location.Vertex),
                make_field("EROSION_STATUS", [0.0, 1.0], Location.CellCenter)),
        tags=(make_tag("inlet", [0, 3], TagKind.NodalTag),))
    blade_t1 = Zone(
        name="Blade", zone_type=ZoneType.Unstructured, n_vertices=3,
        coordinates=None,
        fields=(make_field("M_iso", [1.0, 1.05, 1.1], Location.Vertex),))
    tree1 = build_tree(
        [Base("Base_2_2", 2, 2, (fluid_t1,)),
         Base("Base_1_2", 1, 2, (blade_t1,))],
        time=0.01,
        links=[LinkSpec(0.0, ("Base_2_2/Fluid", "Base_1_2/Blade"))])

    return Sample(trees={0.0: tree0, 0.01: tree1},
                  scalars={"P": 101325.0, "Omega": 3000.0},
                  time_series={"residual": [(0.0, 1.0), (0.01, 0.1)]})


def random_disk_mesh(rng: np.random.Generator, n_points: int):
    """Random Delaunay triangulation of points in a square (disk topology)."""
    pts = rng.uniform(-1.0, 1.0, size=(n_points, 2))
    return pts, Delaunay(pts).simplices


def square_triangulation(seed: int, n_interior: int):
    """Unit-square triangulation with boundary nodes on all four edges."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, 7)[1:-1]
    boundary = np.concatenate([
        [[0, 0], [1, 0], [1, 1], [0, 1]],
        np.stack([t, np.zeros_like(t)], axis=1),
        np.stack([np.ones_like(t), t], axis=1),
        np.stack([t, np.ones_like(t)], axis=1),
        np.stack([np.zeros_like(t), t], axis=1)])
    interior = rng.uniform(0.05, 0.95, size=(n_interior, 2))
    pts = np.vstack([boundary, interior])
    return pts, Delaunay(pts).simplices

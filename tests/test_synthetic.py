import hashlib
import math

import numpy as np
import pytest

from meshbench import (SynthConfig, datasets_equal, generate, samples_equal,
                       save_dataset, validate_dataset)
from meshbench.errors import ConfigInvalid
from meshbench.morphing import build_surface_mesh, tutte_embed
from meshbench.mmgp import extract_triangle_geometry
from meshbench.synthetic import build_plate_sample

#: many samples per resolution, and resolutions down to 2 nodes per side
SHARING_CONFIG = SynthConfig(n_samples=12, seed=3, min_nodes_per_side=2,
                             max_nodes_per_side=6)


def test_deterministic_regeneration():
    a = generate(SynthConfig(n_samples=6, seed=42))
    b = generate(SynthConfig(n_samples=6, seed=42), threads=3)
    assert datasets_equal(a, b)


def test_fields_match_closed_form_oracle():
    ds = generate(SynthConfig(n_samples=4, seed=3))
    for sid in range(4):
        s = ds.sample_at(sid)
        a = s.get_scalar("a")
        p = s.get_scalar("p")
        coords = s.get_nodes(base_name="Base_2_2")
        u = s.get_field("u")
        du = s.get_field("du_dx")
        for i in range(coords.shape[0]):
            x, y = coords[i]
            expected_u = p * (1 + a * y) * math.sin(math.pi * x) * \
                math.sin(math.pi * y / (1 + a))
            expected_du = p * (1 + a * y) * math.pi * math.cos(math.pi * x) * \
                math.sin(math.pi * y / (1 + a))
            assert abs(u[i] - expected_u) <= 1e-14 * max(1, abs(expected_u))
            assert abs(du[i] - expected_du) <= 1e-14 * max(1, abs(expected_du))
        assert s.get_scalar("u_max") == u.max()


def test_flat_plate_has_zero_field_on_horizontal_boundaries():
    ds = generate(SynthConfig(n_samples=2, seed=1, amplitude_range=(0.0, 0.0)))
    s = ds.sample_at(0)
    coords = s.get_nodes(base_name="Base_2_2")
    u = s.get_field("u")
    boundary = (np.abs(coords[:, 1]) < 1e-15) | (np.abs(coords[:, 1] - 1) < 1e-12)
    assert np.abs(u[boundary]).max() < 1e-13


def test_split_layout_n10():
    ds = generate(SynthConfig(n_samples=10, seed=0))
    splits = ds.problem.splits
    assert len(splits["train"]) == 8
    assert len(splits["test"]) == 2
    assert splits["train_2"] == splits["train_4"][:2]
    assert set(splits["train_2"]) <= set(splits["train_4"]) <= set(splits["train_8"])
    part = ds.problem.hidden_partition
    assert sorted(part) == splits["test"]
    assert sorted(set(part.values())) == ["Private", "Public"]


def test_generated_dataset_validates_clean():
    ds = generate(SynthConfig(n_samples=8, seed=5))
    assert validate_dataset(ds).empty


def test_meshes_are_disk_topology():
    ds = generate(SynthConfig(n_samples=4, seed=9, min_nodes_per_side=5,
                              max_nodes_per_side=9))
    for sid in range(4):
        coords, triangles = extract_triangle_geometry(ds.sample_at(sid))
        positions = tutte_embed(build_surface_mesh(coords, triangles))
        assert np.isfinite(positions).all()


def test_nodal_tags_mark_top_and_bottom_rows():
    ds = generate(SynthConfig(n_samples=2, seed=4))
    s = ds.sample_at(0)
    coords = s.get_nodes(base_name="Base_2_2")
    tags = s.get_nodal_tags(base_name="Base_2_2")
    assert np.allclose(coords[tags["bottom"], 1], 0.0)
    top_y = coords[tags["top"], 1]
    assert (top_y >= 1.0 - 1e-12).all()


@pytest.mark.parametrize("values", [
    {"n_samples": 2.5}, {"n_samples": "5"}, {"n_samples": True},
    {"seed": 1.5}, {"seed": False}, {"min_nodes_per_side": 2.5},
    {"max_nodes_per_side": np.float64(20.0)},
    {"amplitude_range": (0.1,)}, {"amplitude_range": (0.0, 0.1, 0.2)},
    {"amplitude_range": 0.3}, {"amplitude_range": (0.0, True)},
    {"load_range": (1, "2")}, {"load_range": None}])
def test_config_types_rejected(values):
    with pytest.raises(ConfigInvalid):
        generate(SynthConfig(**values))


def test_numpy_integers_accepted():
    config = SynthConfig(n_samples=np.int64(4), seed=np.int32(2),
                         min_nodes_per_side=np.int64(4),
                         max_nodes_per_side=np.int64(5),
                         load_range=(np.float64(0.5), 2))
    ds = generate(config)
    assert datasets_equal(ds, generate(SynthConfig(
        n_samples=4, seed=2, min_nodes_per_side=4, max_nodes_per_side=5)))
    assert validate_dataset(ds).empty


def test_invalid_configs_rejected():
    with pytest.raises(ConfigInvalid):
        generate(SynthConfig(n_samples=1))
    with pytest.raises(ConfigInvalid):
        generate(SynthConfig(case="cube3d"))
    with pytest.raises(ConfigInvalid):
        generate(SynthConfig(min_nodes_per_side=9, max_nodes_per_side=5))
    with pytest.raises(ConfigInvalid):
        generate(SynthConfig(amplitude_range=(0.5, 0.1)))
    for bad in ((0.0, math.inf), (-math.inf, 0.3), (math.nan, 0.3),
                (-1e308, 1e308)):
        with pytest.raises(ConfigInvalid):
            generate(SynthConfig(amplitude_range=bad))
        with pytest.raises(ConfigInvalid):
            generate(SynthConfig(load_range=bad))
    # at a = -1 the top boundary meets the bottom; below it the plate folds
    for lo in (-1.0, -1.5):
        with pytest.raises(ConfigInvalid):
            generate(SynthConfig(amplitude_range=(lo, 0.3)))


def test_saved_bytes_are_pinned(tmp_path):
    # the digest of this dataset as written before plates shared their mesh
    save_dataset(generate(SHARING_CONFIG), tmp_path / "ds")
    digest = hashlib.sha256()
    for path in sorted(p for p in (tmp_path / "ds").rglob("*") if p.is_file()):
        digest.update(path.relative_to(tmp_path / "ds").as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    assert digest.hexdigest() == ("52147c375f9b0764065b5c759ea20bba"
                                  "cd1378eed865a0cff3b0038d9dfe1c48")


def test_plates_of_one_resolution_share_their_mesh_and_tags():
    ds = generate(SHARING_CONFIG)
    first = {}  # resolution -> (connectivity, tag ids) of its first plate
    connectivities = set()
    for sid in range(ds.n_samples):
        zone = ds.sample_at(sid).get_mesh().bases[0].zones[0]
        (block,) = zone.element_blocks
        shared = (block.connectivity, *(tag.ids for tag in zone.tags))
        assert all(a is b for a, b in zip(
            shared, first.setdefault(zone.n_vertices, shared), strict=True))
        connectivities.add(id(block.connectivity))
        arrays = [zone.coordinates, *shared, *(f.values for f in zone.fields)]
        assert not any(a.flags.writeable for a in arrays)
    assert 1 < len(first) < ds.n_samples  # some resolution has several plates
    assert len(connectivities) == len(first)


def test_plate_built_alone_equals_the_generated_one():
    ds = generate(SHARING_CONFIG)
    for sid in range(ds.n_samples):
        assert samples_equal(build_plate_sample(SHARING_CONFIG, sid),
                             ds.sample_at(sid))

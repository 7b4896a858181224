import numpy as np
import pytest

from meshbench import pod_fit, pod_project, pod_reconstruct
from meshbench.errors import DegenerateInputs, RankDeficient, ShapeMismatch
from meshbench.pod import numerical_rank, pod_basis


def test_exact_low_rank_reconstruction():
    rng = np.random.default_rng(1)
    base = rng.normal(size=40)
    d1 = rng.normal(size=40)
    d2 = rng.normal(size=40)
    snaps = np.stack([base + a * d1 + b * d2
                      for a, b in rng.normal(size=(8, 2))])
    basis = pod_fit(snaps, 2)
    for snap in snaps:
        rec = pod_reconstruct(basis, pod_project(basis, snap))
        assert np.abs(rec - snap).max() < 1e-10


def test_identical_snapshots_are_rank_deficient():
    snaps = np.tile(np.arange(5.0), (4, 1))
    with pytest.raises(RankDeficient):
        pod_fit(snaps, 1)


def test_k_beyond_min_dimension_rejected():
    with pytest.raises(RankDeficient):
        pod_fit(np.random.default_rng(0).normal(size=(3, 10)), 4)


def test_singular_values_match_dense_svd_oracle():
    rng = np.random.default_rng(2)
    snaps = rng.normal(size=(5, 40))  # N > s: exercises the Gram route
    basis = pod_fit(snaps, 3)
    oracle = np.linalg.svd(snaps - snaps.mean(axis=0), compute_uv=False)
    assert np.abs(basis.singular_values - oracle[:3]).max() < 1e-10
    assert np.all(np.diff(basis.singular_values) <= 0)


def test_modes_are_orthonormal():
    rng = np.random.default_rng(3)
    for s, n in ((5, 40), (12, 6)):  # both code paths
        basis = pod_fit(rng.normal(size=(s, n)), min(s, n) - 1)
        gram = basis.modes.T @ basis.modes
        assert np.abs(gram - np.eye(basis.n_modes)).max() < 1e-10


def test_project_mean_gives_zero():
    rng = np.random.default_rng(4)
    basis = pod_fit(rng.normal(size=(6, 20)), 3)
    assert np.abs(pod_project(basis, basis.mean)).max() < 1e-12


def test_project_single_mode():
    rng = np.random.default_rng(5)
    basis = pod_fit(rng.normal(size=(6, 20)), 3)
    coeffs = pod_project(basis, basis.mean + basis.modes[:, 0])
    expected = np.zeros(3)
    expected[0] = 1.0
    assert np.abs(coeffs - expected).max() < 1e-10


def test_projection_residual_orthogonal_to_modes():
    rng = np.random.default_rng(6)
    basis = pod_fit(rng.normal(size=(7, 30)), 4)
    field = rng.normal(size=30)
    residual = field - pod_reconstruct(basis, pod_project(basis, field))
    assert np.abs(basis.modes.T @ residual).max() < 1e-10


def test_reconstruction_error_non_increasing_in_k():
    rng = np.random.default_rng(7)
    snaps = rng.normal(size=(10, 25))
    errors = []
    for k in range(1, 9):
        basis = pod_fit(snaps, k)
        err = sum(np.linalg.norm(
            s - pod_reconstruct(basis, pod_project(basis, s))) for s in snaps)
        errors.append(err)
    assert all(a >= b - 1e-10 for a, b in zip(errors, errors[1:]))


def test_sign_convention_largest_entry_positive():
    rng = np.random.default_rng(8)
    basis = pod_fit(rng.normal(size=(6, 15)), 4)
    for j in range(basis.n_modes):
        col = basis.modes[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_fit_is_deterministic():
    rng = np.random.default_rng(9)
    snaps = rng.normal(size=(6, 50))
    a = pod_fit(snaps, 3)
    b = pod_fit(snaps.copy(), 3)
    assert a.modes.tobytes() == b.modes.tobytes()
    assert a.singular_values.tobytes() == b.singular_values.tobytes()


def test_shape_mismatch_on_project():
    basis = pod_fit(np.random.default_rng(10).normal(size=(4, 12)), 2)
    with pytest.raises(ShapeMismatch):
        pod_project(basis, np.zeros(5))
    with pytest.raises(ShapeMismatch):
        pod_reconstruct(basis, np.zeros(3))


def test_numerical_rank_and_mean_only_basis():
    for s, n in ((5, 9), (12, 6)):  # Gram and SVD routes
        snaps = np.tile(np.linspace(0, 1, n), (s, 1))
        assert numerical_rank(snaps) == 0
        basis = pod_basis(snaps, 3)
        assert basis.n_modes == 0 and basis.modes.shape == (n, 0)
        assert basis.singular_values.shape == (0,)
        assert pod_project(basis, snaps[0]).shape == (0,)
        rec = pod_reconstruct(basis, np.zeros(0))
        assert np.array_equal(rec, snaps.mean(axis=0))


def test_gram_route_keeps_no_round_off_mode():
    # centering leaves 5 random snapshots rank 4: a thin SVD puts the 5th
    # singular value at 1.6e-16 relative, the Gram route's eigh near 1e-8
    snaps = np.random.default_rng(0).normal(size=(5, 40))
    assert np.linalg.svd(snaps - snaps.mean(axis=0), compute_uv=False)[4] \
        < 1e-14 * np.linalg.norm(snaps)
    assert pod_basis(snaps, 99).n_modes == 4


@pytest.mark.parametrize("shape", [(5, 40), (12, 6)])  # Gram and SVD routes
def test_pod_basis_matches_pod_fit_and_clamps(shape):
    rng = np.random.default_rng(11)
    s, n = shape
    # a mean plus min(s, n) - 2 directions
    snaps = (rng.normal(size=n) + rng.normal(size=(s, min(s, n) - 2))
             @ rng.normal(size=(min(s, n) - 2, n)))
    rank = numerical_rank(snaps)
    assert rank == min(s, n) - 2
    for k in range(1, rank + 1):
        clamped, strict = pod_basis(snaps, k), pod_fit(snaps, k)
        for name in ("mean", "modes", "singular_values"):
            assert getattr(clamped, name).tobytes() == \
                getattr(strict, name).tobytes()
    # the signal modes against a dense SVD of the centered snapshots
    _, sv, vt = np.linalg.svd(snaps - snaps.mean(axis=0))
    basis = pod_basis(snaps, min(s, n) - 2)
    assert np.abs(basis.singular_values - sv[:basis.n_modes]).max() < 1e-10
    assert np.abs(np.abs(vt[:basis.n_modes] @ basis.modes)
                  - np.eye(basis.n_modes)).max() < 1e-8
    for k in (rank + 1, min(s, n) + 5):
        clamped = pod_basis(snaps, k)
        assert clamped.modes.tobytes() == pod_fit(snaps, rank).modes.tobytes()
        with pytest.raises(RankDeficient):
            pod_fit(snaps, k)


@pytest.mark.parametrize("value", [3.7, 1.0, 0.1, 1e6])
def test_rank_measured_against_the_data_scale(value):
    # a constant up to rounding: the centered rows are pure round-off, so
    # their singular values must not count however they compare to each
    # other
    snaps = np.full((10, 40), value)
    snaps[::3] = np.nextafter(value, np.inf)
    assert np.linalg.svd(snaps - snaps.mean(axis=0), compute_uv=False)[0] > 0
    assert numerical_rank(snaps) == 0
    assert pod_basis(snaps, 9).n_modes == 0
    # a real variation many orders above round-off still counts
    snaps[0, 0] += value * 1e-9
    assert numerical_rank(snaps) == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(6, 40), (40, 6)])  # Gram and SVD routes
def test_non_finite_snapshot_rejected(value, shape):
    snaps = np.random.default_rng(5).normal(size=shape)
    snaps[2, 3] = value
    for call in (lambda: pod_basis(snaps, 2), lambda: pod_fit(snaps, 2),
                 lambda: numerical_rank(snaps)):
        with pytest.raises(DegenerateInputs, match="non-finite"):
            call()

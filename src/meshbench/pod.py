"""Snapshot proper orthogonal decomposition (snapshot PCA).

Snapshots are rows of an (s, N) matrix.  The basis holds the columnwise
mean and the top-k orthonormal modes of the centered matrix; when N > s
the modes come from an eigen-decomposition of the small s-by-s Gram matrix
instead of a dense SVD.  Mode signs follow a fixed convention (the entry
of largest magnitude is positive) so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputs, RankDeficient, ShapeMismatch

#: centered singular values at or below this fraction of the snapshots'
#: Frobenius norm do not count towards the numerical rank
RANK_RTOL = 1e-12


@dataclass(frozen=True)
class PodBasis:
    mean: np.ndarray              # (N,)
    modes: np.ndarray             # (N, k), orthonormal columns
    singular_values: np.ndarray   # (k,), non-increasing

    @property
    def n_modes(self) -> int:
        return self.modes.shape[1]


def _fix_signs(modes: np.ndarray) -> np.ndarray:
    for j in range(modes.shape[1]):
        pivot = np.argmax(np.abs(modes[:, j]))
        if modes[pivot, j] < 0:
            modes[:, j] = -modes[:, j]
    return modes


def _snapshot_matrix(snapshots) -> np.ndarray:
    a = np.asarray(snapshots, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeMismatch(f"snapshots must be 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DegenerateInputs("snapshots contain non-finite entries")
    return a


def pod_basis(snapshots, max_modes: int) -> PodBasis:
    """Top modes of the centered (s, N) snapshot matrix, at most
    ``max_modes`` and no more than its numerical rank.

    A singular value counts towards the rank when it exceeds RANK_RTOL
    times the Frobenius norm of the (uncentered) snapshots, so snapshots
    that are constant up to rounding keep no mode.  On the Gram route it
    must also exceed sqrt(s * eps) times the largest singular value, the
    precision at which that route resolves them.  At rank 0 the basis
    holds the mean alone: projection yields an empty coefficient vector
    and reconstruction returns the mean.
    """
    a = _snapshot_matrix(snapshots)
    s, n = a.shape
    mean = a.mean(axis=0)
    centered = a - mean

    tol = RANK_RTOL * np.linalg.norm(a)
    if n > s:
        eigvals, eigvecs = np.linalg.eigh(centered @ centered.T)
        order = np.argsort(eigvals)[::-1]
        eigvecs = eigvecs[:, order]
        sv = np.sqrt(np.clip(eigvals[order], 0.0, None))
        # eigh resolves the Gram eigenvalues to about s*eps*sv[0]**2, so
        # singular values below sqrt(s*eps)*sv[0] are its round-off
        tol = max(tol, np.sqrt(s * np.finfo(np.float64).eps)
                  * sv.max(initial=0.0))
    else:
        _, sv, vt = np.linalg.svd(centered, full_matrices=False)
    k = min(max_modes, int(np.sum(sv > tol)))

    if n > s:
        modes = centered.T @ eigvecs[:, :k] / sv[:k]
        # Gram-route modes lose orthogonality when values decay; re-polish
        modes, r = np.linalg.qr(modes)
        modes = modes * np.sign(np.diag(r))
    else:
        modes = vt[:k].T.copy()

    modes = _fix_signs(np.ascontiguousarray(modes))
    modes.setflags(write=False)
    mean.setflags(write=False)
    sv_k = np.ascontiguousarray(sv[:k])
    sv_k.setflags(write=False)
    return PodBasis(mean=mean, modes=modes, singular_values=sv_k)


def pod_fit(snapshots, k: int) -> PodBasis:
    """Exactly k modes of the centered (s, N) snapshot matrix.

    Raises RankDeficient when k exceeds min(s, N) or the numerical rank
    (see pod_basis).
    """
    a = _snapshot_matrix(snapshots)
    s, n = a.shape
    if not 1 <= k <= min(s, n):
        raise RankDeficient(
            f"mode count {k} outside [1, min(s={s}, N={n})]")
    basis = pod_basis(a, k)
    if basis.n_modes < k:
        raise RankDeficient(
            f"requested {k} modes but numerical rank is {basis.n_modes}")
    return basis


def numerical_rank(snapshots) -> int:
    """Rank of the centered snapshot matrix at the RANK_RTOL tolerance."""
    a = _snapshot_matrix(snapshots)
    return pod_basis(a, min(a.shape)).n_modes


def pod_project(basis: PodBasis, field) -> np.ndarray:
    """Coefficients of the field in the mode subspace: modes^T (f - mean)."""
    f = np.asarray(field, dtype=np.float64)
    if f.shape != basis.mean.shape:
        raise ShapeMismatch(
            f"field shape {f.shape} does not match basis size "
            f"{basis.mean.shape}")
    return basis.modes.T @ (f - basis.mean)


def pod_reconstruct(basis: PodBasis, coefficients) -> np.ndarray:
    """mean + modes @ coefficients."""
    c = np.asarray(coefficients, dtype=np.float64)
    if c.shape != (basis.n_modes,):
        raise ShapeMismatch(
            f"coefficient shape {c.shape} does not match mode count "
            f"{basis.n_modes}")
    return basis.mean + basis.modes @ c

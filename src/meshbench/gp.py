"""Gaussian-process regression with ARD kernels and a deterministic,
gradient-based hyperparameter search.

Targets are a vector (n,) or a matrix (n, k) of k outputs that share one
kernel, as the POD coefficients of one field do.  Inputs are standardized
per dimension; each target column is centred by its own mean and all of
them are divided by one output scale, the largest column std, so
predictions are invariant under affine re-scaling of the raw targets.

The kernel matrix is K = s2 (R + g I), with R the unit-variance kernel
matrix and g a nugget relative to the variance.  For given lengthscales the
log marginal likelihood, summed over the columns, is largest at the closed
form s2 = tr(Y^T (R + g I)^-1 Y) / (n k), so the search runs over the
per-dimension lengthscales alone and maximizes that concentrated (profile)
likelihood: projected BFGS with the analytic gradient from a fixed start in
a log-space box, stopping on a fixed budget, a small gain or a failed line
search (a trial whose R + g I does not factorise only shortens the step).
The same data always yields the same model, on any machine and thread
count.  The likelihood uses the lower triangle of R + g I alone, built and
factorised in place by LAPACK; the fit and gp_predict use that one factor.
A fitted model stores s2 as its variance and g s2 as its (absolute) jitter.

The fit calls LAPACK and BLAS through the function pointers that scipy's
Cython modules export, by ctypes, which releases the GIL for the length of
each call; so fits on several threads factorise at the same time.  Those
pointers are resolved on the first factorisation in a process, so that
importing this module loads no scipy: a process that stores, validates or
scores data never pays for scipy.linalg.

Kernels (r is the ARD-scaled distance):

    Matern52:  s2 * (1 + sqrt(5) r + 5 r^2 / 3) * exp(-sqrt(5) r)
    RBF:       s2 * exp(-r^2 / 2)
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigInvalid, DegenerateInputs, ShapeMismatch, SingularKernel

KERNEL_KINDS = ("Matern52", "RBF")

#: the nugget g, relative to the kernel variance
DEFAULT_JITTER = 1e-12

#: log-space search bounds of the lengthscales, 1e-3..1e3
_LS_BOUNDS = (np.log(1e-3), np.log(1e3))
#: BFGS: iteration budget, Armijo constant, step shrink, least step and gain
_MAX_ITERATIONS = 40
_ARMIJO = 1e-4
_SHRINK = 0.25
_MIN_STEP = 1e-6
_MIN_GAIN = 1e-6


@dataclass(frozen=True)
class Kernel:
    kind: str
    variance: float             # s2
    lengthscales: np.ndarray    # (d,), strictly positive

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigInvalid(f"unknown kernel kind '{self.kind}'")
        if not (0 < self.variance < np.inf and np.all(
                (self.lengthscales > 0) & (self.lengthscales < np.inf))):
            raise ConfigInvalid("kernel parameters must be finite and > 0")


def _scaled_sq_dists(x1: np.ndarray, x2: np.ndarray,
                     lengthscales: np.ndarray) -> np.ndarray:
    a = x1 / lengthscales
    b = x2 / lengthscales
    # (a-b)^2 summed over dims, computed stably pairwise
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _kernel_values(kind: str, variance, r2: np.ndarray, out: np.ndarray,
                   scratch: np.ndarray) -> np.ndarray:
    """Kernel values at squared scaled distances ``r2`` (overwritten), into
    ``out``.  Every step writes into a given buffer, in one fixed operation
    order, so an entry rounds the same wherever it is computed."""
    if kind == "RBF":
        np.multiply(r2, -0.5, out=out)
        np.exp(out, out=out)
        return np.multiply(out, variance, out=out)
    sqrt5_r = np.sqrt(np.maximum(r2, 0.0, out=scratch), out=scratch)
    np.multiply(sqrt5_r, np.sqrt(5.0), out=sqrt5_r)
    np.add(sqrt5_r, 1.0, out=out)
    np.add(out, np.multiply(r2, 5.0 / 3.0, out=r2), out=out)
    np.multiply(out, variance, out=out)
    np.exp(np.negative(sqrt5_r, out=sqrt5_r), out=sqrt5_r)
    return np.multiply(out, sqrt5_r, out=out)


def kernel_matrix(kernel: Kernel, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    r2 = _scaled_sq_dists(x1, x2, kernel.lengthscales)
    return _kernel_values(kernel.kind, kernel.variance, r2,
                          np.empty_like(r2), np.empty_like(r2))


def kernel_eval(kernel: Kernel, x, x_other) -> float:
    """Covariance between two points (dimension-checked scalar form)."""
    a = np.atleast_1d(np.asarray(x, dtype=np.float64))
    b = np.atleast_1d(np.asarray(x_other, dtype=np.float64))
    if a.shape != b.shape or a.shape != kernel.lengthscales.shape:
        raise ShapeMismatch(
            f"point dims {a.shape}/{b.shape} vs kernel dims "
            f"{kernel.lengthscales.shape}")
    return float(kernel_matrix(kernel, a[None, :], b[None, :])[0, 0])


@dataclass(frozen=True)
class GpModel:
    kernel: Kernel
    x_train: np.ndarray     # (n, d) standardized inputs
    alpha: np.ndarray       # (n,) or (n, k) C-ordered dual coefficients
    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float | np.ndarray  # scalar, or (k,) column means
    y_std: float                # one output scale for every column
    jitter: float               # K + jitter I was factorised


def _exported(module, name: str, *argtypes):
    """The routine that scipy's Cython ``module`` exports as ``name``, as a
    ctypes function (every argument a pointer, Fortran style)."""
    capsule = module.__pyx_capi__[name]
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    return ctypes.CFUNCTYPE(None, *argtypes)(
        get_pointer(capsule, get_name(capsule)))


_CHAR, _INT, _ARRAY = (ctypes.c_char_p, ctypes.POINTER(ctypes.c_int),
                       ctypes.c_void_p)
_REAL = ctypes.POINTER(ctypes.c_double)


@functools.cache
def _routines() -> dict:
    """The five LAPACK and BLAS routines the fit calls, by name, resolved on
    the first call in a process.  Importing scipy.linalg costs about 28 MB
    of resident memory, which a process that never fits a GP should not
    pay.  Two threads that race here may both resolve them; each gets the
    same functions."""
    from scipy.linalg import cython_blas, cython_lapack
    return {
        "dpotrf": _exported(cython_lapack, "dpotrf", _CHAR, _INT, _ARRAY,
                            _INT, _INT),
        "dpotri": _exported(cython_lapack, "dpotri", _CHAR, _INT, _ARRAY,
                            _INT, _INT),
        "dpotrs": _exported(cython_lapack, "dpotrs", _CHAR, _INT, _INT,
                            _ARRAY, _INT, _ARRAY, _INT, _INT),
        "dtrtrs": _exported(cython_lapack, "dtrtrs", _CHAR, _CHAR, _CHAR,
                            _INT, _INT, _ARRAY, _INT, _ARRAY, _INT, _INT),
        "dsyrk": _exported(cython_blas, "dsyrk", _CHAR, _CHAR, _INT, _INT,
                           _REAL, _ARRAY, _INT, _REAL, _ARRAY, _INT),
    }


def _address(a: np.ndarray, shape: tuple) -> int:
    """Where ``a`` starts, once it is known to be a writable Fortran-ordered
    float64 array whose leading dimensions are ``shape``."""
    if not (a.dtype == np.float64 and a.flags.f_contiguous
            and a.flags.writeable and a.ndim <= 2
            and a.shape[:len(shape)] == shape):
        raise ValueError(f"need a writable Fortran-ordered float64 array of "
                         f"shape {shape}+, got {a.dtype} {a.shape}")
    return a.ctypes.data


def _lapack(routine: str, *args) -> int:
    """Call LAPACK's ``routine`` with ``args`` and its trailing ``info``;
    return ``info``, raising on an illegal argument (info < 0)."""
    info = ctypes.c_int()
    _routines()[routine](*args, ctypes.byref(info))
    if info.value < 0:
        raise ValueError(f"LAPACK argument {-info.value} is illegal")
    return info.value


def _int(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _columns(b: np.ndarray) -> int:
    return b.shape[1] if b.ndim == 2 else 1


def _potrf(a: np.ndarray) -> int:
    """Lower Cholesky factor L of the (n, n) ``a`` in place of its lower
    triangle; info > 0 where ``a`` is not positive definite."""
    n = len(a)
    return _lapack("dpotrf", b"L", _int(n), _address(a, (n, n)), _int(n))


def _potri(a: np.ndarray) -> int:
    """(L L^T)^-1 in place of L, the lower triangle of ``a``."""
    n = len(a)
    return _lapack("dpotri", b"L", _int(n), _address(a, (n, n)), _int(n))


def _potrs(a: np.ndarray, b: np.ndarray) -> int:
    """X = (L L^T)^-1 B in place of ``b`` (n,) or (n, k), with L the lower
    triangle of ``a``."""
    n = len(a)
    return _lapack("dpotrs", b"L", _int(n), _int(_columns(b)),
                   _address(a, (n, n)), _int(n), _address(b, (n,)), _int(n))


def _trtrs(a: np.ndarray, b: np.ndarray) -> int:
    """X = L^-1 B in place of ``b`` (n,) or (n, k), with L the lower
    triangle of ``a``; info > 0 where L has a zero on its diagonal."""
    n = len(a)
    return _lapack("dtrtrs", b"L", b"N", b"N", _int(n), _int(_columns(b)),
                   _address(a, (n, n)), _int(n), _address(b, (n,)), _int(n))


def _syrk(alpha: float, a: np.ndarray, beta: float, c: np.ndarray) -> None:
    """C = alpha A A^T + beta C in the lower triangle of ``c`` (n, n), for
    ``a`` (n,) or (n, k)."""
    n = len(c)
    _routines()["dsyrk"](
        b"L", b"N", _int(n), _int(_columns(a)),
        ctypes.byref(ctypes.c_double(alpha)), _address(a, (n,)), _int(n),
        ctypes.byref(ctypes.c_double(beta)), _address(c, (n, n)), _int(n))


def _standardize_inputs(x: np.ndarray):
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (x - mean) / std, mean, std


def _lml_evaluator(kind: str, x: np.ndarray, y: np.ndarray, nugget: float):
    """The concentrated LML at log-lengthscales theta = (log l_1..d), summed
    over the columns of ``y`` (n,) or (n, k), its gradient, and the n x n
    buffer that holds L (zeros above it) after a finite ``lml(theta)``.

    ``lml(theta)`` returns the LML at its maximiser in the variance,
    -(nk/2) (log(2 pi s2) + 1) - k sum log diag L, and that maximiser
    s2 = |L^-1 y|^2 / (nk), where L L^T = R + nugget I; it returns (-inf,
    nan) where R + nugget I does not factorise.  The per-dimension squared
    differences of the n(n+1)/2 lower-triangle pairs are computed once.
    Each new theta fills only the lower triangle of one reused
    Fortran-ordered buffer, which LAPACK's lower Cholesky factorises in
    place, and needs one (multi-RHS) triangular solve.  Every LAPACK and
    BLAS call runs without the GIL.  ``gradient(theta)``
    must follow a finite ``lml(theta)``: it turns that factor into
    (R + nugget I)^-1 in place.
    """
    y = np.asfortranarray(y.reshape(len(y), -1))  # read only: solves copy it
    n, k = y.shape
    cols, rows = np.triu_indices(n)  # lower-triangle pairs, column by column
    m = len(rows)
    # zero-padded to whole 4-entry blocks: OpenBLAS's gemv sums the last
    # (length mod 4) entries in another order, and without the padding those
    # would round differently from the same entries of an n x n product
    sq_dists_unit = np.zeros((x.shape[1], -(-m // 4) * 4))
    for j in range(x.shape[1]):  # one dimension at a time, to save memory
        sq_dists_unit[j, :m] = np.square(x[rows, j] - x[cols, j])
    r2, values, scratch = (np.empty(sq_dists_unit.shape[1]) for _ in range(3))
    flat = np.zeros(n * n)
    k_matrix = flat.reshape(n, n, order="F")
    lower_index = rows + n * cols
    diag_index = np.arange(n) * (n + 1)
    variance = np.nan  # the maximiser at the last finite lml

    def lml(theta: np.ndarray) -> tuple[float, float]:
        nonlocal variance
        np.dot(np.exp(-2.0 * theta), sq_dists_unit, out=r2)
        _kernel_values(kind, 1.0, r2, values, scratch)
        flat[lower_index] = values[:m]
        flat[diag_index] += nugget
        if _potrf(k_matrix) > 0:
            return -np.inf, np.nan
        z = y.copy(order="F")
        _trtrs(k_matrix, z)
        z = z.ravel(order="F")
        variance = float(z @ z) / (n * k)
        return (float(-0.5 * n * k * (np.log(2.0 * np.pi * variance) + 1.0)
                      - k * np.sum(np.log(np.diag(k_matrix)))), variance)

    def gradient(theta: np.ndarray) -> np.ndarray:
        """1/2 tr(W dR/dtheta) with W = a a^T / s2 - k (R + nugget I)^-1,
        a = (R + nugget I)^-1 y and dR/dlog l_j = -2 (dk/dr2) r2_j: the
        gradient of the full LML at s2, whose own derivative there is 0."""
        alpha = y.copy(order="F")
        _potrs(k_matrix, alpha)
        _potri(k_matrix)
        _syrk(1.0 / variance, alpha, -k, k_matrix)  # W
        inv_l2 = np.exp(-2.0 * theta)
        np.dot(inv_l2, sq_dists_unit, out=r2)
        if kind == "RBF":  # dk/dr2 = -k / 2
            _kernel_values(kind, -0.5, r2, values, scratch)
        else:  # dk/dr2 = -(5/6) (1 + sqrt5 r) exp(-sqrt5 r)
            sqrt5_r = np.multiply(np.sqrt(r2, out=r2), np.sqrt(5.0), out=r2)
            np.exp(np.negative(sqrt5_r, out=scratch), out=scratch)
            np.multiply(np.add(sqrt5_r, 1.0, out=values), scratch, out=values)
            np.multiply(values, -5.0 / 6.0, out=values)
        # the padding of r2 is still zero; diagonal pairs have zero distance,
        # and each off-diagonal pair stands for two entries
        np.take(flat, lower_index, out=r2[:m], mode="clip")
        np.multiply(r2, values, out=r2)
        return -2.0 * inv_l2 * np.dot(sq_dists_unit, r2)

    return lml, gradient, k_matrix


def gp_fit(x, y, kind: str = "Matern52", jitter: float = DEFAULT_JITTER) -> GpModel:
    """Fit a GP with maximum-marginal-likelihood hyperparameters to targets
    ``y`` of shape (n,) or (n, k); the k columns share the kernel.
    ``jitter`` is the nugget relative to the kernel variance.

    Raises DegenerateInputs when every target column is constant, for fewer
    than two points, no input dimensions or non-finite entries;
    SingularKernel if R + g I does not factorise at the start or at the
    fitted lengthscales.
    """
    if kind not in KERNEL_KINDS:
        raise ConfigInvalid(f"unknown kernel kind '{kind}'")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape
    if n < 2 or d == 0:
        raise DegenerateInputs(f"need 2+ points and 1+ inputs, got {x.shape}")
    if y.ndim not in (1, 2) or y.shape[0] != n:
        raise ShapeMismatch(f"{n} inputs vs targets of shape {y.shape}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DegenerateInputs("training data contains non-finite entries")
    if not np.ptp(y, axis=0).any():
        raise DegenerateInputs("targets are constant; nothing to regress")

    x_std, x_mean, x_scale = _standardize_inputs(x)
    y_mean = np.mean(y, axis=0)
    y_scale = float(np.max(np.std(y, axis=0)))
    y_std = (y - y_mean) / y_scale

    lower_b, upper_b = _LS_BOUNDS
    theta = np.zeros(d)  # start at l_d = 1
    lml, gradient, lower = _lml_evaluator(kind, x_std, y_std, jitter)
    value = lml(theta)[0]
    if value == -np.inf:
        raise SingularKernel(f"start kernel singular at nugget {jitter:g}")
    grad = gradient(theta)
    inv_hessian = np.eye(d)  # BFGS estimate for -LML
    step = 1.0
    for _ in range(_MAX_ITERATIONS):
        # a coordinate at a bound that its gradient pushes against stays put
        free = ~(((theta <= lower_b) & (grad < 0))
                 | ((theta >= upper_b) & (grad > 0)))
        direction = free * (inv_hessian @ (free * grad))
        direction /= max(1.0, np.abs(direction).max())  # at most 1 per step
        while step >= _MIN_STEP:
            trial = np.clip(theta + step * direction, lower_b, upper_b)
            # -inf where R + jitter I fails, which no step accepts
            trial_value = lml(trial)[0]
            if trial_value >= value + _ARMIJO * (grad @ (trial - theta)):
                break
            step *= _SHRINK
        else:
            break
        s, theta = trial - theta, trial
        if trial_value - value <= _MIN_GAIN * abs(trial_value):
            break
        value, trial_grad = trial_value, gradient(trial)
        change, grad = grad - trial_grad, trial_grad
        if (curvature := s @ change) > 0:
            v = np.eye(d) - np.outer(s, change) / curvature
            inv_hessian = v @ inv_hessian @ v.T + np.outer(s, s) / curvature
        step = min(1.0, 2.0 * step)

    # refactorise where gp_predict will: log(exp(theta)) may differ from theta
    lengthscales = np.exp(theta)
    value, variance = lml(np.log(lengthscales))
    if value == -np.inf:
        raise SingularKernel(f"fitted kernel singular at nugget {jitter:g}")
    kernel = Kernel(kind=kind, variance=variance, lengthscales=lengthscales)
    alpha = np.array(y_std, order="F")
    _potrs(lower, alpha)
    alpha = np.ascontiguousarray(alpha / variance)
    return GpModel(kernel=kernel, x_train=x_std, alpha=alpha, x_mean=x_mean,
                   x_std=x_scale, y_mean=y_mean if y.ndim == 2 else float(y_mean),
                   y_std=y_scale, jitter=jitter * variance)


def gp_mean(model: GpModel, x_query) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean per query point, (q,) or (q, k), and the (n, q)
    train-query covariance it was computed from."""
    xq = np.atleast_2d(np.asarray(x_query, dtype=np.float64))
    if xq.shape[1] != model.x_train.shape[1]:
        raise ShapeMismatch(
            f"query dim {xq.shape[1]} vs model dim {model.x_train.shape[1]}")
    xq_std = (xq - model.x_mean) / model.x_std
    k_star = kernel_matrix(model.kernel, model.x_train, xq_std)
    return model.y_mean + model.y_std * (k_star.T @ model.alpha), k_star


def gp_predict(model: GpModel, x_query) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance (clamped at zero, shared by all target
    columns) per query point, from the fit's factor of R + g I, rebuilt
    bit for bit (g = jitter / variance; 1 + g rounds as in the fit)."""
    mean, k_star = gp_mean(model, x_query)
    s2 = model.kernel.variance
    # any targets will do: the factor does not depend on them
    lml, _, lower = _lml_evaluator(model.kernel.kind, model.x_train,
                                   np.ones(len(k_star)), model.jitter / s2)
    if lml(np.log(model.kernel.lengthscales))[0] == -np.inf:
        raise SingularKernel(f"kernel singular at jitter {model.jitter:g}")
    v = np.asfortranarray(k_star)  # overwritten by L^-1 k_star
    _trtrs(lower, v)
    var_std = np.clip(s2 - np.einsum("ij,ij->j", v, v) / s2, 0.0, None)
    return mean, model.y_std ** 2 * var_std

import math
import threading
import time

import numpy as np
import pytest
from scipy.linalg import blas, cho_solve, cholesky, lapack, solve_triangular

import meshbench.gp as gp_module
from meshbench import Kernel, gp_fit, gp_predict, kernel_eval
from meshbench.errors import (
    ConfigInvalid,
    DegenerateInputs,
    ShapeMismatch,
    SingularKernel,
)
from meshbench.gp import (
    DEFAULT_JITTER,
    _LS_BOUNDS,
    _lml_evaluator,
    _potrf,
    _potri,
    _potrs,
    _syrk,
    _trtrs,
    gp_mean,
    kernel_matrix,
)


def oracle_matern52(x, z, variance, lengthscales):
    r = math.sqrt(sum(((a - b) / l) ** 2
                      for a, b, l in zip(x, z, lengthscales)))
    return variance * (1 + math.sqrt(5) * r + 5 * r * r / 3) * \
        math.exp(-math.sqrt(5) * r)


def oracle_rbf(x, z, variance, lengthscales):
    r2 = sum(((a - b) / l) ** 2 for a, b, l in zip(x, z, lengthscales))
    return variance * math.exp(-r2 / 2)


def test_kernel_at_zero_distance_is_variance():
    for kind in ("Matern52", "RBF"):
        k = Kernel(kind, 2.5, np.array([0.7, 1.3]))
        assert kernel_eval(k, [0.2, -1.0], [0.2, -1.0]) == 2.5


def test_rbf_at_sqrt2():
    k = Kernel("RBF", 1.0, np.array([1.0, 1.0]))
    value = kernel_eval(k, [1.0, 1.0], [0.0, 0.0])  # r^2 = 2
    assert abs(value - math.exp(-1.0)) < 1e-15


def test_matern52_matches_formula_oracle():
    rng = np.random.default_rng(20)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        x = rng.normal(size=d)
        z = rng.normal(size=d)
        variance = float(rng.uniform(0.1, 5.0))
        ls = rng.uniform(0.2, 3.0, size=d)
        k = Kernel("Matern52", variance, ls)
        assert abs(kernel_eval(k, x, z)
                   - oracle_matern52(x, z, variance, ls)) < 1e-14


def test_rbf_matches_formula_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        x, z = rng.normal(size=d), rng.normal(size=d)
        variance = float(rng.uniform(0.5, 2.0))
        ls = rng.uniform(0.3, 2.0, size=d)
        k = Kernel("RBF", variance, ls)
        assert abs(kernel_eval(k, x, z) - oracle_rbf(x, z, variance, ls)) < 1e-14


def test_kernel_params_must_be_positive():
    for variance, lengthscale in ((0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
                                  (1.0, -1.0), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ConfigInvalid):
            Kernel("RBF", variance, np.array([1.0, lengthscale]))
    with pytest.raises(ConfigInvalid):
        Kernel("Nope", 1.0, np.array([1.0]))


def test_constant_targets_rejected():
    X = np.linspace(0, 1, 5)[:, None]
    with pytest.raises(DegenerateInputs):
        gp_fit(X, np.full(5, 3.3))
    with pytest.raises(DegenerateInputs):  # every column constant
        gp_fit(X, np.tile([3.3, -1.0], (5, 1)))


def test_single_point_rejected():
    with pytest.raises(DegenerateInputs):
        gp_fit(np.zeros((1, 1)), np.array([1.0]))


def test_no_input_dimensions_rejected():
    with pytest.raises(DegenerateInputs, match="1\\+ inputs"):
        gp_fit(np.zeros((5, 0)), np.arange(5.0))


def test_nonfinite_rejected():
    with pytest.raises(DegenerateInputs):
        gp_fit(np.array([[0.0], [np.nan]]), np.array([1.0, 2.0]))


def test_three_point_interpolation():
    X = np.array([[0.0], [0.5], [1.0]])
    y = np.array([1.0, -0.3, 0.7])
    model = gp_fit(X, y)
    mean, _ = gp_predict(model, X)
    assert np.abs(mean - y).max() < 1e-6


def test_linear_function_heldout_accuracy():
    rng = np.random.default_rng(22)
    X = rng.uniform(0, 1, size=(8, 2))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + 0.5
    model = gp_fit(X, y, kind="RBF")
    Xq = rng.uniform(0.15, 0.85, size=(5, 2))
    mean, _ = gp_predict(model, Xq)
    truth = 3.0 * Xq[:, 0] - 2.0 * Xq[:, 1] + 0.5
    assert np.abs(mean - truth).max() < 1e-3


def test_prior_reversion_far_from_data():
    rng = np.random.default_rng(23)
    X = rng.uniform(0, 1, size=(6, 2))
    y = np.sin(3.0 * X[:, 0]) + X[:, 1]
    model = gp_fit(X, y, kind="Matern52")
    # >= 50 lengthscales away in standardized space
    offset = 60.0 * model.kernel.lengthscales.max() * model.x_std.max()
    mean, var = gp_predict(model, np.array([[offset, offset]]))
    assert abs(mean[0] - model.y_mean) < 1e-6
    assert abs(var[0] - model.kernel.variance * model.y_std ** 2) < 1e-6


def test_variance_at_training_point_is_jitter_scale():
    rng = np.random.default_rng(24)
    X = rng.uniform(0, 1, size=(7, 2))
    y = np.cos(2.0 * X[:, 0]) - 0.5 * X[:, 1]
    model = gp_fit(X, y)
    _, var = gp_predict(model, X)
    assert var.max() <= 2.0 * model.jitter * model.y_std ** 2


def test_two_point_model_matches_hand_solved_system():
    X = np.array([[0.0], [1.0]])
    y = np.array([1.0, 3.0])
    model = gp_fit(X, y)
    xq = np.array([[0.25], [0.8]])
    mean, _ = gp_predict(model, xq)

    # oracle: dense solve of the 2x2 system with the fitted hyperparameters
    def k(a, b):
        return kernel_eval(model.kernel, [a], [b])

    xs = ((X - model.x_mean) / model.x_std).ravel()
    ys = (y - model.y_mean) / model.y_std
    K = np.array([[k(xs[0], xs[0]) + model.jitter, k(xs[0], xs[1])],
                  [k(xs[1], xs[0]), k(xs[1], xs[1]) + model.jitter]])
    alpha = np.linalg.solve(K, ys)
    for point, got in zip(xq.ravel(), mean):
        q = (point - model.x_mean[0]) / model.x_std[0]
        want = model.y_mean + model.y_std * \
            (np.array([k(q, xs[0]), k(q, xs[1])]) @ alpha)
        assert abs(got - want) < 1e-12


def test_mean_invariant_under_affine_output_rescaling():
    rng = np.random.default_rng(25)
    X = rng.uniform(-1, 1, size=(10, 2))
    y = np.sin(2 * X[:, 0]) * X[:, 1] + 0.3
    Xq = rng.uniform(-0.8, 0.8, size=(6, 2))
    base, _ = gp_predict(gp_fit(X, y), Xq)
    for a, b in ((2.0, 0.0), (100.0, -7.0), (0.01, 3.0)):
        scaled, _ = gp_predict(gp_fit(X, a * y + b), Xq)
        assert np.abs(scaled - (a * base + b)).max() < 1e-10 * max(1.0, abs(a))


def test_fit_is_deterministic():
    rng = np.random.default_rng(26)
    X = rng.uniform(0, 1, size=(9, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + np.sin(X[:, 0])
    m1 = gp_fit(X, y)
    m2 = gp_fit(X.copy(), y.copy())
    assert m1.alpha.tobytes() == m2.alpha.tobytes()
    assert m1.kernel.variance == m2.kernel.variance
    assert m1.kernel.lengthscales.tobytes() == m2.kernel.lengthscales.tobytes()


def test_predict_dimension_mismatch():
    model = gp_fit(np.random.default_rng(0).normal(size=(5, 2)),
                   np.arange(5.0))
    with pytest.raises(ShapeMismatch):
        gp_predict(model, np.zeros((1, 3)))


def test_duplicate_inputs_survive_via_jitter():
    X = np.array([[0.5], [0.5], [1.0]])
    y = np.array([1.0, 1.0, 2.0])
    model = gp_fit(X, y)
    mean, _ = gp_predict(model, np.array([[0.75]]))
    assert np.isfinite(mean).all()


def test_gp_mean_is_gp_predict_mean():
    rng = np.random.default_rng(27)
    X = rng.uniform(0, 1, size=(12, 2))
    model = gp_fit(X, np.sin(4.0 * X[:, 0]) + X[:, 1])
    Xq = rng.uniform(0, 1, size=(5, 2))
    mean, k_star = gp_mean(model, Xq)
    assert mean.tobytes() == gp_predict(model, Xq)[0].tobytes()
    assert k_star.shape == (12, 5)


@pytest.mark.parametrize("kind", ["Matern52", "RBF"])
def test_gp_predict_refactors_the_fits_cholesky_factor(kind, monkeypatch):
    # per evaluator that gp_fit or gp_predict builds: its buffer, and a copy
    # of it after each finite LML, the factor of R + g I there
    evaluators = []

    def recording(*args):
        lml, gradient, buffer = real(*args)
        factors = []
        evaluators.append((buffer, factors))

        def recorded(log_ls):
            value = lml(log_ls)
            if np.isfinite(value[0]):
                factors.append(buffer.copy())
            return value
        return recorded, gradient, buffer

    real = gp_module._lml_evaluator
    monkeypatch.setattr(gp_module, "_lml_evaluator", recording)
    rng = np.random.default_rng(28)
    X = rng.uniform(0, 1, size=(25, 2))
    Y = np.stack([np.sin(4.0 * X[:, 0]), X[:, 1] ** 2, X[:, 0] * X[:, 1]],
                 axis=1)
    model = gp_fit(X, Y, kind=kind)
    Xq = rng.uniform(0, 1, size=(6, 2))
    mean, var = gp_predict(model, Xq)
    (fit_buffer, fit_factors), (predict_buffer, predict_factors) = evaluators
    # the fit solved with its last factor, which nothing overwrote
    fit_factor = fit_factors[-1]
    assert fit_buffer.tobytes() == fit_factor.tobytes()
    y_std = (Y - model.y_mean) / model.y_std
    assert model.alpha.tobytes() == np.ascontiguousarray(cho_solve(
        (fit_factor, True), y_std) / model.kernel.variance).tobytes()
    assert len(predict_factors) == 1
    assert predict_factors[0].tobytes() == fit_factor.tobytes()
    assert predict_buffer.tobytes() == fit_factor.tobytes()
    # the variance a model storing the fit's factor computed
    k_star = kernel_matrix(model.kernel, model.x_train,
                           (Xq - model.x_mean) / model.x_std)
    v = solve_triangular(fit_factor, k_star, lower=True)
    s2 = model.kernel.variance
    want = model.y_std ** 2 * np.clip(
        s2 - np.einsum("ij,ij->j", v, v) / s2, 0.0, None)
    assert var.tobytes() == want.tobytes()
    assert mean.shape == (6, 3) and var.shape == (6,)


@pytest.mark.parametrize("kind", ["Matern52", "RBF"])
def test_no_dense_training_kernel_is_built(kind, monkeypatch):
    # the evaluator's packed lower triangle is the only training kernel
    pairs = []

    def recording(kernel, x1, x2):
        pairs.append((x1, x2))
        return real(kernel, x1, x2)

    real = gp_module.kernel_matrix
    monkeypatch.setattr(gp_module, "kernel_matrix", recording)
    rng = np.random.default_rng(36)
    X = rng.uniform(0, 1, size=(20, 2))
    model = gp_fit(X, np.sin(3.0 * X[:, 0]) + X[:, 1], kind=kind)
    gp_predict(model, rng.uniform(0, 1, size=(4, 2)))
    assert pairs  # gp_mean's train-query covariance
    assert not any(x2.shape == model.x_train.shape for _, x2 in pairs)


def test_gp_predict_raises_where_the_model_does_not_factorise():
    # a repeated input and no nugget: R is singular
    x_train = np.array([[0.0], [0.0], [1.0]])
    model = gp_module.GpModel(
        kernel=Kernel("Matern52", 1.0, np.ones(1)), x_train=x_train,
        alpha=np.ones(3), x_mean=np.zeros(1), x_std=np.ones(1), y_mean=0.0,
        y_std=1.0, jitter=0.0)
    with pytest.raises(SingularKernel):
        gp_predict(model, np.array([[0.5]]))


def test_multi_output_fit_shares_one_output_scale():
    rng = np.random.default_rng(29)
    X = rng.uniform(-1, 1, size=(15, 2))
    Y = np.stack([10.0 * np.sin(2.0 * X[:, 0]) + 4.0, X[:, 1] - 1.0], axis=1)
    model = gp_fit(X, Y)
    assert model.y_mean.tobytes() == Y.mean(axis=0).tobytes()
    assert model.y_std == Y[:, 0].std()
    assert model.alpha.shape == (15, 2) and model.alpha.flags.c_contiguous
    mean, _ = gp_predict(model, X)
    assert np.abs(mean - Y).max() < 1e-4 * np.abs(Y).max()


# ---------------------------------------------------------------------------
# log marginal likelihood: the in-place evaluator against a dense oracle

def dense_kernel(theta, kind, x):
    """The full kernel matrix at theta = (log s2, log l_1..d)."""
    diff = x[:, None, :] - x[None, :, :]
    sq_dists_unit = np.ascontiguousarray(np.moveaxis(diff * diff, 2, 0))
    variance = np.exp(theta[0])
    inv_l2 = np.exp(-2.0 * theta[1:])
    r2 = np.tensordot(inv_l2, sq_dists_unit, axes=1)
    if kind == "RBF":
        return variance * np.exp(-0.5 * r2)
    r = np.sqrt(np.clip(r2, 0.0, None))
    sqrt5_r = np.sqrt(5.0) * r
    return variance * (1.0 + sqrt5_r + (5.0 / 3.0) * r2) * np.exp(-sqrt5_r)


def dense_lml(theta, kind, x, y, jitter):
    """The LML at theta = (log s2, log l_1..d) from the full kernel matrix
    plus ``jitter`` I, two-sided Cholesky solve."""
    n = len(y)
    try:
        lower = cholesky(dense_kernel(theta, kind, x) + jitter * np.eye(n),
                         lower=True)
    except np.linalg.LinAlgError:
        return -np.inf
    alpha = cho_solve((lower, True), y)
    k = 1 if y.ndim == 1 else y.shape[1]
    fit = y @ alpha if y.ndim == 1 else np.sum(y * alpha)
    return float(-0.5 * fit - k * np.sum(np.log(np.diag(lower)))
                 - 0.5 * k * n * np.log(2.0 * np.pi))


def dense_profile(log_ls, kind, x, y, nugget=DEFAULT_JITTER):
    """The concentrated LML at log-lengthscales ``log_ls`` and the variance
    s2 that attains it, from the full unit-variance kernel matrix R:
    -(nk/2) (log(2 pi s2) + 1) - k sum log diag L with L L^T = R + nugget I
    and s2 = tr(y^T (R + nugget I)^-1 y) / (nk), or (-inf, nan) where
    R + nugget I does not factorise."""
    r_matrix = dense_kernel(np.concatenate([[0.0], log_ls]), kind, x)
    try:
        lower = cholesky(r_matrix + nugget * np.eye(len(y)), lower=True)
    except np.linalg.LinAlgError:
        return -np.inf, np.nan
    s2 = float(np.sum(y * cho_solve((lower, True), y)) / y.size)
    k = y.size // len(y)
    return (float(-0.5 * y.size * (np.log(2.0 * np.pi * s2) + 1.0)
                  - k * np.sum(np.log(np.diag(lower)))), s2)


#: the coordinate grid search that gp_fit used before its gradient search:
#: per-sweep half-widths of a 9-point candidate grid, one pass over every
#: parameter and the variance/lengthscale ridge direction each, in a box
#: that also bounded the variance (log 1e-6..1e6)
_SWEEP_SPANS = (3.0, 3.0, 1.5, 0.75, 0.375, 0.1875)
_GRID_POINTS = 9
_GRID_VAR_BOUNDS = (np.log(1e-6), np.log(1e6))


def dense_search(kind, x, y, jitter=1e-10):
    """A brute-force coordinate grid search over (log s2, log l_1..d),
    driven by the dense oracle at an absolute jitter."""
    d = x.shape[1]
    lower_b = np.concatenate([[_GRID_VAR_BOUNDS[0]], np.full(d, _LS_BOUNDS[0])])
    upper_b = np.concatenate([[_GRID_VAR_BOUNDS[1]], np.full(d, _LS_BOUNDS[1])])
    directions = [np.eye(1 + d)[c] for c in range(1 + d)]
    directions.append(np.concatenate([[2.0], np.ones(d)]))
    theta = np.zeros(1 + d)
    for span in _SWEEP_SPANS:
        for direction in directions:
            best_theta, best_lml = theta, -np.inf
            for offset in np.linspace(-span, span, _GRID_POINTS):
                trial = np.clip(theta + offset * direction, lower_b, upper_b)
                lml = dense_lml(trial, kind, x, y, jitter)
                if lml > best_lml:
                    best_lml, best_theta = lml, trial
            theta = best_theta
    return theta


def central_differences(log_ls, kind, x, y, h):
    return np.array([(dense_profile(log_ls + h * e, kind, x, y)[0]
                      - dense_profile(log_ls - h * e, kind, x, y)[0]) / (2 * h)
                     for e in np.eye(len(log_ls))])


def _check_evaluator_against_oracle(kind, x, y, rng):
    lml, gradient, _ = _lml_evaluator(kind, x, y, DEFAULT_JITTER)
    finite = compared = 0
    for _ in range(20):
        log_ls = rng.uniform(*_LS_BOUNDS, size=3)
        want, s2 = dense_profile(log_ls, kind, x, y)
        got, got_s2 = lml(log_ls)
        if np.isinf(want):
            assert got == -np.inf and np.isnan(got_s2)
            continue
        finite += 1
        assert abs(got - want) <= 1e-12 * abs(want)
        assert abs(got_s2 - s2) <= 1e-12 * s2
        # the concentrated LML is the full LML at its maximiser s2, with the
        # jitter DEFAULT_JITTER * s2, and 10 % off s2 either way it drops by
        # (nk/2)(0.1 + exp(-0.1) - 1) > 0.002 nk; the full LML rounds s2 R
        # and R differently, by about eps cond(R + jitter I) relative
        eigenvalues = np.linalg.eigvalsh(
            dense_kernel(np.concatenate([[0.0], log_ls]), kind, x)
            + DEFAULT_JITTER * np.eye(len(y)))
        tol = (1e-12 + 1e-16 * eigenvalues[-1] / eigenvalues[0]) * abs(want)
        full = [dense_lml(np.concatenate([[np.log(s2) + step], log_ls]),
                          kind, x, y, DEFAULT_JITTER * s2 * np.exp(step))
                for step in (-0.1, 0.0, 0.1)]
        assert abs(full[1] - want) <= tol
        assert max(full[0], full[2]) < want - 0.002 * y.size + tol
        grad = gradient(log_ls)
        # where the kernel matrix is so ill-conditioned that the LML's own
        # rounding swamps a difference quotient, two step sizes disagree and
        # the differences are no oracle; where they agree, Richardson
        # extrapolation of the two cancels their h^2 term
        fd = central_differences(log_ls, kind, x, y, 1e-4)
        fd_wide = central_differences(log_ls, kind, x, y, 2e-4)
        scale = np.abs(fd).max()
        if scale > 0 and np.isfinite(fd_wide).all() and \
                np.abs(fd - fd_wide).max() <= 1e-6 * scale:
            compared += 1
            assert np.abs(grad - (4.0 * fd - fd_wide) / 3.0).max() <= 1e-6 * scale
        assert lml(log_ls) == (got, got_s2)  # refactorised after the gradient
    assert finite >= 5 and compared >= 5


@pytest.mark.parametrize("kind", ["Matern52", "RBF"])
def test_lml_evaluator_matches_dense_oracle(kind):
    rng = np.random.default_rng(30)
    x = rng.normal(size=(40, 3))
    y = np.sin(x @ np.array([1.0, -0.5, 0.3])) + 0.1 * rng.normal(size=40)
    _check_evaluator_against_oracle(kind, x, y, rng)


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("kind", ["Matern52", "RBF"])
def test_lml_evaluator_matches_dense_oracle_multi_output(kind, k):
    rng = np.random.default_rng(33)
    x = rng.normal(size=(40, 3))
    y = np.sin(x @ rng.normal(size=(3, k))) + 0.1 * rng.normal(size=(40, k))
    _check_evaluator_against_oracle(kind, x, y, rng)


@pytest.mark.parametrize("kind", ["Matern52", "RBF"])
def test_lml_evaluator_failed_factorisation_is_minus_inf(kind):
    # duplicated inputs at the lengthscale upper bound: a nugget of 1e-16
    # is below the rounding of the near-constant kernel matrix
    x = np.concatenate([np.linspace(0.0, 1.0, 8), [0.0, 0.2]])[:, None]
    y = np.sin(3.0 * x[:, 0])
    log_ls = np.array([_LS_BOUNDS[1]])
    assert dense_profile(log_ls, kind, x, y, 1e-16)[0] == -np.inf
    value, variance = _lml_evaluator(kind, x, y, 1e-16)[0](log_ls)
    assert value == -np.inf and np.isnan(variance)


def _spd(rng, n):
    a = rng.normal(size=(n, n))
    return np.asfortranarray(a @ a.T / n + np.eye(n))


@pytest.mark.parametrize("columns", [None, 8])
def test_foreign_lapack_calls_match_scipy_bit_for_bit(columns):
    rng = np.random.default_rng(51)
    n = 60
    a = _spd(rng, n)
    b = np.asfortranarray(rng.normal(size=(n,) if columns is None
                                     else (n, columns)))

    factor = a.copy(order="F")
    assert _potrf(factor) == 0
    want, info = lapack.dpotrf(a, lower=1, clean=0)
    assert info == 0 and factor.tobytes() == want.tobytes()

    for ours, theirs in [(_potrs, lapack.dpotrs), (_trtrs, lapack.dtrtrs)]:
        x = b.copy(order="F")
        assert ours(factor, x) == 0
        want, info = theirs(factor, b, lower=1)
        assert info == 0 and x.tobytes() == want.tobytes()

    inverse = factor.copy(order="F")
    assert _potri(inverse) == 0
    want, info = lapack.dpotri(factor, lower=1)
    assert info == 0 and inverse.tobytes() == want.tobytes()

    c = inverse.copy(order="F")
    _syrk(0.7, b, -3.0, c)
    want = blas.dsyrk(0.7, b, beta=-3.0, c=inverse, lower=1)
    assert c.tobytes() == want.tobytes()


def test_foreign_potrf_reports_an_indefinite_matrix():
    a = _spd(np.random.default_rng(52), 12)
    a[5, 5] = -1.0
    want = lapack.dpotrf(a, lower=1, clean=0)[1]
    assert want > 0 and _potrf(a.copy(order="F")) == want


def test_foreign_calls_reject_buffers_lapack_cannot_take():
    a = _spd(np.random.default_rng(53), 6)
    for bad in (np.ascontiguousarray(a[:, :5]), a.astype(np.float32),
                a[:5, :5]):
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            _potrf(bad)
    with pytest.raises(ValueError, match="Fortran-ordered float64"):
        _trtrs(a, np.ones((6, 2)))  # C-ordered right-hand side


def test_foreign_potrf_releases_the_gil():
    # while one thread factors, a Python loop on this one keeps running:
    # no gap between its steps spans half of the factorisation
    a = _spd(np.random.default_rng(54), 1500)
    window = []

    def factor():
        start = time.perf_counter()
        info = _potrf(a)
        window.extend([start, time.perf_counter(), info])

    steps = []
    worker = threading.Thread(target=factor)
    worker.start()
    while worker.is_alive():
        steps.append(time.perf_counter())
    worker.join(timeout=60)
    assert not worker.is_alive()
    start, end, info = window
    assert info == 0
    inside = [start] + [t for t in steps if start < t < end] + [end]
    assert max(np.diff(inside)) < 0.5 * (end - start)


def _fitted_theta(model):
    return np.log(np.concatenate([[model.kernel.variance],
                                  model.kernel.lengthscales]))


def _standardized(X, y):
    return (X - X.mean(axis=0)) / X.std(axis=0), (y - y.mean()) / y.std()


@pytest.mark.parametrize("kind", ["Matern52", "RBF"])
def test_fit_lml_is_not_below_dense_search(kind):
    rng = np.random.default_rng(31)
    X = rng.uniform(-1, 1, size=(30, 3))
    y = np.sin(2.0 * X[:, 0]) * X[:, 1] + 0.5 * X[:, 2] ** 2
    model = gp_fit(X, y, kind=kind)
    x_std, y_std = _standardized(X, y)
    grid = dense_lml(dense_search(kind, x_std, y_std), kind, x_std, y_std,
                     1e-10)
    assert dense_lml(_fitted_theta(model), kind, x_std, y_std,
                     model.jitter) >= grid


@pytest.mark.parametrize("kind", ["Matern52", "RBF"])
def test_projected_gradient_vanishes_at_the_fit(kind):
    rng = np.random.default_rng(31)
    X = rng.uniform(-1, 1, size=(30, 3))
    y = np.sin(2.0 * X[:, 0]) * X[:, 1] + 0.5 * X[:, 2] ** 2
    model = gp_fit(X, y, kind=kind)
    x_std, y_std = _standardized(X, y)
    log_ls = np.log(model.kernel.lengthscales)
    lml, gradient, _ = _lml_evaluator(kind, x_std, y_std, DEFAULT_JITTER)
    lml(np.zeros(3))
    start = gradient(np.zeros(3))
    assert lml(log_ls)[1] == model.kernel.variance
    grad = gradient(log_ls)
    # a coordinate at a bound may keep a gradient pointing out of the box
    grad[(log_ls <= _LS_BOUNDS[0]) & (grad < 0)] = 0.0
    grad[(log_ls >= _LS_BOUNDS[1]) & (grad > 0)] = 0.0
    assert np.abs(grad).max() <= 1e-3 * np.abs(start).max()


@pytest.mark.parametrize("kind", ["Matern52", "RBF"])
def test_single_column_target_picks_the_vector_hyperparameters(kind):
    rng = np.random.default_rng(34)
    X = rng.uniform(-1, 1, size=(30, 3))
    y = np.sin(2.0 * X[:, 0]) * X[:, 1] + 0.5 * X[:, 2] ** 2
    vector, column = gp_fit(X, y, kind=kind), gp_fit(X, y[:, None], kind=kind)
    assert column.kernel.variance == vector.kernel.variance
    assert (column.kernel.lengthscales.tobytes()
            == vector.kernel.lengthscales.tobytes())
    assert column.alpha.shape == (30, 1)
    assert column.alpha[:, 0].tobytes() == vector.alpha.tobytes()


@pytest.mark.parametrize("kind", ["Matern52", "RBF"])
def test_ignored_input_drives_its_lengthscale_to_the_upper_bound(kind):
    # y ignores the last input, whose lengthscale the search drives to the
    # upper bound, so trials are clipped there
    rng = np.random.default_rng(35)
    X = rng.uniform(-1, 1, size=(25, 3))
    y = np.sin(2.0 * X[:, 0]) + X[:, 1] ** 2
    model = gp_fit(X, y, kind=kind)
    assert model.kernel.lengthscales[2] == np.exp(_LS_BOUNDS[1])
    x_std, y_std = _standardized(X, y)
    grid = dense_lml(dense_search(kind, x_std, y_std), kind, x_std, y_std,
                     1e-10)
    assert dense_lml(_fitted_theta(model), kind, x_std, y_std,
                     model.jitter) >= grid


def _collinear_fixture(seed, n):
    # the first two inputs are exactly collinear, as gp_heavy's are, and
    # the targets smooth: the LML rises with the lengthscales until the
    # kernel matrix is nearly singular
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1, 1, size=(2, n))
    X = np.stack([a, 0.25 * a, b], axis=1)
    Y = np.stack([np.sin(2 * a) + b ** 2, 0.1 * a * b,
                  0.01 * np.cos(a + b)], axis=1)
    return X, Y


@pytest.mark.parametrize("seed", [0, 1])
def test_no_trial_fails_to_factorise_on_collinear_inputs(seed, monkeypatch):
    # the search that also ran over the variance crept along the
    # variance/lengthscale ridge until K + jitter I stopped factorising
    trials = []

    def recording(*args):
        lml, gradient, factor = real(*args)

        def recorded(log_ls):
            trials.append(lml(log_ls))
            return trials[-1]
        return recorded, gradient, factor

    real = gp_module._lml_evaluator
    monkeypatch.setattr(gp_module, "_lml_evaluator", recording)
    X, Y = _collinear_fixture(seed, 100)
    model = gp_fit(X, Y)
    assert len(trials) > 1
    assert all(np.isfinite(value) for value, _ in trials)
    assert model.jitter == DEFAULT_JITTER * model.kernel.variance
    x_std = (X - X.mean(axis=0)) / X.std(axis=0)
    y_std = (Y - Y.mean(axis=0)) / Y.std(axis=0).max()
    fitted = dense_lml(_fitted_theta(model), "Matern52", x_std, y_std,
                       model.jitter)
    assert fitted >= dense_lml(dense_search("Matern52", x_std, y_std),
                               "Matern52", x_std, y_std, 1e-10)
    value, variance = real("Matern52", x_std, y_std, DEFAULT_JITTER)[0](
        np.log(model.kernel.lengthscales))
    assert variance == model.kernel.variance
    assert abs(value - fitted) <= 1e-6 * abs(fitted)


@pytest.mark.parametrize("kind", ["Matern52", "RBF"])
def test_fitted_system_is_positive_definite_on_collinear_inputs(kind):
    # as on gp_heavy: an amplitude, a shape coefficient proportional to it
    # and a load as inputs, and smooth targets with decaying column scales;
    # an absolute jitter below the rounding of a large fitted variance left
    # K + jitter I with negative computed eigenvalues and alpha resting on
    # rounding, and a jitter relative to the variance keeps it definite
    rng = np.random.default_rng(0)
    a, p = rng.uniform(0.0, 0.2, 200), rng.uniform(0.5, 2.0, 200)
    X = np.stack([a, 0.25 * a, p], axis=1)
    Y = np.stack([p * np.sin(2.0 + 3.0 * a) * np.cos(j * a) / 10.0 ** j
                  for j in range(4)], axis=1)
    model = gp_fit(X, Y, kind=kind)
    k_matrix = kernel_matrix(model.kernel, model.x_train, model.x_train)
    k_matrix += model.jitter * np.eye(len(Y))
    assert np.linalg.eigvalsh(k_matrix).min() > 0.0
    y_std = (Y - model.y_mean) / model.y_std
    residual = np.linalg.norm(k_matrix @ model.alpha - y_std)
    assert residual <= 1e-8 * np.linalg.norm(y_std)


def test_repeated_inputs_factorise_at_the_start():
    # 20 points, each three times: R is singular at the start, and the
    # default nugget is above the rounding of its factorisation, so the
    # start factorises; a nugget below that rounding is a SingularKernel
    X = np.repeat(np.linspace(0.0, 1.0, 20), 3)[:, None]
    y = np.sin(3.0 * X[:, 0])
    x_std, y_std = (X - X.mean()) / X.std(), (y - y.mean()) / y.std()
    for kind in ("Matern52", "RBF"):
        assert np.isfinite(
            _lml_evaluator(kind, x_std, y_std, DEFAULT_JITTER)[0](np.zeros(1))[0])
        model = gp_fit(X, y, kind=kind)
        assert model.jitter == DEFAULT_JITTER * model.kernel.variance
        assert np.abs(gp_predict(model, X)[0] - y).max() < 1e-6
    assert _lml_evaluator("Matern52", x_std, y_std, 1e-20)[0](
        np.zeros(1))[0] == -np.inf
    with pytest.raises(SingularKernel):
        gp_fit(X, y, jitter=1e-20)

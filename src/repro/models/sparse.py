"""Sparse linear models (Table IV): LARS, Lasso, Lasso-LARS, ElasticNet,
Orthogonal Matching Pursuit.

Lasso and ElasticNet fits record their coordinate-descent sweep count
(``n_iter_``) and whether they met the tolerance before the sweep cap
(``converged_``).
"""

import numpy as np

from repro.models.base import register_model
from repro.models.linear import _LinearBase


def _coordinate_descent(Xs, ys, l1, l2, max_iterations=300, tol=1e-6):
    """Elastic-net coordinate descent on standardized data.

    Returns ``(coef, sweeps, converged)``: ``converged`` is whether a
    sweep moved no coefficient by ``tol`` or more before the sweep cap.
    Coefficients are Python floats and the residual is updated through
    one preallocated buffer; each update is the same IEEE operation, in
    the same order, as NumPy-scalar arithmetic on ``coef`` and
    ``residual -= delta * column``.  ``column.dot(residual)`` is the
    BLAS ``ddot`` that ``column @ residual`` calls, on the strided column
    view: a contiguous copy of the column changes its bits.
    """
    n, d = Xs.shape
    coef = [0.0] * d
    col_norms = (Xs ** 2).sum(axis=0)
    residual = ys.copy()
    step = np.empty(n)
    threshold = l1 * n
    # (column index, column view, squared norm, update denominator) for
    # every column that can move; zero-norm columns stay at 0.
    columns = [(j, Xs[:, j], float(col_norms[j]),
                float(col_norms[j]) + l2 * n)
               for j in range(d) if not col_norms[j] <= 1e-12]
    converged = False
    for sweeps in range(1, max_iterations + 1):
        max_delta = 0.0
        for j, column, norm, denominator in columns:
            old = coef[j]
            rho = float(column.dot(residual)) + old * norm
            # Soft threshold of rho at l1 * n.
            if rho > threshold:
                shrunk = rho - threshold
            elif rho < -threshold:
                shrunk = rho + threshold
            else:
                shrunk = 0.0
            new = shrunk / denominator
            delta = new - old
            if delta != 0.0:
                np.multiply(column, delta, out=step)
                np.subtract(residual, step, out=residual)
                coef[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < tol:
            converged = True
            break
    return np.array(coef), sweeps, converged


@register_model("lasso")
class Lasso(_LinearBase):
    def __init__(self, alpha=0.01):
        self.alpha = alpha

    def fit(self, X, y):
        Xs, ys = self._prepare(X, y)
        self.coef_, self.n_iter_, self.converged_ = _coordinate_descent(
            Xs, ys, self.alpha, 0.0)
        return self


@register_model("elasticnet")
class ElasticNet(_LinearBase):
    def __init__(self, alpha=0.01, l1_ratio=0.5):
        self.alpha = alpha
        self.l1_ratio = l1_ratio

    def fit(self, X, y):
        Xs, ys = self._prepare(X, y)
        l1 = self.alpha * self.l1_ratio
        l2 = self.alpha * (1.0 - self.l1_ratio)
        self.coef_, self.n_iter_, self.converged_ = _coordinate_descent(
            Xs, ys, l1, l2)
        return self


def _lars_path(Xs, ys, max_active, lasso=False):
    """Least-angle regression (Efron et al.), optionally in Lasso mode.

    Returns the coefficient vector after ``max_active`` steps (or when the
    correlation vanishes).
    """
    n, d = Xs.shape
    coef = np.zeros(d)
    active = []
    signs = {}
    residual = ys.copy()
    for _ in range(min(max_active, d)):
        correlations = Xs.T @ residual
        correlations[active] = 0.0
        j = int(np.argmax(np.abs(correlations)))
        if abs(correlations[j]) < 1e-10:
            break
        active.append(j)
        signs[j] = np.sign(correlations[j])
        # Solve least squares on the active set and step fully toward it
        # (the classic "LARS as repeated OLS extension" simplification,
        # exact when steps run to the end of the path).
        Xa = Xs[:, active]
        sol, *_ = np.linalg.lstsq(Xa, ys, rcond=None)
        if lasso:
            # Lasso modification: drop variables whose coefficient sign
            # flipped against their entry correlation.
            drop = [k for k, col in enumerate(active)
                    if sol[k] * signs[col] < 0]
            if drop:
                for k in sorted(drop, reverse=True):
                    del active[k]
                if not active:
                    break
                Xa = Xs[:, active]
                sol, *_ = np.linalg.lstsq(Xa, ys, rcond=None)
        coef = np.zeros(d)
        coef[active] = sol
        residual = ys - Xs @ coef
    return coef


@register_model("lars")
class LARS(_LinearBase):
    def __init__(self, n_nonzero_coefs=None):
        self.n_nonzero_coefs = n_nonzero_coefs

    def fit(self, X, y):
        Xs, ys = self._prepare(X, y)
        k = self.n_nonzero_coefs or min(Xs.shape[1], Xs.shape[0] // 2)
        self.coef_ = _lars_path(Xs, ys, k, lasso=False)
        return self


@register_model("lasso-lars")
class LassoLars(_LinearBase):
    def __init__(self, n_nonzero_coefs=None):
        self.n_nonzero_coefs = n_nonzero_coefs

    def fit(self, X, y):
        Xs, ys = self._prepare(X, y)
        k = self.n_nonzero_coefs or min(Xs.shape[1], Xs.shape[0] // 2)
        self.coef_ = _lars_path(Xs, ys, k, lasso=True)
        return self


@register_model("omp")
class OrthogonalMatchingPursuit(_LinearBase):
    def __init__(self, n_nonzero_coefs=None):
        self.n_nonzero_coefs = n_nonzero_coefs

    def fit(self, X, y):
        Xs, ys = self._prepare(X, y)
        n, d = Xs.shape
        k = self.n_nonzero_coefs or max(1, min(d, n // 4))
        active = []
        residual = ys.copy()
        coef = np.zeros(d)
        for _ in range(k):
            correlations = Xs.T @ residual
            correlations[active] = 0.0
            j = int(np.argmax(np.abs(correlations)))
            if abs(correlations[j]) < 1e-10:
                break
            active.append(j)
            Xa = Xs[:, active]
            sol, *_ = np.linalg.lstsq(Xa, ys, rcond=None)
            coef = np.zeros(d)
            coef[active] = sol
            residual = ys - Xa @ sol
        self.coef_ = coef
        return self

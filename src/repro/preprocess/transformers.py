"""Distribution-shaping preprocessors: PowerTransformer (Yeo-Johnson) and
QuantileTransformer (paper Table III, third row)."""

import numpy as np

from repro.preprocess.base import Preprocessor, register_preprocessor


def _yeo_johnson(x, lam):
    out = np.empty_like(x)
    positive = x >= 0
    if abs(lam) > 1e-8:
        out[positive] = ((x[positive] + 1.0) ** lam - 1.0) / lam
    else:
        out[positive] = np.log1p(x[positive])
    if abs(lam - 2.0) > 1e-8:
        out[~positive] = -(((-x[~positive] + 1.0) ** (2.0 - lam)) - 1.0) \
            / (2.0 - lam)
    else:
        out[~positive] = -np.log1p(-x[~positive])
    return out


def _yeo_johnson_columns(X, lambdas):
    """``_yeo_johnson`` of every column of ``X`` with its own lambda, in
    one pass.

    Each element takes the same operations on the same operands as in a
    per-column loop, so the result is bit-identical to it, except where
    the exponent (lambda, or ``2 - lambda`` for negative inputs) is
    exactly 2, 0.5 or -1: a scalar exponent there makes ``np.power``
    square, take the square root or invert instead.  Fitted lambdas are
    1 (constant columns) or golden-section midpoints.
    """
    lam = np.broadcast_to(lambdas, X.shape)
    out = np.empty(X.shape)
    positive = X >= 0
    power = np.abs(lam) > 1e-8
    cell = positive & power
    cell_lam = lam[cell]
    out[cell] = (np.power(X[cell] + 1.0, cell_lam) - 1.0) / cell_lam
    cell = positive & ~power
    out[cell] = np.log1p(X[cell])
    negative = ~positive
    power = np.abs(lam - 2.0) > 1e-8
    cell = negative & power
    cell_lam = 2.0 - lam[cell]
    out[cell] = -(np.power(-X[cell] + 1.0, cell_lam) - 1.0) / cell_lam
    cell = negative & ~power
    out[cell] = -np.log1p(-X[cell])
    return out


def _yeo_johnson_loglik(x, lam):
    n = len(x)
    transformed = _yeo_johnson(x, lam)
    variance = transformed.var()
    if variance <= 1e-12:
        return -np.inf
    loglik = -0.5 * n * np.log(variance)
    loglik += (lam - 1.0) * np.sum(np.sign(x) * np.log1p(np.abs(x)))
    return loglik


def _golden_section(fn, lo, hi, iterations=40):
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iterations):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


@register_preprocessor("power")
class PowerTransformer(Preprocessor):
    """Yeo-Johnson power transform with per-feature MLE lambda, followed
    by standardization."""

    def fit(self, X, y=None):
        X = np.asarray(X, dtype=float)
        self.lambdas_ = np.empty(X.shape[1])
        for j in range(X.shape[1]):
            column = X[:, j]
            if column.std() <= 1e-12:
                self.lambdas_[j] = 1.0
                continue
            self.lambdas_[j] = _golden_section(
                lambda lam, col=column: _yeo_johnson_loglik(col, lam),
                -2.0, 4.0)
        transformed = _yeo_johnson_columns(X, self.lambdas_)
        self.mean_ = transformed.mean(axis=0)
        scale = transformed.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X):
        X = np.asarray(X, dtype=float)
        return (_yeo_johnson_columns(X, self.lambdas_) - self.mean_) \
            / self.scale_


@register_preprocessor("quantile")
class QuantileTransformer(Preprocessor):
    """Map each feature through its empirical CDF to a uniform (or
    normal) output distribution."""

    def __init__(self, n_quantiles=64, output="uniform"):
        self.n_quantiles = n_quantiles
        self.output = output

    def fit(self, X, y=None):
        X = np.asarray(X, dtype=float)
        n_q = min(self.n_quantiles, X.shape[0])
        probabilities = np.linspace(0.0, 1.0, n_q)
        self.quantiles_ = np.quantile(X, probabilities, axis=0)
        self.probabilities_ = probabilities
        return self

    def transform(self, X):
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        for j in range(X.shape[1]):
            out[:, j] = np.interp(X[:, j], self.quantiles_[:, j],
                                  self.probabilities_)
        if self.output == "normal":
            clipped = np.clip(out, 1e-6, 1.0 - 1e-6)
            out = _probit(clipped)
        return out


def _probit(p):
    """Inverse normal CDF (Acklam's rational approximation)."""
    from scipy.special import ndtri
    return ndtri(p)

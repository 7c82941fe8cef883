"""Preprocessing tests, including hypothesis properties on the scalers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.preprocess import (
    NCA,
    KernelPCA,
    MaxAbsScaler,
    MinMaxScaler,
    PCA,
    PowerTransformer,
    QuantileTransformer,
    RobustScaler,
    StandardScaler,
    TABLE_III_PREPROCESSORS,
    available_preprocessors,
    create_preprocessor,
    minka_mle_dimension,
)
from repro.preprocess.transformers import _yeo_johnson, _yeo_johnson_columns

matrices = arrays(
    np.float64, (12, 4),
    elements=st.floats(-1e6, 1e6, allow_nan=False, width=64))


def test_table_iii_complete():
    registered = available_preprocessors()
    for name in TABLE_III_PREPROCESSORS:
        assert name in registered


@settings(max_examples=30, deadline=None)
@given(X=matrices)
def test_standard_scaler_properties(X):
    Z = StandardScaler().fit_transform(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-6)
    stds = Z.std(axis=0)
    for j in range(X.shape[1]):
        if X[:, j].std() > 1e-9:
            assert stds[j] == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(X=matrices)
def test_minmax_scaler_bounds(X):
    Z = MinMaxScaler().fit_transform(X)
    assert Z.min() >= -1e-9
    assert Z.max() <= 1.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(X=matrices)
def test_maxabs_scaler_bounds(X):
    Z = MaxAbsScaler().fit_transform(X)
    assert np.abs(Z).max() <= 1.0 + 1e-9


def test_robust_scaler_ignores_outliers():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(100, 2))
    X[0, 0] = 1e9  # a wild outlier
    Z = RobustScaler().fit_transform(X)
    # The outlier barely affects the scale of the rest.
    assert np.median(np.abs(Z[1:, 0])) < 5.0


def test_pca_reconstruction_on_lowrank():
    rng = np.random.default_rng(0)
    basis = rng.normal(size=(3, 10))
    X = rng.normal(size=(50, 3)) @ basis
    pca = PCA(n_components=3).fit(X)
    Z = pca.transform(X)
    assert Z.shape == (50, 3)
    # 3 components explain everything for rank-3 data.
    total_var = np.var(X - X.mean(axis=0), axis=0).sum()
    assert pca.explained_variance_.sum() == pytest.approx(
        total_var * 50 / 49, rel=1e-6)


def test_pca_mle_detects_lowrank_dimension():
    rng = np.random.default_rng(1)
    basis = rng.normal(size=(4, 20))
    X = rng.normal(size=(300, 4)) @ basis
    X += rng.normal(scale=1e-3, size=X.shape)
    pca = PCA(n_components="mle").fit(X)
    assert pca.n_components_ == 4


def test_minka_mle_direct():
    eigenvalues = [10.0, 8.0, 5.0, 0.01, 0.009, 0.011, 0.0105]
    assert minka_mle_dimension(eigenvalues, 200) == 3


def test_pca_explained_variance_fraction():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(100, 6)) * np.array([10, 5, 1, 0.1, 0.1, 0.1])
    pca = PCA(n_components=0.95).fit(X)
    assert 1 <= pca.n_components_ <= 3


def test_kernel_pca_shapes_and_determinism():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    kpca = KernelPCA(n_components=4).fit(X)
    Z1 = kpca.transform(X)
    Z2 = kpca.transform(X)
    assert Z1.shape == (40, 4)
    assert np.allclose(Z1, Z2)


def test_nca_separates_binned_targets():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 6))
    y = X[:, 0] * 10.0  # the target depends on feature 0 only
    nca = NCA(n_components=2, iterations=30, seed=0).fit(X, y)
    A = nca.A_
    # Feature 0 should carry the most weight in the learned map.
    weights = np.abs(A).sum(axis=0)
    assert np.argmax(weights) == 0


def test_power_transformer_normalizes_skew():
    rng = np.random.default_rng(5)
    X = rng.exponential(scale=2.0, size=(300, 1))
    Z = PowerTransformer().fit_transform(X)
    from scipy.stats import skew
    assert abs(skew(Z[:, 0])) < abs(skew(X[:, 0]))
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-6)



def per_column_yeo_johnson(X, lambdas):
    """The per-column transform loop, kept as the oracle."""
    out = np.empty_like(X, dtype=float)
    for j in range(X.shape[1]):
        out[:, j] = _yeo_johnson(X[:, j].astype(float), lambdas[j])
    return out


#: Lambdas on and next to every branch edge of the transform, and the
#: constant-column lambda 1.
EDGE_LAMBDAS = (1e-9, -1e-9, 2e-8, -2e-8, 2.0 + 1e-9, 2.0 - 1e-9,
                2.0 - 2e-8, 1.0)
#: Exponents (lambda, or ``2 - lambda`` for negative inputs) for which
#: NumPy's power takes a fast path when the exponent is a scalar, as in
#: the per-column loop but not in the one-pass transform.
FAST_PATH_EXPONENTS = (2.0, 0.5, -1.0)


def no_fast_path(lam):
    return lam not in FAST_PATH_EXPONENTS and \
        2.0 - lam not in FAST_PATH_EXPONENTS


@settings(max_examples=80, deadline=None)
@given(X=arrays(np.float64, st.tuples(st.integers(1, 8),
                                      st.integers(1, 6)),
                elements=st.floats(-1e3, 1e3, width=64)),
       lambdas=st.lists(st.one_of(st.sampled_from(EDGE_LAMBDAS),
                                  st.floats(-2.0, 4.0).filter(
                                      no_fast_path)),
                        min_size=6, max_size=6))
def test_yeo_johnson_columns_match_per_column_oracle(X, lambdas):
    lambdas = np.array(lambdas[:X.shape[1]])
    with np.errstate(all="ignore"):
        assert _yeo_johnson_columns(X, lambdas).tobytes() == \
            per_column_yeo_johnson(X, lambdas).tobytes()


def test_power_transformer_single_row_matches_per_column_oracle():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(40, 9)) * 10.0 ** rng.integers(-2, 3, size=9)
    X[:, 2] = 4.0
    X[:, 5] = np.abs(X[:, 5])
    X[:, 6] = np.round(X[:, 6])
    power = PowerTransformer().fit(X)
    assert power.lambdas_[2] == 1.0
    query = np.vstack([X, -X[:5], X[:5] * 7.0])
    for rows in (query, query[:1], query[-1:]):
        expected = (per_column_yeo_johnson(rows, power.lambdas_) -
                    power.mean_) / power.scale_
        assert power.transform(rows).tobytes() == expected.tobytes()


def test_quantile_transformer_uniform_output():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(500, 2)) ** 3
    Z = QuantileTransformer(n_quantiles=100).fit_transform(X)
    assert Z.min() >= 0.0 and Z.max() <= 1.0
    # Quartiles of a uniform distribution.
    assert np.percentile(Z[:, 0], 50) == pytest.approx(0.5, abs=0.08)


def test_quantile_transformer_normal_output():
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(500, 1))
    Z = QuantileTransformer(output="normal").fit_transform(X)
    assert abs(np.mean(Z)) < 0.2
    assert 0.7 < np.std(Z) < 1.3


def test_registry_round_trip():
    for name in TABLE_III_PREPROCESSORS:
        p = create_preprocessor(name)
        assert p.preprocessor_name == name
    with pytest.raises(KeyError):
        create_preprocessor("not-a-preprocessor")

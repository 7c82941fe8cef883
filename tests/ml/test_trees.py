"""Exactness of the tree models' array code against scalar references.

The CART split scan and the tree traversal are vectorized; the scalar
versions they replaced live on here as oracles.  Split choices, fitted
node arrays and predictions must be bit-identical, and the prediction
digests of four PE model families are pinned on a fixed dataset.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import create_model
from repro.models.trees import DecisionTreeRegressor


def scalar_best_split(tree, X, y):
    """The per-split-point CART scan, kept verbatim as the oracle."""
    n, _ = X.shape
    best = None
    best_score = np.inf
    for feature in tree._candidate_features(X.shape[1]):
        order = np.argsort(X[:, feature], kind="stable")
        xs = X[order, feature]
        ys = y[order]
        # Prefix sums enable O(n) scan of all split points.
        csum = np.cumsum(ys)
        csum_sq = np.cumsum(ys ** 2)
        total = csum[-1]
        total_sq = csum_sq[-1]
        for i in range(1, n):
            if xs[i] == xs[i - 1]:
                continue
            left_n, right_n = i, n - i
            left_sum = csum[i - 1]
            left_sq = csum_sq[i - 1]
            right_sum = total - left_sum
            right_sq = total_sq - left_sq
            score = (left_sq - left_sum ** 2 / left_n) + \
                    (right_sq - right_sum ** 2 / right_n)
            if score < best_score:
                best_score = score
                best = (feature, (xs[i] + xs[i - 1]) / 2.0)
    return best


class ScalarSplitTree(DecisionTreeRegressor):
    _best_split = scalar_best_split


def scalar_walk(tree, X):
    """Per-row descent over the fitted node arrays."""
    out = np.empty(X.shape[0])
    for r, row in enumerate(X):
        node = 0
        while tree.left_[node] != node:
            node = tree.left_[node] \
                if row[tree.feature_[node]] <= tree.threshold_[node] \
                else tree.right_[node]
        out[r] = tree.value_[node]
    return out


@st.composite
def split_problems(draw):
    """Small datasets rich in ties: few distinct x values per column,
    some constant columns, sometimes a constant or two-valued y."""
    n = draw(st.integers(4, 24))
    d = draw(st.integers(1, 6))
    levels = draw(st.integers(1, 5))
    X = np.array(draw(st.lists(
        st.lists(st.integers(0, levels), min_size=d, max_size=d),
        min_size=n, max_size=n)), dtype=float)
    for column in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        X[:, column] = 1.5
    y_kind = draw(st.sampled_from(("float", "constant", "two-valued")))
    if y_kind == "constant":
        y = np.full(n, 2.25)
    elif y_kind == "two-valued":
        y = np.array(draw(st.lists(st.sampled_from((0.0, 3.0)),
                                   min_size=n, max_size=n)))
    else:
        y = np.array(draw(st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
            min_size=n, max_size=n)))
    max_features = draw(st.sampled_from((None, 0.3, 0.6, 1.0)))
    seed = draw(st.integers(0, 2 ** 16))
    return X, y, max_features, seed


def same_split(a, b):
    if a is None or b is None:
        return a is None and b is None
    return a[0] == b[0] and a[1].tobytes() == b[1].tobytes()


@settings(max_examples=300, deadline=None)
@given(split_problems())
def test_split_scan_matches_scalar_oracle(problem):
    X, y, max_features, seed = problem
    shipped = DecisionTreeRegressor(max_features=max_features, seed=seed)
    oracle = DecisionTreeRegressor(max_features=max_features, seed=seed)
    shipped._rng = np.random.default_rng(seed)
    oracle._rng = np.random.default_rng(seed)
    # Repeated calls keep the candidate-feature draws in step.
    for _ in range(3):
        expected = scalar_best_split(oracle, X, y)
        assert same_split(shipped._best_split(X, y), expected), expected


def test_split_scan_at_min_samples_split_and_all_ties():
    y = np.array([1.0, 2.0, 4.0, 8.0])
    tree = DecisionTreeRegressor()
    tree._rng = np.random.default_rng(0)
    # n == min_samples_split: three split points, the middle one wins.
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    assert same_split(tree._best_split(X, y), scalar_best_split(tree, X, y))
    # Every column constant: no split point at all.
    X = np.full((4, 3), 7.0)
    assert tree._best_split(X, y) is None
    assert scalar_best_split(tree, X, y) is None


@settings(max_examples=60, deadline=None)
@given(split_problems(), st.integers(1, 6))
def test_fitted_trees_and_predictions_match_scalar_oracle(problem, depth):
    X, y, max_features, seed = problem
    shipped = DecisionTreeRegressor(max_depth=depth,
                                    max_features=max_features, seed=seed)
    oracle = ScalarSplitTree(max_depth=depth, max_features=max_features,
                             seed=seed)
    shipped.fit(X, y)
    oracle.fit(X, y)
    for name in ("feature_", "threshold_", "left_", "right_", "value_"):
        assert np.array_equal(getattr(shipped, name), getattr(oracle, name))
    query = np.vstack([X, X + 0.5, np.full((1, X.shape[1]), np.nan)])
    assert shipped.predict(query).tobytes() == \
        scalar_walk(oracle, query).tobytes()


def test_forest_predict_matches_stacked_per_tree_mean():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 7))
    X[:, 2] = np.round(X[:, 2])
    y = X[:, 0] ** 2 + np.sin(3 * X[:, 1]) + rng.normal(0, 0.05, 60)
    forest = create_model("random-forest", n_estimators=12).fit(X, y)
    query = np.vstack([rng.normal(size=(25, 7)), X[:1]])
    per_tree = np.stack([scalar_walk(tree, query) for tree in forest.trees_])
    assert forest.predict(query).tobytes() == \
        per_tree.mean(axis=0).tobytes()
    assert forest.predict(query[:1]).tobytes() == \
        per_tree[:, :1].mean(axis=0).tobytes()


def _digest_dataset():
    rng = np.random.default_rng(2021)
    n, d = 96, 12
    X = rng.normal(size=(n, d))
    X[:, 1] = rng.integers(0, 4, size=n)
    X[:, 2] = 3.0
    X[:, 3] = np.round(X[:, 3], 1)
    y = np.sin(X[:, 0]) * 4 + X[:, 1] ** 2 - 2 * X[:, 4] + \
        rng.normal(0, 0.1, n)
    return X[:72], y[:72], X


#: sha256 of ``predict`` on every row of the digest dataset, recorded
#: with the scalar split scan, per-row tree walk and the original
#: coordinate-descent loop.
PREDICTION_DIGESTS = {
    "decision-tree":
        "5dc25b174e5ad114285b0fc64c7eb18256db2bb054187f999fb50525eb55e0a4",
    "random-forest":
        "3fded164cc5339e4fa683488fceb2e14609adb4a19815f4c036778efcebb86c4",
    "extra-tree":
        "70e65949f0999eeeaaa8e7613caecdb3d1697105fa1c3e1845dd405b45c49740",
    "lasso":
        "9878329cbb3f2cb0517fa5fbbfe2f87bd1f49061ba956a6f07398b219f29550b",
    "elasticnet":
        "39692ca62dfe40ee84c91916f50d8129cad29dc21cccdaccb3e0270c9878af02",
}


@pytest.mark.parametrize("name", sorted(PREDICTION_DIGESTS))
def test_prediction_digests_are_pinned(name):
    X, y, query = _digest_dataset()
    prediction = np.asarray(create_model(name).fit(X, y).predict(query),
                            dtype=float)
    assert hashlib.sha256(prediction.tobytes()).hexdigest() == \
        PREDICTION_DIGESTS[name]

"""Exactness of the PE models' array code against earlier references.

The CART split scan and the tree traversal are vectorized; the scalar
versions they replaced live on here as oracles, and so do the array
node builder and split scan that the trimmed builder replaced, and the
NumPy-scalar coordinate-descent loop.  Split choices, fitted node
arrays, sparse coefficients and predictions must be bit-identical, and
the prediction digests of five PE model families are pinned on a fixed
dataset.  Lasso and ElasticNet report convergence, checked against an
independent KKT test.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import create_model, trees
from repro.models.sparse import _coordinate_descent
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


class ArrayBuilderTree(DecisionTreeRegressor):
    """The array node builder and split scan before the per-node call
    count was trimmed, kept verbatim as the oracle."""

    def _build(self, X, y, depth, nodes):
        """Append the subtree for (X, y) to ``nodes``; return its depth."""
        index = len(nodes)
        nodes.append((0, 0.0, index, index, float(y.mean())))
        if depth >= self.max_depth or len(y) < self.min_samples_split \
                or np.ptp(y) < 1e-12:
            return 0
        split = self._best_split(X, y)
        if split is None:
            return 0
        feature, threshold = split
        mask = X[:, feature] <= threshold
        if mask.all() or not mask.any():
            return 0
        left = len(nodes)
        left_depth = self._build(X[mask], y[mask], depth + 1, nodes)
        right = len(nodes)
        right_depth = self._build(X[~mask], y[~mask], depth + 1, nodes)
        nodes[index] = (feature, threshold, left, right, nodes[index][4])
        return 1 + max(left_depth, right_depth)

    def _best_split(self, X, y):
        n = X.shape[0]
        features = self._candidate_features(X.shape[1])
        cols = X[:, features]
        order = np.argsort(cols, axis=0, kind="stable")
        xs = np.take_along_axis(cols, order, axis=0)
        ys = y[order]
        # Prefix sums give every split point's left/right moments.
        csum = np.cumsum(ys, axis=0)
        csum_sq = np.cumsum(ys ** 2, axis=0)
        left_n = np.arange(1, n)[:, None]
        right_n = n - left_n
        left_sum = csum[:-1]
        left_sq = csum_sq[:-1]
        right_sum = csum[-1] - left_sum
        right_sq = csum_sq[-1] - left_sq
        score = (left_sq - left_sum ** 2 / left_n) + \
                (right_sq - right_sum ** 2 / right_n)
        score[(xs[1:] == xs[:-1]) | np.isnan(score)] = np.inf
        k, i = divmod(int(np.argmin(score.T)), n - 1)
        if not score[i, k] < np.inf:
            return None
        return features[k], (xs[i + 1, k] + xs[i, k]) / 2.0


NODE_ARRAYS = ("feature_", "threshold_", "left_", "right_", "value_")


def same_arrays(a, b, names):
    return all(getattr(a, name).dtype == getattr(b, name).dtype and
               getattr(a, name).tobytes() == getattr(b, name).tobytes()
               for name in names)


@st.composite
def forest_problems(draw):
    """Tie-rich data with NaN and infinite features (an infinite
    threshold can send every row left), duplicate rows and sometimes
    huge or non-finite targets."""
    n = draw(st.integers(4, 40))
    d = draw(st.integers(1, 8))
    levels = draw(st.integers(1, 6))
    X = np.array(draw(st.lists(
        st.lists(st.integers(0, levels), min_size=d, max_size=d),
        min_size=n, max_size=n)), dtype=float)
    X += np.array(draw(st.lists(st.sampled_from((0.0, 0.25, np.nan,
                                                 np.inf, -np.inf)),
                                min_size=n * d, max_size=n * d)
                       )).reshape(n, d)
    duplicates = draw(st.lists(st.integers(0, n - 1), max_size=n))
    X = np.vstack([X, X[duplicates]])
    y = np.array(draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
        min_size=n, max_size=n)))
    y = np.concatenate([y, y[duplicates]])
    # Targets near sqrt(max float) overflow some squared sums and not
    # others (scores of -inf and inf); a non-finite target makes NaN.
    for _ in range(draw(st.integers(0, 3))):
        y[draw(st.integers(0, len(y) - 1))] = draw(st.sampled_from(
            (0.8e154, -0.9e154, 1.2e154, 1e300, np.nan, np.inf, -np.inf)))
    return X, y, draw(st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None)
@given(forest_problems(), st.sampled_from((None, 0.3, 0.6, 1.0)),
       st.integers(1, 8))
def test_trimmed_builder_matches_array_builder_oracle(problem,
                                                      max_features, depth):
    X, y, seed = problem
    shipped = DecisionTreeRegressor(max_depth=depth,
                                    max_features=max_features, seed=seed)
    oracle = ArrayBuilderTree(max_depth=depth, max_features=max_features,
                              seed=seed)
    with np.errstate(invalid="ignore", over="ignore"):
        shipped.fit(X, y)
        oracle.fit(X, y)
    assert same_arrays(shipped, oracle, NODE_ARRAYS)
    assert shipped.depth_ == oracle.depth_


@settings(max_examples=25, deadline=None)
@given(forest_problems(), st.integers(1, 8))
def test_forest_node_arrays_match_array_builder_oracle(problem, depth):
    X, y, seed = problem
    shipped = create_model("random-forest", n_estimators=6,
                           max_depth=depth, seed=seed)
    oracle = create_model("random-forest", n_estimators=6,
                          max_depth=depth, seed=seed)
    with np.errstate(invalid="ignore", over="ignore"):
        shipped.fit(X, y)
        with mock.patch.object(trees, "DecisionTreeRegressor",
                               ArrayBuilderTree):
            oracle.fit(X, y)
    assert all(type(tree) is ArrayBuilderTree for tree in oracle.trees_)
    assert same_arrays(shipped, oracle, NODE_ARRAYS + ("roots_",))
    assert shipped.depth_ == oracle.depth_


def scalar_coordinate_descent(Xs, ys, l1, l2, max_iterations=300,
                              tol=1e-6):
    """The NumPy-scalar coordinate-descent loop, kept verbatim as the
    oracle."""
    n, d = Xs.shape
    coef = np.zeros(d)
    col_norms = (Xs ** 2).sum(axis=0)
    residual = ys.copy()
    threshold = l1 * n
    # (column index, column view, squared norm, update denominator) for
    # every column that can move; zero-norm columns stay at 0.
    columns = [(j, Xs[:, j], col_norms[j], col_norms[j] + l2 * n)
               for j in range(d) if not col_norms[j] <= 1e-12]
    for _ in range(max_iterations):
        max_delta = 0.0
        for j, column, norm, denominator in columns:
            old = coef[j]
            rho = column @ residual + old * norm
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
                residual -= delta * column
                coef[j] = new
                max_delta = max(max_delta, abs(delta))
        if max_delta < tol:
            break
    return coef


@st.composite
def sparse_problems(draw):
    """Standardized-scale designs with zero-norm columns and collinear
    (scaled or copied) columns; l2 is 0 half the time."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    Xs = rng.normal(size=(n, d))
    for column in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        kind = draw(st.sampled_from(("zero", "scaled", "copy")))
        source = draw(st.integers(0, d - 1))
        if kind == "zero":
            Xs[:, column] = 0.0
        else:
            factor = 1.0 if kind == "copy" else \
                draw(st.sampled_from((-2.0, 0.5, 3.0)))
            Xs[:, column] = factor * Xs[:, source]
    ys = Xs @ rng.normal(size=d) * draw(st.sampled_from((0.0, 1.0))) + \
        rng.normal(0.0, draw(st.sampled_from((0.0, 0.1, 1.0))), n)
    l1 = draw(st.sampled_from((0.0, 1e-4, 0.01, 0.1, 10.0)))
    l2 = draw(st.sampled_from((0.0, 0.0, 1e-3, 0.05)))
    return Xs, ys, l1, l2, draw(st.sampled_from((3, 300)))


@settings(max_examples=150, deadline=None)
@given(sparse_problems())
def test_coordinate_descent_matches_scalar_loop_oracle(problem):
    Xs, ys, l1, l2, max_iterations = problem
    coef, sweeps, converged = _coordinate_descent(Xs, ys, l1, l2,
                                                  max_iterations)
    expected = scalar_coordinate_descent(Xs, ys, l1, l2, max_iterations)
    assert coef.dtype == expected.dtype
    # Byte equality also pins the sign bit of every zero.
    assert coef.tobytes() == expected.tobytes()
    assert 1 <= sweeps <= max_iterations
    assert converged or sweeps == max_iterations


def kkt_violation(model, X, y, l1, l2):
    """Largest KKT violation of a fitted Lasso/ElasticNet, in coefficient
    units, computed from the whole fitted vector at once.

    The fit minimizes ``|ys - Xs b|^2 / 2 + l1 n |b|_1 + l2 n |b|^2 / 2``
    on the standardized data.  Per coordinate, the violation is the
    distance from 0 to the subdifferential, over the coordinate's
    curvature ``|x_j|^2 + l2 n``; zero-norm columns cannot move.
    """
    Xs, ys = model._prepare(X, y)
    n = len(ys)
    b = model.coef_
    gradient = Xs.T @ (ys - Xs @ b) - l2 * n * b
    violation = np.where(b != 0.0,
                         np.abs(gradient - l1 * n * np.sign(b)),
                         np.maximum(np.abs(gradient) - l1 * n, 0.0))
    curvature = (Xs ** 2).sum(axis=0) + l2 * n
    movable = (Xs ** 2).sum(axis=0) > 1e-12
    return float(np.max(violation[movable] / curvature[movable]))


def _capped_problem():
    """Rank-40 84 x 115 design, the shape of the PE's training split:
    ElasticNet's default fit stops at the 300-sweep cap."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(84, 40)) @ rng.normal(size=(40, 115))
    y = X[:, :5].sum(axis=1) + rng.normal(0.0, 0.1, 84)
    return X, y


@pytest.mark.parametrize("name, data, converges", [
    ("lasso", "digest", True),
    ("elasticnet", "digest", True),
    ("elasticnet", "capped", False),
])
def test_convergence_flag_agrees_with_kkt_check(name, data, converges):
    X, y = _digest_dataset()[:2] if data == "digest" else _capped_problem()
    model = create_model(name).fit(X, y)
    l1, l2 = (0.01, 0.0) if name == "lasso" else (0.005, 0.005)
    violation = kkt_violation(model, X, y, l1, l2)
    assert model.converged_ is converges
    # Converged fits sit within 10x the step tolerance of optimal
    # (about 1e-7 here); the capped fit is about 100x the tolerance off.
    assert model.converged_ == (violation < 1e-5), violation
    if converges:
        assert model.n_iter_ < 300
    else:
        assert model.n_iter_ == 300

"""Tree models (Table IV): Decision Tree, Extra Tree, Random Forest.

A fitted tree is stored as flat node arrays (``feature``, ``threshold``,
``left``, ``right``, ``value``) in pre-order, root at index 0.  A leaf
has ``feature`` 0 and both children pointing at itself, so traversal can
step every row a fixed number of levels (the tree depth) with array
indexing: rows that reached a leaf stay there.
"""

import numpy as np

from repro.models.base import Regressor, register_model, _as_xy


def _descend(X, feature, threshold, left, right, start, depth):
    """Leaf indices reached from node(s) ``start`` for every row of X.

    ``start`` is an int, or a column of roots (one per stacked tree)
    giving one row of leaf indices per tree.  Each step takes the branch
    of the scalar walk: left when ``x <= threshold``, otherwise right (so
    NaN goes right).
    """
    rows = np.arange(X.shape[0])
    index = np.zeros(X.shape[0], dtype=np.intp) + start
    for _ in range(depth):
        go_left = X[rows, feature[index]] <= threshold[index]
        index = np.where(go_left, left[index], right[index])
    return index


class _TreeBase(Regressor):
    def __init__(self, max_depth=8, min_samples_split=4,
                 max_features=None, seed=0):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed

    def fit(self, X, y):
        X, y = _as_xy(X, y)
        self._rng = np.random.default_rng(self.seed)
        nodes = []
        self.depth_ = self._build(X, y, 0, nodes)
        self.feature_, self.threshold_, self.left_, self.right_, \
            self.value_ = (np.array(column) for column in zip(*nodes))
        return self

    def _build(self, X, y, depth, nodes):
        """Append the subtree for (X, y) to ``nodes``; return its depth.

        ``np.add.reduce(y) / n`` and ``y.max() - y.min()`` are the
        reductions ``y.mean()`` and ``np.ptp(y)`` make, without their
        Python-level wrappers.
        """
        index = len(nodes)
        n = len(y)
        nodes.append((0, 0.0, index, index, float(np.add.reduce(y) / n)))
        if depth >= self.max_depth or n < self.min_samples_split \
                or y.max() - y.min() < 1e-12:
            return 0
        split = self._best_split(X, y)
        if split is None:
            return 0
        feature, threshold = split
        mask = X[:, feature] <= threshold
        if not 0 < np.count_nonzero(mask) < n:
            return 0
        left = len(nodes)
        left_depth = self._build(X[mask], y[mask], depth + 1, nodes)
        right = len(nodes)
        mask = ~mask
        right_depth = self._build(X[mask], y[mask], depth + 1, nodes)
        nodes[index] = (feature, threshold, left, right, nodes[index][4])
        return 1 + max(left_depth, right_depth)

    def _candidate_features(self, n_features):
        if self.max_features is None:
            return np.arange(n_features)
        k = max(1, int(self.max_features * n_features))
        return self._rng.choice(n_features, size=k, replace=False)

    def _best_split(self, X, y):
        raise NotImplementedError

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        leaves = _descend(X, self.feature_, self.threshold_, self.left_,
                          self.right_, 0, self.depth_)
        return self.value_[leaves]


@register_model("decision-tree")
class DecisionTreeRegressor(_TreeBase):
    """CART with exact variance-reduction splits."""

    def _best_split(self, X, y):
        """Score every split point of every candidate feature at once.

        Column ``k`` of each array is candidate feature ``k`` sorted by
        value; row ``i`` is the split between sorted positions ``i`` and
        ``i + 1``.  The first-occurrence argmin over the feature-major
        layout picks the first feature in candidate order, then the first
        split point, which is the scalar scan's strict-``<`` tie-break.
        """
        n = X.shape[0]
        features = self._candidate_features(X.shape[1])
        cols = X[:, features]
        order = cols.argsort(axis=0, kind="stable")
        xs = cols[order, np.arange(len(features))]
        ys = y[order]
        # Prefix sums give every split point's left/right moments; ys is
        # squared in place once its plain sum is taken.
        csum = np.add.accumulate(ys)
        csum_sq = np.add.accumulate(np.square(ys, out=ys))
        left_n = np.arange(1.0, n)[:, None]
        left_sq = csum_sq[:-1]
        # score = (left_sq - left_sum ** 2 / left_n) +
        #         (right_sq - right_sum ** 2 / right_n), built in place
        # with the same operands in the same order.
        right = csum[-1] - csum[:-1]
        score = np.square(csum[:-1])
        score /= left_n
        np.subtract(left_sq, score, out=score)
        np.square(right, out=right)
        right /= n - left_n
        right_sq = csum_sq[-1] - left_sq
        score += np.subtract(right_sq, right, out=right_sq)
        score[xs[1:] == xs[:-1]] = np.inf
        # A NaN score needs an infinite (or NaN) total of y ** 2, and then
        # every score is inf or NaN: argmin's pick of the first NaN ends
        # in "no split" as an inf would.
        k, i = divmod(int(score.T.argmin()), n - 1)
        if not score[i, k] < np.inf:
            return None
        return features[k], (xs[i + 1, k] + xs[i, k]) / 2.0


@register_model("extra-tree")
class ExtraTreeRegressor(_TreeBase):
    """Extremely randomized tree: one random threshold per feature."""

    def _best_split(self, X, y):
        best = None
        best_score = np.inf
        for feature in self._candidate_features(X.shape[1]):
            lo = X[:, feature].min()
            hi = X[:, feature].max()
            if hi <= lo:
                continue
            threshold = self._rng.uniform(lo, hi)
            mask = X[:, feature] <= threshold
            if mask.all() or not mask.any():
                continue
            left, right = y[mask], y[~mask]
            score = ((left - left.mean()) ** 2).sum() + \
                    ((right - right.mean()) ** 2).sum()
            if score < best_score:
                best_score = score
                best = (feature, threshold)
        return best


@register_model("random-forest")
class RandomForestRegressor(Regressor):
    """Bagged CART ensemble with feature subsampling."""

    def __init__(self, n_estimators=30, max_depth=8, max_features=0.6,
                 seed=0):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.seed = seed

    def fit(self, X, y):
        X, y = _as_xy(X, y)
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        self.trees_ = []
        for t in range(self.n_estimators):
            idx = rng.choice(n, size=n, replace=True)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                max_features=self.max_features,
                seed=self.seed + 7919 * t + 1)
            tree.fit(X[idx], y[idx])
            self.trees_.append(tree)
        # Every tree's nodes in one set of arrays, child links shifted by
        # the tree's offset, so predict descends all trees together.
        offsets = np.cumsum([0] + [len(tree.value_)
                                   for tree in self.trees_[:-1]])
        self.roots_ = offsets[:, None]
        self.feature_, self.threshold_, self.value_ = (
            np.concatenate([getattr(tree, name) for tree in self.trees_])
            for name in ("feature_", "threshold_", "value_"))
        self.left_, self.right_ = (
            np.concatenate([getattr(tree, name) + offset
                            for tree, offset in zip(self.trees_, offsets)])
            for name in ("left_", "right_"))
        self.depth_ = max(tree.depth_ for tree in self.trees_)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        leaves = _descend(X, self.feature_, self.threshold_, self.left_,
                          self.right_, self.roots_, self.depth_)
        # Row t holds tree t's predictions: the same array, reduced in the
        # same order, as stacking per-tree predict() results.
        return self.value_[leaves].mean(axis=0)

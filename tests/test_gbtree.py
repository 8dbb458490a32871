import json

import numpy as np
import numpy.testing as npt
import pytest

from coincast.errors import DomainError, SchemaError, ShapeError, SizingError
from coincast.gbtree import (
    Booster,
    RegTree,
    TreeParams,
    build_tree,
    grad_hess,
    leaf_weight,
    split_gain,
    train_booster,
)
from coincast.market_data import make_windows


def sorting_best_split(X, g, h, idx, params):
    """Reference split search: argsort every feature at every node and scan
    its boundaries one feature at a time. The production search must agree
    with it bit for bit."""
    lam, gamma = params.lam, params.gamma
    min_leaf = params.min_samples_leaf
    G = float(g[idx].sum())
    H = float(h[idx].sum())
    parent_score = G * G / (H + lam)

    best = None
    n = idx.size
    counts = np.arange(1, n)  # left-child sizes for each candidate boundary
    for feat in range(X.shape[1]):
        values = X[idx, feat]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sg = np.cumsum(g[idx][order])[:-1]
        sh = np.cumsum(h[idx][order])[:-1]
        valid = (sv[:-1] < sv[1:]) & (counts >= min_leaf) & (n - counts >= min_leaf)
        if not valid.any():
            continue
        GL, HL = sg[valid], sh[valid]
        GR, HR = G - GL, H - HL
        gains = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent_score) - gamma
        k = int(np.argmax(gains))  # first maximum = lowest threshold
        gain = float(gains[k])
        if gain > 0 and (best is None or gain > best[0]):
            boundary = np.nonzero(valid)[0][k]
            threshold = 0.5 * (sv[boundary] + sv[boundary + 1])
            best = (gain, feat, float(threshold))
    return best


def sorting_tree(X, g, h, params) -> RegTree:
    """Reference depth-first grower around :func:`sorting_best_split`."""
    feature, threshold, left, right, weight = [], [], [], [], []

    def grow(idx, depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        weight.append(0.0)
        best = None
        if depth < params.max_depth and idx.size >= 2 * params.min_samples_leaf:
            best = sorting_best_split(X, g, h, idx, params)
        if best is None:
            weight[node] = leaf_weight(float(g[idx].sum()), float(h[idx].sum()), params.lam)
            return node
        _, feat, thr = best
        go_left = X[idx, feat] < thr
        feature[node] = feat
        threshold[node] = thr
        left[node] = grow(idx[go_left], depth + 1)
        right[node] = grow(idx[~go_left], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return RegTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        weight=np.asarray(weight, dtype=np.float64),
    )


def sorting_booster(X, y, params, n_rounds) -> Booster:
    """Reference boosting loop with the same base score and prediction order
    as ``train_booster``."""
    booster = Booster(base_score=float(np.mean(y)), params=params, n_features=X.shape[1])
    preds = np.full(y.size, booster.base_score)
    for _ in range(n_rounds):
        g, h = grad_hess(preds, y)
        tree = sorting_tree(X, g, h, params)
        booster.trees.append(tree)
        preds = preds + params.learning_rate * tree.predict(X)
    return booster


def brute_force_split(X, g, h, idx, params):
    """Reference exact-greedy search: every (feature, midpoint) candidate,
    scored with the scalar gain function, ties to lowest feature then lowest
    threshold."""
    best = None
    G, H = g[idx].sum(), h[idx].sum()
    for feat in range(X.shape[1]):
        values = np.unique(X[idx, feat])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = 0.5 * (lo + hi)
            mask = X[idx, feat] < thr
            n_left = int(mask.sum())
            if n_left < params.min_samples_leaf or idx.size - n_left < params.min_samples_leaf:
                continue
            GL, HL = g[idx][mask].sum(), h[idx][mask].sum()
            gain = split_gain(GL, HL, G - GL, H - HL, params.lam, params.gamma)
            if gain > 0 and (best is None or gain > best[0] + 1e-15):
                best = (gain, feat, thr)
    return best


def brute_force_tree(X, g, h, idx, params, depth=0):
    """Reference recursive grower mirroring the production stopping rules."""
    best = None
    if depth < params.max_depth and idx.size >= 2 * params.min_samples_leaf:
        best = brute_force_split(X, g, h, idx, params)
    if best is None:
        return {"leaf": leaf_weight(g[idx].sum(), h[idx].sum(), params.lam)}
    _, feat, thr = best
    mask = X[idx, feat] < thr
    return {
        "feature": feat,
        "threshold": thr,
        "left": brute_force_tree(X, g, h, idx[mask], params, depth + 1),
        "right": brute_force_tree(X, g, h, idx[~mask], params, depth + 1),
    }


def tree_to_nested(tree: RegTree, node=0):
    if tree.feature[node] == -1:
        return {"leaf": float(tree.weight[node])}
    return {
        "feature": int(tree.feature[node]),
        "threshold": float(tree.threshold[node]),
        "left": tree_to_nested(tree, int(tree.left[node])),
        "right": tree_to_nested(tree, int(tree.right[node])),
    }


def assert_same_tree(actual, expected, atol=1e-12):
    if "leaf" in expected:
        assert "leaf" in actual
        npt.assert_allclose(actual["leaf"], expected["leaf"], atol=atol)
        return
    assert actual["feature"] == expected["feature"]
    assert actual["threshold"] == expected["threshold"]
    assert_same_tree(actual["left"], expected["left"], atol)
    assert_same_tree(actual["right"], expected["right"], atol)


class TestPieces:
    def test_grad_hess(self):
        g, h = grad_hess([3.0, 0.0], [1.0, 2.0])
        npt.assert_array_equal(g, [4.0, -4.0])
        npt.assert_array_equal(h, [2.0, 2.0])

    def test_leaf_weight_values(self):
        assert leaf_weight(-8.0, 4.0, 0.0) == 2.0
        assert leaf_weight(-8.0, 4.0, 4.0) == 1.0

    def test_leaf_weight_shrinks_with_lambda(self):
        assert abs(leaf_weight(-8.0, 4.0, 10.0)) < abs(leaf_weight(-8.0, 4.0, 0.0))

    def test_leaf_weight_domain(self):
        with pytest.raises(DomainError):
            leaf_weight(1.0, 0.0, 0.0)

    def test_split_gain_hand_value(self):
        # targets [1,1,-1,-1] from prediction 0: g = [-2,-2,2,2], h = 2 each
        gain = split_gain(-4.0, 4.0, 4.0, 4.0, lam=0.0, gamma=0.0)
        assert gain == 4.0

    def test_gamma_subtracts_from_gain(self):
        assert split_gain(-4.0, 4.0, 4.0, 4.0, lam=0.0, gamma=4.0) == 0.0

    def test_split_gain_domain(self):
        with pytest.raises(DomainError):
            split_gain(1.0, -3.0, 1.0, 1.0, lam=0.0, gamma=0.0)


class TestBuildTree:
    def test_hand_split(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        g, h = grad_hess(np.zeros(4), [5.0, 5.0, -5.0, -5.0])
        params = TreeParams(lam=0.0, gamma=0.0, max_depth=2, min_samples_leaf=1)
        tree = build_tree(X, g, h, params)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 2.5
        npt.assert_allclose(tree.predict(X), [5.0, 5.0, -5.0, -5.0], atol=1e-12)

    def test_depth_zero_leaf_equals_mean_residual(self):
        rng = np.random.default_rng(30)
        y = rng.normal(size=16)
        pred0 = np.full(16, 0.7)
        g, h = grad_hess(pred0, y)
        tree = build_tree(rng.normal(size=(16, 2)), g, h, TreeParams(lam=0.0, max_depth=0))
        assert tree.n_leaves == 1
        npt.assert_allclose(tree.weight[0], np.mean(y - pred0), atol=1e-12)

    def test_refuses_non_positive_gain(self):
        # constant targets: all residuals equal, nothing to gain
        X = np.arange(8.0).reshape(8, 1)
        g, h = grad_hess(np.zeros(8), np.full(8, 3.0))
        tree = build_tree(X, g, h, TreeParams(lam=0.0, max_depth=3, min_samples_leaf=1))
        assert tree.n_leaves == 1

    def test_high_gamma_stops_splitting(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        g, h = grad_hess(np.zeros(4), [5.0, 5.0, -5.0, -5.0])
        tree = build_tree(X, g, h, TreeParams(lam=0.0, gamma=1e6, max_depth=3, min_samples_leaf=1))
        assert tree.n_leaves == 1

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(20, 2))
        g, h = grad_hess(np.zeros(20), rng.normal(size=20))
        tree = build_tree(X, g, h, TreeParams(lam=0.0, max_depth=4, min_samples_leaf=5))
        # count samples per leaf by routing the training data
        leaf_ids = {}
        for row in range(20):
            node = 0
            while tree.feature[node] != -1:
                if X[row, tree.feature[node]] < tree.threshold[node]:
                    node = int(tree.left[node])
                else:
                    node = int(tree.right[node])
            leaf_ids[node] = leaf_ids.get(node, 0) + 1
        assert min(leaf_ids.values()) >= 5

    def test_depth_limit(self):
        rng = np.random.default_rng(32)
        X = rng.normal(size=(64, 3))
        g, h = grad_hess(np.zeros(64), rng.normal(size=64))
        for depth in (1, 2, 3):
            tree = build_tree(X, g, h, TreeParams(lam=1.0, max_depth=depth, min_samples_leaf=1))
            assert tree.depth <= depth

    def test_tie_breaks_to_lowest_threshold(self):
        # symmetric targets: the boundaries after x=1 and x=3 give equal gain
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        g, h = grad_hess(np.zeros(4), [1.0, -1.0, -1.0, 1.0])
        tree = build_tree(X, g, h, TreeParams(lam=0.0, max_depth=1, min_samples_leaf=1))
        assert tree.threshold[0] == 1.5

    def test_tie_breaks_to_lowest_feature(self):
        # identical columns: feature 0 must win
        col = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([col, col])
        g, h = grad_hess(np.zeros(4), [5.0, 5.0, -5.0, -5.0])
        tree = build_tree(X, g, h, TreeParams(lam=0.0, max_depth=1, min_samples_leaf=1))
        assert tree.feature[0] == 0

    def test_matches_brute_force_reference(self):
        params = TreeParams(lam=1.3, gamma=0.01, max_depth=2, min_samples_leaf=1)
        for seed in range(6):
            rng = np.random.default_rng(100 + seed)
            X = np.round(rng.normal(size=(48, 3)), 3)  # rounding forces duplicates
            y = rng.normal(size=48)
            g, h = grad_hess(np.zeros(48), y)
            grown = tree_to_nested(build_tree(X, g, h, params))
            reference = brute_force_tree(X, g, h, np.arange(48), params)
            assert_same_tree(grown, reference)

    def test_same_tree_as_train_booster_for_the_same_gradients(self):
        rng = np.random.default_rng(38)
        X = np.round(rng.normal(size=(40, 4)), 1)
        y = rng.normal(size=40)
        params = TreeParams(lam=1.0, max_depth=3, min_samples_leaf=2)
        booster = train_booster(X, y, params, 6)
        preds = np.full(y.size, booster.base_score)
        for tree in booster.trees:
            g, h = grad_hess(preds, y)
            assert build_tree(X, g, h, params).to_dict() == tree.to_dict()
            preds = preds + params.learning_rate * tree.predict(X)

    def test_rejects_nan(self):
        X = np.ones((4, 1))
        X[2, 0] = np.nan
        g, h = grad_hess(np.zeros(4), np.ones(4))
        with pytest.raises(DomainError):
            build_tree(X, g, h, TreeParams())

    def test_rejects_a_node_without_positive_hessian_sum(self):
        X = np.arange(4.0).reshape(4, 1)
        with pytest.raises(DomainError, match="hessian sum plus lambda"):
            build_tree(X, [1.0, 1.0, -1.0, -1.0], np.zeros(4), TreeParams(lam=0.0, min_samples_leaf=1))


# (rows, features, decimals or None, lam, gamma, min_samples_leaf, max_depth)
SORTING_CASES = [
    (1, 3, None, 1.0, 0.0, 1, 3),
    (2, 2, None, 0.0, 0.0, 1, 2),
    (2, 1, 0, 1.0, 0.0, 1, 1),
    (3, 1, None, 0.0, 0.1, 1, 5),
    (17, 1, 0, 0.0, 0.0, 1, 4),
    (30, 3, 0, 1.0, 0.1, 2, 3),
    (48, 5, 1, 0.0, 0.0, 3, 5),
    (64, 2, 1, 1.0, 0.0, 1, 0),
    (64, 4, None, 1.0, 0.1, 2, 4),
    (97, 6, 2, 0.0, 0.1, 3, 2),
]


class TestPresortedSearch:
    @pytest.mark.parametrize("case", range(len(SORTING_CASES)))
    def test_boosters_equal_the_per_node_sorting_reference(self, case):
        n, p, decimals, lam, gamma, min_leaf, depth = SORTING_CASES[case]
        rng = np.random.default_rng(400 + case)
        X = rng.normal(size=(n, p))
        if decimals is not None:
            X = np.round(X, decimals)  # heavy ties
        y = rng.normal(size=n)
        params = TreeParams(lam=lam, gamma=gamma, max_depth=depth, min_samples_leaf=min_leaf)
        assert train_booster(X, y, params, 8).to_dict() == sorting_booster(X, y, params, 8).to_dict()

    @pytest.mark.parametrize("seed", range(40))
    def test_trees_with_non_constant_hessians_equal_the_reference(self, seed):
        # positive hessians of mixed scale, a tenth of them near 0.1, so the
        # prefix sums of h are rounded as often as those of g
        rng = np.random.default_rng(700 + seed)
        n, p = int(rng.integers(2, 90)), int(rng.integers(1, 7))
        X = np.round(rng.normal(size=(n, p)), int(rng.integers(0, 3)))
        g = rng.normal(size=n)
        h = rng.uniform(0.05, 3.0, size=n)
        h[rng.random(n) < 0.1] *= 0.1
        params = TreeParams(
            lam=float(rng.choice([0.0, 0.3, 1.0])),
            gamma=float(rng.choice([0.0, 0.01])),
            max_depth=int(rng.integers(0, 6)),
            min_samples_leaf=int(rng.integers(1, 4)),
        )
        assert build_tree(X, g, h, params).to_dict() == sorting_tree(X, g, h, params).to_dict()

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_across_six_decades_with_negative_zero(self, seed):
        rng = np.random.default_rng(800 + seed)
        n = 64
        X = np.round(rng.normal(size=(n, 3)), 1)
        g = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        g[rng.choice(n, size=6, replace=False)] = -0.0
        h = 10.0 ** rng.uniform(-3, 3, size=n)
        params = TreeParams(lam=0.0, max_depth=4, min_samples_leaf=1)
        assert build_tree(X, g, h, params).to_dict() == sorting_tree(X, g, h, params).to_dict()

    @pytest.mark.parametrize("h0", [0.1, 0.3, 3.3])
    @pytest.mark.parametrize("seed", [6, 7, 11, 23])
    def test_constant_hessians_whose_running_sums_round(self, h0, seed):
        # k * 0.1 is not the k-th running sum of 0.1 for many k, and unit
        # gradients tie gains often enough that a last-bit error in HL moves
        # a split: with HL = k * h0 every one of these seeds grows another tree
        rng = np.random.default_rng(1000 + seed)
        n = 120
        X = np.round(rng.normal(size=(n, 4)), 0)
        g = rng.choice([-1.0, 1.0], size=n)
        h = np.full(n, h0)
        params = TreeParams(lam=0.0, max_depth=5, min_samples_leaf=1)
        assert build_tree(X, g, h, params).to_dict() == sorting_tree(X, g, h, params).to_dict()

    @pytest.mark.parametrize("row", [0, 37, 79])
    def test_one_differing_hessian_takes_the_per_feature_path(self, row):
        rng = np.random.default_rng(1100 + row)
        n = 80
        X = np.round(rng.normal(size=(n, 3)), 1)
        g = rng.normal(size=n)
        h = np.full(n, 2.0)
        h[row] = 50.0
        params = TreeParams(lam=1.0, max_depth=4, min_samples_leaf=1)
        assert build_tree(X, g, h, params).to_dict() == sorting_tree(X, g, h, params).to_dict()

    def test_boosters_on_a_lag_matrix_of_realistic_width(self):
        # 30 lags of 5 walk columns, as the gbt-lags baseline sees them
        rng = np.random.default_rng(1200)
        walk = np.cumsum(rng.normal(size=(330, 5)), axis=0)
        walk[:, 4] = np.round(walk[:, 4])  # a column with ties
        ds = make_windows(walk, target_col=0, n_steps_in=30, n_steps_out=1)
        X, y = ds.X.reshape(ds.X.shape[0], -1), ds.Y[:, 0]
        assert X.shape == (300, 150)
        params = TreeParams(max_depth=4, min_samples_leaf=2)
        assert train_booster(X, y, params, 3).to_dict() == sorting_booster(X, y, params, 3).to_dict()

    def test_a_node_of_ten_thousand_rows(self):
        # more rows than one 8,192-element buffer of a numpy reduction
        rng = np.random.default_rng(900)
        X = np.round(rng.normal(size=(10_000, 2)), 2)
        g = rng.normal(size=10_000)
        h = rng.uniform(0.1, 2.0, size=10_000)
        params = TreeParams(lam=1.0, max_depth=2, min_samples_leaf=1)
        assert build_tree(X, g, h, params).to_dict() == sorting_tree(X, g, h, params).to_dict()


_BAD_INPUTS = {
    "matrix is 1-D": (np.ones(4), np.ones(4), ShapeError),
    "length mismatch": (np.ones((4, 2)), np.ones(3), ShapeError),
    "zero rows": (np.ones((0, 2)), np.ones(0), SizingError),
    "NaN": (np.array([[1.0], [np.nan], [3.0]]), np.ones(3), DomainError),
}


@pytest.mark.parametrize("entry", ["build_tree", "train_booster"])
@pytest.mark.parametrize("fault", sorted(_BAD_INPUTS))
def test_both_entry_points_check_their_inputs_alike(entry, fault):
    X, vector, error = _BAD_INPUTS[fault]
    with pytest.raises(error):
        if entry == "build_tree":
            build_tree(X, vector, np.full(vector.size, 2.0), TreeParams())
        else:
            train_booster(X, vector, TreeParams(), 2)


class TestLoadValidation:
    @staticmethod
    def payload():
        rng = np.random.default_rng(39)
        X = rng.normal(size=(32, 3))
        booster = train_booster(X, rng.normal(size=32), TreeParams(max_depth=2), 2)
        payload = json.loads(json.dumps(booster.to_dict()))
        tree = payload["trees"][0]
        assert tree["feature"][0] != -1 and tree["feature"][1] != -1 and tree["feature"][-1] == -1
        return payload

    def test_valid_payload_loads(self):
        assert Booster.from_dict(self.payload()).n_features == 3

    @pytest.mark.parametrize(
        "key, index, value",
        [
            ("left", 0, 0),                   # cycle: the root is its own child
            ("right", 0, 99),                 # child past the last node
            ("right", 1, 1),                  # internal node 1 is its own child
            ("left", -1, 0),                  # the last node is a leaf with a child
            ("feature", 0, 3),                # feature the booster was not trained on
            ("feature", 0, -2),               # negative feature
            ("threshold", 0, float("nan")),
            ("weight", 1, float("inf")),
            ("weight", None, None),           # arrays of unequal length
            ("left", None, "x"),              # not an array of ints
            ("left", 0, 1.2),                 # a fractional id
            ("feature", 0, 0.0),              # a float id, even a whole one
            ("right", 0, True),               # a boolean id
            ("threshold", 0, True),           # a boolean number
            ("weight", 0, "0.5"),             # a numeric string
        ],
    )
    def test_malformed_tree_raises(self, key, index, value):
        payload = self.payload()
        tree = payload["trees"][0]
        if key == "weight" and index is None:
            tree["weight"].pop()
        elif index is None:
            tree[key] = value
        else:
            tree[key][index] = value
        with pytest.raises(SchemaError):
            Booster.from_dict(payload)

    @pytest.mark.parametrize(
        "path, value",
        [
            ("n_features", float("inf")),           # int() of it raised OverflowError
            ("n_features", 7.9),                    # was truncated to 7
            ("n_features", 3.0),                    # a float, even a whole one
            ("n_features", "3"),
            ("n_features", True),
            ("base_score", True),
            ("base_score", float("nan")),
            ("base_score", "0.5"),
            ("params.learning_rate", True),         # loaded as 1.0
            ("params.max_depth", 2.5),
            ("params.min_samples_leaf", False),
            ("params.lam", float("inf")),
            ("params.gamma", "0"),
            ("params.gamma", None),
            ("params.lam", "missing"),              # default 1.0 was filled in
            ("params.eta", 0.3),                    # not a TreeParams field
        ],
    )
    def test_mistyped_booster_field_raises(self, path, value):
        payload = self.payload()
        *parents, key = path.split(".")
        box = payload["params"] if parents else payload
        if value == "missing":
            del box[key]
        else:
            box[key] = value
        with pytest.raises(SchemaError):
            Booster.from_dict(payload)

    def test_integers_load_as_real_fields(self):
        payload = self.payload()
        payload["base_score"], payload["params"]["lam"] = 0, 2
        booster = Booster.from_dict(payload)
        assert (booster.base_score, booster.params.lam) == (0, 2)

    @pytest.mark.parametrize("key", ["trees", "n_features", "params"])
    def test_booster_without_a_key_raises(self, key):
        payload = self.payload()
        del payload[key]
        with pytest.raises(SchemaError):
            Booster.from_dict(payload)


class TestPredictRouting:
    def test_value_equal_to_threshold_goes_right(self):
        tree = RegTree(
            feature=np.array([0, -1, -1]),
            threshold=np.array([2.0, 0.0, 0.0]),
            left=np.array([1, -1, -1]),
            right=np.array([2, -1, -1]),
            weight=np.array([0.0, -1.0, 1.0]),
        )
        npt.assert_array_equal(tree.predict([[1.9], [2.0], [2.1]]), [-1.0, 1.0, 1.0])

    def test_empty_input(self):
        tree = RegTree(
            feature=np.array([-1]),
            threshold=np.array([0.0]),
            left=np.array([-1]),
            right=np.array([-1]),
            weight=np.array([0.5]),
        )
        assert tree.predict(np.zeros((0, 4))).size == 0


class TestBooster:
    def test_zero_rounds_predicts_base_score(self):
        rng = np.random.default_rng(33)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        booster = train_booster(X, y, TreeParams(), n_rounds=0)
        npt.assert_array_equal(booster.predict(X), np.full(10, np.mean(y)))

    def test_training_reduces_rmse(self):
        rng = np.random.default_rng(34)
        X = rng.normal(size=(64, 3))
        y = X[:, 0] - 2.0 * X[:, 1] + 0.5 * rng.normal(size=64)
        params = TreeParams(lam=1.0, max_depth=3, min_samples_leaf=2, learning_rate=0.3)
        losses = []
        for rounds in (0, 5, 30):
            booster = train_booster(X, y, params, rounds)
            losses.append(float(np.sqrt(np.mean((booster.predict(X) - y) ** 2))))
        assert losses[2] < losses[1] < losses[0]

    def test_can_drive_training_error_to_zero(self):
        rng = np.random.default_rng(35)
        X = rng.normal(size=(16, 2))
        y = rng.normal(size=16)
        params = TreeParams(lam=0.0, max_depth=5, min_samples_leaf=1, learning_rate=1.0)
        booster = train_booster(X, y, params, n_rounds=20)
        npt.assert_allclose(booster.predict(X), y, atol=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(36)
        X = rng.normal(size=(32, 2))
        y = rng.normal(size=32)
        a = train_booster(X, y, TreeParams(), 10)
        b = train_booster(X, y, TreeParams(), 10)
        assert a.to_dict() == b.to_dict()

    def test_feature_count_checked_at_predict(self):
        booster = train_booster(np.ones((4, 2)) * [[1, 2], [2, 1], [3, 4], [4, 3]], [1.0, 2.0, 3.0, 4.0], TreeParams(), 2)
        with pytest.raises(ShapeError):
            booster.predict(np.ones((3, 5)))

    def test_negative_rounds(self):
        with pytest.raises(DomainError):
            train_booster(np.ones((2, 1)) * [[1.0], [2.0]], [1.0, 2.0], TreeParams(), -1)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(37)
        X = rng.normal(size=(32, 3))
        y = rng.normal(size=32)
        booster = train_booster(X, y, TreeParams(max_depth=3), 8)
        payload = json.loads(json.dumps(booster.to_dict()))
        clone = Booster.from_dict(payload)
        npt.assert_array_equal(clone.predict(X), booster.predict(X))

    def test_param_validation(self):
        with pytest.raises(DomainError):
            TreeParams(lam=-0.1)
        with pytest.raises(DomainError):
            TreeParams(learning_rate=0.0)
        with pytest.raises(DomainError):
            TreeParams(min_samples_leaf=0)

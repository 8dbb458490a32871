import json
import math
import sys
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import stored, unstored
from coincast import gbtree
from coincast.config import GbtSection
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
from coincast.market_data import json_text, make_windows


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


def nodes(tree: RegTree) -> dict:
    """A tree's node arrays as lists, which compare equal exactly when the trees do."""
    return {key: getattr(tree, key).tolist() for key in ("feature", "left", "right", "threshold", "weight")}


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
            assert nodes(build_tree(X, g, h, params)) == nodes(tree)
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
        assert nodes(build_tree(X, g, h, params)) == nodes(sorting_tree(X, g, h, params))

    @pytest.mark.parametrize("seed", range(10))
    def test_gradients_across_six_decades_with_negative_zero(self, seed):
        rng = np.random.default_rng(800 + seed)
        n = 64
        X = np.round(rng.normal(size=(n, 3)), 1)
        g = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
        g[rng.choice(n, size=6, replace=False)] = -0.0
        h = 10.0 ** rng.uniform(-3, 3, size=n)
        params = TreeParams(lam=0.0, max_depth=4, min_samples_leaf=1)
        assert nodes(build_tree(X, g, h, params)) == nodes(sorting_tree(X, g, h, params))

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
        assert nodes(build_tree(X, g, h, params)) == nodes(sorting_tree(X, g, h, params))

    @pytest.mark.parametrize("row", [0, 37, 79])
    def test_one_differing_hessian_takes_the_per_feature_path(self, row):
        rng = np.random.default_rng(1100 + row)
        n = 80
        X = np.round(rng.normal(size=(n, 3)), 1)
        g = rng.normal(size=n)
        h = np.full(n, 2.0)
        h[row] = 50.0
        params = TreeParams(lam=1.0, max_depth=4, min_samples_leaf=1)
        assert nodes(build_tree(X, g, h, params)) == nodes(sorting_tree(X, g, h, params))

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
        assert nodes(build_tree(X, g, h, params)) == nodes(sorting_tree(X, g, h, params))


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


# (key, index, value, message): node ``index`` (within one tree) of array
# ``key`` set to ``value``, stored as a file holding that value would store it
# (see ``as_stored``); index None puts ``value`` in place of the whole array
# object, or for "weight" drops the tree's last entry, and "del" deletes the
# key. ``message`` is the SchemaError's text for a booster with that one fault
# in any of its trees, which are all laid out as TestLoadValidation.payload
# checks.
CHILDREN = "an internal node's must follow it and a leaf has none"
UNEVEN = "tree node arrays must be of one length, the sum of the trees' n_nodes, each at least 1"
NOT_OBJECT = "must be an object of data, dtype and shape, got"
MALFORMED_TREES = [
    ("left", 0, 0, f"tree node 0 of 7 has children (0, 4); {CHILDREN}"),  # cycle: the root is its own child
    ("right", 0, 99, f"tree node 0 of 7 has children (1, 99); {CHILDREN}"),  # child past the last node
    ("right", 1, 1, f"tree node 1 of 7 has children (2, 1); {CHILDREN}"),  # internal node 1 is its own child
    ("left", -1, 0, f"tree node 6 of 7 has children (0, -1); {CHILDREN}"),  # the last node is a leaf with a child
    ("feature", 0, 3, "tree splits on feature 3 of a booster trained on 3"),  # feature the booster was not trained on
    ("feature", 0, -2, "negative feature index -2 in tree"),
    ("threshold", 0, float("nan"), "tree threshold has non-finite values"),
    ("weight", 1, float("inf"), "tree weight has non-finite values"),
    ("weight", None, None, UNEVEN),  # arrays of unequal length
    ("left", None, "x", f"tree left {NOT_OBJECT} 'x'"),  # not an array object
    ("left", None, 5, f"tree left {NOT_OBJECT} 5"),  # a number in place of the array
    ("weight", "del", None, "booster trees must be an object of the arrays feature, left, right, threshold,"
     " weight, n_nodes, got ['feature', 'left', 'right', 'threshold'... (52 characters)"),
    ("left", 0, 1.2, "tree left dtype must be '<i8', got '<f8'"),  # a fractional id
    ("feature", 0, 0.0, "tree feature dtype must be '<i8', got '<f8'"),  # a float id, even a whole one
    ("right", 0, True, "tree right dtype must be '<i8', got '|b1'"),  # a boolean id
    ("left", 0, 2**63, "tree left dtype must be '<i8', got '<u8'"),
    ("right", 0, -2**63 - 1, "tree right dtype must be '<i8', got '<f8'"),
    ("threshold", 0, True, "tree threshold dtype must be '<f8', got '|b1'"),  # a boolean number
    ("weight", 0, "0.5", "tree weight dtype must be '<f8', got '<U3'"),  # a numeric string
    ("threshold", 0, 10**400, "tree threshold has non-finite values"),  # past float: infinite bits
    ("weight", 0, -10**400, "tree weight has non-finite values"),
    ("threshold", 0, [0.5], "tree threshold shape must be a list of 1 non-negative integers, got [21, 1]"),
]
# pytest's own ids, cut short for the integers past any float
CASE_IDS = ["-".join(map(str, case[:3]))[:40] for case in MALFORMED_TREES]


def as_stored(value, dtype: str):
    """The dtype and value of an array holding ``value`` where one of ``dtype``
    is due: an integer keeps ``dtype`` while int64 holds it and then takes
    uint64, or else float64, and a float past the largest is infinite."""
    if type(value) is bool:
        return "|b1", value
    if type(value) is str:
        return f"<U{len(value)}", value
    if type(value) is float:
        return "<f8", value
    if -2**63 <= value < 2**63 and dtype == "<i8":
        return dtype, value
    if 0 <= value < 2**64 and dtype == "<i8":
        return "<u8", value
    if abs(value) > sys.float_info.max:
        return "<f8", math.inf if value > 0 else -math.inf
    return "<f8", float(value)


def spoil(payload, tree: int, key, index, value) -> None:
    """Put one fault of MALFORMED_TREES into tree ``tree`` of a booster file's payload."""
    trees = payload["trees"]
    if index == "del":
        del trees[key]
        return
    if index is None and key != "weight":
        trees[key] = value
        return
    sizes = unstored(trees["n_nodes"]).tolist()
    first, size = sum(sizes[:tree]), sizes[tree]
    array, dtype = unstored(trees[key]), trees[key]["dtype"]
    if index is None:
        array = np.delete(array, first + size - 1)
    elif type(value) is list:  # a nested entry: every entry becomes a list
        array = array.reshape(-1, 1)
    else:
        dtype, value = as_stored(value, dtype)
        array = array.astype(dtype)
        array[first + index % size] = value
    trees[key] = stored(array, dtype)


def refusal(payload) -> str:
    """The message of the SchemaError that loading ``payload`` raises."""
    with pytest.raises(SchemaError) as info:
        Booster.from_dict(payload)
    message = str(info.value)
    assert len(message) < 200, message[:400]
    return message


def trained_booster() -> Booster:
    rng = np.random.default_rng(39)
    X = rng.normal(size=(32, 3))
    return train_booster(X, rng.normal(size=32), TreeParams(max_depth=2), 3)


BOOSTER_FILE = json.dumps(trained_booster().to_dict())


# JSON values that a model file may hold in the wrong place, among them the
# parts of an array object: dtypes, shapes and base64 text of the wrong kind
LONG = "x" * 1000
ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(LONG),
    st.sampled_from([-1, 3, 2**63, -2**63 - 1, 10**400, -10**400, 2**20000, "", [], {}]),
    st.sampled_from(["<f8", "<i8", "<f4", ">i8", "|b1", "AAAA", "AAA=", "A===", "====", "AAAAAAAA\n", "\u00e9AAA"]),
    st.sampled_from([[0], [1], [7], [21], [-1], [2**63], [10**30, 10**30], [True], [21, 1], [0.5]]),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-2, 8), st.floats(), st.lists(st.floats(), max_size=2)), max_size=4),
    st.dictionaries(st.sampled_from(["data", "dtype", "shape", "left", "n_nodes", LONG]), st.integers(-1, 3), max_size=2),
)
# what a fault does at its path: put a value there, delete it, or add a key or
# list entry beside it
ACTIONS = st.sampled_from(["set", "delete", "add"])


def node_paths(value, path=()):
    """The path of every value inside ``value``, nested lists and objects included."""
    yield path
    keys = range(len(value)) if type(value) is list else value if type(value) is dict else ()
    for key in keys:
        yield from node_paths(value[key], (*path, key))


class TestLoadValidation:
    @staticmethod
    def payload():
        """The trained booster's file as JSON loads it; its three trees are
        full to depth 2, as the messages of MALFORMED_TREES assume."""
        payload = json.loads(BOOSTER_FILE)
        trees = payload["trees"]
        assert unstored(trees["n_nodes"]).tolist() == [7, 7, 7]
        assert unstored(trees["left"]).tolist() == [1, 2, -1, -1, 5, -1, -1] * 3
        assert unstored(trees["right"]).tolist() == [4, 3, -1, -1, 6, -1, -1] * 3
        return payload

    def test_valid_payload_loads(self):
        assert Booster.from_dict(self.payload()).n_features == 3

    def test_a_round_trip_rebuilds_the_trained_arrays(self):
        booster = trained_booster()
        loaded = Booster.from_dict(json.loads(json.dumps(booster.to_dict())))
        assert (loaded.base_score, loaded.params, loaded.n_features) == (
            booster.base_score, booster.params, booster.n_features,
        )
        assert len(loaded.trees) == len(booster.trees) == 3
        for a, b in zip(loaded.trees, booster.trees):
            for name in ("feature", "threshold", "left", "right", "weight"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.flags.writeable
                npt.assert_array_equal(x, y)

    @pytest.mark.parametrize("key, index, value, message", MALFORMED_TREES, ids=CASE_IDS)
    def test_malformed_tree_raises(self, key, index, value, message):
        payload = self.payload()
        spoil(payload, 0, key, index, value)
        assert refusal(payload) == message

    @pytest.mark.parametrize("key, index, value, message", MALFORMED_TREES, ids=CASE_IDS)
    def test_a_fault_in_the_last_tree_gives_that_trees_error(self, key, index, value, message):
        payload = self.payload()
        spoil(payload, -1, key, index, value)
        assert refusal(payload) == message

    def test_with_faults_in_two_trees_the_first_failing_check_decides(self):
        payload = self.payload()
        spoil(payload, 1, "right", 0, 99)  # children are checked after numbers
        spoil(payload, 2, "weight", 1, float("inf"))
        assert refusal(payload) == "tree weight has non-finite values"

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ([7, 7, 8], UNEVEN),  # more nodes than the arrays hold
            ([7, 7, 6], UNEVEN),
            ([7, 14, 0], UNEVEN),  # the right sum, with an empty tree
            ([7, 0, 14], UNEVEN),
            ([14, -7, 14], UNEVEN),
            ([2**62, 2**62, 2**62], UNEVEN),  # a sum past int64
            ([21], f"tree node 7 of 21 has children (1, 4); {CHILDREN}"),  # one tree of all nodes
            ([7, 7], UNEVEN),
        ],
    )
    def test_node_counts_must_be_positive_and_sum_to_the_node_arrays(self, sizes, message):
        payload = self.payload()
        payload["trees"]["n_nodes"] = stored(sizes, "<i8")
        assert refusal(payload) == message

    def test_an_empty_trees_list_loads_as_base_score(self):
        payload = self.payload()
        payload["trees"] = Booster().to_dict()["trees"]
        assert {key: array["shape"] for key, array in payload["trees"].items()} == dict.fromkeys(payload["trees"], [0])
        booster = Booster.from_dict(payload)
        assert booster.trees == []
        npt.assert_array_equal(booster.predict(np.ones((2, 3))), [payload["base_score"]] * 2)

    @pytest.mark.parametrize("trees", [None, 5, "abc", {}, {"feature": [-1]}, ""])
    def test_trees_that_are_not_a_list_raise(self, trees):
        payload = self.payload()
        payload["trees"] = trees
        assert refusal(payload).startswith("booster trees must be an object of the arrays feature, left,")

    def test_a_list_of_tree_objects_is_refused(self):
        # the layout of model format version 4
        payload = self.payload()
        payload["trees"] = [{key: getattr(tree, key).tolist() for key in ("feature", "left", "right", "threshold", "weight")}
                            for tree in trained_booster().trees]
        assert refusal(payload).startswith(
            "booster trees must be an object of the arrays feature, left, right, threshold, weight, n_nodes,"
            " got [{'feature': [2, 2, -1, -1, 2, -1, -1]"
        )

    @pytest.mark.parametrize("value", [None, 5, "abc", [], [[-1]]])
    def test_an_array_that_is_not_an_array_object_is_refused(self, value):
        payload = self.payload()
        payload["trees"]["right"] = value
        assert refusal(payload) == f"tree right {NOT_OBJECT} {value!r}"

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
            pytest.param("params.lam", 10**400, id="params.lam-10**400"),  # an int past the largest float
            pytest.param("base_score", 10**400, id="base_score-10**400"),  # predict raised OverflowError
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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p["trees"]["left"].update(dtype="x" * 100_000),
             "tree left dtype must be '<i8', got 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx... (100002 characters)"),
            (lambda p: p["params"].update({"k" * 100_000: 0.3}),
             "unknown booster params key 'kkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkkk... (100002 characters)"),
            (lambda p: p["params"].update(eta=0.3), "unknown booster params key 'eta'"),
        ],
        ids=["huge-id", "huge-params-key", "params-key"],
    )
    def test_a_value_in_a_message_is_cut_short(self, edit, message):
        payload = self.payload()
        edit(payload)
        assert refusal(payload) == message

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_odd_values_anywhere_load_or_raise_a_short_schema_error(self, data):
        payload = self.payload()
        for _ in range(data.draw(st.integers(1, 3), label="faults")):
            path = data.draw(st.sampled_from(list(node_paths(payload))), label="path")
            value = data.draw(ODD_VALUES, label="value")
            if not path:
                payload = value
                continue
            *parents, last = path
            box = payload
            for key in parents:
                box = box[key]
            action = data.draw(ACTIONS, label="action")
            if action == "delete":
                del box[last]
            elif action == "set":
                box[last] = value
            elif type(box) is dict:
                box[data.draw(st.sampled_from(["x", LONG]), label="key")] = value
            else:
                box.append(value)
        try:
            Booster.from_dict(payload)
        except SchemaError as exc:
            assert len(str(exc)) < 200, str(exc)[:400]


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


def walked(tree: RegTree, X) -> np.ndarray:
    """Reference routing: each row walked from the root one node at a time."""
    out = []
    for row in np.asarray(X, dtype=np.float64):
        node = 0
        while tree.feature[node] != -1:
            go_left = row[tree.feature[node]] < tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out.append(tree.weight[node])
    return np.asarray(out, dtype=np.float64)


def left_fold(booster: Booster, X) -> np.ndarray:
    """base + lr*t0 + lr*t1 + ..., with each tree routed by ``walked``."""
    out = np.full(len(X), booster.base_score)
    for tree in booster.trees:
        out = out + booster.params.learning_rate * walked(tree, X)
    return out


class TestForestRouting:
    """Booster.predict routes every tree at once and must equal the tree by
    tree sum bit for bit."""

    @staticmethod
    def forest(n_rows=40, p=4):
        """Trees of depths 0 to 6, three rounds each, in one booster."""
        rng = np.random.default_rng(61)
        X = rng.normal(size=(n_rows, p))
        y = np.sin(3.0 * X[:, 0]) + X[:, -1] ** 2 + 0.1 * rng.normal(size=n_rows)
        trees = []
        for depth in range(7):
            params = TreeParams(max_depth=depth, min_samples_leaf=1)
            trees += train_booster(X, y, params, 3).trees
        assert {t.depth for t in trees} == set(range(7))
        assert any(t.n_nodes == 1 for t in trees)
        return Booster(trees=trees, base_score=0.25, params=TreeParams(learning_rate=0.3), n_features=p), X

    def test_zero_trees_predict_base_score(self):
        booster = Booster(base_score=-1.5, n_features=3)
        npt.assert_array_equal(booster.predict(np.ones((4, 3))), np.full(4, -1.5))

    @pytest.mark.parametrize("depth", range(7))  # depth 0: single-leaf trees
    def test_each_depth(self, depth):
        booster, X = self.forest()
        booster.trees = [t for t in booster.trees if t.depth == depth]
        npt.assert_array_equal(booster.predict(X), left_fold(booster, X))

    def test_zero_rows(self):
        booster, X = self.forest()
        assert booster.predict(X[:0]).shape == (0,)

    def test_rows_past_one_block_and_values_on_thresholds(self):
        booster, _ = self.forest()
        rng = np.random.default_rng(62)
        X = rng.normal(size=(2 * gbtree._ROWS_PER_BLOCK + 3, 4))
        inner = [(t.feature[i], t.threshold[i]) for t in booster.trees for i in np.flatnonzero(t.feature != -1)]
        for row, (feat, thr) in enumerate(inner):  # a value equal to a threshold goes right
            X[row, feat] = thr
        npt.assert_array_equal(booster.predict(X), left_fold(booster, X))
        fold = np.full(len(X), booster.base_score)
        for tree in booster.trees:
            fold = fold + booster.params.learning_rate * tree.predict(X)
        npt.assert_array_equal(booster.predict(X), fold)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_a_rows_route_does_not_depend_on_its_block(self, monkeypatch, block):
        booster, X = self.forest(n_rows=150)
        expected = booster.predict(X)
        monkeypatch.setattr(gbtree, "_ROWS_PER_BLOCK", block)
        npt.assert_array_equal(booster.predict(X), expected)

    def test_a_threshold_value_goes_right_in_a_forest(self):
        booster, _ = self.forest(p=1)
        hand = RegTree(
            feature=np.array([0, -1, -1]),
            threshold=np.array([2.0, 0.0, 0.0]),
            left=np.array([1, -1, -1]),
            right=np.array([2, -1, -1]),
            weight=np.array([0.0, -1.0, 1.0]),
        )
        booster.trees = [booster.trees[5], hand, booster.trees[-1]]
        X = np.array([[1.9], [2.0], [2.1]])
        npt.assert_array_equal(booster.predict(X), left_fold(booster, X))
        npt.assert_array_equal(hand.predict(X), [-1.0, 1.0, 1.0])

    def test_a_tree_past_the_matrix_width_raises(self):
        booster, X = self.forest()
        tree = max(booster.trees, key=lambda t: t.feature.max())
        with pytest.raises(ShapeError):
            tree.predict(X[:, : tree.feature.max()])


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

    def test_model_text_is_that_of_explicit_conversions(self):
        rng = np.random.default_rng(38)
        X = rng.normal(size=(40, 3))
        booster = train_booster(X, rng.normal(size=40), TreeParams(max_depth=3), 6)
        explicit = booster.to_dict()
        explicit["trees"] = {
            key: stored(np.concatenate([getattr(t, key) for t in booster.trees]), dtype)
            for key, dtype in (("feature", "<i8"), ("left", "<i8"), ("right", "<i8"), ("threshold", "<f8"), ("weight", "<f8"))
        }
        explicit["trees"]["n_nodes"] = stored([t.feature.size for t in booster.trees], "<i8")
        assert json_text(booster.to_dict()) == json_text(explicit)

    def test_a_trained_booster_writes_only_tree_params(self):
        # pipeline trains on a GbtSection, whose n_rounds is no booster parameter
        rng = np.random.default_rng(40)
        booster = train_booster(rng.normal(size=(16, 2)), rng.normal(size=16), GbtSection(n_rounds=2), 2)
        assert booster.to_dict()["params"] == asdict(TreeParams())

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

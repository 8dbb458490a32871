"""Gradient-boosted regression trees with second-order (Newton) leaf weights.

Squared-error objective: per boosting round the gradient of (pred - y)^2 is
g = 2 (pred - y) and the hessian is the constant h = 2. Trees are grown by
exact greedy search over midpoints between consecutive distinct sorted
feature values; a split is kept only if its regularized gain is strictly
positive. Leaf weights are -G / (H + lambda); ties in gain resolve to the
lowest feature index, then the lowest threshold, so training is fully
deterministic.

The search is the presorted exact method of XGBoost (Chen & Guestrin 2016,
Alg. 1 with the column blocks of section 4.1): every feature column is
argsorted once per booster, each node carries its rows in that order for all
features at once, and a split partitions the parent's order into its
children instead of sorting again. A stable sort filtered to a node's rows is
the order a per-node stable sort would give, and each feature's prefix sums
are taken sequentially along its row, so the trees are bit-identical to
sorting every feature at every node.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SchemaError, ShapeError, SizingError

_LEAF = -1


@dataclass(frozen=True)
class TreeParams:
    lam: float = 1.0
    gamma: float = 0.0
    max_depth: int = 4
    min_samples_leaf: int = 2
    learning_rate: float = 0.3

    def __post_init__(self):
        if self.lam < 0:
            raise DomainError(f"lambda must be non-negative, got {self.lam}")
        if self.gamma < 0:
            raise DomainError(f"gamma must be non-negative, got {self.gamma}")
        if self.max_depth < 0:
            raise DomainError(f"max depth must be non-negative, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise DomainError(
                f"min samples per leaf must be at least 1, got {self.min_samples_leaf}"
            )
        if not 0.0 < self.learning_rate <= 1.0:
            raise DomainError(
                f"learning rate must be in (0, 1], got {self.learning_rate}"
            )


def grad_hess(pred, target):
    """First and second derivatives of the squared-error loss at ``pred``."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    y = np.asarray(target, dtype=np.float64).ravel()
    if p.shape != y.shape:
        raise ShapeError(f"prediction and target lengths differ: {p.size} vs {y.size}")
    return 2.0 * (p - y), np.full(p.size, 2.0)


def leaf_weight(G: float, H: float, lam: float) -> float:
    """Optimal leaf value -G / (H + lambda)."""
    denom = H + lam
    if denom <= 0:
        raise DomainError(f"H + lambda must be positive, got {denom}")
    return -G / denom


def split_gain(GL: float, HL: float, GR: float, HR: float, lam: float, gamma: float) -> float:
    """Regularized gain of splitting a node into (L, R) children.

    gain = 1/2 [ GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam) ] - gamma
    """
    for label, denom in (("left", HL + lam), ("right", HR + lam), ("parent", HL + HR + lam)):
        if denom <= 0:
            raise DomainError(f"{label} hessian sum plus lambda must be positive, got {denom}")
    parent = (GL + GR) ** 2 / (HL + HR + lam)
    return 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent) - gamma


@dataclass
class RegTree:
    """Flat array representation of a binary regression tree.

    ``feature[n] == -1`` marks node n as a leaf carrying ``weight[n]``.
    Internal nodes route a sample left when x[feature] < threshold.
    """

    feature: np.ndarray    # int64, -1 at leaves
    threshold: np.ndarray  # float64
    left: np.ndarray       # int64 child ids, -1 at leaves
    right: np.ndarray
    weight: np.ndarray     # float64, defined at leaves

    @property
    def n_nodes(self) -> int:
        return self.feature.size

    @property
    def n_leaves(self) -> int:
        return int((self.feature == _LEAF).sum())

    @property
    def depth(self) -> int:
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        for node in range(self.n_nodes):
            if self.feature[node] != _LEAF:
                for child in (self.left[node], self.right[node]):
                    depths[child] = depths[node] + 1
        return int(depths.max())

    def predict(self, X) -> np.ndarray:
        """Route every row of (N, p) features to its leaf weight."""
        M = np.asarray(X, dtype=np.float64)
        if M.ndim != 2:
            raise ShapeError(f"expected a 2-D feature matrix, got {M.ndim} dimension(s)")
        idx = np.zeros(M.shape[0], dtype=np.int64)
        while True:
            feat = self.feature[idx]
            active = feat != _LEAF
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            node = idx[rows]
            go_left = M[rows, feat[rows]] < self.threshold[node]
            idx[rows] = np.where(go_left, self.left[node], self.right[node])
        return self.weight[idx]

    def to_dict(self) -> dict:
        return {
            "feature": [int(v) for v in self.feature],
            "threshold": [float(v) for v in self.threshold],
            "left": [int(v) for v in self.left],
            "right": [int(v) for v in self.right],
            "weight": [float(v) for v in self.weight],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RegTree":
        """Inverse of :meth:`to_dict`; raises SchemaError for a malformed tree.

        Children must have larger ids than their parent, as the depth-first
        grower numbers them, so routing a row always ends at a leaf.
        """
        try:
            tree = cls(
                feature=np.asarray(payload["feature"], dtype=np.int64),
                threshold=np.asarray(payload["threshold"], dtype=np.float64),
                left=np.asarray(payload["left"], dtype=np.int64),
                right=np.asarray(payload["right"], dtype=np.int64),
                weight=np.asarray(payload["weight"], dtype=np.float64),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed tree: {exc!r}") from None
        n = tree.n_nodes
        arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.weight)
        if n < 1 or any(a.shape != (n,) for a in arrays):
            raise SchemaError("tree arrays must be one-dimensional, non-empty and of equal length")
        nodes = np.arange(n)
        inner = tree.feature != _LEAF
        follows = (tree.left > nodes) & (tree.left < n) & (tree.right > nodes) & (tree.right < n)
        childless = (tree.left == _LEAF) & (tree.right == _LEAF)
        bad = np.flatnonzero(~np.where(inner, follows, childless))
        if bad.size:
            node = bad[0]
            raise SchemaError(
                f"tree node {node} of {n} has children ({tree.left[node]}, {tree.right[node]}); "
                "an internal node's must follow it and a leaf has none"
            )
        if np.any(tree.feature < _LEAF):
            raise SchemaError(f"negative feature index {tree.feature.min()} in tree")
        if not (np.all(np.isfinite(tree.threshold)) and np.all(np.isfinite(tree.weight))):
            raise SchemaError("tree has non-finite thresholds or weights")
        return tree


def _presort(M: np.ndarray) -> np.ndarray:
    """Row order of every column, ascending and stable, as a (p, N) array."""
    return np.ascontiguousarray(np.argsort(M, axis=0, kind="stable").T)


def _best_split(
    M: np.ndarray, g: np.ndarray, h: np.ndarray, idx: np.ndarray, block: np.ndarray,
    params: TreeParams,
):
    """Exact greedy search over all features and midpoint thresholds of a node.

    ``idx`` holds the node's rows in ascending order and ``block[f]`` the
    same rows sorted by feature ``f``: the booster's one stable presort,
    partitioned down the tree, never re-sorted. Every feature is scanned in
    one pass: gather values and gradients into (p, n) blocks in sorted order,
    take prefix sums along each row, and score every boundary between
    distinct values that leaves at least ``min_samples_leaf`` rows on each
    side. The sums and gains are the ones a per-node, per-feature sort
    computes, bit for bit.

    Returns (gain, feature, threshold) for the best strictly-positive gain,
    or None. Ties resolve to the lowest feature index and then the lowest
    threshold.
    """
    lam, gamma = params.lam, params.gamma
    min_leaf = params.min_samples_leaf
    G = float(g[idx].sum())
    H = float(h[idx].sum())
    parent_score = G * G / (H + lam)

    n = idx.size
    lo, hi = min_leaf - 1, n - min_leaf  # boundary b puts rows 0..b on the left
    sv = M[block, np.arange(block.shape[0])[:, np.newaxis]]
    GL = np.cumsum(g[block], axis=1)[:, lo:hi]
    HL = np.cumsum(h[block], axis=1)[:, lo:hi]
    GR, HR = G - GL, H - HL
    # gains = 0.5 * (GL^2/(HL+lam) + GR^2/(HR+lam) - parent_score) - gamma:
    # the same operations in the same order, done in place, which avoids
    # (p, n) temporaries and takes about 15% off booster time.
    GL *= GL
    HL += lam
    GL /= HL
    GR *= GR
    HR += lam
    GR /= HR
    gains = GL
    gains += GR
    gains -= parent_score
    gains *= 0.5
    gains -= gamma
    gains[sv[:, lo:hi] >= sv[:, lo + 1 : hi + 1]] = -np.inf  # no boundary inside a tie
    top = gains.max(axis=1)  # best gain per feature; a NaN in a row makes it NaN: no split
    positive = top > 0
    if not positive.any():
        return None
    feat = int(np.where(positive, top, -np.inf).argmax())  # first maximum = lowest feature
    boundary = lo + int(gains[feat].argmax())  # first maximum = lowest threshold
    threshold = 0.5 * (sv[feat, boundary] + sv[feat, boundary + 1])
    return float(top[feat]), feat, float(threshold)


def _check_training_arrays(X, g, h):
    M = np.asarray(X, dtype=np.float64)
    gv = np.asarray(g, dtype=np.float64).ravel()
    hv = np.asarray(h, dtype=np.float64).ravel()
    if M.ndim != 2:
        raise ShapeError(f"expected a 2-D feature matrix, got {M.ndim} dimension(s)")
    if M.shape[0] != gv.size or gv.size != hv.size:
        raise ShapeError(
            f"rows/gradients/hessians disagree: {M.shape[0]}, {gv.size}, {hv.size}"
        )
    if M.shape[0] < 1:
        raise SizingError("cannot grow a tree from zero rows")
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(gv)) and np.all(np.isfinite(hv))):
        raise DomainError("non-finite values in training arrays; missing data is not supported")
    return M, gv, hv


def build_tree(X, g, h, params: TreeParams) -> RegTree:
    """Grow one regression tree on gradient/hessian statistics."""
    M, gv, hv = _check_training_arrays(X, g, h)
    return _grow_tree(M, _presort(M), gv, hv, params)


def _grow_tree(M, order, g, h, params: TreeParams) -> RegTree:
    """Depth-first growth from the presorted row ``order`` of ``M``.

    Each node keeps its rows twice: ascending (``idx``, so sums run in row
    order) and per feature in sorted order (``block``). A split partitions
    the parent's block with one boolean lookup; nothing is sorted again.
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    weight: list[float] = []

    def new_node() -> int:
        feature.append(_LEAF)
        threshold.append(0.0)
        left.append(_LEAF)
        right.append(_LEAF)
        weight.append(0.0)
        return len(feature) - 1

    def grow(idx: np.ndarray, block: np.ndarray, depth: int) -> int:
        node = new_node()
        best = None
        if depth < params.max_depth and idx.size >= 2 * params.min_samples_leaf:
            best = _best_split(M, g, h, idx, block, params)
        if best is None:
            weight[node] = leaf_weight(float(g[idx].sum()), float(h[idx].sum()), params.lam)
            return node
        _, feat, thr = best
        left_rows = M[:, feat] < thr
        go_left = left_rows[idx]
        in_left = left_rows[block].ravel()
        rows = block.ravel()
        p = block.shape[0]
        feature[node] = feat
        threshold[node] = thr
        left[node] = grow(idx[go_left], rows.compress(in_left).reshape(p, -1), depth + 1)
        right[node] = grow(idx[~go_left], rows.compress(~in_left).reshape(p, -1), depth + 1)
        return node

    grow(np.arange(M.shape[0]), order, 0)
    return RegTree(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        weight=np.asarray(weight, dtype=np.float64),
    )


@dataclass
class Booster:
    """Additive tree ensemble: prediction = base_score + eta * sum of trees."""

    trees: list[RegTree] = field(default_factory=list)
    base_score: float = 0.0
    params: TreeParams = field(default_factory=TreeParams)
    n_features: int = 0

    def predict(self, X) -> np.ndarray:
        M = np.asarray(X, dtype=np.float64)
        if M.ndim != 2:
            raise ShapeError(f"expected a 2-D feature matrix, got {M.ndim} dimension(s)")
        if M.shape[1] != self.n_features:
            raise ShapeError(
                f"booster was trained on {self.n_features} feature(s), got {M.shape[1]}"
            )
        out = np.full(M.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += self.params.learning_rate * tree.predict(M)
        return out

    def to_dict(self) -> dict:
        return {
            "base_score": float(self.base_score),
            "n_features": int(self.n_features),
            "params": {
                "lam": self.params.lam,
                "gamma": self.params.gamma,
                "max_depth": self.params.max_depth,
                "min_samples_leaf": self.params.min_samples_leaf,
                "learning_rate": self.params.learning_rate,
            },
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Booster":
        """Inverse of :meth:`to_dict`; raises SchemaError for a malformed booster."""
        try:
            booster = cls(
                trees=[RegTree.from_dict(t) for t in payload["trees"]],
                base_score=float(payload["base_score"]),
                params=TreeParams(**payload["params"]),
                n_features=int(payload["n_features"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed booster: {exc!r}") from None
        for tree in booster.trees:
            if tree.feature.max() >= booster.n_features:
                raise SchemaError(
                    f"tree splits on feature {tree.feature.max()} of a booster "
                    f"trained on {booster.n_features}"
                )
        return booster


def train_booster(X, targets, params: TreeParams, n_rounds: int) -> Booster:
    """Fit ``n_rounds`` trees to the squared-error objective.

    The model starts from base_score = mean(targets); each round fits a tree
    to the current gradients and adds it with weight ``params.learning_rate``.
    Training predictions are accumulated in exactly the order ``predict``
    replays them, so the two always agree bitwise.
    """
    M = np.asarray(X, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).ravel()
    if M.ndim != 2:
        raise ShapeError(f"expected a 2-D feature matrix, got {M.ndim} dimension(s)")
    if M.shape[0] != y.size:
        raise ShapeError(f"{M.shape[0]} rows but {y.size} targets")
    if y.size < 1:
        raise SizingError("cannot train a booster on zero samples")
    if n_rounds < 0:
        raise DomainError(f"number of rounds must be non-negative, got {n_rounds}")
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(y))):
        raise DomainError("non-finite values in training data; missing data is not supported")

    booster = Booster(base_score=float(np.mean(y)), params=params, n_features=M.shape[1])
    preds = np.full(y.size, booster.base_score, dtype=np.float64)
    order = _presort(M)
    for _ in range(n_rounds):
        g, h = grad_hess(preds, y)
        tree = _grow_tree(M, order, g, h, params)
        booster.trees.append(tree)
        preds = preds + params.learning_rate * tree.predict(M)
    return booster

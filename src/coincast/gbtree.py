"""Gradient-boosted regression trees with second-order (Newton) leaf weights.

Squared-error objective: per boosting round the gradient of (pred - y)^2 is
g = 2 (pred - y) and the hessian is the constant h = 2. Trees are grown by
exact greedy search over midpoints between consecutive distinct sorted
feature values; a split is kept only if its regularized gain is strictly
positive. Leaf weights are -G / (H + lambda); ties in gain resolve to the
lowest feature index, then the lowest threshold, so training is fully
deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError, SizingError

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
        return cls(
            feature=np.asarray(payload["feature"], dtype=np.int64),
            threshold=np.asarray(payload["threshold"], dtype=np.float64),
            left=np.asarray(payload["left"], dtype=np.int64),
            right=np.asarray(payload["right"], dtype=np.int64),
            weight=np.asarray(payload["weight"], dtype=np.float64),
        )


def _best_split(X: np.ndarray, g: np.ndarray, h: np.ndarray, idx: np.ndarray, params: TreeParams):
    """Exact greedy search over all features and midpoint thresholds.

    Returns (gain, feature, threshold) for the best strictly-positive gain,
    or None. Iteration is by ascending feature and ascending threshold with a
    strict improvement test, so ties resolve to the lowest feature index and
    then the lowest threshold.
    """
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

    def grow(idx: np.ndarray, depth: int) -> int:
        node = new_node()
        best = None
        if depth < params.max_depth and idx.size >= 2 * params.min_samples_leaf:
            best = _best_split(M, gv, hv, idx, params)
        if best is None:
            weight[node] = leaf_weight(float(gv[idx].sum()), float(hv[idx].sum()), params.lam)
            return node
        _, feat, thr = best
        go_left = M[idx, feat] < thr
        feature[node] = feat
        threshold[node] = thr
        left[node] = grow(idx[go_left], depth + 1)
        right[node] = grow(idx[~go_left], depth + 1)
        return node

    grow(np.arange(M.shape[0]), 0)
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
        return cls(
            trees=[RegTree.from_dict(t) for t in payload["trees"]],
            base_score=float(payload["base_score"]),
            params=TreeParams(**payload["params"]),
            n_features=int(payload["n_features"]),
        )


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
    for _ in range(n_rounds):
        g, h = grad_hess(preds, y)
        tree = build_tree(M, g, h, params)
        booster.trees.append(tree)
        preds = preds + params.learning_rate * tree.predict(M)
    return booster

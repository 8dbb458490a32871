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
argsorted once per booster, each node that may split carries its rows in that
order for all features at once, and a split partitions the parent's order
into its children instead of sorting again; a child that cannot split
(at ``max_depth``, or too few rows for two leaves) keeps only its row list.
A stable sort filtered to a node's rows is the order a per-node stable sort
would give, so the trees are bit-identical to sorting every feature at every
node. A node gathers g and prefix-sums it once for all features. The
squared-error hessian is the same on every row, so one running sum of it per
tree is every feature's HL at every node (a sequential sum of k equal terms
depends only on k); hessians that differ are summed per feature like g.
Sorted feature values, which only mark the boundaries inside ties, are read
with one flat ``take`` from the transposed, feature-major copy of the matrix,
and only for the features that repeat a value. The (p, n) blocks of a node's
search are written into scratch arrays allocated once per booster.

Prediction routes all of a booster's trees at once: their nodes are
concatenated, and an index array of (trees, rows) starts at the roots and
moves one tree level down per numpy pass until every entry sits on a leaf.
The leaf weights are then added to ``base_score`` one tree at a time, in tree
order, as training adds them. A single tree is the one-tree case of the same
routing. A booster file stores each node array of all its trees concatenated,
plus each tree's node count; loading runs each check once over the nodes of
all trees, so the first check that fails decides the error.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, SchemaError, ShapeError, SizingError, check_field_kinds, shown
from .market_data import array_from_json, array_json

_LEAF = -1
# Rows routed through all trees at once; bounds prediction's (trees, rows) index arrays.
_ROWS_PER_BLOCK = 1024
# A booster file's ``trees`` object, in the order it is checked on load: each
# node array of all trees concatenated in tree order, with the dtype it is
# stored in, then each tree's node count.
_TREE_ARRAYS = {
    "feature": "<i8", "left": "<i8", "right": "<i8", "threshold": "<f8", "weight": "<f8", "n_nodes": "<i8",
}


@dataclass(frozen=True)
class TreeParams:
    lam: float = 1.0
    gamma: float = 0.0
    max_depth: int = 4
    min_samples_leaf: int = 2
    learning_rate: float = 0.3

    def __post_init__(self):
        check_field_kinds(self, {"lam": "lambda"})
        if self.lam < 0:
            raise DomainError(f"lambda must be non-negative, got {self.lam}")
        if self.gamma < 0:
            raise DomainError(f"gamma must be non-negative, got {self.gamma}")
        if self.max_depth < 0:
            raise DomainError(f"max_depth must be at least 0, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise DomainError(f"min_samples_leaf must be at least 1, got {self.min_samples_leaf}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise DomainError(f"learning_rate must be in (0, 1], got {self.learning_rate}")


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
        return _leaf_weights([self], _feature_matrix(X))[0]


def _feature_matrix(X) -> np.ndarray:
    M = np.asarray(X, dtype=np.float64)
    if M.ndim != 2:
        raise ShapeError(f"expected a 2-D feature matrix, got {M.ndim} dimension(s)")
    return M


def _leaf_weights(trees: list[RegTree], M: np.ndarray) -> np.ndarray:
    """The (trees, N) leaf weights that the rows of (N, p) ``M`` reach in ``trees``.

    The trees' nodes are concatenated, child ids offset by each tree's first
    node, and a leaf made its own child so that a step leaves it in place.
    Rows go in blocks of ``_ROWS_PER_BLOCK``, which bounds the index array;
    a row's route is the same in any block. A row goes left when
    x[feature] < threshold, so a value equal to the threshold goes right.
    """
    n, p = M.shape
    if not trees:
        return np.empty((0, n))
    sizes = [tree.n_nodes for tree in trees]
    roots = np.cumsum([0, *sizes[:-1]])
    feature = np.concatenate([tree.feature for tree in trees])
    if feature.max() >= p:
        raise ShapeError(f"a tree splits on feature {feature.max()} of a {p}-column matrix")
    leaf = feature == _LEAF
    first = np.repeat(roots, sizes)
    # child[2 i] is node i's right child and child[2 i + 1] its left one
    child = np.empty((feature.size, 2), dtype=np.int64)
    child[:, 0] = np.concatenate([tree.right for tree in trees]) + first
    child[:, 1] = np.concatenate([tree.left for tree in trees]) + first
    child[leaf] = np.flatnonzero(leaf)[:, np.newaxis]
    child = child.ravel()
    feature[leaf] = 0  # a leaf reads any column: both its children are itself
    threshold = np.concatenate([tree.threshold for tree in trees])
    weight = np.concatenate([tree.weight for tree in trees])
    values = np.ascontiguousarray(M).ravel()
    out = np.empty((len(trees), n))
    for start in range(0, n, _ROWS_PER_BLOCK):
        stop = min(start + _ROWS_PER_BLOCK, n)
        row_starts = np.arange(start * p, stop * p, p)
        node = np.repeat(roots[:, np.newaxis], stop - start, axis=1)
        while not leaf[node].all():
            go_left = values.take(row_starts + feature[node]) < threshold[node]
            node = child[2 * node + go_left]
        out[:, start:stop] = weight[node]
    return out


def _load_trees(trees, n_features: int) -> list[RegTree]:
    """The trees of a booster file's ``trees`` object; a malformed one raises SchemaError.

    The checks run in this order, each once over the nodes of all trees: the
    object holds exactly the arrays of ``_TREE_ARRAYS``, each read by
    :func:`array_from_json` in that order; the node arrays are of one length,
    the sum of the node counts, each at least 1; an internal node's children
    follow it in its tree, as the depth-first grower numbers them, so routing
    a row always ends at a leaf, and a leaf has none; every feature is in
    [-1, ``n_features``). The first check that fails decides the error.
    """
    if type(trees) is not dict or trees.keys() != _TREE_ARRAYS.keys():
        got = list(trees) if type(trees) is dict else trees
        names = ", ".join(_TREE_ARRAYS)
        raise SchemaError(f"booster trees must be an object of the arrays {names}, got {shown(got)}")
    feature, left, right, threshold, weight, sizes = (
        array_from_json(trees[key], f"tree {key}", dtype, 1) for key, dtype in _TREE_ARRAYS.items()
    )
    if {left.size, right.size, threshold.size, weight.size} != {feature.size} or (
        sizes.min(initial=1) < 1 or sum(sizes.tolist()) != feature.size
    ):
        raise SchemaError("tree node arrays must be of one length, the sum of the trees' n_nodes, each at least 1")
    stops = np.cumsum(sizes)
    starts = stops - sizes
    n = np.repeat(sizes, sizes)  # the size of each node's tree
    node = np.arange(feature.size) - np.repeat(starts, sizes)  # each node's id in its tree
    follows = (left > node) & (left < n) & (right > node) & (right < n)
    childless = (left == _LEAF) & (right == _LEAF)
    bad = np.flatnonzero(~np.where(feature != _LEAF, follows, childless))
    if bad.size:
        i = bad[0]
        raise SchemaError(
            f"tree node {node[i]} of {n[i]} has children ({left[i]}, {right[i]}); "
            "an internal node's must follow it and a leaf has none"
        )
    if feature.min(initial=_LEAF) < _LEAF:  # initial: a booster may have no trees
        raise SchemaError(f"negative feature index {feature.min()} in tree")
    if feature.max(initial=_LEAF) >= n_features:
        raise SchemaError(f"tree splits on feature {feature.max()} of a booster trained on {n_features}")
    return [
        RegTree(feature[a:b], threshold[a:b], left[a:b], right[a:b], weight[a:b])
        for a, b in zip(starts.tolist(), stops.tolist())
    ]


class _ColumnBlocks:
    """A booster's presorted feature columns, and scratch space for the
    per-feature gradient sums of every node's split search (a constant
    hessian's sums are one prefix per tree; see :func:`_best_split`).

    ``values`` is the (p, N) feature-major copy of the matrix and ``order``
    each of its rows argsorted, ascending and stable. ``tied`` lists the
    features with a repeated value: only there can two rows adjacent in a
    node's sorted order hold the same value.
    """

    def __init__(self, M: np.ndarray):
        self.values = np.ascontiguousarray(M.T)
        self.order = np.argsort(self.values, axis=1, kind="stable")
        ascending = np.take_along_axis(self.values, self.order, axis=1)
        self.tied = np.flatnonzero((ascending[:, 1:] == ascending[:, :-1]).any(axis=1))
        self.sums = np.empty(self.order.size)
        self.right_sums = np.empty(self.order.size)


def _best_split(cols: _ColumnBlocks, g: np.ndarray, h: np.ndarray, hcum: np.ndarray | None,
                block: np.ndarray, G: float, H: float, params: TreeParams):
    """Exact greedy search over all features and midpoint thresholds of a node.

    ``block[f]`` holds the node's rows sorted by feature ``f`` (the booster's
    one stable presort, partitioned down the tree) and ``G`` and ``H`` are
    the node's gradient and hessian sums. One gather of ``g`` and one prefix
    sum along each row give GL at every boundary of every feature. When every
    row's hessian ``h`` is the same, ``hcum`` is the tree's one running sum
    of it, which is every feature's HL at once: a sequential sum of k equal
    terms depends only on k. Otherwise ``hcum`` is None and ``h`` is gathered
    and prefix-summed per feature like ``g``. Boundaries between distinct
    values that leave at least ``min_samples_leaf`` rows on each side are
    scored; sorted values, read with one flat ``take``, are needed only for
    the features that have ties. The gain 0.5 * (score - parent_score) -
    gamma never decreases as the score grows, under IEEE rounding too, so it
    is taken of each feature's best score and of the winning feature's row
    only. Every gain and the boundary chosen are those of a per-node,
    per-feature sort, bit for bit.

    Returns (gain, feature, threshold) for the best strictly-positive gain,
    or None. Ties resolve to the lowest feature index and then the lowest
    threshold. Raises DomainError when H + lambda is not positive.
    """
    lam, gamma = params.lam, params.gamma
    if not H + lam > 0:
        raise DomainError(f"node hessian sum plus lambda must be positive, got {H + lam}")
    parent_score = G * G / (H + lam)

    p, n = block.shape
    lo, hi = params.min_samples_leaf - 1, n - params.min_samples_leaf
    width = hi - lo  # boundary lo + j puts rows 0..lo+j on the left
    sums = cols.sums[: p * n].reshape(p, n)
    g.take(block, out=sums, mode="clip")  # indices are in range; "clip" fills ``out`` unbuffered
    np.cumsum(sums, axis=1, out=sums)
    GL = sums[:, lo:hi]
    GR = np.subtract(G, GL, out=cols.right_sums[: p * width].reshape(p, width))
    hcum = np.cumsum(h.take(block), axis=1) if hcum is None else hcum  # None: the hessians differ
    HR = H - hcum[..., lo:hi] + lam
    HL = hcum[..., lo:hi] + lam
    # score = GL^2/(HL+lam) + GR^2/(HR+lam), in place in the scratch space
    GL *= GL
    GL /= HL
    GR *= GR
    GR /= HR
    scores = GR
    scores += GL  # IEEE addition commutes: the same bits as GL + GR
    tied = cols.tied
    if tied.size:
        sv = cols.values.take(block[tied] + cols.values.shape[1] * tied[:, np.newaxis])
        inside = np.flatnonzero(sv[:, lo:hi] >= sv[:, lo + 1 : hi + 1])
        scores[tied[inside // width], inside % width] = -np.inf  # no boundary inside a tie
    # best gain per feature; a NaN in a row makes it NaN: no split
    top = 0.5 * (scores.max(axis=1) - parent_score) - gamma
    positive = top > 0
    if not positive.any():
        return None
    feat = int(np.where(positive, top, -np.inf).argmax())  # first maximum = lowest feature
    gains = 0.5 * (scores[feat] - parent_score) - gamma
    boundary = lo + int(gains.argmax())  # first maximum = lowest threshold
    below, above = cols.values[feat, block[feat, boundary : boundary + 2]]
    return float(top[feat]), feat, float(0.5 * (below + above))


def _check_training_arrays(X, *vectors):
    """``X`` as a float matrix and each per-row vector as a flat float array.

    Raises ShapeError unless ``X`` is 2-D with one row per vector entry,
    SizingError for zero rows and DomainError for a non-finite value.
    """
    M = _feature_matrix(X)
    flat = [np.asarray(v, dtype=np.float64).ravel() for v in vectors]
    lengths = [v.size for v in flat]
    if any(size != M.shape[0] for size in lengths):
        raise ShapeError(f"{M.shape[0]} rows but per-row vectors of lengths {lengths}")
    if M.shape[0] < 1:
        raise SizingError("cannot train on zero rows")
    if not all(np.all(np.isfinite(a)) for a in (M, *flat)):
        raise DomainError("non-finite values in training arrays; missing data is not supported")
    return (M, *flat)


def build_tree(X, g, h, params: TreeParams) -> RegTree:
    """Grow one regression tree on gradient/hessian statistics."""
    M, gv, hv = _check_training_arrays(X, g, h)
    return _grow_tree(_ColumnBlocks(M), gv, hv, params)


def _grow_tree(cols: _ColumnBlocks, g, h, params: TreeParams) -> RegTree:
    """Depth-first growth from the presorted row order of ``cols``.

    Nodes are numbered in preorder, left child first. Each node keeps its
    rows in ascending order (``idx``, so sums run in row order). A node that
    may still split also keeps them per feature in sorted order (``block``);
    a split partitions the parent's block with one boolean lookup, and only
    for a child that may split in turn. Nothing is sorted again. The nodes
    wait on a stack rather than in a recursive closure, whose reference cycle
    kept the booster's arrays alive until the garbage collector ran.
    """
    hcum = np.cumsum(np.full(h.size, h[0])) if np.all(h == h[0]) else None

    def may_split(n_rows: int, depth: int) -> bool:
        return depth < params.max_depth and n_rows >= 2 * params.min_samples_leaf

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    weight: list[float] = []
    root = np.arange(g.size)
    # (parent's child links, parent id, rows ascending, rows sorted per feature or None, depth)
    pending = [(None, _LEAF, root, cols.order if may_split(root.size, 0) else None, 0)]
    while pending:
        links, parent, idx, block, depth = pending.pop()
        node = len(feature)
        if links is not None:
            links[parent] = node
        G, H = float(g[idx].sum()), float(h[idx].sum())
        best = None if block is None else _best_split(cols, g, h, hcum, block, G, H, params)
        left.append(_LEAF)
        right.append(_LEAF)
        if best is None:
            feature.append(_LEAF)
            threshold.append(0.0)
            weight.append(leaf_weight(G, H, params.lam))
            continue
        _, feat, thr = best
        feature.append(feat)
        threshold.append(thr)
        weight.append(0.0)
        left_rows = cols.values[feat] < thr
        go_left = left_rows[idx]
        in_left = left_rows[block].ravel()
        rows = block.ravel()
        # the right child is pushed first, so the left subtree is numbered first
        for links, child, mask in ((right, idx[~go_left], ~in_left), (left, idx[go_left], in_left)):
            child_block = None
            if may_split(child.size, depth + 1):
                child_block = rows.compress(mask).reshape(block.shape[0], -1)
            pending.append((links, node, child, child_block, depth + 1))
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

    def __post_init__(self):
        check_field_kinds(self)

    def predict(self, X) -> np.ndarray:
        M = _feature_matrix(X)
        if M.shape[1] != self.n_features:
            raise ShapeError(
                f"booster was trained on {self.n_features} feature(s), got {M.shape[1]}"
            )
        out = np.full(M.shape[0], self.base_score, dtype=np.float64)
        for weights in _leaf_weights(self.trees, M):  # added in tree order
            out += self.params.learning_rate * weights
        return out

    def to_dict(self) -> dict:
        return {
            "base_score": float(self.base_score),
            "n_features": int(self.n_features),
            # TreeParams' fields: a trained booster's GbtSection also holds n_rounds
            "params": {f.name: getattr(self.params, f.name) for f in fields(TreeParams)},
            # each node array of all trees in tree order, and each tree's n_nodes
            "trees": {
                key: array_json(np.hstack([getattr(t, key) for t in self.trees] or [[]]), dtype)
                for key, dtype in _TREE_ARRAYS.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Booster":
        """Inverse of :meth:`to_dict`; raises SchemaError for a malformed booster."""
        try:
            names = [f.name for f in fields(TreeParams)]
            for name in names:  # a missing field must not take its default
                if name not in payload["params"]:
                    raise KeyError(f"params.{name}")
            for name in payload["params"]:
                if name not in names:
                    raise SchemaError(f"unknown booster params key {shown(name)}")
            trees = payload["trees"]
            booster = cls(
                base_score=payload["base_score"],
                params=TreeParams(**payload["params"]),
                n_features=payload["n_features"],
            )
        except DomainError as exc:
            raise SchemaError(f"malformed booster: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed booster: {exc!r}") from None
        booster.trees = _load_trees(trees, booster.n_features)
        return booster


def train_booster(X, targets, params: TreeParams, n_rounds: int) -> Booster:
    """Fit ``n_rounds`` trees to the squared-error objective.

    The model starts from base_score = mean(targets); each round fits a tree
    to the current gradients and adds it with weight ``params.learning_rate``.
    Training predictions are accumulated in exactly the order ``predict``
    replays them, so the two always agree bitwise.
    """
    M, y = _check_training_arrays(X, targets)
    if n_rounds < 0:
        raise DomainError(f"number of rounds must be non-negative, got {n_rounds}")

    booster = Booster(base_score=float(np.mean(y)), params=params, n_features=M.shape[1])
    preds = np.full(y.size, booster.base_score, dtype=np.float64)
    cols = _ColumnBlocks(M)
    for _ in range(n_rounds):
        g, h = grad_hess(preds, y)
        tree = _grow_tree(cols, g, h, params)
        booster.trees.append(tree)
        preds = preds + params.learning_rate * tree.predict(M)
    return booster

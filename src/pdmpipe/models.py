"""Native binary classifiers: bagged CART forest, boosted trees, linear SVM.

All three are deterministic (the forest given its seed), and each
fitted model's ``to_dict`` describes it as plain JSON; nothing reads
that back. Ties everywhere resolve toward the negative class, the lower
feature index, and the lower threshold, in that order, so retraining is
stable.

A forest grows all of its trees in lock-step: each step takes the next
node of every tree, which draws its features from that tree's own random
stream, and searches all of those nodes' splits in a few whole-array
operations. The trees are the ones growing each tree alone would give.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._seeding import substream
from ._spec import bounded, check_fields

_EPS = 1e-12
# primal Newton SVM: stop once half the squared Newton decrement is below
# _NEWTON_TOL, or after _NEWTON_STEPS steps; Armijo backtracking halves the
# step at most _ARMIJO_HALVINGS times for a sufficient decrease of _ARMIJO_C
_NEWTON_TOL = 1e-12
_NEWTON_STEPS = 50
_ARMIJO_C = 1e-4
_ARMIJO_HALVINGS = 40
# rows x features searched per batch; bounds the split search's working arrays
_SEARCH_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class ForestParams:
    trees: int = bounded(">= 1", default=40)
    max_depth: int = bounded(">= 1", default=None)
    min_leaf: int = bounded(">= 1", default=1)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class GbdtParams:
    iterations: int = bounded(">= 1", default=80)
    learning_rate: float = bounded("(0, 1]", default=0.1)
    max_depth: int = bounded(">= 1", default=3)
    min_leaf: int = bounded(">= 1", default=5)
    bins: int = bounded(">= 2", default=32)
    reg_lambda: float = bounded(">= 0", default=1.0)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class SvmParams:
    reg: float = bounded("> 0", default=1e-3)

    def __post_init__(self):
        check_fields(self)


# each model family's parameter record, in the family order of every report
FAMILY_PARAMS = {"forest": ForestParams, "gbdt": GbdtParams, "svm": SvmParams}


class Tree:
    """Flat-array decision tree; node 0 is the root, -1 marks a leaf child."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=float)

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        return _tree_values([self], X)[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_value(X).astype(np.int8)

    def to_dict(self) -> dict:
        return {"family": "tree",
                "feature": self.feature.tolist(),
                "threshold": self.threshold.tolist(),
                "left": self.left.tolist(),
                "right": self.right.tolist(),
                "value": self.value.tolist()}


def _tree_values(trees, X: np.ndarray) -> np.ndarray:
    """The leaf value every tree gives every row of ``X``, as a (trees, rows) matrix.

    The node arrays of all trees are stacked, each tree's child indices
    shifted by its offset, and one walk moves every (tree, row) pair a
    level down per step until all of them sit in leaves.
    """
    X = np.asarray(X, dtype=float)
    n = len(X)
    if not trees:
        return np.empty((0, n))
    sizes = np.array([len(t.feature) for t in trees])
    offset = np.cumsum(sizes) - sizes
    feature = np.concatenate([t.feature for t in trees])
    threshold = np.concatenate([t.threshold for t in trees])
    shift = np.repeat(offset, sizes)
    left = np.concatenate([t.left for t in trees])
    right = np.concatenate([t.right for t in trees])
    left = np.where(left >= 0, left + shift, -1)
    right = np.where(right >= 0, right + shift, -1)
    value = np.concatenate([t.value for t in trees])
    node = np.repeat(offset, n)
    row_start = np.tile(np.arange(n) * X.shape[1], len(trees))
    flat = X.ravel()
    pair = np.flatnonzero(left[node] >= 0)
    while pair.size:
        cur = node[pair]
        go_left = flat[row_start[pair] + feature[cur]] <= threshold[cur]
        nxt = np.where(go_left, left[cur], right[cur])
        node[pair] = nxt
        pair = pair[left[nxt] >= 0]
    return value[node].reshape(len(trees), n)


class _TreeBuilder:
    def __init__(self):
        self.feature, self.threshold = [], []
        self.left, self.right, self.value = [], [], []

    def add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def done(self) -> Tree:
        return Tree(self.feature, self.threshold, self.left, self.right, self.value)


def _fit_inputs(X, y, label_dtype):
    """``X`` as a finite 2-d float array and ``y`` as 0/1 labels of ``label_dtype``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-d with one label per row")
    if len(X) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    return X, y.astype(label_dtype)


def _best_splits(code, keyed, values, width, d, nodes, min_leaf):
    """The best Gini split of every node in ``nodes``, searched at once.

    ``nodes`` holds (rows, ones, features) per node. Each (node, feature)
    pair is a segment; one gather stacks every segment's sort keys and one
    sort orders them by node, feature, value rank and label. Cuts fall
    where the rank changes, and their label counts come from one integer
    cumsum, so every gain is the same elementwise float expression a
    per-feature search would evaluate. Returns per node None or
    (feature, threshold, left rows, right rows, left ones).
    """
    sizes = np.array([len(rows) for rows, _, _ in nodes])
    n_feat = np.array([len(f) for _, _, f in nodes])
    if len(nodes) > 1 and sizes @ n_feat > _SEARCH_ELEMENTS:
        # halve the batch to bound the working arrays
        half = len(nodes) // 2
        return (_best_splits(code, keyed, values, width, d, nodes[:half], min_leaf)
                + _best_splits(code, keyed, values, width, d, nodes[half:], min_leaf))
    ones = np.array([o for _, o, _ in nodes])
    feature = np.concatenate([f for _, _, f in nodes])
    seg_node = np.repeat(np.arange(len(nodes)), n_feat)
    seg_len = sizes[seg_node]
    seg_ones = ones[seg_node]
    seg_zeros = seg_len - seg_ones
    parent_gini = 1.0 - (seg_zeros * seg_zeros + seg_ones * seg_ones) / (seg_len * seg_len)
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    seg = np.repeat(np.arange(len(feature)), seg_len)
    all_rows = np.concatenate([rows for rows, _, _ in nodes]) * d
    row_start = np.cumsum(sizes) - sizes
    pos = np.arange(seg_end[-1]) + (row_start[seg_node] - seg_start)[seg]
    # ties may land in any order: only the row sets either side of a cut count
    key = keyed[all_rows[pos] + feature[seg]] + (seg_node * (2 * width))[seg]
    key.sort()
    lab = key & 1
    rank = key >> 1                             # node * width + column code
    # a cut at p puts a segment's first p sorted rows left
    cut = np.flatnonzero(rank[1:] != rank[:-1]) + 1
    cs = seg[cut]
    left_n = cut - seg_start[cs]
    n = seg_len[cs]
    keep = (left_n >= min_leaf) & (n - left_n >= min_leaf)
    cut, cs, left_n, n = cut[keep], cs[keep], left_n[keep], n[keep]
    if cut.size == 0:
        return [None] * len(nodes)
    cum = np.cumsum(lab)
    left_ones_n = cum[cut - 1] - (cum[seg_start] - lab[seg_start])[cs]
    left_ones = left_ones_n.astype(float)
    left_n_f = left_n.astype(float)
    right_n = n - left_n_f
    right_ones = seg_ones[cs] - left_ones
    left_zeros = left_n_f - left_ones
    right_zeros = right_n - right_ones
    gini_l = 1.0 - (left_zeros ** 2 + left_ones ** 2) / (left_n_f ** 2)
    gini_r = 1.0 - (right_zeros ** 2 + right_ones ** 2) / (right_n ** 2)
    gain = parent_gini[cs] - (left_n_f * gini_l + right_n * gini_r) / n
    # first maximum per segment = its lowest threshold
    first = np.flatnonzero(np.concatenate(([True], cs[1:] != cs[:-1])))
    top = np.maximum.reduceat(gain, first)
    hit = np.flatnonzero(gain == np.repeat(top, np.diff(np.append(first, len(gain)))))
    hit = hit[np.concatenate(([True], cs[hit][1:] != cs[hit][:-1]))]
    best_seg = cs[hit]
    base = seg_node[best_seg] * width
    hi = rank[cut[hit]] - base                  # column codes either side of the cut
    threshold = ((values[rank[cut[hit] - 1] - base] + values[hi]) / 2.0).tolist()
    # a later feature must beat the node's best by more than _EPS, so
    # near-ties go to the lower feature index
    best = [None] * len(nodes)
    top_gain = gain[hit].tolist()
    node_of = seg_node[best_seg].tolist()
    for k, g in enumerate(top_gain):
        i = node_of[k]
        if best[i] is None or g > top_gain[best[i]] + _EPS:
            best[i] = k
    best_seg = best_seg.tolist()
    hi = hi.tolist()
    left_ones_n = left_ones_n[hit].tolist()
    out = []
    for (rows, _, _), k in zip(nodes, best):
        if k is None:
            out.append(None)
            continue
        j = int(feature[best_seg[k]])
        go_left = code[rows * d + j] < hi[k]
        out.append((j, threshold[k], rows[go_left], rows[~go_left], left_ones_n[k]))
    return out


def _grow_trees(X, y, rows, rngs, mtry, max_depth, min_leaf) -> list:
    """One greedy Gini CART tree per entry of ``rows``, grown in lock-step.

    Tree t fits the rows ``rows[t]`` of ``X`` (repeats allowed) and draws
    ``mtry`` features per node from ``rngs[t]``; ``mtry`` None or >= the
    column count uses every feature. Splits fall at midpoints of
    consecutive distinct values; a tied gain goes to the lower feature
    index, then the lower threshold. An impure node splits even at zero
    gain unless it is at depth ``max_depth`` (None: no limit) or has fewer
    than ``2 * min_leaf`` rows, which is what lets parity-style targets fit
    exactly. Each tree grows depth-first, left child first. Step k pops the
    k-th node of every tree that has one, in tree order, so each tree makes
    the draws it would make growing alone; one ``_best_splits`` call then
    searches all of the step's nodes.
    """
    n, d = X.shape
    # integer value ranks per column, offset so that every column owns its
    # own range; a bootstrap only repeats rows, so it keeps ranks and ties
    code = np.empty((n, d), dtype=np.int64)
    values = np.empty(0)
    for j in range(d):
        u, inv = np.unique(X[:, j], return_inverse=True)
        code[:, j] = inv + len(values)
        values = np.concatenate((values, u))
    width = len(values)
    keyed = (2 * code + y[:, None]).ravel()    # the label rides in the low bit
    code = code.ravel()
    every = np.arange(d)
    builders = [_TreeBuilder() for _ in rows]
    # (rows, depth, parent, is_left, ones); the left child is pushed last
    stacks = [[(r, 0, -1, True, int(y[r].sum()))] for r in rows]
    while any(stacks):
        step = []
        for t, stack in enumerate(stacks):
            if not stack:
                continue
            node_rows, depth, parent, is_left, ones = stack.pop()
            builder = builders[t]
            node = builder.add()
            if parent >= 0:
                (builder.left if is_left else builder.right)[parent] = node
            zeros = len(node_rows) - ones
            builder.value[node] = 1.0 if ones > zeros else 0.0
            if ones == 0 or zeros == 0:
                continue
            if max_depth is not None and depth >= max_depth:
                continue
            if len(node_rows) < 2 * min_leaf or d == 0:
                continue
            if mtry is not None and mtry < d:
                features = np.sort(rngs[t].choice(d, size=mtry, replace=False))
            else:
                features = every
            step.append((t, node, depth, (node_rows, ones, features)))
        if not step:
            continue
        splits = _best_splits(code, keyed, values, width, d,
                              [s[3] for s in step], min_leaf)
        for (t, node, depth, (_, ones, _)), split in zip(step, splits):
            if split is None:
                continue
            j, threshold, left_rows, right_rows, left_ones = split
            builders[t].feature[node] = j
            builders[t].threshold[node] = threshold
            stacks[t].append((right_rows, depth + 1, node, False, ones - left_ones))
            stacks[t].append((left_rows, depth + 1, node, True, left_ones))
    return [builder.done() for builder in builders]


class Forest:
    def __init__(self, trees, params: ForestParams):
        self.trees = list(trees)
        self.params = params

    def predict(self, X: np.ndarray) -> np.ndarray:
        votes = _tree_values(self.trees, X).astype(np.int8).sum(axis=0, dtype=np.int64)
        # strict majority; a tied vote stays negative
        return (2 * votes > len(self.trees)).astype(np.int8)

    def to_dict(self) -> dict:
        return {"family": "forest",
                "params": asdict(self.params),
                "trees": [t.to_dict() for t in self.trees]}


def fit_forest(X: np.ndarray, y: np.ndarray, params: ForestParams = None,
               seed: int = 0) -> Forest:
    """Bootstrap-bagged CART trees with per-node feature subsampling.

    Tree t draws its bootstrap, then its per-node features, from
    ``substream(seed, "tree", t)``. All trees grow in lock-step, one node
    of each per step, which gives the same trees as growing them one by
    one.
    """
    params = params or ForestParams()
    X, y = _fit_inputs(X, y, np.int64)
    n, d = X.shape
    mtry = max(1, int(math.floor(math.sqrt(d))))
    rngs = [substream(seed, "tree", t) for t in range(params.trees)]
    rows = [np.sort(rng.integers(0, n, size=n)) for rng in rngs]
    trees = _grow_trees(X, y, rows, rngs, mtry, params.max_depth, params.min_leaf)
    return Forest(trees, params)


def _log_loss(y: np.ndarray, score: np.ndarray) -> float:
    p = 1.0 / (1.0 + np.exp(-score))
    p = np.clip(p, _EPS, 1.0 - _EPS)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


class Gbdt:
    """Boosted histogram trees on the logistic loss."""

    def __init__(self, base_score, trees, params: GbdtParams, train_loss):
        self.base_score = float(base_score)
        self.trees = list(trees)              # leaf values carry the step size
        self.params = params
        self.train_loss = list(train_loss)

    def decision_score(self, X: np.ndarray) -> np.ndarray:
        score = np.full(len(X), self.base_score)
        # one tree at a time in fitted order: the order of the additions fixes the bits
        for values in _tree_values(self.trees, X):
            score += values
        return score

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.decision_score(X)))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int8)

    def to_dict(self) -> dict:
        return {"family": "gbdt",
                "base_score": self.base_score,
                "params": asdict(self.params),
                "train_loss": self.train_loss,
                "trees": [t.to_dict() for t in self.trees]}


def _bin_features(X: np.ndarray, bins: int):
    """Equal-frequency bin edges and codes; code <= b iff x <= edges[b]."""
    edges = []
    codes = np.empty(X.shape, dtype=np.int64)
    quantiles = np.linspace(0, 1, bins + 1)[1:-1]
    for j in range(X.shape[1]):
        e = np.unique(np.quantile(X[:, j], quantiles, method="linear"))
        edges.append(e)
        codes[:, j] = np.searchsorted(e, X[:, j], side="left")
    return edges, codes


def _histograms(flat, g, h, rows, bins):
    """The G, H and row-count histograms of ``rows`` as one (3, d, bins) array.

    ``flat`` holds each row's bin codes offset by ``feature * bins``, so one
    bincount per quantity gives every feature's histogram.
    """
    d = flat.shape[1]
    local = flat[rows].ravel()
    hist = np.empty((3, d * bins))
    hist[0] = np.bincount(local, weights=np.repeat(g[rows], d), minlength=d * bins)
    hist[1] = np.bincount(local, weights=np.repeat(h[rows], d), minlength=d * bins)
    hist[2] = np.bincount(local, minlength=d * bins)
    return hist.reshape(3, d, bins)


def _child_histograms(flat, g, h, hist, left, right, bins):
    """The histograms of a node's two children, given the node's ``hist``.

    Only the child with fewer rows is counted (the left one on a tie); the
    other's histograms are the parent's minus those (Ke et al., NeurIPS
    2017). Counts subtract exactly. A subtracted G or H bin can differ from
    a direct sum in its low bits, so a bin that holds no rows is set to
    zero: two cuts that split the same rows then tie, as they do when
    counted.
    """
    small_left = len(left) <= len(right)
    small = _histograms(flat, g, h, left if small_left else right, bins)
    large = hist - small
    large[:2, large[2] == 0] = 0.0
    return (small, large) if small_left else (large, small)


def _fit_hist_tree(flat, edges, g, h, params: GbdtParams):
    """One regression tree on binned gradients, Newton leaf values.

    ``flat`` holds each row's bin codes offset by ``feature * bins``. The
    root's histograms are counted; each split counts its smaller child's
    and subtracts them from its own for the larger child, and makes none
    when neither child will search. Leaf values come from the rows' own
    gradient sums. Returns the tree and the leaf each training row ends in.
    """
    builder = _TreeBuilder()
    lam = params.reg_lambda
    n, d = flat.shape
    # np.unique can leave a feature fewer bins; cut b exists iff b < len(edges[j])
    n_edges = np.array([len(e) for e in edges], dtype=np.int64)
    cuts = np.arange(params.bins - 1) < n_edges[:, None]
    features = np.arange(d)
    leaf = np.empty(n, dtype=np.int64)

    def searches(rows: np.ndarray, depth: int) -> bool:
        return depth < params.max_depth and len(rows) >= 2 * params.min_leaf

    def grow(rows: np.ndarray, depth: int, hist) -> int:
        node = builder.add()
        G = float(g[rows].sum())
        H = float(h[rows].sum())
        builder.value[node] = -G / (H + lam)
        leaf[rows] = node                   # the children overwrite an inner node
        if not searches(rows, depth):
            return node
        parent_score = G * G / (H + lam)
        GL, HL, CL = np.cumsum(hist, axis=2)[:, :, :-1]
        GR = G - GL
        HR = H - HL
        CR = len(rows) - CL
        valid = cuts & (CL >= params.min_leaf) & (CR >= params.min_leaf)
        gain = GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent_score
        gain[~valid] = -np.inf
        cut = np.argmax(gain, axis=1)       # first max = lowest bin
        top = gain[features, cut].tolist()
        # a later feature must beat the best by more than _EPS, so near-ties
        # go to the lower feature; a global argmax would not keep that
        best = None
        for j in range(d):
            if top[j] <= _EPS:
                continue
            if best is None or top[j] > top[best] + _EPS:
                best = j
        if best is None:
            return node
        b = int(cut[best])
        go_left = flat[rows, best] <= best * params.bins + b
        left, right = rows[go_left], rows[~go_left]
        left_hist = right_hist = None
        if searches(left, depth + 1) or searches(right, depth + 1):
            left_hist, right_hist = _child_histograms(flat, g, h, hist, left, right,
                                                      params.bins)
        builder.feature[node] = best
        builder.threshold[node] = float(edges[best][b])
        builder.left[node] = grow(left, depth + 1, left_hist)
        builder.right[node] = grow(right, depth + 1, right_hist)
        return node

    root = np.arange(n)
    grow(root, 0, _histograms(flat, g, h, root, params.bins) if searches(root, 0) else None)
    return builder.done(), leaf


def fit_gbdt(X: np.ndarray, y: np.ndarray, params: GbdtParams = None) -> Gbdt:
    """Gradient boosting with a monotone line search.

    Starts from the prior log-odds; each iteration fits a histogram tree
    to the logistic gradients and halves its step until the training
    loss does not increase, so the recorded loss curve never rises.
    """
    params = params or GbdtParams()
    X, y = _fit_inputs(X, y, float)
    edges, codes = _bin_features(X, params.bins)
    flat = codes + np.arange(X.shape[1]) * params.bins
    p0 = min(max(float(y.mean()), 1e-6), 1.0 - 1e-6)
    base = math.log(p0 / (1.0 - p0))
    score = np.full(len(y), base)
    loss = _log_loss(y, score)
    losses = [loss]
    trees = []
    for _ in range(params.iterations):
        p = 1.0 / (1.0 + np.exp(-score))
        g = p - y
        h = np.maximum(p * (1.0 - p), _EPS)
        tree, leaf = _fit_hist_tree(flat, edges, g, h, params)
        # a training row's leaf is where predict_value(X) routes it, because
        # code <= b iff x <= edges[b]
        step = tree.value[leaf] * params.learning_rate
        scale = 1.0
        for _ in range(12):
            candidate = _log_loss(y, score + scale * step)
            if candidate <= loss + _EPS:
                break
            scale /= 2.0
        else:
            losses.append(loss)
            break
        tree.value = tree.value * (params.learning_rate * scale)
        trees.append(tree)
        score = score + scale * step
        loss = candidate
        losses.append(loss)
    return Gbdt(base, trees, params, losses)


class Svm:
    """Linear classifier on the squared hinge loss, fitted by primal Newton."""

    def __init__(self, weights, params: SvmParams, objectives):
        self.weights = np.asarray(weights, dtype=float)   # bias is the last entry
        self.params = params
        self.objectives = list(objectives)

    def decision_score(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return X @ self.weights[:-1] + self.weights[-1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        # a zero score stays negative
        return (self.decision_score(X) > 0).astype(np.int8)

    def to_dict(self) -> dict:
        return {"family": "svm",
                "weights": self.weights.tolist(),
                "params": asdict(self.params),
                "objectives": self.objectives}


def _svm_objective(w, aug, signed, reg):
    """``reg/2 * ||w||^2 + mean(max(0, 1 - s * w.x)^2)`` and the margin slack."""
    slack = 1.0 - signed * (aug @ w)
    hinge = np.maximum(slack, 0.0)
    return float(reg / 2.0 * (w @ w) + (hinge @ hinge) / len(signed)), slack


def fit_svm(X: np.ndarray, y: np.ndarray, params: SvmParams = None) -> Svm:
    """Squared-hinge linear SVM by primal finite Newton (Keerthi & DeCoste, 2005).

    Minimizes ``reg/2 * ||w||^2 + mean(max(0, 1 - s * w.x)^2)`` over the
    features plus a bias column, with the bias regularized too. Each step
    takes the rows inside the margin, solves once with the generalized
    Hessian ``reg*I + (2/n) A_act^T A_act`` and backtracks until the Armijo
    condition holds. The objective is convex and piecewise quadratic, so
    once the margin rows stop changing a full step lands on the minimum.
    Stops when half the squared Newton decrement falls to
    ``_NEWTON_TOL`` or after ``_NEWTON_STEPS`` steps; ``objectives``
    holds the objective after each step, which never increases.
    """
    params = params or SvmParams()
    X, y = _fit_inputs(X, y, np.int64)
    n, d = X.shape
    aug = np.hstack([X, np.ones((n, 1))])
    signed = (2 * y - 1).astype(float)
    reg = params.reg
    w = np.zeros(d + 1)
    obj, slack = _svm_objective(w, aug, signed, reg)
    objectives = []
    for _ in range(_NEWTON_STEPS):
        act = slack > 0.0
        a_act = aug[act]
        # -s * (1 - s * z) = z - s, since s * s = 1
        grad = reg * w + (2.0 / n) * (a_act.T @ (a_act @ w - signed[act]))
        hess = (2.0 / n) * (a_act.T @ a_act)
        hess[np.diag_indices_from(hess)] += reg
        step = -np.linalg.solve(hess, grad)
        slope = float(grad @ step)          # minus the squared Newton decrement
        if -slope / 2.0 <= _NEWTON_TOL:
            break
        t = 1.0
        for _ in range(_ARMIJO_HALVINGS):
            cand, cand_slack = _svm_objective(w + t * step, aug, signed, reg)
            if cand <= obj + _ARMIJO_C * t * slope:
                break
            t /= 2.0
        else:
            break                           # no decrease left at this precision
        w = w + t * step
        obj, slack = cand, cand_slack
        objectives.append(obj)
    return Svm(w, params, objectives)

"""Hand-rolled learners: trees, bagging, boosting, linear SVM."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import signal
from types import SimpleNamespace

import numpy as np
import pytest

from pdmpipe import GbdtParams, _fork, fit_gbdt, models
from pdmpipe._seeding import substream
from pdmpipe.models import Forest, ForestParams, Gbdt, Svm, SvmParams, Tree, fit_forest, fit_svm
from helpers import TREE_ARRAYS, assert_no_child, count_forks, model_state

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def blobs(seed, n=200, gap=3.0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    X[:, 0] += np.where(y == 1, gap, -gap)
    return X, y


def grow_tree(X, y, max_depth=None, min_leaf=1, rng=None, mtry=None):
    """One CART tree on every row of ``X``, grown by the forest's tree builder."""
    X, y = models._fit_inputs(X, y, np.int64)
    return models._grow_trees(X, y, [np.arange(len(X))], [rng], mtry, max_depth, min_leaf)[0]


def leaf(value):
    return Tree([-1], [0.0], [-1], [-1], [value])


def oracle_hist_tree(codes, edges, g, h, rows, params):
    """The per-feature histogram search: 3 bincounts and 3 cumsums per feature."""
    builder = models._TreeBuilder()
    lam = params.reg_lambda

    def grow(rows, depth):
        node = builder.add()
        G = float(g[rows].sum())
        H = float(h[rows].sum())
        builder.value[node] = -G / (H + lam)
        if depth >= params.max_depth or len(rows) < 2 * params.min_leaf:
            return node
        parent_score = G * G / (H + lam)
        best = None
        for j in range(codes.shape[1]):
            nb = len(edges[j]) + 1
            local = codes[rows, j]
            GL = np.cumsum(np.bincount(local, weights=g[rows], minlength=nb))[:-1]
            HL = np.cumsum(np.bincount(local, weights=h[rows], minlength=nb))[:-1]
            CL = np.cumsum(np.bincount(local, minlength=nb))[:-1]
            GR = G - GL
            HR = H - HL
            CR = len(rows) - CL
            valid = (CL >= params.min_leaf) & (CR >= params.min_leaf)
            if not valid.any():
                continue
            gain = GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent_score
            gain[~valid] = -np.inf
            b = int(np.argmax(gain))
            if gain[b] <= models._EPS:
                continue
            if best is None or gain[b] > best[0] + models._EPS:
                best = (float(gain[b]), j, b)
        if best is None:
            return node
        _, j, b = best
        go_left = codes[rows, j] <= b
        builder.feature[node] = j
        builder.threshold[node] = float(edges[j][b])
        builder.left[node] = grow(rows[go_left], depth + 1)
        builder.right[node] = grow(rows[~go_left], depth + 1)
        return node

    grow(rows, 0)
    return builder.done()


def fit_hist_tree(flat, edges, g, h, params):
    """``models._fit_hist_tree`` given the cuts and root counts ``fit_gbdt`` hands it."""
    cuts = np.arange(params.bins - 1) < np.array([len(e) for e in edges])[:, None]
    counts = np.bincount(flat.ravel(), minlength=flat.shape[1] * params.bins)
    return models._fit_hist_tree(flat, edges, cuts, counts, g, h, params)


def oracle_fit_gbdt(X, y, params):
    """fit_gbdt driven by the per-feature search, stepping through one-tree walks."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    edges, codes = models._bin_features(X, params.bins)
    p0 = min(max(float(y.mean()), 1e-6), 1.0 - 1e-6)
    base = math.log(p0 / (1.0 - p0))
    score = np.full(len(y), base)
    loss = models._log_loss(y, score)
    losses = [loss]
    trees = []
    rows = np.arange(len(y))
    for _ in range(params.iterations):
        p = 1.0 / (1.0 + np.exp(-score))
        g = p - y
        h = np.maximum(p * (1.0 - p), models._EPS)
        tree = oracle_hist_tree(codes, edges, g, h, rows, params)
        step = oracle_predict_value(tree, X) * params.learning_rate
        scale = 1.0
        for _ in range(12):
            candidate = models._log_loss(y, score + scale * step)
            if candidate <= loss + models._EPS:
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
    return Gbdt(base, trees, losses)


def oracle_predict_value(tree, X):
    """One tree's leaf values, walking the rows of ``X`` down that tree alone."""
    X = np.asarray(X, dtype=float)
    node = np.zeros(len(X), dtype=np.int64)
    while True:
        internal = tree.left[node] >= 0
        if not internal.any():
            break
        idx = np.flatnonzero(internal)
        cur = node[idx]
        go_left = X[idx, tree.feature[cur]] <= tree.threshold[cur]
        node[idx] = np.where(go_left, tree.left[cur], tree.right[cur])
    return tree.value[node]


def tree_depth(tree, node=0):
    if tree.left[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]), tree_depth(tree, tree.right[node]))


def oracle_gini_split(X, y, rows, features, min_leaf):
    """One node's best (gain, feature, threshold, left rows, right rows) or
    None: a stable argsort and a cumsum per feature."""
    n = len(rows)
    ones = int(y[rows].sum())
    zeros = n - ones
    parent = 1.0 - (zeros * zeros + ones * ones) / (n * n)
    best = None
    for j in features:
        x = X[rows, j]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ys = y[rows][order]
        boundary = np.flatnonzero(xs[1:] != xs[:-1]) + 1   # left segment size
        if boundary.size == 0:
            continue
        left_ones = np.cumsum(ys)[boundary - 1].astype(float)
        left_n = boundary.astype(float)
        right_n = n - left_n
        valid = (left_n >= min_leaf) & (right_n >= min_leaf)
        if not valid.any():
            continue
        right_ones = ones - left_ones
        left_zeros = left_n - left_ones
        right_zeros = right_n - right_ones
        gini_l = 1.0 - (left_zeros ** 2 + left_ones ** 2) / (left_n ** 2)
        gini_r = 1.0 - (right_zeros ** 2 + right_ones ** 2) / (right_n ** 2)
        gain = parent - (left_n * gini_l + right_n * gini_r) / n
        gain[~valid] = -np.inf
        i = int(np.argmax(gain))            # first max = lowest threshold
        if gain[i] == -np.inf:
            continue
        if best is None or gain[i] > best[0] + models._EPS:
            cut = boundary[i]
            threshold = (xs[cut - 1] + xs[cut]) / 2.0
            left_rows = rows[order[:cut]]
            right_rows = rows[order[cut:]]
            best = (float(gain[i]), int(j), float(threshold), left_rows, right_rows)
    return best


def oracle_fit_tree(X, y, max_depth=None, min_leaf=1, rng=None, mtry=None):
    """A CART tree grown one node at a time from an explicit stack."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    d = X.shape[1]
    builder = models._TreeBuilder()
    # left child pushed last so it grows first
    stack = [(np.arange(len(X)), 0, -1, "left")]
    while stack:
        rows, depth, parent, side = stack.pop()
        node = builder.add()
        if parent >= 0:
            if side == "left":
                builder.left[parent] = node
            else:
                builder.right[parent] = node
        ones = int(y[rows].sum())
        zeros = len(rows) - ones
        builder.value[node] = 1.0 if ones > zeros else 0.0
        if ones == 0 or zeros == 0:
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        if len(rows) < 2 * min_leaf:
            continue
        if mtry is not None and mtry < d:
            features = np.sort(rng.choice(d, size=mtry, replace=False))
        else:
            features = np.arange(d)
        split = oracle_gini_split(X, y, rows, features, min_leaf)
        if split is None:
            continue
        _, j, threshold, left_rows, right_rows = split
        builder.feature[node] = j
        builder.threshold[node] = threshold
        stack.append((right_rows, depth + 1, node, "right"))
        stack.append((left_rows, depth + 1, node, "left"))
    return builder.done()


def oracle_fit_forest(X, y, params, seed):
    """fit_forest growing its trees one after another."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    mtry = max(1, int(math.floor(math.sqrt(d))))
    trees = []
    for t in range(params.trees):
        rng = substream(seed, "tree", t)
        rows = np.sort(rng.integers(0, n, size=n))
        trees.append(oracle_fit_tree(X[rows], y[rows], params.max_depth, params.min_leaf,
                                     rng=rng, mtry=mtry))
    return Forest(trees)


def forest_case(seed):
    """Random data and forest parameters. Across the seeds: duplicated,
    constant, rounded and low-cardinality columns, a column mixing 0.0 with
    -0.0, one-column data, one-class labels, and every combination of
    min_leaf 1/3 with max_depth None/1/10 and of 1, 7 and 30 trees."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(6, 160))
    d = 1 if seed % 9 == 4 else int(rng.integers(2, 9))
    X = rng.standard_normal((n, d))
    if seed % 5 == 0:
        X = np.round(X, 1)
    if d >= 2 and seed % 2 == 0:
        X[:, -1] = X[:, 0]
    if d >= 3 and seed % 3 == 0:
        X[:, 1] = -1.5
    if d >= 4:
        X[:, 2] = rng.integers(0, 3, size=n)
    if d >= 5:
        X[:, 3] = rng.choice([-1.0, -0.0, 0.0, 1.0], size=n)
    if seed % 12 == 7:
        y = np.full(n, seed % 2, dtype=np.int64)
    else:
        y = (X[:, 0] + rng.standard_normal(n) > 0.3).astype(np.int64)
    params = ForestParams(trees=(1, 7, 30)[seed // 6 % 3],
                          max_depth=(None, 1, 10)[seed % 3],
                          min_leaf=(1, 3)[seed % 2])
    return X, y, params


def oracle_case(seed):
    """Random data and parameters; some cases get a duplicated, a constant
    and a low-cardinality column, or coarsely rounded values."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 300))
    d = int(rng.integers(1, 7))
    X = rng.standard_normal((n, d))
    if d >= 2 and seed % 2 == 0:
        X[:, -1] = X[:, 0]
    if d >= 3 and seed % 3 == 0:
        X[:, 1] = 2.5
    if d >= 4 and seed % 4 != 1:
        X[:, 2] = rng.integers(0, 3, size=n)
    if seed % 5 == 0:
        X = np.round(X, 1)
    y = (X[:, 0] + rng.standard_normal(n) > 0.3).astype(np.int64)
    params = GbdtParams(iterations=int(rng.integers(1, 15)),
                        learning_rate=float(rng.choice([0.1, 0.5, 1.0])),
                        max_depth=int(rng.integers(1, 5)),
                        min_leaf=int(rng.integers(1, 12)),
                        bins=int(rng.integers(2, 40)),
                        reg_lambda=float(rng.choice([0.5, 1.0, 3.0])))
    return X, y, params


class TestTree:
    def test_xor_fits_exactly_at_depth_two(self):
        model = grow_tree(XOR_X, XOR_Y, max_depth=2)
        assert models._tree_values([model], XOR_X)[0].tolist() == XOR_Y.tolist()

    def test_depth_one_stump_cannot_fit_xor(self):
        model = grow_tree(XOR_X, XOR_Y, max_depth=1)
        assert models._tree_values([model], XOR_X)[0].tolist() != XOR_Y.tolist()

    def test_pure_labels_collapse_to_a_leaf(self):
        model = grow_tree(XOR_X, np.ones(4, dtype=np.int64))
        assert len(model.feature) == 1
        assert models._tree_values([model], XOR_X)[0].tolist() == [1, 1, 1, 1]

    def test_large_min_leaf_forces_majority_vote(self):
        model = grow_tree(XOR_X, np.array([0, 0, 0, 1]), min_leaf=4)
        assert models._tree_values([model], XOR_X)[0].tolist() == [0, 0, 0, 0]

    def test_unseen_points_route_through_thresholds(self):
        X, y = blobs(0)
        model = grow_tree(X, y, max_depth=4)
        Xt, yt = blobs(1)
        assert (models._tree_values([model], Xt)[0] == yt).mean() > 0.95

    @pytest.mark.parametrize("seed", range(36))
    def test_matches_the_one_node_search(self, seed):
        X, y, params = forest_case(seed)
        limits = (params.max_depth, params.min_leaf)
        assert model_state(grow_tree(X, y, *limits)) == model_state(oracle_fit_tree(X, y, *limits))
        mtry = max(1, X.shape[1] // 2)
        got = grow_tree(X, y, *limits, rng=np.random.default_rng(seed), mtry=mtry)
        want = oracle_fit_tree(X, y, *limits, rng=np.random.default_rng(seed), mtry=mtry)
        assert model_state(got) == model_state(want)

    def test_later_feature_must_win_by_more_than_eps(self):
        # the two columns' best cuts have the same Gini gain; rounding
        # leaves feature 1 ahead by 5.6e-17, which is less than _EPS
        X = np.array([[2, 0, 2, 2, 1, 0, 1, 1], [0, 1, 0, 1, 1, 1, 2, 2]], dtype=float).T
        y = np.array([1, 1, 0, 1, 1, 0, 1, 1])
        rows = np.arange(8)
        gain = [oracle_gini_split(X, y, rows, [j], 1)[0] for j in (0, 1)]
        assert 0 < gain[1] - gain[0] < models._EPS
        assert grow_tree(X, y, max_depth=1).feature[0] == 0

    def test_no_columns_gives_a_majority_leaf(self):
        y = np.array([0, 1, 1, 1])
        model = grow_tree(np.zeros((4, 0)), y)
        assert model_state(model) == model_state(oracle_fit_tree(np.zeros((4, 0)), y))
        assert models._tree_values([model], np.zeros((2, 0)))[0].tolist() == [1, 1]

    def test_non_finite_x_rejected(self):
        for bad in (np.nan, np.inf):
            X = XOR_X.copy()
            X[2, 1] = bad
            with pytest.raises(ValueError, match="X must be finite"):
                grow_tree(X, XOR_Y)

    def test_validation(self):
        with pytest.raises(ValueError):
            grow_tree(np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            grow_tree(XOR_X, np.array([0, 1, 2, 1]))
        with pytest.raises(ValueError):
            grow_tree(XOR_X[:, 0], XOR_Y)
        with pytest.raises(ValueError, match="max_depth"):
            ForestParams(max_depth=0)
        with pytest.raises(ValueError, match="min_leaf"):
            ForestParams(min_leaf=0)


class TestForest:
    def test_same_seed_reproduces_predictions(self):
        X, y = blobs(2)
        a = fit_forest(X, y, ForestParams(trees=7, max_depth=3), seed=9)
        b = fit_forest(X, y, ForestParams(trees=7, max_depth=3), seed=9)
        assert np.array_equal(a.predict(X), b.predict(X))
        c = fit_forest(X, y, ForestParams(trees=7, max_depth=3), seed=10)
        assert model_state(a) != model_state(c)

    def test_learns_a_separable_threshold(self):
        X, y = blobs(3)
        model = fit_forest(X, y, ForestParams(trees=15, max_depth=4), seed=1)
        Xt, yt = blobs(4)
        pred = model.predict(Xt)
        assert set(np.unique(pred)) <= {0, 1}
        assert (pred == yt).mean() > 0.95

    @pytest.mark.parametrize("seed", range(36))
    def test_matches_trees_grown_one_by_one(self, seed):
        X, y, params = forest_case(seed)
        assert (model_state(fit_forest(X, y, params, seed=seed))
                == model_state(oracle_fit_forest(X, y, params, seed)))

    def test_validation(self):
        X, y = blobs(15, n=40)
        with pytest.raises(ValueError, match="empty"):
            fit_forest(X[:0], y[:0])
        with pytest.raises(ValueError, match="2-d"):
            fit_forest(X[:, 0], y)
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            fit_forest(X, np.where(y == 1, 2, 0))
        X[5, 2] = np.nan
        with pytest.raises(ValueError, match="X must be finite"):
            fit_forest(X, y)

    def test_tied_vote_stays_negative(self):
        model = Forest([leaf(1.0), leaf(0.0)])
        assert model.predict(np.zeros((3, 2))).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("seed", range(4))
    def test_first_trees_are_the_smaller_forest(self, seed):
        X, y, params = forest_case(seed)
        small = fit_forest(X, y, dataclasses.replace(params, trees=4), seed=seed)
        large = fit_forest(X, y, dataclasses.replace(params, trees=11), seed=seed)
        assert len(small.trees) == 4 and len(large.trees) == 11
        for a, b in zip(small.trees, large.trees):
            for name in TREE_ARRAYS:
                assert getattr(a, name).dtype == getattr(b, name).dtype
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ForestParams(trees=0)
        with pytest.raises(ValueError, match="min_leaf"):
            ForestParams(min_leaf=0)
        with pytest.raises(ValueError, match="max_depth"):
            ForestParams(max_depth=0)


class TestForestParts:
    """Forked tree parts: the same trees for any CPU count, no fork below the
    minimum part size, and every child reaped."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_trees_for_any_cpu_count(self, seed, monkeypatch):
        X, y = blobs(seed, n=300)
        params = ForestParams(trees=7, max_depth=6)
        monkeypatch.setattr(models, "_PART_ROWS", 300)
        forks = count_forks(monkeypatch)
        fits = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_fork, "_cpus", lambda cpus=cpus: cpus)
            fits[cpus] = model_state(fit_forest(X, y, params, seed=seed))
            assert len(forks) == cpus - 1
            forks.clear()
        assert_no_child()
        assert fits[1] == fits[2] == fits[3]
        assert fits[1] == model_state(oracle_fit_forest(X, y, params, seed))

    def test_one_cpu_or_a_small_fit_never_forks(self, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        X, y = blobs(5, n=400)
        params = ForestParams(trees=150, max_depth=2)   # 60,000 bootstrap rows
        monkeypatch.setattr(_fork, "_cpus", lambda: 1)
        assert model_state(fit_forest(X, y, params, seed=3)) == \
            model_state(oracle_fit_forest(X, y, params, 3))
        # 4 CPUs, but a part needs 75 trees of 400 rows, so 149 trees make one part
        monkeypatch.setattr(_fork, "_cpus", lambda: 4)
        fit_forest(X, y, ForestParams(trees=149, max_depth=2), seed=3)

    def test_failed_child_names_its_trees(self, monkeypatch):
        X, y = blobs(6, n=120)
        monkeypatch.setattr(models, "_PART_ROWS", 120)
        monkeypatch.setattr(_fork, "_cpus", lambda: 2)
        parent = os.getpid()
        grow_trees = models._grow_trees

        def fail_in_children(*args):
            if os.getpid() != parent:
                raise OSError("no space left")
            return grow_trees(*args)

        monkeypatch.setattr(models, "_grow_trees", fail_in_children)
        with pytest.raises(RuntimeError, match=re.escape(
                "the process growing trees 5 to 10 exited with status 1: "
                "OSError: no space left")):
            fit_forest(X, y, ForestParams(trees=10, max_depth=3), seed=0)
        assert_no_child()

    def test_killed_child_names_its_signal(self, monkeypatch):
        X, y = blobs(6, n=120)
        monkeypatch.setattr(models, "_PART_ROWS", 120)
        monkeypatch.setattr(_fork, "_cpus", lambda: 3)
        parent = os.getpid()
        grow_trees = models._grow_trees

        def children_killed(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return grow_trees(*args)

        monkeypatch.setattr(models, "_grow_trees", children_killed)
        with pytest.raises(RuntimeError, match=re.escape(
                "the process growing trees 3 to 6 exited with status -9") + "$"):
            fit_forest(X, y, ForestParams(trees=9, max_depth=3), seed=0)
        assert_no_child()

    def test_children_are_killed_when_the_first_part_fails(self, monkeypatch):
        X, y = blobs(6, n=120)
        monkeypatch.setattr(models, "_PART_ROWS", 120)
        monkeypatch.setattr(_fork, "_cpus", lambda: 2)
        parent = os.getpid()

        def children_hang(*args):
            if os.getpid() == parent:
                raise OSError("no space left")
            signal.pause()

        monkeypatch.setattr(models, "_grow_trees", children_hang)
        with pytest.raises(OSError, match="no space left"):
            fit_forest(X, y, ForestParams(trees=4, max_depth=3), seed=0)
        assert_no_child()


class TestGbdt:
    def test_training_loss_never_increases(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((80, 4))
            y = (X @ rng.standard_normal(4) + 0.3 * rng.standard_normal(80)
                 > 0).astype(np.int64)
            model = fit_gbdt(X, y, GbdtParams(iterations=25))
            assert np.all(np.diff(model.train_loss) <= 0.0)

    def test_predict_thresholds_probability_at_a_half(self):
        X, y = blobs(5)
        model = fit_gbdt(X, y, GbdtParams(iterations=20))
        proba = model.predict_proba(X)
        assert np.all((proba >= 0) & (proba <= 1))
        assert np.array_equal(model.predict(X), (proba >= 0.5).astype(np.int8))
        assert (model.predict(X) == y).mean() > 0.95

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_per_feature_search(self, seed):
        X, y, params = oracle_case(seed)
        assert model_state(fit_gbdt(X, y, params)) == model_state(oracle_fit_gbdt(X, y, params))

    def test_identical_columns_split_on_the_lower_index(self):
        X, y = blobs(11)
        X = np.column_stack([X[:, 1], X[:, 0], X[:, 0]])
        model = fit_gbdt(X, y, GbdtParams(iterations=10))
        used = {int(f) for t in model.trees for f in t.feature if f >= 0}
        assert 1 in used and 2 not in used

    def test_constant_column_is_never_chosen(self):
        X, y = blobs(12)
        X[:, 0] = 7.0
        model = fit_gbdt(X, y, GbdtParams(iterations=10, min_leaf=1))
        used = {int(f) for t in model.trees for f in t.feature if f >= 0}
        assert used and 0 not in used

    def test_later_feature_must_win_by_more_than_eps(self):
        # both features cut rows 0-4 from 5-8; row 9, of almost no weight,
        # goes right on feature 0 and left on feature 1, which leaves
        # feature 1 ahead by less than _EPS
        g = np.array([-1.0] * 5 + [1.0] * 4 + [-2e-13])
        h = np.array([0.25] * 9 + [1e-12])
        codes = np.array([[0, 0]] * 5 + [[1, 1]] * 4 + [[1, 0]])
        params = GbdtParams(max_depth=1, min_leaf=1, bins=2)
        G, H, lam = g.sum(), h.sum(), params.reg_lambda

        def gain(left):
            GL, HL = g[left].sum(), h[left].sum()
            return (GL * GL / (HL + lam) + (G - GL) ** 2 / (H - HL + lam)
                    - G * G / (H + lam))

        assert 0 < gain(codes[:, 1] == 0) - gain(codes[:, 0] == 0) < models._EPS
        edges = [np.array([0.5]), np.array([0.5])]
        tree, _ = fit_hist_tree(codes + np.array([0, 2]), edges, g, h, params)
        assert tree.feature[0] == 0

    def test_cuts_past_a_features_last_edge_are_never_taken(self):
        # one edge, so cuts 1 and 2 of bins=4 lie past it and keep every
        # row left; with min_leaf 0 their gain is the rounding gap between
        # the sequential histogram sum and the pairwise total, here > _EPS,
        # while the one real cut splits two equal halves at a loss.
        # GbdtParams rejects min_leaf 0, so the tree builder gets a stand-in.
        half = np.random.default_rng(3).standard_normal(64) * 1e3 + 5e3
        g = np.concatenate([half, half])
        h = np.full(128, 0.25)
        codes = np.repeat([0, 1], 64)[:, None]
        params = SimpleNamespace(max_depth=1, min_leaf=0, bins=4, reg_lambda=1.0)
        G, H, lam = g.sum(), h.sum(), params.reg_lambda
        GL = np.bincount(codes[:, 0], weights=g).cumsum()[-1]
        assert GL * GL / (H + lam) + (G - GL) ** 2 / lam - G * G / (H + lam) > models._EPS
        edges = [np.array([0.5])]
        tree, leaf = fit_hist_tree(codes, edges, g, h, params)
        oracle = oracle_hist_tree(codes, edges, g, h, np.arange(128), params)
        assert model_state(tree) == model_state(oracle)
        assert len(tree.feature) == 1 and not leaf.any()

    def test_validation(self):
        X, y = blobs(13, n=40)
        for labels in (np.where(y == 1, 2, 0), np.where(y == 1, 1, -1)):
            with pytest.raises(ValueError, match="labels must be 0 or 1"):
                fit_gbdt(X, labels)
        X[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_gbdt(X, y)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GbdtParams(iterations=0)
        with pytest.raises(ValueError):
            GbdtParams(learning_rate=0.0)
        with pytest.raises(ValueError):
            GbdtParams(bins=1)
        with pytest.raises(ValueError, match="min_leaf"):
            GbdtParams(min_leaf=0)
        with pytest.raises(ValueError, match="max_depth"):
            GbdtParams(max_depth=0)


class TestOnePassPrediction:
    """``_tree_values`` walks every tree at once; a loop of one-tree walks is the oracle."""

    def cases(self):
        for seed in range(0, 36, 5):
            X, y, params = forest_case(seed)
            forest = fit_forest(X, y, params, seed=seed)
            X_new = np.random.default_rng(seed).standard_normal((57, X.shape[1]))
            yield forest, np.vstack([X, X_new])
        for seed in range(0, 40, 4):
            X, y, params = oracle_case(seed)
            gbdt = fit_gbdt(X, y, params)
            X_new = np.random.default_rng(seed).standard_normal((33, X.shape[1]))
            yield gbdt, np.vstack([X, X_new])

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).tobytes()

    def test_matches_one_tree_at_a_time(self):
        sizes, depths = set(), set()
        for model, X in self.cases():
            for rows in (X, X[:0], X[:1]):
                want = [oracle_predict_value(t, rows) for t in model.trees]
                got = models._tree_values(model.trees, rows)
                assert got.shape == (len(model.trees), len(rows))
                assert all(self.bits(g) == self.bits(w) for g, w in zip(got, want))
                if isinstance(model, Forest):
                    votes = np.zeros(len(rows), dtype=np.int64)
                    for values in want:
                        votes += values.astype(np.int8)
                    want_pred = (2 * votes > len(model.trees)).astype(np.int8)
                    assert self.bits(model.predict(rows)) == self.bits(want_pred)
                else:
                    score = np.full(len(rows), model.base_score)
                    for values in want:
                        score += values
                    assert self.bits(model.decision_score(rows)) == self.bits(score)
            sizes |= {len(t.feature) for t in model.trees}
            depths |= {tree_depth(t) for t in model.trees}
        # the cases hold single-leaf trees and trees of unequal depth
        assert 1 in sizes and len(depths) >= 4

    def test_mixed_trees_and_a_lone_leaf(self):
        X, y = blobs(21, n=90)
        trees = [leaf(0.25), grow_tree(X, y, max_depth=1), grow_tree(X, y), leaf(-1.5),
                 *fit_gbdt(X, y, GbdtParams(iterations=3, max_depth=4)).trees]
        X_new = np.random.default_rng(21).standard_normal((40, 3)) * 3
        for rows in (X_new, X_new[:0]):
            got = models._tree_values(trees, rows)
            for t, tree in enumerate(trees):
                assert self.bits(got[t]) == self.bits(oracle_predict_value(tree, rows))

    def test_a_gbdt_without_trees_scores_its_base(self):
        model = Gbdt(-0.4, [], [0.7])
        assert models._tree_values([], np.zeros((3, 2))).shape == (0, 3)
        assert model.decision_score(np.zeros((3, 2))).tolist() == [-0.4] * 3


class TestHistogramSubtraction:
    """Each split counts only its smaller child and subtracts for the other."""

    def test_child_counts_equal_direct_bincounts(self, monkeypatch):
        calls = []
        real = models._child_histograms

        def spy(flat, g, h, hist, left, right, bins):
            got = real(flat, g, h, hist, left, right, bins)
            calls.append((flat, g, h, bins, left, right, got))
            return got

        monkeypatch.setattr(models, "_child_histograms", spy)
        for seed in range(40):
            fit_gbdt(*oracle_case(seed))
        assert len(calls) > 100
        for flat, g, h, bins, left, right, got in calls:
            counted = 0 if len(left) <= len(right) else 1     # a tie counts the left
            for side, (rows, hist) in enumerate(zip((left, right), got)):
                direct = models._histograms(flat[rows], g[rows], h[rows], bins)
                assert np.array_equal(hist[2], direct[2])
                assert np.array_equal(hist[2].sum(axis=1), np.full(flat.shape[1], len(rows)))
                if side == counted:
                    assert np.array_equal(hist, direct)
                else:
                    np.testing.assert_allclose(hist[:2], direct[:2], rtol=0, atol=1e-9)
                    # a bin without rows sums nothing, exactly as when counted
                    assert not hist[:2, hist[2] == 0].any()

    def test_no_child_histograms_at_the_depth_limit(self, monkeypatch):
        counted = []
        real = models._histograms
        monkeypatch.setattr(models, "_histograms",
                            lambda codes, g, h, bins, counts=None: counted.append(len(g))
                            or real(codes, g, h, bins, counts))
        X, y = blobs(22)
        model = fit_gbdt(X, y, GbdtParams(iterations=6, max_depth=1))
        assert all(len(t.feature) == 3 for t in model.trees)
        assert counted == [len(X)] * len(model.trees)

    def test_empty_subtracted_bins_keep_a_tie_on_the_lower_cut(self):
        # seed 175, tree 8, node 3 (55 rows): feature 1 has no rows in bin
        # 5, so cuts 4 and 5 split the same rows. Subtracted, that bin's G
        # and H were -5.6e-17 each, cut 5 won by 1.1e-16 and the threshold
        # was -0.9; counted, the cuts tie and the lower one, -1.075, wins
        X, y, params = oracle_case(175)
        tree = fit_gbdt(X, y, params).trees[8]
        assert (tree.feature[3], tree.threshold[3]) == (1, -1.0750000000000002)
        assert model_state(fit_gbdt(X, y, params)) == model_state(oracle_fit_gbdt(X, y, params))

    def test_seeds_40_to_299_match_the_per_feature_search(self):
        # a subtracted G or H bin can still differ from a direct sum in its
        # low bits and flip a near-tied gain; none of these seeds does
        differ = {seed for seed in range(40, 300)
                  if model_state(fit_gbdt(*oracle_case(seed)))
                  != model_state(oracle_fit_gbdt(*oracle_case(seed)))}
        assert differ == set()


def svm_case(seed):
    """Overlapping classes, so some rows stay inside the margin at the optimum,
    with a seeded row count, column count, offset and regularization."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(40, 300)), int(rng.integers(1, 8))
    X = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, size=d)
    score = X @ rng.standard_normal(d) + rng.uniform(-1, 1)
    y = (score + rng.standard_normal(n) > 0).astype(np.int64)
    return X, y, float(10.0 ** rng.uniform(-4, -1))


def svm_objective(w, X, y, reg):
    """The primal objective and its gradient, written out on their own."""
    aug = np.hstack([X, np.ones((len(X), 1))])
    s = 2.0 * y - 1.0
    hinge = np.maximum(0.0, 1.0 - s * (aug @ w))
    value = reg / 2.0 * w @ w + np.mean(hinge ** 2)
    grad = reg * w - 2.0 / len(X) * aug.T @ (s * hinge)
    return value, grad


SVM_SEEDS = range(8)


class TestSvm:
    def test_separates_wide_margin_blobs(self):
        X, y = blobs(6)
        model = fit_svm(X, y, SvmParams(reg=1e-3))
        assert (model.predict(X) == y).mean() > 0.95
        assert 1 <= len(model.objectives) <= models._NEWTON_STEPS

    def test_zero_score_stays_negative(self):
        model = Svm(np.zeros(4), [])
        assert model.predict(np.ones((2, 3))).tolist() == [0, 0]

    @pytest.mark.parametrize("seed", SVM_SEEDS)
    def test_gradient_vanishes_at_the_returned_weights(self, seed):
        X, y, reg = svm_case(seed)
        model = fit_svm(X, y, SvmParams(reg=reg))
        assert len(model.objectives) < models._NEWTON_STEPS
        _, grad = svm_objective(model.weights, X, y, reg)
        assert np.linalg.norm(grad) < models._NEWTON_TOL

    @pytest.mark.parametrize("seed", SVM_SEEDS)
    def test_matches_lbfgs_on_the_same_objective(self, seed):
        from scipy.optimize import minimize
        X, y, reg = svm_case(seed)
        model = fit_svm(X, y, SvmParams(reg=reg))
        ref = minimize(svm_objective, np.zeros(X.shape[1] + 1), args=(X, y, reg),
                       jac=True, method="L-BFGS-B",
                       options={"gtol": 1e-13, "ftol": 1e-15, "maxiter": 20000})
        assert np.max(np.abs(model.weights - ref.x)) < 1e-6
        assert model.objectives[-1] <= ref.fun + 1e-12

    def test_row_order_does_not_change_weights(self):
        for seed in SVM_SEEDS:
            X, y, reg = svm_case(seed)
            order = np.random.default_rng(seed).permutation(len(X))
            a = fit_svm(X, y, SvmParams(reg=reg))
            b = fit_svm(X[order], y[order], SvmParams(reg=reg))
            assert np.max(np.abs(a.weights - b.weights)) <= 1e-12, seed

    def test_objectives_never_increase(self):
        for seed in SVM_SEEDS:
            X, y, reg = svm_case(seed)
            objectives = fit_svm(X, y, SvmParams(reg=reg)).objectives
            assert len(objectives) >= 1
            assert all(b <= a for a, b in zip(objectives, objectives[1:])), seed
            # the first step starts from w = 0, where the objective is 1
            assert objectives[0] <= 1.0

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_labels_predict_that_class(self, label):
        X, _ = blobs(9, n=80)
        model = fit_svm(X, np.full(len(X), label))
        assert 1 <= len(model.objectives) < models._NEWTON_STEPS
        assert np.all(model.predict(X) == label)

    def test_validation(self):
        X, y = blobs(14, n=40)
        for labels in (np.where(y == 1, 2, 0), np.where(y == 1, 1, -1)):
            with pytest.raises(ValueError, match="labels must be 0 or 1"):
                fit_svm(X, labels)

    def test_non_finite_x_rejected(self):
        X, y = blobs(14, n=50)
        for bad in (np.nan, np.inf):
            X_bad = X.copy()
            X_bad[7, 1] = bad
            with pytest.raises(ValueError, match="X must be finite"):
                fit_svm(X_bad, y)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SvmParams(reg=0.0)
        with pytest.raises(TypeError):
            SvmParams(epochs=30)


class TestFittedNumbers:
    def fitted_models(self):
        X, y = blobs(8, n=60)
        return {
            "tree": grow_tree(X, y, max_depth=3),
            "forest": fit_forest(X, y, ForestParams(trees=3, max_depth=3), seed=0),
            "gbdt": fit_gbdt(X, y, GbdtParams(iterations=5)),
            "svm": fit_svm(X, y),
        }

    def test_fitted_numbers_are_pinned(self):
        # sha256 of each model's state as sorted-key JSON text, one trailing newline
        expected = {
            "tree": "e6ad0b097cb74ee0a49bb920139d4e14baf1693ec6e1efa35b6b474e0b49be7a",
            "forest": "5d7282f94d1e5422185ac6af93210a1b9de206cbdc46a3fcb4f5b1fecb2e70a9",
            "gbdt": "1d03239efe734a363ffc9ae11f9bc5f2e7fd37688e2f05fff4d214d2c51d980c",
            "svm": "da1233178cea6f896dc8f17a72b1d58323a3dcd93e0e82b0654ecfd772890eb8",
        }
        got = {}
        for family, model in self.fitted_models().items():
            text = json.dumps(model_state(model), sort_keys=True) + "\n"
            got[family] = hashlib.sha256(text.encode()).hexdigest()
        assert got == expected

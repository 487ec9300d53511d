"""Classifier tests: gradients vs finite differences, batch-vs-solo
equivalence, scoring contracts and the registry."""
from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

import fairsample.classifiers as classifiers_mod
from fairsample.base import InputError, NotFittedError, TrainingError
from fairsample.classifiers import (
    ClassifierSpec,
    GaussianNaiveBayes,
    LinearSVM,
    LogisticRegression,
    RandomForest,
    TrainedModel,
    _sigmoid,
    build_estimator,
    classifier_kinds,
    fit,
    fit_logistic_batch,
    grow_forests,
    predict_labels,
    register_kind,
)
from fairsample.dataset import SyntheticSpec, generate_synthetic
from fairsample.metrics import confusion


def make_train_test(seed=0, quadrants=(200, 40, 60, 30), bias=0.0):
    spec = SyntheticSpec(quadrants=quadrants, bias=bias)
    return generate_synthetic(spec, seed=seed), generate_synthetic(spec, seed=seed + 1)


def accuracy(model, d, threshold=0.5):
    c = confusion(predict_labels(model, d, threshold))
    return (c.tp + c.tn) / c.total


# ---------------------------------------------------------------------------
# gradient correctness

def logistic_loss(w, b, x, y, l2):
    z = x @ w + b
    return float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * np.dot(w, w))


def logistic_grad(w, b, x, y, l2):
    residual = _sigmoid(x @ w + b) - y
    grad_w = x.T @ residual / len(y) + l2 * w
    return grad_w, float(residual.mean())


def hinge_loss(w, b, x, y, l2):
    signed = 2.0 * y - 1.0
    margin = signed * (x @ w + b)
    return float(np.mean(np.maximum(0.0, 1.0 - margin)) + 0.5 * l2 * np.dot(w, w))


def hinge_grad(w, b, x, y, l2):
    signed = 2.0 * y - 1.0
    margin = signed * (x @ w + b)
    viol = margin < 1.0
    grad_w = -(x[viol].T @ signed[viol]) / len(y) + l2 * w
    grad_b = -signed[viol].sum() / len(y)
    return grad_w, float(grad_b)


def naive_descent(grad_fn, x, y, learning_rate, l2, max_iter, tol):
    """One problem at a time, the gradient from grad_fn: (w, b, iterations)."""
    w = np.zeros(x.shape[1])
    b = 0.0
    performed = 0
    for it in range(max_iter):
        gw, gb = grad_fn(w, b, x, y, l2)
        sw, sb = learning_rate * gw, learning_rate * gb
        w -= sw
        b -= sb
        performed = it + 1
        if max(np.abs(sw).max(), abs(sb)) < tol:
            break
    return w, b, performed


def finite_diff(loss_fn, w, b, x, y, l2, h=1e-6):
    grad_w = np.empty_like(w)
    for i in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[i] += h
        wm[i] -= h
        grad_w[i] = (loss_fn(wp, b, x, y, l2) - loss_fn(wm, b, x, y, l2)) / (2 * h)
    grad_b = (loss_fn(w, b + h, x, y, l2) - loss_fn(w, b - h, x, y, l2)) / (2 * h)
    return grad_w, grad_b


@pytest.mark.parametrize(
    "loss_fn,grad_fn", [(logistic_loss, logistic_grad), (hinge_loss, hinge_grad)]
)
def test_gradients_match_finite_differences(loss_fn, grad_fn):
    rng = np.random.default_rng(42)
    for _ in range(5):
        x = rng.normal(size=(40, 6))
        y = (rng.random(40) < 0.4).astype(float)
        w = rng.normal(size=6)
        b = float(rng.normal())
        l2 = 10 ** rng.uniform(-5, -1)
        gw, gb = grad_fn(w, b, x, y, l2)
        nw, nb = finite_diff(loss_fn, w, b, x, y, l2)
        assert np.allclose(gw, nw, rtol=1e-5, atol=1e-7)
        assert abs(gb - nb) < 1e-6


def test_logistic_fit_reduces_loss():
    train, _ = make_train_test()
    from fairsample.dataset import FeaturePipeline

    x = FeaturePipeline().fit(train).transform(train)
    y = train.unfavourable.astype(float)
    est = LogisticRegression().fit(x, y)
    start = logistic_loss(np.zeros(x.shape[1]), 0.0, x, y, est.l2)
    end = logistic_loss(est.coef_, est.intercept_, x, y, est.l2)
    assert end < start


def test_logistic_matches_naive_descent_loop():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 4))
    y = (rng.random(60) < 0.5).astype(float)
    est = LogisticRegression(learning_rate=0.2, l2=1e-3, max_iter=150, tol=1e-7)
    est.fit(x, y)
    w, b, _ = naive_descent(logistic_grad, x, y, 0.2, 1e-3, 150, 1e-7)
    assert np.allclose(est.coef_, w, atol=1e-12)
    assert abs(est.intercept_ - b) < 1e-12


def test_svm_matches_naive_subgradient_loop():
    # the kernel sums the hinge subgradient over every row, zeros
    # included, where the loop sums the violators only
    rng = np.random.default_rng(9)
    stopped_early = 0
    for _ in range(40):
        n, f = rng.integers(20, 120), rng.integers(1, 8)
        x = rng.normal(size=(n, f)) * rng.uniform(0.2, 3.0, size=f)
        y = (x[:, 0] > 0).astype(float)
        # a gap between the classes, so some fits leave every margin
        # above 1 and stop on tol
        x[:, 0] += np.where(y == 1.0, 0.5, -0.5)
        settings = dict(
            learning_rate=rng.uniform(0.05, 0.5),
            l2=10 ** rng.uniform(-4, -1),
            max_iter=int(rng.integers(50, 400)),
            tol=10 ** rng.uniform(-6, -3),
        )
        est = LinearSVM(**settings).fit(x, y)
        w, b, performed = naive_descent(hinge_grad, x, y, **settings)
        assert est.n_iter_ == performed
        stopped_early += performed < settings["max_iter"]
        assert est.coef_ == pytest.approx(w, rel=1e-12, abs=1e-12)
        assert est.intercept_ == pytest.approx(b, rel=1e-12, abs=1e-12)
    assert 0 < stopped_early < 40  # both stopping rules were met


@pytest.mark.parametrize("hinge", [False, True], ids=["logistic", "hinge"])
def test_batched_fit_equals_solo_fits(hinge):
    rng = np.random.default_rng(11)
    k, n, f = 6, 50, 3
    stacked_x = rng.normal(size=(k, n, f))
    # different scales so instances converge at different iterations
    stacked_x *= (0.2 + np.arange(k))[:, None, None]
    stacked_y = (rng.random((k, n)) < 0.5).astype(float)
    if hinge:  # separate the classes, so some subgradient fits stop on tol
        stacked_x[:, :, 0] += np.where(stacked_y == 1.0, 1.0, -1.0)
    bw, bb, bit = fit_logistic_batch(stacked_x, stacked_y, 0.1, 1e-4, 300, 1e-4, hinge)
    assert len(set(bit.tolist())) > 1  # the early-stop mask actually fired
    for i in range(k):
        sw, sb, sit = fit_logistic_batch(
            stacked_x[i : i + 1], stacked_y[i : i + 1], 0.1, 1e-4, 300, 1e-4, hinge
        )
        assert sit[0] == bit[i]
        assert np.max(np.abs(sw[0] - bw[i])) < 1e-10
        assert abs(sb[0] - bb[i]) < 1e-10


def test_batched_fit_shape_validation():
    with pytest.raises(InputError):
        fit_logistic_batch(np.zeros((3, 4)), np.zeros((3, 4)), 0.1, 0.0, 10, 1e-6)
    with pytest.raises(InputError):
        fit_logistic_batch(np.zeros((2, 4, 3)), np.zeros((2, 5)), 0.1, 0.0, 10, 1e-6)


def oracle_fit_logistic_batch(
    stacked_x, stacked_y, learning_rate, l2, max_iter, tol, hinge=False
):
    """The batched kernel without its buffers: the same operations in
    the same order, each on a fresh array. The stack is feature-major
    with a row of ones, so the intercept is the last coefficient; its
    l2 decay is 0, and the logistic halves the coefficients, not z."""
    k, n, f = stacked_x.shape
    coefs, iterations = np.zeros((k, f + 1)), np.zeros(k, dtype=int)
    # C order, as the kernel's copy: the memory layout picks BLAS's sum order
    ones = np.ones((k, 1, n))
    work_x = np.ascontiguousarray(np.concatenate([stacked_x.transpose(0, 2, 1), ones], axis=1))
    work_y = 2.0 * stacked_y - 1.0 if hinge else stacked_y
    decay = np.append(np.full(f, l2), 0.0)
    c, idx = np.zeros((k, f + 1)), np.arange(k)
    performed = 0
    for it in range(max_iter):
        if idx.size == 0:
            break
        if hinge:
            z = (c[:, None, :] @ work_x)[:, 0, :]
            residual = np.where(work_y * z < 1.0, -work_y, 0.0)
        else:
            z = ((c * 0.5)[:, None, :] @ work_x)[:, 0, :]
            residual = 0.5 * (1.0 + np.tanh(z)) - work_y
        grad = (work_x @ residual[:, :, None])[:, :, 0] / n + decay * c
        step = learning_rate * grad
        c = c - step
        performed = it + 1
        done = np.abs(step).max(axis=1) < tol
        if done.any():
            coefs[idx[done]], iterations[idx[done]] = c[done], performed
            keep = ~done
            work_x, work_y, c, idx = work_x[keep], work_y[keep], c[keep], idx[keep]
    coefs[idx], iterations[idx] = c, performed
    return coefs[:, :f], coefs[:, f], iterations


def row_major_fit(stacked_x, stacked_y, learning_rate, l2, max_iter, tol, hinge=False):
    """The textbook (K, N, F) formula: z = x @ w + b, the gradient as
    residual @ x and the intercept's as the residual's mean."""
    k, n, f = stacked_x.shape
    weights, intercepts = np.zeros((k, f)), np.zeros(k)
    iterations = np.zeros(k, dtype=int)
    work_x, work_y = stacked_x, 2.0 * stacked_y - 1.0 if hinge else stacked_y
    w, b, idx = np.zeros((k, f)), np.zeros(k), np.arange(k)
    performed = 0
    for it in range(max_iter):
        if idx.size == 0:
            break
        z = (work_x @ w[:, :, None])[:, :, 0] + b[:, None]
        if hinge:
            residual = np.where(work_y * z < 1.0, -work_y, 0.0)
        else:
            residual = 0.5 * (1.0 + np.tanh(0.5 * z)) - work_y
        grad_w = (residual[:, None, :] @ work_x)[:, 0, :] / n + l2 * w
        grad_b = residual.mean(axis=1)
        step_w, step_b = learning_rate * grad_w, learning_rate * grad_b
        w -= step_w
        b -= step_b
        performed = it + 1
        done = np.maximum(np.abs(step_w).max(axis=1), np.abs(step_b)) < tol
        if done.any():
            settled = idx[done]
            weights[settled], intercepts[settled] = w[done], b[done]
            iterations[settled] = performed
            keep = ~done
            work_x, work_y = work_x[keep], work_y[keep]
            w, b, idx = w[keep], b[keep], idx[keep]
    weights[idx], intercepts[idx], iterations[idx] = w, b, performed
    return weights, intercepts, iterations


def kernel_cases():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(6, 50, 3)) * (0.2 + np.arange(6))[:, None, None]
    y = (x[:, :, 0] + rng.normal(size=(6, 50)) > 0).astype(float)
    zeros = np.insert(x, [1, 3], 0.0, axis=2)  # all-zero columns 1 and 4
    zeros[::2, :, 2] = 0.0  # some problems lack one more column
    return {
        "max_iter": (x, y, dict(learning_rate=0.1, l2=1e-4, max_iter=40, tol=1e-12)),
        "frozen": (x, y, dict(learning_rate=0.5, l2=0.01, max_iter=3000, tol=1e-6)),
        "single": (x[3:4], y[3:4], dict(learning_rate=0.5, l2=0.01, max_iter=3000, tol=1e-6)),
        "zero_columns": (zeros, y, dict(learning_rate=0.5, l2=0.01, max_iter=3000, tol=1e-6)),
    }


@pytest.mark.parametrize("case", sorted(kernel_cases()))
def test_batched_fit_matches_allocating_oracle(case):
    x, y, settings = kernel_cases()[case]
    w, b, its = fit_logistic_batch(x, y, **settings)
    want_w, want_b, want_its = oracle_fit_logistic_batch(x, y, **settings)
    assert np.array_equal(w, want_w)
    assert np.array_equal(b, want_b)
    assert np.array_equal(its, want_its)
    # the hinge branch writes its subgradient in place: same floats
    hinge = fit_logistic_batch(x, y, **settings, hinge=True)
    for got, want in zip(hinge, oracle_fit_logistic_batch(x, y, **settings, hinge=True)):
        assert np.array_equal(got, want)
    if case == "max_iter":
        assert (its == settings["max_iter"]).all()
    elif case != "single":
        assert len(set(its.tolist())) > 1  # problems froze at different steps
        assert (its < settings["max_iter"]).all()
    if case == "zero_columns":
        assert (w[:, [1, 4]] == 0.0).all() and (w[::2, 2] == 0.0).all()


@pytest.mark.parametrize("hinge", [False, True], ids=["logistic", "hinge"])
@pytest.mark.parametrize("case", ["max_iter", "frozen", "zero_columns"])
def test_kernel_agrees_with_row_major_reference(case, hinge):
    # the feature-major kernel reassociates the sums inside its two
    # products and nothing else
    x, y, settings = kernel_cases()[case]
    w, b, its = fit_logistic_batch(x, y, **settings, hinge=hinge)
    want_w, want_b, want_its = row_major_fit(x, y, **settings, hinge=hinge)
    assert np.array_equal(its, want_its)
    assert w == pytest.approx(want_w, rel=1e-12)
    assert b == pytest.approx(want_b, rel=1e-12)


# ---------------------------------------------------------------------------
# estimator behaviour

@pytest.mark.parametrize("kind", ["logistic", "svm", "naive_bayes", "forest"])
def test_estimators_learn_separable_data(kind):
    train, test = make_train_test()
    params = {"n_trees": 25} if kind == "forest" else {}
    model = fit(ClassifierSpec(kind=kind, params=params, seed=3), train)
    assert accuracy(model, test) >= 0.9
    scores = model.predict_scores(test)
    assert scores.min() >= 0.0 and scores.max() <= 1.0


@pytest.mark.parametrize("kind", ["logistic", "svm", "naive_bayes", "forest"])
def test_estimators_deterministic(kind):
    train, test = make_train_test(seed=20)
    params = {"n_trees": 10} if kind == "forest" else {}
    spec = ClassifierSpec(kind=kind, params=params, seed=5)
    a = fit(spec, train).predict_scores(test)
    b = fit(spec, train).predict_scores(test)
    assert np.array_equal(a, b)


def test_forest_seed_changes_model():
    train, test = make_train_test(seed=21)
    a = fit(ClassifierSpec("forest", {"n_trees": 10}, seed=1), train).predict_scores(test)
    b = fit(ClassifierSpec("forest", {"n_trees": 10}, seed=2), train).predict_scores(test)
    assert not np.array_equal(a, b)


def test_forest_scores_are_vote_fractions():
    train, test = make_train_test(seed=22, quadrants=(60, 20, 20, 10))
    model = fit(ClassifierSpec("forest", {"n_trees": 20}, seed=4), train)
    scores = model.predict_scores(test)
    votes = scores * 20
    assert np.allclose(votes, np.round(votes), atol=1e-9)


def test_forest_scores_divide_by_the_fitted_tree_count():
    # n_trees set after fit changes neither the trees nor their vote shares
    rng = np.random.default_rng(7)
    x = rng.normal(size=(40, 3))
    y = (x[:, 0] > 0).astype(float)
    forest = RandomForest(n_trees=4, max_depth=3, seed=1).fit(x, y)
    want = forest.predict_scores(x[:5])
    forest.n_trees = 2
    got = forest.predict_scores(x[:5])
    assert np.array_equal(got, want)
    assert ((got >= 0.0) & (got <= 1.0)).all()


# ---------------------------------------------------------------------------
# the forest against a quadratic reference: one re-sliced Gini per
# boundary, node objects, and a row-by-row walk

class OracleNode:
    def __init__(self, feature=-1, threshold=0.0, label=0.0):
        self.feature, self.threshold, self.label = feature, threshold, label
        self.left = self.right = None


def oracle_gini(sorted_y, boundary):
    # re-slice and re-average both sides at every boundary: O(n) each
    n = len(sorted_y)
    score = 0.0
    for part in (sorted_y[:boundary], sorted_y[boundary:]):
        p = part.mean()
        score += len(part) / n * 2.0 * p * (1.0 - p)
    return score


def oracle_grow(x, y, rng, max_depth, per_split, depth=0):
    majority = 1.0 if y.sum() * 2 > len(y) else 0.0
    if depth >= max_depth or len(y) < 2 or y.min() == y.max():
        return OracleNode(label=majority)
    candidates = rng.choice(x.shape[1], size=per_split, replace=False)
    best = (None, None, np.inf)
    for feat in sorted(candidates.tolist()):
        order = np.argsort(x[:, feat], kind="stable")
        xs, ys = x[order, feat], y[order]
        for boundary in range(1, len(ys)):
            if xs[boundary] == xs[boundary - 1]:
                continue
            score = oracle_gini(ys, boundary)
            if score < best[2]:
                lo, hi = float(xs[boundary - 1]), float(xs[boundary])
                cut = 0.5 * (hi + lo)  # Python floats overflow to inf silently
                best = (feat, cut if lo <= cut < hi else lo, score)
    if best[0] is None:
        return OracleNode(label=majority)
    feat, cut, _ = best
    mask = x[:, feat] <= cut
    node = OracleNode(feature=feat, threshold=cut)
    node.left = oracle_grow(x[mask], y[mask], rng, max_depth, per_split, depth + 1)
    node.right = oracle_grow(x[~mask], y[~mask], rng, max_depth, per_split, depth + 1)
    return node


def oracle_forest(x, y, n_trees, max_depth, seed):
    n, f = x.shape
    per_split = max(1, int(np.sqrt(f)))
    trees = []
    for s in np.random.SeedSequence(seed).spawn(n_trees):
        rng = np.random.default_rng(s)
        pick = rng.integers(0, n, size=n)
        trees.append(oracle_grow(x[pick], y[pick], rng, max_depth, per_split))
    return trees


def oracle_scores(trees, x):
    votes = np.zeros(len(x))
    for tree in trees:
        for i, row in enumerate(x):
            cur = tree
            while cur.feature >= 0:
                cur = cur.left if row[cur.feature] <= cur.threshold else cur.right
            votes[i] += cur.label
    return votes / len(trees)


def oracle_arrays(trees):
    """Pre-order node table: [feature, threshold, left, right, label]
    per node, a leaf pointing to itself; plus each tree's root."""
    nodes, roots = [], []

    def visit(node):
        index = len(nodes)
        nodes.append([node.feature, node.threshold, index, index, node.label])
        if node.feature >= 0:
            nodes[index][2] = visit(node.left)
            nodes[index][3] = visit(node.right)
        return index

    for tree in trees:
        roots.append(visit(tree))
    return nodes, roots


def forest_fixtures():
    rng = np.random.default_rng(2024)
    yield pytest.param(np.round(rng.normal(size=(80, 4)), 1), rng.random(80) < 0.3, 12, id="ties")
    one_hot = np.eye(5)[rng.integers(0, 5, size=90)]
    mixed = np.column_stack([one_hot, rng.normal(size=90)])
    yield pytest.param(mixed, (one_hot[:, 1] + (rng.random(90) < 0.2)) > 0, 12, id="one_hot")
    constant = np.column_stack([np.full(60, 3.0), rng.normal(size=60)])
    yield pytest.param(constant, rng.random(60) < 0.5, 12, id="constant_column")
    yield pytest.param(np.array([[0.0, 1.0], [1.0, 1.0]]), np.array([0, 1]), 12, id="n_equals_2")
    # every row five times over, so each bootstrap draws many duplicates
    repeated = np.repeat(rng.normal(size=(12, 3)), 5, axis=0)
    yield pytest.param(repeated, np.repeat(rng.random(12) < 0.5, 5), 12, id="duplicate_rows")
    base = rng.normal(size=(70, 9))
    labels = base[:, 0] + 0.5 * rng.normal(size=70) > 0.4
    for depth in (0, 1, 12):
        yield pytest.param(base, labels, depth, id=f"depth_{depth}")
    for case in range(12):
        n = int(rng.integers(2, 150))
        x = rng.normal(size=(n, int(rng.integers(1, 9))))
        x = np.round(x, int(rng.integers(0, 3)))  # coarse grids tie often
        y = rng.random(n) < rng.uniform(0.1, 0.9)
        y[:2] = [True, False]
        yield pytest.param(x, y, int(rng.integers(1, 14)), id=f"random_{case}")


@pytest.mark.parametrize("x,y,depth", list(forest_fixtures()))
def test_forest_matches_quadratic_oracle(x, y, depth):
    y = y.astype(float)
    probe = np.vstack([x, x + 0.05, x[::-1] - 0.05])
    for seed, n_trees in ((0, 1), (7, 3), (123, 5)):
        forest = RandomForest(n_trees=n_trees, max_depth=depth, seed=seed).fit(x, y)
        trees = oracle_forest(x, y, n_trees, depth, seed)
        nodes, roots = oracle_arrays(trees)
        assert forest.roots_.tolist() == roots
        table = np.column_stack(
            [forest.feature_, forest.threshold_, forest.left_, forest.right_, forest.label_]
        )
        assert table.tolist() == nodes
        assert np.array_equal(forest.predict_scores(probe), oracle_scores(trees, probe))


# ---------------------------------------------------------------------------
# candidate draws: Generator.choice on the tree's stream after its bootstrap


@pytest.fixture
def drawn_sets(monkeypatch):
    """The candidate sets of each tree grown while the fixture is in use,
    one list a tree, in the order the trees start."""
    drawn = []

    class Recorded(classifiers_mod._Tree):
        __slots__ = ()

        def __init__(self, max_depth, root, draws):
            super().__init__(max_depth, root, draws)
            drawn.append(draws[1])

    monkeypatch.setattr(classifiers_mod, "_Tree", Recorded)
    return drawn


def tree_stream(seed, t, n, generator=np.random.default_rng):
    # tree t's generator, after its bootstrap of n rows
    rng = generator(np.random.SeedSequence(seed).spawn(t + 1)[t])
    rng.integers(0, n, size=n)
    return rng


def test_candidate_draws_replay_generator_choice(drawn_sets):
    # 40 forests of widths 1-40, after bootstraps of even or odd length:
    # each tree's sets are those Generator.choice draws on its own stream
    buffered = set()
    for seed in range(40):
        n, width = (40, 41, 86, 87)[seed % 4], 1 + 7 * seed % 40
        x, y = np.random.default_rng(seed).normal(size=(n, width)), np.arange(n) % 2
        drawn_sets.clear()
        RandomForest(n_trees=3, max_depth=4, seed=seed).fit(x, y)
        assert len(drawn_sets) == 3 and all(drawn_sets)
        per_split = max(1, int(np.sqrt(width)))
        for t, sets in enumerate(drawn_sets):
            rng = tree_stream(seed, t, n)
            buffered.add(rng.bit_generator.state["has_uint32"])
            want = [sorted(rng.choice(width, per_split, replace=False).tolist()) for _ in sets]
            assert sets == want, (seed, t)
    # odd bootstraps leave half a word buffered, even ones do not
    assert buffered == {0, 1}


class ZeroBuffered:
    """A tree's generator whose bootstrap leaves a half-word of 0 buffered."""

    make = staticmethod(np.random.default_rng)

    def __init__(self, seed):
        self.generator = self.make(seed)
        self.bit_generator = self.generator.bit_generator

    def integers(self, *args, **kwargs):
        pick = self.generator.integers(*args, **kwargs)
        state = self.bit_generator.state
        state.update(has_uint32=1, uinteger=0)
        self.bit_generator.state = state
        return pick


@pytest.mark.parametrize("width,size", [(3, 1), (9, 3), (40, 6)])
def test_candidate_draws_reject_as_lemire_does(width, size, drawn_sets, monkeypatch):
    # a buffered half-word of 0 gives u * r a low half of 0, below
    # 2**32 % r for every r but a power of two, so numpy draws again:
    # the sets match only if each width's reader keeps that half-word
    monkeypatch.setattr(np.random, "default_rng", ZeroBuffered)
    for seed in range(10):
        n = 30 + seed
        x, y = np.random.Generator(np.random.PCG64(seed)).normal(size=(n, width)), np.arange(n) % 2
        drawn_sets.clear()
        RandomForest(n_trees=2, max_depth=3, seed=seed).fit(x, y)
        for t, sets in enumerate(drawn_sets):
            rng = tree_stream(seed, t, n, ZeroBuffered).generator
            assert sets and all(len(candidates) == size for candidates in sets)
            assert sets == [sorted(rng.choice(width, size, replace=False).tolist()) for _ in sets]


# ---------------------------------------------------------------------------
# the walk at its edges


def reference_walk(forest, x):
    """Each (row, tree) down the public node arrays, x <= t going left."""
    votes = np.zeros(len(x))
    for i, row in enumerate(x):
        for root in forest.roots_:
            node = root
            while forest.feature_[node] >= 0:
                left = row[forest.feature_[node]] <= forest.threshold_[node]
                node = forest.left_[node] if left else forest.right_[node]
            votes[i] += forest.label_[node]
    return votes / forest.n_trees


def tree_depths(forest):
    ends = list(forest.roots_[1:]) + [len(forest.feature_)]
    depths = []
    for root, end in zip(forest.roots_, ends):
        depth = {root: 0}
        for node in range(root, end):
            if forest.feature_[node] >= 0:
                for child in (forest.left_[node], forest.right_[node]):
                    depth[child] = depth[node] + 1
        depths.append(max(depth.values()))
    return depths


def test_a_row_at_a_split_threshold_goes_left():
    # one-stump forests: a row at the threshold scores the left leaf, a
    # row one float above it the right leaf
    rng = np.random.default_rng(41)
    x = rng.normal(size=(60, 3))
    y = (x[:, 0] > 0.1).astype(float)
    differ = 0
    for seed in range(8):
        stump = RandomForest(n_trees=1, max_depth=1, seed=seed).fit(x, y)
        feature, threshold = stump.feature_[0], stump.threshold_[0]
        assert feature >= 0
        rows = np.zeros((2, 3))
        rows[:, feature] = threshold, np.nextafter(threshold, np.inf)
        want = stump.label_[[stump.left_[0], stump.right_[0]]]
        assert stump.predict_scores(rows).tolist() == want.tolist()
        differ += want[0] != want[1]
    assert differ


@pytest.mark.parametrize(
    "a,b",
    [
        (1.0000000000000002, np.nextafter(1.0000000000000002, 10)),  # the midpoint rounds to b
        (1e308, 1.5e308),  # a + b overflows to inf
        (-1.5e308, -1e308),  # a + b overflows to -inf
    ],
    ids=["rounds_up", "overflows", "overflows_negative"],
)
def test_a_split_between_adjacent_values_cuts_at_the_lower_one(a, b):
    # a midpoint at or past b would send every row left, and the node
    # would split the same way down to max_depth
    x = np.array([[a], [b], [a], [b]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    forest = RandomForest(n_trees=1, max_depth=3, seed=0).fit(x, y)
    assert forest.feature_.tolist() == [0, -1, -1]
    assert forest.threshold_[0] == a
    assert forest.predict_scores(x).tolist() == y.tolist()


def test_a_depth_zero_forest_walks_no_level():
    x = np.random.default_rng(42).normal(size=(30, 2))
    y = (np.arange(30) % 3 == 0).astype(float)
    forest = RandomForest(n_trees=4, max_depth=0, seed=5).fit(x, y)
    assert forest._walk_widths == ()
    assert (forest.feature_ == -1).all() and forest.roots_.tolist() == [0, 1, 2, 3]
    probe = np.random.default_rng(43).normal(size=(7, 2))
    assert np.array_equal(forest.predict_scores(probe), np.full(7, forest.label_.mean()))


def test_trees_of_different_depths_share_one_walk():
    rng = np.random.default_rng(44)
    x = np.round(rng.normal(size=(50, 4)), 1)
    y = (x[:, 0] + 0.7 * rng.normal(size=50) > 0.2).astype(float)
    forest = RandomForest(n_trees=12, max_depth=12, seed=6).fit(x, y)
    depths = tree_depths(forest)
    assert len(set(depths)) > 2
    # level l walks the trees deeper than l, deepest first
    assert list(forest._walk_widths) == [sum(d > level for d in depths) for level in range(max(depths))]
    assert [depths[t] for t in np.searchsorted(forest.roots_, forest._walk_roots)] == sorted(depths)[::-1]
    probe = np.vstack([x, np.round(rng.normal(size=(40, 4)), 1)])
    assert np.array_equal(forest.predict_scores(probe), reference_walk(forest, probe))


# ---------------------------------------------------------------------------
# an estimator scores only matrices of its own width


@pytest.mark.parametrize("kind", ["logistic", "svm", "naive_bayes", "forest"])
def test_estimators_refuse_a_matrix_of_another_width(kind):
    rng = np.random.default_rng(45)
    x = rng.normal(size=(40, 4))
    y = (x[:, 0] > 0).astype(float)
    estimator = build_estimator(ClassifierSpec(kind, {"n_trees": 3} if kind == "forest" else {}))
    estimator.fit(x, y)
    assert estimator.predict_scores(rng.normal(size=(5, 4))).shape == (5,)
    for width in (6, 3):
        with pytest.raises(InputError, match=rf"{width} columns, but the model was fitted on 4"):
            estimator.predict_scores(rng.normal(size=(5, width)))


# ---------------------------------------------------------------------------
# forests grown together: every tree as grown alone, memory bounded by
# the group


def forest_arrays(forest):
    return [
        getattr(forest, name)
        for name in ("roots_", "feature_", "threshold_", "left_", "right_", "label_")
    ]


def grow_together(problems):
    """Forests for (x, y, n_trees, max_depth, seed) problems, grown in
    one grow_forests call; each is yielded exactly once."""
    forests = [RandomForest(n_trees=t, max_depth=d, seed=s) for _, _, t, d, s in problems]
    done = list(grow_forests((f, x, y) for f, (x, y, *_) in zip(forests, problems)))
    assert sorted(done) == list(range(len(problems)))
    return forests


def together_fixtures():
    rng = np.random.default_rng(77)
    one_hot = np.eye(5)[rng.integers(0, 5, size=60)]
    wide = np.column_stack([rng.normal(size=(60, 4)), one_hot])
    labels = (wide[:, 0] + rng.normal(size=60) > 0.3).astype(float)
    labels[:2] = [0.0, 1.0]
    # a sample that lacks a category has one column fewer
    narrow = np.delete(wide, 5, axis=1)
    repeated = np.repeat(np.round(rng.normal(size=(8, 3)), 1), 6, axis=0)
    yield pytest.param([
        (wide, labels, 5, 12, 1),
        (narrow, labels, 5, 12, 1),
        (wide[:40], labels[:40], 3, 12, 2),
        (narrow[10:], labels[10:], 7, 12, 1),
        (wide[::-1], labels[::-1], 4, 12, 9),
    ], id="mixed_widths")
    yield pytest.param([(wide, labels, 5, depth, 3) for depth in (0, 1, 12)], id="depths")
    yield pytest.param(
        [(repeated, np.repeat([0.0, 1.0] * 4, 6), 5, 12, seed) for seed in (0, 1, 2)],
        id="duplicate_rows",
    )
    two = np.array([[0.0, 1.0], [1.0, 1.0]])
    yield pytest.param(
        [(two, np.array([0.0, 1.0]), 5, 12, s) for s in (0, 4)] + [(wide, labels, 5, 12, 0)],
        id="n_equals_2",
    )
    # tree t of every forest with one seed and n shares its bootstrap,
    # whatever the forest's size, and its candidate sets at each width
    yield pytest.param([
        (wide, labels, 3, 12, 6),
        (narrow, labels, 8, 12, 6),
        (wide[::-1], labels[::-1], 8, 12, 6),
        (narrow[::-1], labels[::-1], 3, 2, 6),
        (wide, labels, 8, 0, 6),
    ], id="shared_draws")
    # an odd bootstrap leaves half a word buffered in the generator, and
    # each width's reader starts from it
    yield pytest.param([
        (wide[:59], labels[:59], 8, 12, 6),
        (narrow[:59], labels[:59], 8, 12, 6),
    ], id="shared_draws_odd_rows")


@pytest.mark.parametrize("group,step_rows", [(3, 16), (64, classifiers_mod._STEP_ROWS)])
@pytest.mark.parametrize("problems", list(together_fixtures()))
def test_forests_grown_together_match_each_alone(problems, group, step_rows, monkeypatch):
    alone = [RandomForest(n_trees=t, max_depth=d, seed=s).fit(x, y) for x, y, t, d, s in problems]
    # at 3 a forest's trees span groups, and a group mixes forests; at
    # 16 rows a step scores its large nodes alone and its small together
    monkeypatch.setattr(classifiers_mod, "_GROUP", group)
    monkeypatch.setattr(classifiers_mod, "_STEP_ROWS", step_rows)
    together = grow_together(problems)
    for want, got in zip(alone, together):
        for a, b in zip(forest_arrays(want), forest_arrays(got)):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()


def test_forests_of_one_seed_and_size_draw_each_bootstrap_once(monkeypatch):
    # 20 eight-tree forests with one seed on 86 rows: one generator, and
    # so one bootstrap, per tree index, not per tree
    rng = np.random.default_rng(78)
    problems = []
    for _ in range(20):
        x = np.round(rng.normal(size=(86, 9)), 1)
        y = (x[:, 0] + rng.normal(size=86) > 0.5).astype(float)
        y[:2] = [0.0, 1.0]
        problems.append((x, y, 8, 12, 4))
    alone = [RandomForest(n_trees=t, max_depth=d, seed=s).fit(x, y) for x, y, t, d, s in problems]
    made, make = [], np.random.default_rng

    def counted(seed):
        made.append(seed)
        return make(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    together = grow_together(problems)
    assert len(made) == 8
    for want, got in zip(alone, together):
        for a, b in zip(forest_arrays(want), forest_arrays(got)):
            assert a.tolist() == b.tolist()


def traced_growth(count, n=86, width=9):
    """The traced peak of growing count eight-tree forests of width
    width on n rows, net of the forests grown (traced from before the
    first allocation of the growth to after it), and the forests."""
    rng = np.random.default_rng(count)
    problems = []
    for _ in range(count):
        x = np.round(rng.normal(size=(n, width)), 1)
        y = (x[:, 0] + rng.normal(size=n) > 0.5).astype(float)
        y[:2] = [0.0, 1.0]
        problems.append((x, y, 8, 12, 1))
    tracemalloc.start()
    try:
        forests = grow_together(problems)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - after, forests


def test_growing_forests_holds_memory_by_group_not_by_forest(monkeypatch):
    n, width = 86, 9
    # one group's working set, independent of the forest count: its
    # forests' stacked rows, its trees' bootstraps, and a step's
    # (trees, candidate features, rows) arrays, at most 16 live at once
    per_split = int(np.sqrt(width))
    bound = classifiers_mod._GROUP * n * (width * 8 + 8 + per_split * 8 * 16)
    for count in (64, 256):
        net, _ = traced_growth(count, n, width)
        assert net < bound, (count, net, bound)
    # every bootstrap drawn up front, one group for all the trees,
    # breaks the bound already at 64 forests
    monkeypatch.setattr(classifiers_mod, "_GROUP", 64 * 8)
    net, _ = traced_growth(64, n, width)
    assert net > bound, (net, bound)


@pytest.mark.parametrize("cls", [LogisticRegression, LinearSVM])
def test_descent_models_reject_bad_params(cls):
    bad = [
        ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", float("nan")),
        ("learning_rate", "x"), ("l2", -1e-3), ("l2", float("inf")), ("tol", -1.0),
        ("tol", True), ("max_iter", 0), ("max_iter", 2.5), ("max_iter", True),
    ]
    for name, value in bad:
        with pytest.raises(InputError, match=name):
            cls(**{name: value})
    cls(learning_rate=1, l2=0, tol=0.0, max_iter=1)  # the edges are allowed
    model = cls()
    model.max_iter = 0
    with pytest.raises(InputError, match="max_iter"):
        model.fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))


def test_forest_rejects_bad_params():
    bad = [
        ("n_trees", 0), ("n_trees", -1), ("n_trees", 2.0), ("n_trees", True),
        ("max_depth", -1), ("max_depth", "3"), ("seed", -1),
    ]
    for name, value in bad:
        with pytest.raises(InputError, match=name):
            RandomForest(**{name: value})
    forest = RandomForest(n_trees=1, max_depth=0)
    forest.n_trees = 0
    with pytest.raises(InputError, match="n_trees"):
        forest.fit(np.zeros((2, 1)), np.array([0.0, 1.0]))
    with pytest.raises(InputError, match="no columns"):
        RandomForest().fit(np.zeros((2, 0)), np.array([0.0, 1.0]))


def test_single_label_training_error():
    train, _ = make_train_test(seed=23, quadrants=(50, 1, 20, 1))
    only_fav = train.take(np.flatnonzero(~train.unfavourable))
    with pytest.raises(TrainingError):
        fit(ClassifierSpec("logistic"), only_fav)
    with pytest.raises(TrainingError):
        LogisticRegression().fit(np.zeros((3, 2)), np.ones(3))


def test_unfitted_estimators_raise():
    with pytest.raises(NotFittedError):
        LogisticRegression().predict_scores(np.zeros((2, 2)))
    with pytest.raises(NotFittedError):
        RandomForest().predict_scores(np.zeros((2, 2)))
    with pytest.raises(NotFittedError):
        GaussianNaiveBayes().predict_scores(np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# naive Bayes specifics

def test_naive_bayes_uses_categorical_block():
    rng = np.random.default_rng(9)
    n = 400
    y = (rng.random(n) < 0.5).astype(float)
    # category 0 leans heavily to class 1, category 1 to class 0
    cat = np.where(rng.random(n) < np.where(y == 1, 0.9, 0.1), 0, 1)
    x = np.zeros((n, 3))
    x[np.arange(n), cat] = 1.0
    x[:, 2] = rng.normal(size=n)  # pure noise column
    est = GaussianNaiveBayes(categorical_blocks=((0, 2),)).fit(x, y)
    scores = est.predict_scores(x)
    acc = np.mean((scores >= 0.5) == (y == 1))
    assert acc > 0.8


def test_naive_bayes_unseen_category_block():
    rng = np.random.default_rng(10)
    n = 100
    y = (rng.random(n) < 0.5).astype(float)
    x = np.zeros((n, 3))
    x[np.arange(n), (y == 1).astype(int)] = 1.0
    x[:, 2] = rng.normal(size=n) + y
    est = GaussianNaiveBayes(categorical_blocks=((0, 2),)).fit(x, y)
    # all-zero block stands in for a category never seen at fit time
    probe = np.array([[0.0, 0.0, 0.5]])
    score = est.predict_scores(probe)[0]
    assert np.isfinite(score)
    assert 0.0 < score < 1.0


# ---------------------------------------------------------------------------
# registry and thresholding

def test_register_kind_injects_stub():
    class Stub:
        def __init__(self, value):
            self.value = value

        def fit(self, x, y):
            return self

        def predict_scores(self, x):
            return np.full(len(x), self.value)

    register_kind("stub_for_tests", lambda params, seed, blocks: Stub(**params))
    assert "stub_for_tests" in classifier_kinds()
    train, test = make_train_test(seed=30, quadrants=(30, 10, 10, 5))
    model = fit(ClassifierSpec("stub_for_tests", {"value": 0.7}), train)
    assert np.all(model.predict_scores(test) == 0.7)
    with pytest.raises(InputError):
        build_estimator(ClassifierSpec("no_such_kind"))


class FaultyScores:
    """Fits anything, then scores with one fault: a score too few, NaN
    on every other row, or 3.0 everywhere."""

    def __init__(self, fault):
        self.fault = fault

    def fit(self, x, y):
        return self

    def predict_scores(self, x):
        n = len(x)
        if self.fault == "short":
            return np.full(n - 1, 0.5)
        if self.fault == "nan":
            return np.where(np.arange(n) % 2 == 0, np.nan, 0.25)
        return np.full(n, 3.0)


# each faulty kind and the fault its TrainingError names
FAULTY_KINDS = {
    "short_scores_for_tests": "shape",
    "nan_scores_for_tests": "non-finite",
    "high_scores_for_tests": "outside [0, 1]",
}
for _kind in FAULTY_KINDS:
    register_kind(
        _kind, lambda params, seed, blocks, fault=_kind.split("_")[0]: FaultyScores(fault)
    )


@pytest.mark.parametrize("kind", sorted(FAULTY_KINDS))
def test_predict_labels_rejects_faulty_scores(kind):
    train, test = make_train_test(seed=32, quadrants=(40, 10, 15, 8))
    model = fit(ClassifierSpec(kind), train)
    with pytest.raises(TrainingError, match=rf"{kind}.*{re.escape(FAULTY_KINDS[kind])}"):
        predict_labels(model, test, 0.5)


def test_predict_labels_groups_and_threshold():
    train, test = make_train_test(seed=31, quadrants=(40, 10, 15, 8))
    model = fit(ClassifierSpec("logistic"), train)
    g = predict_labels(model, test, 0.5)
    assert np.array_equal(g.privileged, test.privileged)
    assert np.array_equal(g.actual, test.unfavourable)
    scores = model.predict_scores(test)
    assert np.array_equal(g.predicted, scores >= 0.5)
    stricter = predict_labels(model, test, 0.9)
    assert stricter.predicted.sum() <= g.predicted.sum()
    with pytest.raises(InputError):
        predict_labels(model, test, 0.0)
    with pytest.raises(InputError):
        predict_labels(model, test, 1.0)


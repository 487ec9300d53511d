"""Classifier tests: gradients vs finite differences, batch-vs-solo
equivalence, scoring contracts and the registry."""
from __future__ import annotations

import numpy as np
import pytest

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
                best = (feat, 0.5 * (xs[boundary] + xs[boundary - 1]), score)
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


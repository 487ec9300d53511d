"""Classifiers trained from scratch plus the model-facing glue.

Four built-in estimator kinds (logistic regression, linear SVM,
naive Bayes, random forest) sharing a small interface: ``fit(X, y)``
where y holds 0/1 floats with 1 meaning the unfavourable outcome, and
``predict_scores(X)`` returning P(unfavourable) in [0, 1]. New kinds
can be registered at runtime, which the tests use to inject stubs.

The two linear models (logistic and SVM) share one trainer, a batched
kernel over a stack of (N, F) problems, so a parameter sweep can fit
many candidate models in one vectorised pass; a single fit is the K=1
case of the same code path, so results never depend on which path ran.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .base import (
    InputError,
    TrainingError,
    as_float_matrix,
    as_label_vector,
    check_fitted,
    check_int,
    check_number,
)
from .dataset import Dataset, FeaturePipeline
from .metrics import GroupedPredictions


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form: stable for large |z| in both directions, no branching
    return 0.5 * (1.0 + np.tanh(0.5 * z))


SINGLE_LABEL_TEXT = "training data contains a single label value"


def _require_two_classes(y: np.ndarray) -> None:
    if not (np.any(y == 1.0) and np.any(y == 0.0)):
        raise TrainingError(SINGLE_LABEL_TEXT)


# ---------------------------------------------------------------------------
# linear models: logistic regression and linear SVM

def fit_logistic_batch(
    stacked_x: np.ndarray,
    stacked_y: np.ndarray,
    learning_rate: float,
    l2: float,
    max_iter: int,
    tol: float,
    hinge: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-batch gradient descent over K independent L2-regularised
    linear problems: logistic loss, or with hinge the hinge loss by
    subgradient descent.

    stacked_x is (K, N, F), stacked_y is (K, N). Returns weights (K, F),
    intercepts (K,) and iteration counts (K,). Each problem stops on its
    own once the largest parameter update falls below tol; finished
    problems are frozen while the rest keep iterating, so the numbers an
    instance sees are identical whether it runs alone or in a batch.

    The descent runs on a feature-major copy of the stack, (K, F+1, N),
    whose row F is all ones: coefficient F is the intercept, and each
    step is two batched matrix-vector products, (K, 1, F+1) @ (K, F+1, N)
    for the decision values and (K, F+1, N) @ (K, N, 1) for the
    gradient. That is the fast shape for BLAS at a few features and a
    few hundred rows; only the association of the float sums inside the
    two products differs from the textbook (K, N, F) formula.
    """
    if stacked_x.ndim != 3 or stacked_y.shape != stacked_x.shape[:2]:
        raise InputError("stacked_x must be (K, N, F) with matching stacked_y")
    k, n, f = stacked_x.shape
    coefs = np.zeros((k, f + 1))
    iterations = np.zeros(k, dtype=int)
    # compact working set: converged problems leave it so the rest
    # keep iterating without per-step masking costs; the hinge loss
    # works on the labels as signs, 2y - 1
    work_x = np.empty((k, f + 1, n))
    work_x[:, :f] = stacked_x.transpose(0, 2, 1)
    work_x[:, f] = 1.0
    work_y = (2.0 * stacked_y - 1.0 if hinge else stacked_y)[:, None, :]
    c = np.zeros((k, f + 1))
    decay = np.full(f + 1, l2)
    decay[f] = 0.0  # the intercept is not regularised
    idx = np.arange(k)
    # the decision values and the residual share one buffer, computed in
    # place; halving is exact, so the logistic's 0.5 * z is taken on the
    # coefficients before the product
    buffer = np.empty((k, 1, n))
    performed = 0
    for it in range(max_iter):
        if idx.size == 0:
            break
        residual = buffer[: idx.size]
        if hinge:
            np.matmul(c[:, None, :], work_x, out=residual)
            residual *= work_y
            # the subgradient where(margin < 1, -sign, 0.0) in place: the
            # 1.0/0.0 test times the sign, subtracted from 0.0 so that no
            # zero is -0.0 (a masked negative(where=) is 8x slower)
            np.less(residual, 1.0, out=residual)
            residual *= work_y
            np.subtract(0.0, residual, out=residual)
        else:
            np.matmul(0.5 * c[:, None, :], work_x, out=residual)
            np.tanh(residual, out=residual)
            residual += 1.0
            residual *= 0.5
            residual -= work_y
        grad = np.matmul(work_x, residual.transpose(0, 2, 1))[:, :, 0]
        grad /= n
        grad += decay * c
        step = np.multiply(learning_rate, grad, out=grad)
        c -= step
        performed = it + 1
        # a problem whose intercept step is at or above tol cannot stop
        if (np.abs(step[:, f]) < tol).any():
            done = np.abs(step).max(axis=1) < tol
            if done.any():
                settled = idx[done]
                coefs[settled] = c[done]
                iterations[settled] = performed
                keep = ~done
                work_x, work_y = work_x[keep], work_y[keep]
                c, idx = c[keep], idx[keep]
    coefs[idx] = c
    iterations[idx] = performed
    return coefs[:, :f], coefs[:, f], iterations


class _GradientDescent:
    """A linear model fitted by fit_logistic_batch as its K=1 case.

    Scores are the decision value through a logistic, so they live on
    the [0, 1] scale the thresholding code expects. The class attribute
    hinge picks the loss; it is the model's kind, not a parameter.
    """

    hinge = False

    def __init__(
        self,
        learning_rate: float = 0.1,
        l2: float = 1e-4,
        max_iter: int = 200,
        tol: float = 1e-6,
    ):
        self.learning_rate = learning_rate
        self.l2 = l2
        self.max_iter = max_iter
        self.tol = tol
        self._check_params()

    def _check_params(self) -> None:
        check_number(self.learning_rate, "learning_rate", 0.0, ends="()")
        check_number(self.l2, "l2", 0.0, ends="[)")
        check_number(self.tol, "tol", 0.0, ends="[)")
        check_int(self.max_iter, "max_iter", 1)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "_GradientDescent":
        self._check_params()
        x = as_float_matrix(x)
        y = as_label_vector(y, len(x))
        _require_two_classes(y)
        w, b, its = fit_logistic_batch(
            x[None], y[None], self.learning_rate, self.l2, self.max_iter, self.tol, self.hinge
        )
        self.coef_ = w[0]
        self.intercept_ = float(b[0])
        self.n_iter_ = int(its[0])
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "coef_")
        return as_float_matrix(x) @ self.coef_ + self.intercept_

    def predict_scores(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(x))


class LogisticRegression(_GradientDescent):
    """L2-regularised logistic regression, plain gradient descent."""


class LinearSVM(_GradientDescent):
    """Linear SVM via subgradient descent on the hinge objective."""

    hinge = True


# ---------------------------------------------------------------------------
# naive Bayes

class GaussianNaiveBayes:
    """Naive Bayes over mixed features.

    Columns inside a declared one-hot block are treated as one
    categorical variable with add-one smoothing; an all-zero block (a
    category unseen by the feature pipeline) is its own outcome and is
    smoothed like any other. Remaining columns get a Gaussian class
    model with a small variance floor.
    """

    def __init__(
        self,
        var_smoothing: float = 1e-9,
        categorical_blocks: tuple[tuple[int, int], ...] = (),
    ):
        self.var_smoothing = var_smoothing
        self.categorical_blocks = tuple(tuple(b) for b in categorical_blocks)
        self._check_params()

    def _check_params(self) -> None:
        # numeric columns arrive at unit variance; a floor above 1 swamps
        # them, and a zero floor leaves a class-constant column variance 0
        check_number(self.var_smoothing, "var_smoothing", 0.0, 1.0, "(]")

    def _block_outcomes(self, x: np.ndarray, start: int, stop: int) -> np.ndarray:
        block = x[:, start:stop]
        hit = block.sum(axis=1) > 0
        # outcome index within the block, last slot reserved for all-zero
        out = np.full(len(x), stop - start, dtype=int)
        out[hit] = block[hit].argmax(axis=1)
        return out

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianNaiveBayes":
        self._check_params()
        x = as_float_matrix(x)
        y = as_label_vector(y, len(x))
        _require_two_classes(y)
        covered = set()
        for start, stop in self.categorical_blocks:
            covered.update(range(start, stop))
        self.gaussian_cols_ = tuple(
            c for c in range(x.shape[1]) if c not in covered
        )
        self.log_priors_ = np.empty(2)
        self.means_ = np.empty((2, len(self.gaussian_cols_)))
        self.vars_ = np.empty((2, len(self.gaussian_cols_)))
        self.block_log_probs_ = []
        for c in (0, 1):
            rows = x[y == c]
            self.log_priors_[c] = np.log(len(rows) / len(x))
            if self.gaussian_cols_:
                sub = rows[:, self.gaussian_cols_]
                self.means_[c] = sub.mean(axis=0)
                self.vars_[c] = sub.var(axis=0) + self.var_smoothing
        for start, stop in self.categorical_blocks:
            width = stop - start + 1
            table = np.empty((2, width))
            for c in (0, 1):
                outcomes = self._block_outcomes(x[y == c], start, stop)
                counts = np.bincount(outcomes, minlength=width).astype(float)
                table[c] = np.log((counts + 1.0) / (counts.sum() + width))
            self.block_log_probs_.append(table)
        return self

    def _joint_log_likelihood(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "log_priors_")
        x = as_float_matrix(x)
        jll = np.tile(self.log_priors_, (len(x), 1))
        if self.gaussian_cols_:
            sub = x[:, self.gaussian_cols_]
            for c in (0, 1):
                jll[:, c] += np.sum(
                    -0.5 * np.log(2.0 * np.pi * self.vars_[c])
                    - 0.5 * (sub - self.means_[c]) ** 2 / self.vars_[c],
                    axis=1,
                )
        for (start, stop), table in zip(
            self.categorical_blocks, self.block_log_probs_
        ):
            outcomes = self._block_outcomes(x, start, stop)
            for c in (0, 1):
                jll[:, c] += table[c][outcomes]
        return jll

    def predict_scores(self, x: np.ndarray) -> np.ndarray:
        jll = self._joint_log_likelihood(x)
        shifted = jll - jll.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        return probs[:, 1] / probs.sum(axis=1)


# ---------------------------------------------------------------------------
# random forest

def _best_split(x, y, features):
    """(feature, cut) of the first lowest weighted Gini split, or None.

    Cumulative label counts over each sorted column score every boundary
    at once (CART; Louppe, arXiv:1407.7502, ch. 5) as len/n * 2p(1 - p),
    left plus right, with p = ones/len; equal neighbours never split."""
    n = len(y)
    columns = x[:, features].T
    xs = np.sort(columns, axis=1, kind="stable")
    ones = y[columns.argsort(axis=1, kind="stable")].cumsum(axis=1)
    left_n = np.arange(1, n)
    right_n = n - left_n
    p_left = ones[:, :-1] / left_n
    p_right = (ones[:, -1:] - ones[:, :-1]) / right_n
    score = left_n / n * 2.0 * p_left * (1.0 - p_left)
    score += right_n / n * 2.0 * p_right * (1.0 - p_right)
    score[xs[:, 1:] == xs[:, :-1]] = np.inf
    feat, boundary = divmod(int(score.argmin()), n - 1)
    if score[feat, boundary] == np.inf:
        return None
    return int(features[feat]), 0.5 * (xs[feat, boundary + 1] + xs[feat, boundary])


def _grow_tree(x, y, rng, max_depth, features_per_split, nodes, depth=0) -> int:
    """Grow depth-first, left before right, appending each node to nodes
    as [feature, threshold, left, right, label]; returns its index. A
    leaf has feature -1 and points to itself, so a row that reaches it
    stays there."""
    index, ones = len(nodes), y.sum()
    nodes.append([-1, 0.0, index, index, 1.0 if ones * 2 > len(y) else 0.0])
    if depth < max_depth and 0 < ones < len(y):
        candidates = rng.choice(x.shape[1], size=features_per_split, replace=False)
        split = _best_split(x, y, np.sort(candidates))
        if split is not None:
            feat, cut = split
            mask = x[:, feat] <= cut
            left, right = (
                _grow_tree(x[m], y[m], rng, max_depth, features_per_split, nodes, depth + 1)
                for m in (mask, ~mask)
            )
            nodes[index] = [feat, cut, left, right, 0.0]
    return index


class RandomForest:
    """Bagged decision trees; the score is the fraction of trees voting
    for the unfavourable class, so it is always a multiple of 1/n_trees.
    Fitted trees are flat: node arrays feature_, threshold_, left_,
    right_ and label_ hold every tree in turn; roots_ indexes each."""

    def __init__(self, n_trees: int = 100, max_depth: int = 12, seed: int = 0):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed
        self._check_params()

    def _check_params(self) -> None:
        check_int(self.n_trees, "n_trees", 1)
        check_int(self.max_depth, "max_depth")
        check_int(self.seed, "seed")

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForest":
        self._check_params()
        x = as_float_matrix(x)
        y = as_label_vector(y, len(x))
        _require_two_classes(y)
        n, f = x.shape
        per_split = max(1, int(np.sqrt(f)))
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        nodes: list[list] = []
        roots = []
        for s in seeds:
            rng = np.random.default_rng(s)
            pick = rng.integers(0, n, size=n)
            roots.append(_grow_tree(x[pick], y[pick], rng, self.max_depth, per_split, nodes))
        table = np.array(nodes)
        self.roots_ = np.array(roots)
        self.feature_, self.left_, self.right_ = table[:, [0, 2, 3]].T.astype(int)
        self.threshold_, self.label_ = table[:, 1], table[:, 4]
        return self

    def predict_scores(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "roots_")
        x = as_float_matrix(x)
        # walk every (row, tree) cell down one level at a time to its leaf
        flat, row_start = x.ravel(), np.arange(len(x))[:, None] * x.shape[1]
        node = np.broadcast_to(self.roots_, (len(x), len(self.roots_)))
        feature = self.feature_[node]
        while (feature >= 0).any():
            go_left = flat[row_start + feature] <= self.threshold_[node]
            node = np.where(go_left, self.left_[node], self.right_[node])
            feature = self.feature_[node]
        return self.label_[node].sum(axis=1) / self.n_trees


# ---------------------------------------------------------------------------
# registry and the dataset-level model wrapper

@dataclass(frozen=True)
class ClassifierSpec:
    """What to train: estimator kind, its parameters, and a seed."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params), "seed": self.seed}


ClassifierFactory = Callable[[dict, int, tuple[tuple[int, int], ...]], Any]

_REGISTRY: dict[str, ClassifierFactory] = {}


def register_kind(name: str, factory: ClassifierFactory) -> None:
    """Expose a new estimator kind. The factory receives
    (params, seed, categorical_blocks) and returns a fit-able object."""
    _REGISTRY[name] = factory


def classifier_kinds() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


register_kind("logistic", lambda params, seed, blocks: LogisticRegression(**params))
register_kind("svm", lambda params, seed, blocks: LinearSVM(**params))
register_kind(
    "naive_bayes",
    lambda params, seed, blocks: GaussianNaiveBayes(
        categorical_blocks=blocks, **params
    ),
)
register_kind("forest", lambda params, seed, blocks: RandomForest(seed=seed, **params))


def build_estimator(
    spec: ClassifierSpec, categorical_blocks: tuple[tuple[int, int], ...] = ()
) -> Any:
    if spec.kind not in _REGISTRY:
        raise InputError(
            f"unknown classifier kind {spec.kind!r}; have {classifier_kinds()}"
        )
    return _REGISTRY[spec.kind](dict(spec.params), spec.seed, categorical_blocks)


@dataclass
class TrainedModel:
    """A fitted estimator plus the pipeline that feeds it."""

    spec: ClassifierSpec
    pipeline: FeaturePipeline
    estimator: Any

    def predict_scores(self, d: Dataset) -> np.ndarray:
        return self.estimator.predict_scores(self.pipeline.transform(d))


def fit(spec: ClassifierSpec, train: Dataset) -> TrainedModel:
    pipeline = FeaturePipeline().fit(train)
    x = pipeline.transform(train)
    y = train.unfavourable.astype(float)
    _require_two_classes(y)
    estimator = build_estimator(spec, pipeline.categorical_blocks())
    estimator.fit(x, y)
    return TrainedModel(spec=spec, pipeline=pipeline, estimator=estimator)


def predict_labels(model, d: Dataset, threshold: float) -> GroupedPredictions:
    """Threshold a model's scores into grouped 0/1 predictions.

    A row is called unfavourable when its score reaches the threshold.
    Works for any object with predict_scores(dataset).
    """
    check_number(threshold, "threshold", 0.0, 1.0, "()")
    scores = np.asarray(model.predict_scores(d), dtype=float)
    if scores.shape != (len(d),):
        raise InputError("scores length does not match the dataset")
    return GroupedPredictions(
        privileged=d.privileged,
        actual=d.unfavourable,
        predicted=scores >= threshold,
    )

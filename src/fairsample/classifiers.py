"""Classifiers trained from scratch plus the model-facing glue.

Four built-in estimator kinds (logistic regression, linear SVM,
naive Bayes, random forest) sharing a small interface: ``fit(X, y)``
where y holds 0/1 floats with 1 meaning the unfavourable outcome, and
``predict_scores(X)`` returning P(unfavourable) in [0, 1]. New kinds
can be registered at runtime, which the tests use to inject stubs.

The logistic trainer is written as a batched kernel over a stack of
(N, F) problems so a parameter sweep can fit many candidate models in
one vectorised pass; a single fit is the K=1 case of the same code
path, so results never depend on which path ran.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .base import (
    InputError,
    NotFittedError,
    ParamsMixin,
    TrainingError,
    as_float_matrix,
    as_label_vector,
    check_fitted,
)
from .dataset import Dataset, FeaturePipeline
from .metrics import GroupedPredictions


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh form: stable for large |z| in both directions, no branching
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _require_two_classes(y: np.ndarray) -> None:
    if not (np.any(y == 1.0) and np.any(y == 0.0)):
        raise TrainingError("training data contains a single label value")


# ---------------------------------------------------------------------------
# logistic regression

def fit_logistic_batch(
    stacked_x: np.ndarray,
    stacked_y: np.ndarray,
    learning_rate: float,
    l2: float,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-batch gradient descent over K independent logistic problems.

    stacked_x is (K, N, F), stacked_y is (K, N). Returns weights (K, F),
    intercepts (K,) and iteration counts (K,). Each problem stops on its
    own once the largest parameter update falls below tol; finished
    problems are frozen while the rest keep iterating, so the numbers an
    instance sees are identical whether it runs alone or in a batch.
    """
    if stacked_x.ndim != 3 or stacked_y.shape != stacked_x.shape[:2]:
        raise InputError("stacked_x must be (K, N, F) with matching stacked_y")
    k, n, f = stacked_x.shape
    weights = np.zeros((k, f))
    intercepts = np.zeros(k)
    iterations = np.zeros(k, dtype=int)
    # compact working set: converged problems leave it so the rest
    # keep iterating without per-step masking costs
    work_x, work_y = stacked_x, stacked_y
    w = np.zeros((k, f))
    b = np.zeros(k)
    idx = np.arange(k)
    performed = 0
    for it in range(max_iter):
        if idx.size == 0:
            break
        z = (work_x @ w[:, :, None])[:, :, 0] + b[:, None]
        residual = _sigmoid(z) - work_y
        grad_w = (residual[:, None, :] @ work_x)[:, 0, :] / n + l2 * w
        grad_b = residual.mean(axis=1)
        step_w = learning_rate * grad_w
        step_b = learning_rate * grad_b
        w -= step_w
        b -= step_b
        performed = it + 1
        done = np.maximum(np.abs(step_w).max(axis=1), np.abs(step_b)) < tol
        if done.any():
            settled = idx[done]
            weights[settled] = w[done]
            intercepts[settled] = b[done]
            iterations[settled] = performed
            keep = ~done
            work_x, work_y = work_x[keep], work_y[keep]
            w, b, idx = w[keep], b[keep], idx[keep]
    weights[idx] = w
    intercepts[idx] = b
    iterations[idx] = performed
    return weights, intercepts, iterations


def logistic_loss(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, l2: float
) -> float:
    z = x @ w + b
    return float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * np.dot(w, w))


def logistic_grad(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    residual = _sigmoid(x @ w + b) - y
    grad_w = x.T @ residual / len(y) + l2 * w
    return grad_w, float(residual.mean())


class LogisticRegression(ParamsMixin):
    """L2-regularised logistic regression, plain gradient descent."""

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

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LogisticRegression":
        x = as_float_matrix(x)
        y = as_label_vector(y, len(x))
        _require_two_classes(y)
        w, b, its = fit_logistic_batch(
            x[None], y[None], self.learning_rate, self.l2, self.max_iter, self.tol
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


# ---------------------------------------------------------------------------
# linear SVM

def hinge_loss(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, l2: float
) -> float:
    signed = 2.0 * y - 1.0
    margin = signed * (x @ w + b)
    return float(np.mean(np.maximum(0.0, 1.0 - margin)) + 0.5 * l2 * np.dot(w, w))


def hinge_grad(
    w: np.ndarray, b: float, x: np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    signed = 2.0 * y - 1.0
    margin = signed * (x @ w + b)
    viol = margin < 1.0
    grad_w = -(x[viol].T @ signed[viol]) / len(y) + l2 * w
    grad_b = -signed[viol].sum() / len(y)
    return grad_w, float(grad_b)


class LinearSVM(ParamsMixin):
    """Linear SVM via subgradient descent on the hinge objective.

    Scores are the decision margin squashed through a logistic so they
    live on the same [0, 1] scale the thresholding code expects.
    """

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

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearSVM":
        x = as_float_matrix(x)
        y = as_label_vector(y, len(x))
        _require_two_classes(y)
        w = np.zeros(x.shape[1])
        b = 0.0
        self.n_iter_ = 0
        for it in range(self.max_iter):
            grad_w, grad_b = hinge_grad(w, b, x, y, self.l2)
            step_w = self.learning_rate * grad_w
            step_b = self.learning_rate * grad_b
            w -= step_w
            b -= step_b
            self.n_iter_ = it + 1
            if max(np.abs(step_w).max(), abs(step_b)) < self.tol:
                break
        self.coef_ = w
        self.intercept_ = b
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "coef_")
        return as_float_matrix(x) @ self.coef_ + self.intercept_

    def predict_scores(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(x))


# ---------------------------------------------------------------------------
# naive Bayes

class GaussianNaiveBayes(ParamsMixin):
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

    def _block_outcomes(self, x: np.ndarray, start: int, stop: int) -> np.ndarray:
        block = x[:, start:stop]
        hit = block.sum(axis=1) > 0
        # outcome index within the block, last slot reserved for all-zero
        out = np.full(len(x), stop - start, dtype=int)
        out[hit] = block[hit].argmax(axis=1)
        return out

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianNaiveBayes":
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

@dataclass
class _TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None
    label: float = 0.0


def _gini_split_score(
    sorted_y: np.ndarray, boundary: int
) -> float:
    # weighted Gini impurity after splitting at position boundary
    n = len(sorted_y)
    left = sorted_y[:boundary]
    right = sorted_y[boundary:]
    score = 0.0
    for part in (left, right):
        p = part.mean()
        score += len(part) / n * 2.0 * p * (1.0 - p)
    return score


def _grow_tree(
    x: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    max_depth: int,
    features_per_split: int,
    depth: int = 0,
) -> _TreeNode:
    majority = 1.0 if y.sum() * 2 > len(y) else 0.0
    if depth >= max_depth or len(y) < 2 or y.min() == y.max():
        return _TreeNode(label=majority)
    candidates = rng.choice(x.shape[1], size=features_per_split, replace=False)
    best = (None, None, np.inf)
    for feat in sorted(candidates.tolist()):
        order = np.argsort(x[:, feat], kind="stable")
        xs = x[order, feat]
        ys = y[order]
        for boundary in range(1, len(ys)):
            if xs[boundary] == xs[boundary - 1]:
                continue
            score = _gini_split_score(ys, boundary)
            if score < best[2]:
                cut = 0.5 * (xs[boundary] + xs[boundary - 1])
                best = (feat, cut, score)
    if best[0] is None:
        return _TreeNode(label=majority)
    feat, cut, _ = best
    mask = x[:, feat] <= cut
    node = _TreeNode(feature=feat, threshold=cut)
    node.left = _grow_tree(x[mask], y[mask], rng, max_depth, features_per_split, depth + 1)
    node.right = _grow_tree(x[~mask], y[~mask], rng, max_depth, features_per_split, depth + 1)
    return node


def _tree_predict(node: _TreeNode, x: np.ndarray) -> np.ndarray:
    out = np.empty(len(x))
    for i, row in enumerate(x):
        cur = node
        while cur.feature >= 0:
            cur = cur.left if row[cur.feature] <= cur.threshold else cur.right
        out[i] = cur.label
    return out


class RandomForest(ParamsMixin):
    """Bagged decision trees; the score is the fraction of trees voting
    for the unfavourable class, so it is always a multiple of 1/n_trees."""

    def __init__(
        self,
        n_trees: int = 100,
        max_depth: int = 12,
        seed: int = 0,
    ):
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.seed = seed

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForest":
        x = as_float_matrix(x)
        y = as_label_vector(y, len(x))
        _require_two_classes(y)
        n, f = x.shape
        per_split = max(1, int(np.sqrt(f)))
        seeds = np.random.SeedSequence(self.seed).spawn(self.n_trees)
        self.trees_ = []
        for s in seeds:
            rng = np.random.default_rng(s)
            pick = rng.integers(0, n, size=n)
            self.trees_.append(
                _grow_tree(x[pick], y[pick], rng, self.max_depth, per_split)
            )
        return self

    def predict_scores(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "trees_")
        x = as_float_matrix(x)
        votes = np.zeros(len(x))
        for tree in self.trees_:
            votes += _tree_predict(tree, x)
        return votes / self.n_trees


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

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "ClassifierSpec":
        return ClassifierSpec(
            kind=str(data["kind"]),
            params=dict(data.get("params", {})),
            seed=int(data.get("seed", 0)),
        )


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
        # estimators keyed by row identity (external score files)
        # bypass the feature pipeline entirely
        hook = getattr(self.estimator, "score_rows", None)
        if hook is not None:
            return np.asarray(hook(d.row_ids), dtype=float)
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
    if not 0.0 < threshold < 1.0:
        raise InputError(f"threshold must lie inside (0, 1), got {threshold}")
    scores = np.asarray(model.predict_scores(d), dtype=float)
    if scores.shape != (len(d),):
        raise InputError("scores length does not match the dataset")
    return GroupedPredictions(
        privileged=d.privileged,
        actual=d.unfavourable,
        predicted=scores >= threshold,
    )


# ---------------------------------------------------------------------------
# externally scored rows

class ExternalScoreModel:
    """Scores read from a file instead of a trained estimator.

    The file maps row ids to scores in [0, 1]; asking for a row id the
    file does not cover is an error rather than a silent default.
    """

    def __init__(self, scores: dict[int, float]):
        for rid, s in scores.items():
            if not 0.0 <= s <= 1.0:
                raise InputError(f"score for row {rid} outside [0, 1]: {s}")
        self._scores = dict(scores)

    def __len__(self) -> int:
        return len(self._scores)

    def score_rows(self, row_ids: np.ndarray) -> np.ndarray:
        out = np.empty(len(row_ids))
        for i, rid in enumerate(row_ids):
            try:
                out[i] = self._scores[int(rid)]
            except KeyError:
                raise InputError(f"no external score for row id {int(rid)}") from None
        return out

    def predict_scores(self, d: Dataset) -> np.ndarray:
        return self.score_rows(d.row_ids)


def load_external_scores(path: str) -> ExternalScoreModel:
    scores: dict[int, float] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["row_id", "score"]:
            raise InputError("score file must start with a row_id,score header")
        for line, row in enumerate(reader):
            try:
                rid = int(row[0])
                value = float(row[1])
            except (IndexError, ValueError) as exc:
                raise InputError(f"bad score row {line}: {row!r}") from exc
            if rid in scores:
                raise InputError(f"duplicate row id {rid} in score file")
            scores[rid] = value
    return ExternalScoreModel(scores)

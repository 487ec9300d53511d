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
The forest grower works the same way: it grows the trees of one forest
or of many together (grow_forests), and each forest is the one it
would be alone.
"""
from __future__ import annotations

import array
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .base import (
    InputError,
    TrainingError,
    as_fitted_matrix,
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
        self.n_columns_ = x.shape[1]
        return self

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "coef_")
        return as_fitted_matrix(x, self.n_columns_) @ self.coef_ + self.intercept_

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
        self.n_columns_ = x.shape[1]
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
        x = as_fitted_matrix(x, self.n_columns_)
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

# trees grown at a time: a group's bootstraps, stacked rows and node
# tables scale with it, never with the number of forests grown in a call
_GROUP = 64
# padded rows one split call scores, unless a single node has more: a
# step's nodes go largest first in calls of at most this many, so the
# call's arrays and its padding stay bounded when node sizes differ
_STEP_ROWS = 1 << 14


class _Tree:
    """A tree in growth: its depth limit, the deepest depth it has
    reached, its nodes so far as a flat float array of [feature,
    threshold, left, right, label] rows, and a stack of nodes still to
    grow, each (start, stop, ones, depth, parent, side): the node's rows
    are order[start:stop] of its group, ones of them labelled 1, and its
    index goes to column side (2 left, 3 right) of its parent's row.
    draws is the (generator, sets) pair its tree index shares at its
    width (grow_forests): its splitting nodes take sets in turn, used
    counts those taken, and a node past the end of sets draws the next
    set from the generator."""

    __slots__ = ("max_depth", "depth", "nodes", "stack", "draws", "used")

    def __init__(self, max_depth, root, draws):
        self.max_depth, self.stack, self.draws = max_depth, [root], draws
        self.depth = self.used = 0
        self.nodes = array.array("d")


def _grow_group(x, y, order, trees, per_split) -> None:
    """Grow trees in lockstep on x, the rows of their forests stacked
    and closed by a sentinel row of +inf features whose label (the last
    of y) is 0; order holds every tree's bootstrap as row indices of x.

    Each step advances every tree depth-first, left before right, past
    its leaves to its next node that may split, so each tree numbers its
    nodes and takes its candidate features (its draws' next set,
    sorted(generator.choice(width, per_split, replace=False)), drawn when
    no tree has yet) exactly as when grown alone, and scores those
    nodes together, largest first, in calls of at most _STEP_ROWS padded
    rows. In a call, the nodes' candidate columns, padded with the
    sentinel to the largest node, are sorted together, and cumulative
    label counts score every boundary (CART; Louppe, arXiv:1407.7502,
    ch. 5) as len/n * 2p(1 - p), left plus right, with p = ones/len.
    Equal neighbours never split, nor boundaries at or past a node's
    size; the first lowest score, feature before boundary, wins. The cut
    is the midpoint of the boundary's two values, or the lower value
    where the midpoint rounds up to the upper one or overflows, so the
    lower value goes left and the upper right (as scikit-learn's
    splitter does). A split rewrites the node's slice of order in its
    sorted order, so the rows at or below the cut are the left child's
    slice and the rest the right's. A leaf has feature -1 and points to
    itself, so a row that reaches it stays there.
    """
    width = x.shape[1]
    live = list(trees)
    while live:
        batch = []
        for tree in live:
            nodes, stack = tree.nodes, tree.stack
            while stack:
                start, stop, ones, depth, parent, side = stack.pop()
                index = len(nodes) // 5
                if parent >= 0:
                    nodes[5 * parent + side] = index
                    if depth > tree.depth:
                        tree.depth = depth
                nodes.extend((-1, 0.0, index, index, 1.0 if ones * 2 > stop - start else 0.0))
                if depth < tree.max_depth and 0 < ones < stop - start:
                    rng, sets = tree.draws
                    if tree.used == len(sets):
                        sets.append(sorted(rng.choice(width, per_split, replace=False).tolist()))
                    batch.append((tree, index, start, stop, ones, depth, sets[tree.used]))
                    tree.used += 1
                    break
        batch.sort(key=lambda node: node[2] - node[3])  # largest first
        while batch:
            take = max(1, _STEP_ROWS // (batch[0][3] - batch[0][2]))
            _split_nodes(x, y, order, batch[:take])
            del batch[:take]
        live = [tree for tree in live if tree.stack]


def _split_nodes(x, y, order, batch) -> None:
    """Score and split nodes of a step, each (tree, index, start, stop,
    ones, depth, candidate features), as _grow_group describes.

    The sort need not be stable: inputs are finite, so the sentinels
    sort last, and ties are never split, so neither a boundary's counts
    nor a child's rows depend on the order of equal values."""
    features = np.array([node[6] for node in batch])
    m, k = features.shape
    starts = np.array([node[2] for node in batch])
    sizes = np.array([node[3] for node in batch]) - starts
    span = np.arange(sizes.max())
    inside = span < sizes[:, None]
    rows = np.where(inside, order.take(starts[:, None] + span, mode="clip"), len(x) - 1)
    columns = x.ravel().take(rows[:, None, :] * x.shape[1] + features[:, :, None])
    rank = columns.argsort(axis=2)
    xs = columns.ravel().take(rank + (np.arange(m * k) * len(span)).reshape(m, k, 1))
    ranked = rows.ravel().take(rank + (np.arange(m) * len(span)).reshape(m, 1, 1))
    ones = y.take(ranked).cumsum(axis=2)
    n = sizes[:, None, None]
    left_n = span[1:]
    right_n = np.maximum(n - left_n, 1)  # 1 past a node's size, masked below
    p_left = ones[:, :, :-1] / left_n
    p_right = ones[:, :, -1:] - ones[:, :, :-1]
    p_right /= right_n
    # len/n * 2p(1 - p) for each side, multiplied in that order
    score = left_n / n * 2.0 * p_left
    score *= np.subtract(1.0, p_left, out=p_left)
    right = right_n / n * 2.0 * p_right
    right *= np.subtract(1.0, p_right, out=p_right)
    score += right
    score[(xs[:, :, 1:] == xs[:, :, :-1]) | (left_n >= n)] = np.inf
    score = score.reshape(m, -1)
    best = score.argmin(axis=1)
    split = np.flatnonzero(score[np.arange(m), best] < np.inf)
    if not split.size:
        return
    feat, boundary = np.divmod(best[split], len(span) - 1)
    line = xs[split, feat]
    at = np.arange(len(split))
    lo, hi = line[at, boundary], line[at, boundary + 1]
    with np.errstate(over="ignore"):
        cut = 0.5 * (hi + lo)
    cut = np.where((lo <= cut) & (cut < hi), cut, lo)
    # the rows at or below the cut, a prefix of the sorted line
    left_size = np.minimum((line <= cut[:, None]).sum(axis=1), sizes[split])
    left_ones = ones[split, feat, left_size - 1].astype(int)
    keep = inside[split]
    order[(starts[split, None] + span)[keep]] = ranked[split, feat][keep]
    chosen = features[split, feat]
    for j, f, c, size, left in zip(
        split.tolist(), chosen.tolist(), cut.tolist(), left_size.tolist(), left_ones.tolist()
    ):
        tree, index, start, stop, ones_total, depth, _ = batch[j]
        nodes = tree.nodes
        nodes[5 * index], nodes[5 * index + 1], nodes[5 * index + 4] = f, c, 0.0
        tree.stack.append((start + size, stop, ones_total - left, depth + 1, index, 3))
        tree.stack.append((start, start + size, left, depth + 1, index, 2))


def grow_forests(jobs: Iterable[tuple["RandomForest", np.ndarray, np.ndarray]]) -> Iterator[int]:
    """Fit each job's forest on its (x, y), as forest.fit(x, y) would,
    growing the trees of many forests together (_grow_group); yields a
    job's position among the jobs once its forest is fitted.

    Trees grow in groups of at most _GROUP that share one width, so a
    forest whose trees span groups is fitted when the last of them ends.
    Tree t of a forest grows from the generator SeedSequence(seed)
    .spawn(n_trees)[t] (Breiman, Mach. Learn. 2001), which draws the
    tree's bootstrap and then serves only its candidate draws, so tree t
    of every forest with the same seed and row count draws the same
    bootstrap and the same candidates: each (seed, t, n) draws its
    bootstrap once a call and keeps the generator's state after it, and
    each (seed, t, n, width) reads its candidate sets, once, from its own
    generator set to that state. So the trees are those grown one at a
    time, each set being Generator.choice on the tree's own generator.
    Each tree records the depth it reached, for the fitted forest's walk.
    Jobs are read as the groups fill: the inputs held are those of the
    trees not yet grown, at most _GROUP - 1 trees' worth a width,
    besides the growing group's; the shared draws grow with the distinct
    keys, not with the forests.
    """
    forests, inputs, trees = [], [], []
    queues: dict[int, list[tuple[int, int]]] = {}
    bootstraps: dict[tuple[int, int, int], tuple[np.ndarray, dict]] = {}
    draws: dict[tuple[int, int, int, int], tuple[np.random.Generator, list[list[int]]]] = {}

    def grow(queue):
        group, queue[:] = queue[:_GROUP], queue[_GROUP:]
        members = list(dict.fromkeys(position for position, _ in group))
        width = inputs[members[0]][0].shape[1]
        offsets = dict(zip(members, np.cumsum([0] + [len(inputs[p][1]) for p in members])))
        x = np.concatenate([inputs[p][0] for p in members] + [np.full((1, width), np.inf)])
        y = np.concatenate([inputs[p][1] for p in members] + [np.zeros(1)])
        picks, reads = [], []
        for position, t in group:
            seed, n = forests[position].seed, len(inputs[position][1])
            if (seed, t, n) not in bootstraps:
                rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
                bootstraps[seed, t, n] = rng.integers(0, n, size=n), rng.bit_generator.state
            pick, state = bootstraps[seed, t, n]
            if (seed, t, n, width) not in draws:
                reader = np.random.Generator(np.random.PCG64())  # its seed is overwritten
                reader.bit_generator.state = state
                draws[seed, t, n, width] = reader, []
            picks.append(pick + offsets[position])
            reads.append(draws[seed, t, n, width])
        order = np.concatenate(picks)
        starts = np.cumsum([0] + [len(pick) for pick in picks]).tolist()
        ones = np.add.reduceat(y.take(order), starts[:-1]).astype(int).tolist()
        grown = []
        for (position, t), read, start, stop, count in zip(group, reads, starts, starts[1:], ones):
            trees[position][t] = _Tree(forests[position].max_depth, (start, stop, count, 0, -1, 0), read)
            grown.append(trees[position][t])
        _grow_group(x, y, order, grown, max(1, int(np.sqrt(width))))
        for position in members:
            if None not in trees[position]:
                forests[position]._set_nodes(trees[position], width)
                inputs[position] = trees[position] = None
                yield position

    for position, (forest, x, y) in enumerate(jobs):
        forest._check_params()
        x = as_float_matrix(x)
        if not x.shape[1]:
            raise InputError("X has no columns")
        y = as_label_vector(y, len(x))
        _require_two_classes(y)
        forests.append(forest)
        inputs.append((x, y))
        trees.append([None] * forest.n_trees)  # each set when its group starts
        queue = queues.setdefault(x.shape[1], [])
        queue.extend((position, t) for t in range(forest.n_trees))
        while len(queue) >= _GROUP:
            yield from grow(queue)
    for queue in queues.values():
        while queue:
            yield from grow(queue)


class RandomForest:
    """Bagged decision trees; the score is the fraction of trees voting
    for the unfavourable class, so it is always a multiple of 1/n_trees.
    Fitted trees are flat: node arrays feature_, threshold_, left_,
    right_ and label_ hold every tree in turn, in pre-order, with a leaf
    at feature -1 pointing to itself; roots_ indexes each tree. fit is
    grow_forests with this forest alone."""

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
        for _ in grow_forests([(self, x, y)]):
            pass
        return self

    def _set_nodes(self, trees: list[_Tree], width: int) -> None:
        """Flatten grown trees of width-column inputs into the node
        arrays, tree after tree, and derive the walk's own arrays: a
        leaf's feature is 0 and its threshold +inf, so a row at a leaf
        stays there, and the children are one flat (node, side) table.
        The walk starts at the roots, deepest tree first, and takes as
        many levels as the deepest tree has, level l only through the
        _walk_widths[l] trees deeper than l; the grower records each
        tree's depth."""
        sizes = [len(tree.nodes) // 5 for tree in trees]
        starts = np.cumsum([0] + sizes[:-1])
        table = np.concatenate([np.frombuffer(tree.nodes) for tree in trees]).reshape(-1, 5)
        table[:, 2:4] += np.repeat(starts, sizes)[:, None]
        self.roots_ = starts
        self.feature_, self.left_, self.right_ = table[:, [0, 2, 3]].T.astype(int)
        self.threshold_, self.label_ = table[:, 1], table[:, 4]
        self.n_columns_ = width
        leaf = self.feature_ < 0
        self._walk_feature = np.where(leaf, 0, self.feature_)
        self._walk_threshold = np.where(leaf, np.inf, self.threshold_)
        self._child = table[:, 2:4].astype(np.intp).ravel()
        depths = np.array([tree.depth for tree in trees])
        order = np.argsort(-depths, kind="stable")
        self._walk_roots = starts[order]
        self._walk_widths = tuple(np.count_nonzero(depths > level) for level in range(depths.max()))

    def predict_scores(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "roots_")
        x = as_fitted_matrix(x, self.n_columns_)
        # walk every (tree, row) cell down one level at a time: x <= t
        # goes left (side 0); inputs are finite, so a leaf's +inf
        # threshold keeps its cells where they are. The trees still
        # walking are a prefix of the rows of node, so no cell is moved.
        flat, row_start = x.ravel(), np.arange(len(x)) * x.shape[1]
        feature, threshold, child = self._walk_feature, self._walk_threshold, self._child
        node = np.repeat(self._walk_roots[:, None], len(x), axis=1)
        for trees in self._walk_widths:
            live = node[:trees]
            right = flat.take(row_start + feature.take(live)) > threshold.take(live)
            # clip mode writes in place; every index is a node already
            child.take(2 * live + right, out=live, mode="clip")
        # the votes are 0s and 1s, so their sum is exact in any order;
        # n_trees may have been reassigned since fit, so count the roots
        return self.label_.take(node).sum(axis=0) / len(self.roots_)


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
    """spec's model of train, through a pipeline fitted on it: fit_each
    with one job."""
    pipeline = FeaturePipeline().fit(train)
    job = (pipeline, pipeline.transform(train), train.unfavourable.astype(float))
    ((_, model),) = fit_each(spec, [job])
    if isinstance(model, TrainingError):
        raise model
    return model


def fit_each(
    spec: ClassifierSpec, jobs: Iterable[tuple[FeaturePipeline, np.ndarray, np.ndarray]]
) -> Iterator[tuple[int, TrainedModel | TrainingError]]:
    """(i, the model of job i) for every job (pipeline, x, y), or (i,
    the TrainingError its fit raised), as each model is done. x is the
    pipeline's transform of a training set and y its 0/1 labels; the
    model holds the pipeline and spec's estimator, built with the
    pipeline's one-hot blocks and fitted on (x, y).

    Every job must hold both labels (search._draw_chunk fails the
    others first); a forest's one-label job raises TrainingError.
    Forests are grown together through grow_forests, which reads the
    jobs as its groups fill; every other kind is fitted one job at a
    time. Either way a job's model is the one it gets alone.
    """

    def unfitted(pipeline: FeaturePipeline, y: np.ndarray) -> TrainedModel:
        _require_two_classes(y)
        estimator = build_estimator(spec, pipeline.categorical_blocks())
        return TrainedModel(spec=spec, pipeline=pipeline, estimator=estimator)

    if not isinstance(build_estimator(spec), RandomForest):
        for i, (pipeline, x, y) in enumerate(jobs):
            try:
                model = unfitted(pipeline, y)
                model.estimator.fit(x, y)
            except TrainingError as exc:
                model = exc
            yield i, model
        return
    models: list[TrainedModel | None] = []  # per job, until yielded

    def forests():
        for pipeline, x, y in jobs:
            models.append(unfitted(pipeline, y))
            yield models[-1].estimator, x, y

    for position in grow_forests(forests()):
        yield position, models[position]
        models[position] = None


def checked_scores(kind: str, scores: Any, rows: int) -> np.ndarray:
    """A kind of model's scores of rows rows, checked: a float vector of
    one score a row, each finite and in [0, 1]. Any other output raises
    TrainingError naming the kind and the fault, so a threshold never
    meets a score it cannot order."""
    scores = np.asarray(scores)
    fault = None
    if scores.shape != (rows,):
        fault = f"shape {scores.shape}, expected ({rows},)"
    elif not np.issubdtype(scores.dtype, np.floating):
        fault = f"dtype {scores.dtype}, expected floats"
    elif not np.isfinite(scores).all():
        fault = f"{np.count_nonzero(~np.isfinite(scores))} non-finite values"
    elif len(scores) and (scores.min() < 0.0 or scores.max() > 1.0):
        fault = f"values outside [0, 1], from {float(scores.min())!r} to {float(scores.max())!r}"
    if fault is not None:
        raise TrainingError(f"{kind} model scores have {fault}")
    return scores.astype(float, copy=False)


def predict_labels(model, d: Dataset, threshold: float) -> GroupedPredictions:
    """Threshold a model's scores into grouped 0/1 predictions.

    A row is called unfavourable when its score reaches the threshold.
    Works for any object with predict_scores(dataset) whose scores pass
    checked_scores, under the kind of its spec or else its type's name.
    """
    check_number(threshold, "threshold", 0.0, 1.0, "()")
    kind = getattr(getattr(model, "spec", None), "kind", type(model).__name__)
    scores = checked_scores(kind, model.predict_scores(d), len(d))
    return GroupedPredictions(
        privileged=d.privileged,
        actual=d.unfavourable,
        predicted=scores >= threshold,
    )

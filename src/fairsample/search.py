"""Two-level grid search over the balance knobs and the decision
threshold, with Pareto-front extraction over (MCC loss, DI loss).

Level 0 sweeps a coarse lattice over (alpha, beta, gamma) crossed with
a fixed threshold list, keeping the best threshold per lattice point.
Level 1 re-grids a fine lattice around the top scoring points, with
the threshold list refined around each incumbent's best. Every point
draws its sample at one common size, the largest size feasible across
the whole fine lattice, so sample size never varies between points.

Evaluation is pluggable: the default evaluator samples, trains and
scores real models, while tests inject analytic stubs through the same
seam. Logistic fits, on numeric and categorical features alike, go
through one vectorised kernel a chunk of tasks at a time, with the
one-hot categories fixed on the training split.
All ordering is deterministic; per-point seeds hash the global seed
with the fine-lattice indices, so a point revisited at level 1 reuses
exactly the sample it had at level 0.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from .balance import (
    BalanceParams,
    _lattice_denominator,
    compute_plan,
    materialize_sample,
    max_sample_size,
    sample_indices,
)
from .base import InfeasibleError, InputError, SearchError, TrainingError
from .classifiers import (
    ClassifierSpec,
    LogisticRegression,
    _sigmoid as _sigmoid_scores,
    build_estimator,
    fit_logistic_batch,
)
from .dataset import Dataset, FeaturePipeline, quadrant_counts
from .metrics import (
    ConfusionCounts,
    LossWeights,
    MetricReport,
    report_from_counts,
)

# A task is (params, candidate thresholds, sampling seed). An
# evaluator maps tasks to exactly one EvaluationPoint per task, in
# task order: the point for the task's best threshold by combined
# loss (lowest threshold on ties; the first threshold, carrying its
# degenerate report or error, when no threshold is valid).
Task = tuple[BalanceParams, tuple[float, ...], int]
Evaluator = Callable[[list[Task]], list["EvaluationPoint"]]
Sink = Callable[["EvaluationPoint"], None]


@dataclass(frozen=True)
class GridSpec:
    """Knobs of the two-level search."""

    level0_step: float = 0.1
    level1_step: float = 0.01
    top_k: int = 5
    neighborhood: float | None = None  # half-width per side; None = one level-0 step
    thresholds: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    weights: LossWeights = field(default_factory=LossWeights)

    def __post_init__(self):
        coarse = _lattice_denominator(self.level0_step, "level0_step")
        fine = _lattice_denominator(self.level1_step, "level1_step")
        if fine % coarse != 0:
            raise InputError("level1_step must subdivide level0_step evenly")
        if self.top_k < 1:
            raise InputError(f"top_k must be at least 1, got {self.top_k}")
        if self.neighborhood is not None and not 0.0 < self.neighborhood <= 1.0:
            raise InputError(f"neighborhood must lie in (0, 1], got {self.neighborhood}")
        if not self.thresholds:
            raise InputError("threshold grid is empty")
        ordered = tuple(sorted(set(float(t) for t in self.thresholds)))
        if ordered[0] <= 0.0 or ordered[-1] >= 1.0:
            raise InputError("thresholds must lie strictly inside (0, 1)")
        object.__setattr__(self, "thresholds", ordered)

    @property
    def fine_denominator(self) -> int:
        return round(1.0 / self.level1_step)

    @property
    def coarse_denominator(self) -> int:
        return round(1.0 / self.level0_step)

    @property
    def half_width_units(self) -> int:
        # neighborhood expressed in fine-lattice steps
        width = self.level0_step if self.neighborhood is None else self.neighborhood
        units = round(width / self.level1_step)
        if units < 1 or abs(units * self.level1_step - width) > 1e-9:
            raise InputError("neighborhood must be a multiple of level1_step")
        return units


@dataclass(frozen=True)
class EvaluationPoint:
    """One evaluated configuration: balance knobs, threshold, outcome.

    Invalid points (infeasible sample, failed training) carry an error
    message and no report; degenerate-but-trained points carry a report
    whose losses are None. Both sort after every valid point.
    """

    params: BalanceParams
    threshold: float
    classifier_kind: str
    report: MetricReport | None
    size: int
    seed: int
    error: str | None = None

    @property
    def combined(self) -> float | None:
        if self.report is None:
            return None
        return self.report.combined_loss

    @property
    def valid(self) -> bool:
        return self.combined is not None

    def sort_key(self) -> tuple:
        c = self.combined
        return (
            0 if c is not None else 1,
            c if c is not None else float("inf"),
            self.params.alpha,
            self.params.beta,
            self.params.gamma,
            self.threshold,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "gamma": self.params.gamma,
            "threshold": self.threshold,
            "classifier": self.classifier_kind,
            "size": self.size,
            "seed": self.seed,
            "valid": self.valid,
            "error": self.error,
            "metrics": None if self.report is None else self.report.to_dict(),
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "EvaluationPoint":
        report = data.get("metrics")
        return EvaluationPoint(
            params=BalanceParams(data["alpha"], data["beta"], data["gamma"]),
            threshold=float(data["threshold"]),
            classifier_kind=str(data["classifier"]),
            report=None if report is None else MetricReport.from_dict(report),
            size=int(data["size"]),
            seed=int(data["seed"]),
            error=data.get("error"),
        )


def point_seed(global_seed: int, alpha_units: int, beta_units: int, gamma_units: int) -> int:
    """Stable per-point sampling seed from fine-lattice coordinates.

    The threshold is deliberately absent: every threshold shares the
    point's sample, so sweeping thresholds compares decision rules on
    identical predictions.
    """
    payload = struct.pack(">qqqq", global_seed, alpha_units, beta_units, gamma_units)
    digest = hashlib.sha256(b"balance-point" + payload).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# evaluation

class _ThresholdSweep:
    """Best-threshold selection over one evaluation set, a chunk at a time.

    Each call scores the K columns of an (N_eval, K) score matrix, one
    per task, against the sorted union of the tasks' thresholds. Every
    score is binned once against that union; a bincount by (task,
    quadrant category, bin) and a reverse cumulative sum over bins give,
    for every task and union threshold, the rows of each category with
    score >= threshold, so the confusion numbers are exactly what
    explicit thresholding would produce. MCC, DI and the combined loss
    are computed for the whole (K, union) grid with the float operations
    of report_from_counts, so the argmin agrees with a report-by-report
    comparison; thresholds a task did not ask for never win.
    """

    def __init__(self, d_eval: Dataset, weights: LossWeights):
        privileged = d_eval.privileged
        actual = d_eval.unfavourable
        self.category = privileged.astype(np.int64) * 2 + actual.astype(np.int64)
        self.totals = np.bincount(self.category, minlength=4)
        self.weights = weights

    def choose(
        self, scores: np.ndarray, thresholds: list[tuple[float, ...]]
    ) -> list[tuple[float, MetricReport]]:
        """(threshold, MetricReport) per task for its winning threshold.

        Column k of scores belongs to the task whose thresholds are
        thresholds[k]. The lowest threshold wins ties; a task keeps its
        first threshold when no threshold has a finite loss or either
        privilege group is missing from the evaluation set (in which
        case report_from_counts raises InputError).
        """
        k = len(thresholds)
        union = np.unique(np.concatenate([np.asarray(t, dtype=float) for t in thresholds]))
        width = len(union) + 1
        # bin b holds scores in [union[b-1], union[b]): score >= union[u] iff b > u
        keys = np.searchsorted(union, scores, side="right")
        # key = (task * 4 + category) * width + bin, built in place
        keys += self.category[:, None] * width
        keys += np.arange(k) * (4 * width)
        counts = np.bincount(keys.ravel(), minlength=k * 4 * width).reshape(k, 4, width)
        # positive[k, c, u] = rows of category c with score >= union[u]
        positive = counts[:, :, ::-1].cumsum(axis=2)[:, :, ::-1][:, :, 1:]
        member = np.zeros((k, len(union)), dtype=bool)
        first = np.empty(k, dtype=np.int64)
        for row, ts in enumerate(thresholds):
            cols = np.searchsorted(union, np.asarray(ts, dtype=float))
            member[row, cols] = True
            first[row] = cols[0]
        totals = self.totals
        tp = positive[:, 1] + positive[:, 3]
        fp = positive[:, 0] + positive[:, 2]
        fn = int(totals[1] + totals[3]) - tp
        tn = int(totals[0] + totals[2]) - fp
        p_total = int(totals[2] + totals[3])
        up_total = int(totals[0] + totals[1])
        choice = first
        if p_total > 0 and up_total > 0:
            with np.errstate(divide="ignore", invalid="ignore"):
                den2 = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
                mcc = np.where(
                    den2 > 0, (tp * tn - fp * fn) / np.sqrt(den2.astype(float)), np.nan
                )
                rate_p = (positive[:, 2] + positive[:, 3]) / p_total
                rate_up = (positive[:, 0] + positive[:, 1]) / up_total
                di = np.where(rate_p > 0, rate_up / rate_p, np.nan)
                combined = self.weights.c_mcc * np.abs(1.0 - mcc) + (
                    self.weights.c_di * np.abs(1.0 - di)
                )
            masked = np.where(member & np.isfinite(combined), combined, np.inf)
            found = np.isfinite(masked).any(axis=1)
            choice = np.where(found, masked.argmin(axis=1), first)
        results = []
        for row, col in enumerate(choice.tolist()):
            report = report_from_counts(
                ConfusionCounts(
                    tp=int(tp[row, col]),
                    fp=int(fp[row, col]),
                    tn=int(tn[row, col]),
                    fn=int(fn[row, col]),
                ),
                p_positive=int(positive[row, 2, col] + positive[row, 3, col]),
                p_total=p_total,
                up_positive=int(positive[row, 0, col] + positive[row, 1, col]),
                up_total=up_total,
                weights=self.weights,
            )
            results.append((float(union[col]), report))
        return results

    def points(
        self, tasks: list[Task], scores: np.ndarray, kind: str, size: int
    ) -> list[EvaluationPoint]:
        """One EvaluationPoint per task; column k of scores is tasks[k]'s."""
        chosen = self.choose(scores, [thresholds for _, thresholds, _ in tasks])
        return [
            EvaluationPoint(
                params=params,
                threshold=threshold,
                classifier_kind=kind,
                report=report,
                size=size,
                seed=seed,
            )
            for (params, _, seed), (threshold, report) in zip(tasks, chosen)
        ]


# tasks scored and swept together: a chunk-wide (N_eval, chunk) score
# matrix would add to the chunk's peak memory for no change in results
_SWEEP_BLOCK = 32


def _invalid_point(task: Task, kind: str, size: int, message: str) -> EvaluationPoint:
    params, thresholds, seed = task
    return EvaluationPoint(
        params=params,
        threshold=thresholds[0],
        classifier_kind=kind,
        report=None,
        size=size,
        seed=seed,
        error=message,
    )


def _batched_logistic(
    d_train: Dataset,
    d_eval: Dataset,
    spec: ClassifierSpec,
    size: int,
    chunk_size: int,
    sweep: "_ThresholdSweep",
) -> Evaluator:
    """Logistic evaluation through one batched fit per chunk.

    One-hot categories are fixed once on the training split, so two raw
    matrices built once serve every task. A category a sample lacks is
    an all-zero column whose weight stays exactly 0 (its gradient and L2
    term are 0), so the fit matches one on the sample's own one-hot
    encoding. Numeric columns are standardised per sample and one-hot
    columns stay 0/1, as in FeaturePipeline; the standardisation is
    folded into the weights as an affine change of basis, so one matrix
    product scores a block of tasks. Only the order of float operations
    differs from fitting each sample through FeaturePipeline.
    """
    counts = quadrant_counts(d_train)
    pipeline = FeaturePipeline().fit(d_train)
    train_matrix = pipeline.encode(d_train)
    eval_matrix = pipeline.encode(d_eval)
    one_hot_columns = np.zeros(train_matrix.shape[1], dtype=bool)
    for start, stop in pipeline.categorical_blocks():
        one_hot_columns[start:stop] = True
    train_labels = d_train.unfavourable.astype(float)
    template = LogisticRegression(**spec.params)

    def run_chunk(chunk, out):
        xs = np.empty((len(chunk), size, train_matrix.shape[1]))
        ys = np.empty((len(chunk), size))
        slots, metas = [], []
        for task in chunk:
            params, thresholds, seed = task
            try:
                plan = compute_plan(counts, params)
                idx = sample_indices(d_train, plan, size, seed)
            except InfeasibleError as exc:
                out.append(_invalid_point(task, spec.kind, size, str(exc)))
                continue
            y = train_labels[idx]
            ones = y.sum()
            if ones == 0.0 or ones == len(y):
                out.append(
                    _invalid_point(
                        task,
                        spec.kind,
                        size,
                        "training data contains a single label value",
                    )
                )
                continue
            x_raw = train_matrix[idx]
            mean = x_raw.mean(axis=0)
            std = x_raw.std(axis=0)
            std[std == 0.0] = 1.0
            mean[one_hot_columns] = 0.0
            std[one_hot_columns] = 1.0
            xs[len(metas)] = (x_raw - mean) / std
            ys[len(metas)] = y
            slots.append(len(out))
            out.append(None)  # backfilled below
            metas.append((task, mean, std))
        if not metas:
            return
        fitted = len(metas)
        w, b, _ = fit_logistic_batch(
            xs[:fitted],
            ys[:fitted],
            template.learning_rate,
            template.l2,
            template.max_iter,
            template.tol,
        )
        del xs, ys  # freed before scoring, so the two never add up in peak memory
        means = np.stack([m for _, m, _ in metas])
        stds = np.stack([s for _, _, s in metas])
        w_raw = w / stds
        b_raw = b - np.sum(w * means / stds, axis=1)
        for start in range(0, fitted, _SWEEP_BLOCK):
            block = slice(start, start + _SWEEP_BLOCK)
            scores = _sigmoid_scores(eval_matrix @ w_raw[block].T + b_raw[block])
            points = sweep.points([t for t, _, _ in metas[block]], scores, spec.kind, size)
            for slot, point in zip(slots[block], points):
                out[slot] = point

    def evaluate(tasks: list[Task]) -> list[EvaluationPoint]:
        out: list[EvaluationPoint] = []
        for start in range(0, len(tasks), chunk_size):
            run_chunk(tasks[start : start + chunk_size], out)
        return out

    return evaluate


def make_model_evaluator(
    d_train: Dataset,
    d_eval: Dataset,
    spec: ClassifierSpec,
    weights: LossWeights,
    size: int,
    chunk_size: int = 256,
) -> Evaluator:
    """The real evaluator: sample, train, score, pick the threshold.

    Logistic specs, numeric or categorical, run through the batched
    descent kernel in fixed chunks (see _batched_logistic); every other
    kind draws its sample, fits a FeaturePipeline and trains per task.
    Chunking is a memory knob only, results do not depend on it.
    """
    if size < 1:
        raise InputError(f"sample size must be positive, got {size}")
    if chunk_size < 1:
        raise InputError(f"chunk_size must be positive, got {chunk_size}")
    sweep = _ThresholdSweep(d_eval, weights)
    if spec.kind == "logistic":
        return _batched_logistic(d_train, d_eval, spec, size, chunk_size, sweep)
    counts = quadrant_counts(d_train)

    def evaluate(tasks: list[Task]) -> list[EvaluationPoint]:
        out: list[EvaluationPoint] = []
        for task in tasks:
            params, _, seed = task
            try:
                plan = compute_plan(counts, params)
                sample = materialize_sample(d_train, plan, size, seed)
                pipeline = FeaturePipeline().fit(sample)
                x = pipeline.transform(sample)
                y = sample.unfavourable.astype(float)
                if not (np.any(y == 1.0) and np.any(y == 0.0)):
                    raise TrainingError("training data contains a single label value")
                estimator = build_estimator(spec, pipeline.categorical_blocks())
                estimator.fit(x, y)
            except (InfeasibleError, TrainingError) as exc:
                out.append(_invalid_point(task, spec.kind, size, str(exc)))
                continue
            scores = np.asarray(estimator.predict_scores(pipeline.transform(d_eval)))
            out.extend(sweep.points([task], scores[:, None], spec.kind, size))
        return out

    return evaluate


def inspect_point(
    d_train: Dataset,
    d_eval: Dataset,
    params: BalanceParams,
    spec: ClassifierSpec,
    threshold: float,
    weights: LossWeights,
    size: int,
    seed: int,
) -> EvaluationPoint:
    """Evaluate one configuration end to end.

    Draws the sample, trains, predicts on the evaluation set, returns
    the full report. Sampling or training failure yields an invalid
    point rather than an exception; identical arguments always yield
    identical points.
    """
    evaluator = make_model_evaluator(d_train, d_eval, spec, weights, size)
    return evaluator([(params, (float(threshold),), seed)])[0]


# ---------------------------------------------------------------------------
# grid levels

def _common_size(d_train: Dataset, grid: GridSpec) -> int:
    return max_sample_size(quadrant_counts(d_train), step=grid.level1_step)


def _emit(points: list[EvaluationPoint], sink: Sink | None) -> list[EvaluationPoint]:
    ordered = sorted(points, key=EvaluationPoint.sort_key)
    if sink is not None:
        for p in ordered:
            sink(p)
    return ordered


def grid_search_level0(
    d_train: Dataset,
    d_eval: Dataset,
    spec: ClassifierSpec,
    grid: GridSpec = GridSpec(),
    seed: int = 0,
    size: int | None = None,
    evaluate: Evaluator | None = None,
    sink: Sink | None = None,
) -> list[EvaluationPoint]:
    """Coarse sweep: full level-0 lattice crossed with the threshold grid.

    Returns one point per lattice cell (its best threshold), sorted by
    combined loss with invalid points last. The common sample size is
    computed once over the fine lattice unless supplied.
    """
    if size is None:
        size = _common_size(d_train, grid)
    if evaluate is None:
        evaluate = make_model_evaluator(d_train, d_eval, spec, grid.weights, size)
    ratio = grid.fine_denominator // grid.coarse_denominator
    axis = [i * ratio for i in range(grid.coarse_denominator + 1)]
    denom = grid.fine_denominator
    tasks: list[Task] = []
    for ai in axis:
        for bi in axis:
            for gi in axis:
                params = BalanceParams(ai / denom, bi / denom, gi / denom)
                tasks.append((params, grid.thresholds, point_seed(seed, ai, bi, gi)))
    return _emit(evaluate(tasks), sink)


def _refined_thresholds(center: float, grid: GridSpec) -> tuple[float, ...]:
    denom = grid.fine_denominator
    width = grid.half_width_units
    mid = round(center * denom)
    lo = max(1, mid - width)
    hi = min(denom - 1, mid + width)
    return tuple(j / denom for j in range(lo, hi + 1))


def grid_search_level1(
    level0: list[EvaluationPoint],
    d_train: Dataset,
    d_eval: Dataset,
    spec: ClassifierSpec,
    grid: GridSpec = GridSpec(),
    seed: int = 0,
    size: int | None = None,
    evaluate: Evaluator | None = None,
    sink: Sink | None = None,
) -> list[EvaluationPoint]:
    """Fine sweep around the top level-0 points.

    Each neighborhood is the incumbent's coordinate box clipped to the
    unit cube, stepped at the fine resolution; thresholds are refined
    the same way around the incumbent's best threshold and clipped away
    from 0 and 1. Overlapping neighborhoods evaluate each lattice point
    once, with the union of the threshold lists that wanted it.
    """
    winners = sorted((p for p in level0 if p.valid), key=EvaluationPoint.sort_key)
    if not winners:
        raise SearchError("no valid level-0 point to refine around")
    if size is None:
        size = _common_size(d_train, grid)
    if evaluate is None:
        evaluate = make_model_evaluator(d_train, d_eval, spec, grid.weights, size)
    denom = grid.fine_denominator
    width = grid.half_width_units
    wanted: dict[tuple[int, int, int], set[float]] = {}
    for p in winners[: grid.top_k]:
        center = (
            round(p.params.alpha * denom),
            round(p.params.beta * denom),
            round(p.params.gamma * denom),
        )
        thresholds = _refined_thresholds(p.threshold, grid)
        spans = [
            range(max(0, c - width), min(denom, c + width) + 1) for c in center
        ]
        for ai in spans[0]:
            for bi in spans[1]:
                for gi in spans[2]:
                    wanted.setdefault((ai, bi, gi), set()).update(thresholds)
    tasks: list[Task] = []
    for (ai, bi, gi), thresholds in sorted(wanted.items()):
        params = BalanceParams(ai / denom, bi / denom, gi / denom)
        tasks.append((params, tuple(sorted(thresholds)), point_seed(seed, ai, bi, gi)))
    return _emit(evaluate(tasks), sink)


# ---------------------------------------------------------------------------
# front extraction and selection

@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated valid points, ascending by MCC loss."""

    points: tuple[EvaluationPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def coordinates(self) -> list[tuple[float, float]]:
        return [(p.report.mcc_loss, p.report.di_loss) for p in self.points]


def pareto_front(points: Iterable[EvaluationPoint]) -> ParetoFront:
    """All valid points not strictly dominated in (mcc_loss, di_loss).

    Strict domination means strictly smaller in both coordinates.
    Points with identical coordinates keep only their first
    representative in deterministic sort order.

    One sort and one sweep (Kung, Luccio & Preparata, JACM 1975): in
    (mcc_loss, di_loss) order a point is dominated exactly when some
    point with strictly smaller mcc_loss has smaller di_loss, so a
    running minimum of di_loss over the finished mcc_loss groups
    decides every point in O(n log n).
    """
    candidates = sorted(
        (p for p in points if p.valid),
        key=lambda p: (p.report.mcc_loss, p.report.di_loss) + p.sort_key(),
    )
    front: list[EvaluationPoint] = []
    lowest_di = float("inf")  # over points with strictly smaller mcc_loss
    group_mcc, group_di = None, float("inf")  # current mcc_loss, its lowest di_loss
    previous_di = None
    for p in candidates:
        m, d = p.report.mcc_loss, p.report.di_loss
        if m != group_mcc:
            lowest_di = min(lowest_di, group_di)
            group_mcc, group_di = m, d
        elif d == previous_di:
            continue  # repeats the previous point's coordinates
        previous_di = d
        if d <= lowest_di:
            front.append(p)
    return ParetoFront(points=tuple(front))


def select_optimal(front: ParetoFront, weights: LossWeights) -> EvaluationPoint:
    """The front member minimising the weighted combined loss.

    Ties break lexicographically on (alpha, beta, gamma, threshold) so
    selection is reproducible for any weights.
    """
    if not front.points:
        raise SearchError("cannot select from an empty front")
    return min(
        front.points,
        key=lambda p: (
            weights.c_mcc * p.report.mcc_loss + weights.c_di * p.report.di_loss,
            p.params.alpha,
            p.params.beta,
            p.params.gamma,
            p.threshold,
        ),
    )


# ---------------------------------------------------------------------------
# whole-search convenience

@dataclass(frozen=True)
class SearchResult:
    level0: tuple[EvaluationPoint, ...]
    level1: tuple[EvaluationPoint, ...]
    front: ParetoFront
    best: EvaluationPoint | None
    size: int


def full_search(
    d_train: Dataset,
    d_eval_level0: Dataset,
    d_eval_level1: Dataset,
    spec: ClassifierSpec,
    grid: GridSpec = GridSpec(),
    seed: int = 0,
    size: int | None = None,
    evaluators: tuple[Evaluator, Evaluator] | None = None,
    sink: Sink | None = None,
) -> SearchResult:
    """Run both levels, extract the front from the fine results and
    pick the optimum under the grid's weights.

    With no valid level-0 point the fine level is skipped and the
    result carries an empty front and no best point; callers decide
    whether that deserves a warning or an error.
    """
    if size is None:
        size = _common_size(d_train, grid)
    eval0 = evaluators[0] if evaluators else None
    eval1 = evaluators[1] if evaluators else None
    level0 = grid_search_level0(
        d_train, d_eval_level0, spec, grid, seed, size, eval0, sink
    )
    if not any(p.valid for p in level0):
        return SearchResult(
            level0=tuple(level0),
            level1=(),
            front=ParetoFront(points=()),
            best=None,
            size=size,
        )
    level1 = grid_search_level1(
        level0, d_train, d_eval_level1, spec, grid, seed, size, eval1, sink
    )
    front = pareto_front(level1)
    best = select_optimal(front, grid.weights) if len(front) else None
    return SearchResult(
        level0=tuple(level0),
        level1=tuple(level1),
        front=front,
        best=best,
        size=size,
    )

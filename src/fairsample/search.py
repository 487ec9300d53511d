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
exactly the sample it had at level 0. A full search therefore trains a
logistic model at each lattice point once and re-scores level 0's fits
at level 1.
"""
from __future__ import annotations

import hashlib
import itertools
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

# sample_indices and materialize_sample are not called here, but
# perfbench/spans.py wraps them under this module's names
from .balance import (
    BalanceParams,
    SamplingPlan,
    _lattice_denominator,
    compute_plan,
    draw_samples,
    materialize_sample,
    max_sample_size,
    sample_indices,
)
from .base import InfeasibleError, InputError, SearchError, TrainingError, check_int, check_number
from .classifiers import (
    ClassifierSpec,
    LogisticRegression,
    _sigmoid as _sigmoid_scores,
    fit,
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


def threshold_grid(thresholds: Sequence[float], name: str = "thresholds") -> tuple[float, ...]:
    """The decision thresholds a search sweeps: a non-empty list of
    numbers strictly inside (0, 1), returned sorted without repeats."""
    values = thresholds if isinstance(thresholds, (list, tuple)) else ()
    try:
        values = tuple(check_number(t, name, 0.0, 1.0, "()") for t in values)
    except InputError:
        values = ()
    if not values:
        raise InputError(
            f"{name} must be a non-empty list of numbers strictly inside (0, 1), got {thresholds!r}"
        )
    return tuple(sorted(set(values)))


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
        check_int(self.top_k, "top_k", 1)
        if self.neighborhood is not None:
            check_number(self.neighborhood, "neighborhood", 0.0, 1.0, "(]")
        object.__setattr__(self, "thresholds", threshold_grid(self.thresholds))

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
        """The point to_dict wrote; a value of the wrong type or range
        raises InputError naming its key."""
        kind, error, report = data["classifier"], data.get("error"), data.get("metrics")
        if not isinstance(kind, str):
            raise InputError(f"classifier must be a string, got {kind!r}")
        if error is not None and not isinstance(error, str):
            raise InputError(f"error must be a string or null, got {error!r}")
        return EvaluationPoint(
            params=BalanceParams(data["alpha"], data["beta"], data["gamma"]),
            threshold=check_number(data["threshold"], "threshold", 0.0, 1.0, "()"),
            classifier_kind=kind,
            report=None if report is None else MetricReport.from_dict(report),
            size=check_int(data["size"], "size", 1),
            seed=check_int(data["seed"], "seed", bits=64),
            error=error,
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


def _draw_chunk(
    d_train: Dataset, chunk: list[Task], size: int
) -> tuple[np.ndarray, list[str | None]]:
    """The samples of a chunk's tasks in one pass (balance.draw_samples):
    the rows of the tasks that have one, in task order, and per task None
    or why it has none."""
    counts = quadrant_counts(d_train)
    plans: list[SamplingPlan] = []
    reasons: list[str | None] = []
    for params, _, _ in chunk:
        try:
            plans.append(compute_plan(counts, params))
            reasons.append(None)
        except InfeasibleError as exc:
            reasons.append(str(exc))
    seeds = [seed for (_, _, seed), reason in zip(chunk, reasons) if reason is None]
    rows, short = draw_samples(d_train, plans, seeds, size)
    drawn = iter(short)
    return rows, [next(drawn) if reason is None else reason for reason in reasons]


# a task's logistic fit in the raw feature basis, (w_raw..., b_raw), or
# the reason the task has none, keyed by (params, seed)
Fits = dict[tuple[BalanceParams, int], "np.ndarray | str"]


def _batched_logistic(
    d_train: Dataset,
    d_eval: Dataset,
    spec: ClassifierSpec,
    size: int,
    sweep: "_ThresholdSweep",
    keep_fits: Fits | None,
    reuse_fits: Fits | None,
) -> Evaluator:
    """Logistic evaluation of a chunk of tasks through one batched fit.

    One-hot categories are fixed once on the training split, so two raw
    matrices built once serve every task. A category a sample lacks is
    an all-zero column whose weight stays exactly 0 (its gradient and L2
    term are 0), so the fit matches one on the sample's own one-hot
    encoding. Numeric columns are standardised per sample and one-hot
    columns stay 0/1, as in FeaturePipeline; the standardisation is
    folded into the weights as an affine change of basis, so one matrix
    product scores a block of tasks. Only the order of float operations
    differs from fitting each sample through FeaturePipeline.

    A task found in reuse_fits is re-scored from its recorded fit (or
    keeps its recorded failure) without drawing or fitting; every task's
    outcome is recorded in keep_fits when given.
    """
    pipeline = FeaturePipeline().fit(d_train)
    train_matrix = pipeline.encode(d_train)
    eval_matrix = pipeline.encode(d_eval)
    width = train_matrix.shape[1]
    one_hot_columns = np.zeros(width, dtype=bool)
    for start, stop in pipeline.categorical_blocks():
        one_hot_columns[start:stop] = True
    train_labels = d_train.unfavourable.astype(float)
    template = LogisticRegression(**spec.params)
    known = reuse_fits or {}

    def fit_samples(rows: np.ndarray) -> np.ndarray:
        """Raw-basis (w_raw..., b_raw) rows, one per (size,) row of sample rows."""
        xs = train_matrix[rows]
        ys = train_labels[rows]
        # standardise the whole stack in place; one-hot columns keep
        # mean 0 and scale 1
        mean = xs.mean(axis=1)
        mean[:, one_hot_columns] = 0.0
        xs -= mean[:, None, :]
        std = np.empty_like(mean)
        square = np.empty((size, width))
        for sample, total in zip(xs, std):  # one sample's squares at a time
            np.sum(np.square(sample, out=square), axis=0, out=total)
        std /= size
        np.sqrt(std, out=std)
        std[std == 0.0] = 1.0
        std[:, one_hot_columns] = 1.0
        xs /= std[:, None, :]
        w, b, _ = fit_logistic_batch(
            xs, ys, template.learning_rate, template.l2, template.max_iter, template.tol
        )
        coef = np.empty((len(rows), width + 1))
        coef[:, :width] = w / std
        coef[:, width] = b - np.sum(w * mean / std, axis=1)
        return coef

    def run_chunk(chunk: list[Task]) -> list[EvaluationPoint]:
        # per task: a recorded fit or failure, or None until it is fitted
        outcomes: list[np.ndarray | str | None] = [
            known.get((params, seed)) for params, _, seed in chunk
        ]
        fresh = [k for k, outcome in enumerate(outcomes) if outcome is None]
        if fresh:
            rows, reasons = _draw_chunk(d_train, [chunk[k] for k in fresh], size)
            ones = train_labels[rows].sum(axis=1)
            two_labels = (ones != 0.0) & (ones != size)
            coef = iter(fit_samples(rows[two_labels]) if two_labels.any() else ())
            drawn = iter(two_labels.tolist())
            for k, reason in zip(fresh, reasons):
                if reason is None and not next(drawn):
                    reason = "training data contains a single label value"
                outcomes[k] = next(coef) if reason is None else reason
        if keep_fits is not None:
            for (params, _, seed), outcome in zip(chunk, outcomes):
                keep_fits[(params, seed)] = outcome
        scored = [(t, o) for t, o in zip(chunk, outcomes) if not isinstance(o, str)]
        points: list[EvaluationPoint] = []
        for start in range(0, len(scored), _SWEEP_BLOCK):
            block = scored[start : start + _SWEEP_BLOCK]
            table = np.array([row for _, row in block])
            scores = _sigmoid_scores(eval_matrix @ table[:, :width].T + table[:, width])
            points.extend(sweep.points([t for t, _ in block], scores, spec.kind, size))
        scored_points = iter(points)
        return [
            _invalid_point(task, spec.kind, size, outcome)
            if isinstance(outcome, str)
            else next(scored_points)
            for task, outcome in zip(chunk, outcomes)
        ]

    return run_chunk


def make_model_evaluator(
    d_train: Dataset,
    d_eval: Dataset,
    spec: ClassifierSpec,
    weights: LossWeights,
    size: int,
    chunk_size: int = 256,
    keep_fits: Fits | None = None,
    reuse_fits: Fits | None = None,
) -> Evaluator:
    """The real evaluator: sample, train, score, pick the threshold.

    Tasks run in fixed chunks, and each chunk draws its samples in one
    pass (_draw_chunk). Logistic specs, numeric or categorical, fit a
    chunk through the batched descent kernel (see _batched_logistic);
    every other kind trains each sample through classifiers.fit.
    Chunking is a memory knob only, results do not depend on it.

    For logistic specs, keep_fits collects each task's fit and
    reuse_fits supplies fits to re-score instead of training again; a
    recorded fit is valid only for the same training split, spec and
    size. Other kinds ignore both.
    """
    check_int(size, "sample size", 1)
    check_int(chunk_size, "chunk_size", 1)
    sweep = _ThresholdSweep(d_eval, weights)
    if spec.kind == "logistic":
        run_chunk = _batched_logistic(d_train, d_eval, spec, size, sweep, keep_fits, reuse_fits)
    else:

        def run_chunk(chunk: list[Task]) -> list[EvaluationPoint]:
            rows, reasons = _draw_chunk(d_train, chunk, size)
            drawn = iter(rows)
            out: list[EvaluationPoint] = []
            for task, reason in zip(chunk, reasons):
                if reason is None:
                    try:
                        model = fit(spec, d_train.take(next(drawn)))
                    except TrainingError as exc:
                        reason = str(exc)
                if reason is not None:
                    out.append(_invalid_point(task, spec.kind, size, reason))
                    continue
                scores = np.asarray(model.predict_scores(d_eval))
                out.extend(sweep.points([task], scores[:, None], spec.kind, size))
            return out

    def evaluate(tasks: list[Task]) -> list[EvaluationPoint]:
        out: list[EvaluationPoint] = []
        for start in range(0, len(tasks), chunk_size):
            out.extend(run_chunk(tasks[start : start + chunk_size]))
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
    # a point holds its winner's threshold tuple, shared with the rest
    # of the neighbourhood; only overlaps build a union of their own
    wanted: dict[tuple[int, int, int], tuple[float, ...]] = {}
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
        for point in itertools.product(*spans):
            held = wanted.get(point, thresholds)
            wanted[point] = held if held == thresholds else tuple(sorted({*held, *thresholds}))
    tasks: list[Task] = []
    for (ai, bi, gi), thresholds in sorted(wanted.items()):
        params = BalanceParams(ai / denom, bi / denom, gi / denom)
        tasks.append((params, thresholds, point_seed(seed, ai, bi, gi)))
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
    fits: Fits = {}  # level 0's logistic fits, re-scored at level 1
    eval0, eval1 = evaluators or (
        make_model_evaluator(
            d_train, d_eval_level0, spec, grid.weights, size, keep_fits=fits
        ),
        None,
    )
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
    if eval1 is None:
        # point_seed hashes only the lattice coordinates, so a level-1
        # task at a level-0 point would draw the same sample and get the
        # same fit: re-score the level-0 fit on the level-1 split instead
        eval1 = make_model_evaluator(
            d_train, d_eval_level1, spec, grid.weights, size, reuse_fits=fits
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

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
seam. Linear (logistic, svm) fits, on numeric and categorical features
alike, go through one vectorised kernel a chunk of tasks at a time,
with the one-hot categories fixed on the training split; a chunk's
forests grow together, their trees in lockstep. A level's
chunks run in forked worker processes, one per usable CPU at most, and
return tables of counts from which the search builds every point.
All ordering is deterministic; per-point seeds hash the global seed
with the fine-lattice indices, so a point revisited at level 1 reuses
exactly the sample it had at level 0. A full search therefore trains a
linear (logistic, svm) model at each lattice point once and re-scores
level 0's fits at level 1.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import operator
import os
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

# compute_plan, sample_indices, materialize_sample and report_from_counts
# are not called here, but perfbench/spans.py wraps them under this
# module's names
from .balance import (
    BalanceParams,
    _lattice_denominator,
    compute_plan,
    draw_samples,
    materialize_sample,
    max_sample_size,
    plan_ratios,
    sample_indices,
)
from .base import InputError, SearchError, TrainingError, check_int, check_number
from .classifiers import (
    SINGLE_LABEL_TEXT,
    ClassifierSpec,
    _GradientDescent,
    _sigmoid as _sigmoid_scores,
    build_estimator,
    checked_scores,
    fit_each,
    fit_logistic_batch,
)
from .dataset import Dataset, FeaturePipeline, quadrant_counts
from .metrics import (
    LossWeights,
    MetricReport,
    report_columns,
    report_from_counts,
    reports_from_columns,
)

# A task is (params, candidate thresholds, sampling seed). An
# evaluator maps tasks to exactly one EvaluationPoint per task, in
# task order: the point for the task's best threshold by combined
# loss (lowest threshold on ties; the first threshold, carrying its
# degenerate report or error, when no threshold is valid).
Task = tuple[BalanceParams, tuple[float, ...], int]
Evaluator = Callable[[list[Task]], list["EvaluationPoint"]]
# receives each point of a level in sort order, with its point-stream
# line: json.dumps(point.to_dict(), sort_keys=True)
Sink = Callable[["EvaluationPoint", str], None]


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
        self.half_width_units  # a neighborhood off the fine lattice fails here
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
# a level's points as columns

_METRIC_NAMES = tuple(MetricReport.__dataclass_fields__)
# MetricReport's fields in to_dict's sorted key order
_SORTED_METRICS = sorted(range(len(_METRIC_NAMES)), key=_METRIC_NAMES.__getitem__)
_KNOBS = operator.attrgetter("alpha", "beta", "gamma")
_METRICS = operator.attrgetter(*sorted(_METRIC_NAMES))
_NO_METRICS = (None,) * len(_METRIC_NAMES)
# columns of _Level.numbers: to_dict's numbers in its sorted key order
_ALPHA, _BETA, _GAMMA = 0, 1, 2
_COLUMN = {name: 3 + k for k, name in enumerate(sorted(_METRIC_NAMES))}
_COMBINED, _DI_LOSS, _MCC_LOSS = _COLUMN["combined_loss"], _COLUMN["di_loss"], _COLUMN["mcc_loss"]
_THRESHOLD = 3 + len(_METRIC_NAMES)
# points whose floats are read out of the numbers at once
_LINE_BLOCK = 1024
# columns of _Level.numbers that are knobs or the threshold
_KNOB_COLUMNS = [_ALPHA, _BETA, _GAMMA, _THRESHOLD]
# a valid point's line; its knobs, threshold and metric block are
# memoised texts, and seed and size are ints
_LINE = (
    '{"alpha": %s, "beta": %s, "classifier": %s, "error": null, "gamma": %s, '
    '"metrics": {%s}, "seed": %d, "size": %d, "threshold": %s, "valid": true}'
)
# a valid point's metric block; each %r is one of its numbers
_METRIC_BLOCK = (
    '"accuracy": %r, "combined_loss": %r, "di_loss": %r, "di_ratio": %r, '
    '"f1": %r, "mcc": %r, "mcc_loss": %r, "precision": %r, "recall": %r'
)


class _Level(list):
    """Points with their numbers, which sort, write and front a level.

    Row k of numbers holds point k's alpha, beta, gamma, metrics and
    threshold in to_dict's sorted key order, NaN where a value is None;
    plain says that each of them is a Python float or None. The model
    evaluator returns a _Level built from its arrays; any other list of
    points has its numbers read off its objects (_Level.of).
    """

    def __init__(self, points: Iterable[EvaluationPoint], numbers: np.ndarray, plain: bool):
        super().__init__(points)
        self.numbers = numbers
        self.plain = plain

    @classmethod
    def of(cls, points: Iterable[EvaluationPoint]) -> "_Level":
        if isinstance(points, _Level):
            return points
        points = list(points)
        rows = [
            _KNOBS(p.params)
            + (_NO_METRICS if p.report is None else _METRICS(p.report))
            + (p.threshold,)
            for p in points
        ]
        plain = set(map(type, itertools.chain.from_iterable(rows))) <= {float, type(None)}
        numbers = np.array(rows, dtype=float).reshape(len(rows), _THRESHOLD + 1)
        return cls(points, numbers, plain)

    def sort_by_key(self) -> None:
        """Sort the points, and their numbers with them, in place into
        EvaluationPoint.sort_key order: one stable np.lexsort over
        sort_key's columns."""
        numbers = self.numbers
        combined = numbers[:, _COMBINED]
        invalid = np.isnan(combined)
        order = np.lexsort(
            (
                numbers[:, _THRESHOLD],
                numbers[:, _GAMMA],
                numbers[:, _BETA],
                numbers[:, _ALPHA],
                np.where(invalid, np.inf, combined),
                invalid,
            )
        )
        self[:] = [self[i] for i in order.tolist()]
        for column in numbers.T:  # a column at a time, so no second copy of the array
            column[:] = column[order]

    def lines(self) -> Iterator[str]:
        """json.dumps(p.to_dict(), sort_keys=True) for each point, with
        the numbers of _LINE_BLOCK points read out at a time.

        JSON writes a finite float as its repr, so a point whose numbers
        are plain and finite (a valid point), with int seed and size, a
        string kind and no error, fills one template; any other point
        goes through json.dumps. Points share few distinct numbers, so
        the template's texts are memoised: a knob's or threshold's by
        its float's bit pattern, and a metric block's by the bit
        patterns of its nine floats. Bit patterns keep -0.0 apart from
        0.0. Points with equal metrics have equal combined loss, so in
        sort order they mostly follow each other: the metric memo keeps
        the last block only.
        """
        quoted: dict[str, str] = {}
        knob_text: dict[int, str] = {}
        last_key, text = None, ""
        for start in range(0, len(self), _LINE_BLOCK):
            points = self[start : start + _LINE_BLOCK]
            numbers = self.numbers[start : start + _LINE_BLOCK]
            finite = np.isfinite(numbers).all(axis=1).tolist()
            knobs = numbers[:, _KNOB_COLUMNS]
            knob_bits = knobs.view(np.int64)
            seen, at = np.unique(knob_bits, return_index=True)
            for bits, value in zip(seen.tolist(), knobs.ravel()[at].tolist()):
                if bits not in knob_text:
                    knob_text[bits] = repr(value)
            metrics = np.ascontiguousarray(numbers[:, 3:_THRESHOLD])
            # one bytes object per row: its nine floats' bit patterns
            row_bytes = np.dtype((np.void, metrics.itemsize * metrics.shape[1]))
            metric_keys = metrics.view(row_bytes).ravel().tolist()
            for i, (p, (a, b, g, t), key, templated) in enumerate(
                zip(points, knob_bits.tolist(), metric_keys, finite)
            ):
                kind = p.classifier_kind
                if (
                    templated
                    and self.plain
                    and p.error is None
                    and type(p.seed) is int
                    and type(p.size) is int
                    and type(kind) is str
                ):
                    if kind not in quoted:
                        quoted[kind] = json.dumps(kind)
                    if key != last_key:
                        last_key, text = key, _METRIC_BLOCK % tuple(metrics[i].tolist())
                    yield _LINE % (
                        knob_text[a], knob_text[b], quoted[kind], knob_text[g], text,
                        p.seed, p.size, knob_text[t],
                    )
                else:
                    yield json.dumps(p.to_dict(), sort_keys=True)

    def front(self) -> tuple[EvaluationPoint, ...]:
        """pareto_front's points, ascending by (mcc_loss, di_loss)."""
        rows = np.flatnonzero(~np.isnan(self.numbers[:, _COMBINED]))
        if not len(rows):
            return ()
        keys = (_THRESHOLD, _GAMMA, _BETA, _ALPHA, _COMBINED, _DI_LOSS, _MCC_LOSS)
        order = rows[np.lexsort([self.numbers[rows, key] for key in keys])]
        m, d = self.numbers[order, _MCC_LOSS], self.numbers[order, _DI_LOSS]
        same_m = m[1:] == m[:-1]
        # a point repeating the previous point's coordinates is dropped
        repeat = np.concatenate([[False], same_m & (d[1:] == d[:-1])])
        # lowest di_loss over the points with strictly smaller mcc_loss:
        # the running minimum up to the point before its group's first
        group_start = np.maximum.accumulate(
            np.where(np.concatenate([[True], ~same_m]), np.arange(len(m)), 0)
        )
        running = np.minimum.accumulate(d)
        lowest = np.where(group_start > 0, running[group_start - 1], np.inf)
        return tuple(self[i] for i in order[~repeat & (d <= lowest)].tolist())


# ---------------------------------------------------------------------------
# evaluation

def _threshold_columns(
    thresholds: list[tuple[float, ...]],
    memo: dict[tuple[tuple[float, ...], ...], tuple[np.ndarray, ...]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted union of the tasks' thresholds, a (task, union) mask of
    each task's own thresholds, and the union column of each task's first.

    Tasks mostly share a tuple (level 0's grid, a level-1 winner's
    refinement), so each distinct tuple is looked up once; and blocks of
    tasks mostly share a set of distinct tuples, whose columns memo
    keeps across calls.
    """
    distinct: dict[tuple[float, ...], int] = {}
    rows = [distinct.setdefault(ts, len(distinct)) for ts in thresholds]
    key = tuple(distinct)
    memo = {} if memo is None else memo
    if key not in memo:
        values = [np.asarray(ts, dtype=float) for ts in key]
        union = np.unique(np.concatenate(values))
        member = np.zeros((len(key), len(union)), dtype=bool)
        first = np.empty(len(key), dtype=np.int64)
        for row, ts in enumerate(values):
            cols = np.searchsorted(union, ts)
            member[row, cols] = True
            first[row] = cols[0]
        memo[key] = union, member, first
    union, member, first = memo[key]
    return union, member[rows], first[rows]


# the longest union binned by counting comparisons: each threshold costs
# the counting one pass over the scores, while searchsorted's cost grows
# with the log of the union; on 1,502 x 32 scores the two cross between
# 200 and 280 thresholds
_COUNTED_UNION = 200


def _above(union: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Per score, how many thresholds of a sorted union of distinct,
    non-NaN thresholds lie above it: len(union) - np.searchsorted(union,
    scores, side="right"). No threshold lies above a NaN score, as
    searchsorted places NaN after every value.

    Up to _COUNTED_UNION thresholds, it counts the comparisons
    score < u, one pass a threshold, in the smallest unsigned type that
    holds len(union).
    """
    if len(union) > _COUNTED_UNION:
        return len(union) - np.searchsorted(union, scores, side="right")
    below = np.empty(scores.shape, dtype=bool)
    count = np.zeros(scores.shape, dtype=np.min_scalar_type(len(union)))
    for u in union.tolist():
        count += np.less(scores, u, out=below)
    return count


class _ThresholdSweep:
    """Best-threshold selection over one evaluation set, a block of tasks
    at a time.

    Each call scores the K columns of an (N_eval, K) score matrix, one
    per task, against the sorted union of the tasks' thresholds. Every
    score is binned once against that union; a bincount by (task,
    quadrant category, bin) and a reverse cumulative sum over bins give,
    for every task and union threshold, the rows of each category with
    score >= threshold, so the confusion numbers are exactly what
    explicit thresholding would produce. The combined loss of the whole
    (K, union) grid comes from metrics.report_columns, the arithmetic
    every report is built with, so the argmin agrees with a
    report-by-report comparison; thresholds a task did not ask for never
    win. The sweep returns counts, not reports: the evaluator builds
    each task's report from them.
    """

    def __init__(self, d_eval: Dataset, weights: LossWeights):
        privileged = d_eval.privileged
        actual = d_eval.unfavourable
        self.category = privileged.astype(np.int64) * 2 + actual.astype(np.int64)
        totals = np.bincount(self.category, minlength=4)
        self.positives = int(totals[1] + totals[3])
        self.negatives = int(totals[0] + totals[2])
        self.p_total = int(totals[2] + totals[3])
        self.up_total = int(totals[0] + totals[1])
        # the smallest integer type that holds any count of the set
        self.count_type = np.min_scalar_type(len(actual))
        self.weights = weights
        # _threshold_columns of each distinct set of tuples met so far
        self.columns: dict[tuple[tuple[float, ...], ...], tuple[np.ndarray, ...]] = {}

    def choose(
        self, scores: np.ndarray, thresholds: list[tuple[float, ...]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per task, the winning threshold and its counts: a (K,) float
        array and a (K, 6) int64 array of _COUNT_COLUMNS.

        Column k of scores belongs to the task whose thresholds are
        thresholds[k]. The lowest threshold wins ties; a task keeps its
        first threshold when no threshold has a finite loss or either
        privilege group is missing from the evaluation set (in which
        case building its report raises InputError).
        """
        k = len(thresholds)
        union, member, first = _threshold_columns(thresholds, self.columns)
        width = len(union) + 1
        # key = (task * 4 + category) * width + bin, where bin b holds
        # scores in [union[b-1], union[b]), so score >= union[u] iff b > u;
        # a score's bin is len(union) less the thresholds above it
        keys = (self.category * width + len(union))[:, None] + np.arange(k) * (4 * width)
        keys -= _above(union, scores)
        counts = np.bincount(keys.ravel(), minlength=k * 4 * width).reshape(k, 4, width)
        # positive[k, c, u] = rows of category c with score >= union[u]
        positive = counts[:, :, ::-1].cumsum(axis=2)[:, :, ::-1][:, :, 1:]
        tp = positive[:, 1] + positive[:, 3]
        fp = positive[:, 0] + positive[:, 2]
        grid = np.stack(
            [
                tp,
                fp,
                self.negatives - fp,
                self.positives - tp,
                positive[:, 2] + positive[:, 3],
                positive[:, 0] + positive[:, 1],
            ],
            axis=-1,
        )
        choice = first
        if self.p_total > 0 and self.up_total > 0:
            combined = self.report_fields(grid)[-1]
            masked = np.where(member & np.isfinite(combined), combined, np.inf)
            found = np.isfinite(masked).any(axis=1)
            choice = np.where(found, masked.argmin(axis=1), first)
        return union[choice], grid[np.arange(k), choice]

    def report_fields(self, counts: np.ndarray) -> tuple[np.ndarray, ...]:
        """metrics.report_columns over counts (..., 6) of _COUNT_COLUMNS."""
        tp, fp, tn, fn, p_positive, up_positive = np.moveaxis(counts, -1, 0)
        return report_columns(
            tp, fp, tn, fn, p_positive, self.p_total, up_positive, self.up_total, self.weights
        )


# the counts a chunk returns per task, in column order
_COUNT_COLUMNS = ("tp", "fp", "tn", "fn", "p_positive", "up_positive")
# tasks scored and swept together: a chunk-wide (N_eval, chunk) score
# matrix would add to the chunk's peak memory for no change in results
_SWEEP_BLOCK = 32
# tasks drawn and fitted together, a worker's unit; results do not depend on it
_CHUNK = 256

# a task's outcome in a chunk: scored, or why it has no report
_OK, _INFEASIBLE, _SINGLE_LABEL, _TRAINING_ERROR = range(4)

# a task without a report: its outcome code and error text
Failure = tuple[int, str]
# the error text of a linear fit whose weights are not all finite
_DIVERGED = "the linear fit diverged: its weights are not finite; lower learning_rate"


class _ChunkTable(NamedTuple):
    """A chunk's results, one row per task: all a worker sends back.

    A scored task has outcome _OK, its chosen union threshold and its
    counts; any other task has its first threshold, zero counts and an
    index into the chunk's distinct error texts.
    """

    outcome: np.ndarray  # int8
    error: np.ndarray  # int32 index into errors, -1 for none
    errors: tuple[str, ...]
    threshold: np.ndarray  # float64
    counts: np.ndarray  # (K, 6) of _COUNT_COLUMNS, in the sweep's count_type
    fits: np.ndarray | None  # the scored tasks' fits, in task order


def _chunk_table(
    sweep: _ThresholdSweep,
    chunk: list[Task],
    failures: list[Failure | None],
    blocks: Iterable[tuple[list[int], np.ndarray]],
    fits: np.ndarray | None = None,
) -> _ChunkTable:
    """A chunk's table: sweep.choose on each block of (task indices,
    (N_eval, B) scores), then per task its failure (None: scored), read
    once the blocks are used up, so a route may add one as it scores."""
    threshold = np.array([thresholds[0] for _, thresholds, _ in chunk], dtype=float)
    counts = np.zeros((len(chunk), len(_COUNT_COLUMNS)), dtype=sweep.count_type)
    for tasks, scores in blocks:
        threshold[tasks], counts[tasks] = sweep.choose(scores, [chunk[k][1] for k in tasks])
    texts: dict[str, int] = {}
    outcome = np.zeros(len(chunk), dtype=np.int8)
    error = np.full(len(chunk), -1, dtype=np.int32)
    for k, failure in enumerate(failures):
        if failure is not None:
            outcome[k] = failure[0]
            error[k] = texts.setdefault(failure[1], len(texts))
    return _ChunkTable(outcome, error, tuple(texts), threshold, counts, fits)


def _chunk_points(
    chunk: list[Task],
    table: _ChunkTable,
    sweep: _ThresholdSweep,
    kind: str,
    size: int,
    numbers: np.ndarray,
) -> tuple[list[EvaluationPoint], bool]:
    """The points of a chunk's tasks, built from its table, and whether
    their numbers are plain (see _Level); numbers, NaN on entry, receives
    their rows of _Level.numbers. Each point holds its task's own
    BalanceParams."""
    knobs = [_KNOBS(params) for params, _, _ in chunk]
    numbers[:, :3] = knobs
    numbers[:, _THRESHOLD] = table.threshold
    reports: list[MetricReport | None] = [None] * len(chunk)
    scored = np.flatnonzero(table.outcome == _OK)
    if len(scored):
        fields = sweep.report_fields(table.counts[scored].astype(np.int64))
        numbers[scored, 3:_THRESHOLD] = np.column_stack([fields[i] for i in _SORTED_METRICS])
        for k, report in zip(scored.tolist(), reports_from_columns(fields)):
            reports[k] = report
    errors = [None if e < 0 else table.errors[e] for e in table.error.tolist()]
    points = [
        EvaluationPoint(
            params=params,
            threshold=threshold,
            classifier_kind=kind,
            report=report,
            size=size,
            seed=seed,
            error=error,
        )
        for (params, _, seed), threshold, report, error in zip(
            chunk, table.threshold.tolist(), reports, errors
        )
    ]
    return points, set(map(type, itertools.chain.from_iterable(knobs))) <= {float}


def _draw_chunk(
    d_train: Dataset, chunk: list[Task], size: int
) -> tuple[np.ndarray, list[Failure | None]]:
    """The samples of a chunk's tasks in one pass (balance.plan_ratios,
    balance.draw_samples): the rows of those that hold both labels, in
    task order, and per task None or its failure, _INFEASIBLE or
    _SINGLE_LABEL."""
    ratios, infeasible = plan_ratios(quadrant_counts(d_train), [params for params, _, _ in chunk])
    failures: list[Failure | None] = [
        None if reason is None else (_INFEASIBLE, reason) for reason in infeasible
    ]
    planned = [k for k, failure in enumerate(failures) if failure is None]
    rows, short = draw_samples(d_train, ratios[planned], [chunk[k][2] for k in planned], size)
    for k, reason in zip(planned, short):
        if reason is not None:
            failures[k] = (_INFEASIBLE, reason)
    drawn = [k for k in planned if failures[k] is None]
    ones = np.count_nonzero(d_train.unfavourable[rows], axis=1)
    two_labels = (ones != 0) & (ones != size)
    for k, both in zip(drawn, two_labels.tolist()):
        if not both:
            failures[k] = (_SINGLE_LABEL, SINGLE_LABEL_TEXT)
    return rows[two_labels], failures


# a task's linear fit in the raw feature basis, (w_raw..., b_raw), or
# the failure of a task that has none, keyed by (params, seed)
Fits = dict[tuple[BalanceParams, int], "np.ndarray | Failure"]


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where the fork start
    method is missing; a level runs its chunks on at most this many
    worker processes."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the chunk runner of the pool this worker process was forked for
_worker_run: Callable[[int], Any] | None = None


def _start_worker(run: Callable[[int], Any]) -> None:
    global _worker_run
    _worker_run = run


def _run_in_worker(index: int) -> Any:
    return _worker_run(index)


@contextlib.contextmanager
def _chunk_results(run: Callable[[int], Any], count: int) -> Iterator[Iterator[Any]]:
    """run(0), ..., run(count - 1), in order, each as soon as it and
    the ones before it are done.

    With more than one chunk and more than one usable CPU, the chunks
    run in a pool of up to one forked worker process per CPU. The
    workers inherit run, and with it everything the evaluator has built,
    so only chunk indices go out and results come back. The pool lives
    for the with block, so no worker outlives it, also when a chunk
    raises; a worker's exception reaches the caller with its own type.
    """
    workers = min(_usable_cpus(), count)
    if workers <= 1:
        yield map(run, range(count))
        return
    # imported here, so that a run that never forks does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        workers, mp_context=context, initializer=_start_worker, initargs=(run,)
    ) as pool:
        yield pool.map(_run_in_worker, range(count))


def _batched_linear(
    d_train: Dataset,
    d_eval: Dataset,
    template: _GradientDescent,
    size: int,
    sweep: _ThresholdSweep,
    reuse_fits: Fits | None,
) -> Callable[[list[Task]], _ChunkTable]:
    """Linear (logistic, svm) evaluation of a chunk of tasks through one
    batched fit with template's settings and loss.

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
    keeps its recorded failure) without drawing or fitting; a chunk's
    table carries the fits of its scored tasks.
    """
    pipeline = FeaturePipeline().fit(d_train)
    train_matrix = pipeline.encode(d_train)
    eval_matrix = pipeline.encode(d_eval)
    width = train_matrix.shape[1]
    one_hot_columns = np.zeros(width, dtype=bool)
    for start, stop in pipeline.categorical_blocks():
        one_hot_columns[start:stop] = True
    train_labels = d_train.unfavourable.astype(float)
    # fit_logistic_batch's settings after the stacks, in its order
    descent = (template.learning_rate, template.l2, template.max_iter, template.tol, template.hinge)
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
        # a descent that diverges overflows to inf and NaN on its way:
        # run_chunk turns its fit into a failure, so no warning is due
        with np.errstate(over="ignore", invalid="ignore"):
            w, b, _ = fit_logistic_batch(xs, ys, *descent)
            coef = np.empty((len(rows), width + 1))
            coef[:, :width] = w / std
            coef[:, width] = b - np.sum(w * mean / std, axis=1)
        return coef

    def run_chunk(chunk: list[Task]) -> _ChunkTable:
        # per task: a recorded fit or failure, or None until it is fitted
        outcomes: list[np.ndarray | Failure | None] = [
            known.get((params, seed)) for params, _, seed in chunk
        ]
        fresh = [k for k, outcome in enumerate(outcomes) if outcome is None]
        if fresh:
            rows, failures = _draw_chunk(d_train, [chunk[k] for k in fresh], size)
            coefs = fit_samples(rows) if len(rows) else np.empty((0, width + 1))
            fitted = zip(coefs, np.isfinite(coefs).all(axis=1).tolist())
            for k, failure in zip(fresh, failures):
                if failure is None:
                    coef, finite = next(fitted)
                    failure = None if finite else (_TRAINING_ERROR, _DIVERGED)
                outcomes[k] = coef if failure is None else failure
        failures = [o if isinstance(o, tuple) else None for o in outcomes]
        scored = [k for k, failure in enumerate(failures) if failure is None]
        fits = np.array([outcomes[k] for k in scored]).reshape(len(scored), width + 1)

        def blocks() -> Iterator[tuple[list[int], np.ndarray]]:
            for start in range(0, len(scored), _SWEEP_BLOCK):
                block = fits[start : start + _SWEEP_BLOCK]
                scores = _sigmoid_scores(eval_matrix @ block[:, :width].T + block[:, width])
                yield scored[start : start + _SWEEP_BLOCK], scores

        return _chunk_table(sweep, chunk, failures, blocks(), fits)

    return run_chunk


def _eval_matrices(d_train: Dataset, d_eval: Dataset) -> Callable[[FeaturePipeline], np.ndarray]:
    """A function from a pipeline fitted on a sample of d_train to its
    transform of d_eval, bit for bit, from one encoding of d_eval.

    d_eval is encoded once with the training split's pipeline, as in
    _batched_linear. A sample's categories are a sorted subset of the
    split's, so the columns of its own categories are its own one-hot
    blocks (FeaturePipeline.columns_in), and its numeric columns are
    standardised by transform's own expression (standardise).
    """
    split = FeaturePipeline().fit(d_train)
    encoded = split.encode(d_eval)

    def transform(pipeline: FeaturePipeline) -> np.ndarray:
        return pipeline.standardise(encoded.take(pipeline.columns_in(split), axis=1))

    return transform


def _fitted_each(
    d_train: Dataset,
    d_eval: Dataset,
    spec: ClassifierSpec,
    size: int,
    sweep: _ThresholdSweep,
) -> Callable[[list[Task]], _ChunkTable]:
    """Evaluation of a chunk of tasks by fitting each two-label sample
    through classifiers.fit_each, which grows a chunk's forests together.

    Each model is scored as soon as it is fitted, and dropped: its
    estimator scores its pipeline's matrix of the evaluation set, built
    by _eval_matrices from one encoding of that set. Its scores, checked
    by checked_scores, go to the sweep with up to _SWEEP_BLOCK other
    tasks' at a time. A model that fails to fit or to score leaves its
    task a _TRAINING_ERROR.
    """
    eval_matrix = _eval_matrices(d_train, d_eval)

    def run_chunk(chunk: list[Task]) -> _ChunkTable:
        rows, failures = _draw_chunk(d_train, chunk, size)
        fitted = [k for k, failure in enumerate(failures) if failure is None]

        def blocks() -> Iterator[tuple[list[int], np.ndarray]]:
            tasks, columns = [], []
            for i, model in fit_each(spec, (d_train.take(sample) for sample in rows)):
                try:
                    if isinstance(model, TrainingError):
                        raise model
                    x = eval_matrix(model.pipeline)
                    columns.append(checked_scores(spec.kind, model.estimator.predict_scores(x), len(x)))
                    tasks.append(fitted[i])
                except TrainingError as exc:
                    failures[fitted[i]] = (_TRAINING_ERROR, str(exc))
                if len(tasks) == _SWEEP_BLOCK:
                    yield tasks, np.column_stack(columns)
                    tasks, columns = [], []
            if tasks:
                yield tasks, np.column_stack(columns)

        return _chunk_table(sweep, chunk, failures, blocks())

    return run_chunk


def make_model_evaluator(
    d_train: Dataset,
    d_eval: Dataset,
    spec: ClassifierSpec,
    weights: LossWeights,
    size: int,
    keep_fits: Fits | None = None,
    reuse_fits: Fits | None = None,
) -> Evaluator:
    """The real evaluator: sample, train, score, pick the threshold.

    Tasks run in chunks of _CHUNK through one pipeline. _draw_chunk
    draws a chunk's samples in one pass and turns a plan or quota that
    does not fit, or a sample of one label, into the task's failure. The
    route then fits the two-label samples and scores them: linear
    (logistic, svm) specs, numeric or categorical, through the batched
    descent kernel (_batched_linear), every other kind through
    classifiers.fit_each, which grows a chunk's forests together
    (_fitted_each). _chunk_table sweeps the scores a block of tasks at a
    time and returns the chunk's _ChunkTable of counts, outcome codes
    and error indices, never point objects; evaluate builds every point
    from its task and its table row (_chunk_points). A call with several
    chunks runs them on worker processes, one per usable CPU at most
    (_chunk_results), and merges their tables in chunk order, so results
    depend neither on the chunk size nor on the number of workers.

    For linear (logistic, svm) specs, keep_fits collects each task's
    fit (or failure) and reuse_fits supplies fits to re-score instead of
    drawing and training again; a recorded fit is valid only for the
    same training split, spec and size. Other kinds ignore both.
    """
    check_int(size, "sample size", 1)
    sweep = _ThresholdSweep(d_eval, weights)
    template = build_estimator(spec)
    if isinstance(template, _GradientDescent):
        run_chunk = _batched_linear(d_train, d_eval, template, size, sweep, reuse_fits)
    else:
        run_chunk = _fitted_each(d_train, d_eval, spec, size, sweep)

    def evaluate(tasks: list[Task]) -> list[EvaluationPoint]:
        chunks = [tasks[start : start + _CHUNK] for start in range(0, len(tasks), _CHUNK)]

        def run(index: int) -> _ChunkTable:
            table = run_chunk(chunks[index])
            return table if keep_fits is not None else table._replace(fits=None)

        points: list[EvaluationPoint] = []
        numbers = np.full((len(tasks), _THRESHOLD + 1), np.nan)
        plain = True
        with _chunk_results(run, len(chunks)) as results:
            for chunk, table in zip(chunks, results):
                rows = numbers[len(points) : len(points) + len(chunk)]
                built, chunk_plain = _chunk_points(chunk, table, sweep, spec.kind, size, rows)
                points.extend(built)
                plain = plain and chunk_plain
                if table.fits is not None:
                    fits = iter(table.fits)
                    for (params, _, seed), code, error in zip(
                        chunk, table.outcome.tolist(), table.error.tolist()
                    ):
                        keep_fits[(params, seed)] = (
                            next(fits) if code == _OK else (code, table.errors[error])
                        )
        return _Level(points, numbers, plain)

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


def _emit(points: list[EvaluationPoint], sink: Sink | None) -> _Level:
    """The level's points in sort_key order, each passed to sink with
    its line on the way."""
    ordered = _Level.of(points)
    ordered.sort_by_key()
    if sink is not None:
        for p, line in zip(ordered, ordered.lines()):
            sink(p, line)
    return ordered


def _tasks(
    cells: Iterable[tuple[tuple[int, int, int], tuple[float, ...]]], denom: int, seed: int
) -> list[Task]:
    """The task of each (fine-lattice cell, thresholds): the cell's
    knobs, its thresholds and the sampling seed of its coordinates."""
    return [
        (BalanceParams(a / denom, b / denom, g / denom), thresholds, point_seed(seed, a, b, g))
        for (a, b, g), thresholds in cells
    ]


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
    cells = ((cell, grid.thresholds) for cell in itertools.product(axis, repeat=3))
    return _emit(evaluate(_tasks(cells, grid.fine_denominator, seed)), sink)


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
    return _emit(evaluate(_tasks(sorted(wanted.items()), denom, seed)), sink)


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
    decides every point in O(n log n). The sort is one np.lexsort on
    (mcc_loss, di_loss) then sort_key's columns, and the running minimum
    one np.minimum.accumulate.
    """
    return ParetoFront(points=_Level.of(points).front())


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
    pick the optimum under the grid's weights. For linear (logistic,
    svm) specs, level 1 re-scores level 0's fits instead of fitting
    its points again.

    With no valid level-0 point the fine level is skipped and the
    result carries an empty front and no best point; callers decide
    whether that deserves a warning or an error.
    """
    if size is None:
        size = _common_size(d_train, grid)
    fits: Fits = {}  # level 0's linear (logistic, svm) fits, re-scored at level 1
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

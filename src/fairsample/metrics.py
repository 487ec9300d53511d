"""Fairness and performance metrics for binary predictions.

The positive class throughout is the unfavourable label. Disparate
impact and MCC can be genuinely undefined (a zero denominator); that is
carried as None, never as a silent 0 or a float NaN, and only turns into
the string "NaN" when a table is rendered.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import InputError, check_number

DI_ACCEPTABLE = (0.8, 1.2)


@dataclass(frozen=True)
class ConfusionCounts:
    """Counts with the unfavourable label as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise InputError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class GroupedPredictions:
    """Per-record predictions with privilege-group membership."""

    privileged: np.ndarray
    actual: np.ndarray  # True = unfavourable
    predicted: np.ndarray  # True = predicted unfavourable

    def __post_init__(self):
        n = len(self.actual)
        if len(self.privileged) != n or len(self.predicted) != n:
            raise InputError("prediction arrays disagree on length")
        if n == 0:
            raise InputError("cannot score an empty prediction set")


def confusion(g: GroupedPredictions) -> ConfusionCounts:
    a, p = g.actual, g.predicted
    return ConfusionCounts(
        tp=int(np.count_nonzero(a & p)),
        fp=int(np.count_nonzero(~a & p)),
        tn=int(np.count_nonzero(~a & ~p)),
        fn=int(np.count_nonzero(a & ~p)),
    )


def di_ratio(g: GroupedPredictions) -> float | None:
    """Unprivileged predicted-unfavourable rate over the privileged one.

    1 means both groups receive the unfavourable outcome at the same
    rate. Undefined (None) when the privileged group has rate 0. Both
    groups must be present.
    """
    n_p = int(np.count_nonzero(g.privileged))
    n_up = len(g.privileged) - n_p
    if n_p == 0 or n_up == 0:
        raise InputError("disparate impact needs both privilege groups present")
    rate_p = np.count_nonzero(g.predicted & g.privileged) / n_p
    rate_up = np.count_nonzero(g.predicted & ~g.privileged) / n_up
    if rate_p == 0.0:
        return None
    return rate_up / rate_p


def mcc(c: ConfusionCounts) -> float | None:
    """Matthews correlation; None when any confusion marginal is zero."""
    den2 = (
        (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    )
    if den2 == 0:
        return None
    return (c.tp * c.tn - c.fp * c.fn) / math.sqrt(den2)


def basic_metrics(c: ConfusionCounts) -> tuple[float, float, float, float]:
    """(accuracy, precision, recall, f1); zero-denominator entries are 0."""
    if c.total == 0:
        raise InputError("empty confusion matrix")
    accuracy = (c.tp + c.tn) / c.total
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return accuracy, precision, recall, f1


def di_loss(di: float | None) -> float | None:
    return None if di is None else abs(1.0 - di)


def mcc_loss(m: float | None) -> float | None:
    return None if m is None else abs(1.0 - m)


@dataclass(frozen=True)
class LossWeights:
    """Non-negative weights of the two loss terms, not both zero."""

    c_mcc: float = 1.0
    c_di: float = 1.0

    def __post_init__(self):
        check_number(self.c_mcc, "c_mcc", 0.0, ends="[)")
        check_number(self.c_di, "c_di", 0.0, ends="[)")
        if self.c_mcc == 0 and self.c_di == 0:
            raise InputError("at least one loss weight must be positive")


def combined_loss(
    m_loss: float | None, d_loss: float | None, weights: LossWeights = LossWeights()
) -> float | None:
    """Weighted sum of the two losses; undefined if either is."""
    if m_loss is None or d_loss is None:
        return None
    return weights.c_mcc * m_loss + weights.c_di * d_loss


def di_acceptable(di: float | None, band: tuple[float, float] = DI_ACCEPTABLE) -> bool | None:
    """Whether DI sits inside the acceptable band; None if DI is undefined."""
    if di is None:
        return None
    lo, hi = band
    return lo <= di <= hi


@dataclass(frozen=True)
class MetricReport:
    """Everything measured about one prediction set."""

    di_ratio: float | None
    mcc: float | None
    accuracy: float
    precision: float
    recall: float
    f1: float
    di_loss: float | None
    mcc_loss: float | None
    combined_loss: float | None

    def to_dict(self) -> dict:
        return {
            "di_ratio": self.di_ratio,
            "mcc": self.mcc,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "di_loss": self.di_loss,
            "mcc_loss": self.mcc_loss,
            "combined_loss": self.combined_loss,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricReport":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__})


def report_from_counts(
    c: ConfusionCounts,
    p_positive: int,
    p_total: int,
    up_positive: int,
    up_total: int,
    weights: LossWeights = LossWeights(),
) -> MetricReport:
    """Build a full report from aggregate counts.

    p/up arguments are the predicted-unfavourable and total counts of
    the privileged and unprivileged groups. This is the single place
    the report arithmetic lives; metric_report and the vectorised
    threshold sweep both come through here.
    """
    if p_total == 0 or up_total == 0:
        raise InputError("disparate impact needs both privilege groups present")
    rate_p = p_positive / p_total
    di = None if rate_p == 0.0 else (up_positive / up_total) / rate_p
    m = mcc(c)
    accuracy, precision, recall, f1 = basic_metrics(c)
    d_loss = di_loss(di)
    m_loss = mcc_loss(m)
    return MetricReport(
        di_ratio=di,
        mcc=m,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        di_loss=d_loss,
        mcc_loss=m_loss,
        combined_loss=combined_loss(m_loss, d_loss, weights),
    )


def metric_report(g: GroupedPredictions, weights: LossWeights = LossWeights()) -> MetricReport:
    c = confusion(g)
    priv = g.privileged
    return report_from_counts(
        c,
        p_positive=int(np.count_nonzero(g.predicted & priv)),
        p_total=int(np.count_nonzero(priv)),
        up_positive=int(np.count_nonzero(g.predicted & ~priv)),
        up_total=int(np.count_nonzero(~priv)),
        weights=weights,
    )


def render(value: float | None, places: int) -> str:
    """Format one table cell; undefined renders as NaN."""
    if value is None:
        return "NaN"
    return f"{value:.{places}f}"

"""Metrics tests. MCC is checked against a Pearson-correlation oracle."""
from __future__ import annotations

import numpy as np
import pytest

from fairsample.base import InputError
from fairsample.metrics import (
    ConfusionCounts,
    GroupedPredictions,
    LossWeights,
    MetricReport,
    basic_metrics,
    combined_loss,
    confusion,
    di_loss,
    di_ratio,
    mcc,
    mcc_loss,
    metric_report,
    render,
    report_columns,
    report_from_counts,
    reports_from_columns,
)


def grouped(n_p, pred_p, n_up, pred_up, actual_p=None, actual_up=None):
    """Build a prediction set with the given per-group predicted counts."""
    priv = np.array([True] * n_p + [False] * n_up)
    pred = np.array(
        [i < pred_p for i in range(n_p)] + [i < pred_up for i in range(n_up)]
    )
    if actual_p is None:
        actual = pred.copy()
    else:
        actual = np.array(
            [i < actual_p for i in range(n_p)] + [i < actual_up for i in range(n_up)]
        )
    return GroupedPredictions(privileged=priv, actual=actual, predicted=pred)


def vectors_from_confusion(c: ConfusionCounts):
    actual = np.array([1] * c.tp + [0] * c.fp + [0] * c.tn + [1] * c.fn, dtype=float)
    predicted = np.array([1] * c.tp + [1] * c.fp + [0] * c.tn + [0] * c.fn, dtype=float)
    return actual, predicted


# ---------------------------------------------------------------------------
# disparate impact

def test_di_example():
    g = grouped(n_p=100, pred_p=8, n_up=100, pred_up=10)
    assert di_ratio(g) == pytest.approx(1.25, abs=1e-12)


def test_di_equal_rates_is_one():
    g = grouped(n_p=50, pred_p=5, n_up=200, pred_up=20)
    assert di_ratio(g) == pytest.approx(1.0, abs=1e-12)


def test_di_undefined_when_privileged_rate_zero():
    g = grouped(n_p=100, pred_p=0, n_up=100, pred_up=10)
    assert di_ratio(g) is None


def test_di_zero_when_unprivileged_rate_zero():
    g = grouped(n_p=100, pred_p=10, n_up=100, pred_up=0)
    assert di_ratio(g) == 0.0


def test_di_needs_both_groups():
    with pytest.raises(InputError):
        di_ratio(
            GroupedPredictions(
                privileged=np.array([True, True]),
                actual=np.array([True, False]),
                predicted=np.array([True, False]),
            )
        )


def test_empty_predictions_rejected():
    with pytest.raises(InputError):
        GroupedPredictions(
            privileged=np.array([], dtype=bool),
            actual=np.array([], dtype=bool),
            predicted=np.array([], dtype=bool),
        )


# ---------------------------------------------------------------------------
# mcc

def test_mcc_perfect_and_inverted():
    assert mcc(ConfusionCounts(tp=10, fp=0, tn=10, fn=0)) == pytest.approx(1.0)
    assert mcc(ConfusionCounts(tp=0, fp=10, tn=0, fn=10)) == pytest.approx(-1.0)


def test_mcc_balanced_random_is_zero():
    assert mcc(ConfusionCounts(tp=25, fp=25, tn=25, fn=25)) == pytest.approx(0.0)


def test_mcc_matches_phi_oracle():
    rng = np.random.default_rng(41)
    defined = 0
    for _ in range(500):
        c = ConfusionCounts(*[int(v) for v in rng.integers(0, 51, size=4)])
        if c.total == 0:
            continue
        got = mcc(c)
        zero_marginal = (
            c.tp + c.fp == 0 or c.tp + c.fn == 0 or c.tn + c.fp == 0 or c.tn + c.fn == 0
        )
        if zero_marginal:
            assert got is None
            continue
        defined += 1
        actual, predicted = vectors_from_confusion(c)
        phi = np.corrcoef(actual, predicted)[0, 1]
        assert got == pytest.approx(phi, abs=1e-12)
        assert -1.0 <= got <= 1.0
    assert defined > 300


def test_mcc_large_counts_stay_finite():
    c = ConfusionCounts(tp=900_000, fp=120_000, tn=2_000_000, fn=80_000)
    v = mcc(c)
    assert v is not None and -1.0 < v < 1.0


# ---------------------------------------------------------------------------
# basic metrics

def test_basic_metrics_hand_case():
    c = ConfusionCounts(tp=6, fp=2, tn=10, fn=2)
    accuracy, precision, recall, f1 = basic_metrics(c)
    assert accuracy == pytest.approx(16 / 20)
    assert precision == pytest.approx(6 / 8)
    assert recall == pytest.approx(6 / 8)
    assert f1 == pytest.approx(0.75)


def test_basic_metrics_zero_denominators():
    c = ConfusionCounts(tp=0, fp=0, tn=10, fn=5)
    accuracy, precision, recall, f1 = basic_metrics(c)
    assert (precision, recall, f1) == (0.0, 0.0, 0.0)
    assert accuracy == pytest.approx(10 / 15)
    with pytest.raises(InputError):
        basic_metrics(ConfusionCounts(0, 0, 0, 0))


# ---------------------------------------------------------------------------
# losses

def test_loss_definitions():
    assert di_loss(1.25) == pytest.approx(0.25)
    assert di_loss(0.9) == pytest.approx(0.1)
    assert mcc_loss(-0.5) == pytest.approx(1.5)
    assert di_loss(None) is None
    assert mcc_loss(None) is None


def test_combined_loss_reference_rows():
    # frozen (mcc, di, combined loss) triples, rounded to 3 decimals
    rows = [(0.121, 1.001, 0.880), (0.164, 0.995, 0.841), (0.167, 0.990, 0.842)]
    for m, di, reference in rows:
        got = combined_loss(mcc_loss(m), di_loss(di))
        assert abs(got - reference) <= 0.001 + 1e-12


def test_combined_loss_undefined_propagates():
    assert combined_loss(None, 0.2) is None
    assert combined_loss(0.2, None) is None


def test_combined_loss_weights():
    w = LossWeights(c_mcc=2.0, c_di=0.5)
    assert combined_loss(0.4, 0.2, w) == pytest.approx(0.9)
    with pytest.raises(InputError):
        LossWeights(-1.0, 1.0)
    with pytest.raises(InputError):
        LossWeights(0.0, 0.0)


# ---------------------------------------------------------------------------
# report assembly

def test_metric_report_end_to_end():
    g = grouped(n_p=100, pred_p=8, n_up=100, pred_up=10, actual_p=10, actual_up=10)
    report = metric_report(g)
    c = confusion(g)
    assert (c.tp, c.fp, c.tn, c.fn) == (18, 0, 180, 2)
    assert report.di_ratio == pytest.approx(1.25)
    assert report.di_loss == pytest.approx(0.25)
    assert report.accuracy == pytest.approx(198 / 200)
    assert report.precision == pytest.approx(1.0)
    assert report.recall == pytest.approx(0.9)
    assert report.combined_loss == pytest.approx(report.mcc_loss + 0.25)


def test_report_round_trip_with_undefined():
    g = grouped(n_p=10, pred_p=0, n_up=10, pred_up=0, actual_p=2, actual_up=2)
    report = metric_report(g)
    assert report.di_ratio is None
    assert report.mcc is None
    assert report.combined_loss is None
    data = report.to_dict()
    assert data["di_ratio"] is None
    assert MetricReport.from_dict(data) == report


def scalar_report(c, p_positive, p_total, up_positive, up_total, weights=LossWeights()):
    """The report arithmetic one report at a time on Python numbers, as
    report_from_counts did it before report_columns: the reference the
    array arithmetic must equal bit for bit."""
    if p_total == 0 or up_total == 0:
        raise InputError("disparate impact needs both privilege groups present")
    rate_p = p_positive / p_total
    di = None if rate_p == 0.0 else (up_positive / up_total) / rate_p
    m = mcc(c)
    accuracy, precision, recall, f1 = basic_metrics(c)
    d_loss, m_loss = di_loss(di), mcc_loss(m)
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


def random_group_counts(rng, rows, group_sizes):
    """rows of (tp, fp, tn, fn, p_positive, up_positive) over groups of
    the given (favourable, unfavourable) sizes; empty and full
    predictions are frequent, so MCC and DI are often undefined."""
    out = []
    for _ in range(rows):
        tp = fp = p_positive = up_positive = 0
        for privileged, (n_fav, n_unfav) in zip((True, False), group_sizes):
            mode = rng.integers(4)
            take = {0: (0, 0), 1: (n_fav, n_unfav)}.get(
                int(mode), (int(rng.integers(n_fav + 1)), int(rng.integers(n_unfav + 1)))
            )
            fp += take[0]
            tp += take[1]
            if privileged:
                p_positive = take[0] + take[1]
            else:
                up_positive = take[0] + take[1]
        positives = group_sizes[0][1] + group_sizes[1][1]
        negatives = group_sizes[0][0] + group_sizes[1][0]
        out.append((tp, fp, negatives - fp, positives - tp, p_positive, up_positive))
    return out


@pytest.mark.parametrize(
    "weights", [LossWeights(), LossWeights(c_mcc=0.3, c_di=2.5), LossWeights(c_mcc=2, c_di=0)]
)
def test_report_columns_equal_the_scalar_arithmetic(weights):
    rng = np.random.default_rng(12)
    groups = [((40, 7), (13, 2)), ((3, 0), (5, 1)), ((900, 31), (90, 30)), ((1, 1), (1, 1))]
    for group_sizes in groups:
        p_total, up_total = sum(group_sizes[0]), sum(group_sizes[1])
        rows = random_group_counts(rng, 200, group_sizes)
        want = [
            scalar_report(ConfusionCounts(*r[:4]), r[4], p_total, r[5], up_total, weights).to_dict()
            for r in rows
        ]
        assert any(w["mcc"] is None for w in want) and any(w["di_ratio"] is None for w in want)
        assert any(w["combined_loss"] is not None for w in want)
        one_by_one = [
            report_from_counts(ConfusionCounts(*r[:4]), r[4], p_total, r[5], up_total, weights).to_dict()
            for r in rows
        ]
        assert one_by_one == want
        tp, fp, tn, fn, p_positive, up_positive = np.array(rows).T
        fields = report_columns(tp, fp, tn, fn, p_positive, p_total, up_positive, up_total, weights)
        assert [r.to_dict() for r in reports_from_columns(fields)] == want
        assert all(type(v) is float for w in one_by_one for v in w.values() if v is not None)


def test_report_columns_need_both_groups_and_a_non_empty_matrix():
    with pytest.raises(InputError, match="privilege groups"):
        report_columns([1], [0], [1], [0], [1], 0, [0], 2)
    with pytest.raises(InputError, match="empty"):
        report_columns([1, 0], [0, 0], [1, 0], [0, 0], [1, 0], 1, [0, 0], 1)


@pytest.mark.parametrize(
    "counts",
    [
        # 240k rows, half privileged and half unfavourable in each group,
        # classified perfectly: the MCC denominator is 2.07e20
        (120_000, 0, 120_000, 0, 60_000, 60_000, 120_000, 120_000),
        (40_000_000, 1, 50_000_000, 3, 20_000_000, 20_000_001, 45_000_000, 45_000_004),
    ],
    ids=["240k", "90m"],
)
def test_mcc_denominator_past_int64_matches_the_exact_scalar(counts):
    tp, fp, tn, fn, p_positive, up_positive, p_total, up_total = counts
    c = ConfusionCounts(tp, fp, tn, fn)
    assert (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn) > 2**63
    want = scalar_report(c, p_positive, p_total, up_positive, up_total).to_dict()
    assert report_from_counts(c, p_positive, p_total, up_positive, up_total).to_dict() == want
    assert want["mcc"] == mcc(c)
    if fp == fn == 0:
        assert want["mcc"] == 1.0


def test_render_nan_and_precision():
    assert render(None, 3) == "NaN"
    assert render(0.88, 3) == "0.880"
    assert render(1.0, 3) == "1.000"
    assert render(0.25, 2) == "0.25"

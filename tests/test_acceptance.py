"""Acceptance gate: one test per shipping criterion.

Each test announces its verdict on the real stdout so the one-line
PASS/FAIL summary survives pytest's capture. Everything before the
direction-of-effect test finishes in seconds; that one runs ten full
searches end to end and dominates the clock.
"""
from __future__ import annotations

import csv
import functools
import json
import sys
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from fairsample.balance import (
    BalanceParams,
    InfeasibleError,
    QuadrantCounts,
    bound_at,
    check_restrictions,
    compute_plan,
    materialize_sample,
    max_sample_size,
    preset_plan,
)
from fairsample.base import SearchError
from fairsample.classifiers import (
    ClassifierSpec,
    fit,
    predict_labels,
    register_kind,
)
from fairsample.cli import main
from fairsample.dataset import (
    SyntheticSpec,
    generate_synthetic,
    quadrant_counts,
    stratified_split,
)
from fairsample.metrics import (
    ConfusionCounts,
    GroupedPredictions,
    LossWeights,
    MetricReport,
    combined_loss,
    di_loss,
    mcc,
    mcc_loss,
    metric_report,
    render,
)
from fairsample.search import (
    EvaluationPoint,
    GridSpec,
    grid_search_level0,
    grid_search_level1,
    pareto_front,
    point_seed,
    select_optimal,
)

runner = CliRunner()

REFERENCE_COUNTS = QuadrantCounts(19500, 500, 1900, 100)
REFERENCE_PARAMS = BalanceParams(0.5, 0.8, 0.4)

# verdicts collected here; conftest prints them after capture ends
VERDICTS: list[tuple[int, str, str]] = []


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def criterion(number, label):
    """Record and print one PASS/FAIL line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                VERDICTS.append((number, label, "FAIL"))
                print(
                    f"criterion {number:02d} {label}: FAIL",
                    file=sys.__stdout__,
                    flush=True,
                )
                raise
            VERDICTS.append((number, label, "PASS"))
            print(
                f"criterion {number:02d} {label}: PASS",
                file=sys.__stdout__,
                flush=True,
            )
            return out

        return run

    return wrap


@criterion(1, "reference plan ratios")
def test_reference_plan_ratios():
    compute_plan(REFERENCE_COUNTS, REFERENCE_PARAMS)  # warm caches
    t0 = time.perf_counter()
    plan = compute_plan(REFERENCE_COUNTS, REFERENCE_PARAMS)
    elapsed = time.perf_counter() - t0
    rounded = (0.421, 0.284, 0.176, 0.120)
    solved = (0.42082, 0.28373, 0.17374, 0.12173)
    for got, coarse, fine in zip(plan.ratios, rounded, solved):
        assert got == pytest.approx(coarse, abs=4e-3)
        assert got == pytest.approx(fine, abs=1e-4)
    assert elapsed < 1e-3


@criterion(2, "shared sample-size bound")
def test_shared_sample_size_bound():
    t0 = time.perf_counter()
    bound = max_sample_size(REFERENCE_COUNTS, step=0.01)
    elapsed = time.perf_counter() - t0
    assert abs(bound - 394) <= 2
    assert elapsed < 5.0


@criterion(3, "materialized composition")
def test_materialized_composition_at_bound():
    d = generate_synthetic(SyntheticSpec(quadrants=REFERENCE_COUNTS.as_tuple()), seed=5)
    plan = compute_plan(REFERENCE_COUNTS, REFERENCE_PARAMS)
    sample = materialize_sample(d, plan, 394, seed=5)
    got = quadrant_counts(sample).as_tuple()
    assert sum(got) == 394
    for cell, expected in zip(got, (166, 112, 69, 47)):
        assert abs(cell - expected) <= 1


@criterion(4, "combined-loss arithmetic")
def test_combined_loss_reference_rows():
    rows = [
        (0.121, 1.001, 0.880),
        (0.164, 0.995, 0.841),
        (0.167, 0.990, 0.842),
    ]
    for m, di, expected in rows:
        got = combined_loss(mcc_loss(m), di_loss(di), LossWeights())
        # the last row lands exactly on the 0.001 boundary; the extra
        # 1e-9 only absorbs binary representation of the decimal inputs
        assert abs(got - expected) <= 1e-3 + 1e-9


@criterion(5, "constraint equations")
def test_ratios_satisfy_plan_constraints():
    rng = np.random.default_rng(12345)
    checked = 0
    while checked < 10_000:
        counts = QuadrantCounts(*(int(v) for v in rng.integers(1, 1_000_000, size=4)))
        params = BalanceParams(*(float(v) for v in rng.random(3)))
        try:
            plan = compute_plan(counts, params)
        except InfeasibleError:
            continue
        # independent float recomputation of the three blended targets
        total = sum(counts.as_tuple())
        p0 = (counts.p_f + counts.p_uf) / total
        f0 = (counts.p_f + counts.up_f) / total
        a0 = (counts.p_f / (counts.p_f + counts.p_uf)) / (
            counts.up_f / (counts.up_f + counts.up_uf)
        )
        p_t = p0 * (1 - params.alpha) + 0.5 * params.alpha
        f_t = f0 * (1 - params.beta) + 0.5 * params.beta
        a_t = a0 * (1 - params.gamma) + params.gamma
        r = plan.ratios
        assert abs(sum(r) - 1.0) < 1e-9
        assert abs(r[0] + r[1] - p_t) < 1e-9  # privileged share
        assert abs(r[0] + r[2] - f_t) < 1e-9  # favourable share
        rate_p = r[0] / (r[0] + r[1])
        rate_up = r[2] / (r[2] + r[3])
        assert abs(rate_p - a_t * rate_up) < 1e-9  # rate coupling
        assert check_restrictions(counts, plan).ok
        checked += 1


@criterion(6, "knob endpoints")
def test_knob_endpoints():
    rng = np.random.default_rng(7)
    cases = [REFERENCE_COUNTS] + [
        QuadrantCounts(*(int(v) for v in rng.integers(1, 10_000, size=4)))
        for _ in range(200)
    ]
    for counts in cases:
        total = sum(counts.as_tuple())
        identity = compute_plan(counts, BalanceParams(0.0, 0.0, 0.0))
        assert identity.ratios == tuple(v / total for v in counts.as_tuple())
        level = compute_plan(counts, BalanceParams(1.0, 1.0, 1.0))
        assert level.ratios == (0.25, 0.25, 0.25, 0.25)

    uniform = QuadrantCounts(100, 100, 100, 100)
    lattice = [i / 10 for i in range(11)]
    for a in lattice:
        for b in lattice:
            for g in lattice:
                assert compute_plan(uniform, BalanceParams(a, b, g)).ratios == (0.25,) * 4
    # the fine-lattice minimum equals 400 only if every lattice point
    # keeps all four ratios at exactly one quarter: any ratio above 1/4
    # would floor that quadrant's bound below 400
    assert max_sample_size(uniform, step=0.01) == 400


def loss_point(m_loss: float, d_loss: float) -> EvaluationPoint:
    return EvaluationPoint(
        params=BalanceParams(0.5, 0.5, 0.5),
        threshold=0.5,
        classifier_kind="stub",
        report=MetricReport(
            di_ratio=1.0 - d_loss,
            mcc=1.0 - m_loss,
            accuracy=0.5,
            precision=0.5,
            recall=0.5,
            f1=0.5,
            di_loss=d_loss,
            mcc_loss=m_loss,
            combined_loss=m_loss + d_loss,
        ),
        size=10,
        seed=0,
    )


@criterion(7, "pareto front vs oracle")
def test_front_matches_quadratic_oracle():
    rng = np.random.default_rng(99)
    weight_draws = 0
    for trial in range(1000):
        n = int(rng.integers(1, 501))
        m = rng.random(n)
        d = rng.random(n)
        if trial % 3 == 0:
            # coarse coordinates force ties and duplicates
            m = np.round(m, 1)
            d = np.round(d, 1)
        front = pareto_front([loss_point(float(m[i]), float(d[i])) for i in range(n)])
        surviving = {
            (float(m[i]), float(d[i]))
            for i in range(n)
            if not bool(np.any((m < m[i]) & (d < d[i])))
        }
        assert sorted(front.coordinates()) == sorted(surviving)
        if trial % 10 == 0:
            w_m, w_d = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
            if w_m == 0.0 and w_d == 0.0:
                w_m = 1.0
            assert select_optimal(front, LossWeights(w_m, w_d)) in front.points
            weight_draws += 1
    assert weight_draws == 100


def quartic_bowl(params: BalanceParams, t: float) -> float:
    return (
        (params.alpha - 0.34) ** 2
        + (params.beta - 0.58) ** 2
        + (params.gamma - 0.12) ** 2
        + (t - 0.41) ** 2
    )


def bowl_point(params, threshold, seed, loss) -> EvaluationPoint:
    return EvaluationPoint(
        params=params,
        threshold=threshold,
        classifier_kind="stub",
        report=MetricReport(
            di_ratio=1.0,
            mcc=1.0 - loss,
            accuracy=0.5,
            precision=0.5,
            recall=0.5,
            f1=0.5,
            di_loss=0.0,
            mcc_loss=loss,
            combined_loss=loss,
        ),
        size=50,
        seed=seed,
    )


def bowl_evaluate(tasks):
    out = []
    for params, thresholds, seed in tasks:
        best = min(thresholds, key=lambda t: (quartic_bowl(params, t), t))
        out.append(bowl_point(params, best, seed, quartic_bowl(params, best)))
    return out


@criterion(8, "search vs enumeration")
def test_search_matches_enumeration():
    t0 = time.perf_counter()
    d = generate_synthetic(SyntheticSpec(quadrants=(40, 20, 20, 20)), seed=0)
    grid = GridSpec()
    level0 = grid_search_level0(d, d, None, grid, seed=4, size=50, evaluate=bowl_evaluate)
    assert len(level0) == 11 ** 3

    expected = []
    for ai in range(11):
        for bi in range(11):
            for gi in range(11):
                params = BalanceParams(ai / 10, bi / 10, gi / 10)
                seed = point_seed(4, ai * 10, bi * 10, gi * 10)
                best = min(grid.thresholds, key=lambda t: (quartic_bowl(params, t), t))
                expected.append(bowl_point(params, best, seed, quartic_bowl(params, best)))
    expected.sort(key=EvaluationPoint.sort_key)
    assert [p.to_dict() for p in level0] == [p.to_dict() for p in expected]

    level1 = grid_search_level1(
        level0, d, d, None, grid, seed=4, size=50, evaluate=bowl_evaluate
    )
    best0 = min(p.combined for p in level0 if p.valid)
    best1 = min(p.combined for p in level1 if p.valid)
    assert best1 <= best0
    assert time.perf_counter() - t0 < 10.0


@criterion(9, "mcc properties")
def test_mcc_invariants_and_phi_oracle():
    rng = np.random.default_rng(2024)
    compared = 0
    for _ in range(1000):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 40, size=4))
        if tp + fp + tn + fn == 0:
            continue
        m = mcc(ConfusionCounts(tp, fp, tn, fn))
        transposed = mcc(ConfusionCounts(tp=tp, fp=fn, tn=tn, fn=fp))
        inverted = mcc(ConfusionCounts(tp=fn, fp=tn, tn=fp, fn=tp))
        relabelled = mcc(ConfusionCounts(tp=tn, fp=fn, tn=tp, fn=fp))
        if m is None:
            assert transposed is None and inverted is None and relabelled is None
            continue
        assert transposed == pytest.approx(m, abs=1e-12)
        assert inverted == pytest.approx(-m, abs=1e-12)
        assert relabelled == pytest.approx(m, abs=1e-12)
        actual = np.repeat([1, 1, 0, 0], [tp, fn, fp, tn])
        predicted = np.repeat([1, 0, 1, 0], [tp, fn, fp, tn])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            phi = float(np.corrcoef(actual, predicted)[0, 1])
        assert abs(phi - m) < 1e-12
        compared += 1
    assert compared > 900


BIAS_QUADRANTS = (9000, 90, 900, 30)


def parity_gap(di: float | None) -> float | None:
    return None if di is None else abs(1.0 - di)


@criterion(10, "bias responds to balancing")
def test_balancing_moves_di_toward_parity(tmp_path):
    t0 = time.perf_counter()

    # preset half. A plain-sampled model can withhold the unfavourable
    # label from the privileged group entirely; its DI is then undefined,
    # which counts as farther from parity than any defined gap.
    preset_wins = 0
    for seed in range(10):
        d = generate_synthetic(
            SyntheticSpec(quadrants=BIAS_QUADRANTS, bias=1.0), seed=seed
        )
        train, ev, _ = stratified_split(d, (0.7, 0.15, 0.15), seed=0)
        counts = quadrant_counts(train)
        gaps = {}
        for preset in ("double-balanced", "double-imbalanced"):
            plan = preset_plan(counts, preset)
            sample = materialize_sample(
                train, plan, bound_at(counts, plan.params), seed=seed
            )
            model = fit(ClassifierSpec(kind="logistic", seed=seed), sample)
            gaps[preset] = parity_gap(
                metric_report(predict_labels(model, ev, 0.5)).di_ratio
            )
        balanced, imbalanced = gaps["double-balanced"], gaps["double-imbalanced"]
        if balanced is not None and (imbalanced is None or balanced < imbalanced):
            preset_wins += 1
    assert preset_wins >= 8

    # search half: the selected optimum lands in the acceptable band
    # with positive correlation
    search_wins = 0
    cfg = tmp_path / "cfg.yaml"
    for seed in range(10):
        out = tmp_path / f"run{seed}"
        cfg.write_text(
            "dataset:\n"
            "  synthetic: {quadrants: [9000, 90, 900, 30], bias: 1.0}\n"
            "split: {fractions: [0.7, 0.15, 0.15], seed: 0}\n"
            "classifiers:\n"
            "  - {kind: logistic}\n"
            f"out: {out}\n"
        )
        result = runner.invoke(main, ["search", "--config", str(cfg), "--seed", str(seed)])
        assert result.exit_code == 0, result.output
        [row] = read_rows(out / "optimal.csv")
        if 0.8 <= float(row["di_ratio"]) <= 1.2 and float(row["mcc"]) > 0.0:
            search_wins += 1
    assert search_wins >= 8
    assert time.perf_counter() - t0 < 300.0


class NeverUnfavourable:
    """Scores every record 0, below any threshold strictly inside (0, 1)."""

    def fit(self, x, y):
        return self

    def predict_scores(self, x):
        return np.zeros(len(x))


register_kind(
    "never_unfavourable_acceptance", lambda params, seed, blocks: NeverUnfavourable()
)


@criterion(11, "degenerate quarantine")
def test_degenerate_model_quarantined(tmp_path):
    # library surface: both metrics undefined, rendered NaN, no front entry
    d = generate_synthetic(SyntheticSpec(quadrants=(60, 20, 30, 10)), seed=1)
    silent = GroupedPredictions(
        privileged=d.privileged,
        actual=d.unfavourable,
        predicted=np.zeros(len(d.privileged), dtype=bool),
    )
    report = metric_report(silent)
    assert report.mcc is None and report.di_ratio is None
    assert render(report.mcc, 3) == "NaN"
    assert render(report.di_ratio, 3) == "NaN"
    degenerate = EvaluationPoint(
        params=BalanceParams(0.5, 0.5, 0.5),
        threshold=0.5,
        classifier_kind="never_unfavourable_acceptance",
        report=report,
        size=len(d.privileged),
        seed=0,
    )
    assert not degenerate.valid
    assert len(pareto_front([degenerate])) == 0
    with pytest.raises(SearchError):
        select_optimal(pareto_front([degenerate]), LossWeights())

    # CLI surface: the degenerate member rides along without crashing the
    # search; its table cells go NaN and its front stays empty
    out = tmp_path / "mixed"
    cfg = tmp_path / "mixed.yaml"
    cfg.write_text(
        "dataset:\n"
        "  synthetic: {quadrants: [520, 60, 130, 40], bias: 1.0}\n"
        "split: {fractions: [0.6, 0.2, 0.2], seed: 3}\n"
        "grid:\n"
        "  level0_step: 0.5\n"
        "  level1_step: 0.25\n"
        "  top_k: 2\n"
        "  neighborhood: 0.25\n"
        "  thresholds: [0.25, 0.5, 0.75]\n"
        "classifiers:\n"
        "  - {kind: logistic}\n"
        "  - {kind: never_unfavourable_acceptance}\n"
        f"out: {out}\n"
        "seed: 11\n"
    )
    result = runner.invoke(main, ["search", "--config", str(cfg)])
    assert result.exit_code == 0, result.output
    assert "no valid evaluation point" in result.stderr

    rows = {row["classifier"]: row for row in read_rows(out / "optimal.csv")}
    quarantined = rows["never_unfavourable_acceptance"]
    assert quarantined["mcc"] == "NaN"
    assert quarantined["di_ratio"] == "NaN"
    assert rows["logistic"]["mcc"] != "NaN"

    front_rows = read_rows(out / "pareto_level1_never_unfavourable_acceptance.csv")
    assert front_rows == []
    stream = out / "points_never_unfavourable_acceptance.jsonl"
    points = [json.loads(line) for line in stream.read_text().splitlines()]
    assert points and all(not p["valid"] for p in points)
    assert all(p["metrics"]["mcc"] is None for p in points)

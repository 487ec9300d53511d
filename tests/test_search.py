"""Search tests.

The two-level sweep is checked against exhaustive enumeration with an
analytic stub evaluator plugged into the evaluator seam; the front
extraction against a pairwise O(n^2) dominance loop; and the model
evaluator against a task-at-a-time reference run through the public
fit/predict API.
"""
from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import pickle

import numpy as np
import pytest

import fairsample.search as search_mod
from fairsample.balance import BalanceParams, compute_plan, materialize_sample, sample_indices
from fairsample.base import InfeasibleError, InputError, SearchError, TrainingError
from fairsample.classifiers import (
    ClassifierSpec,
    fit as fit_model,
    fit_logistic_batch,
    predict_labels,
    register_kind,
)
from fairsample.dataset import (
    SYNTHETIC_SCHEMA,
    Dataset,
    FeaturePipeline,
    FeatureSpec,
    Schema,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    quadrant_counts,
    stratified_split,
)
from fairsample.metrics import (
    ConfusionCounts,
    GroupedPredictions,
    LossWeights,
    MetricReport,
    confusion,
    metric_report,
    report_from_counts,
)
from fairsample.search import (
    EvaluationPoint,
    GridSpec,
    ParetoFront,
    full_search,
    grid_search_level0,
    grid_search_level1,
    inspect_point,
    make_model_evaluator,
    pareto_front,
    point_seed,
    select_optimal,
)
from test_classifiers import FAULTY_KINDS
from test_metrics import scalar_report

SMALL_GRID = GridSpec(
    level0_step=0.5,
    level1_step=0.25,
    top_k=2,
    neighborhood=0.25,
    thresholds=(0.25, 0.5, 0.75),
)


# ---------------------------------------------------------------------------
# stub evaluator machinery

def bowl(params: BalanceParams, threshold: float, center=(0.34, 0.58, 0.12, 0.41)):
    ca, cb, cg, ct = center
    return (
        (params.alpha - ca) ** 2
        + (params.beta - cb) ** 2
        + (params.gamma - cg) ** 2
        + 0.5 * (threshold - ct) ** 2
    )


def loss_report(total: float) -> MetricReport:
    # split the stub loss evenly so combined under unit weights == total
    half = total / 2.0
    return MetricReport(
        di_ratio=1.0 - half,
        mcc=1.0 - half,
        accuracy=0.5,
        precision=0.5,
        recall=0.5,
        f1=0.5,
        di_loss=half,
        mcc_loss=half,
        combined_loss=total,
    )


def stub_point(params, threshold, seed, total) -> EvaluationPoint:
    return EvaluationPoint(
        params=params,
        threshold=threshold,
        classifier_kind="stub",
        report=loss_report(total),
        size=100,
        seed=seed,
    )


def make_stub(loss_fn):
    """Evaluator that scores tasks analytically: best threshold per task."""

    def evaluate(tasks):
        out = []
        for params, thresholds, seed in tasks:
            best = min(thresholds, key=lambda t: (loss_fn(params, t), t))
            out.append(stub_point(params, best, seed, loss_fn(params, best)))
        return out

    return evaluate


def synthetic_point(
    alpha, beta, gamma, threshold=0.5, m_loss=0.5, d_loss=0.5, error=None
) -> EvaluationPoint:
    return EvaluationPoint(
        params=BalanceParams(alpha, beta, gamma),
        threshold=threshold,
        classifier_kind="stub",
        report=None
        if error is not None
        else MetricReport(
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
        size=100,
        seed=0,
        error=error,
    )


# ---------------------------------------------------------------------------
# grid spec validation

def test_grid_spec_normalises_thresholds():
    g = GridSpec(thresholds=(0.9, 0.1, 0.5, 0.5))
    assert g.thresholds == (0.1, 0.5, 0.9)


def test_grid_spec_rejects_non_dividing_steps():
    with pytest.raises(InputError, match="divide"):
        GridSpec(level0_step=0.3)
    with pytest.raises(InputError, match="subdivide"):
        GridSpec(level0_step=0.1, level1_step=0.04)
    with pytest.raises(InputError):
        GridSpec(level0_step=0.0)


def test_grid_spec_rejects_bad_knobs():
    with pytest.raises(InputError, match="top_k"):
        GridSpec(top_k=0)
    with pytest.raises(InputError, match="empty"):
        GridSpec(thresholds=())
    with pytest.raises(InputError, match="inside"):
        GridSpec(thresholds=(0.0, 0.5))
    with pytest.raises(InputError, match="inside"):
        GridSpec(thresholds=(0.5, 1.0))
    with pytest.raises(InputError, match="neighborhood"):
        GridSpec(neighborhood=1.5)
    # level 1 refines thresholds strictly inside (0, 1): none at step 1.0
    with pytest.raises(InputError, match="level1_step must be at most 0.5"):
        GridSpec(level0_step=1.0, level1_step=1.0)
    assert search_mod._refined_thresholds(0.5, GridSpec(level0_step=1.0, level1_step=0.5)) == (0.5,)


def test_neighborhood_must_align_with_fine_step():
    # rejected when the grid is built, before any level is searched
    for level0_step, level1_step, neighborhood in [
        (0.1, 0.01, 0.015), (0.5, 0.25, 0.3), (0.1, 0.05, 0.12), (0.1, 0.01, 0.004),
    ]:
        with pytest.raises(InputError, match="multiple of level1_step"):
            GridSpec(level0_step=level0_step, level1_step=level1_step, neighborhood=neighborhood)
    assert GridSpec(neighborhood=0.05).half_width_units == 5
    assert GridSpec().half_width_units == 10  # defaults to one coarse step


def test_denominator_properties():
    assert SMALL_GRID.coarse_denominator == 2
    assert SMALL_GRID.fine_denominator == 4
    assert SMALL_GRID.half_width_units == 1


# ---------------------------------------------------------------------------
# evaluation points

def test_point_round_trip():
    p = synthetic_point(0.1, 0.2, 0.3, threshold=0.4, m_loss=0.25, d_loss=0.125)
    again = EvaluationPoint.from_dict(p.to_dict())
    assert again == p


def test_invalid_point_round_trip_and_sorting():
    bad = synthetic_point(0.0, 0.0, 0.0, error="sampling failed")
    good = synthetic_point(0.9, 0.9, 0.9, m_loss=0.9, d_loss=0.9)
    assert not bad.valid
    assert bad.combined is None
    assert EvaluationPoint.from_dict(bad.to_dict()) == bad
    assert sorted([bad, good], key=EvaluationPoint.sort_key) == [good, bad]


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", 1.5),
        ("seed", True),
        ("seed", -1),
        ("size", "88"),
        ("size", True),
        ("size", 0),
        ("threshold", "0.5"),
        ("threshold", False),
        ("threshold", float("nan")),
        ("alpha", None),
        ("classifier", ["x"]),
        ("error", 3),
    ],
)
def test_point_from_dict_rejects_bad_values(key, value):
    data = synthetic_point(0.1, 0.2, 0.3).to_dict()
    data[key] = value
    with pytest.raises(InputError, match=key):
        EvaluationPoint.from_dict(data)


def test_point_seed_is_frozen_and_sensitive_to_every_input():
    assert point_seed(0, 0, 0, 0) == 14545267087388472547
    assert point_seed(0, 10, 20, 30) == 6074372742912530158
    assert point_seed(7, 10, 20, 30) == 14308046352744751405
    base = point_seed(3, 4, 5, 6)
    assert point_seed(3, 4, 5, 7) != base
    assert point_seed(3, 4, 6, 6) != base
    assert point_seed(3, 5, 5, 6) != base
    assert point_seed(4, 4, 5, 6) != base


# ---------------------------------------------------------------------------
# level 0 against exhaustive enumeration

def test_level0_matches_exhaustive_enumeration():
    grid = GridSpec()
    stub = make_stub(bowl)
    level0 = grid_search_level0(None, None, None, grid, seed=5, size=100, evaluate=stub)
    assert len(level0) == 11 ** 3

    got = {
        (p.params.alpha, p.params.beta, p.params.gamma): (p.threshold, p.combined)
        for p in level0
    }
    expected = {}
    for i in range(11):
        for j in range(11):
            for k in range(11):
                params = BalanceParams(i / 10, j / 10, k / 10)
                t = min(grid.thresholds, key=lambda t: (bowl(params, t), t))
                expected[(params.alpha, params.beta, params.gamma)] = (
                    t,
                    bowl(params, t),
                )
    assert got == expected

    best = min(expected.items(), key=lambda kv: (kv[1][1], kv[0], kv[1][0]))
    assert (
        level0[0].params.alpha,
        level0[0].params.beta,
        level0[0].params.gamma,
    ) == best[0]
    assert level0[0].combined == best[1][1]
    # output comes back sorted, valid points ascending by combined loss
    combineds = [p.combined for p in level0]
    assert combineds == sorted(combineds)


def test_level0_task_seeds_use_fine_lattice_indices():
    recorded = []

    def recording(tasks):
        recorded.extend(tasks)
        return [stub_point(p, ths[0], s, 1.0) for p, ths, s in tasks]

    grid_search_level0(None, None, None, GridSpec(), seed=9, size=50, evaluate=recording)
    assert len(recorded) == 11 ** 3
    for params, thresholds, seed in recorded:
        assert thresholds == GridSpec().thresholds
        ai = round(params.alpha * 100)
        bi = round(params.beta * 100)
        gi = round(params.gamma * 100)
        assert ai % 10 == bi % 10 == gi % 10 == 0
        assert seed == point_seed(9, ai, bi, gi)


# ---------------------------------------------------------------------------
# level 1 neighborhoods

def test_level1_improves_on_level0_under_same_evaluator():
    grid = GridSpec()
    stub = make_stub(bowl)
    level0 = grid_search_level0(None, None, None, grid, seed=5, size=100, evaluate=stub)
    level1 = grid_search_level1(
        level0, None, None, None, grid, seed=5, size=100, evaluate=stub
    )
    assert level1[0].combined <= level0[0].combined
    # the fine optimum of the bowl is reachable inside the winning box
    assert level1[0].combined < level0[0].combined
    p = level1[0]
    assert (p.params.alpha, p.params.beta, p.params.gamma) == (0.34, 0.58, 0.12)
    assert p.threshold == 0.41


def test_level1_lattice_points_are_unique_and_boxed():
    grid = GridSpec()
    stub = make_stub(bowl)
    level0 = grid_search_level0(None, None, None, grid, seed=1, size=100, evaluate=stub)
    level1 = grid_search_level1(
        level0, None, None, None, grid, seed=1, size=100, evaluate=stub
    )
    coords = [
        (
            round(p.params.alpha * 100),
            round(p.params.beta * 100),
            round(p.params.gamma * 100),
        )
        for p in level1
    ]
    assert len(coords) == len(set(coords))

    winners = sorted((p for p in level0 if p.valid), key=EvaluationPoint.sort_key)
    centers = [
        (
            round(p.params.alpha * 100),
            round(p.params.beta * 100),
            round(p.params.gamma * 100),
        )
        for p in winners[: grid.top_k]
    ]
    for c in coords:
        assert any(all(abs(c[d] - ctr[d]) <= 10 for d in range(3)) for ctr in centers)
    # every incumbent is revisited with its own seed, hence its own sample
    for ctr, p in zip(centers, winners[: grid.top_k]):
        assert ctr in coords
        match = [q for q, cc in zip(level1, coords) if cc == ctr]
        assert match[0].seed == p.seed


def test_level1_box_sizes_interior_and_corner():
    interior = make_stub(lambda p, t: bowl(p, t, center=(0.5, 0.5, 0.5, 0.5)))
    grid = GridSpec(top_k=1)
    level0 = grid_search_level0(None, None, None, grid, seed=0, size=10, evaluate=interior)
    level1 = grid_search_level1(
        level0, None, None, None, grid, seed=0, size=10, evaluate=interior
    )
    assert len(level1) == 21 ** 3  # 10 fine steps either side of 0.5

    corner = make_stub(lambda p, t: bowl(p, t, center=(0.0, 0.0, 0.0, 0.5)))
    level0 = grid_search_level0(None, None, None, grid, seed=0, size=10, evaluate=corner)
    level1 = grid_search_level1(
        level0, None, None, None, grid, seed=0, size=10, evaluate=corner
    )
    assert len(level1) == 11 ** 3  # clipped at the cube boundary


def test_level1_overlapping_boxes_merge():
    # two sharp minima one coarse step apart on the alpha axis
    def two_pits(params, t):
        a = bowl(params, t, center=(0.3, 0.5, 0.5, 0.5))
        b = bowl(params, t, center=(0.4, 0.5, 0.5, 0.5)) + 0.001
        return min(a, b)

    grid = GridSpec(top_k=2)
    stub = make_stub(two_pits)
    level0 = grid_search_level0(None, None, None, grid, seed=0, size=10, evaluate=stub)
    tops = [
        (p.params.alpha, p.params.beta, p.params.gamma)
        for p in level0[:2]
    ]
    assert set(tops) == {(0.3, 0.5, 0.5), (0.4, 0.5, 0.5)}
    level1 = grid_search_level1(
        level0, None, None, None, grid, seed=0, size=10, evaluate=stub
    )
    # alpha spans [20..50] once deduplicated, the other axes [40..60]
    assert len(level1) == 31 * 21 * 21


def test_level1_tasks_match_thresholds_collected_in_sets():
    # three winners whose boxes overlap and whose best thresholds differ,
    # so some points hold one winner's list and others a union
    def two_pits(params, t):
        a = bowl(params, t, center=(0.3, 0.5, 0.5, 0.3))
        b = bowl(params, t, center=(0.4, 0.5, 0.5, 0.5)) + 0.001
        return min(a, b)

    grid = GridSpec(top_k=3)
    stub = make_stub(two_pits)
    level0 = grid_search_level0(None, None, None, grid, seed=0, size=10, evaluate=stub)
    seen = []

    def recording(tasks):
        seen.extend(tasks)
        return stub(tasks)

    grid_search_level1(level0, None, None, None, grid, seed=0, size=10, evaluate=recording)
    # the task list built with one set of thresholds per lattice point
    denom, width = grid.fine_denominator, grid.half_width_units
    wanted = {}
    for p in sorted((p for p in level0 if p.valid), key=EvaluationPoint.sort_key)[: grid.top_k]:
        spans = [
            range(max(0, c - width), min(denom, c + width) + 1)
            for c in (round(v * denom) for v in p.params.as_tuple())
        ]
        for point in itertools.product(*spans):
            wanted.setdefault(point, set()).update(
                search_mod._refined_thresholds(p.threshold, grid)
            )
    want = [
        (BalanceParams(*(i / denom for i in point)), tuple(sorted(ts)), point_seed(0, *point))
        for point, ts in sorted(wanted.items())
    ]
    assert seen == want
    lists = {ts for _, ts, _ in seen}
    assert len(lists) >= 3, lists


def test_refined_thresholds_clip_away_from_endpoints():
    low = make_stub(lambda p, t: bowl(p, t, center=(0.5, 0.5, 0.5, 0.0)))
    grid = GridSpec(top_k=1)
    level0 = grid_search_level0(None, None, None, grid, seed=0, size=10, evaluate=low)
    assert level0[0].threshold == 0.1
    recorded = []

    def recording(tasks):
        recorded.extend(tasks)
        return make_stub(lambda p, t: 1.0)(tasks)

    grid_search_level1(level0, None, None, None, grid, seed=0, size=10, evaluate=recording)
    seen = sorted(set(t for _, ths, _ in recorded for t in ths))
    assert seen[0] == 0.01  # never 0.0: that threshold labels every record
    assert seen[-1] == 0.2
    assert len(seen) == 20


def test_level1_without_valid_points_raises():
    bad = [synthetic_point(0.0, 0.0, 0.0, error="nope")]
    with pytest.raises(SearchError, match="no valid"):
        grid_search_level1(bad, None, None, None, GridSpec(), seed=0, size=10,
                           evaluate=make_stub(bowl))


# ---------------------------------------------------------------------------
# pareto front and selection

def oracle_front(coords):
    keep = set()
    for m, d in coords:
        if not any(m2 < m and d2 < d for m2, d2 in coords):
            keep.add((m, d))
    return sorted(keep)


def random_points(rng, n):
    pts = []
    for _ in range(n):
        # coarse values force plenty of exact ties and duplicates
        m = round(float(rng.uniform(0, 1)), 1)
        d = round(float(rng.uniform(0, 1)), 1)
        pts.append(
            synthetic_point(
                float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0])),
                float(rng.choice([0.0, 0.5, 1.0])),
                float(rng.choice([0.0, 0.5, 1.0])),
                threshold=float(rng.choice([0.2, 0.5, 0.8])),
                m_loss=m,
                d_loss=d,
            )
        )
    return pts


def loop_front(points):
    """The front as one sort and a Python loop over it, the form the
    array sweep replaced: the reference for which representative of a
    repeated coordinate pair stays, and for the order."""
    candidates = sorted(
        (p for p in points if p.valid),
        key=lambda p: (p.report.mcc_loss, p.report.di_loss) + p.sort_key(),
    )
    front = []
    lowest_di = float("inf")  # over points with strictly smaller mcc_loss
    group_mcc, group_di = None, float("inf")
    previous_di = None
    for p in candidates:
        m, d = p.report.mcc_loss, p.report.di_loss
        if m != group_mcc:
            lowest_di = min(lowest_di, group_di)
            group_mcc, group_di = m, d
        elif d == previous_di:
            continue
        previous_di = d
        if d <= lowest_di:
            front.append(p)
    return front


def test_pareto_front_matches_pairwise_oracle():
    rng = np.random.default_rng(55)
    for _ in range(300):
        pts = random_points(rng, int(rng.integers(1, 40)))
        pts += [synthetic_point(0.5, 0.0, 1.0, error="broken")] * int(rng.integers(2))
        front = pareto_front(pts)
        assert sorted(front.coordinates()) == oracle_front(
            [(p.report.mcc_loss, p.report.di_loss) for p in pts if p.valid]
        )
        # deduplicated: one representative per coordinate pair
        assert len(set(front.coordinates())) == len(front)
        assert [id(p) for p in front.points] == [id(p) for p in loop_front(pts)]


def test_emit_orders_points_by_sort_key():
    rng = np.random.default_rng(56)
    for _ in range(100):
        pts = random_points(rng, int(rng.integers(0, 40)))
        pts += [
            synthetic_point(float(rng.choice([0.0, 0.5])), 0.0, 0.0, error="broken")
            for _ in range(int(rng.integers(3)))
        ]
        # valid, yet as large a loss as an invalid point's sort key holds
        pts += [synthetic_point(1.0, 1.0, 1.0, m_loss=float("inf"))] * int(rng.integers(2))
        rng.shuffle(pts)
        ordered = search_mod._emit(list(pts), None)
        want = sorted(pts, key=EvaluationPoint.sort_key)
        assert [id(p) for p in ordered] == [id(p) for p in want]


def test_pareto_front_ignores_invalid_points():
    pts = [
        synthetic_point(0.5, 0.5, 0.5, m_loss=0.2, d_loss=0.2),
        synthetic_point(0.0, 0.0, 0.0, error="broken"),
    ]
    front = pareto_front(pts)
    assert len(front) == 1
    assert front.points[0].valid


def test_pareto_front_keeps_weakly_dominated_points():
    # equal on one axis, better on the other: both stay
    pts = [
        synthetic_point(0.0, 0.0, 0.0, m_loss=0.2, d_loss=0.5),
        synthetic_point(0.5, 0.0, 0.0, m_loss=0.2, d_loss=0.3),
    ]
    assert len(pareto_front(pts)) == 2


def test_select_optimal_minimises_weighted_sum_over_front():
    rng = np.random.default_rng(19)
    for _ in range(100):
        pts = random_points(rng, int(rng.integers(2, 30)))
        front = pareto_front(pts)
        weights = LossWeights(
            c_mcc=float(rng.uniform(0.05, 3.0)), c_di=float(rng.uniform(0.05, 3.0))
        )
        best = select_optimal(front, weights)
        assert best in front.points
        score = lambda p: weights.c_mcc * p.report.mcc_loss + weights.c_di * p.report.di_loss
        target = min(score(p) for p in front.points)
        assert score(best) == target
        ties = [p for p in front.points if score(p) == target]
        lex = min(
            ties,
            key=lambda p: (p.params.alpha, p.params.beta, p.params.gamma, p.threshold),
        )
        assert best == lex


def test_select_optimal_empty_front_raises():
    with pytest.raises(SearchError, match="empty"):
        select_optimal(ParetoFront(points=()), LossWeights())


# ---------------------------------------------------------------------------
# full search with the stub

def test_full_search_is_deterministic_and_sinks_everything():
    stub = make_stub(bowl)
    sunk = []
    first = full_search(
        None, None, None, None, GridSpec(), seed=4, size=10,
        evaluators=(stub, stub), sink=sunk.append,
    )
    second = full_search(
        None, None, None, None, GridSpec(), seed=4, size=10, evaluators=(stub, stub)
    )
    as_dicts = lambda pts: [p.to_dict() for p in pts]
    assert as_dicts(first.level0) == as_dicts(second.level0)
    assert as_dicts(first.level1) == as_dicts(second.level1)
    assert as_dicts(first.front.points) == as_dicts(second.front.points)
    assert first.best.to_dict() == second.best.to_dict()
    # every line, in level order, is json.dumps of its returned point
    points = list(first.level0) + list(first.level1)
    assert sunk == [json.dumps(d, sort_keys=True) for d in as_dicts(points)]
    assert first.best == select_optimal(first.front, GridSpec().weights)


def test_full_search_all_invalid_yields_empty_front():
    def everything_fails(tasks):
        return [
            EvaluationPoint(
                params=p, threshold=ths[0], classifier_kind="stub",
                report=None, size=10, seed=s, error="sample infeasible",
            )
            for p, ths, s in tasks
        ]

    result = full_search(
        None, None, None, None, GridSpec(), seed=0, size=10,
        evaluators=(everything_fails, everything_fails),
    )
    assert result.best is None
    assert len(result.front) == 0
    assert result.level1 == ()
    assert len(result.level0) == 11 ** 3
    assert all(not p.valid for p in result.level0)


# ---------------------------------------------------------------------------
# the model evaluator against a reference run

NUMERIC = generate_synthetic(SyntheticSpec(quadrants=(520, 60, 130, 40)), seed=3)
TRAIN, EVAL, _SPARE = stratified_split(NUMERIC, (0.6, 0.2, 0.2), seed=3)
SIZE = 88  # common feasible size over the quarter-step lattice
WEIGHTS = LossWeights()


def model_tasks(global_seed=11):
    thresholds = (0.2, 0.4, 0.6, 0.8)
    tasks = []
    for a, b, g in [(0.0, 0.0, 0.0), (0.25, 0.5, 0.75), (1.0, 1.0, 1.0), (0.5, 0.5, 0.5)]:
        seed = point_seed(global_seed, int(a * 4), int(b * 4), int(g * 4))
        tasks.append((BalanceParams(a, b, g), thresholds, seed))
    return tasks


def reference_point(d_train, d_eval, spec, task, size):
    """One task the slow way: materialize, fit, score every threshold."""
    params, thresholds, seed = task
    plan = compute_plan(quadrant_counts(d_train), params)
    sample = materialize_sample(d_train, plan, size, seed)
    model = fit_model(spec, sample)
    best = None
    for t in thresholds:
        report = metric_report(predict_labels(model, d_eval, t), WEIGHTS)
        if report.combined_loss is None:
            continue
        key = (report.combined_loss, t)
        if best is None or key < best[0]:
            best = (key, t, report)
    assert best is not None
    return best[1], best[2]


REGION_SCHEMA = Schema(
    features=SYNTHETIC_SCHEMA.features + (FeatureSpec("region", "categorical"),),
    label="y",
    favourable="0",
    unfavourable="1",
    sensitive="group",
    privileged_value="p",
)


def with_region(d, seed, odd_row, odd_value):
    """d plus a label-leaning categorical feature; one row carries a
    value no other row of d has."""
    rng = np.random.default_rng(seed)
    lean = np.where(d.unfavourable, 0.7, 0.3)
    region = np.where(rng.random(len(d)) < lean, "a", "b").astype(object)
    region[odd_row] = odd_value
    return Dataset(
        schema=REGION_SCHEMA,
        columns={**d.columns, "region": region},
        unfavourable=d.unfavourable,
        privileged=d.privileged,
        row_ids=d.row_ids,
    )


# "c" sits on one row of the smallest training quadrant, so some samples
# draw it and others miss it; "z" is an evaluation value training never saw
CAT_TRAIN = with_region(TRAIN, 5, TRAIN.quadrant_indices()["up_uf"][0], "c")
CAT_EVAL = with_region(EVAL, 6, 0, "z")
CORPORA = {"numeric": (TRAIN, EVAL), "categorical": (CAT_TRAIN, CAT_EVAL)}


def test_categorical_corpus_samples_miss_and_catch_the_rare_value():
    counts = quadrant_counts(CAT_TRAIN)
    caught = {
        "c" in materialize_sample(CAT_TRAIN, compute_plan(counts, params), SIZE, seed)
        .columns["region"]
        .tolist()
        for params, _, seed in model_tasks()
    }
    assert caught == {True, False}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_model_evaluator_matches_reference(corpus):
    d_train, d_eval = CORPORA[corpus]
    tasks = model_tasks()
    for kind in ("logistic", "svm"):
        spec = ClassifierSpec(kind=kind, params={})
        evaluate = make_model_evaluator(d_train, d_eval, spec, WEIGHTS, SIZE)
        points = evaluate(tasks)
        assert len(points) == len(tasks)
        for task, point in zip(tasks, points):
            assert point.valid
            assert point.seed == task[2]
            assert point.size == SIZE
            assert point.classifier_kind == kind
            threshold, report = reference_point(d_train, d_eval, spec, task, SIZE)
            assert point.threshold == threshold
            got, want = point.report.to_dict(), report.to_dict()
            assert got.keys() == want.keys()
            for key in want:
                if want[key] is None:
                    assert got[key] is None
                else:
                    assert got[key] == pytest.approx(want[key], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("kind", sorted(FAULTY_KINDS))
def test_faulty_scores_make_training_error_points(kind, monkeypatch):
    # a score too few, NaN scores and scores of 3.0 each fail the task
    # with a training error naming the kind and the fault
    tables = []
    chunk_points = search_mod._chunk_points

    def recording(chunk, table, *args):
        tables.append(table)
        return chunk_points(chunk, table, *args)

    monkeypatch.setattr(search_mod, "_chunk_points", recording)
    tasks = model_tasks()
    points = make_model_evaluator(TRAIN, EVAL, ClassifierSpec(kind=kind), WEIGHTS, SIZE)(tasks)
    assert [table.outcome.tolist() for table in tables] == [
        [search_mod._TRAINING_ERROR] * len(tasks)
    ]
    for point in points:
        assert not point.valid and point.report is None
        assert kind in point.error and FAULTY_KINDS[kind] in point.error


def test_model_evaluator_generic_kind_matches_reference():
    specs = [
        ClassifierSpec(kind="naive_bayes", params={}),
        ClassifierSpec(kind="forest", params={"n_trees": 4}, seed=3),
    ]
    tasks = model_tasks(global_seed=2)
    for spec in specs:
        for d_train, d_eval in CORPORA.values():
            evaluate = make_model_evaluator(d_train, d_eval, spec, WEIGHTS, SIZE)
            for task, point in zip(tasks, evaluate(tasks)):
                threshold, report = reference_point(d_train, d_eval, spec, task, SIZE)
                assert point.threshold == threshold
                assert point.report.to_dict() == report.to_dict()
                assert point.classifier_kind == spec.kind


def region_only(d):
    """d with the region feature alone: a categorical-only schema."""
    schema = Schema(
        features=(FeatureSpec("region", "categorical"),), label="y", favourable="0",
        unfavourable="1", sensitive="group", privileged_value="p",
    )
    return Dataset(
        schema=schema,
        columns={"region": d.columns["region"]},
        unfavourable=d.unfavourable,
        privileged=d.privileged,
        row_ids=d.row_ids,
    )


ENCODING_CORPORA = {**CORPORA, "categorical_only": (region_only(CAT_TRAIN), region_only(CAT_EVAL))}


def fitted_parts(pipeline):
    return pipeline.blocks_, pipeline.means_, pipeline.scales_, pipeline.categorical_blocks()


@pytest.mark.parametrize("corpus", sorted(ENCODING_CORPORA))
def test_fit_sample_is_each_samples_own_fit(corpus):
    # samples that miss the rare training value "c" (as mixed-csv's
    # kiosk) have one one-hot column fewer; "z" is never seen in
    # training. The last sample has more rows than numpy's 8,192-element
    # reduction buffer, so a numpy that summed a strided column unlike a
    # contiguous one would show here.
    d_train, d_eval = ENCODING_CORPORA[corpus]
    split = FeaturePipeline().fit(d_train)
    train_x, eval_x = split.encode(d_train), split.encode(d_eval)
    counts = quadrant_counts(d_train)
    samples = [
        sample_indices(d_train, compute_plan(counts, params), SIZE, seed)
        for params, _, seed in model_tasks() + model_tasks(global_seed=4)
    ]
    samples.append(np.random.default_rng(9).integers(0, len(d_train), 9000))
    widths = set()
    for rows in samples:
        sample = d_train.take(rows)
        want = FeaturePipeline().fit(sample)
        got, columns = split.fit_sample(train_x[rows])
        assert fitted_parts(got) == fitted_parts(want)
        for x, d in ((train_x[rows], sample), (eval_x, d_eval)):
            matrix, expected = got.standardise(x[:, columns]), want.transform(d)
            assert matrix.dtype == expected.dtype and matrix.shape == expected.shape
            assert matrix.tobytes() == expected.tobytes()
        widths.add(len(columns))
    assert len(widths) == (1 if corpus == "numeric" else 2)


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_model_evaluator_chunk_size_is_only_a_memory_knob(corpus, monkeypatch):
    d_train, d_eval = CORPORA[corpus]
    # more tasks than one scoring block, so the default chunk crosses a
    # block boundary
    tasks = [t for s in range(21, 31) for t in model_tasks(global_seed=s)]
    assert len(tasks) > search_mod._SWEEP_BLOCK
    # every route: the batched linear fit (logistic, svm) and fit_each
    # (forests grown together, naive Bayes one at a time)
    specs = [
        ClassifierSpec(kind="logistic", params={}),
        ClassifierSpec(kind="svm", params={}),
        ClassifierSpec(kind="forest", params={"n_trees": 4}, seed=3),
        ClassifierSpec(kind="naive_bayes", params={}),
    ]
    for spec in specs:
        baseline = make_model_evaluator(d_train, d_eval, spec, WEIGHTS, SIZE)(tasks)
        for chunk in (1, 3):
            monkeypatch.setattr(search_mod, "_CHUNK", chunk)
            other = make_model_evaluator(d_train, d_eval, spec, WEIGHTS, SIZE)(tasks)
            monkeypatch.undo()
            assert [p.to_dict() for p in other] == [p.to_dict() for p in baseline]


def test_all_zero_columns_keep_zero_weight_in_the_batched_fit():
    # the batched route fits every sample on the training split's one-hot
    # columns; a category a sample lacks is an all-zero column, which
    # must leave the rest of the fit as it is without that column
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 60, 4))
    y = (x[:, :, 0] + 0.5 * rng.normal(size=(3, 60)) > 0).astype(float)
    wide = np.zeros((3, 60, 6))
    kept = [0, 2, 3, 5]
    wide[:, :, kept] = x
    # strong enough regularisation that every problem converges, each at
    # its own iteration, so freezing finished problems is exercised too
    settings = dict(learning_rate=1.0, l2=0.01, max_iter=3000, tol=1e-6)
    w, b, its = fit_logistic_batch(x, y, **settings)
    w_wide, b_wide, its_wide = fit_logistic_batch(wide, y, **settings)
    assert (its < 3000).all() and len(set(its.tolist())) == 3
    assert its_wide.tolist() == its.tolist()
    assert (w_wide[:, [1, 4]] == 0.0).all()
    assert w_wide[:, kept] == pytest.approx(w, rel=1e-12)
    assert b_wide == pytest.approx(b, rel=1e-12)


def test_chunk_sweep_matches_explicit_thresholding():
    # one chunk whose tasks ask for different threshold lists, so the
    # sweep scores every task against the union of all of them
    rng = np.random.default_rng(8)
    n = len(EVAL)
    on_grid = rng.choice([0.1, 0.2, 0.3, 0.45, 0.5, 0.6, 0.7, 0.9], size=n)
    columns_and_thresholds = [
        (on_grid, (0.2, 0.45, 0.6)),  # many scores sit exactly on a threshold
        (rng.random(n), (0.1, 0.3, 0.5, 0.7, 0.9)),
        (on_grid[::-1].copy(), (0.5,)),  # one threshold
        (np.round(rng.random(n), 1), (0.3, 0.4, 0.5, 0.6)),
        (np.full(n, 0.05), (0.2, 0.6)),  # nobody predicted: MCC and DI undefined
    ]
    scores = np.column_stack([c for c, _ in columns_and_thresholds])
    thresholds = [t for _, t in columns_and_thresholds]
    sweep = search_mod._ThresholdSweep(EVAL, WEIGHTS)
    chosen, counts = sweep.choose(scores, thresholds)
    assert chosen.shape == (len(thresholds),)
    assert counts.shape == (len(thresholds), len(search_mod._COUNT_COLUMNS))
    for (column, ts), threshold, row in zip(columns_and_thresholds, chosen.tolist(), counts):
        grouped = {
            t: GroupedPredictions(
                privileged=EVAL.privileged, actual=EVAL.unfavourable, predicted=column >= t
            )
            for t in ts
        }
        reports = {t: metric_report(g, WEIGHTS) for t, g in grouped.items()}
        valid = [(r.combined_loss, t) for t, r in reports.items() if r.combined_loss is not None]
        want = min(valid)[1] if valid else ts[0]
        assert threshold == want
        # the counts are explicit thresholding's, and so is their report
        g = grouped[want]
        c = confusion(g)
        p_positive = int(np.count_nonzero(g.predicted & g.privileged))
        up_positive = int(np.count_nonzero(g.predicted & ~g.privileged))
        assert row.tolist() == [c.tp, c.fp, c.tn, c.fn, p_positive, up_positive]
        report = report_from_counts(
            c, p_positive, sweep.p_total, up_positive, sweep.up_total, WEIGHTS
        )
        assert report.to_dict() == reports[want].to_dict()
    # the undefined task fell back to its first threshold
    assert chosen[-1] == 0.2
    assert reports[0.2].combined_loss is None


def test_sweep_scores_a_large_evaluation_split_exactly():
    # 240k rows, half privileged and half unfavourable in each group: at
    # threshold 0.5 every row is classified right, and the MCC
    # denominator (tp+fp)(tp+fn)(tn+fp)(tn+fn) = 2.07e20 is past int64
    n = 60_000
    unfavourable = np.tile(np.repeat([False, True], n), 2)
    privileged = np.repeat([False, True], 2 * n)
    big = Dataset(
        schema=SYNTHETIC_SCHEMA,
        columns={},
        unfavourable=unfavourable,
        privileged=privileged,
        row_ids=np.arange(4 * n),
    )
    scores = np.where(unfavourable, 0.93, 0.1)
    # every 60th unfavourable row, 1,000 in each group, scores above 0.945
    scores[np.flatnonzero(unfavourable)[::60]] = 0.95
    sweep = search_mod._ThresholdSweep(big, WEIGHTS)
    chosen, counts = sweep.choose(np.column_stack([scores, scores]), [(0.5,), (0.5, 0.945)])
    assert chosen.tolist() == [0.5, 0.5]
    fields = sweep.report_fields(counts)
    assert fields[1].tolist() == [1.0, 1.0]  # MCC; int64 products read 6.83
    assert fields[-1].tolist() == [0.0, 0.0]
    # 0.945 has exact combined loss 0.908, so 0.5 must win
    _, at_945 = sweep.choose(scores[:, None], [(0.945,)])
    assert sweep.report_fields(at_945)[-1][0] == pytest.approx(0.908, abs=1e-3)


def test_threshold_columns_match_a_per_task_lookup():
    # level-0 tasks share the grid's tuple and level-1 tasks their
    # winner's; the columns are computed once per distinct tuple
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    refined = (0.45, 0.5, 0.55)
    thresholds = [grid, refined, grid, (0.3, 0.45), tuple(refined), (0.2,), grid, (0.3, 0.45)]
    union, member, first = search_mod._threshold_columns(thresholds)
    assert union.tolist() == sorted({t for ts in thresholds for t in ts})
    want_member = np.zeros((len(thresholds), len(union)), dtype=bool)
    want_first = np.empty(len(thresholds), dtype=np.int64)
    for row, ts in enumerate(thresholds):
        cols = np.searchsorted(union, np.asarray(ts, dtype=float))
        want_member[row, cols] = True
        want_first[row] = cols[0]
    assert np.array_equal(member, want_member)
    assert np.array_equal(first, want_first)
    assert first.dtype == want_first.dtype


def test_threshold_columns_are_memoised_per_set_of_tuples():
    memo = {}
    grid, refined = (0.1, 0.5, 0.9), (0.45, 0.5)
    first_call = search_mod._threshold_columns([grid, grid, refined], memo)
    again = search_mod._threshold_columns([refined, grid], memo)
    assert list(memo) == [(grid, refined), (refined, grid)]
    assert search_mod._threshold_columns([grid] * 3, memo)[2].tolist() == [0, 0, 0]
    assert len(memo) == 3
    for (union, member, first), thresholds in [(first_call, [grid, grid, refined]), (again, [refined, grid])]:
        want = search_mod._threshold_columns(thresholds)
        assert np.array_equal(union, want[0])
        assert np.array_equal(member, want[1])
        assert np.array_equal(first, want[2])


@pytest.mark.parametrize("length", [1, 255, 256, 999])
@pytest.mark.parametrize("counted", [True, False])
def test_counted_bins_are_searchsorted(monkeypatch, length, counted):
    # each union through both methods: counting comparisons (forced up to
    # 999 thresholds) and searchsorted
    monkeypatch.setattr(search_mod, "_COUNTED_UNION", length if counted else 0)
    rng = np.random.default_rng(length)
    union = np.sort(rng.choice(np.arange(1, 10**6), size=length, replace=False)) / 10**6
    special = [0.0, -0.0, 1.0, np.nan, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)]
    scores = np.concatenate(
        [
            union,  # every score exactly on a threshold
            np.nextafter(union, 0.0),
            np.nextafter(union, 1.0),
            special,
            rng.random(3000 + -(3 * length + len(special)) % 4),  # 4 equal columns
        ]
    )
    rng.shuffle(scores)
    scores = scores.reshape(-1, 4)
    above = search_mod._above(union, scores)
    assert np.array_equal(len(union) - above.astype(np.int64), np.searchsorted(union, scores, side="right"))
    assert np.all(above[np.isnan(scores)] == 0)  # NaN lies above every threshold
    if counted:
        assert above.dtype == np.min_scalar_type(length)
        assert above.dtype.kind == "u"


def test_the_sweep_bins_scores_on_thresholds_nan_and_signed_zero(monkeypatch):
    # the sweep's counts agree through either binning, also on scores a
    # checked model never returns
    sweep = search_mod._ThresholdSweep(EVAL, WEIGHTS)
    rng = np.random.default_rng(5)
    thresholds = [(0.25, 0.5, 0.75), (0.5,), (0.25, 0.75)]
    scores = rng.choice([0.0, -0.0, 0.25, 0.5, 0.75, 1.0, np.nan, 0.3], size=(len(EVAL), 3))
    chosen = {}
    for limit in (0, 200):
        monkeypatch.setattr(search_mod, "_COUNTED_UNION", limit)
        chosen[limit] = sweep.choose(scores, thresholds)
    assert np.array_equal(chosen[0][0], chosen[200][0])
    assert np.array_equal(chosen[0][1], chosen[200][1])


def test_model_evaluator_single_label_sample_is_quarantined():
    spec = ClassifierSpec(kind="logistic", params={})
    # a sample of one record cannot contain both labels
    evaluate = make_model_evaluator(TRAIN, EVAL, spec, WEIGHTS, size=1)
    [point] = evaluate([(BalanceParams(0.0, 0.0, 0.0), (0.5,), 7)])
    assert not point.valid
    assert "single label" in point.error
    assert point.report is None
    assert point.threshold == 0.5


def test_model_evaluator_validates_arguments():
    spec = ClassifierSpec(kind="logistic", params={})
    with pytest.raises(InputError, match="sample size"):
        make_model_evaluator(TRAIN, EVAL, spec, WEIGHTS, size=0)


def test_infeasible_lattice_points_are_marked_not_raised():
    # heavy privilege share with the rates inverted: pushing the
    # favourable share to 0.5 demands an unprivileged rate above 1
    skewed = generate_synthetic(
        SyntheticSpec(quadrants=(300, 590, 100, 10)), seed=1
    )
    counts = quadrant_counts(skewed)
    with pytest.raises(InfeasibleError):
        compute_plan(counts, BalanceParams(0.0, 1.0, 0.0))
    tasks = [
        (BalanceParams(0.0, 1.0, 0.0), (0.5,), 1),
        (BalanceParams(0.0, 0.0, 0.0), (0.5,), 2),
    ]
    for kind in ("logistic", "naive_bayes"):
        spec = ClassifierSpec(kind=kind, params={})
        bad, good = make_model_evaluator(skewed, skewed, spec, WEIGHTS, size=33)(tasks)
        assert not bad.valid
        assert "rates" in bad.error
        assert good.valid


def test_inspect_point_is_deterministic():
    spec = ClassifierSpec(kind="logistic", params={})
    a = inspect_point(TRAIN, EVAL, BalanceParams(0.5, 0.5, 0.5), spec, 0.4, WEIGHTS, SIZE, 13)
    b = inspect_point(TRAIN, EVAL, BalanceParams(0.5, 0.5, 0.5), spec, 0.4, WEIGHTS, SIZE, 13)
    assert a.to_dict() == b.to_dict()
    assert a.threshold == 0.4
    c = inspect_point(TRAIN, EVAL, BalanceParams(0.5, 0.5, 0.5), spec, 0.4, WEIGHTS, SIZE, 14)
    assert c.seed != a.seed


# ---------------------------------------------------------------------------
# level-0 fits re-scored at level 1

SKEWED = generate_synthetic(SyntheticSpec(quadrants=(300, 590, 100, 10)), seed=1)
REUSE_CORPORA = {
    "numeric": (TRAIN, EVAL, _SPARE),
    "categorical": (CAT_TRAIN, CAT_EVAL, with_region(_SPARE, 7, 1, "z")),
    # some lattice points are infeasible, so recorded failures are reused too
    "infeasible": stratified_split(SKEWED, (0.6, 0.2, 0.2), seed=3),
}


@pytest.mark.parametrize("corpus", sorted(REUSE_CORPORA))
def test_full_search_fits_each_lattice_point_once(corpus, monkeypatch):
    d_train, eval0, eval1 = REUSE_CORPORA[corpus]
    # level 1 is the whole quarter-step cube, so it holds every level-0 point
    grid = GridSpec(
        level0_step=0.5, level1_step=0.25, top_k=1, neighborhood=1.0,
        thresholds=(0.25, 0.5, 0.75),
    )
    # calls made in a worker process are not counted here
    monkeypatch.setattr(search_mod, "_usable_cpus", lambda: 1)

    def counting(stacked_x, *args):
        problems.append(len(stacked_x))
        return fit_logistic_batch(stacked_x, *args)

    def spying(*args, **kwargs):
        made.append(kwargs)
        return make_model_evaluator(*args, **kwargs)

    monkeypatch.setattr(search_mod, "fit_logistic_batch", counting)
    monkeypatch.setattr(search_mod, "make_model_evaluator", spying)
    for kind in ("logistic", "svm"):
        spec = ClassifierSpec(kind=kind, params={})
        problems, made = [], []
        result = full_search(d_train, eval0, eval1, spec, grid, seed=2)
        assert {p.params for p in result.level0} <= {p.params for p in result.level1}
        assert len(result.level1) == 125
        drawn = [p for p in result.level1 if p.error is None]
        assert sum(problems) == len(drawn)
        if corpus == "infeasible":
            assert any(p.error is not None for p in result.level0)
        # a fresh evaluator on the same level-1 tasks fits every point itself
        fresh_fits: dict = {}
        fresh = grid_search_level1(
            list(result.level0), d_train, eval1, spec, grid, seed=2, size=result.size,
            evaluate=make_model_evaluator(
                d_train, eval1, spec, grid.weights, result.size, keep_fits=fresh_fits
            ),
        )
        assert [p.to_dict() for p in result.level1] == [p.to_dict() for p in fresh]
        kept = made[0]["keep_fits"]
        assert kept.keys() == {(p.params, p.seed) for p in result.level0}
        for key, fit in kept.items():
            assert np.array_equal(fit, fresh_fits[key])  # the same fit, or failure


@pytest.mark.parametrize("corpus", ["numeric", "categorical"])
@pytest.mark.parametrize(
    "spec",
    [
        ClassifierSpec(kind="logistic", params={}),
        ClassifierSpec(kind="forest", params={"n_trees": 4}, seed=5),
    ],
    ids=["logistic", "forest"],
)
def test_inspect_point_rebuilds_the_search_optimum_exactly(corpus, spec):
    # report re-scores a stored optimum through inspect_point, so on the
    # level-1 split it must return the very point search selected
    d_train, eval0, eval1 = REUSE_CORPORA[corpus]
    result = full_search(d_train, eval0, eval1, spec, SMALL_GRID, seed=4)
    best = result.best
    assert best is not None
    again = inspect_point(
        d_train, eval1, best.params, spec, best.threshold, SMALL_GRID.weights,
        best.size, best.seed,
    )
    assert again.to_dict() == best.to_dict()


# ---------------------------------------------------------------------------
# a level's chunks on worker processes

LOGISTIC = ClassifierSpec(kind="logistic", params={})
POOL_CASES = {
    "logistic-numeric": (TRAIN, EVAL, LOGISTIC),
    "logistic-categorical": (CAT_TRAIN, CAT_EVAL, LOGISTIC),
    "forest-numeric": (TRAIN, EVAL, ClassifierSpec(kind="forest", params={"n_trees": 4}, seed=3)),
    "svm-categorical": (CAT_TRAIN, CAT_EVAL, ClassifierSpec(kind="svm", params={})),
}
# twelve tasks in three chunks of four
POOL_TASKS = [t for s in (21, 22, 23) for t in model_tasks(global_seed=s)]
POOL_CHUNK = 4


@pytest.mark.parametrize("case", sorted(POOL_CASES))
def test_worker_processes_give_the_in_process_results(case, monkeypatch, tmp_path):
    d_train, d_eval, spec = POOL_CASES[case]
    draws = tmp_path / "draws"
    draw_chunk = search_mod._draw_chunk

    def logging_draw(*args):
        with open(draws, "a") as fh:  # the processes that drew a chunk
            fh.write(f"{os.getpid()}\n")
        return draw_chunk(*args)

    monkeypatch.setattr(search_mod, "_draw_chunk", logging_draw)
    runs = {}
    monkeypatch.setattr(search_mod, "_CHUNK", POOL_CHUNK)
    for workers in (1, 2):
        monkeypatch.setattr(search_mod, "_usable_cpus", lambda: workers)
        draws.write_text("")
        fits: dict = {}
        evaluate = make_model_evaluator(d_train, d_eval, spec, WEIGHTS, SIZE, keep_fits=fits)
        runs[workers] = evaluate(POOL_TASKS), fits
        assert multiprocessing.active_children() == []
        drawn_by = draws.read_text().split()
        assert len(drawn_by) == len(POOL_TASKS) // POOL_CHUNK
        assert (str(os.getpid()) in drawn_by) == (workers == 1)
    (points, fits), (pooled, pooled_fits) = runs[1], runs[2]
    assert [p.to_dict() for p in pooled] == [p.to_dict() for p in points]
    assert pooled_fits.keys() == fits.keys()
    assert len(fits) == (len(POOL_TASKS) if spec.kind in ("logistic", "svm") else 0)
    for key, fit in fits.items():
        assert np.array_equal(pooled_fits[key], fit)


def test_a_diverged_linear_fit_is_a_training_error_kept_for_level_1():
    # a huge step sends the weights to inf and NaN; such a fit has no
    # report (it would otherwise score every row unfavourable), and no
    # warning is raised on the way
    spec = ClassifierSpec(kind="logistic", params={"learning_rate": 1.0e30})
    fits: dict = {}
    tasks = model_tasks()
    points = make_model_evaluator(TRAIN, EVAL, spec, WEIGHTS, SIZE, keep_fits=fits)(tasks)
    assert [p.error for p in points] == [search_mod._DIVERGED] * len(tasks)
    assert all(p.report is None and not p.valid for p in points)
    assert "diverged" in search_mod._DIVERGED
    assert list(fits.values()) == [(search_mod._TRAINING_ERROR, search_mod._DIVERGED)] * len(tasks)
    again = make_model_evaluator(TRAIN, EVAL, spec, WEIGHTS, SIZE, reuse_fits=fits)(tasks)
    assert [p.to_dict() for p in again] == [p.to_dict() for p in points]


def test_only_the_diverged_fits_of_a_chunk_fail(monkeypatch):
    tasks = model_tasks()
    want = make_model_evaluator(TRAIN, EVAL, LOGISTIC, WEIGHTS, SIZE)(tasks)

    def one_diverges(*args):
        w, b, iterations = fit_logistic_batch(*args)
        w[1, 0] = np.nan
        b[2] = np.inf
        return w, b, iterations

    monkeypatch.setattr(search_mod, "fit_logistic_batch", one_diverges)
    got = make_model_evaluator(TRAIN, EVAL, LOGISTIC, WEIGHTS, SIZE)(tasks)
    # tasks whose samples were drawn and fitted, in order
    fitted = [k for k, p in enumerate(want) if p.report is not None]
    assert len(fitted) >= 3
    failed = {fitted[1], fitted[2]}
    for k, (p, q) in enumerate(zip(got, want)):
        if k in failed:
            assert p.error == search_mod._DIVERGED and p.report is None
        else:
            assert p.to_dict() == q.to_dict()


def test_a_worker_error_reaches_the_caller_and_no_worker_outlives_it(monkeypatch):
    parent = os.getpid()

    def failing(*args):
        if os.getpid() != parent:
            raise ZeroDivisionError("raised in a worker")
        return fit_logistic_batch(*args)

    monkeypatch.setattr(search_mod, "fit_logistic_batch", failing)
    monkeypatch.setattr(search_mod, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(search_mod, "_CHUNK", POOL_CHUNK)
    evaluate = make_model_evaluator(TRAIN, EVAL, LOGISTIC, WEIGHTS, SIZE)
    with pytest.raises(ZeroDivisionError, match="raised in a worker"):
        evaluate(POOL_TASKS)
    assert multiprocessing.active_children() == []
    # one chunk runs in this process, so it never reaches the failing fit
    assert len(evaluate(POOL_TASKS[:POOL_CHUNK])) == POOL_CHUNK


# ---------------------------------------------------------------------------
# chunk tables: what crosses the pipe, and the points built from them

# an error text JSON must escape: quotes, a backslash, non-ASCII
REFUSAL = 'refused: "quoted" \\ back\\slash, na\u00efve \u2603 \U0001d11e'


class RefusingModel:
    """Refuses a sample whose first row trails its last on the first
    feature, about one sample in two."""

    def fit(self, x, y):
        if x[0, 0] < x[-1, 0]:
            raise TrainingError(REFUSAL)
        return self

    def predict_scores(self, x):
        return 1.0 / (1.0 + np.exp(-x[:, 0]))


register_kind("refusing_for_search_tests", lambda params, seed, blocks: RefusingModel())

BUILD_SPECS = {
    "logistic": LOGISTIC,
    "svm": ClassifierSpec(kind="svm", params={}),
    "forest": ClassifierSpec(kind="forest", params={"n_trees": 4}, seed=3),
    "naive_bayes": ClassifierSpec(kind="naive_bayes", params={}),
    "refusing": ClassifierSpec(kind="refusing_for_search_tests", params={}),
}


def outcome_tasks():
    """Tasks on the skewed corpus at sample size 2: some plans are
    infeasible, some samples hold one label, and a threshold tuple of
    (0.001,) or (0.999,) leaves MCC or DI undefined."""
    tasks = []
    for a, b, g in itertools.product((0.0, 0.5, 1.0), (0.0, 0.5, 1.0), (0.0, 1.0)):
        for k, thresholds in enumerate([(0.3, 0.5, 0.7), (0.001,), (0.999,)]):
            seed = point_seed(1 + k, int(a * 4), int(b * 4), int(g * 4))
            tasks.append((BalanceParams(a, b, g), thresholds, seed))
    return tasks


def per_task_points(chunk, table, sweep, kind, size):
    """The per-task route the columnar builder replaced: one scalar
    report per scored task from its counts, one error point per other
    task at its first threshold."""
    points = []
    rows = zip(chunk, table.outcome.tolist(), table.error.tolist(), table.threshold.tolist())
    for ((params, thresholds, seed), code, error, threshold), counts in zip(rows, table.counts.tolist()):
        if code == search_mod._OK:
            tp, fp, tn, fn, p_positive, up_positive = counts
            report = scalar_report(
                ConfusionCounts(tp, fp, tn, fn), p_positive, sweep.p_total, up_positive,
                sweep.up_total, WEIGHTS,
            )
            points.append(EvaluationPoint(params, threshold, kind, report, size, seed))
        else:
            assert threshold == thresholds[0]
            points.append(
                EvaluationPoint(params, thresholds[0], kind, None, size, seed, table.errors[error])
            )
    return points


def outcome_name(point, code):
    if code == search_mod._OK:
        return "valid" if point.valid else "degenerate"
    return {
        search_mod._INFEASIBLE: "infeasible",
        search_mod._SINGLE_LABEL: "single_label",
        search_mod._TRAINING_ERROR: "training_error",
    }[code]


def test_built_points_match_the_per_task_route(monkeypatch):
    d_train, d_eval, _ = REUSE_CORPORA["infeasible"]
    size = 2
    tasks = outcome_tasks()
    tables = []
    chunk_points = search_mod._chunk_points

    def recording(chunk, table, *args):
        tables.append((chunk, table))
        return chunk_points(chunk, table, *args)

    monkeypatch.setattr(search_mod, "_chunk_points", recording)
    monkeypatch.setattr(search_mod, "_CHUNK", 8)
    sweep = search_mod._ThresholdSweep(d_eval, WEIGHTS)
    seen = set()
    for name, spec in BUILD_SPECS.items():
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(search_mod, "_usable_cpus", lambda: workers)
            tables.clear()
            level = make_model_evaluator(d_train, d_eval, spec, WEIGHTS, size)(tasks)
            assert len(tables) == -(-len(tasks) // 8)
            want = [
                p for chunk, table in tables for p in per_task_points(chunk, table, sweep, spec.kind, size)
            ]
            assert [p.to_dict() for p in level] == [p.to_dict() for p in want]
            # each point holds its task's own knobs object
            assert all(p.params is task[0] for p, task in zip(level, tasks))
            # the numbers built with the points are the points' own
            read_off = search_mod._Level.of(list(level))
            assert np.array_equal(level.numbers, read_off.numbers, equal_nan=True)
            assert level.plain and read_off.plain
            assert list(level.lines()) == [json.dumps(p.to_dict(), sort_keys=True) for p in level]
            codes = [code for _, table in tables for code in table.outcome.tolist()]
            kinds = {outcome_name(p, code) for p, code in zip(level, codes)}
            runs.append([p.to_dict() for p in level])
        assert runs[0] == runs[1]
        assert {"valid", "infeasible", "single_label"} <= kinds, name
        if name in ("logistic", "svm"):
            assert "degenerate" in kinds
        seen |= kinds
    assert seen == {"valid", "degenerate", "infeasible", "single_label", "training_error"}


def test_a_lazy_level_sorts_and_reads_as_its_eager_points(monkeypatch):
    # the level the evaluator returns builds no point until one is read;
    # sorted, iterated, written and fronted, it must be the level of the
    # points built eagerly from the same tables
    d_train, d_eval, _ = REUSE_CORPORA["infeasible"]
    size = 2
    tasks = outcome_tasks()
    tables = []
    chunk_points = search_mod._chunk_points

    def recording(chunk, table, *args):
        tables.append((chunk, table))
        return chunk_points(chunk, table, *args)

    monkeypatch.setattr(search_mod, "_chunk_points", recording)
    monkeypatch.setattr(search_mod, "_CHUNK", 8)
    sweep = search_mod._ThresholdSweep(d_eval, WEIGHTS)
    seen = set()
    for name, spec in BUILD_SPECS.items():
        tables.clear()
        lazy = search_mod._emit(make_model_evaluator(d_train, d_eval, spec, WEIGHTS, size)(tasks), None)
        assert lazy.points is None
        eager = [
            p for chunk, table in tables for p in per_task_points(chunk, table, sweep, spec.kind, size)
        ]
        codes = [code for _, table in tables for code in table.outcome.tolist()]
        seen |= {outcome_name(p, code) for p, code in zip(eager, codes)}
        want = search_mod._emit(eager, None)
        assert [p.to_dict() for p in lazy] == [p.to_dict() for p in want], name
        assert [lazy[k].to_dict() for k in (0, -1)] == [want[k].to_dict() for k in (0, -1)]
        assert [p.to_dict() for p in lazy[2:5]] == [p.to_dict() for p in want[2:5]]
        assert list(lazy.lines()) == [json.dumps(p.to_dict(), sort_keys=True) for p in want]
        assert [p.to_dict() for p in lazy.front()] == [p.to_dict() for p in want.front()]
    assert seen == {"valid", "degenerate", "infeasible", "single_label", "training_error"}


def test_a_pooled_search_builds_only_the_points_it_returns(tmp_path, monkeypatch):
    # the search process builds no task and no point per lattice point:
    # only level 0's fit keys, the fronts' points and what they hold
    import fairsample.balance as balance_mod
    from click.testing import CliRunner

    from fairsample.cli import main

    monkeypatch.setattr(search_mod, "_CHUNK", 4)
    monkeypatch.setattr(search_mod, "_usable_cpus", lambda: 2)
    parent = os.getpid()
    built = {"points": 0, "params": 0}

    def counting(cls, key):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            if os.getpid() == parent:
                built[key] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    counting(EvaluationPoint, "points")
    counting(balance_mod.BalanceParams, "params")
    draw_chunk = search_mod._draw_chunk

    def logging_draw(*args):
        with open(tmp_path / "draws", "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return draw_chunk(*args)

    monkeypatch.setattr(search_mod, "_draw_chunk", logging_draw)
    (tmp_path / "draws").write_text("")
    config = tmp_path / "cfg.yaml"
    config.write_text(
        "dataset:\n"
        "  synthetic: {quadrants: [520, 60, 130, 40], bias: 1.0, noise: 1.0}\n"
        "split: {fractions: [0.6, 0.2, 0.2], seed: 3}\n"
        "grid: {level0_step: 0.25, level1_step: 0.125, top_k: 2, thresholds: [0.25, 0.5, 0.75]}\n"
        "classifiers:\n  - {kind: logistic}\n"
        f"out: {tmp_path / 'out'}\nseed: 11\n"
    )
    result = CliRunner().invoke(main, ["search", "--config", str(config)])
    assert result.exit_code == 0, result.output
    drawn_by = (tmp_path / "draws").read_text().split()
    assert drawn_by and str(parent) not in drawn_by  # every chunk ran in a worker
    lines = (tmp_path / "out" / "points_logistic.jsonl").read_text().splitlines()
    fronts = sum(
        len((tmp_path / "out" / f"pareto_level{n}_logistic.csv").read_text().splitlines()) - 1
        for n in (0, 1)
    )
    level0_keys, winners, optimum = 5 ** 3, 2, 1
    # building every point would break both bounds
    assert len(lines) > level0_keys + winners + fronts + optimum
    assert built["points"] <= winners + fronts + optimum
    assert built["params"] <= level0_keys + winners + fronts + optimum


TRAIN_WIDTH = FeaturePipeline().fit(TRAIN).encode(TRAIN).shape[1]


def test_a_chunk_table_is_a_few_bytes_per_task(monkeypatch):
    # a full chunk of level-1-like tasks, and one that also returns fits
    tasks = [t for s in range(64) for t in model_tasks(global_seed=s)]
    assert len(tasks) == search_mod._CHUNK
    tables = []
    chunk_points = search_mod._chunk_points

    def recording(chunk, table, *args):
        tables.append(table)
        return chunk_points(chunk, table, *args)

    monkeypatch.setattr(search_mod, "_chunk_points", recording)
    make_model_evaluator(TRAIN, EVAL, LOGISTIC, WEIGHTS, SIZE)(tasks)
    make_model_evaluator(TRAIN, EVAL, LOGISTIC, WEIGHTS, SIZE, keep_fits={})(tasks)
    bare, with_fits = tables
    assert bare.fits is None and with_fits.fits.shape == (len(tasks), TRAIN_WIDTH + 1)
    # a pickled point alone takes about 200 bytes
    assert len(pickle.dumps(bare)) <= 32 * len(tasks)
    assert len(pickle.dumps(with_fits)) <= (32 + 8 * (TRAIN_WIDTH + 1)) * len(tasks)


def plain_report(**changes):
    values = dict(
        di_ratio=0.95, mcc=0.5, accuracy=0.75, precision=0.625, recall=1 / 3, f1=0.4347826086956522,
        di_loss=0.050000000000000044, mcc_loss=0.5, combined_loss=0.55,
    )
    values.update(changes)
    return MetricReport(**values)


@pytest.mark.parametrize("block", [2, 1024])
def test_point_lines_are_json_dumps_byte_for_byte(monkeypatch, block):
    monkeypatch.setattr(search_mod, "_LINE_BLOCK", block)
    knobs = BalanceParams(0.25, 0.5, 0.75)
    degenerate = plain_report(mcc=None, mcc_loss=None, combined_loss=None)
    undefined = plain_report(di_ratio=None, mcc=None, di_loss=None, mcc_loss=None, combined_loss=None)
    plain = [
        EvaluationPoint(knobs, 0.3, "logistic", plain_report(), 88, 7),
        EvaluationPoint(knobs, 0.35, "logistic", degenerate, 88, 8),
        EvaluationPoint(knobs, 0.4, "logistic", undefined, 88, 9),
        EvaluationPoint(knobs, 0.45, "logistic", None, 88, 10, REFUSAL),
        EvaluationPoint(knobs, 0.5, "logistic", None, 88, 11, "no valid sample composition"),
        EvaluationPoint(knobs, 1e-300, "we\"ird", plain_report(f1=1e300), 88, 2**64 - 1),
        # -0.0 and 0.0 print apart, as knobs and as metrics
        EvaluationPoint(BalanceParams(-0.0, 0.0, 0.75), 0.3, "logistic", plain_report(di_loss=0.0), 88, 7),
        EvaluationPoint(BalanceParams(0.0, -0.0, 0.75), 0.3, "logistic", plain_report(di_loss=-0.0), 88, 7),
        EvaluationPoint(BalanceParams(-0.0, -0.0, -0.0), 0.3, "logistic", plain_report(mcc=-0.0), 88, 7),
    ]
    others = [
        EvaluationPoint(BalanceParams(0, 1, 0), 0.5, "logistic", plain_report(), 88, 7),
        EvaluationPoint(knobs, 0.5, "logistic", plain_report(accuracy=np.float64(0.1)), 88, 7),
        EvaluationPoint(knobs, 0.5, "logistic", plain_report(precision=float("nan")), 88, 7),
        EvaluationPoint(knobs, 0.5, "logistic", plain_report(), True, 7),
    ]
    for points in [plain, plain + others[:1], plain + others[1:2], plain + others[2:3], plain + others[3:]]:
        want = [json.dumps(p.to_dict(), sort_keys=True) for p in points]
        assert list(search_mod._Level.of(points).lines()) == want
    assert search_mod._Level.of(plain).plain
    assert "\\u2603" in json.dumps(plain[3].to_dict())


# ---------------------------------------------------------------------------
# mixed one-hot widths in one chunk

CAT_SCHEMA = Schema(
    features=(
        FeatureSpec("income", "numeric"),
        FeatureSpec("region", "categorical"),
    ),
    label="y",
    favourable="0",
    unfavourable="1",
    sensitive="age",
    privileged_min=50.0,
)


def write_categorical_corpus(path):
    # one single row carries region "c"; samples that miss it one-hot
    # to a narrower matrix than samples that catch it
    rng = np.random.default_rng(0)
    rows = []
    rare_done = False
    for n, priv, unfav in [(220, True, False), (60, True, True), (80, False, False), (40, False, True)]:
        for _ in range(n):
            age = rng.integers(50, 80) if priv else rng.integers(18, 49)
            income = rng.normal(3.0 if unfav else 7.0, 1.5)
            region = "a" if rng.random() < 0.5 else "b"
            if priv and not unfav and not rare_done:
                region = "c"
                rare_done = True
            rows.append(f"{age},{income:.3f},{region},{1 if unfav else 0}")
    path.write_text("age,income,region,y\n" + "\n".join(rows) + "\n")
    return str(path)


def test_logistic_chunk_handles_mixed_one_hot_widths(tmp_path):
    d = load_csv(write_categorical_corpus(tmp_path / "cat.csv"), CAT_SCHEMA)
    size = 147
    spec = ClassifierSpec(kind="logistic", params={})
    params = BalanceParams(0.0, 0.0, 0.0)
    tasks = [(params, (0.3, 0.5, 0.7), 0), (params, (0.3, 0.5, 0.7), 1)]
    widths = set()
    for _, _, seed in tasks:
        sample = materialize_sample(d, compute_plan(quadrant_counts(d), params), size, seed)
        widths.add(FeaturePipeline().fit(sample).transform(sample).shape[1])
    assert len(widths) == 2  # the fixture really does mix widths
    evaluate = make_model_evaluator(d, d, spec, WEIGHTS, size)
    for task, point in zip(tasks, evaluate(tasks)):
        threshold, report = reference_point(d, d, spec, task, size)
        assert point.threshold == threshold
        assert point.report.to_dict() == pytest.approx(report.to_dict(), rel=1e-9)


# ---------------------------------------------------------------------------
# the whole pipeline on a real model, same evaluation split per level

def test_full_search_real_model_keeps_the_incumbent_property():
    spec = ClassifierSpec(kind="logistic", params={})
    result = full_search(TRAIN, EVAL, EVAL, spec, SMALL_GRID, seed=2)
    assert result.size == 88
    valid0 = [p for p in result.level0 if p.valid]
    valid1 = [p for p in result.level1 if p.valid]
    assert valid0 and valid1
    # level 1 re-scores every incumbent identically (same sample, same
    # split, superset thresholds), so its best can only improve
    assert valid1[0].combined <= valid0[0].combined
    assert result.best is not None
    assert result.best in result.front.points
    front_coords = result.front.coordinates()
    assert front_coords == sorted(front_coords)

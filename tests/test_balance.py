"""Balance module tests.

The closed form is checked against two independent oracles: a numeric
root-solve of the constraint system (which never touches the closed-form
algebra) and an exhaustive exact-rational lattice loop for the size
bound. Frozen expected values below were produced by those oracles.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from fairsample.balance import (
    BalanceParams,
    _draw_rows,
    PRESET_NAMES,
    SamplingPlan,
    allowed_interval,
    apportion,
    bound_at,
    check_restrictions,
    compute_plan,
    draw_samples,
    materialize_sample,
    max_sample_size,
    plan_ratios,
    preset_plan,
    quadrant_bounds,
    sample_indices,
)
from fairsample.base import InfeasibleError, InputError, PlanError
from fairsample.dataset import (
    QuadrantCounts,
    SyntheticSpec,
    generate_synthetic,
    quadrant_counts,
)

# the running example: 22k records, heavy privilege and favourability skew
EXAMPLE = QuadrantCounts(p_f=19500, p_uf=500, up_f=1900, up_uf=100)


# ---------------------------------------------------------------------------
# oracles

def solve_ratios_numeric(c: QuadrantCounts, params: BalanceParams):
    """Root-solve the constraint system without the closed form.

    Reduces the four unknown ratios to one via the two share equations
    plus the simplex constraint, then solves the advantage-ratio
    equation for r_p_f by bisection. Returns None when no interior
    solution exists.
    """
    T = c.total
    P = (c.privileged / T) * (1 - params.alpha) + 0.5 * params.alpha
    F = (c.favourable / T) * (1 - params.beta) + 0.5 * params.beta
    A0 = (c.p_f / c.privileged) / (c.up_f / c.unprivileged)
    A = A0 * (1 - params.gamma) + params.gamma

    def gap(t):
        # advantage ratio implied by r_p_f = t, minus the target
        return (t / P) * ((1 - P) / (F - t)) - A

    lo = max(0.0, P + F - 1.0) + 1e-12
    hi = min(P, F) - 1e-12
    if lo >= hi or gap(lo) * gap(hi) > 0:
        return None
    t = brentq(gap, lo, hi, xtol=1e-14, rtol=8.9e-16)
    r = (t, P - t, F - t, 1 - P - F + t)
    if min(r) < -1e-9 or t / P > 1 + 1e-9 or (F - t) / (1 - P) > 1 + 1e-9:
        return None
    return r


def max_size_bruteforce_numeric(c: QuadrantCounts, step: float) -> int:
    """Loop every lattice point through the numeric solver."""
    n = round(1 / step)
    best = None
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                r = solve_ratios_numeric(c, BalanceParams(i / n, j / n, k / n))
                if r is None:
                    continue
                for count, ratio in zip(c.as_tuple(), r):
                    if ratio <= 1e-15:
                        continue
                    # snap: the solver is accurate to ~1e-12, floors at
                    # exact integers must not flip down
                    b = math.floor(count / ratio + 1e-7)
                    if best is None or b < best:
                        best = b
    return best


def max_size_bruteforce_exact(c: QuadrantCounts, step: float) -> int:
    """Exact-rational exhaustive loop, skipping infeasible points."""
    n = round(1 / step)
    half = Fraction(1, 2)
    P0 = Fraction(c.privileged, c.total)
    F0 = Fraction(c.favourable, c.total)
    A0 = Fraction(c.p_f * c.unprivileged, c.privileged * c.up_f)
    best = None
    for i in range(n + 1):
        P = P0 * (1 - Fraction(i, n)) + half * Fraction(i, n)
        for j in range(n + 1):
            F = F0 * (1 - Fraction(j, n)) + half * Fraction(j, n)
            for k in range(n + 1):
                A = A0 * (1 - Fraction(k, n)) + Fraction(k, n)
                f_up = F / (1 + A * P - P)
                f_p = A * f_up
                if f_p > 1 or f_up > 1:
                    continue
                ratios = (P * f_p, P * (1 - f_p), (1 - P) * f_up, (1 - P) * (1 - f_up))
                for count, r in zip(c.as_tuple(), ratios):
                    if r == 0:
                        continue
                    b = Fraction(count) / r
                    b = int(b)
                    if best is None or b < best:
                        best = b
    return best


def ratios_from_targets(P: float, F: float, A: float):
    """Test-local copy of the closed form for building fixture plans."""
    f_up = F / (1 + A * P - P)
    f_p = A * f_up
    return (P * f_p, P * (1 - f_p), (1 - P) * f_up, (1 - P) * (1 - f_up))


def plan_with_ratios(c: QuadrantCounts, ratios) -> SamplingPlan:
    p = ratios[0] + ratios[1]
    f = ratios[0] + ratios[2]
    return SamplingPlan(
        counts=c,
        params=BalanceParams(0.0, 0.0, 0.0),
        privileged_share=p,
        favourable_share=f,
        advantage_ratio=(ratios[0] / p) / (ratios[2] / (1 - p)),
        fav_rate_privileged=ratios[0] / p,
        fav_rate_unprivileged=ratios[2] / (1 - p),
        r_p_f=ratios[0],
        r_p_uf=ratios[1],
        r_up_f=ratios[2],
        r_up_uf=ratios[3],
    )


def random_counts(rng, lo=1, hi=100_000) -> QuadrantCounts:
    vals = np.exp(rng.uniform(np.log(lo), np.log(hi), size=4)).astype(int) + 1
    return QuadrantCounts(*[int(v) for v in vals])


# ---------------------------------------------------------------------------
# compute_plan

def test_worked_example_ratios_match_numeric_solver():
    params = BalanceParams(0.5, 0.8, 0.4)
    plan = compute_plan(EXAMPLE, params)
    oracle = solve_ratios_numeric(EXAMPLE, params)
    assert oracle is not None
    for got, want in zip(plan.ratios, oracle):
        assert got == pytest.approx(want, abs=1e-9)
    # frozen oracle values
    for got, want in zip(plan.ratios, (0.42082, 0.28373, 0.17373, 0.12173)):
        assert got == pytest.approx(want, abs=1e-4)


def test_worked_example_coarse_rounding():
    # the 3-decimal reference tuple is a bit off in two cells; keep it
    # only as a loose cross-check
    plan = compute_plan(EXAMPLE, BalanceParams(0.5, 0.8, 0.4))
    for got, reference in zip(plan.ratios, (0.421, 0.284, 0.176, 0.120)):
        assert abs(got - reference) <= 0.004


def test_worked_example_targets():
    plan = compute_plan(EXAMPLE, BalanceParams(0.5, 0.8, 0.4))
    assert plan.privileged_share == pytest.approx(0.70454545, abs=1e-7)
    assert plan.favourable_share == pytest.approx(0.59454545, abs=1e-7)
    assert plan.advantage_ratio == pytest.approx(1.01578947, abs=1e-7)
    assert plan.fav_rate_unprivileged == pytest.approx(0.58800426, abs=1e-7)
    assert plan.fav_rate_privileged == pytest.approx(0.59728854, abs=1e-7)


def test_identity_corner_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = random_counts(rng)
        plan = compute_plan(c, BalanceParams(0.0, 0.0, 0.0))
        T = c.total
        assert plan.ratios == (c.p_f / T, c.p_uf / T, c.up_f / T, c.up_uf / T)


def test_balanced_corner_is_exact():
    rng = np.random.default_rng(8)
    for _ in range(20):
        c = random_counts(rng)
        plan = compute_plan(c, BalanceParams(1.0, 1.0, 1.0))
        assert plan.ratios == (0.25, 0.25, 0.25, 0.25)


def test_plan_satisfies_constraints_randomized():
    rng = np.random.default_rng(9)
    solved = 0
    for _ in range(300):
        c = random_counts(rng)
        params = BalanceParams(*rng.uniform(0, 1, size=3))
        try:
            plan = compute_plan(c, params)
        except InfeasibleError:
            # the numeric oracle must agree there is no valid solution
            assert solve_ratios_numeric(c, params) is None
            continue
        solved += 1
        r = plan.ratios
        assert sum(r) == pytest.approx(1.0, abs=1e-9)
        assert min(r) >= 0
        assert r[0] + r[1] == pytest.approx(plan.privileged_share, abs=1e-9)
        assert r[0] + r[2] == pytest.approx(plan.favourable_share, abs=1e-9)
        got_a = (r[0] / (r[0] + r[1])) / (r[2] / (r[2] + r[3]))
        assert got_a == pytest.approx(plan.advantage_ratio, rel=1e-9)
        assert check_restrictions(c, plan).ok
    assert solved > 200  # feasible cases must dominate the draw


def test_plan_matches_numeric_solver_randomized():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(100):
        c = random_counts(rng)
        params = BalanceParams(*rng.uniform(0, 1, size=3))
        try:
            plan = compute_plan(c, params)
        except InfeasibleError:
            continue
        oracle = solve_ratios_numeric(c, params)
        if oracle is None:
            continue
        checked += 1
        for got, want in zip(plan.ratios, oracle):
            assert got == pytest.approx(want, abs=1e-7)
    assert checked > 60


def test_infeasible_targets_raise():
    # strong advantage ratio and a nearly all-favourable pool: pushing the
    # label share to 0.5 while keeping the advantage demands a privileged
    # favourable rate above 1
    c = QuadrantCounts(p_f=3980, p_uf=20, up_f=829, up_uf=171)
    with pytest.raises(InfeasibleError):
        compute_plan(c, BalanceParams(1.0, 0.0, 0.0))
    # the same counts still admit plans elsewhere
    compute_plan(c, BalanceParams(1.0, 1.0, 1.0))
    assert max_sample_size(c, step=0.1) > 0


def test_param_validation():
    with pytest.raises(PlanError):
        BalanceParams(-0.1, 0.5, 0.5)
    with pytest.raises(PlanError):
        BalanceParams(0.5, 1.2, 0.5)
    with pytest.raises(PlanError):
        BalanceParams(0.5, float("nan"), 0.5)


def test_empty_quadrant_rejected():
    with pytest.raises(PlanError):
        compute_plan(QuadrantCounts(10, 0, 5, 5), BalanceParams(0.5, 0.5, 0.5))
    with pytest.raises(PlanError):
        max_sample_size(QuadrantCounts(10, 3, 0, 5))


@functools.lru_cache(maxsize=1)
def lattice_params(n: int) -> list[BalanceParams]:
    return [BalanceParams(a / n, b / n, g / n) for a, b, g in itertools.product(range(n + 1), repeat=3)]


@pytest.mark.parametrize(
    "counts, infeasible",
    [
        (QuadrantCounts(9000, 90, 900, 30), False),  # W1's composition
        (QuadrantCounts(250, 250, 250, 250), False),
        (QuadrantCounts(400, 10, 80, 40), True),
    ],
)
def test_plan_ratios_are_compute_plan_bit_for_bit(counts, infeasible):
    # every cell of the 0.02 lattice: the parts cached per (alpha, gamma)
    # give compute_plan's floats and its InfeasibleError text
    params = lattice_params(50)
    ratios, reasons = plan_ratios(counts, params)
    assert ratios.shape == (len(params), 4) and len(reasons) == len(params)
    want = np.zeros((len(params), 4))
    want_reasons = []
    for k, p in enumerate(params):
        try:
            want[k] = compute_plan(counts, p).ratios
            want_reasons.append(None)
        except InfeasibleError as exc:
            want_reasons.append(str(exc))
    assert reasons == want_reasons
    assert np.array_equal(ratios.view(np.int64), want.view(np.int64))
    assert any(r is not None for r in reasons) == infeasible


def test_plan_ratios_check_the_counts():
    with pytest.raises(PlanError, match="empty"):
        plan_ratios(QuadrantCounts(10, 0, 5, 5), [BalanceParams(0.5, 0.5, 0.5)])


# ---------------------------------------------------------------------------
# bounds

def test_worked_example_bounds():
    params = BalanceParams(0.5, 0.8, 0.4)
    bounds = quadrant_bounds(EXAMPLE, params)
    assert bounds == {"p_f": 46338, "p_uf": 1762, "up_f": 10936, "up_uf": 821}
    assert bound_at(EXAMPLE, params) == 821


def test_balanced_corner_bound_is_four_times_smallest():
    # 900k-record skew taken from a public fraud dataset's training split
    c = QuadrantCounts(p_f=853012, p_uf=8594, up_f=37062, up_uf=1332)
    assert bound_at(c, BalanceParams(1.0, 1.0, 1.0)) == 4 * 1332


def test_max_sample_size_worked_example():
    assert max_sample_size(EXAMPLE) == 394


def test_max_sample_size_matches_numeric_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(5):
        c = random_counts(rng, lo=3, hi=3000)
        assert max_sample_size(c, step=0.1) == max_size_bruteforce_numeric(c, 0.1)
    assert max_sample_size(EXAMPLE, step=0.1) == max_size_bruteforce_numeric(EXAMPLE, 0.1)


def test_max_sample_size_matches_exact_bruteforce():
    rng = np.random.default_rng(12)
    for _ in range(5):
        c = random_counts(rng, lo=3, hi=3000)
        assert max_sample_size(c, step=0.1) == max_size_bruteforce_exact(c, 0.1)
    # include a case with infeasible lattice points
    c = QuadrantCounts(p_f=3980, p_uf=20, up_f=829, up_uf=171)
    assert max_sample_size(c, step=0.1) == max_size_bruteforce_exact(c, 0.1)


def test_max_sample_size_never_exceeds_any_lattice_bound():
    rng = np.random.default_rng(13)
    for _ in range(5):
        c = random_counts(rng, lo=3, hi=5000)
        m = max_sample_size(c, step=0.1)
        seen_equal = False
        for i in range(11):
            for j in range(11):
                for k in range(11):
                    params = BalanceParams(i / 10, j / 10, k / 10)
                    try:
                        b = bound_at(c, params)
                    except InfeasibleError:
                        continue
                    assert m <= b
                    seen_equal = seen_equal or m == b
        assert seen_equal


def test_fully_balanced_counts_bound_everywhere():
    c = QuadrantCounts(100, 100, 100, 100)
    n = 10
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(n + 1):
                plan = compute_plan(c, BalanceParams(i / n, j / n, k / n))
                assert plan.ratios == (0.25, 0.25, 0.25, 0.25)
    assert max_sample_size(c) == 400


def test_step_validation():
    with pytest.raises(InputError):
        max_sample_size(EXAMPLE, step=0.3)
    with pytest.raises(InputError):
        max_sample_size(EXAMPLE, step=0.0)
    assert max_sample_size(EXAMPLE, step=1.0) > 0


# ---------------------------------------------------------------------------
# restrictions

def test_restrictions_pass_for_closed_form_lattice():
    for i in range(11):
        for j in range(11):
            for k in range(11):
                plan = compute_plan(EXAMPLE, BalanceParams(i / 10, j / 10, k / 10))
                report = check_restrictions(EXAMPLE, plan)
                assert report.ok, (i, j, k, report.violated)


def test_restriction_code_privileged_beyond_source():
    plan = plan_with_ratios(EXAMPLE, ratios_from_targets(0.99, 0.9, 1.01))
    assert check_restrictions(EXAMPLE, plan).violated == (1,)


def test_restriction_code_privileged_past_parity():
    plan = plan_with_ratios(EXAMPLE, ratios_from_targets(0.3, 0.9, 1.01))
    assert check_restrictions(EXAMPLE, plan).violated == (2,)


def test_restriction_code_favourable_beyond_source():
    plan = plan_with_ratios(EXAMPLE, ratios_from_targets(0.7, 0.99, 1.01))
    assert check_restrictions(EXAMPLE, plan).violated == (3,)


def test_restriction_code_favourable_past_parity():
    plan = plan_with_ratios(EXAMPLE, ratios_from_targets(0.7, 0.3, 1.01))
    assert check_restrictions(EXAMPLE, plan).violated == (4,)


def test_restriction_code_advantage_beyond_source():
    plan = plan_with_ratios(EXAMPLE, ratios_from_targets(0.7, 0.9, 1.2))
    assert check_restrictions(EXAMPLE, plan).violated == (5,)


def test_restriction_code_advantage_past_parity():
    plan = plan_with_ratios(EXAMPLE, ratios_from_targets(0.7, 0.9, 0.9))
    assert check_restrictions(EXAMPLE, plan).violated == (6,)


def test_restriction_codes_combine():
    plan = plan_with_ratios(EXAMPLE, ratios_from_targets(0.99, 0.9, 0.9))
    assert check_restrictions(EXAMPLE, plan).violated == (1, 6)


def test_restriction_boundary_within_tolerance():
    src_p = EXAMPLE.privileged / EXAMPLE.total
    plan = plan_with_ratios(EXAMPLE, ratios_from_targets(src_p + 5e-10, 0.9, 1.01))
    assert check_restrictions(EXAMPLE, plan).ok


def test_allowed_interval_orients():
    assert allowed_interval(0.9, 0.5) == (0.5, 0.9)
    assert allowed_interval(0.2, 0.5) == (0.2, 0.5)


# ---------------------------------------------------------------------------
# apportionment and sampling

def test_apportion_worked_example():
    plan = compute_plan(EXAMPLE, BalanceParams(0.5, 0.8, 0.4))
    quotas = apportion(394, plan.ratios)
    assert sum(quotas) == 394
    assert quotas == (166, 112, 68, 48)
    for got, printed in zip(quotas, (166, 112, 69, 47)):
        assert abs(got - printed) <= 1


def test_apportion_properties():
    rng = np.random.default_rng(14)
    for _ in range(200):
        r = rng.dirichlet(np.ones(4))
        size = int(rng.integers(1, 5000))
        quotas = apportion(size, tuple(r))
        assert sum(quotas) == size
        for q, ratio in zip(quotas, r):
            assert abs(q - size * ratio) < 1.0


def test_apportion_tie_break_by_quadrant_order():
    # remainders all equal: the leftover goes to the earliest quadrants
    assert apportion(2, (0.25, 0.25, 0.25, 0.25)) == (1, 1, 0, 0)


def test_materialize_composition_and_determinism():
    d = generate_synthetic(SyntheticSpec(quadrants=(400, 50, 80, 30), bias=0.0), seed=3)
    c = quadrant_counts(d)
    plan = compute_plan(c, BalanceParams(0.6, 0.7, 0.2))
    size = bound_at(c, plan.params)
    sample = materialize_sample(d, plan, size, seed=21)
    again = materialize_sample(d, plan, size, seed=21)
    other = materialize_sample(d, plan, size, seed=22)
    assert len(sample) == size
    assert np.array_equal(sample.row_ids, again.row_ids)
    assert not np.array_equal(sample.row_ids, other.row_ids)
    # membership: sampled ids exist in the source, without duplicates
    assert len(np.unique(sample.row_ids)) == len(sample)
    assert np.isin(sample.row_ids, d.row_ids).all()
    assert quadrant_counts(sample).as_tuple() == apportion(size, plan.ratios)


def test_draws_are_pinned():
    # every path of the draw on one grid: zero quotas, whole pools,
    # permutations, and Floyd draws with and without collisions (among
    # them collisions on an earlier step's fix-up value); the digest was
    # recorded before the draw was batched and must never move
    d = generate_synthetic(SyntheticSpec(quadrants=(400, 50, 80, 30), bias=0.0), seed=3)
    c = quadrant_counts(d)
    pool_sizes = c.as_tuple()
    paths = dict.fromkeys(("zero", "whole", "permutation", "floyd"), 0)
    digest = hashlib.sha256()
    for a, b, g in itertools.product((0.0, 0.5, 1.0), repeat=3):
        plan = compute_plan(c, BalanceParams(a, b, g))
        for size in (1, 3, 25, 60, bound_at(c, plan.params)):
            for need, n in zip(apportion(size, plan.ratios), pool_sizes):
                path = "zero" if need == 0 else "whole" if need >= n else (
                    "permutation" if 4 * need >= n else "floyd"
                )
                paths[path] += 3
            for seed in range(3):
                rows = sample_indices(d, plan, size, seed)
                digest.update(rows.astype(np.int64).tobytes())
    assert min(paths.values()) >= 90, paths
    assert digest.hexdigest() == (
        "71c7b74f3e18d4531f9b8b61b24ee0fcabb38ae5d1a9aad733f76c77fd40ed2c"
    )


def oracle_draw(rng, pool, need, seen):
    """The per-element Floyd loop the draw used to run, in draw order;
    counts in seen which branch ran, how many draws landed in the
    [n - need, n) range and how many collided."""
    n = len(pool)
    if need >= n:
        seen["whole"] += 1
        return pool.copy()
    if 4 * need >= n:
        seen["permutation"] += 1
        return rng.permutation(pool)[:need]
    seen["floyd"] += 1
    highs = np.arange(n - need + 1, n + 1)
    draws = np.minimum((rng.random(need) * highs).astype(np.int64), highs - 1)
    seen["high_draws"] += int((draws >= n - need).sum())
    taken = set()
    out = np.empty(need, dtype=pool.dtype)
    for i, (t, j) in enumerate(zip(draws.tolist(), range(n - need, n))):
        if t in taken:
            seen["collisions"] += 1
            t = j
        taken.add(t)
        out[i] = pool[t]
    return out


def test_draw_matches_per_element_floyd_loop():
    # one batched draw per pool length n; each task draws its case's need
    # from the n-pool, then the rest of the sample from a big second pool
    # by Floyd, which shows where the first draw left the stream
    cases = [(n, need, n * 7919 + need) for n in range(1, 111) for need in range(1, n + 1)]
    cases += [(n, need, seed) for n in (200, 1000, 9000) for need in (1, 2, 5, 17, 49) for seed in range(40)]
    seen = dict.fromkeys(("whole", "permutation", "floyd", "high_draws", "collisions"), 0)
    for n in sorted({n for n, _, _ in cases}):
        group = [(need, seed) for m, need, seed in cases if m == n]
        size = max(need for need, _ in group) + 20
        pool = np.arange(n, dtype=np.intp) * 3 + 11  # values differ from positions
        rest = np.arange(8 * size, dtype=np.intp) * 3 + pool[-1] + 1
        empty = np.empty(0, dtype=np.intp)
        quotas = np.array([(need, size - need, 0, 0) for need, _ in group])
        rows = _draw_rows([pool, rest, empty, empty], quotas, [seed for _, seed in group], size)
        for (need, seed), got in zip(group, rows):
            oracle_rng = np.random.default_rng(seed)
            want = oracle_draw(oracle_rng, pool, need, seen)
            want_rest = oracle_draw(oracle_rng, rest, size - need, dict.fromkeys(seen, 0))
            assert got.dtype == want.dtype
            assert np.array_equal(got[:need], np.sort(want))
            assert np.array_equal(got[need:], np.sort(want_rest))  # the stream is untouched
    assert len(cases) > 2000
    assert min(seen.values()) > 100, seen


def test_draw_samples_is_sample_indices_per_plan():
    # some quotas are too big for a quadrant at this size
    d = generate_synthetic(SyntheticSpec(quadrants=(400, 10, 80, 40), bias=0.0), seed=3)
    c = quadrant_counts(d)
    plans = []
    for a, b, g in itertools.product((0.0, 0.3, 1.0), repeat=3):
        try:
            plans.append(compute_plan(c, BalanceParams(a, b, g)))
        except InfeasibleError:
            continue
    seeds = list(range(len(plans)))
    size = 100
    rows, reasons = draw_samples(d, np.array([plan.ratios for plan in plans]), seeds, size)
    assert rows.shape[1] == size
    drawn = iter(rows)
    outcomes = set()
    for plan, seed, reason in zip(plans, seeds, reasons):
        try:
            want = sample_indices(d, plan, size, seed)
        except InfeasibleError as exc:
            assert reason == str(exc)
            outcomes.add("short")
            continue
        assert reason is None
        assert np.array_equal(next(drawn), want)
        outcomes.add("drawn")
    assert next(drawn, None) is None
    assert outcomes == {"drawn", "short"}


def test_materialize_infeasible_names_quadrant():
    d = generate_synthetic(SyntheticSpec(quadrants=(50, 10, 20, 5), bias=0.0), seed=4)
    c = quadrant_counts(d)
    plan = compute_plan(c, BalanceParams(1.0, 1.0, 1.0))
    limit = bound_at(c, plan.params)
    with pytest.raises(InfeasibleError, match="up_uf"):
        materialize_sample(d, plan, limit + 4, seed=5)
    materialize_sample(d, plan, limit, seed=5)


def test_materialize_rejects_bad_size():
    d = generate_synthetic(SyntheticSpec(quadrants=(20, 10, 10, 5), bias=0.0), seed=6)
    plan = compute_plan(quadrant_counts(d), BalanceParams(0.0, 0.0, 0.0))
    with pytest.raises(InputError):
        materialize_sample(d, plan, 0, seed=1)


# ---------------------------------------------------------------------------
# presets

def test_preset_names():
    assert PRESET_NAMES == (
        "double-balanced",
        "unfavourable-balanced",
        "privilege-balanced",
        "double-imbalanced",
    )


def test_preset_target_proportions():
    c = EXAMPLE
    T = c.total
    p0 = c.privileged / T
    f0 = c.favourable / T
    expect = {
        "double-balanced": (0.25, 0.25, 0.25, 0.25),
        "unfavourable-balanced": (p0 / 2, p0 / 2, (1 - p0) / 2, (1 - p0) / 2),
        "privilege-balanced": (f0 / 2, (1 - f0) / 2, f0 / 2, (1 - f0) / 2),
        "double-imbalanced": (c.p_f / T, c.p_uf / T, c.up_f / T, c.up_uf / T),
    }
    for name, want in expect.items():
        got = preset_plan(c, name).ratios
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12)


def test_preset_shares_match_training_split_reference_values():
    c = QuadrantCounts(p_f=853012, p_uf=8594, up_f=37062, up_uf=1332)
    plan = preset_plan(c, "unfavourable-balanced")
    assert 1 - plan.privileged_share == pytest.approx(38394 / 900000, abs=1e-12)
    assert plan.favourable_share == 0.5
    plan = preset_plan(c, "privilege-balanced")
    assert plan.privileged_share == 0.5
    assert 1 - plan.favourable_share == pytest.approx(9926 / 900000, abs=1e-12)


def test_unknown_preset():
    with pytest.raises(InputError):
        preset_plan(EXAMPLE, "triple-balanced")

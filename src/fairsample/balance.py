"""Closed-form quadrant resampling ratios and their feasibility bounds.

The resampling target is described by three knobs in [0, 1]:

* alpha moves the privileged-group share from its source value toward 0.5,
* beta moves the favourable-label share from its source value toward 0.5,
* gamma moves the advantage ratio (privileged favourable rate over
  unprivileged favourable rate) from its source value toward 1.

Given those targets the four quadrant sampling ratios follow in closed
form. All plan arithmetic runs on exact rationals and is rounded to
float once at the boundary, so the identity corners ((0,0,0) reproduces
the source mix, (1,1,1) gives four exact quarters) hold without
tolerance games.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .base import InfeasibleError, InputError, PlanError, check_number
from .dataset import Dataset, QuadrantCounts, QUADRANT_NAMES


@dataclass(frozen=True)
class BalanceParams:
    """The three balancing knobs, each in [0, 1]."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        try:
            check_number(self.alpha, "alpha", 0.0, 1.0)
            check_number(self.beta, "beta", 0.0, 1.0)
            check_number(self.gamma, "gamma", 0.0, 1.0)
        except InputError as exc:
            raise PlanError(str(exc)) from None

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


@dataclass(frozen=True)
class SamplingPlan:
    """Resolved sampling targets for one parameter point.

    privileged_share / favourable_share / advantage_ratio are the
    interpolated targets; fav_rate_privileged / fav_rate_unprivileged the
    per-group favourable rates they imply; r_* the quadrant sampling
    ratios (they sum to 1).
    """

    counts: QuadrantCounts
    params: BalanceParams
    privileged_share: float
    favourable_share: float
    advantage_ratio: float
    fav_rate_privileged: float
    fav_rate_unprivileged: float
    r_p_f: float
    r_p_uf: float
    r_up_f: float
    r_up_uf: float

    @property
    def ratios(self) -> tuple[float, float, float, float]:
        return (self.r_p_f, self.r_p_uf, self.r_up_f, self.r_up_uf)

    def to_dict(self) -> dict:
        return {
            "counts": dict(zip(QUADRANT_NAMES, self.counts.as_tuple())),
            "params": {
                "alpha": self.params.alpha,
                "beta": self.params.beta,
                "gamma": self.params.gamma,
            },
            "privileged_share": self.privileged_share,
            "favourable_share": self.favourable_share,
            "advantage_ratio": self.advantage_ratio,
            "fav_rate_privileged": self.fav_rate_privileged,
            "fav_rate_unprivileged": self.fav_rate_unprivileged,
            "ratios": dict(zip(QUADRANT_NAMES, self.ratios)),
        }


def _check_counts(c: QuadrantCounts) -> None:
    for name, v in zip(QUADRANT_NAMES, c.as_tuple()):
        if v <= 0:
            raise PlanError(f"quadrant {name} is empty; ratios are undefined")


# Exact rational arithmetic on unreduced (numerator, denominator) int
# pairs. Reducing once at the end instead of after every operation is
# what keeps compute_plan cheap enough for the grid search's hot loop;
# denominators stay positive throughout so comparisons read off signs.

def _rmul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] * y[0], x[1] * y[1])


def _radd(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] * y[1] + y[0] * x[1], x[1] * y[1])


def _rsub(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] * y[1] - y[0] * x[1], x[1] * y[1])


def _rdiv(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    num, den = x[0] * y[1], x[1] * y[0]
    return (num, den) if den > 0 else (-num, -den)


def _rfloat(x: tuple[int, int]) -> float:
    return x[0] / x[1]


@lru_cache(maxsize=4096)
def _moved(source: tuple[int, int], target: tuple[int, int], knob: float) -> tuple[int, int]:
    """source * (1 - knob) + target * knob, exactly."""
    k = float(knob).as_integer_ratio()
    return _radd(_rmul(source, _rsub((1, 1), k)), _rmul(target, k))


def _exact_targets(
    c: QuadrantCounts, params: BalanceParams
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    # each target follows from one knob, so a grid search meets the
    # same few values again and again: _moved caches them
    return (
        _moved((c.privileged, c.total), (1, 2), params.alpha),
        _moved((c.favourable, c.total), (1, 2), params.beta),
        _moved((c.p_f * c.unprivileged, c.privileged * c.up_f), (1, 1), params.gamma),
    )


def _reduced(x: tuple[int, int]) -> tuple[int, int]:
    g = math.gcd(*x)
    return (x[0] // g, x[1] // g)


def _group_parts(c: QuadrantCounts, alpha: float, gamma: float) -> tuple[tuple[int, int], ...]:
    """(P', 1 - P', A'/d, 1/d) with d = (1 - P') + A' P', reduced: the
    plan's parts that depend only on (alpha, gamma). d > 0 because
    A' > 0 and 0 < P' < 1."""
    one = (1, 1)
    P = _moved((c.privileged, c.total), (1, 2), alpha)
    A = _moved((c.p_f * c.unprivileged, c.privileged * c.up_f), (1, 1), gamma)
    Q = _rsub(one, P)
    d = _radd(Q, _rmul(A, P))
    return _reduced(P), _reduced(Q), _reduced(_rdiv(A, d)), _reduced(_rdiv(one, d))


def _ratios_from(
    parts: tuple[tuple[int, int], ...], F: tuple[int, int]
) -> tuple[tuple[int, int], tuple[int, int], tuple[tuple[int, int], ...]]:
    """(F'_p, F'_up, (r_p_f, r_p_uf, r_up_f, r_up_uf)) from _group_parts
    and the favourable-share target F': F'_p = F' A'/d, F'_up = F'/d."""
    P, Q, a_over_d, over_d = parts
    f_p = _rmul(F, a_over_d)
    f_up = _rmul(F, over_d)
    if f_p[0] > f_p[1] or f_up[0] > f_up[1]:
        raise InfeasibleError(
            "no valid sample composition reaches these targets: the implied "
            f"per-group favourable rates are {_rfloat(f_p):.4f} (privileged) "
            f"and {_rfloat(f_up):.4f} (unprivileged)"
        )
    ratios = (
        _rmul(P, f_p),
        _rmul(P, _rsub((1, 1), f_p)),
        _rmul(Q, f_up),
        _rmul(Q, _rsub((1, 1), f_up)),
    )
    return f_p, f_up, ratios


def _exact_ratios(
    c: QuadrantCounts, params: BalanceParams
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Returns ((P', F', A', F'_p, F'_up), (r_p_f, r_p_uf, r_up_f, r_up_uf))."""
    P, F, A = _exact_targets(c, params)
    f_p, f_up, ratios = _ratios_from(_group_parts(c, params.alpha, params.gamma), F)
    return (P, F, A, f_p, f_up), ratios


def plan_ratios(
    c: QuadrantCounts, params: Sequence[BalanceParams]
) -> tuple[np.ndarray, list[str | None]]:
    """compute_plan's ratios for many points at once: a (K, 4) array,
    each row equal to its plan's ratios bit for bit, and per point None
    or compute_plan's InfeasibleError text (its row is then 0).

    The parts that depend on (alpha, gamma) are computed once per
    distinct pair. Every ratio is the same exact rational as
    compute_plan's, and int true division rounds correctly, so the
    floats agree.
    """
    _check_counts(c)
    rows: list[tuple[float, ...]] = []
    reasons: list[str | None] = []
    parts: dict[tuple[float, float], tuple[tuple[int, int], ...]] = {}
    favourable = (c.favourable, c.total)
    for p in params:
        key = (p.alpha, p.gamma)
        if key not in parts:
            parts[key] = _group_parts(c, p.alpha, p.gamma)
        try:
            _, _, exact = _ratios_from(parts[key], _moved(favourable, (1, 2), p.beta))
        except InfeasibleError as exc:
            rows.append((0.0,) * 4)
            reasons.append(str(exc))
            continue
        rows.append(tuple(map(_rfloat, exact)))
        reasons.append(None)
    return np.array(rows, dtype=float).reshape(len(rows), 4), reasons


def compute_plan(c: QuadrantCounts, params: BalanceParams) -> SamplingPlan:
    """Closed-form sampling ratios for one (alpha, beta, gamma) point.

    Raises InfeasibleError when the algebraic solution would need a
    per-group favourable rate above 1 (possible when the source advantage
    ratio is far from 1 and the targets are pushed past what the group
    shares admit); such points simply have no valid plan.
    """
    _check_counts(c)
    (P, F, A, f_p, f_up), ratios = _exact_ratios(c, params)
    return SamplingPlan(
        counts=c,
        params=params,
        privileged_share=_rfloat(P),
        favourable_share=_rfloat(F),
        advantage_ratio=_rfloat(A),
        fav_rate_privileged=_rfloat(f_p),
        fav_rate_unprivileged=_rfloat(f_up),
        r_p_f=_rfloat(ratios[0]),
        r_p_uf=_rfloat(ratios[1]),
        r_up_f=_rfloat(ratios[2]),
        r_up_uf=_rfloat(ratios[3]),
    )


def quadrant_bounds(c: QuadrantCounts, params: BalanceParams) -> dict[str, int | None]:
    """floor(count / ratio) per quadrant; None where the ratio is 0."""
    _check_counts(c)
    _, ratios = _exact_ratios(c, params)
    out: dict[str, int | None] = {}
    for name, count, (num, den) in zip(QUADRANT_NAMES, c.as_tuple(), ratios):
        out[name] = None if num == 0 else count * den // num
    return out


def bound_at(c: QuadrantCounts, params: BalanceParams) -> int:
    """Largest sample size whose quadrant quotas fit the source counts."""
    bounds = [b for b in quadrant_bounds(c, params).values() if b is not None]
    return min(bounds)


def _lattice_denominator(step: float, name: str = "lattice step") -> int:
    n = round(1.0 / check_number(step, name, 0.0, 1.0, "(]"))
    if abs(n * step - 1.0) > 1e-9:
        raise InputError(f"{name} {step!r} does not divide 1 evenly")
    return n


def max_sample_size(c: QuadrantCounts, step: float = 0.01) -> int:
    """Largest size feasible at every lattice point of the parameter cube.

    The lattice is {0, step, 2*step, ..., 1}^3. Lattice points that admit
    no valid plan at all (see compute_plan) constrain nothing and are
    skipped, as are zero-ratio quadrants within a point.

    Runs in integer arithmetic. For fixed (alpha, gamma) every quadrant
    ratio is monotone in beta, so each quadrant's smallest bound over the
    beta axis sits at an endpoint of the feasible beta range; that cuts
    the (n+1)^3 scan to (n+1)^2 columns of constant work.
    """
    _check_counts(c)
    n = _lattice_denominator(step)
    pf, puf, upf, upuf = c.as_tuple()
    T, p, f = c.total, c.privileged, c.favourable
    Pd = 2 * n * T  # common denominator of P' and F' on the lattice
    an0 = pf * c.unprivileged
    ad0 = p * upf
    Ad = n * ad0
    fslope = T - 2 * f  # Fn(j) = 2*f*n + j*fslope, F' = Fn / Pd

    best: int | None = None
    for i in range(n + 1):
        Pn = 2 * p * (n - i) + i * T
        Pc = Pd - Pn
        for gidx in range(n + 1):
            An = an0 * (n - gidx) + gidx * ad0
            Q = Ad * Pd + (An - Ad) * Pn
            cap = An if An >= Ad else Ad  # feasibility: cap * Fn <= Q
            base = 2 * f * n
            if fslope > 0:
                room = Q - cap * base
                if room < 0:
                    continue
                jmax = min(n, room // (cap * fslope))
                fn_lo, fn_hi = base, base + jmax * fslope
            elif fslope < 0:
                over = cap * base - Q
                jmin = 0 if over <= 0 else -(-over // (cap * -fslope))
                if jmin > n:
                    continue
                fn_lo, fn_hi = base + n * fslope, base + jmin * fslope
            else:
                if cap * base > Q:
                    continue
                fn_lo = fn_hi = base
            KQ = Pd * Q
            for count_q, num in (
                (pf, Pn * An * fn_hi),
                (puf, Pn * (Q - An * fn_lo)),
                (upf, Pc * Ad * fn_hi),
                (upuf, Pc * (Q - Ad * fn_lo)),
            ):
                if num <= 0:
                    continue
                b = count_q * KQ // num
                if best is None or b < best:
                    best = b
    if best is None:
        raise InfeasibleError("no lattice point admits a valid plan for these counts")
    return int(best)


@dataclass(frozen=True)
class RestrictionReport:
    """Outcome of the six-way validity check on a plan.

    Restrictions by index: 1 privileged share beyond its source majority,
    2 privileged share past parity to the other side, 3/4 the same for
    the favourable share, 5 advantage ratio beyond its source value,
    6 advantage ratio past parity (groups would swap roles).
    """

    ok: bool
    violated: tuple[int, ...]
    privileged_share: float
    favourable_share: float
    advantage_ratio: float
    intervals: dict[str, tuple[float, float]]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violated": list(self.violated),
            "privileged_share": self.privileged_share,
            "favourable_share": self.favourable_share,
            "advantage_ratio": self.advantage_ratio,
            "intervals": {k: list(v) for k, v in self.intervals.items()},
        }


def allowed_interval(x: float, y: float) -> tuple[float, float]:
    """Closed interval between a source value and its balanced target."""
    return (min(x, y), max(x, y))


def _interval_violation(
    value: float, source: float, target: float, source_code: int, target_code: int, tol: float
) -> int | None:
    """source_code flags leaving the interval on the source side, target_code on the target side."""
    lo, hi = allowed_interval(source, target)
    if value < lo - tol:
        return source_code if source <= target else target_code
    if value > hi + tol:
        return target_code if source <= target else source_code
    return None


def check_restrictions(
    c: QuadrantCounts, plan: SamplingPlan, tol: float = 1e-9
) -> RestrictionReport:
    """Verify a plan's realized shares against the six restrictions.

    Works from the plan's ratios, not its stored targets, so it also
    validates hand-built plans.
    """
    _check_counts(c)
    p_share = plan.r_p_f + plan.r_p_uf
    f_share = plan.r_p_f + plan.r_up_f
    if not (0 < p_share < 1) or plan.r_up_f <= 0:
        raise InputError("degenerate plan: a privilege group or up_f ratio is empty")
    adv = (plan.r_p_f / p_share) / (plan.r_up_f / (1 - p_share))

    src_p = c.privileged / c.total
    src_f = c.favourable / c.total
    src_a = (c.p_f / c.privileged) / (c.up_f / c.unprivileged)

    violated = []
    checks = (
        (p_share, src_p, 0.5, 1, 2),
        (f_share, src_f, 0.5, 3, 4),
        (adv, src_a, 1.0, 5, 6),
    )
    for value, source, target, source_code, target_code in checks:
        code = _interval_violation(value, source, target, source_code, target_code, tol)
        if code is not None:
            violated.append(code)
    return RestrictionReport(
        ok=not violated,
        violated=tuple(violated),
        privileged_share=p_share,
        favourable_share=f_share,
        advantage_ratio=adv,
        intervals={
            "privileged_share": allowed_interval(src_p, 0.5),
            "favourable_share": allowed_interval(src_f, 0.5),
            "advantage_ratio": allowed_interval(src_a, 1.0),
        },
    )


def _quotas(size: int, ratios: np.ndarray) -> np.ndarray:
    """(K, 4) integer quadrant quotas for the K rows of (K, 4) ratios by
    largest remainder, ties by quadrant order."""
    if size < 1:
        raise InputError(f"sample size must be >= 1, got {size}")
    exact = size * ratios
    quotas = exact.astype(np.int64)
    leftover = size - quotas.sum(axis=1)
    # one more record each for the leftover largest remainders
    order = np.argsort(quotas - exact, axis=1, kind="stable")
    quotas += np.argsort(order, axis=1) < leftover[:, None]
    return quotas


def apportion(size: int, ratios: tuple[float, float, float, float]) -> tuple[int, int, int, int]:
    """Integer quadrant quotas by largest remainder, ties by quadrant order."""
    return tuple(_quotas(size, np.array([ratios], dtype=float))[0].tolist())


def _floyd(
    uniform: np.ndarray, n: np.ndarray, need: np.ndarray, step: np.ndarray, draw: np.ndarray
) -> np.ndarray:
    """Floyd's distinct positions (Bentley & Floyd, CACM 30(9), 1987)
    for many draws at once.

    Entry i is step step[i] of draw draw[i], which takes need[i] of n[i]
    positions. The step's fallback j = n - need + step is new to its
    draw; the step takes t = floor(uniform * (j + 1)), capped at j,
    unless t is taken already, and then takes j. A t is taken exactly
    when an earlier step of the draw drew the same t, or when t is the
    fallback of an earlier step that took its fallback.
    """
    fallback = n - need + step
    t = np.minimum((uniform * (fallback + 1)).astype(np.int64), fallback)
    key = draw * (int(n.max(initial=0)) + 1) + t
    order = np.argsort(key, kind="stable")
    taken = np.zeros(len(t), dtype=bool)
    taken[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    steps = np.flatnonzero((t >= n - need) & (t < fallback))
    earlier = steps - (fallback[steps] - t[steps])  # the step whose fallback is t
    while True:
        chained = taken[earlier] & ~taken[steps]
        if not chained.any():
            return np.where(taken, fallback, t)
        taken[steps[chained]] = True


def _draw_rows(
    pools: Sequence[np.ndarray], quotas: np.ndarray, seeds: Sequence[int], size: int
) -> np.ndarray:
    """(K, size) sorted row positions of K sample draws.

    Draw k takes quotas[k, q] distinct entries of pools[q], uniformly,
    quadrant by quadrant with one generator seeded by seeds[k], so the
    draw is reproducible bit for bit. A whole pool is taken as it is, a
    quota of a quarter of its pool or more takes a permutation's head,
    and a smaller one costs one random vector through _floyd, O(quota)
    rather than O(pool). Only the generator calls run draw by draw.
    Every quota must fit its pool.
    """
    lengths = [len(pool) for pool in pools]
    shuffled: list[np.ndarray] = []
    uniforms: list[np.ndarray] = []
    for seed, needs in zip(seeds, quotas.tolist()):
        rng = np.random.default_rng(seed)
        for need, length in zip(needs, lengths):
            if 0 < need < length:
                if 4 * need < length:
                    uniforms.append(rng.random(need))
                else:
                    shuffled.append(rng.permutation(length)[:need])
    n = np.array(lengths)
    floyd = (quotas > 0) & (4 * quotas < n)
    shuffle = (quotas < n) & ~floyd
    counts = quotas.ravel()
    draw = np.repeat(np.arange(counts.size), counts)  # (task, quadrant) of each record
    quadrant = draw % 4
    step = np.arange(draw.size) - (np.cumsum(counts) - counts)[draw]
    positions = step.copy()  # a whole pool's step e takes position e
    if shuffled:
        positions[shuffle.ravel()[draw]] = np.concatenate(shuffled)
    if uniforms:
        at = floyd.ravel()[draw]
        positions[at] = _floyd(
            np.concatenate(uniforms), n[quadrant[at]], counts[draw[at]], step[at], draw[at]
        )
    positions += (np.cumsum(n) - n)[quadrant]
    rows = np.concatenate(pools)[positions].reshape(len(quotas), size)
    rows.sort(axis=1)
    return rows


def draw_samples(
    d: Dataset, ratios: np.ndarray, seeds: Sequence[int], size: int
) -> tuple[np.ndarray, list[str | None]]:
    """One sample draw per row of (K, 4) plan ratios, each the draw of
    sample_indices for a plan with those ratios.

    Returns the sorted row positions of the draws whose quotas fit d's
    quadrants, one (size,) row each in row order, and per row None or
    why its quotas do not fit.
    """
    pools = [d.quadrant_indices()[name] for name in QUADRANT_NAMES]
    n = np.array([len(pool) for pool in pools])
    quotas = _quotas(size, np.asarray(ratios, dtype=float).reshape(-1, 4))
    short = quotas > n
    reasons: list[str | None] = [None] * len(quotas)
    for k in np.flatnonzero(short.any(axis=1)).tolist():
        q = int(short[k].argmax())
        reasons[k] = (
            f"sample size {size} needs {quotas[k, q]} records from quadrant "
            f"{QUADRANT_NAMES[q]} but only {n[q]} are present"
        )
    drawn = [seed for seed, reason in zip(seeds, reasons) if reason is None]
    return _draw_rows(pools, quotas[~short.any(axis=1)], drawn, size), reasons


def sample_indices(d: Dataset, plan: SamplingPlan, size: int, seed: int) -> np.ndarray:
    """Row positions (sorted, distinct) of one concrete sample draw.

    Quadrant quotas come from largest-remainder apportionment; records
    are drawn uniformly without replacement inside each quadrant with a
    single seeded generator, quadrants in fixed order (see _draw_rows).
    """
    rows, (reason,) = draw_samples(d, np.array([plan.ratios]), [seed], size)
    if reason is not None:
        raise InfeasibleError(reason)
    return rows[0]


def materialize_sample(d: Dataset, plan: SamplingPlan, size: int, seed: int) -> Dataset:
    """Draw a concrete sample of the given size following plan ratios."""
    return d.take(sample_indices(d, plan, size, seed))


# ---------------------------------------------------------------------------
# named sampling setups

@dataclass(frozen=True)
class SetupPreset:
    """A named corner of the parameter cube used as a fixed setup."""

    name: str
    params: BalanceParams


PRESETS: tuple[SetupPreset, ...] = (
    SetupPreset("double-balanced", BalanceParams(1.0, 1.0, 1.0)),
    SetupPreset("unfavourable-balanced", BalanceParams(0.0, 1.0, 1.0)),
    SetupPreset("privilege-balanced", BalanceParams(1.0, 0.0, 1.0)),
    SetupPreset("double-imbalanced", BalanceParams(0.0, 0.0, 0.0)),
)

PRESET_NAMES = tuple(p.name for p in PRESETS)


def preset_plan(c: QuadrantCounts, name: str) -> SamplingPlan:
    """The sampling plan of a named setup.

    double-balanced equalises all four quadrants; unfavourable-balanced
    makes both labels equally likely inside each privilege group while
    keeping the source privilege split; privilege-balanced does the
    converse; double-imbalanced reproduces the source mix.
    """
    for preset in PRESETS:
        if preset.name == name:
            return compute_plan(c, preset.params)
    raise InputError(f"unknown setup {name!r}; choose from {', '.join(PRESET_NAMES)}")

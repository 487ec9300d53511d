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

import numpy as np

from .base import InfeasibleError, InputError, PlanError
from .dataset import Dataset, QuadrantCounts, QUADRANT_NAMES


@dataclass(frozen=True)
class BalanceParams:
    """The three balancing knobs, each in [0, 1]."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = float(getattr(self, name))
            if math.isnan(v) or not 0.0 <= v <= 1.0:
                raise PlanError(f"{name} must lie in [0, 1], got {getattr(self, name)!r}")

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


def _exact_targets(
    c: QuadrantCounts, params: BalanceParams
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    one = (1, 1)
    a, b, g = (float(v).as_integer_ratio() for v in params.as_tuple())
    p_share = (c.privileged, c.total)
    f_share = (c.favourable, c.total)
    adv = (c.p_f * c.unprivileged, c.privileged * c.up_f)
    return (
        _radd(_rmul(p_share, _rsub(one, a)), _rmul((1, 2), a)),
        _radd(_rmul(f_share, _rsub(one, b)), _rmul((1, 2), b)),
        _radd(_rmul(adv, _rsub(one, g)), g),
    )


def _exact_ratios(
    c: QuadrantCounts, params: BalanceParams
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Returns ((P', F', A', F'_p, F'_up), (r_p_f, r_p_uf, r_up_f, r_up_uf))."""
    one = (1, 1)
    P, F, A = _exact_targets(c, params)
    denom = _radd(_rsub(one, P), _rmul(A, P))  # > 0 because A > 0, 0 < P < 1
    f_up = _rdiv(F, denom)
    f_p = _rmul(A, f_up)
    if f_p[0] > f_p[1] or f_up[0] > f_up[1]:
        raise InfeasibleError(
            "no valid sample composition reaches these targets: the implied "
            f"per-group favourable rates are {_rfloat(f_p):.4f} (privileged) "
            f"and {_rfloat(f_up):.4f} (unprivileged)"
        )
    ratios = (
        _rmul(P, f_p),
        _rmul(P, _rsub(one, f_p)),
        _rmul(_rsub(one, P), f_up),
        _rmul(_rsub(one, P), _rsub(one, f_up)),
    )
    return (P, F, A, f_p, f_up), ratios


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
    if not 0 < step <= 1:
        raise InputError(f"{name} must lie in (0, 1], got {step!r}")
    n = round(1.0 / step)
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


def apportion(size: int, ratios: tuple[float, float, float, float]) -> tuple[int, int, int, int]:
    """Integer quadrant quotas by largest remainder, ties by quadrant order."""
    if size < 1:
        raise InputError(f"sample size must be >= 1, got {size}")
    quotas = [size * r for r in ratios]
    counts = [int(q) for q in quotas]
    leftover = size - sum(counts)
    order = sorted(range(4), key=lambda q: (counts[q] - quotas[q], q))
    for q in order[:leftover]:
        counts[q] += 1
    return tuple(counts)


def sample_indices(d: Dataset, plan: SamplingPlan, size: int, seed: int) -> np.ndarray:
    """Row positions (sorted, distinct) of one concrete sample draw.

    Quadrant quotas come from largest-remainder apportionment; records
    are drawn uniformly without replacement inside each quadrant with a
    single seeded generator, quadrants in fixed order, so the draw is
    reproducible bit for bit.
    """
    quotas = apportion(size, plan.ratios)
    pools = d.quadrant_indices()
    for name, need in zip(QUADRANT_NAMES, quotas):
        if need > len(pools[name]):
            raise InfeasibleError(
                f"sample size {size} needs {need} records from quadrant {name} "
                f"but only {len(pools[name])} are present"
            )
    rng = np.random.default_rng(seed)
    chosen = []
    for name, need in zip(QUADRANT_NAMES, quotas):
        if need:
            chosen.append(_draw_without_replacement(rng, pools[name], need))
    return np.sort(np.concatenate(chosen)) if chosen else np.empty(0, dtype=np.intp)


def materialize_sample(d: Dataset, plan: SamplingPlan, size: int, seed: int) -> Dataset:
    """Draw a concrete sample of the given size following plan ratios."""
    return d.take(sample_indices(d, plan, size, seed))


def _draw_without_replacement(
    rng: np.random.Generator, pool: np.ndarray, need: int
) -> np.ndarray:
    """Uniform sample of distinct pool entries.

    Small draws from big pools avoid the full-pool shuffle a plain
    choice() would pay for: one random vector plus Floyd's collision
    fix-up costs O(need) instead of O(pool).
    """
    n = len(pool)
    if need >= n:
        return pool.copy()
    if 4 * need >= n:
        return rng.permutation(pool)[:need]
    highs = np.arange(n - need + 1, n + 1)
    draws = np.minimum((rng.random(need) * highs).astype(np.int64), highs - 1)
    taken: set[int] = set()
    out = np.empty(need, dtype=pool.dtype)
    for i, (t, j) in enumerate(zip(draws.tolist(), range(n - need, n))):
        if t in taken:
            t = j
        taken.add(t)
        out[i] = pool[t]
    return out


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

"""Principal-strata proportions and trimming bounds for the ATT among
always-respondents.

The latent stratum S = (R2(1), R2(0)) classifies units by how treatment
would have affected their post-period response: always-respondents (1,1),
if-treated-respondents (1,0), if-control-respondents (0,1),
never-respondents (0,0). Under parallel trends of missingness the
counterfactual response rates are identified from observed rates; adding
response monotonicity (treatment never destroys response) point-identifies
the treated-arm strata shares, and without it the shares are bounded by
Fréchet inequalities.

The ATT among always-respondents ("ATT-AR") is then partially identified by
fractional trimming: within each arm the always-respondents are a known
share p_d = π_11(d) / Pr(R2=1|D=d) of observed respondents, so their mean
outcome change is bracketed by the bottom-p_d and top-p_d trimmed means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .common import STRATUM_PAIRS, ClipEvent, Interval, clip01, finite
from .errors import EstimatorError, InputError
from .estimators import BootstrapConfig, _replicates
from .panel import GroupKey, PanelDataset, RateTable, _rate_table

__all__ = [
    "INCONSISTENT_FLAG",
    "StrataProportions",
    "BoundResult",
    "BoundsBootstrap",
    "strata_proportions_monotone",
    "strata_proportions_bounds",
    "trimmed_mean",
    "att_ar_bounds",
    "bootstrap_bounds",
]

#: Flag raised whenever a probability formula needed clipping: the observed
#: rates contradict the assumption set that produced the formula.
INCONSISTENT_FLAG = "model-inconsistent rates"

Mode = Literal["monotone", "no-monotone"]


@dataclass(frozen=True)
class StrataProportions:
    """Interval-valued strata shares per arm with consistency diagnostics.

    pi[d][(r1, r0)] is the share of stratum (r1, r0) in arm d; point-identified
    cells are degenerate intervals. clip_events record every probability that a
    formula pushed outside [0, 1]; any event raises the "model-inconsistent
    rates" flag.
    """

    mode: Mode
    pi: tuple[Mapping[tuple[int, int], Interval], Mapping[tuple[int, int], Interval]]
    clip_events: tuple[ClipEvent, ...] = ()
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for d in (0, 1):
            for key in STRATUM_PAIRS:
                iv = self.pi[d][key]
                if iv.lo < -1e-12 or iv.hi > 1 + 1e-12:
                    raise ValueError(f"pi[{d}][{key}] = [{iv.lo}, {iv.hi}] outside [0, 1]")


def strata_proportions_monotone(rates: RateTable) -> StrataProportions:
    """Point-identify strata shares assuming response monotonicity and
    parallel trends of missingness.

    Treated arm: pi_11(1) = p_r2[0] - p_r1[0] + p_r1[1];
    pi_10(1) = (p_r2[1] - p_r2[0]) - (p_r1[1] - p_r1[0]); pi_01(1) = 0;
    pi_00(1) by complementation. Control arm: pi_11(0) = p_r2[0],
    pi_01(0) = 0; pi_10(0) and pi_00(0) are not separately identified and are
    reported as the interval [0, 1 - pi_11(0)] each (their sum is pinned).

    Raw values outside [0, 1] (data contradicting the assumptions) are
    clipped, each with a recorded clip event, and flagged — never an error.
    """
    events: list[ClipEvent] = []
    p_r1, p_r2 = rates.p_r1, rates.p_r2

    pi11_1 = clip01(p_r2[0] - p_r1[0] + p_r1[1], "pi_11(1)", events)
    pi10_1 = clip01((p_r2[1] - p_r2[0]) - (p_r1[1] - p_r1[0]), "pi_10(1)", events)
    pi00_1 = clip01(1.0 - pi11_1 - pi10_1, "pi_00(1)", events)
    treated = {
        (1, 1): Interval.point(pi11_1),
        (1, 0): Interval.point(pi10_1),
        (0, 1): Interval.point(0.0),
        (0, 0): Interval.point(pi00_1),
    }

    pi11_0 = clip01(p_r2[0], "pi_11(0)", events)
    rest_0 = 1.0 - pi11_0
    control = {
        (1, 1): Interval.point(pi11_0),
        (1, 0): Interval(0.0, rest_0),
        (0, 1): Interval.point(0.0),
        (0, 0): Interval(0.0, rest_0),
    }

    flags = (INCONSISTENT_FLAG,) if events else ()
    return StrataProportions(
        mode="monotone", pi=(control, treated), clip_events=tuple(events), flags=flags
    )


def _frechet_cells(
    observed: float, counterfactual: float, arm: int
) -> dict[tuple[int, int], Interval]:
    """All four strata intervals from the two marginal response rates.

    For the treated arm the observed margin is Pr(R2(1)=1|D=1) and the
    counterfactual one Pr(R2(0)=1|D=1); for the control arm the roles swap.
    Every cell interval follows from pi_11 in [max(0, c+q-1), min(c, q)] and
    the linear constraints tying the other cells to the margins.
    """
    c = observed if arm == 1 else counterfactual  # Pr(R2(1) = 1 | D = arm)
    q = counterfactual if arm == 1 else observed  # Pr(R2(0) = 1 | D = arm)
    lo11 = max(0.0, c + q - 1.0)
    hi11 = min(c, q)
    return {
        (1, 1): Interval(lo11, hi11),
        (1, 0): Interval(c - hi11, c - lo11),
        (0, 1): Interval(q - hi11, q - lo11),
        (0, 0): Interval(max(0.0, 1.0 - c - q), min(1.0 - c, 1.0 - q)),
    }


def strata_proportions_bounds(rates: RateTable) -> StrataProportions:
    """Bound strata shares without monotonicity.

    Parallel trends of missingness (plus equal response effect across arms)
    identifies the counterfactual response rates
    Pr(R2(0)=1|D=1) = p_r2[0] - p_r1[0] + p_r1[1] and
    Pr(R2(1)=1|D=0) = p_r2[1] - p_r1[1] + p_r1[0] (clipped into [0,1] with
    diagnostics); each arm's strata cells are then Fréchet intervals from its
    observed and counterfactual margins.
    """
    events: list[ClipEvent] = []
    p_r1, p_r2 = rates.p_r1, rates.p_r2

    a1 = clip01(p_r2[0] - p_r1[0] + p_r1[1], "Pr(R2(0)=1|D=1)", events)
    a0 = clip01(p_r2[1] - p_r1[1] + p_r1[0], "Pr(R2(1)=1|D=0)", events)

    treated = _frechet_cells(observed=p_r2[1], counterfactual=a1, arm=1)
    control = _frechet_cells(observed=p_r2[0], counterfactual=a0, arm=0)

    flags = (INCONSISTENT_FLAG,) if events else ()
    return StrataProportions(
        mode="no-monotone", pi=(control, treated), clip_events=tuple(events), flags=flags
    )


def trimmed_mean(
    values: Sequence[float] | np.ndarray,
    keep: float,
    side: Literal["bottom", "top"],
) -> float:
    """Fractionally trimmed mean: average of the most extreme ``keep`` share.

    Sort ascending (stable); the bottom-p trimmed mean retains the lowest
    floor(p*n) values fully and the next value with fractional weight
    p*n - floor(p*n), then takes the weighted mean. side="top" mirrors from
    above. keep = 1 returns the plain mean exactly (same floating-point
    result as numpy.mean on the unsorted input).
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        v = v.ravel()
    if v.size == 0:
        raise InputError("trimmed_mean requires nonempty values")
    if not 0.0 < keep <= 1.0:
        raise InputError(f"keep fraction must be in (0, 1], got {keep}")
    if side not in ("bottom", "top"):
        raise InputError(f"side must be 'bottom' or 'top', got {side!r}")
    if keep == 1.0:
        return float(v.mean())
    return _trimmed_sorted(_sorted(v), keep, side)


def _sorted(v: np.ndarray) -> np.ndarray:
    """The bytes of ``np.sort(v, kind="stable")`` for a float64 ``v``.

    Equal float64 values have equal bits unless they are zeros of either
    sign or NaNs, so without those every sort returns the same bytes and the
    default one, several times faster than the stable one, is used.
    """
    out = np.sort(v)
    zero = int(np.searchsorted(out, 0.0))
    if (zero < out.size and out[zero] == 0.0) or (out.size and np.isnan(out[-1])):
        return np.sort(v, kind="stable")
    return out


def _trimmed_sorted(v: np.ndarray, keep: float, side: str) -> float:
    """``trimmed_mean`` with keep < 1 of the values ``v``, sorted ascending."""
    if side == "top":
        v = v[::-1]
    t = keep * v.size
    k = int(np.floor(t))
    frac = t - k
    total = float(v[:k].sum())
    if frac > 0.0 and k < v.size:
        total += frac * float(v[k])
    return total / t


@dataclass(frozen=True)
class BoundResult:
    """Partial-identification interval [lb, ub] for a named estimand.

    trim_share[d] is the fraction of arm-d respondents retained by the
    trimming step; an arm that fell back to declared-support bounds reports
    1.0 here (no trimming was performed) together with support_fallback and a
    recorded event carrying the raw infeasible share.
    """

    estimand: str
    lb: float
    ub: float
    trim_share: tuple[float, float]
    assumptions_used: tuple[str, ...]
    support_fallback: bool = False
    flags: tuple[str, ...] = ()
    n_used: int = 0
    clip_events: tuple[ClipEvent, ...] = ()
    proportions: StrataProportions | None = None

    def __post_init__(self) -> None:
        if self.lb > self.ub:
            raise ValueError(f"bounds out of order: [{self.lb}, {self.ub}]")
        for d in (0, 1):
            if not 0.0 < self.trim_share[d] <= 1.0:
                raise ValueError(f"trim_share[{d}] = {self.trim_share[d]} outside (0, 1]")

    @property
    def interval(self) -> Interval:
        return Interval(self.lb, self.ub)


_MONOTONE_ASSUMPTIONS = (
    "response monotonicity",
    "parallel trends of missingness",
    "always-respondent parallel trends",
)
_NO_MONOTONE_ASSUMPTIONS = (
    "parallel trends of missingness",
    "equal response effect across arms",
    "always-respondent parallel trends",
)


def att_ar_bounds(data: PanelDataset, mode: Mode = "monotone") -> BoundResult:
    """Trimming bounds for the ATT among always-respondents.

    Per arm d, the always-respondents are a keep share
    p_d = pi_11(d) / Pr(R2=1|D=d) of complete cases, so their mean outcome
    change lies between the bottom-p_d and top-p_d trimmed means of the
    arm's complete-case Y2-Y1 values; the estimand interval is
    [LB_1 - UB_0, UB_1 - LB_0]. Monotone mode has p_0 = 1 exactly (the
    control side collapses to its plain mean). No-monotone mode evaluates
    p_d at the lower endpoint of the pi_11(d) interval — the smallest keep
    share, hence the widest (conservative) bounds.

    If an arm's keep share is not positive, trimming cannot bracket the
    stratum mean; the arm then contributes the worst-case interval from the
    declared outcome support, the result is flagged support_fallback, and the
    assembled bounds are intersected with the estimand's logical range
    (a difference of two means on the same support). Without declared support
    this raises an error.
    """
    if mode not in ("monotone", "no-monotone"):
        raise InputError(f"mode must be 'monotone' or 'no-monotone', got {mode!r}")
    groups = GroupKey(data)
    deltas = [groups.dy.compress(data.complete_case & (data.d == d)) for d in (0, 1)]
    ordered: dict[int, np.ndarray] = {}  # each arm sorted at most once, for both sides

    def trim(d: int, keep: float, side: str) -> float:
        if keep == 1.0:
            return float(deltas[d].mean())
        if d not in ordered:
            ordered[d] = _sorted(deltas[d])
        return _trimmed_sorted(ordered[d], keep, side)

    return _bounds(groups.counts().arms, trim, mode, data.outcome_support)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing trimmed mean is refused below
def _bounds(
    arms: np.ndarray,
    trim: Callable[[int, float, str], float],
    mode: Mode,
    support: tuple[float, float] | None,
) -> BoundResult:
    """``att_ar_bounds`` from counts over (arm, R1, R2) and a trimmed-mean
    function ``trim(arm, keep, side)`` of each arm's complete-case changes."""
    complete = [arm[1][1] for arm in arms.tolist()]
    for d in (0, 1):
        if complete[d] == 0:
            raise EstimatorError(f"no complete cases in arm {d}")

    rates = _rate_table(arms)
    props = (
        strata_proportions_monotone(rates)
        if mode == "monotone"
        else strata_proportions_bounds(rates)
    )
    events: list[ClipEvent] = list(props.clip_events)

    lower: dict[int, float] = {}
    upper: dict[int, float] = {}
    shares: dict[int, float] = {}
    fallback = False
    for d in (0, 1):
        pi11 = props.pi[d][(1, 1)].lo  # lower endpoint; degenerate in monotone mode
        rate = rates.p_r2[d]
        share = pi11 / rate if rate > 0.0 else 0.0
        if share > 1.0:
            events.append(ClipEvent(f"trim share arm {d}", raw=share, clipped=1.0))
            share = 1.0
        if share <= 0.0:
            if support is None:
                raise EstimatorError("trimming infeasible and no outcome support declared")
            y_min, y_max = support
            events.append(
                ClipEvent(f"trim share arm {d} (support fallback)", raw=share, clipped=1.0)
            )
            lower[d] = y_min - y_max
            upper[d] = y_max - y_min
            shares[d] = 1.0
            fallback = True
            continue
        lower[d] = trim(d, share, "bottom")
        upper[d] = lower[d] if share == 1.0 else trim(d, share, "top")  # keep 1: the plain mean
        shares[d] = share

    lb = lower[1] - upper[0]
    ub = upper[1] - lower[0]
    flags = list(props.flags)
    if fallback:
        width = support[1] - support[0]  # type: ignore[index]
        clipped_lb, clipped_ub = max(lb, -width), min(ub, width)
        if (clipped_lb, clipped_ub) != (lb, ub):
            flags.append("bounds intersected with estimand range")
        lb, ub = clipped_lb, clipped_ub

    return BoundResult(
        estimand="ATT-AR",
        lb=finite(lb, "the lower bound"),
        ub=finite(ub, "the upper bound"),
        trim_share=(shares[0], shares[1]),
        assumptions_used=_MONOTONE_ASSUMPTIONS if mode == "monotone" else _NO_MONOTONE_ASSUMPTIONS,
        support_fallback=fallback,
        flags=tuple(flags),
        n_used=int(complete[0] + complete[1]),
        clip_events=tuple(events),
        proportions=props,
    )


def _trimmed_mean_counts(
    values: np.ndarray,
    mult: np.ndarray,
    seen: np.ndarray,
    keep: float,
    side: Literal["bottom", "top"],
) -> float:
    """``trimmed_mean`` of the sample holding mult[j] copies of values[j].

    ``values`` must be sorted ascending and ``seen`` must be ``cumsum(mult)``,
    with a positive last entry: the same prefix serves both sides.
    """
    size = int(seen[-1])
    if keep == 1.0:  # the plain mean, identical for both sides
        return float((mult * values).sum() / size)
    t = keep * size  # below size for keep < 1, so k < size and values[j] exists
    k = math.floor(t)
    frac = t - k
    if side == "top":
        # counted from the top, the prefix at i < last is size - seen[last - 1 - i]
        last = values.size - 1
        j = last - int(np.searchsorted(seen[:last], size - k))
        before = size - int(seen[last - j]) if j else 0
        values, mult = values[::-1], mult[::-1]
    else:
        j = int(np.searchsorted(seen, k, side="right"))  # values[j] holds the (k+1)-th copy
        before = int(seen[j - 1]) if j else 0
    total = float((mult * values)[:j].sum()) + (k - before) * float(values[j])
    if frac > 0.0:
        total += frac * float(values[j])
    return total / t


def _bounds_replicate(
    data: PanelDataset, mode: Mode
) -> Callable[[np.ndarray], tuple[float, float]]:
    """(lb, ub) of ``att_ar_bounds`` on the resample at given row indices.

    Each arm's complete-case changes are sorted once. Every complete case is
    ranked by its sorted position and every other unit by its (arm, R1, R2)
    group past those positions, so one ``bincount`` of a resample's ranks
    gives both how often it draws each sorted position and its group counts.
    """
    groups = GroupKey(data)
    dy = groups.dy
    arm_units = []
    for d in (0, 1):
        units = np.flatnonzero(data.complete_case & (data.d == d))
        arm_units.append(units[np.argsort(dy[units], kind="stable")])
    starts = [0, arm_units[0].size, arm_units[0].size + arm_units[1].size]
    top = starts[2]
    rank = groups.key + top
    sorted_dy: list[np.ndarray] = []
    for d, units in enumerate(arm_units):
        rank[units] = starts[d] + np.arange(units.size)
        sorted_dy.append(dy[units])

    def replicate(idx: np.ndarray) -> tuple[float, float]:
        mult = np.bincount(rank.take(idx), minlength=top + 8)
        arms = mult[top:].reshape(2, 2, 2)  # complete-case groups are empty: filled in below
        mults = [mult[starts[d] : starts[d + 1]] for d in (0, 1)]
        seen = [m.cumsum() for m in mults]
        for d in (0, 1):
            arms[d, 1, 1] = seen[d][-1] if seen[d].size else 0

        def trim(d: int, keep: float, side: str) -> float:
            return _trimmed_mean_counts(sorted_dy[d], mults[d], seen[d], keep, side)

        b = _bounds(arms, trim, mode, data.outcome_support)
        return b.lb, b.ub

    return replicate


@dataclass(frozen=True)
class BoundsBootstrap:
    """Bootstrap summary for an interval estimand.

    LB and UB are resampled marginally (each replicate re-runs the full
    proportions + trimming pipeline); outer is the conservative envelope
    [percentile-lo of LB, percentile-hi of UB]. This marginal treatment is a
    methodological choice for interval estimands, not a derived property.
    """

    point: BoundResult
    lb_ci: Interval
    ub_ci: Interval
    outer: Interval
    se_lb: float
    se_ub: float
    level: float
    replicates_used: int
    replicates_failed: int


def bootstrap_bounds(
    data: PanelDataset,
    mode: Mode,
    cfg: BootstrapConfig,
) -> BoundsBootstrap:
    """Percentile bootstrap of att_ar_bounds by unit-level resampling.

    Deterministic given cfg.seed (each replicate uses the (seed, index)
    stream); failed replicates are dropped and counted, and propagate only if
    more than half fail.
    """
    point = att_ar_bounds(data, mode)
    summaries, used, failed = _replicates(len(data), cfg, _bounds_replicate(data, mode))
    (se_lb, lb_lo, lb_hi), (se_ub, ub_lo, ub_hi) = summaries
    return BoundsBootstrap(
        point=point,
        lb_ci=Interval(lb_lo, lb_hi),
        ub_ci=Interval(ub_lo, ub_hi),
        outer=Interval(min(lb_lo, ub_lo), max(ub_hi, lb_hi)),
        se_lb=se_lb,
        se_ub=se_ub,
        level=cfg.level,
        replicates_used=used,
        replicates_failed=failed,
    )

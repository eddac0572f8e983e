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
One kernel, ``_trimmed_mean_counts``, computes every trimmed mean: those of
``trimmed_mean``, of the bounds' point and of each bootstrap replicate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Literal, Mapping, Sequence

import numpy as np

from .common import INCONSISTENT_FLAG, STRATUM_PAIRS, ClipEvent, Interval, clip01, finite
from .errors import EstimatorError, InputError
from .estimators import BootstrapConfig, _replicates
from .panel import GroupKey, PanelDataset, RateTable, _rate_table, _response_rates

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
    pi11_1, pi10_1, pi00_1, pi11_0 = _monotone_shares(rates.p_r1, rates.p_r2, events)
    treated = {
        (1, 1): Interval.point(pi11_1),
        (1, 0): Interval.point(pi10_1),
        (0, 1): Interval.point(0.0),
        (0, 0): Interval.point(pi00_1),
    }

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


def _monotone_shares(
    p_r1: Sequence[float], p_r2: Sequence[float], events: list[ClipEvent]
) -> tuple[float, float, float, float]:
    """(pi_11(1), pi_10(1), pi_00(1), pi_11(0)) of ``strata_proportions_monotone``,
    each clipped into [0, 1] with its event appended to ``events``."""
    pi11_1 = clip01(p_r2[0] - p_r1[0] + p_r1[1], "pi_11(1)", events)
    pi10_1 = clip01((p_r2[1] - p_r2[0]) - (p_r1[1] - p_r1[0]), "pi_10(1)", events)
    pi00_1 = clip01(1.0 - pi11_1 - pi10_1, "pi_00(1)", events)
    return pi11_1, pi10_1, pi00_1, clip01(p_r2[0], "pi_11(0)", events)


def _counterfactual_rates(
    p_r1: Sequence[float], p_r2: Sequence[float], events: list[ClipEvent]
) -> tuple[float, float]:
    """Pr(R2(0)=1|D=1) and Pr(R2(1)=1|D=0) of ``strata_proportions_bounds``,
    each clipped into [0, 1] with its event appended to ``events``."""
    a1 = clip01(p_r2[0] - p_r1[0] + p_r1[1], "Pr(R2(0)=1|D=1)", events)
    a0 = clip01(p_r2[1] - p_r1[1] + p_r1[0], "Pr(R2(1)=1|D=0)", events)
    return a1, a0


def _frechet_floor(c: float, q: float) -> float:
    """The lower Fréchet bound of pi_11 given Pr(R2(1)=1) = c and Pr(R2(0)=1) = q."""
    return max(0.0, c + q - 1.0)


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
    lo11 = _frechet_floor(c, q)
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
    a1, a0 = _counterfactual_rates(rates.p_r1, rates.p_r2, events)
    treated = _frechet_cells(observed=rates.p_r2[1], counterfactual=a1, arm=1)
    control = _frechet_cells(observed=rates.p_r2[0], counterfactual=a0, arm=0)

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
    above. Both sides run the one trimming kernel that ``att_ar_bounds`` and
    its bootstrap replicates run. keep = 1 returns the plain mean exactly
    (same floating-point result as numpy.mean on the unsorted input). A NaN
    or infinite value is refused, and so is a keep below the smallest normal
    float, whose keep * n would lose its digits, and a mean that overflows.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise InputError(f"trimmed_mean requires a nonempty 1-D sample, got shape {v.shape}")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise InputError(f"trimmed_mean requires finite values, got {v[bad[0]]} at index {bad[0]}")
    if not sys.float_info.min <= keep <= 1.0:  # a subnormal keep * n loses its digits
        raise InputError(f"keep fraction must be in [{sys.float_info.min}, 1], got {keep}")
    if side not in ("bottom", "top"):
        raise InputError(f"side must be 'bottom' or 'top', got {side!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(v.mean()) if keep == 1.0 else _trimmed_mean_counts(_sorted(v), None, None, keep, side)
    return finite(mean, "the trimmed mean")


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
        return _trimmed_mean_counts(ordered[d], None, None, keep, side)

    return _bound_result(groups.counts().arms, trim, mode, data.outcome_support)


def _bound_result(
    arms: np.ndarray,
    trim: Callable[[int, float, str], float],
    mode: Mode,
    support: tuple[float, float] | None,
) -> BoundResult:
    """``att_ar_bounds`` from counts over (arm, R1, R2) and a trimmed-mean
    function ``trim(arm, keep, side)`` of each arm's complete-case changes."""
    lb, ub, shares, events, fallback, intersected = _bounds(arms, trim, mode, support)
    rates = _rate_table(arms)
    props = (
        strata_proportions_monotone(rates)
        if mode == "monotone"
        else strata_proportions_bounds(rates)
    )
    flags = props.flags + (("bounds intersected with estimand range",) if intersected else ())
    return BoundResult(
        estimand="ATT-AR",
        lb=lb,
        ub=ub,
        trim_share=shares,
        assumptions_used=_MONOTONE_ASSUMPTIONS if mode == "monotone" else _NO_MONOTONE_ASSUMPTIONS,
        support_fallback=fallback,
        flags=flags,
        n_used=int(arms[0, 1, 1] + arms[1, 1, 1]),
        clip_events=tuple(events),
        proportions=props,
    )


@np.errstate(over="ignore", invalid="ignore")  # an overflowing trimmed mean is refused below
def _bounds(
    arms: np.ndarray,
    trim: Callable[[int, float, str], float],
    mode: Mode,
    support: tuple[float, float] | None,
) -> tuple[float, float, tuple[float, float], list[ClipEvent], bool, bool]:
    """The bounds of ``_bound_result`` as Python scalars: (lb, ub), each
    arm's trim share, the clip events, whether an arm fell back to the
    declared support, and whether that moved the bounds.

    An arm's bottom and top trimmed means are put in order first: on
    near-tied changes rounding can leave the bottom one a step above.
    """
    counts = arms.tolist()
    for d in (0, 1):
        if counts[d][1][1] == 0:
            raise EstimatorError(f"no complete cases in arm {d}")

    _, p_r1, p_r2 = _response_rates(counts)
    events: list[ClipEvent] = []
    if mode == "monotone":
        pi11_1, _, _, pi11_0 = _monotone_shares(p_r1, p_r2, events)
        always = (pi11_0, pi11_1)
    else:  # the lower endpoint of each arm's Fréchet interval
        a1, a0 = _counterfactual_rates(p_r1, p_r2, events)
        always = (_frechet_floor(a0, p_r2[0]), _frechet_floor(p_r2[1], a1))

    lower = [0.0, 0.0]
    upper = [0.0, 0.0]
    shares = [0.0, 0.0]
    fallback = False
    for d in (0, 1):
        rate = p_r2[d]
        share = always[d] / rate if rate > 0.0 else 0.0
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
        if upper[d] < lower[d]:
            lower[d], upper[d] = upper[d], lower[d]
        shares[d] = share

    lb = lower[1] - upper[0]
    ub = upper[1] - lower[0]
    intersected = False
    if fallback:
        width = support[1] - support[0]  # type: ignore[index]
        clipped_lb, clipped_ub = max(lb, -width), min(ub, width)
        intersected = (clipped_lb, clipped_ub) != (lb, ub)
        lb, ub = clipped_lb, clipped_ub
    lb, ub = finite(lb, "the lower bound"), finite(ub, "the upper bound")
    return lb, ub, (shares[0], shares[1]), events, fallback, intersected


def _trimmed_mean_counts(
    values: np.ndarray,
    product: np.ndarray | None,
    seen: np.ndarray | None,
    keep: float,
    side: Literal["bottom", "top"],
) -> float:
    """``trimmed_mean`` of the sample holding mult[j] copies of values[j]:
    the one trimming kernel of ``trimmed_mean``, of ``att_ar_bounds`` and of
    every ``bootstrap_bounds`` replicate.

    ``values`` must be sorted ascending, ``product`` must be ``mult *
    values`` and ``seen`` must be ``cumsum(mult)``, with a positive last
    entry: the same product and prefix serve both sides. With ``product``
    and ``seen`` both None every value has one copy. With keep = 1 only
    ``seen[-1]``, the sample size, is read.
    """
    # one copy each: the product is the values and the prefix at j is j
    size, product = (values.size, values) if seen is None else (int(seen[-1]), product)
    if keep == 1.0:  # the plain mean, identical for both sides
        return float(product.sum() / size)
    t = keep * size  # below size for keep < 1, so k < size and values[j] exists
    k = math.floor(t)
    frac = t - k
    if seen is None:
        j = before = k
    elif side == "top":
        # counted from the top, the prefix at i < last is size - seen[last - 1 - i]
        last = values.size - 1
        j = last - int(np.searchsorted(seen[:last], size - k))
        before = size - int(seen[last - j]) if j else 0
    else:
        j = int(np.searchsorted(seen, k, side="right"))  # values[j] holds the (k+1)-th copy
        before = int(seen[j - 1]) if j else 0
    if side == "top":
        # a reduction keeps a reversed view's order: these sums are those of a reversed copy
        values, product = values[::-1], product[::-1]
    total = float(product[:j].sum()) + (k - before) * float(values[j])
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
    gathered = None  # a resample's ranks: one buffer per call, allocated on its first resample

    def replicate(idx: np.ndarray) -> tuple[float, float]:
        nonlocal gathered
        if gathered is None:
            gathered = np.empty_like(rank)
        # the engine's n indices lie in [0, n): "clip" gathers without a copy
        mult = np.bincount(rank.take(idx, out=gathered, mode="clip"), minlength=top + 8)
        arms = mult[top:].reshape(2, 2, 2)  # complete-case groups are empty: filled in below
        mults = [mult[starts[d] : starts[d + 1]] for d in (0, 1)]
        for d in (0, 1):
            arms[d, 1, 1] = mults[d].sum()
        terms: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # each arm's, on first use

        def trim(d: int, keep: float, side: str) -> float:
            if d not in terms:
                # an arm kept whole reads only its total, so it needs no running count
                seen = mults[d].cumsum() if keep < 1.0 else arms[d, 1, 1:]
                terms[d] = mults[d] * sorted_dy[d], seen
            return _trimmed_mean_counts(sorted_dy[d], *terms[d], keep, side)

        return _bounds(arms, trim, mode, data.outcome_support)[:2]

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

    Deterministic given cfg.seed (replicate ``rep`` resamples with the
    (rep+1)-th draw of ``default_rng(seed)``, see ``estimators._replicates``);
    failed replicates are dropped and counted, and propagate only if more
    than half fail.
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

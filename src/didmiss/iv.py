"""Point identification of the ATT using auxiliary response indicators as
instruments for outcome missingness.

The complete-case DID is biased by the arm-wise gap between respondents' and
nonrespondents' outcome trends. A baseline response indicator R~ that (i)
shifts the probability of post-period missingness, (ii) does not shift the
outcome trend itself, and (iii) sees the same respondent/nonrespondent trend
gap at both of its levels, identifies that gap from observed data:

    gap_d = - numer_d / denom_d,
    numer_d = E(dY | D=d, R~=1, R1=1, R2=1) - E(dY | D=d, R~=0, R1=1, R2=1),
    denom_d = Pr(R2=0 | D=d, R~=0, R1=1) - Pr(R2=0 | D=d, R~=1, R1=1),

and the corrected estimator is

    att_iv = base_1 - base_0 + correction_1 - correction_0,
    base_d = sum_v Pr(R~=v | D=d, R1=1) * E(dY | D=d, R~=v, R1=1, R2=1),
    correction_d = (numer_d / denom_d) * Pr(R2=0 | D=d).

The base weights the complete-case means by every auxiliary level the
counts are keyed on (both levels of one instrument, the four joint levels of
a pair), because the assumptions put the same respondent/nonrespondent gap in
every such level, so each level's complete-case mean differs from its full
mean by that gap times the level's own missing share. An arm with nothing missing
keeps its complete-case mean.

With two instruments the level-(iii) requirement can be traded for "parallel
difference in trends" (both instruments shift the trend by the same amount):
the correction ratio becomes a difference of the two instruments' trend gaps
over a difference of their missingness gaps, which cancels the common direct
trend shift. Everything conditions on R1 = 1; when the first wave is fully
observed the unconditional form is recovered automatically, and under
first-wave missingness the estimand is the ATT among first-wave respondents
(noted on the output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .common import EPS_DENOM, R1_NOTE, finite, is_integer
from .errors import EstimatorError, InputError
from .estimators import Estimate, _cc_point
from .panel import GroupCounts, GroupKey, PanelDataset

__all__ = ["IvDiagnostics", "att_iv", "att_iv_multi"]

@dataclass(frozen=True)
class IvDiagnostics:
    """Per-arm diagnostics of the instrumented correction.

    denom[d]
        Instrument-strength denominator. Single instrument:
        Pr(R2=0|D=d,R~=0,R1=1) - Pr(R2=0|D=d,R~=1,R1=1). Instrument pair:
        the composite [q2(1)-q2(0)] - [q1(1)-q1(0)] with
        q_k(v) = Pr(R2=0|D=d,R~k=v,R1=1).
    missing_share[d]
        Pr(R2 = 0 | D = d); a zero annihilates arm d's correction exactly.
    bias_correction[d]
        The additive correction attributed to arm d, signed as applied: the
        level-weighted base minus arm d's complete-case mean, plus the
        instrumented gap term; point = cc_did + bias_correction[0] +
        bias_correction[1].
    trend_gap[d]
        Observed complete-case trend gap across instrument levels (the
        numerator before scaling) — reported as a diagnostic only; the
        homogeneity of the underlying respondent/nonrespondent gap is not
        testable from data.
    """

    denom: tuple[float, float]
    missing_share: tuple[float, float]
    bias_correction: tuple[float, float]
    trend_gap: tuple[float, float]


def _instrument_gap(n: np.ndarray, s: np.ndarray, d: int) -> tuple[float, float]:
    """Arm d's (trend gap, missingness gap) across one instrument's levels:
    mean dY over complete cases at level 1 minus level 0, and
    Pr(R2=0 | R1=1) at level 0 minus level 1.

    n and s are counts and dY sums over (arm, R1, R2, instrument level);
    counts may be expected masses (floats). Raises when a level has no
    complete cases in this arm.
    """
    (missing, complete), sums = n[d, 1].tolist(), s[d, 1, 1].tolist()
    means: list[float] = []
    q: list[float] = []
    for v in (0, 1):
        n_cc = float(complete[v])
        if n_cc == 0:
            raise EstimatorError(f"empty instrument cell (arm {d}, aux={v}): no complete cases")
        means.append(float(sums[v]) / n_cc)
        q.append(1.0 - n_cc / float(missing[v] + complete[v]))
    return means[1] - means[0], q[0] - q[1]


def _level_base(n: np.ndarray, s: np.ndarray, d: int) -> float:
    """Arm d's complete-case mean dY at each auxiliary level of the counts,
    weighted by Pr(level | D=d, R1=1).

    n and s are counts and dY sums over (arm, R1, R2, *levels); a level with
    first-wave respondents but no complete cases is refused.
    """
    (missing, complete), sums = n[d, 1].reshape(2, -1).tolist(), s[d, 1, 1].reshape(-1).tolist()
    mass = total = 0.0
    for level, (n_miss, n_cc, sum_cc) in enumerate(zip(missing, complete, sums)):
        if n_miss + n_cc == 0:
            continue
        if n_cc == 0:
            levels = tuple(map(int, np.unravel_index(level, n.shape[3:])))
            raise EstimatorError(
                f"empty instrument cell (arm {d}, aux levels {levels}): "
                "first-wave respondents but no complete cases"
            )
        mass += (n_miss + n_cc) * (sum_cc / n_cc)
        total += n_miss + n_cc
    return mass / total


def _arm_gap(n: np.ndarray, s: np.ndarray, d: int) -> tuple[float, float]:
    """Arm d's (trend gap, denominator). Counts keyed on (arm, R1, R2,
    instrument level) give them across the one instrument's levels; counts
    keyed on (arm, R1, R2, level of k1, level of k2) give the difference of
    the two instruments' trend gaps and of their missingness gaps."""
    if n.ndim == 4:
        return _instrument_gap(n, s, d)
    if not (n[:, 1, 1, 0, 1].any() or n[:, 1, 1, 1, 0].any()):
        raise EstimatorError(
            "degenerate instrument pair: indicators are identical on complete cases"
        )
    # a sum that overflows, or meets one that overflowed the other way, is refused
    # by _corrected_point
    with np.errstate(over="ignore", invalid="ignore"):
        s1, s2 = s.sum(axis=4), s.sum(axis=3)
    gap1, denom1 = _instrument_gap(n.sum(axis=4), s1, d)
    gap2, denom2 = _instrument_gap(n.sum(axis=3), s2, d)
    return gap1 - gap2, denom1 - denom2


def _corrected_point(
    c: GroupCounts,
) -> tuple[float, list[list[list[float]]], list[float], list[float], list[float], list[float]]:
    """Complete-case DID plus, per arm with missing second-wave outcomes, the
    level-weighted base's shift from the arm's complete-case mean and the
    correction gap / denom * Pr(R2=0|D=d).

    c is keyed on one instrument's levels or a pair's (see ``_arm_gap``);
    the gaps are taken only for arms with missing second-wave outcomes.
    Returns the point, the counts over (arm, R1, R2), and per arm the
    missing share, denominator, correction and trend gap.
    """
    arms = c.arms.tolist()
    complete, sums = [arm[1][1] for arm in arms], c.cc_sum.tolist()
    cc = _cc_point(complete, sums)
    # Python scalars; each sum adds left to right, as numpy does for so few terms
    share = [
        float(n00 + n10) / float(n00 + n01 + n10 + n11) for (n00, n01), (n10, n11) in arms
    ]
    denom = [0.0, 0.0]
    corr = [0.0, 0.0]
    gap = [0.0, 0.0]
    for d in (0, 1):
        if share[d] == 0.0:
            continue
        gap[d], denom[d] = _arm_gap(c.n[0], c.s[0], d)
        if abs(denom[d]) < EPS_DENOM:
            raise EstimatorError(f"weak instrument in arm {d}")
        shift = _level_base(c.n[0], c.s[0], d) - float(sums[d]) / float(complete[d])
        corr[d] = shift + gap[d] / denom[d] * share[d]
    return finite(cc + corr[1] - corr[0], "the instrumented DID"), arms, share, denom, corr, gap


def _iv_counts(c: GroupCounts) -> tuple[Estimate, IvDiagnostics]:
    """``att_iv`` from counts keyed on (arm, R1, R2, instrument level), or
    ``att_iv_multi`` from counts keyed on (arm, R1, R2, level of k1, level
    of k2): ``_corrected_point`` as the estimate and its diagnostics."""
    point, arms, share, denom, corr, gap = _corrected_point(c)
    notes = (R1_NOTE,) if any(arms[0][0] + arms[1][0]) else ()
    est = Estimate(point=point, n_used=int(arms[1][1][1] + arms[0][1][1]), notes=notes)
    diag = IvDiagnostics(
        denom=(denom[0], denom[1]),
        missing_share=(share[0], share[1]),
        bias_correction=(-corr[0], corr[1]),
        trend_gap=(gap[0], gap[1]),
    )
    return est, diag


def _iv_engine(
    data: PanelDataset, aux: tuple[int, ...]
) -> tuple[Estimate, IvDiagnostics, Callable[[np.ndarray], tuple[float]]]:
    """``att_iv`` (one index) or ``att_iv_multi`` (a pair of different
    indices), and the point of the resample at given row indices, from the
    same group counts."""
    for k in aux:
        if not is_integer(k):
            raise InputError(f"aux index must be an integer, got {k!r}")
        if not 0 <= k < data.n_aux:
            raise InputError(
                f"aux index {k} out of range: dataset has {data.n_aux} auxiliary indicator(s)"
            )
    if len(aux) == 2 and aux[0] == aux[1]:
        raise InputError(f"an instrument pair needs two different aux indices, got {aux[0]} twice")
    groups = GroupKey(data, aux=aux)
    est, diag = _iv_counts(groups.counts())
    return est, diag, lambda idx: (_corrected_point(groups.counts(idx))[0],)


def att_iv(data: PanelDataset, aux_index: int) -> tuple[Estimate, IvDiagnostics]:
    """Single-instrument corrected DID.

    Per arm: a zero missing share annihilates the correction exactly (no
    instrument checks are needed or made); otherwise both instrument levels
    must contain complete cases and the missingness-gap denominator must
    clear the weak-instrument threshold.
    """
    return _iv_engine(data, (aux_index,))[:2]


def att_iv_multi(
    data: PanelDataset, aux_pair: tuple[int, int]
) -> tuple[Estimate, IvDiagnostics]:
    """Two-instrument corrected DID under parallel difference in trends.

    correction_d = (numer1 - numer2) / composite * Pr(R2=0|D=d), with
    numer_k the observed complete-case trend gap across instrument k's levels
    and composite = [q2(1)-q2(0)] - [q1(1)-q1(0)]. A common direct trend
    shift carried by both instruments cancels in numer1 - numer2, which is
    what licenses using instruments that individually shift the trend. The
    base weights the complete-case means of the four joint levels, so each
    joint level with first-wave respondents must hold complete cases.
    """
    aux = tuple(aux_pair) if np.iterable(aux_pair) else (aux_pair,)
    if len(aux) != 2:
        raise InputError(f"an instrument pair must hold exactly two aux indices, got {aux!r}")
    return _iv_engine(data, aux)[:2]

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

    att_iv = cc_did + correction_1 - correction_0,
    correction_d = (numer_d / denom_d) * Pr(R2=0 | D=d).

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

from .common import EPS_DENOM, finite
from .errors import EstimatorError, InputError
from .estimators import Estimate, _complete_case
from .panel import GroupCounts, GroupKey, PanelDataset

__all__ = ["IvDiagnostics", "att_iv", "att_iv_multi"]

_R1_NOTE = "estimand: ATT among first-wave respondents (R1 = 1)"


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
        The additive correction attributed to arm d, signed as applied:
        point = cc_did + bias_correction[0] + bias_correction[1].
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


def _corrected(
    c: GroupCounts, arm_gap: Callable[[int], tuple[float, float]]
) -> tuple[Estimate, IvDiagnostics]:
    """Complete-case DID plus the per-arm corrections gap / denom * Pr(R2=0|D=d).

    ``arm_gap(d)`` returns arm d's (trend gap, denominator); it is called
    only for arms with missing second-wave outcomes.
    """
    cc = _complete_case(c)
    arms = c.arms.tolist()
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
        gap[d], denom[d] = arm_gap(d)
        if abs(denom[d]) < EPS_DENOM:
            raise EstimatorError(f"weak instrument in arm {d}")
        corr[d] = gap[d] / denom[d] * share[d]

    point = cc.point + corr[1] - corr[0]
    notes = (_R1_NOTE,) if any(arms[0][0] + arms[1][0]) else ()
    est = Estimate(point=finite(point, "the instrumented DID"), n_used=cc.n_used, notes=notes)
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
    """``att_iv`` (one index) or ``att_iv_multi`` (a pair), and the point of
    the resample at given row indices, from the same group counts."""
    for k in aux:
        if not 0 <= k < data.n_aux:
            raise InputError(
                f"aux index {k} out of range: dataset has {data.n_aux} auxiliary indicator(s)"
            )
    groups = GroupKey(data, aux=aux)
    formula = _iv_single if len(aux) == 1 else _iv_pair
    est, diag = formula(groups.counts())
    return est, diag, lambda idx: (formula(groups.counts(idx))[0].point,)


def att_iv(data: PanelDataset, aux_index: int) -> tuple[Estimate, IvDiagnostics]:
    """Single-instrument corrected DID.

    Per arm: a zero missing share annihilates the correction exactly (no
    instrument checks are needed or made); otherwise both instrument levels
    must contain complete cases and the missingness-gap denominator must
    clear the weak-instrument threshold.
    """
    return _iv_engine(data, (aux_index,))[:2]


def _iv_single(c: GroupCounts) -> tuple[Estimate, IvDiagnostics]:
    """``att_iv`` from counts keyed on (arm, R1, R2, instrument level)."""
    n, s = c.n[0], c.s[0]
    return _corrected(c, lambda d: _instrument_gap(n, s, d))


def att_iv_multi(
    data: PanelDataset, aux_pair: tuple[int, int]
) -> tuple[Estimate, IvDiagnostics]:
    """Two-instrument corrected DID under parallel difference in trends.

    correction_d = (numer1 - numer2) / composite * Pr(R2=0|D=d), with
    numer_k the observed complete-case trend gap across instrument k's levels
    and composite = [q2(1)-q2(0)] - [q1(1)-q1(0)]. A common direct trend
    shift carried by both instruments cancels in numer1 - numer2, which is
    what licenses using instruments that individually shift the trend.
    """
    k1, k2 = aux_pair
    return _iv_engine(data, (k1, k2))[:2]


def _iv_pair(c: GroupCounts) -> tuple[Estimate, IvDiagnostics]:
    """``att_iv_multi`` from counts keyed on (arm, R1, R2, level of k1, level of k2):
    the difference of the two instruments' trend gaps over the difference of
    their missingness gaps."""
    n, s = c.n[0], c.s[0]
    # a sum that overflows, or meets one that overflowed the other way, is refused by _corrected
    with np.errstate(over="ignore", invalid="ignore"):
        s1, s2 = s.sum(axis=4), s.sum(axis=3)

    def arm_gap(d: int) -> tuple[float, float]:
        if not (n[:, 1, 1, 0, 1].any() or n[:, 1, 1, 1, 0].any()):
            raise EstimatorError(
                "degenerate instrument pair: indicators are identical on complete cases"
            )
        gap1, denom1 = _instrument_gap(n.sum(axis=4), s1, d)
        gap2, denom2 = _instrument_gap(n.sum(axis=3), s2, d)
        return gap1 - gap2, denom1 - denom2

    return _corrected(c, arm_gap)

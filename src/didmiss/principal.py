"""Principal-stratification scores and weighted ATT estimation with covariates.

Units are classified by their joint potential response status
``S = (R2(treated), R2(control))``: always-respondents ``(1, 1)``,
if-treated respondents ``(1, 0)``, and never-respondents ``(0, 0)``
(response monotonicity rules out ``(0, 1)``).  Within covariate cells the
stratum composition is identified from observable response rates, and the
ATT is assembled from stratum-weighted complete-case means under principal
ignorability: outcome *changes* are unrelated to response status once
covariates are held fixed.

Identification of the scores, per covariate value ``x``::

    e11(x) = Pr(R1=1 | D=1, x) + Pr(R2=1 | D=0, x) - Pr(R1=1 | D=0, x)
    e10(x) = Pr(R2=1 | D=1, x) - e11(x)
    e00(x) = 1 - Pr(R2=1 | D=1, x)

``e11`` is clipped into ``[0, Pr(R2=1 | D=1, x)]`` when sampling noise pushes
it outside; every clip is recorded.

The ATT estimator forms, for each stratum ``s`` and arm ``d``, a
self-normalized weighted mean of ``Y2 - Y1`` over the arm's complete cases
with per-record weights::

    h_s(x) = e_s(x) / Pr(complete case | D=d, x)

``e_s`` selects the stratum's covariate profile; the denominator undoes the
over-representation of high-response cells inside the complete-case pool.
Stratum effects are combined with treated-arm stratum shares
``pi_s = mean of e_s(X) over treated records``.  With a single covariate
cell every weight is constant and the estimator reduces to the plain
complete-case difference-in-differences; the same happens under zero
missingness, where ``e11 = 1`` exactly.

Cross-arm covariate composition is taken from each arm's own records, which
is exact when covariates are balanced across arms (as in a randomized or
stratified design); with imbalanced covariates the control-side composition
follows the control arm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .common import INCONSISTENT_FLAG, R1_NOTE, ClipEvent, finite
from .errors import EstimatorError
from .estimators import Estimate
from .panel import GroupCounts, GroupKey, PanelDataset, _unit_counts

__all__ = [
    "CellScores",
    "PrincipalScoreTable",
    "SCORE_STRATA",
    "att_principal_ignorability",
    "principal_scores",
]

#: Strata whose scores are identified under response monotonicity, keyed by
#: ``(r_treated, r_control)``.
SCORE_STRATA = ((1, 1), (1, 0), (0, 0))


@dataclass(frozen=True)
class CellScores:
    """Principal scores and occupancy for one covariate cell.

    Attributes
    ----------
    e11, e10, e00 : float
        Estimated stratum probabilities at this covariate value, for
        always-respondents, if-treated respondents and never-respondents.
        They are nonnegative and sum to one up to floating-point dust.
    n : tuple of int
        Records in the cell per arm, ``(control, treated)``.
    """

    e11: float
    e10: float
    e00: float
    n: tuple[int, int]


@dataclass(frozen=True)
class PrincipalScoreTable:
    """Per-cell principal scores with treated-arm stratum shares.

    Attributes
    ----------
    cells : mapping
        Covariate value (a tuple, empty when the data carry no covariates)
        to :class:`CellScores`.
    normalizers : mapping
        Stratum ``(r_treated, r_control)`` to its treated-arm share, the
        mean of the stratum's score over treated records.  These are the
        weights used to assemble the ATT and the normalizers that make the
        stratum weights ``w_s(x) = e_s(x) / normalizer`` average to one over
        treated records.
    clip_events : tuple of ClipEvent
        One entry per score that had to be clipped into its feasible range.
    flags : tuple of str
        Contains ``"model-inconsistent rates"`` when any clip fired.
    """

    cells: Mapping[tuple, CellScores]
    normalizers: Mapping[tuple[int, int], float]
    clip_events: tuple[ClipEvent, ...] = ()
    flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for stratum, share in self.normalizers.items():
            if not -1e-12 <= share <= 1.0 + 1e-12:
                raise ValueError(
                    f"stratum share out of range: {stratum!r} -> {share!r}"
                )


def _occupied(cells: tuple[tuple, ...], n: np.ndarray, *more: np.ndarray) -> tuple:
    """The cells holding at least one unit, with their counts ``n`` and their
    rows of each array in ``more`` (such as the dY sums).

    A resample may miss a covariate cell entirely; it is then left out, just
    as it would be absent from the resampled data.
    """
    present = n.reshape(n.shape[0], -1).any(axis=1)
    if present.all():  # the usual case: nothing to leave out, nothing to copy
        return cells, n, *more
    kept = [key for key, keep in zip(cells, present) if keep]
    return kept, n[present], *(a[present] for a in more)


def _refuse_empty(cells: Sequence[tuple], counts: np.ndarray, what: str) -> None:
    """Refuse, listing every ``(x, arm)`` pair whose count in ``counts[cell, arm]`` is 0."""
    if not counts.all():
        empty = [
            f"(x={key!r}, arm {a})" for key, row in zip(cells, counts) for a in (0, 1) if row[a] == 0
        ]
        raise EstimatorError(f"{what}: " + ", ".join(empty))


def _cell_scores(
    cells: Sequence[tuple], counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[float]]:
    """Per-cell principal scores from counts over (cell, arm, R1, R2).

    Returns (n, scores, raw_e11, normalizers): n[i, a] counts the units of
    cell i in arm a, scores[k, i] is the score of stratum SCORE_STRATA[k] in
    cell i, raw_e11 holds the always-respondent scores before clipping and
    normalizers[k] is stratum k's treated-arm share.
    """
    n = counts.sum(axis=(2, 3))
    _refuse_empty(cells, n, "empty covariate cell")

    p_r1 = counts[:, :, 1, :].sum(axis=2) / n
    p_r2 = counts[:, :, :, 1].sum(axis=2) / n
    raw = p_r1[:, 1] + p_r2[:, 0] - p_r1[:, 0]
    e11 = np.minimum(np.maximum(raw, 0.0), p_r2[:, 1])
    scores = np.array([e11, p_r2[:, 1] - e11, 1.0 - p_r2[:, 1]])
    normalizers = ((scores * n[:, 1]).sum(axis=1) / n[:, 1].sum()).tolist()
    return n, scores, raw, normalizers


def principal_scores(data: PanelDataset) -> PrincipalScoreTable:
    """Estimate principal-stratum scores within covariate cells.

    Parameters
    ----------
    data : PanelDataset
        Panel with both arms present.  Covariate columns define the cells;
        without covariates the whole sample is a single cell keyed ``()``.

    Returns
    -------
    PrincipalScoreTable

    Raises
    ------
    EstimatorError
        If any covariate cell is empty in one of the arms, so the response
        rates that identify the scores have no denominator.  The message
        lists every offending ``(x, arm)`` pair.
    """
    cells, counts = _occupied(*_unit_counts(data, cells=True))
    n, scores, raw, normalizers = _cell_scores(cells, counts)
    e11, e10, e00 = scores
    events = [
        ClipEvent(quantity=f"e11(x={key!r})", raw=float(raw[i]), clipped=float(e11[i]))
        for i, key in enumerate(cells)
        if e11[i] != raw[i]
    ]
    table = {
        key: CellScores(
            e11=float(e11[i]),
            e10=float(e10[i]),
            e00=float(e00[i]),
            n=(int(n[i, 0]), int(n[i, 1])),
        )
        for i, key in enumerate(cells)
    }
    return PrincipalScoreTable(
        cells=table,
        normalizers=dict(zip(SCORE_STRATA, normalizers)),
        clip_events=tuple(events),
        flags=(INCONSISTENT_FLAG,) if events else (),
    )


def att_principal_ignorability(data: PanelDataset) -> Estimate:
    """ATT from stratum-weighted complete-case means under principal ignorability.

    For each identified stratum the treated and control changes are
    estimated by self-normalized weighted means over the respective arm's
    complete cases, with weights ``e_s(x) / Pr(complete case | arm, x)``.
    The ATT is the sum of the stratum contrasts weighted by the treated-arm
    stratum shares; strata with a zero share contribute nothing.

    Parameters
    ----------
    data : PanelDataset

    Returns
    -------
    Estimate
        Point estimate over the complete cases (``n_used`` counts them).
        No analytic standard error is attached; use the bootstrap.

    Raises
    ------
    EstimatorError
        If a covariate cell is empty in one arm, or contains no complete
        cases in one arm so its change cannot be estimated.
    """
    return _principal_ignorability(GroupKey(data, cells=True).counts())


def _principal_ignorability(c: GroupCounts) -> Estimate:
    """``att_principal_ignorability`` from counts keyed on (cell, arm, R1, R2)."""
    point, n_used, clipped = _pi_point(c.cells, c.n, c.s)
    notes: list[str] = []
    if c.arms[:, 0].any():
        notes.append(R1_NOTE)
    if clipped:
        notes.append("principal scores clipped")
    return Estimate(point=point, n_used=n_used, notes=tuple(notes))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing mean is refused below
def _pi_point(
    cells: tuple[tuple, ...], counts: np.ndarray, sums: np.ndarray
) -> tuple[float, int, bool]:
    """The stratum-weighted DID from counts and Y2 - Y1 sums over (cell, arm,
    R1, R2), the number of complete cases, and whether a score was clipped.

    All strata are weighted at once, over (stratum, cell, arm); a stratum
    with a zero share contributes nothing.
    """
    cells, counts, sums = _occupied(cells, counts, sums)
    n, scores, raw, normalizers = _cell_scores(cells, counts)
    n_cc = counts[:, :, 1, 1]
    _refuse_empty(cells, n_cc, "no complete cases in covariate cell")
    # per-record weight e_s(x) / Pr(complete case | arm, x), summed by cell
    h = scores[:, :, None] / (n_cc / n)
    means = ((h * sums[:, :, 1, 1]).sum(axis=1) / (h * n_cc).sum(axis=1)).tolist()
    point = 0.0
    for share, (control, treated) in zip(normalizers, means):
        if share != 0.0:
            point += share * (treated - control)
    return finite(point, "the stratum-weighted DID"), int(n_cc.sum()), bool((scores[0] != raw).any())


def _pi_replicate(data: PanelDataset) -> tuple[Estimate, Callable[[np.ndarray], tuple[float]]]:
    """``att_principal_ignorability`` and the point of the resample at given
    row indices, from the same group counts."""
    groups = GroupKey(data, cells=True)

    def replicate(idx: np.ndarray) -> tuple[float]:
        n, s, _, _ = groups.bins(idx)
        return (_pi_point(groups.cells, n, s)[0],)

    return _principal_ignorability(groups.counts()), replicate

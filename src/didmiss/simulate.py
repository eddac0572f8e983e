"""Synthetic two-period panels with latent response strata and ground truth.

Each simulated unit carries a latent stratum ``S = (R2(treated), R2(control))``
— the pair of potential second-period response indicators — together with
both potential outcomes.  The observable :class:`~didmiss.panel.PanelDataset`
is produced by masking: the realized arm selects which potential outcome and
response are visible.  The oracle, an :class:`OraclePanel`, is that
observable panel plus four latent columns: the stratum ``s``, the unmasked
first-period outcome ``y1_true`` and both potential second-period outcomes
``y2_1`` and ``y2_0``.  The potential responses ``r2_1`` and ``r2_0`` are
derived from ``s``, and ``r1`` and ``r2`` are boolean, as in any panel.  So
every estimator in the package runs on the oracle as on the panel, and can
be validated against exact finite-sample truth.

Strata are labelled ``AR`` (always-respondents, ``(1, 1)``), ``ITR``
(if-treated respondents, ``(1, 0)``), ``ICR`` (if-control respondents,
``(0, 1)``) and ``NR`` (never-respondents, ``(0, 0)``).

A :class:`DgpSpec` fixes the joint stratum/treatment table, per-stratum
trends and effects, noise, first-wave response behaviour, auxiliary
indicator generators and an optional discrete cell layer
(``covariate_model``) that modulates strata probabilities and trends —
either latently (instrument constructions) or exposed as a covariate
column.  Stratum trends are shared across arms by construction; arm-specific
deviations must be requested explicitly (``arm_trend_delta`` or per-arm cell
trend shifts) so violations are opt-in and visible in the DgpSpec.

:func:`make_preset` returns ready-made generating processes whose documented
properties (planted complete-case bias, instrument validity, bound coverage
margins, …) are re-verified analytically every time they are built.

Population truths come from the estimators themselves: the design's
expected group counts (``Pr(R2, auxiliary levels | D)`` and the matching
``E[Y2 - Y1]`` mass, in the layout of :class:`~didmiss.panel.GroupCounts`)
are fed to the same count formulas that estimate from data, so the
population complete-case DID and the preset checks of the instrument
corrections run the code users run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence, Union

import numpy as np

from .bounds import _frechet_cells
from .common import STRATUM_LABELS, STRATUM_PAIRS, check_seed, finite, is_integer
from .errors import EstimatorError, InputError
from .estimators import _complete_case
from .iv import _iv_pair, _iv_single
from .panel import (
    ColumnMapping,
    GroupCounts,
    PanelDataset,
    _panel_fields,
    _panel_values,
    _table_columns,
)
from .table import Parser, floats, labels, read_columns, require_columns, write_table, write_tables

__all__ = [
    "AttDecomposition",
    "AuxModel",
    "Cell",
    "DgpSpec",
    "OraclePanel",
    "OracleRecord",
    "OracleTruth",
    "PRESET_KINDS",
    "R1Model",
    "STRATUM_LABELS",
    "STRATUM_PAIRS",
    "TrendMixtureReport",
    "check_trend_mixture",
    "decompose_att",
    "load_oracle",
    "make_preset",
    "save_oracle",
    "simulate_panel",
    "strip_missingness",
]

_AR, _ITR, _ICR, _NR = range(4)

#: ``STRATUM_PAIRS`` as an array: row ``s`` is stratum ``s``'s potential responses.
_RESPONSE = np.array(STRATUM_PAIRS, dtype=np.int8)

#: Entry ``[d, s]``: whether a unit of arm ``d`` in stratum ``s`` hides its ``y2``.
_MISSING_Y2 = _RESPONSE.T[::-1] == 0

#: What a response indicator (0 or 1) adds to an outcome: NaN hides it, -0.0 keeps its bits.
_HIDE = np.array([np.nan, -0.0])


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------


def _check_finite(owner: object, names: tuple[str, ...], where: str = "") -> None:
    """Refuse a NaN or infinity anywhere in each named number or nested tuple
    of ``owner``; the range checks compare, and NaN compares false."""
    for name in names:
        value = getattr(owner, name)
        stack = [value]
        while stack:
            item = stack.pop()
            if isinstance(item, (tuple, list)):
                stack.extend(item)
            elif not math.isfinite(item):
                raise InputError(f"{where}{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class R1Model:
    """First-wave response behaviour.

    ``kind = "always-observed"`` records every first-period outcome;
    ``kind = "mcar"`` drops each independently with probability
    ``1 - rate``, independent of everything else in the draw; the rate of
    ``"always-observed"`` can only be 1.0.
    """

    kind: str = "always-observed"
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("always-observed", "mcar"):
            raise InputError(
                f"unknown first-wave response model {self.kind!r}; "
                "expected 'always-observed' or 'mcar'"
            )
        if not 0.0 < self.rate <= 1.0:
            raise InputError(f"first-wave response rate must be in (0, 1], got {self.rate!r}")
        if self.kind != "mcar" and self.rate != 1.0:
            raise InputError(
                f"first-wave response rate {self.rate!r} applies only to kind 'mcar'; "
                f"{self.kind!r} observes every first-period outcome (rate 1.0)"
            )


@dataclass(frozen=True)
class AuxModel:
    """Generator for one auxiliary binary indicator column.

    ``kind = "independent"`` draws a Bernoulli(``p``) coin independent of
    everything else.  ``kind = "pattern"`` reads the value from the unit's
    cell (``Cell.aux_pattern``), letting instruments drive response through
    the cell layer.
    """

    kind: str = "independent"
    p: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("independent", "pattern"):
            raise InputError(
                f"unknown auxiliary model {self.kind!r}; expected 'independent' or 'pattern'"
            )
        if not 0.0 <= self.p <= 1.0:
            raise InputError(f"auxiliary indicator probability must be in [0, 1], got {self.p!r}")


@dataclass(frozen=True)
class Cell:
    """One discrete cell of the optional covariate / latent-group layer.

    Attributes
    ----------
    label : str
        Human-readable tag used in diagnostics.
    share : tuple of float
        ``Pr(cell | D = d)`` as ``(control, treated)``; shares sum to one
        within each arm across cells.
    strata : tuple
        Two 4-tuples ``Pr(S = s | cell, D = d)`` (control first), ordered
        like :data:`STRATUM_LABELS`.
    trend_shift : tuple of float
        Additive shift of the stratum trend for units in this cell, per arm
        ``(control, treated)``; unequal entries are an explicit, opt-in
        departure from shared trends.
    effect_shift : float
        Additive shift of the stratum treatment effect.
    baseline_shift : tuple of float
        Additive shift of the first-period mean, per arm.
    x_label : int or None
        When set, the cell is exported as this value in the dataset's
        covariate column; when None the cell stays latent.  All cells of a
        spec must agree on whether ``x_label`` is set.
    aux_pattern : tuple of int or None
        Values of the ``"pattern"``-kind auxiliary indicators for units in
        this cell, in the order those models appear in ``aux_models``.
    """

    label: str
    share: tuple[float, float]
    strata: tuple[tuple[float, float, float, float], tuple[float, float, float, float]]
    trend_shift: tuple[float, float] = (0.0, 0.0)
    effect_shift: float = 0.0
    baseline_shift: tuple[float, float] = (0.0, 0.0)
    x_label: int | None = None
    aux_pattern: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        numbers = ("share", "strata", "trend_shift", "effect_shift", "baseline_shift")
        _check_finite(self, numbers, where=f"cell {self.label!r}: ")
        if len(self.share) != 2 or any(s < 0 for s in self.share):
            raise InputError(f"cell {self.label!r}: share must be two nonnegative numbers")
        if len(self.strata) != 2:
            raise InputError(f"cell {self.label!r}: strata must hold one row per arm")
        for arm, row in enumerate(self.strata):
            if len(row) != 4 or any(p < 0 for p in row):
                raise InputError(
                    f"cell {self.label!r}: strata row for arm {arm} must be four "
                    "nonnegative probabilities"
                )
            if abs(sum(row) - 1.0) > 1e-9:
                raise InputError(
                    f"cell {self.label!r}: strata probabilities for arm {arm} sum to "
                    f"{sum(row)!r}, expected 1"
                )


@dataclass(frozen=True)
class DgpSpec:
    """Complete description of one synthetic panel-generating process.

    Attributes
    ----------
    n : int
        Number of units.
    seed : int
        Seed of the single pseudo-random stream; same spec and seed give
        bit-identical output.
    joint_sd : tuple
        Two 4-tuples ``Pr(S = s, D = d)`` (control arm first), ordered like
        :data:`STRATUM_LABELS`; the eight entries sum to one.  When a cell
        layer is present this table must equal the aggregated cell
        probabilities — it is validated, not inferred.
    trend : tuple of float
        ``E[Y2(0) - Y1 | S = s]``, shared across arms.
    baseline : tuple
        Four pairs ``E[Y1 | S = s, D = d]`` as ``(control, treated)``.
    effect : tuple of float
        Treatment effect added to ``Y2(1)`` for stratum ``s``.
    noise_sd : float
        Standard deviation of the independent Gaussian noise added to each
        period's outcome.
    r1_model : R1Model
        First-wave response behaviour.
    aux_models : tuple of AuxModel
        Generators for the auxiliary indicator columns, in column order.
    covariate_model : tuple of Cell
        Optional discrete-cell layer; empty means a single implicit cell
        with stratum probabilities taken from ``joint_sd``.
    arm_trend_delta : tuple of float
        Per-stratum trend added only in the treated arm — zero by default;
        nonzero values are a labelled violation of shared trends.
    """

    n: int
    seed: int
    joint_sd: tuple[tuple[float, float, float, float], tuple[float, float, float, float]]
    trend: tuple[float, float, float, float]
    baseline: tuple[tuple[float, float], ...]
    effect: tuple[float, float, float, float]
    noise_sd: float
    r1_model: R1Model = R1Model()
    aux_models: tuple[AuxModel, ...] = ()
    covariate_model: tuple[Cell, ...] = ()
    arm_trend_delta: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    # -- validation -------------------------------------------------------

    def __post_init__(self) -> None:
        if not is_integer(self.n):
            raise InputError(f"sample size must be an integer, got {self.n!r}")
        if self.n < 1:
            raise InputError(f"sample size must be at least 1, got {self.n!r}")
        check_seed(self.seed)
        numbers = ("joint_sd", "trend", "baseline", "effect", "arm_trend_delta", "noise_sd")
        _check_finite(self, numbers)
        if self.noise_sd < 0:
            raise InputError(f"noise scale must be nonnegative, got {self.noise_sd!r}")
        if len(self.joint_sd) != 2 or any(len(row) != 4 for row in self.joint_sd):
            raise InputError("joint_sd must hold two 4-entry rows (control, treated)")
        flat = [p for row in self.joint_sd for p in row]
        if any(p < -1e-12 for p in flat):
            raise InputError("joint_sd entries must be nonnegative")
        if abs(sum(flat) - 1.0) > 1e-9:
            raise InputError(f"joint_sd sums to {sum(flat)!r}, expected 1")
        for name, row in (("trend", self.trend), ("effect", self.effect),
                          ("arm_trend_delta", self.arm_trend_delta)):
            if len(row) != 4:
                raise InputError(f"{name} must have one entry per stratum, got {len(row)}")
        if len(self.baseline) != 4 or any(len(pair) != 2 for pair in self.baseline):
            raise InputError("baseline must hold four (control, treated) pairs")
        for arm in (0, 1):
            if self.arm_share(arm) <= 0:
                raise InputError(f"arm {arm} has zero probability in joint_sd")
        self._validate_cells()

    def _validate_cells(self) -> None:
        cells = self.covariate_model
        n_pattern = sum(1 for m in self.aux_models if m.kind == "pattern")
        if not cells:
            if n_pattern:
                raise InputError(
                    "pattern auxiliary models require a covariate_model cell layer"
                )
            return
        labelled = [c.x_label is not None for c in cells]
        if any(labelled) and not all(labelled):
            raise InputError("either every cell or no cell may set x_label")
        for arm in (0, 1):
            total = sum(c.share[arm] for c in cells)
            if abs(total - 1.0) > 1e-9:
                raise InputError(f"cell shares for arm {arm} sum to {total!r}, expected 1")
        for c in cells:
            got = 0 if c.aux_pattern is None else len(c.aux_pattern)
            if got != n_pattern:
                raise InputError(
                    f"cell {c.label!r} carries {got} pattern values for "
                    f"{n_pattern} pattern auxiliary models"
                )
        for arm in (0, 1):
            p_arm = self.arm_share(arm)
            for s in range(4):
                implied = p_arm * sum(c.share[arm] * c.strata[arm][s] for c in cells)
                if abs(implied - self.joint_sd[arm][s]) > 1e-9:
                    raise InputError(
                        "joint_sd is inconsistent with the cell layer: "
                        f"Pr(S={STRATUM_LABELS[s]}, D={arm}) aggregates to {implied!r} "
                        f"but joint_sd says {self.joint_sd[arm][s]!r}"
                    )

    # -- derived views ----------------------------------------------------

    def arm_share(self, d: int) -> float:
        """``Pr(D = d)``."""
        return float(sum(self.joint_sd[d]))

    def pi(self, d: int) -> tuple[float, float, float, float]:
        """``Pr(S = s | D = d)`` in :data:`STRATUM_LABELS` order."""
        p = self.arm_share(d)
        return tuple(v / p for v in self.joint_sd[d])

    def cells(self) -> tuple[Cell, ...]:
        """The cell layer, or a single implicit cell built from ``joint_sd``."""
        return self.covariate_model or self._implicit_cells

    @cached_property
    def _implicit_cells(self) -> tuple[Cell, ...]:
        return (Cell(label="all", share=(1.0, 1.0), strata=(self.pi(0), self.pi(1))),)

    @cached_property
    def _population(self) -> tuple[float, float, float]:
        """Population ATT, always-respondent ATT and complete-case DID.

        Evaluated once per spec, for the preset check and the oracle truth.
        The complete-case DID is NaN when an arm has no second-wave respondents.
        """
        att = ar_num = ar_den = 0.0
        for cell in self.cells():
            for st in range(4):
                w = cell.share[1] * cell.strata[1][st]
                effect = self.effect[st] + cell.effect_shift
                att += w * effect
                if st == _AR:
                    ar_num += w * effect
                    ar_den += w
        try:
            cc = _complete_case(_expected_counts(self)).point
        except EstimatorError:
            cc = math.nan
        return att, ar_num / ar_den if ar_den > 0 else math.nan, cc


# ---------------------------------------------------------------------------
# oracle types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleRecord:
    """One unit with its latent stratum and both potential outcomes.

    The observable fields (``y1``, ``y2``, ``r1``, ``r2``) are the unit's
    row of the observable panel, with None for a missing outcome;
    ``y1_true`` keeps the first-period outcome even when survey response
    hides it.  Consistency between the observable and the latent fields is
    asserted on construction.
    """

    unit_id: str
    d: int
    y1: float | None
    y2: float | None
    aux: tuple[int, ...]
    x: tuple[int, ...] | None
    s: str
    y1_true: float
    y2_1: float
    y2_0: float
    r1: int
    r2: int
    r2_1: int
    r2_0: int

    def __post_init__(self) -> None:
        if self.s not in STRATUM_LABELS:
            raise ValueError(f"unknown stratum label {self.s!r}")
        pair = STRATUM_PAIRS[STRATUM_LABELS.index(self.s)]
        if (self.r2_1, self.r2_0) != pair:
            raise ValueError(
                f"stratum {self.s} implies potential responses {pair}, "
                f"got ({self.r2_1}, {self.r2_0})"
            )
        realized = self.r2_1 if self.d == 1 else self.r2_0
        if self.r2 != realized:
            raise ValueError(f"observed r2={self.r2} but potential response is {realized}")
        expected_y2 = (self.y2_1 if self.d == 1 else self.y2_0) if self.r2 else None
        if (self.y2 is None) != (expected_y2 is None) or (
            self.y2 is not None and self.y2 != expected_y2
        ):
            raise ValueError("observed y2 does not equal the selected potential outcome")
        if self.r1:
            if self.y1 != self.y1_true:
                raise ValueError("observed y1 does not equal the latent first-period outcome")
        elif self.y1 is not None:
            raise ValueError("y1 must be None when r1 = 0")


class OraclePanel(PanelDataset):
    """Observable panel of one simulated draw plus its latent columns.

    The panel fields (``d``, ``y1``, ``y2``, ``r1``, ``r2``, ``aux``, ``x``,
    ``unit_ids``) are those of the :class:`~didmiss.panel.PanelDataset` the
    draw shows; the oracle adds the stratum code ``s`` (an index into
    :data:`STRATUM_LABELS`), the unmasked first-period outcome ``y1_true``
    and both potential second-period outcomes ``y2_1`` and ``y2_0``.  The
    potential responses ``r2_1`` and ``r2_0`` are read from ``s``.  The
    arrays are taken as given, unchecked; ``records`` builds a row-wise
    tuple of :class:`OracleRecord` on first access.
    """

    __slots__ = ("s", "y1_true", "y2_1", "y2_0", "_records", "_summary")

    def __init__(
        self,
        d: np.ndarray,
        y1: np.ndarray,
        y2: np.ndarray,
        aux: np.ndarray,
        x: np.ndarray | None,
        s: np.ndarray,
        y1_true: np.ndarray,
        y2_1: np.ndarray,
        y2_0: np.ndarray,
        unit_ids: tuple[str, ...] | None = None,
    ) -> None:
        super().__init__(d, y1, y2, aux=aux, x=x, unit_ids=unit_ids, _validate=False)
        self.s = s
        self.y1_true = y1_true
        self.y2_1 = y2_1
        self.y2_0 = y2_0
        self._records: tuple[OracleRecord, ...] | None = None
        self._summary: _OracleSummary | None = None
        for arr in (s, y1_true, y2_1, y2_0):
            arr.setflags(write=False)

    @property
    def r2_1(self) -> np.ndarray:
        """Second-period response if treated, from the stratum."""
        return _RESPONSE[:, 0].take(self.s)

    @property
    def r2_0(self) -> np.ndarray:
        """Second-period response if untreated, from the stratum."""
        return _RESPONSE[:, 1].take(self.s)

    @property
    def records(self) -> tuple[OracleRecord, ...]:
        """One :class:`OracleRecord` per unit, built once on first access."""
        if self._records is None:
            n = len(self)
            y1, y2 = self.y1.tolist(), self.y2.tolist()
            self._records = tuple(
                map(
                    OracleRecord,
                    self.unit_ids,
                    self.d.tolist(),
                    [None if v != v else v for v in y1],
                    [None if v != v else v for v in y2],
                    map(tuple, self.aux.tolist()),
                    [None] * n if self.x is None else map(tuple, self.x.tolist()),
                    [STRATUM_LABELS[code] for code in self.s.tolist()],
                    self.y1_true.tolist(),
                    self.y2_1.tolist(),
                    self.y2_0.tolist(),
                    self.r1.view(np.int8).tolist(),
                    self.r2.view(np.int8).tolist(),
                    self.r2_1.tolist(),
                    self.r2_0.tolist(),
                )
            )
        return self._records


@dataclass(frozen=True)
class OracleTruth:
    """Ground truth implied by one simulated panel.

    ``att`` and ``att_ar`` are computed from the generated latent records,
    so they are exact for the sample at hand; the ``*_population`` fields
    and ``cc_bias`` are population values of the DgpSpec, the complete-case
    DID being the package's own estimator evaluated on the design's expected
    group counts.

    Attributes
    ----------
    att : float
        Sample mean of ``Y2(1) - Y2(0)`` over treated units.
    att_ar : float
        Same, restricted to treated always-respondents (NaN when none).
    att_population, att_ar_population, cc_population : float
        The corresponding closed-form population values.
    cc_bias : float
        Population complete-case DID minus the population ATT.
    pi_table : tuple of mapping
        Exact ``Pr(S = s | D = d)`` per arm (control first), keyed by the
        ``(r_treated, r_control)`` stratum pair.
    """

    att: float
    att_ar: float
    att_population: float
    att_ar_population: float
    cc_population: float
    cc_bias: float
    pi_table: tuple[Mapping[tuple[int, int], float], Mapping[tuple[int, int], float]]


# ---------------------------------------------------------------------------
# population values (shared by the oracle truth and the preset verifiers)
# ---------------------------------------------------------------------------


def _pattern_index(spec: DgpSpec, aux_index: int) -> int:
    """Position of auxiliary column ``aux_index`` among the pattern models."""
    model = spec.aux_models[aux_index]
    if model.kind != "pattern":
        raise InputError(
            f"auxiliary column {aux_index} is independent of the response process"
        )
    return sum(1 for m in spec.aux_models[:aux_index] if m.kind == "pattern")


def _expected_counts(spec: DgpSpec, aux: Sequence[int] = ()) -> GroupCounts:
    """The design's expected group counts per unit of each arm.

    ``n[0, d, 1, r2, *levels]`` is ``Pr(R2 = r2, levels | D = d)``, where
    ``levels`` are the values of the ``"pattern"`` auxiliary columns ``aux``;
    all mass sits at R1 = 1 because first-wave response is independent of
    everything else. ``s`` holds the matching ``E[(Y2 - Y1) 1{...} | D = d]``
    on complete cases and ``cc_sum[d]`` its arm total, so the estimators'
    count formulas evaluate to their population values.
    """
    slots = [_pattern_index(spec, k) for k in aux]
    shape = (1, 2, 2, 2) + (2,) * len(aux)
    n = [0.0] * math.prod(shape)
    s = [0.0] * len(n)
    for cell in spec.cells():
        level = 0
        for slot in slots:
            level = 2 * level + cell.aux_pattern[slot]
        for st in range(4):
            effect = spec.effect[st] + cell.effect_shift
            for d in (0, 1):
                w = cell.share[d] * cell.strata[d][st]
                r2 = STRATUM_PAIRS[st][1 - d]
                at = ((2 * d + 1) * 2 + r2) * 2 ** len(aux) + level
                n[at] += w
                if r2:
                    trend = spec.trend[st] + cell.trend_shift[d]
                    mu = trend + spec.arm_trend_delta[st] + effect if d else trend
                    s[at] += w * mu
    sums = np.array(s).reshape(shape)
    return GroupCounts(
        n=np.array(n).reshape(shape),
        s=sums,
        cc_sum=sums[0, :, 1, 1].reshape(2, -1).sum(axis=1),
        cells=((),),
    )


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def simulate_panel(spec: DgpSpec) -> tuple[PanelDataset, OraclePanel, OracleTruth]:
    """Generate one panel plus its oracle and ground truth.

    Draws, in order, from a single generator seeded with ``spec.seed``:
    treatment arm, cell, stratum, first-period noise, second-period noise,
    first-wave response (only under the ``mcar`` model), then each
    ``independent`` auxiliary indicator in declaration order.  Outcomes
    follow ``Y1 = baseline + noise``, ``Y2(0) = Y1 + trend + noise`` and
    ``Y2(1) = Y2(0) + effect``; the observable dataset masks ``Y1``/``Y2``
    by the realized response indicators.

    Parameters
    ----------
    spec : DgpSpec

    Returns
    -------
    (PanelDataset, OraclePanel, OracleTruth)
        The masked observable panel, the oracle (that panel's own arrays
        plus the latent columns, see :class:`OraclePanel`), and the implied
        ground truth.

    Raises
    ------
    InputError
        If the draw leaves an arm without units (possible for tiny ``n``).

    Notes
    -----
    Deterministic: the same spec produces bit-identical arrays.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    cells = spec.cells()

    d = (rng.random(n) < spec.arm_share(1)).astype(np.int8)
    n_treated = int(d.sum())
    if not 0 < n_treated < n:
        empty = "treated" if n_treated == 0 else "control"
        raise InputError(
            f"a draw of n={n} units has no {empty} unit; both arms are required "
            "(use a larger n or another seed)"
        )
    treated = d.view(bool)
    arm = d.astype(np.intp)

    # A unit's cell (stratum) is the number of cumulative-share edges its
    # uniform reaches, the last edge left out: searchsorted(side="right")
    # capped at the last bin, since the edges never decrease.
    u_cell = rng.random(n)
    cell = np.zeros(n, dtype=np.intp)
    for edge in np.cumsum([c.share for c in cells], axis=0, dtype=np.float64)[:-1]:
        cell += u_cell >= edge.take(arm)
    group = 2 * cell + arm  # (cell, arm)
    del u_cell, cell, arm

    cum_strata = np.cumsum([c.strata for c in cells], axis=2, dtype=np.float64)
    u_strat = rng.random(n)
    s = np.zeros(n, dtype=np.int8)
    for edge in cum_strata.reshape(-1, 4).T[:3]:
        s += u_strat >= edge.take(group)
    del u_strat
    code = 4 * group + s  # (cell, arm, stratum)

    eps1 = rng.normal(0.0, spec.noise_sd, n)
    eps2 = rng.normal(0.0, spec.noise_sd, n)

    # Each (cell, arm, stratum) term, summed in the order of the per-unit
    # outcome expressions, so every outcome keeps its bits.
    def per_cell(name: str) -> np.ndarray:
        return np.array([getattr(c, name) for c in cells], dtype=np.float64)

    base = np.array(spec.baseline, dtype=np.float64).T + per_cell("baseline_shift")[:, :, None]
    trend = np.array(spec.trend, dtype=np.float64) + per_cell("trend_shift")[:, :, None]
    trend = trend + np.array(spec.arm_trend_delta, dtype=np.float64) * np.array([[False], [True]])
    effect = np.array(spec.effect, dtype=np.float64) + per_cell("effect_shift")[:, None, None]
    effect = np.broadcast_to(effect, base.shape)
    # What the observed y2 adds to Y2(0): the effect if treated, -0.0 if not
    # (x + -0.0 is x, bit for bit) and NaN where y2 is hidden, so one gather
    # and one sum give the observed outcome without a per-unit branch.
    offset = effect.copy()
    offset[:, 0] = -0.0
    offset[:, _MISSING_Y2] = np.nan
    # built in place (y1 in the noise's buffer): each sum keeps its two
    # operands, so its bits are the per-unit expressions' (IEEE addition is
    # commutative)
    y1 = eps1
    y1 += base.take(code)
    y2_0 = trend.take(code)
    y2_0 += y1
    y2_0 += eps2
    del eps2
    y2_1 = effect.take(code)
    y2_1 += y2_0
    y2_obs = offset.take(code)
    y2_obs += y2_0
    del code

    # every first-period outcome is observed unless first-wave response is
    # drawn; a response indexes [NaN, -0.0] as 0 or 1
    y1_obs = y1
    if spec.r1_model.kind == "mcar":
        y1_obs = _HIDE.take((rng.random(n) < spec.r1_model.rate).view(np.int8))
        y1_obs += y1

    aux = np.zeros((n, len(spec.aux_models)), dtype=np.int8)
    patterns = iter(np.repeat([c.aux_pattern or () for c in cells], 2, axis=0).T)
    for k, model in enumerate(spec.aux_models):
        if model.kind == "independent":
            # drawn into its column: a separate bool array would raise the draw's peak memory
            np.less(rng.random(n), model.p, out=aux[:, k])
        else:
            aux[:, k] = next(patterns).take(group)

    if cells[0].x_label is not None:
        x = np.repeat([c.x_label for c in cells], 2).astype(np.int64).take(group).reshape(n, 1)
    else:
        x = None
    del group

    # well-formed by construction, both arms checked above; the oracle shows
    # the same observable arrays
    data = PanelDataset(d, y1_obs, y2_obs, aux=aux, x=x, _validate=False)
    oracle = OraclePanel(d, y1_obs, y2_obs, aux, x, s=s, y1_true=y1, y2_1=y2_1, y2_0=y2_0)

    # each treated unit's effect, gathered before subtracting: half the
    # temporaries of a full-length difference
    direct = y2_1.compress(treated)
    direct -= y2_0.compress(treated)
    att = float(np.mean(direct))
    ar = s.compress(treated) == _AR
    att_ar = float(np.mean(direct.compress(ar))) if ar.any() else math.nan
    att_population, att_ar_population, cc_population = spec._population
    pis = (spec.pi(0), spec.pi(1))
    pi_table = tuple({STRATUM_PAIRS[code]: pis[arm][code] for code in range(4)} for arm in (0, 1))
    truth = OracleTruth(
        att=att,
        att_ar=att_ar,
        att_population=att_population,
        att_ar_population=att_ar_population,
        cc_population=cc_population,
        cc_bias=cc_population - att_population,
        pi_table=pi_table,
    )
    return data, oracle, truth


# ---------------------------------------------------------------------------
# oracle-side identities
# ---------------------------------------------------------------------------


OracleInput = Union[OraclePanel, Iterable[OracleRecord]]


def _as_oracle(records: OracleInput) -> OraclePanel:
    """The oracle both identities read, with its arm and stratum codes checked
    and every unit's untreated change and treatment effect finite."""
    return _checked(records)[0]


def _checked(records: OracleInput) -> tuple[OraclePanel, np.ndarray, np.ndarray]:
    """``_as_oracle`` with the two changes it checks: every unit's untreated
    change ``y2_0 - y1_true`` and treatment effect ``y2_1 - y2_0``."""
    oracle = records if isinstance(records, OraclePanel) else _from_records(records)
    for name, codes, top in (("treatment", oracle.d, 1), ("stratum code", oracle.s, 3)):
        bad = np.flatnonzero((codes < 0) | (codes > top))
        if bad.size:
            i = int(bad[0])
            raise InputError(
                f"oracle {name} {codes[i]} for unit {oracle.unit_ids[i]!r} (row {i + 1}) "
                f"is outside 0-{top}"
            )
    y1, y2_1, y2_0 = oracle.y1_true, oracle.y2_1, oracle.y2_0
    with np.errstate(over="ignore", invalid="ignore"):
        delta0 = y2_0 - y1
        direct = y2_1 - y2_0
    ok = np.isfinite(delta0)
    ok &= np.isfinite(direct)
    if not ok.all():
        i = int(np.argmin(ok))
        raise EstimatorError(
            "the result is not finite: y2_0 - y1_true or y2_1 - y2_0 is not finite for unit "
            f"{oracle.unit_ids[i]!r} (row {i + 1}: y1_true={float(y1[i])!r}, "
            f"y2_1={float(y2_1[i])!r}, y2_0={float(y2_0[i])!r})"
        )
    return oracle, delta0, direct


def _from_records(records: Iterable[OracleRecord]) -> OraclePanel:
    seq = list(records)
    if not seq:
        raise InputError("no oracle records supplied")
    codes = {label: i for i, label in enumerate(STRATUM_LABELS)}
    return OraclePanel(
        d=np.array([r.d for r in seq], dtype=np.int8),
        y1=np.array([r.y1 for r in seq], dtype=np.float64),
        y2=np.array([r.y2 for r in seq], dtype=np.float64),
        aux=np.array([r.aux for r in seq], dtype=np.int8).reshape(len(seq), -1),
        x=None
        if seq[0].x is None
        else np.array([r.x for r in seq], dtype=np.int64).reshape(len(seq), -1),
        s=np.array([codes[r.s] for r in seq], dtype=np.int8),
        y1_true=np.array([r.y1_true for r in seq], dtype=np.float64),
        y2_1=np.array([r.y2_1 for r in seq], dtype=np.float64),
        y2_0=np.array([r.y2_0 for r in seq], dtype=np.float64),
        unit_ids=tuple(r.unit_id for r in seq),
    )


def _group_means(
    code: np.ndarray, values: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean of ``values`` in each group ``code`` of ``range(n.size)``, where
    ``n`` holds the group counts raised to at least 1 (an empty group's mean
    is 0), with each unit's deviation from its group's first-pass mean and
    the groups' mean deviations.

    Corrected two-pass sums: the second pass adds each group's mean
    deviation from the first-pass mean, so the means are as accurate as
    pairwise ``np.mean`` although ``bincount`` sums one unit at a time.
    """
    means = np.bincount(code, values, minlength=n.size) / n
    dev = means.take(code)
    np.subtract(values, dev, out=dev)
    shift = np.bincount(code, dev, minlength=n.size) / n
    return means + shift, dev, shift


def _group_stats(
    code: np.ndarray, values: np.ndarray, n: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_group_means`` and each group's sum of squared deviations from its mean."""
    means, dev, shift = _group_means(code, values, n)
    np.multiply(dev, dev, out=dev)
    return means, np.bincount(code, dev, minlength=n.size) - shift**2 * n


@dataclass(frozen=True)
class _OracleSummary:
    """What both oracle identities read, from one pass over a checked oracle.

    Indexed ``[stratum][arm]``: unit counts ``n``, mean untreated changes
    ``trend`` and their sums of squared deviations ``ss``, and mean treatment
    effects ``effect``. Indexed by arm: ``n_arm``, ``direct`` and ``arm_ss``,
    the same for each arm as a whole. ``att`` is the treated arm's mean
    effect, NaN without treated units. It holds no reference to the oracle.
    """

    n: tuple[tuple[int, int], ...]
    trend: tuple[tuple[float, float], ...]
    ss: tuple[tuple[float, float], ...]
    effect: tuple[tuple[float, float], ...]
    n_arm: tuple[int, int]
    direct: tuple[float, float]
    arm_ss: tuple[float, float]
    att: float


def _summary(records: OracleInput) -> _OracleSummary:
    """The identities' summary of an oracle, kept on an ``OraclePanel`` once
    computed; an iterable of records is summarised afresh on every call.

    A group sum may overflow although every unit's change is finite; the
    summary then holds the non-finite figure, and each identity refuses the
    figures it reads (see ``_refuse_overflow``).
    """
    if isinstance(records, OraclePanel) and records._summary is not None:
        return records._summary
    oracle, delta0, direct = _checked(records)
    # intp codes: an int8 index gathers several times slower
    arm = oracle.d.astype(np.intp)
    code = oracle.s.astype(np.intp)
    code *= 2
    code += arm  # (stratum, arm)
    n = np.bincount(code, minlength=8)
    n_arm = n.reshape(4, 2).sum(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        trend, ss = _group_stats(code, delta0, np.maximum(n, 1))
        effect = _group_means(code, direct, np.maximum(n, 1))[0]  # its spread is not read
        arm_trend, arm_ss = _group_stats(arm, delta0, np.maximum(n_arm, 1))
        att = float(np.mean(direct.compress(oracle.d.view(bool)))) if n_arm[1] else math.nan

    def pairs(v: np.ndarray) -> tuple[tuple, ...]:
        return tuple(map(tuple, v.reshape(4, 2).tolist()))

    summary = _OracleSummary(
        n=pairs(n),
        trend=pairs(trend),
        ss=pairs(ss),
        effect=pairs(effect),
        n_arm=tuple(n_arm.tolist()),
        direct=tuple(arm_trend.tolist()),
        arm_ss=tuple(arm_ss.tolist()),
        att=att,
    )
    if oracle is records:
        oracle._summary = summary
    return summary


#: The summary's (stratum, arm) groups and arms, in its order, as refusals name them.
_GROUPS = tuple(f"stratum {label}, arm {d}" for label in STRATUM_LABELS for d in (0, 1))
_ARMS = ("arm 0", "arm 1")


def _refuse_overflow(what: str, groups: Sequence[str], *stats: tuple) -> None:
    """Refuse the first of ``groups`` for which a figure in ``stats`` (each
    one per group, in the summary's layout) is not finite."""
    bad = ~np.isfinite(stats).all(axis=0).reshape(-1)
    if bad.any():
        group = groups[int(np.argmax(bad))]
        raise EstimatorError(f"the result is not finite: the {what} in {group} overflows")


#: Labels of the five decomposition terms, in reported order.
DECOMPOSITION_LABELS = (
    "treated before-after change among respondents",
    "always-respondents' control-arm trend (subtracted)",
    "if-treated respondents' control-arm trend (subtracted)",
    "never-respondents' direct effect (added)",
    "if-control respondents' direct effect (added)",
)


@dataclass(frozen=True)
class AttDecomposition:
    """Five-term oracle decomposition of the ATT.

    ``terms`` are the signed contributions in :data:`DECOMPOSITION_LABELS`
    order; ``total`` is their sum, ``att`` the sample ATT, ``deviation``
    their difference and ``se`` its Monte-Carlo standard error (driven by
    the cross-arm trend comparison for the two respondent strata).
    """

    terms: tuple[float, float, float, float, float]
    labels: tuple[str, ...]
    total: float
    att: float
    deviation: float
    se: float
    treated_shares: Mapping[tuple[int, int], float]


def decompose_att(records: OracleInput) -> AttDecomposition:
    """Evaluate the five-term ATT decomposition on oracle records.

    The observable first term (the treated arm's before-after change among
    its respondents) is corrected by the control-arm trends of the two
    strata that respond under treatment and augmented by the direct effects
    of the two strata that do not; with trends shared across arms the five
    terms sum to the ATT up to Monte-Carlo noise.

    Parameters
    ----------
    records : OraclePanel or iterable of OracleRecord

    Returns
    -------
    AttDecomposition

    Raises
    ------
    EstimatorError
        If a stratum with positive treated share has no control units, so
        its trend term cannot be evaluated; or if a unit's change, the mean
        or spread of ``y2_0 - y1_true`` in an AR or ITR group, the mean of
        ``y2_1 - y2_0`` in a treated group, or the treated arm's mean effect
        is not finite.
    RuntimeError
        If the terms fail to reconstruct the sample ATT within six standard
        errors — the generating spec violated shared trends.
    """
    summary = _summary(records)
    n, trend, ss, effect = summary.n, summary.trend, summary.ss, summary.effect
    # the terms read the two treated-respondent strata's trends and spreads
    # (AR and ITR, the first four groups) and the treated groups' effects
    _refuse_overflow("mean or spread of y2_0 - y1_true", _GROUPS[:4], trend[:2], ss[:2])
    _refuse_overflow("mean of y2_1 - y2_0", _GROUPS[1::2], [row[1] for row in effect])
    n1 = sum(row[1] for row in n)
    if n1 == 0 or sum(row[0] for row in n) == 0:
        raise EstimatorError("decomposition requires units in both arms")
    att = finite(summary.att, "the mean of y2_1 - y2_0 over treated units")
    share = [row[1] / n1 for row in n]
    shares = {STRATUM_PAIRS[code]: share[code] for code in range(4)}

    # the treated respondents' mean change, stratum by stratum: effect plus trend
    term1 = sum(
        (
            share[code] * (effect[code][1] + trend[code][1])
            for code in (_AR, _ITR)
            if share[code] > 0
        ),
        0.0,
    )
    terms = [term1]
    # control-arm trends of the strata that respond if treated (subtracted),
    # direct effects of those that do not (added; share > 0 means treated units)
    for code, arm in ((_AR, 0), (_ITR, 0), (_NR, 1), (_ICR, 1)):
        if share[code] == 0:
            terms.append(0.0)
        elif n[code][arm] == 0:
            raise EstimatorError(
                f"no control units in stratum {STRATUM_LABELS[code]}: "
                "its decomposition term is undefined"
            )
        elif arm:
            terms.append(share[code] * effect[code][1])
        else:
            terms.append(-share[code] * trend[code][0])

    total = float(sum(terms))
    deviation = total - att

    # The deviation equals the share-weighted cross-arm gap in untreated
    # changes over the two treated-respondent strata; its standard error
    # treats the shares as fixed.
    var = 0.0
    for code in (_AR, _ITR):
        if share[code] == 0:
            continue
        if min(n[code]) < 2:
            raise EstimatorError(
                f"stratum {STRATUM_LABELS[code]} needs at least two units per arm "
                "for the decomposition tolerance"
            )
        for arm in (1, 0):
            var += share[code] ** 2 * (ss[code][arm] / (n[code][arm] - 1)) / n[code][arm]
    se = math.sqrt(var)

    if abs(deviation) > 6.0 * se + 1e-12:
        raise RuntimeError(
            "decomposition identity violated: terms total "
            f"{total:.6f} vs ATT {att:.6f} (deviation {deviation:.6f}, se {se:.6f}); "
            "the generating process does not share trends across arms"
        )
    return AttDecomposition(
        terms=tuple(terms),
        labels=DECOMPOSITION_LABELS,
        total=total,
        att=att,
        deviation=deviation,
        se=se,
        treated_shares=shares,
    )


@dataclass(frozen=True)
class TrendMixtureReport:
    """Untreated trends per arm, directly and as stratum mixtures.

    ``direct[d]`` is the mean of ``Y2(0) - Y1`` in arm ``d``; ``mixture[d]``
    recomputes it as the stratum-share-weighted mean (the two agree exactly
    up to floating-point regrouping — the mixture identity).  ``pt_gap`` is
    ``direct[1] - direct[0]``: zero in expectation exactly when stratum
    composition and trends line up across arms, even though each stratum's
    trend is shared by construction.
    """

    direct: tuple[float, float]
    mixture: tuple[float, float]
    mixture_residual: float
    pt_gap: float
    pt_gap_se: float
    stratum_shares: tuple[Mapping[tuple[int, int], float], Mapping[tuple[int, int], float]]
    stratum_trends: tuple[
        Mapping[tuple[int, int], float | None], Mapping[tuple[int, int], float | None]
    ]


def check_trend_mixture(records: OracleInput) -> TrendMixtureReport:
    """Compare each arm's untreated trend with its stratum-mixture form.

    The mixture identity (law of total expectation) must hold to rounding;
    the report also carries the cross-arm trend gap and its standard error,
    which reveal when equal per-stratum trends still produce unequal
    arm-level trends because stratum composition differs.

    Raises
    ------
    EstimatorError
        If a unit's change, a (stratum, arm) group's mean of ``y2_0 - y1_true``,
        or an arm's mean or spread of it is not finite.
    RuntimeError
        If the mixture identity fails beyond floating-point tolerance.
    """
    summary = _summary(records)
    n_arm, direct, arm_ss = summary.n_arm, summary.direct, summary.arm_ss
    _refuse_overflow("mean of y2_0 - y1_true", _GROUPS, summary.trend)
    _refuse_overflow("mean or spread of y2_0 - y1_true", _ARMS, direct, arm_ss)
    if min(n_arm) == 0:
        raise EstimatorError("trend comparison requires units in both arms")
    n, means = summary.n, summary.trend

    mixture: list[float] = []
    shares: list[dict[tuple[int, int], float]] = []
    trends: list[dict[tuple[int, int], float | None]] = []
    for arm in (0, 1):
        shares.append({STRATUM_PAIRS[code]: n[code][arm] / n_arm[arm] for code in range(4)})
        trends.append(
            {STRATUM_PAIRS[code]: means[code][arm] if n[code][arm] else None for code in range(4)}
        )
        mixture.append(
            sum(n[code][arm] / n_arm[arm] * means[code][arm] for code in range(4) if n[code][arm])
        )

    scale = max(1.0, max(abs(v) for v in direct))
    residual = max(abs(direct[arm] - mixture[arm]) for arm in (0, 1))
    if residual > 1e-9 * scale:
        raise RuntimeError(
            f"stratum-mixture identity violated: residual {residual!r} "
            "exceeds floating-point tolerance"
        )

    var = sum(arm_ss[arm] / (n_arm[arm] - 1) / n_arm[arm] for arm in (0, 1) if n_arm[arm] >= 2)
    return TrendMixtureReport(
        direct=(direct[0], direct[1]),
        mixture=(mixture[0], mixture[1]),
        mixture_residual=residual,
        pt_gap=direct[1] - direct[0],
        pt_gap_se=math.sqrt(var),
        stratum_shares=(shares[0], shares[1]),
        stratum_trends=(trends[0], trends[1]),
    )


# ---------------------------------------------------------------------------
# spec surgery
# ---------------------------------------------------------------------------


def strip_missingness(spec: DgpSpec) -> DgpSpec:
    """Return a spec with the same outcome law but full observation.

    Every (cell, stratum) combination becomes an always-respondent cell that
    keeps its trend, effect and baseline contributions, and first-wave
    response is forced on.  The generated panel therefore follows the same
    outcome distribution as the original with all missingness removed —
    the reference point for collapse identities.
    """
    new_cells: list[Cell] = []
    for cell in spec.cells():
        for code in range(4):
            share = (
                cell.share[0] * cell.strata[0][code],
                cell.share[1] * cell.strata[1][code],
            )
            if share[0] <= 0.0 and share[1] <= 0.0:
                continue
            new_cells.append(
                Cell(
                    label=f"{cell.label}/{STRATUM_LABELS[code]}",
                    share=share,
                    strata=((1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
                    trend_shift=(
                        cell.trend_shift[0] + spec.trend[code] - spec.trend[_AR],
                        cell.trend_shift[1]
                        + spec.trend[code]
                        + spec.arm_trend_delta[code]
                        - spec.trend[_AR]
                        - spec.arm_trend_delta[_AR],
                    ),
                    effect_shift=cell.effect_shift + spec.effect[code] - spec.effect[_AR],
                    baseline_shift=(
                        cell.baseline_shift[0] + spec.baseline[code][0] - spec.baseline[_AR][0],
                        cell.baseline_shift[1] + spec.baseline[code][1] - spec.baseline[_AR][1],
                    ),
                    x_label=cell.x_label,
                    aux_pattern=cell.aux_pattern,
                )
            )
    p1 = spec.arm_share(1)
    joint = ((1.0 - p1, 0.0, 0.0, 0.0), (p1, 0.0, 0.0, 0.0))
    return replace(
        spec,
        joint_sd=joint,
        covariate_model=tuple(new_cells),
        r1_model=R1Model("always-observed"),
        arm_trend_delta=(0.0, 0.0, 0.0, 0.0),
    )


# ---------------------------------------------------------------------------
# oracle CSV I/O
# ---------------------------------------------------------------------------


#: Columns an oracle table has beyond the observable panel's.
_LATENT_COLUMNS = ("s", "y1_true", "y2_1", "y2_0")


def save_oracle(oracle: OraclePanel, dest: str | Path | IO[str]) -> None:
    """Write the per-unit oracle table as CSV.

    Column order: id, d, y1, y2, aux1..auxK, x1..xJ, s, y1_true, y2_1, y2_0;
    missing observable outcomes are written as "NA".  :func:`load_oracle`
    reproduces every column bit for bit.
    """
    write_table(dest, *_oracle_table(oracle))


def _save_panel_and_oracle(oracle: OraclePanel, out: str | Path, truth: str | Path) -> None:
    """``save_panel(oracle, out)`` then ``save_oracle(oracle, truth)``, in one pass.

    The panel's columns are the oracle's first ones, so their cells are
    formatted once for both files; what the two calls leave on disk, on
    error too, is left the same (see ``write_tables``).
    """
    header, columns = _oracle_table(oracle)
    panel_width = len(header) - len(_LATENT_COLUMNS)
    write_tables([(out, panel_width), (truth, len(header))], header, columns)


def _oracle_table(oracle: OraclePanel) -> tuple[list[str], list[Sequence[object]]]:
    """Header and columns of the oracle table: the panel's, then the latent ones."""
    header, columns = _table_columns(oracle)
    header += list(_LATENT_COLUMNS)
    columns += [
        np.array(STRATUM_LABELS, dtype=object)[oracle.s],
        oracle.y1_true,
        oracle.y2_1,
        oracle.y2_0,
    ]
    return header, columns


_STRATUM = labels(
    {label: code for code, label in enumerate(STRATUM_LABELS)}, "unknown stratum label"
)
_LATENT = floats(missing="latent outcome must not be missing")


def _oracle_fields(header: list[str]) -> list[tuple[str, Parser]]:
    """The oracle table's columns with their parsers, for ``read_columns``."""
    require_columns(header, ("id", "d", "y1", "y2") + _LATENT_COLUMNS)
    fields = _panel_fields(header, ColumnMapping.detect(header)) + [("s", _STRATUM)]
    return fields + [(name, _LATENT) for name in _LATENT_COLUMNS[1:]]


def load_oracle(source: str | Path | bytes | IO[str] | IO[bytes]) -> OraclePanel:
    """Read an oracle table written by :func:`save_oracle`.

    Every unit's internal consistency (stratum vs. observed second-period
    response, observable outcomes vs. latent values) is re-validated on
    load; a corrupted file fails loudly and names its first bad row.
    """
    header, values = read_columns(source, "oracle table", _oracle_fields)
    *panel, s, y1_true, y2_1, y2_0 = values
    ids, d, y1, y2, aux, x = _panel_values(ColumnMapping.detect(header), panel)
    if not ids:
        raise InputError("empty oracle table")

    r2 = _RESPONSE[s, 1 - d].astype(bool)
    # a responding unit shows its selected potential outcome, any other shows none
    y2_bad = np.where(r2, y2 != np.where(d == 1, y2_1, y2_0), ~np.isnan(y2))
    y1_bad = ~np.isnan(y1) & (y1 != y1_true)
    bad = y2_bad | y1_bad
    if bad.any():
        i = int(np.argmax(bad))
        problem = (
            "observed y2 does not equal the selected potential outcome"
            if y2_bad[i]
            else "observed y1 does not equal the latent first-period outcome"
        )
        raise InputError(f"inconsistent oracle record in row {i + 2}: {problem}")
    return OraclePanel(d, y1, y2, aux, x, s, y1_true, y2_1, y2_0, unit_ids=ids)


# ---------------------------------------------------------------------------
# numeric preset solves (roots written out, re-checked on every call)
# ---------------------------------------------------------------------------


def _couple(p_treated: float, p_control: float) -> tuple[float, float, float, float]:
    """Comonotone coupling of the two potential response margins.

    Maximizes the always-respondent mass consistent with marginal response
    probabilities ``p_treated = Pr(R2(1) = 1)`` and ``p_control``; the
    resulting table is automatically monotone when ``p_treated >= p_control``.
    """
    ar = min(p_treated, p_control)
    return (ar, p_treated - ar, p_control - ar, 1.0 - max(p_treated, p_control))


def _check_solution(residual: float, what: str) -> None:
    if not residual < 1e-10:
        raise RuntimeError(
            f"preset root for {what} does not solve its equations (residual {residual!r})"
        )


def _solve_homogeneous_cells() -> tuple[float, float, float]:
    """Arm-1 response table with a constant respondent/nonrespondent gap.

    A latent binary V shifts outcome trends; response probabilities
    ``p(V, aux)`` are solved so that the respondent-minus-nonrespondent
    mean-trend gap is identical across the two instrument groups while the
    response-rate contrast between groups stays at 0.25.  Returns
    ``(p(0, 1), p(1, 1), trend_coefficient)`` with ``p(0, 0) = 0.15`` and
    ``p(1, 0) = 0.75`` held fixed; the trend coefficient scales V so the
    planted complete-case bias is exactly 0.25.

    The root was found once with a numerical solver (tolerance 1e-13) and is
    written out to the last bit; ``equations`` re-verifies it on every call.
    """

    def v_gap(p_v0: float, p_v1: float) -> float:
        # E[V | respondent] - E[V | nonrespondent] within one instrument group
        obs = p_v1 / (p_v0 + p_v1)
        miss = (1.0 - p_v1) / (2.0 - p_v0 - p_v1)
        return obs - miss

    target = v_gap(0.15, 0.75)

    def equations(q: Sequence[float]) -> list[float]:
        p01, p11 = q
        rate_gap = (p01 + p11) / 2.0 - (0.15 + 0.75) / 2.0
        return [rate_gap - 0.25, v_gap(p01, p11) - target]

    p01, p11 = 0.44545454545454544, 0.9545454545454545
    _check_solution(max(abs(r) for r in equations((p01, p11))), "homogeneous-bias cells")
    if not (0.0 < p01 < 1.0 and 0.0 < p11 < 1.0):
        raise RuntimeError("homogeneous-bias solve left the probability simplex")
    share_v1_respondents = (0.75 + p11) / (0.15 + p01 + 0.75 + p11)
    b = 0.25 / (share_v1_respondents - 0.5)
    return p01, p11, b


def _multi_iv_response(h: Sequence[float], v: int, a1: int, a2: int) -> float:
    """Treated-arm response probability of the paired-instrument preset's
    cell ``(v, a1, a2)`` under the interaction terms ``h``."""
    return 0.30 + 0.20 * a1 - 0.15 * a2 + v * (h[0] + h[1] * a1 + h[2] * a2 + h[3] * a1 * a2)


def _solve_multi_instrument() -> tuple[float, float, float, float]:
    """Arm-1 response interaction terms for the paired-instrument preset.

    Both auxiliary indicators shift trends directly by 0.3 (breaking the
    single-instrument construction), while a latent V with unit trend
    coefficient drives selection.  The V-part of the response probability,
    ``v * (h0 + h1*a1 + h2*a2 + h12*a1*a2)``, is solved so that within each
    instrument the respondent/nonrespondent trend gap is level-independent,
    the paired-difference correction is exact in population, and the mean
    V-response gap is 0.30.

    The root was found once with a numerical solver (tolerance 1e-13) and is
    written out to the last bit; ``equations`` re-verifies it on every call.
    """
    cells = [(v, a1, a2) for v in (0, 1) for a1 in (0, 1) for a2 in (0, 1)]

    def shift(v: int, a1: int, a2: int) -> float:
        return 1.0 * v + 0.3 * (a1 + a2)

    def equations(h: Sequence[float]) -> list[float]:
        p = {c: _multi_iv_response(h, *c) for c in cells}

        def group(level_of, level, observed: bool):
            mass = mean_sum = 0.0
            for c in cells:
                if level_of(c) != level:
                    continue
                w = p[c] if observed else 1.0 - p[c]
                mass += w
                mean_sum += w * shift(*c)
            return mass, mean_sum / mass

        def gap(level_of, level) -> float:
            _, obs = group(level_of, level, True)
            _, miss = group(level_of, level, False)
            return obs - miss

        def numer(level_of) -> float:
            _, hi = group(level_of, 1, True)
            _, lo = group(level_of, 0, True)
            return hi - lo

        def q(level_of, level) -> float:
            mass, _ = group(level_of, level, True)
            return 1.0 - mass / 4.0  # four equal-weight cells per level

        def a1_of(c):
            return c[1]

        def a2_of(c):
            return c[2]
        obs_mass = sum(p[c] for c in cells)
        marg_obs = sum(p[c] * shift(*c) for c in cells) / obs_mass
        marg_miss = sum((1 - p[c]) * shift(*c) for c in cells) / (8.0 - obs_mass)
        gamma = marg_obs - marg_miss
        composite = (q(a2_of, 1) - q(a2_of, 0)) - (q(a1_of, 1) - q(a1_of, 0))
        mean_v_gap = h[0] + (h[1] + h[2]) / 2.0 + h[3] / 4.0
        return [
            gap(a1_of, 0) - gap(a1_of, 1),
            gap(a2_of, 0) - gap(a2_of, 1),
            (numer(a1_of) - numer(a2_of)) + gamma * composite,
            mean_v_gap - 0.30,
        ]

    h = (0.3422596636831731, -0.056882853652676924, -0.07934081250884106, 0.1034086775903435)
    _check_solution(max(abs(r) for r in equations(h)), "paired-instrument cells")
    probs = [_multi_iv_response(h, *c) for c in cells]
    if min(probs) <= 0.01 or max(probs) >= 0.99:
        raise RuntimeError("paired-instrument solve left the probability simplex")
    return h


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _aggregate_joint(
    p_treated: float, cells: Sequence[Cell]
) -> tuple[tuple[float, float, float, float], tuple[float, float, float, float]]:
    joint = []
    for arm, p_arm in ((0, 1.0 - p_treated), (1, p_treated)):
        joint.append(
            tuple(
                p_arm * sum(c.share[arm] * c.strata[arm][s] for c in cells) for s in range(4)
            )
        )
    return (joint[0], joint[1])


def _require(condition: bool, kind: str, message: str) -> None:
    if not condition:
        raise RuntimeError(f"preset {kind!r} failed its construction check: {message}")


def _preset_zero_bias(n: int, seed: int) -> DgpSpec:
    cells = []
    for a in (0, 1):
        p = 0.55 + 0.25 * a
        pair = _couple(p, p)
        cells.append(
            Cell(
                label=f"aux={a}",
                share=(0.5, 0.5),
                strata=(pair, pair),
                aux_pattern=(a,),
            )
        )
    return DgpSpec(
        n=n,
        seed=seed,
        joint_sd=_aggregate_joint(0.5, cells),
        trend=(0.4,) * 4,
        baseline=((5.0, 5.0),) * 4,
        effect=(1.0,) * 4,
        noise_sd=0.25,
        r1_model=R1Model("mcar", 0.85),
        aux_models=(AuxModel("pattern"),),
        covariate_model=tuple(cells),
    )


def _verify_zero_bias(spec: DgpSpec) -> None:
    kind = "zero-bias"
    att, _, cc = spec._population
    _, iv = _iv_single(_expected_counts(spec, (0,)))
    _require(abs(cc - att) < 1e-12, kind, "complete-case bias is not zero")
    _require(abs(att - 1.0) < 1e-12, kind, "ATT is not 1.0")
    _require(min(map(abs, iv.denom)) >= 0.15, kind, f"instrument relevance {iv.denom} below 0.15")
    _require(max(map(abs, iv.bias_correction)) < 1e-12, kind, "correction is not null")


def _preset_homogeneous_bias(n: int, seed: int) -> DgpSpec:
    p01, p11, b = _solve_homogeneous_cells()
    treated_response = {(0, 0): 0.15, (1, 0): 0.75, (0, 1): p01, (1, 1): p11}
    cells = []
    for v in (0, 1):
        for a in (0, 1):
            pair = _couple(treated_response[(v, a)], 0.55 + 0.25 * a)
            cells.append(
                Cell(
                    label=f"v={v},aux={a}",
                    share=(0.25, 0.25),
                    strata=(pair, pair),
                    trend_shift=(b * v, b * v),
                    aux_pattern=(a,),
                )
            )
    return DgpSpec(
        n=n,
        seed=seed,
        joint_sd=_aggregate_joint(0.5, cells),
        trend=(0.4,) * 4,
        baseline=((5.0, 5.0),) * 4,
        effect=(1.0,) * 4,
        noise_sd=0.25,
        r1_model=R1Model("mcar", 0.85),
        aux_models=(AuxModel("pattern"),),
        covariate_model=tuple(cells),
    )


def _verify_homogeneous_bias(spec: DgpSpec) -> None:
    kind = "homogeneous-bias"
    att, _, cc = spec._population
    est, iv = _iv_single(_expected_counts(spec, (0,)))
    _require(abs(cc - att - 0.25) < 1e-9, kind, "planted complete-case bias is not 0.25")
    _require(abs(att - 1.0) < 1e-12, kind, "ATT is not 1.0")
    _require(min(map(abs, iv.denom)) >= 0.15, kind, f"instrument relevance {iv.denom} below 0.15")
    _require(abs(iv.bias_correction[0]) < 1e-12, kind, "control arm should need no correction")
    _require(
        abs(est.point - att) < 0.05, kind, "population instrument estimate strays from the ATT"
    )


def _preset_multi_iv(n: int, seed: int) -> DgpSpec:
    h = _solve_multi_instrument()
    cells = []
    for v in (0, 1):
        for a1 in (0, 1):
            for a2 in (0, 1):
                p_treated = _multi_iv_response(h, v, a1, a2)
                p_control = 0.60 + 0.15 * a1 - 0.10 * a2
                cells.append(
                    Cell(
                        label=f"v={v},aux=({a1},{a2})",
                        share=(0.125, 0.125),
                        strata=(_couple(p_treated, p_control),) * 2,
                        # treated-arm trends move with V and both indicators;
                        # the control arm stays at their mean, so the
                        # arm-level trend is common while each indicator's
                        # exclusion restriction fails.
                        trend_shift=(0.8, 1.0 * v + 0.3 * (a1 + a2)),
                        aux_pattern=(a1, a2),
                    )
                )
    return DgpSpec(
        n=n,
        seed=seed,
        joint_sd=_aggregate_joint(0.5, cells),
        trend=(0.4,) * 4,
        baseline=((5.0, 5.0),) * 4,
        effect=(1.0,) * 4,
        noise_sd=0.25,
        r1_model=R1Model("mcar", 0.85),
        aux_models=(AuxModel("pattern"), AuxModel("pattern")),
        covariate_model=tuple(cells),
    )


def _verify_multi_iv(spec: DgpSpec) -> None:
    kind = "multi-iv"
    att, _, _ = spec._population
    _require(abs(att - 1.0) < 1e-12, kind, "ATT is not 1.0")
    one, _ = _iv_single(_expected_counts(spec, (0,)))
    pair, _ = _iv_pair(_expected_counts(spec, (0, 1)))
    _require(
        abs(pair.point - att) < 1e-9, kind, "paired-instrument estimator is not exact in population"
    )
    _require(
        abs(one.point - att) > 0.15, kind, "single-instrument estimator should be visibly biased"
    )
    # arm-level trends agree across arms even though each indicator shifts
    # them (the per-stratum trend is flat, so the cell layer is all that moves)
    trend_means = [
        sum(cell.share[d] * (spec.trend[_AR] + cell.trend_shift[d]) for cell in spec.covariate_model)
        for d in (0, 1)
    ]
    _require(
        abs(trend_means[0] - trend_means[1]) < 1e-12,
        kind,
        "arm-level trends are not common",
    )


def _preset_pi(n: int, seed: int) -> DgpSpec:
    # Responding shares: treated arm 0.85 / 0.60, control arm 0.80 / 0.10
    # across the two covariate cells; the planted complete-case bias is the
    # respondent-composition contrast times the cell trend difference.
    share_x1_treated_cc = 0.60 / (0.85 + 0.60)
    share_x1_control_cc = 0.10 / (0.80 + 0.10)
    delta = 0.2 / (share_x1_treated_cc - share_x1_control_cc)
    cells = (
        Cell(
            label="x=0",
            share=(0.5, 0.5),
            strata=((0.80, 0.05, 0.0, 0.15), (0.80, 0.05, 0.0, 0.15)),
            x_label=0,
        ),
        Cell(
            label="x=1",
            share=(0.5, 0.5),
            strata=((0.10, 0.10, 0.0, 0.80), (0.10, 0.50, 0.0, 0.40)),
            trend_shift=(delta, delta),
            x_label=1,
        ),
    )
    return DgpSpec(
        n=n,
        seed=seed,
        joint_sd=_aggregate_joint(0.5, cells),
        trend=(0.2,) * 4,
        baseline=((5.0, 5.0),) * 4,
        effect=(1.0,) * 4,
        noise_sd=0.25,
        r1_model=R1Model("always-observed"),
        aux_models=(AuxModel("independent", 0.5),),
        covariate_model=cells,
    )


def _verify_pi(spec: DgpSpec) -> None:
    kind = "pi"
    att, _, cc = spec._population
    _require(abs(att - 1.0) < 1e-12, kind, "ATT is not 1.0")
    _require(abs(cc - att - 0.2) < 1e-9, kind, "planted complete-case bias is not 0.2")
    for cell in spec.covariate_model:
        _require(
            cell.strata[0][_ICR] == 0.0 and cell.strata[1][_ICR] == 0.0,
            kind,
            "response must be monotone",
        )
        _require(
            cell.strata[0][_AR] == cell.strata[1][_AR],
            kind,
            "control-response share must match across arms within cells",
        )
        _require(
            cell.share[0] == cell.share[1],
            kind,
            "covariate distribution must be balanced across arms",
        )
    # the stratum-weighted estimator is exact in population: within each
    # cell the treated/control change contrast is the constant effect
    _require(
        all(c.effect_shift == 0.0 for c in spec.covariate_model)
        and len(set(spec.effect)) == 1,
        kind,
        "effects must be constant for the population-exactness argument",
    )


def _preset_mnar_baseline(n: int, seed: int) -> DgpSpec:
    pi_treated = (0.50, 0.20, 0.10, 0.20)
    pi_control = (0.60, 0.10, 0.15, 0.15)
    return DgpSpec(
        n=n,
        seed=seed,
        joint_sd=(
            tuple(0.5 * p for p in pi_control),
            tuple(0.5 * p for p in pi_treated),
        ),
        trend=(0.5, 1.0, 0.2, 0.8),
        baseline=((5.0, 5.0), (4.0, 4.0), (4.5, 4.5), (3.0, 3.0)),
        effect=(1.0, 1.5, 0.5, 0.8),
        noise_sd=0.5,
        r1_model=R1Model("always-observed"),
        aux_models=(AuxModel("independent", 0.5),),
    )


def _verify_mnar_baseline(spec: DgpSpec) -> None:
    kind = "mnar-baseline"
    att, _, cc = spec._population
    _require(abs(att - 1.01) < 1e-12, kind, "ATT is not 1.01")
    _require(abs(cc - att - 47.0 / 140.0) < 1e-12, kind, "complete-case bias moved")


def _preset_monotone(n: int, seed: int) -> DgpSpec:
    pi_treated = (0.7, 0.2, 0.0, 0.1)
    pi_control = (0.7, 0.1, 0.0, 0.2)
    return DgpSpec(
        n=n,
        seed=seed,
        joint_sd=(
            tuple(0.5 * p for p in pi_control),
            tuple(0.5 * p for p in pi_treated),
        ),
        trend=(0.3, 0.9, 0.0, 0.6),
        baseline=((5.0, 5.0), (4.2, 4.2), (0.0, 0.0), (3.5, 3.5)),
        effect=(1.0, 1.6, 0.0, 0.4),
        noise_sd=0.5,
        r1_model=R1Model("mcar", 0.9),
        aux_models=(AuxModel("independent", 0.5),),
    )


def _verify_monotone(spec: DgpSpec) -> None:
    kind = "monotone"
    _, att_ar, _ = spec._population
    _require(spec.pi(0)[_ICR] == 0.0 and spec.pi(1)[_ICR] == 0.0, kind, "if-control mass present")
    _require(abs(att_ar - 1.0) < 1e-12, kind, "always-respondent ATT is not 1.0")
    _require(
        len(set(spec.effect[:2] + spec.effect[3:])) > 1,
        kind,
        "stratum effects should be heterogeneous",
    )


def _preset_no_monotone(n: int, seed: int) -> DgpSpec:
    pi_treated = (0.55, 0.15, 0.10, 0.20)
    pi_control = (0.50, 0.20, 0.15, 0.15)
    return DgpSpec(
        n=n,
        seed=seed,
        joint_sd=(
            tuple(0.5 * p for p in pi_control),
            tuple(0.5 * p for p in pi_treated),
        ),
        trend=(0.4, 1.0, 0.1, 0.7),
        baseline=((5.0, 5.0), (4.0, 4.0), (4.5, 4.5), (3.0, 3.0)),
        effect=(1.0, 1.4, 0.6, 0.8),
        noise_sd=0.5,
        r1_model=R1Model("always-observed"),
        aux_models=(AuxModel("independent", 0.5),),
    )


def _verify_no_monotone(spec: DgpSpec) -> None:
    kind = "no-monotone"
    _, att_ar, _ = spec._population
    _require(abs(att_ar - 1.0) < 1e-12, kind, "always-respondent ATT is not 1.0")
    pi = {d: spec.pi(d) for d in (0, 1)}
    _require(min(min(pi[0]), min(pi[1])) > 0.0, kind, "all four strata must be populated")
    # identities the interval construction relies on: the control-response
    # margin and the treatment-on-response effect match across arms
    control_resp = {d: pi[d][_AR] + pi[d][_ICR] for d in (0, 1)}
    treated_resp = {d: pi[d][_AR] + pi[d][_ITR] for d in (0, 1)}
    _require(
        abs(control_resp[0] - control_resp[1]) < 1e-12,
        kind,
        "control-response margins differ across arms",
    )
    _require(
        abs(
            (treated_resp[1] - control_resp[1]) - (treated_resp[0] - control_resp[0])
        ) < 1e-12,
        kind,
        "treatment effect on response differs across arms",
    )
    # the true always-respondent share sits inside the population interval
    # with room to spare for sampling noise
    for d in (0, 1):
        own, counter = treated_resp[d], control_resp[d]
        if not d:  # the control arm observes its R2(0) margin
            own, counter = counter, own
        ar = _frechet_cells(observed=own, counterfactual=counter, arm=d)[(1, 1)]
        _require(
            ar.lo + 0.05 <= pi[d][_AR] <= ar.hi - 0.05,
            kind,
            f"true always-respondent share is not interior in arm {d}",
        )


_PRESETS = {
    "zero-bias": (_preset_zero_bias, _verify_zero_bias),
    "homogeneous-bias": (_preset_homogeneous_bias, _verify_homogeneous_bias),
    "multi-iv": (_preset_multi_iv, _verify_multi_iv),
    "pi": (_preset_pi, _verify_pi),
    "mnar-baseline": (_preset_mnar_baseline, _verify_mnar_baseline),
    "monotone": (_preset_monotone, _verify_monotone),
    "no-monotone": (_preset_no_monotone, _verify_no_monotone),
}

PRESET_KINDS = tuple(_PRESETS)


def make_preset(kind: str, n: int = 10_000, seed: int = 0) -> DgpSpec:
    """Build one of the documented generating processes.

    Every preset's claimed properties are re-verified analytically on
    construction (planted biases, instrument relevance and exactness,
    monotonicity, interval margins); a failure raises ``RuntimeError``
    because it indicates an internal inconsistency, not bad input.

    Parameters
    ----------
    kind : str
        One of :data:`PRESET_KINDS`:

        ``"zero-bias"``
            Instrument-driven response unrelated to outcome changes; the
            complete-case estimate is already unbiased and the instrument
            correction is null.  ATT 1.0.
        ``"homogeneous-bias"``
            A latent trend shifter drives treated-arm response; the
            respondent/nonrespondent gap is constant across instrument
            groups (solved numerically), response rates differ by 0.25,
            planted complete-case bias 0.25.  ATT 1.0.
        ``"multi-iv"``
            Two auxiliary indicators shift trends directly (each one's
            exclusion restriction fails by 0.3) yet satisfy the paired
            conditions: the paired-difference correction is exact in
            population while the single-instrument estimate is off by more
            than 0.15.  ATT 1.0.
        ``"pi"``
            An exported binary covariate drives both trends and strata;
            response status is unrelated to changes within covariate
            cells.  Planted complete-case bias 0.2.  ATT 1.0.
        ``"mnar-baseline"``
            Stratum composition differs across arms with heterogeneous
            trends and effects; complete-case bias 47/140.  ATT 1.01.
        ``"monotone"``
            No if-control respondents; heterogeneous effects with
            always-respondent ATT 1.0; first wave missing completely at
            random at rate 0.1.
        ``"no-monotone"``
            All four strata populated, with the cross-arm response
            identities the interval construction needs; true
            always-respondent shares are interior to the population
            intervals.  Always-respondent ATT 1.0.

    n, seed : int
        Sample size and random seed stored in the returned DgpSpec.

    Returns
    -------
    DgpSpec
    """
    if kind not in _PRESETS:
        known = ", ".join(PRESET_KINDS)
        raise InputError(f"unknown preset {kind!r}; expected one of: {known}")
    builder, verifier = _PRESETS[kind]
    spec = builder(n, seed)
    verifier(spec)
    return spec

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

The outcome model a spec spells out is stated once, as one table of
(cell, arm, stratum) groups: each group's mass ``Pr(cell, S | D)``, its
first-period mean, its untreated trend and its effect.  The draw gathers
each unit's terms from that table, and the expected counts, the population
truths and :func:`strip_missingness` are read from it too.

:func:`make_preset` returns ready-made generating processes whose documented
properties (planted complete-case bias, instrument validity, bound coverage
margins, …) are re-verified analytically every time they are built.

Population truths come from the estimators themselves: the design's
expected group counts (``Pr(covariate cell, R2, auxiliary levels | D)`` and
the matching ``E[Y2 - Y1]`` mass, in the layout of
:class:`~didmiss.panel.GroupCounts`) are fed to the same count formulas that
estimate from data, so the population complete-case DID and the preset
checks of the instrument corrections, the stratum-weighted estimator and the
bounds' response margins run the code users run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cache, cached_property
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence, Union

import numpy as np

from .common import (
    PRESET_KINDS,
    STRATUM_LABELS,
    STRATUM_PAIRS,
    ClipEvent,
    check_seed,
    finite,
    is_integer,
    left_sum,
)
from .errors import EstimatorError, InputError
from .panel import (
    ColumnMapping,
    GroupCounts,
    PanelDataset,
    _panel_fields,
    _panel_values,
    _rate_table,
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

#: Each stratum label's code: its index in :data:`STRATUM_LABELS`.
_STRATUM_CODE = {label: code for code, label in enumerate(STRATUM_LABELS)}

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
            if abs(left_sum(row) - 1.0) > 1e-9:
                raise InputError(
                    f"cell {self.label!r}: strata probabilities for arm {arm} sum to "
                    f"{left_sum(row)!r}, expected 1"
                )


def _per_cell(cells: Sequence[Cell], name: str) -> np.ndarray:
    """Field ``name`` of each cell, stacked along a first axis, as float64."""
    return np.array([getattr(c, name) for c in cells], dtype=np.float64)


def _masses(cells: Sequence[Cell]) -> np.ndarray:
    """``Pr(cell, S = s | D = d)``, indexed ``[cell, d, s]``: each cell's arm
    share times its stratum probability."""
    return _per_cell(cells, "share")[..., None] * _per_cell(cells, "strata")


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

    The outcome model these fields spell out is stated once, as one table
    of (cell, arm, stratum) groups (``_groups``): each group's mass, its
    first-period mean, its untreated trend and its effect.  The draw, the
    expected counts, the population truths and :func:`strip_missingness`
    all read that table.
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
        if self.n > np.iinfo(np.intp).max:  # no array holds more
            raise InputError(f"sample size must be at most {np.iinfo(np.intp).max}, got {self.n!r}")
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
        if abs(left_sum(flat) - 1.0) > 1e-9:
            raise InputError(f"joint_sd sums to {left_sum(flat)!r}, expected 1")
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
        self._check_outcome_range()

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
            total = left_sum(c.share[arm] for c in cells)
            if abs(total - 1.0) > 1e-9:
                raise InputError(f"cell shares for arm {arm} sum to {total!r}, expected 1")
        for c in cells:
            got = 0 if c.aux_pattern is None else len(c.aux_pattern)
            if got != n_pattern:
                raise InputError(
                    f"cell {c.label!r} carries {got} pattern values for "
                    f"{n_pattern} pattern auxiliary models"
                )
        joint = _aggregate_joint((self.arm_share(0), self.arm_share(1)), cells)
        for arm in (0, 1):
            for s, implied in enumerate(joint[arm]):
                if abs(implied - self.joint_sd[arm][s]) > 1e-9:
                    raise InputError(
                        "joint_sd is inconsistent with the cell layer: "
                        f"Pr(S={STRATUM_LABELS[s]}, D={arm}) aggregates to {implied!r} "
                        f"but joint_sd says {self.joint_sd[arm][s]!r}"
                    )

    def _check_outcome_range(self) -> None:
        """Refuse a (cell, arm, stratum) group whose outcomes could overflow.

        A group's outcomes stay within ``|base| + |trend| + |effect|`` plus
        two periods' noise of at most 20 standard deviations each (a normal
        draw past 20 has probability below 1e-88), and a unit's effect within
        twice that.  The bound may take up at most a ``1 / 2n`` share of the
        largest float, so every outcome, every effect and the sample truths'
        sums over ``n`` units are finite; an infinite group term fails too.
        """
        with np.errstate(over="ignore"):  # an infinite term is refused below
            _, base, trend, effect = self._groups
            size = abs(base) + abs(trend) + abs(effect) + 40 * self.noise_sd
        limit = sys.float_info.max / (2 * min(self.n, sys.maxsize))  # no draw is longer
        if not size.max() <= limit:  # NaN compares false
            c, d, s = np.argwhere(~(size <= limit))[0].tolist()
            raise InputError(
                f"outcomes of cell {self.cells()[c].label!r}, arm {d}, stratum {STRATUM_LABELS[s]} "
                f"may overflow: |baseline| + |trend| + |effect| + 40 noise_sd is "
                f"{float(size[c, d, s])!r}, above the largest float over 2n ({limit!r})"
            )

    # -- derived views ----------------------------------------------------

    def arm_share(self, d: int) -> float:
        """``Pr(D = d)``."""
        return left_sum(self.joint_sd[d])

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
    def _groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The outcome model: four read-only float64 tables indexed ``[cell,
        arm, stratum]``.

        They hold each group's mass ``Pr(cell, S | D)``, its first-period
        mean, its untreated trend (with ``arm_trend_delta`` in the treated
        arm) and its effect.  Each entry adds its spec terms in the order
        the per-unit outcome expressions add them, so every draw and every
        truth read from it keeps its bits.
        """
        cells = self.cells()
        base = np.array(self.baseline, float).T + _per_cell(cells, "baseline_shift")[..., None]
        trend = np.array(self.trend, float) + _per_cell(cells, "trend_shift")[..., None]
        trend[:, 1] += self.arm_trend_delta
        effect = np.array(self.effect, float) + _per_cell(cells, "effect_shift")[:, None, None]
        groups = _masses(cells), base, trend, np.broadcast_to(effect, base.shape)
        for table in groups:
            table.setflags(write=False)
        return groups

    @cached_property
    def _population(self) -> tuple[float, float, float]:
        """Population ATT, always-respondent ATT and complete-case DID.

        Evaluated once per spec, for the preset check and the oracle truth.
        The complete-case DID is NaN when an arm has no second-wave respondents.
        """
        from .estimators import _complete_case

        mass, _, _, effect = self._groups
        terms = mass[:, 1] * effect[:, 1]  # each treated (cell, stratum) group's share of the ATT
        att = left_sum(terms.ravel().tolist())
        ar_num, ar_den = left_sum(terms[:, _AR].tolist()), left_sum(mass[:, 1, _AR].tolist())
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

    The observable fields (``y1``, ``y2``) are the unit's row of the
    observable panel, with None for a missing outcome; ``y1_true`` keeps the
    first-period outcome even when survey response hides it.  The stratum
    ``s`` fixes both potential responses, so the unit's arm decides whether
    ``y2`` shows.  The arm must be the integer 0 or 1, and consistency
    between the observable and the latent fields is asserted on construction.
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

    def __post_init__(self) -> None:
        if not (is_integer(self.d) and self.d in (0, 1)):
            raise ValueError(f"treatment {self.d!r} of unit {self.unit_id!r} is not 0 or 1")
        if self.s not in _STRATUM_CODE:
            raise ValueError(f"unknown stratum label {self.s!r}")
        r2_1, r2_0 = STRATUM_PAIRS[_STRATUM_CODE[self.s]]
        r2, y2 = (r2_1, self.y2_1) if self.d == 1 else (r2_0, self.y2_0)
        if self.y2 != (y2 if r2 else None):
            raise ValueError("observed y2 does not equal the selected potential outcome")
        if self.y1 is not None and self.y1 != self.y1_true:
            raise ValueError("observed y1 does not equal the latent first-period outcome")


class OraclePanel(PanelDataset):
    """Observable panel of one simulated draw plus its latent columns.

    The panel fields (``d``, ``y1``, ``y2``, ``r1``, ``r2``, ``aux``, ``x``,
    ``unit_ids``) are those of the :class:`~didmiss.panel.PanelDataset` the
    draw shows; the oracle adds the stratum code ``s`` (an index into
    :data:`STRATUM_LABELS`), the unmasked first-period outcome ``y1_true``
    and both potential second-period outcomes ``y2_1`` and ``y2_0``; the
    potential responses are ``STRATUM_PAIRS[s]``.  The arrays are taken as
    given, unchecked; ``unit_ids`` (a tuple, or the ``table.TextColumn``
    that :func:`load_oracle` passes) is stored as given and read as a tuple
    of strings, built on first access.  ``records`` builds a row-wise tuple
    of :class:`OracleRecord` on first access.
    """

    __slots__ = ("s", "y1_true", "y2_1", "y2_0", "_records", "_summary")

    def __init__(
        self,
        d: np.ndarray,
        y1: np.ndarray,
        y2: np.ndarray,
        aux: np.ndarray | None,
        x: np.ndarray | None,
        s: np.ndarray,
        y1_true: np.ndarray,
        y2_1: np.ndarray,
        y2_0: np.ndarray,
        unit_ids: Sequence[str] | None = None,
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


def _expected_counts(spec: DgpSpec, aux: Sequence[int] = (), cells: bool = False) -> GroupCounts:
    """The design's expected group counts per unit of each arm.

    ``n[c, d, 1, r2, *levels]`` is ``Pr(cell c, R2 = r2, levels | D = d)``,
    where ``levels`` are the values of the ``"pattern"`` auxiliary columns
    ``aux``; all mass sits at R1 = 1 because first-wave response is
    independent of everything else. With ``cells``, exported covariate cells
    get their own ``c``, keyed ``(x_label,)`` and sorted as
    ``GroupKey(data, cells=True)`` sorts them; otherwise (and for latent
    cells) there is one cell, keyed ``()``. ``s`` holds the matching
    ``E[(Y2 - Y1) 1{...} | D = d]`` on complete cases and ``cc_sum[d]`` its
    arm total, so the estimators' count formulas evaluate to their
    population values.
    """
    slots = [_pattern_index(spec, k) for k in aux]
    labels = [() if not cells or c.x_label is None else (c.x_label,) for c in spec.cells()]
    keys = sorted(set(labels))
    shape = (len(keys), 2, 2, 2) + (2,) * len(aux)
    mass, _, trend, effect = spec._groups
    # each (cell, arm, stratum) group's bin is (key, arm, R1 = 1, R2, levels);
    # bincount adds a bin's groups in (cell, stratum) order, from 0.0
    first = np.array([keys.index(label) for label in labels])[:, None, None]
    levels = np.array([c.aux_pattern or () for c in spec.cells()])[:, slots].T[..., None, None]
    at = np.ravel_multi_index((first, [[0], [1]], 1, ~_MISSING_Y2, *levels), shape).ravel()
    # a complete case's mean change: the trend, plus the effect if treated (x + -0.0 is x)
    change = mass * (trend + np.where([[False], [True]], effect, -0.0))
    sums = np.bincount(at, np.where(_MISSING_Y2, 0.0, change).ravel(), math.prod(shape))
    sums = sums.reshape(shape)
    return GroupCounts(
        n=np.bincount(at, mass.ravel(), math.prod(shape)).reshape(shape),
        s=sums,
        cc_sum=sums[:, :, 1, 1].swapaxes(0, 1).reshape(2, -1).sum(axis=1),
        cells=tuple(keys),
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
    for edge in _per_cell(cells, "share").cumsum(axis=0)[:-1]:
        cell += u_cell >= edge.take(arm)
    group = 2 * cell + arm  # (cell, arm)
    del u_cell, cell, arm

    cum_strata = _per_cell(cells, "strata").cumsum(axis=2)
    u_strat = rng.random(n)
    s = np.zeros(n, dtype=np.int8)
    for edge in cum_strata.reshape(-1, 4).T[:3]:
        s += u_strat >= edge.take(group)
    del u_strat
    code = 4 * group + s  # (cell, arm, stratum)

    eps1 = rng.normal(0.0, spec.noise_sd, n)
    eps2 = rng.normal(0.0, spec.noise_sd, n)

    # each unit's terms, gathered from its (cell, arm, stratum) group
    _, base, trend, effect = spec._groups
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


def _checked(records: OracleInput) -> tuple[OraclePanel, np.ndarray, np.ndarray]:
    """The oracle both identities read, with its arm and stratum codes checked,
    and the two changes it checks finite: every unit's untreated change
    ``y2_0 - y1_true`` and treatment effect ``y2_1 - y2_0``."""
    oracle = records if isinstance(records, OraclePanel) else _from_records(records)
    for name, codes, top in (("treatment", oracle.d, 1), ("stratum code", oracle.s, 3)):
        bad = np.flatnonzero((codes < 0) | (codes > top))
        if bad.size:
            i = int(bad[0])
            raise InputError(
                f"oracle {name} {codes[i]} for unit {oracle._unit_id(i)!r} (row {i + 1}) "
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
            f"{oracle._unit_id(i)!r} (row {i + 1}: y1_true={float(y1[i])!r}, "
            f"y2_1={float(y2_1[i])!r}, y2_0={float(y2_0[i])!r})"
        )
    return oracle, delta0, direct


def _from_records(records: Iterable[OracleRecord]) -> OraclePanel:
    """The oracle of ``records`` as the identities read it: without aux or x."""
    seq = list(records)
    if not seq:
        raise InputError("no oracle records supplied")
    return OraclePanel(
        d=np.array([r.d for r in seq], dtype=np.int8),
        y1=np.array([r.y1 for r in seq], dtype=np.float64),
        y2=np.array([r.y2 for r in seq], dtype=np.float64),
        aux=None,
        x=None,
        s=np.array([_STRATUM_CODE[r.s] for r in seq], dtype=np.int8),
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
    term1 = left_sum(
        share[code] * (effect[code][1] + trend[code][1]) for code in (_AR, _ITR) if share[code] > 0
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

    total = left_sum(terms)
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
            left_sum(n[c][arm] / n_arm[arm] * means[c][arm] for c in range(4) if n[c][arm])
        )

    scale = max(1.0, max(abs(v) for v in direct))
    residual = max(abs(direct[arm] - mixture[arm]) for arm in (0, 1))
    if residual > 1e-9 * scale:
        raise RuntimeError(
            f"stratum-mixture identity violated: residual {residual!r} "
            "exceeds floating-point tolerance"
        )

    var = left_sum(arm_ss[a] / (n_arm[a] - 1) / n_arm[a] for a in (0, 1) if n_arm[a] >= 2)
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
    keeps its trend (in the treated arm with the stratum's
    ``arm_trend_delta``), effect and baseline contributions, and first-wave
    response is forced on.  The generated panel therefore follows the same
    outcome distribution as the original with all missingness removed —
    the reference point for collapse identities.
    """
    mass, base, trend, effect = spec._groups
    # each group's terms beyond its arm's always-respondent terms, which the
    # new cell's one stratum adds back; as Python floats, like any spec field
    terms = (mass, trend - spec.trend[_AR], effect - spec.effect[_AR])
    terms += (base - np.array(spec.baseline[_AR])[:, None],)
    new_cells = [
        Cell(
            label=f"{cell.label}/{label}",
            share=tuple(share),
            strata=((1.0, 0.0, 0.0, 0.0),) * 2,
            trend_shift=tuple(trend_shift),
            effect_shift=effect_shift[0],
            baseline_shift=tuple(baseline_shift),
            x_label=cell.x_label,
            aux_pattern=cell.aux_pattern,
        )
        for cell, *rows in zip(spec.cells(), *(t.swapaxes(1, 2).tolist() for t in terms))
        for label, share, trend_shift, effect_shift, baseline_shift in zip(STRATUM_LABELS, *rows)
        if share[0] > 0.0 or share[1] > 0.0
    ]
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


_STRATUM = labels(_STRATUM_CODE, "unknown stratum label")
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
    if len(d) == 0:
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
# response tables of the instrument presets' cells
# ---------------------------------------------------------------------------


def _independent(p_treated: float, p_control: float) -> tuple[float, float, float, float]:
    """Stratum row of a cell whose two potential responses are drawn
    independently, with ``Pr(R2(1) = 1) = p_treated`` and ``Pr(R2(0) = 1) =
    p_control``.

    Under stratum trends ``tau + g1 R2(1) + g0 R2(0)``, the treated arm's
    respondent/nonrespondent trend gap in such a cell is ``g1`` and the
    control arm's is ``g0``, whatever the response rates.
    """
    return (
        p_treated * p_control,
        p_treated * (1.0 - p_control),
        (1.0 - p_treated) * p_control,
        (1.0 - p_treated) * (1.0 - p_control),
    )


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _aggregate_joint(
    p_arm: tuple[float, float], cells: Sequence[Cell]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``Pr(S = s, D = d)`` implied by the arm shares ``(control, treated)`` and
    the cells: each arm share times its cells' masses, added in cell order."""
    mass = _masses(cells)
    return tuple(tuple(p_arm[d] * left_sum(m) for m in mass[:, d].T.tolist()) for d in (0, 1))


def _design_iv(spec: DgpSpec, aux: Sequence[int]) -> tuple:
    """The instrument correction on the design's expected counts over the
    pattern columns ``aux``: its estimate and diagnostics."""
    from .iv import _iv_counts

    return _iv_counts(_expected_counts(spec, aux))


def _require(condition: bool, kind: str, message: str) -> None:
    if not condition:
        raise RuntimeError(f"preset {kind!r} failed its construction check: {message}")


def _cell_spec(n: int, seed: int, cells: Sequence[Cell], **fields) -> DgpSpec:
    """The cell presets' shared design: each arm half the sample, ``Pr(S, D)``
    aggregated from ``cells``, baseline 5, effect 1 and noise 0.25; ``fields``
    are the remaining ``DgpSpec`` fields."""
    return DgpSpec(
        n=n,
        seed=seed,
        joint_sd=_aggregate_joint((0.5, 0.5), cells),
        baseline=((5.0, 5.0),) * 4,
        effect=(1.0,) * 4,
        noise_sd=0.25,
        covariate_model=tuple(cells),
        **fields,
    )


def _instrument_spec(
    n: int, seed: int, cells: Sequence[Cell], g1: float = 0.0, g0: float = 0.0
) -> DgpSpec:
    """The instrument presets' shared design: stratum trends ``0.4 + g1 R2(1)
    + g0 R2(0)`` and one pattern column per ``aux_pattern`` entry."""
    return _cell_spec(
        n, seed, cells,
        trend=tuple(0.4 + g1 * r2_1 + g0 * r2_0 for r2_1, r2_0 in STRATUM_PAIRS),
        r1_model=R1Model("mcar", 0.85),
        aux_models=(AuxModel("pattern"),) * len(cells[0].aux_pattern),
    )


def _strata_spec(
    n: int, seed: int, pi_treated: Sequence[float], pi_control: Sequence[float], **fields
) -> DgpSpec:
    """The bounds presets' shared design: no cell layer, each arm half the
    sample with its ``Pr(S | D)`` row, noise 0.5 and one independent
    auxiliary column; ``fields`` are the remaining ``DgpSpec`` fields."""
    return DgpSpec(
        n=n,
        seed=seed,
        joint_sd=(
            tuple(0.5 * p for p in pi_control),
            tuple(0.5 * p for p in pi_treated),
        ),
        noise_sd=0.5,
        aux_models=(AuxModel("independent", 0.5),),
        **fields,
    )


def _preset_zero_bias(n: int, seed: int) -> DgpSpec:
    cells = []
    for a in (0, 1):
        p = 0.55 + 0.25 * a
        pair = (p, 0.0, 0.0, 1.0 - p)  # both potential responses equal: no ITR or ICR mass
        cells.append(
            Cell(
                label=f"aux={a}",
                share=(0.5, 0.5),
                strata=(pair, pair),
                aux_pattern=(a,),
            )
        )
    return _instrument_spec(n, seed, cells)


def _verify_zero_bias(spec: DgpSpec) -> None:
    kind = "zero-bias"
    att, _, cc = spec._population
    _, iv = _design_iv(spec, (0,))
    _require(abs(cc - att) < 1e-12, kind, "complete-case bias is not zero")
    _require(abs(att - 1.0) < 1e-12, kind, "ATT is not 1.0")
    _require(min(map(abs, iv.denom)) >= 0.15, kind, f"instrument relevance {iv.denom} below 0.15")
    _require(max(map(abs, iv.bias_correction)) < 1e-12, kind, "correction is not null")


def _preset_homogeneous_bias(n: int, seed: int) -> DgpSpec:
    p_treated, p_control = (0.5, 0.8), (0.6, 0.8)
    # g0 = -g1 * ratio keeps each level's mean trend g1 p_treated + g0 p_control
    # equal; the complete-case bias is g1 times the bracket below, set to 0.25
    ratio = (p_treated[1] - p_treated[0]) / (p_control[1] - p_control[0])
    both = p_treated[0] * p_control[0] + p_treated[1] * p_control[1]
    g1 = 0.25 / (1.0 - both / left_sum(p_control) + ratio * (1.0 - both / left_sum(p_treated)))
    cells = [
        Cell(
            label=f"aux={a}",
            share=(0.5, 0.5),
            strata=(_independent(p_treated[a], p_control[a]),) * 2,
            aux_pattern=(a,),
        )
        for a in (0, 1)
    ]
    return _instrument_spec(n, seed, cells, g1, -g1 * ratio)


def _verify_homogeneous_bias(spec: DgpSpec) -> None:
    kind = "homogeneous-bias"
    att, _, cc = spec._population
    est, iv = _design_iv(spec, (0,))
    _require(abs(cc - att - 0.25) < 1e-9, kind, "planted complete-case bias is not 0.25")
    _require(abs(att - 1.0) < 1e-12, kind, "ATT is not 1.0")
    _require(min(map(abs, iv.denom)) >= 0.15, kind, f"instrument relevance {iv.denom} below 0.15")
    _require(abs(est.point - att) < 1e-9, kind, "instrument estimator is not exact in population")


def _multi_iv_spec(n: int, seed: int, g0: float) -> DgpSpec:
    """The paired-instrument design at control-arm gap ``g0``: each indicator
    moves response and shifts every trend directly by 0.3."""
    cells = []
    for a1 in (0, 1):
        for a2 in (0, 1):
            shift = 0.3 * (a1 + a2)
            p_treated, p_control = 0.3 + 0.15 * a1 + 0.4 * a2, 0.4 + 0.05 * a1 + 0.35 * a2
            cells.append(
                Cell(
                    label=f"aux=({a1},{a2})",
                    share=(0.25, 0.25),
                    strata=(_independent(p_treated, p_control),) * 2,
                    trend_shift=(shift, shift),
                    aux_pattern=(a1, a2),
                )
            )
    return _instrument_spec(n, seed, cells, 0.5, g0)


@cache
def _multi_iv_gap() -> float:
    """The control-arm gap at which the pair equals the ATT of 1.0: its
    population value is affine in the gap, so two evaluations fix the root."""
    at = [_design_iv(_multi_iv_spec(1, 0, g0), (0, 1))[0].point for g0 in (0.0, 1.0)]
    return (1.0 - at[0]) / (at[1] - at[0])


def _preset_multi_iv(n: int, seed: int) -> DgpSpec:
    return _multi_iv_spec(n, seed, _multi_iv_gap())


def _verify_multi_iv(spec: DgpSpec) -> None:
    kind = "multi-iv"
    att, _, _ = spec._population
    _require(abs(att - 1.0) < 1e-12, kind, "ATT is not 1.0")
    one, _ = _design_iv(spec, (0,))
    pair, _ = _design_iv(spec, (0, 1))
    _require(
        abs(pair.point - att) < 1e-9, kind, "paired-instrument estimator is not exact in population"
    )
    _require(
        abs(one.point - att) > 0.15, kind, "single-instrument estimator should be visibly biased"
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
    return _cell_spec(
        n, seed, cells,
        trend=(0.2,) * 4,
        r1_model=R1Model("always-observed"),
        aux_models=(AuxModel("independent", 0.5),),
    )


def _verify_pi(spec: DgpSpec) -> None:
    from .principal import _pi_point

    kind = "pi"
    att, _, cc = spec._population
    _require(abs(att - 1.0) < 1e-12, kind, "ATT is not 1.0")
    _require(abs(cc - att - 0.2) < 1e-9, kind, "planted complete-case bias is not 0.2")
    c = _expected_counts(spec, cells=True)
    point, _, _ = _pi_point(c.cells, c.n, c.s)
    _require(abs(point - att) < 1e-9, kind, "stratum-weighted estimator is not exact in population")


def _preset_mnar_baseline(n: int, seed: int) -> DgpSpec:
    return _strata_spec(
        n,
        seed,
        pi_treated=(0.50, 0.20, 0.10, 0.20),
        pi_control=(0.60, 0.10, 0.15, 0.15),
        trend=(0.5, 1.0, 0.2, 0.8),
        baseline=((5.0, 5.0), (4.0, 4.0), (4.5, 4.5), (3.0, 3.0)),
        effect=(1.0, 1.5, 0.5, 0.8),
        r1_model=R1Model("always-observed"),
    )


def _verify_mnar_baseline(spec: DgpSpec) -> None:
    kind = "mnar-baseline"
    att, _, cc = spec._population
    _require(abs(att - 1.01) < 1e-12, kind, "ATT is not 1.01")
    _require(abs(cc - att - 47.0 / 140.0) < 1e-12, kind, "complete-case bias moved")


def _preset_monotone(n: int, seed: int) -> DgpSpec:
    return _strata_spec(
        n,
        seed,
        pi_treated=(0.7, 0.2, 0.0, 0.1),
        pi_control=(0.7, 0.1, 0.0, 0.2),
        trend=(0.3, 0.9, 0.0, 0.6),
        baseline=((5.0, 5.0), (4.2, 4.2), (0.0, 0.0), (3.5, 3.5)),
        effect=(1.0, 1.6, 0.0, 0.4),
        r1_model=R1Model("mcar", 0.9),
    )


def _verify_monotone(spec: DgpSpec) -> None:
    from .bounds import strata_proportions_monotone

    kind = "monotone"
    _, att_ar, _ = spec._population
    # the monotone formulas identify every stratum share from the design's
    # response rates, as they do under monotonicity and parallel trends of
    # missingness
    shares = strata_proportions_monotone(_rate_table(_expected_counts(spec).arms))
    _require(not shares.clip_events, kind, "a monotone stratum share was clipped")
    for d in (0, 1):
        for label, stratum, share in zip(STRATUM_LABELS, STRATUM_PAIRS, spec.pi(d)):
            _require(
                shares.pi[d][stratum].contains(share, slack=1e-12),
                kind,
                f"monotone shares miss the true {label} share of arm {d}",
            )
    _require(abs(att_ar - 1.0) < 1e-12, kind, "always-respondent ATT is not 1.0")
    _require(
        len(set(spec.effect[:2] + spec.effect[3:])) > 1,
        kind,
        "stratum effects should be heterogeneous",
    )


def _preset_no_monotone(n: int, seed: int) -> DgpSpec:
    return _strata_spec(
        n,
        seed,
        pi_treated=(0.55, 0.15, 0.10, 0.20),
        pi_control=(0.50, 0.20, 0.15, 0.15),
        trend=(0.4, 1.0, 0.1, 0.7),
        baseline=((5.0, 5.0), (4.0, 4.0), (4.5, 4.5), (3.0, 3.0)),
        effect=(1.0, 1.4, 0.6, 0.8),
        r1_model=R1Model("always-observed"),
    )


def _verify_no_monotone(spec: DgpSpec) -> None:
    from .bounds import _counterfactual_rates, _frechet_cells

    kind = "no-monotone"
    _, att_ar, _ = spec._population
    _require(abs(att_ar - 1.0) < 1e-12, kind, "always-respondent ATT is not 1.0")
    pi = {d: spec.pi(d) for d in (0, 1)}
    _require(min(min(pi[0]), min(pi[1])) > 0.0, kind, "all four strata must be populated")
    # att_ar_bounds' interval construction on the design's response rates
    rates = _rate_table(_expected_counts(spec).arms)
    events: list[ClipEvent] = []
    a1, a0 = _counterfactual_rates(rates.p_r1, rates.p_r2, events)
    _require(not events, kind, "a counterfactual response rate was clipped")
    for d, margin in ((0, a0), (1, a1)):
        # arm d's counterfactual response R2(1 - d) is 1 for always-respondents
        # and for the if-treated (control arm) or if-control (treated arm) stratum
        true = pi[d][_AR] + pi[d][_ITR if d == 0 else _ICR]
        _require(abs(margin - true) < 1e-12, kind, f"counterfactual margin of arm {d} is wrong")
        # the true always-respondent share sits inside the population
        # interval with room to spare for sampling noise
        ar = _frechet_cells(rates.p_r2[d], margin, arm=d)[(1, 1)]
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

# the preset names are stated once, in common, for the CLI's choices
assert tuple(_PRESETS) == PRESET_KINDS, (tuple(_PRESETS), PRESET_KINDS)


def make_preset(kind: str, n: int = 10_000, seed: int = 0) -> DgpSpec:
    """Build one of the documented generating processes.

    Every preset's claimed properties are re-verified on construction
    (planted biases, instrument relevance and exactness, the stratum-weighted
    estimator's exactness, the monotone strata shares, interval margins),
    where an estimator can decide them by its own formula on the design's
    expected counts; a failure raises ``RuntimeError`` because it indicates
    an internal inconsistency, not bad input.

    Parameters
    ----------
    kind : str
        One of :data:`PRESET_KINDS`:

        ``"zero-bias"``
            Instrument-driven response unrelated to outcome changes; the
            complete-case estimate is already unbiased and the instrument
            correction is null.  ATT 1.0.
        ``"homogeneous-bias"``
            Each instrument level draws the two potential responses
            independently and the response strata carry additive trends,
            so each arm's respondent/nonrespondent gap is the same at both
            levels (in closed form) and the instrument leaves the trend
            alone; the single-instrument estimator is exact in population,
            planted complete-case bias 0.25.  ATT 1.0.
        ``"multi-iv"``
            The same construction over two auxiliary indicators, each of
            which also shifts every trend directly by 0.3 (so each one's
            exclusion restriction fails): the paired-difference correction
            is exact in population while the single-instrument estimate is
            off by more than 0.15.  ATT 1.0.
        ``"pi"``
            An exported binary covariate drives both trends and strata;
            response status is unrelated to changes within covariate
            cells, so the stratum-weighted estimator is exact in
            population.  Planted complete-case bias 0.2.  ATT 1.0.
        ``"mnar-baseline"``
            Stratum composition differs across arms with heterogeneous
            trends and effects; complete-case bias 47/140.  ATT 1.01.
        ``"monotone"``
            No if-control respondents, so the monotone strata formulas
            recover every true stratum share from the design's response
            rates; heterogeneous effects with always-respondent ATT 1.0;
            first wave missing completely at random at rate 0.1.
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

"""Two-period panel data with missing outcomes: ingestion, validation, rates.

The observable unit record is (D, Y1, Y2, R1, R2, auxiliary response
indicators, discrete covariates), where the response indicators are derived
from outcome presence: R_t = 1 exactly when Y_t is observed. Everything
downstream — complete-case DID, IV corrections, strata proportions, trimming
bounds, principal scores — consumes either this dataset type or the
``RateTable`` of empirical response rates computed from it.

Storage is columnar (one numpy array per field) because the estimators and
the bootstrap are vectorized; CSV files are read and written a column at a
time through ``table``. ``GroupKey`` owns the one encoding the estimators
share: every unit's group over (covariate cell, arm, R1, R2, auxiliary
levels), reduced to per-group counts and Y2 - Y1 sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Sequence

import numpy as np

from .errors import EstimatorError, InputError
from .table import IDS, Parser, binary, counts, floats, read_columns, require_columns, write_table

__all__ = [
    "PanelDataset",
    "RateTable",
    "ColumnMapping",
    "load_panel",
    "save_panel",
    "compute_rates",
]


@dataclass(frozen=True)
class ColumnMapping:
    """Names the CSV columns holding each field.

    aux_indicators are 0/1 columns used directly; aux_variables are auxiliary
    *variable* columns whose response indicator is derived from presence (the
    indicator is 1 exactly when the cell is non-missing). Both may be given;
    indicators come first in the resulting aux vector.
    """

    id: str = "id"
    treatment: str = "d"
    y1: str = "y1"
    y2: str = "y2"
    aux_indicators: tuple[str, ...] = ()
    aux_variables: tuple[str, ...] = ()
    covariates: tuple[str, ...] = ()

    @staticmethod
    def detect(header: Sequence[str]) -> "ColumnMapping":
        """Infer the default mapping: id,d,y1,y2 plus aux1..auxK / w1..wK / x1..xJ."""

        def numbered(prefix: str) -> tuple[str, ...]:
            found: list[tuple[int, str]] = []
            for name in header:
                if name.startswith(prefix) and name[len(prefix) :].isdigit():
                    found.append((int(name[len(prefix) :]), name))
            return tuple(name for _, name in sorted(found))

        require_columns(header, ("id", "d", "y1", "y2"))
        return ColumnMapping(
            aux_indicators=numbered("aux"),
            aux_variables=numbered("w"),
            covariates=numbered("x"),
        )


class PanelDataset:
    """Validated, immutable two-period panel with missingness.

    d, aux and x are checked value by value before they are cast to
    integers, so 0.5 or -3 is an error naming its row, not a silent 0.

    Parameters
    ----------
    d, y1, y2
        Per-unit treatment (0/1) and outcomes; missing outcomes are NaN.
    aux
        (n, K) array of binary auxiliary response indicators; K may be 0.
    x
        Optional (n, J) array of small non-negative integer covariate
        categories.
    unit_ids
        Optional opaque identifiers; generated as "1".."n" when omitted.
    outcome_support
        Optional declared closed interval [y_min, y_max]; every observed
        outcome must lie inside it. Required by the trimming bounds' support
        fallback.
    """

    __slots__ = ("d", "y1", "y2", "r1", "r2", "aux", "x", "_unit_ids", "outcome_support")

    def __init__(
        self,
        d: np.ndarray,
        y1: np.ndarray,
        y2: np.ndarray,
        aux: np.ndarray | None = None,
        x: np.ndarray | None = None,
        unit_ids: tuple[str, ...] | None = None,
        outcome_support: tuple[float, float] | None = None,
        _validate: bool = True,
    ) -> None:
        if _validate:  # before the integer casts below, which would hide bad values
            _check_values(d, _is_binary, "treatment must be 0 or 1")
            if aux is not None:
                _check_values(aux, _is_binary, "auxiliary indicator columns must contain only 0/1")
            if x is not None:
                _check_values(x, _is_count, "covariate must be a non-negative integer")
        d = np.asarray(d, dtype=np.int8)
        y1 = np.asarray(y1, dtype=np.float64)
        y2 = np.asarray(y2, dtype=np.float64)
        n = d.shape[0]
        if aux is None:
            aux = np.zeros((n, 0), dtype=np.int8)
        else:
            aux = np.asarray(aux, dtype=np.int8)
            if aux.ndim == 1:
                aux = aux.reshape(n, 1)
        if x is not None:
            x = np.asarray(x, dtype=np.int64)
            if x.ndim == 1:
                x = x.reshape(n, 1)
            if x.shape[1] == 0:
                x = None
        self.d = d
        self.y1 = y1
        self.y2 = y2
        self.r1 = ~np.isnan(y1)
        self.r2 = ~np.isnan(y2)
        self.aux = aux
        self.x = x
        self._unit_ids = unit_ids
        self.outcome_support = (
            (float(outcome_support[0]), float(outcome_support[1]))
            if outcome_support is not None
            else None
        )
        if _validate:
            self._validate()
        for arr in (self.d, self.y1, self.y2, self.aux) + (() if x is None else (self.x,)):
            arr.setflags(write=False)

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        n = self.d.shape[0]
        if n == 0:
            raise InputError("empty dataset")
        for name, arr in (("y1", self.y1), ("y2", self.y2)):
            if arr.shape != (n,):
                raise InputError(f"{name} has shape {arr.shape}, expected ({n},)")
        if self.aux.shape[0] != n:
            raise InputError(f"aux has {self.aux.shape[0]} rows, expected {n}")
        if self.x is not None and self.x.shape[0] != n:
            raise InputError(f"x has {self.x.shape[0]} rows, expected {n}")
        arms = np.bincount(self.d, minlength=2)
        if arms[0] == 0 or arms[1] == 0:
            raise InputError("single-arm dataset: both treated and control units are required")
        if self._unit_ids is not None and len(self._unit_ids) != n:
            raise InputError(f"{len(self._unit_ids)} unit ids for {n} rows")
        if self.outcome_support is not None:
            lo, hi = self.outcome_support
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InputError(f"outcome support endpoints are not finite: [{lo}, {hi}]")
            if not lo <= hi:
                raise InputError(f"outcome support endpoints out of order: [{lo}, {hi}]")
            observed = np.concatenate([self.y1.compress(self.r1), self.y2.compress(self.r2)])
            if observed.size and (observed.min() < lo or observed.max() > hi):
                raise InputError(
                    "observed outcomes fall outside the declared support "
                    f"[{lo}, {hi}]: range [{observed.min()}, {observed.max()}]"
                )

    # -- basic views -----------------------------------------------------

    def __len__(self) -> int:
        return int(self.d.shape[0])

    @property
    def n_aux(self) -> int:
        return int(self.aux.shape[1])

    @property
    def n_covariates(self) -> int:
        return 0 if self.x is None else int(self.x.shape[1])

    @property
    def unit_ids(self) -> tuple[str, ...]:
        if self._unit_ids is None:
            self._unit_ids = tuple(str(i + 1) for i in range(len(self)))
        return self._unit_ids

    @property
    def complete_case(self) -> np.ndarray:
        """Boolean mask: both outcomes observed (R1 = 1 and R2 = 1)."""
        return self.r1 & self.r2

    @property
    def delta_y(self) -> np.ndarray:
        """Y2 - Y1 (NaN wherever either outcome is missing)."""
        return self.y2 - self.y1

    def _take(self, idx: np.ndarray) -> "PanelDataset":
        """Row-subset without re-validation (bootstrap hot path)."""
        return PanelDataset(
            self.d[idx], self.y1[idx], self.y2[idx],
            aux=self.aux[idx],
            x=None if self.x is None else self.x[idx],
            unit_ids=None,
            outcome_support=self.outcome_support,
            _validate=False,
        )

    def with_support(self, lo: float, hi: float) -> "PanelDataset":
        """Copy of this dataset with a declared outcome support."""
        return PanelDataset(
            self.d, self.y1, self.y2, aux=self.aux, x=self.x,
            unit_ids=self._unit_ids, outcome_support=(lo, hi),
        )


def _is_binary(values: np.ndarray) -> np.ndarray:
    return (values == 0) | (values == 1)


def _is_count(values: np.ndarray) -> np.ndarray:
    return (values >= 0) & (values == np.floor(values))


def _check_values(
    values: Any, allowed: Callable[[np.ndarray], np.ndarray], message: str
) -> None:
    """Raise naming the first row of ``values`` holding a value not ``allowed``."""
    raw = np.asarray(values)
    bad = ~allowed(raw)
    if bad.any():
        at = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise InputError(f"{message}, got {raw[at].item()!r} (row {at[0] + 1})")


@dataclass(frozen=True)
class RateTable:
    """Empirical response rates by arm; the inputs to every proportion formula.

    Entries are None ("flagged absent") when their denominator subgroup is
    empty — downstream formulas raise targeted errors instead of dividing by
    zero.

    p_r2_given_aux[d][k][v] = Pr(R2 = 1 | D = d, aux_k = v, R1 = 1).
    """

    n: tuple[int, int]
    p_r1: tuple[float, float]
    p_r2: tuple[float, float]
    p_r2_given_r1: tuple[float | None, float | None]
    p_r2_given_aux: tuple[tuple[tuple[float | None, float | None], ...], ...]

    def __post_init__(self) -> None:
        for d in (0, 1):
            if self.n[d] <= 0:
                raise InputError(f"arm {d} has no units")
            for p in (self.p_r1[d], self.p_r2[d]):
                if not 0.0 <= p <= 1.0:
                    raise InputError(f"rate {p} outside [0, 1]")


class GroupKey:
    """Every unit's integer group over (covariate cell, arm, R1, R2, aux levels).

    The estimators are closed-form functions of per-group unit counts and
    complete-case Y2 - Y1 sums, so a dataset is encoded once and any resample
    of it (row indices into the encoded data) reduces to two ``bincount``
    calls. The key is mixed-radix: cell, then arm, R1, R2 and the chosen
    auxiliary indicators, each binary, so ``counts`` reshapes the bins to
    ``(cells, 2, 2, 2) + (2,) * len(aux)``.

    A complete case whose Y2 - Y1 is not finite (finite outcomes can still
    overflow) raises ``EstimatorError`` naming its row, so no estimator built
    on the key returns NaN or infinity for it.

    Parameters
    ----------
    aux
        Auxiliary indicator columns to split on, in key order.
    cells
        Split on covariate cells (the distinct covariate rows, sorted
        lexicographically); otherwise the whole sample is one cell.
    """

    __slots__ = ("key", "dy", "d", "shape", "cells")

    def __init__(self, data: PanelDataset, aux: Sequence[int] = (), cells: bool = False) -> None:
        key = data.d.astype(np.intp)
        self.cells: tuple[tuple[int, ...], ...] = ((),)
        if cells and data.x is not None:
            self.cells, cell = _factorize(data.x)
            key += 2 * cell
        for column in (data.r1, data.r2) + tuple(data.aux[:, k] for k in aux):
            key <<= 1
            key += column
        self.key = key
        #: Y2 - Y1 on complete cases, 0 elsewhere (so sums skip other units):
        #: the change's bits ANDed with all ones or all zeros, without a branch
        with np.errstate(over="ignore", invalid="ignore"):
            self.dy = data.y2 - data.y1
        keep = (data.r1 & data.r2).view(np.int8)
        np.negative(keep, out=keep)  # 1 -> -1, all bits set once widened
        bits = self.dy.view(np.int64)
        np.bitwise_and(bits, keep, out=bits)
        not_finite = ~np.isfinite(self.dy)
        if not_finite.any():
            i = int(np.argmax(not_finite))
            raise EstimatorError(
                f"the result is not finite: y2 - y1 is not finite for unit {data.unit_ids[i]!r} "
                f"(row {i + 1}: y1={float(data.y1[i])!r}, y2={float(data.y2[i])!r})"
            )
        self.d = data.d
        self.shape = (len(self.cells), 2, 2, 2) + (2,) * len(aux)

    def counts(self, idx: np.ndarray | None = None) -> "GroupCounts":
        """Group counts and sums of the units at ``idx`` (all units when None)."""
        key, dy = (self.key, self.dy) if idx is None else (self.key[idx], self.dy[idx])
        size = math.prod(self.shape)
        n = np.bincount(key, minlength=size).reshape(self.shape)
        s = np.bincount(key, weights=dy, minlength=size).reshape(self.shape)
        if self.shape == (1, 2, 2, 2):
            cc_sum = s[0, :, 1, 1]
        else:  # complete cases are split further: sum each arm's in unit order
            d = self.d if idx is None else self.d[idx]
            cc_sum = np.bincount(d, weights=dy, minlength=2)
        return GroupCounts(n=n, s=s, cc_sum=cc_sum, cells=self.cells)


@dataclass(frozen=True)
class GroupCounts:
    """Per-group sufficient statistics of one sample (see ``GroupKey``).

    n[c, d, r1, r2, *levels] counts the units of covariate cell c and arm d
    with response pattern (r1, r2) and the key's auxiliary levels; s holds
    their Y2 - Y1 sums (nonzero only where r1 = r2 = 1). cc_sum[d] is arm d's
    complete-case Y2 - Y1 total summed in unit order, whatever else the key
    splits on, so every estimator built on it reproduces the complete-case
    DID bit for bit.

    Counts may also be expected masses (floats): the simulator evaluates the
    estimators' formulas on a design's expected counts to get population
    values.
    """

    n: np.ndarray
    s: np.ndarray
    cc_sum: np.ndarray
    cells: tuple[tuple[int, ...], ...]

    @property
    def arms(self) -> np.ndarray:
        """Counts over (arm, R1, R2), summed over cells and auxiliary levels."""
        return self.n.reshape(self.n.shape[0], 2, 2, 2, -1).sum(axis=(0, 4))


def _factorize(x: np.ndarray) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Covariate rows to (distinct rows in lexicographic order, per-unit index)."""
    index = None
    for column in x.T:
        if index is not None:
            # pair with the codes so far, re-ranked so they stay below n squared
            level = _ranks(column)
            column = index * (int(level.max()) + 1) + level
        index = _ranks(column)
    first = np.empty(int(index.max(initial=-1)) + 1, dtype=np.intp)
    first[index] = np.arange(index.size)  # a unit of each distinct row
    return tuple(tuple(row) for row in x[first].tolist()), index


def _ranks(codes: np.ndarray) -> np.ndarray:
    """Each code's rank among the distinct ``codes``, as ``np.unique`` gives it.

    Small non-negative codes are ranked by counting, without a sort.
    """
    if codes.size and 0 <= codes.min() and codes.max() < 4 * codes.size:
        rank = np.cumsum(np.bincount(codes) > 0)
        rank -= 1
        return rank.take(codes)
    return np.unique(codes, return_inverse=True)[1].reshape(-1)


def compute_rates(data: PanelDataset) -> RateTable:
    """Empirical response-rate table of ``data`` (proportions of counts)."""
    return _rate_table(
        GroupKey(data).counts().arms,
        [GroupKey(data, aux=(k,)).counts().n[0] for k in range(data.n_aux)],
    )


def _rate_table(arms: np.ndarray, aux_counts: Sequence[np.ndarray] = ()) -> RateTable:
    """Response-rate table from unit counts.

    ``arms`` holds counts over (arm, R1, R2); ``aux_counts[k]`` over
    (arm, R1, R2, aux_k), one entry per auxiliary indicator. Without
    ``aux_counts`` the table's p_r2_given_aux is empty.
    """
    n: list[int] = []
    p_r1: list[float] = []
    p_r2: list[float] = []
    p_cond: list[float | None] = []
    p_aux: list[tuple[tuple[float | None, float | None], ...]] = []
    # Python scalars; each sum adds left to right, as numpy does for so few terms
    by_aux = [counts.tolist() for counts in aux_counts]
    for d, ((n00, n01), (n10, n11)) in enumerate(arms.tolist()):
        n_d = int(n00 + n01 + n10 + n11)
        if n_d == 0:
            raise InputError("single-arm dataset: both treated and control units are required")
        n_r1 = int(n10 + n11)
        n.append(n_d)
        p_r1.append(n_r1 / n_d)
        p_r2.append(int(n01 + n11) / n_d)
        p_cond.append(int(n11) / n_r1 if n_r1 > 0 else None)
        per_k: list[tuple[float | None, float | None]] = []
        for counts in by_aux:
            missing, complete = counts[d][1]  # over R2, then aux level
            levels: list[float | None] = []
            for v in (0, 1):
                n_cell = int(missing[v] + complete[v])
                levels.append(int(complete[v]) / n_cell if n_cell > 0 else None)
            per_k.append((levels[0], levels[1]))
        p_aux.append(tuple(per_k))
    return RateTable(
        n=(n[0], n[1]),
        p_r1=(p_r1[0], p_r1[1]),
        p_r2=(p_r2[0], p_r2[1]),
        p_r2_given_r1=(p_cond[0], p_cond[1]),
        p_r2_given_aux=(p_aux[0], p_aux[1]),
    )




# -- CSV I/O ---------------------------------------------------------------


def load_panel(
    source: str | Path | bytes | IO[str] | IO[bytes],
    schema: ColumnMapping | Callable[[list[str]], ColumnMapping] | None = None,
    outcome_support: tuple[float, float] | None = None,
) -> PanelDataset:
    """Read a CSV panel (header row required) into a validated PanelDataset.

    ``schema`` is a ColumnMapping, or a function of the stripped header
    names that returns one; by default the mapping is detected from the
    header. Empty cells and the literal "NA" (case-insensitive) denote
    missing outcomes; any other cell must be a finite decimal number.
    Auxiliary indicator columns must contain only 0/1; auxiliary *variable*
    columns (schema.aux_variables) contribute the indicator 1{cell present}
    instead.
    """
    mappings: list[ColumnMapping] = []  # the one mapping, resolved from the header

    def fields(header: list[str]) -> list[tuple[str, Parser]]:
        mappings.append(
            schema(header) if callable(schema) else schema or ColumnMapping.detect(header)
        )
        return _panel_fields(header, mappings[0])

    _, values = read_columns(source, "dataset", fields)
    ids, d, y1, y2, aux, x = _panel_values(mappings[0], values)
    return PanelDataset(d, y1, y2, aux=aux, x=x, unit_ids=ids, outcome_support=outcome_support)


_AUX = binary("auxiliary indicator column must contain only 0/1")
_TREATMENT = binary("treatment must be 0 or 1")
_COVARIATE = counts("covariate must be a non-negative integer")


def _panel_fields(header: Sequence[str], mapping: ColumnMapping) -> list[tuple[str, Parser]]:
    """The columns ``mapping`` names, with their parsers, for ``read_columns``.

    Raises for a column missing from ``header``. Cell errors are reported
    for aux, w and x columns first, then for d, y1 and y2.
    """
    require_columns(header, (mapping.id, mapping.treatment, mapping.y1, mapping.y2))
    require_columns(
        header, mapping.aux_indicators + mapping.aux_variables + mapping.covariates,
        "declared columns",
    )
    return (
        [(name, _AUX) for name in mapping.aux_indicators]
        + [(name, floats()) for name in mapping.aux_variables]
        + [(name, _COVARIATE) for name in mapping.covariates]
        + [(mapping.id, IDS), (mapping.treatment, _TREATMENT)]
        + [(mapping.y1, floats()), (mapping.y2, floats())]
    )


def _panel_values(
    mapping: ColumnMapping, values: Sequence[Any]
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """ids, d, y1, y2, aux and x from the values of ``_panel_fields``' columns."""
    k, w = len(mapping.aux_indicators), len(mapping.aux_variables)
    *columns, ids, d, y1, y2 = values
    aux = columns[:k] + [~np.isnan(v) for v in columns[k : k + w]]
    x = columns[k + w :]
    return (
        ids, d, y1, y2,
        np.column_stack(aux).astype(np.int8) if aux else np.zeros((len(ids), 0), dtype=np.int8),
        np.column_stack(x) if x else None,
    )


def save_panel(data: PanelDataset, dest: str | Path | IO[str]) -> None:
    """Write ``data`` as CSV with the default column grammar.

    Column order: id, d, y1, y2, aux1..auxK, x1..xJ; missing outcomes are
    written as "NA". Loading the output reproduces every column bit for bit.
    """
    write_table(dest, *_table_columns(data))


def _table_columns(data: PanelDataset) -> tuple[list[str], list[Sequence[object]]]:
    """Header and columns of the panel fields, in save order, for ``write_table``.

    Default ids are written as 1..n without building them.
    """
    header = ["id", "d", "y1", "y2"]
    header += [f"aux{k + 1}" for k in range(data.n_aux)]
    header += [f"x{j + 1}" for j in range(data.n_covariates)]
    ids = range(1, len(data) + 1) if data._unit_ids is None else data._unit_ids
    columns: list[Sequence[object]] = [ids, data.d, data.y1, data.y2]
    columns += [data.aux[:, k] for k in range(data.n_aux)]
    columns += [data.x[:, j] for j in range(data.n_covariates)]
    return header, columns

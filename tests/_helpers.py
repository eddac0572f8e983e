"""Construction helpers and independent oracles shared by the test modules."""

from __future__ import annotations

import csv
import io

import numpy as np

from didmiss import PanelDataset
from didmiss.errors import InputError


def make_panel(
    d,
    y1,
    y2,
    aux=None,
    x=None,
    outcome_support=None,
    unit_ids=None,
) -> PanelDataset:
    """Build a PanelDataset from plain Python sequences (NaN marks missing)."""
    return PanelDataset(
        d=np.asarray(d, dtype=np.int8),
        y1=np.asarray(y1, dtype=np.float64),
        y2=np.asarray(y2, dtype=np.float64),
        aux=None if aux is None else np.asarray(aux, dtype=np.int8),
        x=None if x is None else np.asarray(x, dtype=np.int64),
        unit_ids=unit_ids,
        outcome_support=outcome_support,
    )


def brute_trimmed_mean(values, keep: float, side: str) -> float:
    """Independent fractional trimmed mean: explicit per-value weights.

    The i-th most extreme value receives weight min(1, max(0, keep*n - i));
    the result is the weighted mean. Shares no code with the library
    implementation (weights-vector formulation vs. partial-sum formulation).
    """
    v = np.sort(np.asarray(values, dtype=np.float64), kind="stable")
    if side == "top":
        v = v[::-1]
    t = keep * v.size
    w = np.clip(t - np.arange(v.size, dtype=np.float64), 0.0, 1.0)
    return float(np.dot(w, v) / t)


def block_panel(blocks, aux_width: int = 0, outcome_support=None) -> PanelDataset:
    """Expand (count, d, y1, y2[, aux...]) blocks into a PanelDataset.

    Each block repeats a row ``count`` times; y1/y2 may be None for missing.
    Useful for building exact-count fixtures whose rates are round fractions.
    """
    d, y1, y2, aux = [], [], [], []
    for block in blocks:
        count, arm, a, b = block[0], block[1], block[2], block[3]
        rest = list(block[4:]) + [0] * (aux_width - (len(block) - 4))
        for _ in range(count):
            d.append(arm)
            y1.append(np.nan if a is None else a)
            y2.append(np.nan if b is None else b)
            aux.append(rest[:aux_width])
    return make_panel(
        d,
        y1,
        y2,
        aux=aux if aux_width else None,
        outcome_support=outcome_support,
    )


def reference_read_table(text: str, what: str) -> dict[str, tuple[str, ...]]:
    """The CSV reader as one whole-table transposition: every row held at once."""
    try:
        rows = list(filter(None, csv.reader(io.StringIO(text))))
    except csv.Error as exc:
        raise InputError(f"malformed CSV: {exc}") from exc
    if not rows:
        raise InputError(f"empty {what}")
    header = [cell.strip() for cell in rows[0]]
    if len(set(header)) != len(header):
        raise InputError("malformed CSV: duplicate column names in header")
    if len(set(map(len, rows))) > 1:
        i = next(i for i, row in enumerate(rows) if len(row) != len(header))
        raise InputError(
            f"malformed CSV: row {i + 1} has {len(rows[i])} cells, header has {len(header)}"
        )
    return dict(zip(header, list(zip(*rows[1:])) or [()] * len(header)))

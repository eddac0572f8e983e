"""The one CSV table grammar behind every file the package reads or writes.

A table is a header row plus one row per unit. Blank lines are skipped; in
messages the header is row 1 and blank lines are not counted. The reader
streams rows from one ``csv.reader`` straight into one list of raw cells per
header name, a few hundred rows at a time, so its memory is that of the
parsed columns; each column is then parsed as a whole by one of three
parsers:

- floats: finite decimal numbers. An empty cell or ``NA`` (any case,
  surrounding whitespace ignored) is missing and becomes NaN. ``nan``,
  ``inf``, digit separators such as ``1_000`` and non-ASCII characters are
  errors.
- binary values: ``0`` or ``1``.
- non-negative integers, written in ASCII digits.

Every error about a single cell names its row and column. The writer prints
floats with ``repr``, so reading a written table back gives every value bit
for bit, and prints missing floats as ``NA``.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import InputError

#: How the writer spells a missing float.
MISSING = "NA"

#: Missing-value cells after stripping whitespace and lower-casing.
_MISSING_TOKENS = frozenset({"", "na"})

#: The common spellings of a missing cell, which skip float() altogether.
_MISSING_CELLS = frozenset({"", "NA", "na"})

_BINARY = {"0": 0, "1": 1}

#: Rows the reader moves into columns at a time. A chunk's row lists are freed
#: before the cyclic garbage collector promotes them, so it never walks a whole
#: table of rows. On a 2-vCPU host a 200k-row panel reads in 0.27 s in chunks
#: of 256 rows and in 0.42 s in chunks of 4096.
_CHUNK_ROWS = 256


def read_table(
    source: str | Path | bytes | IO[str] | IO[bytes], what: str
) -> dict[str, Sequence[str]]:
    """Header name -> the raw cells of that column, in header order.

    ``source`` is a path (str or Path), or bytes or a file object holding
    the CSV text. ``what`` names the table in the error for a source without
    a header row ("empty <what>"). Faults are reported in this order: text
    that does not decode or parse, a missing header row, duplicate header
    names, then the first row whose cell count differs from the header's.
    """
    ragged: tuple[int, int] | None = None  # (row number, cell count)
    try:
        with open_text(source) as handle:
            rows = filter(None, csv.reader(handle))
            header = [cell.strip() for cell in next(rows, ())]
            columns: list[list[str]] = [[] for _ in header]
            seen = 1  # non-blank rows read so far, the header included
            while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
                if ragged is None and set(map(len, chunk)) != {len(header)}:
                    i, bad = next((i, r) for i, r in enumerate(chunk) if len(r) != len(header))
                    ragged = (seen + i + 1, len(bad))
                for column, cells in zip(columns, zip(*chunk)):
                    column.extend(cells)
                seen += len(chunk)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise InputError(f"malformed CSV: {exc}") from exc
    if not header:
        raise InputError(f"empty {what}")
    if len(set(header)) != len(header):
        raise InputError("malformed CSV: duplicate column names in header")
    if ragged is not None:
        raise InputError(
            f"malformed CSV: row {ragged[0]} has {ragged[1]} cells, header has {len(header)}"
        )
    return dict(zip(header, columns))


def open_text(source: str | Path | bytes | IO[str] | IO[bytes]) -> IO[str]:
    """str/Path name a file; bytes or a file-like object carry CSV content."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            return open(path, newline="")
        except FileNotFoundError:
            raise InputError(f"no such file: {path}") from None
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc.strerror}") from None
    raw = source if isinstance(source, bytes) else source.read()
    return io.StringIO(raw.decode("utf-8") if isinstance(raw, bytes) else raw)


def require_columns(
    header: Iterable[str], names: Iterable[str], kind: str = "required columns"
) -> None:
    """Raise unless every one of ``names`` is in ``header``."""
    present = set(header)
    missing = [name for name in names if name not in present]
    if missing:
        raise InputError(f"CSV header is missing {kind}: {', '.join(missing)}")


def reject(bad: np.ndarray, cells: Sequence[str], column: str, message: str) -> None:
    """Raise for the first cell of ``column`` where ``bad`` holds, if any."""
    if bad.any():
        raise _cell_error(message, cells, int(np.argmax(bad)), column)


def _cell_error(message: str, cells: Sequence[str], i: int, column: str) -> InputError:
    return InputError(f"{message}, got {cells[i]!r} (row {i + 2}, column {column})")


def _float_or_nan(cell: str) -> float:
    """``float(cell)``, or NaN where float() refuses; the grammar is checked after."""
    try:
        return float(cell)
    except ValueError:
        return math.nan


def parse_floats(cells: Sequence[str], column: str) -> np.ndarray:
    """A float column; missing cells become NaN."""
    try:
        floats = [math.nan if cell in _MISSING_CELLS else float(cell) for cell in cells]
    except ValueError:  # a cell float() refuses: " NA " or a bad one
        floats = [math.nan if cell in _MISSING_CELLS else _float_or_nan(cell) for cell in cells]
    values = np.array(floats, dtype=np.float64)
    # float() also takes nan, inf, 1_000 and non-ASCII digits; those cells
    # and the missing tokens are the only ones that need a second look
    suspect = ~np.isfinite(values)
    joined = "".join(cells)
    if "_" in joined or not joined.isascii():
        suspect |= np.array([not cell.isascii() or "_" in cell for cell in cells], dtype=bool)
    for i in np.flatnonzero(suspect).tolist():
        cell = cells[i]
        if cell not in _MISSING_CELLS and cell.strip().lower() not in _MISSING_TOKENS:
            raise _cell_error(
                "unparseable numeric value: expected a finite decimal number or NA",
                cells, i, column,
            )
    return values


def parse_binary(cells: Sequence[str], column: str, message: str) -> np.ndarray:
    """A 0/1 column as int8; ``message`` says what the column must hold."""
    values = np.array([_BINARY.get(cell.strip(), -1) for cell in cells], dtype=np.int8)
    reject(values < 0, cells, column, message)
    return values


def parse_counts(cells: Sequence[str], column: str, message: str) -> np.ndarray:
    """A non-negative integer column as int64 (at most 18 digits per cell)."""
    values = np.array(
        [
            int(cell) if cell.isascii() and cell.isdigit() and len(cell) < 19 else -1
            for cell in map(str.strip, cells)
        ],
        dtype=np.int64,
    )
    reject(values < 0, cells, column, message)
    return values


def float_cells(values: np.ndarray) -> list[float | str]:
    """``values`` as Python floats for the writer, with ``NA`` in place of NaN."""
    cells: list[float | str] = values.tolist()
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = MISSING
    return cells


def write_table(
    dest: str | Path | IO[str], header: Sequence[str], columns: Sequence[Sequence[object]]
) -> None:
    """Write ``header`` and the rows of ``columns``; floats are written with repr."""
    own = isinstance(dest, (str, Path))
    handle: IO[str] = open(dest, "w", newline="") if own else dest  # type: ignore[assignment]
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(*columns))
    finally:
        if own:
            handle.close()

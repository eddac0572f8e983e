"""The one CSV table grammar behind every file the package reads or writes.

A table is a header row plus one row per unit. Blank lines are skipped; in
messages the header is row 1 and blank lines are not counted. The reader
takes rows from one ``csv.reader`` a few hundred at a time and passes each
column of the chunk straight through that column's parser into a typed
piece, so no cell string outlives its chunk and the reader's memory is that
of the typed columns; ids are kept, stripped, as one ``TextColumn``. Text is
UTF-8, and one leading byte-order mark is ignored. The parsers:

- floats: finite decimal numbers. An empty cell or ``NA`` (any case,
  surrounding whitespace ignored) is missing and becomes NaN. ``nan``,
  ``inf``, digit separators such as ``1_000`` and non-ASCII characters are
  errors.
- labels: one of a fixed set of tokens, such as ``0``/``1`` or a stratum
  label, surrounding whitespace ignored.
- counts: non-negative integers, written in ASCII digits.
- ids: any text, surrounding whitespace stripped.

Every error about a single cell names its row and column. Faults are
reported in one order wherever they sit in the file (see ``read_columns``).
The writer formats a few hundred rows at a time, each cell once, and writes
the lines itself. It prints floats with ``repr``, so reading a written table
back gives every value bit for bit, missing floats as ``NA`` and integers
with ``str``; these cells never need quoting. Ids, labels and header names
go through one quoting rule, that of ``csv.writer``'s default
``QUOTE_MINIMAL``: a cell holding a comma, a quote, a carriage return or a
line feed is wrapped in quotes with its quotes doubled, and an empty cell
alone on its row is written as ``""``. Lines end in CRLF. One pass can feed
several files, each the first columns of the same table, so
``simulate --truth`` formats the cells its panel and oracle files share once.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, ContextManager, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import InputError

#: How the writer spells a missing float.
MISSING = "NA"

#: What makes the writer quote a text cell, as ``csv.writer`` does by default.
_QUOTED = re.compile('[,"\r\n]')

#: A line with the ending that ends it (CR, CRLF or LF, the universal
#: newlines a file opened with ``newline=""`` splits at), or a last line
#: without one.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")

#: Missing-value cells after stripping whitespace and lower-casing.
_MISSING_TOKENS = frozenset({"", "na"})

#: The common spellings of a missing cell, which skip float() altogether.
_MISSING_CELLS = frozenset({"", "NA", "na"})

_UNPARSEABLE = "unparseable numeric value: expected a finite decimal number or NA"

#: Rows the reader parses, and the writer formats, at a time. A chunk's rows
#: and cells are freed before the cyclic garbage collector promotes them, so it
#: never walks a whole table of rows. On a 2-vCPU host a 200k-row panel reads
#: in 0.27 s in chunks of 256 rows and in 0.42 s in chunks of 4096.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class Parser:
    """How the cells of one column become values.

    ``parse`` takes the cells of one chunk and returns their values (a numpy
    array, a ``TextColumn`` or a tuple of strings) and, for each check, the
    index of the first cell failing it, or None. ``messages`` says what each
    check requires, in the order their failures are reported.
    """

    parse: Callable[[Sequence[str]], tuple[Any, Sequence[int | None]]]
    messages: tuple[str, ...] = ()


def _first(bad: np.ndarray) -> int | None:
    return int(np.argmax(bad)) if bad.any() else None


def _float_or_nan(cell: str) -> float:
    """``float(cell)``, or NaN where float() refuses; the grammar is checked after."""
    try:
        return float(cell)
    except ValueError:
        return math.nan


def _floats(cells: Sequence[str]) -> tuple[np.ndarray, tuple[int | None, int | None]]:
    """Float values, the first cell outside the grammar and the first missing cell."""
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
    missing = None
    for i in np.flatnonzero(suspect).tolist():
        cell = cells[i]
        if cell not in _MISSING_CELLS and cell.strip().lower() not in _MISSING_TOKENS:
            return values, (i, missing)
        if missing is None:
            missing = i
    return values, (None, missing)


def floats(missing: str | None = None) -> Parser:
    """Float64 values; a missing cell is NaN, or an error saying ``missing``."""
    return Parser(_floats, (_UNPARSEABLE,) if missing is None else (_UNPARSEABLE, missing))


def labels(codes: Mapping[str, int], message: str) -> Parser:
    """Int8 codes of cells that must be keys of ``codes``; ``message`` says so.

    When every key is one ASCII character other than whitespace, a chunk of
    one-character cells is looked up byte by byte; any other chunk, and any
    chunk with a byte that is not a key, is parsed cell by cell, so values and
    messages are the same either way.
    """

    def parse(cells: Sequence[str]) -> tuple[np.ndarray, tuple[int | None]]:
        values = np.array([codes.get(cell.strip(), -1) for cell in cells], dtype=np.int8)
        return values, (_first(values < 0),)

    if not all(len(key) == 1 and key.isascii() and not key.isspace() for key in codes):
        return Parser(parse, (message,))
    lookup = np.full(256, -1, dtype=np.int8)
    lookup[[ord(key) for key in codes]] = list(codes.values())

    def parse_bytes(cells: Sequence[str]) -> tuple[np.ndarray, tuple[int | None]]:
        joined = "".join(cells)
        # no empty cell and one character per cell: every cell is one character
        if len(joined) == len(cells) and joined.isascii() and "" not in cells:
            values = lookup[np.frombuffer(joined.encode("ascii"), dtype=np.uint8)]
            if values.min(initial=0) >= 0:
                return values, (None,)
        return parse(cells)

    return Parser(parse_bytes, (message,))


def binary(message: str) -> Parser:
    """A 0/1 column as int8; ``message`` says what the column must hold."""
    return labels({"0": 0, "1": 1}, message)


def counts(message: str) -> Parser:
    """A non-negative integer column as int64 (at most 18 digits per cell)."""

    def parse(cells: Sequence[str]) -> tuple[np.ndarray, tuple[int | None]]:
        values = np.array(
            [
                int(cell) if cell.isascii() and cell.isdigit() and len(cell) < 19 else -1
                for cell in map(str.strip, cells)
            ],
            dtype=np.int64,
        )
        return values, (_first(values < 0),)

    return Parser(parse, (message,))


class TextColumn:
    """A read-only column of strings kept as one text and each string's end.

    ``text`` is the strings joined; ``ends`` holds, as int64, the offset in
    ``text`` at which each string ends. ``column[i]`` is one string,
    ``column[a:b]`` a list of them, so a column of 200k short ids costs a
    few bytes per row instead of a ``str`` object and a tuple slot each.
    """

    __slots__ = ("text", "ends")

    def __init__(self, text: str, ends: np.ndarray) -> None:
        ends.setflags(write=False)
        self.text = text
        self.ends = ends

    def __len__(self) -> int:
        return self.ends.shape[0]

    def __getitem__(self, key: int | slice) -> Any:
        rows = range(len(self))[key]
        if isinstance(rows, int):
            return self.text[int(self.ends[rows - 1]) if rows else 0 : int(self.ends[rows])]
        if rows.step != 1:
            return [self[i] for i in rows]
        ends = self.ends[rows.start : rows.stop].tolist()
        starts = [int(self.ends[rows.start - 1]) if rows.start else 0] + ends[:-1]
        return [self.text[a:b] for a, b in zip(starts, ends)]

    def __iter__(self) -> Iterator[str]:
        return iter(self[:])


def _ids(cells: Sequence[str]) -> tuple[TextColumn, tuple[()]]:
    ids = list(map(str.strip, cells))
    return TextColumn("".join(ids), np.cumsum(np.fromiter(map(len, ids), np.int64, len(ids)))), ()


#: Cell text with surrounding whitespace stripped, as a ``TextColumn``.
IDS = Parser(_ids)


def read_columns(
    source: str | Path | bytes | IO[str] | IO[bytes],
    what: str,
    spec: Callable[[list[str]], Sequence[tuple[str, Parser]]],
) -> tuple[list[str], list[Any]]:
    """The header, and the values of each field ``spec(header)`` names.

    ``source`` is a path (str or Path), or bytes or a file object holding
    the CSV text. ``what`` names the table in the error for a source without
    a header row ("empty <what>"). ``spec`` gets the stripped header names
    and returns the fields to parse, (column name, parser) pairs in the
    order their cell errors are reported (a column may appear twice); it
    raises ``InputError`` for a header that lacks a column. Values are
    returned in field order.

    The whole file is read before any fault is reported, and faults are
    reported in this order: text that does not decode or parse, a missing
    header row, duplicate header names, the first row whose cell count
    differs from the header's, the error of ``spec``, then the first cell
    failing the first failed check of the first field with one.
    """
    ragged: tuple[int, int] | None = None  # (row number, cell count)
    unfit: InputError | None = None  # what spec raised
    faults: dict[tuple[int, int], str] = {}  # (field, check) -> its first failure
    fields: list[tuple[int, str, Parser]] = []
    try:
        with open_text(source) as handle:
            rows = filter(None, csv.reader(handle))
            header = [cell.strip() for cell in next(rows, ())]
            if header and len(set(header)) == len(header):
                try:
                    fields = [(header.index(name), name, parser) for name, parser in spec(header)]
                except InputError as exc:
                    unfit = exc
            pieces: list[list[Any]] = [[] for _ in fields]
            seen = 1  # non-blank rows read so far, the header included
            while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
                if ragged is None and set(map(len, chunk)) != {len(header)}:
                    i, bad = next((i, r) for i, r in enumerate(chunk) if len(r) != len(header))
                    ragged = (seen + i + 1, len(bad))
                if ragged is None:
                    columns = list(zip(*chunk))
                    for f, (index, name, parser) in enumerate(fields):
                        cells = columns[index]
                        values, first = parser.parse(cells)
                        pieces[f].append(values)
                        for check, (message, i) in enumerate(zip(parser.messages, first)):
                            if i is not None and (f, check) not in faults:
                                faults[f, check] = (
                                    f"{message}, got {cells[i]!r} "
                                    f"(row {seen + i + 1}, column {name})"
                                )
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
    if unfit is not None:
        raise unfit
    if faults:
        raise InputError(faults[min(faults)])
    return header, [_join(parser, piece) for (_, _, parser), piece in zip(fields, pieces)]


def _join(parser: Parser, pieces: list[Any]) -> Any:
    """One column's values from its chunks' pieces."""
    if not pieces:
        return parser.parse(())[0]
    if isinstance(pieces[0], np.ndarray):
        return np.concatenate(pieces)
    if isinstance(pieces[0], TextColumn):
        shifts = itertools.accumulate((len(piece.text) for piece in pieces), initial=0)
        return TextColumn(
            "".join(piece.text for piece in pieces),
            np.concatenate([piece.ends + shift for piece, shift in zip(pieces, shifts)]),
        )
    return tuple(itertools.chain.from_iterable(pieces))


def open_text(source: str | Path | bytes | IO[str] | IO[bytes]) -> ContextManager[Iterable[str]]:
    """The lines of a source: str/Path name a file; bytes or a file-like
    object carry CSV content.

    Bytes are decoded as UTF-8, and so is a named file. One leading
    byte-order mark (U+FEFF, as Excel's "CSV UTF-8" writes) is dropped from
    every kind of source. Content that is not a file is read whole, and its
    text is split after each CR, CRLF or LF, as a named file is, one line at
    a time rather than through a copy of the whole text.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            return open(path, newline="", encoding="utf-8-sig")
        except FileNotFoundError:
            raise InputError(f"no such file: {path}") from None
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc.strerror}") from None
    raw = source if isinstance(source, bytes) else source.read()
    text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    start = 1 if text.startswith("\ufeff") else 0
    return contextlib.nullcontext(line.group() for line in _LINE.finditer(text, start))


def require_columns(
    header: Iterable[str], names: Iterable[str], kind: str = "required columns"
) -> None:
    """Raise unless every one of ``names`` is in ``header``."""
    present = set(header)
    missing = [name for name in names if name not in present]
    if missing:
        raise InputError(f"CSV header is missing {kind}: {', '.join(missing)}")


def _quote(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if _QUOTED.search(cell) else cell


def _text(cells: Iterable[object]) -> list[str]:
    """Text cells, each quoted where it holds a comma, a quote or a line break."""
    text = list(map(str, cells))
    return list(map(_quote, text)) if _QUOTED.search("".join(text)) else text


def _format(values: Sequence[object]) -> list[str]:
    """A slice of a column as cell text: floats by repr, NaN as ``NA``, text quoted."""
    if isinstance(values, range):
        return list(map(str, values))
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "biuf"):
        return _text(values)
    if values.dtype.kind != "f":
        return list(map(str, values.tolist()))
    cells = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = MISSING
    return cells


def _lines(rows: list[str], width: int) -> str:
    """Joined rows as CSV lines; a one-column row holding an empty cell is ``""``."""
    if width == 1:
        rows = [row or '""' for row in rows]
    return "\r\n".join(rows) + "\r\n" if rows else ""


def write_table(
    dest: str | Path | IO[str], header: Sequence[str], columns: Sequence[Sequence[object]]
) -> None:
    """Write ``header`` and the rows of ``columns`` to ``dest`` (see ``write_tables``)."""
    write_tables([(dest, len(header))], header, columns)


def write_tables(
    dests: Sequence[tuple[str | Path | IO[str], int]],
    header: Sequence[str],
    columns: Sequence[Sequence[object]],
) -> None:
    """Write the first ``width`` columns of one table to each ``(dest, width)``.

    A column is a numpy array, a ``range`` of ids, a ``TextColumn`` or a
    sequence of text cells, all of one length; each cell is formatted once
    (see the module docstring), however many destinations take it.
    Destinations are opened in order. One that cannot be opened is an
    ``InputError`` naming it, raised after those before it are written in
    full; those after it are not opened. A path that cannot be written or closed (a full disk) is an
    ``InputError`` naming it too; every file opened is closed, and what was
    written stays. A path naming the same file as an earlier one replaces
    it, as a second write would. A header whose names do not match the
    columns in number, or a column whose length differs from the first's,
    is an ``InputError`` raised before any destination is opened.
    """
    if len(header) != len(columns):
        raise InputError(f"header has {len(header)} names for {len(columns)} columns")
    for name, column in zip(header[1:], columns[1:]):
        if len(column) != len(columns[0]):
            raise InputError(
                f"column {name} has {len(column)} rows, column {header[0]} has {len(columns[0])}"
            )
    targets: list[tuple[IO[str], int]] = []
    owned: list[IO[str]] = []
    failure: InputError | None = None
    try:
        for dest, width in dests:
            if not isinstance(dest, (str, Path)):
                targets.append((dest, width))  # type: ignore[arg-type]
                continue
            try:
                handle = open(dest, "w", newline="")
            except OSError as exc:
                failure = _cannot_write(dest, exc)
                break
            owned.append(handle)
            opened = os.fstat(handle.fileno())
            targets = [  # an earlier path to this file is written over: drop it
                (h, w) for h, w in targets
                if h not in owned or not os.path.samestat(os.fstat(h.fileno()), opened)
            ]
            targets.append((handle, width))
        if targets:
            _write(targets, header, columns, owned)
    finally:
        for handle in owned:
            try:
                handle.close()
            except OSError as exc:  # what is still buffered is written here
                failure = failure or _cannot_write(handle.name, exc)
    if failure is not None:
        raise failure


def _cannot_write(dest: object, exc: OSError) -> InputError:
    return InputError(f"cannot write {dest}: {exc.strerror}")


def _write(
    targets: Sequence[tuple[IO[str], int]],
    header: Sequence[str],
    columns: Sequence[Sequence[object]],
    owned: Sequence[IO[str]],
) -> None:
    """Format each chunk of the table once; write each handle its first columns."""
    widths = sorted({width for _, width in targets})
    columns = columns[: widths[-1]]
    chunks = (
        [_format(column[start : start + _CHUNK_ROWS]) for column in columns]
        for start in range(0, len(columns[0]) if columns else 0, _CHUNK_ROWS)
    )
    head = [[cell] for cell in _text(header[: widths[-1]])]
    for cells in itertools.chain([head], chunks):
        text, rows, done = {}, [], 0
        for width in widths:  # each row's first columns are joined once
            more = map(",".join, zip(*cells[done:width]))
            rows = [a + "," + b for a, b in zip(rows, more)] if done else list(more)
            text[width], done = _lines(rows, width), width
        for handle, width in targets:
            try:
                handle.write(text[width])
            except OSError as exc:  # a handle the caller gave keeps its own error
                raise _cannot_write(handle.name, exc) if handle in owned else exc

"""The one CSV table grammar behind every file the package reads or writes.

A table is a header row plus one row per unit. Blank lines are skipped; in
messages the header is row 1 and blank lines are not counted. Text is UTF-8,
and one leading byte-order mark is ignored. The reader takes the source in
blocks of about 64 KiB that end at a line break. A block without quotes (and
without the few other characters ``csv`` reads differently from
``str.splitlines``) is split with ``str`` methods: into lines, then into
cells by one join and one split on commas, with one more cell after each
line's cells, which must fall every header-width cells unless a row is
ragged. From the first block that has one, the rest of the text goes to
``csv.reader``, which starts at a row because no quote came before. Either
way each column of the chunk goes straight through that column's parser
into a typed piece, so no cell string outlives its chunk and the reader's
memory is that of the typed columns; ids are kept, stripped, as one
``TextColumn``. The parsers:

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
with ``str``; these cells never need quoting. A float cell with the same
bits as the cell of an earlier float column in its row takes that cell's
text, in a chunk where at least a fifth of the rows share it. Ids, labels
and header names go through one quoting rule, that of ``csv.writer``'s
default ``QUOTE_MINIMAL``: a cell holding a comma, a quote, a carriage
return or a line feed is wrapped in quotes with its quotes doubled, and an
empty cell alone on its row is written as ``""``. Lines end in CRLF. One
pass can feed several files, each the first columns of the same table, so
``simulate --truth`` formats the cells its panel and oracle files share
once.
"""

from __future__ import annotations

import contextlib
import csv
import io
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
#: without one: the lines ``csv.reader`` is given.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")

#: Characters that hand the rest of a table to ``csv.reader``: a quote, a NUL
#: (which ``csv`` refuses before Python 3.11) and the line breaks of
#: ``str.splitlines`` that ``csv`` reads as cell text.
_CSV_ONLY = '"\0\v\f\x1c\x1d\x1e\x85\u2028\u2029'

#: Bytes (or characters, for a text source) read at a time; a block of text
#: runs on to the last line break read.
_BLOCK = 1 << 16

#: Missing-value cells after stripping whitespace and lower-casing.
_MISSING_TOKENS = frozenset({"", "na"})

#: The common spellings of a missing cell, which skip float() altogether.
_MISSING_CELLS = frozenset({"", "NA", "na"})

_UNPARSEABLE = "unparseable numeric value: expected a finite decimal number or NA"

#: Rows that ``csv.reader`` parses, and the writer formats, at a time. Each
#: row from ``csv`` is a list, which the cyclic garbage collector tracks; freed
#: a chunk at a time, they never make it walk a whole table of rows (on a
#: 2-vCPU host a 200k-row panel read through ``csv`` in 0.27 s in chunks of 256
#: rows and in 0.42 s in chunks of 4096). A block split by ``str`` methods
#: makes only strings, which the collector does not track, so it is parsed
#: whole.
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


def _one_char(cells: Sequence[str]) -> bytes | None:
    """The cells as ASCII bytes when each is one ASCII character, else None."""
    joined = "".join(cells)
    # no empty cell and one character per cell: every cell is one character
    if len(joined) == len(cells) and joined.isascii() and "" not in cells:
        return joined.encode("ascii")
    return None


def labels(codes: Mapping[str, int], message: str) -> Parser:
    """Int8 codes of cells that must be keys of ``codes`` (which hold no
    surrounding whitespace); ``message`` says so.

    When every key is one ASCII character other than whitespace, a chunk of
    one-character cells is looked up byte by byte. Any other chunk is looked
    up cell by cell, and a cell is stripped only when it is not a key as it
    is, so values and messages are the same either way.
    """

    def parse(cells: Sequence[str]) -> tuple[np.ndarray, tuple[int | None]]:
        found = list(map(codes.get, cells))
        if None in found:
            found = [
                codes.get(cell.strip(), -1) if code is None else code
                for code, cell in zip(found, cells)
            ]
        values = np.array(found, dtype=np.int8)
        return values, (_first(values < 0),)

    if not all(len(key) == 1 and key.isascii() and not key.isspace() for key in codes):
        return Parser(parse, (message,))
    lookup = np.full(256, -1, dtype=np.int8)
    lookup[[ord(key) for key in codes]] = list(codes.values())

    def parse_bytes(cells: Sequence[str]) -> tuple[np.ndarray, tuple[int | None]]:
        chars = _one_char(cells)
        if chars is not None:
            values = lookup[np.frombuffer(chars, dtype=np.uint8)]
            if values.min(initial=0) >= 0:
                return values, (None,)
        return parse(cells)

    return Parser(parse_bytes, (message,))


def binary(message: str) -> Parser:
    """A 0/1 column as int8; ``message`` says what the column must hold."""
    return labels({"0": 0, "1": 1}, message)


def counts(message: str) -> Parser:
    """A non-negative integer column as int64 (at most 18 digits per cell).

    A chunk of one-digit cells is read byte by byte, any other cell by cell.
    """

    def parse(cells: Sequence[str]) -> tuple[np.ndarray, tuple[int | None]]:
        chars = _one_char(cells)
        if chars is not None and chars.isdigit():
            return np.frombuffer(chars, dtype=np.uint8).astype(np.int64) - 48, (None,)
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
    reported in this order: text that does not decode, text that does not
    parse, a missing header row, duplicate header names, the first row
    whose cell count differs from the header's, the error of ``spec``, then
    the first cell failing the first failed check of the first field with
    one.
    """
    header: list[str] = []
    ragged: tuple[int, int] | None = None  # (row number, cell count)
    unfit: InputError | None = None  # what spec raised
    faults: dict[tuple[int, int], str] = {}  # (field, check) -> its first failure
    fields: list[tuple[int, str, Parser]] = []
    pieces: list[list[Any]] = []
    seen = 1  # non-blank rows read so far, the header included
    with _open(source) as handle:
        blocks = _blocks(handle.read)
        try:
            for rows, width, cells, sizes in _chunks(blocks):
                if not header:
                    header = [cell.strip() for cell in cells[:width]]
                    rows, cells, sizes = rows - 1, cells[width + 1 :], sizes and sizes[1:]
                    if len(set(header)) == len(header):
                        try:
                            fields = [(header.index(n), n, p) for n, p in spec(header)]
                        except InputError as exc:
                            unfit = exc
                    pieces = [[] for _ in fields]
                if ragged is None and sizes is not None:
                    i = next(i for i, size in enumerate(sizes) if size != width)
                    ragged = (seen + i + 1, sizes[i])
                if ragged is None:
                    for f, (index, name, parser) in enumerate(fields):
                        column = cells[index :: width + 1]
                        values, first = parser.parse(column)
                        pieces[f].append(values)
                        for check, (message, i) in enumerate(zip(parser.messages, first)):
                            if i is not None and (f, check) not in faults:
                                faults[f, check] = (
                                    f"{message}, got {column[i]!r} "
                                    f"(row {seen + i + 1}, column {name})"
                                )
                seen += rows
        except csv.Error as exc:
            for _ in blocks:  # text that does not decode, later on, is reported first
                pass
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
    return header, [_join(piece) for piece in pieces]


def _join(pieces: list[Any]) -> Any:
    """One column's values from its chunks' pieces; the header's chunk always
    gives every column one piece."""
    if isinstance(pieces[0], np.ndarray):
        return np.concatenate(pieces)
    if isinstance(pieces[0], TextColumn):
        shifts = itertools.accumulate((len(piece.text) for piece in pieces), initial=0)
        return TextColumn(
            "".join(piece.text for piece in pieces),
            np.concatenate([piece.ends + shift for piece, shift in zip(pieces, shifts)]),
        )
    return tuple(itertools.chain.from_iterable(pieces))


def _open(source: str | Path | bytes | IO[str] | IO[bytes]) -> ContextManager[IO[Any]]:
    """A file object reading the source: str/Path name a file; bytes or a
    file-like object carry CSV content."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            return open(path, "rb")
        except FileNotFoundError:
            raise InputError(f"no such file: {path}") from None
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc.strerror}") from None
    return contextlib.nullcontext(io.BytesIO(source) if isinstance(source, bytes) else source)


def _blocks(read: Callable[[int], Any]) -> Iterator[str]:
    """The text ``read`` returns, ``_BLOCK`` bytes or characters at a time, in
    blocks that each end at the last line break read (the last one may not).

    Bytes are decoded as UTF-8 a block at a time; a byte that does not
    decode is named by its offset in the source, whatever kind it is. One
    leading byte-order mark (U+FEFF, as Excel's "CSV UTF-8" writes) is
    dropped.
    """
    rest, done = [], 0  # what was read after the last line break; what was yielded
    while True:
        try:
            data = read(_BLOCK)
        except UnicodeDecodeError as exc:  # a text file object's own decoder
            raise InputError(f"malformed CSV: {exc}") from None
        breaks = ("\n", "\r") if isinstance(data, str) else (b"\n", b"\r")
        cut = max(map(data.rfind, breaks)) + 1
        if data and not cut:  # no line break yet: read on
            rest.append(data)
            continue
        block = data[:0].join([*rest, data[:cut]])
        rest = [data[cut:]]
        try:
            text = block if isinstance(block, str) else block.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(
                f"malformed CSV: 'utf-8' codec can't decode byte 0x{block[exc.start]:02x} "
                f"at byte {done + exc.start}: {exc.reason}"
            ) from None
        if text:
            yield text[1:] if not done and text.startswith("\ufeff") else text
        done += len(block)
        if not data:
            return


def _chunks(blocks: Iterator[str]) -> Iterator[tuple[int, int, list[str], list[int] | None]]:
    """The non-blank rows of a table's text, a chunk at a time.

    Each chunk is (row count, width, cells, sizes). ``width`` is the cell
    count of the table's first row, its header. ``cells`` holds each row's
    cells followed by one ``"\\n"`` cell. ``sizes`` is None when every row of
    the chunk has ``width`` cells, so that a column is every ``width + 1``-th
    cell, and otherwise each row's cell count.

    A block of text that ``csv`` would read as plain lines of comma-separated
    cells is split by ``str`` methods. From the first block holding a quote, a
    NUL, a line break ``csv`` does not take as one or a line longer than
    ``csv.field_size_limit()``, the rest of the text goes to ``csv.reader``.
    Blocks end at line breaks and no quote came before, so it starts at a row.
    """
    limit, width = csv.field_size_limit(), 0
    for block in blocks:
        if any(char in block for char in _CSV_ONLY):
            break
        lines = list(filter(None, block.splitlines()))
        if len(block) > limit and max(map(len, lines), default=0) > limit:
            break
        if lines:
            width = width or lines[0].count(",") + 1
            cells = (",\n,".join(lines) + ",\n").split(",")
            # no cell of a line is "\n": a "\n" after every width cells means
            # that every line has width cells
            plain = len(cells) == len(lines) * (width + 1)
            plain = plain and cells[width :: width + 1].count("\n") == len(lines)
            sizes = None if plain else [line.count(",") + 1 for line in lines]
            yield len(lines), width, cells, sizes
    else:
        return
    text = itertools.chain([block], blocks)
    rows = filter(None, csv.reader(line.group() for t in text for line in _LINE.finditer(t)))
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        width = width or len(chunk[0])
        sizes = list(map(len, chunk))
        cells = list(itertools.chain.from_iterable(row + ["\n"] for row in chunk))
        yield len(chunk), width, cells, None if sizes.count(width) == len(sizes) else sizes


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


def _format_chunk(values: Sequence[Sequence[object]]) -> list[list[str]]:
    """The cell text of a chunk's columns, each formatted by ``_format``.

    A float64 column takes the text of the first earlier one whose bits equal
    its own in at least a fifth of the rows, as an oracle's latent outcomes
    do the observed ones, and formats only its other cells; below about a
    tenth, copying the text and setting the other cells costs more than
    formatting them all.
    """
    cells: list[list[str]] = []
    written: list[tuple[np.ndarray, list[str]]] = []  # float64 bits and their text
    for column in values:
        if not (isinstance(column, np.ndarray) and column.dtype == np.float64):
            cells.append(_format(column))
            continue
        bits = column.view(np.int64)
        for earlier, shared in written:
            same = bits == earlier
            if 5 * np.count_nonzero(same) >= len(same):
                text = shared.copy()
                other = np.flatnonzero(~same)
                for i, cell in zip(other.tolist(), _format(column[other])):
                    text[i] = cell
                break
        else:
            text = _format(column)
        written.append((bits, text))
        cells.append(text)
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
                handle = open(dest, "w", encoding="utf-8", newline="")
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
        _format_chunk([column[start : start + _CHUNK_ROWS] for column in columns])
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

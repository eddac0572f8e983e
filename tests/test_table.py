"""The typed streaming CSV reader and the chunked writer against the
whole-column code they replaced, which is kept here as the reference.

The reference reads every row of a table at once, parses each column as a
whole and raises the first fault in the order the package promises: text
that does not decode or parse, an empty table, duplicate header names, a
ragged row, missing columns, then the column checks (aux, w, x, d, y1, y2,
then the oracle's s and latent columns), then the whole-array checks.
"""

from __future__ import annotations

import csv
import io
import math
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from didmiss import (
    STRATUM_LABELS,
    STRATUM_PAIRS,
    ColumnMapping,
    OraclePanel,
    PanelDataset,
    load_oracle,
    load_panel,
    make_preset,
    save_oracle,
    save_panel,
    simulate_panel,
)
from didmiss.errors import InputError
from didmiss.table import binary, require_columns, write_table, write_tables

from _helpers import reference_read_table, reference_write_table

# -- the reference: whole-column parsing -----------------------------------------

UNPARSEABLE = "unparseable numeric value: expected a finite decimal number or NA"
LATENT = ("s", "y1_true", "y2_1", "y2_0")


def cell_error(message: str, cells, i: int, column: str) -> InputError:
    return InputError(f"{message}, got {cells[i]!r} (row {i + 2}, column {column})")


def ref_floats(cells, column: str) -> np.ndarray:
    values = []
    for i, cell in enumerate(cells):
        if cell.strip().lower() in ("", "na"):
            values.append(math.nan)
            continue
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or "_" in cell or not cell.isascii():
            raise cell_error(UNPARSEABLE, cells, i, column)
        values.append(value)
    return np.array(values, dtype=np.float64)


def ref_codes(cells, column: str, codes: dict, message: str) -> np.ndarray:
    values = np.array([codes.get(cell.strip(), -1) for cell in cells], dtype=np.int8)
    if (values < 0).any():
        raise cell_error(message, cells, int(np.argmax(values < 0)), column)
    return values


def ref_counts(cells, column: str) -> np.ndarray:
    values = [
        int(cell) if cell.isascii() and cell.isdigit() and len(cell) < 19 else -1
        for cell in map(str.strip, cells)
    ]
    if min(values, default=0) < 0:
        raise cell_error(
            "covariate must be a non-negative integer", cells, values.index(-1), column
        )
    return np.array(values, dtype=np.int64)


BINARY = {"0": 0, "1": 1}


def ref_panel_columns(table, mapping: ColumnMapping):
    require_columns(table, (mapping.id, mapping.treatment, mapping.y1, mapping.y2))
    require_columns(
        table, mapping.aux_indicators + mapping.aux_variables + mapping.covariates,
        "declared columns",
    )
    n = len(table[mapping.id])
    aux = [
        ref_codes(table[k], k, BINARY, "auxiliary indicator column must contain only 0/1")
        for k in mapping.aux_indicators
    ]
    aux += [~np.isnan(ref_floats(table[k], k)) for k in mapping.aux_variables]
    x = [ref_counts(table[k], k) for k in mapping.covariates]
    d = ref_codes(table[mapping.treatment], mapping.treatment, BINARY, "treatment must be 0 or 1")
    y1 = ref_floats(table[mapping.y1], mapping.y1)
    y2 = ref_floats(table[mapping.y2], mapping.y2)
    return (
        tuple(map(str.strip, table[mapping.id])), d, y1, y2,
        np.column_stack(aux).astype(np.int8) if aux else np.zeros((n, 0), dtype=np.int8),
        np.column_stack(x) if x else None,
    )


def ref_table(raw: bytes, what: str):
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:  # named by its offset in the whole source
        raise InputError(
            f"malformed CSV: 'utf-8' codec can't decode byte 0x{raw[exc.start]:02x} "
            f"at byte {exc.start}: {exc.reason}"
        ) from exc
    return reference_read_table(text, what)


def ref_load_panel(raw: bytes, schema: ColumnMapping | None) -> PanelDataset:
    table = ref_table(raw, "dataset")
    mapping = schema if schema is not None else ColumnMapping.detect(list(table))
    ids, d, y1, y2, aux, x = ref_panel_columns(table, mapping)
    return PanelDataset(d, y1, y2, aux=aux, x=x, unit_ids=ids)


def ref_load_oracle(raw: bytes) -> dict:
    table = ref_table(raw, "oracle table")
    require_columns(table, ("id", "d", "y1", "y2") + LATENT)
    ids, d, y1, y2, aux, x = ref_panel_columns(table, ColumnMapping.detect(list(table)))
    if not ids:
        raise InputError("empty oracle table")
    codes = {label: code for code, label in enumerate(STRATUM_LABELS)}
    s = ref_codes(table["s"], "s", codes, "unknown stratum label")
    latent = []
    for name in LATENT[1:]:
        values = ref_floats(table[name], name)
        if np.isnan(values).any():
            raise cell_error(
                "latent outcome must not be missing", table[name],
                int(np.argmax(np.isnan(values))), name,
            )
        latent.append(values)
    y1_true, y2_1, y2_0 = latent
    pair = np.array(STRATUM_PAIRS, dtype=np.int8)
    r2 = np.where(d == 1, pair[s, 0], pair[s, 1]).astype(bool)
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
    return {"ids": ids, "d": d, "y1": y1, "y2": y2, "aux": aux, "x": x, "s": s,
            "y1_true": y1_true, "y2_1": y2_1, "y2_0": y2_0}


# -- generated tables that cross chunk boundaries ---------------------------------

#: Cells that break one column's grammar or another's, or only look odd.
ODD_CELLS = [
    "x", "nan", "inf", "-inf", "1_0", "2", "-1", " 7", " 1 ", "1.5", "", "NA", " na ",
    "AR", "ZZ", "١", "1e999", '"', "0 ", "1" * 20, "a,b", "line\nbreak",
]


def number(rnd: random.Random) -> str:
    return rnd.choice([repr(rnd.gauss(0, 3)), str(rnd.randint(-9, 9)), " 2.5 ", "-3e2"])


def missing(rnd: random.Random) -> str:
    return rnd.choice(["NA", "", "na", " NA "])


@st.composite
def tables(draw, oracle: bool):
    """CSV bytes of a panel or oracle table with 0-700 rows and its faults.

    Rows end in LF or CRLF, cells are sometimes all quoted, blank lines fall
    anywhere; faults are odd cells in any column, ragged rows, a missing or
    duplicate header name, a stray quote at the end, or undecodable bytes
    late in the file.
    """
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.sampled_from([0, 1, 255, 256, 257, 511, 512, 513]) | st.integers(0, 700))
    n_aux, n_x = draw(st.integers(0, 2)), draw(st.integers(0, 1))
    n_w = 0 if oracle else draw(st.integers(0, 1))
    header = ["id", "d", "y1", "y2"] + [f"aux{k + 1}" for k in range(n_aux)]
    header += [f"w{k + 1}" for k in range(n_w)] + [f"x{j + 1}" for j in range(n_x)]
    header += list(LATENT) if oracle else []
    rows = []
    for i in range(n):
        d, s = rnd.randint(0, 1), rnd.randint(0, 3)
        y1_true, y2_1, y2_0 = number(rnd), number(rnd), number(rnd)
        if oracle:
            y1 = y1_true if rnd.random() < 0.8 else missing(rnd)
            y2 = (y2_1 if d else y2_0) if STRATUM_PAIRS[s][1 - d] else missing(rnd)
        else:
            y1 = number(rnd) if rnd.random() < 0.8 else missing(rnd)
            y2 = number(rnd) if rnd.random() < 0.7 else missing(rnd)
        row = [rnd.choice([str(i + 1), f" u{i} ", f"u,{i}"]), str(d), y1, y2]
        row += [rnd.choice("01") for _ in range(n_aux)]
        row += [number(rnd) if rnd.random() < 0.5 else missing(rnd) for _ in range(n_w)]
        row += [str(rnd.randint(0, 3)) for _ in range(n_x)]
        row += [STRATUM_LABELS[s], y1_true, y2_1, y2_0] if oracle else []
        rows.append(row)
    for _ in range(rnd.choice([0, 0, 1, 2, 3])):  # odd cells
        if rows:
            rows[rnd.randrange(n)][rnd.randrange(len(header))] = rnd.choice(ODD_CELLS)
    if rows and rnd.random() < 0.1:  # a ragged row
        i = rnd.randrange(n)
        rows[i] = rows[i][:-1] if rnd.random() < 0.5 else rows[i] + ["1"]
    fault = rnd.randrange(24)
    if fault == 0:  # a missing column
        header[rnd.randrange(len(header))] = "zz"
    elif fault == 1 and len(header) > 4:  # a duplicate name
        header[-1] = header[1]
    buffer = io.StringIO()
    writer = csv.writer(
        buffer,
        lineterminator=rnd.choice(["\n", "\r\n"]),
        quoting=rnd.choice([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
    )
    lines = []
    for row in [header] + rows:
        writer.writerow(row)
        lines.append(buffer.getvalue())
        buffer.seek(0)
        buffer.truncate()
    for _ in range(rnd.randrange(5)):
        lines.insert(rnd.randrange(len(lines) + 1), "\n")
    raw = "".join(lines).encode()
    if fault == 2:
        raw += b'a,"b\n'
    elif fault == 3:  # undecodable bytes near the end
        at = max(0, len(raw) - rnd.randrange(1, 64))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def same_error(load, reference) -> bool:
    """Run ``reference``; if it raises, ``load`` must raise the same message."""
    try:
        reference()
    except InputError as exc:
        with pytest.raises(InputError) as got:
            load()
        assert str(got.value) == str(exc)
        return True
    return False


SCHEMAS = [None, None, None, ColumnMapping(id="d"), ColumnMapping(y1="y2", y2="y2")]


@given(tables(oracle=False), st.sampled_from(SCHEMAS))
@settings(deadline=None, max_examples=150)
def test_load_panel_matches_the_whole_column_parse(raw, schema):
    if same_error(lambda: load_panel(raw, schema), lambda: ref_load_panel(raw, schema)):
        return
    want, got = ref_load_panel(raw, schema), load_panel(raw, schema)
    for name in ("d", "y1", "y2", "aux"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
    assert (got.x is None) == (want.x is None)
    assert got.x is None or np.array_equal(got.x, want.x)
    assert got.unit_ids == want.unit_ids


@given(tables(oracle=True))
@settings(deadline=None, max_examples=150)
def test_load_oracle_matches_the_whole_column_parse(raw):
    if same_error(lambda: load_oracle(raw), lambda: ref_load_oracle(raw)):
        return
    want, got = ref_load_oracle(raw), load_oracle(raw)
    for name in ("d", "y1", "y2", "aux", "s", "y1_true", "y2_1", "y2_0"):
        assert np.array_equal(getattr(got, name), want[name], equal_nan=True), name
        assert getattr(got, name).dtype == want[name].dtype, name
    assert (got.x is None) == (want["x"] is None)
    assert got.x is None or np.array_equal(got.x, want["x"])
    assert got.unit_ids == want["ids"]


def test_undecodable_bytes_late_in_a_file_win_over_every_other_fault(tmp_path):
    rows = "".join(f"{i},{i % 2},oops,1,ZZ,1,1,1\n" for i in range(1, 1000))
    path = tmp_path / "oracle.csv"
    path.write_bytes(b"id,d,y1,y2,s,y1_true,y2_1\n" + rows.encode() + b"1000,0,\xff,1\n")
    with pytest.raises(InputError, match=r"^malformed CSV: 'utf-8' codec can't decode"):
        load_oracle(path)


@pytest.mark.parametrize("first_row", ["1,0,1.0,2.0\n", "x" * 200 + ",0,1.0,2.0\n"])
def test_an_undecodable_byte_is_named_by_its_offset_in_the_source(tmp_path, first_row):
    # the second case's first id is longer than the lowered field limit, which
    # csv refuses: the undecodable byte is still the fault reported
    rows = "".join(f"{i},{i % 2},{i}.5,{i % 3}\n" for i in range(2, 30_000))
    raw = f"id,d,y1,y2\n{first_row}{rows}".encode() + b"30000,1,\xff,0\n"
    path = tmp_path / "late.csv"
    path.write_bytes(raw)
    at = raw.index(b"\xff")
    message = f"malformed CSV: 'utf-8' codec can't decode byte 0xff at byte {at}: invalid start byte"
    limit = csv.field_size_limit(100)
    try:
        for source in (path, raw, io.BytesIO(raw)):
            with pytest.raises(InputError) as got:
                load_panel(source)
            assert str(got.value) == message, type(source)
    finally:
        csv.field_size_limit(limit)


def test_a_text_file_whose_decoder_fails_is_an_input_error():
    handle = io.TextIOWrapper(io.BytesIO(b"id,d,y1,y2\n1,0,\xff,1\n"), encoding="utf-8")
    with pytest.raises(InputError, match=r"^malformed CSV: 'utf-8' codec can't decode byte 0xff"):
        load_panel(handle)


def test_a_column_that_is_both_missing_and_unparseable_reports_the_unparseable_cell():
    text = "id,d,y1,y2,s,y1_true,y2_1,y2_0\n1,0,1,1,AR,NA,1,1\n" + "".join(
        f"{i},0,1,1,AR,1,1,1\n" for i in range(2, 600)
    ) + "600,0,1,1,AR,oops,1,1\n"
    message = r"^unparseable numeric.*got 'oops' \(row 601, column y1_true\)$"
    with pytest.raises(InputError, match=message):
        load_oracle(text.encode())


# -- the writer -----------------------------------------------------------------


def reference_write(data, latent: bool) -> str:
    """The writer as whole ``.tolist()`` columns, NaN as NA in y1 and y2."""

    def float_cells(values):
        cells = values.tolist()
        for i in np.flatnonzero(np.isnan(values)).tolist():
            cells[i] = "NA"
        return cells

    n_aux = data.aux.shape[1]
    n_x = 0 if data.x is None else data.x.shape[1]
    header = ["id", "d", "y1", "y2"] + [f"aux{k + 1}" for k in range(n_aux)]
    header += [f"x{j + 1}" for j in range(n_x)]
    columns = [data.unit_ids, data.d.tolist(), float_cells(data.y1), float_cells(data.y2)]
    columns += [data.aux[:, k].tolist() for k in range(n_aux)]
    columns += [data.x[:, j].tolist() for j in range(n_x)]
    if latent:
        header += list(LATENT)
        columns += [[STRATUM_LABELS[c] for c in data.s.tolist()], data.y1_true.tolist(),
                    data.y2_1.tolist(), data.y2_0.tolist()]
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(zip(*columns))
    return buffer.getvalue()


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1000])
@pytest.mark.parametrize("ids", [False, True])
@pytest.mark.parametrize("extra", [False, True])  # NaN outcomes, aux and x columns
def test_writer_is_byte_identical_to_the_whole_column_writer(n, ids, extra):
    rng = np.random.default_rng(n)
    unit_ids = tuple(f" u,{i}\n" for i in range(n)) if ids else None
    y1, y2 = rng.normal(size=n) * 1e3, rng.normal(size=n) / 7
    if extra:
        y1[rng.random(n) < 0.2] = np.nan
        y2[rng.random(n) < 0.3] = np.nan
    aux = rng.integers(0, 2, size=(n, 2 if extra else 0)).astype(np.int8)
    x = rng.integers(0, 10**18, size=(n, 1)) if extra else None
    d = rng.integers(0, 2, size=n).astype(np.int8)
    data = PanelDataset(d, y1, y2, aux=aux, x=x, unit_ids=unit_ids, _validate=False)
    s = rng.integers(0, 4, size=n).astype(np.int8)
    pair = np.array(STRATUM_PAIRS, dtype=np.int8)
    y1_true, y2_1, y2_0 = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
    r1 = rng.integers(0, 2, size=n).astype(bool)
    oracle = OraclePanel(
        d=d, y1=np.where(r1, y1_true, np.nan),
        y2=np.where(pair[s, 1 - d] == 1, np.where(d == 1, y2_1, y2_0), np.nan),
        aux=aux, x=x, s=s, y1_true=y1_true, y2_1=y2_1, y2_0=y2_0, unit_ids=unit_ids,
    )
    panel_text, oracle_text = io.StringIO(), io.StringIO()
    save_panel(data, panel_text)  # before the reference, which builds default ids
    save_oracle(oracle, oracle_text)
    assert panel_text.getvalue() == reference_write(data, latent=False)
    assert oracle_text.getvalue() == reference_write(oracle, latent=True)


#: Text cells the writer must quote as csv.writer does, or must leave alone. NUL
#: is left out: csv.writer refuses it before Python 3.11, and csv.reader too.
TEXT = st.text(
    st.sampled_from([",", '"', "\r", "\n", " ", "é", "中", "😀", "a", "1"])
    | st.characters(min_codepoint=1, max_codepoint=0x2FF),
    max_size=6,
)

#: NaNs whose sign or payload differ from numpy's default NaN.
NANS = [struct.unpack("<d", struct.pack("<Q", bits))[0]
        for bits in (0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001)]

FLOATS = st.floats() | st.sampled_from(
    [math.nan, -0.0, 0.0, 5e-324, 2.2e-308, 1.7976931348623157e308] + NANS
)


#: The cells of each kind of column the writer takes.
WRITTEN_CELLS = {
    "f": FLOATS,
    "i8": st.integers(0, 1),
    "i64": st.integers(10**18 - 5, 10**18) | st.integers(-(2**63), 2**63 - 1),
    "ids": TEXT,
    "labels": st.sampled_from(STRATUM_LABELS),
}


@st.composite
def written_tables(draw):
    """A header and 1-6 columns of every kind the writer takes, 0-257 rows.

    Each column repeats a few drawn cells in a drawn order, so that long
    columns cost few draws. A "shared" float column holds an earlier float
    column's bits in a drawn share of its rows, and their negation (-0.0
    for 0.0, a NaN of the other sign) in a few rows and wherever that column
    holds a zero. With no earlier float column, one a third zeros is added.
    """
    n = draw(st.sampled_from([0, 1, 255, 256, 257]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    kinds = [*WRITTEN_CELLS, "range", "shared f"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6)):
        if kind == "range":
            columns.append(range(1, n + 1))
            continue
        pool = draw(st.lists(WRITTEN_CELLS[kind.removeprefix("shared ")], min_size=1, max_size=8))
        cells = [pool[i] for i in rng.integers(len(pool), size=n)]
        if kind == "shared f":
            earlier = [c for c in columns if isinstance(c, np.ndarray) and c.dtype.kind == "f"]
            if not earlier:  # one to share with, a third of it zeros
                earlier = [np.where(np.arange(n) % 3 == 0, 0.0, np.array(cells, dtype=np.float64))]
                columns += earlier
            share = draw(st.sampled_from([0.1, 0.19, 0.2, 0.21, 0.5, 1.0]))
            column = np.where(rng.random(n) < share, earlier[-1], np.array(cells, dtype=np.float64))
            columns.append(np.where((earlier[-1] == 0) | (rng.random(n) < 0.05), -column, column))
            continue
        if kind == "ids":
            columns.append(tuple(cells))
        else:
            dtype = {"f": np.float64, "i8": np.int8, "i64": np.int64, "labels": object}[kind]
            columns.append(np.array(cells, dtype=dtype))
    header = draw(st.lists(TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


@given(written_tables(), st.data())
@settings(deadline=None, max_examples=150)
def test_the_writer_is_byte_identical_to_csv_writer(table, data):
    header, columns = table
    text = io.StringIO()
    write_table(text, header, columns)
    assert text.getvalue() == reference_write_table(header, columns)
    # several destinations of the same rows: each gets what writing its columns alone gives
    widths = data.draw(st.lists(st.integers(1, len(columns)), min_size=1, max_size=3))
    texts = [io.StringIO() for _ in widths]
    write_tables(list(zip(texts, widths)), header, columns)
    for text, k in zip(texts, widths):
        assert text.getvalue() == reference_write_table(header[:k], columns[:k]), k


@given(st.lists(st.sampled_from(["0", "1", "", " ", "01", "10", "2", "é", " 1", "1 "]), max_size=300))
@settings(deadline=None, max_examples=150)
def test_one_character_labels_parse_as_the_cell_by_cell_lookup(cells):
    # the byte lookup takes a chunk only when each cell is one character
    values, (first,) = binary("d must be 0 or 1").parse(tuple(cells))
    want = np.array([{"0": 0, "1": 1}.get(cell.strip(), -1) for cell in cells], dtype=np.int8)
    assert values.dtype == np.int8 and np.array_equal(values, want)
    assert first == (int(np.argmax(want < 0)) if (want < 0).any() else None)


@given(st.lists(st.sampled_from(["0", "7", "9", "٣", " 1", "1 ", "", "10", "x"]), max_size=600))
@settings(deadline=None, max_examples=150)
def test_one_digit_counts_parse_as_the_cell_by_cell_parse(cells):
    # a chunk of one-digit cells is read byte by byte; any other cell by cell
    text = "id,d,y1,y2,x1\n" + "".join(f"{i},{i % 2},1,2,{c}\n" for i, c in enumerate(cells))
    raw = text.encode()
    if same_error(lambda: load_panel(raw), lambda: ref_load_panel(raw, None)):
        return
    assert np.array_equal(load_panel(raw).x, ref_load_panel(raw, None).x)


@given(st.lists(st.sampled_from(list(STRATUM_LABELS) + [" AR", "NR ", " ITR ", "ar", "XX", ""]),
                min_size=1, max_size=600))
@settings(deadline=None, max_examples=150)
def test_stratum_labels_parse_as_the_stripped_cell_lookup(cells):
    # a label is stripped only when it is not a key as it is
    rows = []
    for i, s in enumerate(cells):
        label = s.strip()
        pair = STRATUM_PAIRS[STRATUM_LABELS.index(label)] if label in STRATUM_LABELS else (1, 1)
        rows.append(f"{i},{i % 2},1,{2 if pair[1 - i % 2] else 'NA'},{s},1,2,2\n")
    raw = ("id,d,y1,y2,s,y1_true,y2_1,y2_0\n" + "".join(rows)).encode()
    if same_error(lambda: load_oracle(raw), lambda: ref_load_oracle(raw)):
        return
    assert np.array_equal(load_oracle(raw).s, ref_load_oracle(raw)["s"])


def test_an_unwritable_path_is_an_input_error(tmp_path):
    data = simulate_panel(make_preset("zero-bias", n=50, seed=1))[0]
    with pytest.raises(InputError, match=r"^cannot write .*absent.x\.csv: No such file"):
        save_panel(data, tmp_path / "absent" / "x.csv")
    with pytest.raises(InputError, match="^cannot write "):
        save_panel(data, tmp_path)


def test_a_path_is_written_in_utf8_under_an_ascii_locale(tmp_path):
    # the readers decode UTF-8 whatever the locale; the writer must encode it
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from didmiss import PanelDataset, load_panel, save_panel\n"
        "data = PanelDataset(np.array([1, 0]), np.zeros(2), np.ones(2), unit_ids=('\\xe9', 'b'))\n"
        "save_panel(data, sys.argv[1])\n"
        "print(ascii(load_panel(sys.argv[1]).unit_ids))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.update(PYTHONCOERCECLOCALE="0", LC_ALL="C")
    env.pop("PYTHONUTF8", None)
    path = tmp_path / "panel.csv"
    done = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-c", script, str(path)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "('\\xe9', 'b')\n"
    assert path.read_bytes().splitlines()[1].startswith("\u00e9,".encode())

def test_the_writer_refuses_columns_of_different_lengths_before_opening_a_file(tmp_path):
    n = 6
    latent = np.zeros(n)
    oracle = OraclePanel(
        d=np.array([0, 1] * 3, dtype=np.int8), y1=latent, y2=latent, aux=None, x=None,
        s=np.zeros(n, dtype=np.int8), y1_true=latent, y2_1=latent, y2_0=latent,
        unit_ids=("a", "b", "c"),
    )
    path = tmp_path / "oracle.csv"
    path.write_text("kept\n")
    with pytest.raises(InputError, match="^column d has 6 rows, column id has 3$"):
        save_oracle(oracle, path)
    assert path.read_text() == "kept\n"


def test_the_writer_refuses_a_header_that_does_not_name_every_column():
    column, buffer = np.arange(3.0), io.StringIO()
    with pytest.raises(InputError, match="^header has 3 names for 2 columns$"):
        write_table(buffer, ["a", "b", "c"], [column, column])
    assert buffer.getvalue() == ""


# -- memory ------------------------------------------------------------------------


def test_load_oracle_holds_about_its_typed_columns(tmp_path):
    # every cell string freed with its chunk: the peak stays near the parsed
    # arrays and ids, where holding all raw cells first takes several times that
    _, oracle, _ = simulate_panel(make_preset("monotone", n=20_000, seed=5))
    path = tmp_path / "oracle.csv"
    save_oracle(oracle, path)
    tracemalloc.start()
    try:
        loaded = load_oracle(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = ("d", "y1_true", "y2_1", "y2_0", "s", "r1", "aux")
    parsed = sum(getattr(loaded, name).nbytes for name in arrays)
    ids = loaded.unit_ids
    parsed += sys.getsizeof(ids) + sum(map(sys.getsizeof, ids))
    assert peak < 3 * parsed, (peak, parsed)


@pytest.mark.parametrize("load", [load_panel, load_oracle], ids=["panel", "oracle"])
def test_a_load_keeps_its_ids_in_a_few_bytes_per_row(tmp_path, load):
    # ids are one text and its end offsets, about 13 bytes a row beyond the
    # typed arrays, where a str object and a tuple slot per id take about 62
    n = 20_000
    _, oracle, _ = simulate_panel(make_preset("monotone", n=n, seed=5))
    path = tmp_path / "table.csv"
    (save_panel if load is load_panel else save_oracle)(oracle, path)
    load(path)  # what a first load caches belongs to no table
    tracemalloc.start()
    try:
        loaded = load(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    names = ("d", "y1", "y2", "r1", "r2", "aux", "x", "s", "y1_true", "y2_1", "y2_0")
    arrays = [getattr(loaded, name, None) for name in names]
    typed = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    assert held - typed < 20 * n, (held - typed) / n


@pytest.mark.parametrize("kind", ["bytes", "binary file", "text file"])
def test_content_sources_are_read_without_a_copy_of_their_text(kind):
    # the content and its decoded text, plus the parsed columns; copying the
    # text into an io.StringIO peaked at about five times the content
    data, _, _ = simulate_panel(make_preset("homogeneous-bias", n=20_000, seed=1))
    buffer = io.StringIO()
    save_panel(data, buffer)
    text = buffer.getvalue()
    raw = text.encode()
    source = {"bytes": lambda: raw, "binary file": lambda: io.BytesIO(raw),
              "text file": lambda: io.StringIO(text)}[kind]
    load_panel(source())  # what a first load caches belongs to no table
    handle = source()
    tracemalloc.start()
    try:
        load_panel(handle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(raw), peak / len(raw)

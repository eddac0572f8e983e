"""Property-based invariants across the estimators and data layer."""

from __future__ import annotations

import csv
import functools
import io
import math
import random
import tempfile
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from didmiss import (
    STRATUM_PAIRS,
    AuxModel,
    BootstrapConfig,
    BoundResult,
    Cell,
    DgpSpec,
    OraclePanel,
    PanelDataset,
    R1Model,
    RateTable,
    att_ar_bounds,
    att_iv,
    att_iv_multi,
    att_principal_ignorability,
    bootstrap_bounds,
    bootstrap_ci,
    compute_rates,
    did_complete_case,
    load_oracle,
    load_panel,
    make_preset,
    save_oracle,
    save_panel,
    simulate_panel,
    strata_proportions_bounds,
    strata_proportions_monotone,
    strip_missingness,
    trimmed_mean,
)
from didmiss.errors import DidMissError, InputError
from didmiss.simulate import _expected_counts
from didmiss import table
from didmiss.table import Parser, read_columns

from _helpers import (
    TIED_TRIM_CSV,
    brute_trimmed_mean,
    make_panel,
    reference_expected_counts,
    reference_population,
    reference_read_table,
    reference_strip_missingness,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False)


@st.composite
def panels(draw, min_cc_per_arm: int = 1, n_aux: int = 0):
    """Random two-arm panel with missingness; complete cases by construction."""
    rows = []
    for arm in (0, 1):
        n_rows = min_cc_per_arm + draw(st.integers(min_value=0, max_value=14))
        for i in range(n_rows):
            y1, y2 = draw(finite), draw(finite)
            if i >= min_cc_per_arm:  # only the guaranteed rows stay complete
                if draw(st.booleans()):
                    y1 = math.nan
                if draw(st.booleans()):
                    y2 = math.nan
            aux_vals = tuple(draw(st.integers(0, 1)) for _ in range(n_aux))
            rows.append((arm, y1, y2) + aux_vals)
    d = np.array([r[0] for r in rows], dtype=np.int8)
    y1 = np.array([r[1] for r in rows])
    y2 = np.array([r[2] for r in rows])
    aux = np.array([r[3:] for r in rows], dtype=np.int8) if n_aux else None
    return make_panel(d, y1, y2, aux=aux)


@st.composite
def iv_ready_panels(draw):
    """Panels on which the single-instrument estimator succeeds by construction.

    Each arm gets complete cases at both instrument levels and distinct
    second-wave response rates across levels, so no cell is empty and the
    correction denominator is bounded away from zero.
    """
    rows = []
    for arm in (0, 1):
        level_rates = []
        for v in (0, 1):
            n_cc = draw(st.integers(min_value=1, max_value=4))
            n_obs1_only = draw(st.integers(min_value=0, max_value=3))
            level_rates.append(Fraction(n_obs1_only, n_cc + n_obs1_only))
            for _ in range(n_cc):
                rows.append((arm, draw(finite), draw(finite), v))
            for _ in range(n_obs1_only):
                rows.append((arm, draw(finite), math.nan, v))
        assume(level_rates[0] != level_rates[1])
    d = np.array([r[0] for r in rows], dtype=np.int8)
    y1 = np.array([r[1] for r in rows])
    y2 = np.array([r[2] for r in rows])
    aux = np.array([[r[3]] for r in rows], dtype=np.int8)
    return make_panel(d, y1, y2, aux=aux)


# -- data layer ---------------------------------------------------------------


@given(panels())
@settings(deadline=None, max_examples=60)
def test_rates_are_exactly_duplication_invariant(data):
    doubled = PanelDataset(
        np.concatenate([data.d, data.d]),
        np.concatenate([data.y1, data.y1]),
        np.concatenate([data.y2, data.y2]),
    )
    a, b = compute_rates(data), compute_rates(doubled)
    assert a.p_r1 == b.p_r1
    assert a.p_r2 == b.p_r2
    assert a.p_r2_given_r1 == b.p_r2_given_r1


@given(panels(n_aux=2))
@settings(deadline=None, max_examples=40)
def test_csv_round_trip_is_exact(data):
    buffer = io.StringIO()
    save_panel(data, buffer)
    reloaded = load_panel(buffer.getvalue().encode())
    for name in ("d", "y1", "y2", "aux"):
        assert np.array_equal(getattr(reloaded, name), getattr(data, name), equal_nan=True)
    assert reloaded.unit_ids == data.unit_ids


@st.composite
def oracle_panels(draw):
    """Random consistent oracle: any finite outcomes, strata, ids, aux and covariates."""
    n = draw(st.integers(min_value=1, max_value=12))
    n_aux = draw(st.integers(min_value=0, max_value=2))
    n_x = draw(st.integers(min_value=0, max_value=2))
    any_float = st.floats(allow_nan=False, allow_infinity=False)
    s = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int8)
    pair = np.array(STRATUM_PAIRS, dtype=np.int8)
    ids = st.text(alphabet='ab1,"\n ', max_size=4).map(str.strip)
    d = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
    y1_true = np.array(draw(st.lists(any_float, min_size=n, max_size=n)))
    y2_1 = np.array(draw(st.lists(any_float, min_size=n, max_size=n)))
    y2_0 = np.array(draw(st.lists(any_float, min_size=n, max_size=n)))
    r1 = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=bool)
    r2 = pair[s, 1 - d].astype(bool)
    return OraclePanel(
        d=d,
        y1=np.where(r1, y1_true, np.nan),
        y2=np.where(r2, np.where(d == 1, y2_1, y2_0), np.nan),
        s=s,
        y1_true=y1_true,
        y2_1=y2_1,
        y2_0=y2_0,
        aux=np.array(
            draw(st.lists(st.lists(st.integers(0, 1), min_size=n_aux, max_size=n_aux),
                          min_size=n, max_size=n)),
            dtype=np.int8,
        ).reshape(n, n_aux),
        x=None if n_x == 0 else np.array(
            draw(st.lists(st.lists(st.integers(0, 10**18 - 1), min_size=n_x, max_size=n_x),
                          min_size=n, max_size=n)),
            dtype=np.int64,
        ),
        unit_ids=tuple(draw(st.lists(ids, min_size=n, max_size=n))),
    )


def chunk_spanning_oracle() -> OraclePanel:
    """A 700-unit oracle whose ids change width across the reader's 256-row
    chunks (ASCII, then é, then an astral character) and hold inner spaces,
    a quoted comma, a line break and a tab; every 97th id is empty."""
    o = simulate_panel(make_preset("monotone", n=700, seed=1))[1]
    marks = ("u", "é", "\U0001d518")
    ids = tuple(
        "" if i % 97 == 0 else f'{marks[i // 256]}{i} , "x"\r\n\t{i % 7}' for i in range(700)
    )
    return OraclePanel(o.d, o.y1, o.y2, o.aux, o.x, o.s, o.y1_true, o.y2_1, o.y2_0, unit_ids=ids)


@given(oracle_panels())
@example(chunk_spanning_oracle())
@settings(deadline=None, max_examples=60)
def test_oracle_csv_round_trip_is_exact(oracle):
    buffer = io.StringIO()
    save_oracle(oracle, buffer)
    reloaded = load_oracle(buffer.getvalue().encode())
    again = io.StringIO()
    save_oracle(reloaded, again)  # from the loaded id column, before unit_ids builds a tuple
    assert again.getvalue() == buffer.getvalue()
    for name in ("d", "y1", "y2", "y1_true", "y2_1", "y2_0", "s", "r1", "aux"):
        want, got = getattr(oracle, name), getattr(reloaded, name)
        assert np.array_equal(got, want, equal_nan=True), name
        assert got.dtype == want.dtype, name
    assert (reloaded.x is None) == (oracle.x is None)
    assert oracle.x is None or np.array_equal(reloaded.x, oracle.x)
    assert reloaded.unit_ids == oracle.unit_ids
    assert reloaded.records == oracle.records


@st.composite
def csv_texts(draw):
    """CSV text crossing the reader's chunk boundaries, with the faults it must name.

    Cells hold commas, quotes, CR, LF and spaces; rows end in LF or CRLF; blank
    lines fall anywhere; some texts have no header row, a ragged row, a
    duplicate header name, or raw text with a stray quote or CR appended.
    """
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))  # cell text
    n_rows = draw(st.integers(min_value=0, max_value=700))
    width = draw(st.integers(min_value=1, max_value=4))
    header = [f" c{k} " for k in range(width)]
    if width > 1 and draw(st.integers(0, 3)) == 0:
        header[-1] = "c0"
    tokens = ["a", "b", "1", ".", ",", '"', "\n", "\r\n", " ", "-"]
    cell = lambda: "".join(rnd.choice(tokens) for _ in range(rnd.randrange(5)))
    rows = [[cell() for _ in range(width)] for _ in range(n_rows)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        if rows:
            i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            rows[i] = rows[i][: draw(st.integers(0, width - 1))] or [cell()] * (width + 1)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    lines = []
    for row in [header] + rows:
        writer.writerow(row)
        lines.append(buffer.getvalue())
        buffer.seek(0)
        buffer.truncate()
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), "\n")
    if draw(st.sampled_from([False] * 19 + [True])):  # blank lines only: no header row
        lines = [line for line in lines if line == "\n"]
    tail = draw(st.sampled_from(["", "", "", 'x"y\n', 'a,"b\n', "a\rb,1\n", '"open']))
    return "".join(lines) + tail


#: Each cell as it is, so ``read_columns`` returns the raw cells of every column.
RAW = Parser(lambda cells: (tuple(cells), ()))


def read_table(source, what: str) -> dict[str, tuple[str, ...]]:
    header, columns = read_columns(source, what, lambda header: [(name, RAW) for name in header])
    return dict(zip(header, columns))


@given(csv_texts())
@settings(deadline=None, max_examples=120)
def test_read_table_matches_a_whole_table_transposition(text):
    try:
        want = reference_read_table(text, "table")
    except InputError as exc:
        with pytest.raises(InputError) as got:
            read_table(text.encode(), "table")
        assert str(got.value) == str(exc)
        return
    got = read_table(text.encode(), "table")
    assert list(got) == list(want)
    for name, cells in want.items():
        assert got[name] == cells, name


#: What ``csv.field_size_limit()`` is lowered to while plain texts are read.
LIMIT = 40

#: Cells that hand the rest of a text to ``csv.reader``, placed in a late row.
CSV_ONLY = ['"q"', 'a"b', '"open', "\0", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
            "\u2028", "\u2029", "x" * (LIMIT + 1), "y" * (LIMIT - 2)]


@st.composite
def plain_csv_texts(draw):
    """CSV text without a quote, or with one only in a late row.

    Lines end in LF, CRLF or a bare CR, or in a mix of them; blank lines fall
    anywhere; cells hold non-ASCII text; some texts start with a byte-order
    mark, have ragged rows (among them one a cell short and a later one a
    cell long), or have one cell in one of the last rows that ``csv`` reads
    differently from ``str.splitlines``: a quote, a NUL, a separator
    ``str.splitlines`` breaks at, or one cell or a whole line longer than
    ``LIMIT``.
    """
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))  # cell text
    n_rows = draw(st.integers(min_value=0, max_value=200))
    width = draw(st.integers(min_value=1, max_value=4))
    tokens = ["a", "1", ".", "-", " ", "\t", "é", "中", "😀"]
    cell = lambda: "".join(rnd.choice(tokens) for _ in range(rnd.randrange(6)))
    rows = [[f" c{k} " for k in range(width)]] + [
        [cell() for _ in range(width)] for _ in range(n_rows)
    ]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        rows[i] = rows[i][: draw(st.integers(0, width - 1))] or [cell()] * (width + 1)
    if width > 1 and len(rows) > 2 and draw(st.integers(0, 3)) == 0:  # cell counts still add up
        pair = st.lists(st.integers(1, len(rows) - 1), min_size=2, max_size=2, unique=True)
        i, j = sorted(draw(pair))
        rows[j].append(rows[i].pop())
    if draw(st.booleans()):
        i = max(0, len(rows) - 1 - draw(st.integers(0, 3)))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] += draw(st.sampled_from(CSV_ONLY))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r", None]))
    lines = [",".join(row) + (ending or rnd.choice(["\n", "\r\n", "\r"])) for row in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), ending or "\r\n")
    if draw(st.booleans()):  # no line break after the last row
        lines[-1] = lines[-1].rstrip("\r\n")
    return draw(st.sampled_from(["", "", "\ufeff"])) + "".join(lines)


@example("c0,c1\r\na,1\r\nb,2\r\n", 6)  # the second block starts with the LF of a CRLF
@example("c0,c1\na\nb,c,d\n", 1 << 16)  # a row short and one long, by the same cell
@example("id\n" + "u\n" * 40 + '"q"\n', 8)  # the quote is in the last block
@given(plain_csv_texts(), st.sampled_from([1, 6, 8, 29, 1 << 16]))
@settings(deadline=None, max_examples=200)
def test_plain_text_reads_as_a_whole_table_transposition_from_every_source(text, block):
    raw = text.encode()
    limit, default_block = csv.field_size_limit(LIMIT), table._BLOCK
    table._BLOCK = block
    try:
        try:
            want = reference_read_table(text.removeprefix("\ufeff"), "table")
        except InputError as exc:
            want = exc
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/table.csv"
            with open(path, "wb") as handle:
                handle.write(raw)
            for source in (path, raw, io.BytesIO(raw), io.StringIO(text, newline="")):
                if isinstance(want, InputError):
                    with pytest.raises(InputError) as got:
                        read_table(source, "table")
                    assert str(got.value) == str(want), type(source)
                else:
                    assert list(read_table(source, "table").items()) == list(want.items())
    finally:
        csv.field_size_limit(limit)
        table._BLOCK = default_block


# -- complete-case DID invariances ----------------------------------------------


@given(panels(), st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
@settings(deadline=None, max_examples=60)
def test_cc_did_ignores_common_outcome_shifts(data, c):
    base = did_complete_case(data).point
    shifted = make_panel(data.d, data.y1 + c, data.y2 + c)
    tol = 1e-9 * (1.0 + abs(c) + float(np.nanmax(np.abs(data.y1))) + abs(base))
    assert did_complete_case(shifted).point == pytest.approx(base, abs=tol)


@given(panels(), st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
@settings(deadline=None, max_examples=60)
def test_cc_did_is_scale_equivariant(data, a):
    base = did_complete_case(data).point
    scaled = make_panel(data.d, a * data.y1, a * data.y2)
    tol = 1e-9 * (1.0 + abs(a) * (1.0 + abs(base)))
    assert did_complete_case(scaled).point == pytest.approx(a * base, abs=tol)


@given(panels(), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=60)
def test_cc_did_is_permutation_invariant(data, rnd):
    order = np.array(rnd.sample(range(len(data)), len(data)))
    shuffled = make_panel(data.d[order], data.y1[order], data.y2[order])
    base = did_complete_case(data).point
    tol = 1e-9 * (1.0 + abs(base))
    assert did_complete_case(shuffled).point == pytest.approx(base, abs=tol)


@given(iv_ready_panels())
@settings(deadline=None, max_examples=60)
def test_iv_instrument_relabeling_is_exactly_neutral(data):
    a, _ = att_iv(data, 0)
    flipped = make_panel(data.d, data.y1, data.y2, aux=1 - data.aux)
    b, _ = att_iv(flipped, 0)
    assert a.point == b.point


# -- invariances of every estimator and of the bootstrap ---------------------------

#: Each estimator with the preset whose draws it is checked on.
ESTIMATORS = {
    "iv": ("homogeneous-bias", lambda p: att_iv(p, 0)),
    "iv-multi": ("multi-iv", lambda p: att_iv_multi(p, (0, 1))),
    "pi": ("pi", att_principal_ignorability),
    "bounds-monotone": ("monotone", lambda p: att_ar_bounds(p, "monotone")),
    "bounds-no-monotone": ("no-monotone", lambda p: att_ar_bounds(p, "no-monotone")),
}

#: y -> a*y + b with |a| in [0.1, 10] and |b| <= 100
slopes = st.floats(min_value=0.1, max_value=10.0) | st.floats(min_value=-10.0, max_value=-0.1)
shifts = st.floats(min_value=-100.0, max_value=100.0)


@functools.lru_cache(maxsize=None)
def preset_panel(kind: str, seed: int) -> PanelDataset:
    return simulate_panel(make_preset(kind, n=300, seed=seed))[0]


def rebuild(data, y1=None, y2=None, rows=None, support=None) -> PanelDataset:
    """``data`` with outcomes ``y1``, ``y2`` (default: its own), rows taken in
    the order ``rows`` and the declared ``support``."""
    rows = np.arange(len(data)) if rows is None else rows
    y1 = data.y1 if y1 is None else y1
    y2 = data.y2 if y2 is None else y2
    x = None if data.x is None else data.x[rows]
    return make_panel(data.d[rows], y1[rows], y2[rows], data.aux[rows], x, support)


def ends(result) -> list[float]:
    """[lb, ub] of a bound, or [point, point] of an estimate."""
    result = result[0] if isinstance(result, tuple) else result
    if isinstance(result, BoundResult):
        return [result.lb, result.ub]
    return [result.point, result.point]


def image(lo: float, hi: float, a: float) -> list[float]:
    """The ends of [lo, hi] scaled by ``a``: swapped when ``a`` is negative."""
    return sorted((a * lo, a * hi))


def assert_close(got: list[float], want: list[float], scale: float) -> None:
    """Equal within 1e-12 relative to each value, or to ``scale`` (the
    outcomes' magnitude) for a value near zero."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12, abs=1e-12 * scale)


def magnitude(data: PanelDataset) -> float:
    return float(np.nanmax(np.abs(np.concatenate([data.y1, data.y2]))))


@given(st.sampled_from(sorted(ESTIMATORS)), st.integers(0, 2), st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=30)
def test_a_unit_fixed_effect_leaves_every_result_unchanged(name, seed, effect_seed):
    kind, estimator = ESTIMATORS[name]
    data = preset_panel(kind, seed)
    c = np.random.default_rng(effect_seed).uniform(-100.0, 100.0, len(data))
    moved = rebuild(data, data.y1 + c, data.y2 + c)
    assert_close(_numbers(estimator(moved)), _numbers(estimator(data)), magnitude(moved))


@given(st.sampled_from(sorted(ESTIMATORS)), st.integers(0, 2), slopes, shifts)
@settings(deadline=None, max_examples=30)
def test_an_affine_outcome_map_scales_every_point(name, seed, a, b):
    kind, estimator = ESTIMATORS[name]
    data = preset_panel(kind, seed)
    mapped = rebuild(data, a * data.y1 + b, a * data.y2 + b)
    assert_close(ends(estimator(mapped)), image(*ends(estimator(data)), a), magnitude(mapped))


@given(panels(), st.sampled_from(["monotone", "no-monotone"]), slopes, shifts)
@settings(deadline=None, max_examples=40)
def test_bounds_map_with_their_declared_support(data, mode, a, b):
    hi = magnitude(data) + 1.0
    support = [v + b for v in image(-hi, hi, a)]
    mapped = rebuild(data, a * data.y1 + b, a * data.y2 + b, support=support)
    base = att_ar_bounds(rebuild(data, support=(-hi, hi)), mode)
    got = att_ar_bounds(mapped, mode)
    assert got.support_fallback == base.support_fallback
    assert_close(ends(got), image(base.lb, base.ub, a), abs(a) * hi + abs(b))


@given(st.sampled_from(sorted(ESTIMATORS)), st.integers(0, 2), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=30)
def test_permuting_or_duplicating_the_units_leaves_every_point_unchanged(name, seed, rnd):
    kind, estimator = ESTIMATORS[name]
    data = preset_panel(kind, seed)
    order = np.array(rnd.sample(range(len(data)), len(data)))
    want = ends(estimator(data))
    for rows in (order, np.concatenate([order, order])):
        assert_close(ends(estimator(rebuild(data, rows=rows))), want, magnitude(data))


@given(panels(n_aux=1), slopes, shifts, st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=40)
@example(  # complete cases whose y2 - y1 overflows: the rates read counts alone
    make_panel([0, 1, 0, 1], [-1.7e308, 0.5, 0.2, -1.7e308], [1.7e308, 2.5, math.nan, 1.7e308],
               aux=[[1], [0], [1], [1]]),
    1.0, 0.0, random.Random(0),
)
def test_response_rates_ignore_outcome_values_and_row_order(data, a, b, rnd):
    c = np.array([rnd.uniform(-100.0, 100.0) for _ in range(len(data))])
    order = np.array(rnd.sample(range(len(data)), len(data)))
    want = compute_rates(data)
    assert compute_rates(rebuild(data, data.y1 + c, data.y2 + c)) == want
    assert compute_rates(rebuild(data, a * data.y1 + b, a * data.y2 + b)) == want
    assert compute_rates(rebuild(data, rows=order)) == want
    doubled = compute_rates(rebuild(data, rows=np.concatenate([order, order])))
    assert doubled.n == (2 * want.n[0], 2 * want.n[1])
    assert replace(doubled, n=want.n) == want


#: Each bootstrapped handle (or bounds mode) with the preset it is checked on.
BOOTSTRAPPED = {
    "cc-did": "zero-bias",
    "iv": "homogeneous-bias",
    "pi": "pi",
    "monotone": "monotone",
    "no-monotone": "no-monotone",
}


@given(st.sampled_from(sorted(BOOTSTRAPPED)), st.integers(0, 2), slopes, shifts)
@settings(deadline=None, max_examples=25)
def test_bootstrap_intervals_scale_with_an_affine_outcome_map(handle, seed, a, b):
    """Resample indices depend only on (seed, replicate, n), so every
    replicate, and hence every percentile, maps with the outcomes."""
    data = preset_panel(BOOTSTRAPPED[handle], seed)
    mapped = rebuild(data, a * data.y1 + b, a * data.y2 + b)
    cfg = BootstrapConfig(replicates=30, seed=seed)
    if handle in ("monotone", "no-monotone"):
        base, boot = (bootstrap_bounds(p, handle, cfg) for p in (data, mapped))
        lb_ci, ub_ci, se_lb, se_ub = base.lb_ci, base.ub_ci, base.se_lb, base.se_ub
        if a < 0:  # the lower bound's replicates become the upper bound's
            lb_ci, ub_ci, se_lb, se_ub = ub_ci, lb_ci, se_ub, se_lb
        want = [
            *image(base.point.lb, base.point.ub, a),
            *image(lb_ci.lo, lb_ci.hi, a),
            *image(ub_ci.lo, ub_ci.hi, a),
            *image(base.outer.lo, base.outer.hi, a),
            abs(a) * se_lb,
            abs(a) * se_ub,
        ]
        got = [
            boot.point.lb, boot.point.ub, boot.lb_ci.lo, boot.lb_ci.hi,
            boot.ub_ci.lo, boot.ub_ci.hi, boot.outer.lo, boot.outer.hi, boot.se_lb, boot.se_ub,
        ]
        assert boot.replicates_failed == base.replicates_failed
    else:
        base, boot = (bootstrap_ci(p, handle, cfg) for p in (data, mapped))
        want = [a * base.point, *image(base.ci.lo, base.ci.hi, a), abs(a) * base.se]
        got = [boot.point, boot.ci.lo, boot.ci.hi, boot.se]
        assert boot.notes == base.notes
    assert_close(got, want, magnitude(mapped))


# -- trimmed mean ------------------------------------------------------------------


values_lists = st.lists(finite, min_size=1, max_size=12)
keeps = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@given(values_lists, keeps, st.sampled_from(["bottom", "top"]))
@settings(deadline=None, max_examples=200)
def test_trimmed_mean_matches_independent_oracle(values, keep, side):
    got = trimmed_mean(values, keep, side)
    want = brute_trimmed_mean(values, keep, side)
    assert got == pytest.approx(want, abs=1e-9 * (1.0 + max(abs(v) for v in values)))


@given(values_lists, keeps)
@settings(deadline=None, max_examples=150)
def test_trimmed_tails_bracket_the_mean(values, keep):
    mean = float(np.mean(values))
    slack = 1e-9 * (1.0 + max(abs(v) for v in values))
    assert trimmed_mean(values, keep, "bottom") <= mean + slack
    assert trimmed_mean(values, keep, "top") >= mean - slack


@given(values_lists, keeps, keeps)
@settings(deadline=None, max_examples=150)
def test_trimmed_mean_is_monotone_in_keep(values, k1, k2):
    lo, hi = sorted((k1, k2))
    slack = 1e-9 * (1.0 + max(abs(v) for v in values))
    assert trimmed_mean(values, lo, "bottom") <= trimmed_mean(values, hi, "bottom") + slack
    assert trimmed_mean(values, lo, "top") >= trimmed_mean(values, hi, "top") - slack


@given(values_lists, keeps, st.sampled_from(["bottom", "top"]), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=100)
def test_trimmed_mean_is_exactly_permutation_invariant(values, keep, side, rnd):
    assume(keep < 1.0)  # the full mean intentionally preserves input order
    shuffled = values[:]
    rnd.shuffle(shuffled)
    assert trimmed_mean(values, keep, side) == trimmed_mean(shuffled, keep, side)


# -- strata proportions --------------------------------------------------------------


def rate_table(p_r1, p_r2) -> RateTable:
    return RateTable(
        n=(10, 10),
        p_r1=p_r1,
        p_r2=p_r2,
        p_r2_given_r1=(None, None),
        p_r2_given_aux=((), ()),
    )


@given(unit, unit, unit, unit)
@settings(deadline=None, max_examples=150)
def test_monotone_proportions_always_legal_and_flag_coherent(a, b, c, d):
    props = strata_proportions_monotone(rate_table((a, b), (c, d)))
    for arm in (0, 1):
        for cell in ((1, 1), (1, 0), (0, 1), (0, 0)):
            iv = props.pi[arm][cell]
            assert -1e-12 <= iv.lo <= iv.hi <= 1.0 + 1e-12
    assert bool(props.flags) == bool(props.clip_events)


@given(unit, unit, unit, unit)
@settings(deadline=None, max_examples=150)
def test_frechet_cells_respect_margins(a, b, c, d):
    props = strata_proportions_bounds(rate_table((a, b), (c, d)))
    # Each arm observes one potential-response margin directly; the other is the
    # trend-adjusted counterfactual, clipped into [0, 1].
    treated_margin = (min(1.0, max(0.0, c - a + b)), d)  # (R2(0), R2(1)) | D=1
    control_margin = (c, min(1.0, max(0.0, d - b + a)))  # (R2(0), R2(1)) | D=0
    for arm, (m_r0, m_r1) in ((0, control_margin), (1, treated_margin)):
        pi = props.pi[arm]
        # Summing over the second coordinate recovers the R2(1) margin...
        assert pi[(1, 1)].lo + pi[(1, 0)].hi == pytest.approx(m_r1, abs=1e-9)
        assert pi[(1, 1)].hi + pi[(1, 0)].lo == pytest.approx(m_r1, abs=1e-9)
        # ...and summing over the first recovers the R2(0) margin.
        assert pi[(1, 1)].lo + pi[(0, 1)].hi == pytest.approx(m_r0, abs=1e-9)
        assert pi[(1, 1)].hi + pi[(0, 1)].lo == pytest.approx(m_r0, abs=1e-9)


@st.composite
def consistent_rates(draw):
    """Rate tables whose implied strata shares need no clipping, by construction."""
    a = draw(unit)  # Pr(R1=1 | D=0)
    b = draw(unit)  # Pr(R1=1 | D=1)
    gap = b - a
    c = draw(st.floats(min_value=max(0.0, -gap), max_value=min(1.0, 1.0 - gap), allow_nan=False))
    x = min(max(c + gap, 0.0), 1.0)  # treated always-respondent share
    hi_d = min(1.0, 1.0 + gap)
    d = draw(st.floats(min_value=min(x, hi_d), max_value=hi_d, allow_nan=False))
    return rate_table((a, b), (c, d))


@given(consistent_rates())
@settings(deadline=None, max_examples=150)
def test_monotone_point_inside_frechet_interval_when_consistent(rates):
    mono = strata_proportions_monotone(rates)
    frechet = strata_proportions_bounds(rates)
    assume(not mono.clip_events and not frechet.clip_events)  # float-dust edge cases
    for arm in (0, 1):
        point = mono.pi[arm][(1, 1)].lo
        assert frechet.pi[arm][(1, 1)].contains(point, slack=1e-12)


# -- the outcome model's (cell, arm, stratum) table ---------------------------------

#: a term of the outcome model: a zero of either sign, a round value or any moderate one
model_terms = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([1.5, -2.25]),
    st.floats(min_value=-10.0, max_value=10.0, allow_subnormal=False),
)


def _simplex(draw, size: int) -> list[float]:
    """``size`` nonnegative weights summing to one within float dust, often with zeros."""
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0))
    raw = draw(st.lists(weight, min_size=size, max_size=size).filter(any))
    return [v / math.fsum(raw) for v in raw]


@st.composite
def designs(draw) -> DgpSpec:
    """A ``DgpSpec`` with no cell layer, or with one to four latent or exported
    cells and up to two pattern auxiliary columns (cells often share a level
    or a covariate value); every trend, effect, baseline and shift may be a
    zero of either sign, negative or positive."""
    n_cells = draw(st.integers(min_value=0, max_value=4))
    n_pattern = draw(st.integers(min_value=0, max_value=2)) if n_cells else 0
    bit = st.integers(min_value=0, max_value=1)
    exported = draw(st.booleans())
    treated = draw(st.floats(min_value=0.1, max_value=0.9))
    p_arm = (1.0 - treated, treated)
    if n_cells:
        shares = list(zip(_simplex(draw, n_cells), _simplex(draw, n_cells)))
        pairs = st.tuples(model_terms, model_terms)
        cells = tuple(
            Cell(
                label=f"c{i}",
                share=shares[i],
                strata=(tuple(_simplex(draw, 4)), tuple(_simplex(draw, 4))),
                trend_shift=draw(pairs),
                effect_shift=draw(model_terms),
                baseline_shift=draw(pairs),
                x_label=draw(st.integers(min_value=0, max_value=2)) if exported else None,
                aux_pattern=tuple(draw(bit) for _ in range(n_pattern)),
            )
            for i in range(n_cells)
        )
        joint = tuple(
            tuple(p * math.fsum(c.share[d] * c.strata[d][s] for c in cells) for s in range(4))
            for d, p in enumerate(p_arm)
        )
    else:
        cells = ()
        joint = tuple(tuple(p_arm[d] * v for v in _simplex(draw, 4)) for d in (0, 1))
    aux_models = [AuxModel("pattern")] * n_pattern
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=n_pattern))
        aux_models.insert(at, AuxModel("independent"))
    four = st.tuples(model_terms, model_terms, model_terms, model_terms)
    return DgpSpec(
        n=100,
        seed=0,
        joint_sd=joint,
        trend=draw(four),
        baseline=tuple(draw(st.tuples(model_terms, model_terms)) for _ in range(4)),
        effect=draw(four),
        noise_sd=0.5,
        r1_model=draw(st.sampled_from([R1Model(), R1Model("mcar", 0.9)])),
        aux_models=tuple(aux_models),
        covariate_model=cells,
        arm_trend_delta=draw(four),
    )


#: Two latent cells sharing an aux level, every term a zero of either sign:
#: a trend, effect or baseline of -0.0 plus a shift of -0.0 stays -0.0, and
#: less a +0.0 always-respondent term it is -0.0 again, where (-0.0 + -0.0)
#: + 0.0 would be +0.0
SIGNED_ZEROS = DgpSpec(
    n=100,
    seed=0,
    joint_sd=((0.125,) * 4, (0.125,) * 4),
    trend=(0.0, -0.0, -0.0, -0.0),
    baseline=((0.0, 0.0),) + ((-0.0, -0.0),) * 3,
    effect=(0.0, -0.0, -0.0, -0.0),
    noise_sd=0.5,
    aux_models=(AuxModel("pattern"),),
    covariate_model=tuple(
        Cell(
            label=f"c{i}",
            share=(0.5, 0.5),
            strata=((0.25,) * 4,) * 2,
            trend_shift=(-0.0, -0.0),
            effect_shift=-0.0,
            baseline_shift=(-0.0, -0.0),
            aux_pattern=(1,),
        )
        for i in range(2)
    ),
    arm_trend_delta=(0.0, 0.0, -0.0, 0.0),
)


@given(designs())
@example(SIGNED_ZEROS)
@settings(deadline=None, max_examples=200)
def test_the_group_table_gives_every_truth_to_the_bit(spec):
    pattern = [k for k, m in enumerate(spec.aux_models) if m.kind == "pattern"]
    subsets = [()] + [(k,) for k in pattern]
    subsets += [tuple(pattern), tuple(pattern[::-1])] * (len(pattern) > 1)
    for aux in subsets:
        for cells in (False, True):
            got = _expected_counts(spec, aux, cells)
            want = reference_expected_counts(spec, aux, cells)
            assert got.cells == want.cells
            for name in ("n", "s", "cc_sum"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (aux, name)
    assert repr(spec._population) == repr(reference_population(spec))
    assert repr(strip_missingness(spec)) == repr(reference_strip_missingness(spec))


# -- finite or an explicit error ------------------------------------------------

#: any finite outcome, often one whose sums overflow, or missing
outcomes = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1e308, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(math.nan),
)


@st.composite
def finite_valued_panels(draw):
    """Small two-arm panels with any finite outcomes, either arm possibly
    without complete cases, two auxiliary indicators, one covariate and
    sometimes a declared support."""
    d = [0, 1] + draw(st.lists(st.integers(0, 1), max_size=14))
    n = len(d)
    y = [[draw(outcomes) for _ in range(n)] for _ in range(2)]
    aux = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=n, max_size=n))
    x = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    seen = [v for v in y[0] + y[1] if not math.isnan(v)]
    support = (min(seen), max(seen)) if seen and draw(st.booleans()) else None
    return make_panel(d, y[0], y[1], aux=aux, x=[[v] for v in x], outcome_support=support)


def _numbers(result) -> list[float]:
    """The float fields of an estimator's result, nested tuples included."""
    found: list[float] = []
    for value in result if isinstance(result, tuple) else (result,):
        if isinstance(value, float):
            found.append(value)
        elif isinstance(value, tuple):
            found += _numbers(value)
        elif value is not None and hasattr(value, "__dataclass_fields__"):
            found += _numbers(tuple(getattr(value, name) for name in value.__dataclass_fields__))
    return found


@given(finite_valued_panels())
@example(load_panel(io.StringIO(TIED_TRIM_CSV)))  # near-tied trimmed means
@settings(deadline=None, max_examples=150)
def test_every_estimator_is_finite_or_raises_a_package_error(data):
    estimators = {
        "cc": did_complete_case,
        "iv": lambda p: att_iv(p, 0),
        "iv-multi": lambda p: att_iv_multi(p, (0, 1)),
        "pi": att_principal_ignorability,
        "bounds-monotone": lambda p: att_ar_bounds(p, "monotone"),
        "bounds-no-monotone": lambda p: att_ar_bounds(p, "no-monotone"),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, estimator in estimators.items():
            try:
                result = estimator(data)
            except DidMissError:
                continue
            numbers = _numbers(result)
            assert numbers and all(map(math.isfinite, numbers)), (name, result)

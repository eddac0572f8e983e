"""Panel container, CSV grammar, and response-rate table."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from didmiss import (
    ColumnMapping,
    EstimatorError,
    InputError,
    PanelDataset,
    RateTable,
    compute_rates,
    load_panel,
    make_preset,
    save_panel,
)
from didmiss.panel import GroupKey, _rate_table
from didmiss.simulate import PRESET_KINDS, _expected_counts

from _helpers import make_panel, reference_rate_table, repr_or_error


# -- loading the nine-unit example table ------------------------------------


@pytest.mark.parametrize(
    "aux, x, n_aux",
    [
        (np.array([0, 1, 1, 0]), None, 1),  # a 1-D aux is one column
        (None, np.zeros((4, 0)), 0),  # x without columns is no x
    ],
    ids=["1-D-aux", "zero-column-x"],
)
def test_constructor_reshapes_a_1d_aux_and_drops_an_empty_x(aux, x, n_aux):
    data = PanelDataset(np.array([0, 1, 0, 1]), np.ones(4), np.ones(4), aux=aux, x=x)
    assert data.aux.shape == (4, n_aux) and data.aux.dtype == np.int8
    assert data.x is None and data.n_covariates == 0


def test_toy_loads_expected_shape(toy):
    assert len(toy) == 9
    assert toy.unit_ids == tuple(str(i) for i in range(1, 10))
    assert toy.d.tolist() == [0, 0, 1, 0, 1, 1, 1, 1, 1]
    # w1 is an auxiliary *variable*: its presence becomes the indicator.
    assert toy.n_aux == 1
    assert toy.aux[:, 0].tolist() == [1, 1, 1, 0, 1, 1, 0, 0, 0]
    assert toy.n_covariates == 0


def test_toy_missingness_masks(toy):
    assert toy.r1.tolist() == [1, 0, 0, 1, 1, 1, 1, 1, 1]
    assert toy.r2.tolist() == [1, 1, 1, 1, 1, 0, 1, 0, 0]
    assert toy.complete_case.tolist() == [1, 0, 0, 1, 1, 0, 1, 0, 0]


def test_toy_rates_match_hand_counts(toy):
    rates = compute_rates(toy)
    assert rates.n == (3, 6)
    assert rates.p_r1 == (2 / 3, 5 / 6)
    assert rates.p_r2 == (1.0, 0.5)
    assert rates.p_r2_given_r1 == (1.0, 2 / 5)
    # Treated, first-wave respondents split by the auxiliary indicator:
    # aux=0 holds units 7,8,9 (one responds), aux=1 holds units 5,6 (one responds).
    assert rates.p_r2_given_aux[1][0] == (1 / 3, 1 / 2)
    assert rates.p_r2_given_aux[0][0] == (1.0, 1.0)


def test_counting_identity(toy):
    rates = compute_rates(toy)
    for d in (0, 1):
        arm = toy.d == d
        assert int((toy.r1[arm] & toy.r2[arm]).sum()) <= int(toy.r2[arm].sum())
        assert rates.p_r2_given_r1[d] * rates.p_r1[d] <= rates.p_r2[d] + 1e-12


def test_no_missingness_means_unit_rates():
    data = make_panel([0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0])
    rates = compute_rates(data)
    assert rates.p_r1 == (1.0, 1.0)
    assert rates.p_r2 == (1.0, 1.0)
    assert rates.p_r2_given_r1 == (1.0, 1.0)


def test_rates_flag_empty_denominators_as_none():
    # No first-wave respondents among controls: the conditional has no denominator.
    data = make_panel([0, 0, 1], [np.nan, np.nan, 1.0], [1.0, 2.0, 2.0])
    rates = compute_rates(data)
    assert rates.p_r2_given_r1[0] is None
    assert rates.p_r2_given_r1[1] == 1.0


def test_rates_invariant_to_duplication(toy):
    doubled = PanelDataset(
        np.concatenate([toy.d, toy.d]),
        np.concatenate([toy.y1, toy.y1]),
        np.concatenate([toy.y2, toy.y2]),
        aux=np.concatenate([toy.aux, toy.aux]),
    )
    a, b = compute_rates(toy), compute_rates(doubled)
    assert a.p_r1 == b.p_r1
    assert a.p_r2 == b.p_r2
    assert a.p_r2_given_r1 == b.p_r2_given_r1
    assert a.p_r2_given_aux == b.p_r2_given_aux
    assert b.n == (6, 12)


# -- CSV grammar -------------------------------------------------------------


def test_missing_tokens_case_insensitive():
    data = load_panel(b"id,d,y1,y2\n1,0,na,1\n2,0,,2\n3,1,NA,Na\n4,1,1,2\n")
    assert data.r1.tolist() == [0, 0, 0, 1]
    assert data.r2.tolist() == [1, 1, 0, 1]


def test_unparseable_numeric_is_an_error_not_missing():
    with pytest.raises(InputError, match="unparseable numeric"):
        load_panel(b"id,d,y1,y2\n1,0,oops,1\n2,1,1,2\n")


@pytest.mark.parametrize(
    "token", ["nan", "NaN", "inf", "-inf", "+Infinity", "infinity", "1_000", "1e999", "\u0661"]
)
def test_only_finite_decimal_numbers_are_accepted(token):
    text = f"id,d,y1,y2\n1,0,1.5,2\n2,1,1,{token}\n3,1,2,3\n"
    with pytest.raises(InputError, match=r"unparseable numeric.*\(row 3, column y2\)"):
        load_panel(text.encode())


def test_padded_missing_tokens_and_numbers_are_accepted():
    data = load_panel(b"id,d,y1,y2\n1,0, NA ,  \n2,1, 1.5 ,+2e0\n")
    assert np.isnan(data.y1[0]) and np.isnan(data.y2[0])
    assert data.y1[1] == 1.5 and data.y2[1] == 2.0


def test_cell_errors_name_the_first_bad_row_and_column():
    with pytest.raises(InputError, match=r"got '2' \(row 3, column d\)"):
        load_panel(b"id,d,y1,y2\n1,0,1,1\n2,2,1,2\n3,5,1,2\n")
    with pytest.raises(InputError, match=r"got ' 7' \(row 2, column aux1\)"):
        load_panel(b"id,d,y1,y2,aux1\n1,0,1,1, 7\n2,1,1,2,x\n")
    with pytest.raises(InputError, match=r"got '1_0' \(row 3, column x1\)"):
        load_panel(b"id,d,y1,y2,x1\n1,0,1,1,10\n2,1,1,2,1_0\n")


def test_header_detection_requires_core_columns():
    with pytest.raises(InputError, match="y2"):
        load_panel(b"id,d,y1\n1,0,1\n")


def test_detect_numbered_columns():
    mapping = ColumnMapping.detect(["id", "d", "y1", "y2", "aux2", "aux1", "x1", "w1"])
    assert mapping.aux_indicators == ("aux1", "aux2")
    assert mapping.aux_variables == ("w1",)
    assert mapping.covariates == ("x1",)


def test_aux_indicator_column_must_be_binary():
    with pytest.raises(InputError, match="0/1"):
        load_panel(b"id,d,y1,y2,aux1\n1,0,1,1,2\n2,1,1,2,0\n")


def test_covariate_column_must_be_nonnegative_integer():
    with pytest.raises(InputError, match="integer"):
        load_panel(b"id,d,y1,y2,x1\n1,0,1,1,1.5\n2,1,1,2,0\n")
    with pytest.raises(InputError, match="non-negative"):
        load_panel(b"id,d,y1,y2,x1\n1,0,1,1,-1\n2,1,1,2,0\n")


def test_treatment_must_be_binary_token():
    with pytest.raises(InputError, match="treatment must be 0 or 1"):
        load_panel(b"id,d,y1,y2\n1,2,1,1\n2,0,1,2\n")


def test_ragged_row_is_malformed():
    with pytest.raises(InputError, match="row 3 has 3 cells"):
        load_panel(b"id,d,y1,y2\n1,0,1,1\n2,1,2\n")


def test_ragged_row_far_into_the_file_is_named_by_its_row():
    rows = [f"{i},{i % 2},1,2" for i in range(1, 599)]  # rows 2..599
    text = "id,d,y1,y2\n\n" + "\n".join(rows) + "\n600,1,2\n601,0,1,1\n"
    with pytest.raises(InputError, match=r"^malformed CSV: row 600 has 3 cells, header has 4$"):
        load_panel(text.encode())


def test_undecodable_bytes_late_in_the_file_win_over_an_earlier_ragged_row(tmp_path):
    # a file decodes as it is read: the ragged row 3 comes 20 kB before the bad
    # byte, and the decode error still wins, as when the whole file was read first
    rows = "".join(f"{i},{i % 2},1,2\n" for i in range(3, 2000))
    path = tmp_path / "faults.csv"
    path.write_bytes(b"id,d,y1,y2\n1,0,1,1\n2,1,2\n" + rows.encode() + b"2000,0,\xff,1\n")
    with pytest.raises(InputError, match=r"^malformed CSV: 'utf-8' codec can't decode"):
        load_panel(path)


def test_duplicate_header_rejected():
    with pytest.raises(InputError, match="duplicate column"):
        load_panel(b"id,d,y1,y1\n1,0,1,1\n")


def test_missing_file_is_input_error(tmp_path):
    with pytest.raises(InputError, match="no such file"):
        load_panel(tmp_path / "absent.csv")


def test_empty_input_rejected():
    with pytest.raises(InputError, match="empty dataset"):
        load_panel(b"id,d,y1,y2\n")


def test_custom_schema_names():
    data = load_panel(
        b"unit,arm,pre,post\nA,0,1,2\nB,1,2,4\n",
        schema=ColumnMapping(id="unit", treatment="arm", y1="pre", y2="post"),
    )
    assert data.unit_ids == ("A", "B")
    assert data.y2.tolist() == [2.0, 4.0]


#: A panel as Excel's "CSV UTF-8" saves it: a byte-order mark, then the
#: writer's own format, so saving the loaded panel gives the text after the mark.
BOM_PANEL = "\ufeffid,d,y1,y2\r\né,0,1.0,2.0\r\nb,1,2.0,4.0\r\nc,0,NA,3.0\r\n𝔘,1,1.5,2.5\r\n"


def content_source(kind: str, text: str, tmp_path):
    """``text`` as a ``load_panel`` source of the given kind."""
    raw = text.encode("utf-8")
    path = tmp_path / f"{len(text)}.csv"
    path.write_bytes(raw)
    return {"path": path, "bytes": raw, "binary file": io.BytesIO(raw),
            "text file": io.StringIO(text)}[kind]


@pytest.mark.parametrize("kind", ["path", "bytes", "binary file", "text file"])
def test_one_leading_byte_order_mark_is_ignored_in_every_kind_of_source(kind, tmp_path):
    def source(text: str):
        return content_source(kind, text, tmp_path)

    data = load_panel(source(BOM_PANEL))
    assert data.unit_ids == ("é", "b", "c", "𝔘")
    buffer = io.StringIO()
    save_panel(data, buffer)
    assert buffer.getvalue() == BOM_PANEL[1:]  # the writer writes no mark
    with pytest.raises(InputError, match="^CSV header is missing required columns: id$"):
        load_panel(source("\ufeff" + BOM_PANEL))  # a second mark is header text


@pytest.mark.parametrize("kind", ["path", "bytes", "binary file", "text file"])
def test_lines_may_end_in_cr_crlf_or_lf_in_every_kind_of_source(kind, tmp_path):
    def source(text: str):
        return content_source(kind, text, tmp_path)

    data = load_panel(source("id,d,y1,y2\r1,0,1,2\r2,1,1,3\r"))
    assert data.unit_ids == ("1", "2")
    # every ending in one file, a quoted bare CR inside an id, and a last
    # line without an ending
    data = load_panel(source('id,d,y1,y2\r"a\rb",0,1.0,2.0\r\nc,1,2.0,4.0\nd,0,NA,3.0\re,1,1.5,2.5'))
    assert data.unit_ids == ("a\rb", "c", "d", "e")
    assert data.y2.tolist() == [2.0, 4.0, 3.0, 2.5]


def test_declared_column_must_exist():
    with pytest.raises(InputError, match="declared column"):
        load_panel(
            b"id,d,y1,y2\n1,0,1,2\n2,1,2,4\n",
            schema=ColumnMapping(aux_indicators=("aux9",)),
        )


def assert_same_columns(a: PanelDataset, b: PanelDataset) -> None:
    for name in ("d", "y1", "y2", "aux"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert (a.x is None) == (b.x is None)
    assert a.x is None or np.array_equal(a.x, b.x)
    assert a.unit_ids == b.unit_ids


def test_round_trip_preserves_records(toy):
    buffer = io.StringIO()
    save_panel(toy, buffer)
    reloaded = load_panel(buffer.getvalue().encode())
    assert_same_columns(reloaded, toy)


def test_save_format_uses_na_and_numbered_columns():
    data = make_panel(
        [0, 1], [1.0, np.nan], [np.nan, 2.5], aux=[[1], [0]], x=[[3], [0]]
    )
    buffer = io.StringIO()
    save_panel(data, buffer)
    lines = buffer.getvalue().strip().splitlines()
    assert lines[0] == "id,d,y1,y2,aux1,x1"
    assert lines[1] == "1,0,1.0,NA,1,3"
    assert lines[2] == "2,1,NA,2.5,0,0"


# -- container validation -----------------------------------------------------


def test_arrays_are_read_only(toy):
    with pytest.raises(ValueError):
        toy.y1[0] = 99.0
    with pytest.raises(ValueError):
        toy.d[0] = 1


def test_both_arms_required():
    with pytest.raises(InputError, match="single-arm"):
        make_panel([1, 1], [1.0, 2.0], [2.0, 3.0])


def test_bad_treatment_value_rejected():
    with pytest.raises(InputError, match="treatment must be 0 or 1"):
        make_panel([0, 3], [1.0, 2.0], [2.0, 3.0])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PanelDataset([0, 1], [1.0], [2.0, 3.0]), r"y1 has shape \(1,\), expected \(2,\)"),
        (lambda: PanelDataset([0, 1], [1.0, 2.0], [[2.0, 3.0]]),
         r"y2 has shape \(1, 2\), expected \(2,\)"),
        # NaN is missing; an infinite outcome is refused, not counted as observed
        (lambda: PanelDataset([0, 1, 0, 1, 0, 1], [1, 2, np.inf, 1, 1, 1],
                              [1, 2, 3, -np.inf, np.nan, 2]),
         r"y1 must be finite or missing \(NaN\), got inf \(row 3\)"),
        (lambda: PanelDataset([0, 1, 0, 1, 0, 1], [1, 2, np.nan, 1, 1, 1],
                              [1, 2, 3, -np.inf, np.nan, 2]),
         r"y2 must be finite or missing \(NaN\), got -inf \(row 4\)"),
        (lambda: PanelDataset([0, 1], [1.0, 2.0], [2.0, 3.0], aux=[[1], [0], [1]]),
         "aux has 3 rows, expected 2"),
        (lambda: PanelDataset([0, 1], [1.0, 2.0], [2.0, 3.0], x=[[1], [0], [1]]),
         "x has 3 rows, expected 2"),
        (lambda: PanelDataset([0, 1], [1.0, 2.0], [2.0, 3.0], unit_ids=("a",)),
         "1 unit ids for 2 rows"),
        (lambda: RateTable((0, 3), (1.0, 1.0), (0.5, 0.5), (0.5, 0.5), ((), ())),
         "arm 0 has no units"),
        (lambda: RateTable((3, 3), (1.0, 1.5), (0.5, 0.5), (0.5, 0.5), ((), ())),
         r"rate 1\.5 outside \[0, 1\]"),
        (lambda: RateTable((3, 3), (1.0, 1.0), (-0.5, 0.5), (0.5, 0.5), ((), ())),
         r"rate -0\.5 outside \[0, 1\]"),
    ],
    ids=["y1-shape", "y2-shape", "y1-infinite", "y2-infinite", "aux-rows", "x-rows", "unit-ids",
         "rates-empty-arm", "rate-above-1", "rate-below-0"],
)
def test_malformed_columns_and_rate_tables_are_refused_by_name(build, message):
    with pytest.raises(InputError, match=rf"^{message}$"):
        build()


def test_shape_mismatch_rejected():
    with pytest.raises(InputError, match="expected"):
        make_panel([0, 1], [1.0], [2.0, 3.0])


def test_aux_values_validated():
    with pytest.raises(InputError, match="0/1"):
        make_panel([0, 1], [1.0, 2.0], [2.0, 3.0], aux=[[2], [0]])


@pytest.mark.parametrize(
    "field, values, message",
    [
        ("d", [0, 1, 0.5, 1.7], r"treatment must be 0 or 1, got 0.5 \(row 3\)"),
        ("d", [0, 1, 1, np.nan], r"treatment must be 0 or 1, got nan \(row 4\)"),
        ("aux", [0, 1, 1, 0.9], r"only 0/1, got 0.9 \(row 4\)"),
        ("aux", [[0, 1], [1, 2], [0, 0], [1, -1]], r"only 0/1, got 2 \(row 2\)"),
        ("x", [0, -3, 2, 1], r"non-negative integer, got -3 \(row 2\)"),
        ("x", [[0, 1], [1, 1], [2, 2.5], [1, 0]], r"non-negative integer, got 2.5 \(row 3\)"),
    ],
)
def test_values_are_checked_before_the_integer_cast(field, values, message):
    # an int8/int64 cast would turn each of these into a valid-looking value
    columns = {"d": [0, 1, 1, 0], "y1": [1.0, 2.0, 3.0, 4.0], "y2": [2.0, 3.0, 4.0, 5.0]}
    columns[field] = values
    with pytest.raises(InputError, match=message):
        PanelDataset(**columns)


def test_support_containment_enforced():
    with pytest.raises(InputError, match="outside the declared support"):
        make_panel([0, 1], [0.0, 5.0], [1.0, 1.0], outcome_support=(0.0, 2.0))
    with pytest.raises(InputError, match="out of order"):
        make_panel([0, 1], [1.0, 1.0], [1.0, 1.0], outcome_support=(2.0, 0.0))


@pytest.mark.parametrize("support", [(np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0)])
def test_non_finite_support_says_so(support):
    with pytest.raises(InputError, match=r"^outcome support endpoints are not finite: "):
        make_panel([0, 1], [1.0, 1.0], [1.0, 1.0], outcome_support=support)


def test_missing_outcomes_do_not_trip_support_check():
    data = make_panel([0, 1], [np.nan, 0.5], [0.25, np.nan], outcome_support=(0.0, 1.0))
    assert data.outcome_support == (0.0, 1.0)


def test_record_view_fields(toy):
    i = 5  # unit 6: observed pre, missing post
    assert toy.unit_ids[i] == "6"
    assert toy.d[i] == 1
    assert toy.y1[i] == 3.0 and np.isnan(toy.y2[i])
    assert toy.r1[i] and not toy.r2[i]
    assert not toy.complete_case[i]
    assert toy.complete_case[4]


# -- complete-case changes ----------------------------------------------------

#: Signed zeros, subnormals, huge finite values (whose differences overflow) and NaN.
EDGE_OUTCOMES = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.5, -1.5,
    1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, math.nan,
)
OUTCOME = st.one_of(st.sampled_from(EDGE_OUTCOMES), st.floats(allow_infinity=False))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 1), OUTCOME, OUTCOME), min_size=2, max_size=30))
@example([(0, 1.0, -0.0), (1, -0.0, -0.0), (1, 0.0, 0.0), (0, math.nan, 5e-324)])
@example([(0, 0.5, 1.5), (1, -1e308, 1e308), (1, math.nan, 1.7976931348623157e308)])
def test_group_key_changes_are_the_masked_difference_bit_for_bit(rows):
    d, y1, y2 = map(list, zip(*rows))
    d[:2] = [0, 1]
    data = make_panel(d, y1, y2)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.where(data.r1 & data.r2, data.y2 - data.y1, 0.0)
    bad = np.flatnonzero(~np.isfinite(expected))
    if bad.size == 0:
        assert GroupKey(data).dy.tobytes() == expected.tobytes()
        return
    i = int(bad[0])  # a complete case whose change overflows: refused, naming it
    with pytest.raises(EstimatorError) as refused:
        GroupKey(data)
    assert str(refused.value) == (
        f"the result is not finite: y2 - y1 is not finite for unit '{i + 1}' "
        f"(row {i + 1}: y1={float(data.y1[i])!r}, y2={float(data.y2[i])!r})"
    )


# -- the rate table's scalar formulas keep the bits of numpy's reductions --------


@pytest.mark.parametrize("kind", PRESET_KINDS)
def test_rate_table_keeps_the_bits_of_numpy_reductions_on_expected_masses(kind):
    spec = make_preset(kind)
    aux_counts = []
    for k in range(len(spec.aux_models)):
        try:
            aux_counts.append(_expected_counts(spec, (k,)).n[0])
        except InputError:  # an independent column has no expected counts by level
            pass
    arms = _expected_counts(spec).arms
    for scale in (1.0, float(spec.n)):  # masses per unit, and per sample
        args = (arms * scale, [counts * scale for counts in aux_counts])
        assert repr_or_error(_rate_table, *args) == repr_or_error(reference_rate_table, *args)


def test_rate_table_reads_expected_masses_as_given():
    # masses per unit of each arm: truncating them to integers gave n=(1, 1)
    # and p_r2=(0.0, 0.0)
    rates = _rate_table(_expected_counts(make_preset("no-monotone")).arms)
    assert rates.p_r2 == (0.65, 0.7000000000000001)


def test_rate_table_keeps_the_bits_of_numpy_reductions_on_integer_counts():
    rng = np.random.default_rng(4)
    for _ in range(500):
        arms = rng.integers(0, 4, size=(2, 2, 2))
        aux_counts = [rng.integers(0, 3, size=(2, 2, 2, 2)) for _ in range(rng.integers(0, 3))]
        got = repr_or_error(_rate_table, arms, aux_counts)
        assert got == repr_or_error(reference_rate_table, arms, aux_counts)

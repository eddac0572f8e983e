"""Latent-strata panel simulator, its oracle, and the oracle-side analyses."""

from __future__ import annotations

import gc
import io
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from didmiss import (
    AuxModel,
    Cell,
    DgpSpec,
    EstimatorError,
    InputError,
    OraclePanel,
    OracleRecord,
    PRESET_KINDS,
    PanelDataset,
    R1Model,
    STRATUM_LABELS,
    STRATUM_PAIRS,
    att_ar_bounds,
    check_trend_mixture,
    compute_rates,
    decompose_att,
    did_complete_case,
    load_oracle,
    load_panel,
    make_preset,
    naive_did_all,
    save_oracle,
    simulate_panel,
    strip_missingness,
)
from didmiss.iv import _iv_pair, _iv_single
from didmiss.panel import GroupKey
from didmiss.simulate import (
    _aggregate_joint,
    _check_solution,
    _expected_counts,
    _solve_homogeneous_cells,
    _solve_multi_instrument,
)

from _helpers import (
    OVERFLOWING_ORACLE,
    reference_check_trend_mixture,
    reference_decompose_att,
    reference_simulate_panel,
)


def plain_spec(**overrides) -> DgpSpec:
    base = dict(
        n=2_000,
        seed=0,
        joint_sd=((0.20, 0.15, 0.05, 0.10), (0.25, 0.15, 0.02, 0.08)),
        trend=(0.4, 0.9, 0.1, 0.6),
        baseline=((5.0, 5.2), (4.0, 4.1), (4.5, 4.4), (3.0, 3.1)),
        effect=(1.0, 1.5, 0.5, 0.8),
        noise_sd=0.5,
    )
    base.update(overrides)
    return DgpSpec(**base)


# -- spec validation ----------------------------------------------------------


def test_spec_validates_probability_table():
    with pytest.raises(InputError, match="sums to"):
        plain_spec(joint_sd=((0.5, 0.0, 0.0, 0.0), (0.4, 0.0, 0.0, 0.0)))
    with pytest.raises(InputError, match="nonnegative"):
        plain_spec(joint_sd=((0.6, -0.1, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0)))
    with pytest.raises(InputError, match="arm 1 has zero probability"):
        plain_spec(joint_sd=((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)))


def test_spec_validates_shapes():
    with pytest.raises(InputError, match="sample size"):
        plain_spec(n=0)
    with pytest.raises(InputError, match="trend"):
        plain_spec(trend=(0.1, 0.2))
    with pytest.raises(InputError, match="baseline"):
        plain_spec(baseline=((0.0, 0.0),))
    with pytest.raises(InputError, match="noise"):
        plain_spec(noise_sd=-1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, value",
    [
        ("joint_sd", ((0.20, 0.15, 0.05, NAN), (0.25, 0.15, 0.02, 0.08))),
        ("trend", (0.4, NAN, 0.1, 0.6)),
        ("baseline", ((5.0, 5.2), (4.0, INF), (4.5, 4.4), (3.0, 3.1))),
        ("effect", (1.0, 1.5, -INF, 0.8)),
        ("arm_trend_delta", (0.0, 0.0, NAN, 0.0)),
        ("noise_sd", NAN),
    ],
)
def test_spec_refuses_non_finite_numbers_naming_the_field(field, value):
    with pytest.raises(InputError, match=rf"^{field} must be finite, got "):
        plain_spec(**{field: value})


SPEC_BUILDERS = {
    "make_preset": lambda **size: make_preset("pi", **{"n": 50, "seed": 1, **size}),
    "DgpSpec": plain_spec,
}


@pytest.mark.parametrize("builder", SPEC_BUILDERS)
@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n", 2.5, "sample size must be an integer, got 2.5"),
        ("n", NAN, "sample size must be an integer, got nan"),
        ("n", 0, "sample size must be at least 1, got 0"),
        ("seed", 2.5, "seed must be a non-negative integer, got 2.5"),
        ("n", True, "sample size must be an integer, got True"),
        ("seed", True, "seed must be a non-negative integer, got True"),
    ],
    ids=["n=2.5", "n=nan", "n=0", "seed=2.5", "n=True", "seed=True"],
)
def test_spec_refuses_a_fractional_or_non_positive_size_or_seed(builder, field, value, message):
    # never cast: 2.5 units or seed 2.5 would silently run 2, and True would run 1
    with pytest.raises(InputError, match=rf"^{message}$"):
        SPEC_BUILDERS[builder](**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("share", (NAN, 0.5)),
        ("strata", ((NAN, 0.5, 0.25, 0.25), (1.0, 0.0, 0.0, 0.0))),
        ("trend_shift", (0.0, INF)),
        ("effect_shift", NAN),
        ("baseline_shift", (-INF, 0.0)),
    ],
)
def test_cell_refuses_non_finite_numbers_naming_the_field(field, value):
    fields = dict(label="c", share=(1.0, 1.0), strata=((1.0, 0.0, 0.0, 0.0),) * 2)
    with pytest.raises(InputError, match=rf"^cell 'c': {field} must be finite, got "):
        Cell(**{**fields, field: value})


def test_model_layers_validated():
    with pytest.raises(InputError, match="first-wave response model"):
        R1Model(kind="sometimes")
    with pytest.raises(InputError, match="rate"):
        R1Model(kind="mcar", rate=0.0)
    with pytest.raises(InputError, match="rate 0.5 applies only to kind 'mcar'"):
        R1Model(kind="always-observed", rate=0.5)
    with pytest.raises(InputError, match="auxiliary model"):
        AuxModel(kind="magic")
    with pytest.raises(InputError, match="probability"):
        AuxModel(p=1.5)
    with pytest.raises(InputError, match="pattern auxiliary models require"):
        plain_spec(aux_models=(AuxModel(kind="pattern"),))


def test_cell_layer_must_aggregate_to_joint_table():
    cells = (
        Cell(
            label="only",
            share=(1.0, 1.0),
            strata=((0.5, 0.3, 0.1, 0.1), (0.5, 0.3, 0.1, 0.1)),
        ),
    )
    with pytest.raises(InputError, match="inconsistent with the cell layer"):
        plain_spec(covariate_model=cells)


def test_cell_strata_rows_must_be_distributions():
    with pytest.raises(InputError, match="sum to"):
        Cell(label="bad", share=(1.0, 1.0), strata=((0.5, 0.5, 0.1, 0.0), (1.0, 0.0, 0.0, 0.0)))


# -- panel generation -----------------------------------------------------------


def test_same_seed_reproduces_bitwise():
    a_data, a_oracle, a_truth = simulate_panel(plain_spec())
    b_data, b_oracle, b_truth = simulate_panel(plain_spec())
    assert np.array_equal(a_data.y1, b_data.y1, equal_nan=True)
    assert np.array_equal(a_data.y2, b_data.y2, equal_nan=True)
    assert np.array_equal(a_data.d, b_data.d)
    assert np.array_equal(a_oracle.s, b_oracle.s)
    assert a_truth == b_truth


def test_seed_changes_the_draw():
    a, _, _ = simulate_panel(plain_spec())
    b, _, _ = simulate_panel(plain_spec(seed=1))
    assert not np.array_equal(a.y1, b.y1, equal_nan=True)


def test_observable_view_consistent_with_oracle():
    data, oracle, truth = simulate_panel(plain_spec())
    assert len(data) == len(oracle) == 2_000
    assert np.array_equal(data.d, oracle.d)
    # Realized response follows the stratum of each unit and its arm.
    expected_r2 = np.where(oracle.d == 1, oracle.r2_1, oracle.r2_0).astype(bool)
    assert np.array_equal(data.r2, expected_r2)
    assert np.array_equal(data.y1[data.r1], oracle.y1_true[data.r1])
    assert np.isnan(data.y1[~data.r1]).all()
    realized = np.where(oracle.d == 1, oracle.y2_1, oracle.y2_0)
    assert np.array_equal(data.y2[data.r2], realized[data.r2])
    # Ground truth aggregates the latent columns.
    treated = oracle.d == 1
    assert truth.att == pytest.approx(
        float((oracle.y2_1 - oracle.y2_0)[treated].mean()), abs=1e-12
    )
    always = treated & (oracle.r2_1 == 1) & (oracle.r2_0 == 1)
    assert truth.att_ar == pytest.approx(
        float((oracle.y2_1 - oracle.y2_0)[always].mean()), abs=1e-12
    )
    for d in (0, 1):
        assert sum(truth.pi_table[d].values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["pi", "monotone"])  # a covariate column; y1 missing at random
def test_the_oracle_is_the_observable_panel_plus_latent_columns(kind, tmp_path):
    data, oracle, _ = simulate_panel(make_preset(kind, n=2_000, seed=4))
    assert isinstance(oracle, PanelDataset)
    observable = ("d", "y1", "y2", "aux") + (("x",) if kind == "pi" else ())
    for name in observable:
        assert np.shares_memory(getattr(oracle, name), getattr(data, name)), name
    assert did_complete_case(oracle) == did_complete_case(data)
    assert att_ar_bounds(oracle) == att_ar_bounds(data)
    assert compute_rates(oracle) == compute_rates(data)
    # an oracle file is a panel file with four more columns
    path = tmp_path / "oracle.csv"
    save_oracle(oracle, path)
    panel, loaded = load_panel(path), load_oracle(path)
    for name in observable + ("r1", "r2"):
        want, got = getattr(loaded, name), getattr(panel, name)
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True), name
    assert (panel.x is None) == (loaded.x is None) == (kind != "pi")
    assert panel.unit_ids == loaded.unit_ids


def test_stratum_shares_concentrate_at_design_values():
    spec = plain_spec(n=60_000)
    _, oracle, _ = simulate_panel(spec)
    for d in (0, 1):
        arm = oracle.d == d
        for code in range(4):
            share = float((oracle.s[arm] == code).mean())
            assert share == pytest.approx(spec.pi(d)[code], abs=0.01)


def test_mcar_first_wave_rate():
    spec = plain_spec(n=40_000, r1_model=R1Model("mcar", rate=0.85))
    data, _, _ = simulate_panel(spec)
    assert float(data.r1.mean()) == pytest.approx(0.85, abs=0.01)
    full, _, _ = simulate_panel(plain_spec(n=500))
    assert full.r1.all()


def test_independent_aux_rate():
    spec = plain_spec(n=40_000, aux_models=(AuxModel(p=0.3), AuxModel(p=0.9)))
    data, _, _ = simulate_panel(spec)
    assert data.n_aux == 2
    assert float(data.aux[:, 0].mean()) == pytest.approx(0.3, abs=0.01)
    assert float(data.aux[:, 1].mean()) == pytest.approx(0.9, abs=0.01)


def test_oracle_record_rejects_inconsistency():
    with pytest.raises(ValueError, match="potential responses"):
        OracleRecord(
            unit_id="1", d=1, y1=0.0, y2=1.0, aux=(), x=None, s="AR",
            y1_true=0.0, y2_1=1.0, y2_0=0.5, r1=1, r2=1, r2_1=1, r2_0=0,
        )
    with pytest.raises(ValueError, match="selected potential outcome"):
        OracleRecord(
            unit_id="1", d=1, y1=0.0, y2=9.0, aux=(), x=None, s="AR",
            y1_true=0.0, y2_1=1.0, y2_0=0.5, r1=1, r2=1, r2_1=1, r2_0=1,
        )


# -- oracle CSV round trip ---------------------------------------------------------


def test_oracle_round_trip():
    _, oracle, _ = simulate_panel(plain_spec(n=200, aux_models=(AuxModel(p=0.5),)))
    buffer = io.StringIO()
    save_oracle(oracle, buffer)
    reloaded = load_oracle(buffer.getvalue().encode())
    for name in ("d", "y1", "y2", "y1_true", "y2_1", "y2_0", "s", "r1", "r2_1", "r2_0", "aux"):
        assert np.array_equal(getattr(reloaded, name), getattr(oracle, name), equal_nan=True)
    assert reloaded.x is None and oracle.x is None
    assert reloaded.unit_ids == oracle.unit_ids == tuple(str(i) for i in range(1, 201))


def test_tampered_oracle_fails_loudly():
    _, oracle, _ = simulate_panel(plain_spec(n=50))
    buffer = io.StringIO()
    save_oracle(oracle, buffer)
    lines = buffer.getvalue().splitlines()
    # Flip the stratum label of the first data row to one that contradicts
    # its observed outcome: never-respondents cannot show y2, always-
    # respondents must.
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("s")] = "AR" if row[header.index("y2")] == "NA" else "NR"
    lines[1] = ",".join(row)
    with pytest.raises(InputError, match="inconsistent oracle record in row 2"):
        load_oracle("\n".join(lines).encode())


#: Two consistent units: a responding control (AR) and a non-responding
#: treated unit (NR). Row 3 of the file is the treated unit.
CLEAN_ORACLE = (
    "id,d,y1,y2,aux1,s,y1_true,y2_1,y2_0\n"
    "1,0,1.0,2.0,0,AR,1.0,3.0,2.0\n"
    "2,1,1.5,NA,1,NR,1.5,4.0,2.5\n"
)


def tamper_row_3(**cells: str) -> bytes:
    header, row2, row3 = CLEAN_ORACLE.splitlines()
    names, values = header.split(","), row3.split(",")
    for name, value in cells.items():
        values[names.index(name)] = value
    return "\n".join([header, row2, ",".join(values)]).encode()


def test_clean_oracle_fixture_loads():
    oracle = load_oracle(CLEAN_ORACLE.encode())
    assert oracle.unit_ids == ("1", "2")
    assert oracle.y2.tolist()[0] == 2.0 and np.isnan(oracle.y2[1])


@pytest.mark.parametrize(
    "cells, message",
    [
        ({"y2": "4.0"}, r"inconsistent oracle record in row 3: observed y2"),
        ({"s": "AR", "y2": "9.0"}, r"inconsistent oracle record in row 3: observed y2"),
        ({"s": "AR"}, r"inconsistent oracle record in row 3: observed y2"),
        ({"y1": "7.0"}, r"inconsistent oracle record in row 3: observed y1"),
        ({"d": "2"}, r"treatment must be 0 or 1, got '2' \(row 3, column d\)"),
        ({"s": "XX"}, r"unknown stratum label, got 'XX' \(row 3, column s\)"),
        ({"aux1": "2"}, r"0/1, got '2' \(row 3, column aux1\)"),
        ({"y2_0": "NA"}, r"must not be missing, got 'NA' \(row 3, column y2_0\)"),
    ],
)
def test_tampered_oracle_names_the_first_bad_row(cells, message):
    with pytest.raises(InputError, match=message):
        load_oracle(tamper_row_3(**cells))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "infinity", "1_000"])
@pytest.mark.parametrize("column", ["y1", "y2_0"])
def test_oracle_accepts_only_finite_decimal_numbers(token, column):
    with pytest.raises(InputError, match=rf"unparseable numeric.*\(row 3, column {column}\)"):
        load_oracle(tamper_row_3(**{column: token}))


def test_oracle_csv_requires_latent_columns():
    with pytest.raises(InputError, match="missing required columns"):
        load_oracle(b"id,d,y1,y2\n1,0,0.0,1.0\n")
    with pytest.raises(InputError, match="unknown stratum label"):
        load_oracle(
            b"id,d,y1,y2,s,y1_true,y2_1,y2_0\n1,0,0.0,1.0,XX,0.0,1.0,1.0\n"
        )
    with pytest.raises(InputError, match="must not be missing"):
        load_oracle(
            b"id,d,y1,y2,s,y1_true,y2_1,y2_0\n1,0,0.0,1.0,AR,0.0,NA,1.0\n"
        )


# -- oracle-side analyses -------------------------------------------------------


def oracle_rows(rows) -> list[OracleRecord]:
    """Rows of (d, stratum label, y1_true, y2_0, y2_1) -> consistent records."""
    records = []
    for i, (d, label, y1t, y20, y21) in enumerate(rows):
        pair = STRATUM_PAIRS[STRATUM_LABELS.index(label)]
        r2 = pair[0] if d == 1 else pair[1]
        records.append(
            OracleRecord(
                unit_id=str(i + 1),
                d=d,
                y1=y1t,
                y2=(y21 if d == 1 else y20) if r2 else None,
                aux=(),
                x=None,
                s=label,
                y1_true=y1t,
                y2_1=y21,
                y2_0=y20,
                r1=1,
                r2=r2,
                r2_1=pair[0],
                r2_0=pair[1],
            )
        )
    return records


def test_the_oracle_identities_refuse_a_change_that_overflows():
    oracle = load_oracle(OVERFLOWING_ORACLE.encode())
    message = (
        r"^the result is not finite: y2_0 - y1_true or y2_1 - y2_0 is not finite for unit '1' "
        r"\(row 1: y1_true=-1.7e\+308, y2_1=1.7e\+308, y2_0=1.7e\+308\)$"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for identity in (decompose_att, check_trend_mixture):
            for given in (oracle, oracle.records):
                with pytest.raises(EstimatorError, match=message):
                    identity(given)


def test_decomposition_identity_on_simulated_data():
    _, oracle, truth = simulate_panel(plain_spec(n=30_000))
    dec = decompose_att(oracle)
    assert dec.total == pytest.approx(sum(dec.terms), abs=1e-12)
    assert dec.att == pytest.approx(truth.att, abs=1e-12)
    assert abs(dec.deviation) <= 6.0 * dec.se + 1e-12
    assert dec.labels[0].startswith("treated before-after")
    assert sum(dec.treated_shares.values()) == pytest.approx(1.0, abs=1e-12)


def test_decomposition_zero_share_means_zero_term():
    _, oracle, _ = simulate_panel(make_preset("monotone", n=5_000, seed=1))
    dec = decompose_att(oracle)
    assert dec.treated_shares[(0, 1)] == 0.0
    assert dec.terms[4] == 0.0


def test_decomposition_needs_control_units_for_respondent_strata():
    rows = [(1, "AR", 0.0, 0.5, 1.5)] * 3 + [(0, "NR", 0.0, 0.5, 1.5)] * 3
    with pytest.raises(EstimatorError, match="no control units in stratum AR"):
        decompose_att(oracle_rows(rows))


def test_decomposition_needs_both_arms():
    rows = [(1, "AR", 0.0, 0.5, 1.5)] * 4
    with pytest.raises(EstimatorError, match="both arms"):
        decompose_att(oracle_rows(rows))


def test_decomposition_flags_unshared_trends():
    spec = plain_spec(n=40_000, arm_trend_delta=(1.0, 1.0, 1.0, 1.0))
    _, oracle, _ = simulate_panel(spec)
    with pytest.raises(RuntimeError, match="does not share trends"):
        decompose_att(oracle)


@pytest.mark.parametrize("column, code", [("s", 7), ("s", -1), ("d", 2)])
def test_identities_refuse_out_of_range_oracle_codes_naming_the_row(column, code):
    _, oracle, _ = simulate_panel(plain_spec(n=50))
    names = ("d", "y1", "y2", "aux", "s", "y1_true", "y2_1", "y2_0")
    columns = {name: getattr(oracle, name).copy() for name in names}
    columns[column][[3, 7]] = code
    tampered = OraclePanel(**columns, x=None)
    name = "stratum code" if column == "s" else "treatment"
    for identity in (decompose_att, check_trend_mixture):
        with pytest.raises(InputError, match=rf"^oracle {name} {code} for unit '4' \(row 4\) is"):
            identity(tampered)


def test_trend_mixture_identity_holds_exactly():
    _, oracle, _ = simulate_panel(plain_spec(n=20_000))
    report = check_trend_mixture(oracle)
    assert report.mixture_residual <= 1e-9
    for d in (0, 1):
        assert report.direct[d] == pytest.approx(report.mixture[d], abs=1e-9)
        assert sum(report.stratum_shares[d].values()) == pytest.approx(1.0, abs=1e-12)


def test_trend_gap_reflects_composition_not_trends():
    # Identical per-stratum trends (0 for always, 1 for if-treated) but very
    # different stratum mixes: treated 90/10, control 50/50. The arm-level
    # untreated trends then differ by -0.4 even though every stratum's trend
    # is shared.
    spec = DgpSpec(
        n=10_000,
        seed=3,
        joint_sd=((0.25, 0.25, 0.0, 0.0), (0.45, 0.05, 0.0, 0.0)),
        trend=(0.0, 1.0, 0.0, 0.0),
        baseline=((0.0, 0.0),) * 4,
        effect=(1.0, 1.0, 1.0, 1.0),
        noise_sd=0.3,
    )
    _, oracle, _ = simulate_panel(spec)
    report = check_trend_mixture(oracle)
    assert report.pt_gap == pytest.approx(-0.4, abs=4 * report.pt_gap_se)
    assert report.pt_gap_se < 0.05


# -- collapse: removing missingness --------------------------------------------


def test_strip_missingness_removes_all_missingness():
    spec = make_preset("mnar-baseline", n=3_000, seed=2)
    stripped = strip_missingness(spec)
    data, oracle, truth = simulate_panel(stripped)
    assert data.r1.all() and data.r2.all()
    assert naive_did_all(data).point == did_complete_case(data).point
    original_truth = simulate_panel(spec)[2]
    assert truth.att_population == pytest.approx(original_truth.att_population, abs=1e-12)
    # Stripping removes response-driven selection, not the arms' different
    # stratum mixes: the full-data DID equals the ATT plus the trend-mix gap.
    mix_gap = sum(
        (spec.pi(1)[s] - spec.pi(0)[s]) * spec.trend[s] for s in range(4)
    )
    assert truth.cc_population == pytest.approx(
        original_truth.att_population + mix_gap, abs=1e-12
    )


# -- presets ---------------------------------------------------------------------


def test_presets_construct_and_carry_planted_truths():
    planted = {
        "zero-bias": (1.0, 0.0),
        "homogeneous-bias": (1.0, 0.25),
        "multi-iv": (1.0, 0.16319881669174874),
        "pi": (1.0, 0.2),
        "mnar-baseline": (1.01, 47 / 140),
        "monotone": (1.06, 0.20666666666666655),
        "no-monotone": (0.98, 0.30351648351648286),
    }
    assert set(PRESET_KINDS) == set(planted)
    for kind, (att, cc_bias) in planted.items():
        spec = make_preset(kind, n=500, seed=4)
        assert spec.n == 500 and spec.seed == 4
        _, _, truth = simulate_panel(spec)
        assert truth.att_population == pytest.approx(att, abs=1e-9), kind
        assert truth.cc_bias == pytest.approx(cc_bias, abs=1e-12), kind
        assert truth.cc_population == pytest.approx(att + cc_bias, abs=1e-9), kind


def test_population_instrument_values_are_pinned():
    # the instrument estimators evaluated on the designs' expected counts
    est, diag = _iv_single(_expected_counts(make_preset("homogeneous-bias"), (0,)))
    assert est.point == pytest.approx(0.9829234972677594, abs=1e-12)
    assert diag.denom == pytest.approx((0.25, 0.25), abs=1e-12)
    assert diag.bias_correction[0] == pytest.approx(0.0, abs=1e-12)

    multi = make_preset("multi-iv")
    est, diag = _iv_single(_expected_counts(multi, (0,)))
    assert est.point == pytest.approx(1.82363113664363, abs=1e-12)
    assert diag.denom == pytest.approx((0.15000000000000002, 0.19741074257124747), abs=1e-12)
    est, _ = _iv_pair(_expected_counts(multi, (0, 1)))
    assert est.point == pytest.approx(1.0, abs=1e-12)


def test_expected_counts_match_a_large_draw():
    spec = make_preset("multi-iv", n=200_000, seed=9)
    expected = _expected_counts(spec, (0, 1))
    data, _, _ = simulate_panel(spec)
    drawn = GroupKey(data, aux=(0, 1)).counts()
    for d in (0, 1):
        # Pr(R2, levels | D = d, R1 = 1): all expected mass sits at R1 = 1
        assert expected.n[0, d, 1].sum() == pytest.approx(1.0, abs=1e-12)
        assert expected.n[0, d, 0].sum() == 0.0
        shares = drawn.n[0, d, 1] / drawn.n[0, d, 1].sum()
        np.testing.assert_allclose(shares, expected.n[0, d, 1], atol=0.006)
        means = drawn.s[0, d, 1, 1] / drawn.n[0, d, 1, 1]
        np.testing.assert_allclose(means, expected.s[0, d, 1, 1] / expected.n[0, d, 1, 1], atol=0.03)
        assert not expected.s[0, d, 1, 0].any()
    assert expected.cc_sum == pytest.approx(expected.s[0, :, 1, 1].sum(axis=(1, 2)), abs=1e-15)


def test_bound_presets_plant_unit_att_among_always_respondents():
    for kind in ("monotone", "no-monotone"):
        _, _, truth = simulate_panel(make_preset(kind, n=500, seed=0))
        assert truth.att_ar_population == pytest.approx(1.0, abs=1e-9)


def test_preset_roots_are_pinned_and_checked():
    # the written-out roots reproduce the numerical solves bit for bit, so
    # presets keep generating identical panels
    assert _solve_homogeneous_cells() == (
        0.44545454545454544, 0.9545454545454545, 1.036885245901639
    )
    assert _solve_multi_instrument() == (
        0.3422596636831731, -0.056882853652676924, -0.07934081250884106, 0.1034086775903435
    )
    with pytest.raises(RuntimeError, match="does not solve its equations"):
        _check_solution(1e-9, "a mistyped root")


def test_unknown_preset_rejected():
    with pytest.raises(InputError, match="unknown preset"):
        make_preset("bogus")


def test_a_negative_seed_is_rejected_where_the_spec_is_built():
    with pytest.raises(InputError, match=r"^seed must be a non-negative integer, got -1$"):
        make_preset("pi", n=50, seed=-1)


# -- the draw and the identities against their one-pass-per-group references ---


def _design(n_cells: int, seed: int, n: int) -> DgpSpec:
    """A random cell design: zero shares and strata, shifts of both signs,
    pattern and independent auxiliaries, and exported or latent cells."""
    rng = np.random.default_rng(seed)

    def row(k: int, zeros: float) -> tuple[float, ...]:
        v = rng.random(k) * (rng.random(k) >= zeros)
        v[0] += v.sum() == 0
        return tuple(map(float, v / v.sum()))

    shares = [row(n_cells, 0.15) for _ in (0, 1)]
    n_pattern = int(rng.integers(0, 3))
    cells = tuple(
        Cell(
            label=f"c{c}",
            share=(shares[0][c], shares[1][c]),
            strata=(row(4, 0.3), row(4, 0.3)),
            trend_shift=tuple(map(float, rng.normal(size=2))),
            effect_shift=float(rng.normal()),
            baseline_shift=tuple(map(float, rng.normal(size=2))),
            x_label=c if seed % 2 else None,
            aux_pattern=tuple(map(int, rng.integers(0, 2, n_pattern))) if n_pattern else None,
        )
        for c in range(n_cells)
    )
    return DgpSpec(
        n=n,
        seed=seed,
        joint_sd=_aggregate_joint(float(rng.uniform(0.2, 0.8)), cells),
        trend=tuple(map(float, rng.normal(size=4))),
        baseline=tuple(map(tuple, rng.normal(size=(4, 2)).tolist())),
        effect=tuple(map(float, rng.normal(size=4))),
        noise_sd=float(rng.uniform(0.0, 1.0)),
        r1_model=R1Model("mcar", 0.7) if seed % 3 else R1Model(),
        aux_models=(AuxModel("pattern"),) * n_pattern + (AuxModel("independent", 0.3),),
        covariate_model=cells,
        arm_trend_delta=tuple(map(float, rng.normal(size=4) * (rng.random(4) < 0.5))),
    )


def _outcome(fn, *args):
    """``fn(*args)``, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (EstimatorError, InputError, RuntimeError) as exc:
        return type(exc), str(exc)


def _failed(outcome) -> bool:
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


def _draw_bytes(draw) -> list[bytes]:
    data, oracle, truth = draw
    fields = [data.d, data.y1, data.y2, data.aux, data.x, data.r1, data.r2]
    fields += [oracle.d, oracle.y1_true, oracle.y2_1, oracle.y2_0, oracle.s, oracle.r1,
               oracle.r2_1, oracle.r2_0, oracle.aux, oracle.x]
    return [b"none" if a is None else repr((a.dtype, a.shape)).encode() + a.tobytes()
            for a in fields] + [repr(truth).encode()]


def _same_draw(spec: DgpSpec) -> bool:
    """Whether ``spec`` draws; the draw or the error equals the reference's."""
    got, want = _outcome(simulate_panel, spec), _outcome(reference_simulate_panel, spec)
    if _failed(want):
        assert got == want
        return False
    assert _draw_bytes(got) == _draw_bytes(want)
    return True


@pytest.mark.parametrize("kind", PRESET_KINDS)
def test_preset_draws_are_byte_identical_to_the_per_unit_reference(kind):
    drawn = [
        _same_draw(make_preset(kind, n=n, seed=seed))
        for n in (1, 4, 50, 2000)
        for seed in range(4)
    ]
    assert not all(drawn) and any(drawn)  # the empty-arm error is among them


def test_cell_design_draws_are_byte_identical_to_the_per_unit_reference():
    specs = [_design(cells, seed, n) for cells in (1, 2, 7, 48)
             for seed in range(3) for n in (40, 500)]
    # 48 cells, two with no share in either arm, whose cumulative shares
    # fall short of 1 in the last bits
    shares = np.full(48, 1 / 46)
    shares[[5, 47]] = 0.0
    assert np.cumsum(shares)[-1] < 1.0
    strata = ((0.5, 0.2, 0.1, 0.2), (0.25, 0.25, 0.25, 0.25))
    cells = tuple(
        Cell(label=f"c{c}", share=(s, s), strata=strata, trend_shift=(0.01 * c, -0.02 * c),
             x_label=c)
        for c, s in enumerate(shares.tolist())
    )
    specs += [
        plain_spec(n=3000, seed=seed, joint_sd=_aggregate_joint(0.4, cells), covariate_model=cells)
        for seed in range(3)
    ]
    assert all(map(_same_draw, specs))


def _close(a, b) -> bool:
    """Equal structure, with floats equal within 1e-12 relative."""
    if isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in b)
    if isinstance(b, tuple):
        return len(a) == len(b) and all(map(_close, a, b))
    if isinstance(b, float):
        return a == pytest.approx(b, rel=1e-12, abs=1e-12)
    return a == b


def test_decomposition_and_trend_mixture_match_the_per_unit_reference():
    oracles = []
    for kind in PRESET_KINDS:  # multi-iv and pi do not share trends
        for n in (4, 12, 50, 2000):
            for seed in range(3):
                draw = _outcome(simulate_panel, make_preset(kind, n=n, seed=seed))
                if not _failed(draw):
                    oracles.append(draw[1])
    unshared = plain_spec(n=20_000, arm_trend_delta=(1.0, 1.0, 1.0, 1.0))
    oracles += [simulate_panel(spec)[1] for spec in (unshared, _design(7, 1, 300))]
    no_control_ar = [(1, "AR", 0.0, 0.5, 1.5)] * 3 + [(0, "NR", 0.0, 0.5, 1.5)] * 3
    one_treated_itr = [
        (1, "AR", 0.0, 0.5, 1.5), (1, "AR", 0.1, 0.2, 1.0), (1, "ITR", 0.0, 1.0, 2.0),
        (0, "AR", 0.3, 0.7, 1.0), (0, "AR", 0.0, 0.1, 0.9), (0, "ITR", 0.2, 0.6, 1.1),
        (0, "ITR", 0.0, 0.9, 1.4),
    ]
    oracles += [oracle_rows(no_control_ar), oracle_rows(one_treated_itr)]
    errors = set()
    for oracle in oracles:
        for fn, reference in ((decompose_att, reference_decompose_att),
                              (check_trend_mixture, reference_check_trend_mixture)):
            got, want = _outcome(fn, oracle), _outcome(reference, oracle)
            if _failed(want):
                assert got == want
                errors.add(want[1].split(":")[0])
            else:
                for name in want.__dataclass_fields__:
                    assert _close(getattr(got, name), getattr(want, name)), name
    assert errors >= {
        "no control units in stratum AR",
        "stratum ITR needs at least two units per arm for the decomposition tolerance",
        "decomposition identity violated",
    }, errors


# -- one shared summary for both identities ------------------------------------


def _group_overflowing_oracle() -> OraclePanel:
    """A monotone draw whose two first treated always-respondents change by
    1.2e308 each: every unit's change is finite, their group's sum is not."""
    _, oracle, _ = simulate_panel(make_preset("monotone", n=200, seed=1))
    names = ("d", "y1", "y2", "aux", "s", "y1_true", "y2_1", "y2_0")
    columns = {name: getattr(oracle, name).copy() for name in names}
    units = np.flatnonzero((oracle.d == 1) & (oracle.s == 0))[:2]
    columns["y1_true"][units] = -6e307
    columns["y1"][units] = np.where(oracle.r1[units], -6e307, np.nan)
    for name in ("y2_1", "y2_0", "y2"):
        columns[name][units] = 6e307
    return OraclePanel(**columns, x=oracle.x)


def test_the_identities_refuse_a_group_sum_that_overflows():
    oracle = _group_overflowing_oracle()
    figures = {
        decompose_att: "mean or spread of y2_0 - y1_true",  # each reads its own figures
        check_trend_mixture: "mean of y2_0 - y1_true",
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for identity, figure in figures.items():
            message = f"^the result is not finite: the {figure} in stratum AR, arm 1 overflows$"
            for given in (oracle, oracle.records):
                with pytest.raises(EstimatorError, match=message):
                    identity(given)


def test_the_identities_summary_holds_no_reference_to_the_oracle():
    _, oracle, _ = simulate_panel(make_preset("monotone", n=2000, seed=4))
    before = sys.getrefcount(oracle)
    decompose_att(oracle)
    check_trend_mixture(oracle)
    assert oracle._summary is not None
    assert sys.getrefcount(oracle) == before


@pytest.mark.parametrize("kind", ["zero-bias", "monotone", "no-monotone"])
def test_the_identities_give_the_same_bits_on_a_panel_and_its_records(kind):
    draws = [simulate_panel(make_preset(kind, n=1500, seed=6))[1] for _ in range(2)]
    orders = ((decompose_att, check_trend_mixture), (check_trend_mixture, decompose_att))
    reports = []
    for oracle, order in zip(draws, orders):
        got = {fn.__name__: repr(fn(oracle)) for fn in order}
        got.update({"records " + fn.__name__: repr(fn(oracle.records)) for fn in order})
        reports.append(got)
    for report in reports:
        for name in ("decompose_att", "check_trend_mixture"):
            assert report[name] == report["records " + name] == reports[0][name]


TWO_PER_TREATED_GROUP = [(1, "AR", 0.5, 1.5, 2.5), (1, "AR", 0.6, 1.6, 2.6),
                         (1, "ITR", 0.5, 1.5, 2.5), (1, "ITR", 0.7, 1.5, 2.5)]


@pytest.mark.parametrize(
    "rows, refusing, message, other",
    [
        # each treated always-respondent's effect 1.2e308: their sum overflows
        ([(1, "AR", 0.0, -6e307, 6e307)] * 2, decompose_att,
         "mean of y2_1 - y2_0 in stratum AR, arm 1", None),
        # one unit per treated group, each finite: the treated arm's sum is not
        ([(1, "AR", -6e307, 6e307, 6e307), (1, "ITR", -6e307, 6e307, 6e307)],
         check_trend_mixture, "mean or spread of y2_0 - y1_true in arm 1",
         "stratum AR needs at least two units per arm"),
        # each treated group's effects sum to 1.2e308: the treated arm's do not
        ([(1, "AR", 0.0, -6e307, 6e307), (1, "ITR", 0.0, -6e307, 6e307)], decompose_att,
         "mean of y2_1 - y2_0 over treated units is inf", None),
        # control never-respondents: their effects' sum overflows, which no
        # decomposition term reads, and so does the control arm's spread
        (TWO_PER_TREATED_GROUP + [(0, "NR", 0.0, -6e307, 6e307)] * 2, check_trend_mixture,
         "mean or spread of y2_0 - y1_true in arm 0", None),
    ],
)
def test_the_identities_name_the_group_whose_sum_overflows(rows, refusing, message, other):
    # only the identity that reads the overflowing figure refuses
    control = [(0, "AR", 0.2, 1.1, 2.1), (0, "ITR", 0.4, 1.3, 2.3)] * 2
    records = oracle_rows(rows + control)
    (other_identity,) = {decompose_att, check_trend_mixture} - {refusing}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimatorError, match=f"^the result is not finite: the {message}"):
            refusing(records)
        if other is not None:
            with pytest.raises(EstimatorError, match=f"^{other}"):
                other_identity(records)
            return
        report = other_identity(records)
    figures = [*report.direct, report.pt_gap] if refusing is decompose_att else report.terms
    assert np.isfinite(figures).all()


def traced(build):
    """``build()``, with its peak and retained traced memory in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, held


@pytest.mark.parametrize("preset, bound", [("monotone", 1.27), ("no-monotone", 1.32)])
def test_a_draw_and_its_group_key_peak_little_above_what_they_keep(preset, bound):
    # At n=200k a draw peaks at 1.256x (first-wave response drawn) and 1.309x
    # (always observed) of what it returns, and GroupKey at 1.563x of its
    # key and changes; a draw that gathers its observed y2 before its noise
    # is freed reads 1.34x and 1.41x, a 64-bit complete-case mask 2.07x.
    simulate_panel(make_preset(preset, n=1_000, seed=1))  # cached preset solves
    (data, _, _), peak, held = traced(lambda: simulate_panel(make_preset(preset, n=200_000, seed=1)))
    assert peak / held <= bound
    _, peak, held = traced(lambda: GroupKey(data))
    assert peak / held <= 1.57

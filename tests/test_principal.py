"""Covariate-cell stratum scores and the weighted ATT estimator."""

from __future__ import annotations

import numpy as np
import pytest

from didmiss import (
    INCONSISTENT_FLAG,
    EstimatorError,
    att_principal_ignorability,
    did_complete_case,
    principal_scores,
)

from didmiss.panel import _factorize

from _helpers import make_panel, reference_factorize


def two_cell_fixture():
    """Two covariate cells with exact-count response rates.

    Cell x=0: controls 10 (8 complete), treated 10 (9 complete);
    cell x=1: controls 10 (6 complete), treated 10 (7 complete).
    Changes are constant within (cell, arm): treated 3 / control 1 in cell 0,
    treated 2 / control 1 in cell 1. First-wave response is full, so the
    scores are e11 = Pr(R2=1 | control, x), e10 = Pr(R2=1 | treated, x) - e11.
    """
    d, y1, y2, x = [], [], [], []

    def add(count, arm, dy, cell, observed):
        for i in range(count):
            d.append(arm)
            y1.append(0.0)
            y2.append(dy if i < observed else np.nan)
            x.append(cell)

    add(10, 0, 1.0, 0, observed=8)
    add(10, 1, 3.0, 0, observed=9)
    add(10, 0, 1.0, 1, observed=6)
    add(10, 1, 2.0, 1, observed=7)
    return make_panel(d, y1, y2, x=x)


def test_scores_match_hand_rates():
    table = principal_scores(two_cell_fixture())
    assert set(table.cells) == {(0,), (1,)}
    cell0 = table.cells[(0,)]
    assert cell0.e11 == pytest.approx(0.8, abs=1e-12)
    assert cell0.e10 == pytest.approx(0.1, abs=1e-12)
    assert cell0.e00 == pytest.approx(0.1, abs=1e-12)
    assert cell0.n == (10, 10)
    cell1 = table.cells[(1,)]
    assert cell1.e11 == pytest.approx(0.6, abs=1e-12)
    assert cell1.e10 == pytest.approx(0.1, abs=1e-12)
    assert cell1.e00 == pytest.approx(0.3, abs=1e-12)
    assert table.clip_events == () and table.flags == ()


def test_normalizers_are_treated_share_weighted_scores():
    table = principal_scores(two_cell_fixture())
    assert table.normalizers[(1, 1)] == pytest.approx(0.7, abs=1e-12)
    assert table.normalizers[(1, 0)] == pytest.approx(0.1, abs=1e-12)
    assert table.normalizers[(0, 0)] == pytest.approx(0.2, abs=1e-12)
    assert sum(table.normalizers.values()) == pytest.approx(1.0, abs=1e-12)


def test_weighted_att_matches_hand_arithmetic():
    # Stratum contrasts: always 18/7 - 1, if-treated 2.5 - 1, never 2.25 - 1;
    # with shares (0.7, 0.1, 0.2) the ATT is exactly 1.5.
    est = att_principal_ignorability(two_cell_fixture())
    expected = 0.7 * (18 / 7 - 1.0) + 0.1 * 1.5 + 0.2 * 1.25
    assert est.point == pytest.approx(expected, abs=1e-12)
    assert est.point == pytest.approx(1.5, abs=1e-12)
    assert est.n_used == 8 + 9 + 6 + 7
    assert est.notes == ()


def test_without_covariates_single_cell():
    data = make_panel(
        [0, 0, 0, 1, 1, 1],
        [0.0] * 6,
        [1.0, 1.0, np.nan, 2.0, 2.0, np.nan],
    )
    table = principal_scores(data)
    assert set(table.cells) == {()}
    cell = table.cells[()]
    assert cell.e11 == pytest.approx(2 / 3, abs=1e-12)


def test_zero_missingness_collapses_to_complete_case_did():
    rng = np.random.default_rng(5)
    n = 60
    d = np.repeat([0, 1], n // 2)
    y1 = rng.normal(0.0, 1.0, n)
    y2 = y1 + 0.5 + d * 1.2 + rng.normal(0.0, 1.0, n)
    data = make_panel(d, y1, y2, x=rng.integers(0, 2, n))
    pi = att_principal_ignorability(data)
    cc = did_complete_case(data)
    assert pi.point == pytest.approx(cc.point, abs=1e-12)
    assert pi.n_used == cc.n_used == n


def test_scores_clipped_when_rates_contradict_the_model():
    # Control response (0.9) exceeds treated response (0.5): the raw
    # always-respondent score 0.9 is infeasible and clips to 0.5.
    d, y1, y2 = [], [], []

    def add(count, arm, observed):
        for i in range(count):
            d.append(arm)
            y1.append(0.0)
            y2.append(1.0 if i < observed else np.nan)

    add(10, 0, observed=9)
    add(10, 1, observed=5)
    data = make_panel(d, y1, y2)
    table = principal_scores(data)
    cell = table.cells[()]
    assert cell.e11 == pytest.approx(0.5, abs=1e-12)
    assert cell.e10 == pytest.approx(0.0, abs=1e-12)
    assert table.clip_events and INCONSISTENT_FLAG in table.flags
    est = att_principal_ignorability(data)
    assert "principal scores clipped" in est.notes


def test_empty_covariate_cell_refused():
    data = make_panel(
        [0, 0, 1, 1],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 2.0, 2.0],
        x=[0, 0, 1, 1],  # x=0 has no treated units, x=1 no controls
    )
    with pytest.raises(EstimatorError, match="empty covariate cell"):
        principal_scores(data)


def test_cell_without_complete_cases_refused():
    data = make_panel(
        [0, 0, 1, 1, 0, 1],
        [0.0] * 6,
        [1.0, 1.0, np.nan, np.nan, 1.0, 2.0],
        x=[0, 0, 0, 0, 1, 1],
    )
    with pytest.raises(EstimatorError, match="no complete cases in covariate cell"):
        att_principal_ignorability(data)


@pytest.mark.parametrize(
    "estimator, x, y2, message",
    [
        (principal_scores, [0, 0, 1, 1, 2, 2, 2, 2], [1.0] * 8,
         "empty covariate cell: (x=(0,), arm 1), (x=(1,), arm 0)"),
        (att_principal_ignorability, [0, 0, 0, 0, 1, 1, 2, 2],
         [1.0, 1.0, np.nan, np.nan, 1.0, 2.0, np.nan, np.nan],
         "no complete cases in covariate cell: (x=(0,), arm 1), (x=(2,), arm 0), (x=(2,), arm 1)"),
    ],
    ids=["empty-cell", "no-complete-cases"],
)
def test_cell_refusals_list_every_cell_and_arm(estimator, x, y2, message):
    data = make_panel([0, 0, 1, 1, 0, 1, 0, 1], [0.0] * 8, y2, x=x)
    with pytest.raises(EstimatorError) as refused:
        estimator(data)
    assert str(refused.value) == message


def test_scores_read_counts_alone_where_the_estimator_refuses_an_overflow():
    data = two_cell_fixture()
    y1, y2 = data.y1.copy(), data.y2.copy()
    y1[0], y2[0] = -1.7e308, 1.7e308  # a complete case whose y2 - y1 overflows
    huge = make_panel(data.d, y1, y2, x=data.x)
    assert principal_scores(huge) == principal_scores(data)
    with pytest.raises(EstimatorError, match=r"^the result is not finite: y2 - y1 is not finite"):
        att_principal_ignorability(huge)


def test_first_wave_gaps_annotate_the_estimand():
    data = make_panel(
        [0, 0, 1, 1, 1],
        [0.0, np.nan, 0.0, 0.0, np.nan],
        [1.0, 1.0, 2.0, np.nan, 2.0],
    )
    est = att_principal_ignorability(data)
    assert any("R1 = 1" in note for note in est.notes)


def test_covariate_cells_match_a_rerank_of_every_column():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 4))
        x = rng.integers(0, [2, 7, 2**62][int(rng.integers(0, 3))], (n, k), dtype=np.int64)
        cells, index = _factorize(x)
        want_cells, want_index = reference_factorize(x)
        assert cells == want_cells
        assert index.dtype == want_index.dtype and np.array_equal(index, want_index)


def test_covariate_cells_match_numpy_unique_on_small_and_huge_codes():
    # small codes are ranked by counting, others through np.unique
    rng = np.random.default_rng(9)
    for _ in range(200):
        n, k = int(rng.integers(1, 60)), int(rng.integers(1, 3))
        low = [0, 10**17 - 3][int(rng.integers(0, 2))]
        high = low + [2, 5, 4 * n, 4 * n + 2, 10**6][int(rng.integers(0, 5))]
        x = rng.integers(low, high, (n, k), dtype=np.int64)
        cells, index = _factorize(x)
        rows, inverse = np.unique(x, axis=0, return_inverse=True)
        assert cells == tuple(map(tuple, rows.tolist()))
        assert np.array_equal(index, inverse.reshape(-1))

"""Instrumented corrections for outcome-trend differences tied to missingness."""

from __future__ import annotations

import math

import numpy as np
import pytest

from didmiss import (
    EstimatorError,
    InputError,
    att_iv,
    att_iv_multi,
    did_complete_case,
    make_preset,
    simulate_panel,
)
from didmiss.iv import _instrument_gap, _iv_counts
from didmiss.panel import GroupCounts
from didmiss.simulate import PRESET_KINDS, _expected_counts

from _helpers import (
    block_panel,
    make_panel,
    reference_corrected,
    reference_instrument_gap,
    repr_or_error,
)


def single_iv_fixture():
    """Exact-count panel whose correction terms are hand arithmetic.

    Treated arm (20 units): instrument level 1 holds 6 complete cases with
    changes (1,1,1,2,2,2) plus 2 first-wave-only units; level 0 holds 4
    complete cases (2,2,3,3) plus 4 first-wave-only units; 4 more units
    observe nothing. Control arm (20 units): level 1 has 5 complete cases
    (all change 1) plus 5 first-wave-only; level 0 has 8 complete cases
    (all change 2) plus 2 first-wave-only.
    """
    return block_panel(
        [
            # treated
            (3, 1, 0.0, 1.0, 1),
            (3, 1, 0.0, 2.0, 1),
            (2, 1, 0.0, None, 1),
            (2, 1, 0.0, 2.0, 0),
            (2, 1, 0.0, 3.0, 0),
            (4, 1, 0.0, None, 0),
            (4, 1, None, None, 0),
            # control
            (5, 0, 0.0, 1.0, 1),
            (5, 0, 0.0, None, 1),
            (8, 0, 0.0, 2.0, 0),
            (2, 0, 0.0, None, 0),
        ],
        aux_width=1,
    )


def test_single_instrument_matches_hand_arithmetic():
    data = single_iv_fixture()
    est, diag = att_iv(data, 0)

    # Hand quantities (see fixture docstring).
    m_t = (1.5, 2.5)  # complete-case mean change at instrument level (1, 0)
    q_t = (1 - 6 / 8, 1 - 4 / 8)  # Pr(missing post | level, first wave seen)
    m_c = (1.0, 2.0)
    q_c = (1 - 5 / 10, 1 - 8 / 10)
    corr_t = (m_t[0] - m_t[1]) / (q_t[1] - q_t[0]) * 0.5
    corr_c = (m_c[0] - m_c[1]) / (q_c[1] - q_c[0]) * 0.35
    # each arm's levels hold equally many first-wave respondents (8 treated,
    # 10 control), so the base is the plain mean of the level means
    base_t = 0.5 * m_t[0] + 0.5 * m_t[1]
    base_c = 0.5 * m_c[0] + 0.5 * m_c[1]
    cc = did_complete_case(data).point
    assert cc == pytest.approx(1.9 - 21 / 13, abs=1e-12)

    assert est.point == pytest.approx(base_t + corr_t - base_c - corr_c, abs=1e-12)
    assert est.point == pytest.approx(2.0 - 2.0 - 1.5 - 7 / 6, abs=1e-12)
    assert est.n_used == 23

    assert diag.missing_share == (0.35, 0.5)
    assert diag.denom[1] == pytest.approx(0.25, abs=1e-12)
    assert diag.denom[0] == pytest.approx(-0.3, abs=1e-12)
    assert diag.trend_gap == (-1.0, -1.0)
    # the base's shift from each arm's complete-case mean (1.9 and 21/13)
    # rides with the arm's correction
    assert diag.bias_correction[0] == pytest.approx(-(base_c - 21 / 13 + corr_c), abs=1e-12)
    assert diag.bias_correction[1] == pytest.approx(base_t - 1.9 + corr_t, abs=1e-12)
    # The diagnostics reassemble the point exactly as documented.
    assert est.point == pytest.approx(
        cc + diag.bias_correction[0] + diag.bias_correction[1], abs=1e-12
    )


def test_single_instrument_notes_first_wave_estimand():
    data = single_iv_fixture()
    est, _ = att_iv(data, 0)
    assert any("R1 = 1" in note for note in est.notes)

    fully_pre_observed = block_panel(
        [
            (4, 1, 0.0, 1.0, 1),
            (2, 1, 0.0, None, 1),
            (4, 1, 0.0, 2.0, 0),
            (1, 1, 0.0, None, 0),
            (4, 0, 0.0, 1.0, 1),
            (2, 0, 0.0, None, 1),
            (4, 0, 0.0, 2.0, 0),
            (1, 0, 0.0, None, 0),
        ],
        aux_width=1,
    )
    est, _ = att_iv(fully_pre_observed, 0)
    assert est.notes == ()


def test_relabeling_the_instrument_is_exactly_neutral():
    data = single_iv_fixture()
    flipped = make_panel(data.d, data.y1, data.y2, aux=1 - data.aux)
    a, diag_a = att_iv(data, 0)
    b, diag_b = att_iv(flipped, 0)
    assert a.point == b.point
    assert diag_b.denom == (-diag_a.denom[0], -diag_a.denom[1])


def test_zero_missingness_collapses_to_complete_case():
    # A constant instrument would normally be degenerate; with nothing missing
    # the correction, level-weighted base included, is skipped before any
    # instrument cell is inspected, so both estimators keep the bits of the
    # complete-case DID.
    data = make_panel(
        [0, 0, 0, 1, 1, 1],
        [0.0, 1.0, 0.3, 0.0, 1.0, 0.7],
        [1.0, 2.0, 0.4, 3.0, 4.1, 1.3],
        aux=[[0, 0], [0, 1], [0, 1], [0, 1], [0, 0], [0, 0]],
    )
    cc = did_complete_case(data).point
    for est, diag in (att_iv(data, 0), att_iv(data, 1), att_iv_multi(data, (0, 1))):
        assert est.point == cc
        assert diag.bias_correction == (0.0, 0.0)
        assert diag.missing_share == (0.0, 0.0)


def test_one_fully_observed_arm_skips_only_that_correction():
    data = block_panel(
        [
            (4, 1, 0.0, 1.0, 1),  # treated: nothing missing
            (4, 1, 0.0, 2.0, 0),
            (4, 0, 0.0, 1.0, 1),
            (2, 0, 0.0, None, 1),
            (4, 0, 0.0, 2.0, 0),
            (1, 0, 0.0, None, 0),
        ],
        aux_width=1,
    )
    _, diag = att_iv(data, 0)
    assert diag.bias_correction[1] == 0.0
    assert diag.bias_correction[0] != 0.0


def test_aux_index_out_of_range():
    with pytest.raises(InputError, match="out of range"):
        att_iv(single_iv_fixture(), 3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda data: att_iv(data, 1.0), r"aux index must be an integer, got 1\.0"),
        (lambda data: att_iv(data, True), "aux index must be an integer, got True"),
        (lambda data: att_iv_multi(data, (0, 1.0)), r"aux index must be an integer, got 1\.0"),
        (
            lambda data: att_iv_multi(data, (0, 1, 1)),
            r"an instrument pair must hold exactly two aux indices, got \(0, 1, 1\)",
        ),
        (
            lambda data: att_iv_multi(data, (1,)),
            r"an instrument pair must hold exactly two aux indices, got \(1,\)",
        ),
        (
            lambda data: att_iv_multi(data, 1),
            r"an instrument pair must hold exactly two aux indices, got \(1,\)",
        ),
        (
            lambda data: att_iv_multi(data, (1, 1)),
            "an instrument pair needs two different aux indices, got 1 twice",
        ),
    ],
    ids=["float", "bool", "float-in-pair", "three", "one", "scalar", "repeated"],
)
def test_a_malformed_instrument_index_is_an_input_error(call, message):
    data, _, _ = simulate_panel(make_preset("multi-iv", n=400, seed=1))
    with pytest.raises(InputError, match=rf"^{message}$"):
        call(data)


def test_empty_instrument_cell_refused():
    # All treated units sit at instrument level 0 while the arm has
    # missingness, so level 1 has no complete cases.
    data = block_panel(
        [
            (4, 1, 0.0, 1.0, 0),
            (2, 1, 0.0, None, 0),
            (4, 0, 0.0, 1.0, 1),
            (2, 0, 0.0, None, 1),
            (4, 0, 0.0, 2.0, 0),
            (1, 0, 0.0, None, 0),
        ],
        aux_width=1,
    )
    with pytest.raises(EstimatorError, match="empty instrument cell"):
        att_iv(data, 0)


def test_weak_instrument_refused():
    # Both instrument levels lose post-period outcomes at the same rate.
    data = block_panel(
        [
            (2, 1, 0.0, 1.0, 1),
            (2, 1, 0.0, None, 1),
            (3, 1, 0.0, 2.0, 0),
            (3, 1, 0.0, None, 0),
            (4, 0, 0.0, 1.0, 1),
            (4, 0, 0.0, 2.0, 0),
        ],
        aux_width=1,
    )
    with pytest.raises(EstimatorError, match="weak instrument in arm 1"):
        att_iv(data, 0)


# -- instrument pairs ---------------------------------------------------------


def pair_iv_fixture_blocks() -> list[tuple]:
    """Blocks of ``pair_iv_fixture``, each carrying (aux1, aux2)."""
    return [
        # treated: (aux1, aux2) cells with distinct response rates
        (4, 1, 0.0, 1.0, 0, 0),
        (2, 1, 0.0, None, 0, 0),
        (4, 1, 0.0, 2.0, 0, 1),
        (1, 1, 0.0, None, 0, 1),
        (4, 1, 0.0, 2.5, 1, 0),
        (3, 1, 0.0, None, 1, 0),
        (4, 1, 0.0, 4.0, 1, 1),
        (2, 1, 0.0, None, 1, 1),
        # control
        (5, 0, 0.0, 0.5, 0, 0),
        (1, 0, 0.0, None, 0, 0),
        (5, 0, 0.0, 1.0, 0, 1),
        (2, 0, 0.0, None, 0, 1),
        (5, 0, 0.0, 1.5, 1, 0),
        (3, 0, 0.0, None, 1, 0),
        (5, 0, 0.0, 2.0, 1, 1),
        (1, 0, 0.0, None, 1, 1),
    ]


def pair_iv_fixture():
    """Exact-count panel with two instruments."""
    return block_panel(pair_iv_fixture_blocks(), aux_width=2)


def reference_pair_estimate(data) -> float:
    """Straight-line reimplementation of the instrument-pair formula."""
    d = np.asarray(data.d)
    cc = ~np.isnan(data.y1) & ~np.isnan(data.y2)
    dy = data.y2 - data.y1
    point = 0.0
    for arm, sign in ((0, -1.0), (1, 1.0)):
        in_arm = d == arm
        mean = float(dy[cc & in_arm].mean())
        share = float(np.isnan(data.y2[in_arm]).mean())
        if share == 0.0:
            point += sign * mean
            continue
        # the complete-case means of the four joint levels, weighted by
        # their shares of the arm's first-wave respondents
        seen = in_arm & ~np.isnan(data.y1)
        base = 0.0
        for v1 in (0, 1):
            for v2 in (0, 1):
                level = seen & (data.aux[:, 0] == v1) & (data.aux[:, 1] == v2)
                if level.any():
                    base += level.sum() / seen.sum() * float(dy[cc & level].mean())
        stats = []
        for k in (0, 1):
            level = data.aux[:, k]
            m, q = [], []
            for v in (0, 1):
                cell = cc & in_arm & (level == v)
                m.append(float(dy[cell].mean()))
                first = seen & (level == v)
                q.append(1.0 - cell.sum() / first.sum())
            stats.append((m[1] - m[0], q[1] - q[0]))
        numer = stats[0][0] - stats[1][0]
        denom = stats[1][1] - stats[0][1]
        point += sign * (base + numer / denom * share)
    return point


def test_instrument_pair_matches_reference_implementation():
    data = pair_iv_fixture()
    est, diag = att_iv_multi(data, (0, 1))
    assert est.point == pytest.approx(reference_pair_estimate(data), abs=1e-12)
    assert est.n_used == did_complete_case(data).n_used
    assert all(abs(v) > 0 for v in diag.denom)
    assert math.isclose(
        est.point,
        did_complete_case(data).point + diag.bias_correction[0] + diag.bias_correction[1],
        abs_tol=1e-12,
    )


def test_instrument_pair_order_swaps_sign_of_internals_only():
    data = pair_iv_fixture()
    a, diag_a = att_iv_multi(data, (0, 1))
    b, diag_b = att_iv_multi(data, (1, 0))
    # Swapping the pair negates numerator and denominator of each correction.
    assert a.point == b.point
    assert diag_b.denom == (-diag_a.denom[0], -diag_a.denom[1])


def test_degenerate_pair_refused():
    data = block_panel(
        [
            (4, 1, 0.0, 1.0, 1, 1),
            (2, 1, 0.0, None, 1, 1),
            (4, 1, 0.0, 2.0, 0, 0),
            (1, 1, 0.0, None, 0, 0),
            (6, 0, 0.0, 1.0, 1, 1),
            (6, 0, 0.0, 2.0, 0, 0),
        ],
        aux_width=2,
    )
    with pytest.raises(EstimatorError, match="degenerate instrument pair"):
        att_iv_multi(data, (0, 1))
    # one column named twice is a malformed request, not a refusal on the data
    with pytest.raises(InputError, match="two different aux indices, got 0 twice"):
        att_iv_multi(data, (0, 0))


def test_a_joint_level_without_complete_cases_is_refused():
    # every treated unit at (aux1, aux2) = (1, 1) lost its second wave; each
    # instrument alone still has complete cases at both of its levels
    blocks = [b for b in pair_iv_fixture_blocks() if b != (4, 1, 0.0, 4.0, 1, 1)]
    data = block_panel(blocks, aux_width=2)
    with pytest.raises(
        EstimatorError,
        match=r"^empty instrument cell \(arm 1, aux levels \(1, 1\)\): "
        "first-wave respondents but no complete cases$",
    ):
        att_iv_multi(data, (0, 1))
    for k in (0, 1):
        att_iv(data, k)


def test_degenerate_pair_tolerated_when_nothing_is_missing():
    data = make_panel(
        [0, 0, 1, 1],
        [0.0, 1.0, 0.0, 1.0],
        [1.0, 2.0, 3.0, 4.0],
        aux=[[1, 1], [0, 0], [1, 1], [0, 0]],
    )
    est, _ = att_iv_multi(data, (0, 1))
    assert est.point == did_complete_case(data).point


# -- the scalar formulas keep the bits of numpy's reductions ---------------------


def _reference_iv(c: GroupCounts):
    """``_iv_counts`` over the reference formulas."""
    n, s = c.n[0], c.s[0]
    if n.ndim == 4:
        return reference_corrected(c, lambda d: reference_instrument_gap(n, s, d))

    def arm_gap(d):
        if not (n[:, 1, 1, 0, 1].any() or n[:, 1, 1, 1, 0].any()):
            raise EstimatorError(
                "degenerate instrument pair: indicators are identical on complete cases"
            )
        gap1, denom1 = reference_instrument_gap(n.sum(axis=4), s.sum(axis=4), d)
        gap2, denom2 = reference_instrument_gap(n.sum(axis=3), s.sum(axis=3), d)
        return gap1 - gap2, denom1 - denom2

    return reference_corrected(c, arm_gap)


def _assert_iv_bits(c: GroupCounts):
    n, s = c.n[0], c.s[0]
    if n.ndim == 4:
        levels = [(n, s)]
    else:  # each instrument of the pair, summed over the other
        levels = [(n.sum(axis=4), s.sum(axis=4)), (n.sum(axis=3), s.sum(axis=3))]
    for n_k, s_k in levels:
        for d in (0, 1):
            got = repr_or_error(_instrument_gap, n_k, s_k, d)
            assert got == repr_or_error(reference_instrument_gap, n_k, s_k, d)
    assert repr_or_error(_iv_counts, c) == repr_or_error(_reference_iv, c)


@pytest.mark.parametrize("kind", PRESET_KINDS)
def test_iv_formulas_keep_the_bits_of_numpy_reductions_on_expected_masses(kind):
    spec = make_preset(kind)
    for aux in [(k,) for k in range(len(spec.aux_models))] + [(0, 1)] * (len(spec.aux_models) > 1):
        try:
            c = _expected_counts(spec, aux)
        except InputError:  # an independent column has no expected counts by level
            continue
        _assert_iv_bits(c)


@pytest.mark.parametrize("masses", [False, True], ids=["integers", "float-masses"])
@pytest.mark.parametrize("width", [1, 2])
def test_iv_formulas_keep_the_bits_of_numpy_reductions_on_random_counts(width, masses):
    # a design's masses sit at R1 = 1 only, where no sum has more than two terms;
    # random masses spread over every group make the order of four-term sums show
    rng = np.random.default_rng(width)
    shape = (1, 2, 2, 2) + (2,) * width
    complete = np.zeros(shape, dtype=bool)
    complete[0, :, 1, 1] = True
    for _ in range(300):
        n = rng.integers(0, 5, size=shape)
        if masses:
            n = n * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)
        s = np.where(complete, rng.normal(0.0, 3.0, size=shape) * n, 0.0)
        cc_sum = s[0, :, 1, 1].reshape(2, -1).sum(axis=1)
        _assert_iv_bits(GroupCounts(n=n, s=s, cc_sum=cc_sum, cells=((),)))

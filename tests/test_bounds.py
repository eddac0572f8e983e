"""Strata-share formulas, trimmed means, and the trimming bounds."""

from __future__ import annotations

import io
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from didmiss import (
    INCONSISTENT_FLAG,
    BootstrapConfig,
    BoundResult,
    EstimatorError,
    InputError,
    Interval,
    PrincipalScoreTable,
    RateTable,
    STRATUM_PAIRS,
    StrataProportions,
    att_ar_bounds,
    bootstrap_bounds,
    load_panel,
    make_preset,
    simulate_panel,
    strata_proportions_bounds,
    strata_proportions_monotone,
    trimmed_mean,
)
from didmiss.bounds import _bounds_replicate, _sorted, _trimmed_mean_counts

from _helpers import (
    TIED_RESAMPLE_CSV,
    TIED_TRIM_CSV,
    block_panel,
    brute_trimmed_mean,
    make_panel,
    population_lee_bounds,
    reference_att_ar_bounds,
    reference_trimmed_sorted,
)


def plain_rates(p_r1, p_r2) -> RateTable:
    return RateTable(
        n=(100, 100),
        p_r1=p_r1,
        p_r2=p_r2,
        p_r2_given_r1=(None, None),
        p_r2_given_aux=((), ()),
    )


# -- trimmed mean ---------------------------------------------------------------


def test_trimmed_mean_hand_values():
    assert trimmed_mean([1.0, 2.0, 3.0, 4.0], 0.5, "bottom") == 1.5
    assert trimmed_mean([1.0, 2.0, 3.0, 4.0], 0.5, "top") == 3.5
    # Fractional retention: keep 1.5 of 3 values.
    assert trimmed_mean([1.0, 2.0, 3.0], 0.5, "bottom") == pytest.approx(4 / 3, abs=1e-15)
    assert trimmed_mean([1.0, 2.0, 3.0], 0.5, "top") == pytest.approx(8 / 3, abs=1e-15)


def test_trimmed_mean_full_keep_is_the_plain_mean():
    values = np.array([3.0, 1.0, 2.0, 7.5])
    assert trimmed_mean(values, 1.0, "bottom") == float(values.mean())
    assert trimmed_mean(values, 1.0, "top") == float(values.mean())


def test_trimmed_mean_sorts_its_input():
    shuffled = [4.0, 1.0, 3.0, 2.0]
    assert trimmed_mean(shuffled, 0.5, "bottom") == 1.5


def test_trimmed_mean_brackets_the_plain_mean():
    rng = np.random.default_rng(42)
    for _ in range(25):
        v = rng.normal(0.0, 3.0, rng.integers(1, 30))
        keep = float(rng.uniform(0.05, 1.0))
        lo = trimmed_mean(v, keep, "bottom")
        hi = trimmed_mean(v, keep, "top")
        assert lo <= float(v.mean()) + 1e-12
        assert hi >= float(v.mean()) - 1e-12


def test_trimmed_mean_matches_brute_force_on_random_draws():
    rng = np.random.default_rng(9)
    for _ in range(50):
        v = rng.normal(0.0, 2.0, rng.integers(1, 9))
        for keep in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            for side in ("bottom", "top"):
                assert trimmed_mean(v, keep, side) == pytest.approx(
                    brute_trimmed_mean(v, keep, side), abs=1e-12
                )


def test_trimmed_mean_input_validation():
    with pytest.raises(InputError, match="nonempty"):
        trimmed_mean([], 0.5, "bottom")
    with pytest.raises(InputError, match="keep fraction"):
        trimmed_mean([1.0], 0.0, "bottom")
    with pytest.raises(InputError, match="keep fraction"):
        trimmed_mean([1.0], 1.1, "bottom")
    with pytest.raises(InputError, match="side"):
        trimmed_mean([1.0], 0.5, "middle")


@pytest.mark.parametrize(
    "values, side, where",
    [
        ([float("nan"), 1.0, 2.0], "bottom", "nan at index 0"),
        ([1.0, float("inf"), 2.0], "top", "inf at index 1"),
        ([1.0, 2.0, float("-inf")], "bottom", "-inf at index 2"),
    ],
    ids=["nan", "inf", "-inf"],
)
def test_trimmed_mean_refuses_a_non_finite_value_naming_its_index(values, side, where):
    # a NaN sorts last, so the bottom side would silently drop it
    with pytest.raises(InputError, match=rf"^trimmed_mean requires finite values, got {where}$"):
        trimmed_mean(values, 0.5, side)


@pytest.mark.parametrize(
    "values, shape", [([[1.0, 2.0], [3.0, 4.0]], r"\(2, 2\)"), (3.0, r"\(\)")], ids=["2-D", "0-D"]
)
def test_trimmed_mean_refuses_a_sample_that_is_not_1d(values, shape):
    message = rf"^trimmed_mean requires a nonempty 1-D sample, got shape {shape}$"
    with pytest.raises(InputError, match=message):
        trimmed_mean(values, 0.5, "bottom")


@pytest.mark.parametrize("keep", [1.0, 0.9])
def test_trimmed_mean_refuses_a_mean_that_overflows(keep):
    # finite values whose sum overflows: refused, with no numpy warning
    with pytest.raises(EstimatorError, match=r"^the result is not finite: the trimmed mean is inf"):
        trimmed_mean([1e308, 1e308, 1.0], keep, "top")


@pytest.mark.parametrize("keep", [5e-324, 1e-310])
def test_trimmed_mean_refuses_a_subnormal_keep(keep):
    # keep * n would be subnormal and lose its digits: [0.3] gave 0.0 and 0.29999999999998517
    message = rf"^keep fraction must be in \[{sys.float_info.min}, 1\], got {keep}$"
    with pytest.raises(InputError, match=message):
        trimmed_mean([0.3], keep, "bottom")


SAMPLES = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1.0, -1.0, 0.1]),
        st.floats(min_value=-1e300, max_value=1e300),
    ),
    min_size=1,
    max_size=40,
)


@st.composite
def samples_and_keeps(draw) -> tuple[np.ndarray, float]:
    """A finite sample and a keep share: a step k/n, one ulp either side of
    it, an extreme share or any share in [the smallest normal float, 1]."""
    values = draw(SAMPLES)
    step = draw(st.integers(1, len(values))) / len(values)
    keep = draw(
        st.sampled_from(
            [step, math.nextafter(step, 0.0), math.nextafter(step, 2.0), 1e-9, 1 - 1e-12]
        )
        | st.floats(min_value=sys.float_info.min, max_value=1.0)
    )
    return np.array(values), min(keep, 1.0)


@given(samples_and_keeps(), st.sampled_from(["bottom", "top"]))
@settings(deadline=None, max_examples=400)
def test_trimmed_mean_keeps_the_bits_of_the_one_copy_formula(drawn, side):
    v, keep = drawn
    assume(keep < 1.0)  # keep 1 is the plain mean of the unsorted sample
    want = reference_trimmed_sorted(np.sort(v, kind="stable"), keep, side)
    assert trimmed_mean(v, keep, side).hex() == want.hex()


@given(samples_and_keeps(), st.sampled_from(["bottom", "top"]))
@settings(deadline=None, max_examples=400)
def test_the_kernels_one_copy_case_is_its_count_case_with_one_copy_each(drawn, side):
    v = np.sort(drawn[0], kind="stable")
    once = _trimmed_mean_counts(v, None, None, drawn[1], side)
    counted = _trimmed_mean_counts(v, v, np.arange(1, v.size + 1), drawn[1], side)
    assert once.hex() == counted.hex()


# -- strata proportions, point-identified (monotone) ------------------------------


def test_survey_rates_fixture(survey_rates):
    """Survey-style rates: the share formula lands on 0.5738 and the
    if-treated cell is negative, which must be clipped and flagged."""
    props = strata_proportions_monotone(survey_rates)
    assert props.mode == "monotone"
    pi11 = props.pi[1][(1, 1)]
    assert pi11.lo == pi11.hi
    assert pi11.lo == pytest.approx(0.5738, abs=1e-9)

    assert props.pi[1][(1, 0)] == Interval.point(0.0)
    events = {e.quantity: e for e in props.clip_events}
    assert events["pi_10(1)"].raw == pytest.approx(-0.0225, abs=1e-12)
    assert events["pi_10(1)"].clipped == 0.0
    assert INCONSISTENT_FLAG in props.flags


def test_monotone_proportions_on_consistent_rates():
    props = strata_proportions_monotone(plain_rates((1.0, 1.0), (0.75, 0.8)))
    assert props.clip_events == () and props.flags == ()
    assert props.pi[1][(1, 1)] == Interval.point(0.75)
    assert props.pi[1][(1, 0)].lo == pytest.approx(0.05, abs=1e-12)
    assert props.pi[1][(0, 1)] == Interval.point(0.0)
    assert props.pi[1][(0, 0)].lo == pytest.approx(0.2, abs=1e-12)
    # Control side: always-respondents are pinned, the rest only in sum.
    assert props.pi[0][(1, 1)] == Interval.point(0.75)
    assert props.pi[0][(1, 0)] == Interval(0.0, 0.25)
    assert props.pi[0][(0, 0)] == Interval(0.0, 0.25)


def test_no_missingness_forces_always_respondents():
    rates = plain_rates((1.0, 1.0), (1.0, 1.0))
    for props in (strata_proportions_monotone(rates), strata_proportions_bounds(rates)):
        for d in (0, 1):
            assert props.pi[d][(1, 1)] == Interval.point(1.0)
            for cell in ((1, 0), (0, 1), (0, 0)):
                assert props.pi[d][cell] == Interval.point(0.0)
        assert props.flags == ()


# -- strata proportions, interval-identified ---------------------------------------


def test_bounds_proportions_hand_example():
    """Fully observed first wave, response rates (0.9, 0.8): the treated
    always-respondent share is the interval [0.7, 0.8]."""
    props = strata_proportions_bounds(plain_rates((1.0, 1.0), (0.9, 0.8)))
    assert props.mode == "no-monotone"
    pi11 = props.pi[1][(1, 1)]
    assert pi11.lo == pytest.approx(0.7, abs=1e-12)
    assert pi11.hi == pytest.approx(0.8, abs=1e-12)
    assert props.pi[1][(1, 0)].lo == pytest.approx(0.0, abs=1e-12)
    assert props.pi[1][(1, 0)].hi == pytest.approx(0.1, abs=1e-12)
    assert props.pi[1][(0, 1)].lo == pytest.approx(0.1, abs=1e-12)
    assert props.pi[1][(0, 1)].hi == pytest.approx(0.2, abs=1e-12)
    assert props.pi[1][(0, 0)].hi == pytest.approx(0.1, abs=1e-12)
    assert props.flags == ()


def test_bounds_proportions_clip_infeasible_counterfactual():
    props = strata_proportions_bounds(plain_rates((0.9, 0.1), (0.05, 0.5)))
    quantities = [e.quantity for e in props.clip_events]
    assert "Pr(R2(0)=1|D=1)" in quantities
    assert INCONSISTENT_FLAG in props.flags


def test_monotone_point_sits_inside_frechet_interval_for_consistent_rates():
    rates = plain_rates((1.0, 1.0), (0.75, 0.8))
    point = strata_proportions_monotone(rates).pi[1][(1, 1)].lo
    cell = strata_proportions_bounds(rates).pi[1][(1, 1)]
    assert cell.contains(point)


# -- trimming bounds ----------------------------------------------------------------


def monotone_fixture():
    """Control: 6 complete cases (changes 0,0,0,1,1,1) + 2 first-wave-only.
    Treated: 8 complete cases (changes 0,1,1,2,2,2,3,4) + 2 first-wave-only.
    Keep shares are exactly 1.0 (control) and 0.9375 (treated)."""
    return block_panel(
        [
            (3, 0, 0.0, 0.0),
            (3, 0, 0.0, 1.0),
            (2, 0, 0.0, None),
            (1, 1, 0.0, 0.0),
            (2, 1, 0.0, 1.0),
            (3, 1, 0.0, 2.0),
            (1, 1, 0.0, 3.0),
            (1, 1, 0.0, 4.0),
            (2, 1, 0.0, None),
        ]
    )


def test_monotone_bounds_hand_arithmetic():
    res = att_ar_bounds(monotone_fixture(), "monotone")
    assert res.estimand == "ATT-AR"
    # Treated: keep 7.5 of 8 changes -> bottom 13/7.5, top 15/7.5.
    # Control: keep everything -> plain mean 0.5.
    assert res.lb == pytest.approx(13 / 7.5 - 0.5, abs=1e-12)
    assert res.ub == pytest.approx(1.5, abs=1e-12)
    assert res.trim_share == (1.0, 0.9375)
    assert res.n_used == 14
    assert not res.support_fallback
    assert res.flags == ()
    assert "response monotonicity" in res.assumptions_used


def test_no_monotone_bounds_hand_arithmetic():
    res = att_ar_bounds(monotone_fixture(), "no-monotone")
    # Treated keep: max(0, 0.75 + 0.8 - 1)/0.8 = 0.6875 -> 5.5 of 8 changes.
    # Control keep: 0.55/0.75 -> 4.4 of 6 changes.
    assert res.trim_share[1] == pytest.approx(0.6875, abs=1e-12)
    assert res.trim_share[0] == pytest.approx(0.55 / 0.75, abs=1e-12)
    assert res.lb == pytest.approx(7 / 5.5 - 3 / 4.4, abs=1e-12)
    assert res.ub == pytest.approx(13.5 / 5.5 - 1.4 / 4.4, abs=1e-12)
    assert "response monotonicity" not in res.assumptions_used


def test_no_monotone_bounds_nest_monotone_bounds():
    data = monotone_fixture()
    m = att_ar_bounds(data, "monotone")
    nm = att_ar_bounds(data, "no-monotone")
    assert nm.lb <= m.lb <= m.ub <= nm.ub


def test_bounds_without_missingness_collapse_to_a_point():
    data = make_panel([0, 0, 1, 1], [0.0, 0.0, 0.0, 0.0], [1.0, 3.0, 4.0, 6.0])
    for mode in ("monotone", "no-monotone"):
        res = att_ar_bounds(data, mode)
        assert res.lb == res.ub == 3.0
        assert res.trim_share == (1.0, 1.0)


def test_bounds_mode_validated():
    with pytest.raises(InputError, match="mode"):
        att_ar_bounds(monotone_fixture(), "both")


def test_bounds_require_complete_cases_in_each_arm():
    data = make_panel([0, 0, 1], [1.0, 1.0, 1.0], [np.nan, np.nan, 2.0])
    with pytest.raises(EstimatorError, match="no complete cases in arm 0"):
        att_ar_bounds(data, "monotone")


def test_overfull_keep_share_is_clipped_with_event():
    # Treated response rose (0.8 -> 1.0 across waves is impossible under the
    # model): the implied keep share exceeds one and must be clipped.
    data = block_panel(
        [
            (8, 0, 0.0, 1.0),
            (4, 1, 0.0, 0.0),
            (1, 1, 0.0, None),
        ]
    )
    res = att_ar_bounds(data, "monotone")
    assert res.trim_share[1] == 1.0
    assert any(e.quantity == "trim share arm 1" for e in res.clip_events)


def test_infeasible_keep_share_without_support_is_refused():
    # Controls respond far less in wave 2 than treated gained, driving the
    # implied treated always-respondent share to zero.
    data = block_panel(
        [
            (1, 0, 0.0, 1.0),
            (9, 0, 0.0, None),
            (5, 1, 0.0, 1.0),
            (5, 1, None, None),
        ]
    )
    with pytest.raises(EstimatorError, match="no outcome support declared"):
        att_ar_bounds(data, "monotone")


def test_infeasible_keep_share_falls_back_to_declared_support():
    data = block_panel(
        [
            (1, 0, 0.0, 1.0),
            (9, 0, 0.0, None),
            (5, 1, 0.0, 1.0),
            (5, 1, None, None),
        ],
        outcome_support=(0.0, 1.0),
    )
    res = att_ar_bounds(data, "monotone")
    assert res.support_fallback
    assert res.trim_share[1] == 1.0
    assert res.lb >= -1.0 and res.ub <= 1.0
    assert any("support fallback" in e.quantity for e in res.clip_events)


def test_bound_result_validation():
    with pytest.raises(ValueError, match="out of order"):
        BoundResult(
            estimand="ATT-AR", lb=1.0, ub=0.0, trim_share=(1.0, 1.0), assumptions_used=()
        )
    with pytest.raises(ValueError, match="trim_share"):
        BoundResult(
            estimand="ATT-AR", lb=0.0, ub=1.0, trim_share=(0.0, 1.0), assumptions_used=()
        )


# -- bootstrapped bounds ----------------------------------------------------------


@pytest.fixture()
def bootable_panel():
    rng = np.random.default_rng(77)
    n = 300
    d = (rng.random(n) < 0.5).astype(np.int8)
    y1 = rng.normal(0.0, 1.0, n)
    y2 = y1 + 0.4 + d * 1.0 + rng.normal(0.0, 1.0, n)
    y2[(rng.random(n) < 0.15) & (d == 1)] = np.nan
    y2[(rng.random(n) < 0.25) & (d == 0)] = np.nan
    return make_panel(d, y1, y2)


def test_bootstrap_bounds_deterministic_and_enveloping(bootable_panel):
    cfg = BootstrapConfig(replicates=40, seed=5)
    a = bootstrap_bounds(bootable_panel, "monotone", cfg)
    b = bootstrap_bounds(bootable_panel, "monotone", cfg)
    assert (a.lb_ci, a.ub_ci, a.outer, a.se_lb, a.se_ub) == (
        b.lb_ci,
        b.ub_ci,
        b.outer,
        b.se_lb,
        b.se_ub,
    )
    assert a.point.lb == att_ar_bounds(bootable_panel, "monotone").lb
    assert a.outer.lo == a.lb_ci.lo and a.outer.hi == a.ub_ci.hi
    assert a.outer.lo <= a.lb_ci.hi and a.ub_ci.lo <= a.outer.hi
    assert a.replicates_used + a.replicates_failed == 40
    assert a.level == 0.95


def test_an_arms_trimmed_means_are_ordered_on_near_tied_changes():
    # the treated bottom mean rounds to 0.10000000000000003, the top one to 0.1
    data = load_panel(io.StringIO(TIED_TRIM_CSV))
    res = att_ar_bounds(data, "monotone")
    assert (res.lb, res.ub) == (0.1, 0.10000000000000003)
    assert res.trim_share == (1.0, 0.9523809523809524)
    res = att_ar_bounds(data, "no-monotone")
    assert res.lb == res.ub == 0.10000000000000002


@pytest.mark.parametrize("mode", ["monotone", "no-monotone"])
def test_a_near_tied_resample_keeps_the_bootstrap_going(mode):
    data = load_panel(io.StringIO(TIED_RESAMPLE_CSV))
    engine, rng = _bounds_replicate(data, mode), np.random.default_rng(2)
    for rep in range(50):  # the resamples of the bootstrap below
        idx = rng.integers(0, len(data), size=len(data))
        lb, ub = engine(idx)
        rebuilt = att_ar_bounds(data._take(idx), mode)
        assert lb <= ub
        assert (lb, ub) == pytest.approx((rebuilt.lb, rebuilt.ub), rel=0.0, abs=1e-12)
    boot = bootstrap_bounds(data, mode, BootstrapConfig(replicates=50, seed=2))
    assert (boot.replicates_used, boot.replicates_failed) == (50, 0)
    assert boot.lb_ci.lo <= boot.lb_ci.hi and boot.ub_ci.lo <= boot.ub_ci.hi


def test_bounds_are_bit_identical_to_sorting_per_trimmed_mean():
    rng = np.random.default_rng(11)
    panels = [simulate_panel(make_preset(kind, n=3000, seed=2))[0]
              for kind in ("monotone", "no-monotone", "mnar-baseline")]
    for _ in range(300):
        n = int(rng.integers(4, 40))
        y1 = np.round(rng.normal(size=n), int(rng.integers(0, 3)))  # ties
        y2 = np.round(rng.normal(size=n) + rng.integers(0, 2, n), int(rng.integers(0, 3)))
        y1[rng.random(n) < 0.3 * rng.random()] = np.nan
        y2[rng.random(n) < 0.8 * rng.random()] = np.nan
        panels.append(make_panel(np.arange(n) % 2, y1, y2, outcome_support=(-10.0, 10.0)))
    fallbacks = 0
    for data in panels:
        for mode in ("monotone", "no-monotone"):
            try:
                want = repr(reference_att_ar_bounds(data, mode))
            except EstimatorError as exc:
                want = str(exc)
                with pytest.raises(EstimatorError, match=f"^{re.escape(want)}$"):
                    att_ar_bounds(data, mode)
                continue
            assert repr(att_ar_bounds(data, mode)) == want
            fallbacks += "support_fallback=True" in want
    assert fallbacks > 10


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode", ["monotone", "no-monotone"])
@pytest.mark.parametrize("kind", ["monotone", "no-monotone"])
def test_bounds_reach_the_sharp_identified_set(kind, mode, seed):
    # containment alone passes an interval that is too wide: each endpoint
    # must sit within 4.5 bootstrap SEs of its population value
    spec = make_preset(kind, n=200_000, seed=seed)
    lb, ub = population_lee_bounds(spec, mode)
    data = simulate_panel(spec)[0]
    boot = bootstrap_bounds(data, mode, BootstrapConfig(replicates=50, seed=seed))
    assert abs(boot.point.lb - lb) <= 4.5 * boot.se_lb, (boot.point.lb, lb, boot.se_lb)
    assert abs(boot.point.ub - ub) <= 4.5 * boot.se_ub, (boot.point.ub, ub, boot.se_ub)


@pytest.mark.parametrize(
    "kind, mode, want",
    [
        ("monotone", "monotone", (0.971249, 1.512871)),
        ("monotone", "no-monotone", (0.730382, 1.760861)),
        ("no-monotone", "monotone", (1.180176, 1.369231)),
        ("no-monotone", "no-monotone", (0.389575, 2.177214)),
    ],
)
def test_the_population_bounds_of_the_bounds_presets(kind, mode, want):
    got = population_lee_bounds(make_preset(kind, n=1000, seed=1), mode)
    assert got == pytest.approx(want, abs=1e-6)


# -- exact fast sorts: the default sort where it gives the stable sort's bytes --

TIED_FLOATS = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, math.nan, -math.nan, 1.0, -1.0, 2.5, math.inf, -math.inf]),
        st.floats(allow_nan=True, allow_infinity=True, width=64),
    ),
    max_size=41,
)


@given(TIED_FLOATS)
@settings(deadline=None, max_examples=300)
def test_the_sort_helper_returns_the_stable_sorts_bytes(values):
    v = np.array(values, dtype=np.float64)
    assert _sorted(v).tobytes() == np.sort(v, kind="stable").tobytes()


def test_the_sort_helper_on_sizes_zero_one_and_odd():
    rng = np.random.default_rng(3)
    for v in (np.zeros(0), np.array([-0.0]), np.array([math.nan]), rng.normal(size=101),
              np.round(rng.normal(size=1001), 1), np.where(rng.random(999) < 0.5, -0.0, 0.0)):
        assert _sorted(v).tobytes() == np.sort(v, kind="stable").tobytes()


QUARTERS = {pair: Interval(0.25, 0.25) for pair in STRATUM_PAIRS}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: StrataProportions("monotone", (QUARTERS, {**QUARTERS, (1, 0): Interval(0.5, 1.5)})),
         "pi[1][(1, 0)] = [0.5, 1.5] outside [0, 1]"),
        (lambda: PrincipalScoreTable(cells={}, normalizers={(1, 1): -0.25}),
         "stratum share out of range: (1, 1) -> -0.25"),
    ],
    ids=["strata-interval", "principal-share"],
)
def test_shares_outside_the_unit_interval_are_refused(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message

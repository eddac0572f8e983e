"""Complete-case DID, the naive benchmark, and the bootstrap driver."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from didmiss import (
    BootstrapConfig,
    Estimate,
    EstimatorError,
    InputError,
    Interval,
    OraclePanel,
    PanelDataset,
    att_ar_bounds,
    att_iv,
    att_iv_multi,
    att_principal_ignorability,
    bootstrap_bounds,
    bootstrap_ci,
    did_complete_case,
    naive_did_all,
)

from _helpers import block_panel, make_panel


# -- complete-case DID --------------------------------------------------------


def test_cc_did_on_toy_table(toy):
    est = did_complete_case(toy)
    # Treated complete cases 5,7 average a change of 1.5; controls 1,4 average 1.
    assert est.point == 0.5
    assert est.n_used == 4
    assert est.se is None and est.ci is None


def test_cc_did_ignores_incomplete_rows():
    base = make_panel([0, 0, 1, 1], [0.0, 1.0, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0])
    with_noise = make_panel(
        [0, 0, 1, 1, 0, 1],
        [0.0, 1.0, 0.0, 1.0, np.nan, 7.0],
        [1.0, 2.0, 3.0, 4.0, 9.0, np.nan],
    )
    assert did_complete_case(with_noise).point == did_complete_case(base).point


def test_cc_did_refuses_armwise_empty_complete_cases():
    data = make_panel([0, 0, 1], [1.0, np.nan, 1.0], [np.nan, 2.0, 2.0])
    with pytest.raises(EstimatorError, match="no complete cases in arm 0"):
        did_complete_case(data)


def test_overflowing_outcome_change_is_refused_naming_its_row():
    # finite outcomes whose y2 - y1 overflows: row 2 is the first complete case
    # where it does, and every estimator on Y2 - Y1 refuses without a warning
    data = make_panel(
        [0, 1, 0, 1, 0, 1],
        [1.0, -1e308, 1.0, 2.0, np.nan, 1.0],
        [2.0, 1e308, 2.0, 4.0, 1e308, 3.0],
        aux=[[1, 0], [1, 1], [0, 0], [1, 1], [0, 1], [0, 0]],
        x=[0, 0, 0, 0, 0, 0],
        outcome_support=(-1e308, 1e308),
    )
    cfg = BootstrapConfig(replicates=5, seed=1)
    estimators = [
        did_complete_case,
        naive_did_all,
        lambda data: att_iv(data, 0),
        lambda data: att_iv_multi(data, (0, 1)),
        att_principal_ignorability,
        lambda data: att_ar_bounds(data, "monotone"),
        lambda data: bootstrap_ci(data, "cc-did", cfg),
        lambda data: bootstrap_bounds(data, "no-monotone", cfg),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimator in estimators:
            with pytest.raises(EstimatorError) as refused:
                estimator(data)
            assert str(refused.value) == (
                "the result is not finite: y2 - y1 is not finite for unit '2' "
                "(row 2: y1=-1e+308, y2=1e+308)"
            )


@pytest.mark.parametrize(
    "d, y2",
    [([0, 1, 1], [1.0, 1e308, 1e308]), ([0, 1], [-1e308, 1e308])],
    ids=["a sum overflows", "a difference overflows"],
)
def test_a_finite_panel_whose_estimate_overflows_is_refused_without_a_warning(d, y2):
    data = make_panel(d, [0.0] * len(d), y2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = r"^the result is not finite: the complete-case DID is inf$"
        with pytest.raises(EstimatorError, match=message):
            did_complete_case(data)


def test_every_estimate_over_overflowing_sums_is_refused_without_a_warning():
    # every y2 - y1 is finite; the treated sums of y2 - y1 overflow
    data = make_panel(
        [0, 0, 0, 0, 1, 1, 1, 1, 1],
        [0.0] * 9,
        [1.0, 2.0, np.nan, np.nan, 1e308, 1e308, 1e308, np.nan, 1e308],
        aux=[[0, 0], [1, 1], [0, 1], [1, 0], [0, 0], [1, 1], [0, 1], [1, 0], [1, 0]],
        x=[0, 0, 0, 0, 0, 0, 0, 0, 0],
    )
    estimators = [
        did_complete_case,
        lambda data: att_iv(data, 0),
        lambda data: att_iv_multi(data, (0, 1)),
        att_principal_ignorability,
        lambda data: att_ar_bounds(data, "monotone"),
    ]
    # the treated changes cancel in the complete-case sum, not in the IV correction
    cancelling = make_panel(
        [0, 0, 1, 1, 1, 1, 1],
        [0.0] * 7,
        [1.0, 2.0, 1e308, -1e308, np.nan, np.nan, np.nan],
        aux=[[0], [1], [1], [0], [1], [0], [0]],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimator in estimators:
            with pytest.raises(EstimatorError, match="^the result is not finite: "):
                estimator(data)
        assert np.isfinite(did_complete_case(cancelling).point)
        with pytest.raises(EstimatorError, match="^the result is not finite: the instrumented DID"):
            att_iv(cancelling, 0)


def test_paired_instrument_sums_that_overflow_both_ways_are_refused_without_a_warning():
    # the treated changes cancel in unit order, but the (aux1, aux2) = (0, 0)
    # sum overflows upward and the (1, 0) sum downward, so summing over the
    # first indicator meets inf + -inf; every joint level of each arm holds
    # a complete case, so the level-weighted base meets them too
    data = make_panel(
        [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1],
        [0.0] * 12,
        [1.0, 2.0, 1.5, np.nan, 2.5, 1e308, -1e308, 1e308, -1e308, 1.0, 2.0, np.nan],
        aux=[[0, 0], [1, 1], [0, 1], [1, 0], [1, 0], [0, 0], [1, 0], [0, 0], [1, 0], [0, 1],
             [1, 1], [0, 1]],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimatorError, match="^the result is not finite: the instrumented DID"):
            att_iv_multi(data, (0, 1))


def test_an_overflowing_replicate_is_a_counted_failure(medium_panel):
    huge = make_panel([0, 1, 1], [0.0, 0.0, 0.0], [1.0, 1e308, 1e308])
    calls = []

    def every_third_overflows(sample):
        calls.append(None)
        return did_complete_case(huge if len(calls) % 3 == 0 else sample)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = bootstrap_ci(medium_panel, every_third_overflows, BootstrapConfig(30, seed=2))
    assert "replicates_failed=10" in est.notes
    assert est.se is not None and np.isfinite(est.se)


# -- naive full-sample benchmark ----------------------------------------------


def test_naive_equals_cc_without_missingness():
    data = make_panel([0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0], [1.5, 4.0, 3.25, 7.0])
    assert naive_did_all(data).point == did_complete_case(data).point
    assert naive_did_all(data).n_used == 4


def test_naive_refuses_missing_outcomes(toy):
    with pytest.raises(EstimatorError, match="missing outcomes"):
        naive_did_all(toy)


# -- estimate container ---------------------------------------------------------


def test_estimate_validation():
    with pytest.raises(ValueError, match="se"):
        Estimate(point=1.0, n_used=2, se=-0.5)
    with pytest.raises(ValueError, match="ci_level"):
        Estimate(point=1.0, n_used=2, ci=Interval(0.0, 2.0))
    with pytest.raises(ValueError, match="does not contain"):
        Estimate(point=5.0, n_used=2, ci=Interval(0.0, 2.0), ci_level=0.95)


def test_bootstrap_config_validation():
    with pytest.raises(InputError, match="replicates"):
        BootstrapConfig(replicates=0, seed=1)
    for replicates in (True, 2.5):  # never cast: True would run 1 replicate
        with pytest.raises(InputError, match=rf"^replicates must be an integer, got {replicates}$"):
            BootstrapConfig(replicates=replicates, seed=1)
    with pytest.raises(InputError, match="level"):
        BootstrapConfig(replicates=10, seed=1, level=1.0)


@pytest.mark.parametrize("seed", [-1, 1.5, None, False, True])
def test_a_seed_that_is_not_a_non_negative_integer_is_an_input_error(seed):
    with pytest.raises(InputError, match=rf"^seed must be a non-negative integer, got {seed!r}$"):
        BootstrapConfig(replicates=5, seed=seed)


# -- bootstrap ------------------------------------------------------------------


@pytest.fixture()
def medium_panel():
    rng = np.random.default_rng(1234)
    n = 400
    d = (rng.random(n) < 0.5).astype(np.int8)
    y1 = rng.normal(0.0, 1.0, n)
    y2 = y1 + 0.3 + d * 1.0 + rng.normal(0.0, 1.0, n)
    y2[rng.random(n) < 0.2] = np.nan
    return make_panel(d, y1, y2)


def test_bootstrap_is_deterministic(medium_panel):
    cfg = BootstrapConfig(replicates=60, seed=7)
    a = bootstrap_ci(medium_panel, "cc-did", cfg)
    b = bootstrap_ci(medium_panel, "cc-did", cfg)
    assert a == b
    assert a.ci is not None and a.ci.lo <= a.point <= a.ci.hi
    assert a.ci_level == 0.95 and a.se is not None and a.se > 0


def test_bootstrap_seed_changes_interval(medium_panel):
    a = bootstrap_ci(medium_panel, "cc-did", BootstrapConfig(replicates=60, seed=7))
    b = bootstrap_ci(medium_panel, "cc-did", BootstrapConfig(replicates=60, seed=8))
    assert a.point == b.point
    assert a.ci != b.ci


def test_bootstrap_thread_count_does_not_change_result(medium_panel, monkeypatch):
    cfg = BootstrapConfig(replicates=40, seed=3)
    sequential = bootstrap_ci(medium_panel, "cc-did", cfg)
    monkeypatch.setenv("DIDMISS_THREADS", "4")
    threaded = bootstrap_ci(medium_panel, "cc-did", cfg)
    assert sequential == threaded


def test_bootstrap_accepts_callable(medium_panel):
    cfg = BootstrapConfig(replicates=20, seed=5)
    by_handle = bootstrap_ci(medium_panel, "cc-did", cfg)
    by_callable = bootstrap_ci(medium_panel, did_complete_case, cfg)
    assert by_handle == by_callable


def test_bootstrap_rejects_interval_estimand(medium_panel):
    with pytest.raises(InputError, match="bootstrap_bounds"):
        bootstrap_ci(medium_panel, "att-ar-bounds", BootstrapConfig(replicates=5, seed=0))


def test_bootstrap_rejects_unknown_handle(medium_panel):
    with pytest.raises(InputError, match="unknown estimator"):
        bootstrap_ci(medium_panel, "nope", BootstrapConfig(replicates=5, seed=0))


def _one_armed_oracle() -> OraclePanel:
    """Three treated units, all observed: an oracle is not validated as a panel is."""
    ones, codes = np.ones(3), np.ones(3, dtype=np.int8)
    return OraclePanel(codes, ones, ones, np.zeros((3, 0), dtype=np.int8), None,
                       s=codes * 0, y1_true=ones, y2_1=ones, y2_0=ones)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda data: bootstrap_ci(data, lambda d: 1.0, BootstrapConfig(replicates=5, seed=0)),
         InputError, "bootstrap_ci requires a scalar estimator returning Estimate; "
         "interval estimands are handled by bounds.bootstrap_bounds"),
        (lambda data: naive_did_all(_one_armed_oracle()), EstimatorError, "no units in arm 0"),
    ],
    ids=["bootstrap-callable-returns-float", "naive-did-one-arm"],
)
def test_malformed_estimator_calls_are_refused_by_name(medium_panel, call, error, message):
    with pytest.raises(error, match=rf"^{message}$"):
        call(medium_panel)


def test_bootstrap_counts_failed_replicates():
    # One lonely control complete case: resamples that drop it must fail,
    # be counted, and leave the rest of the interval machinery intact.
    data = block_panel(
        [
            (1, 0, 0.0, 1.0),
            (7, 0, 0.0, None),
            (12, 1, 0.0, 2.0),
        ]
    )
    est = bootstrap_ci(data, "cc-did", BootstrapConfig(replicates=50, seed=11))
    failed = [n for n in est.notes if n.startswith("replicates_failed=")]
    assert failed, est.notes
    assert int(failed[0].split("=")[1]) > 0
    assert est.ci is not None


def test_failed_replicates_do_not_pin_their_resamples():
    # one treated complete case: about 37% of resamples miss it and fail; a
    # kept traceback would hold its replicate's resampled rows, so the peak
    # would grow with B
    n = 20_000
    y2 = np.ones(n)
    y2[3::2] = np.nan  # every treated row but row 1
    data = PanelDataset(np.arange(n) % 2, np.zeros(n), y2)
    peaks, failed = [], []
    for replicates in (20, 200):
        tracemalloc.start()
        try:
            est = bootstrap_ci(data, "cc-did", BootstrapConfig(replicates=replicates, seed=4))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        failed += [int(note.split("=")[1]) for note in est.notes if note.startswith("replicates_failed=")]
    assert failed[1] > 50, failed
    assert peaks[1] <= 1.5 * peaks[0], peaks

def test_bootstrap_propagates_majority_failure():
    calls = {"bootstrap": False}

    def fragile(data):
        if calls["bootstrap"]:
            raise EstimatorError("synthetic failure")
        calls["bootstrap"] = True
        return did_complete_case(data)

    data = make_panel([0, 0, 1, 1], [0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(EstimatorError, match="synthetic failure"):
        bootstrap_ci(data, fragile, BootstrapConfig(replicates=9, seed=0))


def test_bootstrap_widens_interval_to_contain_point():
    state = {"first": True}

    def shifted(data):
        est = did_complete_case(data)
        if state["first"]:
            state["first"] = False
            return Estimate(point=est.point + 100.0, n_used=est.n_used)
        return est

    rng = np.random.default_rng(0)
    data = make_panel(
        np.repeat([0, 1], 50),
        np.zeros(100),
        rng.normal(0.0, 1.0, 100),
    )
    est = bootstrap_ci(data, shifted, BootstrapConfig(replicates=30, seed=2))
    assert "ci_widened" in est.notes
    assert est.ci is not None and est.ci.hi == est.point

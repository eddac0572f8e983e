"""The count-based bootstrap engine against rebuilding every resample.

A named estimator handle and ``bootstrap_bounds`` evaluate each replicate
from group counts of the resampled rows; a user callable runs on
``data._take(idx)``, the rebuilt dataset.  On small panels where many
resamples fail, both must give the same value (to 1e-12) or the same
failure, replicate by replicate.
"""

from __future__ import annotations

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from didmiss import (
    BootstrapConfig,
    DidMissError,
    att_ar_bounds,
    att_iv,
    att_iv_multi,
    att_principal_ignorability,
    bootstrap_bounds,
    bootstrap_ci,
    did_complete_case,
    trimmed_mean,
)
from didmiss import bounds as bounds_module
from didmiss.bounds import _bounds_replicate, _trimmed_mean_counts
from didmiss.estimators import (
    ESTIMATOR_HANDLES,
    _percentile_ci,
    _percentiles,
    _replicate_fn,
    _replicates,
)
from didmiss.iv import _iv_engine
from didmiss.panel import GroupKey

from _helpers import make_panel

REPLICATES = 200


def _panel(arms, seed, n_aux=0, cells=None):
    """Panel from (d, complete?, r1?) rows with random outcomes.

    ``cells`` gives each row's covariate value; n_aux random instrument
    columns are drawn.
    """
    rng = np.random.default_rng(seed)
    n = len(arms)
    d = [a[0] for a in arms]
    y1 = rng.normal(0.0, 1.0, n)
    y2 = y1 + 0.5 + rng.normal(0.0, 1.0, n)
    for i, (_, complete, first) in enumerate(arms):
        if not complete:
            y2[i] = np.nan
        if not first:
            y1[i] = np.nan
    aux = rng.integers(0, 2, size=(n, n_aux)) if n_aux else None
    return make_panel(d, y1, y2, aux=aux, x=cells)


def _rows(arm, complete, incomplete, first_wave_gaps=0):
    return (
        [(arm, True, True)] * complete
        + [(arm, False, True)] * incomplete
        + [(arm, True, False)] * first_wave_gaps
    )


def _outcome(fn, idx):
    """``fn(idx)`` as a tuple, or the message of the DidMissError it raised."""
    try:
        return tuple(fn(idx))
    except DidMissError as exc:
        return str(exc)


def _assert_same(got, want, rep):
    """The same failure message, or the same values to 1e-12 (relative above 1)."""
    if isinstance(want, str):
        assert got == want, (rep, got, want)
    else:
        assert not isinstance(got, str), (rep, got)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, *map(abs, want)))


def _compare(engine, reference, n, seed=3):
    """Run both replicate functions on the resamples a bootstrap with this
    seed draws; return the outcomes."""
    outcomes, rng = [], np.random.default_rng(seed)
    for rep in range(REPLICATES):
        idx = rng.integers(0, n, size=n)
        want = _outcome(reference, idx)
        _assert_same(_outcome(engine, idx), want, rep)
        outcomes.append((idx, want))
    return outcomes


def _failures(outcomes):
    return sum(isinstance(want, str) for _, want in outcomes)


def cc_panel():
    # two control complete cases: resamples missing both fail
    return _panel(_rows(0, 2, 6) + _rows(1, 10, 4), seed=1)


def iv_panel():
    return _panel(_rows(0, 5, 4, 1) + _rows(1, 6, 4), seed=2, n_aux=1)


def two_aux_panel():
    # every joint instrument level of each arm holds a complete case
    return _panel(_rows(0, 10, 5, 1) + _rows(1, 11, 5), seed=2, n_aux=2)


def pi_panel():
    # cell 2 is one treated and one control unit: resamples drop it whole
    # (skipped) or drop one of its arms (refused)
    cells = [0] * 7 + [1] * 6 + [2] + [0] * 7 + [1] * 6 + [2]
    arms = (
        _rows(0, 5, 2) + _rows(0, 4, 2) + _rows(0, 1, 0)
        + _rows(1, 6, 1) + _rows(1, 4, 2) + _rows(1, 1, 0)
    )
    return _panel(arms, seed=4, cells=cells)


def _cli_iv(aux):
    return lambda data: _iv_engine(data, aux)[::2]


#: Each count path: the panel it runs on, its (full estimate, replicate) pair,
#: and the estimator that a user callable would run on the rebuilt resample.
#: "cli-iv-*" are ``did-miss iv --aux K [--aux2 J]``.
HANDLES = {
    "cc-did": (cc_panel, lambda data: _replicate_fn(data, "cc-did"), did_complete_case),
    "iv": (iv_panel, lambda data: _replicate_fn(data, "iv"), lambda data: att_iv(data, 0)[0]),
    "pi": (pi_panel, lambda data: _replicate_fn(data, "pi"), att_principal_ignorability),
    "cli-iv-aux1": (two_aux_panel, _cli_iv((1,)), lambda data: att_iv(data, 1)[0]),
    "cli-iv-pair": (
        two_aux_panel, _cli_iv((0, 1)), lambda data: att_iv_multi(data, (0, 1))[0]
    ),
}


@pytest.mark.parametrize("handle", sorted(HANDLES))
def test_handle_replicates_match_rebuilt_resamples(handle):
    build, count_path, fn = HANDLES[handle]
    data = build()
    full, engine = count_path(data)
    full_ref, reference = _replicate_fn(data, fn)
    assert full.point == pytest.approx(full_ref.point, abs=1e-12)
    assert full.notes == full_ref.notes and full.n_used == full_ref.n_used
    outcomes = _compare(engine, reference, len(data))
    assert 0 < _failures(outcomes) < REPLICATES

    cfg = BootstrapConfig(replicates=REPLICATES, seed=3)
    if _failures(outcomes) * 2 <= REPLICATES:
        if handle in ESTIMATOR_HANDLES:
            by_handle = bootstrap_ci(data, handle, cfg)
        else:
            by_handle = _percentile_ci(full, engine, len(data), cfg)
        by_callable = bootstrap_ci(data, fn, cfg)
        assert by_handle.notes == by_callable.notes
        assert by_handle.se == pytest.approx(by_callable.se, abs=1e-12)
        assert by_handle.ci.lo == pytest.approx(by_callable.ci.lo, abs=1e-12)
        assert by_handle.ci.hi == pytest.approx(by_callable.ci.hi, abs=1e-12)


def test_pi_resamples_skip_absent_cells_and_refuse_one_armed_cells():
    data = pi_panel()
    _, engine = _replicate_fn(data, "pi")
    _, reference = _replicate_fn(data, att_principal_ignorability)
    rare = np.flatnonzero(data.x[:, 0] == 2)
    dropped, one_armed = 0, 0
    for idx, want in _compare(engine, reference, len(data)):
        arms_drawn = set(data.d[np.intersect1d(idx, rare)].tolist())
        if not arms_drawn:
            assert "(x=(2,)" not in str(want)
            dropped += not isinstance(want, str)
        if len(arms_drawn) == 1:
            assert str(want).startswith("empty covariate cell") and "(x=(2,), arm" in want
            one_armed += 1
    assert dropped and one_armed


def _rebuilt_bounds(data, mode):
    """(lb, ub) of ``att_ar_bounds`` on the rebuilt resample."""

    def reference(idx):
        b = att_ar_bounds(data._take(idx), mode)
        return b.lb, b.ub

    return reference


@pytest.mark.parametrize("mode", ["monotone", "no-monotone"])
def test_bounds_replicates_match_rebuilt_resamples(mode):
    data = _panel(_rows(0, 3, 5, 1) + _rows(1, 9, 3), seed=5)
    engine = _bounds_replicate(data, mode)
    outcomes = _compare(engine, _rebuilt_bounds(data, mode), len(data))
    failed = _failures(outcomes)
    assert 0 < failed * 2 <= REPLICATES
    boot = bootstrap_bounds(data, mode, BootstrapConfig(replicates=REPLICATES, seed=3))
    assert boot.replicates_failed == failed
    assert boot.replicates_used == REPLICATES - failed
    ok = np.array([want for _, want in outcomes if not isinstance(want, str)])
    assert boot.se_lb == pytest.approx(ok[:, 0].std(ddof=1), abs=1e-12)
    assert boot.ub_ci.hi == pytest.approx(np.percentile(ok[:, 1], 97.5), abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 1),
            st.booleans(),
            st.booleans(),
            st.sampled_from([0.0, -0.0, 1.0]),
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.0]),
                st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            ),
        ),
        min_size=2,
        max_size=16,
    ),
    st.sampled_from([None, (-1e3, 1e3)]),
    st.sampled_from(["monotone", "no-monotone"]),
    st.data(),
)
@settings(deadline=None, max_examples=300)
def test_bounds_replicate_counts_match_the_rebuilt_resample(rows, support, mode, data):
    # rows are (arm, R1, R2, y1, y2): tied and signed-zero changes, first-wave gaps
    n, arms = len(rows), [row[0] for row in rows]
    assume(0 < sum(arms) < n)
    panel = make_panel(
        arms,
        [y1 if r1 else np.nan for _, r1, _, y1, _ in rows],
        [y2 if r2 else np.nan for _, _, r2, _, y2 in rows],
        outcome_support=support,
    )
    # the resample may leave out whole (arm, R1, R2) groups, an arm's complete cases among them
    groups = [row[:3] for row in rows]
    dropped = data.draw(st.sets(st.sampled_from(sorted(set(groups)))))
    kept = [i for i, group in enumerate(groups) if group not in dropped] or list(range(n))
    idx = np.array(data.draw(st.lists(st.sampled_from(kept), min_size=n, max_size=n)))

    counts, real = [], bounds_module._bounds

    def spy(arms, *rest):
        counts.append(arms.copy())
        return real(arms, *rest)

    engine = _bounds_replicate(panel, mode)
    with mock.patch.object(bounds_module, "_bounds", spy):
        got = _outcome(engine, idx)
    _assert_same(got, _outcome(_rebuilt_bounds(panel, mode), idx), None)
    want = GroupKey(panel).counts(idx).arms
    assert counts[0].dtype == want.dtype and counts[0].tolist() == want.tolist()


# -- trimmed means from resample counts -----------------------------------------

tied = st.sampled_from([-3.0, -1.0, 0.0, 0.25, 2.0, 1e4])
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False)
keeps = st.one_of(
    st.just(1.0),
    st.floats(min_value=1e-9, max_value=1e-3),
    st.floats(min_value=1e-3, max_value=1.0),
    st.floats(min_value=1.0 - 1e-9, max_value=1.0),
)


@given(
    st.lists(st.tuples(st.one_of(tied, finite), st.integers(0, 4)), min_size=1, max_size=14),
    keeps,
    st.sampled_from(["bottom", "top"]),
)
@settings(deadline=None, max_examples=300)
def test_count_trimmed_mean_matches_trimmed_mean_of_the_resample(drawn, keep, side):
    values = np.array([v for v, _ in drawn])
    mult = np.array([m for _, m in drawn])
    assume(mult.sum() > 0)
    order = np.argsort(values, kind="stable")
    v, m = values[order], mult[order]
    got = _trimmed_mean_counts(v, m * v, np.cumsum(m), keep, side)
    want = trimmed_mean(np.repeat(values, mult), keep, side)
    assert got == pytest.approx(want, rel=0.0, abs=1e-12 * (1.0 + np.abs(values).max()))



@pytest.mark.parametrize("size", [7, 8, 9, 127, 128, 129, 1000, 5003])
def test_a_reversed_view_sums_in_the_order_of_a_reversed_copy(size):
    # the top trimmed mean sums a reversed view of the product both sides
    # share; the sum must have the bits of the same values laid out reversed
    rng = np.random.default_rng(size)
    product = rng.normal(size=size) * 10.0 ** rng.uniform(-8.0, 8.0, size)
    for j in range(0, size + 1, max(1, size // 9)):
        view = product[::-1][:j]
        assert float(view.sum()) == float(view.copy().sum()), j


# -- the stream of resamples ----------------------------------------------------

#: Seeds of 1, 2, 3, 4, 5 and 7 32-bit words, then numpy integers.
STREAM_SEEDS = [
    0, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, 2**128 + 1, 2**200 + 99,
    np.uint64(2**64 - 1), np.int64(2**62 + 7),
]


def _resamples(n, replicates, seed, fails=()):
    """The row indices ``_replicates`` hands each replicate, in order; the
    replicates numbered in ``fails`` raise."""
    drawn = []

    def replicate(idx):
        drawn.append(idx)
        if len(drawn) - 1 in fails:
            raise DidMissError("synthetic failure")
        return (0.0,)

    _replicates(n, BootstrapConfig(replicates=replicates, seed=seed), replicate)
    return drawn


@pytest.mark.parametrize("seed", STREAM_SEEDS, ids=repr)
def test_each_resample_is_what_default_rng_of_seed_and_index_draws(seed):
    # resample rep is the (rep + 1)-th draw of one default_rng(seed)
    n, replicates = 11, 1027
    drawn = _resamples(n, replicates, seed)
    assert len(drawn) == replicates
    rng = np.random.default_rng(seed)
    for rep, idx in enumerate(drawn):
        np.testing.assert_array_equal(idx, rng.integers(0, n, size=n), err_msg=f"rep {rep}")


def test_a_smaller_bootstrap_draws_the_first_resamples_of_a_larger_one():
    small, large = _resamples(50, 3, seed=8), _resamples(50, 40, seed=8)
    assert len(large) == 40
    np.testing.assert_array_equal(small, large[:3])


def test_a_failed_replicate_does_not_shift_later_resamples():
    clean, failing = _resamples(50, 12, seed=8), _resamples(50, 12, seed=8, fails={0, 4, 5})
    np.testing.assert_array_equal(failing, clean)


#: Ranges of one index: small, one past 2**31 (half the 32-bit draws are
#: rejected), the largest 32-bit range, and ranges drawn from 64-bit words.
DRAW_RANGES = [1, 3, 5000, 2**31 + 1, 2**32 - 1, 2**32, 2**40 + 3]


@pytest.mark.parametrize("high", DRAW_RANGES)
@pytest.mark.parametrize("length", [1, 7, 8])
def test_a_block_draw_is_its_rows_drawn_one_by_one(high, length):
    # the engine's block draw rests on this numpy property: a (rows, length)
    # draw is rows size-length draws in turn, and leaves the same generator state
    blocks, single = np.random.default_rng(21), np.random.default_rng(21)
    for rows in (3, 1, 4, 2):
        block = blocks.integers(0, high, size=(rows, length))
        for row in block:
            np.testing.assert_array_equal(row, single.integers(0, high, size=length))
        assert blocks.bit_generator.state == single.bit_generator.state


@pytest.mark.parametrize(
    "n, replicates, fails",
    # blocks of 3, 3 and 1 resamples, then of 2, 2 and 1, with failures inside a block
    [(5000, 7, ()), (5000, 7, {1, 3, 4}), (8192, 5, ()), (8192, 5, {0, 3})],
)
def test_resamples_drawn_over_several_blocks_are_the_single_draws(n, replicates, fails):
    drawn = _resamples(n, replicates, seed=2**64 + 3, fails=fails)
    assert len(drawn) == replicates
    rng = np.random.default_rng(2**64 + 3)
    for rep, idx in enumerate(drawn):
        np.testing.assert_array_equal(idx, rng.integers(0, n, size=n), err_msg=f"rep {rep}")


# -- buffers reused across resamples ---------------------------------------------


@pytest.mark.parametrize(
    "panel, options", [(cc_panel, {}), (iv_panel, {"aux": (0,)}), (pi_panel, {"cells": True})]
)
def test_resample_bins_gather_into_reused_buffers(panel, options):
    data, rng = panel(), np.random.default_rng(5)
    groups = GroupKey(data, **options)
    gathered = []
    for _ in range(2):
        idx = rng.integers(0, len(data), size=len(data))
        n, s, key, dy = groups.bins(idx)
        want_n, want_s, want_key, want_dy = GroupKey(data._take(idx), **options).bins()
        assert n.tolist() == want_n.tolist() and s.tolist() == want_s.tolist()
        assert key.tolist() == want_key.tolist() and dy.tolist() == want_dy.tolist()
        gathered.append((key, dy))
    (key0, dy0), (key1, dy1) = gathered
    assert np.shares_memory(key0, key1) and np.shares_memory(dy0, dy1)


@pytest.mark.parametrize("options", [{"aux": (0,)}, {"cells": True}])
def test_resample_counts_leave_the_full_sample_key_as_it_was(options):
    data = iv_panel() if options.get("aux") else pi_panel()
    groups, rng = GroupKey(data, **options), np.random.default_rng(6)
    key = groups.key.copy()
    full = groups.counts()
    for _ in range(3):
        idx = rng.integers(0, len(data), size=len(data))
        got, want = groups.counts(idx), GroupKey(data._take(idx), **options).counts()
        assert got.n.tolist() == want.n.tolist() and got.cc_sum.tolist() == want.cc_sum.tolist()
        np.testing.assert_array_equal(groups.key, key)
    again = groups.counts()
    assert again.n.tolist() == full.n.tolist() and again.cc_sum.tolist() == full.cc_sum.tolist()
    np.testing.assert_array_equal(groups.key, key)


@pytest.mark.parametrize("mode", ["monotone", "no-monotone"])
def test_a_bounds_replicate_run_again_equals_a_fresh_one(mode):
    data, rng = _panel(_rows(0, 12, 4, 2) + _rows(1, 14, 3), seed=7), np.random.default_rng(8)
    engine = _bounds_replicate(data, mode)
    for rep in range(4):
        idx = rng.integers(0, len(data), size=len(data))
        assert _outcome(engine, idx) == _outcome(_bounds_replicate(data, mode), idx), rep


# -- bootstrap percentiles --------------------------------------------------------

BIG = sys.float_info.max

#: (replicate values, level): one or two values, ties, signed zeros in every
#: order (where a full sort would order +0.0 and -0.0 otherwise than numpy's
#: partition), constant arrays and values near the float limits
PERCENTILE_CASES = [
    ([1.5], 0.95),
    ([-0.0], 0.95),
    ([2.0, 1.0], 0.5),
    ([0.0, -0.0], 0.95),
    ([-0.0, 0.0], 0.95),
    ([0.0] * 40, 0.9),
    ([-0.0] * 40, 0.9),
    ([-0.0, 0.0, 0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, 0.0, -0.0], 0.5),
    ([0.0, -0.0] * 50 + [1.0, -1.0], 0.8),
    ([0.0, -0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -1.0, -0.0], 0.9),
    ([-0.0, -0.0, 1.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -1.0, -0.0, -0.0, -0.0, -0.0, 0.0, 0.0,
      -0.0, -0.0], 0.5),
    ([3.25] * 7, 0.999),
    ([BIG, -BIG, BIG, -BIG, BIG], 0.6),
    ([BIG, BIG, BIG * 0.5, -BIG], 0.95),
    (np.round(np.random.default_rng(3).normal(size=499), 1).tolist(), 0.95),
    (list(range(2000)), 0.999),
]

percentile_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, BIG, -BIG, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-3.0, max_value=3.0).map(lambda v: round(v, 1)),
)


def _same_bits_as_numpy(values, level):
    alpha = (1.0 - level) / 2.0
    arr = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.percentile(arr, [100 * alpha, 100 * (1 - alpha)])
        got = _percentiles(arr, alpha)
    return got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("values, level", PERCENTILE_CASES)
def test_bootstrap_percentiles_are_numpys_to_the_bit(values, level):
    assert _same_bits_as_numpy(values, level)


@given(
    st.one_of(
        st.lists(percentile_values, min_size=1, max_size=2000),
        st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=300),
        st.tuples(percentile_values, st.integers(1, 300)).map(lambda t: [t[0]] * t[1]),
    ),
    st.one_of(
        st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99, 0.999]),
        st.floats(min_value=0.5, max_value=0.999),
    ),
)
@settings(deadline=None, max_examples=500)
def test_bootstrap_percentiles_are_numpys_to_the_bit_on_any_replicates(values, level):
    assert _same_bits_as_numpy(values, level)

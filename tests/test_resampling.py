"""The count-based bootstrap engine against rebuilding every resample.

A named estimator handle and ``bootstrap_bounds`` evaluate each replicate
from group counts of the resampled rows; a user callable runs on
``data._take(idx)``, the rebuilt dataset.  On small panels where many
resamples fail, both must give the same value (to 1e-12) or the same
failure, replicate by replicate.
"""

from __future__ import annotations

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
from didmiss.estimators import ESTIMATOR_HANDLES, _percentile_ci, _replicate_fn
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
    """Run both replicate functions on the same streams; return the outcomes."""
    outcomes = []
    for rep in range(REPLICATES):
        idx = np.random.default_rng((seed, rep)).integers(0, n, size=n)
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
    return _panel(_rows(0, 7, 5, 1) + _rows(1, 8, 5), seed=6, n_aux=2)


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
    got = _trimmed_mean_counts(values[order], mult[order], np.cumsum(mult[order]), keep, side)
    want = trimmed_mean(np.repeat(values, mult), keep, side)
    assert got == pytest.approx(want, rel=0.0, abs=1e-12 * (1.0 + np.abs(values).max()))

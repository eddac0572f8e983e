"""Interval arithmetic and the clip-with-event policy."""

from __future__ import annotations

import math

import pytest

from didmiss import ClipEvent, Interval
from didmiss.common import clip01


def test_interval_basics():
    iv = Interval(0.25, 0.75)
    assert (iv.lo, iv.hi) == (0.25, 0.75)
    assert iv.contains(0.25) and iv.contains(0.75)
    assert not iv.contains(0.76)
    assert iv.contains(0.76, slack=0.02)


def test_interval_point():
    iv = Interval.point(0.3)
    assert iv.lo == iv.hi == 0.3 and iv.contains(0.3)


def test_interval_rejects_nan_and_disorder():
    with pytest.raises(ValueError, match="NaN"):
        Interval(math.nan, 1.0)
    with pytest.raises(ValueError, match="out of order"):
        Interval(1.0, 0.0)


def test_interval_normalizes_float_dust():
    # Endpoints out of order by less than 1e-15 collapse to a point.
    iv = Interval(0.5, 0.5 - 1e-16)
    assert iv.lo == iv.hi == 0.5


def test_clip01_records_events_only_when_moving():
    events: list[ClipEvent] = []
    assert clip01(0.4, "p", events) == 0.4
    assert events == []
    assert clip01(-0.2, "p", events) == 0.0
    assert clip01(1.5, "q", events) == 1.0
    assert [e.quantity for e in events] == ["p", "q"]
    assert events[0].raw == -0.2 and events[0].clipped == 0.0
    assert events[-1].raw == 1.5 and events[-1].clipped == 1.0

"""Small shared utilities: stratum order, intervals and probability clipping.

The clipping policy is package-wide: every probability produced by a formula
is pushed into its legal range *with a recorded event*, never silently.
Downstream code raises the "model-inconsistent rates" flag whenever any event
was recorded, so users can tell an internally consistent answer from one that
required repair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable

import numpy as np

from .errors import EstimatorError, InputError

__all__ = ["EPS_DENOM", "ClipEvent", "Interval"]

#: Weak-instrument threshold on probability-difference denominators. Below
#: this magnitude the IV estimators refuse rather than return an exploding
#: value.
EPS_DENOM = 1e-8

#: Stratum order used everywhere: always-, if-treated-, if-control-,
#: never-respondents.
STRATUM_LABELS = ("AR", "ITR", "ICR", "NR")

#: ``(R2(treated), R2(control))`` pair for each stratum, same order.
STRATUM_PAIRS = ((1, 1), (1, 0), (0, 1), (0, 0))

#: The simulator's preset names, in ``make_preset``'s order; stated here so
#: the CLI can offer them without loading the simulator.
PRESET_KINDS = (
    "zero-bias", "homogeneous-bias", "multi-iv", "pi", "mnar-baseline", "monotone", "no-monotone"
)

#: Flag raised whenever a probability formula needed clipping: the observed
#: rates contradict the assumption set that produced the formula.
INCONSISTENT_FLAG = "model-inconsistent rates"

#: The note of an instrument or stratum-weighted estimate on data with
#: first-wave nonresponse.
R1_NOTE = "estimand: ATT among first-wave respondents (R1 = 1)"


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi]; degenerate (lo == hi) encodes a point."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi + 1e-15:
            raise ValueError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")
        if self.lo > self.hi:  # tolerate sub-1e-15 float dust, normalise away
            object.__setattr__(self, "hi", self.lo)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(float(x), float(x))


def is_integer(value: object) -> bool:
    """Whether ``value`` is a Python or numpy integer; ``bool`` is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right, starting from 0.0.

    The builtin ``sum`` adds floats with Neumaier compensation from Python
    3.12 on and left to right before, so its last bits depend on the
    interpreter; every float sum whose bits the package pins goes through
    here instead.
    """
    return reduce(add, values, 0.0)


def check_seed(seed: object) -> None:
    """Raise ``InputError`` unless ``seed`` is a non-negative integer (not a bool)."""
    if not (is_integer(seed) and seed >= 0):
        raise InputError(f"seed must be a non-negative integer, got {seed!r}")


def finite(value: float, what: str) -> float:
    """``value`` as a float; NaN or infinity raises ``EstimatorError`` naming ``what``."""
    value = float(value)
    if not math.isfinite(value):
        raise EstimatorError(f"the result is not finite: {what} is {value!r}")
    return value


@dataclass(frozen=True)
class ClipEvent:
    """Record of a probability pushed back into its legal range.

    quantity
        Human-readable name of the quantity that was clipped.
    raw
        The value the formula produced.
    clipped
        The value actually used downstream.
    """

    quantity: str
    raw: float
    clipped: float


def clip01(value: float, quantity: str, events: list[ClipEvent]) -> float:
    """Clip ``value`` into [0, 1], appending a ClipEvent when it moved."""
    clipped = min(max(value, 0.0), 1.0)
    if clipped != value:
        events.append(ClipEvent(quantity=quantity, raw=float(value), clipped=float(clipped)))
    return clipped

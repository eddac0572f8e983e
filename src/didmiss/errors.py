"""Exception hierarchy shared across the package.

Two failure families matter downstream (the CLI maps them to distinct exit
codes): bad input that no estimator should be asked to digest, and a
well-posed request that the method refuses on these data (weak instrument,
infeasible trimming, missing complete cases).
"""

from __future__ import annotations

__all__ = ["DidMissError", "InputError", "EstimatorError"]


class DidMissError(Exception):
    """Base class for all package-specific errors."""


class InputError(DidMissError):
    """The input data or arguments are malformed or out of contract.

    Examples: malformed CSV, treatment outside {0, 1}, single-arm dataset,
    inconsistent auxiliary arity, empty dataset, bad keep fraction.
    """


class EstimatorError(DidMissError):
    """A well-formed request that the estimator refuses on these data.

    Examples: no complete cases in an arm, weak instrument, empty instrument
    cell, trimming infeasible without declared outcome support.
    """

"""Complete-case DID, the full-data DID baseline, and the bootstrap.

The complete-case estimator contrasts mean outcome changes across arms among
units with both waves observed:

    ATT_cc = mean(Y2 - Y1 | D = 1, R1 = R2 = 1) - mean(Y2 - Y1 | D = 0, R1 = R2 = 1)

It is unbiased when both the untreated outcome trend and the observed-case
trend are parallel across arms; under outcome-dependent missingness it is
not, which is what the IV corrections, trimming bounds, and principal-score
weighting in the sibling modules are for.

Bootstrap inference resamples units with replacement. One call builds one
generator, ``numpy.random.default_rng(seed)``, and replicate ``rep`` takes
its (rep+1)-th ``integers(0, n, size=n)`` draw, so a resample depends only on
the seed, its index and n: results are bit-identical for a given seed, and
the first replicates of a larger B are those of a smaller one. The indices
are drawn in blocks of about 128 KiB, each block one ``integers`` call that
gives the same draws as one call per replicate. Replicates run one after
another in the calling thread.
A named estimator handle never rebuilds a dataset: its replicate evaluates
the estimator's own count core, the function over group counts that the
full-sample result is built from, on the group counts of the resampled rows
(``panel.GroupKey``). It gathers the resampled rows into buffers allocated
once per call, keeps the point as a float and builds no result objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .common import Interval, check_seed, finite, is_integer
from .errors import DidMissError, EstimatorError, InputError
from .panel import GroupCounts, GroupKey, PanelDataset

__all__ = [
    "Estimate",
    "BootstrapConfig",
    "did_complete_case",
    "naive_did_all",
    "bootstrap_ci",
    "ESTIMATOR_HANDLES",
]

#: Named estimator handles shared with the CLI (see bootstrap_ci).
ESTIMATOR_HANDLES = ("cc-did", "iv", "pi")


@dataclass(frozen=True)
class Estimate:
    """A scalar estimate with optional uncertainty.

    notes carry machine-readable diagnostics ("ci_widened",
    "replicates_failed=3", estimand qualifiers) without disturbing the numeric
    fields.
    """

    point: float
    n_used: int
    se: float | None = None
    ci: Interval | None = None
    ci_level: float | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.se is not None and self.se < 0:
            raise ValueError(f"se must be nonnegative, got {self.se}")
        if self.ci is not None:
            if self.ci_level is None or not 0.0 < self.ci_level < 1.0:
                raise ValueError("ci requires ci_level in (0, 1)")
            if not self.ci.contains(self.point):
                raise ValueError(
                    f"ci [{self.ci.lo}, {self.ci.hi}] does not contain point {self.point}"
                )


@dataclass(frozen=True)
class BootstrapConfig:
    """Unit-resampling bootstrap settings."""

    replicates: int
    seed: int
    level: float = 0.95

    def __post_init__(self) -> None:
        if not is_integer(self.replicates):
            raise InputError(f"replicates must be an integer, got {self.replicates!r}")
        if self.replicates < 1:
            raise InputError(f"replicates must be >= 1, got {self.replicates}")
        check_seed(self.seed)
        if not 0.0 < self.level < 1.0:
            raise InputError(f"level must be in (0, 1), got {self.level}")


def _cc_point(complete: Sequence[float], sums: Sequence[float]) -> float:
    """Complete-case DID from each arm's complete-case count and Y2 - Y1 sum,
    as Python scalars (see ``did_complete_case``)."""
    for d in (1, 0):
        if complete[d] == 0:
            raise EstimatorError(f"no complete cases in arm {d}")
    # Python floats: a sum or difference that overflows gives inf, not a warning
    point = float(sums[1]) / float(complete[1]) - float(sums[0]) / float(complete[0])
    return finite(point, "the complete-case DID")


def _complete_case(c: GroupCounts) -> Estimate:
    """Complete-case DID from group counts (see ``did_complete_case``)."""
    complete = [arm[1][1] for arm in c.arms.tolist()]
    point = _cc_point(complete, c.cc_sum.tolist())
    return Estimate(point=point, n_used=int(complete[1] + complete[0]))


def did_complete_case(data: PanelDataset) -> Estimate:
    """Complete-case difference-in-differences.

    point = mean(Y2-Y1 over treated complete cases)
          - mean(Y2-Y1 over control complete cases);
    n_used counts the complete cases that entered either mean.
    """
    return _complete_case(GroupKey(data).counts())


def naive_did_all(data: PanelDataset) -> Estimate:
    """Full-sample DID of means; requires a dataset without missing outcomes.

    This is the infeasible benchmark: computable only when every outcome is
    observed (oracle-generated data, or the no-missingness baseline).
    """
    c = GroupKey(data).counts()
    arms = c.arms
    if arms[:, 1, 1].sum() != len(data):
        raise EstimatorError("dataset contains missing outcomes")
    for d in (0, 1):
        if arms[d].sum() == 0:
            raise EstimatorError(f"no units in arm {d}")
    return Estimate(point=_complete_case(c).point, n_used=len(data))


Estimator = Callable[[PanelDataset], Estimate]


def _replicate_fn(
    data: PanelDataset, estimator: Union[str, Estimator]
) -> tuple[Estimate, Callable[[np.ndarray], tuple[float]]]:
    """Full-sample estimate and the point of the resample at given row indices.

    A named handle evaluates its count formula on the resample's group
    counts; a user callable runs on the rebuilt resampled dataset.
    """
    if callable(estimator):
        full = estimator(data)
        if not isinstance(full, Estimate):
            raise InputError(
                "bootstrap_ci requires a scalar estimator returning Estimate; "
                "interval estimands are handled by bounds.bootstrap_bounds"
            )
        return full, lambda idx: (float(estimator(data._take(idx)).point),)

    if estimator == "iv":
        from .iv import _iv_engine

        full, _, replicate = _iv_engine(data, (0,))
        return full, replicate

    if estimator == "cc-did":
        groups = GroupKey(data)

        def replicate(idx: np.ndarray) -> tuple[float]:
            n, s, _, _ = groups.bins(idx)
            return (_cc_point(n[0, :, 1, 1].tolist(), s[0, :, 1, 1].tolist()),)

        return _complete_case(groups.counts()), replicate
    if estimator == "pi":
        from .principal import _pi_replicate

        return _pi_replicate(data)
    raise InputError(
        f"unknown estimator handle {estimator!r}; expected one of {ESTIMATOR_HANDLES} "
        "(interval estimands are handled by bounds.bootstrap_bounds)"
    )


#: Resample indices drawn per block: 128 KiB of int64, glibc's default mmap
#: threshold, so a block is reused heap memory rather than fresh pages. A
#: (rows, n) draw is rows size-n draws in turn, bit for bit and to the
#: generator state. From n = 2**13 + 1 on, a block is one replicate's draw.
_BLOCK_INDICES = 2**14


def _replicates(
    n: int,
    cfg: BootstrapConfig,
    replicate: Callable[[np.ndarray], tuple[float, ...]],
) -> tuple[list[tuple[float, float, float]], int, int]:
    """The resampling engine: run ``replicate`` on cfg.replicates resamples.

    One generator, ``default_rng(cfg.seed)``, serves the whole call:
    replicate ``rep`` takes its (rep+1)-th ``integers(0, n, size=n)`` draw
    as the resampled row indices, whether or not earlier replicates failed.
    The indices are drawn a block of about 128 KiB at a time, as one
    ``integers(0, n, size=(rows, n))`` call whose rows are those same
    draws in turn; ``replicate`` gets one row and may gather into buffers
    it allocates once per call.
    To rebuild replicate ``rep`` by hand, draw ``rep + 1`` times from a
    fresh ``default_rng(seed)`` and keep the last draw. Replicates that
    raise DidMissError are dropped and counted; if more than half fail, the
    last error propagates. Only that error is kept: each traceback holds
    its replicate's resampled arrays.
    Returns, for each statistic the replicate yields, (standard deviation,
    lower percentile, upper percentile) at cfg.level, then the numbers of
    replicates used and failed.
    """
    values: list[tuple[float, ...]] = []
    failed, last_error = 0, None
    rng = np.random.default_rng(cfg.seed)
    rows = max(1, _BLOCK_INDICES // n)
    for start in range(0, cfg.replicates, rows):
        for idx in rng.integers(0, n, size=(min(rows, cfg.replicates - start), n)):
            try:
                values.append(replicate(idx))
            except DidMissError as exc:
                failed, last_error = failed + 1, exc
        del idx  # the block is freed before the next is drawn
    if failed * 2 > cfg.replicates:
        raise EstimatorError(
            f"{failed}/{cfg.replicates} bootstrap replicates failed; last error: {last_error}"
        ) from last_error

    alpha = (1.0 - cfg.level) / 2.0
    summaries = []
    for column in zip(*values):
        arr = np.array(column, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
            se = float(arr.std(ddof=1)) if arr.size >= 2 else 0.0
            lo, hi = _percentiles(arr, alpha)
        se = finite(se, "the bootstrap standard error")
        summaries.append((se, finite(lo, "the lower percentile"), finite(hi, "the upper percentile")))
    return summaries, len(values), failed


def _percentiles(arr: np.ndarray, alpha: float) -> np.ndarray:
    """``np.percentile(arr, [100 * alpha, 100 * (1 - alpha)])`` of a 1-d
    float64 ``arr`` without NaN, bit for bit: numpy's ``linear`` method step
    by step, without the ``np.unique`` that imports ``numpy.ma``."""
    n = arr.size
    virtual = (n - 1) * np.true_divide([100 * alpha, 100 * (1 - alpha)], 100)
    lower = np.floor(virtual)
    upper = lower + 1
    lower[virtual >= n - 1] = upper[virtual >= n - 1] = -1
    gamma = virtual - lower
    lower, upper = lower.astype(np.intp), upper.astype(np.intp)
    # numpy's own kth set: partition's order of equal values (+0.0, -0.0) depends on it
    part = np.partition(arr, sorted({0, -1, *lower.tolist(), *upper.tolist()}))
    a, b = part[lower], part[upper]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def bootstrap_ci(
    data: PanelDataset,
    estimator: Union[str, Estimator],
    cfg: BootstrapConfig,
) -> Estimate:
    """Percentile-bootstrap CI by unit-level resampling with replacement.

    The returned Estimate carries the full-sample point, the replicate
    standard deviation as se, and the percentile interval at cfg.level,
    minimally widened to contain the point if a pathological resample run
    left it outside (noted as "ci_widened"). Replicates whose estimator run
    fails are dropped and counted; if more than half fail, the last estimator
    error propagates.

    ``estimator`` is a callable returning an Estimate, or one of
    ESTIMATOR_HANDLES: "cc-did" is did_complete_case, "pi" is
    att_principal_ignorability, and "iv" is ``att_iv(data, 0)``, instrument
    0 only; to bootstrap another instrument, pass a callable such as
    ``lambda d: att_iv(d, 1)[0]``. Interval estimands are bootstrapped by
    bounds.bootstrap_bounds.
    """
    full, replicate = _replicate_fn(data, estimator)
    return _percentile_ci(full, replicate, len(data), cfg)


def _percentile_ci(
    full: Estimate, replicate: Callable[[np.ndarray], tuple[float]], n: int, cfg: BootstrapConfig
) -> Estimate:
    """``full`` with the replicate SD as se and the percentile CI (see ``bootstrap_ci``)."""
    [(se, lo, hi)], _, failed = _replicates(n, cfg, replicate)
    notes: list[str] = list(full.notes)
    if failed:
        notes.append(f"replicates_failed={failed}")
    if not lo <= full.point <= hi:
        lo, hi = min(lo, full.point), max(hi, full.point)
        notes.append("ci_widened")
    return Estimate(
        point=full.point,
        n_used=full.n_used,
        se=se,
        ci=Interval(lo, hi),
        ci_level=cfg.level,
        notes=tuple(notes),
    )

"""Complete-case DID, the full-data DID baseline, and the bootstrap.

The complete-case estimator contrasts mean outcome changes across arms among
units with both waves observed:

    ATT_cc = mean(Y2 - Y1 | D = 1, R1 = R2 = 1) - mean(Y2 - Y1 | D = 0, R1 = R2 = 1)

It is unbiased when both the untreated outcome trend and the observed-case
trend are parallel across arms; under outcome-dependent missingness it is
not, which is what the IV corrections, trimming bounds, and principal-score
weighting in the sibling modules are for.

Bootstrap inference resamples units with replacement. Each replicate draws
its random stream from (seed, replicate index), so results are bit-identical
for a given seed. Replicates run one after another in the calling thread.
A named estimator handle never rebuilds a dataset: its replicate is the same
count formula as the full-sample estimate, evaluated on the group counts of
the resampled rows (``panel.GroupKey``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

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

#: Named estimator handles shared with the CLI. "att-ar-bounds" is listed for
#: discoverability but is interval-valued: bootstrap_ci refuses it and points
#: at bounds.bootstrap_bounds instead.
ESTIMATOR_HANDLES = ("cc-did", "iv", "att-ar-bounds", "pi")


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


def _complete_case(c: GroupCounts) -> Estimate:
    """Complete-case DID from group counts (see ``did_complete_case``)."""
    complete = [arm[1][1] for arm in c.arms.tolist()]
    for d in (1, 0):
        if complete[d] == 0:
            raise EstimatorError(f"no complete cases in arm {d}")
    sums = c.cc_sum.tolist()
    # Python floats: a sum or difference that overflows gives inf, not a warning
    point = float(sums[1]) / float(complete[1]) - float(sums[0]) / float(complete[0])
    return Estimate(
        point=finite(point, "the complete-case DID"),
        n_used=int(complete[1] + complete[0]),
    )


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

    formula: Callable[[GroupCounts], Estimate]
    if estimator == "cc-did":
        groups, formula = GroupKey(data), _complete_case
    elif estimator == "pi":
        from .principal import _principal_ignorability

        groups, formula = GroupKey(data, cells=True), _principal_ignorability
    elif estimator == "att-ar-bounds":
        raise InputError(
            "att-ar-bounds is interval-valued; use bounds.bootstrap_bounds, "
            "which bootstraps LB and UB separately"
        )
    else:
        raise InputError(
            f"unknown estimator handle {estimator!r}; expected one of {ESTIMATOR_HANDLES}"
        )
    return formula(groups.counts()), lambda idx: (formula(groups.counts(idx)).point,)


def _replicates(
    n: int,
    cfg: BootstrapConfig,
    replicate: Callable[[np.ndarray], tuple[float, ...]],
) -> tuple[list[tuple[float, float, float]], int, int]:
    """The resampling engine: run ``replicate`` on cfg.replicates resamples.

    Replicate ``rep`` draws n row indices with replacement from the
    ``(cfg.seed, rep)`` stream. Replicates that raise DidMissError are
    dropped and counted; if more than half fail, the last error propagates.
    Returns, for each statistic the replicate yields, (standard deviation,
    lower percentile, upper percentile) at cfg.level, then the numbers of
    replicates used and failed.
    """
    values: list[tuple[float, ...]] = []
    failures: list[DidMissError] = []
    for rep in range(cfg.replicates):
        idx = np.random.default_rng((cfg.seed, rep)).integers(0, n, size=n)
        try:
            values.append(replicate(idx))
        except DidMissError as exc:
            failures.append(exc)
    if len(failures) * 2 > cfg.replicates:
        raise EstimatorError(
            f"{len(failures)}/{cfg.replicates} bootstrap replicates failed; "
            f"last error: {failures[-1]}"
        ) from failures[-1]

    alpha = (1.0 - cfg.level) / 2.0
    summaries = []
    for column in zip(*values):
        arr = np.array(column, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is caught below
            se = float(arr.std(ddof=1)) if arr.size >= 2 else 0.0
            lo, hi = np.percentile(arr, [100 * alpha, 100 * (1 - alpha)])
        se = finite(se, "the bootstrap standard error")
        summaries.append((se, finite(lo, "the lower percentile"), finite(hi, "the upper percentile")))
    return summaries, len(values), len(failures)


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

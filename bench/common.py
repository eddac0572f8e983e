"""Shared pieces of the workloads: run context, failure tally, timing.

Times are normalised for host speed.  The benchmark shares its host with
other tenants, whose load slows identical code by 1.3-1.6x in bursts lasting
from under a second to minutes.  Between its operations each workload times
a fixed reference computation that uses no didmiss code, and every wall
time of the run is scaled by the reference's nominal time over its median
time in the run: seconds on a host where the reference runs at nominal
speed.  The reference is numpy resampling; over 20 s windows it cut the
spread of window medians (standard deviation of their logarithm) from 0.087
to 0.029 for bootstrap replicates and from 0.068 to 0.027 for simulation
draws, and over ten 20 s runs of each workload the spread of ``pass_s``
between quartiles from 14% to 4% (``bootstrap-5k``), 14% to 6%
(``montecarlo-50k``) and 10% to 9% (``cli-200k``).
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager

import numpy as np

from spans import Recorder, instrument

#: Estimates must fall within this many sampling errors of the planted truth.
K_SE = 6.0


def numpy_reference() -> float:
    """Resample, sort and mask a 20k-element array 30 times."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(20_000)
    acc = 0.0
    for _ in range(30):
        y = x[rng.integers(0, x.size, x.size)]
        acc += float(np.sort(y)[x.size // 2]) + float(y[y > 0].mean())
    return acc


#: Nominal wall time of ``numpy_reference`` on the 2-vCPU Xeon host the
#: benchmark was defined on.
REFERENCE_S = 0.015


@dataclass
class Tally:
    """Operations attempted, which of them failed, and why."""

    attempted: int = 0
    failed_ids: set[int] = field(default_factory=set)
    failures: list[str] = field(default_factory=list)

    def op(self, name: str, reasons: list[str]) -> int:
        """Count one operation; returns its id for checks made later."""
        self.attempted += 1
        for reason in reasons:
            self.fail(self.attempted, f"{name}: {reason}")
        return self.attempted

    def fail(self, op_id: int, reason: str) -> None:
        self.failed_ids.add(op_id)
        self.failures.append(reason)

    @property
    def failed(self) -> int:
        return len(self.failed_ids)


@dataclass
class Ctx:
    """What one benchmark run knows: its inputs, where it may write, its tracer."""

    seed: int
    seconds: float
    tiny: bool
    work: Path
    src: Path
    bench: Path
    rec: Recorder | None = None
    tally: Tally = field(default_factory=Tally)
    reference_s: list[float] = field(default_factory=list)

    @property
    def trace(self) -> bool:
        return self.rec is not None

    def sample_reference(self) -> None:
        """Time the reference computation once; call between operations."""
        start = time.perf_counter()
        numpy_reference()
        self.reference_s.append(time.perf_counter() - start)

    def warm_reference(self) -> None:
        """Run the reference untimed a few times first, so the allocator has
        settled on serving its buffers whatever the workload allocates."""
        for _ in range(10):
            numpy_reference()

    def scale(self) -> float:
        """Factor from this run's wall seconds to the reported seconds."""
        return REFERENCE_S / statistics.median(self.reference_s)

    def op(self, kind: str, traced: bool) -> ContextManager[None]:
        """Scope spans to a new operation of ``kind`` when the pass is traced."""
        if not traced or self.rec is None:
            return nullcontext()
        return self.rec.op(len(self.rec.ops), kind)


Pass = dict[str, float]  # operation -> wall seconds


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``; times in wall seconds."""

    passes: list[Pass]  # untraced
    setup: list[float]
    peak_rss_mb: float
    detail: dict[str, Any]
    results: dict[str, Any]
    traced: list[Pass] = field(default_factory=list)


def strict_json(text: str) -> Any:
    """Parse JSON, refusing the bare NaN/Infinity tokens Python would accept."""

    def refuse(token: str) -> Any:
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def finite(*values: Any) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def within(value: float, target: float, se: float, what: str) -> list[str]:
    """Planted-truth check: |value - target| <= K_SE * se."""
    if not finite(value, target, se):
        return [f"{what}: non-finite value {value!r} (target {target!r}, se {se!r})"]
    if abs(value - target) > K_SE * se:
        return [f"{what}: {value!r} is more than {K_SE} x {se!r} from the truth {target!r}"]
    return []


def brackets(lb: float, ub: float, target: float, se_lb: float, se_ub: float, what: str) -> list[str]:
    """Bounds check: lb - K_SE*se_lb <= target <= ub + K_SE*se_ub, lb <= ub."""
    if not finite(lb, ub, target, se_lb, se_ub):
        return [f"{what}: non-finite bounds [{lb!r}, {ub!r}] or truth {target!r}"]
    if lb > ub:
        return [f"{what}: bounds out of order [{lb!r}, {ub!r}]"]
    if not lb - K_SE * se_lb <= target <= ub + K_SE * se_ub:
        return [f"{what}: [{lb!r}, {ub!r}] misses the truth {target!r} by more than {K_SE} se"]
    return []


def summary(walls: list[float], scale: float) -> dict[str, Any]:
    """Normalised median seconds with the sample count and the raw median,
    plus the highest percentile that still has at least ten samples above it."""
    ordered = sorted(walls)
    out: dict[str, Any] = {"median_s": scale * statistics.median(ordered), "n": len(ordered),
                           "wall_median_s": statistics.median(ordered)}
    if len(ordered) >= 20:
        q = 1.0 - 10.0 / len(ordered)
        out[f"p{math.floor(100 * q)}_s"] = scale * ordered[math.floor(q * (len(ordered) - 1))]
    return out


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


def repeat_setup(ctx: Ctx, repeats: int, build: Callable[[], Any]) -> tuple[list[float], Any]:
    """Run ``build`` ``repeats`` times; returns each one's wall time and the
    last result.  A traced run records set-up spans too (cold first calls)."""
    timings = []
    built = None
    undo = instrument(ctx.rec) if ctx.rec is not None else None
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            with ctx.op("setup", traced=True):
                built = build()
            timings.append(time.perf_counter() - start)
            ctx.sample_reference()
    finally:
        if undo is not None:
            undo()
    return timings, built


def run_passes(ctx: Ctx, one_pass: Callable[[int, bool], Pass]) -> dict[bool, list[Pass]]:
    """Closed loop: run passes until ``ctx.seconds`` have elapsed, at least one.

    ``one_pass(i, traced)`` runs every operation of the workload once and
    returns each one's wall time, sampling the reference between operations.
    A traced run alternates untraced and traced passes (at least one of
    each), so the pair gives the tracing overhead on the same machine state;
    the package's entry points are wrapped during the traced ones.
    """
    passes: dict[bool, list[Pass]] = {False: [], True: []}
    for _ in range(3):
        ctx.sample_reference()
    deadline = time.perf_counter() + ctx.seconds
    i = 0
    while True:
        traced = ctx.trace and i % 2 == 1
        undo = instrument(ctx.rec) if traced else None
        try:
            passes[traced].append(one_pass(i, traced))
        finally:
            if undo is not None:
                undo()
        i += 1
        enough = bool(passes[False]) and (not ctx.trace or bool(passes[True]))
        if enough and time.perf_counter() >= deadline:
            return passes


def pass_seconds(passes: list[Pass]) -> float:
    """Sum over operations of each operation's median wall time in the run."""
    names = passes[0].keys()
    return sum(statistics.median(p[name] for p in passes if name in p) for name in names)

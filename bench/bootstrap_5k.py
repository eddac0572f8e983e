"""Workload ``bootstrap-5k``: in-process bootstrap on n = 5k panels.

One pass runs ``bootstrap_ci`` for the complete-case DID (zero-bias panel),
the single-instrument estimator (homogeneous-bias panel) and the
principal-ignorability estimator (a 48-cell covariate design built with the
public ``Cell``/``DgpSpec``), plus ``bootstrap_bounds`` in monotone mode
(monotone panel).  At this size the fixed cost of each replicate dominates:
the row resample, the rebuilt dataset, the per-replicate rate table inside
the bounds, and the per-cell mask loops of the principal scores.  Import and
file I/O play no part.  Every pass repeats identical calls, so the results
must be identical across passes.
"""

from __future__ import annotations

import time

import numpy as np

import didmiss
from common import (
    Ctx, Outcome, Pass, brackets, finite, peak_rss_mb, repeat_setup, run_passes, summary, within,
)

SIZES = {
    "full": {"n": 5_000, "cells": 48, "setups": 7, "warm": 10,
             "reps": {"cc": 400, "iv": 200, "bounds": 200, "pi": 20}},
    "tiny": {"n": 2_000, "cells": 8, "setups": 2, "warm": 2,
             "reps": {"cc": 20, "iv": 20, "bounds": 20, "pi": 5}},
}


def many_cell_spec(n: int, seed: int, cells: int) -> didmiss.DgpSpec:
    """Principal-ignorability design with ``cells`` covariate cells.

    Response is monotone and the always-respondent share is equal across
    arms within each cell; trends shift by cell only, so stratum-weighted
    estimation is exact in population with ATT 1.0, while the cell-varying
    if-treated share biases the complete-case DID.
    """
    layer = []
    for c in range(cells):
        t = c / (cells - 1)
        always, if_treated = 0.35 + 0.35 * t, 0.1 + 0.3 * (1.0 - t)
        strata = (always, if_treated, 0.0, 1.0 - always - if_treated)
        layer.append(didmiss.Cell(
            label=f"x={c}", share=(1.0 / cells, 1.0 / cells), strata=(strata, strata),
            trend_shift=(t, t), x_label=c,
        ))
    joint = tuple(
        tuple(0.5 * sum(cell.share[arm] * cell.strata[arm][s] for cell in layer) for s in range(4))
        for arm in (0, 1)
    )
    return didmiss.DgpSpec(
        n=n, seed=seed, joint_sd=joint, trend=(0.2,) * 4, baseline=((5.0, 5.0),) * 4,
        effect=(1.0,) * 4, noise_sd=0.25, covariate_model=tuple(layer),
    )


def _point_fields(est: didmiss.Estimate) -> dict:
    return {"point": est.point, "se": est.se, "ci": [est.ci.lo, est.ci.hi], "notes": list(est.notes)}


def run(ctx: Ctx) -> Outcome:
    size = SIZES["tiny" if ctx.tiny else "full"]
    n, reps = size["n"], size["reps"]
    seeds = np.random.default_rng(ctx.seed).integers(0, 2**31 - 1, size=5).tolist()

    def build() -> dict:
        panels = {
            "cc": simulate(didmiss.make_preset("zero-bias", n=n, seed=seeds[0])),
            "iv": simulate(didmiss.make_preset("homogeneous-bias", n=n, seed=seeds[1])),
            "bounds": simulate(didmiss.make_preset("monotone", n=n, seed=seeds[2])),
            "pi": simulate(many_cell_spec(n, seeds[3], size["cells"])),
        }
        # finish lazy set-up (first-call costs) with a few replicates each
        warm = didmiss.BootstrapConfig(replicates=size["warm"], seed=seeds[4])
        didmiss.bootstrap_ci(panels["cc"][0], "cc-did", warm)
        didmiss.bootstrap_ci(panels["iv"][0], "iv", warm)
        didmiss.bootstrap_bounds(panels["bounds"][0], "monotone", warm)
        didmiss.bootstrap_ci(panels["pi"][0], "pi", warm)
        return panels

    def simulate(spec: didmiss.DgpSpec) -> tuple:
        data, _, truth = didmiss.simulate_panel(spec)
        return data, truth

    setup, panels = repeat_setup(ctx, size["setups"], build)
    configs = {k: didmiss.BootstrapConfig(replicates=b, seed=seeds[4]) for k, b in reps.items()}

    def call(kind: str) -> tuple[dict, list[str]]:
        data, truth = panels[kind]
        if kind == "bounds":
            boot = didmiss.bootstrap_bounds(data, "monotone", configs[kind])
            values = {"lb": boot.point.lb, "ub": boot.point.ub, "se_lb": boot.se_lb, "se_ub": boot.se_ub,
                      "lb_ci": [boot.lb_ci.lo, boot.lb_ci.hi], "ub_ci": [boot.ub_ci.lo, boot.ub_ci.hi],
                      "replicates_failed": boot.replicates_failed}
            return values, brackets(boot.point.lb, boot.point.ub, truth.att_ar, boot.se_lb, boot.se_ub,
                                    "monotone bounds vs planted att_ar")
        handle = {"cc": "cc-did", "iv": "iv", "pi": "pi"}[kind]
        est = didmiss.bootstrap_ci(data, handle, configs[kind])
        # the complete-case DID on the zero-bias panel, and the corrected
        # estimators on theirs, all target the planted ATT
        values = _point_fields(est)
        problems = within(est.point, truth.att, est.se, f"{kind} point vs planted ATT")
        if not finite(est.ci.lo, est.ci.hi):
            problems.append(f"{kind}: non-finite interval {values['ci']}")
        return values, problems

    first: dict[str, dict] = {}

    def one_pass(i: int, traced: bool) -> Pass:
        walls = {}
        for kind in reps:
            start = time.perf_counter()
            with ctx.op(kind, traced):
                values, problems = call(kind)
            walls[kind] = time.perf_counter() - start
            ctx.sample_reference()
            if kind in first and values != first[kind]:
                problems.append(f"pass {i} differs from pass 0 on identical input: {values} vs {first[kind]}")
            first.setdefault(kind, values)
            ctx.tally.op(kind, problems)
        return walls

    passes = run_passes(ctx, one_pass)
    detail = {}
    for kind in reps:
        calls = summary([p[kind] for p in passes[False]], ctx.scale())
        detail[f"boot_{kind}_reps_per_s"] = {"value": reps[kind] / calls["median_s"], "unit": "1/s",
                                             "n": calls["n"], "call": calls, "replicates": reps[kind]}
    return Outcome(passes=passes[False], setup=setup, peak_rss_mb=peak_rss_mb(children=False),
                   detail=detail, results=first, traced=passes[True])

"""Workload ``montecarlo-50k``: an in-process simulation study at n = 50k.

One pass is one draw of each preset below: ``make_preset`` ->
``simulate_panel`` -> the point estimator whose truth the preset plants,
checked against ``OracleTruth``.  Presets that share trends across arms also
run ``decompose_att`` and ``check_trend_mixture`` on the ``OraclePanel``
(``multi-iv`` and ``pi`` do not share trends, so the decomposition refuses
them by design).  No CSV, no bootstrap, no import inside the timed loop.
Draw seeds are a deterministic sequence from the workload seed; the first
pass is re-run at the end and must reproduce bit for bit.
"""

from __future__ import annotations

import math
import time

import numpy as np

import didmiss
from common import (
    K_SE, Ctx, Outcome, Pass, brackets, finite, peak_rss_mb, repeat_setup, run_passes, within,
)

SIZES = {"full": {"n": 50_000, "setups": 5}, "tiny": {"n": 5_000, "setups": 2}}

#: Sampling standard deviation of each check's estimate at n = 50k, measured
#: as the spread over 40 draws per preset (rounded up).  The tolerance scales
#: with 1/sqrt(n) and is K_SE of these.
SD_50K = {"cc": 0.003, "iv": 0.025, "iv-multi": 0.025, "bounds-monotone": 0.008,
          "bounds-no-monotone": 0.013, "pi": 0.004}

#: preset -> the estimators whose planted truth it carries
PRESETS = ("zero-bias", "homogeneous-bias", "multi-iv", "monotone", "no-monotone", "pi")
SHARES_TRENDS = {"zero-bias", "homogeneous-bias", "monotone", "no-monotone"}


def one_draw(preset: str, n: int, seed: int) -> tuple[dict, didmiss.OracleTruth, list]:
    """The timed part of a draw: simulate, estimate, decompose."""
    data, oracle, truth = didmiss.simulate_panel(didmiss.make_preset(preset, n=n, seed=seed))
    values: dict = {}
    if preset == "zero-bias":
        values["cc"] = didmiss.did_complete_case(data).point
    elif preset == "homogeneous-bias":
        values["iv"] = didmiss.att_iv(data, aux_index=0)[0].point
    elif preset == "multi-iv":
        values["iv-multi"] = didmiss.att_iv_multi(data, aux_pair=(0, 1))[0].point
    elif preset == "monotone":
        for mode in ("monotone", "no-monotone"):
            b = didmiss.att_ar_bounds(data, mode)
            values[f"bounds-{mode}"] = [b.lb, b.ub]
    elif preset == "no-monotone":
        b = didmiss.att_ar_bounds(data, "no-monotone")
        values["bounds-no-monotone"] = [b.lb, b.ub]
    elif preset == "pi":
        values["pi"] = didmiss.att_principal_ignorability(data).point
    extra = []
    if preset in SHARES_TRENDS:
        dec = didmiss.decompose_att(oracle)
        mix = didmiss.check_trend_mixture(oracle)
        values["decompose"] = {"terms": list(dec.terms), "att": dec.att, "deviation": dec.deviation, "se": dec.se}
        values["pt_gap"] = mix.pt_gap
        extra = [dec, mix]
    return values, truth, extra


def check(preset: str, n: int, values: dict, truth: didmiss.OracleTruth, extra: list) -> list[str]:
    scale = math.sqrt(50_000 / n)
    problems: list[str] = []
    for key, value in values.items():
        if key.startswith("bounds-"):
            sd = SD_50K[key] * scale
            problems += brackets(value[0], value[1], truth.att_ar, sd, sd, f"{preset} {key} vs att_ar")
        elif key in SD_50K:
            problems += within(value, truth.att, SD_50K[key] * scale, f"{preset} {key} vs ATT")
    if "bounds-monotone" in values:
        (tlo, thi), (llo, lhi) = values["bounds-monotone"], values["bounds-no-monotone"]
        if not (llo <= tlo and thi <= lhi):
            problems.append(f"{preset}: no-monotone bounds do not contain the monotone ones")
    if extra:
        dec, mix = extra
        if not abs(dec.att - truth.att) <= 1e-12 * max(1.0, abs(truth.att)):
            problems.append(f"{preset}: decomposition ATT {dec.att!r} != oracle ATT {truth.att!r}")
        if not (finite(dec.total, dec.se) and abs(dec.deviation) <= K_SE * dec.se):
            problems.append(f"{preset}: decomposition deviation {dec.deviation!r} beyond {K_SE} se")
        if not mix.mixture_residual <= 1e-9 * max(1.0, *map(abs, mix.direct)):
            problems.append(f"{preset}: trend-mixture residual {mix.mixture_residual!r}")
    return problems


def run(ctx: Ctx) -> Outcome:
    size = SIZES["tiny" if ctx.tiny else "full"]
    n = size["n"]
    base = int(np.random.default_rng(ctx.seed).integers(0, 2**30))

    def build() -> None:
        # one untimed draw per preset: cached instrument solves and
        # first-call costs are paid here, not in the first pass
        for preset in PRESETS:
            one_draw(preset, n, base)

    setup, _ = repeat_setup(ctx, size["setups"], build)
    results: dict[str, dict] = {}
    op_ids: dict[str, int] = {}

    def one_pass(i: int, traced: bool) -> Pass:
        walls = {}
        for preset in PRESETS:
            start = time.perf_counter()
            with ctx.op(preset, traced):
                values, truth, extra = one_draw(preset, n, base + 1 + i)
            walls[preset] = time.perf_counter() - start
            key = f"{preset}/{base + 1 + i}"
            results[key] = values
            op_ids[key] = ctx.tally.op(preset, check(preset, n, values, truth, extra))
        ctx.sample_reference()  # draws are short: one reference timing per pass
        return walls

    passes = run_passes(ctx, one_pass)
    for preset in PRESETS:
        key = f"{preset}/{base + 1}"
        again, _, _ = one_draw(preset, n, base + 1)
        if again != results[key]:
            ctx.tally.fail(op_ids[key], f"{key}: repeated draw differs: {again} vs {results[key]}")
    draws = [wall for p in passes[False] for wall in p.values()]
    per_s = {"value": len(draws) / (ctx.scale() * sum(draws)), "unit": "1/s", "n": len(draws),
             "wall_value": len(draws) / sum(draws), "units_per_draw": n}
    return Outcome(passes=passes[False], setup=setup, peak_rss_mb=peak_rss_mb(children=False),
                   detail={"mc_draws_per_s": per_s}, results=results, traced=passes[True])

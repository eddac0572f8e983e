"""Workload ``cli-200k``: sequential ``did-miss`` runs on 200k-row panels.

A closed loop with one client: each command starts only after the previous
one exits, one interpreter at a time, ``DIDMISS_THREADS`` unset.  Set-up
writes a homogeneous-bias panel (for ``rates``, ``cc`` and ``iv``) and a
``pi`` panel with ``save_panel``; the cycle's own ``simulate --truth``
writes the monotone panel and oracle that ``bounds`` and ``decompose`` read.
Each command is what a CLI user waits for: interpreter start, import, CSV
parse and validation, the estimator with a small bootstrap, the JSON report.

Every command must exit 0 with strict JSON on stdout that passes its
planted-truth check, and a repeated command must print the same bytes (and
write the same files).  An untraced run repeats one command, chosen by the
seed; a traced run compares each traced command with its untraced twin.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import didmiss
from common import (
    Ctx, Outcome, Pass, brackets, finite, peak_rss_mb, repeat_setup, run_passes, strict_json, summary,
    within,
)

SIZES = {"full": {"n": 200_000, "reps": 20, "pi_reps": 10, "setups": 3},
         "tiny": {"n": 3_000, "reps": 5, "pi_reps": 3, "setups": 2}}

#: How the ``did-miss`` console script starts ``main``.
ENTRY = "import sys\nfrom didmiss.cli import main\nsys.exit(main())"

TIMEOUT_S = 150

#: Reference timings (see ``common``) after each command, which lasts seconds.
REFERENCE_SAMPLES = 3


def commands(n: int, reps: int, pi_reps: int, seeds: list[int]) -> dict[str, list[str]]:
    boot = ["--seed", str(seeds[3])]
    return {
        "simulate": ["simulate", "--preset", "monotone", "--n", str(n), "--seed", str(seeds[2]),
                     "--out", "mono.csv", "--truth", "oracle.csv"],
        "decompose": ["decompose", "--truth", "oracle.csv"],
        "rates": ["rates", "--input", "hb.csv"],
        "cc": ["cc", "--input", "hb.csv", "--bootstrap", str(reps)] + boot,
        "iv": ["iv", "--input", "hb.csv", "--bootstrap", str(reps)] + boot,
        "bounds": ["bounds", "--input", "mono.csv", "--bootstrap", str(reps)] + boot,
        "pi": ["pi", "--input", "pi.csv", "--covariates", "x1", "--bootstrap", str(pi_reps)] + boot,
    }


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


def _result(stdout: bytes) -> object:
    try:
        return strict_json(stdout.decode())["result"]
    except (ValueError, KeyError, TypeError):
        return None


def run(ctx: Ctx) -> Outcome:
    size = SIZES["tiny" if ctx.tiny else "full"]
    n = size["n"]
    seeds = np.random.default_rng(ctx.seed).integers(0, 2**31 - 1, size=4).tolist()
    env = {k: v for k, v in os.environ.items() if k != "DIDMISS_THREADS"}
    env["PYTHONPATH"] = str(ctx.src)

    def build() -> dict:
        truths = {}
        for name, preset, seed in (("hb", "homogeneous-bias", seeds[0]), ("pi", "pi", seeds[1])):
            data, _, truths[name] = didmiss.simulate_panel(didmiss.make_preset(preset, n=n, seed=seed))
            didmiss.save_panel(data, ctx.work / f"{name}.csv")
        return truths

    setup, truths = repeat_setup(ctx, size["setups"], build)
    argvs = commands(n, size["reps"], size["pi_reps"], seeds)
    outputs: dict[str, tuple[bytes, str]] = {}  # first stdout and written-file digest
    simulated: dict = {}

    def gate(name: str, report: dict) -> list[str]:
        result = report.get("result") or {}
        if report.get("status") != "ok":
            return [f"status {report.get('status')!r}"]
        if name == "simulate":
            simulated.update(result)
            return [] if finite(result.get("att"), result.get("att_ar")) else ["non-finite planted truth"]
        if name == "decompose":
            att = simulated.get("att", math.nan)
            problems = [] if abs(result["att"] - att) <= 1e-12 * max(1.0, abs(att)) else [
                f"decomposition ATT {result['att']!r} != simulated ATT {att!r}"]
            return problems + within(result["deviation"], 0.0, result["se"], "decomposition deviation")
        if name == "rates":
            ok = sum(result["n"]) == n and all(0.0 <= p <= 1.0 for p in result["p_r1"] + result["p_r2"])
            return [] if ok else [f"rate table does not describe the {n}-row panel"]
        if name == "bounds":
            b = result["bootstrap"]
            return brackets(result["lb"], result["ub"], simulated.get("att_ar", math.nan),
                            b["se_lb"], b["se_ub"], "bounds vs planted att_ar")
        truth = truths["pi" if name == "pi" else "hb"]
        # cc on the homogeneous-bias panel carries the planted bias; iv and pi remove it
        target = truth.att + (truth.cc_bias if name == "cc" else 0.0)
        return within(result["point"], target, result["se"], f"{name} point vs planted truth")

    def launch(name: str, traced: bool) -> tuple[float, bytes, list[str]]:
        argv = argvs[name]
        spans_file = ctx.work / "spans.json"
        if traced:
            cmd = [sys.executable, str(ctx.bench / "trace_cli.py"), str(spans_file), "--", *argv]
        else:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ctx.work, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, b"", [f"no exit within {TIMEOUT_S} s"]
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return wall, proc.stdout, [f"exit code {proc.returncode}: {tail}"]
        if traced:
            ctx.rec.adopt(strict_json(spans_file.read_text()), name)
        try:
            report = strict_json(proc.stdout.decode())
        except ValueError as exc:
            return wall, proc.stdout, [f"stdout is not strict JSON: {exc}"]
        try:
            return wall, proc.stdout, gate(name, report)
        except (KeyError, TypeError) as exc:
            return wall, proc.stdout, [f"report lacks an expected field: {exc!r}"]

    def execute(name: str, traced: bool) -> float:
        wall, stdout, problems = launch(name, traced)
        written = _digest(ctx.work / "mono.csv") + _digest(ctx.work / "oracle.csv") if name == "simulate" else ""
        if name in outputs and (stdout, written) != outputs[name]:
            problems.append("output differs from the first run of the same command")
        outputs.setdefault(name, (stdout, written))
        ctx.tally.op(name, problems)
        for _ in range(REFERENCE_SAMPLES):
            ctx.sample_reference()
        return wall

    def one_pass(i: int, traced: bool) -> Pass:
        return {name: execute(name, traced) for name in argvs}

    passes = run_passes(ctx, one_pass)
    plain = passes[False]
    if not ctx.trace and len(plain) == 1:
        again = list(argvs)[ctx.seed % len(argvs)]
        plain.append({again: execute(again, False)})

    detail = {}
    for name in argvs:
        wall = summary([p[name] for p in plain if name in p], ctx.scale())
        detail[f"cli_{name}_s"] = {"value": wall["median_s"], "unit": "s", "n": wall["n"],
                                   "wall_median_s": wall["wall_median_s"]}
    return Outcome(passes=plain, setup=setup, peak_rss_mb=peak_rss_mb(children=True), detail=detail,
                   results={name: _result(out) for name, (out, _) in outputs.items()}, traced=passes[True])

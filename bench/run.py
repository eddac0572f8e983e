"""didmiss benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 bench/run.py --workload cli-200k --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads: ``cli-200k`` (sequential ``did-miss`` processes on 200k-row
panels), ``bootstrap-5k`` (in-process bootstrap replicates at n = 5k) and
``montecarlo-50k`` (in-process simulate-and-estimate draws at n = 50k); see
each module's docstring for what it runs and why.  Inputs come only from
``--seed``.  The package is imported from ``src/`` under the current
directory, never from an installed copy; without it the run fails.

Output: a human-readable summary, one JSON line ``{"report": ...}`` with the
machine fingerprint, per-operation figures, result values and any failed
checks, and as the last line ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones
(``pass_s``, ``setup_s``, ``peak_rss_mb``; times normalised for host speed,
see ``common``); with ``--trace 1`` they are the
per-layer ones of ``layers.py``, from a separate run that records spans.
``--tiny`` shrinks every size for the benchmark's self-test.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from spans import Recorder

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cli-200k", "bootstrap-5k", "montecarlo-50k")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def fingerprint(seed: int, threads_env: str | None) -> dict:
    """Machine and software facts; reads /proc and /sys only."""
    import numpy

    import didmiss

    try:
        from importlib.metadata import version

        scipy_version = version("scipy")
    except Exception:  # metadata missing: report it rather than fail the run
        scipy_version = None
    cgroup = {}
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/memory.max",
                 "/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us",
                 "/sys/fs/cgroup/memory/memory.limit_in_bytes", "/sys/fs/cgroup/cpuset/cpuset.cpus"):
        value = _read(path)
        if value is not None:
            cgroup[path] = value
    cpu_model = next((line.split(":", 1)[1].strip() for line in (_read("/proc/cpuinfo") or "").splitlines()
                      if line.startswith("model name")), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "cgroup": cgroup,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "didmiss": didmiss.__version__,
        "DIDMISS_THREADS": threads_env,
        "seed": seed,
    }


def run_one(args: argparse.Namespace, root: Path) -> int:
    src = root / "src"
    threads_env = os.environ.pop("DIDMISS_THREADS", None)  # the workloads run single-threaded
    sys.path.insert(0, str(src))
    rec = Recorder() if args.trace else None
    with rec.span("import.didmiss") if rec else contextlib.nullcontext():
        import didmiss
    if Path(didmiss.__file__).resolve().parent != (src / "didmiss").resolve():
        print(f"bench: imported didmiss from {didmiss.__file__}, not from {src}", file=sys.stderr)
        return 2

    import layers
    from common import Ctx, pass_seconds

    module = importlib.import_module(args.workload.replace("-", "_"))
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Ctx(seed=args.seed, seconds=args.seconds, tiny=args.tiny, work=work, src=src, bench=BENCH, rec=rec)
    ctx.warm_reference()
    try:
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work.parent.rmdir()

    report = {"workload": args.workload, "trace": bool(args.trace),
              "fingerprint": fingerprint(args.seed, threads_env),
              "failed_frac": {"value": ctx.tally.failed / max(1, ctx.tally.attempted), "unit": "ratio"},
              "failures": ctx.tally.failures[:50]}
    scale = ctx.scale()
    pass_s = scale * pass_seconds(outcome.passes)
    if rec is None:
        metrics = {"pass_s": {"value": pass_s, "unit": "s"},
                   "setup_s": {"value": scale * statistics.median(outcome.setup), "unit": "s"},
                   "peak_rss_mb": {"value": outcome.peak_rss_mb, "unit": "MB"}}
        walls = {"pass_wall_s": {"value": pass_seconds(outcome.passes), "unit": "s", "n": len(outcome.passes)},
                 "setup_wall_s": {"value": statistics.median(outcome.setup), "unit": "s", "n": len(outcome.setup)},
                 "scale": {"value": scale, "unit": "ratio", "n": len(ctx.reference_s)}}
        report.update(per_operation={**walls, **outcome.detail}, results=outcome.results)
        lines = [f"{name:>24}  {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
        lines += [f"{name:>24}  {d['value']:.6g} {d['unit']}  (n={d['n']})"
                  for name, d in report["per_operation"].items()]
    else:
        view = layers.TraceView(rec.finished(), rec.ops, len(outcome.traced),
                                pass_s, scale * pass_seconds(outcome.traced))
        metrics, absent = layers.measure(view)
        report.update(not_exercised=absent, spans=len(view.spans),
                      moves={layer.name: layer.moves for layer in layers.LAYERS})
        lines = [f"{layer.name:>42}  {metrics[layer.name]['value']:.6g} {layer.unit:<6} -> {layer.moves}"
                 for layer in layers.LAYERS if layer.name not in absent]
    lines.append(f"{'failed_frac':>24}  {report['failed_frac']['value']:.6g} "
                 f"({ctx.tally.failed} of {ctx.tally.attempted} operations)")
    print("\n".join(lines))
    # the report may carry a NaN result from a broken estimator; only the last line must be strict
    print(json.dumps({"report": report}, default=str))
    print(json.dumps({"correct": ctx.tally.failed == 0, "attempted": ctx.tally.attempted,
                      "failed": ctx.tally.failed, "metrics": metrics}, allow_nan=False))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter; merged last line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged, allow_nan=False))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the benchmark's self-test")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "didmiss" / "__init__.py").is_file():
        print(f"bench: no src/didmiss under {root}; run from the repository root", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, root)


if __name__ == "__main__":
    raise SystemExit(main())

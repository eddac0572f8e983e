"""``did-miss``: command-line access to the estimators, bounds and simulator.

Every run prints one JSON report to stdout: the tool name and version, the
subcommand and its options, a fingerprint of the data consumed (row count,
arm sizes, per-arm missingness rates), the estimator result, any
diagnostics, and the library versions plus seed that produced it.  Reports
contain no timestamps or other run-local state, so re-running the same
command on the same input reproduces the output byte for byte.  Reports are
strict JSON: a simulated truth that is undefined for the draw (say, the
always-respondent ATT when no treated always-respondent was drawn) is null,
and ``diagnostics.undefined`` says why.

Exit codes: 0 on success; 1 for malformed input (bad CSV, bad flags,
unknown preset, a simulated draw with an empty arm); 2 when a well-posed
request is refused on the given data (weak instrument, no complete cases,
infeasible trimming without declared support, a result that is not finite).
A report that cannot be written to stdout also exits 1: in silence when the
reader closed the pipe, with one stderr line for any other write error.

``--pretty`` switches to an aligned human-readable rendering of the same
report.  A bootstrap draws its resamples from one
``numpy.random.default_rng(seed)``, replicate ``rep`` taking its (rep+1)-th
draw, and runs them in one thread.

Each command loads only the modules it runs: this module imports the CSV
reader and the shared constants, and each runner imports its estimator or the
simulator when it runs, so ``rates`` loads no estimator module and
``decompose`` only the simulator.  A bootstrap takes its percentiles without
loading ``numpy.ma``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from . import __version__
from .common import PRESET_KINDS, STRATUM_LABELS, STRATUM_PAIRS, Interval
from .errors import EstimatorError, InputError
from .panel import ColumnMapping, PanelDataset, _unit_counts, compute_rates, load_panel, save_panel

if TYPE_CHECKING:
    from .estimators import BootstrapConfig

__all__ = ["main"]

_PAIR_LABEL = dict(zip(STRATUM_PAIRS, STRATUM_LABELS))


def _pretty(report: Mapping[str, Any]) -> str:
    """``report`` as aligned text: a title line, then each section that is a
    mapping (a null section is left out)."""
    title = "{tool} {version} — {command} [{status}]".format(**report)
    sections = {key: value for key, value in report.items() if isinstance(value, Mapping)}
    return "\n".join([title, *_pretty_lines(sections, indent=0)])


def _pretty_lines(value: Any, indent: int) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, Mapping):
        if not value:
            return [f"{pad}(none)"]
        width = max(len(str(k)) for k in value)
        for key, item in value.items():
            if isinstance(item, Mapping) or (
                isinstance(item, list) and item and isinstance(item[0], (Mapping, list))
            ):
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_lines(item, indent + 1))
            else:
                lines.append(f"{pad}{str(key).ljust(width)}  {_pretty_scalar(item)}")
        return lines
    # a non-empty list: only such a list is recursed into
    for v in value:
        if isinstance(v, Mapping):
            inner = _pretty_lines(v, indent + 1)
            lines.append(f"{pad}-" + inner[0][len(pad) + 1 :])
            lines.extend(inner[1:])
        else:
            lines.append(f"{pad}- {_pretty_scalar(v)}")
    return lines


def _pretty_scalar(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return "[" + ", ".join(_pretty_scalar(v) for v in value) + "]"
    return str(value)


# ---------------------------------------------------------------------------
# report: library results as JSON values, in dataclass field order
# ---------------------------------------------------------------------------


def _json(value: Any) -> Any:
    """A result as JSON values: an Interval as [lo, hi], a dataclass as its
    fields in order, stratum-pair keys as labels, a per-arm pair of mappings
    as {"control", "treated"}, any other tuple as a list."""
    if isinstance(value, Interval):
        return [value.lo, value.hi]
    if dataclasses.is_dataclass(value):
        return {f.name: _json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {_PAIR_LABEL.get(key, key): _json(item) for key, item in value.items()}
    if isinstance(value, tuple) and len(value) == 2 and all(isinstance(v, Mapping) for v in value):
        return {"control": _json(value[0]), "treated": _json(value[1])}
    if isinstance(value, (tuple, list)):
        return [_json(item) for item in value]
    return value


def _report(
    args: argparse.Namespace, data: Mapping[str, Any], result: Any, diagnostics: Any
) -> dict[str, Any]:
    """The one report envelope, in output order: command echo, data
    fingerprint, result, provenance.  Options echo every flag but --pretty;
    seed and level are null when no bootstrap was asked for."""
    options = {k: v for k, v in vars(args).items() if k not in ("command", "pretty")}
    if "bootstrap" in options and options["bootstrap"] is None:
        options.update(seed=None, level=None)
    return {
        "tool": "did-miss",
        "version": __version__,
        "command": args.command,
        "options": options,
        "data": data,
        "result": _json(result),
        "diagnostics": _json(diagnostics),
        "environment": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "seed": options.get("seed"),
        },
        "status": "ok",
    }


def _fingerprint(data: PanelDataset) -> dict[str, Any]:
    counts = _unit_counts(data)[1][0]  # units over (arm, R1, R2), as compute_rates reads them
    n = counts.sum(axis=(1, 2))
    return {
        "rows": len(data),
        "arms": n.tolist(),
        "missing_y1": (counts[:, 0].sum(axis=1) / n).tolist(),
        "missing_y2": (counts[:, :, 0].sum(axis=1) / n).tolist(),
        "n_aux": data.n_aux,
        "n_covariates": data.n_covariates,
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors through the package's exit-code 1
    channel instead of argparse's default exit(2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(f"{message} (try '{self.prog} --help')")


def _add_bootstrap_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--bootstrap",
        type=int,
        metavar="B",
        default=None,
        help="number of bootstrap replicates (omit for a point estimate only)",
    )
    sub.add_argument("--seed", type=int, default=0, help="bootstrap seed (default 0)")
    sub.add_argument(
        "--level", type=float, default=0.95, help="confidence level (default 0.95)"
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="did-miss",
        description="Two-period DID estimation under missing outcomes: "
        "complete-case, instrument-corrected, trimming bounds, "
        "stratum-weighted estimators, and a simulator with ground truth.",
    )
    parser.add_argument("--version", action="version", version=f"did-miss {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")
    commands.required = True

    cc = commands.add_parser("cc", help="complete-case DID")
    cc.add_argument("--input", required=True, help="panel CSV (id,d,y1,y2,...)")
    _add_bootstrap_flags(cc)

    iv = commands.add_parser("iv", help="instrument-corrected DID")
    iv.add_argument("--input", required=True, help="panel CSV (id,d,y1,y2,...)")
    iv.add_argument("--aux", type=int, default=0, metavar="K",
                    help="auxiliary indicator column index (default 0)")
    iv.add_argument("--aux2", type=int, default=None, metavar="K2",
                    help="second indicator index: use the paired-instrument correction")
    _add_bootstrap_flags(iv)

    bounds = commands.add_parser("bounds", help="trimming bounds for the always-respondent ATT")
    bounds.add_argument("--input", required=True, help="panel CSV (id,d,y1,y2,...)")
    bounds.add_argument("--mode", choices=("monotone", "no-monotone"), default="monotone")
    bounds.add_argument("--support", type=float, nargs=2, metavar=("MIN", "MAX"), default=None,
                        help="declared outcome support (enables the fallback when trimming is infeasible)")
    _add_bootstrap_flags(bounds)

    pi = commands.add_parser("pi", help="stratum-weighted DID under within-cell response ignorability")
    pi.add_argument("--input", required=True, help="panel CSV (id,d,y1,y2,...)")
    pi.add_argument("--covariates", default=None, metavar="LIST",
                    help="comma-separated covariate column names (default: auto-detect x1..xJ)")
    _add_bootstrap_flags(pi)

    rates = commands.add_parser("rates", help="empirical response-rate table")
    rates.add_argument("--input", required=True, help="panel CSV (id,d,y1,y2,...)")

    sim = commands.add_parser("simulate", help="generate a synthetic panel with ground truth")
    sim.add_argument("--preset", required=True, choices=PRESET_KINDS)
    sim.add_argument("--n", type=int, default=10_000, help="number of units (default 10000)")
    sim.add_argument("--seed", type=int, default=0, help="simulation seed (default 0)")
    sim.add_argument("--out", required=True, help="path for the observable panel CSV")
    sim.add_argument("--truth", default=None,
                     help="optional path for the per-unit oracle CSV (latent strata and potentials)")

    dec = commands.add_parser("decompose", help="five-term ATT decomposition on an oracle table")
    dec.add_argument("--truth", required=True, help="oracle CSV written by 'simulate --truth'")

    # subparsers inherit _Parser, so their usage errors also exit with code 1
    for sub in commands.choices.values():
        sub.add_argument("--pretty", action="store_true", help="human-readable rendering")
    return parser


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


def _bootstrap_cfg(args: argparse.Namespace) -> BootstrapConfig | None:
    if args.bootstrap is None:
        return None
    from .estimators import BootstrapConfig

    return BootstrapConfig(replicates=args.bootstrap, seed=args.seed, level=args.level)


Run = tuple[Mapping[str, Any], Any, Any]  # data fingerprint, result, diagnostics


def _run_cc(args: argparse.Namespace) -> Run:
    from .estimators import bootstrap_ci, did_complete_case

    data = load_panel(args.input)
    cfg = _bootstrap_cfg(args)
    est = bootstrap_ci(data, "cc-did", cfg) if cfg else did_complete_case(data)
    return _fingerprint(data), est, None


def _run_iv(args: argparse.Namespace) -> Run:
    from .estimators import _percentile_ci
    from .iv import _iv_engine

    data = load_panel(args.input)
    aux = (args.aux,) if args.aux2 is None else (args.aux, args.aux2)
    est, diag, replicate = _iv_engine(data, aux)
    cfg = _bootstrap_cfg(args)
    if cfg:
        est = _percentile_ci(est, replicate, len(data), cfg)
    return _fingerprint(data), est, diag


def _run_bounds(args: argparse.Namespace) -> Run:
    from .bounds import att_ar_bounds, bootstrap_bounds

    support = None if args.support is None else (args.support[0], args.support[1])
    data = load_panel(args.input, outcome_support=support)
    cfg = _bootstrap_cfg(args)
    if not cfg:
        return _fingerprint(data), att_ar_bounds(data, args.mode), None
    boot = _json(bootstrap_bounds(data, args.mode, cfg))
    return _fingerprint(data), {**boot.pop("point"), "bootstrap": boot}, None


def _run_pi(args: argparse.Namespace) -> Run:
    from .estimators import bootstrap_ci
    from .principal import att_principal_ignorability, principal_scores

    if args.covariates is None:
        data = load_panel(args.input)
    else:
        names = tuple(s.strip() for s in args.covariates.split(",") if s.strip())
        if not names:
            raise InputError(f"--covariates names no column, got {args.covariates!r}")
        data = load_panel(
            args.input,
            schema=lambda header: dataclasses.replace(
                ColumnMapping.detect(header), covariates=names
            ),
        )
    table = principal_scores(data)
    cfg = _bootstrap_cfg(args)
    est = bootstrap_ci(data, "pi", cfg) if cfg else att_principal_ignorability(data)
    diagnostics = {
        "stratum_shares_treated": table.normalizers,
        "clip_events": table.clip_events,
        "flags": table.flags,
    }
    return _fingerprint(data), est, diagnostics


def _run_rates(args: argparse.Namespace) -> Run:
    data = load_panel(args.input)
    return _fingerprint(data), compute_rates(data), None


#: The truths that can be undefined (NaN) and why; each is reported as null.
_UNDEFINED_TRUTH = {
    "att_ar": "no treated always-respondent was drawn",
    "att_ar_population": "the design has no treated always-respondents",
    "cc_population": "an arm has no second-wave respondents in the design",
    "cc_bias": "an arm has no second-wave respondents in the design",
}


def _run_simulate(args: argparse.Namespace) -> Run:
    from .simulate import _save_panel_and_oracle, make_preset, simulate_panel

    spec = make_preset(args.preset, n=args.n, seed=args.seed)
    data, oracle, truth = simulate_panel(spec)
    if args.truth is None:
        save_panel(data, args.out)
    else:
        _save_panel_and_oracle(oracle, args.out, args.truth)
    result = {**_json(truth), "out": args.out, "truth": args.truth}
    undefined = {
        key: why for key, why in _UNDEFINED_TRUTH.items() if not math.isfinite(result[key])
    }
    result.update(dict.fromkeys(undefined))
    return _fingerprint(data), result, {"undefined": undefined} if undefined else None


def _run_decompose(args: argparse.Namespace) -> Run:
    from .simulate import check_trend_mixture, decompose_att, load_oracle

    oracle = load_oracle(args.truth)
    try:
        dec = _json(decompose_att(oracle))
        mixture = _json(check_trend_mixture(oracle))
    except RuntimeError as exc:
        # identity violations on user-supplied oracles are refusals, not crashes
        raise EstimatorError(str(exc)) from exc
    dec["terms"] = [{"label": k, "value": v} for k, v in zip(dec.pop("labels"), dec["terms"])]
    del mixture["stratum_trends"]
    return {"rows": len(oracle)}, dec, {"trend_mixture": mixture}


_RUNNERS = {
    "cc": _run_cc,
    "iv": _run_iv,
    "bounds": _run_bounds,
    "pi": _run_pi,
    "rates": _run_rates,
    "simulate": _run_simulate,
    "decompose": _run_decompose,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report = _report(args, *_RUNNERS[args.command](args))
    except InputError as exc:
        print(f"did-miss: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("did-miss: error: not enough memory for this run", file=sys.stderr)
        return 1
    except EstimatorError as exc:
        print(f"did-miss: refused: {exc}", file=sys.stderr)
        return 2
    try:
        text = json.dumps(report, allow_nan=False)
    except ValueError:  # JSON has no NaN or infinity
        print("did-miss: refused: the result is not finite (NaN or infinity)", file=sys.stderr)
        return 2
    output = _pretty(report) if args.pretty else text
    try:
        print(output)
        sys.stdout.flush()
    except OSError as exc:
        # send what is left, and the interpreter's own flush at exit, nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):  # a reader that left asked for no more
            message = f"cannot write standard output: {exc.strerror or exc}"
            print(f"did-miss: error: {message}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

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

``--pretty`` switches to an aligned human-readable rendering of the same
report.  Bootstrap replicate streams are derived from (seed, replicate
index) and run in one thread; setting ``DIDMISS_THREADS`` has no effect.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
from typing import Any, Mapping, Sequence

import numpy as np

from . import __version__
from .bounds import BoundResult, BoundsBootstrap, StrataProportions, att_ar_bounds, bootstrap_bounds
from .common import ClipEvent, Interval
from .errors import EstimatorError, InputError
from .estimators import BootstrapConfig, Estimate, bootstrap_ci, did_complete_case
from .iv import IvDiagnostics, att_iv, att_iv_multi
from .panel import (
    ColumnMapping,
    PanelDataset,
    RateTable,
    compute_rates,
    load_panel,
    save_panel,
)
from .principal import att_principal_ignorability, principal_scores
from .simulate import (
    PRESET_KINDS,
    STRATUM_LABELS,
    STRATUM_PAIRS,
    AttDecomposition,
    TrendMixtureReport,
    check_trend_mixture,
    decompose_att,
    load_oracle,
    make_preset,
    save_oracle,
    simulate_panel,
)

__all__ = ["RunReport", "main"]

_PAIR_LABEL = {pair: label for pair, label in zip(STRATUM_PAIRS, STRATUM_LABELS)}


@dataclasses.dataclass(frozen=True)
class RunReport:
    """One CLI run: command echo, data fingerprint, result, provenance."""

    tool: str
    version: str
    command: str
    options: Mapping[str, Any]
    data: Mapping[str, Any] | None
    result: Any
    diagnostics: Any
    environment: Mapping[str, Any]
    status: str = "ok"

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return json.dumps(payload, allow_nan=False)

    def to_pretty(self) -> str:
        lines = [f"{self.tool} {self.version} — {self.command} [{self.status}]"]
        for section in ("options", "data", "result", "diagnostics", "environment"):
            value = getattr(self, section)
            if value is None:
                continue
            lines.append(f"{section}:")
            lines.extend(_pretty_lines(value, indent=1))
        return "\n".join(lines)


def _pretty_lines(value: Any, indent: int) -> list[str]:
    pad = "  " * indent
    if isinstance(value, Mapping):
        if not value:
            return [f"{pad}(none)"]
        width = max(len(str(k)) for k in value)
        lines: list[str] = []
        for key, item in value.items():
            if isinstance(item, Mapping) or (
                isinstance(item, list) and item and isinstance(item[0], (Mapping, list))
            ):
                lines.append(f"{pad}{key}:")
                lines.extend(_pretty_lines(item, indent + 1))
            else:
                lines.append(f"{pad}{str(key).ljust(width)}  {_pretty_scalar(item)}")
        return lines
    if isinstance(value, list):
        if not value:
            return [f"{pad}(none)"]
        lines = []
        for v in value:
            if isinstance(v, Mapping):
                inner = _pretty_lines(v, indent + 1)
                lines.append(f"{pad}-" + inner[0][len(pad) + 1 :])
                lines.extend(inner[1:])
            else:
                lines.append(f"{pad}- {_pretty_scalar(v)}")
        return lines
    return [f"{pad}{_pretty_scalar(value)}"]


def _pretty_scalar(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, list):
        return "[" + ", ".join(_pretty_scalar(v) for v in value) + "]"
    return str(value)


# ---------------------------------------------------------------------------
# serializers (explicit, so the JSON shape is a stable contract)
# ---------------------------------------------------------------------------


def _interval_json(iv: Interval | None) -> list[float] | None:
    return None if iv is None else [iv.lo, iv.hi]


def _estimate_json(est: Estimate) -> dict[str, Any]:
    return {
        "point": est.point,
        "n_used": est.n_used,
        "se": est.se,
        "ci": _interval_json(est.ci),
        "ci_level": est.ci_level,
        "notes": list(est.notes),
    }


def _iv_diag_json(diag: IvDiagnostics) -> dict[str, Any]:
    return {
        "denom": list(diag.denom),
        "missing_share": list(diag.missing_share),
        "bias_correction": list(diag.bias_correction),
        "trend_gap": list(diag.trend_gap),
    }


def _clip_events_json(events: Sequence[ClipEvent]) -> list[dict[str, Any]]:
    return [
        {"quantity": e.quantity, "raw": e.raw, "clipped": e.clipped} for e in events
    ]


def _proportions_json(props: StrataProportions) -> dict[str, Any]:
    return {
        "mode": props.mode,
        "pi": {
            arm_name: {
                _PAIR_LABEL[pair]: _interval_json(props.pi[d][pair]) for pair in STRATUM_PAIRS
            }
            for d, arm_name in ((0, "control"), (1, "treated"))
        },
        "clip_events": _clip_events_json(props.clip_events),
        "flags": list(props.flags),
    }


def _bounds_json(result: BoundResult) -> dict[str, Any]:
    return {
        "estimand": result.estimand,
        "lb": result.lb,
        "ub": result.ub,
        "trim_share": list(result.trim_share),
        "assumptions_used": list(result.assumptions_used),
        "support_fallback": result.support_fallback,
        "flags": list(result.flags),
        "n_used": result.n_used,
        "clip_events": _clip_events_json(result.clip_events),
        "proportions": None if result.proportions is None else _proportions_json(result.proportions),
    }


def _bounds_bootstrap_json(boot: BoundsBootstrap) -> dict[str, Any]:
    return {
        "lb_ci": _interval_json(boot.lb_ci),
        "ub_ci": _interval_json(boot.ub_ci),
        "outer": _interval_json(boot.outer),
        "se_lb": boot.se_lb,
        "se_ub": boot.se_ub,
        "level": boot.level,
        "replicates_used": boot.replicates_used,
        "replicates_failed": boot.replicates_failed,
    }


def _rates_json(rates: RateTable) -> dict[str, Any]:
    return {
        "n": list(rates.n),
        "p_r1": list(rates.p_r1),
        "p_r2": list(rates.p_r2),
        "p_r2_given_r1": list(rates.p_r2_given_r1),
        "p_r2_given_aux": [
            [list(level) for level in arm] for arm in rates.p_r2_given_aux
        ],
    }


def _strata_map_json(table: Mapping[tuple[int, int], float]) -> dict[str, float]:
    return {_PAIR_LABEL[pair]: table[pair] for pair in STRATUM_PAIRS}


def _decomposition_json(dec: AttDecomposition) -> dict[str, Any]:
    return {
        "terms": [
            {"label": label, "value": value} for label, value in zip(dec.labels, dec.terms)
        ],
        "total": dec.total,
        "att": dec.att,
        "deviation": dec.deviation,
        "se": dec.se,
        "treated_shares": _strata_map_json(dec.treated_shares),
    }


def _mixture_json(rep: TrendMixtureReport) -> dict[str, Any]:
    return {
        "direct": list(rep.direct),
        "mixture": list(rep.mixture),
        "mixture_residual": rep.mixture_residual,
        "pt_gap": rep.pt_gap,
        "pt_gap_se": rep.pt_gap_se,
        "stratum_shares": {
            arm_name: _strata_map_json(rep.stratum_shares[d])
            for d, arm_name in ((0, "control"), (1, "treated"))
        },
    }


def _fingerprint(data: PanelDataset) -> dict[str, Any]:
    arms = [data.d == 0, data.d == 1]
    return {
        "rows": len(data),
        "arms": [int(a.sum()) for a in arms],
        "missing_y1": [float(np.isnan(data.y1[a]).mean()) if a.any() else 0.0 for a in arms],
        "missing_y2": [float(np.isnan(data.y2[a]).mean()) if a.any() else 0.0 for a in arms],
        "n_aux": data.n_aux,
        "n_covariates": data.n_covariates,
    }


def _environment(seed: int | None) -> dict[str, Any]:
    return {
        "package": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
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
    for sub in (cc, iv, bounds, pi, rates, sim, dec):
        sub.add_argument("--pretty", action="store_true", help="human-readable rendering")
    return parser


# ---------------------------------------------------------------------------
# subcommand runners
# ---------------------------------------------------------------------------


def _bootstrap_cfg(args: argparse.Namespace) -> BootstrapConfig | None:
    if args.bootstrap is None:
        return None
    return BootstrapConfig(replicates=args.bootstrap, seed=args.seed, level=args.level)


def _bootstrap_options(args: argparse.Namespace) -> dict[str, Any]:
    return {
        "bootstrap": args.bootstrap,
        "seed": args.seed if args.bootstrap is not None else None,
        "level": args.level if args.bootstrap is not None else None,
    }


def _run_cc(args: argparse.Namespace) -> RunReport:
    data = load_panel(args.input)
    cfg = _bootstrap_cfg(args)
    est = bootstrap_ci(data, "cc-did", cfg) if cfg else did_complete_case(data)
    return RunReport(
        tool="did-miss",
        version=__version__,
        command="cc",
        options={"input": args.input, **_bootstrap_options(args)},
        data=_fingerprint(data),
        result=_estimate_json(est),
        diagnostics=None,
        environment=_environment(args.seed if cfg else None),
    )


def _run_iv(args: argparse.Namespace) -> RunReport:
    data = load_panel(args.input)
    if args.aux2 is None:
        est, diag = att_iv(data, aux_index=args.aux)

        def estimator(d: PanelDataset) -> Estimate:
            return att_iv(d, aux_index=args.aux)[0]

    else:
        est, diag = att_iv_multi(data, aux_pair=(args.aux, args.aux2))

        def estimator(d: PanelDataset) -> Estimate:
            return att_iv_multi(d, aux_pair=(args.aux, args.aux2))[0]

    cfg = _bootstrap_cfg(args)
    if cfg:
        est = bootstrap_ci(data, estimator, cfg)
    return RunReport(
        tool="did-miss",
        version=__version__,
        command="iv",
        options={
            "input": args.input,
            "aux": args.aux,
            "aux2": args.aux2,
            **_bootstrap_options(args),
        },
        data=_fingerprint(data),
        result=_estimate_json(est),
        diagnostics=_iv_diag_json(diag),
        environment=_environment(args.seed if cfg else None),
    )


def _run_bounds(args: argparse.Namespace) -> RunReport:
    support = None if args.support is None else (args.support[0], args.support[1])
    data = load_panel(args.input, outcome_support=support)
    cfg = _bootstrap_cfg(args)
    if cfg:
        boot = bootstrap_bounds(data, args.mode, cfg)
        result: dict[str, Any] = _bounds_json(boot.point)
        result["bootstrap"] = _bounds_bootstrap_json(boot)
    else:
        result = _bounds_json(att_ar_bounds(data, args.mode))
    return RunReport(
        tool="did-miss",
        version=__version__,
        command="bounds",
        options={
            "input": args.input,
            "mode": args.mode,
            "support": None if support is None else list(support),
            **_bootstrap_options(args),
        },
        data=_fingerprint(data),
        result=result,
        diagnostics=None,
        environment=_environment(args.seed if cfg else None),
    )


def _run_pi(args: argparse.Namespace) -> RunReport:
    if args.covariates is None:
        data = load_panel(args.input)
    else:
        names = tuple(s.strip() for s in args.covariates.split(",") if s.strip())
        data = load_panel(
            args.input,
            schema=lambda header: dataclasses.replace(
                ColumnMapping.detect(header), covariates=names
            ),
        )
    table = principal_scores(data)
    cfg = _bootstrap_cfg(args)
    est = (
        bootstrap_ci(data, "pi", cfg) if cfg else att_principal_ignorability(data)
    )
    return RunReport(
        tool="did-miss",
        version=__version__,
        command="pi",
        options={
            "input": args.input,
            "covariates": None if args.covariates is None else args.covariates,
            **_bootstrap_options(args),
        },
        data=_fingerprint(data),
        result=_estimate_json(est),
        diagnostics={
            "stratum_shares_treated": {
                _PAIR_LABEL[pair]: table.normalizers[pair] for pair in table.normalizers
            },
            "clip_events": _clip_events_json(table.clip_events),
            "flags": list(table.flags),
        },
        environment=_environment(args.seed if cfg else None),
    )


def _run_rates(args: argparse.Namespace) -> RunReport:
    data = load_panel(args.input)
    return RunReport(
        tool="did-miss",
        version=__version__,
        command="rates",
        options={"input": args.input},
        data=_fingerprint(data),
        result=_rates_json(compute_rates(data)),
        diagnostics=None,
        environment=_environment(None),
    )


#: The truths that can be undefined (NaN) and why; each is reported as null.
_UNDEFINED_TRUTH = {
    "att_ar": "no treated always-respondent was drawn",
    "att_ar_population": "the design has no treated always-respondents",
    "cc_population": "an arm has no second-wave respondents in the design",
    "cc_bias": "an arm has no second-wave respondents in the design",
}


def _run_simulate(args: argparse.Namespace) -> RunReport:
    spec = make_preset(args.preset, n=args.n, seed=args.seed)
    data, oracle, truth = simulate_panel(spec)
    save_panel(data, args.out)
    if args.truth is not None:
        save_oracle(oracle, args.truth)
    result = {
        "att": truth.att,
        "att_ar": truth.att_ar,
        "att_population": truth.att_population,
        "att_ar_population": truth.att_ar_population,
        "cc_population": truth.cc_population,
        "cc_bias": truth.cc_bias,
        "pi_table": {
            arm_name: _strata_map_json(truth.pi_table[d])
            for d, arm_name in ((0, "control"), (1, "treated"))
        },
        "out": args.out,
        "truth": args.truth,
    }
    undefined = {
        key: why for key, why in _UNDEFINED_TRUTH.items() if not math.isfinite(result[key])
    }
    result.update(dict.fromkeys(undefined))
    return RunReport(
        tool="did-miss",
        version=__version__,
        command="simulate",
        options={"preset": args.preset, "n": args.n, "seed": args.seed,
                 "out": args.out, "truth": args.truth},
        data=_fingerprint(data),
        result=result,
        diagnostics={"undefined": undefined} if undefined else None,
        environment=_environment(args.seed),
    )


def _run_decompose(args: argparse.Namespace) -> RunReport:
    oracle = load_oracle(args.truth)
    try:
        dec = decompose_att(oracle)
        mixture = check_trend_mixture(oracle)
    except RuntimeError as exc:
        # identity violations on user-supplied oracles are refusals, not crashes
        raise EstimatorError(str(exc)) from exc
    return RunReport(
        tool="did-miss",
        version=__version__,
        command="decompose",
        options={"truth": args.truth},
        data={"rows": len(oracle)},
        result=_decomposition_json(dec),
        diagnostics={"trend_mixture": _mixture_json(mixture)},
        environment=_environment(None),
    )


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
        report = _RUNNERS[args.command](args)
    except InputError as exc:
        print(f"did-miss: error: {exc}", file=sys.stderr)
        return 1
    except EstimatorError as exc:
        print(f"did-miss: refused: {exc}", file=sys.stderr)
        return 2
    try:
        text = report.to_json()
    except ValueError:  # JSON has no NaN or infinity
        print("did-miss: refused: the result is not finite (NaN or infinity)", file=sys.stderr)
        return 2
    print(report.to_pretty() if args.pretty else text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

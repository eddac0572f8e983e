"""Per-layer metrics, computed from the spans of a traced run.

The layers are the package's modules (``import``, ``panel``, ``estimators``,
``iv``, ``bounds``, ``principal``, ``simulate``, ``cli``; ``common`` and
``errors`` do no timed work) plus the tracer itself.  Each metric names the
end-to-end metric it should move and on which workload (``moves``); the
names in parentheses are the per-operation figures each workload reports
beside ``pass_s``.  A metric whose layer a workload never enters reads 0 and
is listed, with the reason, under ``not_exercised``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

from spans import Span

CLI_COMMANDS = ("simulate", "decompose", "rates", "cc", "iv", "bounds", "pi")
FEW_CELLS = 4  # principal-score designs with at most this many covariate cells count as "few"


class TraceView:
    """Spans of one traced run with self times and operation kinds."""

    def __init__(self, spans: list[Span], ops: dict[int, str], traced_passes: int,
                 pass_s: float, trace_pass_s: float) -> None:
        self.spans = spans
        self.kinds = [ops.get(s.op, "") for s in spans]
        self.traced_passes = traced_passes
        self.pass_s = pass_s
        self.trace_pass_s = trace_pass_s
        covered = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        self.self_time = [s.duration - c for s, c in zip(spans, covered)]
        # principal-score cell count seen by each att_pi span (its child's)
        self.cells = [s.counters.get("cells", 0) for s in spans]
        for s in spans:
            if s.name == "principal.principal_scores" and s.parent >= 0:
                self.cells[s.parent] = s.counters["cells"]

    def pick(self, name: str, label: str | None = None, kinds: tuple[str, ...] | None = None,
             where: Callable[[int], bool] | None = None) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s.name == name and "error" not in s.counters
                and (label is None or s.label == label)
                and (kinds is None or self.kinds[i] in kinds)
                and (where is None or where(i))]

    def median(self, name: str, scale: float = 1.0, self_time: bool = False, **filters) -> float | None:
        idx = self.pick(name, **filters)
        if not idx:
            return None
        values = self.self_time if self_time else [s.duration for s in self.spans]
        return scale * statistics.median(values[i] for i in idx)

    def total(self, name: str, counter: str, **filters) -> float | None:
        idx = self.pick(name, **filters)
        return float(sum(self.spans[i].counters.get(counter, 0) for i in idx)) if idx else None

    def per(self, name: str, counter: str, scale: float = 1.0, **filters) -> float | None:
        """Span time per unit of ``counter`` (e.g. per replicate)."""
        idx = self.pick(name, **filters)
        units = sum(self.spans[i].counters.get(counter, 0) for i in idx)
        return scale * sum(self.spans[i].duration for i in idx) / units if units else None

    def rate(self, name: str, counter: str) -> float | None:
        """Units of ``counter`` per second of span time (e.g. rows per second)."""
        per = self.per(name, counter)
        return 1.0 / per if per else None

    def module_self_s(self, module: str) -> float | None:
        """Self time of a module's spans per traced pass (set-up excluded)."""
        idx = [i for i, s in enumerate(self.spans)
               if s.name.startswith(module + ".") and self.kinds[i] != "setup"]
        if not idx or not self.traced_passes:
            return None
        return sum(self.self_time[i] for i in idx) / self.traced_passes


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str
    value: Callable[[TraceView], float | None]


def _ok_ratio(t: TraceView) -> float | None:
    reps = t.total("estimators.bootstrap_ci", "reps")
    return None if not reps else (reps - t.total("estimators.bootstrap_ci", "failed")) / reps


def _few(t: TraceView) -> Callable[[int], bool]:
    return lambda i: 0 < t.cells[i] <= FEW_CELLS


def _many(t: TraceView) -> Callable[[int], bool]:
    return lambda i: t.cells[i] > FEW_CELLS


CLI_ALL = "cli-200k: pass_s (every cli_*_s by the same amount)"
BOOT = {"cc": "bootstrap-5k: pass_s (boot_cc_reps_per_s); cli-200k: pass_s (cli_cc_s, small share)",
        "iv": "bootstrap-5k: pass_s (boot_iv_reps_per_s); cli-200k: pass_s (cli_iv_s, small share)",
        "pi": "bootstrap-5k: pass_s (boot_pi_reps_per_s); cli-200k: pass_s (cli_pi_s)"}

LAYERS: tuple[Layer, ...] = (
    Layer("import.didmiss_s", "s", "lower", CLI_ALL + "; set-up only elsewhere",
          lambda t: t.median("import.didmiss")),
    Layer("panel.load_panel_s", "s", "lower",
          "cli-200k: pass_s (cli_rates_s, cli_cc_s, cli_iv_s, cli_bounds_s, cli_pi_s)",
          lambda t: t.median("panel.load_panel")),
    Layer("panel.load_panel_rows_per_s", "1/s", "higher", "cli-200k: pass_s (as panel.load_panel_s)",
          lambda t: t.rate("panel.load_panel", "rows")),
    Layer("panel.csv_bytes_read", "bytes", "lower", "cli-200k: pass_s (as panel.load_panel_s)",
          lambda t: t.total("panel.load_panel", "bytes")),
    Layer("panel.save_panel_s", "s", "lower", "cli-200k: pass_s (cli_simulate_s); setup_s",
          lambda t: t.median("panel.save_panel")),
    Layer("panel.compute_rates_ms", "ms", "lower",
          "cli-200k: pass_s (cli_rates_s, cli_bounds_s); bootstrap-5k: pass_s (boot_bounds_reps_per_s, "
          "once per replicate); montecarlo-50k: pass_s (mc_draws_per_s)",
          lambda t: t.median("panel.compute_rates", 1e3)),
    Layer("panel.take_ms", "ms", "lower", "bootstrap-5k: pass_s (every boot_*, once per replicate); "
          "cli-200k: pass_s (cli_cc_s, cli_iv_s, cli_bounds_s, cli_pi_s)",
          lambda t: t.median("panel.take", 1e3)),
    Layer("estimators.did_complete_case_ms", "ms", "lower",
          "montecarlo-50k: pass_s (mc_draws_per_s); bootstrap-5k: pass_s (boot_cc_reps_per_s, boot_iv_reps_per_s)",
          lambda t: t.median("estimators.did_complete_case", 1e3)),
    *(Layer(f"estimators.bootstrap_ci_s.{k}", "s", "lower", BOOT[k],
            lambda t, k=k: t.median("estimators.bootstrap_ci", kinds=(k,))) for k in ("cc", "iv", "pi")),
    *(Layer(f"estimators.rep_ms.{k}", "ms", "lower", BOOT[k],
            lambda t, k=k: t.per("estimators.bootstrap_ci", "reps", 1e3, kinds=(k,))) for k in ("cc", "iv", "pi")),
    Layer("estimators.reps_attempted", "count", "higher", "bootstrap-5k: pass_s (replicates run in the traced run)",
          lambda t: t.total("estimators.bootstrap_ci", "reps")),
    Layer("estimators.reps_failed", "count", "lower", "bootstrap-5k and cli-200k: results (dropped replicates)",
          lambda t: t.total("estimators.bootstrap_ci", "failed")),
    Layer("estimators.rep_ok_ratio", "ratio", "higher", "bootstrap-5k and cli-200k: useful replicates / attempted",
          _ok_ratio),
    Layer("iv.att_iv_ms", "ms", "lower",
          "montecarlo-50k: pass_s (mc_draws_per_s); bootstrap-5k: pass_s (boot_iv_reps_per_s)",
          lambda t: t.median("iv.att_iv", 1e3)),
    Layer("iv.att_iv_multi_ms", "ms", "lower", "montecarlo-50k: pass_s (mc_draws_per_s)",
          lambda t: t.median("iv.att_iv_multi", 1e3)),
    *(Layer(f"bounds.att_ar_bounds_ms.{mode}", "ms", "lower", "montecarlo-50k: pass_s (mc_draws_per_s)"
            + ("; bootstrap-5k: pass_s (boot_bounds_reps_per_s); cli-200k: pass_s (cli_bounds_s)"
               if mode == "monotone" else ""),
            lambda t, mode=mode: t.median("bounds.att_ar_bounds", 1e3, label=mode))
      for mode in ("monotone", "no-monotone")),
    Layer("bounds.bootstrap_bounds_s", "s", "lower",
          "bootstrap-5k: pass_s (boot_bounds_reps_per_s); cli-200k: pass_s (cli_bounds_s)",
          lambda t: t.median("bounds.bootstrap_bounds")),
    Layer("bounds.rep_ms", "ms", "lower",
          "bootstrap-5k: pass_s (boot_bounds_reps_per_s); cli-200k: pass_s (cli_bounds_s)",
          lambda t: t.per("bounds.bootstrap_bounds", "reps", 1e3)),
    Layer("bounds.reps_failed", "count", "lower", "bootstrap-5k and cli-200k: results (dropped replicates)",
          lambda t: t.total("bounds.bootstrap_bounds", "failed")),
    Layer("bounds.support_fallbacks", "count", "lower", "results (bounds that fell back to the declared support)",
          lambda t: t.total("bounds.att_ar_bounds", "fallback")),
    Layer("bounds.clip_events", "count", "lower", "results (clipped strata proportions and trim shares)",
          lambda t: t.total("bounds.att_ar_bounds", "clips")),
    Layer("principal.principal_scores_ms.few_cells", "ms", "lower",
          "cli-200k: pass_s (cli_pi_s); montecarlo-50k: pass_s (mc_draws_per_s)",
          lambda t: t.median("principal.principal_scores", 1e3, where=_few(t))),
    Layer("principal.principal_scores_ms.many_cells", "ms", "lower", "bootstrap-5k: pass_s (boot_pi_reps_per_s)",
          lambda t: t.median("principal.principal_scores", 1e3, where=_many(t))),
    Layer("principal.att_pi_ms.few_cells", "ms", "lower",
          "cli-200k: pass_s (cli_pi_s); montecarlo-50k: pass_s (mc_draws_per_s)",
          lambda t: t.median("principal.att_pi", 1e3, where=_few(t))),
    Layer("principal.att_pi_ms.many_cells", "ms", "lower", "bootstrap-5k: pass_s (boot_pi_reps_per_s)",
          lambda t: t.median("principal.att_pi", 1e3, where=_many(t))),
    Layer("principal.cells", "count", "higher", "bootstrap-5k vs the others: which principal_scores rows apply",
          lambda t: max((s.counters.get("cells", 0) for s in t.spans), default=0) or None),
    Layer("simulate.make_preset_ms.cold", "ms", "lower", "cli-200k: pass_s (cli_simulate_s); setup_s",
          lambda t: t.median("simulate.make_preset", 1e3, where=lambda i: "first" in t.spans[i].counters)),
    Layer("simulate.make_preset_ms.cached", "ms", "lower", "montecarlo-50k: pass_s (mc_draws_per_s)",
          lambda t: t.median("simulate.make_preset", 1e3, where=lambda i: "first" not in t.spans[i].counters)),
    Layer("simulate.simulate_panel_ms", "ms", "lower",
          "montecarlo-50k: pass_s (mc_draws_per_s); cli-200k: pass_s (cli_simulate_s, small share); setup_s",
          lambda t: t.median("simulate.simulate_panel", 1e3)),
    Layer("simulate.save_oracle_s", "s", "lower", "cli-200k: pass_s (cli_simulate_s)",
          lambda t: t.median("simulate.save_oracle")),
    Layer("simulate.oracle_bytes_written", "bytes", "lower", "cli-200k: pass_s (cli_simulate_s, cli_decompose_s)",
          lambda t: t.total("simulate.save_oracle", "bytes")),
    Layer("simulate.load_oracle_s", "s", "lower", "cli-200k: pass_s (cli_decompose_s)",
          lambda t: t.median("simulate.load_oracle")),
    *(Layer(f"simulate.decompose_att_ms.{kind}", "ms", "lower", where,
            lambda t, kind=kind: t.median("simulate.decompose_att", 1e3, label=kind))
      for kind, where in (("records", "cli-200k: pass_s (cli_decompose_s)"),
                          ("panel", "montecarlo-50k: pass_s (mc_draws_per_s)"))),
    Layer("simulate.check_trend_mixture_ms", "ms", "lower",
          "cli-200k: pass_s (cli_decompose_s); montecarlo-50k: pass_s (mc_draws_per_s)",
          lambda t: t.median("simulate.check_trend_mixture", 1e3)),
    *(Layer(f"cli.self_s.{cmd}", "s", "lower", f"cli-200k: pass_s (cli_{cmd}_s): parse, fingerprint, JSON",
            lambda t, cmd=cmd: t.median("cli.main", self_time=True, kinds=(cmd,)))
      for cmd in CLI_COMMANDS),
    Layer("cli.report_bytes", "bytes", "lower", "cli-200k: pass_s (every cli_*_s, JSON encoding)",
          lambda t: t.total("cli.main", "report_bytes")),
    *(Layer(f"{module}.self_s", "s", "lower", "pass_s of the workloads that enter it (self time per traced pass)",
            lambda t, module=module: t.module_self_s(module))
      for module in ("panel", "estimators", "iv", "bounds", "principal", "simulate")),
    Layer("trace.pass_s", "s", "lower", "pass_s with tracing on (same run, normalised like pass_s)",
          lambda t: t.trace_pass_s),
    Layer("trace.overhead_s", "s", "lower", "tracing overhead: trace.pass_s - pass_s of the same run",
          lambda t: t.trace_pass_s - t.pass_s),
)


def measure(view: TraceView) -> tuple[dict[str, dict], dict[str, str]]:
    """Every per-layer metric with its unit; zeros for layers never entered."""
    metrics: dict[str, dict] = {}
    absent: dict[str, str] = {}
    for layer in LAYERS:
        value = layer.value(view)
        if value is None:
            absent[layer.name] = "this workload never enters the layer (no matching span), so 0"
            value = 0.0
        metrics[layer.name] = {"value": value, "unit": layer.unit}
    return metrics, absent

"""In-memory span recorder that wraps ``didmiss`` entry points from outside.

A span is ``(name, label, start, end, parent, op, counters)``: ``parent`` is
the index of the enclosing span (-1 at the top), ``op`` the id of the
benchmark operation the span belongs to, and ``counters`` work counts read
at the same boundary (rows loaded, replicates run, bytes written).  Spans
stay in memory until the benchmark ends.  Nothing under ``src/`` changes:
``instrument`` swaps each traced function for a recording wrapper in every
loaded ``didmiss`` module that refers to it, and the function it returns
swaps them back.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Span:
    name: str
    label: str
    start: float
    end: float
    parent: int
    op: int
    counters: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans for one process; ``op`` groups them by operation."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.ops: dict[int, str] = {}
        self._stack: list[int] = []
        self._op = -1
        self._seen: set[tuple[str, str]] = set()

    @contextmanager
    def op(self, op_id: int, kind: str) -> Iterator[None]:
        self.ops[op_id] = kind
        outer, self._op = self._op, op_id
        try:
            yield
        finally:
            self._op = outer

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record the enclosed block; the yielded dict collects counters."""
        counters: dict = {}
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield counters
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, "", start, end, parent, self._op, counters)

    def wrap(self, name: str, fn: Callable, label: Callable | None, count: Callable | None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx, parent = self._open()
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                # labels and counters are read after the clock stopped, so
                # their cost never shows up inside the traced layer
                tag = label(args, kwargs, result) if ok and label else ""
                counters = (count(args, kwargs, result) if count else {}) if ok else {"error": 1}
                if (name, tag) not in self._seen:  # first call in this process: a cold start
                    self._seen.add((name, tag))
                    counters["first"] = 1
                self.spans[idx] = Span(name, tag, start, end, parent, self._op, counters)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def adopt(self, rows: list[list], kind: str) -> None:
        """Append spans a child process recorded, as one new operation of
        ``kind``, re-basing their parent links."""
        op_id = len(self.ops)
        self.ops[op_id] = kind
        base = len(self.spans)
        for name, label, start, end, parent, counters in rows:
            self.spans.append(
                Span(name, label, start, end, -1 if parent < 0 else base + parent, op_id, counters)
            )

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def dump_rows(self) -> list[list]:
        """Spans as JSON-ready rows (the format ``adopt`` reads)."""
        return [[s.name, s.label, s.start, s.end, s.parent, s.counters] for s in self.finished()]


# -- what is traced --------------------------------------------------------


def _path_bytes(path: Any) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _reps_failed_from_notes(est: Any) -> int:
    for note in est.notes:
        if note.startswith("replicates_failed="):
            return int(note.split("=", 1)[1])
    return 0


def _oracle_kind(args: tuple, kwargs: dict, result: Any) -> str:
    from didmiss import OraclePanel

    return "panel" if isinstance(args[0], OraclePanel) else "records"


#: (module, attribute, span name, label(args, kwargs, result), counters(...)).
#: Attributes with a dot are methods on a class in that module.
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("didmiss.panel", "load_panel", "panel.load_panel", None,
     lambda a, k, r: {"rows": len(r), "bytes": _path_bytes(a[0])}),
    ("didmiss.panel", "save_panel", "panel.save_panel", None,
     lambda a, k, r: {"rows": len(a[0])}),
    ("didmiss.panel", "compute_rates", "panel.compute_rates", None, None),
    ("didmiss.panel", "PanelDataset._take", "panel.take", None, None),
    ("didmiss.estimators", "did_complete_case", "estimators.did_complete_case", None, None),
    ("didmiss.estimators", "bootstrap_ci", "estimators.bootstrap_ci", None,
     lambda a, k, r: {"reps": a[2].replicates, "failed": _reps_failed_from_notes(r)}),
    ("didmiss.iv", "att_iv", "iv.att_iv", None, None),
    ("didmiss.iv", "att_iv_multi", "iv.att_iv_multi", None, None),
    ("didmiss.bounds", "att_ar_bounds", "bounds.att_ar_bounds",
     lambda a, k, r: a[1] if len(a) > 1 else k.get("mode", "monotone"),
     lambda a, k, r: {"fallback": int(r.support_fallback), "clips": len(r.clip_events)}),
    ("didmiss.bounds", "bootstrap_bounds", "bounds.bootstrap_bounds", None,
     lambda a, k, r: {"reps": a[2].replicates, "failed": r.replicates_failed}),
    ("didmiss.principal", "principal_scores", "principal.principal_scores", None,
     lambda a, k, r: {"cells": len(r.cells)}),
    ("didmiss.principal", "att_principal_ignorability", "principal.att_pi", None, None),
    ("didmiss.simulate", "make_preset", "simulate.make_preset",
     lambda a, k, r: a[0] if a else k["kind"], None),
    ("didmiss.simulate", "simulate_panel", "simulate.simulate_panel", None, None),
    ("didmiss.simulate", "save_oracle", "simulate.save_oracle", None,
     lambda a, k, r: {"bytes": _path_bytes(a[1])}),
    ("didmiss.simulate", "load_oracle", "simulate.load_oracle", None,
     lambda a, k, r: {"rows": len(r)}),
    ("didmiss.simulate", "decompose_att", "simulate.decompose_att", _oracle_kind, None),
    ("didmiss.simulate", "check_trend_mixture", "simulate.check_trend_mixture", None, None),
)


def instrument(rec: Recorder) -> Callable[[], None]:
    """Wrap every loaded traced entry point; returns the function that undoes it."""
    undo: list[tuple[Any, str, Any]] = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "didmiss" or name.startswith("didmiss."))]
    for module_name, attr, span_name, label, count in TARGETS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner: Any = module
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(module, cls_name)
        original = getattr(owner, attr)
        wrapped = rec.wrap(span_name, original, label, count)
        homes = [owner] if owner is not module else modules
        for home in homes:
            for key, value in list(vars(home).items()):
                if value is original:
                    setattr(home, key, wrapped)
                    undo.append((home, key, original))

    def restore() -> None:
        for home, key, original in reversed(undo):
            setattr(home, key, original)

    return restore

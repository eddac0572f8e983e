"""Golden reports: the shape of every ``did-miss`` report, pinned.

``golden/reports.json`` holds one entry per run of the corpus below: its
argv, exit code, stderr, and the parsed stdout report.  The test reruns the
corpus in a temporary directory (so the paths echoed in ``options`` are the
same) and compares structure and key order exactly, strings and integers
exactly, and floats to 1e-12 relative (with a 1e-12 absolute floor for
residuals that are float dust).  Generator streams are not promised across
numpy versions, so this is not a byte comparison; the values of
``environment.python`` and ``environment.numpy`` are ignored.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

from didmiss.cli import main
from didmiss.simulate import PRESET_KINDS

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
IGNORED = {("environment", "python"), ("environment", "numpy")}


def corpus_argvs() -> list[list[str]]:
    """Seven presets at n=2000, seed 3, through every command, then one instrument pair."""
    argvs = []
    for preset in PRESET_KINDS:
        panel, truth = f"{preset}.csv", f"{preset}-truth.csv"
        argvs.append(["simulate", "--preset", preset, "--n", "2000", "--seed", "3",
                      "--out", panel, "--truth", truth])
        argvs.append(["rates", "--input", panel])
        for command in ("cc", "iv", "bounds", "pi"):
            argvs.append([command, "--input", panel, "--bootstrap", "10"])
        argvs.append(["decompose", "--truth", truth])
    argvs.append(["iv", "--input", "multi-iv.csv", "--aux", "0", "--aux2", "1", "--bootstrap", "10"])
    return argvs


def run_corpus() -> list[dict]:
    """Run the corpus in the current directory; one entry per run."""
    entries = []
    for argv in corpus_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        report = json.loads(out.getvalue()) if code == 0 else None
        entries.append({"argv": argv, "exit": code, "stderr": err.getvalue(), "report": report})
    return entries


def assert_same(got, want, path=()):
    where = "/".join(map(str, path)) or "<root>"
    if path[-2:] in IGNORED:
        assert type(got) is type(want), where
        return
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (where, got, want)
        return
    assert type(got) is type(want), (where, got, want)
    if isinstance(want, dict):
        assert list(got) == list(want), (where, list(got), list(want))
        for key in want:
            assert_same(got[key], want[key], path + (key,))
    elif isinstance(want, list):
        assert len(got) == len(want), (where, len(got), len(want))
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, path + (i,))
    else:
        assert got == want, (where, got, want)


def test_reports_match_the_golden_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    got = run_corpus()
    assert [e["argv"] for e in got] == [e["argv"] for e in golden]
    for g, w in zip(got, golden):
        assert_same(g, w, (" ".join(w["argv"]),))

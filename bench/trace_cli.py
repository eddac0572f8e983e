"""Run one ``did-miss`` command in this fresh interpreter with spans recorded.

Usage: ``python bench/trace_cli.py SPANS_JSON -- ARG...``

Times ``import didmiss.cli`` (the ``did-miss`` entry point's import), wraps
the package's entry points from outside (``spans.instrument``) and runs
``didmiss.cli.main(ARG...)`` in a ``cli.main`` span.  The report is passed
through to stdout unchanged after ``main`` returns; its size is the span's
``report_bytes`` counter.  The spans go to SPANS_JSON as JSON rows and the
exit code is ``main``'s.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

from spans import Recorder, instrument


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_cli.py SPANS_JSON -- ARG...", file=sys.stderr)
        return 2
    out, args = argv[0], argv[2:]
    rec = Recorder()
    with rec.span("import.didmiss"):
        import didmiss.cli
    instrument(rec)
    report = io.StringIO()
    try:
        with rec.span("cli.main") as counters, redirect_stdout(report):
            code = didmiss.cli.main(args)
        counters["report_bytes"] = len(report.getvalue().encode())
    finally:
        sys.stdout.write(report.getvalue())
        with open(out, "w") as handle:
            json.dump(rec.dump_rows(), handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

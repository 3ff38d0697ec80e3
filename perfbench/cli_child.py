"""Run one ``dtvol`` command with every layer traced.

Usage: ``cli_child.py OUT.json ARG...`` with PYTHONPATH pointing at ``src``.
Times the import of ``dtvol.cli``, wraps the layers, runs the command as the
``dtvol`` entry point does, and writes the spans, counters and cache
statistics to OUT.json before exiting with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
from dtvol import cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    tr.op = 0
    before = tracing.install(tr)
    code = 0
    try:
        tr.span("cli.main", cli.main)(args=argv, prog_name="dtvol")
    except SystemExit as exc:
        code = exc.code
    finally:
        tr.uninstall()
        Path(out).write_text(json.dumps({
            "import_s": import_s,
            "spans": tr.summary(),
            "counts": tr.counts,
            "caches": tracing.cache_deltas(before),
            "raw": tr.spans,
        }))
    sys.exit(code)


if __name__ == "__main__":
    main()

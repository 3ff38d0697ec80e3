"""One fresh interpreter of the benchmark: set up, then time one pass of ops.

Started by run.py as
``worker.py --workload W --seed S --trace 0|1 --out DIR --t0 MONOTONIC [--setup-only]``
with PYTHONPATH pointing at the checkout's ``src``.  Set-up is measured from
``--t0``, the parent's monotonic clock just before it started this process,
to the moment the first timed operation is ready.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import workloads as wl


def _timed_loop(runner, checker, ops, tracer=None):
    """Run one pass over ``ops``, one at a time, and check every op.  A run is
    always exactly one pass, so every run times the same ops and every
    percentile is taken over the same count.  Returns (records, timed wall)."""
    records = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        call = runner.run
        if tracer is not None:
            tracer.op = i
            call = tracer.span("op", runner.run)
        t = time.perf_counter()
        try:
            out = call(op, i)
            why = None
        except Exception as exc:  # a raised op is a failure, not an abort
            out, why = None, f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t
        if why is None:
            why = checker.check(i, op, out)
        records.append({
            "label": op.label,
            "wall_s": wall,
            "ok": why is None,
            "why": why,
            "hit": op.replay_of is not None,
        })
    return records, time.perf_counter() - start


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def _cli_medians(records) -> dict:
    hits = [r["wall_s"] for r in records if r["ok"] and r["hit"]]
    misses = [r["wall_s"] for r in records if r["ok"] and not r["hit"]]
    return {
        "hits": len(hits),
        "misses": len(misses),
        "hit_p50_s": statistics.median(hits) if hits else 0.0,
        "miss_p50_s": statistics.median(misses) if misses else 0.0,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True, help="directory for temporary files and the span export")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = wl.GENERATORS[args.workload](args.seed)
    checker = wl.Checker()
    is_cli = args.workload == "cli"
    scratch = Path(tempfile.mkdtemp(prefix="w-", dir=args.out))
    try:
        runner = wl.Runner(dict(os.environ), scratch / "cache")
        warm = runner.run(work.warmup)
        if is_cli and warm.returncode != 0:
            raise SystemExit(f"warm-up command failed: {warm.stderr.decode(errors='replace')}")
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return

        records, wall = _timed_loop(runner, checker, work.ops)
        result = {
            "setup_s": setup_s,
            "ops": records,
            "timed_wall_s": wall,
            "peak_rss_mb": _peak_rss_mb(children=is_cli),
            "draws": work.draws,
        }
        if is_cli:
            result["cli"] = _cli_medians(records)
        if args.trace:
            result["trace"] = _traced_pass(args, work, runner, result, scratch)
        print(json.dumps(result))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _traced_pass(args, work, runner, untraced: dict, scratch: Path) -> dict:
    """Run the ops of the untraced pass again with every layer wrapped."""
    import tracing

    export = Path(args.out) / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    data = {"spans": {}, "counts": {}, "caches": {}}
    if args.workload == "cli":
        parts = scratch / "parts"
        parts.mkdir()
        traced = wl.Runner(runner.env, scratch / "cache-traced", trace_dir=parts)
        records, wall = _timed_loop(traced, wl.Checker(), work.ops)
        import_s, written = 0.0, False
        for i in range(len(work.ops)):
            path = parts / f"{i}.json"
            if path.is_file():  # absent when the child failed before writing it
                part = json.loads(path.read_text())
                tracing.merge(data, part)
                import_s += part["import_s"]
                tracing.write_spans(export, part["raw"], op=i, append=written)
                written = True
        data["cli"] = {"import_s": import_s, **_cli_medians(untraced["ops"])}
    else:
        tr = tracing.Tracer()
        before = tracing.install(tr)
        try:
            records, wall = _timed_loop(runner, wl.Checker(), work.ops, tracer=tr)
        finally:
            tr.uninstall()
        tracing.merge(data, {"spans": tr.summary(), "counts": tr.counts,
                             "caches": tracing.cache_deltas(before)})
        tracing.write_spans(export, tr.spans)
    data["overhead"] = wall / untraced["timed_wall_s"]
    metrics, bases = tracing.layer_metrics(data, len(records))
    return {"ops": records, "wall_s": wall, "metrics": metrics, "bases": bases,
            "export": str(export)}


if __name__ == "__main__":
    main()

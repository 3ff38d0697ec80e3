"""dtvol benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it uses the package under ``src``
without installing it.  Workloads and metrics are declared in
``BENCHMARK.json``; ``--workload known-failures`` runs the failures recorded
in ``perfbench/known_failures.json`` instead.

With ``--trace 0`` it prints every end-to-end metric, measured untraced: the
median set-up time of several fresh interpreters, then one pass over the
workload's operations in one more.  A run is always one pass, so that every
run times the same operations; ``--seconds`` is the least time a pass is
meant to take, and the report says when a pass took less.  With
``--trace 1`` it runs the same timed operations once untraced and once with
every layer wrapped, and prints the per-layer metrics and the tracing
overhead.  Every operation's output is checked.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUPS = 7  # fresh interpreters whose set-up is timed; the median is reported
BUDGET_S = 170.0  # the whole run, set-ups and workers included, ends within this
EXTRA_BUDGET_S = 900.0  # known-failures runs every op, some of them slow
# One thread everywhere: runs are single-process, one op at a time, and
# both sides of a comparison must use the same setting.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
EXTRA_WORKLOADS = ("known-failures",)


class BenchError(RuntimeError):
    pass


def _spawn(args, deadline: float, setup_only: bool = False) -> dict:
    """Run one worker interpreter and return its JSON result."""
    env = {**os.environ, **THREADS, "PYTHONPATH": str(ROOT / "src")}
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--out", str(OUT),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child of it
        proc.communicate()
        raise BenchError("worker ran past the run's time budget")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{err.strip()}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it.  Below 21 samples that percentile falls
    under the median, so the maximum is reported instead."""
    xs = sorted(walls)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(setups: list[float], res: dict) -> tuple[dict, list[str]]:
    """End-to-end metrics of one untraced worker result, and report lines."""
    ops = res["ops"]
    passed = [r["wall_s"] for r in ops if r["ok"]]
    walls = passed or [r["wall_s"] for r in ops]  # all failed: still report times
    value, pct, beyond = tail(walls)
    failed = sum(not r["ok"] for r in ops)
    m = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(passed) / res["timed_wall_s"],
        "op_p50_s": statistics.median(walls),
        "op_tail_s": value,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    lines = [
        f"setup_s      median of {len(setups)} fresh interpreters: "
        + ", ".join(f"{s:.3f}" for s in setups),
        f"ops_per_s    {len(passed)} passed ops in {res['timed_wall_s']:.3f} s of timed wall",
        f"op_p50_s     median of {len(walls)} op wall times",
        f"op_tail_s    p{pct:.1f} of n={len(walls)} ops, {beyond} samples beyond it",
        f"fail_frac    {failed}/{len(ops)} = {failed / len(ops):.4f}",
    ]
    if "cli" in res:
        c = res["cli"]
        lines.append(f"hit_p50_s    {c['hit_p50_s']:.6f} s over {c['hits']} replays")
        lines.append(f"miss_p50_s   {c['miss_p50_s']:.6f} s over {c['misses']} cold runs")
    return m, lines


def _emit(declared: list[dict], values: dict) -> dict:
    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] + list(EXTRA_WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "dtvol" / "__init__.py").is_file():
        raise BenchError(f"no dtvol package under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    budget = EXTRA_BUDGET_S if args.workload in EXTRA_WORKLOADS else BUDGET_S
    deadline = time.monotonic() + budget
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(_spawn(args, deadline, setup_only=True)["setup_s"])
    res = _spawn(args, deadline)
    setups.append(res["setup_s"])

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  draws {json.dumps(res['draws'])}")
    print("threads  " + " ".join(f"{k}={v}" for k, v in THREADS.items())
          + f"  cpus {os.cpu_count()}")
    if res["timed_wall_s"] < args.seconds:
        print(f"note: the pass took {res['timed_wall_s']:.3f} s, less than --seconds")
    ops = res["ops"]
    if args.trace:
        tr = res["trace"]
        ops = ops + tr["ops"]
        metrics = _emit(spec["per_layer"], tr["metrics"])
        bases = tr["bases"]
        print(f"traced pass: {bases['ops']} ops in {tr['wall_s']:.3f} s against "
              f"{res['timed_wall_s']:.3f} s untraced; spans in {tr['export']}")
        for name, m in metrics.items():
            base = f"  ({bases[name]})" if name in bases else ""
            print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}{base}")
    else:
        values, lines = end_to_end(setups, res)
        metrics = _emit(spec["end_to_end"], values)
        for name, m in metrics.items():
            print(f"  {name:<12} {m['value']:>12.6f} {m['unit']}")
        for line in lines:
            print("  " + line)
    failures = [r for r in ops if not r["ok"]]
    for r in failures:
        print(f"FAIL {r['label']}: {r['why']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)

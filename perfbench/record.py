"""Record a trajectory point: every workload over several seeds.

    python3 perfbench/record.py --label <commit> --seeds 1-10 [--workloads census,cli]
        [--traced-seed 1] [--known-failures] [--out perfbench/trajectory.json]

Runs ``run.py`` once per (workload, seed) untraced, one at a time; with
``--traced-seed`` also one traced run per workload, and with
``--known-failures`` the known-failures workload.  For each
(end-to-end metric, workload) it stores the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median next
to the metric's bound, under ``points[label]`` of the output file, together
with the per-layer values of the traced runs and the failures found.  A point
that is already there keeps the entries of the workloads not run again.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from run import THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, trace: int, seconds: float) -> tuple[dict, list[str]]:
    """One run.py invocation: (its JSON result, its FAIL lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [ln for ln in lines if ln.startswith("FAIL ")]


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="the commit the numbers belong to")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--traced-seed", type=int, default=None, help="also make one traced run per workload")
    ap.add_argument("--known-failures", action="store_true", help="also run the known-failures workload")
    ap.add_argument("--out", default=str(HERE / "trajectory.json"))
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    point: dict = {
        "seeds": _seeds(args.seeds),
        "run_seconds": seconds,
        "threads": THREADS,
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        per_metric: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in point["seeds"]:
            res, fails = run(workload, seed, 0, seconds)
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        entry = {"attempted": attempted, "failed": failed, "metrics": {}}
        for name, values in per_metric.items():
            entry["metrics"][name] = {**stats(values), "bound": bounds[name]}
            s = entry["metrics"][name]
            print(f"  {workload:<12} {name:<12} median {s['median']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}", flush=True)
        if args.traced_seed is not None:
            res, _ = run(workload, args.traced_seed, 1, seconds)
            entry["per_layer"] = {"seed": args.traced_seed,
                                  **{k: v["value"] for k, v in res["metrics"].items()}}
        point["workloads"][workload] = entry
    if args.known_failures:
        res, fails = run("known-failures", 0, 0, seconds)
        point["known_failures"] = {"attempted": res["attempted"], "failed": res["failed"],
                                   "failures": [ln[5:] for ln in fails]}

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {"points": {}}
    old = doc["points"].get(args.label, {})  # keep the workloads not run again
    point["workloads"] = {**old.get("workloads", {}), **point["workloads"]}
    if "known_failures" in old:
        point.setdefault("known_failures", old["known_failures"])
    doc["points"][args.label] = point
    out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()

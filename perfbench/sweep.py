#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and summarise the spread.

    python3 perfbench/sweep.py                       # every workload, seeds 1..10
    python3 perfbench/sweep.py --workloads ground-states --seeds 1,2,3
    python3 perfbench/sweep.py --trace 1 --seeds 1   # per-layer metrics
    python3 perfbench/sweep.py --json out.json       # also write the summary

Each run is a fresh ``perfbench/run.py`` process with the run length of
BENCHMARK.json.  For every workload and metric the summary gives the median
over seeds and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound.  failed_frac is failed / attempted, summed over
the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    for line in lines[:-1]:
        if line.startswith("FAIL"):
            print(f"  {line}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write the per-workload summary here")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        correct = True
        for seed in seeds:
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            attempted += result["attempted"]
            failed += result["failed"]
            correct &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            shown = " ".join(f"{n}={m['value']:.4g}{m['unit']}"
                             for n, m in result["metrics"].items()) if not args.trace else ""
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {shown}", flush=True)
        print(f"== {workload}: {len(seeds)} runs, correct={correct}, "
              f"failed_frac {failed / attempted:.4g} ({failed}/{attempted})")
        rows = {}
        for name, vals in values.items():
            rows[name] = {"median": statistics.median(vals), "unit": units[name],
                          "spread": spread(vals), "min": min(vals), "max": max(vals)}
            bound = bounds.get(name)
            print(f"   {name:36s} median {rows[name]['median']:<12.6g} {units[name]:8s}"
                  f" spread {rows[name]['spread']:.3f}"
                  + (f" (bound {bound})" if bound is not None else ""))
        summary[workload] = {"seeds": seeds, "correct": correct, "attempted": attempted,
                             "failed": failed, "metrics": rows}
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

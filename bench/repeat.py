"""Repeat the benchmark over seeds and report each metric's median and spread.

    python3 bench/repeat.py --workload facts_history --seeds 1 2 3 4 5
    python3 bench/repeat.py --seeds 1-10 --out /tmp/runs.json

Each run is ``bench/run.py`` with its own seed.  For every metric it prints
the median of the runs, the quartiles from ``statistics.quantiles(n=4)``, and
the spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
Comparing two commits is two invocations, one in each checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's result line, plus its seed and the report sha per command."""
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    shas = {}
    for line in lines:
        if line.startswith("  sha256 "):
            name, *values = line.split()[1:]
            shas[name.rstrip(":")] = values
    return dict(json.loads(lines[-1]), seed=seed, shas=shas)


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", nargs="+", default=["1-10"], help="seeds or ranges such as 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and summary as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    ok = True
    for workload in names:
        runs = [run_once(workload, s, args.seconds, args.trace) for s in parse_seeds(args.seeds)]
        summary = {k: summarize([r["metrics"][k]["value"] for r in runs]) for k in runs[0]["metrics"]}
        report[workload] = {"runs": runs, "summary": summary}
        correct = all(r["correct"] and r["failed"] == 0 for r in runs)
        ok = ok and correct
        print(f"{workload}: {len(runs)} runs, all correct={correct}")
        for key, s in summary.items():
            bound = bounds.get(key)
            flag = ""
            if bound is not None and key != "setup_s":
                flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"  {key:28s} median {s['median']:14.6f}  q1 {s['q1']:14.6f}  q3 {s['q3']:14.6f}  "
                  f"spread {s['spread']:.4f}  bound {bound if bound is not None else '-'}  {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

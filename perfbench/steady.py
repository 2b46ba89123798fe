"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--trace 1] [--out FILE]

For every workload in ``BENCHMARK.json`` (or the ones named) it runs the
benchmark command once per seed, one run at a time, and prints per metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median.  With ``--trace 0`` each end-to-end
spread is compared with a third of its bound (``setup_s`` excepted, whose
bound limits only its median).  ``--out`` writes every run's result and the
summary as JSON, which is how a baseline is recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"benchmark": spec, "trace": args.trace, "workloads": {}}
    steady = True
    for name in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            meta = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
            runs.append({"seed": seed, "meta": meta, "result": result})
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect output", file=sys.stderr)
                steady = False
        summary = {}
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(metric)
            flag = ""
            if args.trace == 0 and metric != "setup_s" and bound is not None:
                ok = spread < bound / 3
                steady = steady and ok
                flag = f"  bound {bound}: {'ok' if ok else 'SPREAD TOO WIDE'}"
            print(f"{name:18s} {metric:38s} median {med:<12.6g} spread {spread:.4f}{flag}")
        report["workloads"][name] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run run.py over several seeds and summarize each metric's spread.

    python3 perfbench/repeat.py --workloads study,strata --seeds 1-10 --seconds 15 \
        [--trace 1] [--out perfbench/baseline.json]

For every workload and metric it prints the median and the interquartile
range as a share of the median (``statistics.quantiles(values, n=4)``),
and optionally writes all values plus machine facts as JSON. Runs are
sequential: the benchmark is a one-client closed loop.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="study,strata,csv,oracle")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="15")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args()
    doc = {"machine": machine(), "seconds": float(args.seconds), "trace": int(args.trace), "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        values, units, runs = {}, {}, []
        for seed in seed_list(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True,
            )
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", flush=True)
                status = 1
                continue
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "wall_s": wall, "attempted": result["attempted"], "failed": result["failed"]})
            print(f"{workload} seed {seed}: {wall:.1f}s, {result['attempted']} ops, {result['failed']} failed", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else None
            summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            shown = f"{spread:.4f}" if spread is not None else "-"
            print(f"  {workload:7s} {name:40s} median {median:<12.6g} {units[name]:9s} spread {shown}")
        doc["workloads"][workload] = {"runs": runs, "metrics": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

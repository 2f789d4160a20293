"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/collect.py --out perfbench/results/NAME.json
                                 [--seeds 1-10] [--trace 0]

Runs `perfbench/run.py` once per seed on every workload of BENCHMARK.json,
from the root of the checkout, with its run_seconds.  Writes, per workload and
metric, every value with its median, quartiles and spread (quartile distance
over median), together with the versions, CPU count and commit measured.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values):
    if len(values) < 2:
        return {"values": values, "median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import numpy
    import scipy
    report = {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "trace": args.trace,
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
            print(name, seed, json.dumps(runs[-1]), file=sys.stderr)
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": {
                metric: dict(unit=runs[0]["metrics"][metric]["unit"],
                             **summary([r["metrics"][metric]["value"]
                                        for r in runs]))
                for metric in runs[0]["metrics"]},
        }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""agcsim benchmark.

    python3 perfbench/run.py --workload {evaluate,train,tune,grid3}
                             --seed N --seconds S --trace {0,1}

Run from the root of an agcsim checkout; the program is imported from its
src/.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 runs one untimed warm-up cycle through the workload's cases, then
times cycles until S seconds have passed and a cycle has ended, and reports
the end-to-end metrics of BENCHMARK.json.  --trace 1 runs a warm-up cycle,
one cycle untraced and one traced, and reports the per-layer metrics.  README.md has the details.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# setup_s is the median of fresh-process set-up timings: at least
# SETUP_SAMPLES of them, and more until SETUP_SECONDS have passed.
SETUP_SAMPLES = 5
SETUP_SECONDS = 4.0

# A workload is one process with one thread.  OpenBLAS would otherwise start
# a worker thread per core; the set-up probes inherit this.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


class Tally:
    """Times, episode counts and failures of the operations of one pass."""

    def __init__(self):
        self.times = {}
        self.episodes = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.csv_bytes = 0
        self._reported = set()

    def op(self, workload, state, case):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = workload.run(state, case)
        except Exception as exc:  # a raising operation counts as failed
            self._fail(case, exc)
            return
        elapsed = time.perf_counter() - t0
        try:
            workload.check(state, case, out)
        except Exception as exc:  # CheckFailed, or the check itself raised
            self.wrong += 1
            self._fail(case, exc)
            return
        self.times.setdefault(case, []).append(elapsed)
        self.episodes[case] = out.episodes
        self.csv_bytes += out.csv_bytes

    def _fail(self, case, exc):
        self.failed += 1
        message = f"{case}: {type(exc).__name__}: {exc}"
        if message not in self._reported:
            self._reported.add(message)
            print(f"operation failed: {message}", file=sys.stderr)

    def cycle(self, workload, state):
        for case in workload.cases:
            self.op(workload, state, case)

    def episodes_per_s(self):
        """Episodes per second of one cycle, from per-case median times."""
        if not self.times:
            return 0.0
        seconds = sum(statistics.median(t) for t in self.times.values())
        return sum(self.episodes[case] for case in self.times) / seconds


def probe_setup(name, workdir):
    """Seconds from `import agcsim` to the end of set-up, in a new process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), name, str(workdir)],
        capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def setup_times(name, workdir):
    times = []
    start = time.perf_counter()
    while (len(times) < SETUP_SAMPLES
           or time.perf_counter() - start < SETUP_SECONDS):
        times.append(probe_setup(name, workdir))
    return times


def timed_run(workload, workdir, seconds):
    setup = setup_times(workload.name, workdir)
    state = workload.setup(workdir)
    # Untimed, so that first-call costs (lazy imports, allocator growth)
    # stay out of the per-case medians.
    warm = Tally()
    warm.cycle(workload, state)
    tally = Tally()
    start = time.perf_counter()
    while True:
        tally.cycle(workload, state)
        if time.perf_counter() - start >= seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = warm.failed + tally.failed
    attempted = warm.attempted + tally.attempted
    metrics = {
        "episodes_per_s": (tally.episodes_per_s(), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "success_ratio": (1 - failed / attempted, "ratio"),
    }
    return [warm, tally], metrics


def traced_run(workload, workdir):
    from tracer import Tracer, layer_metrics
    state = workload.setup(workdir)
    warm = Tally()
    warm.cycle(workload, state)
    plain = Tally()
    plain.cycle(workload, state)
    tracer = Tracer()
    traced = Tally()
    with tracer.patched():
        traced.cycle(workload, workload.setup(workdir))
    traced_rate = traced.episodes_per_s()
    overhead = plain.episodes_per_s() / traced_rate if traced_rate else 0.0
    return [warm, plain, traced], layer_metrics(tracer, traced.csv_bytes, overhead)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("evaluate", "train", "tune", "grid3"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "agcsim" / "__init__.py").is_file():
        print(f"error: {ROOT} is not an agcsim checkout (no src/agcsim)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import agcsim
    import workloads
    if Path(agcsim.__file__).resolve().parent != SRC / "agcsim":
        print(f"error: imported agcsim from {agcsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        workdir = Path(tmp)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            tallies, metrics = traced_run(workload, workdir)
        else:
            tallies, metrics = timed_run(workload, workdir, args.seconds)
    print(json.dumps({
        "correct": not any(t.wrong for t in tallies),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

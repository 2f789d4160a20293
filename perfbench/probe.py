"""Time agcsim set-up for one workload in a fresh process.

    python3 perfbench/probe.py WORKLOAD WORKDIR

Prints the seconds from `import agcsim` to the end of the workload's set-up
(scenario parsing, model build, controller synthesis, checkpoint load).
WORKDIR holds the inputs the workload's constructor wrote.
"""

import sys
import time

T0 = time.perf_counter()

import os  # noqa: E402  (already loaded by the interpreter)
from pathlib import Path  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (imports agcsim, numpy and scipy)

workloads.WORKLOADS[sys.argv[1]].setup(Path(sys.argv[2]))
print(time.perf_counter() - T0)

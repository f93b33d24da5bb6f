"""Report when one workload's inputs are ready, in a fresh process.

    python3 bench/probe.py <workload> <seed> <workdir>

Imports crosshom, builds every input of the workload, and prints the
system-wide CLOCK_MONOTONIC reading at that moment. run.py reads the same
clock just before it spawns this script, so the difference, setup_s, covers
the interpreter's start-up, the import and the inputs.
"""

import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path.cwd() / "src")]

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), Path(sys.argv[3]))
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))

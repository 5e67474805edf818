"""Time the benchmark's set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <out_dir> <smoke 0|1>

Set-up is importing numpy and qdiffusion, parsing every scenario config and
constructing every input state (workloads.build).  run.py starts this script
several times and reports the median; the BLAS thread pinning is inherited
from run.py's environment.
"""

import os
import sys
import time

START = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (imports numpy and qdiffusion; timed)

workloads.build(sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1")
print(f"{time.perf_counter() - START!r}")

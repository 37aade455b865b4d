"""Time one workload's set-up in a fresh interpreter; prints seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is importing the program plus everything the workload does
before its timed phase (building the fleet spec and compiling its
programs, or loading the toolchain's expectation files).  ``run.py``
runs this several times and reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(time.perf_counter() - start)

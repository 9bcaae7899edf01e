"""Time set-up in a fresh interpreter: ``import bjj`` plus config resolution
of the workload's first job.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints one JSON line with ``import_s`` and ``setup_s`` (import plus
resolution).  Importing the benchmark's own job table is left out of both.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

t_start = time.perf_counter()
import bjj  # noqa: E402,F401

t_imported = time.perf_counter()

sys.path.insert(0, str(HERE))
import jobs  # noqa: E402

first = jobs.make_jobs(sys.argv[1], int(sys.argv[2]))[0]
t_resolve = time.perf_counter()
jobs.resolve(first)
t_done = time.perf_counter()

import_s = t_imported - t_start
print(json.dumps({"import_s": import_s, "setup_s": import_s + (t_done - t_resolve)}))

"""Set-up probe: a fresh process imports lietrip and generates the raw
inputs of one workload, then prints its import time in seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time

t0 = time.perf_counter()
import lietrip  # noqa: E402  (the import is what is timed)
import_s = time.perf_counter() - t0

import clijobs  # noqa: E402
import jobs  # noqa: E402

workload, seed = sys.argv[1], int(sys.argv[2])
jobs.build_workload(lietrip, workload, seed)
if workload == "cli":
    json.dumps(clijobs.payloads())
print(import_s)

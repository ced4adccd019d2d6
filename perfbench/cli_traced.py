"""Run the lietrip CLI with the span recorder installed.

    PYTHONPATH=src python3 perfbench/cli_traced.py <spans.jsonl> <lietrip args...>

Behaves like ``python3 -m lietrip.cli <args>`` (same stdout, stderr and
exit code) and writes the spans as JSON lines, headed by the time spent
in ``main``, even when the command raises.
"""

import sys
import time

import lietrip
import lietrip.cli

import spans

recorder = spans.Recorder()
recorder.install(lietrip)
t0 = time.perf_counter()
try:
    code = lietrip.cli.main(sys.argv[2:])
finally:
    spans.write(sys.argv[1], recorder.spans, {"main_s": time.perf_counter() - t0})
sys.exit(code)

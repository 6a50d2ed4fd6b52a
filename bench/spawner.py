"""Runs the benchmark's CLI children from a small process.

A forked child's peak RSS, as the kernel reports it, includes its parent's
resident memory up to the moment the child calls exec.  Spawned from this
process (an interpreter with three modules loaded, smaller than any
``critickit`` process) the peak of each child is its own; spawned from the
benchmark it would be the benchmark's.

Reads one JSON array (an argv) per line, runs it in the current directory
with the current environment, and writes one JSON object per line: exit
``status`` (null after a timeout, when the child has been killed and
reaped), ``stdout``, wall ``seconds``, and ``maxrss_kb``, the peak RSS of
the largest child so far.  Ends when its input ends.
"""

import json
import resource
import subprocess
import sys
import time

TIMEOUT_S = 120

for line in sys.stdin:
    start = time.perf_counter()
    try:
        proc = subprocess.run(json.loads(line), capture_output=True, text=True, timeout=TIMEOUT_S)
        status, stdout = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        status, stdout = None, ""
    seconds = time.perf_counter() - start
    maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"status": status, "stdout": stdout, "seconds": seconds, "maxrss_kb": maxrss_kb}), flush=True)

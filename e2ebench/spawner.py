"""A small helper process that starts the ``repro check`` processes.

A child's peak RSS (``ru_maxrss``) includes the memory of the process
that forked it, up to its ``exec``.  The benchmark process holds every
recorded trace, so checks forked from it would report its size; forked
from this helper, which imports only the standard library, they report
their own.

Protocol: one JSON object per line on standard input,
``{"argv": [...], "timeout": seconds}``, answered by one JSON line
``{"seconds", "status", "maxrss_kb", "output"}``.  The helper exits at
the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, timeout):
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
        _, wait_status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    return {
        "seconds": seconds,
        "status": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "output": output.decode(errors="replace"),
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

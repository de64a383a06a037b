"""Starts and reaps the benchmark's child processes for run.py.

On Linux a child's peak RSS, as ``wait4`` reports it, is at least the peak
RSS of the process that spawned it: exec carries the old address space's
high-water mark over.  run.py starts this launcher before it imports
numpy, so the launcher stays small and the peak RSS it reports is the
child's own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "log": PATH, "timeout": SECONDS}``, and one
JSON reply per line on stdout, ``{"code", "wall", "cpu", "rss_mb", "steal"}``.
The CPU time and peak RSS include the child's own waited-for children, such
as a gradient provider.  ``steal`` is the time the host stole from all of
this machine's vCPUs together while the child ran.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def steal_s() -> float:
    """CPU time the host has stolen from this machine's vCPUs so far, summed over them."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def run(argv: list, env: dict, log: str, timeout: float) -> dict:
    stolen = steal_s()
    with open(log, "wb") as fh:
        start = time.perf_counter()
        # A session of its own, so a timeout also kills a provider child.
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                start_new_session=True)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "steal": steal_s() - stolen}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

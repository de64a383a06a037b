"""Benchmark of the igprobe CLI recipes: sweep, and attribute with and without a provider.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep|attribute --seed N --seconds S --trace 0|1

Each run writes seeded inputs under perfbench/_runs/, sets up by training
the checkpoint with ``igprobe train`` (several times, for a median), then
runs the workload's recipe as a separate ``python -m igprobe`` process,
whole recipe after whole recipe, until S seconds have passed.  Outputs
are checked against expectations computed from the inputs alone (see
checks.py), and the checks are shown to reject corrupted copies.  The last
line of standard output is one JSON object: end-to-end metrics with
--trace 0; with --trace 1 the per-layer metrics of traced recipes (see
traced.py) run alternately with untraced ones, plus the tracing overhead.
A traced attribute run also takes the attribute recipe once over the mock
gradient provider, for the provider layer.

This file imports only the standard library: it starts the process
launcher (launch.py) before bench.py imports numpy.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


class Launcher:
    """Client of launch.py: runs one child process and returns its measurements."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], env: dict, log: Path, timeout: float) -> dict:
        request = {"argv": argv, "env": env, "log": str(log), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"process launcher exited with code {self._proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)


def main() -> int:
    launcher = Launcher()
    try:
        import bench
        return bench.main(sys.argv[1:], launcher)
    finally:
        launcher.close()


if __name__ == "__main__":
    sys.exit(main())

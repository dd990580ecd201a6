"""Spawns the toolchain's processes for run.py and reports on each one.

A child's ru_maxrss starts at the peak RSS of the process it was spawned
from, so the CLIs are started from this small process and not from the
benchmark, whose memory grows while it checks outputs and traces.

One JSON request per line on standard input,
    {"argv": [...], "stdout": path, "stderr": path, "limit_s": seconds}
and one JSON reply per line on standard output,
    {"wall_s": seconds, "exit_code": int or null, "maxrss_kb": int}
with exit_code null when the child was killed at its time limit. The
children run in this process's working directory; end of input ends it.
"""

import json
import os
import signal
import sys
import time


def run(argv: list[str], stdout: str, stderr: str, limit_s: float) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    killed = False

    def on_alarm(signum, frame):
        nonlocal killed
        killed = True
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    # Wait for the exit without reaping, so the alarm can only ever
    # signal this child, never a recycled pid.
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(pid, 0)
    code = None if killed else os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit_code": code, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["argv"], req["stdout"], req["stderr"], req["limit_s"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

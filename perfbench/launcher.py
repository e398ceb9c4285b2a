"""Start operations for the benchmark and report what each one cost.

    python3 -E -S -B perfbench/launcher.py

Reads one JSON list of arguments per line on stdin, runs `python3 ARGS` in
the current directory with this process's environment, stdout and stderr
going to stdout.bin and stderr.bin, and answers with one JSON line: exit
code, wall seconds from spawn to reaped exit, and the child's own CPU time
and peak RSS from wait4.

It is a process of its own because Linux carries the spawning process's
peak RSS into the child's: a small launcher keeps that floor below any
child's real peak, whatever the benchmark itself holds in memory.
"""

import json
import os
import signal
import sys
import time

TIMEOUT_S = 120
FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
ACTIONS = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
           (os.POSIX_SPAWN_OPEN, 1, "stdout.bin", FLAGS, 0o644),
           (os.POSIX_SPAWN_OPEN, 2, "stderr.bin", FLAGS, 0o644)]


def launch(args: list) -> dict:
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ,
                         file_actions=ACTIONS)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    return {"exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(launch(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()

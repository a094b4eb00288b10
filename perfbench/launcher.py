"""Spawn and measure the benchmark's child processes from a small process.

Linux carries a process's high-water RSS across fork and exec into the
child's ``ru_maxrss``, so a child forked straight from the benchmark (which
holds numpy, scipy and the generated inputs) would report the benchmark's
memory as its own. ``run.py`` starts this stdlib-only process first and
sends it one JSON request per line: ``{"cmd", "env", "log", "timeout"}``.
For each it starts the command with stdout and stderr to ``log``, waits for
it with ``wait4``, kills it after ``timeout`` seconds, and answers with one
JSON line: wall seconds from spawn to exit, exit code, peak RSS in KiB and
user+system CPU seconds. On SIGTERM it kills and reaps the running child,
then exits.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

RUNNING = []     # the child being measured, for the SIGTERM handler


def measure(cmd, env, log_path, timeout):
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env)
        RUNNING.append(proc)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            RUNNING.clear()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit_code": proc.returncode,
            "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def _terminate(signum, frame):
    for proc in RUNNING:
        proc.kill()
        proc.wait()
    sys.exit(1)


def main():
    signal.signal(signal.SIGTERM, _terminate)
    for line in sys.stdin:
        req = json.loads(line)
        reply = measure(req["cmd"], req["env"], req["log"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

"""Small process that starts the benchmark's task processes.

A child's max-RSS as reported by wait4 is never below the RSS of the
process it was spawned from, so tasks are started from this process, which
imports almost nothing, instead of from the benchmark harness, whose memory
grows as it checks large outputs.

Protocol: one JSON request per stdin line,
    {"argv": [...], "limit": seconds, "stdout": path, "stderr": path}
answered by one JSON line on stdout,
    {"seconds": wall, "status": exit code or -signal, "timed_out": bool,
     "maxrss_kb": int, "probe_s": seconds}.
Wall time runs from just before the spawn to the reap.  A task still
running at `limit` is killed with SIGKILL.  EOF on stdin ends the launcher;
SIGTERM kills the running task and then ends it.

While a task runs, this process times `probe`, a fixed sub-millisecond
piece of pure-Python work, every PROBE_PERIOD_S seconds; `probe_s` is the
median.  On a shared host the CPU slows down for stretches of seconds to
minutes, and a task and the probe beside it slow down together.
"""

import json
import os
import signal
import statistics
import sys
import threading
import time

PROBE_PERIOD_S = 0.01
# Median probe time on an unloaded core of a 2-core shared machine; the
# benchmark scales task times to it.
PROBE_S = 0.0004

running = set()  # pids of started, unreaped tasks


def probe() -> float:
    start = time.perf_counter()
    table, x = {}, 1
    for i in range(3000):
        x = (x * 31 + i) % 1000003
        table[i & 511] = x
    return time.perf_counter() - start


def kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # reaped since it was looked up
        pass


def run(req):
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, req["stdout"],
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["stderr"],
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    reaped = {}
    done = threading.Event()
    start = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                         file_actions=actions)
    running.add(pid)

    def reap():
        _, status, usage = os.wait4(pid, 0)
        reaped["end"] = time.perf_counter()
        reaped["status"], reaped["usage"] = status, usage
        done.set()

    waiter = threading.Thread(target=reap)
    waiter.start()
    probes = []
    timed_out = False
    try:
        while True:
            probes.append(probe())
            if done.wait(PROBE_PERIOD_S):
                break
            if time.perf_counter() - start > req["limit"]:
                timed_out = True
                kill(pid)
                break
    finally:
        waiter.join()
        running.discard(pid)
    return {"seconds": reaped["end"] - start,
            "status": os.waitstatus_to_exitcode(reaped["status"]),
            "timed_out": timed_out,
            "maxrss_kb": reaped["usage"].ru_maxrss,
            "probe_s": statistics.median(probes)}


def stop(signum, frame):
    for pid in list(running):
        kill(pid)
    raise SystemExit(1)


def main():
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

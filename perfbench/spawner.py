"""Start benchmark steps from a small process, one at a time.

A process started by fork or vfork and exec reports in ru_maxrss the
larger of its own peak resident memory and the resident memory of the
process that started it.  The harness holds outputs and spans, so it
starts every step through this process instead.  It runs with
``python3 -S``, imports little and keeps no output, so it stays near
the size of a bare interpreter: that size is the floor of
every peak_rss_mb figure.

    python3 -S spawner.py OUT_DIR

Requests on stdin and replies on stdout are JSON lines:

    {"cmd": [...], "keep": path or null, "limit": seconds, "cpu": number or null}
    {"start", "wall", "cpu", "rss_mb", "status", "sha256", "nbytes", "stderr"}

The step's stdout is digested, and also copied to ``keep`` when given.
Its CPU time and peak memory come from os.wait4, which includes the
workers it reaped.  A step still running after ``limit`` seconds is
killed.  With a cpu number the step runs on that CPU alone, through the
affinity it inherits.  The spawner exits at the end of its input.
"""

import json
import os
import signal
import sys
import time

try:
    from _sha256 import sha256  # skips loading OpenSSL, which hashlib would
except ImportError:  # the module is _sha2 from Python 3.12 on
    from hashlib import sha256


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # it ended as the timer fired
        pass


def run(cmd, keep, limit, cpu, err_path):
    r, w = os.pipe()
    cpus = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    start = time.monotonic()
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, w, 1),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ])
    os.sched_setaffinity(0, cpus)
    os.close(w)
    signal.signal(signal.SIGALRM, lambda *_: _kill(pid))
    signal.setitimer(signal.ITIMER_REAL, max(limit, 0.001))
    digest, nbytes = sha256(), 0
    out = open(keep, "wb") if keep else None
    try:
        while chunk := os.read(r, 1 << 16):
            digest.update(chunk)
            nbytes += len(chunk)
            if out:
                out.write(chunk)
    finally:
        if out:
            out.close()
        os.close(r)
        _, status, ru = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    with open(err_path, "rb") as err:
        err.seek(max(0, os.fstat(err.fileno()).st_size - 2000))
        stderr = err.read().decode(errors="replace")
    return {"start": start, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
            "rss_mb": ru.ru_maxrss / 1024, "status": os.waitstatus_to_exitcode(status),
            "sha256": digest.hexdigest(), "nbytes": nbytes, "stderr": stderr}


def main(out_dir):
    err_path = os.path.join(out_dir, "step-stderr.txt")
    for line in sys.stdin:
        reply = run(**json.loads(line), err_path=err_path)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1])

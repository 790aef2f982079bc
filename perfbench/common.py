"""Helpers shared by run.py and the session workers it starts."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench-runs"  # scratch space inside the checkout; git-ignored

CHILD_TIMEOUT_S = 150


class ChildResult:
    def __init__(self, code: int, wall_s: float, peak_rss_mb: float):
        self.code = code
        self.wall_s = wall_s
        self.peak_rss_mb = peak_rss_mb


def run_child(argv, cwd, stdout_path, stderr_path, env=None) -> ChildResult:
    """Run one child to completion and return its exit code, wall time and
    peak RSS (from ``wait4``, so it is the child's own peak).  A child that
    outlives ``CHILD_TIMEOUT_S`` is killed and reported with code -9."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4 above
    return ChildResult(p.returncode, wall, usage.ru_maxrss / 1024.0)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprint(obj) -> str:
    """Digest of a JSON-able value, independent of dict order."""
    return sha256_bytes(json.dumps(obj, sort_keys=True).encode())


def median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def tail(values):
    """Value at the highest percentile with at least ten samples above it,
    as ``(value, percentile, sample count)``.  With ten or fewer samples
    it is the maximum, reported as percentile 100."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    i = n - 11
    return s[i], 100.0 * (i + 1) / n, n


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------
#
# On a shared host the same code runs up to a third faster or slower from
# one second to the next, because other tenants contend for the same
# cores; CPU time slows down with wall time, so it does not help.  Every
# time the benchmark reports is therefore given in reference seconds: the
# wall time of an op multiplied by ``REF_S[kind] / k``, where ``k`` is the
# wall time of a fixed speed probe measured just before and just after the
# op.  The probes do none of leftreal's work, so a change to leftreal
# moves the reported times exactly as it moves wall time at a steady
# speed.  ``REF_S`` is fixed: it is what each probe took on the 2-core
# host the benchmark was written on, so reference seconds read close to
# that host's wall seconds.


def compute_probe():
    """Big-integer shifts and compares, short strings and dict updates:
    the kinds of work the in-process workloads do.  It creates no objects
    the garbage collector tracks, so its time does not depend on how much
    the process holds."""
    x = (1 << 500) + 12345
    d: dict[str, int] = {}
    s = 0
    for i in range(1500):
        y = (x >> (i % 61)) - (x >> (i % 37))
        s += (y > x) + (y & 255)
        k = format(i * 2654435761 % 4096, "b")
        d[k] = d.get(k, 0) + 1
        s += len(k) ^ (i & 7)
    return s


def spawn_probe():
    """Start a Python child that imports a few standard modules: the kind
    of work a CLI command does before it reaches leftreal."""
    subprocess.run([sys.executable, "-c", "import json, argparse, fractions"],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)


PROBES = {"compute": (compute_probe, 3), "spawn": (spawn_probe, 1)}  # (probe, repeats)
REF_S = {"compute": 0.0019, "spawn": 0.072}


def probe_s(kind: str) -> float:
    """Wall seconds of one probe of ``kind`` (the median of its repeats)."""
    fn, reps = PROBES[kind]
    ts = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t)
    return median(ts)

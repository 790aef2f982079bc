"""Reproduce the ROADMAP baseline table, each case in its own process.

    python3 perfbench/baseline.py

Cases: ``roc_to_skt(ap:2,1, shift:2, 2000 stages)`` and one cold
``complexity(Interpreter(), "01"*10, Budget(L, 10**4))`` at L = 24, 28 and
30.  Prints wall time (of the call, inside the child) and the child's peak
RSS.  The L=30 case needs about 1.3 GB.  This is a one-off measurement,
not one of the benchmark's workloads.
"""

import json
import sys

from common import ROOT, RUNS, run_child

CASE = """
import sys, time
sys.path.insert(0, {src!r})
from leftreal import Budget, Interpreter, Modulus, NameStream, complexity, roc_to_skt
from leftreal.conversions import RateSpec
case = {case!r}
t0 = time.perf_counter()
if case[0] == "roc_to_skt":
    roc_to_skt(NameStream.affine(2, 1), RateSpec(Modulus.shift(2)), case[1])
else:
    complexity(Interpreter(), "01" * 10, Budget(case[1], 10**4))
print(time.perf_counter() - t0)
"""

CASES = [("roc_to_skt", 2000), ("complexity", 24), ("complexity", 28), ("complexity", 30)]


def main():
    RUNS.mkdir(exist_ok=True)
    out, err = RUNS / "baseline.out", RUNS / "baseline.err"
    rows = []
    for case in CASES:
        code = CASE.format(src=str(ROOT / "src"), case=case)
        res = run_child([sys.executable, "-c", code], ROOT, out, err)
        if res.code != 0:
            raise SystemExit(f"{case} exited {res.code}: {err.read_text()[-500:]}")
        rows.append({"case": f"{case[0]} {case[1]}", "wall_s": float(out.read_text()),
                     "peak_rss_mb": res.peak_rss_mb})
        print(json.dumps(rows[-1]), flush=True)
    out.unlink()
    err.unlink()


if __name__ == "__main__":
    main()

"""Benchmark for leftreal: four closed-loop workloads, checked outputs, and a
traced run for per-layer figures.

    python3 perfbench/run.py --workload stage-loop --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 0    # one round each

Workloads (see BENCHMARK.json for why each was chosen):

* ``stage-loop``  -- ``roc_to_skt`` jobs on ``ap:a,1`` names, checked by
  family validation, coverage of the limit and the count bound;
* ``k-cold``      -- complexity queries, each at a budget the process has
  not seen, so each one enumerates a whole domain;
* ``k-warm``      -- stage searches, profiles and direct queries against
  enumerations cached in set-up;
* ``cli-pipeline``-- the README command block, one CLI child at a time.

Each workload runs in fresh session processes (``worker.py``) started one
at a time; a session is one client that starts an op only after the
previous one finished.  ``leftreal`` is imported from this checkout's
``src/``, never from an installed copy.

A run does a fixed amount of work: ``--seconds`` over the workload's
``ROUND_S`` rounds (at least one).  Times are reported in reference
seconds, wall seconds scaled by speed probes taken around each op (see
``common.py``), so that the host's drifting speed does not move them.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
set-up time (median over at least seven fresh processes), completed ops
per second, median and tail op latency, peak RSS and the share of ops
that succeeded.  With ``--trace 1`` the other three workloads run one
traced round each, so that every layer is reported; the chosen workload
runs the rest of its rounds in alternating untraced and traced sessions
(the ratio of their throughputs is the tracing overhead); the last line
carries the per-layer metrics.

Every op is checked outside the timed region.  The two defects the seed
commit ships with are run as written: a command that fails exactly as
recorded in ``worker.KNOWN_DEFECTS`` counts against ``ok_ratio`` but not as
an unexpected failure.  Deterministic fingerprints must repeat: between
rounds, between sessions, between runs of the same source (remembered in
``.perfbench-runs/``) and, for seed 0, against ``reference.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import sys
import time
from pathlib import Path

from common import ROOT, RUNS, SRC, fingerprint, median, run_child, tail

HERE = Path(__file__).resolve().parent
WORKLOADS = ["stage-loop", "k-cold", "k-warm", "cli-pipeline"]
# About the reference seconds one round takes, fixed so that a run's work
# depends on --seconds alone, never on how fast the host happened to be.
ROUND_S = {"stage-loop": 3.35, "k-cold": 2.9, "k-warm": 1.28, "cli-pipeline": 4.9}
# Each k-cold query must meet a budget its process has not seen, and the
# library's enumeration cache never frees, so a k-cold process runs one round.
ONE_ROUND_PER_PROCESS = {"k-cold"}
SETUP_SAMPLES = 7
REFERENCE_SEED = 0
_spawned = itertools.count()


class BenchError(Exception):
    """The benchmark could not run (as opposed to an op failing its check)."""


def spawn(workload, seed, rounds, trace, setup_only=False) -> dict:
    RUNS.mkdir(exist_ok=True)
    tag = RUNS / f"{workload}-{os.getpid()}-{next(_spawned)}"
    out, err = tag.with_suffix(".out"), tag.with_suffix(".err")
    t0 = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--rounds", str(rounds), "--trace", str(int(trace)),
            "--t0", repr(t0)] + (["--setup-only"] if setup_only else [])
    res = run_child(argv, ROOT, out, err)
    try:
        if res.code != 0:
            raise BenchError(f"{workload} session exited {res.code}:\n"
                             + err.read_text()[-2000:])
        result = json.loads(out.read_text().splitlines()[-1])
    finally:
        out.unlink(missing_ok=True)
        err.unlink(missing_ok=True)
    result["peak_rss_mb"] = res.peak_rss_mb
    return result


def rounds_for(workload, seconds) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def sessions(workload, seed, rounds, trace) -> list[dict]:
    """Closed-loop sessions that run ``rounds`` rounds between them: one
    session, or one per round where a process may run only one."""
    if workload in ONE_ROUND_PER_PROCESS:
        return [spawn(workload, seed, 1, trace) for _ in range(rounds)]
    return [spawn(workload, seed, rounds, trace)]


def source_digest() -> str:
    files = sorted((SRC / "leftreal").glob("*.py")) + sorted(HERE.glob("*.py"))
    return fingerprint([[f.name, f.read_text()] for f in files])[:16]


class Verdict:
    """Collects every reason the run is not correct."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.problems: list[str] = []
        self.mismatches = 0

    def add(self, problem):
        self.problems.append(problem)

    def sessions(self, workload, ss):
        for s in ss:
            self.problems += s["problems"]
            self.mismatches += s["round_mismatches"]
            for pkg in (s["package"], s["child_package"]):
                if not Path(pkg).resolve().is_relative_to(SRC):
                    self.add(f"leftreal imported from {pkg}, not from {SRC}")
        fp = ss[0]["round_fp"]
        for s in ss[1:]:
            self.compare(workload, s["round_fp"], fp, "another session of this run")
        state = RUNS / "state" / f"{workload}-{self.seed}-{source_digest()}.json"
        if state.exists():
            self.compare(workload, fp, json.loads(state.read_text()), "an earlier run")
        elif not self.problems:  # remember only outputs that passed every check
            state.parent.mkdir(parents=True, exist_ok=True)
            state.write_text(json.dumps(fp))
        if self.seed == REFERENCE_SEED:
            ref = json.loads((HERE / "reference.json").read_text())[workload]
            self.compare(workload, fp, ref, "reference.json")

    def compare(self, workload, got, want, source):
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        if len(got) != len(want) or bad:
            self.mismatches += max(len(bad), 1)
            self.add(f"{workload}: ops {bad} differ from {source}")


def ref_s(op) -> float:
    """An op's latency in reference seconds."""
    return op[1] * op[3]


def end_to_end(workload, seed, seconds, verdict) -> tuple[dict, list]:
    def setup_only(n):
        return [spawn(workload, seed, 0, False, setup_only=True) for _ in range(n)]

    # extra set-up samples before and after the timed sessions, so that a
    # drift in machine speed during the run moves their median less
    before = setup_only(SETUP_SAMPLES // 2)
    ss = sessions(workload, seed, rounds_for(workload, seconds), False)
    verdict.sessions(workload, ss)
    setups = before + ss
    setups += setup_only(max(SETUP_SAMPLES - len(setups), 0))
    ops = [op for s in ss for op in s["ops"]]
    lat = [ref_s(op) for op in ops]
    ok = sum(op[2] == "ok" for op in ops)
    tail_s, pct, n = tail(lat)
    if workload == "cli-pipeline":
        peak = max(s["child_peak_rss_mb"] for s in ss)
    else:
        peak = max(s["peak_rss_mb"] for s in ss)
    metrics = {
        "setup_s": median([s["setup_s"] * s["setup_scale"] for s in setups]),
        "ops_per_s": ok / sum(lat),
        "op_p50_s": median(lat),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak,
        "ok_ratio": ok / len(ops),
    }
    wall = [op[1] for op in ops]
    known = sorted({op[0] for op in ops if op[2] == "known"})
    notes = [f"op_tail_s is p{pct:.1f} of {n} ops; setup_s is the median of "
             f"{len(setups)} processes; {len(ss)} session(s)",
             f"in wall seconds: setup_s {median([s['setup_s'] for s in setups]):.4f}, "
             f"ops_per_s {ok / sum(wall):.4f}, op_p50_s {median(wall):.4f}, "
             f"op_tail_s {tail(wall)[0]:.4f}; median speed scale "
             f"{median([op[3] for op in ops]):.4f}",
             f"failed_ratio {(len(ops) - ok) / len(ops):.4f}: "
             f"{sum(op[2] == 'known' for op in ops)} known-defect ops {known}, "
             f"{sum(op[2] == 'failed' for op in ops)} unexpected failures"]
    return {"metrics": metrics, "ops": ops, "sessions": ss}, notes


def merge_layers(per_session: list[dict]) -> dict:
    keys = {k for layer in per_session for k in layer}
    return {k: median([layer[k] for layer in per_session if layer.get(k) is not None])
            for k in keys}


def ref_timed(ss):
    return sum(ref_s(op) for s in ss for op in s["ops"])


def is_count_of_k(name):
    return name.startswith(("machines.k_", "machines.witness_"))


def traced(workload, seed, seconds, verdict) -> tuple[dict, list]:
    # One traced round of every other workload, so every layer is reported;
    # complexity answer counts add up over k-cold and k-warm.
    layer, ops, used = {}, [], 0.0
    for other in WORKLOADS:
        if other != workload:
            ss = sessions(other, seed, 1, True)
            verdict.sessions(other, ss)
            for k, v in merge_layers([s["layer"] for s in ss]).items():
                layer[k] = layer.get(k, 0) + v if is_count_of_k(k) else v
            ops += [op for s in ss for op in s["ops"]]
            used += ref_timed(ss)
    # The chosen workload runs the rest of the rounds in alternating
    # untraced and traced sessions, at least two each, so both sides of the
    # overhead ratio see the same drift in machine speed.
    rest = max(rounds_for(workload, seconds - used), 4)
    per = 1 if workload in ONE_ROUND_PER_PROCESS else max(1, rest // 4)
    plain, spans = [], []
    for i in range(max(rest // per, 2)):
        (spans if i % 2 else plain).append(spawn(workload, seed, per, bool(i % 2)))
    verdict.sessions(workload, plain + spans)

    def rate(ss):
        return sum(op[2] == "ok" for s in ss for op in s["ops"]) / ref_timed(ss)

    for k, v in merge_layers([s["layer"] for s in spans]).items():
        layer[k] = layer.get(k, 0) + v if is_count_of_k(k) else v
    layer["trace.overhead_ratio"] = rate(plain) / rate(spans)
    layer["jsonio.digest_mismatches"] = verdict.mismatches
    notes = [f"tracing overhead for {workload}: untraced/traced ops_per_s = "
             f"{layer['trace.overhead_ratio']:.4f}; {sum(s['spans'] for s in spans)} spans"]
    ops += [op for s in plain + spans for op in s["ops"]]
    return {"metrics": layer, "ops": ops, "sessions": plain + spans}, notes


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment(s: dict) -> dict:
    meminfo = Path("/proc/meminfo").read_text().splitlines()
    mem = next((line.split()[1] for line in meminfo if line.startswith("MemTotal:")), "0")
    return {
        "package": s["package"],
        "cli_package": s["child_package"],
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": int(mem) // 1024,
    }


def run_one(workload, seed, seconds, trace, spec) -> dict:
    verdict = Verdict(workload, seed)
    result, notes = (traced if trace else end_to_end)(workload, seed, seconds, verdict)
    ops = result["ops"]
    failed = sum(op[2] == "failed" for op in ops)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = result["metrics"].get(m["name"])
        if value is None:
            verdict.add(f"metric {m['name']} was not measured")
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for name, m in metrics.items():
        print(f"{workload:>12}  {name:<40} {m['value']:>14.6g} {m['unit']}")
    for note in notes:
        print(f"{workload:>12}  # {note}")
    print(f"{workload:>12}  # env {json.dumps(environment(result['sessions'][0]))}")
    for p in verdict.problems[:20]:
        print(f"{workload:>12}  ! {p}")
    return {
        "correct": not verdict.problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], required=True)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds of work per workload at reference speed (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "leftreal" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no leftreal source tree at {SRC} (or no BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if a.seconds is None else a.seconds
    try:
        if a.workload != "all":
            print(json.dumps(run_one(a.workload, a.seed, seconds, a.trace, spec)))
            return 0
        results = {w: run_one(w, a.seed, seconds, a.trace, spec) for w in WORKLOADS}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark session: set up a workload, run it in closed-loop rounds,
check every op, and print one JSON result on stdout.

    python3 perfbench/worker.py --workload stage-loop --seed 0 --rounds 3 \
        --trace 0 --t0 <time.monotonic() when the parent spawned us>

A round is the workload's fixed list of ops.  The ops of a round run back
to back (the sum of their latencies is the timed phase); their checks run
afterwards, outside it.  The session runs ``--rounds`` rounds (k-cold
always runs exactly one round per process, because each of its queries
must meet a budget the process has not seen).  Every round of a session
runs the same inputs, so rounds must agree exactly on their deterministic
fingerprint.

A speed probe (``common.probe_s``) runs after set-up, around every round,
and between ops once ``Speed.GAP_S`` has passed since the last one; each
op is reported with the scale that turns its wall time into reference
seconds.

With ``--trace 1`` the session records spans around each call into a
``leftreal`` layer and reports per-layer figures computed from them.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import shutil
import sys
import time
from contextlib import nullcontext

from common import REF_S, RUNS, SRC, fingerprint, median, probe_s, run_child, sha256_bytes

sys.path.insert(0, str(SRC))

import leftreal  # noqa: E402  (imported from the measured checkout)
from leftreal import (  # noqa: E402
    BitStream,
    Budget,
    IncreasingDyadicStream,
    Interpreter,
    Modulus,
    NameStream,
    complexity,
    count_bound_check,
    covers,
    kc_build_machine,
    lc_to_roc,
    partial_sum,
    profile,
    roc_to_skt,
    tail_bound_check,
    validate_family,
)
from leftreal.conversions import RateSpec  # noqa: E402
from leftreal.foundations import half_power  # noqa: E402
from leftreal.machines import RunStatus  # noqa: E402

import oracle  # noqa: E402

INF = float("inf")


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent index, op id]``."""

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None

    def span(self, name: str):
        return _Span(self, name) if self.on else _OFF

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out.setdefault(name, []).append(end - start - child[i])
        return out


_OFF = nullcontext()


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        self.rec = [name, 0.0, 0.0, parent, tracer.op]

    def __enter__(self):
        t = self.tracer
        t.stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[1] = time.perf_counter()

    def __exit__(self, *exc):
        self.rec[2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Speed:
    """Speed probes taken between ops, and the scale they give each op."""

    # Between ops, probe only once this much time has passed: a compute
    # probe takes a few milliseconds, so it runs after every op; a spawn
    # probe takes as long as a short CLI command.
    GAP_S = {"compute": 0.0, "spawn": 0.2}

    def __init__(self, kind: str):
        self.kind = kind
        self.at: list[float] = []  # perf_counter() when each probe ended
        self.k: list[float] = []

    def probe(self) -> float:
        self.k.append(probe_s(self.kind))
        self.at.append(time.perf_counter())
        return REF_S[self.kind] / self.k[-1]

    def maybe_probe(self):
        if time.perf_counter() - self.at[-1] >= self.GAP_S[self.kind]:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """``REF_S`` over the mean of the last probe before ``start`` and
        the first one after ``end``."""
        i = bisect.bisect_right(self.at, start) - 1
        j = bisect.bisect_left(self.at, end)
        return REF_S[self.kind] / ((self.k[i] + self.k[j]) / 2)


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def rand_bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def k_check(machine, aux, signature, target, budget, v) -> list[str]:
    """Problems with one complexity answer: the witness must re-run to the
    target within the budget, and (value, status, witness) must equal the
    closed-form reference."""
    problems = []
    value = None if v.value == INF else v.value
    if v.witness is not None:
        run = machine.run(v.witness, budget.t)
        if run.status is not RunStatus.HALTED or run.output != target:
            problems.append(f"witness {v.witness} does not output {target!r}")
        if len(v.witness) != value or value > budget.L:
            problems.append(f"witness length {len(v.witness)} != value {value}")
    want = oracle.expected(aux, signature, target, budget.L, budget.t)
    if (value, v.status.value, v.witness) != want:
        problems.append(f"K({target!r}, L={budget.L}, t={budget.t}) = "
                        f"{(value, v.status.value, v.witness)}, expected {want}")
    return problems


def k_record(v) -> list:
    return [None if v.value == INF else v.value, v.status.value, v.witness]


def k_counts(answers) -> dict[str, int]:
    """Counts of ``[value, status, witness]`` answers by status and by
    witness opcode (``0`` literal, ``10`` repeat, ``11`` table call)."""
    c = dict.fromkeys(["machines.k_exact", "machines.k_upper_bound", "machines.k_unknown",
                       "machines.witness_literal", "machines.witness_repeat",
                       "machines.witness_call"], 0)
    for _, status, w in answers:
        c["machines.k_" + status.replace("-", "_")] += 1
        if w is not None:
            kind = "literal" if w[0] == "0" else ("repeat" if w[1] == "0" else "call")
            c["machines.witness_" + kind] += 1
    return c


def med(xs):
    return median(xs) if xs else None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Op:
    def __init__(self, name, run, *args):
        self.name = name
        self.run = run
        self.args = args


class Workload:
    """A workload sets up in ``__init__`` and lists one round in ``ops``;
    ``check(op, result)`` returns ``(problems, deterministic record)`` and
    ``layer(self_times, records)`` the per-layer figures of a traced session."""

    probe = "compute"  # the speed probe whose slowdowns track this workload's
    ops: list[Op]

    def end_round(self):
        """Prepare the next round."""

    def package(self) -> str:
        """Where the code under test imports leftreal from."""
        return leftreal.__file__

    def close(self):
        """Release what set-up created."""


class StageLoop(Workload):
    """Certified name -> strong-Kurtz family jobs (``roc_to_skt``)."""

    # (a, stages): five small jobs, five of a typical size, two large and
    # three of the largest size, ap:2,1 and ap:3,1 alternating among the
    # others.  The seed moves each stage count by at most 2% and shuffles the
    # order, so every seed's round does about the same work.  A run's median
    # op falls in the middle of the typical jobs' repeats and its tail op
    # (ten ops above it) in the middle of the largest jobs' repeats, never on
    # the edge between two jobs of different sizes.
    JOBS = ([(2, 90), (3, 120), (2, 150), (3, 185), (2, 220)] + [(2, 270)] * 5
            + [(3, 330), (2, 380)] + [(3, 440)] * 3)
    NMAX = 3

    def __init__(self, seed, tracer):
        self.tr = tracer
        rng = random.Random(f"stage-loop/{seed}")
        jobs = [(a, round(n * rng.uniform(0.98, 1.02))) for a, n in self.JOBS]
        rng.shuffle(jobs)
        self.ops = [Op(f"roc_to_skt ap:{a},1 x{s}", self.job, a, s) for a, s in jobs]
        self.longest = None  # kept for the Dyadic layer case

    def job(self, a, stages):
        with self.tr.span("conversions.roc_to_skt"):
            return roc_to_skt(NameStream.affine(a, 1), RateSpec(Modulus.shift(2)), stages)

    def check(self, op, res):
        a, stages = op.args
        rate = RateSpec(Modulus.shift(2))
        limit = BitStream.periodic("1" + "0" * (a - 1))
        levels = range(self.NMAX + 1)
        with self.tr.span("randomness.validate_family"):
            valid = validate_family(res.family, self.NMAX).consistent
        with self.tr.span("randomness.covers"):
            covered = all(covers(res.family, limit, n).covered for n in levels)
        with self.tr.span("conversions.count_bound_check"):
            bounded = all(count_bound_check(res.trace, rate, n).holds for n in levels)
        ivs = res.trace.intervals
        problems = [msg for ok, msg in [
            (valid, "family refuted"), (covered, "limit not covered"),
            (bounded, "count bound violated"), (len(ivs) == stages, "wrong stage count"),
        ] if not ok]
        if self.longest is None or res.trace.stages > self.longest.stages:
            self.longest = res.trace
        record = {
            "job": [a, stages],
            "m_sum": sum(iv.m + 1 for iv in ivs),
            "max_bits": max(iv.lo.exp for iv in ivs),
            "trace": fingerprint([[format(iv.lo.num, "x"), iv.lo.exp, iv.length_exp, iv.m]
                                  for iv in ivs]),
            "levels": [len(res.family.level_list(n)) for n in levels],
        }
        return problems, record

    def layer(self, st, records):
        stages = sum(r["job"][1] for r in records)
        per_round = len(self.ops)
        # layer case: one Dyadic subtract and compare at the largest operands reached
        trace = self.longest
        x, y = trace.intervals[-1].lo, trace.intervals[len(trace.intervals) // 2].lo
        h = half_power(trace.intervals[-1].length_exp)
        n = 20000
        t0 = time.perf_counter()
        for _ in range(n):
            (x - y) > h
        sub_cmp_ns = (time.perf_counter() - t0) / n * 1e9
        return {
            "conversions.roc_to_skt_s": med(st["conversions.roc_to_skt"]),
            "conversions.stages_per_s": stages / sum(st["conversions.roc_to_skt"]),
            "conversions.trace_m_sum": sum(r["m_sum"] for r in records[:per_round]),
            "foundations.max_operand_bits": max(r["max_bits"] for r in records),
            "foundations.dyadic_sub_cmp_ns": sub_cmp_ns,
            "randomness.validate_family_s": med(st["randomness.validate_family"]),
            "randomness.covers_s": med(st["randomness.covers"]),
            "conversions.count_bound_check_s": med(st["conversions.count_bound_check"]),
        }


def aux_requests(rng, n_short, n_long):
    """Kraft-Chaitin requests: a few short codewords for long payloads (so a
    table call is their cheapest program) and many long ones."""
    reqs = [(rng.randint(6, 9), rand_bits(rng, rng.randint(16, 22))) for _ in range(n_short)]
    reqs += [(rng.randint(14, 22), rand_bits(rng, rng.randint(4, 20))) for _ in range(n_long)]
    return reqs


class KCold(Workload):
    """Complexity queries, each at a budget this process has not seen."""

    LENGTHS = (22, 23, 24, 25, 26)

    def __init__(self, seed, tracer):
        self.tr = tracer
        rng = random.Random(f"k-cold/{seed}")
        with tracer.span("kraft_chaitin.kc_build_machine"):
            t0 = time.perf_counter()
            tables = [kc_build_machine(aux_requests(rng, 8, 1500)) for _ in range(2)]
            self.kc_build_s = time.perf_counter() - t0
        self.machines = [Interpreter(), Interpreter(aux=tuple(tables[:1])), Interpreter(aux=tuple(tables))]
        self.aux = [[t.entries for t in m.aux] for m in self.machines]
        self.sigs = [oracle.aux_signature(a) for a in self.aux]
        kinds = ["literal", "literal", "literal", "repeat", "repeat", "repeat",
                 "call", "call", "nothing", "nothing"]
        rng.shuffle(kinds)
        # Two fresh budgets per length: a large t and a small one that cuts
        # some program lengths, except that both at the top length are large,
        # so the slowest queries cost the same and the tail falls among them.
        budgets = []
        for L in self.LENGTHS:
            budgets.append(Budget(L, rng.randrange(3000, 6000)))
            if L == self.LENGTHS[-1]:
                budgets.append(Budget(L, rng.randrange(6000, 10000)))
            else:
                budgets.append(Budget(L, rng.randrange(40, 90)))
        rng.shuffle(budgets)
        self.ops = []
        for kind, b in zip(kinds, budgets):
            mi = rng.randrange(1, 3) if kind == "call" else rng.randrange(3)
            if kind == "literal":
                target = rand_bits(rng, rng.randint(6, 12))
            elif kind == "repeat":
                target = (rand_bits(rng, rng.randint(1, 3)) * 60)[: rng.randint(20, 60)]
            elif kind == "call":
                short = [v for k, v in self.aux[mi][-1] if len(k) <= 9]
                target = rng.choice(short)
            else:
                target = rand_bits(rng, 40)
            self.ops.append(Op(f"K {kind} m{mi} L={b.L} t={b.t}", self.query, mi, target, b))
        self.rss_setup_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def query(self, mi, target, budget):
        with self.tr.span("machines.complexity"):
            return complexity(self.machines[mi], target, budget)

    def check(self, op, v):
        mi, target, b = op.args
        with self.tr.span("machines.run"):
            problems = k_check(self.machines[mi], self.aux[mi], self.sigs[mi], target, b, v)
        return problems, [mi, target, b.L, b.t] + k_record(v)

    def layer(self, st, records):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "machines.complexity_cold_s": med(st["machines.complexity"]),
            "machines.rss_per_budget_mb": (peak - self.rss_setup_mb) / len(self.ops),
            "kraft_chaitin.kc_build_machine_s": self.kc_build_s,
            **k_counts(r[4:] for r in records),
        }


class KWarm(Workload):
    """Cheap reads of enumerations cached in set-up: stage searches,
    profiles and batches of direct complexity queries."""

    BATCHES = 12  # the majority of ops, so the median op is a batch
    BATCH = 2000

    def __init__(self, seed, tracer):
        self.tr = tracer
        rng = random.Random(f"k-warm/{seed}")
        self.m = Interpreter()
        self.b22 = Budget(22, 10**4)
        self.b24 = Budget(24, 10**4)
        self.b24cut = Budget(24, rng.randrange(40, 60))
        self.warmup = []
        for b in (self.b22, self.b24, self.b24cut):
            with tracer.span("machines.warmup"):
                t0 = time.perf_counter()
                complexity(self.m, "", b)  # enumerates the domain and builds its index
                self.warmup.append(time.perf_counter() - t0)
        self.sig = oracle.aux_signature([])
        # search cost grows with stages squared: the seed moves sizes by at
        # most 2% so that every seed's round does about the same work
        def jitter(n):
            return round(n * rng.uniform(0.98, 1.02))

        searches = [
            ("complete", "prefix-sums:01:2", 4, jitter(150)),
            ("part-way", "prefix-sums:01:2", 6, jitter(900)),
            ("early", "prefix-sums:0110:2", 6, jitter(900)),
            ("early", "prefix-sums:011:3", 6, jitter(900)),
        ]
        self.ops = [Op(f"lc_to_roc {k} {s} x{st}", self.search, s, n, st)
                    for k, s, n, st in searches]
        for pattern in rng.sample(["01", "001", "0110", "1", "011", "00101"], 2):
            self.ops.append(Op(f"profile {pattern}", self.profile, pattern, jitter(512)))
        for i in range(self.BATCHES):
            targets = []
            for _ in range(self.BATCH):
                r = rng.random()
                if r < 0.6:
                    targets.append(rand_bits(rng, rng.randint(0, 14)))
                elif r < 0.9:
                    targets.append((rand_bits(rng, rng.randint(1, 4)) * 40)[: rng.randint(10, 120)])
                else:
                    targets.append(rand_bits(rng, rng.randint(20, 30)))
            b = self.b24 if i % 2 == 0 else self.b24cut
            self.ops.append(Op(f"K batch {i}", self.batch, tuple(targets), b))
        self.verified: set[str] = set()

    @staticmethod
    def stream(spec):
        pattern, step = spec.split(":")[1:]
        return IncreasingDyadicStream.from_prefix_sums(BitStream.periodic(pattern), int(step))

    def search(self, spec, n_max, stages):
        with self.tr.span("conversions.lc_to_roc"):
            return lc_to_roc(self.stream(spec), Modulus.power2(4), self.m, self.b22, stages, n_max)

    def profile(self, pattern, n):
        with self.tr.span("spectra.profile"):
            return profile(self.m, BitStream.periodic(pattern), n, self.b24)

    def batch(self, targets, b):
        with self.tr.span("machines.complexity_batch"):
            return [complexity(self.m, t, b) for t in targets]

    def check_k(self, op, pairs, b):
        # Rounds repeat the same inputs and must match the first round's
        # fingerprint exactly, so the oracle runs on each op's first answers.
        full = op.name not in self.verified
        self.verified.add(op.name)
        problems = []
        answers = []
        for target, v in pairs:
            if full:
                problems += k_check(self.m, [], self.sig, target, b, v)
            answers.append(k_record(v))
        return problems, {"answers": fingerprint(answers), "counts": k_counts(answers)}

    def check(self, op, res):
        if op.run == self.batch:
            targets, b = op.args
            return self.check_k(op, zip(targets, res), b)
        if op.run == self.profile:
            pattern, n = op.args
            x = BitStream.periodic(pattern)
            return self.check_k(op, [(x.prefix(k), v) for k, v in res.entries], self.b24)
        spec, n_max, stages = op.args
        xs = self.stream(spec)
        name, s = res.name, res.s_values
        problems = []
        if s[0] != 0 or any(a >= b for a, b in zip(s, s[1:])) or s[-1] > stages:
            problems.append(f"bad s-values {s}")
        with self.tr.span("names.partial_sum"):
            for t, boundary in enumerate(name.block_boundaries):
                if partial_sum(name, boundary - 1) != xs.at(s[t]):
                    problems.append(f"block {t} partial sum != xs(s_{t})")
        with self.tr.span("conversions.tail_bound_check"):
            for k in range(len(s)):
                if not tail_bound_check(name, Modulus.power2(4), k).holds:
                    problems.append(f"tail bound fails at level {k}")
        if (res.exhausted_at is None) != (len(s) == n_max + 1):
            problems.append("exhausted_at disagrees with the s-values found")
        return problems, {"s": s, "exhausted_at": res.exhausted_at}

    def layer(self, st, records):
        ops = self.ops
        lc = [r for op, r in zip(ops, records) if op.run == self.search]
        counts: dict[str, int] = {}
        for r in records[: len(ops)]:
            for k, n in r.get("counts", {}).items():
                counts[k] = counts.get(k, 0) + n
        # layer cases: the prefix arithmetic the searches and profiles do, on fresh streams
        t0 = time.perf_counter()
        for op, r in zip(ops, records):
            if op.run != self.search:
                continue
            xs, rate = self.stream(op.args[0]), Modulus.power2(4)
            top = r["s"][-1] if r["exhausted_at"] is None else op.args[2]
            for m in range(1, top + 1):
                level = sum(1 for v in r["s"][1:] if v < m)
                x = xs.at(m)
                for k in range(level + 1):
                    x.prefix_bits(rate.at(k))
        prefix_value_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for op in ops:
            if op.run == self.profile:
                x = BitStream.periodic(op.args[0])
                for n in range(op.args[1] + 1):
                    x.prefix(n)
        bitstream_prefix_s = time.perf_counter() - t0
        return {
            "machines.warmup_s": sum(self.warmup) / len(self.warmup),
            "machines.complexity_warm_us": 1e6 * med(st["machines.complexity_batch"]) / self.BATCH,
            "conversions.lc_to_roc_s": med(st["conversions.lc_to_roc"]),
            "conversions.lc_s_values": sum(sum(r["s"]) + (r["exhausted_at"] or 0) for r in lc),
            "spectra.profile_s": med(st["spectra.profile"]),
            "names.prefix_value_s": prefix_value_s,
            "foundations.bitstream_prefix_s": bitstream_prefix_s,
            **counts,
        }


# A known defect: a command exits 1 with this message (see README.md).
KNOWN_DEFECTS = {
    # kc build nests the machine, so readers of machine.json reject it
    "machine document needs a 'kind' field": (
        "machine_validate", "skt_from_rate", "omega", "omega_s"),
    # ... and the family it should have produced is missing for the next steps
    "No such file or directory: 'family.json'": ("skt_validate", "skt_covers"),
    # dyadic_to_json calls str() on a numerator past the int-to-str digit limit
    "Exceeds the limit (4300 digits)": ("convert_roc_to_skt_ap40",),
}
REFUTES = {"immunity_hyperimmune"}  # exit 2 is the expected verdict


class CliPipeline(Workload):
    """The README command block, one ``python -m leftreal.cli`` child at a time.

    With about five rounds in a run, the tail latency is the second or
    third slowest command of a round, so the sizes keep the commands after
    the slowest one (roc-to-skt, lc-to-roc, profile) close to each other.
    """

    probe = "spawn"

    def __init__(self, seed, tracer):
        self.tr = tracer
        rng = random.Random(f"cli-pipeline/{seed}")
        self.inputs = {"requests.json": json.dumps(
            [[rng.randint(14, 24), rand_bits(rng, rng.randint(4, 20))] for _ in range(3000)])}
        pattern = rng.choice(["01", "001", "0110"])
        # (id, argv after ``leftreal``, artifact file or None for stdout)
        self.cmds = [
            ("kc_alloc", ["kc", "alloc", "requests.json"], None),
            ("kc_build", ["kc", "build", "requests.json", "--out", "machine.json"], "machine.json"),
            ("machine_validate", ["machine", "validate", "machine.json"], None),
            ("machine_k", ["machine", "k", "ref", "--target", rand_bits(rng, rng.randint(6, 12)),
                           "--budget-l", "20"], None),
            ("skt_from_rate", ["skt", "from-rate", "machine.json", "--rate", "shift:2",
                               "--nmax", "3", "--out", "family.json"], "family.json"),
            ("skt_validate", ["skt", "validate", "family.json", "--nmax", "3"], None),
            ("skt_covers", ["skt", "covers", "family.json", "--stream", "periodic:01",
                            "--nmax", "3"], None),
            ("convert_roc_to_skt", ["convert", "roc-to-skt", "--name", "ap:2,1", "--rate",
                                    "shift:2", "--stages", str(round(300 * rng.uniform(0.98, 1.02))),
                                    "--nmax", "3"], None),
            ("convert_roc_to_skt_ap40", ["convert", "roc-to-skt", "--name", "ap:40,1", "--rate",
                                         "shift:2", "--stages", "400", "--nmax", "3"], None),
            ("convert_lc_to_roc", ["convert", "lc-to-roc", "--stream", "prefix-sums:01:2",
                                   "--rate", "pow2:4", "--stages", str(rng.randrange(150, 250)),
                                   "--nmax", "4", "--budget-l", "24"], None),
            ("profile", ["profile", "--stream", f"periodic:{pattern}", "--nmax", "64",
                         "--budget-l", "24", "--out", "prof.csv"], "prof.csv"),
            ("dim", ["dim", "prof.csv", "--n0", "32", "--n1", "64"], None),
            ("omega", ["omega", "machine.json"], None),
            ("omega_s", ["omega-s", "machine.json", "--s", "2/3", "--precision", "40"], None),
            ("immunity_hyperimmune", ["immunity", "hyperimmune", "--set", "evens:1000",
                                      "--rate", "affine:2,0", "--horizon", "400"], None),
            ("immunity_cohesive", ["immunity", "cohesive", "--set", "elements:0,2,4:100",
                                   "--witness", "evens:100", "--horizon", "100"], None),
            ("construct_interleave", ["construct", "interleave", "--source",
                                      f"periodic:{pattern}", "--prefix", "64"], None),
            ("construct_join", ["construct", "join", "--a", "elements:0,1:4",
                                "--b", "elements:2:4"], None),
            ("construct_regular", ["construct", "regular", "--component", "elements:0:4",
                                   "--component", "elements:0:4"], None),
        ]
        self.env = dict(os.environ)
        self.env.pop("PYTHONHASHSEED", None)  # artifacts must not depend on it
        self.env["PYTHONPATH"] = str(SRC) + os.pathsep + self.env.get("PYTHONPATH", "")
        self.dir = RUNS / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.round = 0
        self.ops = [Op(f"cli {cid}", self.command, cid, argv, art) for cid, argv, art in self.cmds]
        self.start_round()

    def start_round(self):
        self.round_dir = self.dir / f"r{self.round}"
        self.round_dir.mkdir()
        for name, text in self.inputs.items():
            (self.round_dir / name).write_text(text)

    def command(self, cid, argv, artifact):
        d = self.round_dir
        with self.tr.span("cli." + cid):
            return run_child([sys.executable, "-m", "leftreal.cli", *argv], d,
                             d / f"{cid}.stdout", d / f"{cid}.stderr", self.env)

    def check(self, op, res):
        cid, _, artifact = op.args
        d = self.round_dir
        err = (d / f"{cid}.stderr").read_text()
        path = d / artifact if artifact else d / f"{cid}.stdout"
        data = path.read_bytes() if path.exists() else b""
        record = {"id": cid, "code": res.code, "sha256": sha256_bytes(data), "bytes": len(data),
                  "wall_s": res.wall_s, "rss_mb": res.peak_rss_mb}
        known = [sig for sig, ids in KNOWN_DEFECTS.items() if cid in ids]
        if known and res.code == 1 and known[0] in err:
            record["outcome"] = "known"
            return [], record
        expect = {0, 2} if known else {2 if cid in REFUTES else 0}
        problems = []
        if res.code not in expect:
            problems.append(f"{cid} exited {res.code}: {err.strip()[-200:]}")
        if not data:
            problems.append(f"{cid} wrote no artifact")
        if "Traceback" in err:
            problems.append(f"{cid} printed a traceback")
        return problems, record

    def end_round(self):
        shutil.rmtree(self.round_dir)
        self.round += 1
        self.start_round()

    def package(self) -> str:
        """Where the CLI children import leftreal from."""
        probe = self.dir / "probe.txt"
        run_child([sys.executable, "-c", "import leftreal; print(leftreal.__file__)"],
                  self.dir, probe, self.dir / "probe.err", self.env)
        return probe.read_text().strip()

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def layer(self, st, records):
        by_id: dict[str, list] = {}
        for r in records:
            by_id.setdefault(r["id"], []).append(r)
        per_cmd = {cid: median([r["wall_s"] for r in rs]) for cid, rs in by_id.items()}
        first = records[: len(self.ops)]
        return {
            "cli.startup_s": min(per_cmd.values()),
            **{f"cli.{cid}_s": s for cid, s in per_cmd.items()},
            "cli.child_peak_rss_mb": max(r["rss_mb"] for r in records),
            "jsonio.artifact_bytes": sum(r["bytes"] for r in first),
            "cli.failed_commands": sum(1 for r in first if r.get("outcome") != "ok"),
        }


WORKLOADS = {
    "stage-loop": StageLoop,
    "k-cold": KCold,
    "k-warm": KWarm,
    "cli-pipeline": CliPipeline,
}


# ---------------------------------------------------------------------------
# session loop
# ---------------------------------------------------------------------------


def deterministic(record):
    """The part of an op record that must repeat exactly."""
    if isinstance(record, dict):
        return {k: v for k, v in record.items() if k not in ("wall_s", "rss_mb")}
    return record


def session(workload: str, seed: int, rounds: int, trace: bool, t0: float) -> dict:
    tracer = Tracer(trace)
    wl = WORKLOADS[workload](seed, tracer)
    setup_s = time.monotonic() - t0
    speed = Speed(wl.probe)
    setup_scale = speed.probe()
    ops_log, records, problems_log = [], [], []
    round_fp = None
    round_mismatches = 0
    try:
        for rnd in range(rounds):
            if rnd:
                wl.end_round()
                speed.probe()
            results = []
            for i, op in enumerate(wl.ops):
                if i:
                    speed.maybe_probe()
                tracer.op = f"{rnd}.{i}"
                t = time.perf_counter()
                try:
                    res, err = op.run(*op.args), None
                except Exception as e:  # an unexpected exception fails the op
                    res, err = None, f"{op.name}: {type(e).__name__}: {e}"
                results.append((t, time.perf_counter(), res, err))
            speed.probe()
            fps = []
            for i, (op, (start, end, res, err)) in enumerate(zip(wl.ops, results)):
                tracer.op = f"{rnd}.{i}"
                if err is None:
                    try:
                        problems, record = wl.check(op, res)
                    except Exception as e:
                        problems, record = [f"{op.name}: check raised {type(e).__name__}: {e}"], None
                else:
                    problems, record = [err], None
                if isinstance(record, dict) and "outcome" in record:
                    outcome = record["outcome"]
                else:
                    outcome = "failed" if problems else "ok"
                    if isinstance(record, dict):
                        record["outcome"] = outcome
                if round_fp is not None and deterministic(record) != round_fp[i]:
                    problems.append(f"{op.name}: output differs from round 0")
                    outcome = "failed"
                    round_mismatches += 1
                ops_log.append([op.name, end - start, outcome, speed.scale(start, end)])
                records.append(record)
                fps.append(deterministic(record))
                problems_log += problems
            round_fp = round_fp or fps
        checked = [r for r in records if r is not None]
        layer = wl.layer(tracer.self_times(), checked) if trace and checked else {}
        child_package = wl.package()
    finally:
        wl.close()
    return {
        "workload": workload,
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "ops": ops_log,
        "round_fp": round_fp,
        "round_mismatches": round_mismatches,
        "problems": problems_log[:20],
        "layer": layer,
        "spans": len(tracer.spans),
        "package": leftreal.__file__,
        "child_package": child_package,
        "child_peak_rss_mb": max((r["rss_mb"] for r in records if isinstance(r, dict)
                                  and "rss_mb" in r), default=None),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    a = ap.parse_args()
    if a.setup_only:
        wl = WORKLOADS[a.workload](a.seed, Tracer(False))
        out = {"setup_s": time.monotonic() - a.t0, "setup_scale": Speed(wl.probe).probe()}
        wl.close()
    else:
        out = session(a.workload, a.seed, a.rounds, bool(a.trace), a.t0)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

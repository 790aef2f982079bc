"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as
they happen.  All arithmetic in the assertions is exact.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from leftreal.conversions import (
    RateSpec,
    carry_counter,
    count_bound_check,
    lc_to_roc,
    roc_to_skt,
    tail_bound_check,
)
from leftreal.errors import WeightExceeded
from leftreal.foundations import (
    BitStream,
    Dyadic,
    NatSetView,
    charseq,
    evens,
    join,
    lenlex,
    lenlex_inv,
    pair,
    unpair,
)
from leftreal.immunity import Result, check_cohesive, check_hyperimmune
from leftreal.kraft_chaitin import KCAllocator, kc_allocate, kc_build_machine
from leftreal.machines import (
    Budget,
    Interpreter,
    complexity,
    omega_lower,
    omega_s_bounds,
    validate_table,
)
from leftreal.names import IncreasingDyadicStream, Modulus, partial_sum
from leftreal.randomness import (
    TestFamily,
    TestKind,
    covers,
    level_weight,
    rate_from_skt,
    skt_from_rate,
    validate_family,
)
from leftreal.spectra import square_interleave, sum_machine

THREE_ENTRY = validate_table([("0", "00"), ("10", "01"), ("11", "111")])


def frac(d: Dyadic) -> Fraction:
    return Fraction(d.num, 2**d.exp)


@contextmanager
def criterion(name: str, limit_seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if limit_seconds is not None and elapsed > limit_seconds:
        print(f"ACCEPTANCE {name}: FAIL (runtime {elapsed:.1f}s > {limit_seconds}s)")
        raise AssertionError(f"{name} exceeded runtime limit")
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")


def prefix_free(words) -> bool:
    for a, b in itertools.combinations(words, 2):
        if a.startswith(b) or b.startswith(a):
            return False
    return True


# ---------------------------------------------------------------------------


def test_kc_allocator_fuzz():
    with criterion("kc-allocator-fuzz", limit_seconds=5):
        rng = random.Random(20250810)
        for _ in range(1000):
            weight = Fraction(0)
            lengths = []
            overflow_len = None
            while True:
                l = rng.randint(0, 12)
                if weight + Fraction(1, 2**l) > 1:
                    overflow_len = l
                    break
                weight += Fraction(1, 2**l)
                lengths.append(l)
                if rng.random() < 0.05:
                    break
            alloc = KCAllocator()
            words = [alloc.request(l) for l in lengths]
            assert [len(w) for w in words] == lengths
            assert prefix_free(words)
            if overflow_len is not None:
                # rejected at exactly the first violating request
                try:
                    alloc.request(overflow_len)
                    raise AssertionError("overweight request accepted")
                except WeightExceeded:
                    pass


def test_skt_from_rate_levels():
    with criterion("skt-from-rate", limit_seconds=10):
        fam = skt_from_rate(THREE_ENTRY, Modulus.shift(2), 1, Budget(12, 10**3))
        assert fam.level_list(0) == ["00", "01"]
        assert fam.level_list(1) == ["111"]

        rng = random.Random(42)
        for _ in range(50):
            weight = Fraction(0)
            lengths = []
            while len(lengths) < rng.randint(1, 32):
                l = rng.randint(2, 12)
                if weight + Fraction(1, 2**l) >= 1:
                    break
                weight += Fraction(1, 2**l)
                lengths.append(l)
            entries = [
                (c, "".join(rng.choice("01") for _ in range(rng.randint(0, 12))))
                for c in kc_allocate(lengths)
            ]
            machine = validate_table(entries)
            start = rng.randint(2, 5)
            steps = [start] + [rng.randint(1, 3) for _ in range(8)]
            r = Modulus.from_values(list(itertools.accumulate(steps)))
            fam = skt_from_rate(machine, r, 6, Budget(16, 10**4))
            for n in range(7):
                level = fam.level_list(n)
                assert len({len(s) for s in level}) <= 1
                assert len(level) < 1 << (r.at(n) - n)
                assert frac(level_weight(fam, n)) < Fraction(1, 2**n)


def test_rate_from_skt_synthesis():
    with criterion("rate-from-skt"):
        rng = random.Random(7)
        budget = Budget(40, 10**5)
        for _ in range(20):
            bits = "".join(rng.choice("01") for _ in range(64))
            x = BitStream.from_bits(bits)
            levels = []
            for k in range(14):
                length = k + 1 + rng.randint(0, 3)
                level = {x.prefix(length)}
                max_extra = (1 << (length - k)) - 1 - 1
                for _ in range(rng.randint(0, min(3, max(0, max_extra)))):
                    decoy = "".join(rng.choice("01") for _ in range(length))
                    level.add(decoy)
                levels.append(sorted(level))
            fam = TestFamily.explicit(levels, TestKind.STRONG_KURTZ)
            assert validate_family(fam, 13).consistent
            result = rate_from_skt(fam, overhead=0, n_max=5)
            for n in range(6):
                r_n = result.rate.at(n)
                v = complexity(result.machine, x.prefix(r_n), budget)
                assert v.at_most(r_n - n)


def test_main_theorem_forward():
    with criterion("roc-to-skt-two-thirds", limit_seconds=5):
        from leftreal.names import NameStream

        f = NameStream.affine(2, 1)  # sums to 2/3
        rate = RateSpec(Modulus.shift(2))
        res = roc_to_skt(f, rate, 2000)
        fam = res.family
        assert fam.kind is TestKind.STRONG_KURTZ
        assert validate_family(fam, 3).consistent
        x = BitStream.periodic("10")
        for n in range(4):
            assert frac(level_weight(fam, n)) <= Fraction(1, 2**n)
            assert covers(fam, x, n).covered
            chk = count_bound_check(res.trace, rate, n)
            assert chk.holds and chk.bound == 1 << (rate.r.at(n + 2) + 1)


def test_main_theorem_backward():
    with criterion("lc-to-roc-third"):
        xs = IncreasingDyadicStream.from_prefix_sums(
            BitStream.periodic("01"), bits_per_step=2, label="third"
        )
        r = Modulus.power2(4)
        res = lc_to_roc(xs, r, Interpreter(), Budget(22, 10**4), 200, 4)
        assert res.complete
        assert res.s_values[:4] == [0, 8, 16, 32]
        f = res.name
        for t, s_t in enumerate(res.s_values):
            assert partial_sum(f, f.block_boundaries[t] - 1) == xs.at(s_t)
        for a, b in zip(f.block_boundaries, f.block_boundaries[1:]):
            block = f.values(b)[a:b]
            assert block == sorted(block) and len(set(block)) == len(block)
        for n in range(4):
            chk = tail_bound_check(f, r, n)
            assert chk.holds and frac(chk.bound) == Fraction(n + 1, 2**n)
            trace = carry_counter(f, r.at(n))
            assert trace.max_step <= 1


def test_sum_machine_inequality():
    with criterion("sum-machine"):
        x = BitStream.periodic("01")
        base = kc_build_machine([(n, x.prefix(n)) for n in range(1, 13)])
        assert len(base.entries) <= 64
        xs = IncreasingDyadicStream.from_prefix_sums(
            BitStream.periodic("01"), bits_per_step=2
        )
        res = sum_machine(base, xs, xs, wait_stages=30)
        assert res.complete
        progs = [k for k, _ in res.machine.entries]
        assert prefix_free(progs)
        z = BitStream.periodic("10")
        b = Budget(20, 10**3)
        for n in range(1, 13):
            k_u = complexity(base, x.prefix(n), b)
            assert k_u.value == n  # the requested codeword length
            k_m = complexity(res.machine, z.prefix(n), b)
            assert k_m.at_most(int(k_u.value) + 3)


def test_join_and_interleave_properties():
    with criterion("join-interleave"):
        rng = random.Random(99)
        for _ in range(10**4):
            horizon = rng.randint(1, 32)
            elems = rng.sample(range(horizon), rng.randint(1, horizon))
            a = NatSetView.from_elements(elems, horizon=horizon)
            bits = charseq(join(a, a)).prefix(2 * horizon)
            assert "010" not in bits and "101" not in bits
        out = square_interleave(BitStream.periodic("1"))
        bits = out.prefix(10**4)
        for p in range(1, 10**4 + 1):
            if math.isqrt(p) ** 2 == p:
                assert bits[p - 1] == "0"


def test_foundations_round_trips_and_omegas():
    with criterion("foundations"):
        for n in range(10**4):
            i, j = unpair(n)
            assert pair(i, j) == n
            assert lenlex_inv(lenlex(n)) == n
        rng = random.Random(1234)
        for _ in range(50):
            weight = Fraction(0)
            lengths = []
            while len(lengths) < rng.randint(1, 24):
                l = rng.randint(1, 12)
                if weight + Fraction(1, 2**l) > 1:
                    break
                weight += Fraction(1, 2**l)
                lengths.append(l)
            entries = [
                (c, "".join(rng.choice("01") for _ in range(rng.randint(0, 6))))
                for c in kc_allocate(lengths)
            ]
            machine = validate_table(entries)
            l_small = rng.randint(1, 6)
            w_small = omega_lower(machine, Budget(l_small, 10**3))
            w_big = omega_lower(machine, Budget(12, 10**4))
            assert w_small <= w_big and frac(w_big) <= 1
        iv = omega_s_bounds(THREE_ENTRY, Fraction(1, 2), Budget(10, 10**3), 30)
        assert frac(iv.lo) == Fraction(3, 8) == frac(iv.hi)


def test_immunity_falsifiers():
    with criterion("immunity"):
        v = check_hyperimmune(evens(1000), Modulus.affine(2, 0), horizon=400)
        assert v.refuted

        rng = random.Random(5150)
        for _ in range(100):
            n = rng.randint(16, 64)
            elems = rng.sample(range(n), rng.randint((n + 1) // 2, n))
            a = NatSetView.from_elements(elems, horizon=n)
            verdict = check_cohesive(join(a, a), evens(2 * n), horizon=2 * n)
            assert verdict.refuted

        # contract: the verdict vocabulary has no affirmative member
        assert {r.value for r in Result} == {
            "refuted-at-horizon",
            "consistent-at-horizon",
        }

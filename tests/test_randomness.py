"""Test families: weights, validation, coverage, and both directions of
the test/complexity-rate correspondence."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from leftreal.errors import (
    DegenerateMachine,
    HorizonExceeded,
    LevelEmpty,
    PrefixViolation,
    PreconditionRefuted,
    RateError,
    WeightExceeded,
)
from leftreal.foundations import ZERO, BitStream, Dyadic, strings_of_length
from leftreal.kraft_chaitin import KCAllocator, kc_allocate, kc_build_machine
from leftreal.machines import (
    CALL,
    Budget,
    Interpreter,
    complexity,
    enumerate_domain,
    header,
    outputs_of_length,
    validate_table,
)
from leftreal.names import Modulus
from leftreal.randomness import (
    FamilyStatus,
    KurtzStatus,
    TestFamily,
    TestKind,
    covers,
    kurtz_witness_check,
    level_weight,
    rate_from_skt,
    skt_from_rate,
    validate_family,
)

THREE_ENTRY = validate_table([("0", "00"), ("10", "01"), ("11", "111")])


def frac(d: Dyadic) -> Fraction:
    return Fraction(d.num, 2**d.exp)


def random_machine_and_rate(rng: random.Random):
    """A table machine with domain weight < 1 and an admissible rate."""
    weight = Fraction(0)
    lengths = []
    while len(lengths) < rng.randint(1, 32):
        l = rng.randint(2, 10)
        if weight + Fraction(1, 2**l) >= 1:  # strict: keep a free crumb
            break
        weight += Fraction(1, 2**l)
        lengths.append(l)
    codes = kc_allocate(lengths)
    entries = []
    for c in codes:
        out_len = rng.randint(0, 10)
        entries.append((c, "".join(rng.choice("01") for _ in range(out_len))))
    offsets = [rng.randint(2, 4)]
    for _ in range(6):
        offsets.append(offsets[-1] + rng.randint(1, 3))
    r = Modulus(lambda n, off=tuple(offsets): n + off[n])
    return validate_table(entries), r


# ---------------------------------------------------------------------------
# weights and validation
# ---------------------------------------------------------------------------


def test_level_weight_small_example():
    fam = TestFamily.explicit([[], ["000", "001"]], TestKind.MARTIN_LOF)
    assert frac(level_weight(fam, 1)) == Fraction(1, 4)
    assert frac(level_weight(fam, 1)) <= Fraction(1, 2)


def test_level_weight_empty_level():
    fam = TestFamily.explicit([[]], TestKind.MARTIN_LOF)
    assert level_weight(fam, 0) == ZERO
    assert level_weight(fam, 7) == ZERO


def test_level_weight_deduplicates():
    fam = TestFamily.explicit([["01", "01", "01"]], TestKind.MARTIN_LOF)
    assert frac(level_weight(fam, 0)) == Fraction(1, 4)


def test_validate_consistent_family():
    fam = TestFamily.explicit([["0"], ["00"], ["000"]], TestKind.STRONG_KURTZ)
    assert validate_family(fam, 2).consistent


def test_validate_refutes_mixed_lengths():
    fam = TestFamily.explicit([["0"], ["00"], ["000", "01"]], TestKind.STRONG_KURTZ)
    v = validate_family(fam, 2)
    assert v.status is FamilyStatus.REFUTED and v.refuted_level == 2


def test_validate_refutes_overweight_level():
    fam = TestFamily.explicit(
        [["0"], ["00"], ["0000", "0001", "0010", "0011", "0100"]],
        TestKind.MARTIN_LOF,
    )
    v = validate_family(fam, 2)
    assert v.status is FamilyStatus.REFUTED and v.refuted_level == 2


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def test_covers_finds_prefix():
    fam = TestFamily.explicit([["01"]], TestKind.STRONG_KURTZ)
    rep = covers(fam, BitStream.periodic("01"), 0)
    assert rep.covered and rep.witness == "01"


def test_covers_rejects_non_prefix():
    fam = TestFamily.explicit([["11"]], TestKind.STRONG_KURTZ)
    assert not covers(fam, BitStream.periodic("01"), 0).covered


# ---------------------------------------------------------------------------
# machine + rate -> family
# ---------------------------------------------------------------------------


def test_skt_from_rate_three_entry_machine():
    fam = skt_from_rate(THREE_ENTRY, Modulus.shift(2), 3, Budget(12, 10**3))
    assert fam.level_list(0) == ["00", "01"]
    assert fam.level_list(1) == ["111"]
    assert fam.level_list(2) == [] and fam.level_list(3) == []
    assert fam.kind is TestKind.STRONG_KURTZ
    assert fam.meta["complete"]
    assert validate_family(fam, 3).consistent


def test_skt_from_rate_empty_machine():
    fam = skt_from_rate(validate_table([]), Modulus.shift(2), 4, Budget(12, 10**3))
    assert all(fam.level_list(n) == [] for n in range(5))


def test_skt_from_rate_rejects_slow_rates():
    with pytest.raises(RateError):
        skt_from_rate(THREE_ENTRY, Modulus.affine(1, 0), 2, Budget(12, 10**3))
    with pytest.raises(RateError):
        skt_from_rate(
            THREE_ENTRY, Modulus(lambda n: 5), 2, Budget(12, 10**3)
        )


def test_skt_from_rate_random_machines_satisfy_bounds():
    rng = random.Random(101)
    for _ in range(10):
        machine, r = random_machine_and_rate(rng)
        fam = skt_from_rate(machine, r, 5, Budget(14, 10**4))
        for n in range(6):
            level = fam.level_list(n)
            assert {len(s) for s in level} <= {r.at(n)}
            assert len(level) < 1 << (r.at(n) - n)
            assert frac(level_weight(fam, n)) < Fraction(1, 2**n)


def test_skt_from_rate_degenerate_complete_code_flagged():
    # the whole domain is the complete code {0,1}^2 producing distinct
    # outputs of length 4: the strict cardinality bound fails at n = 2
    machine = validate_table(
        [("00", "0000"), ("01", "0001"), ("10", "0010"), ("11", "0011")]
    )
    with pytest.raises(DegenerateMachine):
        skt_from_rate(machine, Modulus.shift(2), 2, Budget(10, 10**3))


def _skt_by_listing(machine, r, n_max, budget):
    """Oracle: list the budgeted domain at the longest level's program
    length and filter it per level, first occurrences in listing order."""
    need_l = max(r.at(n) - n for n in range(n_max + 1))
    enum = enumerate_domain(machine, Budget(max(need_l, budget.L), budget.t))
    levels = []
    for n in range(n_max + 1):
        out_len, max_prog = r.at(n), r.at(n) - n
        level = list(
            dict.fromkeys(
                out
                for prog, out in enum.pairs
                if len(out) == out_len and len(prog) <= max_prog
            )
        )
        if len(level) >= 1 << max_prog:
            raise DegenerateMachine(
                f"level {n} holds {len(level)} >= 2^{max_prog} strings; "
                "the budgeted domain is a complete code at that length"
            )
        levels.append(level)
    meta = {
        "complete": not enum.truncated_lengths,
        "machine": machine.id,
        "rate": r.label,
        "n_max": n_max,
    }
    return levels, meta


def _kc_table(seed: int, out_lens: list[int]):
    """A KC-built table whose outputs take the lengths ``out_lens`` and
    often repeat, within the table and across tables."""
    rng = random.Random(seed)
    lengths = [rng.randint(1, 10) for _ in range(rng.randint(1, 24))]
    while sum(Fraction(1, 2**l) for l in lengths) > 1:
        lengths.pop()
    outs = (format(rng.randrange(4), f"0{rng.choice(out_lens)}b") for _ in lengths)
    return validate_table(zip(kc_allocate(lengths), outs))


def _complete_code(k: int, n: int, distinct: bool):
    """All ``k``-bit keys, with outputs of ``n + k`` bits: under ``shift:k``
    level ``n`` is degenerate when the outputs are distinct."""
    keys = strings_of_length(k)
    return validate_table(
        (key, format(i if distinct else i // 2, f"0{n + k}b")) for i, key in enumerate(keys)
    )


SKT_RATES = st.builds(Modulus.shift, st.integers(1, 16)) | st.builds(
    Modulus.affine, st.integers(1, 3), st.integers(1, 10)
)


@st.composite
def skt_cases(draw):
    """A rate, a level count and a machine whose tables print strings of
    the level lengths: an interpreter with one or two tables (twice as
    likely), the bare interpreter, a bare table or a complete code."""
    r, n_max = draw(SKT_RATES), draw(st.integers(0, 3))
    out_lens = [r.at(n) for n in range(n_max + 1)]
    tables = st.integers(0, 2**16).map(lambda seed: _kc_table(seed, out_lens))
    calls = st.lists(tables, min_size=1, max_size=2).map(lambda aux: Interpreter(tuple(aux)))
    codes = st.builds(_complete_code, st.integers(1, 4), st.integers(0, 3), st.booleans())
    machines = st.one_of(calls, calls, st.just(Interpreter()), tables, codes)
    return draw(machines), r, n_max


# a repeat and a table call of 11 bits both print 0^11 at level 0 of shift:11
TIED = validate_table([("00000000", "0" * 11), ("00000001", "01" * 5 + "0")])


@settings(max_examples=300, deadline=None)
@given(case=skt_cases(), L=st.integers(0, 16), t=st.just(10**4) | st.integers(5, 60))
@example(case=(_complete_code(2, 2, True), Modulus.shift(2), 3), L=10, t=10**3)
@example(case=(Interpreter((TIED,)), Modulus.shift(11), 1), L=0, t=10**4)
@example(case=(Interpreter((TIED, TIED)), Modulus.shift(13), 2), L=0, t=40)
def test_skt_levels_match_the_listing(case, L, t):
    # the listing and filter that skt_from_rate replaced is the oracle
    machine, r, n_max = case
    budget = Budget(L, t)
    try:
        levels, meta = _skt_by_listing(machine, r, n_max, budget)
    except DegenerateMachine as e:
        with pytest.raises(DegenerateMachine, match=re.escape(str(e))):
            skt_from_rate(machine, r, n_max, budget)
        return
    fam = skt_from_rate(machine, r, n_max, budget)
    assert [fam.level_list(n) for n in range(n_max + 1)] == levels
    assert fam.meta == meta
    for n in range(n_max + 1):  # the reader itself returns each string once
        assert outputs_of_length(machine, r.at(n), r.at(n) - n, t) == levels[n]


def test_skt_from_rate_covers_certified_stream():
    # machine built so that prefixes of x carry certificates at levels 0..3
    x = BitStream.periodic("10")
    requests = [(2, x.prefix(n + 2)) for n in range(4)]  # weight exactly 1
    machine = kc_build_machine(requests)
    fam = skt_from_rate(machine, Modulus.shift(2), 3, Budget(12, 10**3))
    for n in range(4):
        rep = covers(fam, x, n)
        assert rep.covered and rep.witness == x.prefix(n + 2)


# ---------------------------------------------------------------------------
# family -> machine + rate
# ---------------------------------------------------------------------------


def singleton_family(x: BitStream, length_of, n_levels: int) -> TestFamily:
    return TestFamily.explicit(
        [[x.prefix(length_of(n))] for n in range(n_levels)], TestKind.STRONG_KURTZ
    )


def test_rate_from_skt_singleton_levels():
    # levels hold one string of length 3n+3; the odd levels request
    # lengths (3(2m+1)+3) - m = 5m + 6... realized exactly by the table
    x = BitStream.periodic("011")
    fam = singleton_family(x, lambda n: 3 * n + 3, 14)
    assert validate_family(fam, 13).consistent
    result = rate_from_skt(fam, overhead=0, n_max=5)
    b = Budget(40, 10**5)
    for n in range(6):
        r_n = result.rate.at(n)
        assert r_n == 3 * (2 * n + 1) + 3
        tau = x.prefix(r_n)
        v = complexity(result.machine, tau, b)
        assert v.value == r_n - n  # requested length, realized exactly
    with pytest.raises(HorizonExceeded):
        result.rate.at(len(result.rate.values))


def test_rate_from_skt_weight_chain_fits_in_unit_interval():
    # a maximal Martin-Löf family: levels of weight exactly 2^-n turn
    # into requests of total weight exactly 1, which the allocator accepts
    x = BitStream.periodic("10")
    levels = []
    for n in range(16):
        levels.append(
            [p + x.prefix(n + 2)[len(p) :] for p in strings_of_length(2)]
            if n % 2 == 1
            else []
        )
    # each odd level n holds 4 strings of length n+2: weight 4*2^-(n+2) = 2^-n
    fam = TestFamily.explicit(levels, TestKind.STRONG_KURTZ)
    assert validate_family(fam, 15).consistent
    result = rate_from_skt(fam, overhead=0, n_max=7)
    committed = sum(Fraction(1, 2**l) for l, _ in result.requests)
    # the telescoping chain sums to 1 - 2^-(n_max+1), approaching the
    # closed unit bound from below; the allocator accepted everything
    assert committed == 1 - Fraction(1, 2**8)
    assert len(result.codewords) == len(result.requests)


def test_rate_from_skt_empty_family_has_no_rate():
    fam = TestFamily.explicit([[]], TestKind.STRONG_KURTZ)
    result = rate_from_skt(fam, overhead=0, n_max=2)
    assert result.machine.entries == ()
    with pytest.raises(LevelEmpty):
        result.rate.at(0)


def test_rate_from_skt_round_trip_through_interpreter_embedding():
    # fold in the measured table-call overhead: embedding the synthesized
    # table as the first auxiliary costs exactly 3 extra bits
    x = BitStream.periodic("01")
    fam = singleton_family(x, lambda n: n + 2, 40)
    interp_overhead = len(header(CALL, 1))
    assert interp_overhead == 3
    result = rate_from_skt(fam, overhead=interp_overhead, n_max=5)
    host = Interpreter(aux=(result.machine,))
    b = Budget(30, 10**4)
    for n in range(6):
        r_n = result.rate.at(n)
        v = complexity(host, x.prefix(r_n), b)
        assert v.at_most(r_n - n)


def test_rate_from_skt_rejects_non_uniform_levels():
    fam = TestFamily.explicit(
        [[], ["000"], [], ["00000", "0000"]], TestKind.STRONG_KURTZ
    )
    with pytest.raises(PreconditionRefuted):
        rate_from_skt(fam, overhead=0, n_max=1)


def rate_from_skt_oracle(family, overhead, n_max, stage=None):
    """The synthesis with its own allocation loop and a second read of the
    rate's levels: (entries, rate values, requests, codewords)."""
    alloc = KCAllocator()
    requests, codewords = [], []
    for m in range(n_max + overhead + 1):
        for s in family.level_list(2 * m + 1, stage):
            length = len(s) - m
            if length < 0:
                raise PreconditionRefuted(
                    f"level {2 * m + 1} string shorter than the level index allows"
                )
            requests.append((length, s))
            codewords.append(alloc.request(length))
    values = []
    for n in range(n_max + 1):
        lengths = {len(s) for s in family.level_list(2 * (n + overhead) + 1, stage)}
        if len(lengths) > 1:
            raise PreconditionRefuted(
                f"level {2 * (n + overhead) + 1} is not length-uniform"
            )
        values.append(lengths.pop() if lengths else None)
    entries = [(c, s) for c, (_, s) in zip(codewords, requests)]
    return entries, values, requests, codewords


def synthesis_outcome(synthesize, *args):
    try:
        return synthesize(*args)
    except (PreconditionRefuted, WeightExceeded) as e:
        return type(e), str(e)


def test_rate_from_skt_matches_oracle_on_random_families():
    def synthesized(*args):
        r = rate_from_skt(*args)
        return list(r.machine.entries), r.rate.values, r.requests, r.codewords

    rng = random.Random(11)
    kinds = []
    for _ in range(400):
        overhead, n_max = rng.randint(0, 2), rng.randint(0, 3)
        levels = []
        for _ in range(2 * (overhead + n_max) + rng.randint(0, 4)):
            size, uniform = rng.randint(0, 8), rng.random() < 0.8
            levels.append([
                "".join(rng.choice("01") for _ in range(size if uniform else rng.randint(0, 8)))
                for _ in range(rng.randint(0, 4))
            ])
        fam = TestFamily.explicit(levels, TestKind.STRONG_KURTZ)
        stage = rng.choice([None, 1, 2, 3])
        args = (fam, overhead, n_max, stage)
        got = synthesis_outcome(synthesized, *args)
        assert got == synthesis_outcome(rate_from_skt_oracle, *args)
        kinds.append(got[0] if isinstance(got[0], type) else "ok")
    assert {"ok", WeightExceeded, PreconditionRefuted} <= set(kinds)


def test_rate_from_skt_reads_each_odd_level_once():
    reads = []

    def level_fn(n):
        reads.append(n)
        return [format(n, "05b")]

    fam = TestFamily(level_fn, TestKind.STRONG_KURTZ)
    result = rate_from_skt(fam, overhead=1, n_max=3)
    assert reads == [1, 3, 5, 7, 9]
    assert result.rate.values == [5, 5, 5, 5]


# ---------------------------------------------------------------------------
# weight-1 prefix code witness check
# ---------------------------------------------------------------------------


def complete_codes(depth: int):
    """All complete binary prefix codes of depth <= depth."""
    yield [""]
    if depth > 0:
        for left in complete_codes(depth - 1):
            for right in complete_codes(depth - 1):
                yield ["0" + w for w in left] + ["1" + w for w in right]


def test_kurtz_witness_complete_codes_exhaustive():
    streams = [
        BitStream.periodic("0"),
        BitStream.periodic("1"),
        BitStream.periodic("01"),
        BitStream.periodic("110"),
        BitStream.periodic("0101001011"),
    ]
    count = 0
    for code in complete_codes(4):
        count += 1
        # every length-4 window extends some codeword: full coverage
        for w in strings_of_length(4):
            assert any(w.startswith(c) or c.startswith(w) for c in code)
        for x in streams:
            rep = kurtz_witness_check(code, x, stage=100)
            assert rep.status is KurtzStatus.PREFIX_FOUND
    assert count == 677  # all full binary trees of depth <= 4


def test_kurtz_witness_examples():
    x = BitStream.periodic("10")
    assert kurtz_witness_check(["0", "10", "11"], x, 10).witness == "10"
    assert kurtz_witness_check(["0", "10", "11"], x, 3).witness == "10"  # exhausts at the stage
    assert (
        kurtz_witness_check(["00", "01", "10", "11"], x, 10).status
        is KurtzStatus.PREFIX_FOUND
    )


def test_kurtz_witness_rejects_underweight():
    with pytest.raises(PreconditionRefuted):
        kurtz_witness_check(["00", "01"], BitStream.periodic("0"), 10)
    with pytest.raises(PreconditionRefuted, match="did not exhaust within 2"):
        kurtz_witness_check(["0", "10", "11"], BitStream.periodic("0"), 2)


def test_kurtz_witness_rejects_prefix_violation():
    with pytest.raises(PrefixViolation):
        kurtz_witness_check(["0", "00", "01", "1"], BitStream.periodic("0"), 10)

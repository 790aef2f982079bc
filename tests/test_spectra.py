"""Profiles, window dimension estimates, interleave, sum machine, log bound."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leftreal.errors import HorizonExceeded
from leftreal.foundations import BitStream, charseq, evens
from leftreal.kraft_chaitin import kc_build_machine
from leftreal.machines import Budget, Interpreter, KStatus, TableMachine, complexity
from leftreal.names import CheckStatus, IncreasingDyadicStream
from leftreal.randomness import covers, validate_family, skt_from_rate
from leftreal.spectra import (
    ce_decoder_table,
    ce_log_bound_check,
    dim_gap_rate,
    dim_window,
    ilog2,
    profile,
    square_interleave,
    sum_machine,
    _right_neighbor,
)

INTERP = Interpreter()


def third_approximants():
    return IncreasingDyadicStream.from_prefix_sums(
        BitStream.periodic("01"), bits_per_step=2, label="third"
    )


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_profile_empty_prefix_is_cheap():
    p = profile(INTERP, BitStream.periodic("01"), 0, Budget(10, 100))
    v = dict(p.entries)[0]
    assert v.value == 2  # the empty-payload literal


def test_profile_periodic_obeys_repeat_envelope():
    p = profile(INTERP, BitStream.periodic("01"), 64, Budget(24, 10**4))
    for n, v in p.entries:
        if n >= 1:
            # repeat opcode: 2*floor(log n) + 8 for the two-bit pattern
            assert v.value <= 2 * (n.bit_length() - 1) + 8
            assert v.status is KStatus.EXACT


def test_profile_values_antitone_in_budget():
    rng = random.Random(3)
    small, big = Budget(12, 10**3), Budget(18, 10**4)
    for _ in range(20):
        bits = "".join(rng.choice("01") for _ in range(24))
        x = BitStream.from_bits(bits)
        ps = profile(INTERP, x, 10, small)
        pb = profile(INTERP, x, 10, big)
        for (n, vs), (_, vb) in zip(ps.entries, pb.entries):
            assert vb.value <= vs.value


def _profile_by_prefixes(machine, x, n_max, budget):
    """The entries ``profile`` built before it read its stream once: one
    ``x.prefix(n)``, grown by a bit, per n."""
    return [(n, complexity(machine, x.prefix(n), budget)) for n in range(n_max + 1)]


def _flipped(bits, flips):
    for i in flips:
        if i < len(bits):
            bits = bits[:i] + "10"[int(bits[i])] + bits[i + 1 :]
    return bits


NEAR_PERIODIC = st.builds(
    lambda pattern, n, flips: _flipped((pattern * n)[:n], flips),
    st.text("01", min_size=1, max_size=5),
    st.integers(0, 300),
    st.lists(st.integers(0, 299), max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(
    bits=st.text("01", max_size=30) | st.text("01", max_size=300) | NEAR_PERIODIC,
    finite=st.booleans(),
    bad=st.one_of(st.none(), st.integers(0, 300)),
    n_max=st.integers(-1, 300),
    kind=st.sampled_from(["bare", "calls", "table"]),
    calls=st.lists(st.integers(0, 300), max_size=4),
    budget=st.builds(
        Budget, st.integers(0, 40) | st.integers(120, 330), st.sampled_from([5, 40, 10**3, 10**4])
    ),
)
def test_profile_matches_a_read_per_prefix(bits, finite, bad, n_max, kind, calls, budget):
    def stream():  # ``bits``, repeated or up to a horizon, with a 2 at ``bad``
        return BitStream(
            lambda i: 2 if i == bad else int(bits[i % len(bits)]) if bits else 0,
            len(bits) if finite else None,
            label=bits,
        )

    # a KC-built table whose entries print prefixes of the stream's bits
    repeated = (bits * 301)[:300] if bits else "0" * 300
    table = kc_build_machine([(i + 4, repeated[:n]) for i, n in enumerate(calls)])
    machine = {"bare": INTERP, "calls": Interpreter(aux=(table,)), "table": table}[kind]

    def outcome(run):
        try:
            return run()
        except (ValueError, HorizonExceeded) as e:
            return type(e), str(e)

    assert outcome(lambda: profile(machine, stream(), n_max, budget).entries) == outcome(
        lambda: _profile_by_prefixes(machine, stream(), n_max, budget)
    )


@pytest.mark.parametrize("budget", [Budget(24, 10**4), Budget(40, 50), Budget(330, 10**4)])
def test_profile_matches_a_read_per_prefix_on_every_short_pattern(budget):
    # periods that the prefix function finds only by falling back along a
    # border, as in 0010 0010 (the border 001 falls back to 0 at the 1)
    for k in range(1, 6):
        for pattern in map("".join, itertools.product("01", repeat=k)):
            bits = (pattern * 160)[:160]
            for flips in ((), (70,), (5, 120)):
                x = BitStream.from_bits(_flipped(bits, flips))
                assert profile(INTERP, x, 160, budget).entries == _profile_by_prefixes(
                    INTERP, x, 160, budget
                ), (pattern, flips)


# ---------------------------------------------------------------------------
# dimension windows
# ---------------------------------------------------------------------------


def test_dim_window_periodic_ratios():
    p = profile(INTERP, BitStream.periodic("01"), 128, Budget(24, 10**4))
    est = dim_window(p, 32, 64)
    # measured repeat constant 8: the window maximum is (2*5+8)/32
    assert est.max_ratio <= Fraction(18, 32)
    est2 = dim_window(p, 64, 128)
    assert est2.max_ratio <= Fraction(1, 2)
    assert est2.min_ratio > 0
    assert "window estimate" in est2.caveat


def test_dim_window_near_one_for_length_plus_constant_fixture():
    # a table realizing K(x|n) = n + 2 exactly for n = 1..10
    x = BitStream.periodic("0110")
    m = kc_build_machine([(n + 2, x.prefix(n)) for n in range(1, 11)])
    p = profile(m, x, 10, Budget(14, 10**3))
    est = dim_window(p, 1, 10)
    assert est.min_ratio >= 1
    assert est.max_ratio <= 3


def test_dim_window_single_point():
    p = profile(INTERP, BitStream.periodic("01"), 8, Budget(16, 10**3))
    est = dim_window(p, 8, 8)
    assert est.min_ratio == est.max_ratio


def test_dim_window_inside_literal_envelope():
    # every string has the literal program, so ratios stay below
    # 1 + (2*floor(log(n+1)) + 2) / n across the window
    rng = random.Random(71)
    for _ in range(5):
        bits = "".join(rng.choice("01") for _ in range(12))
        p = profile(INTERP, BitStream.from_bits(bits), 12, Budget(24, 10**4))
        est = dim_window(p, 4, 12)
        envelope = max(
            Fraction(n + 2 * ((n + 1).bit_length() - 1) + 2, n) for n in range(4, 13)
        )
        assert 0 <= est.min_ratio <= est.max_ratio <= envelope


def test_dim_window_excludes_unknown_entries():
    x = BitStream.from_bits("11010011" * 4)
    p = profile(INTERP, x, 20, Budget(10, 10**3))
    est = dim_window(p, 1, 20)
    assert est.excluded  # long prefixes are unreachable at L = 10
    assert all(n > 4 for n in est.excluded)
    assert f"; {len(est.excluded)} entries without witnesses excluded;" in est.caveat
    with pytest.raises(ValueError, match="no usable entries in the window"):
        dim_window(p, 19, 20)


# ---------------------------------------------------------------------------
# square interleave
# ---------------------------------------------------------------------------


def test_square_interleave_ones_source():
    s = square_interleave(BitStream.constant(1))
    assert s.prefix(9) == "011011110"


def test_square_interleave_zero_source_is_zero():
    s = square_interleave(BitStream.constant(0))
    assert s.prefix(50) == "0" * 50


def test_square_interleave_inverse_extraction():
    src = BitStream.periodic("1101000101")
    out = square_interleave(src)
    recovered = []
    for i in range(400):
        p = i + 1
        if math.isqrt(p) ** 2 != p:
            recovered.append(str(out.bit(i)))
    assert "".join(recovered) == src.prefix(len(recovered))


def test_square_interleave_zero_at_squares():
    out = square_interleave(BitStream.periodic("1"))
    for p in range(1, 2000):
        if math.isqrt(p) ** 2 == p:
            assert out.bit(p - 1) == 0


def test_square_positions_are_enumerable_zeros():
    # the complement of the interleaved set contains the square positions,
    # an enumerable witness against bi-immunity at any scale
    out = square_interleave(BitStream.periodic("1"))
    zeros = [p * p - 1 for p in range(1, 40)]
    assert all(out.bit(i) == 0 for i in zeros)


# ---------------------------------------------------------------------------
# gap rates and the below-dimension-one pipeline
# ---------------------------------------------------------------------------


def test_dim_gap_rate_values():
    assert [dim_gap_rate(0).at(n) for n in range(4)] == [0, 2, 4, 6]
    assert dim_gap_rate(2).at(5) == 20


def test_dim_gap_pipeline_periodic_stream():
    x = BitStream.periodic("01")
    budget = Budget(24, 10**4)
    p = profile(INTERP, x, 40, budget)
    window = dim_window(p, 24, 40)
    assert window.max_ratio <= Fraction(3, 4)  # certifies the m = 2 gap
    rate = dim_gap_rate(2).shifted(1)  # r'(n) = 4(n+1): admissible from 0
    fam = skt_from_rate(INTERP, rate, 6, budget)
    assert validate_family(fam, 6).consistent
    for n in (5, 6):
        assert covers(fam, x, n).covered


# ---------------------------------------------------------------------------
# sum machine
# ---------------------------------------------------------------------------


def build_third_coder(n_max=12):
    x = BitStream.periodic("01")
    return kc_build_machine([(n, x.prefix(n)) for n in range(1, n_max + 1)]), x


def test_right_neighbor_saturates():
    assert _right_neighbor("101") == "110"
    assert _right_neighbor("111") == "111"
    assert _right_neighbor("11") == "11"
    assert _right_neighbor("") == ""


def test_sum_machine_doubling_third():
    base, x = build_third_coder()
    xs = third_approximants()
    res = sum_machine(base, xs, xs, wait_stages=20)
    assert res.complete
    z = BitStream.periodic("10")  # expansion of 2/3
    b = Budget(16, 10**3)
    for n in range(1, 13):
        k_base = complexity(base, x.prefix(n), b)
        k_sum = complexity(res.machine, z.prefix(n), b)
        assert k_base.is_finite
        assert k_sum.value <= k_base.value + 3


def test_sum_machine_domain_prefix_free():
    base, _ = build_third_coder(6)
    xs = third_approximants()
    res = sum_machine(base, xs, xs, wait_stages=10)
    progs = [k for k, _ in res.machine.entries]
    for a, b in itertools.combinations(progs, 2):
        assert not a.startswith(b) and not b.startswith(a)


def test_sum_machine_reports_failed_waits():
    base, _ = build_third_coder(6)
    xs = third_approximants()
    res = sum_machine(base, xs, xs, wait_stages=0)
    assert not res.complete
    assert all(branch in (0, 1) for _, branch in res.incomplete)


# ---------------------------------------------------------------------------
# log bound for enumerable sets
# ---------------------------------------------------------------------------


def test_ce_log_bound_consistent_with_decoder():
    a = evens(80)
    host = Interpreter(aux=(ce_decoder_table(a, 64),))
    verdict = ce_log_bound_check(a, host, c=8, n_max=64, budget=Budget(20, 10**4))
    assert verdict.status is CheckStatus.CONSISTENT
    # the decoder really is the two-gamma-number route: index gamma plus
    # length gamma, within 2*log(n) + 4
    v = complexity(host, charseq(a).prefix(33), Budget(20, 10**4))
    assert v.value <= 2 * ilog2(34) + 4


def test_ce_log_bound_refuted_at_zero_constant():
    a = evens(40)
    verdict = ce_log_bound_check(a, INTERP, c=0, n_max=16, budget=Budget(20, 10**4))
    assert verdict.status is CheckStatus.REFUTED
    assert verdict.failing_n == 4
    # a table whose keys all fit L but output no prefix refutes exactly
    table = TableMachine((("0", "1"),))
    verdict = ce_log_bound_check(a, table, c=8, n_max=16, budget=Budget(20, 10**4))
    assert (verdict.status, verdict.failing_n) == (CheckStatus.REFUTED, 4)
    assert verdict.details == "no program at all produces the length-4 prefix"


def test_ce_log_bound_vacuous_below_four():
    a = evens(10)
    verdict = ce_log_bound_check(a, INTERP, c=0, n_max=3, budget=Budget(12, 10**3))
    assert verdict.status is CheckStatus.CONSISTENT

"""Foundations: exact dyadics, bijections, streams, set views."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from leftreal.errors import HorizonExceeded, RangeViolation
from leftreal.foundations import (
    BitStream,
    Dyadic,
    NatSetView,
    ONE,
    ZERO,
    charseq,
    dyadic_weight,
    evens,
    floor_scale,
    half_power,
    interval_of,
    join,
    lenlex,
    lenlex_inv,
    pair,
    set_value_prefix,
    strings_of_length,
    unpair,
)
from leftreal.names import IncreasingDyadicStream


def frac(d: Dyadic) -> Fraction:
    return Fraction(d.num, 2**d.exp)


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_pair_at_zero():
    assert pair(0, 0) == 0


def test_pair_formula_value():
    # direct evaluation of (i+j)(i+j+1)/2 + j at (1, 2)
    assert pair(1, 2) == 8


def test_pair_round_trip_small_grid():
    for i in range(100):
        for j in range(100):
            assert unpair(pair(i, j)) == (i, j)


def test_pair_bijective_on_initial_segment():
    seen = set()
    for n in range(10**4):
        i, j = unpair(n)
        assert pair(i, j) == n
        assert (i, j) not in seen
        seen.add((i, j))


# ---------------------------------------------------------------------------
# length-lex enumeration
# ---------------------------------------------------------------------------


def test_lenlex_first_element_is_empty():
    assert lenlex(0) == ""


def test_lenlex_against_sorted_enumeration():
    # oracle: sort all strings of length <= 2 by (length, lex) and index
    all_short = sorted(
        (s for n in range(3) for s in strings_of_length(n)),
        key=lambda s: (len(s), s),
    )
    assert all_short[3] == "00"
    assert lenlex(3) == "00"
    for idx, s in enumerate(all_short):
        assert lenlex(idx) == s


def test_lenlex_round_trip():
    for n in range(10**4):
        assert lenlex_inv(lenlex(n)) == n


# ---------------------------------------------------------------------------
# dyadics
# ---------------------------------------------------------------------------


def test_dyadic_canonical_form():
    assert Dyadic.of(6, 4) == Dyadic(3, 3)
    assert Dyadic.of(0, 9) == Dyadic(0, 0)
    assert Dyadic.of(8, 3) == Dyadic(1, 0)


def test_dyadic_add_canonical():
    assert Dyadic.of(1, 1) + Dyadic.of(1, 2) == Dyadic(3, 2)


@given(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=0, max_value=60),
)
def test_dyadic_field_arithmetic_matches_fractions(a, ea, b, eb):
    x, y = Dyadic.of(a, ea), Dyadic.of(b, eb)
    assert frac(x + y) == frac(x) + frac(y)
    assert frac(x - y) == frac(x) - frac(y)
    assert (x < y) == (frac(x) < frac(y))
    assert (x == y) == (frac(x) == frac(y))


@given(
    st.integers(min_value=-(2**30), max_value=2**30),
    st.integers(min_value=0, max_value=50),
)
def test_dyadic_canonical_is_unique(a, ea):
    x = Dyadic.of(a, ea)
    y = Dyadic.of(a * 4, ea + 2)
    assert x == y and (x.num, x.exp) == (y.num, y.exp)
    assert x.num == 0 or x.num % 2 == 1 or x.exp == 0


def test_floor_scale_examples():
    assert floor_scale(Dyadic.of(5, 3), 3) == 5
    assert floor_scale(Dyadic.of(85, 8), 4) == 5  # 85/256 * 16 = 5.3125
    assert floor_scale(ZERO, 10) == 0


@given(st.lists(st.integers(min_value=-3, max_value=70), max_size=12))
def test_dyadic_weight_matches_fraction_sum(exps):
    w = dyadic_weight(Counter(exps))
    assert frac(w) == sum((Fraction(1, 2) ** e for e in exps), Fraction(0))
    assert w == Dyadic.of(w.num, w.exp)  # canonical, so ZERO when exps is empty


@given(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=0, max_value=60),
)
def test_floor_scale_matches_fraction_floor(a, ea, r):
    x = Dyadic.of(a, ea)
    assert floor_scale(x, r) == (frac(x) * 2**r).__floor__()


def test_prefix_bits_trailing_zero_expansion():
    x = Dyadic.of(3, 3)  # 0.011
    assert x.prefix_bits(3) == "011"
    assert x.prefix_bits(6) == "011000"
    assert ONE.prefix_bits(4) == "1111"
    assert ZERO.prefix_bits(4) == "0000"


@given(st.integers(-(2**10), 2**12), st.integers(0, 10), st.integers(0, 14))
@example(-1, 0, 0)
@example(0, 0, 3)
@example(1, 0, 3)
@example(1025, 10, 3)
def test_unit_interval_checks_match_fractions(num, exp, n):
    # bit, prefix_bits and the increasing-stream check read [0, 1] off the
    # canonical fields; the Fraction value is the oracle
    x = Dyadic.of(num, exp)
    v = Fraction(num, 2**exp)
    reads = [lambda: x.bit(n), lambda: x.prefix_bits(n),
             lambda: IncreasingDyadicStream.from_list([x]).at(0)]
    if not 0 <= v <= 1:
        for read in reads:
            with pytest.raises(RangeViolation):
                read()
        return
    expansion = "1" * n if v == 1 else format(int(v * 2**n), f"0{n}b") if n else ""
    assert x.prefix_bits(n) == expansion
    assert x.bit(n) == (1 if v == 1 else int(v * 2 ** (n + 1)) & 1)
    assert IncreasingDyadicStream.from_list([x]).at(0) == x


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


def test_interval_of_examples():
    iv = interval_of("01")
    assert frac(iv.lo) == Fraction(1, 4) and frac(iv.hi) == Fraction(1, 2)
    iv = interval_of("")
    assert frac(iv.lo) == 0 and frac(iv.hi) == 1
    iv = interval_of("110")
    assert frac(iv.lo) == Fraction(3, 4) and frac(iv.hi) == Fraction(7, 8)


def test_interval_nesting_exhaustive():
    # interval_of(ts) inside interval_of(t) for every split of every
    # string of length <= 12
    for total_len in range(13):
        for s in strings_of_length(total_len):
            big = interval_of(s)
            for cut in range(total_len + 1):
                outer = interval_of(s[:cut])
                assert outer.lo <= big.lo and big.hi <= outer.hi


# ---------------------------------------------------------------------------
# characteristic sequences and set values
# ---------------------------------------------------------------------------


def test_charseq_singleton():
    a = NatSetView.from_elements([0], horizon=32)
    s = charseq(a)
    assert s.prefix(6) == "100000"
    assert frac(set_value_prefix(a, 20)) == Fraction(1, 2)


def test_charseq_empty():
    a = NatSetView.from_elements([], horizon=16)
    assert charseq(a).prefix(8) == "0" * 8
    assert set_value_prefix(a, 10) == ZERO


def test_charseq_evens_converges_to_two_thirds():
    a = evens(200)
    # geometric oracle: sum of 2^-(2n+1)
    for n in range(1, 100):
        oracle = sum(Fraction(1, 2 ** (2 * k + 1)) for k in range(0, (n + 1) // 2))
        assert frac(set_value_prefix(a, n)) == oracle
    limit = Fraction(2, 3)
    assert abs(frac(set_value_prefix(a, 100)) - limit) < Fraction(1, 2**99)


def test_charseq_prefix_sums_monotone_and_bounded():
    rng = random.Random(7)
    for _ in range(25):
        elems = sorted(rng.sample(range(1000), rng.randint(0, 60)))
        a = NatSetView.from_elements(elems, horizon=1000)
        full = set_value_prefix(a, 1000)
        prev = ZERO
        for n in range(0, 1001, 37):
            cur = set_value_prefix(a, n)
            assert prev <= cur <= full
            prev = cur


def test_stream_horizon_fails_loudly():
    a = NatSetView.from_elements([1], horizon=4)
    s = charseq(a)
    with pytest.raises(HorizonExceeded):
        s.bit(4)


def test_stream_replayable_clones_agree():
    s = BitStream.periodic("0110")
    t = BitStream.periodic("0110")
    assert [s.bit(i) for i in range(32)] == [t.bit(i) for i in range(32)]
    assert s.prefix(10) == s.prefix(10)


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def test_join_expands_membership():
    a = NatSetView.from_elements([0, 1], horizon=2)
    b = NatSetView.from_elements([0, 1], horizon=2)
    assert join(a, b).elements() == [0, 1, 2, 3]


def test_join_empty_left_keeps_odds_only():
    a = NatSetView.from_elements([], horizon=8)
    b = NatSetView.from_elements([0, 3, 5], horizon=8)
    assert join(a, b).elements() == [1, 7, 11]


def join_enumeration_oracle(ea, eb, n):
    """The two enumerations alternated, ``a``'s element first, keeping only
    the elements below the joined window ``n``."""
    out = []
    for i in range(max(len(ea), len(eb))):
        if i < len(ea) and ea[i] < n:
            out.append(2 * ea[i])
        if i < len(eb) and eb[i] < n:
            out.append(2 * eb[i] + 1)
    return out


@given(
    st.lists(st.integers(0, 40), max_size=12),
    st.lists(st.integers(0, 40), max_size=12),
    st.integers(0, 40),
    st.integers(0, 40),
    st.booleans(),
)
def test_join_enumerator_alternates_within_the_window(ea, eb, ha, hb, b_listed):
    # b either enumerates its own list or, without an enumerator, its members
    b = NatSetView.from_elements(eb, hb) if b_listed else evens(hb)
    eb = eb if b_listed else list(range(0, hb, 2))
    j = join(NatSetView.from_elements(ea, ha), b)
    assert list(j.enumerate()) == join_enumeration_oracle(ea, eb, min(ha, hb))


def test_join_bit_identities():
    rng = random.Random(11)
    for _ in range(50):
        ea = rng.sample(range(64), rng.randint(0, 30))
        eb = rng.sample(range(64), rng.randint(0, 30))
        a = NatSetView.from_elements(ea, horizon=64)
        b = NatSetView.from_elements(eb, horizon=64)
        j = join(a, b)
        s = charseq(j)
        for n in range(64):
            assert s.bit(2 * n) == (1 if a.member(n) else 0)
            assert s.bit(2 * n + 1) == (1 if b.member(n) else 0)


def test_self_join_avoids_010_and_101():
    rng = random.Random(13)
    for _ in range(200):
        elems = rng.sample(range(64), rng.randint(1, 40))
        a = NatSetView.from_elements(elems, horizon=64)
        bits = charseq(join(a, a)).prefix(128)
        assert "010" not in bits and "101" not in bits


def test_half_power_values():
    assert frac(half_power(0)) == 1
    assert frac(half_power(5)) == Fraction(1, 32)
    assert frac(half_power(-2)) == 4

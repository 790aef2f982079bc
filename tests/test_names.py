"""Names, partial sums and tail weights, tail certificates, block reconstruction."""

import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from leftreal.errors import (
    HorizonExceeded,
    InvalidName,
    MonotonicityViolation,
    NotASet,
    RangeViolation,
)
from leftreal.conversions import TailBound, tail_bound_check
from leftreal.foundations import (
    BitStream,
    Dyadic,
    NatSetView,
    ONE,
    ZERO,
    dyadic_weight,
    half_power,
)
from leftreal.names import (
    CheckStatus,
    IncreasingDyadicStream,
    Modulus,
    NameStream,
    RateCheck,
    digit_exponents,
    name_from_increasing,
    partial_sum,
    regular_sum,
    roc_certificate_check,
    strongly_lc,
    sum_exceeds_one,
    tail_sums,
    tail_weight,
)


def frac(d: Dyadic) -> Fraction:
    return Fraction(d.num, 2**d.exp)


# ---------------------------------------------------------------------------
# partial sums
# ---------------------------------------------------------------------------


def test_partial_sum_constant_one():
    assert frac(partial_sum(NameStream.from_list([1]), 0)) == Fraction(1, 2)


def test_partial_sum_odd_exponents():
    f = NameStream.affine(2, 1)
    assert frac(partial_sum(f, 2)) == Fraction(21, 32)


def test_partial_sum_overflow_rejected():
    f = NameStream.from_list([1, 1, 1])
    with pytest.raises(InvalidName):
        partial_sum(f, 2)


# ---------------------------------------------------------------------------
# tail weights and the tail-rate certificate
# ---------------------------------------------------------------------------


def test_tail_weight_odd_name():
    f = NameStream.affine(2, 1)
    got = tail_weight(f, 4, 10)
    oracle = sum(Fraction(1, 2**k) for k in range(5, 22, 2))
    assert frac(got) == oracle


def test_tail_weight_at_zero_is_partial_sum():
    f = NameStream.affine(2, 1)
    assert tail_weight(f, 0, 12) == partial_sum(f, 12)


def test_tail_weight_empty_range():
    assert tail_weight(NameStream.affine(2, 1), 0, -1) == ZERO


class MultiplicityTable:
    """The weight ledger ``names`` kept before ``tail_sums``: the counts
    ``m -> |{k <= stage : f(k) = m}|``, summed by exponent in ``Dyadic``s
    and read by one descending pass per list of thresholds."""

    def __init__(self, f: NameStream, upto: int):
        self.counts = dict(Counter(f.values(upto + 1)))
        self.stage = upto

    def rearranged_sum(self) -> Dyadic:
        return dyadic_weight(self.counts)

    def partial_sum(self, label: str = "") -> Dyadic:
        total = self.rearranged_sum()
        if total > ONE:
            raise sum_exceeds_one(label, self.stage, total)
        return total

    def tails(self, thresholds) -> list[Dyadic]:
        counts = self.counts
        top = max(counts, default=0)
        exps = sorted(counts, reverse=True)
        tail: dict[int, Dyadic] = {}
        acc = i = 0
        for m0 in sorted(set(thresholds), reverse=True):
            while i < len(exps) and exps[i] >= m0:
                acc += counts[exps[i]] << (top - exps[i])
                i += 1
            tail[m0] = Dyadic.of(acc, top)
        return [tail[m0] for m0 in thresholds]


def _tail_weight_by_scan(f: NameStream, m0: int, upto: int) -> Dyadic:
    """The per-call scan the weight ledger replaced: re-read every value
    up to ``upto`` and add up the weights of those at least ``m0``."""
    return sum((half_power(v) for v in f.values(upto + 1) if v >= m0), ZERO)


def _outcome(run):
    try:
        return run()
    except InvalidName as e:
        return InvalidName, str(e)


@settings(max_examples=300, deadline=None)
@given(
    # short lists of small exponents repeat often and may sum past 1
    vals=st.lists(st.integers(0, 12), max_size=40),
    tail_start=st.integers(1, 30),
    data=st.data(),
)
def test_weight_ledger_matches_the_scan(vals, tail_start, data):
    # tail_sums and the functions that read it, against the table they
    # replaced and the per-call scan that table replaced
    f = NameStream(lambda k: vals[k] if k < len(vals) else k + tail_start, label="drawn")
    upto = data.draw(st.integers(-1, len(vals) + 5))
    # thresholds below, inside and above the range of the values
    top = upto + tail_start + 3
    thresholds = data.draw(st.lists(st.integers(-2, top), max_size=9))
    table = MultiplicityTable(f, upto)
    tails = table.tails(thresholds)
    assert table.rearranged_sum() == _tail_weight_by_scan(f, 0, upto)
    assert tails == [_tail_weight_by_scan(f, m0, upto) for m0 in thresholds]

    # at the values' own scale or a finer one
    values = f.values(upto + 1)
    scale = max(values, default=0) + data.draw(st.integers(0, 3))
    whole = sum(1 << (scale - v) for v in values)
    got = tail_sums(values, whole, scale, thresholds)
    assert [Dyadic.of(t, scale) for t in got] == tails
    assert [tail_weight(f, m0, upto) for m0 in thresholds] == tails
    assert _outcome(lambda: partial_sum(f, upto)) == _outcome(
        lambda: table.partial_sum(f.label)
    )

    r = Modulus.from_values(sorted(max(m0, 0) for m0 in thresholds))
    for n in range(len(thresholds)):
        tail, bound = table.tails([r.at(n)])[0], half_power(n)
        status = CheckStatus.REFUTED if tail > bound else CheckStatus.CONSISTENT
        assert roc_certificate_check(f, r, n, upto) == RateCheck(status, n, tail, bound, upto)
        tail, bound = table.tails([r.at(n) + 1])[0], Dyadic.of(n + 1, n)
        assert tail_bound_check(f, r, n, upto) == TailBound(tail <= bound, tail, bound, n, upto)


def test_roc_certificate_consistent_for_geometric_name():
    f = NameStream.affine(2, 1)
    r = Modulus.shift(2)
    for n in range(9):
        # geometric oracle: the true tail beyond n+2 is at most 2^-n
        true_tail = sum(Fraction(1, 2**k) for k in range(n + 2, 4000, 2) if k % 2 == 1)
        assert true_tail <= Fraction(1, 2**n)
        chk = roc_certificate_check(f, r, n, 1000)
        assert chk.status is CheckStatus.CONSISTENT


def test_roc_certificate_refuted_by_adversarial_name():
    # tail at position 5 is 4/32 + 2^-20 which exceeds the level-3 bound 1/8
    f = NameStream.from_list([1, 5, 5, 5, 5, 20])
    r = Modulus.shift(2)
    chk = roc_certificate_check(f, r, 3, 5)
    assert chk.status is CheckStatus.REFUTED


def test_roc_certificate_vacuous_beyond_emitted_values():
    f = NameStream.from_list([2, 3, 9])
    r = Modulus(lambda n: 50 + n)
    chk = roc_certificate_check(f, r, 0, 2)
    assert chk.status is CheckStatus.CONSISTENT
    assert chk.tail == ZERO


def test_roc_certificate_sound_on_solvable_family():
    # names f(k) = a*k + b with a >= 1: tail beyond r(n) is at most
    # 2^-(r(n)-1), so r(n) = n+1+b is a valid certificate rate
    for a, b in [(1, 1), (2, 1), (2, 3), (3, 2)]:
        f = NameStream.affine(a, b)
        r = Modulus.shift(1 + b)
        for n in range(6):
            assert roc_certificate_check(f, r, n, 500).status is CheckStatus.CONSISTENT


# ---------------------------------------------------------------------------
# names from increasing streams
# ---------------------------------------------------------------------------


def test_digit_exponents():
    assert digit_exponents(Dyadic.of(3, 3)) == [2, 3]
    assert digit_exponents(ZERO) == []


def test_name_from_increasing_simple():
    xs = IncreasingDyadicStream.from_list([ZERO, Dyadic.of(1, 1), Dyadic.of(3, 2)])
    f = name_from_increasing(xs, 2)
    assert f.values(f.length) == [1, 2]


def test_name_from_increasing_three_eighths():
    xs = IncreasingDyadicStream.from_list([ZERO, Dyadic.of(3, 3)])
    f = name_from_increasing(xs, 1)
    assert f.values(f.length) == [2, 3]


def test_name_from_increasing_rejects_decrease():
    xs = IncreasingDyadicStream.from_list([ZERO, Dyadic.of(1, 1), Dyadic.of(1, 2)])
    with pytest.raises(MonotonicityViolation):
        name_from_increasing(xs, 2)


def test_block_boundary_sums_reconstruct_stream():
    rng = random.Random(17)
    for _ in range(100):
        vals = [ZERO]
        for _ in range(rng.randint(1, 12)):
            exp = rng.randint(8, 16)
            # increments below 2^-4 keep the 12-step total inside [0, 1]
            vals.append(vals[-1] + Dyadic.of(rng.randint(1, 2 ** (exp - 4) - 1), exp))
        xs = IncreasingDyadicStream.from_list(vals)
        steps = len(vals) - 1
        f = name_from_increasing(xs, steps)
        for t in range(steps + 1):
            upto = f.block_boundaries[t] - 1
            assert partial_sum(f, upto) == xs.at(t)
            if upto >= 0:
                # rearranging by multiplicity leaves the block sums fixed
                assert MultiplicityTable(f, upto).rearranged_sum() == xs.at(t)


# ---------------------------------------------------------------------------
# strongly left-computable and regular streams
# ---------------------------------------------------------------------------


def test_strongly_lc_evens():
    w = NatSetView.from_elements([0, 2, 4, 6, 8, 10], horizon=12)
    xs = strongly_lc(w)
    # geometric oracle
    for t in range(7):
        oracle = sum(Fraction(1, 2 ** (2 * j + 1)) for j in range(t))
        assert frac(xs.at(t)) == oracle
    assert xs.at(10) == xs.at(6)  # constant after exhaustion


def test_strongly_lc_empty():
    w = NatSetView.from_elements([], horizon=4)
    xs = strongly_lc(w)
    assert xs.at(0) == ZERO and xs.at(5) == ZERO


def test_strongly_lc_rejects_duplicates():
    w = NatSetView(lambda n: n == 1, horizon=8, enumerator=lambda: iter([1, 1]))
    xs = strongly_lc(w)
    with pytest.raises(NotASet):
        xs.at(2)


def test_regular_sum_two_halves():
    w = NatSetView.from_elements([0], horizon=4)
    xs = regular_sum([strongly_lc(w), strongly_lc(w)])
    assert xs.at(0) == ZERO
    assert frac(xs.at(1)) == 1
    assert frac(xs.at(9)) == 1


def test_strongly_lc_monotone_bounded():
    rng = random.Random(23)
    for _ in range(20):
        elems = rng.sample(range(40), rng.randint(0, 20))
        w = NatSetView.from_elements(elems, horizon=40)
        xs = strongly_lc(w)
        prev = ZERO
        for t in range(25):
            cur = xs.at(t)
            assert prev <= cur <= Dyadic.of(1, 0)
            prev = cur


def _memo_prefix_sums(stream, bits_per_step=1, label=""):
    """The memo-backed ``from_prefix_sums`` the slices of the stream's bit
    string replaced: ``x_t`` is ``x_{t-1}`` with the next bits appended,
    each bit read once through ``stream.bit`` and every ``x_t`` stored."""
    if bits_per_step < 0:
        raise ValueError(
            f"prefix sums need a step of 0 or more bits, got {bits_per_step}"
        )

    def fn(t):
        if t == 0:
            return ZERO
        start = bits_per_step * (t - 1)
        new = 0
        for i in range(start, start + bits_per_step):
            new = new << 1 | stream.bit(i)
        prev = xs.at(t - 1)
        acc = prev.num << (start - prev.exp)
        return Dyadic.of(acc << bits_per_step | new, start + bits_per_step)

    xs = IncreasingDyadicStream(fn, label=label or f"sums({stream.label})")
    return xs


@settings(max_examples=300, deadline=None)
@given(
    bits=st.text("01", max_size=40),
    finite=st.booleans(),
    bad=st.one_of(st.none(), st.integers(0, 60)),
    as_bool=st.booleans(),
    bits_per_step=st.integers(-2, 4),
    data=st.data(),
)
def test_prefix_sums_add_the_next_bits_at_each_step(
    bits, finite, bad, as_bool, bits_per_step, data
):
    """The stream against ``_memo_prefix_sums``: the same values, or the
    same error, and the same bits read in the same order, after each read."""

    def build(make):
        reads = []

        def bit(i):  # ``bits`` as ints or bools, repeated or up to a horizon,
            # with a 2 at ``bad``
            reads.append(i)
            b = bits[i % len(bits)] == "1" if bits else False
            return 2 if i == bad else b if as_bool else int(b)

        stream = BitStream(bit, len(bits) if finite else None, label=bits)
        return _read_outcome(lambda: make(stream, bits_per_step)), reads

    xs, reads = build(IncreasingDyadicStream.from_prefix_sums)
    memo, memo_reads = build(_memo_prefix_sums)
    if bits_per_step < 0:
        assert xs == memo == (
            ValueError, f"prefix sums need a step of 0 or more bits, got {bits_per_step}"
        )
        return
    assert (xs.label, xs.horizon, xs.eventually_constant) == (
        memo.label, memo.horizon, memo.eventually_constant
    )
    ops = data.draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("at"), st.integers(-1, 15)),  # in any order
                st.tuples(st.just("values"), st.integers(-2, 40)),
                st.tuples(  # n below, at and above bits_per_step * m
                    st.just("prefix_bits"), st.integers(-1, 15), st.integers(-8, 8)
                ),
            ),
            max_size=12,
        )
    )
    ops += [("at", -1)] + [("values", count) for count in range(-2, 41)]
    for op, *args in ops:
        if op == "prefix_bits":
            m, d = args
            args = [m, max(bits_per_step * m + d, 0)]
        got = _read_outcome(lambda: getattr(xs, op)(*args))
        assert got == _read_outcome(lambda: getattr(memo, op)(*args))
        assert reads == memo_reads


def _prefix_by_join(stream: BitStream, n: int) -> str:
    """The read ``BitStream.prefix`` replaced: every bit joined on every call."""
    return "".join(map(str, stream.values(n)))


def _read_outcome(read):
    try:
        return read()
    except (ValueError, HorizonExceeded) as e:
        return type(e), str(e)


# read -> (the read on the stream under test, the same read the old way)
BIT_READS = {
    "prefix": (BitStream.prefix, _prefix_by_join),
    "bit": (BitStream.bit, BitStream.bit),
    "values": (BitStream.values, BitStream.values),
}


@settings(max_examples=300, deadline=None)
@given(
    pattern=st.text("01", min_size=1, max_size=6),
    horizon=st.one_of(st.none(), st.integers(0, 40)),
    bad_at=st.one_of(st.none(), st.integers(0, 40)),
    reads=st.lists(
        st.tuples(st.sampled_from(sorted(BIT_READS)), st.integers(-5, 45)),
        min_size=1,
        max_size=20,
    ),
)
def test_bitstream_prefix_matches_the_join(pattern, horizon, bad_at, reads):
    def fn(i):
        return 2 if i == bad_at else int(pattern[i % len(pattern)])

    stream, oracle = BitStream(fn, horizon), BitStream(fn, horizon)
    for op, n in reads:
        new, old = BIT_READS[op]
        got = _read_outcome(lambda: new(stream, n))
        assert got == _read_outcome(lambda: old(oracle, n))
        if op != "prefix":
            continue
        if n <= 0:
            assert got == ""
        elif horizon is not None and n > horizon:
            assert got[0] is HorizonExceeded
        elif bad_at is not None and bad_at < n:
            assert got == (ValueError, f"stream produced non-bit 2 at index {bad_at}")


# ---------------------------------------------------------------------------
# the four replayable sequence classes
# ---------------------------------------------------------------------------

# class -> (constructor from fn, constructor from finite data, good value at k,
# [(bad value, least index where it is bad, the error it raises)])
SEQUENCES = {
    "bits": (
        BitStream,
        lambda vals: BitStream(vals.__getitem__, len(vals)),
        lambda k: k * k // 3 % 2,
        [(2, 0, ValueError)],
    ),
    "name": (
        NameStream,
        NameStream.from_list,
        lambda k: 3 * k % 7,
        [(-1, 0, ValueError)],
    ),
    "rate": (
        Modulus,
        Modulus.from_values,
        lambda k: k + 1,
        [(-1, 0, ValueError), (0, 1, MonotonicityViolation)],
    ),
    "increasing": (
        IncreasingDyadicStream,
        IncreasingDyadicStream.from_list,
        lambda k: ONE - half_power(k + 1),
        [
            (ONE + ONE, 0, RangeViolation),
            (ZERO - half_power(1), 0, RangeViolation),
            (ZERO, 1, MonotonicityViolation),
        ],
    ),
}


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(SEQUENCES)),
    queries=st.lists(st.integers(0, 60), min_size=1, max_size=20),
)
def test_sequences_compute_each_index_once_in_order(kind, queries):
    make, _, good, _ = SEQUENCES[kind]
    calls = []

    def fn(k):
        calls.append(k)
        return good(k)

    seq = make(fn)
    for i, k in enumerate(queries):
        if kind == "bits" and i % 2:  # bit streams are also read by prefix
            assert seq.prefix(k + 1) == "".join(str(good(j)) for j in range(k + 1))
        else:
            assert seq.at(k) == good(k)
    top = max(queries) + 1
    assert seq.values(top) == [good(k) for k in range(top)]
    if kind == "bits":
        assert seq.prefix(top) == "".join(str(good(k)) for k in range(top))
    assert calls == list(range(top))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(SEQUENCES)), data=st.data())
def test_sequences_reject_bad_indices_and_values(kind, data):
    make, finite, good, bads = SEQUENCES[kind]
    with pytest.raises(ValueError):
        make(good).at(data.draw(st.integers(-50, -1)))
    horizon = data.draw(st.integers(1, 20))
    with pytest.raises(HorizonExceeded):
        finite([good(k) for k in range(horizon)]).at(
            horizon + data.draw(st.integers(0, 20))
        )
    bad, first, error = data.draw(st.sampled_from(bads))
    j = data.draw(st.integers(first, 30))
    seq = make(lambda k: bad if k == j else good(k))
    with pytest.raises(error):
        seq.at(j + data.draw(st.integers(0, 10)))


# ---------------------------------------------------------------------------
# pattern streams against the memo
# ---------------------------------------------------------------------------

# spec kind -> (the library's constructor, the memo-backed constructor it
# replaced, a strategy for its field)
PATTERNS = {
    "periodic": (
        BitStream.periodic,
        lambda p: BitStream(lambda i: int(p[i % len(p)]), label=f"({p})*"),
        st.text("01", min_size=1, max_size=6),
    ),
    "bits": (
        BitStream.from_bits,
        lambda b: BitStream(lambda i: int(b[i]) if i < len(b) else 0, label=f"{b}0*"),
        st.text("01", max_size=6),
    ),
    "const": (
        BitStream.constant,
        lambda b: BitStream(lambda i: b, label=str(b) * 3 + "..."),
        st.integers(-3, 3),
    ),
}


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(PATTERNS)), data=st.data())
def test_pattern_streams_match_the_memo(kind, data):
    new, old, fields = PATTERNS[kind]
    field = data.draw(fields)
    stream, oracle = new(field), old(field)
    assert (stream.label, stream.horizon) == (oracle.label, None)
    got, want = _reads(stream), _reads(oracle)
    # at most six head bits and a cycle of at most six: 25 bits pass three cycles
    reads = st.tuples(st.sampled_from(["at", "bit", "prefix", "values"]), st.integers(-2, 25))
    ops = data.draw(st.lists(reads, max_size=20))  # in any order
    ops += [("at", -1), ("bit", -1)]
    ops += [(op, n) for op in ("prefix", "values") for n in range(-2, 26)]
    for op, n in ops:
        assert got(op, n) == want(op, n), (op, n)
    if kind != "const" or field in (0, 1):  # a pattern stream never fills the memo
        assert stream._memo == []
    step = data.draw(st.integers(0, 3))
    xs = IncreasingDyadicStream.from_prefix_sums(new(field), step)
    memo = IncreasingDyadicStream.from_prefix_sums(old(field), step)
    got, want = _reads(xs), _reads(memo)
    for t in data.draw(st.lists(st.integers(-1, 12), max_size=10)):
        assert got("at", t) == want("at", t)
    for count in range(-2, 13):
        assert got("values", count) == want("values", count)
    for m, n in data.draw(st.lists(st.tuples(st.integers(-1, 12), st.integers(0, 40)))):
        assert got("prefix_bits", m, n) == want("prefix_bits", m, n)


# ---------------------------------------------------------------------------
# formula sequences against the memo
# ---------------------------------------------------------------------------

# spec kind -> (the library's constructor, the memo-backed constructor it
# replaced, the number of fields)
FORMULAS = {
    "ap": (NameStream.affine, lambda a, b: NameStream(lambda k: a * k + b, label=f"{a}k+{b}"), 2),
    "affine": (Modulus.affine, lambda a, b: Modulus(lambda n: a * n + b, label=f"{a}n+{b}"), 2),
    "shift": (Modulus.shift, lambda c: Modulus(lambda n: n + c, label=f"n+{c}"), 1),
    "pow2": (
        Modulus.power2,
        lambda c: Modulus(lambda n: 1 << (n + c), label=f"2^(n+{c})"),
        1,
    ),
}


def _reads(seq):
    """``read(op, *args)``: what ``seq``'s method ``op`` returns on ``args``,
    or the type and message of the error it raises."""

    def read(op, *args):
        try:
            return getattr(seq, op)(*args)
        except (ValueError, MonotonicityViolation) as e:
            return type(e), str(e)

    return read


def _drawn(seq, k, n=20):
    """The first ``n`` values of ``seq.iter_from(k)``, or the type and
    message of the error asking for or drawing them raises."""
    try:
        return list(islice(seq.iter_from(k), n))
    except ValueError as e:
        return type(e), str(e)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(FORMULAS)), data=st.data())
def test_formula_sequences_match_the_memo(kind, data):
    new, old, arity = FORMULAS[kind]
    fields = data.draw(st.lists(st.integers(0, 12), min_size=arity, max_size=arity))
    seq, oracle = new(*fields), old(*fields)
    assert isinstance(seq, type(oracle))
    assert (seq.label, seq.horizon) == (oracle.label, None)
    got, want = _reads(seq), _reads(oracle)
    assert got("at", -1) == want("at", -1) == (ValueError, "sequence index must be a natural number")
    for k in data.draw(st.lists(st.integers(-1, 60), max_size=20)):  # in any order
        assert got("at", k) == want("at", k)
    for count in range(-2, 61):
        assert got("values", count) == want("values", count)
    for k in (-1, *data.draw(st.lists(st.integers(0, 60), max_size=5))):
        assert _drawn(seq, k) == _drawn(oracle, k)
    if kind != "ap":
        n_max, k = data.draw(st.integers(0, 20)), data.draw(st.integers(0, 20))
        assert seq.strictly_increasing_on(n_max) == oracle.strictly_increasing_on(n_max)
        assert seq.shifted(k).label == oracle.shifted(k).label
        assert seq.shifted(k).values(30) == oracle.shifted(k).values(30)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(FORMULAS)), data=st.data())
def test_formula_sequences_refuse_negative_fields_when_built(kind, data):
    new, old, arity = FORMULAS[kind]
    fields = data.draw(
        st.lists(st.integers(-12, 12), min_size=arity, max_size=arity).filter(
            lambda fs: min(fs) < 0
        )
    )
    label = old(*fields).label
    with pytest.raises(ValueError) as refused:
        new(*fields)
    what = "name" if kind == "ap" else "rate"
    assert str(refused.value) == f"{what} {label!r} needs natural fields"
    # the memo refused the same fields too, only later: at the first bad value
    with pytest.raises((ValueError, MonotonicityViolation)):
        old(*fields).values(max(map(abs, fields)) + 2)


def test_prefix_sums_settle_from_the_stage_that_holds_the_bits():
    xs = IncreasingDyadicStream.from_prefix_sums(BitStream.periodic("011"), 3)
    assert [xs.settled_from(n) for n in (0, 1, 3, 4, 16)] == [0, 1, 1, 2, 6]
    ones = IncreasingDyadicStream.from_prefix_sums(BitStream.periodic("1"), 3)
    for n in (1, 4, 16):
        m = xs.settled_from(n)
        assert len({xs.prefix_bits(m + k, n) for k in range(6)}) == 1
        # the stage before it still lacks a bit: ``ones`` shows it as a 0
        assert ones.settled_from(n) == m and "0" in ones.prefix_bits(m - 1, n)
    assert IncreasingDyadicStream.from_prefix_sums(BitStream.periodic("1"), 0).settled_from(9) == 0
    assert IncreasingDyadicStream.from_list([ZERO]).settled_from(4) is None

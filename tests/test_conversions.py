"""Both staged conversions: certified name -> covering family, and
certified approximation -> block name with computable rearrangement."""

import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import accumulate, combinations_with_replacement, product
from math import floor

import pytest
from hypothesis import example, given, settings, strategies as st

from leftreal import conversions, foundations, names
from leftreal.conversions import (
    CERTIFY_LEVELS,
    RateSpec,
    StageInterval,
    StageTrace,
    carry_counter,
    count_bound_check,
    lc_to_roc,
    roc_to_skt,
    tail_bound_check,
)
from leftreal.errors import HorizonExceeded, InvalidName, PreconditionRefuted, RateError
from leftreal.foundations import (
    BitStream,
    Dyadic,
    NatSetView,
    ONE,
    ZERO,
    floor_scale,
    half_power,
)
from leftreal.jsonio import parse_increasing, parse_name, parse_rate, trace_to_json
from leftreal.kraft_chaitin import kc_build_machine
from leftreal.machines import Budget, Interpreter
from leftreal.names import (
    CheckStatus,
    IncreasingDyadicStream,
    Modulus,
    NameStream,
    name_from_increasing,
    partial_sum,
    roc_certificate_check,
    strongly_lc,
    tail_weight,
)
from leftreal.randomness import TestKind, covers, level_weight, validate_family
from test_names import _memo_prefix_sums

TWO_THIRDS = Fraction(2, 3)


def frac(d: Dyadic) -> Fraction:
    return Fraction(d.num, 2**d.exp)


def two_thirds_pipeline(stages=400):
    f = NameStream.affine(2, 1)  # sums to 2/3
    rate = RateSpec(Modulus.shift(2))
    return f, rate, roc_to_skt(f, rate, stages)


# ---------------------------------------------------------------------------
# name -> family
# ---------------------------------------------------------------------------


def test_roc_to_skt_schedule_values():
    rate = RateSpec(Modulus.shift(2))
    assert [rate.s(n) for n in range(4)] == [6, 8, 10, 12]


def test_roc_to_skt_first_stage_selects_pointer_zero():
    _, rate, res = two_thirds_pipeline(stages=5)
    first = res.trace.intervals[0]
    assert first.m == 0 and first.length_exp == rate.s(0)
    assert frac(first.lo) == Fraction(1, 2)  # x_0 = 2^-1


def test_roc_to_skt_interval_endpoints_are_partial_sums():
    f, _, res = two_thirds_pipeline(stages=60)
    for iv in res.trace.intervals:
        assert iv.lo == partial_sum(f, iv.t)


def test_roc_to_skt_family_is_strong_kurtz_with_small_weights():
    _, rate, res = two_thirds_pipeline()
    fam = res.family
    assert fam.kind is TestKind.STRONG_KURTZ
    assert validate_family(fam, 3).consistent
    for n in range(4):
        w = level_weight(fam, n)
        assert frac(w) <= Fraction(1, 2**n)
        lengths = {len(s) for s in fam.level_list(n)}
        assert lengths <= {rate.s(n)}


def test_roc_to_skt_some_interval_contains_limit():
    _, rate, res = two_thirds_pipeline()
    for n in range(4):
        exp = rate.s(n)
        hits = [
            iv
            for iv in res.trace.intervals
            if iv.length_exp == exp
            and frac(iv.lo) < TWO_THIRDS < frac(iv.lo) + Fraction(1, 2**exp)
        ]
        assert hits, f"no stage interval of length 2^-{exp} contains 2/3"


def test_roc_to_skt_coverage_witness_at_each_level():
    _, _, res = two_thirds_pipeline()
    x = BitStream.periodic("10")  # expansion of 2/3
    for n in range(4):
        rep = covers(res.family, x, n)
        assert rep.covered


def test_roc_to_skt_count_bound():
    _, rate, res = two_thirds_pipeline()
    for n in range(4):
        chk = count_bound_check(res.trace, rate, n)
        assert chk.holds
        assert chk.bound == 1 << (rate.r.at(n + 2) + 1)


def test_count_bound_vacuous_beyond_levels():
    # 50 stages never reach the level-60 interval length s(60) = 126
    _, rate, res = two_thirds_pipeline(stages=50)
    chk = count_bound_check(res.trace, rate, 60)
    assert chk.holds and chk.count == 0


def test_count_bound_violated_by_injected_intervals():
    _, rate, res = two_thirds_pipeline(stages=50)
    exp = rate.s(1)
    bound = 1 << (rate.r.at(3) + 1)
    trace = res.trace
    assert trace.exps[1] == exp
    # bound + 1 more stages that reset index 1, each adding a thin term
    resets = trace.resets + [1] * (bound + 1)
    values = trace.values + [200] * (bound + 1)
    doctored = StageTrace(resets, trace.exps, values, len(resets))
    assert not count_bound_check(doctored, rate, 1).holds
    assert count_bound_check(doctored, rate, 1).count == trace.resets.count(1) + bound + 1


def test_roc_to_skt_rejects_bad_rate_start():
    f = NameStream.affine(2, 1)  # f(0) = 1
    with pytest.raises(RateError):
        roc_to_skt(f, RateSpec(Modulus.shift(0)), 50)


def test_roc_to_skt_rejects_names_summing_past_one():
    f = NameStream.affine(0, 1)  # every term is 2^-1, so x_2 = 3/2
    with pytest.raises(InvalidName):
        roc_to_skt(f, RateSpec(Modulus.shift(2)), 50)
    roc_to_skt(f, RateSpec(Modulus.shift(2)), 2)  # x_1 = 1 is still a valid sum


def test_roc_to_skt_refuted_certificate():
    # six terms of weight 2^-4 put 3/8 beyond position r(2) = 4, over 2^-2
    f = NameStream(lambda k: 1 if k == 0 else (4 if k <= 6 else 2 * k + 1))
    with pytest.raises(PreconditionRefuted):
        roc_to_skt(f, RateSpec(Modulus.shift(2)), 100)


def test_roc_to_skt_dyadic_shortcut_for_finite_names():
    res = roc_to_skt(NameStream.from_list([2, 3]), RateSpec(Modulus.shift(2)), 50)
    assert res.dyadic_shortcut and res.trace is None and res.family is None


def test_roc_to_skt_level_cells_computed_once(monkeypatch):
    _, rate, res = two_thirds_pipeline(stages=120)
    # s(n) for n >= 118 is past every interval: empty levels
    expected = _reference_levels(res.trace.intervals, rate, range(125))
    assert expected[-1] == [] and expected[0]
    built = []
    real = RateSpec.s
    monkeypatch.setattr(RateSpec, "s", lambda self, n: built.append(n) or real(self, n))
    for _ in range(2):
        assert [res.family.level_list(n) for n in range(125)] == expected
    assert built == list(range(125))  # each level built once, over two passes


def _reference_stage_loop(f, rate, stages):
    """The quadratic stage loop ``roc_to_skt`` replaced, with its checks.

    Each stage rescans pointer indices from 0 in ``Dyadic`` arithmetic.
    """
    sums = [ZERO]
    for v in f.values(stages):
        sums.append(sums[-1] + half_power(v))
    if sums[-1] > ONE:  # the sums increase: name the first past 1
        partial_sum(f, next(t for t, x in enumerate(sums[1:]) if x > ONE))
    r = rate.r
    if r.at(0) <= f.at(0):
        raise RateError(f"need r(0) > f(0): r(0)={r.at(0)}, f(0)={f.at(0)}")
    for n in range(9):
        chk = roc_certificate_check(f, r, n, stages)
        if chk.status is CheckStatus.REFUTED:
            raise PreconditionRefuted(
                f"tail certificate refuted at level {n}: "
                f"tail {chk.tail.num}/2^{chk.tail.exp} > 2^-{n}"
            )
    pointers = {}
    events = []
    intervals = []
    for t in range(stages):
        x_t = sums[t + 1]
        m = 0
        while True:
            window = x_t - sums[pointers.get(m, 0)]
            if window > half_power(rate.s(m)):
                break
            m += 1
            if m > t:
                raise AssertionError(
                    f"no pointer index qualified at stage {t + 1}; "
                    "the certified preconditions exclude this"
                )
        pointers[m] = t + 1
        events.append((m, t + 1, t + 1))
        intervals.append(StageInterval(t=t, lo=x_t, length_exp=rate.s(m), m=m))
    return intervals, events


def _trace_of(f, rate, stages):
    """The intervals and the artifact's pointer events, as the reference
    loop returns them."""
    trace = roc_to_skt(f, rate, stages).trace
    return trace.intervals, [tuple(e) for e in trace_to_json(trace)["p_events"]]


def _swapped_name():
    # 3, 2, 5, 4, 7, 6, ...: not monotone, sums to 1/2
    return NameStream(lambda k: (k ^ 1) + 2, label="swapped")


def _swapped_after_first_name():
    # 1, 4, 3, 6, 5, ...: f(0) is the least term and no two are equal, so
    # only their order keeps the name off the exponent loop
    return NameStream(lambda k: ((k + 1) ^ 1) + 1, label="swapped1")


def _sorted_name():
    # strictly increasing but no formula: gaps of 1, 3, 2, 1, 4 in turn
    values = list(accumulate(((1, 3, 2, 1, 4)[k % 5] for k in range(400)), initial=2))
    return NameStream(lambda k: values[k], label="sorted")


def _outcome(run):
    try:
        return run()
    except Exception as e:
        return type(e), str(e)


@settings(max_examples=200, deadline=None)
@given(
    name=st.one_of(
        st.builds("ap:{},{}".format, st.integers(1, 4), st.integers(1, 3)),
        st.just("swapped"),
        st.just("sorted"),
    ),
    rate=st.one_of(
        st.builds("shift:{}".format, st.integers(0, 4)),
        st.builds("affine:{},{}".format, st.integers(1, 3), st.integers(0, 4)),
        st.builds("pow2:{}".format, st.integers(0, 2)),
        st.builds("gap:{}>>{}".format, st.integers(0, 2), st.integers(0, 2)),
        st.builds(
            lambda vs: "values:" + ",".join(map(str, vs)),
            st.lists(st.integers(2, 40), min_size=9, max_size=14).map(sorted),
        ),
    ),
    stages=st.integers(1, 300),
)
# f(k) = k + 1, so max f = stages.  At stage 6 the weight to come, 2**-8,
# equals 2**-s(0): index 0 must not come due again
@example(name="ap:1,1", rate="shift:4", stages=8)
# s(0) = 6 > max f = 5: 2**-s(0) is 0 at the scale, and index 0 comes due
# at every next stage
@example(name="ap:1,1", rate="shift:2", stages=5)
# at stage 4 the weight to come, 3 * 2**-7, passes 2**-s(0) = 2 * 2**-7 on
# the filter's edge, w.bit_length() + s(0) == max f + 1: index 0 comes due
# at stage 6
@example(name="ap:1,1", rate="shift:2", stages=7)
# f(0) = 0 and a second term: the sum passes 1 at stage 1, named from the
# suffix sums although the exponents increase
@example(name="ap:1,0", rate="shift:2", stages=5)
@example(name="ap:2,1", rate="shift:2", stages=0)
@example(name="ap:2,1", rate="shift:2", stages=1)
# an increasing name read from a list, under a memo-backed rate
@example(name="sorted", rate="values:" + ",".join(str(2 * n + 3) for n in range(300)), stages=200)
@example(name="swapped1", rate="shift:3", stages=40)
def test_roc_to_skt_matches_quadratic_reference(name, rate, stages):
    def fresh():
        f = {"swapped": _swapped_name, "swapped1": _swapped_after_first_name, "sorted": _sorted_name}.get(
            name, lambda: parse_name(name)
        )()
        return f, RateSpec(parse_rate(rate))

    new = lambda: _trace_of(*fresh(), stages)
    assert _outcome(new) == _outcome(lambda: _reference_stage_loop(*fresh(), stages))


def _stepped_name(d, c, jitter=(0,)):
    """``f(k) = k // d + c + jitter[k % len(jitter)]``: ``d`` terms per
    exponent, so early windows fill again and pointer indices are reused."""
    return NameStream(lambda k: k // d + c + jitter[k % len(jitter)], label="stepped")


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 8),
    c=st.integers(1, 6),
    jitter=st.lists(st.integers(0, 3), min_size=1, max_size=5),
    shift=st.integers(-1, 4),  # r(0) - f(0) - 1: -1 fails the rate check
    affine=st.integers(0, 3),  # 0 for shift:b, else affine:a,b
    stages=st.integers(1, 200),
)
def test_roc_to_skt_matches_reference_on_resetting_names(d, c, jitter, shift, affine, stages):
    b = c + jitter[0] + 1 + shift
    spec = f"affine:{affine},{b}" if affine else f"shift:{b}"

    def run(loop):
        return _outcome(lambda: loop(_stepped_name(d, c, jitter), RateSpec(parse_rate(spec)), stages))

    assert run(_trace_of) == run(_reference_stage_loop)


def test_roc_to_skt_reuses_pointer_indices():
    # 2, 2, 3, 3, 4, 4, ... under shift:3: index 0 is reset at each of the
    # first ten stages, then indices come due again at every few stages
    f, rate = _stepped_name(2, 2), RateSpec(Modulus.shift(3))
    intervals, events = _trace_of(f, rate, 60)
    ms = [iv.m for iv in intervals]
    assert ms[:14] == [0] * 10 + [1, 0, 1, 1]
    assert len(set(ms)) < len(ms) // 3
    assert (intervals, events) == _reference_stage_loop(_stepped_name(2, 2), rate, 60)


# (label, rate) for the exponent rule's grid: formula rates and memo-backed ones
EXPONENT_RATES = [
    *((f"shift:{c}", lambda c=c: Modulus.shift(c)) for c in range(1, 5)),
    *((f"affine:{a},{b}", lambda a=a, b=b: Modulus.affine(a, b)) for a, b in ((2, 3), (3, 2))),
    ("n+3 (memo)", lambda: Modulus(lambda n: n + 3, label="n+3")),
    ("3n+2 (memo)", lambda: Modulus(lambda n: 3 * n + 2, label="3n+2")),
]


def test_roc_to_skt_exponent_rule_matches_reference():
    # ap:a,b with a >= 1 strictly increases, so the index reset at stage t
    # is due again at t+1 when f(t+1) < s(m), at t+2 when they are equal
    # and a term follows, and never otherwise; the grid reaches every case
    rules = Counter()
    for (a, b), (label, rate), stages in product(
        product(range(1, 4), range(1, 4)), EXPONENT_RATES, range(1, 25)
    ):
        def run(loop):
            return _outcome(lambda: loop(NameStream.affine(a, b), RateSpec(rate()), stages))

        got = run(_trace_of)
        assert got == run(_reference_stage_loop), (a, b, label, stages)
        if isinstance(got[0], type):
            continue
        for iv in got[0][:-1]:
            g = a * (iv.t + 1) + b
            if g < iv.length_exp:
                rules["due at t+1"] += 1
            elif g > iv.length_exp:
                rules["never"] += 1
            else:
                rules["due at t+2" if iv.t + 2 < stages else "equal, no term follows"] += 1
    assert sorted(rules) == ["due at t+1", "due at t+2", "equal, no term follows", "never"], rules


def test_roc_to_skt_reads_the_rate_lazily(monkeypatch):
    def run(entries):
        spec = "values:" + ",".join(str(n + 2) for n in range(entries))
        return roc_to_skt(parse_name("ap:2,1"), RateSpec(parse_rate(spec)), 50)

    # s(47) reads r(49): 50 entries cover the 48 indices used, 49 do not
    assert max(iv.m for iv in run(50).trace.intervals) == 47
    with pytest.raises(HorizonExceeded, match=r" queried at 49 beyond horizon 49$"):
        run(49)

    # the loop draws s(m) = r(m + 2) + m + 2 from r.iter_from(2), once per
    # index, after the gate's reads of r(0) and r(0..8)
    for f, stages in ((parse_name("ap:2,1"), 50), (_stepped_name(2, 2), 60)):
        # a memo-backed rate is read through its own ``at``
        calls = []
        r = Modulus(lambda n: n + 3, label="n+3")
        real = r.at
        monkeypatch.setattr(r, "at", lambda n: calls.append(n) or real(n))
        res = roc_to_skt(f, RateSpec(r), stages)
        used = sorted({iv.m for iv in res.trace.intervals})
        # once per index, in the order first reached
        assert calls == [0, *range(CERTIFY_LEVELS + 1), *(m + 2 for m in used)]

        # a formula rate's iterator is asked for once and drawn once per index
        asked, drawn = [], []
        r = Modulus.shift(3)
        real_iter = r.iter_from

        def counted(k):
            asked.append(k)
            return map(lambda v: drawn.append(v) or v, real_iter(k))

        monkeypatch.setattr(r, "iter_from", counted)
        res = roc_to_skt(f, RateSpec(r), stages)
        assert asked == [2]
        assert drawn == [r.at(m + 2) for m in range(len(res.trace.exps))]


def test_roc_to_skt_builds_no_dyadic(monkeypatch):
    def refuse(*args):
        raise AssertionError("roc_to_skt built a Dyadic")

    for f, rate in (
        (parse_name("ap:2,1"), RateSpec(Modulus.shift(2))),
        (_stepped_name(2, 2), RateSpec(Modulus.shift(3))),  # reuses indices
    ):
        with monkeypatch.context() as patch:
            patch.setattr(conversions, "Dyadic", refuse)
            res = roc_to_skt(f, rate, 200)
            levels = [res.family.level_list(n) for n in range(4)]
        # the trace builds each canonical partial sum when read, once Dyadic is back
        intervals = res.trace.intervals
        assert [iv.lo for iv in intervals] == [partial_sum(f, t) for t in range(200)]
        assert levels == _reference_levels(intervals, rate, range(4))


# one name per stage pattern, then the resetting names of _stepped_name
PINNED_NAMES = ["ap:2,1", "ap:3,1", (2, 2), (2, 2, (0, 1))]
PINNED_RATES = [
    "shift:3",
    "affine:2,3",
    "pow2:2",
    "values:" + ",".join(str(n + 4) for n in range(200)),
]


@pytest.mark.parametrize("rate_spec", PINNED_RATES, ids=lambda spec: spec.split(",")[0])
@pytest.mark.parametrize("name", PINNED_NAMES, ids=str)
def test_roc_to_skt_inlined_s_matches_rate_s(name, rate_spec):
    f = parse_name(name) if isinstance(name, str) else _stepped_name(*name)
    rate = RateSpec(parse_rate(rate_spec))
    intervals = roc_to_skt(f, rate, 150).trace.intervals
    assert len(intervals) == 150 and len({iv.m for iv in intervals}) > 1
    assert all(iv.length_exp == rate.s(iv.m) for iv in intervals)


def test_count_bound_counts_the_intervals_of_each_length():
    # the count over the trace's columns equals the count over its intervals
    for name in PINNED_NAMES:
        for rate_spec in PINNED_RATES:
            f = parse_name(name) if isinstance(name, str) else _stepped_name(*name)
            rate = RateSpec(parse_rate(rate_spec))
            trace = roc_to_skt(f, rate, 150).trace
            intervals = trace.intervals
            for n in range(13):
                count = sum(iv.length_exp == rate.s(n) for iv in intervals)
                assert count_bound_check(trace, rate, n).count == count


def _greedy_head(exps, bound=1):
    """The terms of ``exps`` kept in order while the sum stays at most ``bound``."""
    head, total = [], Fraction(0)
    for e in exps:
        if total + Fraction(1, 1 << e) <= bound:
            head.append(e)
            total += Fraction(1, 1 << e)
    return head


@settings(max_examples=200, deadline=None)
@given(exps=st.lists(st.integers(1, 6), min_size=1, max_size=40).map(_greedy_head))
@example(exps=[2, 2, 2, 2])  # x reaches exactly 1: lo = 1/1
@example(exps=[3, 3, 2, 4, 4, 3, 5, 5, 4])  # two carries per block
@example(exps=[2, 2, 3, 3, 4, 4, 5, 5, 6, 6])
def test_roc_to_skt_lo_is_canonical_across_carries(exps):
    # the tail beyond the head is too light for any certificate to refute
    f = NameStream(lambda k: exps[k] if k < len(exps) else k + 40)
    intervals = roc_to_skt(f, RateSpec(Modulus.shift(7)), len(exps)).trace.intervals
    scale = max(exps)
    x = 0
    for iv, e in zip(intervals, exps):
        x += 1 << (scale - e)
        assert iv.lo.num % 2 == 1 and iv.lo == Dyadic.of(x, scale)  # 0 < x <= 1


def _ten_scan_gate(f, rate, stages):
    """The gate ``roc_to_skt`` ran before its weight ledger: one scan of the
    name for the partial sum, the rate check, then one scan per level."""

    def scan(m0, upto):
        return sum((half_power(v) for v in f.values(upto + 1) if v >= m0), ZERO)

    if scan(0, stages - 1) > ONE:  # the sums increase: name the first past 1
        t = next(t for t in range(stages) if scan(0, t) > ONE)
        raise InvalidName(f"partial sum of {f.label or '?'} exceeds 1 at stage {t}: {scan(0, t)}")
    r = rate.r
    if r.at(0) <= f.at(0):
        raise RateError(f"need r(0) > f(0): r(0)={r.at(0)}, f(0)={f.at(0)}")
    for n in range(9):
        tail = scan(r.at(n), stages)
        if tail > half_power(n):
            raise PreconditionRefuted(
                f"tail certificate refuted at level {n}: "
                f"tail {tail.num}/2^{tail.exp} > 2^-{n}"
            )


def _block_name(level, count):
    """``f(0) = 2``, then ``count`` terms at ``level + 3``, then a thin tail.

    Under ``shift:3`` nine terms weigh ``9 * 2**-(level + 3)``: above
    ``2**-level``, yet at most ``2**-n`` for every ``n < level``, so
    ``level`` is the least refuted level.  Level 0 cannot be refuted once
    the other checks pass: the tail beyond ``r(0) > f(0)`` is under
    ``1 - 2**-f(0) + 2**-r(0) < 1``.
    """
    return NameStream(
        lambda k: 2 if k == 0 else level + 3 if k <= count else 3 * k + 40
    )


@pytest.mark.parametrize("level", range(1, 9))
def test_roc_to_skt_refutes_the_least_failing_level(level):
    known = ",".join(str(n + 3) for n in range(level))  # shift:3 below level
    outcomes = {
        "shift:3": PreconditionRefuted,
        f"values:{known},{level + 3}": PreconditionRefuted,  # r(level + 1) unknown
        f"values:{known}": HorizonExceeded,  # r(level) unknown
    }
    for spec, error in outcomes.items():
        with pytest.raises(error) as got:
            roc_to_skt(_block_name(level, 9), RateSpec(parse_rate(spec)), 40)
        if error is PreconditionRefuted:
            assert f"at level {level}: " in str(got.value)
        rate = RateSpec(parse_rate(spec))
        old = lambda: _ten_scan_gate(_block_name(level, 9), rate, 40)
        assert _outcome(old) == (error, str(got.value))
    # up to stage 8, eight terms weigh exactly the bound, which holds
    assert roc_to_skt(_block_name(level, 8), RateSpec(Modulus.shift(3)), 8).family


def _rarely(rare, common):
    """``rare`` about one time in ten, else ``common``.  Hypothesis draws
    an integer's least value about a third of the time, so ``rare`` is
    taken on the greatest."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 7 else common)


# r(0) <= 1 leaves f(0) no room below r(0) but a first term of weight 1,
# so those rates are drawn rarely
GATE_R0 = _rarely(st.integers(0, 1), st.integers(2, 4))
GATE_RATES = st.one_of(
    st.builds("shift:{}".format, GATE_R0),
    st.builds("affine:{},{}".format, st.integers(1, 3), GATE_R0),
    # rates shorter than the nine certified levels fail part way
    st.builds(
        lambda vs: "values:" + ",".join(map(str, vs)),
        _rarely(st.integers(1, 30), st.integers(2, 30)).flatmap(
            lambda v: st.lists(st.integers(v, 30), min_size=1, max_size=12)
        ).map(sorted),
    ),
)
# rates under which a head can refute any level n: r(0) >= 2 leaves f(0) =
# r(0) - 1 room below 1, and r(n) - n <= 5 keeps the 2^(r(n) - n) + 1 terms
# that refute level n within 33.  A constant rate needs c >= 3: under c = 2
# every level's head pushes the sum past 1.
REFUTABLE_RATES = st.one_of(
    st.builds("shift:{}".format, st.integers(2, 5)),
    st.builds("affine:1,{}".format, st.integers(2, 5)),
    st.builds("affine:0,{}".format, st.integers(3, 5)),
    # min(v, n + 5) over sorted v >= 2 stays monotone; three values or more,
    # as a rate known at levels 0 and 1 alone may have no level whose head
    # refutes it and keeps the sum below 1
    st.lists(st.integers(2, 16), min_size=3, max_size=12).map(
        lambda vs: "values:"
        + ",".join(str(min(v, n + 5)) for n, v in enumerate(sorted(vs)))
    ),
)


@settings(max_examples=300, deadline=None)
@given(refute=st.booleans(), stages=st.integers(0, 40), data=st.data())
def test_roc_to_skt_gate_matches_ten_scans(refute, stages, data):
    rate = data.draw(REFUTABLE_RATES if refute else GATE_RATES)
    r = parse_rate(rate)
    r0 = r.at(0)
    top = 8 if r.horizon is None else min(8, r.horizon - 1)
    if refute:
        # a head refuting a drawn level n, as _block_name builds it: f(0) =
        # r(0) - 1, then 2^(r(n) - n) + 1 terms at r(n), which weigh past
        # 2^-n, then a thin tail; it refutes when the stages reach those
        # terms and the sum stays at most 1, so never at level 0; n is drawn
        # among the levels whose head keeps the sum below 1 (not level 1
        # when f(0) = 1, say)
        def head_of(n):
            return [r0 - 1] + [r.at(n)] * ((1 << max(r.at(n) - n, 0)) + 1)

        fits = [n for n in range(1, top + 1)
                if sum(Fraction(1, 1 << e) for e in head_of(n)) < 1]
        head = head_of(data.draw(st.sampled_from(fits or [min(1, top)])))
        stages = max(stages, len(head) - 1)
        a, b = 3, 40
    else:
        # f(0) in [r(0) - 2, r(0) - 1], or rarely r(0), then
        # repeats of a few exponents in [r(0), r(8)] with up to three terms
        # just below r(0) at any k > 0: sums past 1, r(0) <= f(0), terms on
        # a threshold and tails past 2^-n all occur
        pool = data.draw(st.lists(st.integers(r0, r.at(top)), min_size=1, max_size=3))
        head = data.draw(st.lists(st.sampled_from(pool), max_size=32))
        if r0:
            for e in data.draw(st.lists(st.integers(max(r0 - 2, 0), r0 - 1), max_size=3)):
                head.insert(data.draw(st.integers(0, len(head))), e)
        head.insert(0, data.draw(
            _rarely(st.just(r0), st.integers(max(r0 - 2, 0), max(r0 - 1, 0)))
        ))
        # seven heads in eight keep their sum at most 1 - 2^-max(head), and
        # a constant tail starts six past the head's exponents: its at most
        # 41 terms weigh under 2^-max(head), so the sum stays below 1 and
        # most examples reach the rate check and the certificates
        if data.draw(st.integers(0, 7)):
            head = _greedy_head(head, 1 - Fraction(1, 1 << max(head)))
        a = data.draw(st.integers(0, 3))
        low = r0 if a else max(head, default=r0) + 6
        b = data.draw(st.integers(low, low + 9))

    def fresh():
        f = NameStream(lambda k: head[k] if k < len(head) else a * k + b, label="head")
        return f, RateSpec(parse_rate(rate))

    def old():
        _ten_scan_gate(*fresh(), stages)
        return _reference_stage_loop(*fresh(), stages)

    assert _outcome(lambda: _trace_of(*fresh(), stages)) == _outcome(old)


def _reference_levels(intervals, rate, levels):
    """Each level's strings from the reference intervals: the cells of
    size ``2**-s(n)`` whose closed interval meets an interval of that
    length, in exact fractions."""
    out = []
    for n in levels:
        exp = rate.s(n)
        cells = set()
        for iv in intervals:
            if iv.length_exp == exp:
                at = frac(iv.lo) * 2**exp  # the cell [j, j + 1] meets ]at, at + 1[
                cells.update(j for j in (floor(at), floor(at) + 1)
                             if j - 1 < at < j + 1 and j < 1 << exp)
        out.append([format(j, f"0{exp}b") for j in sorted(cells)])
    return out


def _canonical(x, scale):
    """``(num, exp)`` of ``x / 2**scale`` in lowest terms, ``(0, 0)`` for 0."""
    z = min(scale, (x & -x).bit_length() - 1) if x else scale
    return x >> z, scale - z


def _integer_reference(f, rate, stages):
    """``_ten_scan_gate`` then ``_reference_stage_loop`` in integers.

    Each sum is an integer at the scale ``2**-scale`` of its smallest
    term, each tail is a fresh scan of the name, and each stage still
    rescans the pointer indices from 0, comparing ``window * 2**s(m)``
    with ``2**scale``.
    """
    values = f.values(stages + 1)
    scale = max(values[:stages])
    total = 0
    for t, v in enumerate(values[:stages]):  # the sums increase: name the first past 1
        total += 1 << (scale - v)
        if total > 1 << scale:
            num, exp = _canonical(total, scale)
            raise InvalidName(
                f"partial sum of {f.label or '?'} exceeds 1 at stage {t}: {num}/2^{exp}"
            )
    r = rate.r
    if r.at(0) <= f.at(0):
        raise RateError(f"need r(0) > f(0): r(0)={r.at(0)}, f(0)={f.at(0)}")
    top = max(values)
    for n in range(9):
        m0 = r.at(n)
        tail = sum(1 << (top - v) for v in values if v >= m0)
        if tail << n > 1 << top:
            num, exp = _canonical(tail, top)
            raise PreconditionRefuted(
                f"tail certificate refuted at level {n}: tail {num}/2^{exp} > 2^-{n}"
            )
    one = 1 << scale
    sums = [0]
    pointers = {}
    exps = []  # s(m), read when the scan first reaches m
    events = []
    intervals = []
    for t in range(stages):
        x = sums[-1] + (1 << (scale - values[t]))
        sums.append(x)
        m = 0
        while True:
            if m == len(exps):
                exps.append(rate.s(m))
            if (x - sums[pointers.get(m, 0)]) << exps[m] > one:
                break
            m += 1
            if m > t:
                raise AssertionError(f"no pointer index qualified at stage {t + 1}")
        pointers[m] = t + 1
        events.append((m, t + 1, t + 1))
        intervals.append(StageInterval(t, Dyadic(*_canonical(x, scale)), exps[m], m))
    return intervals, events


# every head of up to four terms from 2**-1, 2**-2, 2**-3 summing to at most
# 1, each followed by every tail a*k + b
GRID_HEADS = [
    head
    for size in range(5)
    for head in combinations_with_replacement(range(1, 4), size)
    if sum(Fraction(1, 1 << e) for e in head) <= 1
]
GRID_TAILS = [(a, b) for a in range(4) for b in range(9)]
GRID_RATES = ["shift:2", "affine:2,3", "pow2:1", "values:" + ",".join(map(str, range(2, 11)))]
GRID_STAGES = [2, 9, 30, 40]


def test_roc_to_skt_matches_reference_on_a_bounded_grid():
    outcomes = Counter()
    for head, (a, b), spec, stages in product(GRID_HEADS, GRID_TAILS, GRID_RATES, GRID_STAGES):
        def fresh():
            f = NameStream(lambda k: head[k] if k < len(head) else a * k + b, label="head")
            return f, RateSpec(parse_rate(spec))

        def new():
            f, rate = fresh()
            res = roc_to_skt(f, rate, stages)
            levels = _outcome(lambda: [res.family.level_list(n) for n in range(4)])
            return _trace_of(f, rate, stages), levels

        def old():
            f, rate = fresh()
            intervals, events = _integer_reference(f, rate, stages)
            levels = _outcome(lambda: _reference_levels(intervals, rate, range(4)))
            return (intervals, events), levels

        got = _outcome(new)
        assert got == _outcome(old), (head, a, b, spec, stages)
        outcomes[got[0].__name__ if isinstance(got[0], type) else "trace"] += 1
    classes = ["trace", "RateError", "PreconditionRefuted", "InvalidName", "HorizonExceeded"]
    assert sorted(outcomes) == sorted(classes) and all(outcomes.values())


def test_roc_to_skt_builds_no_record(monkeypatch):
    for f, rate, limit in (
        (parse_name("ap:2,1"), RateSpec(Modulus.shift(2)), BitStream.periodic("10")),
        (_stepped_name(2, 2), RateSpec(Modulus.shift(3)), None),  # reuses indices
    ):
        with monkeypatch.context() as patch:
            patch.setattr(conversions, "StageInterval", None)  # so building one fails
            res = roc_to_skt(f, rate, 300)
            assert validate_family(res.family, 3).consistent
            if limit is not None:
                assert all(covers(res.family, limit, n).covered for n in range(4))
            with pytest.raises(TypeError):
                res.trace.intervals
        assert len(res.trace.intervals) == 300
    # one small int per stage (and per index): the trace is linear in its stages
    trace = roc_to_skt(parse_name("ap:2,1"), RateSpec(Modulus.shift(2)), 2000).trace
    assert len(trace.resets) == len(trace.values) == 2000 >= len(trace.exps)
    assert all(v.bit_length() < 64 for col in trace[:3] for v in col)


def test_roc_to_skt_memory_at_20000_stages():
    # the family keeps its own running sum, read only when a level is
    for f, rate, peak_bound in (
        # exponents that strictly increase: the loop holds small ints only
        (parse_name("ap:2,1"), Modulus.shift(2), 10e6),
        # any other name: one list of suffix sums, of about 2 * (stages - t)
        # bits each, dropped on return
        (_stepped_name(2, 2), Modulus.shift(3), 70e6),
    ):
        gc.collect()
        tracemalloc.start()
        try:
            res = roc_to_skt(f, RateSpec(rate), 20000)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.trace.resets) == 20000
        assert peak < peak_bound and kept < 5e6, (f.label, peak, kept)


def test_roc_to_skt_gate_memory_on_a_sparse_name():
    # ap:1,20000000 strictly increases: the gate's digit string runs from
    # f(0) to max f, a few bytes, not 20,000,001 (a 20 MB bytearray);
    # 1 << max f alone is 2.5 MB
    for stages in (1, 4, 64):
        gc.collect()
        tracemalloc.start()
        try:
            res = roc_to_skt(NameStream.affine(1, 20000000), RateSpec(Modulus.shift(20000001)), stages)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.trace.resets) == stages
        assert peak < 10e6, (stages, peak)


def test_roc_to_skt_reads_the_name_once(monkeypatch):
    def refuse(*args):
        raise AssertionError("roc_to_skt summed the name outside tail_sums")

    for name in ("partial_sum", "tail_weight", "roc_certificate_check"):
        monkeypatch.setattr(names, name, refuse)
    monkeypatch.setattr(conversions, "tail_weight", refuse)
    monkeypatch.setattr(foundations, "dyadic_weight", refuse)
    calls = []
    tail_sums = names.tail_sums
    monkeypatch.setattr(
        conversions, "tail_sums", lambda *args: calls.append(args) or tail_sums(*args)
    )
    _, _, res = two_thirds_pipeline(stages=300)
    assert len(res.trace.intervals) == 300
    assert all(type(iv) is StageInterval for iv in res.trace.intervals)
    assert len(calls) == 1  # the nine tails in one call
    # the sum check reads the loop's integer sums and names the first sum
    # past 1, with partial_sum's message
    with pytest.raises(InvalidName, match=r"^partial sum of 0k\+1 exceeds 1 at stage 2: 3/2\^1$"):
        roc_to_skt(NameStream.affine(0, 1), RateSpec(Modulus.shift(2)), 50)


# spec kind -> (the library's rate constructor, the memo-backed one it
# replaced, the number of fields); ``_memo_name`` is the replaced ``ap:a,b``
MEMO_RATES = {
    "shift": (Modulus.shift, lambda c: Modulus(lambda n: n + c, label=f"n+{c}"), 1),
    "affine": (Modulus.affine, lambda a, b: Modulus(lambda n: a * n + b, label=f"{a}n+{b}"), 2),
    "pow2": (Modulus.power2, lambda c: Modulus(lambda n: 1 << (n + c), label=f"2^(n+{c})"), 1),
}


def _memo_name(a, b):
    return NameStream(lambda k: a * k + b, label=f"{a}k+{b}")


@settings(max_examples=200, deadline=None)
@given(
    a=st.integers(0, 4),
    b=st.integers(0, 4),
    kind=st.sampled_from(sorted(MEMO_RATES)),
    data=st.data(),
    stages=st.integers(0, 300),
)
def test_roc_to_skt_same_on_formula_and_memo_inputs(a, b, kind, data, stages):
    new, old, arity = MEMO_RATES[kind]
    fields = data.draw(st.lists(st.integers(0, 5), min_size=arity, max_size=arity))

    def run(name, rate):
        def go():
            res = roc_to_skt(name(a, b), RateSpec(rate(*fields)), stages)
            levels = [res.family.level_list(n) for n in range(3)]
            return res.trace, res.family.meta, levels
        return _outcome(go)

    assert run(NameStream.affine, new) == run(_memo_name, old)


def test_formula_rates_and_names_skip_the_memo(monkeypatch):
    at = foundations.Replayable.at

    def memo_at(self, k):
        if isinstance(self, (Modulus, NameStream)):
            raise AssertionError("a rate or name was read through the memo")
        return at(self, k)

    monkeypatch.setattr(foundations.Replayable, "at", memo_at)
    with pytest.raises(AssertionError):
        Modulus.from_values([3, 4]).at(0)
    res = roc_to_skt(NameStream.affine(2, 1), RateSpec(Modulus.shift(2)), 300)
    assert len(res.trace.intervals) == 300 and res.family.level_list(3)
    _, _, res = third_pipeline()  # lc_to_roc under Modulus.power2(4)
    assert res.complete and res.s_values == [0, 8, 16, 32, 64]


def test_lc_to_roc_reads_prefix_sums_without_the_memo(monkeypatch):
    at = foundations.Replayable.at

    def memo_at(self, k):
        if isinstance(self, IncreasingDyadicStream):
            raise AssertionError("an approximation was read through the memo")
        return at(self, k)

    monkeypatch.setattr(foundations.Replayable, "at", memo_at)
    with pytest.raises(AssertionError):
        IncreasingDyadicStream.from_list([ZERO]).at(0)
    xs = IncreasingDyadicStream.from_prefix_sums(BitStream.periodic("01"), 2)
    res = lc_to_roc(xs, Modulus.power2(4), Interpreter(), Budget(22, 10**4), 900, 6)
    assert res.s_values == [0, 8, 16, 32, 64] and res.exhausted_at == 5


# ---------------------------------------------------------------------------
# approximation -> name
# ---------------------------------------------------------------------------


def third_approximants() -> IncreasingDyadicStream:
    # x_t = value of the first 2t bits of 0.010101... (one period per step)
    return IncreasingDyadicStream.from_prefix_sums(
        BitStream.periodic("01"), bits_per_step=2, label="third"
    )


def third_pipeline(n_max=4, stages=200):
    xs = third_approximants()
    r = Modulus.power2(4)  # 2^(n+4): the measured repeat constant fits
    return xs, r, lc_to_roc(xs, r, Interpreter(), Budget(22, 10**4), stages, n_max)


def test_lc_to_roc_stage_values_for_third():
    _, _, res = third_pipeline()
    assert res.complete
    assert res.s_values == [0, 8, 16, 32, 64]


def test_lc_to_roc_block_sums_reconstruct_stream():
    xs, _, res = third_pipeline()
    f = res.name
    for t, s_t in enumerate(res.s_values):
        upto = f.block_boundaries[t] - 1
        assert partial_sum(f, upto) == xs.at(s_t)


def test_lc_to_roc_blocks_strictly_increase_inside():
    _, _, res = third_pipeline()
    f = res.name
    bounds = f.block_boundaries
    for a, b in zip(bounds, bounds[1:]):
        block = f.values(b)[a:b]
        assert block == sorted(block) and len(set(block)) == len(block)


def test_lc_to_roc_tail_bounds_hold():
    _, r, res = third_pipeline()
    for n in range(4):
        chk = tail_bound_check(res.name, r, n)
        assert chk.holds
        assert frac(chk.bound) == Fraction(n + 1, 2**n)


def test_lc_to_roc_carry_contract():
    _, r, res = third_pipeline()
    for n in range(4):
        trace = carry_counter(res.name, r.at(n))
        assert trace.max_step <= 1
        assert trace.values == sorted(trace.values)


def test_lc_to_roc_dyadic_shortcut():
    xs = IncreasingDyadicStream.from_list(
        [ZERO, Dyadic.of(1, 2), Dyadic.of(3, 3)], extend=True
    )
    res = lc_to_roc(xs, Modulus.shift(4), Interpreter(), Budget(12, 100), 20, 2)
    assert res.dyadic_shortcut


def test_lc_to_roc_search_exhausted_on_incompressible_stream():
    rng = random.Random(99)
    bits = "".join(rng.choice("01") for _ in range(64))
    xs = IncreasingDyadicStream.from_prefix_sums(BitStream.from_bits(bits))
    res = lc_to_roc(xs, Modulus.shift(2), Interpreter(), Budget(14, 10**4), 30, 3)
    assert res.exhausted_at == 1
    assert res.s_values == [0]


def _reference_lc_to_roc(xs, r, machine, budget, stages, n_max):
    """The stage search ``lc_to_roc`` replaced: every level of every stage
    asks ``complexity`` again, on a fresh prefix of ``xs(m)``."""
    if xs.at(0) != ZERO:
        raise ValueError("approximation must start at 0")
    if not r.strictly_increasing_on(n_max):
        raise RateError("rate must be strictly increasing on the search range")
    s_values = [0]
    exhausted_at = None
    for n in range(n_max):
        found = None
        for m in range(s_values[-1] + 1, stages + 1):
            ok = all(
                conversions.complexity(
                    machine, xs.at(m).prefix_bits(r.at(k)), budget
                ).at_most(r.at(k) - k)
                for k in range(n + 1)
            )
            if ok:
                found = m
                break
        if found is None:
            exhausted_at = n + 1
            break
        s_values.append(found)
    blocks = IncreasingDyadicStream.from_list([xs.at(v) for v in s_values])
    name = name_from_increasing(blocks, len(s_values) - 1)
    return s_values, exhausted_at, name


def _lc_summary(s_values, exhausted_at, name):
    return s_values, exhausted_at, name.values(name.length), name.block_boundaries


LC_RATES = {
    "shift": lambda: Modulus.shift(6),
    "affine": lambda: Modulus.affine(4, 8),
    "pow2": lambda: Modulus.power2(4),
    "not-increasing": lambda: Modulus.from_values([16, 20, 20, 24, 28, 32, 36]),
    "short": lambda: Modulus.from_values([16, 32, 64]),
}


@settings(max_examples=300, deadline=None)
@given(
    stream=st.one_of(
        st.builds(BitStream.periodic, st.text("01", min_size=1, max_size=4)),
        st.builds(BitStream.from_bits, st.text("01", max_size=24)),
        st.builds(  # read through the memo and the base ``prefix_bits``
            NatSetView.from_elements,
            st.lists(st.integers(0, 30), unique=True, max_size=8),
            st.just(31),
        ),
    ),
    step=st.integers(0, 3),
    rate=st.sampled_from(sorted(LC_RATES)),
    table=st.one_of(
        st.none(), st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2)), max_size=4)
    ),
    budget=st.builds(
        Budget, st.integers(12, 24), st.one_of(st.just(10**4), st.integers(4, 60))
    ),
    n_max=st.integers(0, 6),
    stages=st.integers(0, 300),
)
@example(  # level 0 meets a new prefix, costing r(0) + 1, in the level-1 search
    stream=BitStream.periodic("01"),
    step=1,
    rate="affine",
    table=[(1, 0), (2, 1), (40, 2), (2, 0)],
    budget=Budget(22, 10**4),
    n_max=2,
    stages=20,
)
def test_lc_to_roc_matches_reference_search(
    stream, step, rate, table, budget, n_max, stages
):
    def approximants(prefix_sums):
        if isinstance(stream, NatSetView):
            return strongly_lc(stream)
        return prefix_sums(stream, step)

    aux = ()
    if table is not None:  # cheap calls that print x_m's prefix at level k
        xs, r = approximants(_memo_prefix_sums), LC_RATES[rate]()
        aux = (
            kc_build_machine(
                [(i + 3, xs.at(m).prefix_bits(r.at(k))) for i, (m, k) in enumerate(table)]
            ),
        )
    machine = Interpreter(aux=aux)

    def run(search, prefix_sums):
        xs = approximants(prefix_sums)
        return search(xs, LC_RATES[rate](), machine, budget, stages, n_max)

    def fast():
        res = run(lc_to_roc, IncreasingDyadicStream.from_prefix_sums)
        return _lc_summary(res.s_values, res.exhausted_at, res.name)

    def reference():
        return _lc_summary(*run(_reference_lc_to_roc, _memo_prefix_sums))

    assert _outcome(fast) == _outcome(reference)


# every periodic pattern of 1-3 bits, then finite heads followed by zeros
LC_GRID_STREAMS = [
    *(BitStream.periodic("".join(p)) for size in (1, 2, 3) for p in product("01", repeat=size)),
    *map(BitStream.from_bits, ("", "1", "01", "0110")),
]
LC_GRID_BUDGETS = [Budget(12, 10**4), Budget(22, 30)]


def test_lc_to_roc_matches_reference_on_a_bounded_grid():
    machine = Interpreter()  # one machine, so its queries are cached across cases
    outcomes = Counter()
    for stream, step, rate, budget, n_max, stages in product(
        LC_GRID_STREAMS, range(4), sorted(LC_RATES), LC_GRID_BUDGETS, (0, 2, 4), (0, 7, 40)
    ):
        def fast():
            xs = IncreasingDyadicStream.from_prefix_sums(stream, step)
            res = lc_to_roc(xs, LC_RATES[rate](), machine, budget, stages, n_max)
            return _lc_summary(res.s_values, res.exhausted_at, res.name)

        def reference():
            xs = _memo_prefix_sums(stream, step)
            return _lc_summary(
                *_reference_lc_to_roc(xs, LC_RATES[rate](), machine, budget, stages, n_max)
            )

        got = _outcome(fast)
        assert got == _outcome(reference), (stream.label, step, rate, budget, n_max, stages)
        if isinstance(got[0], type):
            outcomes[got[0].__name__] += 1
        else:
            outcomes["exhausted" if got[1] else "complete"] += 1
    # listed dyadics: eventually constant ones take the shortcut, and a
    # finite list must start at 0
    for rate, stages in product(sorted(LC_RATES), (0, 7, 40)):
        res = lc_to_roc(
            parse_increasing("dyadics:0,1/2^1,3/2^2"), LC_RATES[rate](), machine,
            Budget(12, 10**4), stages, 2,
        )
        assert res.dyadic_shortcut and res.s_values == [] and res.name is None
        outcomes["shortcut"] += 1
        listed = [Dyadic.of(1, 1), Dyadic.of(3, 2)]

        def search(run):
            xs = IncreasingDyadicStream.from_list(listed)
            return run(xs, LC_RATES[rate](), machine, Budget(12, 10**4), stages, 2)

        got = _outcome(lambda: search(lc_to_roc))
        assert got == _outcome(lambda: search(_reference_lc_to_roc))
        assert got == (ValueError, "approximation must start at 0")
        outcomes["ValueError"] += 1
    classes = ["complete", "exhausted", "RateError", "HorizonExceeded", "shortcut", "ValueError"]
    assert sorted(outcomes) == sorted(classes) and all(outcomes.values()), outcomes


def test_lc_to_roc_asks_complexity_once_per_distinct_prefix(monkeypatch):
    targets = []
    real = conversions.complexity

    def counted(machine, target, budget):
        targets.append(target)
        return real(machine, target, budget)

    monkeypatch.setattr(conversions, "complexity", counted)
    _, r, res = third_pipeline()
    fast = targets[:]
    targets.clear()
    ref = _reference_lc_to_roc(
        third_approximants(), r, Interpreter(), Budget(22, 10**4), 200, 4
    )
    assert ref[0] == res.s_values
    assert fast == list(dict.fromkeys(targets))
    assert len(fast) < len(targets)


def _counted_prefix_sums(stream, step, reads):
    """``from_prefix_sums`` that records the stage of each ``prefix_bits``."""
    xs = IncreasingDyadicStream.from_prefix_sums(stream, step)
    read = xs.prefix_bits
    xs.prefix_bits = lambda m, n: reads.append(m) or read(m, n)
    return xs


def test_lc_to_roc_ends_a_level_at_its_settled_prefix(monkeypatch):
    # k-warm's early search: x_m holds level 0's 16 bits from stage 8 on,
    # and they fail, so the level ends at the first repeat after that
    # instead of skipping the other ~890 stages one by one
    def search(reads):
        xs = _counted_prefix_sums(BitStream.periodic("0110"), 2, reads)
        res = lc_to_roc(xs, Modulus.power2(4), Interpreter(), Budget(22, 10**4), 900, 6)
        return res.s_values, res.exhausted_at

    settled = []
    assert search(settled) == ([0], 1)
    monkeypatch.setattr(names._PrefixSums, "settled_from", lambda self, n: None)
    every = []
    assert search(every) == ([0], 1)
    assert every == list(range(1, 901))
    assert settled == [*range(1, 10), 900]  # the last reads x_900, for its errors
    assert len(settled) * 50 < len(every)


def test_lc_to_roc_reads_to_stages_after_a_settled_prefix():
    # level 0's 2 bits are settled from stage 2 and fail, so the search ends
    # there; the stream's horizon at bit 40 lies before stage 60, and the
    # search still fails there as a scan of every stage does
    bits = "".join(random.Random(99).choice("01") for _ in range(60))

    def stream(horizon):
        return BitStream(lambda i: int(bits[i]), horizon, label="bits")

    args = (Modulus.shift(2), Interpreter(), Budget(14, 10**4), 60, 3)
    for horizon, expected in ((40, None), (None, ([0], 1))):
        reads = []
        fast = _outcome(lambda: lc_to_roc(_counted_prefix_sums(stream(horizon), 1, reads), *args))
        ref = _outcome(lambda: _reference_lc_to_roc(_memo_prefix_sums(stream(horizon)), *args))
        if expected is None:
            assert fast == ref == (HorizonExceeded, "bits queried at 40 beyond horizon 40")
        else:
            assert (fast.s_values, fast.exhausted_at) == ref[:2] == expected
        assert len(reads) <= 4 and reads[-1] == 60


# ---------------------------------------------------------------------------
# tail and carry fixtures
# ---------------------------------------------------------------------------


def test_tail_bound_trivial_at_level_zero():
    f = NameStream.from_list([1, 2, 3], label="x")
    f.block_boundaries = [0, 3]
    chk = tail_bound_check(f, Modulus.shift(0), 0)
    assert chk.holds  # total weight <= 1 <= (0+1)*2^0


def test_tail_bound_violated_by_duplicate_heavy_name():
    f = NameStream.from_list([5] * 30)
    chk = tail_bound_check(f, Modulus.shift(0), 3)
    assert not chk.holds


def test_carry_counter_single_jump():
    vals = [
        ZERO,
        Dyadic.of(1, 12),
        Dyadic.of(1, 12)
        + Dyadic.of(1, 9)
        + Dyadic.of(1, 10)
        + Dyadic.of(1, 11)
        + Dyadic.of(1, 12),
    ]
    xs = IncreasingDyadicStream.from_list(vals)
    f = name_from_increasing(xs, 2)
    trace = carry_counter(f, 8)
    assert trace.values == [0, 0, 1]
    assert trace.carries == [1]


def test_carry_counter_zero_when_blocks_stay_low():
    xs = IncreasingDyadicStream.from_list([ZERO, Dyadic.of(1, 1), Dyadic.of(3, 2)])
    f = name_from_increasing(xs, 2)
    trace = carry_counter(f, 8)
    assert trace.values == [0, 0, 0] and trace.carries == []


def test_carry_step_bound_on_random_pipelines():
    rng = random.Random(5)
    for _ in range(100):
        vals = [ZERO]
        for _ in range(rng.randint(1, 10)):
            exp = rng.randint(6, 14)
            vals.append(vals[-1] + Dyadic.of(rng.randint(1, 2 ** (exp - 4) - 1), exp))
        f = name_from_increasing(IncreasingDyadicStream.from_list(vals), len(vals) - 1)
        pos = rng.randint(1, 12)
        trace = carry_counter(f, pos)
        assert trace.max_step <= 1
        assert trace.values == sorted(trace.values)
        assert len(trace.carries) == trace.values[-1] - trace.values[0]


@pytest.mark.parametrize("stages", [-3, -1, 0, 2, 3, 5])
def test_carry_counter_refuses_stages_beyond_the_blocks(stages):
    xs = IncreasingDyadicStream.from_list([ZERO, Dyadic.of(1, 1), Dyadic.of(3, 2)])
    f = name_from_increasing(xs, 2)
    if 0 <= stages <= 2:
        assert len(carry_counter(f, 2, stages).values) == stages + 1
    else:
        with pytest.raises(
            ValueError, match=rf"^stages must lie in 0\.\.2 for a 2-block name, got {stages}$"
        ):
            carry_counter(f, 2, stages)


def _carry_values_by_tail(name, position, stages):
    """The per-block loop ``carry_counter`` replaced: one tail per block."""
    bounds = name.block_boundaries
    return [
        floor_scale(tail_weight(name, position + 1, bounds[t] - 1), position)
        for t in range(stages + 1)
    ]


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.tuples(st.integers(5, 16), st.integers(0, 2**12)), max_size=12),
    position=st.integers(0, 18),
    data=st.data(),
)
def test_carry_counter_matches_per_block_tails(steps, position, data):
    vals = [ZERO]
    for exp, num in steps:  # each step below 2^-4 keeps the sum under 1
        vals.append(vals[-1] + Dyadic.of(num % (1 << (exp - 4)), exp))
    f = name_from_increasing(IncreasingDyadicStream.from_list(vals), len(steps))
    stages = data.draw(st.one_of(st.none(), st.integers(0, len(steps))))
    trace = carry_counter(f, position, stages)
    expected = _carry_values_by_tail(
        f, position, len(steps) if stages is None else stages
    )
    assert trace.values == expected
    assert trace.carries == [
        t for t in range(len(expected) - 1) if expected[t + 1] > expected[t]
    ]

"""Machines: table validation, interpreter semantics, domain enumeration,
budgeted-exact complexity, halting-probability sums."""

import collections
import dis
import gc
import itertools
import random
import re
import sys
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from leftreal import machines
from leftreal.errors import BudgetGuard, PrefixViolation
from leftreal.foundations import (
    Dyadic,
    DyadicInterval,
    ZERO,
    check_bits,
    check_prefix_free,
    dyadic_weight,
    half_power,
    strings_of_length,
)
from leftreal.kraft_chaitin import kc_allocate
from leftreal.machines import (
    Budget,
    ComplexityValue,
    INFINITE,
    Interpreter,
    KStatus,
    RunStatus,
    TableMachine,
    complexity,
    domain_census,
    enumerate_domain,
    floor_nth_root,
    gamma_encode,
    gamma_length,
    gamma_parse,
    omega_lower,
    omega_s_bounds,
    validate_table,
)

THREE_ENTRY = validate_table([("0", "00"), ("10", "01"), ("11", "111")])


def frac(d: Dyadic) -> Fraction:
    return Fraction(d.num, 2**d.exp)


def random_table(rng: random.Random, max_entries: int = 32) -> TableMachine:
    lengths = []
    weight = Fraction(0)
    while len(lengths) < rng.randint(1, max_entries):
        l = rng.randint(1, 12)
        if weight + Fraction(1, 2**l) > 1:
            break
        weight += Fraction(1, 2**l)
        lengths.append(l)
    codes = kc_allocate(lengths)
    return validate_table(
        (c, "".join(rng.choice("01") for _ in range(rng.randint(0, 8))))
        for c in codes
    )


def literal_encode(payload: str) -> str:
    check_bits(payload)
    return machines.header(machines.LITERAL, len(payload) + 1) + payload


def repeat_encode(out_len: int, pattern: str) -> str:
    check_bits(pattern)
    if out_len < 1 or not pattern:
        raise ValueError("repeat needs out_len >= 1 and a nonempty pattern")
    return machines.header(machines.REPEAT, out_len, len(pattern)) + pattern


def call_encode(interp: Interpreter, index: int, program: str) -> str:
    if not 1 <= index <= len(interp.aux):
        raise ValueError(f"auxiliary index {index} out of range")
    return machines.header(machines.CALL, index) + program


# ---------------------------------------------------------------------------
# gamma code
# ---------------------------------------------------------------------------


def test_gamma_round_trip():
    for n in range(1, 600):
        enc = gamma_encode(n)
        assert len(enc) == gamma_length(n) == 2 * (n.bit_length() - 1) + 1
        assert gamma_parse(enc, 0) == (n, len(enc))


def test_gamma_is_a_prefix_code():
    codes = sorted(gamma_encode(n) for n in range(1, 200))
    for a, b in zip(codes, codes[1:]):
        assert not b.startswith(a)


# ---------------------------------------------------------------------------
# table machines
# ---------------------------------------------------------------------------


def test_validate_table_accepts_complete_code():
    m = validate_table([("0", "00"), ("10", "01"), ("11", "111")])
    assert m.run("10").output == "01"
    assert m.run("111").status is RunStatus.NEVER_HALTS


def test_validate_table_names_offending_pair():
    with pytest.raises(PrefixViolation) as e:
        validate_table([("0", "1010"), ("01", "1111")])
    assert e.value.shorter == "0" and e.value.longer == "01"


def test_random_prefix_codes_from_allocator_validate():
    rng = random.Random(5)
    for _ in range(100):
        random_table(rng)  # constructor validates


def _parent_table_init(entries):
    """``TableMachine.__init__`` before it built the query summary, with the
    bits checked before the sort: the oracle for what a malformed table
    raises.  Sorting first raised a ``TypeError`` on a non-str key."""
    for k, v in entries:
        check_bits(k)
        check_bits(v)
    keys = sorted(k for k, _ in entries)
    for a, b in zip(keys, keys[1:]):
        if a == b:
            raise ValueError(f"duplicate program {a!r} in table")
    check_prefix_free(keys)


def _parent_shortest(entries):
    """The lazy ``shortest`` loop that the constructor's summary replaced."""
    best = {}
    for key, val in entries:
        cur = best.get(val)
        if cur is None or (len(key), key) < (len(cur), cur):
            best[val] = key
    return best


@st.composite
def table_entries(draw):
    """Kraft-Chaitin keys in a drawn order, with outputs from a few short
    strings, so that many keys share an output."""
    lengths, weight = [], Fraction(0)
    for l in draw(st.lists(st.integers(0, 12), max_size=40)):
        if weight + Fraction(1, 2**l) <= 1:
            weight += Fraction(1, 2**l)
            lengths.append(l)
    keys = kc_allocate(lengths)
    outs = draw(st.lists(st.text("01", max_size=4), min_size=len(keys), max_size=len(keys)))
    return tuple(draw(st.permutations(list(zip(keys, outs)))))


@settings(max_examples=200, deadline=None)
@given(entries=table_entries())
def test_table_summary_matches_the_parent_loops(entries):
    _parent_table_init(entries)
    m = TableMachine(entries)
    by_length = collections.defaultdict(list)
    for key, val in entries:
        by_length[len(key)].append(len(val))
    assert m.entries is entries
    assert m.mapping == dict(entries)
    assert m.shortest == _parent_shortest(entries)
    assert m.output_lengths == {l: sorted(olens) for l, olens in by_length.items()}
    assert m.max_program_length == max((len(k) for k, _ in entries), default=0)


def _outcome(build, entries):
    try:
        build(entries)
    except Exception as e:
        return type(e), str(e), getattr(e, "shorter", None), getattr(e, "longer", None)
    return None


NON_STR = [0, None, b"01", 1.5, ["0"]]
NON_BIT = ["2", "x", " ", "\u00e9", "\ud800", "\n"]


def _malform(entries, kind, i):
    """``entries`` with one fault of the given kind, placed by ``i``."""
    entries = list(entries)
    at, place = i % len(entries), i % (len(entries) + 1)
    key, val = entries[at]
    if kind == "empty":
        return ()
    if kind == "non-str":
        junk = NON_STR[i % len(NON_STR)]
        entries[at] = [junk, (junk, val), (key, junk)][i % 3]
    elif kind == "non-bit":
        cut = i % (len(key) + 1)
        bad = key[:cut] + NON_BIT[i % len(NON_BIT)] + key[cut:]
        entries[at] = (bad, val) if i % 2 else (key, bad)
    elif kind == "duplicate":
        entries.insert(place, (key, val[::-1] + "0"))
    elif kind == "prefix":
        entries.insert(place, (key + "01"[i % 2], val) if i % 3 else (key[:-1], val))
    elif kind == "empty key":
        entries.insert(place, ("", val))
    elif kind == "arity":
        entries.insert(place, [(key,), (key, val, val), key[:1], "010", "01", ()][i % 6])
    return tuple(entries)


@settings(max_examples=300, deadline=None)
@given(
    entries=table_entries().filter(bool),
    kind=st.sampled_from(
        ["non-str", "non-bit", "duplicate", "prefix", "empty key", "empty", "arity"]
    ),
    i=st.integers(0, 60),
)
def test_malformed_tables_raise_as_the_parent_did(entries, kind, i):
    bad = _malform(entries, kind, i)
    assert _outcome(TableMachine, bad) == _outcome(_parent_table_init, bad)


# ---------------------------------------------------------------------------
# interpreter semantics
# ---------------------------------------------------------------------------


def test_literal_round_trip_exhaustive():
    interp = Interpreter()
    for n in range(17):
        for tau in strings_of_length(n):
            prog = literal_encode(tau)
            out = interp.run(prog)
            assert out.status is RunStatus.HALTED and out.output == tau


def test_repeat_truncates_pattern():
    interp = Interpreter()
    assert interp.run(repeat_encode(7, "011")).output == "0110110"
    assert interp.run(repeat_encode(2, "011")).output == "01"


def test_prefix_or_extension_of_program_never_halts():
    interp = Interpreter()
    prog = repeat_encode(6, "01")
    for cut in range(len(prog)):
        assert interp.run(prog[:cut]).status is RunStatus.NEVER_HALTS
    assert interp.run(prog + "0").status is RunStatus.NEVER_HALTS


def test_table_call_dispatches_to_auxiliary():
    interp = Interpreter(aux=(THREE_ENTRY,))
    prog = call_encode(interp, 1, "11")
    assert interp.run(prog).output == "111"
    assert len(prog) == len("11") + len(machines.header(machines.CALL, 1)) == len("11") + 3


def test_step_budget_reports_non_halting():
    interp = Interpreter()
    prog = repeat_encode(1000, "1")
    out = interp.run(prog, step_budget=50)
    assert out.status is RunStatus.NOT_HALTING_AT_BUDGET


# ---------------------------------------------------------------------------
# domain enumeration
# ---------------------------------------------------------------------------


def test_enumerate_table_is_exactly_its_entries():
    enum = enumerate_domain(THREE_ENTRY, Budget(10, 0))
    assert enum.pairs == [("0", "00"), ("10", "01"), ("11", "111")]
    assert enum.covers_whole_domain


def test_enumerate_interpreter_includes_short_literals():
    interp = Interpreter()
    enum = enumerate_domain(interp, Budget(6, 10**4))
    outs = {out for _, out in enum.pairs}
    for n in range(3):
        for tau in strings_of_length(n):
            assert len(literal_encode(tau)) <= 6
            assert tau in outs


def test_enumeration_is_prefix_free_and_sorted():
    rng = random.Random(9)
    machines = [Interpreter(), Interpreter(aux=(THREE_ENTRY,))] + [
        random_table(rng) for _ in range(10)
    ]
    for m in machines:
        enum = enumerate_domain(m, Budget(12, 10**4))
        progs = [p for p, _ in enum.pairs]
        assert progs == sorted(progs, key=lambda s: (len(s), s))
        for a, b in itertools.combinations(progs, 2):
            assert not b.startswith(a) and not a.startswith(b)


KC_TABLES = st.integers(0, 2**16).map(lambda seed: random_table(random.Random(seed)))
STEP_BUDGETS = st.sampled_from([0, 10**4]) | st.integers(1, 40)


@settings(max_examples=100, deadline=None)
@given(
    aux=st.lists(KC_TABLES, max_size=2),
    budget=st.builds(Budget, st.integers(0, 11), STEP_BUDGETS),
)
@example(aux=[THREE_ENTRY], budget=Budget(10, 10**4))
@example(aux=[THREE_ENTRY], budget=Budget(10, 6))  # "1110" runs in exactly 6 steps
def test_enumeration_matches_brute_force_runs(aux, budget):
    # independent oracle: run every string of length <= L and compare
    interp = Interpreter(aux=tuple(aux))
    expected, cut = {}, set()
    for n in range(budget.L + 1):
        for s in strings_of_length(n):
            out = interp.run(s, step_budget=budget.t)
            if out.status is RunStatus.HALTED:
                expected[s] = out.output
            elif out.status is RunStatus.NOT_HALTING_AT_BUDGET:
                cut.add(n)
    enum = enumerate_domain(interp, budget)
    assert dict(enum.pairs) == expected
    assert enum.truncated_lengths == cut


@pytest.mark.parametrize(
    "machine",
    [Interpreter(), Interpreter(aux=(THREE_ENTRY, random_table(random.Random(1))))],
    ids=["bare", "two-tables"],
)
def test_enumeration_matches_every_run_up_to_13_bits(machine):
    # each string runs once, unbudgeted; a step budget t then keeps the
    # runs of at most t steps and cuts the lengths of the others
    runs = []
    for n in range(14):
        for s in strings_of_length(n):
            out = machine.run(s)
            if out.status is RunStatus.HALTED:
                runs.append((s, out.output, out.steps))
    for t in [*range(41), 10**4]:
        enum = enumerate_domain(machine, Budget(13, t))
        assert enum.pairs == [(s, out) for s, out, steps in runs if steps <= t]
        assert enum.truncated_lengths == {len(s) for s, _, steps in runs if steps > t}


MACHINE_KINDS = st.builds(
    lambda aux, table: aux[0] if table and aux else Interpreter(aux=tuple(aux)),
    st.lists(KC_TABLES, max_size=2),
    st.booleans(),
)
BUDGETS = st.builds(Budget, st.integers(0, 14), STEP_BUDGETS)


@settings(max_examples=80, deadline=None)
@given(machine=MACHINE_KINDS, budget=BUDGETS)
def test_listing_comes_out_length_lex(machine, budget):
    # the listing sorts headers only; the pair sort it replaced is the oracle
    pairs = enumerate_domain(machine, budget).pairs
    assert pairs == sorted(pairs, key=lambda kv: (len(kv[0]), kv[0]))


@settings(max_examples=80, deadline=None)
@given(machine=MACHINE_KINDS, budget=BUDGETS)
def test_census_counts_the_listing(machine, budget):
    counts, truncated = domain_census(machine, budget)
    enum = enumerate_domain(machine, budget)
    assert sum(counts.values()) == len(enum.pairs)
    assert counts == dict(collections.Counter(len(p) for p, _ in enum.pairs))
    assert truncated == enum.truncated_lengths


def _classes(m, L):
    """Every literal and table-call program of at most ``L`` bits, in
    classes of headers that share a program length and a body length.

    Yields ``(program length, body length, sorted output lengths)`` with one
    header per output length, so a class stands for ``2**body length``
    programs per header.  A table call is a class per auxiliary table and
    key length.
    """
    n = 1  # the literal of header number n has and outputs n - 1 body bits
    while (length := len(machines.header(machines.LITERAL, n)) + n - 1) <= L:
        yield length, n - 1, (n - 1,)
        n += 1
    for i, aux in enumerate(m.aux, start=1):
        head = len(machines.header(machines.CALL, i))
        for klen, olens in aux.output_lengths.items():
            if head + klen <= L:
                yield head + klen, 0, olens


def _repeat_classes(L):
    """Every repeat program of at most ``L`` bits, in classes of headers
    that share a program length and a pattern length.

    Yields ``(program length, pattern length, low)``: a repeat's output
    length is its count, which sets nothing else, so the counts ``low ..
    2*low - 1``, which share a gamma length, form one class of ``low``
    headers with ``2**pattern length`` programs each.
    """
    plen = 1
    while len(machines.header(machines.REPEAT, 1, plen)) + plen <= L:
        low = 1
        while (length := len(machines.header(machines.REPEAT, low, plen)) + plen) <= L:
            yield length, plen, low
            low *= 2
        plen += 1


def _census_by_bisect(machine, budget):
    """The census as the header classes list it, read with ``bisect_right``
    and ``len`` on every class's output lengths, a repeat class's as a
    ``range``, which ``len`` cannot size past L = 130."""
    repeats = [
        (length, plen, range(low, 2 * low)) for length, plen, low in _repeat_classes(budget.L)
    ]
    counts, cut = collections.defaultdict(int), set()
    for length, blen, olens in [*_classes(machine, budget.L), *repeats]:
        halting = bisect_right(olens, budget.t - length)
        if halting:
            counts[length] += halting << blen
        if halting < len(olens):
            cut.add(length)
    return dict(counts), frozenset(cut)


@settings(max_examples=150, deadline=None)
@given(
    aux=st.lists(KC_TABLES, max_size=2),
    L=st.integers(0, 40),
    t=STEP_BUDGETS | st.integers(40, 400) | st.just(10**12),
)
def test_census_reads_repeat_classes_like_bisect(aux, L, t):
    budget = Budget(L, t)
    machine = Interpreter(aux=tuple(aux))
    assert domain_census(machine, budget) == _census_by_bisect(machine, budget)


GRID_STEPS = [*range(121), 200, 1000, 5000, 10**4, 10**6, 10**12]


@pytest.mark.parametrize("seeds", [(), (1,), (2, 3)])
def test_census_matches_bisect_on_the_whole_grid(seeds):
    machine = Interpreter(aux=tuple(random_table(random.Random(s)) for s in seeds))
    for L in range(41):
        for t in GRID_STEPS:
            budget = Budget(L, t)
            assert domain_census(machine, budget) == _census_by_bisect(machine, budget)


EMPTY_OUTPUT = validate_table([("0", ""), ("10", "1"), ("110", ""), ("111", "0101")])
CUT_WALK_MACHINES = [
    Interpreter(),
    Interpreter(aux=(random_table(random.Random(1)),)),
    Interpreter(aux=(random_table(random.Random(2)), random_table(random.Random(3)))),
    Interpreter(aux=(EMPTY_OUTPUT,)),
]


def _census_first_cut(machine, budget):
    return min(domain_census(machine, budget)[1], default=INFINITE)


@pytest.mark.parametrize("machine", CUT_WALK_MACHINES, ids=["bare", "one", "two", "empty-output"])
def test_cut_walk_matches_the_census_on_the_whole_grid(machine):
    for L in range(41):
        for t in [*range(131), 10**3, 10**4, 10**6]:
            budget = Budget(L, t)
            assert machines._first_cut_length(machine, budget) == _census_first_cut(machine, budget)


@pytest.mark.parametrize("L", [1025, 2048])
def test_cut_walk_matches_the_census_at_forced_lengths(L):
    # a census this long walks about L*L/4 repeat classes, so two step
    # budgets do; both cut a repeat far below L
    for machine in CUT_WALK_MACHINES:
        for t in (77, 10**6):
            budget = Budget(L, t, allow_large=True)
            assert machines._first_cut_length(machine, budget) == _census_first_cut(machine, budget)


def test_census_counts_repeat_classes_past_the_size_limit():
    # at L = 140 a repeat class holds counts 2**64 .. 2**65 - 1
    big = Budget(140, 10**4, allow_large=True)
    counts, cut = domain_census(Interpreter(), big)
    small_counts, small_cut = domain_census(Interpreter(), Budget(40, 10**4))
    assert {l: c for l, c in counts.items() if l <= 40} == small_counts
    assert {l for l in cut if l <= 40} == small_cut
    assert omega_lower(Interpreter(), big) > omega_lower(Interpreter(), Budget(40, 10**4))


def test_listing_guard_trips_before_building_pairs(monkeypatch):
    budget = Budget(12, 10**4)
    size = len(enumerate_domain(Interpreter(), budget).pairs)
    monkeypatch.setattr(machines, "MAX_BUILT", size - 1)
    with monkeypatch.context() as patch:
        patch.setattr(machines, "_programs", None)  # the guard trips first
        with pytest.raises(BudgetGuard, match=f"{size} pairs"):
            enumerate_domain(Interpreter(), budget)
    forced = Budget(12, 10**4, allow_large=True)
    assert len(enumerate_domain(Interpreter(), forced).pairs) == size


# ---------------------------------------------------------------------------
# complexity
# ---------------------------------------------------------------------------


def _complexity_by_enumeration(enum, target):
    """(value, status, witness) read off a listing: its first program with
    the target's output, exact unless the step budget cut a shorter length."""
    first_cut = min(enum.truncated_lengths, default=INFINITE)
    for prog, out in enum.pairs:
        if out == target:
            status = KStatus.EXACT if len(prog) <= first_cut else KStatus.UPPER_BOUND
            return len(prog), status, prog
    if enum.covers_whole_domain and not enum.truncated_lengths:
        return INFINITE, KStatus.EXACT, None
    return INFINITE, KStatus.UNKNOWN, None


PERIODIC = st.builds(
    lambda pattern, n: (pattern * n)[:n],
    st.text("01", min_size=1, max_size=4),
    st.integers(1, 60),
)


@settings(max_examples=150, deadline=None)
@given(machine=MACHINE_KINDS, budget=BUDGETS, data=st.data())
@example(machine=Interpreter(aux=(THREE_ENTRY,)), budget=Budget(10, 6), data=None)
def test_complexity_matches_enumeration(machine, budget, data):
    enum = enumerate_domain(machine, budget)
    targets = ["", "0", "111", "0101010101"]
    if data is not None:
        outputs = sorted({out for _, out in enum.pairs})
        if outputs:
            targets += data.draw(st.lists(st.sampled_from(outputs), max_size=8))
        targets += data.draw(st.lists(PERIODIC | st.text("01", max_size=16), max_size=8))
        longer = st.text("01", min_size=budget.L + 1, max_size=budget.L + 20)
        targets += data.draw(st.lists(longer, max_size=2))
    for target in targets:
        v = complexity(machine, target, budget)
        assert (v.value, v.status, v.witness) == _complexity_by_enumeration(enum, target)


def test_call_tie_goes_to_the_lexicographically_least_program():
    # both calls take 6 bits: "111" + "000" through table 1, "11010" + "0"
    # through table 2, whose longer header sorts first
    w = "0110100111"
    one = validate_table([("000", w), ("001", "0"), ("01", "1"), ("1", "")])
    two = validate_table([("0", w), ("1", "1")])
    interp = Interpreter(aux=(one, two))
    budget = Budget(10, 10**4)
    v = complexity(interp, w, budget)
    assert (v.value, v.witness) == (6, "110100")
    assert (v.value, v.status, v.witness) == _complexity_by_enumeration(
        enumerate_domain(interp, budget), w
    )


def _reference_complexity(machine, target, budget):
    """``complexity`` as it was before its interpreter path ran in one frame:
    every candidate carries its header numbers and body, and the value is
    built by the named tuple's constructor.  The cut length comes from the
    header-class census, never from ``domain_census``."""
    check_bits(target)
    if isinstance(machine, TableMachine):
        return machines._table_complexity(machine, target, budget)
    n = len(target)
    best = budget.t - n
    if budget.L < best:
        best = budget.L
    best += 1
    tag = None
    length = n + 2 * (n + 1).bit_length()
    if length < best:
        best, tag, nums, body = length, machines.LITERAL, (n + 1,), target
    qmax = best - 3 - 2 * n.bit_length()
    if qmax >= n:
        qmax = n - 1
    if qmax > 0:
        start = target[: n - qmax]
        q = target.find(start, 1)
        while q != -1 and not target.startswith(target[q:]):
            q = target.find(start, q + 1)
        if q != -1 and (length := 2 * (n.bit_length() + q.bit_length()) + q) < best:
            best, tag, nums, body = length, machines.REPEAT, (n, q), target[:q]
    if machine._calls:
        for i, (head, shortest) in enumerate(machine._calls, start=1):
            key = shortest.get(target)
            if key is None:
                continue
            length = len(head) + len(key)
            if length < best or (
                length == best
                and tag == machines.CALL
                and head + key < machines.header(tag, *nums) + body
            ):
                best, tag, nums, body = length, machines.CALL, (i,), key
    if tag is None:
        return ComplexityValue(INFINITE, KStatus.UNKNOWN, budget)
    L_t = (budget.L, budget.t)
    cut = machine._first_cut.get(L_t)
    if cut is None:
        cut = machine._first_cut[L_t] = min(_census_by_bisect(machine, budget)[1], default=INFINITE)
    status = KStatus.EXACT if best <= cut else KStatus.UPPER_BOUND
    return ComplexityValue(best, status, budget, machines.header(tag, *nums) + body)


def _assert_matches_reference(machine, targets, budget):
    # the oracle runs on an equal machine of its own, so it reads no cut
    # length that ``complexity`` cached
    twin = type(machine)(*machine._key())
    got = [complexity(machine, target, budget) for target in targets]
    assert {type(v) for v in got} <= {ComplexityValue}
    want = [_reference_complexity(twin, target, budget) for target in targets]
    assert list(map(tuple, got)) == list(map(tuple, want))


def _call_tie(w, k):
    """An interpreter whose three tables each output ``w`` by a call of
    k + 5 bits: the headers of tables 1, 2 and 3 take 3, 5 and 5 bits."""
    tables = [("0" * (k + 2), w), ("0" * k, w), ("0" * (k - 1) + "1", w)]
    return Interpreter(aux=tuple(validate_table([entry]) for entry in tables))


CALL_TIES = st.builds(_call_tie, st.text("01", max_size=16), st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(machine=MACHINE_KINDS | CALL_TIES, budget=BUDGETS, data=st.data())
@example(machine=_call_tie("0110100111", 1), budget=Budget(10, 10**4), data=None)
def test_complexity_matches_the_reference(machine, budget, data):
    targets = ["", "0", "111", "0101010101", "0110100111"]
    if data is not None:
        tables = [machine] if isinstance(machine, TableMachine) else machine.aux
        outputs = sorted({out for table in tables for _, out in table.entries})
        if outputs:
            targets += data.draw(st.lists(st.sampled_from(outputs), max_size=8))
        targets += data.draw(st.lists(PERIODIC | st.text("01", max_size=16), max_size=8))
        longer = st.text("01", min_size=budget.L + 1, max_size=budget.L + 20)
        targets += data.draw(st.lists(longer, max_size=2))
    _assert_matches_reference(machine, targets, budget)


STEPS = (0, 1, 5, 20, 40, 10**4)


def _near_periodic(lengths):
    """Each pattern of 1 to 4 bits repeated to each length, as is and with
    one bit flipped, early or late: the repeats that a period search must
    find, and the near misses it must reject."""
    patterns = [s for n in range(1, 5) for s in strings_of_length(n)]
    out = []
    for p in patterns:
        for n in lengths:
            s = (p * n)[:n]
            out.append(s)
            for i in (n // 3, n - 2):
                out.append(s[:i] + "10"[int(s[i])] + s[i + 1 :])
    return out


@pytest.mark.parametrize("machine", [Interpreter(), Interpreter(aux=(THREE_ENTRY,))])
def test_complexity_matches_the_reference_exhaustively(machine):
    # every string of up to 12 bits (10 with the table, whose outputs have
    # at most 3), then the repeats of every length up to 60, at every L up
    # to 40
    width = 10 if machine.aux else 12
    targets = [s for n in range(width + 1) for s in strings_of_length(n)]
    targets += _near_periodic(range(width + 1, 61))
    for L in range(41):
        for t in STEPS:
            _assert_matches_reference(machine, targets, Budget(L, t))


def test_complexity_matches_the_reference_past_the_literal_rows():
    # targets of LITERAL_ROWS - 1 and LITERAL_ROWS bits and a little past,
    # and of 127 to 256 bits, at budgets where their literal fits and where
    # it does not.  Past L = 130 ``len`` cannot size a repeat class, so the
    # oracle's twin reads its cut length from the forced census instead of
    # the bisect
    rows = machines.LITERAL_ROWS
    rng = random.Random(5)
    lengths = (rows - 1, rows, rows + 1, 127, 128, 129, 256)
    targets = _near_periodic(lengths)
    targets += ["".join(rng.choice("01") for _ in range(n)) for n in lengths for _ in range(4)]
    for aux in ((), (THREE_ENTRY,)):
        machine, twin = Interpreter(aux=aux), Interpreter(aux=aux)
        for L in (24, rows + 10, rows + 11, rows + 12, rows + 13, 142, 143, 144, 145, 274, 300):
            for t in (*STEPS, 272, 10**6):
                budget = Budget(L, t)
                twin._first_cut[L, t] = _census_first_cut(twin, Budget(L, t, allow_large=True))
                for target in targets:
                    v = complexity(machine, target, budget)
                    assert tuple(v) == tuple(_reference_complexity(twin, target, budget))


def test_complexity_finds_periods_up_to_the_tight_bound():
    # For each length and budget, the longest period whose repeat beats the
    # literal and the budget, by brute force: a target of that smallest
    # period is a repeat, and one of the next period is not
    machine = Interpreter()
    t = 10**6
    for n in range(1, 150):
        literal = machines.literal_length(n + 1)
        for L in range(literal + 2):
            best = min(literal, L + 1)  # a program shorter than this wins
            fits = [q for q in range(1, n) if machines.repeat_length(n, q) < best]
            qmax = max(fits, default=0)
            assert fits == list(range(1, qmax + 1))  # repeats grow with their period
            for q in (qmax, qmax + 1):
                if not 1 <= q < n:
                    continue
                target = machines.repeat_output("0" * (q - 1) + "1", n)  # its smallest period is q
                v = complexity(machine, target, Budget(L, t))
                if q == qmax:
                    assert v.value == machines.repeat_length(n, q)
                    assert v.witness == machines.header(machines.REPEAT, n, q) + target[:q]
                else:
                    assert v.witness is None or v.witness[0] == machines.LITERAL


def test_literal_rows_match_the_instruction_set():
    assert len(machines._LITERALS) == machines.LITERAL_ROWS
    for n, (length, head, qmax) in enumerate(machines._LITERALS):
        assert length == machines.literal_length(n + 1)
        assert head == machines.header(machines.LITERAL, n + 1)
        # the periods whose repeat is shorter than the literal, by brute force
        shorter = [q for q in range(1, n) if machines.repeat_length(n, q) < length]
        assert shorter == list(range(1, qmax + 1))


@pytest.mark.parametrize("machine", [Interpreter(aux=(THREE_ENTRY,)), THREE_ENTRY])
@pytest.mark.parametrize("target", ["012", "0 1", b"01"])
def test_complexity_rejects_non_bit_targets(machine, target):
    with pytest.raises(ValueError) as expected:
        _reference_complexity(machine, target, Budget(10, 10**4))
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        complexity(machine, target, Budget(10, 10**4))


def test_interpreter_query_runs_in_one_frame():
    interp = Interpreter(aux=(THREE_ENTRY,))
    budget = Budget(24, 10**4)
    # past the literal rows too: a 130-bit literal fits in 300 bits
    wide = Budget(300, 10**4)
    counting = "".join(format(i, "b") for i in range(1, 40))[:130]  # its literal wins
    targets = ["", "0110101", "111", "01" * 60, "0" * 30, "0110" * 32, counting]
    for target in targets:  # the first query fills the caches
        complexity(interp, target, wide)
        complexity(interp, target, budget)
    frames = []
    # a collection in the window would profile the gc callbacks that
    # Hypothesis registers, so start with an empty young generation
    gc.collect()
    sys.setprofile(lambda frame, event, arg: event == "call" and frames.append(frame))
    try:
        for target in targets:
            complexity(interp, target, budget)
            complexity(interp, target, wide)
    finally:
        sys.setprofile(None)
    assert [f.f_code.co_name for f in frames] == ["complexity"] * 2 * len(targets)
    literal = machines.header(machines.LITERAL, 131) + counting
    assert complexity(interp, counting, wide).witness == literal


def test_query_code_reads_statuses_from_module_constants():
    # an Enum member read such as ``KStatus.EXACT`` skips CPython's
    # specialized attribute path and costs about ten global reads
    for fn in (complexity, machines._table_complexity):
        loads = {i.argval for i in dis.get_instructions(fn) if i.opname == "LOAD_GLOBAL"}
        assert "KStatus" not in loads, fn.__name__
        assert {"_EXACT", "_UNKNOWN"} <= loads, fn.__name__


def test_complexity_takes_one_cut_walk_per_budget(monkeypatch):
    walks, censuses = [], []
    walk = machines._first_cut_length
    monkeypatch.setattr(
        machines, "_first_cut_length", lambda *args: walks.append(args) or walk(*args)
    )
    monkeypatch.setattr(machines, "domain_census", lambda *args: censuses.append(args))
    interp = Interpreter(aux=(THREE_ENTRY,))
    budget = Budget(23, 50)
    assert complexity(interp, "0110101", budget).status is KStatus.EXACT
    assert walks == [(interp, budget)]
    walks.clear()
    for target in ("0110101", "", "01" * 20, "111"):  # the cut length is cached
        complexity(interp, target, budget)
    assert walks == []
    other = Budget(23, 51)
    complexity(interp, "111", other)
    assert walks == [(interp, other)]
    assert censuses == []


def test_complexity_never_lists_the_domain(monkeypatch):
    def refuse(*args):
        raise AssertionError("complexity listed the domain")

    for name in ("enumerate_domain", "_programs"):
        monkeypatch.setattr(machines, name, refuse)
    interp = Interpreter(aux=(THREE_ENTRY,))
    assert complexity(interp, "0101010101", Budget(30, 10**4)).status is KStatus.EXACT
    assert complexity(interp, "111", Budget(6, 8)).witness == "11111"
    assert complexity(THREE_ENTRY, "01", Budget(2, 0)).witness == "10"


def test_table_complexity_exact_lookup():
    v = complexity(THREE_ENTRY, "00", Budget(10, 0))
    assert v.value == 1 and v.status is KStatus.EXACT and v.witness == "0"


def test_table_complexity_exact_infinity():
    v = complexity(THREE_ENTRY, "0101", Budget(10, 0))
    assert v.value == INFINITE and v.status is KStatus.EXACT


@given(
    value=st.one_of(st.integers(-40, 40), st.just(INFINITE)),
    status=st.sampled_from(KStatus),
    bound=st.integers(-40, 40),
)
def test_at_most_compares_the_value_with_the_bound(value, status, bound):
    v = ComplexityValue(value, status, Budget(8, 100))
    assert v.at_most(bound) == (v.is_finite and v.value <= bound)


def test_literal_envelope_holds():
    interp = Interpreter()
    budget = Budget(24, 10**4)
    rng = random.Random(31)
    for n in [0, 1, 2, 5, 9, 13]:
        tau = "".join(rng.choice("01") for _ in range(n))
        v = complexity(interp, tau, budget)
        envelope = n + 2 * ((n + 1).bit_length() - 1) + 2
        assert v.value <= envelope
        if n >= 1:
            # measured literal constant: within |tau| + 2*floor(log) + 4
            assert v.value <= n + 2 * (n.bit_length() - 1) + 4


def test_unreachable_string_under_budget_is_unknown():
    interp = Interpreter()
    v = complexity(interp, "0" * 30, Budget(8, 10**4))
    assert v.value == INFINITE and v.status is KStatus.UNKNOWN


def test_complexity_antitone_in_budget():
    rng = random.Random(41)
    interp = Interpreter()
    small = Budget(10, 60)
    big = Budget(14, 10**4)
    for _ in range(40):
        tau = "".join(rng.choice("01") for _ in range(rng.randint(0, 10)))
        v_small = complexity(interp, tau, small)
        v_big = complexity(interp, tau, big)
        assert v_big.value <= v_small.value
        if v_small.status is KStatus.EXACT and v_small.is_finite:
            assert v_big.status is KStatus.EXACT
            assert v_big.value == v_small.value


def test_step_budget_downgrades_to_upper_bound():
    interp = Interpreter()
    # repeats of length >= 40 are cut by t=30, so lengths >= their encoding
    # can no longer be called exact
    tight = Budget(20, 30)
    v = complexity(interp, "0" * 9, tight)
    assert v.status in (KStatus.UPPER_BOUND, KStatus.EXACT)
    enum = enumerate_domain(interp, tight)
    assert enum.truncated_lengths
    assert min(enum.truncated_lengths) <= 20


# ---------------------------------------------------------------------------
# halting-probability sums
# ---------------------------------------------------------------------------


def test_omega_lower_complete_code_is_one():
    assert frac(omega_lower(THREE_ENTRY, Budget(10, 0))) == 1


def test_omega_lower_empty_machine():
    assert omega_lower(validate_table([]), Budget(10, 0)) == ZERO


def test_omega_lower_monotone_and_kraft_bounded():
    rng = random.Random(55)
    for _ in range(50):
        m = random_table(rng)
        small = Budget(rng.randint(1, 6), 10**3)
        big = Budget(12, 10**4)
        lo, hi = omega_lower(m, small), omega_lower(m, big)
        assert lo <= hi
        assert frac(hi) <= 1


def test_omega_lower_interpreter_bounded():
    w = omega_lower(Interpreter(), Budget(14, 10**4))
    assert ZERO < w and frac(w) <= 1


def _omega_s_by_listing(pairs, s, precision):
    """The per-program sum that ``omega_s_bounds`` groups by length."""
    lo = hi = ZERO
    for prog, _ in pairs:
        scaled = len(prog) * s.denominator
        if scaled % s.numerator == 0:
            lo = lo + half_power(scaled // s.numerator)
            hi = hi + half_power(scaled // s.numerator)
            continue
        shifted = precision * s.numerator - scaled
        low = 0 if shifted < 0 else floor_nth_root(1 << shifted, s.numerator)
        lo = lo + Dyadic.of(low, precision)
        hi = hi + Dyadic.of(low + 1, precision)
    return DyadicInterval(lo, hi)


@settings(max_examples=80, deadline=None)
@given(
    machine=MACHINE_KINDS,
    budget=st.builds(Budget, st.integers(0, 16), STEP_BUDGETS),
    s=st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(5, 7)]),
    precision=st.integers(0, 40),
)
@example(machine=Interpreter(), budget=Budget(20, 45), s=Fraction(2, 3), precision=40)
def test_omega_sums_match_the_listing(machine, budget, s, precision):
    pairs = enumerate_domain(machine, budget).pairs
    weight = dyadic_weight(collections.Counter(len(p) for p, _ in pairs))
    assert omega_lower(machine, budget) == weight
    assert omega_s_bounds(machine, s, budget, precision) == _omega_s_by_listing(
        pairs, s, precision
    )


def test_floor_nth_root_exact():
    rng = random.Random(77)
    for _ in range(300):
        x = rng.randint(0, 1 << 200)
        n = rng.randint(1, 7)
        r = floor_nth_root(x, n)
        assert r**n <= x < (r + 1) ** n
    for x, n in itertools.product(range(1 << 12), range(1, 8)):
        r = floor_nth_root(x, n)
        assert r**n <= x < (r + 1) ** n


def test_omega_s_half_is_exact():
    iv = omega_s_bounds(THREE_ENTRY, Fraction(1, 2), Budget(10, 0), precision=30)
    assert frac(iv.lo) == Fraction(3, 8) and frac(iv.hi) == Fraction(3, 8)


def test_omega_s_two_thirds_outward_rounding():
    p = 40
    iv = omega_s_bounds(THREE_ENTRY, Fraction(2, 3), Budget(10, 0), precision=p)
    assert frac(iv.width()) <= Fraction(3, 2**p)
    # per-term oracle: the exact sum is 2^-3/2 + 2 * 2^-3, squeeze the
    # irrational term by squaring
    lo, hi = frac(iv.lo) - Fraction(2, 8), frac(iv.hi) - Fraction(2, 8)
    assert lo**2 <= Fraction(1, 8) <= hi**2


def test_omega_s_empty_machine():
    iv = omega_s_bounds(validate_table([]), Fraction(2, 3), Budget(8, 0), precision=20)
    assert iv.lo == ZERO and iv.hi == ZERO


class _UnwalkableTable(TableMachine):
    """A table whose output lengths cannot be read, so that a cut walk or a
    census that walks its calls fails loudly."""

    def _refuse(self):
        raise AssertionError("walked the header classes to a table call")

    # the constructor's write of the output lengths is dropped
    output_lengths = property(_refuse, lambda self, value: None)


def test_budget_guard_trips():
    # the census walks fewer than L*L header classes: past 2^20 of them it
    # refuses before it walks any, unless forced
    interp = Interpreter(aux=(_UnwalkableTable(THREE_ENTRY.entries),))
    budget = Budget(1025, 10**4)
    with pytest.raises(BudgetGuard, match="L=1025"):
        domain_census(interp, budget)
    forced = Budget(1025, 10**4, allow_large=True)
    with pytest.raises(AssertionError, match="to a table call"):
        domain_census(interp, forced)  # past the guard, it reads the table
    counts, cut = domain_census(Interpreter(), Budget(1024, 10**4))
    forced, forced_cut = domain_census(Interpreter(), Budget(1025, 10**4, allow_large=True))
    assert {l: c for l, c in forced.items() if l <= 1024} == counts
    assert {l for l in forced_cut if l <= 1024} == cut


def test_cut_walk_is_guarded_by_its_length():
    # the cut walk takes about L steps per tag and holds nothing, so it
    # refuses only an L past 2^20; the census's L*L guard does not apply
    interp = Interpreter(aux=(_UnwalkableTable(THREE_ENTRY.entries),))
    with pytest.raises(AssertionError, match="to a table call"):
        complexity(interp, "0101", Budget(1025, 10**4))  # walked, unforced
    big = machines.MAX_BUILT + 1
    with pytest.raises(BudgetGuard, match=f"cut walk at L={big}"):
        complexity(interp, "0101", Budget(big, 10**4))
    with pytest.raises(AssertionError, match="to a table call"):
        complexity(interp, "0101", Budget(big, 10**4, allow_large=True))
    target = "01" * 1024
    v = complexity(Interpreter(), target, Budget(2100, 10**4))
    forced = complexity(Interpreter(), target, Budget(2100, 10**4, allow_large=True))
    assert v[:2] == forced[:2] and v.witness == forced.witness
    assert v.status is KStatus.EXACT
    assert machines._first_cut_length(Interpreter(), Budget(2100, 10**4)) == _census_first_cut(
        Interpreter(), Budget(2100, 10**4, allow_large=True)
    )

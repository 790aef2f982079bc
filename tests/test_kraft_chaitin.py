"""Codeword allocation: determinism, exactness, completeness, prefix-freeness."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leftreal import machines
from leftreal.errors import BudgetGuard, WeightExceeded
from leftreal.foundations import ONE, ZERO, Dyadic, half_power
from leftreal.kraft_chaitin import KCAllocator, kc_allocate, kc_build_machine
from leftreal.machines import Budget, complexity


def brute_force_prefix_free(words):
    for a, b in itertools.combinations(words, 2):
        if a.startswith(b) or b.startswith(a):
            return False
    return True


def check_free_blocks(alloc):
    """The interval discipline: the free blocks, largest first, lie left to
    right."""
    levels = sorted(alloc._free, reverse=True)
    positions = [Dyadic.of(alloc._free[lvl], lvl) for lvl in levels]
    assert all(a < b for a, b in zip(positions, positions[1:]))


def test_leftmost_fit_examples():
    assert kc_allocate([1, 2, 2]) == ["0", "10", "11"]
    assert kc_allocate([2, 1]) == ["00", "1"]
    assert kc_allocate([3, 1, 3, 3]) == ["000", "1", "001", "010"]


def test_weight_overflow_rejected_at_first_violation():
    alloc = KCAllocator()
    alloc.request(1)
    alloc.request(1)
    with pytest.raises(WeightExceeded):
        alloc.request(1)
    # the failed request leaves the allocator usable at smaller lengths? no:
    # weight is already exactly 1, nothing fits
    with pytest.raises(WeightExceeded):
        alloc.request(9)


def test_weight_exactly_one_accepted():
    assert kc_allocate([1, 2, 3, 3]) == ["0", "10", "110", "111"]
    alloc = KCAllocator()
    assert alloc.request(0) == ""
    with pytest.raises(WeightExceeded):
        alloc.request(12)


def test_determinism():
    lengths = [3, 1, 4, 4, 3, 5, 5]  # weight 30/32
    assert kc_allocate(lengths) == kc_allocate(lengths)


@st.composite
def admissible_lengths(draw):
    lengths = []
    weight = Fraction(0)
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        l = draw(st.integers(min_value=0, max_value=12))
        if weight + Fraction(1, 2**l) > 1:
            break
        weight += Fraction(1, 2**l)
        lengths.append(l)
    return lengths


@settings(max_examples=200, deadline=None)
@given(admissible_lengths())
def test_admissible_sequences_always_succeed(lengths):
    alloc = KCAllocator()
    words = [alloc.request(l) for l in lengths]
    assert [len(w) for w in words] == lengths
    assert brute_force_prefix_free(words)
    check_free_blocks(alloc)
    free = alloc.free_weight()
    assert Fraction(free.num, 2**free.exp) == 1 - sum(Fraction(1, 2**l) for l in lengths)


class ListLedgerAllocator:
    """The allocator kept as a running committed total next to a
    position-sorted list of free blocks: the oracle for the free-block map."""

    def __init__(self):
        self.free = [(0, 0)]  # (level, index), sorted by position
        self.committed = ZERO

    def request(self, length):
        if length < 0:
            raise ValueError("codeword length must be a natural number")
        w = half_power(length)
        if self.committed + w > ONE:
            raise WeightExceeded(
                f"request of length {length} exceeds remaining weight "
                f"(committed {self.committed})"
            )
        slot = next(i for i, (lvl, _) in enumerate(self.free) if lvl <= length)
        level, idx = self.free[slot]
        self.free[slot : slot + 1] = [
            (j, (idx << (j - level)) + 1) for j in range(length, level, -1)
        ]
        self.committed = self.committed + w
        return format(idx << (length - level), f"0{length}b") if length else ""


def outcome(alloc, length):
    """The codeword issued for ``length``, or the refusal's type and message."""
    try:
        return alloc.request(length)
    except (ValueError, WeightExceeded) as e:
        return type(e), str(e)


# short lengths mixed in, so that most sequences run past weight 1
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-2, max_value=30) | st.integers(0, 3), max_size=60))
def test_allocator_matches_list_ledger_oracle(lengths):
    alloc, oracle = KCAllocator(), ListLedgerAllocator()
    assert [outcome(alloc, l) for l in lengths] == [outcome(oracle, l) for l in lengths]
    check_free_blocks(alloc)
    assert alloc.free_weight() == ONE - oracle.committed


def test_overlong_request_is_refused_before_anything_is_built(monkeypatch):
    monkeypatch.setattr(machines, "MAX_BUILT", 8)  # the guard reads it at each call
    alloc = KCAllocator()
    assert alloc.request(3) == "000"
    before = alloc.free_weight()
    with pytest.raises(BudgetGuard, match="^a codeword of 9 bits, above the 8 guard; nothing"):
        alloc.request(9)
    assert alloc.free_weight() == before
    assert alloc.request(8) == "00100000"


def test_completeness_dense_mixed_sequence():
    rng = random.Random(2)
    for _ in range(50):
        weight = Fraction(0)
        lengths = []
        while True:
            l = rng.randint(1, 12)
            if weight + Fraction(1, 2**l) > 1:
                remaining = 1 - weight
                # finish the unit interval exactly with dyadic crumbs
                while remaining:
                    e = remaining.denominator.bit_length() - 1
                    lengths.append(e)
                    remaining -= Fraction(1, 2**e)
                break
            weight += Fraction(1, 2**l)
            lengths.append(l)
        words = kc_allocate(lengths)
        assert brute_force_prefix_free(words)
        assert sum(Fraction(1, 2 ** len(w)) for w in words) == 1


def test_build_machine_realizes_requested_complexities():
    m = kc_build_machine([(2, "000"), (2, "001")])
    b = Budget(10, 100)
    assert complexity(m, "000", b).value == 2
    assert complexity(m, "001", b).value == 2


def test_build_machine_empty():
    assert kc_build_machine([]).entries == ()


def test_build_machine_theorem_weights():
    # the telescoping level weights sum to exactly 1: lengths n+1 repeated
    # 2^n times consume 2^n * 2^-(n+1) = 1/2 per level over two levels,
    # then crumbs; here: singleton levels of length n+1 for n = 0..k
    requests = [(n + 1, format(n, "06b")) for n in range(6)]
    m = kc_build_machine(requests)
    b = Budget(10, 100)
    for n in range(6):
        assert complexity(m, format(n, "06b"), b).value == n + 1

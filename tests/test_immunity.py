"""Immunity falsifiers: refutation evidence, threshold semantics, vocabulary."""

import random

import pytest

from leftreal.errors import DisjointnessViolation, HorizonExceeded, InsufficientElements
from leftreal.foundations import NatSetView, column, evens, join, multiples
from leftreal.immunity import (
    Property,
    Result,
    check_bi_immune,
    check_cohesive,
    check_hhi,
    check_hyperimmune,
    check_immune,
    check_shhi,
    principal_function,
)
from leftreal.names import Modulus
from leftreal.spectra import square_interleave
from leftreal.foundations import BitStream, squares_shifted


def view_of_stream(stream, horizon, label=""):
    return NatSetView(lambda n: stream.bit(n) == 1, horizon, label=label)


# ---------------------------------------------------------------------------
# immune
# ---------------------------------------------------------------------------


def test_immune_refuted_by_enumerable_subset():
    v = check_immune(evens(200), multiples(4, 200), horizon=200)
    assert v.refuted
    assert v.witness["subset"]


def test_immune_consistent_when_one_element_escapes():
    w = NatSetView.from_elements([0, 2, 4, 5], horizon=100)
    v = check_immune(evens(100), w, horizon=100)
    assert not v.refuted


def test_immune_consistent_below_threshold():
    w = NatSetView.from_elements([0, 2], horizon=100)
    v = check_immune(evens(100), w, horizon=100)
    assert not v.refuted  # subset, but only two witnesses at threshold 25


def test_immune_column_witness_via_pairing():
    # a column of the pairing function avoids the chosen set entirely,
    # refuting immunity of the complement
    a = column(0, 400)
    comp = a.complement()
    w = column(1, 400)
    assert all(not a.member(n) for n in w.enumerated_below(400))
    v = check_immune(comp, w, horizon=400, threshold=10)
    assert v.refuted


# ---------------------------------------------------------------------------
# hyperimmune
# ---------------------------------------------------------------------------


def test_hyperimmune_refuted_by_doubling_majorizer():
    v = check_hyperimmune(evens(1000), Modulus.affine(2, 0), horizon=400)
    assert v.refuted


def test_hyperimmune_consistent_with_identity():
    v = check_hyperimmune(evens(1000), Modulus.affine(1, 0), horizon=10)
    assert not v.refuted
    assert v.witness["first_failure"] == 1  # p(1) = 2 > 1


def test_hyperimmune_self_majorization_always_refutes():
    rng = random.Random(8)
    for _ in range(20):
        elems = sorted(rng.sample(range(4000), 1000))
        a = NatSetView.from_elements(elems, horizon=4000)
        p = principal_function(a, 1000)
        v = check_hyperimmune(a, Modulus.from_values(p), horizon=1000)
        assert v.refuted


def test_hyperimmune_needs_enough_elements():
    a = NatSetView.from_elements([1, 2], horizon=100)
    with pytest.raises(InsufficientElements):
        check_hyperimmune(a, Modulus.affine(2, 0), horizon=50)


def _recording_view(member, horizon):
    reads = []
    return NatSetView(lambda n: reads.append(n) or member(n), horizon), reads


class _RecordingRate:
    """A rate read off a list, recording each index it is read at."""

    label = "recording"

    def __init__(self, values):
        self.values = values
        self.reads = []

    def at(self, n):
        self.reads.append(n)
        return self.values[n]


def test_principal_function_reads_members_up_to_the_count_th_element():
    view, reads = _recording_view(lambda n: n % 3 == 0, 1000)
    assert principal_function(view, 10) == list(range(0, 30, 3))
    assert reads == list(range(28))  # 27 is the tenth element
    # stopping short, it has read every member below the horizon
    view, reads = _recording_view(lambda n: n in (1, 2), 100)
    short = "^view has only 2 elements below 100, need 50$"
    with pytest.raises(InsufficientElements, match=short):
        principal_function(view, 50)
    assert reads == list(range(100))


def test_hyperimmune_reads_each_rate_value_once_in_order():
    rng = random.Random(14)
    for _ in range(200):
        horizon = rng.randint(1, 40)
        elems = sorted(rng.sample(range(120), rng.randint(horizon, 100)))
        view, reads = _recording_view(set(elems).__contains__, 120)
        rate = _RecordingRate([rng.randint(0, 130) for _ in range(horizon)])
        v = check_hyperimmune(view, rate, horizon)
        p = elems[:horizon]
        failures = [n for n in range(horizon) if p[n] > rate.values[n]]  # the oracle
        assert v.refuted == (not failures)
        assert v.witness["first_failure"] == (failures[0] if failures else None)
        assert rate.reads == list(range(horizon))
        assert reads == list(range(p[-1] + 1))


def test_hyperimmune_rate_failing_past_the_first_failure_still_raises():
    # p(1) = 2 > f(1) = 0 fails first, then reading f(3) fails
    with pytest.raises(HorizonExceeded):
        check_hyperimmune(evens(100), Modulus.from_values([0, 0, 0]), 10)


# ---------------------------------------------------------------------------
# hyperhyperimmune variants
# ---------------------------------------------------------------------------


def test_hhi_refuted_by_consecutive_blocks():
    blocks = [[2 * i, 2 * i + 1] for i in range(40)]
    v = check_hhi(evens(100), blocks, horizon=100)
    assert v.refuted


def test_hhi_consistent_when_a_block_misses():
    blocks = [[0, 2], [1, 3]]
    v = check_hhi(evens(100), blocks, horizon=100)
    assert not v.refuted
    assert v.witness["first_missed"] == 1


def test_hhi_rejects_overlapping_blocks():
    with pytest.raises(DisjointnessViolation):
        check_hhi(evens(100), [[0, 1], [1, 2]], horizon=100)


def test_shhi_with_enumerator_backed_blocks():
    blocks = [column(i, 300) for i in range(4)]
    target = NatSetView(lambda n: True, 300, label="full")
    v = check_shhi(target, blocks, horizon=300)
    assert v.refuted
    assert v.property is Property.STRONGLY_HYPERHYPERIMMUNE


# ---------------------------------------------------------------------------
# cohesive
# ---------------------------------------------------------------------------


def test_cohesive_refuted_for_self_join_by_evens_split():
    rng = random.Random(21)
    for _ in range(25):
        n = 64
        elems = rng.sample(range(n), rng.randint(n // 2, n))
        a = NatSetView.from_elements(elems, horizon=n)
        b = join(a, a)
        v = check_cohesive(b, evens(2 * n), horizon=2 * n)
        assert v.refuted
        assert v.witness["inside"] >= v.threshold
        assert v.witness["outside"] >= v.threshold


def test_cohesive_consistent_when_contained_in_split():
    a = NatSetView.from_elements([0, 2, 4, 6], horizon=50)
    v = check_cohesive(a, evens(50), horizon=50)
    assert not v.refuted


def test_cohesive_consistent_when_threshold_unreachable():
    a = NatSetView.from_elements(list(range(10)), horizon=50)
    v = check_cohesive(a, evens(50), horizon=50, threshold=30)
    assert not v.refuted


# ---------------------------------------------------------------------------
# bi-immune
# ---------------------------------------------------------------------------


def test_bi_immune_refuted_on_complement_side_by_square_zeros():
    stream = square_interleave(BitStream.periodic("1"))
    a = view_of_stream(stream, 600, label="sq0(1*)")
    w_squares = squares_shifted(600)
    empty = NatSetView.from_elements([], horizon=600)
    v = check_bi_immune(a, empty, w_squares, horizon=600, threshold=10)
    assert v.refuted
    assert v.witness["complement_side"]["refuted"]
    assert not v.witness["set_side"]["refuted"]


def test_bi_immune_refuted_on_set_side():
    a = evens(200)
    w = multiples(4, 200)
    empty = NatSetView.from_elements([], horizon=200)
    v = check_bi_immune(a, w, empty, horizon=200)
    assert v.refuted and v.witness["set_side"]["refuted"]


def test_bi_immune_consistent_for_scattered_set():
    rng = random.Random(3)
    elems = rng.sample(range(200), 100)
    a = NatSetView.from_elements(elems, horizon=200)
    probe = NatSetView.from_elements(sorted(rng.sample(range(200), 60)), horizon=200)
    v = check_bi_immune(a, probe, probe, horizon=200)
    assert not v.refuted  # the probe almost surely leaves both sides


# ---------------------------------------------------------------------------
# contract: no refutation without evidence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "check, horizon, threshold",
    [
        (lambda h, t: check_hyperimmune(evens(1000), Modulus.affine(0, 0), h), 0, None),
        (lambda h, t: check_cohesive(evens(100), evens(100), h, t), 0, None),
        (lambda h, t: check_cohesive(evens(100), evens(100), h, t), 100, 0),
        (lambda h, t: check_immune(evens(100), NatSetView.from_elements([], 100), h, t), 100, 0),
        (lambda h, t: check_immune(evens(100), multiples(4, 100), h, t), -1, None),
        (lambda h, t: check_bi_immune(evens(100), evens(100), evens(100), h, t), 0, None),
        (lambda h, t: check_bi_immune(evens(100), evens(100), evens(100), h, t), 100, 0),
    ],
)
def test_checkers_refuse_a_horizon_or_threshold_below_one(check, horizon, threshold):
    name = "horizon" if horizon < 1 else "threshold"
    with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
        check(horizon, threshold)


def test_hyperimmune_at_horizon_one_reads_one_principal_value():
    # p_a(0) = 0 <= 0, and p_a(1) = 2 > 0 past the horizon of 1
    assert check_hyperimmune(evens(1000), Modulus.affine(0, 0), 1).refuted
    v = check_hyperimmune(evens(1000), Modulus.affine(0, 0), 3)
    assert not v.refuted and v.witness["first_failure"] == 1


# ---------------------------------------------------------------------------
# contract: the vocabulary is two-valued, never affirmative
# ---------------------------------------------------------------------------


def test_no_checker_returns_affirmative_verdicts():
    assert {r.value for r in Result} == {
        "refuted-at-horizon",
        "consistent-at-horizon",
    }
    a = evens(100)
    w = multiples(4, 100)
    empty = NatSetView.from_elements([], horizon=100)
    verdicts = [
        check_immune(a, w, 100),
        check_hyperimmune(a, Modulus.affine(2, 0), 25),
        check_hhi(a, [[0, 1]], 100),
        check_shhi(a, [column(0, 100)], 100),
        check_cohesive(a, w, 100),
        check_bi_immune(a, w, empty, 100),
    ]
    for v in verdicts:
        assert v.result in (Result.REFUTED_AT_HORIZON, Result.CONSISTENT_AT_HORIZON)
        assert v.threshold > 0
        assert isinstance(v.witness, dict)

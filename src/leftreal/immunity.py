"""Bounded falsifiers for the six sparseness notions of set views.

Each notion is infinitary, so no checker ever affirms it.  The result
vocabulary is exactly two-valued: a refutation carries finitely
checkable evidence valid at the horizon, and anything else is
consistency at the horizon.  "Infinite at this scale" is approximated by
a transparent witness-count threshold, reported in every verdict.
"""

from __future__ import annotations

import enum
from itertools import islice
from typing import TYPE_CHECKING

from .errors import DisjointnessViolation, InsufficientElements
from .foundations import NatSetView, Record

if TYPE_CHECKING:
    from typing import Optional, Sequence

DEFAULT_THRESHOLD_DIVISOR = 4


class Property(enum.Enum):
    IMMUNE = "immune"
    HYPERIMMUNE = "hyperimmune"
    HYPERHYPERIMMUNE = "hyperhyperimmune"
    STRONGLY_HYPERHYPERIMMUNE = "strongly-hyperhyperimmune"
    COHESIVE = "cohesive"
    BI_IMMUNE = "bi-immune"


class Result(enum.Enum):
    REFUTED_AT_HORIZON = "refuted-at-horizon"
    CONSISTENT_AT_HORIZON = "consistent-at-horizon"


class ImmunityVerdict(Record):
    __slots__ = _fields = ("property", "result", "horizon", "threshold", "witness")
    __hash__ = None  # the witness is a dict

    def __init__(
        self,
        property: Property,
        result: Result,
        horizon: int,
        threshold: int,
        witness: Optional[dict] = None,
    ):
        self.property = property
        self.result = result
        self.horizon = horizon
        self.threshold = threshold
        self.witness = {} if witness is None else witness

    @property
    def refuted(self) -> bool:
        return self.result is Result.REFUTED_AT_HORIZON


def _verdict(
    prop: Property, refuted: bool, horizon: int, threshold: int, **witness
) -> ImmunityVerdict:
    """The verdict on ``prop`` at the horizon, with its evidence as ``witness``."""
    result = Result.REFUTED_AT_HORIZON if refuted else Result.CONSISTENT_AT_HORIZON
    return ImmunityVerdict(prop, result, horizon, threshold, witness)


def _threshold(horizon: int, threshold: Optional[int]) -> int:
    """The witness count that stands for "infinitely many" at the horizon.

    Both must be at least 1: a refutation resting on zero elements would
    carry no evidence.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    if threshold is None:
        return -(-horizon // DEFAULT_THRESHOLD_DIVISOR)
    if threshold < 1:
        raise ValueError(f"threshold must be at least 1, got {threshold}")
    return threshold


def principal_function(view: NatSetView, count: int) -> list[int]:
    """First ``count`` elements in increasing order (the principal values).
    Membership is read only up to the ``count``-th element."""
    elems = list(islice(filter(view.member, range(view.horizon)), count))
    if len(elems) < count:  # so every member below the horizon was read
        raise InsufficientElements(
            f"{view.label or 'view'} has only {len(elems)} elements below "
            f"{view.horizon}, need {count}"
        )
    return elems


def check_immune(
    a: NatSetView,
    w: NatSetView,
    horizon: int,
    threshold: Optional[int] = None,
) -> ImmunityVerdict:
    """Refute immunity by exhibiting an enumerable subset, large at scale.

    Refuted when every element ``w`` enumerates below the horizon lies in
    ``a`` and there are at least ``threshold`` of them.
    """
    thr = _threshold(horizon, threshold)
    enumerated = w.enumerated_below(min(horizon, a.horizon))
    inside = [n for n in enumerated if a.member(n)]
    subset = len(inside) == len(enumerated)
    refuted = subset and len(enumerated) >= thr
    return _verdict(
        Property.IMMUNE, refuted, horizon, thr,
        enumerated=len(enumerated), inside=len(inside), subset=subset, witness_set=w.label,
    )


def check_hyperimmune(
    a: NatSetView,
    f,
    horizon: int,
) -> ImmunityVerdict:
    """Refute hyperimmunity by a majorizer: ``p_a(n) <= f(n)`` below the horizon."""
    thr = _threshold(horizon, horizon)  # every principal value below the horizon counts
    first_failure = None
    for n, p_n in enumerate(principal_function(a, horizon)):
        # f(n) is read at every n, so a rate failing past the first failure raises
        if p_n > f.at(n) and first_failure is None:
            first_failure = n
    return _verdict(
        Property.HYPERIMMUNE, first_failure is None, horizon, thr,
        majorizer=getattr(f, "label", "?"), first_failure=first_failure,
    )


def _check_blocks(
    prop: Property,
    a: NatSetView,
    blocks: Sequence[Sequence[int]],
    horizon: int,
) -> ImmunityVerdict:
    seen: set[int] = set()
    for i, block in enumerate(blocks):
        b = set(block)
        if b & seen:
            raise DisjointnessViolation(
                f"block {i} overlaps an earlier block on {sorted(b & seen)[:5]}"
            )
        seen |= b
    missed = [
        i
        for i, block in enumerate(blocks)
        if not any(n < min(horizon, a.horizon) and a.member(n) for n in block)
    ]
    return _verdict(
        prop, not missed and len(blocks) > 0, horizon, len(blocks),
        blocks=len(blocks), first_missed=missed[0] if missed else None,
    )


def check_hhi(
    a: NatSetView,
    blocks: Sequence[Sequence[int]],
    horizon: int,
) -> ImmunityVerdict:
    """Refute hyperhyperimmunity: disjoint finite blocks, each meeting ``a``."""
    return _check_blocks(Property.HYPERHYPERIMMUNE, a, blocks, horizon)


def check_shhi(
    a: NatSetView,
    block_views: Sequence[NatSetView],
    horizon: int,
) -> ImmunityVerdict:
    """As :func:`check_hhi` with enumerator-backed (possibly infinite) blocks."""
    blocks = [v.enumerated_below(horizon) for v in block_views]
    return _check_blocks(Property.STRONGLY_HYPERHYPERIMMUNE, a, blocks, horizon)


def check_cohesive(
    a: NatSetView,
    w: NatSetView,
    horizon: int,
    threshold: Optional[int] = None,
) -> ImmunityVerdict:
    """Refute cohesiveness: the split along ``w`` leaves both sides large."""
    thr = _threshold(horizon, threshold)
    h = min(horizon, a.horizon, w.horizon)
    inside = sum(1 for n in range(h) if a.member(n) and w.member(n))
    outside = sum(1 for n in range(h) if a.member(n) and not w.member(n))
    return _verdict(
        Property.COHESIVE, inside >= thr and outside >= thr, horizon, thr,
        split=w.label, inside=inside, outside=outside,
    )


def check_bi_immune(
    a: NatSetView,
    w_for_a: NatSetView,
    w_for_complement: NatSetView,
    horizon: int,
    threshold: Optional[int] = None,
) -> ImmunityVerdict:
    """Refute bi-immunity by refuting immunity of either side.

    Each side is :func:`check_immune`, which checks the horizon and threshold.
    """
    side_a = check_immune(a, w_for_a, horizon, threshold)
    side_c = check_immune(a.complement(), w_for_complement, horizon, threshold)
    return _verdict(
        Property.BI_IMMUNE, side_a.refuted or side_c.refuted, horizon, side_a.threshold,
        set_side=side_a.witness | {"refuted": side_a.refuted},
        complement_side=side_c.witness | {"refuted": side_c.refuted},
    )

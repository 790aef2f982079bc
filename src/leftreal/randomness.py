"""Level-indexed randomness-test families with exact weight accounting.

A family assigns to each level ``n`` a finite list of strings, each
listed once, in enumeration order.  A Martin-Löf family must keep the
level weight ``sum(2**-len(s))`` at or below ``2**-n``; a strong Kurtz
family additionally keeps each level length-uniform.  Explicit families
drop repeated strings once, when built, so no string counts twice.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    DegenerateMachine,
    HorizonExceeded,
    LevelEmpty,
    PreconditionRefuted,
    RateError,
)
from .foundations import (
    BitStream,
    Dyadic,
    ONE,
    check_prefix_free,
    dyadic_weight,
    half_power,
)
from .kraft_chaitin import kc_build_machine
from .machines import Budget, PrefixMachine, TableMachine, domain_census, outputs_of_length
from .names import Modulus

if TYPE_CHECKING:
    from typing import Callable, Iterable, Iterator, Optional, Sequence


class TestKind(enum.Enum):
    __test__ = False  # keep pytest from collecting the Test* name

    MARTIN_LOF = "martin-löf"
    STRONG_KURTZ = "strong-kurtz"


class TestFamily:
    """Level lists of distinct strings plus kind.

    ``level_fn(n)`` returns level ``n``'s distinct strings, in enumeration
    order, as a list; the family may cache it, so readers slice it.
    """

    __test__ = False  # keep pytest from collecting the Test* name

    def __init__(
        self,
        level_fn: Callable[[int], list[str]],
        kind: TestKind,
        meta: Optional[dict] = None,
    ):
        self._level_fn = level_fn
        self.kind = kind
        self.meta = meta or {}

    def level_list(self, n: int, stage: Optional[int] = None) -> list[str]:
        """The first ``stage`` strings of level ``n`` (all when None), as a copy."""
        return self._level_fn(n)[:stage]

    @staticmethod
    def explicit(levels: Sequence[Sequence[str]], kind: TestKind) -> "TestFamily":
        """A family of the given levels, each with its repeats dropped."""
        frozen = [list(dict.fromkeys(lv)) for lv in levels]

        def level_fn(n: int) -> list[str]:
            return frozen[n] if n < len(frozen) else []

        return TestFamily(level_fn, kind)


def weight_of(strings: Iterable[str]) -> Dyadic:
    """Exact ``sum(2**-len(s))`` (caller is responsible for deduplication)."""
    return dyadic_weight(Counter(len(s) for s in strings))


def level_weight(family: TestFamily, n: int, stage: Optional[int] = None) -> Dyadic:
    """Weight of the first ``stage`` strings of level ``n``.

    A stage-truncated weight is a lower bound of the true level weight;
    it is exact when the level holds at most ``stage`` strings.
    """
    return weight_of(family.level_list(n, stage))


class FamilyStatus(enum.Enum):
    CONSISTENT = "consistent"
    REFUTED = "refuted"


class FamilyVerdict(NamedTuple):
    status: FamilyStatus
    refuted_level: Optional[int] = None
    reason: str = ""

    @property
    def consistent(self) -> bool:
        return self.status is FamilyStatus.CONSISTENT


def validate_family(
    family: TestFamily, n_max: int, stage: Optional[int] = None
) -> FamilyVerdict:
    """Budgeted weight / uniform-length validation.

    Refutation is sound and final (weights only grow with more
    enumeration); consistency is relative to the stage budget.
    """
    for n in range(n_max + 1):
        strings = family.level_list(n, stage)
        if family.kind is TestKind.STRONG_KURTZ and len({len(s) for s in strings}) > 1:
            return FamilyVerdict(
                FamilyStatus.REFUTED, n, reason=f"mixed lengths at level {n}"
            )
        w = weight_of(strings)
        if w > half_power(n):
            return FamilyVerdict(
                FamilyStatus.REFUTED,
                n,
                reason=f"level {n} weight {w} exceeds 2^-{n}",
            )
    return FamilyVerdict(FamilyStatus.CONSISTENT)


class CoverageReport(NamedTuple):
    level: int
    witness: Optional[str]

    @property
    def covered(self) -> bool:
        return self.witness is not None


def covers(
    family: TestFamily, x: BitStream, n: int, stage: Optional[int] = None
) -> CoverageReport:
    """Search the first ``stage`` strings of level ``n`` for a prefix of ``x``."""
    for s in family.level_list(n, stage):
        if x.prefix(len(s)) == s:
            return CoverageReport(level=n, witness=s)
    return CoverageReport(level=n, witness=None)


# ---------------------------------------------------------------------------
# Rate -> test (one proof direction)
# ---------------------------------------------------------------------------


def skt_from_rate(
    machine: PrefixMachine, r: Modulus, n_max: int, budget: Budget
) -> TestFamily:
    """Build the strong Kurtz family whose level ``n`` collects outputs of
    length ``r(n)`` produced by programs of length at most ``r(n) - n``.

    Requires ``r`` strictly increasing with ``r(n) > n`` on the range, so
    ``r(n) - n`` grows with ``n``.  Each level is read from the
    instruction set by ``outputs_of_length``, whose string guard no budget
    lifts.  The family's ``meta['complete']`` is False when the step
    budget cut a program of at most ``max(L, r(n_max) - n_max)`` bits
    (levels are then under-approximations: still sound for the weight
    bound, possibly incomplete for coverage).
    """
    for n in range(n_max + 1):
        if r.at(n) <= n:
            raise RateError(f"need r(n) > n, got r({n}) = {r.at(n)}")
    if not r.strictly_increasing_on(n_max):
        raise RateError("rate must be strictly increasing on the level range")
    levels: list[list[str]] = []
    for n in range(n_max + 1):
        max_prog = r.at(n) - n
        level = outputs_of_length(machine, r.at(n), max_prog, budget.t)
        if len(level) >= 1 << max_prog:
            raise DegenerateMachine(
                f"level {n} holds {len(level)} >= 2^{max_prog} strings; "
                "the budgeted domain is a complete code at that length"
            )
        levels.append(level)
    census = Budget(max(r.at(n_max) - n_max, budget.L), budget.t, budget.allow_large)
    family = TestFamily.explicit(levels, TestKind.STRONG_KURTZ)
    family.meta.update(
        {
            "complete": not domain_census(machine, census)[1],
            "machine": getattr(machine, "id", None),
            "rate": r.label,
            "n_max": n_max,
        }
    )
    return family


# ---------------------------------------------------------------------------
# Test -> machine and rate (the converse direction)
# ---------------------------------------------------------------------------


class RateReadoff(NamedTuple):
    """Rate read off a family's level lengths; not necessarily monotone."""

    values: list[Optional[int]]

    def at(self, n: int) -> int:
        if n >= len(self.values):
            raise HorizonExceeded(f"rate known only up to {len(self.values) - 1}")
        v = self.values[n]
        if v is None:
            raise LevelEmpty(n)
        return v


class SynthesizedMachine(NamedTuple):
    machine: TableMachine
    rate: RateReadoff
    overhead: int
    requests: list[tuple[int, str]]
    codewords: list[str]


def rate_from_skt(
    family: TestFamily,
    overhead: int,
    n_max: int,
    stage: Optional[int] = None,
) -> SynthesizedMachine:
    """Synthesize a machine from a covering strong Kurtz family.

    Requests ``(len(s) - m, s)`` are drawn from the odd levels ``2m+1``
    (whose weights telescope to at most 1), in level order; the returned
    rate reads off the common length of level ``2(n + overhead) + 1``.
    ``overhead`` is the measured cost of embedding the synthesized table
    into a host machine (0 when complexities are taken relative to the
    synthesized machine itself).
    """
    levels: list[list[str]] = []  # the odd levels 2m+1, each read once

    def requests() -> Iterator[tuple[int, str]]:
        for m in range(n_max + overhead + 1):
            levels.append(family.level_list(2 * m + 1, stage))
            for s in levels[-1]:
                if len(s) < m:
                    raise PreconditionRefuted(
                        f"level {2 * m + 1} string shorter than the level index allows"
                    )
                yield len(s) - m, s

    machine = kc_build_machine(requests())
    values: list[Optional[int]] = []
    for n, level in enumerate(levels[overhead:]):
        lengths = {len(s) for s in level}
        if len(lengths) > 1:
            raise PreconditionRefuted(
                f"level {2 * (n + overhead) + 1} is not length-uniform"
            )
        values.append(lengths.pop() if lengths else None)
    return SynthesizedMachine(
        machine=machine,
        rate=RateReadoff(values),
        overhead=overhead,
        requests=[(len(cw), s) for cw, s in machine.entries],
        codewords=[cw for cw, _ in machine.entries],
    )


# ---------------------------------------------------------------------------
# Kurtz witness check
# ---------------------------------------------------------------------------


class KurtzStatus(enum.Enum):
    PREFIX_FOUND = "prefix-found"
    NOT_FOUND_AT_STAGE = "not-found-at-stage"


class KurtzReport(NamedTuple):
    status: KurtzStatus
    witness: Optional[str] = None


def kurtz_witness_check(
    strings: Iterable[str], x: BitStream, stage: int
) -> KurtzReport:
    """Check whether a weight-1 prefix-free set contains a prefix of ``x``.

    The set must be prefix-free, exhaust within ``stage`` emissions, and
    have total weight exactly 1 (a complete code); violations raise.
    """
    collected: list[str] = []
    it = iter(strings)
    for _ in range(stage):
        try:
            collected.append(next(it))
        except StopIteration:
            break
    else:
        try:
            next(it)
            raise PreconditionRefuted(f"enumerator did not exhaust within {stage}")
        except StopIteration:
            pass
    collected = list(dict.fromkeys(collected))
    check_prefix_free(collected)
    total = weight_of(collected)
    if total != ONE:
        raise PreconditionRefuted(f"total weight {total} differs from 1")
    witness = next((s for s in collected if x.prefix(len(s)) == s), None)
    if witness is None:
        return KurtzReport(KurtzStatus.NOT_FOUND_AT_STAGE)
    return KurtzReport(KurtzStatus.PREFIX_FOUND, witness=witness)

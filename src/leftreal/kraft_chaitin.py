"""Online Kraft-Chaitin codeword allocation and machine synthesis.

The allocator hands out codewords of requested lengths while keeping the
issued set prefix-free.  Free space is a position-sorted list of aligned
dyadic blocks of [0, 1); requests split the leftmost adequate block
(which, under the discipline below, is also the smallest adequate one:
block sizes strictly increase from left to right, one block per size).
This accepts every request sequence whose running weight stays <= 1 --
the closed bound is allowed -- and is fully deterministic.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from .errors import WeightExceeded
from .foundations import Dyadic, ONE, ZERO, dyadic_weight, half_power
from .machines import TableMachine, validate_table

if TYPE_CHECKING:
    from typing import Iterable, Sequence


def _block_position(block: tuple[int, int]) -> Dyadic:
    level, idx = block
    return Dyadic.of(idx, level)


class KCAllocator:
    """Sequential codeword allocator; distinct allocators are independent."""

    def __init__(self):
        self._free: list[tuple[int, int]] = [(0, 0)]  # (level, index), sorted by position
        self.committed: Dyadic = ZERO
        self.issued: list[tuple[str, int]] = []

    def request(self, length: int) -> str:
        """Issue a fresh codeword of exactly ``length`` bits.

        Raises :class:`WeightExceeded` when the request would push the
        committed weight above 1; acceptance up to weight exactly 1.
        """
        if length < 0:
            raise ValueError("codeword length must be a natural number")
        w = half_power(length)
        if self.committed + w > ONE:
            raise WeightExceeded(
                f"request of length {length} exceeds remaining weight "
                f"(committed {self.committed})"
            )
        slot = next(
            (i for i, (lvl, _) in enumerate(self._free) if lvl <= length), None
        )
        if slot is None:  # unreachable under the block discipline
            raise WeightExceeded(f"no aligned free interval for length {length}")
        level, idx = self._free[slot]
        code_idx = idx << (length - level)
        codeword = format(code_idx, f"0{length}b") if length else ""
        # remainder: one block per size 2^-length .. 2^-(level+1), left to right
        remainder = [
            (j, (idx << (j - level)) + 1) for j in range(length, level, -1)
        ]
        self._free[slot : slot + 1] = remainder
        self.committed = self.committed + w
        self.issued.append((codeword, length))
        return codeword

    def free_weight(self) -> Dyadic:
        return dyadic_weight(Counter(level for level, _ in self._free))

    def check_invariants(self) -> None:
        """Assert the interval-discipline invariants (used by tests)."""
        assert self.committed + self.free_weight() == ONE
        positions = [_block_position(b) for b in self._free]
        assert all(a < b for a, b in zip(positions, positions[1:]))
        levels = [lvl for lvl, _ in self._free]
        assert len(set(levels)) == len(levels)
        assert levels == sorted(levels, reverse=True)


def kc_allocate(lengths: Iterable[int]) -> list[str]:
    """Allocate codewords for a whole request sequence in order."""
    alloc = KCAllocator()
    return [alloc.request(n) for n in lengths]


def kc_build_machine(requests: Sequence[tuple[int, str]]) -> TableMachine:
    """Synthesize a table machine giving each payload a program of the
    requested length (so its complexity is at most that length)."""
    alloc = KCAllocator()
    entries = [(alloc.request(length), payload) for length, payload in requests]
    return validate_table(entries)

"""Online Kraft-Chaitin codeword allocation and machine synthesis.

The allocator hands out codewords of requested lengths while keeping the
issued set prefix-free.  Its only ledger is the free space: aligned
dyadic blocks of [0, 1), one block per size, kept as a map from level
(size 2^-level) to block index.  Block positions increase as levels
fall, so a request splits the leftmost adequate block by taking the
smallest adequate one: the largest free level <= the requested length.
This accepts every request sequence whose running weight stays <= 1 --
the closed bound is allowed -- and is fully deterministic.  A request
longer than ``machines.MAX_BUILT`` bits is refused before anything is
built: a free level never exceeds the longest accepted request.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import WeightExceeded
from .foundations import Dyadic, ONE, dyadic_weight
from .machines import TableMachine, guard, validate_table

if TYPE_CHECKING:
    from typing import Iterable


class KCAllocator:
    """Sequential codeword allocator; distinct allocators are independent."""

    def __init__(self):
        self._free: dict[int, int] = {0: 0}  # level -> index of its free block

    def request(self, length: int) -> str:
        """Issue a fresh codeword of exactly ``length`` bits.

        Raises :class:`WeightExceeded` when the request would push the
        committed weight above 1; acceptance up to weight exactly 1.
        """
        if length < 0:
            raise ValueError("codeword length must be a natural number")
        guard(length, "a codeword of {size} bits")
        # free weight < 2^-length exactly when no free block is large enough
        level = max((lvl for lvl in self._free if lvl <= length), default=None)
        if level is None:
            raise WeightExceeded(
                f"request of length {length} exceeds remaining weight "
                f"(committed {ONE - self.free_weight()})"
            )
        idx = self._free.pop(level)
        # remainder: one block per size 2^-(level+1) .. 2^-length
        for j in range(level + 1, length + 1):
            self._free[j] = (idx << (j - level)) + 1
        return format(idx << (length - level), f"0{length}b") if length else ""

    def free_weight(self) -> Dyadic:
        return dyadic_weight(dict.fromkeys(self._free, 1))


def kc_allocate(lengths: Iterable[int]) -> list[str]:
    """Allocate codewords for a whole request sequence in order."""
    alloc = KCAllocator()
    return [alloc.request(n) for n in lengths]


def kc_build_machine(requests: Iterable[tuple[int, str]]) -> TableMachine:
    """Synthesize a table machine giving each payload a program of the
    requested length (so its complexity is at most that length)."""
    alloc = KCAllocator()
    entries = [(alloc.request(length), payload) for length, payload in requests]
    return validate_table(entries)

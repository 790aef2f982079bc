"""Complexity profiles, windowed dimension estimates, and the composite
constructions (square interleave, sum machine, c.e. log-bound check).

Dimension-style quantities are limits; everything here reports window
statistics with explicit caveats and never claims a limit value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import RangeViolation
from .foundations import BitStream, NatSetView, ONE, charseq
from .machines import (
    Budget,
    ComplexityValue,
    KStatus,
    PrefixMachine,
    TableMachine,
    complexity,
    enumerate_domain,
    gamma_encode,
)
from .names import CheckStatus, IncreasingDyadicStream, Modulus

if TYPE_CHECKING:
    from typing import Optional


# ---------------------------------------------------------------------------
# Profiles and windowed dimension estimates
# ---------------------------------------------------------------------------


class ComplexityProfile(NamedTuple):
    """Per-prefix complexity entries ``(n, value)``; each value carries its budget."""

    entries: list[tuple[int, ComplexityValue]]


def profile(
    machine: PrefixMachine, x: BitStream, n_max: int, budget: Budget
) -> ComplexityProfile:
    """``complexity`` of each prefix of ``x`` up to ``n_max`` bits.

    The stream is read once.  One pass of the prefix function of Knuth,
    Morris and Pratt gives every prefix's smallest period, ``n - pi(n - 1)``,
    where ``pi(i)`` is the length of the longest proper border of the
    first ``i + 1`` bits; each query takes it as its private ``_period``
    and so searches for none, nor checks the bits the stream has checked.
    """
    x._read(n_max)
    bits = x.prefix(n_max)
    pi = [0] * len(bits)
    k = 0
    for i in range(1, len(bits)):
        c = bits[i]
        while k and bits[k] != c:
            k = pi[k - 1]
        if bits[k] == c:
            k += 1
        pi[i] = k
    periods = [0, *(n - b for n, b in enumerate(pi, 1))]  # the empty prefix's is 0
    entries = [
        (n, complexity(machine, bits[:n], budget, _period=q))
        for n, q in zip(range(n_max + 1), periods)
    ]
    return ComplexityProfile(entries)


class DimEstimate(NamedTuple):
    """Window statistics of ``value(n) / n``; explicitly not limit claims."""

    window: tuple[int, int]
    min_ratio: Fraction
    max_ratio: Fraction
    used: int
    excluded: list[int]
    statuses: set[KStatus]

    @property
    def caveat(self) -> str:
        kinds = ",".join(sorted(s.value for s in self.statuses))
        note = f"window estimate over n in [{self.window[0]}, {self.window[1]}]"
        if self.excluded:
            note += f"; {len(self.excluded)} entries without witnesses excluded"
        return f"{note}; statuses: {kinds or 'none'}"


def dim_window(p: ComplexityProfile, n0: int, n1: int) -> DimEstimate:
    """Min/max of ``value(n)/n`` over a window, skipping unknown entries."""
    if not 1 <= n0 <= n1:
        raise ValueError("window must satisfy 1 <= n0 <= n1")
    ratios: list[Fraction] = []
    excluded: list[int] = []
    statuses: set[KStatus] = set()
    for n, v in p.entries:
        if not n0 <= n <= n1:
            continue
        if not v.is_finite:
            excluded.append(n)
            continue
        statuses.add(v.status)
        ratios.append(Fraction(int(v.value), n))
    if not ratios:
        raise ValueError("no usable entries in the window")
    return DimEstimate(
        window=(n0, n1),
        min_ratio=min(ratios),
        max_ratio=max(ratios),
        used=len(ratios),
        excluded=excluded,
        statuses=statuses,
    )


def dim_gap_rate(m: int) -> Modulus:
    """The linear rate ``n -> (m+2)*n`` used below dimension 1.

    Note ``r(0) = 0``; feed a :meth:`Modulus.shifted` copy into level
    builders that require ``r(n) > n`` from level 0 on.
    """
    if m < 0:
        raise ValueError("m must be a natural number")
    return Modulus.affine(m + 2, 0)


# ---------------------------------------------------------------------------
# Square interleave
# ---------------------------------------------------------------------------


def square_interleave(omega: BitStream) -> BitStream:
    """Force 0 at every square position (1-based); fill the rest with ``omega``.

    Position ``p`` is the ``(p - isqrt(p))``-th non-square when it is not
    a square itself, so the source bit index is ``p - isqrt(p) - 1``.
    """

    def bit(i: int) -> int:
        p = i + 1
        rt = math.isqrt(p)
        if rt * rt == p:
            return 0
        return omega.bit(p - rt - 1)

    return BitStream(bit, label=f"sq0({omega.label})")


# ---------------------------------------------------------------------------
# Sum machine
# ---------------------------------------------------------------------------


class SumMachineResult(NamedTuple):
    machine: TableMachine
    incomplete: list[tuple[str, int]]  # (program, branch) whose wait timed out

    @property
    def complete(self) -> bool:
        return not self.incomplete


def _right_neighbor(bits: str) -> str:
    if not bits:
        return bits
    v = int(bits, 2)
    if v + 1 >= 1 << len(bits):
        return "1" * len(bits)
    return format(v + 1, f"0{len(bits)}b")


def sum_machine(
    base: PrefixMachine,
    xs: IncreasingDyadicStream,
    ys: IncreasingDyadicStream,
    wait_stages: int,
    budget: Optional[Budget] = None,
) -> SumMachineResult:
    """Build the sum-coder: programs of ``base`` extended by three bits.

    For each base program with output ``tau`` of length ``l``, branch bit
    0 waits for the earliest stage where the first approximation matches
    ``tau`` on ``l`` bits (branch bit 1: the second approximation); on
    success the machine maps the three-bit extensions to the prefix of
    the summed approximation at that stage and its two right neighbors
    (saturating at the all-ones string).  Waits are capped at
    ``wait_stages``; unmet waits drop the entries and are reported.
    """
    if budget is None:
        if not isinstance(base, TableMachine):
            raise ValueError("an explicit budget is required for interpreter bases")
        budget = Budget(base.max_program_length, 0, allow_large=True)
    pairs = enumerate_domain(base, budget).pairs
    entries: list[tuple[str, str]] = []
    incomplete: list[tuple[str, int]] = []
    suffixes = {0: ("000", "001", "010"), 1: ("100", "101", "110")}
    for prog, tau in pairs:
        l = len(tau)
        for a, stream in ((0, xs), (1, ys)):
            hit: Optional[int] = None
            for t in range(wait_stages + 1):
                if stream.at(t).prefix_bits(l) == tau:
                    hit = t
                    break
            if hit is None:
                incomplete.append((prog, a))
                continue
            z = xs.at(hit) + ys.at(hit)
            if z > ONE:
                raise RangeViolation(
                    f"summed approximation left [0,1] at stage {hit}"
                )
            rho1 = z.prefix_bits(l)
            rho2 = _right_neighbor(rho1)
            rho3 = _right_neighbor(rho2)
            for suffix, rho in zip(suffixes[a], (rho1, rho2, rho3)):
                entries.append((prog + suffix, rho))
    return SumMachineResult(machine=TableMachine(tuple(entries)), incomplete=incomplete)


# ---------------------------------------------------------------------------
# Logarithmic complexity bound for enumerable sets
# ---------------------------------------------------------------------------


def ilog2(n: int) -> int:
    if n < 1:
        raise ValueError("ilog2 needs n >= 1")
    return n.bit_length() - 1


class LogBoundVerdict(NamedTuple):
    status: CheckStatus
    failing_n: Optional[int] = None
    details: str = ""


def ce_decoder_table(view: NatSetView, n_max: int) -> TableMachine:
    """Auxiliary table mapping gamma(n+1) to the set's length-n prefix.

    Gamma codes are prefix-free, so the key set is; registering this as
    an interpreter auxiliary makes prefixes of the set reconstructible
    from a logarithmic-size index.
    """
    stream = charseq(view)
    return TableMachine(
        tuple((gamma_encode(n + 1), stream.prefix(n)) for n in range(n_max + 1))
    )


def ce_log_bound_check(
    view: NatSetView,
    machine: PrefixMachine,
    c: int,
    n_max: int,
    budget: Budget,
) -> LogBoundVerdict:
    """Check ``K(prefix of length n) <= 2*log(n) + 2*log(log(n)) + c``.

    Logs are integer base-2 logs and the double log is applied only for
    ``n >= 4``; smaller ``n`` are excluded, so ``n_max < 4`` is vacuously
    consistent.  Refutation requires an exact complexity value.
    """
    stream = charseq(view)
    for n in range(4, n_max + 1):
        bound = 2 * ilog2(n) + 2 * ilog2(ilog2(n)) + c
        v = complexity(machine, stream.prefix(n), budget)
        if v.status is KStatus.EXACT and v.is_finite and v.value > bound:
            return LogBoundVerdict(
                CheckStatus.REFUTED,
                failing_n=n,
                details=f"K(prefix {n}) = {v.value} > {bound}",
            )
        if v.status is KStatus.EXACT and not v.is_finite:
            return LogBoundVerdict(
                CheckStatus.REFUTED,
                failing_n=n,
                details=f"no program at all produces the length-{n} prefix",
            )
    return LogBoundVerdict(CheckStatus.CONSISTENT)

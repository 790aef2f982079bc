"""Dyadic-series names, their partial sums and tail weights,
convergence-rate certificates, and constructors for increasing dyadic
approximations.

A *name* of a real ``x`` is a function ``f`` with ``sum(2**-f(k)) == x``.
Checks over infinitary claims follow refutation-only semantics: a check
either refutes (soundly, finally) or reports consistency at the budget it
was given, never more.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from itertools import accumulate, count, repeat
from operator import lshift, rshift
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    InvalidName,
    MonotonicityViolation,
    NotASet,
    RangeViolation,
)
from .foundations import (
    BitStream,
    Dyadic,
    NatSetView,
    ONE,
    Replayable,
    ZERO,
    half_power,
)

if TYPE_CHECKING:
    from typing import Callable, Iterable, Iterator, Optional, Sequence


# ---------------------------------------------------------------------------
# Streams of naturals / dyadics
# ---------------------------------------------------------------------------


class NameStream(Replayable):
    """Replayable name ``f : N -> N``; may be finite at desk scale."""

    def __init__(
        self,
        fn: Callable[[int], int],
        length: Optional[int] = None,
        label: str = "",
        block_boundaries: Optional[list[int]] = None,
    ):
        super().__init__(fn, length, label)
        # for names built block-wise: boundaries[t] = number of values
        # emitted by the first t blocks
        self.block_boundaries = block_boundaries

    @property
    def length(self) -> Optional[int]:
        return self.horizon

    @property
    def finite(self) -> bool:
        return self.horizon is not None

    def _check(self, k: int, v: int) -> None:
        if v < 0:
            raise ValueError(f"name value must be natural, got {v} at {k}")

    @staticmethod
    def from_list(values: Sequence[int], label: str = "") -> "NameStream":
        vals = list(values)
        return NameStream(vals.__getitem__, length=len(vals), label=label)

    @staticmethod
    def affine(a: int, b: int) -> "NameStream":
        """The name ``f(k) = a*k + b``, answered by its formula."""
        return _AffineName(a, b, f"{a}k+{b}")


class Modulus(Replayable):
    """Replayable monotone rate ``n -> r(n)``; monotonicity is enforced."""

    def _check(self, k: int, v: int) -> None:
        if v < 0:
            raise ValueError(f"rate value must be natural, got {v} at {k}")
        if k and v < self._memo[-1]:
            raise MonotonicityViolation(
                f"rate {self.label or '?'} decreases at {k}: {self._memo[-1]} -> {v}"
            )

    def strictly_increasing_on(self, n_max: int) -> bool:
        return all(self.at(n) < self.at(n + 1) for n in range(n_max))

    def shifted(self, k: int) -> "Modulus":
        """The re-indexed rate ``n -> r(n + k)``."""
        return Modulus(lambda n: self.at(n + k), label=f"{self.label}>>{k}")

    @staticmethod
    def affine(a: int, b: int) -> "Modulus":
        """The rate ``r(n) = a*n + b``, answered by its formula."""
        return _AffineRate(a, b, f"{a}n+{b}")

    @staticmethod
    def shift(c: int) -> "Modulus":
        """The rate ``r(n) = n + c``, answered by its formula."""
        return _AffineRate(1, c, f"n+{c}")

    @staticmethod
    def power2(offset: int) -> "Modulus":
        """The rate ``r(n) = 2**(n + offset)``, answered by its formula."""
        return _Power2Rate(offset)

    @staticmethod
    def from_values(values: Sequence[int], label: str = "") -> "Modulus":
        vals = list(values)
        return Modulus(vals.__getitem__, len(vals), label)


def _natural_fields(kind: str, label: str, *fields: int) -> None:
    if min(fields) < 0:
        raise ValueError(f"{kind} {label!r} needs natural fields")


class _Affine:
    """Mixin for ``k -> a*k + b`` with natural ``a`` and ``b``.  Such a
    sequence is natural and monotone, so ``at``, ``values`` and
    ``iter_from`` answer by the formula and store nothing; the fields are
    checked when it is built.
    """

    _kind: str

    def __init__(self, a: int, b: int, label: str):
        _natural_fields(self._kind, label, a, b)
        super().__init__(None, label=label)
        self._a, self._b = a, b

    def at(self, k: int) -> int:
        if k < 0:
            raise ValueError("sequence index must be a natural number")
        return self._a * k + self._b

    def values(self, count: int) -> list[int]:
        a, b = self._a, self._b
        return list(range(b, b + a * count, a)) if a else [b] * count

    def iter_from(self, k: int) -> Iterator[int]:
        if k < 0:
            raise ValueError("sequence index must be a natural number")
        return count(self._a * k + self._b, self._a)


class _AffineName(_Affine, NameStream):
    _kind = "name"


class _AffineRate(_Affine, Modulus):
    _kind = "rate"


class _Power2Rate(Modulus):
    """The rate ``n -> 2**(n + offset)`` for a natural ``offset``, answered
    by its formula like :class:`_Affine`."""

    def __init__(self, offset: int):
        label = f"2^(n+{offset})"
        _natural_fields("rate", label, offset)
        super().__init__(None, label=label)
        self._offset = offset

    def at(self, k: int) -> int:
        if k < 0:
            raise ValueError("sequence index must be a natural number")
        return 1 << (k + self._offset)

    def values(self, count: int) -> list[int]:
        return [1 << e for e in range(self._offset, self._offset + count)]

    def iter_from(self, k: int) -> Iterator[int]:
        if k < 0:
            raise ValueError("sequence index must be a natural number")
        return map(lshift, repeat(1), count(k + self._offset))


class IncreasingDyadicStream(Replayable):
    """Replayable increasing sequence of dyadics in [0, 1]."""

    def __init__(
        self,
        fn: Callable[[int], Dyadic],
        horizon: Optional[int] = None,
        label: str = "",
        eventually_constant: bool = False,
    ):
        super().__init__(fn, horizon, label)
        self.eventually_constant = eventually_constant

    def _check(self, k: int, v: Dyadic) -> None:
        if not v.in_unit_interval():
            raise RangeViolation(f"stream {self.label or '?'} left [0,1] at {k}: {v}")
        if k and v < self._memo[-1]:
            raise MonotonicityViolation(
                f"stream {self.label or '?'} not increasing at {k}"
            )

    @staticmethod
    def from_list(
        values: Sequence[Dyadic], extend: bool = False, label: str = ""
    ) -> "IncreasingDyadicStream":
        vals = list(values)
        if not vals:
            raise ValueError("need at least one value")
        if extend:
            return IncreasingDyadicStream(
                lambda t: vals[min(t, len(vals) - 1)],
                label=label,
                eventually_constant=True,
            )
        return IncreasingDyadicStream(vals.__getitem__, len(vals), label)

    def prefix_bits(self, m: int, n: int) -> str:
        """The first ``n`` expansion bits of ``x_m``."""
        return self.at(m).prefix_bits(n)

    def settled_from(self, n: int) -> Optional[int]:
        """A stage from which ``prefix_bits(m, n)`` no longer changes, or
        None when the stream cannot tell."""
        return None

    @staticmethod
    def from_prefix_sums(
        stream: BitStream, bits_per_step: int = 1, label: str = ""
    ) -> "IncreasingDyadicStream":
        """Partial values of a bit stream: ``x_t = 0.(first bits_per_step*t bits)``.

        ``x_t`` and its expansion prefixes are slices of the stream's own
        bit string (``BitStream.prefix``), so nothing is stored here.  Each
        of them asks the stream for all ``bits_per_step*t`` bits of
        ``x_t`` in index order, even where a shorter expansion prefix is
        asked for: a stream's error (a non-bit, or a read past its horizon)
        comes at the first bad index, as it would bit by bit.
        """
        if bits_per_step < 0:
            raise ValueError(
                f"prefix sums need a step of 0 or more bits, got {bits_per_step}"
            )
        return _PrefixSums(stream, bits_per_step, label or f"sums({stream.label})")


class _PrefixSums(IncreasingDyadicStream):
    """``x_t = 0.(first step*t bits of a bit stream)``, answered from the
    stream's bit string; see :meth:`IncreasingDyadicStream.from_prefix_sums`."""

    def __init__(self, stream: BitStream, step: int, label: str):
        super().__init__(None, label=label)
        self._stream, self._step = stream, step

    def _read(self, t: int) -> int:
        """Compute the ``step*t`` bits of ``x_t``; return their number."""
        if t < 0:
            raise ValueError("sequence index must be a natural number")
        k = self._step * t
        self._stream._read(k)
        return k

    def at(self, t: int) -> Dyadic:
        k = self._read(t)
        return Dyadic.of(int(self._stream.prefix(k), 2), k) if k else ZERO

    def values(self, count: int) -> list[Dyadic]:
        bits, b = self._stream.prefix(self._read(max(count - 1, 0))), self._step
        return [
            Dyadic.of(int(bits[: b * t], 2), b * t) if b * t else ZERO
            for t in range(count)
        ]

    def prefix_bits(self, m: int, n: int) -> str:
        return self._stream.prefix(min(n, self._read(m))).ljust(n, "0")

    def settled_from(self, n: int) -> int:
        """From stage ``ceil(n / step)`` on, ``x_m`` holds all ``n`` bits."""
        return -(-n // self._step) if self._step else 0


# ---------------------------------------------------------------------------
# Partial sums and tail weights, in integers at the scale 2**-top
# ---------------------------------------------------------------------------


def sum_exceeds_one(label: str, stage: int, total: Dyadic) -> InvalidName:
    """The error for name ``label``, whose partial sum ``total`` at ``stage`` is over 1."""
    return InvalidName(
        f"partial sum of {label or '?'} exceeds 1 at stage {stage}: {total}"
    )


def tail_sums(
    values: list[int], whole: int, top: int, thresholds: Sequence[int]
) -> list[int]:
    """The tail of ``values`` at each threshold ``m0``, as an integer at the
    scale ``2**-top``: ``sum(2**(top - v) for v in values if v >= m0)``.

    ``whole`` is the sum of all the terms at that scale, and no value
    exceeds ``top``.  Each tail is ``whole`` less the head terms below
    ``m0``: the terms below the largest threshold are summed as prefixes
    of the sorted values once, and each threshold bisects them.
    """
    ordered = sorted(values)
    head = ordered[: bisect_left(ordered, max(thresholds, default=0))]
    heads = list(accumulate(map(rshift, repeat(1 << top), head), initial=0))
    return [whole - heads[bisect_left(head, m0)] for m0 in thresholds]


def partial_sum(f: NameStream, upto: int) -> Dyadic:
    """Exact ``sum(2**-f(k) for k <= upto)``; rejects sums above 1."""
    total = tail_weight(f, 0, upto)
    if total > ONE:
        raise sum_exceeds_one(f.label, upto, total)
    return total


def tail_weight(f: NameStream, m0: int, upto: int) -> Dyadic:
    """Exact ``sum(2**-f(k) for k <= upto if f(k) >= m0)``.

    This is the stage-``upto`` lower bound of the true tail beyond ``m0``.
    """
    values = f.values(upto + 1)
    top = max(values, default=0)
    whole = sum(map((1 << top).__rshift__, values))
    return Dyadic.of(tail_sums(values, whole, top, [m0])[0], top)


class CheckStatus(enum.Enum):
    CONSISTENT = "consistent-at-budget"
    REFUTED = "refuted"


class RateCheck(NamedTuple):
    """Outcome of a budgeted tail-rate check.

    Refutation is sound and final; consistency only says the budget found
    no counterexample.
    """

    status: CheckStatus
    level: int
    tail: Dyadic
    bound: Dyadic
    stage: int


def roc_certificate_check(
    f: NameStream, r: Modulus, n: int, upto: int
) -> RateCheck:
    """Check the rearranged-tail certificate ``tail(r(n)) <= 2**-n`` at a stage."""
    tail = tail_weight(f, r.at(n), upto)
    bound = half_power(n)
    status = CheckStatus.REFUTED if tail > bound else CheckStatus.CONSISTENT
    return RateCheck(status=status, level=n, tail=tail, bound=bound, stage=upto)


# ---------------------------------------------------------------------------
# Names from increasing approximations
# ---------------------------------------------------------------------------


def digit_exponents(d: Dyadic) -> list[int]:
    """Exponents ``e`` of the binary digits of ``d = sum(2**-e)``, increasing."""
    if d.num < 0:
        raise ValueError("expected a nonnegative dyadic")
    out = []
    num, exp = d.num, d.exp
    for q in range(num.bit_length() - 1, -1, -1):
        if (num >> q) & 1:
            out.append(exp - q)
    return out


def name_from_increasing(
    xs: IncreasingDyadicStream, steps: int, label: str = ""
) -> NameStream:
    """Read off a name from an increasing stream, one block per step.

    Block ``t`` holds the digit exponents of ``xs(t+1) - xs(t)`` in
    increasing order, so partial sums of the name hit ``xs`` values
    exactly at block boundaries.
    """
    if xs.at(0) != ZERO:
        raise ValueError("increasing stream must start at 0")
    return block_name(map(xs.at, range(1, steps + 1)), label or f"name({xs.label})")


def block_name(values: Iterable[Dyadic], label: str) -> NameStream:
    """The name of the run ``0, x_1, x_2, ...`` given ``x_1, x_2, ...``:
    block ``t`` lists the digit exponents of ``x_{t+1} - x_t``."""
    out: list[int] = []
    boundaries = [0]
    prev = ZERO
    for t, cur in enumerate(values):
        d = cur - prev
        if d.num < 0:
            raise MonotonicityViolation(f"stream decreases at step {t}")
        out.extend(digit_exponents(d))
        boundaries.append(len(out))
        prev = cur
    return NameStream(
        out.__getitem__, length=len(out), label=label, block_boundaries=boundaries
    )


# ---------------------------------------------------------------------------
# Strongly left-computable and regular constructors
# ---------------------------------------------------------------------------


def strongly_lc(view: NatSetView) -> IncreasingDyadicStream:
    """Partial values of ``sum(2**-(j+1))`` along an enumeration of a set.

    ``at(t)`` sums the first ``t`` enumerated elements; after the
    enumerator exhausts, the stream stays constant.
    """
    if not view.has_enumerator:
        raise ValueError("strongly_lc needs an enumerator-backed view")
    seen: set[int] = set()
    it = view.enumerate()

    def at(t: int) -> Dyadic:
        if t == 0:
            return ZERO
        prev = xs.at(t - 1)
        j = next(it, None)
        if j is None:
            return prev
        if j in seen:
            raise NotASet(f"enumerator of {view.label or '?'} repeated {j}")
        seen.add(j)
        return prev + half_power(j + 1)

    xs = IncreasingDyadicStream(at, label=f"x({view.label})" if view.label else "")
    return xs


def regular_sum(
    streams: Sequence[IncreasingDyadicStream], label: str = ""
) -> IncreasingDyadicStream:
    """Pointwise sum of increasing streams (all values must stay in [0,1])."""
    if not streams:
        raise ValueError("need at least one component stream")

    def at(t: int) -> Dyadic:
        acc = ZERO
        for s in streams:
            acc = acc + s.at(t)
        return acc

    return IncreasingDyadicStream(
        at,
        eventually_constant=all(s.eventually_constant for s in streams),
        label=label or "+".join(s.label or "?" for s in streams),
    )

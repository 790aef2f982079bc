"""Exact dyadic arithmetic, bit strings, the record base class,
replayable sequences and bit streams, set views, and the standard
combinatorial bijections (pairing, length-lex enumeration).

Bit strings are plain ``str`` objects over ``"0"``/``"1"``; the empty
string is a valid bit string.  All arithmetic is exact big-integer
arithmetic; nothing in this module touches floating point.
"""

from __future__ import annotations

import math
from itertools import count, zip_longest
from typing import TYPE_CHECKING

from .errors import HorizonExceeded, PrefixViolation, RangeViolation

if TYPE_CHECKING:
    from typing import Any, Callable, Iterable, Iterator, Mapping, Optional


def check_bits(s: str) -> str:
    """Validate that ``s`` consists only of '0'/'1' characters."""
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"not a bit string: {s!r}")
    return s


def check_prefix_free(strings: Iterable[str]) -> None:
    """Raise :class:`PrefixViolation` naming a string and its extension."""
    srt = sorted(strings)
    for a, b in zip(srt, srt[1:]):
        if b.startswith(a):
            raise PrefixViolation(a, b)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class Record:
    """Equality, hashing and repr over the fields named in ``_fields``.

    A record equals only an instance of its own class with equal fields,
    hashes as the tuple of its fields and shows as ``Name(field=value)``.
    A mutable record sets ``__hash__ = None``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# Dyadic numbers
# ---------------------------------------------------------------------------


class Dyadic:
    """Exact dyadic rational ``num * 2**-exp``.

    Canonical form: ``num`` is odd or zero, and ``exp`` is the smallest
    natural number realizing the value (``exp == 0`` when ``num == 0`` or
    the value is an integer).  Equality on canonical values is field
    equality.  Immutable by convention: every stage builds some, and a
    class that guards its fields against assignment takes over twice as
    long to build.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int):
        self.num = num
        self.exp = exp

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Dyadic:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

    @staticmethod
    def of(num: int, exp: int) -> "Dyadic":
        """Build the canonical dyadic with value ``num * 2**-exp``."""
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            return Dyadic(0, 0)
        shift = min(exp, (num & -num).bit_length() - 1)
        return Dyadic(num >> shift, exp - shift)

    @staticmethod
    def from_bits(bits: str) -> "Dyadic":
        """Value of ``0.bits`` (the empty string denotes 0)."""
        check_bits(bits)
        if not bits:
            return ZERO
        return Dyadic.of(int(bits, 2), len(bits))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic.of(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        e = max(self.exp, other.exp)
        return Dyadic.of(
            (self.num << (e - self.exp)) - (other.num << (e - other.exp)), e
        )

    def _cmp(self, other: "Dyadic") -> int:
        e = max(self.exp, other.exp)
        a = self.num << (e - self.exp)
        b = other.num << (e - other.exp)
        return (a > b) - (a < b)

    def __lt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Dyadic") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Dyadic") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Dyadic") -> bool:
        return self._cmp(other) >= 0

    # -- binary expansion ---------------------------------------------------

    def in_unit_interval(self) -> bool:
        """Whether the value lies in [0, 1], read off the fields."""
        return 0 <= self.num <= 1 << self.exp

    def bit(self, i: int) -> int:
        """Bit ``i`` (0-based) after the binary point, for values in [0, 1].

        Uses the trailing-zeros expansion of dyadic values; the value 1 is
        the all-ones sequence (its only expansion in ``0.xxx...`` form).
        """
        if not self.in_unit_interval():
            raise RangeViolation(f"binary expansion requires value in [0,1]: {self}")
        if self == ONE:
            return 1
        # floor(x * 2^(i+1)) mod 2
        return floor_scale(self, i + 1) & 1

    def prefix_bits(self, n: int) -> str:
        """First ``n`` expansion bits as a string."""
        if not self.in_unit_interval():
            raise RangeViolation(f"binary expansion requires value in [0,1]: {self}")
        if self == ONE:
            return "1" * n
        if n == 0:
            return ""
        return format(floor_scale(self, n), f"0{n}b")

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dyadic({self})"


ZERO = Dyadic(0, 0)
ONE = Dyadic(1, 0)


def half_power(e: int) -> Dyadic:
    """The dyadic ``2**-e`` (``e`` may be negative)."""
    return Dyadic.of(1, e)


def dyadic_weight(counts: Mapping[int, int]) -> Dyadic:
    """Exact ``sum(c * 2**-e for e, c in counts.items())``; ``ZERO`` for no terms.

    Plain exponents are passed as ``Counter(exps)``.
    """
    if not counts:
        return ZERO
    top = max(counts)
    return Dyadic.of(sum(c << (top - e) for e, c in counts.items()), top)


def floor_scale(y: Dyadic, r: int) -> int:
    """Exact ``floor(y * 2**r)`` for ``y >= 0``."""
    if y.num < 0:
        raise ValueError("floor_scale requires a nonnegative value")
    if r >= y.exp:
        return y.num << (r - y.exp)
    return y.num >> (y.exp - r)


class DyadicInterval(Record):
    """Closed interval with exact dyadic endpoints."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        self.lo = lo
        self.hi = hi

    def width(self) -> Dyadic:
        return self.hi - self.lo


def interval_of(tau: str) -> DyadicInterval:
    """Interval of reals in [0,1] whose expansion can start with ``tau``."""
    check_bits(tau)
    lo = Dyadic.from_bits(tau)
    return DyadicInterval(lo, lo + half_power(len(tau)))


# ---------------------------------------------------------------------------
# Pairing and length-lex enumeration
# ---------------------------------------------------------------------------


def pair(i: int, j: int) -> int:
    """Cantor pairing ``(i+j)(i+j+1)/2 + j``."""
    return (i + j) * (i + j + 1) // 2 + j


def unpair(n: int) -> tuple[int, int]:
    """Inverse of :func:`pair`."""
    w = (math.isqrt(8 * n + 1) - 1) // 2
    j = n - w * (w + 1) // 2
    return w - j, j


def lenlex(n: int) -> str:
    """The ``n``-th binary string in length-lexicographic order (0 -> '')."""
    if n < 0:
        raise ValueError("index must be a natural number")
    return bin(n + 1)[3:]


def lenlex_inv(tau: str) -> int:
    """Index of ``tau`` in the length-lexicographic enumeration."""
    check_bits(tau)
    return int("1" + tau, 2) - 1


def strings_of_length(n: int) -> list[str]:
    """All bit strings of length ``n`` in lexicographic order."""
    if not n:
        return [""]
    spec = f"0{n}b"
    return [format(v, spec) for v in range(1 << n)]


# ---------------------------------------------------------------------------
# Replayable sequences and bit streams
# ---------------------------------------------------------------------------


class Replayable:
    """A computable sequence read by index: ``at(k)`` is ``fn(k)``.

    Values are computed once each and in index order, so ``fn`` is called
    for k = 0, 1, 2, ... and may read earlier values through ``at``.  Each
    new value passes ``_check`` before it is stored.  Sequences backed by
    finite data carry a horizon and fail loudly beyond it.
    """

    def __init__(
        self, fn: Callable[[int], Any], horizon: Optional[int] = None, label: str = ""
    ):
        self._fn = fn
        self.horizon = horizon
        self.label = label
        self._memo: list = []

    def at(self, k: int) -> Any:
        if k < 0:
            raise ValueError("sequence index must be a natural number")
        if self.horizon is not None and k >= self.horizon:
            raise HorizonExceeded(
                f"{self.label or 'sequence'} queried at {k} "
                f"beyond horizon {self.horizon}"
            )
        memo = self._memo
        while len(memo) <= k:
            v = self._fn(len(memo))
            self._check(len(memo), v)
            memo.append(v)
        return memo[k]

    def values(self, count: int) -> list:
        """The first ``count`` values."""
        if count > 0:
            self.at(count - 1)
        return self._memo[: max(count, 0)]

    def iter_from(self, k: int) -> Iterator:
        """The values from index ``k`` on, each read through ``at`` when drawn."""
        return map(self.at, count(k))

    def _check(self, k: int, v: Any) -> None:
        """Reject a bad value ``v`` at index ``k``."""


class BitStream(Replayable):
    """Replayable, deterministic producer of bits.

    The bits read through ``prefix`` are kept as one growing string, so a
    prefix is a slice and each bit is turned into a character once.
    """

    bit = Replayable.at
    _bits = ""  # the bits read through ``prefix``, replaced as it grows

    def _check(self, k: int, v: int) -> None:
        if v not in (0, 1):
            raise ValueError(f"stream produced non-bit {v!r} at index {k}")

    def prefix(self, n: int) -> str:
        """The first ``n`` bits as a string (``""`` for ``n <= 0``)."""
        bits = self._bits
        if n > len(bits):
            self.at(n - 1)
            bits += "".join(map("01".__getitem__, self._memo[len(bits) : n]))
            self._bits = bits
        return bits[: max(n, 0)]

    def _read(self, n: int) -> None:
        """Compute the first ``n`` bits in index order.  Past the horizon
        this fails as reading bit by bit would: at the horizon's index,
        where ``at(n - 1)`` would name ``n - 1``."""
        h = self.horizon
        if h is not None and n > h:
            if h:
                self.at(h - 1)
            self.at(h)
        if n > 0:
            self.at(n - 1)

    @staticmethod
    def from_bits(bits: str) -> "BitStream":
        """The stream ``bits`` followed by zeros."""
        check_bits(bits)
        return _PatternStream(bits, "0", f"{bits}0*")

    @staticmethod
    def periodic(pattern: str) -> "BitStream":
        check_bits(pattern)
        if not pattern:
            raise ValueError("pattern must be nonempty")
        return _PatternStream("", pattern, f"({pattern})*")

    @staticmethod
    def constant(b: int) -> "BitStream":
        label = str(b) * 3 + "..."
        if b in (0, 1):
            return _PatternStream("", "01"[b], label)
        # any other value is no bit: the memo stream fails at its first read
        return BitStream(lambda i: b, label=label)


class _PatternStream(BitStream):
    """The bits ``head`` followed by ``cycle`` repeated forever.

    A bit is read off by index arithmetic and a prefix is a slice of
    ``head + cycle * k``, so no bit passes through the memo; such a
    stream holds only bits and cannot fail.
    """

    def __init__(self, head: str, cycle: str, label: str):
        super().__init__(None, label=label)
        self._head, self._cycle = head, cycle

    def at(self, k: int) -> int:
        if k < 0:
            raise ValueError("sequence index must be a natural number")
        head = self._head
        if k < len(head):
            return int(head[k])
        cycle = self._cycle
        return int(cycle[(k - len(head)) % len(cycle)])

    bit = at

    def prefix(self, n: int) -> str:
        bits = self._bits
        if n > len(bits):  # grow to over 2n bits, so a growing reader rarely rebuilds
            bits = self._bits = self._head + self._cycle * (2 * n // len(self._cycle) + 1)
        return bits[: max(n, 0)]

    def values(self, count: int) -> list[int]:
        return list(map(int, self.prefix(count)))

    def _read(self, n: int) -> None:
        pass


# ---------------------------------------------------------------------------
# Set views
# ---------------------------------------------------------------------------


class NatSetView:
    """A set of naturals seen through a finite window [0, horizon).

    Membership is total below the horizon.  An optional enumerator (a
    factory of fresh iterators) models computably enumerable presentation;
    its outputs below the horizon must agree with membership.
    """

    def __init__(
        self,
        member: Callable[[int], bool],
        horizon: int,
        enumerator: Optional[Callable[[], Iterator[int]]] = None,
        label: str = "",
    ):
        if horizon < 0:
            raise ValueError(f"a view's horizon must be natural, got {horizon}")
        self._member = member
        self.horizon = horizon
        self._enumerator = enumerator
        self.label = label

    def member(self, n: int) -> bool:
        if n < 0:
            raise ValueError("elements are natural numbers")
        if n >= self.horizon:
            raise HorizonExceeded(
                f"view {self.label or '?'} queried at {n} beyond horizon {self.horizon}"
            )
        return bool(self._member(n))

    def elements(self) -> list[int]:
        """All members below the horizon, in increasing order."""
        return [n for n in range(self.horizon) if self._member(n)]

    @property
    def has_enumerator(self) -> bool:
        return self._enumerator is not None

    def enumerate(self) -> Iterator[int]:
        """A fresh enumeration pass (replayable clone)."""
        if self._enumerator is None:
            return iter(self.elements())
        return self._enumerator()

    def enumerated_below(self, bound: int) -> list[int]:
        """Elements the enumerator emits below ``bound``, in emission order."""
        return [n for n in self.enumerate() if n < bound]

    def complement(self) -> "NatSetView":
        return NatSetView(
            lambda n: not self._member(n),
            self.horizon,
            label=f"~{self.label}" if self.label else "",
        )

    @staticmethod
    def from_elements(
        elems: Iterable[int], horizon: int, label: str = ""
    ) -> "NatSetView":
        seq = list(elems)
        if any(n < 0 for n in seq):
            raise ValueError(f"elements are natural numbers, got {min(seq)}")
        members = frozenset(seq)
        return NatSetView(
            members.__contains__, horizon, enumerator=lambda: iter(seq), label=label
        )


def evens(horizon: int) -> NatSetView:
    return NatSetView(lambda n: n % 2 == 0, horizon, label="evens")


def odds(horizon: int) -> NatSetView:
    return NatSetView(lambda n: n % 2 == 1, horizon, label="odds")


def multiples(k: int, horizon: int) -> NatSetView:
    if k < 1:
        raise ValueError(f"multiples need k >= 1, got {k}")
    return NatSetView(lambda n: n % k == 0, horizon, label=f"multiples-of-{k}")


def squares_shifted(horizon: int) -> NatSetView:
    """The set ``{p*p - 1 : p >= 1}`` (square positions, 0-based)."""
    return NatSetView(
        lambda n: math.isqrt(n + 1) ** 2 == n + 1,
        horizon,
        label="squares-1",
    )


def column(i: int, horizon: int) -> NatSetView:
    """The pairing column ``{pair(i, j) : j in N}`` restricted to the window."""
    if i < 0:
        raise ValueError(f"a column index must be natural, got {i}")

    def gen() -> Iterator[int]:
        j = 0
        while True:
            v = pair(i, j)
            if v >= horizon:
                return
            yield v
            j += 1

    def member(n: int) -> bool:
        a, _ = unpair(n)
        return a == i

    return NatSetView(member, horizon, enumerator=gen, label=f"column-{i}")


def charseq(view: NatSetView) -> BitStream:
    """Characteristic sequence of a set view (the expansion of its value)."""
    return BitStream(
        lambda i: 1 if view.member(i) else 0,
        horizon=view.horizon,
        label=f"chi({view.label})" if view.label else "chi",
    )


def set_value_prefix(view: NatSetView, n: int) -> Dyadic:
    """Exact partial sum ``sum(2**-(j+1) for j in view, j < n)``."""
    if n > view.horizon:
        raise HorizonExceeded(
            f"prefix {n} of {view.label or '?'} exceeds horizon {view.horizon}"
        )
    return Dyadic.from_bits(charseq(view).prefix(n))


def join(a: NatSetView, b: NatSetView) -> NatSetView:
    """Join: evens carry ``a``, odds carry ``b``; horizon doubles."""
    n = min(a.horizon, b.horizon)

    def member(k: int) -> bool:
        return a.member(k // 2) if k % 2 == 0 else b.member(k // 2)

    enumerator = None
    if a.has_enumerator or b.has_enumerator:

        def gen() -> Iterator[int]:
            for va, vb in zip_longest(a.enumerate(), b.enumerate()):
                if va is not None and va < n:
                    yield 2 * va
                if vb is not None and vb < n:
                    yield 2 * vb + 1

        enumerator = gen

    label = f"{a.label}(+){b.label}" if (a.label or b.label) else ""
    return NatSetView(member, 2 * n, enumerator=enumerator, label=label)

"""Concrete prefix-free machines and budgeted-exact program-size complexity.

Two machine flavors:

* ``TableMachine`` -- a finite map with prefix-free key set.
* ``Interpreter`` -- a fixed reference machine whose halting programs are
  prefix-free by construction (every read is self-delimiting).  Its
  instruction set is bit-exact:

  - ``0``  literal: gamma(len(payload) + 1), then the payload bits.
  - ``10`` repeat: gamma(output length), gamma(pattern length), pattern
    bits; the output is the first *output length* bits of the pattern
    repeated forever.
  - ``11`` table call: gamma(1-based index of a registered auxiliary
    table machine), then one program of that machine.

  Elias gamma of ``n >= 1`` is ``floor(log2 n)`` zeros followed by the
  binary digits of ``n``; it is itself a prefix code, which keeps every
  composite program self-delimiting.

Complexity values are machine-relative and budget-stamped.  A value is
*exact* only when the enumeration below it was provably complete; an
enumeration cut short by the step budget downgrades affected queries to
upper bounds, never silently.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Optional, Union

from .errors import BudgetGuard
from .foundations import (
    Dyadic,
    DyadicInterval,
    ZERO,
    check_bits,
    check_prefix_free,
    dyadic_weight,
    half_power,
    strings_of_length,
)

INFINITE = float("inf")  # order sentinel for "no program"; never used in arithmetic

MAX_GUARDED_LENGTH = 40


# ---------------------------------------------------------------------------
# Elias gamma code
# ---------------------------------------------------------------------------


def gamma_encode(n: int) -> str:
    if n < 1:
        raise ValueError("gamma code is defined for n >= 1")
    b = bin(n)[2:]
    return "0" * (len(b) - 1) + b


def gamma_length(n: int) -> int:
    return 2 * (n.bit_length() - 1) + 1


def gamma_parse(s: str, pos: int) -> Optional[tuple[int, int]]:
    """Decode a gamma number at ``pos``; None when ``s`` is too short."""
    z = 0
    while pos + z < len(s) and s[pos + z] == "0":
        z += 1
    if pos + z >= len(s):
        return None
    end = pos + z + z + 1
    if end > len(s):
        return None
    return int(s[pos + z : end], 2), end


# ---------------------------------------------------------------------------
# The interpreter's instruction set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Opcode:
    """One instruction: ``tag``, a gamma-coded number per header field, a body.

    For a literal or a repeat, ``lengths(*nums)`` is the body length and the
    output length that the header numbers fix, and ``outputs(bodies, *nums)``
    lists the output of each body.  A table call's body is a program of the
    table its header names, so it has neither.
    """

    tag: str
    fields: tuple[str, ...]
    lengths: Optional[Callable[..., tuple[int, int]]] = None
    outputs: Optional[Callable[..., list[str]]] = None

    def header(self, *nums: int) -> str:
        return self.tag + "".join(map(gamma_encode, nums))

    def header_length(self, *nums: int) -> int:
        return len(self.tag) + sum(map(gamma_length, nums))


def _repeat(patterns: list[str], count: int, plen: int) -> list[str]:
    reps = -(-count // plen)
    return [(pattern * reps)[:count] for pattern in patterns]


LITERAL = Opcode("0", ("len(payload) + 1",), lambda n: (n - 1, n - 1), lambda ps, n: ps)
REPEAT = Opcode("10", ("output length", "pattern length"), lambda c, p: (p, c), _repeat)
CALL = Opcode("11", ("auxiliary table index",))
OPCODES = (LITERAL, REPEAT, CALL)


# ---------------------------------------------------------------------------
# Budgets and run outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    """Enumeration budget: max program length ``L`` and step bound ``t``."""

    L: int
    t: int
    allow_large: bool = False

    def __post_init__(self):
        if self.L < 0 or self.t < 0:
            raise ValueError("budget components must be natural numbers")
        if self.L > MAX_GUARDED_LENGTH and not self.allow_large:
            raise BudgetGuard(
                f"L={self.L} exceeds the 2^L enumeration guard "
                f"({MAX_GUARDED_LENGTH}); pass allow_large=True to override"
            )


class RunStatus(enum.Enum):
    HALTED = "halted"
    NEVER_HALTS = "never-halts"
    NOT_HALTING_AT_BUDGET = "non-halting-at-budget"


@dataclass(frozen=True)
class RunOutcome:
    status: RunStatus
    output: Optional[str] = None
    steps: Optional[int] = None
    reason: str = ""


# ---------------------------------------------------------------------------
# Machines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableMachine:
    """Finite prefix-free machine given by an explicit program table."""

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        keys = sorted(k for k, _ in self.entries)
        for k, v in self.entries:
            check_bits(k)
            check_bits(v)
        for a, b in zip(keys, keys[1:]):
            if a == b:
                raise ValueError(f"duplicate program {a!r} in table")
        check_prefix_free(keys)

    @cached_property
    def mapping(self) -> dict[str, str]:
        return dict(self.entries)

    @property
    def max_program_length(self) -> int:
        return max((len(k) for k, _ in self.entries), default=0)

    @property
    def id(self) -> str:
        blob = ";".join(f"{k}>{v}" for k, v in sorted(self.entries))
        return "table-" + hashlib.sha256(blob.encode()).hexdigest()[:12]

    def run(self, program: str, step_budget: Optional[int] = None) -> RunOutcome:
        out = self.mapping.get(program)
        if out is None:
            return RunOutcome(RunStatus.NEVER_HALTS, reason="not in table")
        return RunOutcome(RunStatus.HALTED, output=out, steps=len(program) + len(out))


def validate_table(entries: Iterable[tuple[str, str]]) -> TableMachine:
    """Build a table machine, rejecting non-prefix-free key sets."""
    return TableMachine(tuple((k, v) for k, v in entries))


@dataclass(frozen=True)
class Interpreter:
    """The fixed reference machine (see module docstring for the format)."""

    aux: tuple[TableMachine, ...] = ()

    @property
    def id(self) -> str:
        blob = "|".join(m.id for m in self.aux)
        return "interp-" + hashlib.sha256(blob.encode()).hexdigest()[:12]

    # -- encoding helpers ---------------------------------------------------

    @staticmethod
    def literal_encode(payload: str) -> str:
        check_bits(payload)
        return LITERAL.header(len(payload) + 1) + payload

    @staticmethod
    def repeat_encode(out_len: int, pattern: str) -> str:
        check_bits(pattern)
        if out_len < 1 or not pattern:
            raise ValueError("repeat needs out_len >= 1 and a nonempty pattern")
        return REPEAT.header(out_len, len(pattern)) + pattern

    def call_encode(self, index: int, program: str) -> str:
        if not 1 <= index <= len(self.aux):
            raise ValueError(f"auxiliary index {index} out of range")
        return CALL.header(index) + program

    def call_overhead(self, index: int) -> int:
        """Extra bits a table call adds on top of the auxiliary program."""
        return CALL.header_length(index)

    # -- running ------------------------------------------------------------

    def _parse(self, s: str) -> tuple[str, Optional[str], int]:
        """Parse one program from the start of ``s``.

        Returns ``(state, output, consumed)`` with state one of ``"ok"``,
        ``"incomplete"`` (a longer input could halt) or ``"undefined"``
        (no extension halts).
        """
        # the tags form a complete prefix code, so no match means s is a
        # proper prefix of a tag
        op = next((op for op in OPCODES if s.startswith(op.tag)), None)
        if op is None:
            return "incomplete", None, 0
        nums = []
        pos = len(op.tag)
        for _ in op.fields:
            g = gamma_parse(s, pos)
            if g is None:
                return "incomplete", None, 0
            n, pos = g
            nums.append(n)
        if op is not CALL:
            end = pos + op.lengths(*nums)[0]
            if len(s) < end:
                return "incomplete", None, 0
            return "ok", op.outputs([s[pos:end]], *nums)[0], end
        (idx,) = nums
        if not 1 <= idx <= len(self.aux):
            return "undefined", None, 0
        rest = s[pos:]
        for key, val in self.aux[idx - 1].entries:
            if rest.startswith(key):
                return "ok", val, pos + len(key)
        if any(key.startswith(rest) for key, _ in self.aux[idx - 1].entries):
            return "incomplete", None, 0
        return "undefined", None, 0

    def run(self, program: str, step_budget: Optional[int] = None) -> RunOutcome:
        """Run on exactly ``program``; halting requires consuming every bit.

        Micro-steps count bits read plus bits written.  A run that would
        exceed the step budget reports non-halting-at-budget, never a
        divergence verdict.
        """
        check_bits(program)
        state, output, consumed = self._parse(program)
        if state == "incomplete":
            return RunOutcome(RunStatus.NEVER_HALTS, reason="program incomplete")
        if state == "undefined":
            return RunOutcome(RunStatus.NEVER_HALTS, reason="no halting extension")
        if consumed < len(program):
            return RunOutcome(RunStatus.NEVER_HALTS, reason="trailing bits")
        steps = consumed + len(output)
        if step_budget is not None and steps > step_budget:
            return RunOutcome(RunStatus.NOT_HALTING_AT_BUDGET, reason=f"steps {steps}")
        return RunOutcome(RunStatus.HALTED, output=output, steps=steps)


PrefixMachine = Union[TableMachine, Interpreter]


# ---------------------------------------------------------------------------
# Domain enumeration
# ---------------------------------------------------------------------------


class DomainEnumeration:
    """All programs of length <= L halting within t steps, with outputs.

    ``truncated_lengths`` records program lengths at which the step
    budget excluded programs that would halt with more steps; values above
    the smallest such length cannot claim exactness.
    """

    def __init__(
        self,
        pairs: list[tuple[str, str]],
        truncated_lengths: frozenset[int],
        covers_whole_domain: bool,
    ):
        self.pairs = sorted(pairs, key=lambda kv: (len(kv[0]), kv[0]))
        self.truncated_lengths = truncated_lengths
        # lengths strictly below this were enumerated completely
        self.scan_complete_below = min(truncated_lengths, default=INFINITE)
        self.covers_whole_domain = covers_whole_domain

    @cached_property
    def index(self) -> dict[str, tuple[int, str]]:
        """Map output -> (shortest program length, that program)."""
        idx: dict[str, tuple[int, str]] = {}
        for prog, out in self.pairs:
            if out not in idx:
                idx[out] = (len(prog), prog)
        return idx


def _enumerate_table(m: TableMachine, b: Budget) -> DomainEnumeration:
    pairs = [(k, v) for k, v in m.entries if len(k) <= b.L]
    return DomainEnumeration(
        pairs,
        truncated_lengths=frozenset(),
        covers_whole_domain=m.max_program_length <= b.L,
    )


def _headers(op: Opcode, L: int, nums: tuple = ()) -> Iterator[tuple[int, ...]]:
    """Header numbers of every ``op`` program of at most ``L`` bits.

    Program length grows with each header number, so each number counts up
    from 1 until the program, with the later numbers at 1, stops fitting.
    """
    if len(nums) == len(op.fields):
        yield nums
        return
    ones = (1,) * (len(op.fields) - len(nums) - 1)
    n = 1
    while op.header_length(*nums, n, *ones) + op.lengths(*nums, n, *ones)[0] <= L:
        yield from _headers(op, L, nums + (n,))
        n += 1


def _enumerate_interpreter(m: Interpreter, b: Budget) -> DomainEnumeration:
    pairs: list[tuple[str, str]] = []
    truncated: set[int] = set()

    for op in (LITERAL, REPEAT):
        for nums in _headers(op, b.L):
            head = op.header(*nums)
            blen, olen = op.lengths(*nums)
            if len(head) + blen + olen > b.t:  # run steps: program + output length
                truncated.add(len(head) + blen)
            else:
                bodies = strings_of_length(blen)
                pairs += zip([head + p for p in bodies], op.outputs(bodies, *nums))

    for i, aux in enumerate(m.aux, start=1):
        head = CALL.header(i)
        for key, val in aux.entries:
            enc_len = len(head) + len(key)
            if enc_len > b.L:
                continue
            if enc_len + len(val) > b.t:
                truncated.add(enc_len)
            else:
                pairs.append((head + key, val))

    return DomainEnumeration(
        pairs,
        truncated_lengths=frozenset(truncated),
        covers_whole_domain=False,
    )


@lru_cache(maxsize=256)
def enumerate_domain(machine: PrefixMachine, budget: Budget) -> DomainEnumeration:
    """Deterministic (length-lex) listing of the budgeted domain."""
    if isinstance(machine, TableMachine):
        return _enumerate_table(machine, budget)
    return _enumerate_interpreter(machine, budget)


# ---------------------------------------------------------------------------
# Complexity
# ---------------------------------------------------------------------------


class KStatus(enum.Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper-bound"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ComplexityValue:
    """A program-size value with its budget and confidence status.

    ``value`` is an int, or ``INFINITE`` when no producing program was
    found; exact infinity is only claimed for fully scanned finite
    machines.
    """

    value: Union[int, float]
    status: KStatus
    budget: Budget
    witness: Optional[str] = None

    @property
    def is_finite(self) -> bool:
        return self.value != INFINITE

    def at_most(self, bound: int) -> bool:
        """Sound upper-bound test: true only when a witness certifies it."""
        return self.is_finite and self.value <= bound


def complexity(machine: PrefixMachine, target: str, budget: Budget) -> ComplexityValue:
    """Shortest-program length for ``target`` under the given budget."""
    check_bits(target)
    enum = enumerate_domain(machine, budget)
    hit = enum.index.get(target)
    if hit is not None:
        length, prog = hit
        status = (
            KStatus.EXACT if length <= enum.scan_complete_below else KStatus.UPPER_BOUND
        )
        return ComplexityValue(length, status, budget, witness=prog)
    if enum.covers_whole_domain and not enum.truncated_lengths:
        return ComplexityValue(INFINITE, KStatus.EXACT, budget)
    return ComplexityValue(INFINITE, KStatus.UNKNOWN, budget)


# ---------------------------------------------------------------------------
# Halting-probability style sums
# ---------------------------------------------------------------------------


def omega_lower(machine: PrefixMachine, budget: Budget) -> Dyadic:
    """Stage weight ``sum(2**-len(p))`` over the budgeted domain."""
    return dyadic_weight(len(p) for p, _ in enumerate_domain(machine, budget).pairs)


def floor_nth_root(x: int, n: int) -> int:
    """Exact ``floor(x ** (1/n))`` for ``x >= 0``, integer Newton."""
    if x < 0 or n < 1:
        raise ValueError("need x >= 0 and n >= 1")
    if x == 0:
        return 0
    r = 1 << -(-x.bit_length() // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r**n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def omega_s_bounds(
    machine: PrefixMachine, s: Fraction, budget: Budget, precision: int
) -> DyadicInterval:
    """Outward-rounded bounds for ``sum(2**(-len(p)/s))`` over the domain.

    Terms with non-integer exponents are irrational; each is rounded
    outward to ``precision`` fractional bits, so the interval width is at
    most ``(number of terms) * 2**-precision``.
    """
    if not 0 < s < 1:
        raise ValueError("s must lie strictly between 0 and 1")
    enum = enumerate_domain(machine, budget)
    lo = ZERO
    hi = ZERO
    num, den = s.numerator, s.denominator
    for prog, _ in enum.pairs:
        scaled = len(prog) * den  # term = 2 ** -(scaled / num)
        if scaled % num == 0:
            term = half_power(scaled // num)
            lo = lo + term
            hi = hi + term
            continue
        shifted = precision * num - scaled  # floor(2^precision * term)
        low_int = 0 if shifted < 0 else floor_nth_root(1 << shifted, num)
        lo = lo + Dyadic.of(low_int, precision)
        hi = hi + Dyadic.of(low_int + 1, precision)
    return DyadicInterval(lo, hi)

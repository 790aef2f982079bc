"""Concrete prefix-free machines and budgeted-exact program-size complexity.

Two machine flavors:

* ``TableMachine`` -- a finite map with prefix-free key set.
* ``Interpreter`` -- a fixed reference machine whose halting programs are
  prefix-free by construction (every read is self-delimiting).  Its
  instruction set is bit-exact, a tag and gamma-coded header numbers
  (``header``) followed by a body:

  - ``LITERAL`` ``0``: gamma(len(payload) + 1), then the payload bits
    (``literal_length``).
  - ``REPEAT`` ``10``: gamma(output length), gamma(pattern length), pattern
    bits (``repeat_length``); the output is the first *output length* bits
    of the pattern repeated forever (``repeat_output``).
  - ``CALL`` ``11``: gamma(1-based index of a registered auxiliary table
    machine), then one program of that machine.

  Elias gamma of ``n >= 1`` is ``floor(log2 n)`` zeros followed by the
  binary digits of ``n``; it is itself a prefix code, which keeps every
  composite program self-delimiting.

Complexity values are machine-relative and budget-stamped.  A value is
*exact* only when no program of its length or shorter was cut by the step
budget; a cut downgrades affected queries to upper bounds, never silently.
``complexity`` and the halting-probability sums read the instruction set
directly; ``enumerate_domain`` and ``outputs_of_length`` list programs, both
through one expander, ``_programs``, the only caller of ``strings_of_length``.
``complexity`` learns the shortest cut length from a walk that counts
nothing; the sums and the listing read ``domain_census``.  Each table
builds its query summary once, when it is validated: the shortest key per
output and the sorted output lengths per key length, which the census,
the cut walk, ``complexity`` and ``outputs_of_length`` read.  The
per-query code reads each ``KStatus`` member from a module constant:
``enum``'s class ``__getattr__`` keeps CPython from specializing an
attribute read such as ``KStatus.EXACT``, which then costs over ten
times a global read, up to a tenth of a cached query.

A query whose literal fits and has fewer than ``LITERAL_ROWS`` payload
bits reads it from ``_LITERALS``, built at import from ``literal_length``
and ``header``: the literal's length and header, and the tight period
bound, the longest period whose repeat is shorter than the literal.  No
longer period can win, so the period search starts from a longer prefix
of the target and mostly ends after one ``str.find``.  Any other query
computes the literal's length and bounds the period loosely.  A caller
that knows the target's smallest period passes it as ``complexity``'s
private ``_period`` (``spectra.profile`` does, from one prefix-function
pass), and the query searches for none and skips its bit check.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import defaultdict
from functools import lru_cache
from itertools import chain, groupby
from typing import TYPE_CHECKING, NamedTuple, Union

from .errors import BudgetGuard
from .foundations import (
    Dyadic,
    DyadicInterval,
    Record,
    ZERO,
    check_bits,
    check_prefix_free,
    dyadic_weight,
    strings_of_length,
)

if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Iterable, Iterator, Optional, Sequence

INFINITE = float("inf")  # order sentinel for "no program"; never used in arithmetic

MAX_BUILT = 1 << 20  # census classes, listed pairs, level strings or codeword bits built at once


def guard(size: int, what: str, budget: Optional[Budget] = None, **fields: int) -> None:
    """Refuse to build ``size > MAX_BUILT`` things: raise ``BudgetGuard``
    unless ``budget`` allows large runs.  A guard given no budget cannot be
    lifted.  ``what`` is a template over ``size`` and ``fields``, filled in
    only when refusing."""
    if size > MAX_BUILT and (budget is None or not budget.allow_large):
        lift = "nothing lifts it" if budget is None else "--force lifts it"
        what = what.format(size=size, **fields)
        raise BudgetGuard(f"{what}, above the {MAX_BUILT} guard; {lift}")


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
    one = s.find("1", pos)
    end = 2 * one - pos + 1  # one - pos zeros, then the 1 and as many digits again
    if one == -1 or end > len(s):
        return None
    return int(s[one:end], 2), end


# ---------------------------------------------------------------------------
# The interpreter's instruction set
# ---------------------------------------------------------------------------


LITERAL, REPEAT, CALL = "0", "10", "11"  # the tags, a complete prefix code


@lru_cache(maxsize=4096)  # short headers recur: witnesses and listings rebuild them
def header(tag: str, *nums: int) -> str:
    """An instruction's header: its tag, then each header number gamma-coded."""
    return tag + "".join(map(gamma_encode, nums))


def literal_length(n: int) -> int:
    """Bits of a literal of header number ``n``: tag, gamma(n), ``n - 1`` payload bits."""
    return len(LITERAL) + gamma_length(n) + n - 1


def repeat_length(count: int, plen: int) -> int:
    """Bits of a repeat: tag, gamma(count), gamma(plen), ``plen`` pattern bits."""
    return len(REPEAT) + gamma_length(count) + gamma_length(plen) + plen


def repeat_output(pattern: str, count: int) -> str:
    """The first ``count`` bits of ``pattern`` repeated forever."""
    return (pattern * -(-count // len(pattern)))[:count]


LITERAL_ROWS = 32  # rows for every literal of up to 43 bits, so for every L <= 43


def _literal_row(n: int) -> tuple[int, str, int]:
    """The literal of an ``n``-bit target: its length and header, and the
    tight period bound, the largest ``q <= n - 1`` whose repeat is shorter
    (0 when none is): ``q + 2 * bitlen(q) <= literal_length(n + 1) - 1 -
    2 * bitlen(n)``, as ``repeat_length(n, q) = 2 * bitlen(n) + 2 *
    bitlen(q) + q``."""
    length = literal_length(n + 1)
    room = length - 1 - 2 * n.bit_length()
    q = n - 1
    while q > 0 and q + 2 * q.bit_length() > room:
        q -= 1
    return length, header(LITERAL, n + 1), max(q, 0)


_LITERALS = tuple(map(_literal_row, range(LITERAL_ROWS)))

_NOT_BITS = str.maketrans("", "", "01")  # ``s.translate(_NOT_BITS)`` is empty iff s is bits


# ---------------------------------------------------------------------------
# Budgets and run outcomes
# ---------------------------------------------------------------------------


class Budget(Record):
    """Max program length ``L`` and step bound ``t``; ``allow_large`` lifts the
    size guards given a budget (census, cut walk, listing)."""

    __slots__ = _fields = ("L", "t", "allow_large")

    def __init__(self, L: int, t: int, allow_large: bool = False):
        if L < 0 or t < 0:
            raise ValueError("budget components must be natural numbers")
        self.L = L
        self.t = t
        self.allow_large = allow_large


class RunStatus(enum.Enum):
    HALTED = "halted"
    NEVER_HALTS = "never-halts"
    NOT_HALTING_AT_BUDGET = "non-halting-at-budget"


class RunOutcome(NamedTuple):
    status: RunStatus
    output: Optional[str] = None
    steps: Optional[int] = None


# ---------------------------------------------------------------------------
# Machines
# ---------------------------------------------------------------------------


def _short_id(kind: str, blob: str) -> str:
    """``kind-`` and the first 12 hex digits of the SHA-256 of ``blob``."""
    import hashlib  # only machine ids hash, and most commands ask for none

    return f"{kind}-{hashlib.sha256(blob.encode()).hexdigest()[:12]}"


class TableMachine(Record):
    """Finite prefix-free machine given by an explicit program table.

    Validation checks every string's bits, then sorts the keys once, and
    the same pass builds the summary that queries read: ``mapping``,
    ``shortest`` (output -> its shortest program, the lexicographically
    least), ``output_lengths`` (program length -> the sorted output lengths
    of its entries) and ``max_program_length``.  Only ``entries`` is a
    field, so equality, hashing and repr read it alone.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[str, str], ...]):
        for k, v in entries:  # before the sort, which a non-str key breaks
            check_bits(k)
            check_bits(v)
        keys = sorted(k for k, _ in entries)
        mapping = dict(entries)
        if len(mapping) < len(entries):
            dup = next(a for a, b in zip(keys, keys[1:]) if a == b)
            raise ValueError(f"duplicate program {dup!r} in table")
        check_prefix_free(keys)
        self.entries = entries
        self.mapping = mapping
        keys.sort(key=len)  # a stable sort, so now in (length, key) order
        # the last write of an output wins, so the least key is written last
        least_last = keys[::-1]
        self.shortest = dict(zip(map(mapping.__getitem__, least_last), least_last))
        self.output_lengths = {
            klen: sorted(map(len, map(mapping.__getitem__, group)))
            for klen, group in groupby(keys, len)
        }
        self.max_program_length = len(keys[-1]) if keys else 0

    @property
    def id(self) -> str:
        blob = ";".join(f"{k}>{v}" for k, v in sorted(self.entries))
        return _short_id("table", blob)

    def run(self, program: str, step_budget: Optional[int] = None) -> RunOutcome:
        out = self.mapping.get(program)
        if out is None:
            return RunOutcome(RunStatus.NEVER_HALTS)
        return RunOutcome(RunStatus.HALTED, output=out, steps=len(program) + len(out))


def validate_table(entries: Iterable[tuple[str, str]]) -> TableMachine:
    """Build a table machine, rejecting non-prefix-free key sets."""
    return TableMachine(tuple((k, v) for k, v in entries))


class Interpreter(Record):
    """The fixed reference machine (see module docstring for the format)."""

    _fields = ("aux",)

    def __init__(self, aux: tuple[TableMachine, ...] = ()):
        self.aux = aux
        # per table: its call header and its output -> shortest key map
        self._calls = tuple((header(CALL, i), m.shortest) for i, m in enumerate(aux, 1))
        # (L, t) -> the shortest program length t cuts, filled on demand
        self._first_cut: dict[tuple[int, int], Union[int, float]] = {}

    @property
    def id(self) -> str:
        blob = "|".join(m.id for m in self.aux)
        return _short_id("interp", blob)

    # -- running ------------------------------------------------------------

    def _decode(self, program: str) -> Optional[str]:
        """The output of ``program``, None unless it is exactly one program."""
        if program.startswith(LITERAL):
            g = gamma_parse(program, len(LITERAL))
            if g is None or len(program) - g[1] != g[0] - 1:
                return None
            return program[g[1] :]
        g = gamma_parse(program, len(REPEAT))  # a REPEAT's or a CALL's first number
        if g is None:
            return None  # no tag, or that number cut short
        if program.startswith(REPEAT):
            p = gamma_parse(program, g[1])
            if p is None or len(program) - p[1] != p[0]:
                return None
            return repeat_output(program[p[1] :], g[0])
        if g[0] > len(self.aux):  # a CALL of no table
            return None
        return self.aux[g[0] - 1].mapping.get(program[g[1] :])

    def run(self, program: str, step_budget: Optional[int] = None) -> RunOutcome:
        """Run on exactly ``program``, which halts only when it is one whole
        program.

        Micro-steps count bits read plus bits written.  A run that would
        exceed the step budget reports non-halting-at-budget, never a
        divergence verdict.
        """
        check_bits(program)
        output = self._decode(program)
        if output is None:
            return RunOutcome(RunStatus.NEVER_HALTS)
        steps = len(program) + len(output)
        if step_budget is not None and steps > step_budget:
            return RunOutcome(RunStatus.NOT_HALTING_AT_BUDGET)
        return RunOutcome(RunStatus.HALTED, output=output, steps=steps)


PrefixMachine = Union[TableMachine, Interpreter]


# ---------------------------------------------------------------------------
# The budgeted domain, counted and listed
# ---------------------------------------------------------------------------


def domain_census(
    machine: PrefixMachine, budget: Budget
) -> tuple[dict[int, int], frozenset[int]]:
    """Count the budgeted domain without listing it.

    Returns the number of programs of each length that halt within the
    budget, and the lengths at which the step budget cut a program.  A run
    takes one step per program bit and per output bit, so every body of a
    header halts in the same number of steps.  The interpreter's census
    walks its header classes in gamma-length arithmetic, without building a
    header: a literal per header number, a table call per table and key
    length, and a repeat class per pattern length and bit length of the
    count.  That is fewer than ``L**2`` classes, guarded like a listing.
    ``omega_lower``, ``omega_s_bounds`` and ``enumerate_domain`` read it;
    ``complexity`` needs only the shortest cut length, which
    ``_first_cut_length`` finds without counting.
    """
    if isinstance(machine, TableMachine):
        lengths = machine.output_lengths.items()
        return {l: len(olens) for l, olens in lengths if l <= budget.L}, frozenset()
    L, t = budget.L, budget.t
    guard(L * L, "the census at L={L} would walk up to {size} header classes", budget, L=L)
    counts: dict[int, int] = defaultdict(int)
    cut = set()
    # the literal of header number n outputs its n - 1 body bits; the next
    # n adds a body bit, and two gamma bits when it is a power of 2
    n, length = 1, literal_length(1)
    while length <= L:
        if length + n - 1 <= t:
            counts[length] += 1 << (n - 1)
        else:
            cut.add(length)
        n += 1
        length += 1 if n & (n - 1) else 3
    for i, aux in enumerate(machine.aux, start=1):
        head = len(header(CALL, i))
        for klen, olens in aux.output_lengths.items():
            if (length := head + klen) <= L:
                halting = bisect_right(olens, t - length)
                if halting:
                    counts[length] += halting
                if halting < len(olens):
                    cut.add(length)
    # the repeat counts low .. 2*low - 1 share a gamma length, so a class of
    # pattern length p; doubling low adds 2 bits, and p steps like n above
    p, shortest = 1, repeat_length(1, 1)
    while shortest <= L:
        length, low = shortest, 1
        while length <= L:
            # the counts from low up to t - length halt; past L = 130 a
            # class holds 2**63 counts or more, so it is counted, never sized
            fit = t - length - low + 1
            if fit > 0:
                counts[length] += (fit if fit < low else low) << p
            if fit < low:
                cut.add(length)
            length += 2
            low <<= 1
        p += 1
        shortest += 1 if p & (p - 1) else 3
    return dict(counts), frozenset(cut)


def _first_cut_length(machine: Interpreter, budget: Budget) -> Union[int, float]:
    """The least program length the step budget cuts, ``INFINITE`` when it
    cuts none: ``min(domain_census(machine, budget)[1], default=INFINITE)``
    without the counts.

    It walks the census's header classes, skips every class at or past the
    shortest cut found so far, and reads one number per table and key
    length: the last of its sorted ``output_lengths``, the longest output.
    It holds nothing and takes about L steps per tag (a found repeat cut
    adds log t), so it is guarded by ``L`` itself, not by the census's
    ``L*L`` classes.  It runs on every query at a fresh (L, t), so it
    inlines ``literal_length`` and ``repeat_length`` in bit-length
    arithmetic, ``|gamma(k)| = 2 * k.bit_length() - 1``.
    """
    what = "the cut walk at L={size} would walk up to {size} header classes per tag"
    guard(budget.L, what, budget)
    t = budget.t
    best = budget.L + 1  # the cut length to beat
    # a literal's length and its steps both grow with its header number, so
    # the first literal cut is the shortest; header number n runs in
    # 2n + 2 * n.bit_length() - 2 steps, so none below the start is cut
    n = max(1, t // 2 - t.bit_length())
    while (length := n + 2 * n.bit_length() - 1) < best:  # literal_length(n)
        if length + n - 1 > t:
            best = length
            break
        n += 1
    for i, aux in enumerate(machine.aux, start=1):
        head = len(header(CALL, i))
        for klen, olens in aux.output_lengths.items():
            if (length := head + klen) < best and length + olens[-1] > t:
                best = length
    # the repeat class of counts low .. 2*low - 1 is cut when its largest
    # count runs past t.  Doubling low adds 2 bits and more steps, so the
    # classes of one pattern length are cut from some low on: none is when
    # the last one shorter than best, with low = 2**k, is not
    p = 1
    while (length := p + 2 * p.bit_length() + 2) < best:  # repeat_length(1, p)
        k = (best - 1 - length) // 2
        if length + 2 * k + (2 << k) - 1 > t:
            low = 1
            while length + 2 * low - 1 <= t:
                length += 2
                low <<= 1
            best = length
        p += 1
    return best if best <= budget.L else INFINITE


class DomainEnumeration(NamedTuple):
    """All programs of length <= L halting within t steps, with outputs,
    in length-lex order.

    ``truncated_lengths`` records program lengths at which the step
    budget excluded programs that would halt with more steps; values above
    the smallest such length cannot claim exactness.
    """

    pairs: list[tuple[str, str]]
    truncated_lengths: frozenset[int]
    covers_whole_domain: bool


def _programs(rows: list) -> Iterator[tuple[str, Sequence[str], Sequence[str]]]:
    """Each row's block of programs, in length-lex order: its header, its
    bodies (each program is the header and one body) and their outputs.

    A row is (program length, header, body length, repeat count or None for
    a literal), or (program length, whole program, None, its output) for a
    table entry or call, whose one body is empty.  Headers are prefix-free,
    so at one program length the order of the headers is the order of their
    programs, and a header's bodies come out in lexicographic order: only
    the rows need sorting.
    """
    for _, head, blen, x in sorted(rows):  # no two rows share a header, so None meets no int
        if blen is None:
            yield head, ("",), (x,)
            continue
        bodies = strings_of_length(blen)
        yield head, bodies, bodies if x is None else [repeat_output(p, x) for p in bodies]


def enumerate_domain(machine: PrefixMachine, budget: Budget) -> DomainEnumeration:
    """Deterministic (length-lex) listing of the budgeted domain.

    The pair count is known before any pair is built; a listing of more
    than ``MAX_BUILT`` pairs raises ``BudgetGuard`` unless the budget
    allows large runs.
    """
    counts, truncated = domain_census(machine, budget)
    size = sum(counts.values())
    L, t = budget.L, budget.t
    guard(size, "listing the domain at L={L}, t={t} would hold {size} pairs", budget, L=L, t=t)
    if isinstance(machine, TableMachine):
        rows = [(len(k), k, None, v) for k, v in machine.entries if len(k) <= L]
    else:
        rows = []
        n = 1
        while (length := literal_length(n)) <= L:
            if length + n - 1 <= t:
                rows.append((length, header(LITERAL, n), n - 1, None))
            n += 1
        plen = 1
        while repeat_length(1, plen) <= L:
            count = 1
            while (length := repeat_length(count, plen)) <= L:
                if length + count <= t:
                    rows.append((length, header(REPEAT, count, plen), plen, count))
                count += 1
            plen += 1
        for i, aux in enumerate(machine.aux, start=1):
            head = header(CALL, i)
            for key, val in aux.entries:
                length = len(head) + len(key)
                if length <= L and length + len(val) <= t:
                    rows.append((length, head + key, None, val))
    pairs: list[tuple[str, str]] = []
    for head, bodies, outs in _programs(rows):
        pairs += zip(map(head.__add__, bodies), outs)
    covers = isinstance(machine, TableMachine) and machine.max_program_length <= L
    return DomainEnumeration(pairs, truncated, covers)


def outputs_of_length(machine: PrefixMachine, out_len: int, max_len: int, t: int) -> list[str]:
    """The distinct ``out_len``-bit outputs of programs of at most ``max_len
    <= out_len`` bits halting within ``t`` steps, in ``enumerate_domain`` order.
    No literal is that short, so they come from the repeats with count
    ``out_len`` and each table's shortest key per output; a table machine
    ignores ``t``.  Over ``MAX_BUILT`` strings raise ``BudgetGuard`` first."""
    if isinstance(machine, TableMachine):
        calls, fit, plens = (("", machine.shortest),), max_len, ()
    else:
        calls, fit, plens = machine._calls, min(max_len, t - out_len), range(1, max_len)
    rows, size = [], 0  # rows as ``_programs`` reads them
    for plen in plens:  # program length grows with the pattern length
        if (length := repeat_length(out_len, plen)) > fit:
            break
        size += 1 << plen
        guard(size, "a level of {n}-bit strings would hold {size} or more", n=out_len)
        rows.append((length, header(REPEAT, out_len, plen), plen, out_len))
    for head, shortest in calls:
        for out, key in shortest.items():
            if len(out) == out_len and len(head) + len(key) <= fit:
                rows.append((len(head) + len(key), head + key, None, out))
    return list(dict.fromkeys(chain.from_iterable(outs for _, _, outs in _programs(rows))))


# ---------------------------------------------------------------------------
# Complexity
# ---------------------------------------------------------------------------


class KStatus(enum.Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper-bound"
    UNKNOWN = "unknown"


# the statuses as the per-query code reads them; see the module docstring
_EXACT, _UPPER_BOUND, _UNKNOWN = KStatus.EXACT, KStatus.UPPER_BOUND, KStatus.UNKNOWN


class ComplexityValue(NamedTuple):
    """A program-size value with its budget and confidence status.

    ``value`` is an int, or ``INFINITE`` when no producing program was
    found; exact infinity is only claimed for fully scanned finite
    machines.  A named tuple, since every query builds one and a class
    that guards its fields against assignment takes three times as long
    to build.  ``complexity``'s interpreter path builds it with
    ``tuple.__new__(ComplexityValue, fields)`` (read once, as ``_NEW``), all
    four fields given, so that no constructor frame runs: the same type
    with the same fields.
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
        return self.value <= bound  # INFINITE exceeds every bound


_NEW = tuple.__new__


def _table_complexity(m: TableMachine, target: str, budget: Budget) -> ComplexityValue:
    key = m.shortest.get(target)
    if key is not None and len(key) <= budget.L:
        return ComplexityValue(len(key), _EXACT, budget, witness=key)
    if m.max_program_length <= budget.L:
        return ComplexityValue(INFINITE, _EXACT, budget)
    return ComplexityValue(INFINITE, _UNKNOWN, budget)


def complexity(
    machine: PrefixMachine, target: str, budget: Budget, *, _period: Optional[int] = None
) -> ComplexityValue:
    """Shortest-program length for ``target`` under the given budget.

    The witness is the length-lex least shortest program of the budgeted
    domain, the first ``enumerate_domain`` would list with that output.  On
    the interpreter only three programs can be shortest: the literal, the
    repeat of the target's shortest period (a repeat grows with its
    pattern), and the shortest table call whose entry outputs the target.
    The tags order 0 < 10 < 11, so a later candidate must be strictly
    shorter to win, except that two calls compare as strings.  A table
    call reads the table's ``shortest``, built when the table was
    validated.  The value is exact when no program as short as it is cut:
    the shortest cut length comes, once per (L, t), from a walk of the
    header classes that counts nothing and reads each table's
    ``output_lengths`` (``_first_cut_length``), not from the census.

    ``_period`` is private to callers that already know the target's
    smallest period (``len(target)`` when it has none shorter, 0 for the
    empty target) and have checked its bits, such as ``spectra.profile``
    on a ``BitStream``'s prefix; the query then skips its search for one
    and its bit check.  A table machine ignores the period.
    """
    if _period is None and (target.__class__ is not str or target.translate(_NOT_BITS)):
        check_bits(target)
    # an Interpreter passes one identity test, not an isinstance call
    if machine.__class__ is not Interpreter and isinstance(machine, TableMachine):
        return _table_complexity(machine, target, budget)
    # A program fits when it has at most L bits and runs within t steps, one
    # per program bit and per output bit; ``best`` is the length to beat.
    # The body runs in one frame, so it inlines ``literal_length`` and
    # ``repeat_length`` with |gamma(k)| = 2 * k.bit_length() - 1.  Only the
    # winning tag is kept; its witness is built once, at the end.
    n = len(target)
    nbits = n.bit_length()
    best = budget.t - n
    if budget.L < best:
        best = budget.L
    best += 1
    tag = None
    # The repeat of period q has repeat_length(n, q) bits; ``qmax`` bounds
    # the period that can win.  A fitting literal of a target of fewer than
    # LITERAL_ROWS bits reads its length, its header and the tight bound
    # from its row.  Else |gamma(q)| >= 1 gives qmax <= n - 1, as best is at
    # most the literal's n + 2 * bitlen(n + 1) <= n + 2 * bitlen(n) + 2
    literal_header = None
    if n < LITERAL_ROWS and (row := _LITERALS[n])[0] < best:
        best, literal_header, qmax = row
        tag = LITERAL
    else:
        length = n + 2 * (n + 1).bit_length()  # literal_length(n + 1)
        if length < best:  # so n >= LITERAL_ROWS
            best, tag = length, LITERAL
        qmax = best - 3 - 2 * nbits
    if qmax > 0:
        if _period is None:
            # each period q <= qmax starts a copy of the first m bits at q,
            # which find checks; the bits past that copy are checked after
            m = n - qmax
            start = target[:m]
            q = target.find(start, 1)
            while q != -1 and not target.startswith(target[m : n - q], q + m):
                q = target.find(start, q + 1)
        else:
            q = _period if _period <= qmax else -1
        if q != -1 and (length := 2 * (nbits + q.bit_length()) + q) < best:
            best, tag = length, REPEAT
    for head, shortest in machine._calls:
        key = shortest.get(target)
        if key is None:
            continue
        length = len(head) + len(key)
        if length < best or (length == best and tag == CALL and head + key < witness):
            best, tag, witness = length, CALL, head + key
    if tag is None:
        return _NEW(ComplexityValue, (INFINITE, _UNKNOWN, budget, None))
    if tag == LITERAL:
        witness = (literal_header or header(LITERAL, n + 1)) + target
    elif tag == REPEAT:
        witness = header(REPEAT, n, q) + target[:q]
    L_t = (budget.L, budget.t)
    cut = machine._first_cut.get(L_t)
    if cut is None:
        cut = machine._first_cut[L_t] = _first_cut_length(machine, budget)
    status = _EXACT if best <= cut else _UPPER_BOUND
    return _NEW(ComplexityValue, (best, status, budget, witness))


# ---------------------------------------------------------------------------
# Halting-probability style sums
# ---------------------------------------------------------------------------


def omega_lower(machine: PrefixMachine, budget: Budget) -> Dyadic:
    """Stage weight ``sum(2**-len(p))`` over the budgeted domain."""
    return dyadic_weight(domain_census(machine, budget)[0])


def floor_nth_root(x: int, n: int) -> int:
    """Exact ``floor(x ** (1/n))`` for ``x >= 0``, integer Newton."""
    if x < 0 or n < 1:
        raise ValueError("need x >= 0 and n >= 1")
    if x == 0:
        return 0
    # r starts at 2**ceil(bitlen(x)/n), above the root.  By AM-GM an integer
    # Newton step never drops below floor(x ** (1/n)), and from any r above
    # that floor it strictly decreases, so the loop ends exactly there.
    r = 1 << -(-x.bit_length() // n)
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            return r
        r = nr


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
    counts, _ = domain_census(machine, budget)
    lo = ZERO
    hi = ZERO
    num, den = s.numerator, s.denominator
    for length, count in counts.items():
        scaled = length * den  # term = 2 ** -(scaled / num)
        if scaled % num == 0:
            terms = Dyadic.of(count, scaled // num)
            lo = lo + terms
            hi = hi + terms
            continue
        shifted = precision * num - scaled  # floor(2^precision * term)
        low_int = 0 if shifted < 0 else floor_nth_root(1 << shifted, num)
        lo = lo + Dyadic.of(count * low_int, precision)
        hi = hi + Dyadic.of(count * (low_int + 1), precision)
    return DyadicInterval(lo, hi)

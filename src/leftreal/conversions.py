"""The two constructive bridges between certified dyadic-series names and
complexity-rate certificates.

One direction turns a name with a rearranged-tail rate into a covering
length-uniform test family by enumerating open intervals in stages; the
other reconstructs a name in blocks from an increasing approximation
whose prefixes carry machine-relative complexity certificates.

Both directions assume a non-dyadic limit; the stage machinery detects
the finite/eventually-constant inputs it can see at desk scale and
reports an explicit shortcut instead of running a loop whose open
intervals could never contain the limit.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from itertools import accumulate, compress, count, islice, repeat, tee
from operator import add, le, rshift
from typing import TYPE_CHECKING, NamedTuple

from .errors import PreconditionRefuted, RateError
from .foundations import Dyadic, ZERO
from .machines import Budget, PrefixMachine, complexity
from .names import (
    IncreasingDyadicStream,
    Modulus,
    NameStream,
    block_name,
    sum_exceeds_one,
    tail_sums,
    tail_weight,
)
from .randomness import TestFamily, TestKind

if TYPE_CHECKING:
    from typing import Iterator, Optional

CERTIFY_LEVELS = 8  # roc_to_skt checks the tail certificate at levels 0..8


class RateSpec(NamedTuple):
    """A tail-weight rate plus the stage-length schedule derived from it."""

    r: Modulus

    def s(self, n: int) -> int:
        return self.r.at(n + 2) + n + 2


class StageInterval(NamedTuple):
    """One enumerated open interval ``]lo, lo + 2**-length_exp[``."""

    t: int
    lo: Dyadic
    length_exp: int
    m: int


class StageTrace(NamedTuple):
    """Replayable record of a staged interval enumeration, as columns.

    Stage ``t+1`` resets the pointer of index ``m = resets[t]`` to ``t+1``
    and emits ``]x_t, x_t + 2**-exps[m][``, where ``x_t`` is the sum of
    ``2**-values[k]`` for ``k <= t``.  So the resets also record every
    pointer value, and nothing else needs storing: each column holds one
    small int per stage (``exps`` one per index), and the trace stays
    linear in its stages.
    """

    resets: list[int]  # the index reset at each stage
    exps: list[int]  # s(m) for every index m reset
    values: list[int]  # f(0..stages-1), the terms the stages add
    stages: int
    name_label: str = ""
    rate_label: str = ""

    @property
    def intervals(self) -> list[StageInterval]:
        """Every stage's interval, its left end read from one running sum."""
        values, exps = self.values, self.exps
        scale = max(values, default=0)
        sums = accumulate(map((1 << scale).__rshift__, values))  # x_t * 2**scale
        return [
            StageInterval(t, Dyadic.of(x, scale), exps[m], m)
            for t, (x, m) in enumerate(zip(sums, self.resets))
        ]


class RocToSktResult(NamedTuple):
    trace: Optional[StageTrace]
    family: Optional[TestFamily]
    dyadic_shortcut: bool = False
    reason: str = ""


def _suffix_sum_stages(
    after: list[int], scale: int, s_of: Iterator[int]
) -> tuple[list[int], list[int]]:
    """The index each stage resets, and ``s(m)`` for each index, read from
    the name's suffix sums ``after`` at the scale ``2**-scale`` (see
    ``roc_to_skt``).  ``due`` keeps an index under its due stage, then
    ``active`` holds it until its next reset; ``len(exps)`` is the cursor.
    """
    stages = len(after) - 1
    one = 1 << scale
    edge = scale + 1  # w > one >> exp needs w.bit_length() + exp >= edge
    exps: list[int] = []  # s(m), drawn when m is first reset
    due: dict[int, list[int]] = {}
    active: list[int] = []
    resets: list[int] = []
    for t, w in enumerate(islice(reversed(after), 1, None)):
        if due:
            for m in due.pop(t, ()):
                heappush(active, m)
        if active:
            m = heappop(active)
            exp = exps[m]
        else:
            m = len(exps)
            exp = next(s_of)
            exps.append(exp)
        if w.bit_length() + exp >= edge and w > one >> exp:
            # the due stage t' is the first with after[stages - 1 - t'] < w - (one >> exp)
            due.setdefault(stages - bisect_left(after, w - (one >> exp)), []).append(m)
        resets.append(m)
    return resets, exps


def _exponent_stages(values: list[int], s_of: Iterator[int]) -> tuple[list[int], list[int]]:
    """The index each stage resets, and ``s(m)`` for each index, for a name
    whose exponents ``values`` strictly increase (see ``roc_to_skt``).  An
    index due at the next stage goes into ``active`` at once, one due at
    the stage after into ``due``; ``len(exps)`` is the cursor.
    """
    stages = len(values)
    exps: list[int] = []
    resets: list[int] = []
    active: list[int] = []
    due: dict[int, int] = {}
    t = 0
    while t < stages:
        if t in due:
            heappush(active, due.pop(t))
        fresh = not active
        if fresh:
            m = len(exps)
            exp = next(s_of)
            exps.append(exp)
        else:
            m = heappop(active)
            exp = exps[m]
        resets.append(m)
        t += 1  # the next stage, which adds the term f(t)
        if t == stages:
            break
        g = values[t]
        if g < exp:
            heappush(active, m)
        elif g == exp:
            due[t + 1] = m
        elif fresh and not due:
            # stage u schedules iff f(u+1) <= s(its fresh index); the scan
            # draws s through a copy, so each is still drawn once, in order
            ahead = iter(values)
            ahead.__setstate__(t + 1)  # at f(t+1) at once, where islice would step there
            scan, s_of = tee(s_of)
            u = next(compress(count(t), map(le, ahead, scan)), stages)
            m = len(exps)
            exps.extend(islice(s_of, u - t))
            resets.extend(range(m, len(exps)))
            t = u
    return resets, exps


def roc_to_skt(f: NameStream, rate: RateSpec, stages: int) -> RocToSktResult:
    """Run the staged interval enumeration for a certified name.

    At stage ``t+1`` the smallest pointer index ``m`` whose window weight
    ``sum(2**-f(k), p(m) <= k <= t)`` exceeds ``2**-s(m)`` is reset to
    ``t+1`` and the open interval ``]x_t, x_t + 2**-s(m)[`` is emitted.
    The returned family's level ``n`` collects all strings of length
    ``s(n)`` whose closed interval meets some emitted interval of length
    ``2**-s(n)``.

    No stage rescans the indices.  Since ``x_t`` only grows, a reset index
    qualifies from the first stage where ``x_t`` passes its threshold
    ``x_{p(m)} + 2**-s(m)`` until its next reset, and such a stage comes
    before ``stages`` iff the weight still to come after the reset,
    ``w_t = sum(2**-f(k), t < k < stages)``, passes ``2**-s(m)``.  The index
    waits for its due stage, then in a heap of qualified indices.  An index
    never reset has window ``x_t >= x_0 > 2**-s(0) >= 2**-s(m)`` (as
    ``r(0) > f(0)``), so it always qualifies, and the indices reset so far
    are exactly those below a cursor; the least qualified index is the top
    of the heap, else the cursor.  ``s(m) = r(m + 2) + m + 2`` is drawn
    from ``r.iter_from(2)`` once per index, in index order: a memo-backed
    rate reads ``r.at`` there, and a formula rate answers from a C iterator.

    When ``f(0..stages-1)`` strictly increase, the stages run on exponents
    (``_exponent_stages``).  Distinct exponents carry nothing, so
    ``2**-f(t+1) <= w_t < 2**-(f(t+1) - 1)``, with equality on the left iff
    no term follows ``f(t+1)``.  Hence the index reset at stage ``t`` is
    due at stage ``t+1`` if ``f(t+1) < s(m)``, at stage ``t+2`` (if there
    is one) if ``f(t+1) = s(m)``, and never otherwise: a comparison of
    small ints, and no suffix sum is built.  After a fresh stage that
    schedules nothing, every stage takes a fresh index until one has
    ``f(t+1) <= s(m)``; one chain of C iterators finds that stage, reading
    ``s`` through a ``tee`` copy that the stages then take their ``s(m)``
    from, so each ``s(m)`` is still drawn once.  Any other name runs on
    suffix sums at the scale ``2**-max f`` (``_suffix_sum_stages``): one
    ascending list ``after``, where ``after[j]`` is the weight of the last
    ``j`` terms, so ``w_t = after[stages - 1 - t]``.  Almost every stage is
    ruled out by bit lengths alone (``w > one >> s(m)`` needs
    ``w.bit_length() + s(m) >= max f + 1``); only a stage that passes that
    filter makes the exact test, and only one that passes both bisects
    ``after`` for the due stage.

    A stage records only the index it resets: the trace keeps the resets,
    the per-index ``s(m)`` and the name's values, one small int each, and
    ``StageTrace.intervals`` rebuilds the left ends when read.  A level's
    intervals are those of its own index, as ``s`` strictly increases; the
    family reads their left ends as integer sums from one running sum,
    read only as far as the levels asked need, and builds no ``Dyadic``.

    The gate reads the name once: ``f(0..stages-1)`` are the values the
    stage loop sums.  It checks the last partial sum (``InvalidName``; the
    sums increase, so this checks them all, and one bisection of ``after``
    names the first stage past 1).  The values are sorted once: the sorted
    copy gives ``max f`` and is what ``tail_sums`` sorts again, in one
    pass.  Values equal to their sorted copy strictly increase iff a
    ``bytearray`` of binary digits from ``f(0)`` to ``max f``, with a
    ``1`` at each ``f(k)``, holds ``stages`` ones, and one ``int(…, 2)``
    then reads their sum off it: time linear in that span, where summing
    the terms costs their bits, about ``stages * max f / 2``, and at most
    a byte for each bit of the largest suffix sum.  A span under
    ``stages - 1`` rules a name out before any digit is written.  Such a
    sum passes 1 only when ``f(0) = 0`` and a term follows, and such a
    name takes the suffix sums.
    Then the gate checks ``r(0) > f(0)`` (``RateError``), then the tail
    certificate ``tail(r(n)) <= 2**-n`` at levels ``0..CERTIFY_LEVELS``
    (``PreconditionRefuted`` at the least refuted level).
    ``names.tail_sums`` answers the nine tails in integers at the scale
    ``2**-top``, from the whole sum of those values and ``f(stages)``,
    which the last partial sum gives.
    """
    if f.finite:
        return RocToSktResult(
            None,
            None,
            dyadic_shortcut=True,
            reason="finite name denotes a dyadic value; open intervals "
            "cannot contain it",
        )
    # x_t = x / 2**scale exactly, and for integers x - x_p > 2**(scale - s)
    # iff x - x_p > (1 << scale) >> s.  last is x_{stages - 1}.
    values = f.values(stages)
    ordered = sorted(values)
    scale = ordered[-1] if ordered else 0
    one = 1 << scale
    # Strictly increasing values are in order and span at least stages - 1.
    # f(0) = 0 with a second term sums past 1, which the suffix sums name.
    increasing = values == ordered and (stages < 2 or 0 < values[0] <= scale - stages + 1)
    if increasing:
        low = values[0] if stages else 0
        digits = bytearray(b"0") * (scale + 1 - low)  # digit i weighs 2**(scale - low - i)
        for v in values:
            digits[v - low] = 49  # ord("1")
        last = int(digits, 2)
        increasing = last.bit_count() == stages  # a repeated term shares a digit
    if not increasing:
        after = list(accumulate(map(rshift, repeat(one), reversed(values)), initial=0))
        last = after[-1]
        if last > one:  # the first stage past 1 leaves less than last - one to come
            j = bisect_left(after, last - one)
            raise sum_exceeds_one(f.label, stages - j, Dyadic.of(last - after[j - 1], scale))
    r = rate.r
    if r.at(0) <= f.at(0):
        raise RateError(f"need r(0) > f(0): r(0)={r.at(0)}, f(0)={f.at(0)}")
    # tail(m0) = whole - (the terms below m0), all at the scale 2**-top
    fs = f.at(stages)
    top = max(scale, fs)
    whole = (last << (top - scale)) + (1 << (top - fs))
    thresholds: list[int] = []
    try:
        for n in range(CERTIFY_LEVELS + 1):
            thresholds.append(r.at(n))
    finally:  # a rate failing at level n still lets a lower level refute first
        for n, tail in enumerate(tail_sums(ordered + [fs], whole, top, thresholds)):
            if tail << n > 1 << top:
                raise PreconditionRefuted(
                    f"tail certificate refuted at level {n}: "
                    f"tail {Dyadic.of(tail, top)} > 2^-{n}"
                )

    s_of = map(add, r.iter_from(2), count(2))  # s(m) = r(m + 2) + m + 2
    if increasing:
        resets, exps = _exponent_stages(values, s_of)
    else:
        resets, exps = _suffix_sum_stages(after, scale, s_of)

    trace = StageTrace(resets, exps, values, stages, name_label=f.label, rate_label=r.label)
    levels: dict[int, list[str]] = {}  # level -> its strings, built on first read
    # x_0, x_1, ...: one running sum per family, read as far as the levels need
    run = accumulate(map(rshift, repeat(one), values))
    sums: list[int] = []

    def level_fn(n: int) -> list[str]:
        if n not in levels:
            exp = rate.s(n)
            # s strictly increases, so the intervals of length 2**-s(n) are
            # those of index n.  The one at x / 2**scale meets the cell of
            # size 2**-exp holding it, and the next when x is off that grid
            cells = set()
            t = -1
            z = scale - exp
            for _ in range(resets.count(n)):  # both scans run in C
                t = resets.index(n, t + 1)
                if t >= len(sums):
                    sums.extend(islice(run, t + 1 - len(sums)))
                x = sums[t]
                cells.add(j := x >> z if z > 0 else x << -z)
                if z > 0 and x & ((1 << z) - 1):
                    cells.add(j + 1)
            cells.discard(1 << exp)  # past [0, 1]; the sums are at most 1
            levels[n] = [format(j, f"0{exp}b") for j in sorted(cells)]
        return levels[n]

    family = TestFamily(
        level_fn,
        TestKind.STRONG_KURTZ,
        meta={"stages": stages, "rate": r.label, "name": f.label},
    )
    return RocToSktResult(trace=trace, family=family)


class BoundCheck(NamedTuple):
    holds: bool
    count: int
    bound: int
    level: int


def count_bound_check(trace: StageTrace, rate: RateSpec, n: int) -> BoundCheck:
    """Check the per-length stage-count bound ``2**(r(n+2)+1)``.

    The stages of length ``2**-s(n)`` are those resetting the index whose
    ``s`` is ``s(n)``; ``s`` strictly increases, so at most one index has it.
    """
    exp = rate.s(n)
    exps = trace.exps
    m = bisect_left(exps, exp)
    count = trace.resets.count(m) if m < len(exps) and exps[m] == exp else 0
    bound = 1 << (rate.r.at(n + 2) + 1)
    return BoundCheck(holds=count <= bound, count=count, bound=bound, level=n)


# ---------------------------------------------------------------------------
# Increasing approximation -> name with computably convergent rearrangement
# ---------------------------------------------------------------------------


class LcToRocResult(NamedTuple):
    s_values: list[int]
    name: Optional[NameStream]
    exhausted_at: Optional[int] = None
    dyadic_shortcut: bool = False
    reason: str = ""

    @property
    def complete(self) -> bool:
        return self.exhausted_at is None and not self.dyadic_shortcut


def lc_to_roc(
    xs: IncreasingDyadicStream,
    r: Modulus,
    machine: PrefixMachine,
    budget: Budget,
    stages: int,
    n_max: int,
) -> LcToRocResult:
    """Reconstruct a block name along complexity-certified stages.

    ``s(0) = 0``; ``s(n+1)`` is the least ``m > s(n)`` (searched up to
    ``stages``) all of whose prefixes ``xs(m)`` restricted to ``r(k)``
    bits certify complexity at most ``r(k) - k`` for ``k <= n``.  Budget
    complexity values are upper bounds, so the gate is sound.  Each gate
    is decided once per distinct prefix: ``r`` is strictly increasing on
    the search range, so a prefix's length fixes its level, and later
    stages that share the prefix reuse the verdict.  The search reads
    only these bit prefixes (``xs.prefix_bits``), and a stage whose
    prefix repeats the previous stage's failed one is skipped.  When that
    stage is at or past ``xs.settled_from(r(n))``, every later stage
    repeats it too, so the level's search ends there, after reading
    ``xs(stages)``, so that a stream that fails before ``stages`` fails as
    the whole search would.  Block ``t`` of the name lists the digit
    exponents of ``xs(s(t+1)) - xs(s(t))`` in increasing order.
    """
    if xs.eventually_constant:
        return LcToRocResult(
            [],
            None,
            dyadic_shortcut=True,
            reason="eventually constant approximation denotes a dyadic value",
        )
    if xs.at(0) != ZERO:
        raise ValueError("approximation must start at 0")
    if not r.strictly_increasing_on(n_max):
        raise RateError("rate must be strictly increasing on the search range")

    rates = r.values(n_max)
    verdicts: dict[str, bool] = {}

    def certified(target: str, k: int) -> bool:
        ok = verdicts.get(target)
        if ok is None:
            ok = complexity(machine, target, budget).at_most(rates[k] - k)
            verdicts[target] = ok
        return ok

    s_values = [0]
    exhausted_at: Optional[int] = None
    for n in range(n_max):
        found: Optional[int] = None
        failed = None  # the last stage's prefix, whose gate failed
        settled = xs.settled_from(rates[n])
        for m in range(s_values[-1] + 1, stages + 1):
            bits = xs.prefix_bits(m, rates[n])
            if bits == failed:
                if settled is not None and m >= settled:  # so are all later stages
                    xs.prefix_bits(stages, 0)  # raises what reading them would
                    break
                continue
            failed = bits
            if all(certified(bits[: rates[k]], k) for k in range(n + 1)):
                found = m
                break
        if found is None:
            exhausted_at = n + 1
            break
        s_values.append(found)

    name = block_name(map(xs.at, s_values[1:]), f"roc({xs.label})")
    return LcToRocResult(s_values=s_values, name=name, exhausted_at=exhausted_at)


class TailBound(NamedTuple):
    holds: bool
    tail: Dyadic
    bound: Dyadic
    level: int
    stage: int


def tail_bound_check(
    name: NameStream, r: Modulus, n: int, upto: Optional[int] = None
) -> TailBound:
    """Check the block-name tail bound ``(n+1) * 2**-n`` beyond ``r(n)``."""
    if upto is None:
        if not name.finite:
            raise ValueError("need an explicit stage for an unbounded name")
        upto = name.length - 1
    tail = tail_weight(name, r.at(n) + 1, upto)
    bound = Dyadic.of(n + 1, n)
    return TailBound(
        holds=tail <= bound, tail=tail, bound=bound, level=n, stage=upto
    )


class CarryTrace(NamedTuple):
    position: int
    values: list[int]  # R[t] for t = 0 .. block count
    carries: list[int]  # stages t with R[t+1] > R[t]

    @property
    def max_step(self) -> int:
        return max(
            (b - a for a, b in zip(self.values, self.values[1:])), default=0
        )


def carry_counter(name: NameStream, position: int, stages: Optional[int] = None) -> CarryTrace:
    """Count carries past a binary position along a block-built name.

    ``R[t]`` is the integer part of ``2**position`` times the weight the
    first ``t`` blocks place strictly beyond ``position``; a carry is a
    stage where ``R`` increases.  Each block raises any multiplicity by
    at most one, so ``R`` steps by at most one per stage.
    """
    if name.block_boundaries is None:
        raise ValueError("carry counting needs a block-built name")
    boundaries = name.block_boundaries
    blocks = len(boundaries) - 1
    if stages is None:
        stages = blocks
    elif not 0 <= stages <= blocks:
        raise ValueError(
            f"stages must lie in 0..{blocks} for a {blocks}-block name, got {stages}"
        )
    # the tail is ``acc * 2**-scale``, so R[t] = acc >> (scale - position)
    name_values = name.values(boundaries[stages])
    scale = max(name_values + [position])
    acc = start = 0
    values = []
    for end in boundaries[: stages + 1]:
        acc += sum(1 << (scale - v) for v in name_values[start:end] if v > position)
        values.append(acc >> (scale - position))
        start = end
    carries = [t for t in range(stages) if values[t + 1] > values[t]]
    return CarryTrace(position=position, values=values, carries=carries)

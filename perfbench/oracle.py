"""Closed-form reference for ``complexity`` on the reference interpreter.

It answers a query from the instruction set alone, without enumerating
programs, so it checks the library's enumeration-based answers on any
seed.  Only three programs can be shortest for a target ``w`` of length
``n``: the literal, the repeat of ``w``'s shortest period (a repeat's
length grows with the pattern length), and table calls whose entry
outputs ``w``.  The witness is the lexicographically least of the
shortest ones, as in the length-lex enumeration.  A value is exact when
no program length at or below it was cut by the step budget.
"""

from __future__ import annotations

from functools import lru_cache


def gamma(n: int) -> str:
    b = bin(n)[2:]
    return "0" * (len(b) - 1) + b


def gamma_len(n: int) -> int:
    return 2 * (n.bit_length() - 1) + 1


def shortest_period(w: str) -> int:
    """Least ``q >= 1`` with ``w[i] == w[i - q]`` for all ``i >= q``."""
    fail = [0] * len(w)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = fail[k - 1]
        if w[i] == w[k]:
            k += 1
        fail[i] = k
    return len(w) - (fail[-1] if w else 0)


@lru_cache(maxsize=None)
def min_truncated(aux_outputs: tuple, L: int, t: int) -> float:
    """Smallest program length the step budget cut, or infinity.

    ``aux_outputs`` holds ``(call header length, key length, output
    length)`` for every table entry.
    """
    cut = float("inf")
    plen = 0
    while (enc := 1 + gamma_len(plen + 1) + plen) <= L:
        if enc + plen > t:
            cut = min(cut, enc)
        plen += 1
    plen = 1
    while (base := 2 + gamma_len(plen) + plen) + 1 <= L:
        count = 1
        while (enc := base + gamma_len(count)) <= L:
            if enc + count > t:
                cut = min(cut, enc)
                break  # larger counts only lengthen the program
            count += 1
        plen += 1
    for head, klen, olen in aux_outputs:
        if head + klen <= L and head + klen + olen > t:
            cut = min(cut, head + klen)
    return cut


def aux_signature(aux) -> tuple:
    return tuple(
        (2 + gamma_len(i), len(k), len(v))
        for i, table in enumerate(aux, start=1)
        for k, v in table
    )


def expected(aux, signature, target: str, L: int, t: int):
    """``(value, status, witness)`` the reference interpreter must give.

    ``aux`` lists each auxiliary table as ``(key, output)`` pairs, and
    ``signature`` is ``aux_signature(aux)``.  Value is None when no
    program of length at most ``L`` outputs ``target`` within ``t``
    steps; the status is then ``"unknown"``.
    """
    n = len(target)
    progs = ["0" + gamma(n + 1) + target]
    if n:
        q = shortest_period(target)
        progs.append("10" + gamma(n) + gamma(q) + target[:q])
    for i, table in enumerate(aux, start=1):
        progs += ["11" + gamma(i) + k for k, v in table if v == target]
    fit = [p for p in progs if len(p) <= L and len(p) + n <= t]
    if not fit:
        return None, "unknown", None
    best = min(len(p) for p in fit)
    witness = min(p for p in fit if len(p) == best)
    exact = best <= min_truncated(signature, L, t)
    return best, "exact" if exact else "upper-bound", witness

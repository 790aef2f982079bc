"""JSON encodings and small textual spec languages for CLI inputs.

Dyadics are serialized as ``{"num": "<decimal string>", "exp": n}`` and
never as floats.  Spec strings keep pipelines one-liners:

* names: ``ap:a,b`` (``f(k) = a*k+b``), ``list:3,1,4``, or
  ``blocks:steps:<increasing-stream spec>`` (digit read-off per step)
* rates: ``shift:c`` | ``affine:a,b`` | ``pow2:k`` | ``gap:m`` |
  ``values:2,3,5`` with an optional ``>>k`` re-indexing suffix
* bit streams: ``periodic:PATTERN`` | ``bits:BITS`` | ``const:b``
* increasing streams: ``prefix-sums:PATTERN:bits_per_step`` |
  ``dyadics:1/2^1,3/2^2,...``
* set views: ``evens:H`` | ``odds:H`` | ``multiples:k:H`` | ``column:i:H``
  | ``squares-1:H`` | ``elements:1,2,3:H``

Each function imports the library modules it uses, so a command loads
only what its inputs and outputs need; only ``foundations``, which every
command loads, is imported here at the top, for its digit limit.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING

from .foundations import MAX_INT_DIGITS

if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Any, Optional

    from .conversions import StageTrace
    from .foundations import BitStream, Dyadic, NatSetView
    from .immunity import ImmunityVerdict
    from .machines import ComplexityValue, PrefixMachine
    from .names import IncreasingDyadicStream, Modulus, NameStream
    from .randomness import TestFamily
    from .spectra import ComplexityProfile, DimEstimate


class SpecError(ValueError):
    """An input spec string or JSON document is malformed."""


def parse_int(text: str) -> int:
    """``int(text)``, but an integer of more than ``MAX_INT_DIGITS`` digits
    is a ``SpecError`` that names the limit, in the same words on every
    Python version."""
    if len(text) > MAX_INT_DIGITS:
        digits = text.strip().lstrip("+-")
        if len(digits) > MAX_INT_DIGITS and digits.isdigit():
            n = len(digits)
            raise SpecError(f"an integer of {n} digits is above the {MAX_INT_DIGITS}-digit limit")
    return int(text)


# ---------------------------------------------------------------------------
# dyadics
# ---------------------------------------------------------------------------


def dyadic_to_json(d: Dyadic) -> dict:
    return {"num": str(d.num), "exp": d.exp}


_DYADIC_RE = re.compile(r"^(-?\d+)(?:/2\^(\d+))?$")


def parse_dyadic(text: str) -> Dyadic:
    from .foundations import Dyadic

    m = _DYADIC_RE.match(text.strip())
    if not m:
        raise SpecError(f"not a dyadic literal: {text!r} (want 'num' or 'num/2^exp')")
    return Dyadic.of(parse_int(m.group(1)), parse_int(m.group(2) or "0"))


def parse_fraction(text: str) -> Fraction:
    from fractions import Fraction

    num, slash, den = text.partition("/")
    a, b = _ints(num, text, 1) + (_ints(den, text, 1) if slash else [1])
    if b == 0:
        raise SpecError(f"zero denominator in {text!r}")
    return Fraction(a, b)


# ---------------------------------------------------------------------------
# machines
# ---------------------------------------------------------------------------


def pairs_from_json(obj: Any, what: str) -> list:
    """``obj`` if it is a list of two-element lists, else a ``SpecError``."""
    if not isinstance(obj, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in obj
    ):
        raise SpecError(f"{what} must be a list of two-element lists")
    return obj


def requests_from_json(obj: Any) -> list[tuple[int, str]]:
    """Decode a KC request file: a JSON list of ``[length, payload]``
    pairs, each length an integer or an integer string and each payload a
    bit string."""
    requests = pairs_from_json(obj, "KC requests")
    if not all(isinstance(l, (int, str)) for l, _ in requests):
        raise SpecError("KC request lengths must be integers")
    parsed = []
    for l, p in requests:
        if not isinstance(p, str) or p.strip("01"):
            spec = json.dumps([l, p])
            raise SpecError(f"KC request {spec!r} has a payload that is not a bit string")
        if type(l) is not int:  # a string, or a bool, which _ints refuses
            l = _ints(str(l), json.dumps([l, p]), 1)[0]
        parsed.append((l, p))
    return parsed


def machine_to_json(m: PrefixMachine) -> dict:
    from .machines import TableMachine

    if isinstance(m, TableMachine):
        return {"kind": "table", "entries": [[k, v] for k, v in m.entries]}
    return {"kind": "interpreter", "aux": [machine_to_json(a) for a in m.aux]}


def _machine_document(obj: Any, resolver) -> dict:
    """``obj``, or the document its id string names through ``resolver``,
    checked to have a known ``kind``."""
    if isinstance(obj, str):
        if resolver is None:
            raise SpecError(f"machine id {obj!r} given but no registry available")
        obj = resolver(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SpecError("machine document needs a 'kind' field")
    if obj["kind"] not in ("table", "interpreter"):
        raise SpecError(f"unknown machine kind {obj['kind']!r}")
    return obj


def machine_from_json(obj: Any, resolver=None) -> PrefixMachine:
    """Decode a machine document; it and its ``aux`` entries may be inline
    documents or id strings handed to ``resolver``.  An ``aux`` entry is
    decoded only as a table, so an id never resolves past the second level
    and a registry cycle ends in an error."""
    from .machines import Interpreter, TableMachine

    doc = _machine_document(obj, resolver)
    if doc["kind"] == "table":
        entries = pairs_from_json(doc.get("entries", []), "table entries")
        return TableMachine(tuple((k, v) for k, v in entries))
    subs = doc.get("aux", [])
    if not isinstance(subs, list):
        raise SpecError("interpreter 'aux' must be a list of machines")
    aux = []
    for sub in subs:
        sub = _machine_document(sub, resolver)
        if sub["kind"] != "table":
            raise SpecError("interpreter auxiliaries must be table machines")
        aux.append(machine_from_json(sub))
    return Interpreter(aux=tuple(aux))


# ---------------------------------------------------------------------------
# names, rates, streams, views
# ---------------------------------------------------------------------------


def _ints(csv: str, spec: str, count: Optional[int] = None) -> list[int]:
    """The integers in the comma-separated field ``csv`` of ``spec``; a
    ``SpecError`` quoting ``spec`` if one is not an integer or, when
    ``count`` is given, if there are not ``count`` of them."""
    try:
        vals = [parse_int(x) for x in csv.split(",") if x != ""]
    except SpecError:  # past the digit limit: too long to quote
        raise
    except ValueError:
        raise SpecError(f"spec {spec!r} has a non-integer field {csv!r}") from None
    if count is not None and len(vals) != count:
        raise SpecError(f"spec {spec!r} needs {count} integer(s) in {csv!r}")
    return vals


def parse_name(text: str) -> NameStream:
    from .names import NameStream, name_from_increasing

    kind, _, rest = text.partition(":")
    if kind == "ap":
        return NameStream.affine(*_ints(rest, text, 2))
    if kind == "list":
        return NameStream.from_list(_ints(rest, text), label=text)
    if kind == "blocks":
        steps, _, source = rest.partition(":")
        (count,) = _ints(steps, text, 1)
        return name_from_increasing(parse_increasing(source), count, label=text)
    raise SpecError(f"unknown name spec {text!r}")


def parse_rate(text: str) -> Modulus:
    from .names import Modulus

    base, _, shift = text.partition(">>")
    kind, _, rest = base.partition(":")
    if kind == "shift":
        r = Modulus.shift(*_ints(rest, text, 1))
    elif kind == "affine":
        r = Modulus.affine(*_ints(rest, text, 2))
    elif kind == "pow2":
        r = Modulus.power2(*_ints(rest, text, 1))
    elif kind == "gap":
        from .spectra import dim_gap_rate

        r = dim_gap_rate(*_ints(rest, text, 1))
    elif kind == "values":
        r = Modulus.from_values(_ints(rest, text), label=base)
    else:
        raise SpecError(f"unknown rate spec {text!r}")
    if shift:
        (k,) = _ints(shift, text, 1)
        if k < 0:
            raise SpecError(f"spec {text!r} re-indexes by a negative k {shift!r}")
        r = r.shifted(k)
    return r


def parse_stream(text: str) -> BitStream:
    from .foundations import BitStream

    kind, _, rest = text.partition(":")
    if kind == "periodic":
        return BitStream.periodic(rest)
    if kind == "bits":
        return BitStream.from_bits(rest)
    if kind == "const":
        return BitStream.constant(*_ints(rest, text, 1))
    raise SpecError(f"unknown stream spec {text!r}")


def parse_increasing(text: str) -> IncreasingDyadicStream:
    from .foundations import BitStream
    from .names import IncreasingDyadicStream

    kind, _, rest = text.partition(":")
    if kind == "prefix-sums":
        pattern, _, step = rest.partition(":")
        (step,) = _ints(step or "1", text, 1)
        return IncreasingDyadicStream.from_prefix_sums(
            BitStream.periodic(pattern), bits_per_step=step, label=text
        )
    if kind == "dyadics":
        vals = [parse_dyadic(v) for v in rest.split(",")]
        xs = IncreasingDyadicStream.from_list(vals, extend=True, label=text)
        xs.values(len(vals))  # run the stream's checks on the listed values now
        return xs
    raise SpecError(f"unknown increasing-stream spec {text!r}")


def parse_view(text: str) -> NatSetView:
    from . import foundations as fd

    parts = text.split(":")
    kind = parts[0]

    def num(i: int) -> int:
        return _ints(parts[i], text, 1)[0]
    try:
        if kind == "evens":
            return fd.evens(num(1))
        if kind == "odds":
            return fd.odds(num(1))
        if kind == "multiples":
            return fd.multiples(num(1), num(2))
        if kind == "column":
            return fd.column(num(1), num(2))
        if kind == "squares-1":
            return fd.squares_shifted(num(1))
        if kind == "elements":
            elems = _ints(parts[1], text)
            return fd.NatSetView.from_elements(elems, num(2), label=text)
    except IndexError:
        raise SpecError(f"set spec {text!r} is missing a ':'-separated field") from None
    raise SpecError(f"unknown set spec {text!r}")


def view_to_json(v: NatSetView) -> dict:
    return {"elements": v.elements(), "horizon": v.horizon, "label": v.label}


# ---------------------------------------------------------------------------
# families, traces, profiles, verdicts
# ---------------------------------------------------------------------------


def family_to_json(fam: TestFamily, n_max: int) -> dict:
    return {
        "kind": fam.kind.value,
        "levels": [fam.level_list(n) for n in range(n_max + 1)],
        "meta": {k: v for k, v in fam.meta.items() if isinstance(v, (str, int, bool))},
    }


def family_from_json(obj: dict) -> TestFamily:
    from .randomness import TestFamily, TestKind

    kinds = {k.value: k for k in TestKind}
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in kinds:
        raise SpecError(f"unknown family kind {kind!r}")
    levels = obj.get("levels")
    if not isinstance(levels, list) or not all(
        isinstance(lv, list) and all(isinstance(w, str) for w in lv) for lv in levels
    ):
        raise SpecError("family 'levels' must be a list of lists of strings")
    return TestFamily.explicit(levels, kinds[kind])


def trace_to_json(trace: StageTrace) -> dict:
    return {
        "stages": trace.stages,
        "name": trace.name_label,
        "rate": trace.rate_label,
        "intervals": [
            {
                "t": iv.t,
                "lo": dyadic_to_json(iv.lo),
                "length_exp": iv.length_exp,
                "m": iv.m,
            }
            for iv in trace.intervals  # rebuilt once, in one running sum
        ],
        # (pointer index, stage, new value): each stage resets its index
        "p_events": [[m, t, t] for t, m in enumerate(trace.resets, 1)],
    }


def complexity_to_json(v: ComplexityValue) -> dict:
    return {
        "value": None if not v.is_finite else int(v.value),
        "status": v.status.value,
        "witness": v.witness,
        "budget": {"L": v.budget.L, "t": v.budget.t},
    }


def profile_to_csv(p: ComplexityProfile) -> str:
    lines = ["n,K,status,L,t"]
    for n, v in p.entries:
        k = "inf" if not v.is_finite else str(int(v.value))
        lines.append(f"{n},{k},{v.status.value},{v.budget.L},{v.budget.t}")
    return "\n".join(lines) + "\n"


def profile_from_csv(text: str) -> ComplexityProfile:
    """Decode the rows ``profile_to_csv`` writes; comment, header and blank
    lines are skipped."""
    from .machines import Budget, ComplexityValue, KStatus
    from .spectra import ComplexityProfile

    statuses = {s.value: s for s in KStatus}
    entries = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("n,") or not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 5 or fields[2] not in statuses:
            raise SpecError(f"profile row {line!r} is not 'n,K,status,L,t'")
        n, l, t = (_ints(f, line, 1)[0] for f in (fields[0], *fields[3:]))
        value = float("inf") if fields[1] == "inf" else _ints(fields[1], line, 1)[0]
        if min(n, value, l, t) < 0:
            raise SpecError(f"profile row {line!r} has a negative field")
        entries.append((n, ComplexityValue(value, statuses[fields[2]], Budget(l, t))))
    return ComplexityProfile(entries)


def dim_to_json(est: DimEstimate) -> dict:
    return {
        "window": list(est.window),
        "min_ratio": [est.min_ratio.numerator, est.min_ratio.denominator],
        "max_ratio": [est.max_ratio.numerator, est.max_ratio.denominator],
        "used": est.used,
        "excluded": est.excluded,
        "caveat": est.caveat,
    }


def verdict_to_json(v: ImmunityVerdict) -> dict:
    return {
        "property": v.property.value,
        "result": v.result.value,
        "horizon": v.horizon,
        "threshold": v.threshold,
        "witness": v.witness,
    }


# ---------------------------------------------------------------------------
# canonical dumps
# ---------------------------------------------------------------------------


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def digest(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()

"""Command-line surface: reproducible pipelines over JSON/CSV artifacts.

Every artifact embeds a manifest (command line, input digests, budgets,
tool version); identical manifests produce byte-identical outputs.  Exit
codes: 0 success, 2 when a computation succeeded but a mathematical
check came back refuted/violated, 1 for usage or input errors.

A command loads only the library modules it runs: each handler imports
what it uses, and the parser builds a group's leaf commands only when
the command line reaches that group.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    DegenerateMachine,
    LeftrealError,
    PrefixViolation,
    PreconditionRefuted,
    WeightExceeded,
)
from .jsonio import (
    SpecError,
    _ints,
    canonical_dumps,
    complexity_to_json,
    digest,
    dim_to_json,
    dyadic_to_json,
    family_from_json,
    family_to_json,
    machine_from_json,
    machine_to_json,
    parse_fraction,
    parse_increasing,
    parse_name,
    parse_rate,
    parse_stream,
    parse_view,
    profile_from_csv,
    profile_to_csv,
    requests_from_json,
    trace_to_json,
    verdict_to_json,
    view_to_json,
)

if TYPE_CHECKING:
    from typing import Any, Callable, Optional

    from .machines import Budget
    from .randomness import TestFamily

REGISTRY_ENV = "LEFTREAL_MACHINE_REGISTRY"

# errors that mean "the mathematics said no", not "the tool failed"
_REFUTATION_ERRORS = (
    WeightExceeded,
    PrefixViolation,
    PreconditionRefuted,
    DegenerateMachine,
)


def _computation_argv(argv: list[str]) -> list[str]:
    """The command line minus the artifact destination; the manifest
    describes the computation, so equal manifests mean equal bytes."""
    kept, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == "--out":
            skip = True
        elif a.startswith("--out="):
            pass
        else:
            kept.append(a)
    return kept


class _Output:
    def __init__(self, args: argparse.Namespace, argv: list[str]):
        self.out: Optional[str] = args.out
        self.manifest: dict = {
            "tool": f"leftreal {__version__}",
            "command": _computation_argv(argv),
            "inputs": {},
            "budgets": {},
            "seeds": {},  # no CLI path draws randomness today
        }

    def record_input(self, path: str) -> bytes:
        data = Path(path).read_bytes()
        self.manifest["inputs"][path] = digest(data)
        return data

    def record_budget(self, **kv) -> None:
        self.manifest["budgets"].update(kv)

    def emit_json(self, payload: dict) -> None:
        payload = dict(payload)
        payload["manifest"] = self.manifest
        self._write(canonical_dumps(payload))

    def emit_text(self, text: str) -> None:
        header = "# manifest " + json.dumps(self.manifest, sort_keys=True) + "\n"
        self._write(header + text)

    def _write(self, text: str) -> None:
        if not self.out:
            sys.stdout.write(text)
            return
        # write beside the target, then rename: a reader of ``--out`` sees
        # the old artifact or the new one, never a part-written file
        target = Path(self.out)
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink()
            raise


def _load_json(out: _Output, path: str) -> Any:
    data = out.record_input(path)
    try:
        return json.loads(data)
    except RecursionError:
        raise SpecError(f"{path} nests its JSON too deeply to read") from None


def _registry_resolver(out: _Output):
    def resolve(machine_id: str):
        registry = os.environ.get(REGISTRY_ENV)
        if not registry:
            raise SpecError(f"machine id given but {REGISTRY_ENV} is not set")
        # an id names a file in the registry, never a path out of it
        if machine_id in ("", ".", "..") or Path(machine_id).name != machine_id:
            raise SpecError(f"machine id {machine_id!r} is not a file name in {REGISTRY_ENV}")
        return _load_json(out, str(Path(registry) / (machine_id + ".json")))

    return resolve


def _load_machine(out: _Output, arg: str):
    from .machines import Interpreter

    if arg in ("ref", "interpreter"):
        return Interpreter()
    resolver = _registry_resolver(out)
    if arg.startswith("id:"):
        return machine_from_json(arg[3:], resolver)
    return machine_from_json(_load_json(out, arg), resolver)


def _load_family(out: _Output, path: str) -> TestFamily:
    doc = _load_json(out, path)
    return family_from_json(doc.get("family") if isinstance(doc, dict) else None)


def _budget(out: _Output, args: argparse.Namespace) -> Budget:
    from .machines import Budget

    b = Budget(args.budget_l, args.budget_t, allow_large=args.force)
    out.record_budget(L=b.L, t=b.t)
    return b


# ---------------------------------------------------------------------------
# command handlers (each returns an exit code)
# ---------------------------------------------------------------------------


def _cmd_machine_validate(out: _Output, args) -> int:
    m = _load_machine(out, args.machine)
    out.emit_json({"valid": True, "id": m.id, "kind": machine_to_json(m)["kind"]})
    return 0


def _cmd_machine_enumerate(out: _Output, args) -> int:
    from .machines import enumerate_domain

    m = _load_machine(out, args.machine)
    enum = enumerate_domain(m, _budget(out, args))
    out.emit_json(
        {
            "pairs": [[p, o] for p, o in enum.pairs],
            "complete": not enum.truncated_lengths,
            "truncated_lengths": sorted(enum.truncated_lengths),
        }
    )
    return 0


def _cmd_machine_k(out: _Output, args) -> int:
    from .machines import complexity

    m = _load_machine(out, args.machine)
    v = complexity(m, args.target, _budget(out, args))
    out.emit_json({"target": args.target, "complexity": complexity_to_json(v)})
    return 0


def _cmd_kc_alloc(out: _Output, args) -> int:
    from .kraft_chaitin import kc_allocate

    requests = requests_from_json(_load_json(out, args.requests))
    codewords = kc_allocate(l for l, _ in requests)
    out.emit_json({"codewords": [[c, p] for c, (_, p) in zip(codewords, requests)]})
    return 0


def _cmd_kc_build(out: _Output, args) -> int:
    from .kraft_chaitin import kc_build_machine

    requests = requests_from_json(_load_json(out, args.requests))
    m = kc_build_machine(requests)
    out.emit_json({"machine": machine_to_json(m), "id": m.id})
    return 0


def _cmd_skt_from_rate(out: _Output, args) -> int:
    from .randomness import skt_from_rate

    m = _load_machine(out, args.machine)
    fam = skt_from_rate(m, parse_rate(args.rate), args.nmax, _budget(out, args))
    out.emit_json({"family": family_to_json(fam, args.nmax)})
    return 0


def _cmd_skt_validate(out: _Output, args) -> int:
    from .randomness import validate_family

    fam = _load_family(out, args.family)
    verdict = validate_family(fam, args.nmax, args.stage)
    out.emit_json(
        {
            "status": verdict.status.value,
            "refuted_level": verdict.refuted_level,
            "reason": verdict.reason,
        }
    )
    return 0 if verdict.consistent else 2


def _cmd_skt_covers(out: _Output, args) -> int:
    from .randomness import covers

    fam = _load_family(out, args.family)
    x = parse_stream(args.stream)
    reports = [covers(fam, x, n, args.stage) for n in range(args.nmax + 1)]
    out.emit_json(
        {
            "reports": [
                {"level": r.level, "witness": r.witness, "covered": r.covered}
                for r in reports
            ]
        }
    )
    return 0 if all(r.covered for r in reports) else 2


def _cmd_convert_roc_to_skt(out: _Output, args) -> int:
    from .conversions import RateSpec, count_bound_check, roc_to_skt

    f = parse_name(args.name)
    rate = RateSpec(parse_rate(args.rate))
    out.record_budget(stages=args.stages)
    res = roc_to_skt(f, rate, args.stages)
    if res.dyadic_shortcut:
        out.emit_json({"dyadic_shortcut": True, "reason": res.reason})
        return 0
    counts = [count_bound_check(res.trace, rate, n) for n in range(args.nmax + 1)]
    out.emit_json(
        {
            "trace": trace_to_json(res.trace),
            "family": family_to_json(res.family, args.nmax),
            "count_bounds": [
                {"level": c.level, "count": c.count, "bound": c.bound, "holds": c.holds}
                for c in counts
            ],
        }
    )
    return 0 if all(c.holds for c in counts) else 2


def _cmd_convert_lc_to_roc(out: _Output, args) -> int:
    from .conversions import lc_to_roc

    xs = parse_increasing(args.stream)
    r = parse_rate(args.rate)
    m = _load_machine(out, args.machine)
    out.record_budget(stages=args.stages)
    res = lc_to_roc(xs, r, m, _budget(out, args), args.stages, args.nmax)
    payload: dict = {
        "dyadic_shortcut": res.dyadic_shortcut,
        "s_values": res.s_values,
        "exhausted_at": res.exhausted_at,
    }
    if res.name is not None:
        payload["name_values"] = res.name.values(res.name.length)
        payload["block_boundaries"] = res.name.block_boundaries
    out.emit_json(payload)
    return 0 if res.exhausted_at is None else 2


def _cmd_profile(out: _Output, args) -> int:
    from .spectra import profile

    m = _load_machine(out, args.machine)
    p = profile(m, parse_stream(args.stream), args.nmax, _budget(out, args))
    out.emit_text(profile_to_csv(p))
    return 0


def _cmd_dim(out: _Output, args) -> int:
    from .spectra import dim_window

    text = out.record_input(args.profile).decode()
    est = dim_window(profile_from_csv(text), args.n0, args.n1)
    out.emit_json({"dim_estimate": dim_to_json(est)})
    return 0


def _cmd_omega(out: _Output, args) -> int:
    from .machines import omega_lower

    m = _load_machine(out, args.machine)
    w = omega_lower(m, _budget(out, args))
    out.emit_json({"omega_lower": dyadic_to_json(w)})
    return 0


def _cmd_omega_s(out: _Output, args) -> int:
    from .machines import omega_s_bounds

    m = _load_machine(out, args.machine)
    iv = omega_s_bounds(m, parse_fraction(args.s), _budget(out, args), args.precision)
    out.emit_json(
        {
            "interval": {"lo": dyadic_to_json(iv.lo), "hi": dyadic_to_json(iv.hi)},
            "precision": args.precision,
        }
    )
    return 0


def _verdict(check: Callable[..., Any]) -> Callable[..., int]:
    """The handler of an immunity leaf: run its falsifier, found in the
    ``immunity`` module, on the ``--set`` view and the other arguments,
    and emit the verdict."""

    def run(out: _Output, args) -> int:
        from . import immunity

        v = check(immunity, parse_view(args.set), args)
        out.emit_json({"verdict": verdict_to_json(v)})
        return 2 if v.refuted else 0

    return run


def _cmd_construct_interleave(out: _Output, args) -> int:
    from .spectra import square_interleave

    stream = square_interleave(parse_stream(args.source))
    out.emit_json({"bits": stream.prefix(args.prefix)})
    return 0


def _cmd_construct_join(out: _Output, args) -> int:
    from .foundations import charseq, join

    j = join(parse_view(args.a), parse_view(args.b))
    out.emit_json({"join": view_to_json(j), "bits": charseq(j).prefix(j.horizon)})
    return 0


def _cmd_construct_regular(out: _Output, args) -> int:
    from .names import regular_sum, strongly_lc

    xs = regular_sum([strongly_lc(parse_view(s)) for s in args.component])
    out.emit_json({"values": [dyadic_to_json(xs.at(t)) for t in range(args.steps + 1)]})
    return 0


# ---------------------------------------------------------------------------
# the command table: each leaf command, its handler and its arguments
# ---------------------------------------------------------------------------


def natural(text: str) -> int:
    """argparse type of every count flag: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


def _arg(name: str, **kw) -> tuple[str, dict]:
    return name, kw


def _budget_flags(l_default: int = 16) -> list[tuple[str, dict]]:
    return [
        _arg("--budget-l", type=natural, default=l_default, metavar="L"),
        _arg("--budget-t", type=natural, default=10**4, metavar="T"),
        _arg("--force", action="store_true", help="lift the census and listing size guards"),
    ]


MACHINE = _arg("machine")
MACHINE_FLAG = _arg("--machine", default="ref")
FAMILY = _arg("family")
RATE = _arg("--rate", required=True)
STREAM = _arg("--stream", required=True)
NMAX = _arg("--nmax", type=natural, required=True)
STAGE = _arg("--stage", type=natural, default=None)
STAGES = _arg("--stages", type=natural, required=True)
LEVELS = _arg("--nmax", type=natural, default=3)
SET = _arg("--set", required=True)
WITNESS = _arg("--witness", required=True)
HORIZON = _arg("--horizon", type=natural, required=True)
THRESHOLD = _arg("--threshold", type=natural, default=None)
BLOCKS = _arg("--block", action="append", default=[])

# path -> (handler returning the exit code, add_argument (name, kwargs) pairs)
COMMANDS: dict[str, tuple[Callable[..., int], list[tuple[str, dict]]]] = {
    "machine validate": (_cmd_machine_validate, [MACHINE]),
    "machine enumerate": (_cmd_machine_enumerate, [MACHINE, *_budget_flags()]),
    "machine k": (
        _cmd_machine_k,
        [MACHINE, _arg("--target", required=True), *_budget_flags()],
    ),
    "kc alloc": (_cmd_kc_alloc, [_arg("requests")]),
    "kc build": (_cmd_kc_build, [_arg("requests")]),
    "skt from-rate": (_cmd_skt_from_rate, [MACHINE, RATE, NMAX, *_budget_flags()]),
    "skt validate": (_cmd_skt_validate, [FAMILY, NMAX, STAGE]),
    "skt covers": (_cmd_skt_covers, [FAMILY, STREAM, NMAX, STAGE]),
    "convert roc-to-skt": (
        _cmd_convert_roc_to_skt,
        [_arg("--name", required=True), RATE, STAGES, LEVELS],
    ),
    "convert lc-to-roc": (
        _cmd_convert_lc_to_roc,
        [STREAM, RATE, MACHINE_FLAG, STAGES, LEVELS, *_budget_flags(22)],
    ),
    "profile": (_cmd_profile, [MACHINE_FLAG, STREAM, NMAX, *_budget_flags(24)]),
    "dim": (
        _cmd_dim,
        [
            _arg("profile"),
            _arg("--n0", type=natural, required=True),
            _arg("--n1", type=natural, required=True),
        ],
    ),
    "omega": (_cmd_omega, [MACHINE, *_budget_flags()]),
    "omega-s": (
        _cmd_omega_s,
        [
            MACHINE,
            _arg("--s", required=True, help="rational in (0,1), e.g. 2/3"),
            _arg("--precision", type=natural, default=40),
            *_budget_flags(),
        ],
    ),
    "immunity immune": (
        _verdict(lambda im, s, a: im.check_immune(
            s, parse_view(a.witness), a.horizon, a.threshold)),
        [SET, WITNESS, HORIZON, THRESHOLD],
    ),
    "immunity hyperimmune": (
        _verdict(lambda im, s, a: im.check_hyperimmune(s, parse_rate(a.rate), a.horizon)),
        [SET, RATE, HORIZON],
    ),
    "immunity hhi": (
        _verdict(lambda im, s, a: im.check_hhi(
            s, [_ints(b, b) for b in a.block], a.horizon)),
        [SET, BLOCKS, HORIZON],
    ),
    "immunity shhi": (
        _verdict(lambda im, s, a: im.check_shhi(
            s, [parse_view(b) for b in a.block], a.horizon)),
        [SET, BLOCKS, HORIZON],
    ),
    "immunity cohesive": (
        _verdict(lambda im, s, a: im.check_cohesive(
            s, parse_view(a.witness), a.horizon, a.threshold)),
        [SET, WITNESS, HORIZON, THRESHOLD],
    ),
    "immunity bi-immune": (
        _verdict(lambda im, s, a: im.check_bi_immune(
            s, parse_view(a.witness), parse_view(a.witness_complement), a.horizon,
            a.threshold)),
        [SET, WITNESS, _arg("--witness-complement", required=True), HORIZON, THRESHOLD],
    ),
    "construct interleave": (
        _cmd_construct_interleave,
        [_arg("--source", required=True), _arg("--prefix", type=natural, default=64)],
    ),
    "construct join": (
        _cmd_construct_join,
        [_arg("--a", required=True), _arg("--b", required=True)],
    ),
    "construct regular": (
        _cmd_construct_regular,
        [
            _arg("--component", action="append", default=[]),
            _arg("--steps", type=natural, default=16),
        ],
    ),
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ``SpecError``, so ``main`` reports them like
    every other input error: one line, exit 1.

    A group's parser runs ``fill`` before it first parses, so a command
    line builds the leaf parsers of the one group it names; help and
    usage messages are those of the fully built parser.
    """

    fill: Optional[Callable[[], None]] = None

    def parse_known_args(self, args=None, namespace=None):
        if self.fill is not None:
            fill, self.fill = self.fill, None
            fill()
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        raise SpecError(f"{self.prog}: {message}")


def _add_command(p: argparse.ArgumentParser, path: str) -> None:
    run, specs = COMMANDS[path]
    for name, kw in specs:
        p.add_argument(name, **kw)
    p.add_argument("--out", help="write the artifact to this path instead of stdout")
    p.set_defaults(run=run)


def _fill_group(group: _Parser, paths: list[str]) -> None:
    """Add a group's leaf commands, or its arguments when the group is a
    command itself."""
    if " " not in paths[0]:
        _add_command(group, paths[0])
        return
    leaves = group.add_subparsers(dest="cmd", required=True)
    for path in paths:
        leaf = leaves.add_parser(path.partition(" ")[2], allow_abbrev=False)
        _add_command(leaf, path)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="leftreal",
        description="exact-arithmetic workbench for left-computable reals",
        allow_abbrev=False,
    )
    groups = top.add_subparsers(dest="group", required=True)
    paths: dict[str, list[str]] = {}
    for path in COMMANDS:
        paths.setdefault(path.partition(" ")[0], []).append(path)
    for name, group_paths in paths.items():
        group = groups.add_parser(name, allow_abbrev=False)
        group.fill = partial(_fill_group, group, group_paths)
    return top


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        out = _Output(args, argv)
        return args.run(out, args)
    except _REFUTATION_ERRORS as e:  # raised by handlers only, so ``out`` is set
        out.emit_json({"refuted": True, "error": type(e).__name__, "detail": str(e)})
        return 2
    except (SpecError, LeftrealError, OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

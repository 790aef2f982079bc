"""Start-up: the lazy package namespace, the modules each CLI command loads,
and the records that replace generated classes."""

import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import leftreal
from leftreal import cli
from leftreal.foundations import ONE, ZERO, Dyadic, DyadicInterval, half_power
from leftreal.immunity import ImmunityVerdict, Property, Result
from leftreal.machines import Budget, Interpreter, TableMachine

SRC = Path(leftreal.__file__).resolve().parents[1]

# print the leftreal modules, and dataclasses, that are loaded
LOADED = """
print(*sorted(m for m in sys.modules
              if m in ("leftreal", "dataclasses") or m.startswith("leftreal.")))
"""
# run one command, then print its exit code and the modules it loaded
FOOTPRINT = """
import contextlib, io, sys
with contextlib.redirect_stdout(io.StringIO()):
    from leftreal.cli import main
    code = main(sys.argv[1:])
print(code)
""" + LOADED


def fresh_python(cwd: Path, script: str, *argv: str) -> list[str]:
    """The words ``script`` prints in a fresh interpreter; ``-S`` keeps
    site-packages start-up hooks out of ``sys.modules``, and ``-B`` writes
    no bytecode into the source tree."""
    done = subprocess.run(
        [sys.executable, "-S", "-B", "-c", script, *argv],
        cwd=cwd, env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


BASE = {"leftreal", "cli", "errors", "foundations", "jsonio"}
RANDOMNESS = {"machines", "kraft_chaitin", "names", "randomness"}
SPECTRA = {"machines", "names", "spectra"}

# one command per group: (argv, exit code, modules beyond BASE)
COMMANDS = [
    ("machine validate table.json", 0, {"machines"}),
    ("kc alloc requests.json", 0, {"machines", "kraft_chaitin"}),
    ("skt validate family.json --nmax 1", 0, RANDOMNESS),
    (
        "convert roc-to-skt --name ap:2,1 --rate shift:2 --stages 20 --nmax 1",
        0,
        RANDOMNESS | {"conversions"},
    ),
    ("profile --stream periodic:01 --nmax 4 --budget-l 12", 0, SPECTRA),
    ("dim profile.csv --n0 1 --n1 2", 0, SPECTRA),
    ("omega ref --budget-l 12", 0, {"machines"}),
    ("omega-s ref --s 1/2 --budget-l 12", 0, {"machines"}),
    (
        "immunity cohesive --set elements:0,2,4:100 --witness evens:100 --horizon 100",
        0,
        {"immunity"},
    ),
    ("construct join --a elements:0,1:4 --b elements:2:4", 0, set()),
]


@pytest.mark.parametrize("argv, code, extra", COMMANDS)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, code, extra):
    (tmp_path / "table.json").write_text(json.dumps({"kind": "table", "entries": [["0", "1"]]}))
    (tmp_path / "requests.json").write_text(json.dumps([[1, "0"], [2, "01"]]))
    (tmp_path / "family.json").write_text(
        json.dumps({"family": {"kind": "strong-kurtz", "levels": [["00"], ["111"]]}})
    )
    (tmp_path / "profile.csv").write_text(
        "n,K,status,L,t\n1,3,exact,12,10000\n2,4,upper-bound,12,10000\n"
    )
    got = fresh_python(tmp_path, FOOTPRINT, *argv.split())
    expected = {m if m == "leftreal" else f"leftreal.{m}" for m in BASE | extra}
    assert got == [str(code), *sorted(expected)]  # never dataclasses


def test_python_m_leftreal_runs_the_cli_on_the_base_modules(tmp_path):
    # -X importtime names on stderr each module the run imports
    done = subprocess.run(
        [sys.executable, "-S", "-B", "-X", "importtime", "-m", "leftreal",
         *"construct join --a elements:0,1:4 --b elements:2:4".split()],
        cwd=tmp_path, env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["bits"] == "10100100"
    imported = {
        line.rpartition("|")[2].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    loaded = {m for m in imported if m.partition(".")[0] in ("leftreal", "dataclasses")}
    assert loaded == {m if m == "leftreal" else f"leftreal.{m}" for m in BASE}


def test_bare_import_loads_no_submodule(tmp_path):
    assert fresh_python(tmp_path, "import sys, leftreal" + LOADED) == ["leftreal"]


PUBLIC = """
    BitStream Dyadic DyadicInterval NatSetView charseq interval_of join lenlex
    lenlex_inv pair unpair KCAllocator kc_build_machine Budget ComplexityValue
    Interpreter KStatus TableMachine complexity enumerate_domain omega_lower
    omega_s_bounds validate_table IncreasingDyadicStream Modulus NameStream
    name_from_increasing partial_sum regular_sum
    roc_certificate_check strongly_lc tail_weight TestFamily TestKind covers
    kurtz_witness_check level_weight rate_from_skt skt_from_rate validate_family
    RateSpec StageTrace carry_counter count_bound_check lc_to_roc roc_to_skt
    tail_bound_check ComplexityProfile DimEstimate ce_log_bound_check dim_gap_rate
    dim_window profile square_interleave sum_machine
""".split()


def test_lazy_names_resolve_to_their_module_objects():
    assert leftreal.__version__ == "0.1.0"
    assert sorted(leftreal._EXPORTS) == sorted(PUBLIC)
    assert set(leftreal._EXPORTS) <= set(dir(leftreal))
    for name, module in leftreal._EXPORTS.items():
        defined = getattr(importlib.import_module(f"leftreal.{module}"), name)
        assert getattr(leftreal, name) is defined
    with pytest.raises(AttributeError, match="no_such_name"):
        leftreal.no_such_name  # noqa: B018


def test_parser_builds_only_the_group_it_parses(monkeypatch):
    filled = []

    def fill(group, paths):
        filled.append(group.prog)
        fill_group(group, paths)

    fill_group = cli._fill_group
    monkeypatch.setattr(cli, "_fill_group", fill)
    parser = cli.build_parser()
    args = parser.parse_args("construct join --a evens:4 --b odds:4".split())
    assert args.run is cli._cmd_construct_join
    parser.parse_args("profile --stream periodic:01 --nmax 2".split())
    assert filled == ["leftreal construct", "leftreal profile"]


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

THREE = TableMachine((("0", "00"), ("10", "01"), ("11", "111")))
IMMUNE = (Property.IMMUNE, Result.REFUTED_AT_HORIZON, 8, 2)

# class, field values of two instances, whether the class is immutable
RECORDS = [
    (DyadicInterval, [(ZERO, ONE), (ZERO, half_power(1))], True),
    (Budget, [(3, 4), (3, 4, True)], True),
    (TableMachine, [(THREE.entries,), ((("1", "0"),),)], True),
    (Interpreter, [(), ((THREE,),)], True),
    (ImmunityVerdict, [IMMUNE, (*IMMUNE, {"witness": [0, 2]})], False),
]


@pytest.mark.parametrize("cls, values, frozen", RECORDS)
def test_records_compare_hash_and_show_like_generated_classes(cls, values, frozen):
    # the oracle is the generated class with the same fields and defaults
    defaults = {"allow_large": False, "aux": (), "witness": dataclasses.field(default_factory=dict)}
    oracle = dataclasses.make_dataclass(
        cls.__name__,
        [(f, object, defaults[f]) if f in defaults else (f, object) for f in cls._fields],
        frozen=frozen,
    )
    new = [cls(*v) for v in values]
    old = [oracle(*v) for v in values]
    assert [repr(r) for r in new] == [repr(r) for r in old]
    assert [a == b for a in new for b in new] == [a == b for a in old for b in old]
    assert new[0] == cls(*values[0]) and new[0] != new[1]
    assert new[0] != tuple(getattr(new[0], f) for f in cls._fields)
    if frozen:
        assert [hash(r) for r in new] == [hash(r) for r in old]
    else:
        with pytest.raises(TypeError):
            hash(new[0])


def test_dyadic_and_machines_keep_their_equality_and_hashing():
    assert Dyadic(3, 2) == Dyadic.of(6, 3) and Dyadic(3, 2) != Dyadic(3, 1)
    assert Dyadic(1, 0) != (1, 0)
    assert hash(Dyadic(3, 2)) == hash((3, 2))
    assert repr(Dyadic(3, 2)) == "Dyadic(3/2^2)"
    assert Interpreter() != TableMachine(())  # equal fields, other class

"""CLI: subcommand smoke tests, exit-code contract, byte determinism."""

import contextlib
import hashlib
import io
import json
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import leftreal
from leftreal import cli, machines, randomness
from leftreal.cli import COMMANDS, build_parser, main, natural
from leftreal.jsonio import (
    SpecError,
    canonical_dumps,
    machine_from_json,
    machine_to_json,
    parse_int,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def write(tmp_path: Path, name: str, obj) -> str:
    p = tmp_path / name
    p.write_text(canonical_dumps(obj) if not isinstance(obj, str) else obj)
    return str(p)


THREE_ENTRY_JSON = {
    "kind": "table",
    "entries": [["0", "00"], ["10", "01"], ["11", "111"]],
}


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_machine_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "m.json", THREE_ENTRY_JSON)
    code, out = run(capsys, "machine", "validate", path)
    assert code == 0
    assert json.loads(out)["valid"]


def test_machine_validate_prefix_violation_exits_two(tmp_path, capsys):
    path = write(
        tmp_path, "bad.json", {"kind": "table", "entries": [["0", "1"], ["01", "1"]]}
    )
    code, out = run(capsys, "machine", "validate", path)
    assert code == 2
    assert json.loads(out)["error"] == "PrefixViolation"


MIXED_KEYS_JSON = {"kind": "table", "entries": [[5, "1"], ["0", "1"]]}


@pytest.mark.parametrize(
    "doc", [MIXED_KEYS_JSON, {"kind": "interpreter", "aux": [MIXED_KEYS_JSON]}]
)
def test_machine_validate_names_a_non_str_key(tmp_path, capsys, doc):
    # the keys are checked before they are sorted, which a non-str key breaks
    code = main(["machine", "validate", write(tmp_path, "mixed.json", doc)])
    assert code == 1
    assert capsys.readouterr().err == "error: not a bit string: 5\n"


# bad fields, each with the spec, request or profile row its error quotes
QUOTED = {
    "construct join --a evens:x --b evens:4": "evens:x",
    "construct join --a multiples:2:x --b evens:4": "multiples:2:x",
    "convert lc-to-roc --stream prefix-sums:01:x --rate shift:2 --stages 10 --nmax 2":
        "prefix-sums:01:x",
    "construct interleave --source const:x": "const:x",
    "omega-s ref --s x/3": "x/3",
    "immunity hhi --set evens:10 --block 1,x --horizon 10": "1,x",
    "kc alloc {str_length}": '["x", "0"]',
    "kc alloc {bad_payload}": "[5, 7]",
    "kc alloc {bool_length}": '[true, "0"]',
    "dim {negative_l_row} --n0 0 --n1 1": "1,2,exact,-3,4",
    "dim {negative_t_row} --n0 0 --n1 1": "1,2,exact,3,-4",
    "dim {negative_k_row} --n0 1 --n1 5": "1,-2,exact,3,4",
    "dim {negative_n_row} --n0 0 --n1 1": "-1,2,exact,3,4",
    "dim {short_row} --n0 0 --n1 1": "1,2",
    "dim {x_row} --n0 0 --n1 1": "x,2,exact,3,4",
    "dim {bogus_row} --n0 0 --n1 1": "1,2,bogus,3,4",
    # formula rates and names refuse a negative field when built
    "convert roc-to-skt --name ap:2,1 --rate pow2:-3 --stages 50": "2^(n+-3)",
    "convert roc-to-skt --name ap:2,1 --rate shift:-5 --stages 50": "n+-5",
    "convert roc-to-skt --name ap:2,1 --rate affine:-1,9 --stages 50": "-1n+9",
    "convert roc-to-skt --name ap:2,-1 --rate shift:2 --stages 50": "2k+-1",
    "convert roc-to-skt --name ap:-1,9 --rate shift:2 --stages 50": "-1k+9",
}

# bad inputs whose whole error line is pinned
EXACT = {
    # a constant stream of a non-bit fails at its first read
    "profile --stream const:2 --nmax 4 --budget-l 12": "stream produced non-bit 2 at index 0",
    "machine validate {no_kind}": "machine document needs a 'kind' field",
    "machine validate {turing}": "unknown machine kind 'turing'",
    "kc alloc {float_length}": "KC request lengths must be integers",
    "convert lc-to-roc --stream dyadics:1/2^1,x --rate shift:2 --stages 5 --nmax 1":
        "not a dyadic literal: 'x' (want 'num' or 'num/2^exp')",
    "omega-s ref --s 1 --budget-l 12": "s must lie strictly between 0 and 1",
    "dim {profile} --n0 2 --n1 1": "window must satisfy 1 <= n0 <= n1",
    # a dyadic in a message reads num/2^exp
    "convert roc-to-skt --name ap:0,1 --rate shift:2 --stages 5":
        "partial sum of 0k+1 exceeds 1 at stage 2: 3/2^1",
    # the first sum past 1 is named, however long the name read
    "convert roc-to-skt --name ap:2,0 --rate shift:2 --stages 20000":
        "partial sum of 2k+0 exceeds 1 at stage 1: 5/2^2",
    # a sum whose numerator is past the 4,300-digit limit is named by its bits
    "convert roc-to-skt --name ap:20000,0 --rate shift:2 --stages 5":
        "partial sum of 20000k+0 exceeds 1 at stage 1: (a 20001-bit numerator)/2^20000",
    "construct regular --component elements:0:4 --component elements:0:4"
    " --component elements:0:4":
        "stream x(elements:0:4)+x(elements:0:4)+x(elements:0:4) left [0,1] at 1: 3/2^1",
    # the five build-size guards: --force lifts the census, cut-walk and
    # listing guards, and nothing lifts the level and codeword guards
    "omega ref --budget-l 2100": "the census at L=2100 would walk up to 4410000 header"
        " classes, above the 1048576 guard; --force lifts it",
    "machine k ref --target 0101 --budget-l 1048577": "the cut walk at L=1048577 would"
        " walk up to 1048577 header classes per tag, above the 1048576 guard; --force lifts it",
    "machine enumerate ref --budget-l 30": "listing the domain at L=30, t=10000 would hold"
        " 3751937 pairs, above the 1048576 guard; --force lifts it",
    "skt from-rate ref --rate pow2:4 --nmax 5 --force": "a level of 64-bit strings would"
        " hold 2097150 or more, above the 1048576 guard; nothing lifts it",
    "kc alloc {overlong}": "a codeword of 1048577 bits, above the 1048576 guard;"
        " nothing lifts it",
    # an integer input past CPython's default digit limit, named alike on every version
    "kc alloc {long_length}": "{long_length}: an integer of 5000 digits is above the"
        " 4300-digit limit",
    "kc alloc {long_str_length}": "an integer of 5000 digits is above the 4300-digit limit",
    "convert roc-to-skt --name ap:{digits},1 --rate shift:2 --stages 5":
        "an integer of 5000 digits is above the 4300-digit limit",
    "convert lc-to-roc --stream dyadics:{digits} --rate shift:2 --stages 5 --nmax 1":
        "an integer of 5000 digits is above the 4300-digit limit",
    "convert roc-to-skt --name ap:2,1 --rate shift:2 --stages {digits}": "leftreal convert"
        " roc-to-skt: argument --stages: an integer of 5000 digits is above the 4300-digit limit",
}

# inputs that cannot be read, each with the file its error line names
UNREADABLE = {
    "kc alloc {empty}": "empty",
    "kc alloc {not_utf8}": "not_utf8",
    "dim {not_utf8} --n0 1 --n1 2": "not_utf8",
}


@pytest.mark.parametrize(
    "argv",
    [
        "construct join --a elements:0,1:4",
        "immunity hyperimmune --set evens:10 --horizon 10",
        "immunity immune --set evens:10 --horizon 10",
        "machine k ref",
        "omega-s ref --s 1/0",
        "construct join --a evens --b odds:4",
        "skt from-rate ref --rate shift:2 --nmax -1",
        "convert roc-to-skt --name ap:0,1 --rate shift:2 --stages 50",
        "immunity immune --set multiples:0:8 --witness evens:8 --horizon 8",
        "skt validate {requests} --nmax 1",
        "kc alloc {flat}",
        "kc build {flat}",
        "machine validate {bad_table}",
        "machine validate {bad_aux}",
        "machine validate {nonbit_key}",
        "machine validate {missing}",
        "kc build {int_payload}",
        "skt validate {bad_levels} --nmax 1",
        "convert lc-to-roc --stream prefix-sums:01:-1 --rate shift:2 --stages 10 --nmax 2",
        "construct join --a column:-1:5 --b evens:3",
        "construct join --a evens:-3 --b evens:4",
        "construct join --a elements:-1,2:4 --b evens:4",
        # a listed stream that decreases, and one above 1
        "convert lc-to-roc --stream dyadics:1/2^1,1/2^2 --rate shift:2 --stages 10 --nmax 2",
        "convert lc-to-roc --stream dyadics:3/2^1 --rate shift:2 --stages 10 --nmax 2",
        # a horizon or threshold of 0 would refute on no elements at all
        "immunity hyperimmune --set evens:1000 --rate affine:0,0 --horizon 0",
        "immunity cohesive --set evens:100 --witness evens:100 --horizon 0",
        "immunity immune --set evens:100 --witness elements::100 --horizon 100 --threshold 0",
        "immunity bi-immune --set evens:100 --witness evens:100 --witness-complement odds:100"
        " --horizon 0",
        # long options are spelled in full: an abbreviation is refused, not
        # recorded as typed in the manifest
        "machine k ref --target 01 --ou {out}",
        "machine k ref --target 01 --o={out}",
        "machine k ref --targ 01",
        *QUOTED,
        *EXACT,
        *UNREADABLE,
    ],
)
def test_bad_input_exits_one_with_one_error_line(tmp_path, capsys, argv):
    docs = {
        "requests": [[1, "0"]],  # not a family artifact
        "flat": [1, 2],  # requests that are not [length, payload] pairs
        "bad_table": {"kind": "table", "entries": [1]},
        "bad_aux": {"kind": "interpreter", "aux": 5},
        "nonbit_key": {"kind": "table", "entries": [["0x", "1"]]},
        "int_payload": [[5, 7]],  # a payload must be a bit string
        "bad_levels": {"family": {"kind": "strong-kurtz", "levels": 5}},
        "str_length": [["x", "0"]],
        "bool_length": [[1, "1"], [True, "0"]],
        "bad_payload": [[5, 7], [2, "0x"]],
        "overlong": [[1048577, "0"]],
        "short_row": "1,2\n",
        "x_row": "x,2,exact,3,4\n",
        "bogus_row": "1,2,bogus,3,4\n",
        "negative_l_row": "1,2,exact,-3,4\n",
        "negative_t_row": "1,2,exact,3,-4\n",
        "negative_k_row": "1,-2,exact,3,4\n",
        "negative_n_row": "-1,2,exact,3,4\n",
        "no_kind": {"entries": []},
        "turing": {"kind": "turing"},
        "float_length": [[1.5, "01"]],
        "profile": "1,2,exact,3,4\n",  # a valid row: only the window is bad
        "empty": "",
        "long_length": f'[[{"1" * 5000}, "0"]]',
        "long_str_length": [["1" * 5000, "0"]],
    }
    paths = {key: write(tmp_path, key + ".json", doc) for key, doc in docs.items()}
    paths["not_utf8"] = str(tmp_path / "not_utf8.json")
    Path(paths["not_utf8"]).write_bytes(b"\xff")  # no UTF-8 text starts with 0xff
    out, missing = tmp_path / "out.json", tmp_path / "missing.json"
    code = main(argv.format(**paths, out=out, missing=missing, digits="1" * 5000).split())
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    if argv in QUOTED:
        assert repr(QUOTED[argv]) in err
    if argv in EXACT:
        assert err == f"error: {EXACT[argv].format(**paths)}\n"
    if argv in UNREADABLE:
        assert err.startswith(f"error: {paths[UNREADABLE[argv]]}: ")


@pytest.mark.parametrize(
    "name, rate",
    [
        ("ap:1", "shift:2"),
        ("ap:2,1", "affine:1"),
        ("ap:2,1", "values:3,x"),
        ("ap:2,1", "shift:2>>x"),
        ("ap:2,1", "shift:2>>-1"),
        ("ap:x,1", "shift:2"),
        ("blocks:x:dyadics:0", "shift:2"),
    ],
)
def test_malformed_spec_error_quotes_the_spec(capsys, name, rate):
    code = main(["convert", "roc-to-skt", "--name", name, "--rate", rate, "--stages", "9"])
    err = capsys.readouterr().err
    bad = name if rate == "shift:2" else rate
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"error: spec {bad!r} ")


def test_digit_limit_counts_digits_alone():
    # a sign and spaces do not count; the limit is 4300 digits on every version
    assert parse_int(" -" + "9" * 4300) == 1 - 10**4300
    line = "^an integer of 4301 digits is above the 4300-digit limit$"
    with pytest.raises(SpecError, match=line):
        parse_int("+" + "1" * 4301)


def test_kc_alloc_reads_integer_string_lengths(tmp_path, capsys):
    as_ints = write(tmp_path, "ints.json", [[1, "0"], [2, "01"], [2, "10"]])
    as_strs = write(tmp_path, "strs.json", [["1", "0"], [2, "01"], [" 2", "10"]])
    codes = [json.loads(run(capsys, "kc", "alloc", p)[1])["codewords"] for p in (as_ints, as_strs)]
    assert codes[0] == codes[1] == [["0", "0"], ["10", "01"], ["11", "10"]]


def test_kc_alloc_weight_exceeded_exits_two(tmp_path, capsys):
    path = write(tmp_path, "req.json", [[1, "0"], [1, "1"], [1, "0"]])
    code, out = run(capsys, "kc", "alloc", path)
    assert code == 2
    assert json.loads(out)["error"] == "WeightExceeded"


def test_skt_validate_refuted_exits_two(tmp_path, capsys):
    fam = {
        "family": {
            "kind": "strong-kurtz",
            "levels": [["0"], ["00", "111"]],
        }
    }
    path = write(tmp_path, "fam.json", fam)
    code, out = run(capsys, "skt", "validate", path, "--nmax", "1")
    assert code == 2
    assert json.loads(out)["refuted_level"] == 1


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def test_machine_k_and_enumerate(tmp_path, capsys):
    path = write(tmp_path, "m.json", THREE_ENTRY_JSON)
    code, out = run(capsys, "machine", "k", path, "--target", "111")
    assert code == 0
    assert json.loads(out)["complexity"]["value"] == 2
    code, out = run(capsys, "machine", "enumerate", path)
    assert code == 0
    assert json.loads(out)["pairs"] == [["0", "00"], ["10", "01"], ["11", "111"]]


def test_kc_build_then_validate_and_query(tmp_path, capsys):
    req = write(tmp_path, "req.json", [[2, "000"], [2, "001"]])
    out_path = str(tmp_path / "machine.json")
    code, _ = run(capsys, "kc", "build", req, "--out", out_path)
    assert code == 0
    built = json.loads(Path(out_path).read_text())
    machine_file = write(tmp_path, "built.json", built["machine"])
    code, out = run(capsys, "machine", "k", machine_file, "--target", "000")
    assert code == 0
    assert json.loads(out)["complexity"]["value"] == 2


def test_skt_from_rate_pipeline(tmp_path, capsys):
    path = write(tmp_path, "m.json", THREE_ENTRY_JSON)
    fam_path = str(tmp_path / "fam.json")
    code, _ = run(
        capsys, "skt", "from-rate", path, "--rate", "shift:2", "--nmax", "3",
        "--out", fam_path,
    )
    assert code == 0
    fam = json.loads(Path(fam_path).read_text())
    assert fam["family"]["levels"][0] == ["00", "01"]
    assert fam["family"]["levels"][1] == ["111"]
    code, _ = run(capsys, "skt", "validate", fam_path, "--nmax", "3")
    assert code == 0
    code, out = run(
        capsys, "skt", "covers", fam_path, "--stream", "periodic:01", "--nmax", "0"
    )
    assert code == 0
    assert json.loads(out)["reports"][0]["witness"] == "01"


def test_skt_validate_and_covers_read_only_the_stage(tmp_path, capsys):
    # at stage 1 level 1 loses "111", which broke its length uniformity,
    # and level 0 loses "01", the prefix that covers the stream
    refuted = write(tmp_path, "refuted.json", {
        "family": {"kind": "strong-kurtz", "levels": [["1"], ["00", "111"]]}
    })
    covering = write(tmp_path, "covering.json", {
        "family": {"kind": "strong-kurtz", "levels": [["00", "01"], ["111"]]}
    })
    for stage, validate_code, covers_code in ([], 2, 0), (["--stage", "1"], 0, 2):
        code, _ = run(capsys, "skt", "validate", refuted, "--nmax", "1", *stage)
        assert code == validate_code
        code, out = run(
            capsys, "skt", "covers", covering, "--stream", "bits:0111", "--nmax", "0",
            *stage,
        )
        assert code == covers_code
        assert json.loads(out)["reports"][0]["covered"] == (not stage)


INTERPRETER_JSON = {"kind": "interpreter", "aux": [THREE_ENTRY_JSON]}


def test_interpreter_machine_document(tmp_path, capsys):
    path = write(tmp_path, "interp.json", INTERPRETER_JSON)
    code, out = run(capsys, "machine", "validate", path)
    assert code == 0 and json.loads(out)["valid"]
    code, out = run(capsys, "machine", "k", path, "--target", "111")
    assert code == 0  # the 3-bit call header of table 1, then its key "11"
    assert json.loads(out)["complexity"]["witness"] == "111" + "11"
    omegas = []
    for machine in (path, "ref"):
        code, out = run(capsys, "omega", machine)
        assert code == 0
        omega = json.loads(out)["omega_lower"]
        omegas.append(Fraction(int(omega["num"]), 2 ** omega["exp"]))
    # the calls add the table's weight (1/2 + 1/4 + 1/4) at 2^-3 each
    assert omegas[0] - omegas[1] == Fraction(1, 8)


def test_machine_json_round_trip_keeps_an_interpreter():
    m = machines.Interpreter(aux=(machines.validate_table([("0", "00"), ("1", "1")]),))
    assert machine_from_json(json.loads(canonical_dumps(machine_to_json(m)))) == m


def test_skt_from_rate_force_reaches_the_raised_length(capsys, monkeypatch):
    # shift:28 needs programs of up to 28 bits; its levels of 1,966 strings
    # are read from the instruction set, so they answer with or without
    # --force, as the explicit length budget does
    argv = ["skt", "from-rate", "ref", "--rate", "shift:28", "--nmax", "1"]
    families = []
    for extra in ([], ["--force"], ["--budget-l", "28", "--force"]):
        code, out = run(capsys, *argv, *extra)
        assert code == 0
        families.append(json.loads(out)["family"])
    assert families[0] == families[1] == families[2]

    # a forced pow2:4 needs a level of 64-bit strings from programs of up to
    # 62 bits: the level guard, which --force does not lift, refuses it
    # before the census runs or a string of more than 20 bits is built
    def refuse(*args):
        raise AssertionError("ran the census past the level guard")

    def small_only(n, real=machines.strings_of_length):
        assert n <= 20, f"built the {n}-bit strings past the level guard"
        return real(n)

    monkeypatch.setattr(randomness, "domain_census", refuse)
    monkeypatch.setattr(machines, "strings_of_length", small_only)
    argv = ["skt", "from-rate", "ref", "--rate", "pow2:4", "--nmax", "5", "--force"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: a level of 64-bit strings would hold 2097150 or more, "
        "above the 1048576 guard; nothing lifts it\n"
    )


def test_machine_k_answers_past_length_40_unforced(capsys):
    argv = ["machine", "k", "ref", "--target", "0101", "--budget-l", "50"]
    code, out = run(capsys, *argv)
    assert code == 0
    k = json.loads(out)["complexity"]
    assert (k["value"], k["status"], k["witness"]) == (10, "exact", "0001010101")


OUT_OF_MEMORY = "error: out of memory; retry with a smaller budget or input\n"


def test_out_of_memory_exits_one_with_one_line(capsys, monkeypatch):
    def exhaust(out, args):
        raise MemoryError

    monkeypatch.setitem(COMMANDS, "machine k", (exhaust, COMMANDS["machine k"][1]))
    code = main(["machine", "k", "ref", "--target", "01"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", OUT_OF_MEMORY)


def test_out_of_memory_in_a_child_exits_one_with_one_line():
    # a forced listing at L = 30 holds 3.75 M pairs, over 1 GB; the child
    # alone gets a 256 MB address-space limit, so it runs out within seconds
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    argv = ["machine", "enumerate", "ref", "--budget-l", "30", "--force"]
    done = subprocess.run(
        [sys.executable, "-B", "-c", "import sys; from leftreal.cli import main; sys.exit(main())",
         *argv],
        env={"PYTHONPATH": str(Path(leftreal.__file__).resolve().parents[1])},
        preexec_fn=limit, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", OUT_OF_MEMORY)


def test_profile_past_the_census_guard_runs_unforced(capsys):
    # a query walks about L header classes per tag, so only L guards it;
    # ``omega ref --budget-l 2100`` still needs --force for the census
    argv = ["profile", "--stream", "periodic:01", "--nmax", "2048", "--budget-l", "2100"]
    code, out = run(capsys, *argv)
    assert code == 0
    forced_code, forced = run(capsys, *argv, "--force")
    assert forced_code == 0
    rows = out.splitlines()[1:]  # below the manifest, which records the argv
    assert len(rows) == 2050 and rows == forced.splitlines()[1:]


@pytest.mark.parametrize(
    "argv",
    [
        "omega ref",
        "omega-s ref --s 2/3",
        "machine k ref --target 01",
        "machine k ref --target 0101 --budget-l 1025",
    ],
)
def test_forced_length_budgets_past_130_answer(capsys, argv):
    # a repeat class at L = 140 holds more counts than ``len`` can report
    argv = argv.split()
    if "--budget-l" not in argv:
        argv += ["--budget-l", "140"]
    code, out = run(capsys, *argv, "--force")
    assert code == 0
    budget = int(argv[argv.index("--budget-l") + 1])
    assert json.loads(out)["manifest"]["budgets"]["L"] == budget


def test_convert_roc_to_skt_shortcut(capsys):
    code, out = run(
        capsys, "convert", "roc-to-skt", "--name", "list:2,3", "--rate", "shift:2",
        "--stages", "50",
    )
    assert code == 0
    assert json.loads(out)["dyadic_shortcut"]


@pytest.mark.parametrize(
    "argv, sha",
    [
        (
            "--name ap:2,1 --rate shift:2 --stages 300 --nmax 3",
            "747b7527aa620b9ce8da0388a9de58313ecedb2a295eb83e4527a61b6e92ed14",
        ),
        (
            "--name ap:3,1 --rate affine:2,4 --stages 120 --nmax 2",
            "2d9a7e52e43068b889f1224f5adec57ac73910584e9d1d0c5c588b39419ce763",
        ),
        (  # pointer indices come due again: 98 distinct indices over 200 stages
            "--name ap:1,2 --rate shift:3 --stages 200 --nmax 3",
            "a0e074caf7d7defa60ae01f7e01d0658adb95f96d9421493c151469c9e3a4a7a",
        ),
        (
            "--name ap:1,3 --rate affine:2,4 --stages 600 --nmax 8",
            "b995139412dfb632ff98fa63ea70832b8d014e50570c1db16aa0ce397f9ffb75",
        ),
        (
            "--name ap:3,1 --rate shift:2 --stages 440 --nmax 6",
            "5b3deb89da7bd528479a254b6e146a7af3aa336d61be358461c5c401c6bfcde8",
        ),
        # rates read through the default iterator over ``at``; 8 indices
        # over 300 stages under pow2, 148 under values
        (
            "--name ap:2,1 --rate pow2:1 --stages 300 --nmax 3",
            "431514eec11bbaf3b0ccc714fe2bed783c1f7a9d4124eebaa6e190963aa5fd4b",
        ),
        pytest.param(
            "--name ap:1,2 --rate values:"
            + ",".join(str(n + 3) for n in range(400))
            + " --stages 300 --nmax 3",
            "8f739f44352c5816fa75d8380d824b4146800c5f5052247749ae64bbc10a373f",
            id="--name ap:1,2 --rate values:3..402 --stages 300 --nmax 3",
        ),
        (
            "--name ap:2,1 --rate gap:0>>1 --stages 300 --nmax 3",
            "8ee44eca9b236696e2b2add8c86acd0e4f9dfdde64a30530be4e432bfb135b4a",
        ),
        (
            "--name ap:3,1 --rate shift:1>>1 --stages 300 --nmax 3",
            "6bf978d04d64400b9f2fcfca55c5a44f6f5c7071880315655ea2adfcf1898782",
        ),
        # names whose exponents strictly increase, under an affine rate
        # that reuses indices at most stages and a shift rate that reuses
        # almost none; recorded on the suffix-sum loop
        (  # 226 of 300 stages reuse an index
            "--name ap:1,1 --rate affine:3,2 --stages 300 --nmax 3",
            "5a90279b5239c870c19cda08c180e636679dd6bb7f78a3c9568d0bd29a8a91da",
        ),
        (  # 152 of 300
            "--name ap:1,1 --rate shift:2 --stages 300 --nmax 3",
            "5fca273f6f2d21aafe738f21806ca9a779b276ad208e38a80093e670b71be089",
        ),
        (  # 201 of 400
            "--name ap:2,2 --rate affine:3,3 --stages 400 --nmax 3",
            "785c0c9d85143367c828c66cbb581f3054f31b5e62b0694e2f365a255907a80e",
        ),
        (  # 2 of 400
            "--name ap:2,2 --rate shift:3 --stages 400 --nmax 3",
            "361502efb7f0af1012168eb1d89b0aec975c0cdc47413258908977cac458d8ce",
        ),
        (  # 126 of 500
            "--name ap:3,1 --rate affine:3,2 --stages 500 --nmax 3",
            "ebb2f79fc571ab60855537abf4c00fafc882681bcb9ee04c8751285d87a63b5d",
        ),
        (  # 1 of 500
            "--name ap:3,1 --rate shift:2 --stages 500 --nmax 3",
            "92954448aa5696ec721f46cd0c76523da975b890c562ae3f476d9fc942c09bc0",
        ),
    ],
)
def test_convert_roc_to_skt_golden_bytes(capsys, argv, sha):
    code, out = run(capsys, "convert", "roc-to-skt", *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


@pytest.mark.parametrize(
    "argv, code, sha",
    [
        (  # 373 pairs, truncated at lengths 11, 13 and 14
            "machine enumerate ref --budget-l 14 --budget-t 20",
            0,
            "b56b6daa7893722e18cc724b9dab66414337830f14adce69f53b197d53bdf08f",
        ),
        (
            "skt from-rate ref --rate affine:3,8 --nmax 5",
            0,
            "70a410acc4d01c0d399ada4569cd1acb40355b974b787d9d0b09c940e44d63ad",
        ),
        (  # complete: false
            "skt from-rate ref --rate affine:3,8 --nmax 5 --budget-t 40",
            0,
            "0ae1fb9ccabc7481959cb477611fd6341be86c7f9af3a1157e11a4908ca91555",
        ),
        (
            "immunity hyperimmune --set evens:1000 --rate affine:2,0 --horizon 400",
            2,
            "97729414a6a678e90d514d4592bb39833b1a194e80d97dc5279fd1d0dd9a34f5",
        ),
        (
            "immunity hyperimmune --set evens:1000 --rate affine:1,0 --horizon 10",
            0,
            "e4f1d3acbd67bdb0ae91f4250503b3d6f5d28713eb7c3421970440ef0e942015",
        ),
        (  # the README's command
            "convert roc-to-skt --name ap:2,1 --rate shift:2 --stages 2000 --nmax 3",
            0,
            "72615b98572fb1f7a9028683917a6c8d6c9a3080164aae290a95bb729d09c9e9",
        ),
    ],
)
def test_listing_level_immunity_and_readme_golden_bytes(capsys, argv, code, sha):
    got, out = run(capsys, *argv.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_convert_lc_to_roc_pipeline(capsys):
    code, out = run(
        capsys, "convert", "lc-to-roc", "--stream", "prefix-sums:01:2",
        "--rate", "pow2:4", "--stages", "80", "--nmax", "3", "--budget-l", "22",
    )
    assert code == 0
    assert json.loads(out)["s_values"] == [0, 8, 16, 32]
    # asked for more levels than the length budget reaches, the search is
    # exhausted part way, which exits 2
    code, out = run(
        capsys, "convert", "lc-to-roc", "--stream", "prefix-sums:01:2",
        "--rate", "pow2:4", "--budget-l", "22", "--stages", "900", "--nmax", "6",
    )
    assert code == 2
    assert json.loads(out)["exhausted_at"] == 5


def test_convert_lc_to_roc_dyadic_shortcut(capsys):
    code, out = run(
        capsys, "convert", "lc-to-roc", "--stream", "dyadics:1/2^1,3/2^2",
        "--rate", "shift:2", "--stages", "10", "--nmax", "2",
    )
    assert code == 0  # an eventually constant stream reports its shortcut
    assert json.loads(out)["dyadic_shortcut"] and json.loads(out)["s_values"] == []


def test_profile_then_dim(tmp_path, capsys):
    csv_path = str(tmp_path / "prof.csv")
    code, _ = run(
        capsys, "profile", "--stream", "periodic:01", "--nmax", "40",
        "--budget-l", "24", "--out", csv_path,
    )
    assert code == 0
    code, out = run(capsys, "dim", csv_path, "--n0", "24", "--n1", "40")
    assert code == 0
    est = json.loads(out)["dim_estimate"]
    num, den = est["max_ratio"]
    assert num < den  # strictly compressible on the window


def test_omega_commands(tmp_path, capsys):
    path = write(tmp_path, "m.json", THREE_ENTRY_JSON)
    code, out = run(capsys, "omega", path)
    assert code == 0
    assert json.loads(out)["omega_lower"] == {"num": "1", "exp": 0}
    code, out = run(capsys, "omega-s", path, "--s", "1/2", "--precision", "30")
    assert code == 0
    iv = json.loads(out)["interval"]
    assert iv["lo"] == {"num": "3", "exp": 3} and iv["hi"] == {"num": "3", "exp": 3}
    # past the listing guard, the sum is counted from the instruction set
    code, _ = run(capsys, "omega", "ref", "--budget-l", "30")
    assert code == 0


def test_immunity_command_exit_codes(capsys):
    code, out = run(
        capsys, "immunity", "hyperimmune", "--set", "evens:1000",
        "--rate", "affine:2,0", "--horizon", "400",
    )
    assert code == 2  # refuted is the branchable outcome
    assert json.loads(out)["verdict"]["result"] == "refuted-at-horizon"
    code, out = run(
        capsys, "immunity", "cohesive", "--set", "elements:0,2:100",
        "--witness", "evens:100", "--horizon", "100",
    )
    assert code == 0
    assert json.loads(out)["verdict"]["result"] == "consistent-at-horizon"
    code, out = run(
        capsys, "immunity", "hyperimmune", "--set", "evens:1000",
        "--rate", "affine:0,0", "--horizon", "3",
    )
    assert code == 0
    assert json.loads(out)["verdict"]["witness"]["first_failure"] == 1


def test_construct_commands(capsys):
    code, out = run(capsys, "construct", "interleave", "--source", "const:1",
                    "--prefix", "9")
    assert code == 0
    assert json.loads(out)["bits"] == "011011110"
    code, out = run(capsys, "construct", "join", "--a", "elements:0,1:2",
                    "--b", "elements:0,1:2")
    assert code == 0
    assert json.loads(out)["join"]["elements"] == [0, 1, 2, 3]
    code, out = run(capsys, "construct", "regular", "--component", "elements:0:4",
                    "--component", "elements:0:4", "--steps", "2")
    assert code == 0
    vals = json.loads(out)["values"]
    assert vals[-1] == {"num": "1", "exp": 0}
    code, out = run(capsys, "construct", "join", "--a", "squares-1:10", "--b", "evens:4")
    assert code == 0
    assert json.loads(out)["bits"] == "11000110"
    assert json.loads(out)["join"]["elements"] == [0, 1, 5, 6]


def test_machine_registry_env(tmp_path, capsys, monkeypatch):
    registry = tmp_path / "registry"
    registry.mkdir()
    (registry / "three.json").write_text(json.dumps(THREE_ENTRY_JSON))
    monkeypatch.setenv("LEFTREAL_MACHINE_REGISTRY", str(registry))
    code, out = run(capsys, "machine", "k", "id:three", "--target", "00")
    assert code == 0
    assert json.loads(out)["complexity"]["value"] == 1
    monkeypatch.delenv("LEFTREAL_MACHINE_REGISTRY")
    assert main(["machine", "k", "id:x", "--target", "01"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: machine id given but LEFTREAL_MACHINE_REGISTRY is not set\n",
    )


@pytest.mark.parametrize("form", ["validate-aux", "k-id"])
@pytest.mark.parametrize("where", ["parent", "absolute", "dot"])
def test_registry_id_names_a_file_in_the_registry(tmp_path, capsys, monkeypatch, form, where):
    registry, other = tmp_path / "registry", tmp_path / "other"
    registry.mkdir()
    other.mkdir()
    (other / "x.json").write_text(json.dumps(THREE_ENTRY_JSON))
    monkeypatch.setenv("LEFTREAL_MACHINE_REGISTRY", str(registry))
    machine_id = {"parent": "../other/x", "absolute": str(other / "x"), "dot": "."}[where]
    if form == "validate-aux":
        doc = write(tmp_path, "outer.json", {"kind": "interpreter", "aux": [machine_id]})
        argv = ["machine", "validate", doc]
    else:
        argv = ["machine", "k", f"id:{machine_id}", "--target", "00"]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "",
        f"error: machine id {machine_id!r} is not a file name in LEFTREAL_MACHINE_REGISTRY\n",
    )


@pytest.mark.parametrize(
    "docs",
    [
        {"loop": {"kind": "interpreter", "aux": ["loop"]}},
        {"a": {"kind": "interpreter", "aux": ["b"]}, "b": {"kind": "interpreter", "aux": ["a"]}},
    ],
    ids=["self", "pair"],
)
def test_registry_cycle_exits_one(tmp_path, capsys, monkeypatch, docs):
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    monkeypatch.setenv("LEFTREAL_MACHINE_REGISTRY", str(tmp_path))
    first = next(iter(docs))
    assert main(["machine", "k", f"id:{first}", "--target", "01"]) == 1
    err = capsys.readouterr().err
    assert err == "error: interpreter auxiliaries must be table machines\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (["kc", "alloc"], "[" * 100_000 + "]" * 100_000),
        (["machine", "validate"], '{"kind": "table", "entries": ' + "[" * 5000 + "]" * 5000 + "}"),
    ],
    ids=["kc-alloc", "machine-validate"],
)
def test_deeply_nested_json_exits_one(tmp_path, capsys, argv, text):
    path = write(tmp_path, "deep.json", text)
    assert main([*argv, path]) == 1
    assert capsys.readouterr().err == f"error: {path} nests its JSON too deeply to read\n"


# strings that hold brackets, quotes and escapes, and characters whose
# UTF-16 code units hold the bytes of '"' and '['
JSON_NOISE = st.text(alphabet='[]{}"\\ab\u00e9\u225b\u5b22', max_size=6)


@settings(max_examples=200, deadline=None)
@given(
    depth=st.one_of(
        st.integers(0, 6), st.integers(cli.MAX_JSON_DEPTH - 3, cli.MAX_JSON_DEPTH + 3)
    ),
    arrays=st.lists(st.booleans(), min_size=1, max_size=5),
    noise=st.lists(JSON_NOISE, min_size=1, max_size=8),
    encoding=st.sampled_from(["utf-8", "utf-8-sig", "utf-16", "utf-32"]),
    ensure_ascii=st.booleans(),
)
def test_nesting_limit_counts_only_brackets_outside_strings(
    depth, arrays, noise, encoding, ensure_ascii
):
    def string(i):
        return json.dumps(noise[i % len(noise)], ensure_ascii=ensure_ascii)

    # the text is built level by level, as json.dumps itself recurses per
    # level; the innermost value is a string of 1,200 brackets
    heads, tails = [], []
    for level in range(depth):
        if arrays[level % len(arrays)]:
            heads.append(f"[{string(level)}, ")
            tails.append(f", {string(level + 1)}]")
        else:
            heads.append(f"{{{string(level)}: ")
            tails.append("}")
    text = "".join(heads) + json.dumps("[{" * 600) + "".join(reversed(tails))
    data = text.encode(encoding)
    if depth < 10:  # the decoder recurses per level too
        json.loads(data)
    assert cli._nests_too_deep(data) == (depth > cli.MAX_JSON_DEPTH)


def test_block_name_spec(capsys):
    code, out = run(
        capsys, "convert", "roc-to-skt", "--name", "blocks:4:prefix-sums:01:2",
        "--rate", "shift:2", "--stages", "10",
    )
    # a block name materialized over finitely many steps is finite, hence
    # flagged as a dyadic value
    assert code == 0
    assert json.loads(out)["dyadic_shortcut"]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_identical_manifests_give_identical_bytes(tmp_path, capsys):
    req = write(tmp_path, "req.json", [[1, "0"], [2, "01"], [2, "10"]])
    out1, out2, out3 = (str(tmp_path / name) for name in ("a.json", "b.json", "c.json"))
    assert main(["kc", "alloc", req, "--out", out1]) == 0
    assert main(["kc", "alloc", req, "--out", out2]) == 0
    assert main(["kc", "alloc", req, f"--out={out3}"]) == 0
    b1, b2, b3 = (Path(p).read_bytes() for p in (out1, out2, out3))
    assert b1 == b2 == b3
    capsys.readouterr()


def test_out_replaces_an_existing_file_atomically(tmp_path, capsys):
    req = write(tmp_path, "req.json", [[1, "0"], [2, "01"], [2, "10"]])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "a.json"
    target.write_text("old artifact, longer than the new one " * 100)
    assert main(["kc", "alloc", req, "--out", str(target)]) == 0
    assert main(["kc", "alloc", req]) == 0
    artifact = capsys.readouterr().out
    assert target.read_text() == artifact
    assert [p.name for p in out_dir.iterdir()] == ["a.json"]
    # a failed rename leaves the target as it was and no temporary file
    # beside it; the error names the target, not the temporary file
    assert main(["kc", "alloc", req, "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 21] Is a directory: {str(out_dir)!r}\n"
    assert [p.name for p in out_dir.iterdir()] == ["a.json"]
    assert target.read_text() == artifact
    # so does a temporary file that cannot be made
    no_dir = tmp_path / "no-dir" / "a.json"
    assert main(["kc", "alloc", req, "--out", str(no_dir)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {str(no_dir)!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "req.json"]


def test_profile_golden_bytes(tmp_path, capsys):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    argv = ["profile", "--stream", "periodic:10", "--nmax", "12", "--budget-l", "16"]
    assert main(argv + ["--out", a]) == 0
    assert main(argv + ["--out", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

COUNTS = ["-1", "0", "3", "abc"]
TOKENS = COUNTS + [
    "1/0", "1/2", "01", "evens", "evens:8", "multiples:0:8", "ref",
    "no-such-dir/input.json", "shift:2", "periodic:01", "ap:2,1", "prefix-sums:01:2",
]


@st.composite
def table_argv(draw):
    """A leaf of ``COMMANDS`` with a random subset of its declared args."""
    path = draw(st.sampled_from(sorted(COMMANDS)))
    argv = path.split()
    for name, kw in COMMANDS[path][1]:
        if name in ("--budget-l", "--budget-t"):
            argv += [name, str(draw(st.integers(0, 12)))]
        elif draw(st.integers(0, 3)) == 0:  # keep three args in four
            continue
        elif kw.get("action") == "store_true":
            argv.append(name)
        else:
            pool = COUNTS if kw.get("type") is natural else TOKENS
            argv += [name] * name.startswith("--") + [draw(st.sampled_from(pool))]
    return argv


@settings(max_examples=300, deadline=None)
@given(table_argv())
def test_any_table_argv_exits_0_1_or_2(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


def test_readme_commands_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")  # continuation lines
    lines = [ln for ln in joined.splitlines() if ln.startswith("leftreal ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])

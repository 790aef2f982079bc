"""Smoke test of the benchmark itself: one round of every workload, with
the same checks as a full run, twice, so deterministic counts must repeat.

    python3 -m pytest -q perfbench/test_perfbench.py

It takes about a minute, so it is not part of the repository's tests.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]


def bench(*args):
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--seconds", "0", *args],
                       cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


def test_every_workload_end_to_end():
    r = bench("--workload", "all")
    assert r["correct"] and r["failed"] == 0
    names = [m["name"] for m in SPEC["end_to_end"]]
    for w in SPEC["workloads"]:
        got = {k.split(".", 1)[1]: v for k, v in r["metrics"].items()
               if k.startswith(w["name"] + ".")}
        assert sorted(got) == sorted(names)
        assert all(v["value"] > 0 for v in got.values())
    # the two seed defects fail 7 of the 19 commands, exactly as recorded
    assert r["metrics"]["cli-pipeline.ok_ratio"]["value"] == 12 / 19
    for w in ("stage-loop", "k-cold", "k-warm"):
        assert r["metrics"][f"{w}.ok_ratio"]["value"] == 1.0


def test_traced_counts_repeat():
    first = bench("--workload", "stage-loop", "--trace", "1")
    second = bench("--workload", "stage-loop", "--trace", "1")
    assert first["correct"] and second["correct"]
    assert sorted(first["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["cli.failed_commands"]["value"] == 7
    assert first["metrics"]["jsonio.digest_mismatches"]["value"] == 0

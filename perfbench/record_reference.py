"""Record the seed-0 fingerprints every later run of seed 0 must reproduce.

    python3 perfbench/record_reference.py

Run it only when the benchmark's inputs change, never to make a run pass:
the file is the record of the outputs the program gave when it was
written (values, statuses and witnesses, stage traces, CLI exit codes and
artifact digests).
"""

import json

from run import HERE, REFERENCE_SEED, WORKLOADS, spawn


def main():
    ref = {}
    for w in WORKLOADS:
        s = spawn(w, REFERENCE_SEED, 1, False)
        if s["problems"]:
            raise SystemExit(f"{w}: refusing to record failing outputs: {s['problems']}")
        ref[w] = s["round_fp"]
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

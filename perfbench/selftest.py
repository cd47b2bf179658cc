"""Self-test of the benchmark.

    python3 perfbench/selftest.py

For each workload, at seed SEED: the same seed must give identical inputs (two set-ups in
this process and one in a child process), a different seed different inputs,
and every count metric of the traced run must repeat exactly across two
traced runs.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import gen
import layertrace
import run
import workloads

HERE = Path(__file__).resolve().parent
SEED = 7

DIGEST_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import selftest; "
    "print(selftest.input_digest(sys.argv[2], int(sys.argv[3])))"
)


def input_digest(workload, seed):
    mb = run.import_modborder()
    return gen.digest(workloads.WORKLOADS[workload][0](mb, seed)["inputs"])


def child_digest(workload, seed):
    argv = [sys.executable, "-c", DIGEST_CHILD, str(HERE), workload, str(seed)]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def traced_counts(workload, seed):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"FAIL {workload}: traced run reported incorrect results")
    metrics = result["metrics"]
    return {name: metrics[name]["value"] for name in layertrace.COUNT_METRICS}


def main():
    ok = True
    for workload in ("compute", "check", "cli"):
        first = input_digest(workload, SEED)
        again = input_digest(workload, SEED)
        child = child_digest(workload, SEED)
        other = input_digest(workload, SEED + 1)
        same = first == again == child and first != other
        print(f"{'PASS' if same else 'FAIL'} {workload}: inputs for seed {SEED} "
              f"{first} / {again} / child {child}; seed {SEED + 1} {other}")
        ok &= same
        a = traced_counts(workload, SEED)
        b = traced_counts(workload, SEED)
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        print(f"{'PASS' if not diff else 'FAIL'} {workload}: {len(a)} count metrics "
              f"across two traced runs{'' if not diff else f', differing: {diff}'}")
        ok &= not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

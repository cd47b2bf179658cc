"""The benchmark's cli workload, replayed: every case against its golden.

The cases and goldens live in perfbench/ and are read, not copied, so a
change that moves a golden output fails here in a second rather than only
in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

import modborder
import modborder.cli  # noqa: F401  (the workload calls modborder.cli.main)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # perfbench/ is imported read-only: its modules import each other by
    # plain name, and no bytecode is written next to them
    sys.path.insert(0, str(PERFBENCH))
    bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = bytecode
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("seed", [1, 2])
def test_cli_cases_match_their_goldens(workloads, seed):
    state = workloads.prepare_cli(modborder, seed)
    ops = [op for rnd in workloads.build_cli(modborder, state) for op in rnd]
    assert len(ops) == len(state["cases"])
    assert [op.kind for op in ops if not op.check(op.run())] == []

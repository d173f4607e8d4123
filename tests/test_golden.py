"""Every benchmark job's [verdict, |solution|, passes, peak_words] on seed 0
equals perfbench/golden.json, so a change to a metered number fails here
before it fails the benchmark."""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import golden  # noqa: E402
from run import import_program  # noqa: E402

GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["workloads"]


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_golden_rows(workload):
    assert golden.rows_for(import_program(), workload, 0) == GOLDEN[workload]

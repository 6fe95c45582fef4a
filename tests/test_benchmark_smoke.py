"""The cluster benchmark, end to end, at its smallest passing size.

`clusterbench.harness.run` drives each workload through the program and
checks every chunk's matches against its own reference matcher, the object
accounting, candidates, evictions, migrations and the final tiling. Under
seed 1, query-churn evicts nothing below scale 0.15 and drifting-hotspot
completes no migration below 0.4, so those are the scales used.
tweets-static passes at any scale; below 0.05 its stream is at its floor
of two object chunks, and 0.01 keeps 50 standing queries at the same cost.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # clusterbench sits at the repository root

from clusterbench import harness  # noqa: E402
from clusterbench.trace import PER_LAYER  # noqa: E402

SCALE = {"tweets-static": 0.01, "query-churn": 0.15, "drifting-hotspot": 0.4}


def check(result: dict, workload: str) -> None:
    assert result["correct"], (workload, result["detail"]["problems"])
    assert result["failed"] == 0 and result["attempted"] > 0, workload


def test_every_workload_passes_every_check():
    assert set(SCALE) == set(harness.WORKLOADS)
    for workload in harness.WORKLOADS:
        result = harness.run(workload, seed=1, seconds=0, trace=False, scale=SCALE[workload])
        check(result, workload)
        assert [name for name in result["metrics"]] == [name for name, _ in harness.END_TO_END]
    traced = harness.run("query-churn", seed=1, seconds=0, trace=True,
                         scale=SCALE["query-churn"])
    check(traced, "query-churn traced")
    assert [name for name in traced["metrics"]] == [name for name, _ in PER_LAYER]

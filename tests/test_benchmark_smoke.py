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

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # clusterbench sits at the repository root

from clusterbench import harness  # noqa: E402
from clusterbench.trace import PER_LAYER, Tracer  # noqa: E402
from skystream.model import ContinuousQuery, Point, Predicate, Rect, SpatialKeywordObject  # noqa: E402
from skystream.runtime import System, SystemConfig  # noqa: E402

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
    # a change that stops eviction or cleaning fails here, not only in
    # messages_per_event; at this scale no partition runs REFRESH_STEPS
    # cleaning steps, so runtime.msgs.SummaryRefresh reads 0 here, and
    # tests/test_runtime.py::TestRefreshSteps checks the refresh end to end
    for name in ("evaluator.queries_evicted", "evaluator.cleaning_steps"):
        assert traced["metrics"][name]["value"] > 0, name


def test_tracer_reaches_the_gate_and_the_matcher():
    """The spans the per-layer metrics read must see every object they count."""
    s = System(SystemConfig(grid_n=16, grid_m=16, routers=2, evaluators=4, seed=3,
                            stats_cadence=10**9, clean_interval=8))
    rng = random.Random(11)
    words = ["ash", "birch", "cedar", "dune"]
    with Tracer() as tracer:
        for qid in range(20):
            x, y = rng.random() * 0.8, rng.random() * 0.8
            s.ingest_query(ContinuousQuery(qid, Rect(x, y, x + 0.2, y + 0.2),
                                           frozenset(rng.sample(words, 1)),
                                           Predicate.OVERLAPS, 10**9))
        s.drain()
        in_world = 0
        for ts in range(1, 401):
            x, y = rng.random() * 1.1, rng.random()
            in_world += x < 1.0
            s.ingest_object(SpatialKeywordObject(ts, Point(x, y),
                                                 frozenset(rng.sample(words + ["elm"], 1)), ts))
            if ts % 7 == 0:
                s.drain()
        s.drain()
    assert s.counters["out_of_world"] == 400 - in_world > 0
    assert 0 < s.counters["dropped_by_summary"] < in_world
    assert tracer.count["gated"] == in_world
    assert tracer.count["objects"] == s.counters["forwarded_objects"]
    for span in ("route_point", "gate", "process_object", "handle", "tick"):
        assert tracer.total[span] > 0, span

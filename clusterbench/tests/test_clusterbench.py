"""Tests of the cluster benchmark itself: its matcher, its checks, its output.

Run from the repository root:

    python -m pytest -q clusterbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

from oracles import SingleIndexOracle  # noqa: E402
from skystream import runtime  # noqa: E402

from clusterbench import checks, harness  # noqa: E402
from clusterbench.inputs import Inputs, SHAPES, draw_words, generate, to_model  # noqa: E402
from clusterbench.reference import expected_matches  # noqa: E402
from clusterbench.trace import PER_LAYER  # noqa: E402

TINY = 0.05
# the smallest scale at which each workload still evicts or migrates
SMALL = {"tweets-static": TINY, "query-churn": 0.25, "drifting-hotspot": 0.5}


def _oracle_matches(inputs: Inputs) -> list[Counter]:
    standing, stream = to_model(inputs)
    oracle = SingleIndexOracle()
    for q in standing:
        oracle.register(q)
    out = []
    for tag, items in stream:
        got: Counter = Counter()
        if tag == "Q":
            for q in items:
                oracle.register(q)
        else:
            for o in items:
                got.update((qid, oid) for qid, oid, _ in oracle.process(o))
        out.append(got)
    return out


def _edge_case_inputs() -> Inputs:
    """Every predicate, expiries inside the stream, and objects on rectangle edges."""
    rng = random.Random(7)
    standing, stream, qid, oid = [], [], 0, 0
    for predicate in ("INSIDE", "OVERLAPS", "CONTAINS"):
        for _ in range(40):
            x, y, side = rng.random(), rng.random(), rng.uniform(0.05, 0.3)
            words = frozenset() if predicate == "INSIDE" else draw_words(rng, rng.randint(1, 3))
            expiry = rng.choice((2**31, rng.randint(0, 400)))
            standing.append((qid, x, y, x + side, y + side, words, predicate, expiry))
            qid += 1
    for chunk in range(4):
        objects = []
        for _ in range(100):
            q = rng.choice(standing)
            # a third of the objects sit exactly on a query's min or max corner
            x, y = {0: (rng.random(), rng.random()), 1: (q[1], q[2]),
                    2: (min(q[3], 0.999), min(q[4], 0.999))}[oid % 3]
            words = q[5] | draw_words(rng, 2) if rng.random() < 0.5 else draw_words(rng, 3)
            objects.append((oid, x, y, words, oid))
            oid += 1
        stream.append(("D", objects))
        churn = []
        for _ in range(10):
            x, y = rng.random(), rng.random()
            churn.append((qid, x, y, x + 0.2, y + 0.2, draw_words(rng, 1),
                          rng.choice(("OVERLAPS", "CONTAINS")), oid + rng.randint(0, 150)))
            qid += 1
        stream.append(("Q", churn))
    return Inputs(SHAPES["query-churn"], standing, stream)


def test_reference_matcher_agrees_with_single_index_oracle():
    cases = [_edge_case_inputs()] + [generate(w, 5, 0, 0.2) for w in harness.WORKLOADS]
    for inputs in cases:
        want = _oracle_matches(inputs)
        got = expected_matches(inputs.standing, inputs.stream)
        assert got == want
        assert sum(sum(c.values()) for c in got) > 0


def test_inputs_repeat_under_a_seed_and_change_with_it():
    a, b, c, d = (generate("query-churn", s, part, TINY) for s, part in ((1, 0), (1, 0), (2, 0), (1, 1)))
    assert a.standing == b.standing and a.stream == b.stream
    assert a.standing != c.standing and a.standing != d.standing


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_each_workload_runs_and_checks_at_small_size(workload):
    result = harness.run(workload, seed=3, seconds=0, trace=False, scale=SMALL[workload])
    assert result["correct"], result["detail"]["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert [k for k in result["metrics"]] == [name for name, _ in harness.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = harness.run(workload, seed=3, seconds=0, trace=True, scale=SMALL[workload])
    assert result["correct"], result["detail"]["problems"]
    assert [k for k in result["metrics"]] == [name for name, _ in PER_LAYER]
    # the tracer puts the program back as it found it
    assert runtime.System.tick.__qualname__ == "System.tick"


def _corrupting_emit(mode: str):
    emit = runtime.System.emit
    done = []

    def corrupt(self, out):
        if out and not done:
            done.append(True)
            out = out[1:] if mode == "drop" else out + out[:1]
        emit(self, out)

    return corrupt


@pytest.mark.parametrize("mode", ["drop", "duplicate"])
def test_one_corrupted_match_fails_the_run(monkeypatch, mode):
    monkeypatch.setattr(runtime.System, "emit", _corrupting_emit(mode))
    result = harness.run("tweets-static", seed=3, seconds=0, trace=False, scale=TINY)
    assert not result["correct"]
    assert any("chunk" in p for p in result["detail"]["problems"])


def test_match_check():
    want = Counter({(1, 10): 1, (2, 10): 1})
    assert checks.check_chunk_matches(0, want, [(2, 10), (1, 10)]) == []
    assert checks.check_chunk_matches(0, want, [(1, 10)])
    assert checks.check_chunk_matches(0, want, [(1, 10), (2, 10), (2, 10)])


def test_accounting_and_candidate_checks():
    c = Counter(forwarded_objects=7, dropped_by_summary=2, out_of_world=1)
    assert checks.check_object_accounting(c, 10) == []
    assert checks.check_object_accounting(c, 11)
    assert checks.check_candidates(5, 5) == []
    assert checks.check_candidates(4, 5)


def test_eviction_check():
    expiry = {1: 10, 2: 2**31, 3: 50}
    assert checks.check_evictions(expiry, {2, 3}, watermark=20, expect_some=True) == []
    assert checks.check_evictions(expiry, {1, 2, 3}, watermark=20, expect_some=True)
    assert checks.check_evictions(expiry, {1, 2, 3}, watermark=20, expect_some=False) == []
    assert checks.check_evictions(expiry, {1, 2}, watermark=20, expect_some=True)


def test_tiling_and_view_checks():
    pm = {0: (0, 0, 3, 1), 1: (0, 2, 1, 3), 2: (2, 2, 3, 3)}
    assert checks.check_tiling(pm, 4, 4) == []
    assert checks.check_tiling({**pm, 2: (2, 2, 2, 3)}, 4, 4)  # a gap
    assert checks.check_tiling({**pm, 1: (0, 1, 1, 3)}, 4, 4)  # an overlap
    assert checks.check_tiling({**pm, 2: (2, 2, 4, 3)}, 4, 4)  # off the grid
    bounds = {0: pm[0], 1: pm[1], 2: pm[2], 3: None}
    assert checks.check_partition_views(pm, [dict(pm)], bounds) == []
    assert checks.check_partition_views(pm, [{**pm, 2: (2, 2, 2, 3)}], bounds)
    assert checks.check_partition_views(pm, [dict(pm)], {**bounds, 3: (0, 0, 0, 0)})
    assert checks.check_migrations(1) == [] and checks.check_migrations(0)
    assert checks.check_repeats({"a": 1}, {"a": 1}, 2) == []
    assert checks.check_repeats({"a": 1}, {"a": 2}, 2)


def test_benchmark_json_matches_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "clusterbench", tmp_path / "clusterbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "clusterbench/run.py", "--workload", "tweets-static",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

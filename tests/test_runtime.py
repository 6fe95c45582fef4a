"""End-to-end tests for the message-passing runtime.

The protocol tests drive the system tick by tick through whole rebalance
operations and assert routers, evaluators and the coordinator all land on
the same grid, the same summaries and the same query placement. The
interleaving tests replay one fixed workload under many scheduler seeds
and require the emitted matches to equal a single brute-force index every
time, rebalances and summary refreshes included.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter, deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import SingleIndexOracle, effective_set, random_recursive_partitioning
from test_evaluator import blocks_from_cells
from skystream import agrid as agrid_mod
from skystream.agrid import ANY_KEYWORD, SUMMARY_BLOCK, RoutingUnit, uniform_partitioning
from skystream.balancer import OpKind, RebalanceOp
from skystream.evaluator import CellIndex, EvaluatorState, RegionMismatchError, iter_region
from skystream.model import (
    ContinuousQuery,
    MatchResult,
    Point,
    Predicate,
    Rect,
    SpatialKeywordObject,
)
from skystream.runtime import (
    REFRESH_STEPS,
    MsgKind,
    ProtocolViolation,
    Scheduler,
    System,
    SystemConfig,
    WORKERS,
    format_match,
    format_trace_object,
    format_trace_query,
    parse_trace_line,
)

BIG = 10**9


def cell_pt(i: int, j: int, n: int = 8, m: int = 8) -> Point:
    return Point((i + 0.5) / n, (j + 0.5) / m)


def cells_mbr(x0: int, y0: int, x1: int, y1: int, n: int = 8, m: int = 8) -> Rect:
    # strictly inside the covered cells so the cell range is exact
    ex, ey = 0.25 / n, 0.25 / m
    return Rect(x0 / n + ex, y0 / m + ey, (x1 + 1) / n - ex, (y1 + 1) / m - ey)


def mk_q(qid, crange, kws=(), pred=Predicate.OVERLAPS, expiry=BIG, n=8, m=8):
    return ContinuousQuery(qid, cells_mbr(*crange, n=n, m=m), frozenset(kws), pred, expiry)


def mk_o(oid, cell, kws, ts, n=8, m=8):
    return SpatialKeywordObject(oid, cell_pt(*cell, n=n, m=m), frozenset(kws), ts)


def drain_until(sys_, cond, max_ticks=200_000):
    for _ in range(max_ticks):
        if cond():
            return
        if not sys_.tick():
            break
    assert cond(), "condition never reached before the system went idle"


def sorted_results(sys_):
    return sorted(map(tuple, sys_.results))


# ---------------------------------------------------------------------------
# scheduler


class TestScheduler:
    def test_round_robin_is_fair_and_fifo(self):
        channels = {
            ("a", "x"): deque([1, 2]),
            ("b", "x"): deque([3, 4]),
            ("c", "x"): deque([5, 6]),
        }
        sched = Scheduler(0, "round_robin")
        for key in channels:
            sched.enqueue(key)
        order = []
        for _ in range(6):
            key = sched.pick(channels)
            channels[key].popleft()
            order.append(key[0])
        assert order == ["a", "b", "c", "a", "b", "c"]
        assert sched.pick(channels) is None

    def test_round_robin_skips_stale_keys(self):
        channels = {("a", "x"): deque([1]), ("b", "x"): deque()}
        sched = Scheduler(0, "round_robin")
        sched.enqueue(("b", "x"))
        sched.enqueue(("a", "x"))
        assert sched.pick(channels) == ("a", "x")

    def test_random_weighted_is_deterministic_per_seed(self):
        def run(seed):
            channels = {
                ("a", "x"): deque(range(5)),
                ("b", "x"): deque(range(3)),
                ("c", "x"): deque(range(8)),
            }
            sched = Scheduler(seed, "random_weighted")
            for key in channels:
                sched.enqueue(key)
            picks = []
            while True:
                key = sched.pick(channels)
                if key is None:
                    break
                channels[key].popleft()
                picks.append(key[0])
            return picks

        assert run(3) == run(3)
        assert len(run(3)) == 16
        assert run(3) != run(4) or run(3) != run(5)


# ---------------------------------------------------------------------------
# plain data path, no rebalancing


def small_system(**over):
    cfg = SystemConfig(
        grid_n=8, grid_m=8, routers=2, evaluators=2, seed=1,
        stats_cadence=BIG, clean_interval=BIG,
        **over,
    )
    return System(cfg, pm={0: (0, 0, 3, 7), 1: (4, 0, 7, 7)})


class TestDataPath:
    def test_overlaps_match_end_to_end(self):
        s = small_system()
        s.ingest_query(mk_q(7, (0, 0, 2, 2), ["storm"]))
        s.drain()
        s.ingest_object(mk_o(1, (1, 1), ["storm", "pier"], 5))
        s.drain()
        assert sorted_results(s) == [(7, 1, 5)]
        assert s.counters["forwarded_objects"] == 1
        assert s.counters["dropped_by_summary"] == 0

    def test_contains_requires_all_query_keywords(self):
        s = small_system()
        s.ingest_query(mk_q(7, (0, 0, 2, 2), ["a", "b"], pred=Predicate.CONTAINS))
        s.drain()
        s.ingest_object(mk_o(1, (1, 1), ["a"], 1))
        s.ingest_object(mk_o(2, (1, 1), ["a", "b", "c"], 2))
        s.drain()
        assert sorted_results(s) == [(7, 2, 2)]

    def test_expiry_bounds_liveness(self):
        s = small_system()
        s.ingest_query(mk_q(3, (0, 0, 2, 2), ["w"], expiry=10))
        s.drain()
        s.ingest_object(mk_o(1, (1, 1), ["w"], 10))
        s.ingest_object(mk_o(2, (1, 1), ["w"], 11))
        s.drain()
        assert sorted_results(s) == [(3, 1, 10)]

    def test_unknown_keywords_are_dropped_at_the_router(self):
        s = small_system()
        s.ingest_query(mk_q(7, (0, 0, 2, 2), ["storm"]))
        s.drain()
        before = s.workers["e0"].delivered
        s.ingest_object(mk_o(1, (1, 1), ["zzz"], 5))
        s.drain()
        assert s.counters["dropped_by_summary"] == 1
        assert s.workers["e0"].delivered == before
        assert s.results == []

    def test_inside_query_forces_forwarding_of_everything(self):
        s = small_system()
        s.ingest_query(mk_q(9, (0, 0, 0, 0), [], pred=Predicate.INSIDE))
        s.drain()
        s.ingest_object(mk_o(1, (0, 0), ["anything"], 1))
        s.ingest_object(mk_o(2, (2, 2), ["anything"], 2))  # same pid, off-query
        s.drain()
        assert sorted_results(s) == [(9, 1, 1)]
        assert s.counters["dropped_by_summary"] == 0
        assert s.counters["forwarded_objects"] == 2

    def test_out_of_world_objects_are_counted_not_crashed(self):
        for mode in WORKERS:
            s = small_system(mode=mode)
            # reaches past the square, so only the world test keeps them out
            s.ingest_query(ContinuousQuery(1, Rect(0.4, 0.9, 1.6, 1.6), frozenset(["x"]),
                                           Predicate.OVERLAPS, BIG))
            s.drain()
            s.ingest_object(SpatialKeywordObject(1, Point(0.5, 1.5), frozenset(["x"]), 1))
            s.ingest_object(SpatialKeywordObject(2, Point(1.2, 1.2), frozenset(["x"]), 2))
            s.drain()
            assert s.counters["out_of_world"] == 2, mode
            assert s.results == [], mode
            assert s.watermark() == 2  # retired, nothing stuck in flight

    @pytest.mark.parametrize("mode", sorted(WORKERS))
    def test_out_of_world_queries_are_rejected_at_ingest(self, mode):
        s = small_system(mode=mode)
        for mbr in (Rect(1.5, 1.5, 1.6, 1.6),
                    Rect(-0.5, 0.2, 0.0, 0.4)):  # touches the square along an edge only
            with pytest.raises(ValueError):
                s.ingest_query(ContinuousQuery(1, mbr, frozenset(["x"]),
                                               Predicate.OVERLAPS, BIG))
        assert not any(s.channels.values())
        assert s.drain() == 0
        assert s.counters["out_of_world"] == 0  # that counter counts objects only

    def test_router_picks_follow_the_seeded_choice_sequence(self):
        for seed in (0, 1, 7):
            s = System(SystemConfig(grid_n=8, grid_m=8, routers=2, seed=seed))
            rng = random.Random(seed + 0x5EED)
            want = [f"r{(i + rng.choice((0, 1))) % 2}" for i in range(10_000)]
            assert [s._pick_router() for _ in range(10_000)] == want, seed

    def test_ingest_rejects_time_travel(self):
        s = small_system()
        s.ingest_object(mk_o(1, (0, 0), ["a"], 10))
        with pytest.raises(ValueError):
            s.ingest_object(mk_o(2, (0, 0), ["a"], 9))

    def test_results_span_multiple_partitions(self):
        s = small_system()
        s.ingest_query(mk_q(1, (0, 0, 7, 7), ["k"]))
        s.drain()
        s.ingest_object(mk_o(1, (0, 0), ["k"], 1))
        s.ingest_object(mk_o(2, (7, 7), ["k"], 2))
        s.drain()
        assert sorted_results(s) == [(1, 1, 1), (1, 2, 2)]

    def test_watermark_state_empties_once_drained(self):
        s = small_system()
        s.ingest_query(mk_q(1, (0, 0, 7, 7), ["k"]))
        s.drain()
        for ts in range(1, 61):
            # every fifth object is dropped by the summary gate at its router
            s.ingest_object(mk_o(ts, (ts % 8, ts // 8), ["k" if ts % 5 else "zzz"], ts))
        s.drain()
        assert s.watermark() == 60
        assert s._inflight == {}

    def test_watermark_waits_for_the_last_broadcast_copy(self):
        s = System(SystemConfig(grid_n=8, grid_m=8, routers=1, evaluators=3, seed=1,
                                mode="broadcast", stats_cadence=BIG, clean_interval=BIG))
        s.ingest_object(mk_o(1, (1, 1), ["a"], 7))
        assert s.step_channel("in", "r0")
        s.ingest_object(mk_o(2, (6, 6), ["a"], 9))
        assert s.step_channel("in", "r0")
        # e0 and e1 finish both objects; e2 still holds a copy of each
        for ename in ("e0", "e1"):
            assert s.step_channel("r0", ename)
            assert s.step_channel("r0", ename)
        assert s._inflight == {7: 1, 9: 1}
        assert s.watermark() == 7
        assert s.step_channel("r0", "e2")
        assert s.watermark() == 9
        s.drain()
        assert s._inflight == {}
        assert s.watermark() == 9

    def test_a_straggler_sent_outside_ingest_leaves_no_inflight_state(self):
        s = small_system()
        s.ingest_query(mk_q(1, (0, 0, 7, 7), ["k"]))
        s.drain()
        s.ingest_object(mk_o(1, (1, 1), ["k"], 3))
        # never ingested, so it has no in-flight entry of its own to retire
        s.send("test", "e0", MsgKind.DATA_OBJECT,
               objs=[(mk_o(2, (2, 2), ["k"], 3), (2, 2))])
        s.send("test", "e1", MsgKind.DATA_OBJECT,
               objs=[(mk_o(3, (5, 5), ["k"], 4), (5, 5))])
        s.drain()
        assert sorted_results(s) == [(1, 1, 3), (1, 2, 3), (1, 3, 4)]
        assert s._inflight == {}
        assert s.watermark() == 3


# ---------------------------------------------------------------------------
# edge-shift rebalance, end to end


def shift_fixture(adaptive=True):
    cfg = SystemConfig(
        grid_n=8, grid_m=8, routers=2, evaluators=2, seed=3,
        beta=0.01, stats_cadence=BIG, clean_interval=BIG, adaptive=adaptive,
    )
    s = System(cfg, pm={0: (0, 0, 3, 7), 1: (4, 0, 7, 7)})
    s.ingest_query(mk_q(1, (0, 0, 3, 7), ["alpha"]))
    s.drain()
    oid = 0
    ts = 0
    for col in range(3):
        for k in range(10):
            oid += 1
            ts += 1
            s.ingest_object(mk_o(oid, (col, k % 8), ["alpha"], ts))
    for k in range(30):
        oid += 1
        ts += 1
        s.ingest_object(mk_o(oid, (3, k % 8), ["alpha"], ts))
    s.drain()
    return s


class TestShiftRebalance:
    def test_full_shift_settles_everywhere(self):
        s = shift_fixture()
        assert s.workers["e0"].state.overall_cost == 60
        s.trigger_stats()
        s.drain()

        assert s.counters["rebalance_count"] == 1
        assert s.generation == 1
        assert s.pm == {0: (0, 0, 2, 7), 1: (3, 0, 7, 7)}
        assert s.spare == 2
        for rname in s.router_names:
            unit = s.workers[rname].unit
            assert unit.grid.pm == s.pm
            assert unit.uview == {}
            assert unit.expected_epoch[1] == 1
            assert unit.should_forward_object(frozenset(["alpha"]), 1, (3, 0))
        e0, e1 = s.workers["e0"], s.workers["e1"]
        assert e0.state.bounds == (0, 0, 2, 7)
        assert e1.state.bounds == (3, 0, 7, 7)
        assert e0.state.overall_cost == 30
        assert e1.state.overall_cost == 30
        assert set(e0.state.registry) == {1}
        assert set(e1.state.registry) == {1}
        assert e0.forward_table == [((3, 0, 3, 7), "e1")]
        assert e1.epoch == 1
        assert e0.transient is None
        coord = s.workers["r0"]
        assert coord.op is None and not coord.awaiting

        assert len(s.decisions) == 1
        row = s.decisions[0]
        assert row["opKind"].startswith("shift")
        assert row["pids"] == "0/1"
        assert row["alphaBefore"] == pytest.approx(2.0)
        assert len(s.metrics) == 1
        assert s.metrics[0]["totalCost"] == 60

    def test_matching_is_exact_after_the_shift(self):
        s = shift_fixture()
        s.trigger_stats()
        s.drain()
        n0 = len(s.results)
        s.ingest_object(mk_o(900, (3, 5), ["alpha"], 200))   # moved strip
        s.ingest_object(mk_o(901, (0, 0), ["alpha"], 201))   # kept side
        s.ingest_object(mk_o(902, (7, 7), ["alpha"], 202))   # off-query, pid 1
        s.drain()
        tail = [tuple(r) for r in s.results[n0:]]
        assert sorted(tail) == [(1, 900, 200), (1, 901, 201)]

    def test_static_mode_never_rebalances(self):
        s = shift_fixture(adaptive=False)
        s.trigger_stats()
        s.drain()
        assert s.counters["rebalance_count"] == 0
        assert s.decisions == []
        assert len(s.metrics) == 1
        assert s.pm == {0: (0, 0, 3, 7), 1: (4, 0, 7, 7)}


class TestMidTransferForwarding:
    def test_queries_reach_both_sides_mid_stream(self):
        s = shift_fixture()
        s.trigger_stats()
        e0 = s.workers["e0"]
        drain_until(s, lambda: e0.transient is not None)
        assert [m.kind for m in s.channels[("e0", "e1")]] == [MsgKind.CELL_BATCH]

        # q2 overlaps a cell that already left as a copy: it must be
        # indexed locally and forwarded to the destination right away.
        s.ingest_query(mk_q(2, (3, 0, 3, 0), ["beta"]))
        for r in s.router_names:
            s.step_channel("in", r)
        for r in s.router_names:
            s.step_channel(r, "e0")
        fwd = [m for m in s.channels.get(("e0", "e1"), ())
               if m.kind is MsgKind.FORWARDED_TUPLE]
        assert len(fwd) == 1
        assert fwd[0].payload["query"].qid == 2
        assert 2 in e0.state.registry

        # a stats round completing mid-operation must not start a second op
        s.trigger_stats()
        s.drain()
        assert len(s.decisions) == 1
        assert len(s.metrics) == 2
        assert s.counters["rebalance_count"] == 1

        e1 = s.workers["e1"]
        assert set(e1.state.registry) == {1, 2}
        assert set(e0.state.registry) == {1}
        for rname in s.router_names:
            assert s.workers[rname].unit.should_forward_object(frozenset(["beta"]), 1, (3, 0))

        n0 = len(s.results)
        s.ingest_object(mk_o(910, (3, 0), ["beta"], 300))
        s.ingest_object(mk_o(911, (3, 7), ["beta"], 301))
        s.ingest_object(mk_o(912, (3, 3), ["alpha"], 302))
        s.drain()
        assert sorted(map(tuple, s.results[n0:])) == [(1, 912, 302), (2, 910, 300)]


class TestAbortedRebalance:
    def test_no_improvement_cancels_cleanly(self):
        cfg = SystemConfig(
            grid_n=8, grid_m=8, routers=2, evaluators=2, seed=3,
            beta=0.01, stats_cadence=BIG, clean_interval=BIG, adaptive=True,
        )
        s = System(cfg, pm={0: (0, 0, 3, 7), 1: (4, 0, 7, 7)})
        s.ingest_query(mk_q(1, (0, 0, 3, 7), ["alpha"]))
        s.drain()
        for k in range(60):
            s.ingest_object(mk_o(k + 1, (0, k % 8), ["alpha"], k + 1))
        s.drain()
        s.trigger_stats()
        s.drain()

        # the whole load sits on one column at the far edge: the donor
        # reports no strip that moves cost, so the round starts nothing
        assert s.workers["e0"].state.stats_report(dict(s.pm)).strips == ()
        assert s.decisions == []
        assert len(s.metrics) == 1
        assert s.counters["rebalance_count"] == 0
        assert s.generation == 0
        assert s.pm == {0: (0, 0, 3, 7), 1: (4, 0, 7, 7)}
        assert s.workers["e0"].transient is None
        coord = s.workers["r0"]
        assert coord.op is None and not coord.awaiting
        for rname in s.router_names:
            unit = s.workers[rname].unit
            assert unit.uview == {}
            assert unit.expected_epoch.get(1, 0) == 0

        n0 = len(s.results)
        s.ingest_object(mk_o(500, (0, 0), ["alpha"], 100))
        s.drain()
        assert [tuple(r) for r in s.results[n0:]] == [(1, 500, 100)]


class TestProtocolViolation:
    """Messages no step of the protocol awaits are refused, not dropped."""

    def test_duplicate_pm_ack_after_the_op_raises(self):
        s = shift_fixture()
        s.trigger_stats()
        s.drain()
        assert s.counters["rebalance_count"] == 1
        s.send("r1", "r0", MsgKind.REBALANCE_COMMAND,
               verb="pm_ack", generation=s.generation, router="r1")
        with pytest.raises(ProtocolViolation):
            s.drain()

    def test_extracted_while_no_op_runs_raises(self):
        s = shift_fixture()
        assert s.workers["r0"].op is None
        s.send("e0", "r0", MsgKind.REBALANCE_COMMAND, verb="extracted", op_id=1, tid=0)
        with pytest.raises(ProtocolViolation):
            s.drain()

    def test_stale_flush_refresh_raises_instead_of_acking(self):
        s = shift_fixture()
        s.trigger_stats()
        s.drain()
        assert s.workers["r1"].unit.expected_epoch[1] == 1
        s.send("e1", "r1", MsgKind.SUMMARY_REFRESH, pid=1, blocks={},
               vector={}, epoch=0, flush_of=s.workers["r0"].op_id)
        with pytest.raises(ProtocolViolation):
            s.drain()

    def test_repeated_registration_seq_raises(self):
        s = shift_fixture()
        e0 = s.workers["e0"]
        [(origin, seq)] = [(o, q) for o, q in e0.reg_seen.items() if o[0] == "r"]
        s.send(f"r{origin[1]}", "e0", MsgKind.QUERY,
               query=mk_q(2, (0, 0, 1, 1), ["beta"]), origin=origin, seq=seq)
        with pytest.raises(ProtocolViolation):
            s.drain()

    def test_absorbed_while_no_op_runs_raises(self):
        s = shift_fixture()
        assert s.workers["r0"].op is None
        s.send("e1", "r0", MsgKind.REBALANCE_COMMAND, verb="absorbed", op_id=1, tid=0)
        with pytest.raises(ProtocolViolation):
            s.drain()

    def test_stats_request_under_a_map_the_partition_does_not_hold_raises(self):
        s = shift_fixture()
        s.send("r0", "e0", MsgKind.REBALANCE_COMMAND, verb="report_stats", round=1,
               pm={0: (0, 0, 2, 7), 1: (3, 0, 7, 7)})
        with pytest.raises(ProtocolViolation):
            s.drain()

    def test_second_batch_for_a_held_region_raises(self):
        s = shift_fixture()
        batches = []
        count_sends(s, lambda sender, receiver, kind, payload: batches.append(
            (sender, receiver, payload)) if kind is MsgKind.CELL_BATCH else None)
        s.trigger_stats()
        e1 = s.workers["e1"]
        drain_until(s, lambda: e1.state.bounds == (3, 0, 7, 7))
        [(sender, receiver, payload)] = batches
        s.send(sender, receiver, MsgKind.CELL_BATCH, **payload)
        with pytest.raises(RegionMismatchError):
            s.drain()


class TestBatchCounting:
    def test_a_batch_counts_its_objects_or_its_cell_snapshots(self):
        s = small_system()
        column = [((3, j), CellIndex()) for j in range(5)]
        s.send("e0", "e1", MsgKind.CELL_BATCH, op_id=1, tid=0,
               region=(3, 0, 3, 7), cells=column, records={})
        s.send("e0", "e1", MsgKind.CELL_BATCH, op_id=1, tid=1,
               region=(2, 0, 2, 7), cells=[], records={})
        assert s.peak_channel_depth == 6  # five snapshots, and an empty batch counts 1
        assert s.step_channel("e0", "e1") and s.delivered_total == 5
        assert s.step_channel("e0", "e1") and s.delivered_total == 6
        assert s.workers["e1"].state.bounds == (2, 0, 7, 7)

        o = mk_o(1, (1, 1), ["w"], 1)
        s.send("r0", "e0", MsgKind.DATA_OBJECT, objs=[(o, (1, 1))] * 7)
        assert s.peak_channel_depth == 7
        assert s.step_channel("r0", "e0") and s.delivered_total == 13


class TestBatchAcrossAMigration:
    def test_batch_queued_before_the_shift_is_forwarded_after_it(self):
        s = shift_fixture()
        coord, e0 = s.workers["r0"], s.workers["e0"]
        s.trigger_stats()
        drain_until(s, lambda: coord.op is not None)
        # the op moves column 3 from e0 to e1 (see TestShiftRebalance)
        objs = [mk_o(700 + k, (1 + 2 * (k % 2), k % 8), ["alpha"], 700 + k)
                for k in range(12)]
        for o in objs:
            s.ingest_object(o)
        n0 = len(s.results)
        s.step_channel("in", "r1")  # r1 routes its share under the old map
        held = ("r1", "e0")
        (batch,) = s.channels[held]
        assert batch.kind is MsgKind.DATA_OBJECT and batch.size > 1
        moved = {o.oid for o, cell in batch.payload["objs"] if cell[0] == 3}
        assert moved

        # r1 carries no protocol traffic to e0, so the op completes around
        # the held batch, and e0 extracts column 3 before the batch arrives
        while coord.op is not None:
            s.step_channel(*min(k for k, chan in s.channels.items() if chan and k != held))
        assert e0.state.bounds == (0, 0, 2, 7)
        assert e0.forward_table == [((3, 0, 3, 7), "e1")]
        s.step_channel(*held)
        fwd = [m.payload["obj"].oid for m in s.channels.get(("e0", "e1"), ())
               if m.kind is MsgKind.FORWARDED_TUPLE and m.payload["inner"] == "object"]
        assert sorted(fwd) == sorted(moved)
        s.drain()
        want = expected_matches([mk_q(1, (0, 0, 3, 7), ["alpha"])], objs)
        assert sorted(map(tuple, s.results[n0:])) == want


class TestMixedBatch:
    @pytest.mark.parametrize("mode", ["agrid", "uniform"])
    def test_one_batch_takes_every_object_path(self, mode):
        s = small_system(mode=mode)
        s.ingest_query(mk_q(1, (0, 0, 1, 1), ["k"]))
        s.ingest_query(mk_q(2, (3, 4, 4, 5), ["k"]))  # straddles e0 and e1
        s.drain()
        coord, e0, e1 = s.workers["r0"], s.workers["e0"], s.workers["e1"]
        coord.start_op(RebalanceOp(OpKind.SHIFT_H, 0, 1, cr=1.0, ct=0.0,
                                   region=(3, 0, 3, 7)))
        batch = [
            SpatialKeywordObject(10, Point(1.5, 0.5), frozenset(["k"]), 10),  # out of world
            mk_o(11, (1, 1), ["zzz"], 11),  # the gate drops it; uniform forwards it
            mk_o(12, (0, 0), ["k"], 12),  # matches query 1
            mk_o(13, (2, 2), ["k"], 13),  # passes the gate, but its cell lists nothing
            mk_o(14, (3, 5), ["k"], 14),  # routed to e0, which hands column 3 to e1
        ]
        s._pick_router = lambda: "r1"  # r1 carries no protocol traffic to e0
        for o in batch:
            s.ingest_object(o)
        assert s.step_channel("in", "r1")
        held = ("r1", "e0")
        (msg,) = s.channels[held]
        agrid = mode == "agrid"
        assert [o.oid for o, _ in msg.payload["objs"]] == ([12, 13, 14] if agrid
                                                           else [11, 12, 13, 14])

        while coord.op is not None:
            s.step_channel(*min(k for k, chan in s.channels.items() if chan and k != held))
        assert e0.forward_table == [((3, 0, 3, 7), "e1")]
        clock = e0.delivered
        assert s.step_channel(*held)
        assert e0.delivered - clock == (3 if agrid else 4)  # the objects delivered to e0
        s.drain()

        assert dict(s.counters) == {
            "out_of_world": 1, "forwarded_objects": 3 if agrid else 4, "candidates": 2,
            "rebalance_count": 1, "no_candidate_objects": 1 if agrid else 2,
            **({"dropped_by_summary": 1} if agrid else {}),
        }
        assert (e0.window_cost, e1.window_cost) == (1, 1)
        assert sorted_results(s) == [(1, 12, 12), (2, 14, 14)]
        assert s._inflight == {}
        assert s.watermark() == 14


class TestStatsRounds:
    @staticmethod
    def rounds(s):
        """Per round opened: the map it sent, and each partition's best split."""
        sent_pm: dict[int, object] = {}
        splits: dict[int, dict] = {}

        def on_send(sender, receiver, kind, payload):
            if kind is MsgKind.REBALANCE_COMMAND and payload.get("verb") == "report_stats":
                sent_pm[payload["round"]] = payload["pm"]
            elif kind is MsgKind.STATS_REPORT:
                stats = payload["stats"]
                splits.setdefault(payload["round"], {})[stats.pid] = stats.best_split

        count_sends(s, on_send)
        return sent_pm, splits

    def test_only_a_round_that_can_start_an_op_asks_for_candidates(self):
        s = shift_fixture()
        sent_pm, splits = self.rounds(s)
        coord = s.workers["r0"]
        s.trigger_stats()
        drain_until(s, lambda: coord.op is not None)
        s.trigger_stats()  # opened while the op is in flight
        s.drain()
        assert sent_pm == {1: {0: (0, 0, 3, 7), 1: (4, 0, 7, 7)}, 2: None}
        assert splits[1][0] is not None
        assert set(splits[2].values()) == {None}

    def test_a_static_round_asks_for_none(self):
        s = shift_fixture(adaptive=False)
        sent_pm, splits = self.rounds(s)
        s.trigger_stats()
        s.drain()
        assert sent_pm == {1: None}
        assert set(splits[1].values()) == {None}
        assert len(s.metrics) == 1


class TestRoundAcrossAnOp:
    def test_round_that_spans_an_op_starts_nothing(self):
        cfg = SystemConfig(
            grid_n=8, grid_m=8, routers=2, evaluators=3, seed=3,
            beta=0.01, stats_cadence=BIG, clean_interval=BIG, adaptive=True,
        )
        s = System(cfg, pm={0: (0, 0, 2, 7), 1: (3, 0, 5, 7), 2: (6, 0, 7, 7)})
        s.ingest_query(mk_q(1, (0, 0, 7, 7), ["alpha"]))
        s.drain()
        ts = 0
        for col, n in ((2, 30), (0, 30), (7, 40)):
            for k in range(n):
                ts += 1
                s.ingest_object(mk_o(ts, (col, k % 8), ["alpha"], ts))
        s.drain()
        coord = s.workers["r0"]
        s.trigger_stats()
        drain_until(s, lambda: coord.op is not None)
        assert s.decisions[0]["opKind"] == "shift_h"  # column 2 moves to e1

        # the next round reaches e1 before it absorbs the column and e0
        # before it extracts it; e2 answers only after the op finished
        s.trigger_stats()
        s.step_channel("r0", "e1")
        while s.step_channel("r0", "e0"):
            pass
        while coord.op is not None:
            s.step_channel(*min(k for k, chan in s.channels.items()
                                if chan and k != ("r0", "e2")))
        s.drain()

        # e0 reported column 2 as its own, which it no longer is; the round
        # logs its metrics row but must not act on that report
        assert len(s.metrics) == 2
        assert len(s.decisions) == s.counters["rebalance_count"] == 1
        assert s.pm == {0: (0, 0, 1, 7), 1: (2, 0, 5, 7), 2: (6, 0, 7, 7)}


# ---------------------------------------------------------------------------
# split and merge with the spare evaluator


class TestSplitMerge:
    def build(self):
        cfg = SystemConfig(
            grid_n=8, grid_m=8, routers=2, evaluators=3, seed=5,
            beta=0.01, stats_cadence=BIG, clean_interval=BIG, adaptive=True,
        )
        s = System(cfg, pm={0: (0, 0, 7, 3), 1: (0, 4, 3, 7), 2: (4, 4, 7, 7)})
        s.ingest_query(mk_q(1, (0, 0, 7, 3), ["alpha"]))
        s.ingest_query(mk_q(2, (0, 4, 0, 4), ["beta"]))
        s.ingest_query(mk_q(3, (4, 4, 4, 4), ["gamma"]))
        s.drain()
        ts = 0
        for k in range(40):
            ts += 1
            s.ingest_object(mk_o(k + 1, ((k // 4) % 8, k % 4), ["alpha"], ts))
        for k in range(2):
            ts += 1
            s.ingest_object(mk_o(100 + k, (0, 4), ["beta"], ts))
        ts += 1
        s.ingest_object(mk_o(200, (4, 4), ["gamma"], ts))
        s.drain()
        return s

    def test_split_merge_rotates_the_spare(self):
        s = self.build()
        assert s.spare == 3
        s.trigger_stats()
        s.drain()

        assert s.counters["rebalance_count"] == 1
        assert s.generation == 1
        assert s.pm == {0: (0, 0, 7, 1), 3: (0, 2, 7, 3), 1: (0, 4, 7, 7)}
        assert s.spare == 2
        assert len(s.decisions) == 1
        assert s.decisions[0]["opKind"] == "split_merge"
        assert s.decisions[0]["pids"] == "0/3/1/2"

        e0, e1, e2, e3 = (s.workers[f"e{i}"] for i in range(4))
        assert e0.state.bounds == (0, 0, 7, 1)
        assert e3.state.bounds == (0, 2, 7, 3)
        assert e1.state.bounds == (0, 4, 7, 7)
        assert e2.state.bounds is None
        assert e0.state.overall_cost == 20
        assert e3.state.overall_cost == 20
        assert e1.state.overall_cost == 3
        assert e2.state.overall_cost == 0
        assert set(e0.state.registry) == {1}
        assert set(e3.state.registry) == {1}
        assert set(e1.state.registry) == {2, 3}
        assert e2.state.registry == {}
        assert e0.forward_table == [((0, 2, 7, 3), "e3")]
        assert e2.forward_table == [((4, 4, 7, 7), "e1")]
        assert e3.epoch == 1 and e1.epoch == 1

        for rname in s.router_names:
            unit = s.workers[rname].unit
            assert unit.grid.pm == s.pm
            assert unit.uview == {}
            assert unit.expected_epoch[3] == 1
            assert unit.expected_epoch[1] == 1
            # the retired partition's summary state is gone for good
            assert 2 not in unit.base
            assert 2 not in unit.pending
            assert 2 not in unit.pending_kw
            assert unit.should_forward_object(frozenset(["alpha"]), 3, (0, 2))
            assert unit.should_forward_object(frozenset(["beta"]), 1, (0, 4))
            assert unit.should_forward_object(frozenset(["gamma"]), 1, (4, 4))

    def test_matching_is_exact_after_split_merge(self):
        s = self.build()
        s.trigger_stats()
        s.drain()
        n0 = len(s.results)
        s.ingest_object(mk_o(901, (0, 0), ["alpha"], 500))
        s.ingest_object(mk_o(902, (0, 3), ["alpha"], 501))
        s.ingest_object(mk_o(903, (0, 4), ["beta"], 502))
        s.ingest_object(mk_o(904, (4, 4), ["gamma"], 503))
        s.drain()
        assert sorted(map(tuple, s.results[n0:])) == [
            (1, 901, 500), (1, 902, 501), (2, 903, 502), (3, 904, 503)]


# ---------------------------------------------------------------------------
# forwarding chains stay finite across repeated migrations


class TestForwardingChains:
    def build_ping_pong(self):
        s = shift_fixture()
        s.trigger_stats()
        s.drain()
        assert s.pm == {0: (0, 0, 2, 7), 1: (3, 0, 7, 7)}
        # load the other side so the same strip shifts straight back
        s.ingest_query(mk_q(5, (4, 0, 7, 7), ["omega"]))
        s.drain()
        ts, oid = 500, 2000
        for col in (4, 5):
            for k in range(30):
                oid += 1
                ts += 1
                s.ingest_object(mk_o(oid, (col, k % 8), ["omega"], ts))
        s.drain()
        s.trigger_stats()
        s.drain()
        assert s.counters["rebalance_count"] == 2
        assert s.pm == {0: (0, 0, 3, 7), 1: (4, 0, 7, 7)}
        return s

    def test_stale_objects_reach_the_current_owner(self):
        s = self.build_ping_pong()
        e0, e1 = s.workers["e0"], s.workers["e1"]
        assert e0.forward_table == [((3, 0, 3, 7), "e1")]
        assert e1.forward_table == [((3, 0, 3, 7), "e0")]

        n0 = len(s.results)
        # a straggler addressed to the old owner: e1's newer table entry must
        # route it back to e0, which owns the cell again
        s.send("test", "e1", MsgKind.DATA_OBJECT,
               objs=[(mk_o(950, (3, 5), ["alpha"], 900), (3, 5))])
        s.drain()
        assert sorted(map(tuple, s.results[n0:])) == [(1, 950, 900)]

        # addressed to the current owner: handled locally despite the stale
        # outbound entry still sitting in its table
        n1 = len(s.results)
        s.send("test", "e0", MsgKind.DATA_OBJECT,
               objs=[(mk_o(951, (3, 5), ["alpha"], 901), (3, 5))])
        s.drain()
        assert sorted(map(tuple, s.results[n1:])) == [(1, 951, 901)]

    def test_stale_query_forwards_terminate(self):
        s = self.build_ping_pong()
        q9 = mk_q(9, (3, 6, 3, 6), ["alpha"])
        s.send("test", "e1", MsgKind.FORWARDED_TUPLE, inner="query", query=q9)
        s.drain(max_ticks=10_000)
        assert 9 in s.workers["e0"].state.registry
        assert 9 not in s.workers["e1"].state.registry
        n0 = len(s.results)
        s.ingest_object(mk_o(960, (3, 6), ["alpha"], 1000))
        s.drain()
        assert (9, 960, 1000) in set(map(tuple, s.results[n0:]))


# ---------------------------------------------------------------------------
# query eviction, summary refresh, late drops


class TestCleaningAndRefresh:
    def test_expired_queries_evict_and_summaries_shrink(self):
        cfg = SystemConfig(
            grid_n=8, grid_m=8, routers=2, evaluators=4, seed=2,
            stats_cadence=BIG, clean_interval=4,
        )
        s = System(cfg)
        x0, y0, x1, y1 = s.pm[0]
        filler = mk_q(1, (x0, y0, x1, y1), ["filler"], expiry=BIG)
        zap = mk_q(2, (x0, y0, x0, y0), ["zap"], expiry=10)
        s.ingest_query(filler)
        s.ingest_query(zap)
        s.drain()

        s.ingest_object(mk_o(1, (x0, y0), ["zap"], 5))
        s.drain()
        assert (2, 1, 5) in set(map(tuple, s.results))

        # a steady stream past the expiry runs cleaning steps: the first
        # evicts the dead query, and the 32nd sends a summary without it
        for k in range(150):
            s.ingest_object(mk_o(10 + k, (x0 + k % 2, y0), ["filler"], 20 + k))
        s.drain()
        e0 = s.workers["e0"]
        assert 2 not in e0.state.registry
        assert all("zap" not in kws for kws in e0.state.summary_blocks().values())

        before = s.counters["dropped_by_summary"]
        s.ingest_object(mk_o(999, (x0, y0), ["zap"], 400))
        s.drain()
        assert s.counters["dropped_by_summary"] == before + 1
        assert (2, 999, 400) not in set(map(tuple, s.results))

    def test_a_gate_starved_partition_evicts_at_its_next_step(self):
        cfg = SystemConfig(grid_n=8, grid_m=8, routers=2, evaluators=2, seed=1,
                           stats_cadence=BIG, clean_interval=4)
        s = System(cfg, pm={0: (0, 0, 3, 7), 1: (4, 0, 7, 7)})
        s.ingest_query(mk_q(1, (0, 0, 3, 3), ["zap"], expiry=10))
        s.ingest_query(mk_q(2, (0, 4, 3, 7), ["filler"]))
        s.drain()
        e0 = s.workers["e0"]
        steps = []  # (watermark, query 1 still registered) after each step
        step = e0.state.cleaning_step

        def logged(watermark, refresh):
            out = step(watermark, refresh)
            steps.append((watermark, 1 in e0.state.registry))
            return out

        e0.state.cleaning_step = logged
        rng = random.Random(3)
        for k in range(400):
            if k % 50 == 49:
                o = mk_o(k, (1, 5), ["filler"], 20 + k)
            else:
                o = mk_o(k, (rng.randrange(4), rng.randrange(8)), ["nope"], 20 + k)
            s.ingest_object(o)
            if k % 5 == 0:
                s.drain()
        s.drain()
        # the gate dropped all but one object in fifty, so e0 ran few steps
        assert s.counters["dropped_by_summary"] == 392
        assert steps and steps[0][0] > 10
        assert not any(held for _, held in steps), steps


class TestRefreshSteps:
    """An agrid evaluator refreshes on every REFRESH_STEPS-th cleaning step it runs."""

    @staticmethod
    def periodic_refreshes(s) -> list[tuple[str, str, int]]:
        """Logs (sender, router, cleaning steps the sender had run) for each
        refresh `s` sends from here on that is not a migration's flush."""
        log = []

        def on_send(sender, receiver, kind, payload):
            if kind is MsgKind.SUMMARY_REFRESH and payload["flush_of"] is None:
                log.append((sender, receiver, s.workers[sender].cleaning_steps))

        count_sends(s, on_send)
        return log

    def test_every_32nd_step_sends_each_router_one_refresh(self):
        cfg = SystemConfig(grid_n=8, grid_m=8, routers=2, evaluators=2, seed=4,
                           stats_cadence=BIG, clean_interval=1)
        s = System(cfg, pm={0: (0, 0, 1, 7), 1: (2, 0, 7, 7)})  # 16 and 48 cells
        log = self.periodic_refreshes(s)
        s.ingest_query(mk_q(1, (0, 0, 7, 7), ["tea"]))
        s.drain()
        for k in range(120):  # each round sends one object into each partition
            s.ingest_object(mk_o(2 * k, (k % 2, k % 8), ["tea"], k))
            s.ingest_object(mk_o(2 * k + 1, (2 + k % 6, k % 8), ["tea"], k))
            if k % 10 == 9:
                s.drain()
        s.drain()
        for name in ("e0", "e1"):
            steps = s.workers[name].cleaning_steps
            assert steps > 3 * REFRESH_STEPS
            assert [entry for entry in log if entry[0] == name] == [
                (name, rname, k) for k in range(REFRESH_STEPS, steps + 1, REFRESH_STEPS)
                for rname in s.router_names]

    def test_the_step_count_carries_across_a_migration(self):
        s = shift_fixture()  # two partitions of 32 cells; no delivery cleans
        e0, e1 = s.workers["e0"], s.workers["e1"]
        log = self.periodic_refreshes(s)
        for _ in range(REFRESH_STEPS - 10):
            e0.maybe_clean()
            e1.maybe_clean()
        s.trigger_stats()
        s.drain()
        assert s.counters["rebalance_count"] == 1
        assert (e0.state.bounds, e1.state.bounds) == ((0, 0, 2, 7), (3, 0, 7, 7))
        for _ in range(9):
            e0.maybe_clean()
            e1.maybe_clean()
        assert log == []
        e0.maybe_clean()
        e1.maybe_clean()
        assert log == [(name, rname, REFRESH_STEPS)
                       for name in ("e0", "e1") for rname in s.router_names]

    # `evicted`: per evaluator, the queries its cleaning steps evict, which
    # no refresh timing may move
    @pytest.mark.parametrize("mode, evicted", [
        ("uniform", {0: 51, 1: 65, 2: 66, 3: 43}),
        ("broadcast", {0: 45, 1: 46, 2: 45, 3: 46}),
    ], ids=["uniform", "broadcast"])
    def test_modes_without_summaries_build_none(self, monkeypatch, mode, evicted):
        built = []
        gone: Counter = Counter()  # pid -> queries its cleaning steps evicted
        build, step = EvaluatorState.summary_blocks, EvaluatorState.cleaning_step

        def counted_build(st):
            built.append(st.pid)
            return build(st)

        def counted_step(st, watermark, refresh):
            before = len(st.registry)
            out = step(st, watermark, refresh)
            gone[st.pid] += before - len(st.registry)
            return out

        monkeypatch.setattr(EvaluatorState, "summary_blocks", counted_build)
        monkeypatch.setattr(EvaluatorState, "cleaning_step", counted_step)
        cfg = SystemConfig(grid_n=32, grid_m=32, routers=2, evaluators=4, seed=5,
                           stats_cadence=BIG, clean_interval=8, mode=mode)
        s = System(cfg)
        rng = random.Random(5)
        words = ["ash", "birch", "cedar"]
        for ts in range(3000):
            if ts % 15 == 0:
                x0, y0 = rng.randrange(28), rng.randrange(28)
                s.ingest_query(mk_q(ts // 15, (x0, y0, x0 + 3, y0 + 3), [rng.choice(words)],
                                    expiry=ts + rng.randrange(50, 400), n=32, m=32))
            s.ingest_object(mk_o(ts, (rng.randrange(32), rng.randrange(32)),
                                 [rng.choice(words)], ts, n=32, m=32))
            if ts % 50 == 49:
                s.drain()
        s.drain()
        assert built == []
        assert dict(gone) == evicted


class TestPendingBlockRanges:
    def test_evaluator_origin_entry_opens_only_its_blocks(self):
        cfg = SystemConfig(grid_n=16, grid_m=16, routers=2, evaluators=4, seed=1,
                           stats_cadence=BIG, clean_interval=BIG)
        s = System(cfg)
        assert s.pm[0] == (0, 0, 7, 7)
        e0 = s.workers["e0"]
        q = mk_q(7, (1, 1, 5, 2), ["tea"], n=16, m=16)
        e0.broadcast_own_registration(q, e0.state.geom.cell_range(q.mbr))
        s.drain()
        for rname in s.router_names:
            unit = s.workers[rname].unit
            [pend] = unit.pending[0].values()
            assert (pend.head, list(pend)) == (0, [(frozenset({"tea"}), (0, 0, 1, 0))])
            assert unit.should_forward_object(frozenset({"tea"}), 0, (6, 3))
            assert not unit.should_forward_object(frozenset({"tea"}), 0, (2, 5))
        s.ingest_object(mk_o(1, (2, 5), ["tea"], 1, n=16, m=16))
        s.ingest_object(mk_o(2, (6, 3), ["tea"], 2, n=16, m=16))
        s.drain()
        assert s.counters["dropped_by_summary"] == 1
        assert s.counters["forwarded_objects"] == 1


# ---------------------------------------------------------------------------
# one workload, many interleavings, one answer


WORDS = ["ash", "birch", "cedar", "dune", "elm", "fern",
         "gale", "hail", "iris", "jade", "kelp", "lark"]
OBJECT_WORDS = WORDS + ["quartz", "onyx"]  # never queried


def build_workload(keyword_only=False):
    rng = random.Random(20240801)
    queries, objects = [], []
    for qid in range(1, 121):
        r = rng.random()
        kws = frozenset(rng.sample(WORDS, rng.randint(1, 2)))
        if keyword_only:
            pred = Predicate.OVERLAPS if r < 0.6 else Predicate.CONTAINS
        elif r < 0.15:
            pred = Predicate.INSIDE
            if rng.random() < 0.5:
                kws = frozenset()
        elif r < 0.65:
            pred = Predicate.OVERLAPS
        else:
            pred = Predicate.CONTAINS
        # spatial-only queries stay inside the hot cluster, so partitions
        # away from it keep purely keyword-based summaries
        if pred is Predicate.INSIDE or rng.random() < 0.6:
            cx, cy = rng.gauss(0.25, 0.08), rng.gauss(0.3, 0.08)
        else:
            cx, cy = rng.random(), rng.random()
        w, h = rng.uniform(0.01, 0.12), rng.uniform(0.01, 0.12)
        x0 = min(max(cx - w / 2, 0.0), 0.98)
        y0 = min(max(cy - h / 2, 0.0), 0.98)
        mbr = Rect(x0, y0, min(x0 + w, 0.9995), min(y0 + h, 0.9995))
        queries.append(ContinuousQuery(qid, mbr, kws, pred, rng.randint(150, 600)))
    for i in range(1, 301):
        if rng.random() < 0.6:
            x = min(max(rng.gauss(0.25, 0.1), 0.0), 0.999)
            y = min(max(rng.gauss(0.3, 0.1), 0.0), 0.999)
        else:
            x, y = rng.random(), rng.random()
        kws = frozenset(rng.sample(OBJECT_WORDS, rng.randint(1, 3)))
        objects.append(SpatialKeywordObject(i, Point(x, y), kws, i))
    return queries, objects


def expected_matches(queries, objects):
    oracle = SingleIndexOracle()
    for q in queries:
        oracle.register(q)
    out = []
    for o in objects:
        out.extend(oracle.process(o))
    return sorted(out)


def run_interleaved(queries, objects, seed, policy="random_weighted", **over):
    cfg_kw = dict(
        grid_n=16, grid_m=16, routers=2, evaluators=3, seed=seed,
        policy=policy, beta=0.02, stats_cadence=150, clean_interval=16,
        adaptive=True, mode="agrid",
    )
    cfg_kw.update(over)
    s = System(SystemConfig(**cfg_kw))
    for q in queries:
        s.ingest_query(q)
    s.drain()
    burst = random.Random(9000 + seed)
    for o in objects:
        s.ingest_object(o)
        for _ in range(burst.randint(0, 6)):
            if not s.tick():
                break
    s.drain()
    return s


class TestManyInterleavings:
    def test_every_schedule_gives_the_oracle_answer(self):
        queries, objects = build_workload()
        want = expected_matches(queries, objects)
        assert want, "workload must produce matches"
        drops = 0
        for seed in range(10):
            s = run_interleaved(queries, objects, seed)
            assert sorted_results(s) == want, f"seed {seed} diverged"
            # every object is forwarded exactly once or dropped at the router
            assert (s.counters["forwarded_objects"]
                    + s.counters["dropped_by_summary"] == len(objects))
            assert s.counters["rebalance_count"] >= 1, f"seed {seed} never rebalanced"
            drops += s.counters["dropped_by_summary"]
        for seed in (0, 1):
            s = run_interleaved(queries, objects, seed, policy="round_robin")
            assert sorted_results(s) == want
        assert drops > 0, "no schedule ever exercised a summary drop"

    def test_summaries_never_underreport_at_quiescence(self):
        queries, objects = build_workload()
        s = run_interleaved(queries, objects, 4)
        for pid in s.pm:
            state = s.workers[f"e{pid}"].state
            want = blocks_from_cells(state)
            assert state.summary_blocks() == want
            for rname in s.router_names:
                unit = s.workers[rname].unit
                for block, kws in want.items():
                    have = effective_set(unit, pid, block)
                    assert ANY_KEYWORD in have or kws <= have, (
                        f"router {rname} under-reports pid {pid} block {block}")

    def test_same_seed_is_bit_for_bit_deterministic(self):
        queries, objects = build_workload()

        def snapshot(s):
            return (
                [tuple(r) for r in s.results],
                s.decisions,
                [row["totalCost"] for row in s.metrics],
                dict(s.counters),
                s.pm,
            )

        a = snapshot(run_interleaved(queries, objects, 7))
        b = snapshot(run_interleaved(queries, objects, 7))
        assert a == b


def straddles_blocks(rect) -> bool:
    """Whether a partition's edge cuts through a summary block."""
    x0, y0, x1, y1 = rect
    return any(v % SUMMARY_BLOCK for v in (x0, y0, x1 + 1, y1 + 1))


def test_block_summaries_keep_the_oracle_answer_mid_migration(monkeypatch):
    real = RoutingUnit.should_forward_object
    block_drops = ops = 0

    def counting(unit, o_text, pid, cell):
        nonlocal block_drops
        forward = real(unit, o_text, pid, cell)
        if not forward:
            wide = effective_set(unit, pid)  # what a per-partition set holds
            block_drops += ANY_KEYWORD in wide or bool(o_text & wide)
        return forward

    monkeypatch.setattr(RoutingUnit, "should_forward_object", counting)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def run(data):
        nonlocal ops
        n = data.draw(st.sampled_from([10, 16, 18]), "n")
        m = data.draw(st.sampled_from([12, 16]), "m")
        policy = data.draw(st.sampled_from(["random_weighted", "round_robin"]), "policy")
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), "seed"))
        pm = random_recursive_partitioning(rng, n, m, 3)
        assume(len(pm) == 3 and any(straddles_blocks(r) for r in pm.values()))
        s = System(SystemConfig(grid_n=n, grid_m=m, routers=2, evaluators=3,
                                seed=rng.randrange(1000), policy=policy, beta=0.02,
                                stats_cadence=BIG, clean_interval=8, adaptive=True), pm=pm)
        oracle = SingleIndexOracle()
        preds = [Predicate.INSIDE, Predicate.OVERLAPS, Predicate.CONTAINS]

        def query(qid):
            pred = rng.choice(preds)
            kws = frozenset(rng.sample(WORDS, rng.randint(1, 2)))
            if pred is Predicate.INSIDE and rng.random() < 0.5:
                kws = frozenset()
            x0, y0 = rng.random() * 0.9, rng.random() * 0.9
            mbr = Rect(x0, y0, x0 + rng.uniform(0.02, 0.1), y0 + rng.uniform(0.02, 0.1))
            expiry = BIG if rng.random() < 0.7 else rng.randint(20, 120)
            return ContinuousQuery(qid, mbr, kws, pred, expiry)

        for qid in range(1, 21):
            q = query(qid)
            s.ingest_query(q)
            oracle.register(q)
        s.drain()
        coord = s.workers[s.coordinator]
        expected = []
        qid = 20
        objects = data.draw(st.integers(40, 120), "objects")
        for oid in range(1, objects + 1):
            o = SpatialKeywordObject(oid, Point(rng.random(), rng.random()),
                                     frozenset(rng.sample(OBJECT_WORDS, rng.randint(1, 3))), oid)
            s.ingest_object(o)
            expected.extend(oracle.process(o))
            for _ in range(rng.randint(0, 6)):
                s.tick()
            if oid % 15 in (0, 7):
                # settle, start an op, and leave it in flight
                s.drain()
                s.trigger_stats()
                while coord.op is None and s.tick():
                    pass
                if oid % 15 == 0:  # a registration racing the op
                    qid += 1
                    q = query(qid)
                    s.ingest_query(q)
                    oracle.register(q)
                    s.drain()
        s.drain()
        assert sorted_results(s) == sorted(expected)
        assert s.counters["forwarded_objects"] + s.counters["dropped_by_summary"] == objects
        ops += s.counters["rebalance_count"]

    run()
    assert ops > 0, "no migration ever ran"
    assert block_drops > 0, "no object was dropped that a per-partition set forwards"


# ---------------------------------------------------------------------------
# bounded state over a long adaptive run


def pending_index(unit, pid):
    """A router's pending keyword index for `pid`, rebuilt from its entries:
    keyword -> the set of blocks its entries' ranges cover."""
    want: dict[str, set] = {}
    for pend in unit.pending.get(pid, {}).values():
        for kws, (bx0, by0, bx1, by1) in pend:
            for kw in kws:
                want.setdefault(kw, set()).update(
                    (bx, by) for bx in range(bx0, bx1 + 1) for by in range(by0, by1 + 1))
    return want


def indexed_blocks(unit, pid):
    """The index as `pending_index` shapes it, decoding each range, list or bitmask."""
    width = unit.row_blocks
    out = {}
    for kw, held in unit.pending_kw.get(pid, {}).items():
        if type(held) is int:
            out[kw] = {(bit % width, bit // width) for bit in range(held.bit_length())
                       if held >> bit & 1}
            continue
        out[kw] = set()
        for bx0, by0, bx1, by1 in [held] if type(held) is tuple else held:
            out[kw].update((bx, by) for bx in range(bx0, bx1 + 1) for by in range(by0, by1 + 1))
    return out


def run_soak(clean_interval, after_drain=None, before=None):
    """A seeded adaptive run whose hotspot walks the diagonal, so the
    balancer keeps moving cells; `after_drain(s, phase)` runs after each of
    its eight drains, and `before(s)` once the system is built."""
    cfg = SystemConfig(
        grid_n=16, grid_m=16, routers=2, evaluators=3, seed=11,
        beta=0.02, stats_cadence=150, clean_interval=clean_interval, adaptive=True,
    )
    s = System(cfg)
    if before is not None:
        before(s)
    rng = random.Random(11)
    qid = oid = ts = 0
    for phase in range(8):
        cx = cy = 0.15 + 0.1 * phase
        for _ in range(25):
            qid += 1
            r = rng.random()
            pred = (Predicate.INSIDE if r < 0.1
                    else Predicate.OVERLAPS if r < 0.6 else Predicate.CONTAINS)
            kws = frozenset() if pred is Predicate.INSIDE else frozenset(
                rng.sample(WORDS, rng.randint(1, 2)))
            x0 = min(max(rng.gauss(cx, 0.05), 0.0), 0.95)
            y0 = min(max(rng.gauss(cy, 0.05), 0.0), 0.95)
            mbr = Rect(x0, y0, x0 + rng.uniform(0.01, 0.05), y0 + rng.uniform(0.01, 0.05))
            s.ingest_query(ContinuousQuery(qid, mbr, kws, pred, ts + rng.randint(40, 250)))
        for _ in range(150):
            oid += 1
            ts += 1  # distinct timestamps
            x = min(max(rng.gauss(cx, 0.06), 0.0), 0.999)
            y = min(max(rng.gauss(cy, 0.06), 0.0), 0.999)
            kws = frozenset(rng.sample(OBJECT_WORDS, rng.randint(1, 3)))
            s.ingest_object(SpatialKeywordObject(oid, Point(x, y), kws, ts))
            for _ in range(rng.randint(0, 6)):
                if not s.tick():
                    break
        s.drain()
        if after_drain is not None:
            after_drain(s, phase)
    assert s.counters["forwarded_objects"] + s.counters["dropped_by_summary"] == oid
    return s


def pending_entries(unit, pid):
    return sum(len(p) for p in unit.pending.get(pid, {}).values())


class TestBoundedState:
    def test_soak_keeps_inflight_and_summary_counts_live(self):
        shapes: Counter = Counter()  # index values seen: lone ranges and bitmasks

        def check(s, phase):
            assert s._inflight == {}, f"phase {phase}"
            assert not s._ingested
            for rname in s.router_names:
                unit = s.workers[rname].unit
                for pid in set(unit.pending_kw) | set(unit.pending):
                    assert (indexed_blocks(unit, pid)
                            == pending_index(unit, pid)), (phase, rname, pid)
                    shapes.update(type(held) for held in unit.pending_kw.get(pid, {}).values())

        s = run_soak(clean_interval=4, after_drain=check)
        assert s.counters["rebalance_count"] >= 3
        assert shapes[tuple] and shapes[list] and shapes[int], shapes
        # refreshes did prune: far fewer entries are pending than were registered
        unit = s.workers["r0"].unit
        pending = sum(pending_entries(unit, pid) for pid in unit.pending)
        registered = sum(sum(s.workers[r].unit.reg_seq.values()) for r in s.router_names)
        assert pending < registered // 2

    def test_cleaning_cycles_complete_across_frequent_migrations(self):
        # cleaning is slow here, so partitions migrate more often than
        # REFRESH_STEPS steps run; their steps must still reach a refresh
        cycles: dict[str, int] = {}

        def count_cycles(s):
            for name in s.evaluator_names:
                st = s.workers[name].state
                step = st.cleaning_step

                def counted(watermark, refresh, step=step, name=name):
                    kws = step(watermark, refresh)
                    cycles[name] = cycles.get(name, 0) + (kws is not None)
                    return kws

                st.cleaning_step = counted

        s = run_soak(clean_interval=16, before=count_cycles)
        assert s.counters["rebalance_count"] >= 3
        assert sum(cycles.values()) >= 1, cycles
        # each partition's refreshes pruned the routers' pending entries
        for rname in s.router_names:
            unit = s.workers[rname].unit
            for pid in s.pm:
                sent = sum(s.workers[r].unit.reg_seq.get(pid, 0) for r in s.router_names)
                assert pending_entries(unit, pid) < sent // 2, (rname, pid)


# ---------------------------------------------------------------------------
# cell snapshots and query records during a transfer


def count_sends(s, on_send=None):
    """Count every message `s` sends, by kind; `on_send` sees each one first."""
    sent: Counter = Counter()
    send = s.send

    def counted(sender, receiver, kind, **payload):
        sent[kind.value] += 1
        if on_send is not None:
            on_send(sender, receiver, kind, payload)
        send(sender, receiver, kind, **payload)

    s.send = counted
    return sent


def run_drifting(on_send=None, before=None):
    """A seeded 32x32 adaptive run: all three predicates, and a hotspot
    that moves across the grid in six phases, so the balancer shifts and
    splits partitions while objects and queries keep flowing. Each phase's
    queries settle before its objects arrive. Returns the system, its
    per-kind send counts, and the oracle's matches in that order."""
    cfg = SystemConfig(
        grid_n=32, grid_m=32, routers=2, evaluators=4, seed=17,
        beta=0.02, stats_cadence=300, clean_interval=16, adaptive=True,
    )
    s = System(cfg)
    sent = count_sends(s, on_send)
    if before is not None:
        before(s)
    rng = random.Random(17)
    oracle = SingleIndexOracle()
    expected = []
    qid = oid = ts = 0
    for phase in range(6):
        cx = 0.2 + 0.12 * phase
        cy = 0.8 - 0.12 * phase
        for _ in range(60):
            qid += 1
            r = rng.random()
            pred = (Predicate.INSIDE if r < 0.3
                    else Predicate.OVERLAPS if r < 0.7 else Predicate.CONTAINS)
            kws = frozenset() if pred is Predicate.INSIDE else frozenset(
                rng.sample(WORDS, rng.randint(1, 2)))
            x0 = min(max(rng.gauss(cx, 0.1), 0.0), 0.94)
            y0 = min(max(rng.gauss(cy, 0.1), 0.0), 0.94)
            mbr = Rect(x0, y0, x0 + rng.uniform(0.01, 0.06), y0 + rng.uniform(0.01, 0.06))
            q = ContinuousQuery(qid, mbr, kws, pred, ts + rng.randint(100, 900))
            oracle.register(q)
            s.ingest_query(q)
        s.drain()  # registrations settle before the phase's objects
        for _ in range(400):
            oid += 1
            ts += 1
            x = min(max(rng.gauss(cx, 0.07), 0.0), 0.999)
            y = min(max(rng.gauss(cy, 0.07), 0.0), 0.999)
            kws = frozenset(rng.sample(OBJECT_WORDS, rng.randint(1, 3)))
            o = SpatialKeywordObject(oid, Point(x, y), kws, ts)
            expected.extend(oracle.process(o))
            s.ingest_object(o)
            for _ in range(rng.randint(0, 6)):
                if not s.tick():
                    break
        s.drain()
    return s, sent, sorted(expected)


# What run_drifting produces with one router keyword set per partition,
# each transfer sending its region as one CELL_BATCH, cleaning clocked by
# the objects delivered to a partition, each cleaning step evicting every
# query the watermark has passed, and a summary refresh on every
# REFRESH_STEPS-th step an evaluator runs.
PER_PARTITION_DIGEST = dict(
    delivered_total=7141,
    sent={
        "CellBatch": 19, "DataObject": 4479, "ForwardedTuple": 44,
        "KeywordForward": 389, "PartitionUpdate": 32, "Query": 745,
        "RebalanceCommand": 337, "StatsReport": 115, "SummaryRefresh": 46,
    },
    decisions=[
        (310, "shift_v", "2/0", 36, 2.06, 4.0),
        (610, "split_merge", "2/4/3/1", 39, 2.18, 2.18978102189781),
        (911, "shift_v", "0/2", 41, 0.34, 2.174757281553398),
        (1512, "shift_v", "0/2", 7, 0.78, 3.9411764705882355),
        (2116, "shift_v", "0/2", 107, 0.54, 3.5728155339805827),
        (2713, "split_merge", "0/1/4/2", 21, 4.92, 3.2058823529411766),
        (3012, "shift_corner", "4/1", 48, 0.9400000000000001, 2.918032786885246),
        (3315, "shift_h", "1/3", 216, 1.94, 3.627906976744186),
        (3613, "shift_h", "3/1", 43, 0.6, 3.1242603550295858),
        (3917, "shift_v", "4/0", 101, 0.26, 3.8823529411764706),
        (4511, "shift_h", "3/1", 27, 0.6, 3.7837837837837838),
        (4824, "shift_corner", "1/4", 30, 0.0, 3.324675324675325),
        (5112, "shift_h", "1/0", 127, 0.06, 3.925925925925926),
        (6317, "split_merge", "3/2/1/0", 185, 8.040000000000001, 4.0),
        (6625, "shift_v", "1/4", 262, 0.46, 2.717948717948718),
        (6916, "shift_h", "2/3", 132, 0.72, 4.0),
    ],
    alphas=[
        4.0, 2.18978102189781, 2.174757281553398, 1.894736842105263, 3.9411764705882355,
        3.461139896373057, 3.5728155339805827, 3.076923076923077, 3.2058823529411766,
        2.918032786885246, 3.627906976744186, 3.1242603550295858, 3.8823529411764706,
        3.6626506024096384, 3.7837837837837838, 3.324675324675325, 3.925925925925926,
        4.0, 4.0, 4.0, 4.0, 2.717948717948718, 4.0,
    ],
    counters={
        "candidates": 3027, "dropped_by_summary": 1, "forwarded_objects": 2399,
        "no_candidate_objects": 755, "rebalance_count": 16,
    },
)

# The same run with 4 x 4-cell summary blocks, and pending entries that open
# only the blocks of their query's range: more objects are dropped at the
# routers, which shifts the delivery ticks, and with them the stats rounds'
# windows and the later ops' figures; the matches are the same.
PER_BLOCK_DIGEST = dict(
    delivered_total=6889,
    sent={
        "CellBatch": 17, "DataObject": 4385, "ForwardedTuple": 42,
        "KeywordForward": 387, "PartitionUpdate": 28, "Query": 745,
        "RebalanceCommand": 308, "StatsReport": 110, "SummaryRefresh": 40,
    },
    decisions=[
        (313, "shift_v", "2/0", 37, 2.06, 4.0),
        (610, "split_merge", "2/4/3/1", 39, 2.18, 2.1739130434782608),
        (913, "shift_v", "0/2", 41, 0.34, 2.174757281553398),
        (1513, "shift_v", "0/2", 10, 0.78, 3.9452054794520546),
        (2112, "shift_v", "0/2", 108, 0.54, 3.588235294117647),
        (2711, "split_merge", "0/1/2/4", 27, 5.2, 3.2432432432432434),
        (3009, "shift_corner", "2/1", 47, 0.88, 3.150442477876106),
        (3312, "shift_h", "1/3", 216, 1.94, 3.6491228070175437),
        (3610, "shift_h", "3/1", 50, 0.6, 3.1463414634146343),
        (3911, "shift_v", "2/0", 101, 0.14, 4.0),
        (4511, "shift_h", "3/1", 40, 0.54, 3.789473684210526),
        (4823, "shift_corner", "1/2", 31, 0.0, 3.3684210526315788),
        (6312, "split_merge", "3/4/0/1", 278, 1.3, 4.0),
        (6615, "shift_v", "0/2", 262, 0.22, 4.0),
    ],
    alphas=[
        4.0, 2.1739130434782608, 2.174757281553398, 1.878787878787879,
        3.9452054794520546, 3.443298969072165, 3.588235294117647, 3.0136986301369864,
        3.2432432432432434, 3.150442477876106, 3.6491228070175437, 3.1463414634146343,
        4.0, 3.615819209039548, 3.789473684210526, 3.3684210526315788,
        3.9529411764705884, 4.0, 4.0, 4.0, 4.0, 4.0,
    ],
    counters={
        "candidates": 3020, "dropped_by_summary": 102, "forwarded_objects": 2298,
        "no_candidate_objects": 661, "rebalance_count": 14,
    },
)


class TestAdaptiveRunDigest:
    """Pins the adaptive path's message sequence and results.

    A change that keeps what the adaptive path computes and sends keeps
    every figure. With `SUMMARY_BLOCK` set to the grid's side, one block
    covers the grid and a partition's block set is its whole summary, so
    the run must give exactly what per-partition summaries gave.
    """

    @staticmethod
    def check(want):
        s, sent, expected = run_drifting()
        assert s.delivered_total == want["delivered_total"]
        assert dict(sent) == want["sent"]
        assert [(d["tick"], d["opKind"], d["pids"], d["Cr"], d["Ct"], d["alphaBefore"])
                for d in s.decisions] == want["decisions"]
        assert [row["alpha"] for row in s.metrics] == want["alphas"]
        assert dict(s.counters) == want["counters"]
        lines = sorted(format_match(m) for m in s.results)
        assert len(lines) == 842
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "85b9cc9e6364a6f732672d8a6d8e89d09364ee7c64a4692f3e5a07697c6e1be7"
        assert sorted_results(s) == expected

    def test_counts_decisions_alphas_and_results_are_pinned(self):
        self.check(PER_BLOCK_DIGEST)

    def test_whole_grid_blocks_reproduce_per_partition_summaries(self, monkeypatch):
        monkeypatch.setattr(agrid_mod, "SUMMARY_BLOCK", 32)  # run_drifting's grid side
        self.check(PER_PARTITION_DIGEST)


class TestRecordsTravelOnce:
    def test_each_transfer_sends_its_region_in_one_batch(self):
        started: set[tuple] = set()  # (op_id, tid) of every begin_transfer
        batches: Counter = Counter()  # (op_id, tid) -> CELL_BATCH messages
        box = {}

        def on_send(sender, receiver, kind, payload):
            if kind is MsgKind.REBALANCE_COMMAND and payload["verb"] == "begin_transfer":
                started.add((payload["op_id"], payload["tid"]))
            if kind is not MsgKind.CELL_BATCH:
                return
            batches[payload["op_id"], payload["tid"]] += 1
            cells = box["s"].workers[sender].state.cells  # the source still holds them
            want = [c for c in iter_region(payload["region"])
                    if c in cells and (cells[c].cost or cells[c].qids)]
            assert [c for c, _ in payload["cells"]] == want
            for c, snap in payload["cells"]:
                assert snap is not cells[c]
                assert (snap.cost, snap.qids) == (cells[c].cost, cells[c].qids)
            indexed = set().union(*(snap.qids for _, snap in payload["cells"]))
            assert set(payload["records"]) == indexed

        s, _, expected = run_drifting(on_send, before=lambda s: box.update(s=s))
        assert s.counters["rebalance_count"] >= 3
        assert set(batches) == started
        assert set(batches.values()) == {1}
        assert sorted_results(s) == expected

    def test_query_registering_after_the_batch_matches_at_dst(self):
        s = shift_fixture()
        batches: list[dict] = []
        forwards: list[tuple] = []

        def on_send(sender, receiver, kind, payload):
            if kind is MsgKind.CELL_BATCH:
                batches.append(payload)
            elif kind is MsgKind.FORWARDED_TUPLE and payload["inner"] == "query":
                forwards.append((sender, receiver, payload["query"].qid, payload["cells"]))

        count_sends(s, on_send)
        s.trigger_stats()
        e0, e1 = s.workers["e0"], s.workers["e1"]
        drain_until(s, lambda: e0.transient is not None)
        [batch] = batches
        assert batch["region"] == (3, 0, 3, 7)
        assert set(batch["records"]) == {1}

        # q2 registers at the source over the whole region after the batch
        # left: the source indexes it and forwards it once, for every cell
        s.ingest_query(mk_q(2, (3, 0, 3, 7), ["beta"]))
        for r in s.router_names:
            s.step_channel("in", r)
        for r in s.router_names:
            s.step_channel(r, "e0")
        assert 2 in e0.state.registry
        column = tuple((3, j) for j in range(8))
        assert forwards == [("e0", "e1", 2, column)]
        s.drain()

        assert s.counters["rebalance_count"] == 1
        assert len(batches) == 1 and forwards == [("e0", "e1", 2, column)]
        assert set(e1.state.registry) == {1, 2}
        assert all(e1.state.cells[c].qids == {1, 2} for c in column)
        n0 = len(s.results)
        s.ingest_object(mk_o(920, (3, 0), ["beta"], 400))
        s.ingest_object(mk_o(921, (3, 6), ["beta"], 401))
        s.ingest_object(mk_o(922, (3, 1), ["alpha"], 402))
        s.drain()
        assert sorted(map(tuple, s.results[n0:])) == [
            (1, 922, 402), (2, 920, 400), (2, 921, 401)]


class TestOtherModes:
    def test_uniform_mode_matches_oracle_without_summaries(self):
        queries, objects = build_workload()
        want = expected_matches(queries, objects)
        s = run_interleaved(queries, objects, 3, mode="uniform", adaptive=False,
                            stats_cadence=BIG, clean_interval=BIG)
        assert sorted_results(s) == want
        assert s.counters["dropped_by_summary"] == 0
        assert s.counters["forwarded_objects"] == len(objects)
        assert s.workers["r0"].use_summaries is False

    def test_uniform_routers_keep_no_summary_entries(self):
        # no refresh ever prunes an entry in uniform mode, so none is made
        queries, objects = build_workload()
        s = run_interleaved(queries, objects, 3, mode="uniform", adaptive=False,
                            stats_cadence=BIG, clean_interval=16)
        for rname in s.router_names:
            unit = s.workers[rname].unit
            assert unit.pending == {} and unit.pending_kw == {}

    def test_textual_mode_matches_oracle(self):
        queries, objects = build_workload(keyword_only=True)
        want = expected_matches(queries, objects)
        s = run_interleaved(queries, objects, 3, mode="textual", adaptive=False,
                            stats_cadence=BIG, clean_interval=BIG)
        assert sorted_results(s) == want

    def test_textual_mode_emits_shared_matches_once(self):
        cfg = SystemConfig(grid_n=8, grid_m=8, routers=2, evaluators=3, seed=1,
                           mode="textual", stats_cadence=BIG, clean_interval=BIG)
        s = System(cfg)
        s.ingest_query(ContinuousQuery(
            1, Rect(0.0, 0.0, 1.0, 1.0), frozenset(["a", "b", "c"]),
            Predicate.OVERLAPS, BIG))
        s.drain()
        s.ingest_object(SpatialKeywordObject(
            1, Point(0.5, 0.5), frozenset(["a", "b", "c"]), 4))
        s.drain()
        assert sorted_results(s) == [(1, 1, 4)]

    def test_textual_index_holds_own_keywords_until_eviction(self):
        cfg = SystemConfig(grid_n=8, grid_m=8, routers=1, evaluators=3, seed=1,
                           mode="textual", stats_cadence=BIG, clean_interval=BIG)
        s = System(cfg)
        words = frozenset(["a", "b", "c", "d", "e"])
        for qid, expiry in ((1, 3), (2, BIG)):
            s.ingest_query(ContinuousQuery(qid, Rect(0.0, 0.0, 1.0, 1.0), words,
                                           Predicate.OVERLAPS, expiry))
        s.drain()
        evaluators = [s.workers[name] for name in s.evaluator_names]
        for ev in evaluators:
            own = {kw for kw in words if s.keyword_evaluator(kw) == ev.index}
            assert ev.flat.inverted == {kw: {1, 2} for kw in own}
        s.ingest_object(SpatialKeywordObject(1, Point(0.5, 0.5), frozenset(["a"]), 4))
        s.drain()
        for ev in evaluators:
            ev.maybe_clean()
            own = {kw for kw in words if s.keyword_evaluator(kw) == ev.index}
            assert ev.flat.inverted == {kw: {2} for kw in own}
            assert set(ev.registry) == ({2} if own else set())

    def test_textual_mode_rejects_spatial_only_queries(self):
        cfg = SystemConfig(grid_n=8, grid_m=8, routers=1, evaluators=2, seed=1,
                           mode="textual")
        s = System(cfg)
        with pytest.raises(ValueError):
            s.ingest_query(mk_q(1, (0, 0, 1, 1), [], pred=Predicate.INSIDE))
        with pytest.raises(ValueError):
            s.ingest_query(mk_q(2, (0, 0, 1, 1), []))

    def test_broadcast_mode_matches_oracle_at_full_cost(self):
        queries, objects = build_workload()
        want = expected_matches(queries, objects)
        s = run_interleaved(queries, objects, 3, mode="broadcast", adaptive=False,
                            stats_cadence=BIG, clean_interval=BIG)
        assert sorted_results(s) == want
        assert s.counters["candidates"] == len(queries) * len(objects)
        assert s.counters["forwarded_objects"] == len(objects) * len(s.evaluator_names)


# ---------------------------------------------------------------------------
# trace format


class TestTraceFormat:
    def test_object_round_trip(self):
        o = SpatialKeywordObject(17, Point(0.25, 0.75), frozenset(["storm", "harbor"]), 42)
        tag, parsed = parse_trace_line(format_trace_object(o))
        assert tag == "D" and parsed == o

    def test_query_round_trip(self):
        q = ContinuousQuery(3, Rect(0.0, 0.0, 0.5, 1.0), frozenset(["a", "b"]),
                            Predicate.CONTAINS, 99)
        tag, parsed = parse_trace_line(format_trace_query(q))
        assert tag == "Q" and parsed == q

    def test_empty_keywords_use_a_dash(self):
        q = ContinuousQuery(3, Rect(0.0, 0.0, 0.5, 1.0), frozenset(),
                            Predicate.INSIDE, 99)
        line = format_trace_query(q)
        assert line.endswith(" -")
        tag, parsed = parse_trace_line(line)
        assert parsed.text == frozenset()

    def test_comments_and_blanks_are_skipped(self):
        assert parse_trace_line("# comment") is None
        assert parse_trace_line("   ") is None

    def test_bad_lines_raise(self):
        with pytest.raises(ValueError):
            parse_trace_line("X 1 2 3")
        with pytest.raises(ValueError):
            parse_trace_line("D 1 0.5")
        with pytest.raises(ValueError):
            parse_trace_line("Q 1 0 0 1 1 NEARBY 5 a")

    def test_match_formatting(self):
        assert format_match(MatchResult(1, 2, 3)) == "1 2 3"


# ---------------------------------------------------------------------------
# configuration validation


class TestConfig:
    def test_adaptive_requires_the_full_mode(self):
        with pytest.raises(ValueError):
            SystemConfig(adaptive=True, mode="uniform")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(mode="hub")

    def test_modes_are_the_workers_keys(self):
        for mode in WORKERS:
            assert SystemConfig(mode=mode).mode == mode
        for name in ("Agrid", "broadcast-baseline", "adaptive", ""):
            with pytest.raises(ValueError):
                SystemConfig(mode=name)

    @pytest.mark.parametrize("beta", [-1.0, -1e-9, float("nan"), float("inf")])
    def test_transfer_weight_must_be_a_finite_cost(self, beta):
        with pytest.raises(ValueError):
            SystemConfig(beta=beta)
        assert SystemConfig(beta=0.0).beta == 0.0

    def test_partition_ids_must_fit_evaluators(self):
        cfg = SystemConfig(grid_n=4, grid_m=4, evaluators=2)
        with pytest.raises(ValueError):
            System(cfg, pm={0: (0, 0, 1, 3), 5: (2, 0, 3, 3)})

    @pytest.mark.parametrize("mode", sorted(WORKERS))
    @pytest.mark.parametrize("n, m", [(0, 64), (64, 0), (-1, 8)])
    def test_grid_needs_a_cell_on_each_side(self, mode, n, m):
        with pytest.raises(ValueError):
            SystemConfig(grid_n=n, grid_m=m, mode=mode)

    def test_uniform_tiles_in_one_strip(self):
        s = System(SystemConfig(grid_n=1, grid_m=4, evaluators=4, mode="uniform"))
        assert sorted(s.pm.values()) == [(0, j, 0, j) for j in range(4)]

    @pytest.mark.parametrize("n, m, k", [(2, 2, 8), (3, 3, 7), (1, 4, 5)])
    def test_uniform_tiles_must_fit_the_grid(self, n, m, k):
        with pytest.raises(ValueError, match="cannot carve"):
            uniform_partitioning(n, m, k)
        with pytest.raises(ValueError, match="cannot carve"):
            System(SystemConfig(grid_n=n, grid_m=m, evaluators=k))

    def test_uniform_tiles_down_to_one_cell(self):
        s = System(SystemConfig(grid_n=3, grid_m=3, evaluators=9))
        assert sorted(s.pm.values()) == sorted((i, j, i, j) for i in range(3) for j in range(3))
        assert len(uniform_partitioning(2, 8, 8)) == 8

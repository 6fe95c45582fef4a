"""Acceptance gate: one test per shipped guarantee, numbered 01-11.

Every test prints a single CRITERION line on success (visible with -s),
and a verbose run reads as the checklist. Budgets and tolerances are
pinned as module constants so a slowdown or a loosened bound shows up
as a diff here, not in a helper.
"""

import random
import sys
import time

import pytest

import test_balancer as balancer_tests
from test_evaluator import full_cleaning_cycle, take_region
from oracles import (
    SingleIndexOracle,
    cost_aggregates_from_cells,
    effective_set,
    query_aggregates_from_cells,
    random_recursive_partitioning,
    scan_range_owners,
)
from skystream.agrid import (
    AGrid,
    GridGeometry,
    corner_shift_candidates,
    rect_intersect,
    summary_contribution,
    uniform_partitioning,
)
from skystream.balancer import (
    GranularityModel,
    WorkloadSnapshot,
    advise_granularity,
    routing_load,
    select_rebalance_op,
)
from skystream.evaluator import EvaluatorState, ShiftCandidate, SplitChoice
from skystream.model import ContinuousQuery, Point, Predicate, Rect, SpatialKeywordObject
from skystream import agrid as agrid_mod
from skystream import evaluator as evaluator_mod
from skystream import runtime as runtime_mod
from skystream.runtime import System, SystemConfig
from skystream.workload import (
    WorkloadSpec,
    generate,
    scale_object,
    scale_query,
    square_mbr,
    synthetic_vocab,
)

FOREVER = 2**31

ROUTING_CASES = 200          # random tilings checked against the brute-force scan
RANGES_PER_CASE = 500
ROUTING_BUDGET_S = 30.0

INTERLEAVING_SEEDS = 200     # seeded rebalance interleavings vs the global oracle
INTERLEAVING_BUDGET_S = 120.0

ALPHA_RATIO = 0.6            # adaptive final alpha must be <= this x static
SCALE_FACTORS = (0.4, 0.5, 0.6, 0.7)

CANDIDATE_FACTOR = 10        # routed candidates must beat broadcast by this much
SEPARATION_BUDGET_S = 300.0

# the single-global-index oracle's reference selection logic
reference_selection = balancer_tests.TestSelectionOracle.oracle


def report(num: int, text: str) -> None:
    print(f"CRITERION {num:02d} PASS {text}")


def _clip01(v: float) -> float:
    return min(max(v, 0.0), 0.999)


# -- 1 + 2: routing equivalence and the traversal work bound --------------------------


@pytest.fixture(scope="module")
def routing_sweep():
    """Shared sweep: random tilings x random ranges, owners and pop counts."""
    rng = random.Random(41)
    t0 = time.perf_counter()
    searches = mismatches = violations = 0
    for _ in range(ROUTING_CASES):
        parts = rng.randint(2, 24)
        pm = random_recursive_partitioning(rng, 64, 64, parts)
        grid = AGrid(64, 64, pm)
        for _ in range(RANGES_PER_CASE):
            x0 = rng.randrange(64)
            x1 = rng.randrange(x0, 64)
            y0 = rng.randrange(64)
            y1 = rng.randrange(y0, 64)
            crange = (x0, y0, x1, y1)
            owners, pops = grid.neighbor_search_cells(crange)
            searches += 1
            if set(owners) != scan_range_owners(grid.cell_owner, crange):
                mismatches += 1
            if pops > 2 * len(owners) + 1:
                violations += 1
    elapsed = time.perf_counter() - t0
    return {
        "searches": searches,
        "mismatches": mismatches,
        "violations": violations,
        "elapsed": elapsed,
    }


def test_criterion_01_neighbor_search_matches_brute_force(routing_sweep):
    assert routing_sweep["searches"] == ROUTING_CASES * RANGES_PER_CASE
    assert routing_sweep["mismatches"] == 0
    assert routing_sweep["elapsed"] < ROUTING_BUDGET_S
    report(1, f"exact owner sets on {routing_sweep['searches']} searches "
              f"in {routing_sweep['elapsed']:.1f}s (budget {ROUTING_BUDGET_S:.0f}s)")


def test_criterion_02_work_bound_and_constant_point_ops(routing_sweep):
    # every range search stayed within 2 * overlapped partitions + 1 pops
    assert routing_sweep["violations"] == 0

    # point routing: a single-cell search pops the same count no matter how
    # many partitions the grid is carved into
    pops_by_count: dict[int, set[int]] = {}
    for k in (16, 64, 256, 1024):
        grid = AGrid(64, 64, uniform_partitioning(64, 64, k))
        rng = random.Random(k)
        seen = set()
        for _ in range(200):
            cell = (rng.randrange(64), rng.randrange(64))
            owners, pops = grid.neighbor_search_cells((cell[0], cell[1], cell[0], cell[1]))
            assert owners == [grid.owner_of(cell)]
            seen.add(pops)
        pops_by_count[k] = seen
    distinct = set().union(*pops_by_count.values())
    assert len(distinct) == 1  # constant, +-0, across 16 -> 1024 partitions
    report(2, f"pops <= 2*Np+1 on {routing_sweep['searches']} searches; "
              f"point ops constant at {distinct.pop()} across 16..1024 partitions")


# -- 3: per-cell cost statistics on the worked grid ------------------------------------


def test_criterion_03_cost_statistics_walkthrough():
    g = GridGeometry(7, 7)
    st = EvaluatorState(2, g, (0, 0, 6, 4))

    def center(i, j):
        return Point((i + 0.5) / 7, (j + 0.5) / 7)

    def cell_query(qid, i, j, *kws):
        c = center(i, j)
        r = 1.0 / 28  # quarter cell: the MBR stays inside one cell
        mbr = Rect(c.x - r, c.y - r, c.x + r, c.y + r)
        return ContinuousQuery(qid, mbr, frozenset(kws), Predicate.OVERLAPS, FOREVER)

    st.register_query(cell_query(1, 2, 3, "pizza"))
    st.register_query(cell_query(2, 4, 2, "tea"))
    st.register_query(cell_query(3, 4, 2, "tea", "mint"))
    st.register_query(cell_query(4, 4, 4, "jazz"))

    def feed(oid, i, j, *kws):
        before = st.overall_cost
        st.process_object(SpatialKeywordObject(oid, center(i, j), frozenset(kws), oid))
        return st.overall_cost - before

    assert feed(1, 2, 3, "pizza") == 1
    assert feed(2, 4, 2, "tea") == 2
    assert feed(3, 4, 4, "jazz") == 1
    assert st.overall_cost == 4

    choice = st.find_best_split()
    assert choice.axis == "h"
    assert choice.cut == 2  # rows <= 2 one side, rows >= 3 the other
    assert choice.diff == 0
    assert choice.cost_low == choice.cost_high == 2
    report(3, "candidate counts 1/2/1, overall cost 4, horizontal cut after row 2, |diff| 0")


# -- 4: aggregate maintenance under a random operation storm ---------------------------


def _aggregates_match(st: EvaluatorState) -> None:
    rows, cols, total = cost_aggregates_from_cells(st.cells)
    assert {k: v for k, v in st.row_cost.items() if v} == rows
    assert {k: v for k, v in st.col_cost.items() if v} == cols
    assert st.overall_cost == total
    assert sum(rows.values()) == sum(cols.values()) == total

    qrows, qcols, qtotal = query_aggregates_from_cells(st.cells)
    assert {k: v for k, v in st.row_q.items() if v} == qrows
    assert {k: v for k, v in st.col_q.items() if v} == qcols
    assert st.overall_q == qtotal
    assert sum(qrows.values()) == sum(qcols.values()) == qtotal

    assert sum(st.attach_count.values()) == qtotal
    assert set(st.attach_count) == set(st.registry)


def test_criterion_04_aggregates_survive_random_operations():
    rng = random.Random(4242)
    geom = GridGeometry(24, 24)
    cut = 11  # left owns columns <= cut
    left = EvaluatorState(0, geom, (0, 0, cut, 23))
    right = EvaluatorState(1, geom, (cut + 1, 0, 23, 23))
    vocab = [f"k{i}" for i in range(40)]
    now = qid = oid = 0
    ops = 100_000

    for step in range(ops):
        r = rng.random()
        if r < 0.30:
            qid += 1
            pred = rng.choice((Predicate.INSIDE, Predicate.OVERLAPS, Predicate.CONTAINS))
            if pred is Predicate.INSIDE and rng.random() < 0.5:
                kws: frozenset[str] = frozenset()
            else:
                kws = frozenset(rng.sample(vocab, rng.randint(1, 3)))
            mbr = square_mbr(Point(rng.random(), rng.random()), rng.random() * 0.3)
            q = ContinuousQuery(qid, mbr, kws, pred, now + rng.randint(0, 400))
            (left if rng.random() < 0.5 else right).register_query(q)
        elif r < 0.82:
            oid += 1
            now += rng.randint(0, 2)
            loc = Point(rng.random(), rng.random())
            o = SpatialKeywordObject(oid, loc, frozenset(rng.sample(vocab, rng.randint(1, 3))), now)
            side = left if geom.cell_of(loc)[0] <= cut else right
            side.process_object(o)
        elif r < 0.90:
            now += rng.randint(1, 50)
            full_cleaning_cycle(left if rng.random() < 0.5 else right, now)
        else:
            if rng.random() < 0.5 and cut >= 1:
                right.absorb_cells(take_region(left, (cut, 0, cut, 23)))
                cut -= 1
            elif cut <= 21:
                left.absorb_cells(take_region(right, (cut + 1, 0, cut + 1, 23)))
                cut += 1
        if step % 20_000 == 19_999:
            _aggregates_match(left)
            _aggregates_match(right)

    _aggregates_match(left)
    _aggregates_match(right)
    report(4, f"{ops} random register/process/expire/extract/absorb ops, "
              f"recomputed == maintained on both workers (integer equality)")


# -- 5: rebalance interleavings against the single-index oracle ------------------------


_PREDS = (Predicate.OVERLAPS, Predicate.CONTAINS, Predicate.INSIDE)


def _mixed_query(rng, qid, vocab):
    pred = rng.choices(_PREDS, (5, 3, 2))[0]
    if pred is Predicate.INSIDE and rng.random() < 0.5:
        kws: frozenset[str] = frozenset()
    else:
        kws = frozenset(rng.sample(vocab, rng.randint(1, 2)))
    if rng.random() < 0.6:  # hot cluster, so rebalancing has something to move
        center = Point(_clip01(rng.gauss(0.3, 0.1)), _clip01(rng.gauss(0.3, 0.1)))
    else:
        center = Point(rng.random(), rng.random())
    mbr = square_mbr(center, rng.uniform(0.02, 0.2))
    expiry = FOREVER if rng.random() < 0.7 else rng.randint(120, 380)
    return ContinuousQuery(qid, mbr, kws, pred, expiry)


def _mixed_object(rng, oid, vocab, ts):
    if rng.random() < 0.6:
        loc = Point(_clip01(rng.gauss(0.3, 0.12)), _clip01(rng.gauss(0.3, 0.12)))
    else:
        loc = Point(rng.random(), rng.random())
    return SpatialKeywordObject(oid, loc, frozenset(rng.sample(vocab, rng.randint(1, 3))), ts)


def _interleaved_run(seed: int, policy: str) -> dict:
    rng = random.Random(90_000 + seed)
    vocab = [f"t{i:02d}" for i in range(24)]
    upfront = [_mixed_query(rng, qid, vocab) for qid in range(1, 61)]
    injected = [_mixed_query(rng, qid, vocab) for qid in range(61, 66)]
    objects = [_mixed_object(rng, oid, vocab, oid) for oid in range(1, 201)]

    cfg = SystemConfig(grid_n=16, grid_m=16, routers=2, evaluators=3, beta=0.02,
                       seed=seed, policy=policy, stats_cadence=10**9,
                       adaptive=True, mode="agrid", clean_interval=16)
    s = System(cfg)
    oracle = SingleIndexOracle()
    for q in upfront:
        s.ingest_query(q)
        oracle.register(q)
    s.drain()

    coord = s.workers[s.coordinator]
    burst = random.Random(7_000 + seed)
    inject = iter(injected)
    expected: list[tuple[int, int, int]] = []
    midop_objects = midop_queries = 0

    def open_rebalance_window():
        # data plane settled first, so the next op starts from a quiet state
        s.drain()
        s.trigger_stats()
        while coord.op is None and s.tick():
            pass

    for o in objects:
        s.ingest_object(o)
        if coord.op is not None:
            midop_objects += 1
        expected.extend(oracle.process(o))
        for _ in range(burst.randint(0, 6)):
            s.tick()
        if o.oid % 40 == 20:
            # leave the operation in flight and keep streaming objects into it
            open_rebalance_window()
        elif o.oid % 40 == 0:
            # register a query while the operation is executing
            open_rebalance_window()
            q = next(inject, None)
            if q is not None:
                if coord.op is not None:
                    midop_queries += 1
                s.ingest_query(q)
                oracle.register(q)
            s.drain()
    s.drain()

    got = sorted((m.qid, m.oid, m.ts) for m in s.results)
    assert got == sorted(expected), f"seed {seed}: result multiset diverged"
    assert s.counters["forwarded_objects"] + s.counters["dropped_by_summary"] == len(objects)
    assert s.counters["rebalance_count"] == len(s.decisions), f"seed {seed}: an op did not complete"
    return {
        "midop_objects": midop_objects,
        "midop_queries": midop_queries,
        "completed": s.counters["rebalance_count"],
        "kinds": {d["opKind"] for d in s.decisions},
    }


def test_criterion_05_interleavings_match_single_index_oracle():
    for policy in ("random_weighted", "round_robin"):
        t0 = time.perf_counter()
        midop_objects = midop_queries = completed = 0
        kinds: set[str] = set()
        for seed in range(INTERLEAVING_SEEDS):
            out = _interleaved_run(seed, policy)
            midop_objects += out["midop_objects"]
            midop_queries += out["midop_queries"]
            completed += out["completed"]
            kinds |= out["kinds"]
        elapsed = time.perf_counter() - t0

        assert elapsed < INTERLEAVING_BUDGET_S, policy
        # each policy's sweep must genuinely stress mid-operation traffic,
        # both kinds of op
        assert midop_objects >= 200, policy
        assert midop_queries >= 50, policy
        assert completed >= 100, policy
        assert kinds & {"shift_h", "shift_v", "shift_corner"}, policy
        assert "split_merge" in kinds, policy
        report(5, f"{policy}: {INTERLEAVING_SEEDS} interleavings exact vs oracle; "
                  f"{midop_objects} objects and {midop_queries} queries injected mid-op, "
                  f"{completed} ops completed, kinds {sorted(kinds)}, "
                  f"{elapsed:.1f}s (budget {INTERLEAVING_BUDGET_S:.0f}s)")


# -- 6: every logged rebalance decision is sound ---------------------------------------


C6_SEEDS = range(3131, 3139)   # workload seeds of the decision-logging scenario


def test_criterion_06_rebalance_decisions_are_sound(monkeypatch):
    recorded: list[tuple] = []
    real = runtime_mod.select_rebalance_op

    def recording(snap, beta, spare=None):
        op = real(snap, beta, spare=spare)
        recorded.append((snap, beta, spare, op))
        return op

    monkeypatch.setattr(runtime_mod, "select_rebalance_op", recording)

    vocab = [f"t{i:02d}" for i in range(24)]
    started = []
    for seed in C6_SEEDS:
        recorded.clear()
        rng = random.Random(seed)
        cfg = SystemConfig(grid_n=16, grid_m=16, routers=2, evaluators=3, beta=0.05,
                           seed=11, policy="random_weighted", stats_cadence=10**9,
                           adaptive=True, mode="agrid", clean_interval=32)
        s = System(cfg)
        for qid in range(1, 81):
            s.ingest_query(_mixed_query(rng, qid, vocab))
        s.drain()
        for oid in range(1, 501):
            s.ingest_object(_mixed_object(rng, oid, vocab, oid))
            if oid % 25 == 0:
                s.drain()
                s.trigger_stats()
                s.drain()
        s.drain()

        run_started = [r for r in recorded if r[3] is not None]
        assert len(s.decisions) == len(run_started)
        assert s.counters["rebalance_count"] == len(s.decisions), f"seed {seed}"
        for (snap, beta, spare, op), row in zip(run_started, s.decisions):
            assert op.cr > op.ct
            assert row["Cr"] == op.cr and row["Ct"] == op.ct
            # the full re-enumeration recomputes Cr/Ct from the snapshot and
            # must land on the identical argmax (dataclass equality covers both)
            assert reference_selection(snap, beta, spare) == op
        started += run_started
    assert len(started) >= 3

    # and the selection matches the oracle on fresh random snapshots
    rng = random.Random(66)
    agreed_ops = 0
    for _ in range(100):
        n = m = rng.choice([8, 12, 16])
        pm = random_recursive_partitioning(rng, n, m, rng.randint(2, 6))
        stats = {}
        for pid, rect in pm.items():
            cost = rng.randint(0, 200)
            copies = rng.randint(0, 80)
            split = None
            if (rect[0], rect[1]) != (rect[2], rect[3]) and rng.random() < 0.8:
                low = rng.randint(0, cost)
                ql = rng.randint(0, copies)
                split = SplitChoice("h", rect[1], abs(2 * low - cost), low, cost - low,
                                    ql, copies - ql)
            corners = [ShiftCandidate(nid, region, rng.randint(0, cost), rng.randint(0, copies))
                       for nid, region in corner_shift_candidates(pm, pid)]
            strips = balancer_tests.random_strips(rng, pm, pid, cost, copies)
            stats[pid] = balancer_tests.make_stats(pid, cost, copies, split=split,
                                                   strips=strips, corners=corners)
        snap = WorkloadSnapshot(pm, stats)
        beta = rng.choice([0.0, 0.1, 1.0, 3.0])
        spare = rng.choice([None, 99])
        got = select_rebalance_op(snap, beta, spare)
        assert got == reference_selection(snap, beta, spare)
        if got is not None:
            agreed_ops += 1
            assert got.cr > got.ct
    assert agreed_ops > 20
    report(6, f"{len(started)} logged ops over {len(C6_SEEDS)} workloads, all completed: "
              f"Cr > Ct exact and argmax == oracle; "
              f"100 random snapshots agree ({agreed_ops} with a selected op)")


# -- 7: adaptive repartitioning beats the static layout --------------------------------


C7_GRID = 512
C7_QUERIES = 50_000
C7_OBJECTS = 500_000


def _c7_queries(sf: float) -> list[ContinuousQuery]:
    rng = random.Random(700)
    out = []
    for qid in range(1, C7_QUERIES + 1):
        q = ContinuousQuery(qid, square_mbr(Point(rng.random(), rng.random()), 0.001),
                            frozenset(), Predicate.INSIDE, FOREVER)
        out.append(scale_query(q, sf))
    return out


def _c7_objects(sf: float):
    rng = random.Random(701)
    text = frozenset(("w",))
    for oid in range(1, C7_OBJECTS + 1):
        o = SpatialKeywordObject(oid, Point(rng.random(), rng.random()), text, 0)
        yield scale_object(o, sf)


def _c7_final_alpha(sf: float, adaptive: bool) -> tuple[float, int]:
    cfg = SystemConfig(grid_n=C7_GRID, grid_m=C7_GRID, routers=2, evaluators=4,
                       beta=1.0, seed=7, policy="round_robin", stats_cadence=25_000,
                       adaptive=adaptive, mode="agrid", clean_interval=4096,
                       retain_results=False)
    s = System(cfg)
    for q in _c7_queries(sf):
        s.ingest_query(q)
    s.drain()
    n = 0
    for o in _c7_objects(sf):
        s.ingest_object(o)
        n += 1
        if n % 1000 == 0:
            s.drain()
    s.drain()
    assert s.metrics, "stats cadence never fired"
    return s.metrics[-1]["alpha"], s.counters["rebalance_count"]


def test_criterion_07_adaptive_alpha_beats_static():
    lines = []
    for sf in SCALE_FACTORS:
        static_alpha, static_ops = _c7_final_alpha(sf, adaptive=False)
        adaptive_alpha, adaptive_ops = _c7_final_alpha(sf, adaptive=True)
        assert static_ops == 0
        assert adaptive_ops >= 1
        assert adaptive_alpha <= ALPHA_RATIO * static_alpha, (
            f"sf={sf}: adaptive {adaptive_alpha:.3f} vs static {static_alpha:.3f}")
        lines.append(f"sf={sf}: {adaptive_alpha:.2f} <= {ALPHA_RATIO} * {static_alpha:.2f}")
    report(7, f"final alpha ordering holds ({'; '.join(lines)})")


# -- 8: textual summaries drop unmatchable traffic --------------------------------------


def test_criterion_08_summary_filtering_drops_unmatchable_objects():
    vocab = synthetic_vocab()
    objects = generate(WorkloadSpec(kind="TextuallySelective", object_count=30_000,
                                    keyword_vocab=vocab, seed=88))[0]

    def run(percentile: float) -> tuple[int, int]:
        spec = WorkloadSpec(kind="TextuallySelective", query_count=2_000,
                            keyword_vocab=vocab, query_keywords=3,
                            selectivity_percentile=percentile, seed=88)
        queries = generate(spec)[1]
        cfg = SystemConfig(grid_n=64, grid_m=64, routers=2, evaluators=4, beta=1.0,
                           seed=1, policy="round_robin", stats_cadence=10**9,
                           adaptive=False, mode="agrid", retain_results=False)
        s = System(cfg)
        for q in queries:
            s.ingest_query(q)
        s.drain()
        for i, o in enumerate(objects):
            s.ingest_object(o)
            if i % 1000 == 999:
                s.drain()
        s.drain()
        forwarded = s.counters["forwarded_objects"]
        dropped = s.counters["dropped_by_summary"]
        assert forwarded + dropped == len(objects)
        return forwarded, dropped

    forwarded = {}
    for p in (1.0, 0.5, 0.1, 0.0):
        forwarded[p], dropped = run(p)
        if p == 0.0:
            assert dropped == len(objects)   # 100% dropped once registration settled
            assert forwarded[p] == 0
    assert forwarded[1.0] > forwarded[0.5] > forwarded[0.1] > forwarded[0.0]
    report(8, f"forwarded strictly falls with selectivity percentile "
              f"({forwarded[1.0]} > {forwarded[0.5]} > {forwarded[0.1]} > 0), "
              f"percentile 0 drops all {len(objects)} objects")


# -- 9: routed candidate work vs the broadcast baseline ---------------------------------


C9_QUERIES = 100_000
C9_OBJECTS = 1_000_000


def test_criterion_09_routed_candidates_beat_broadcast():
    t0 = time.perf_counter()
    qrng = random.Random(99)
    queries = [ContinuousQuery(qid, square_mbr(Point(qrng.random(), qrng.random()), 0.001),
                               frozenset(), Predicate.INSIDE, FOREVER)
               for qid in range(1, C9_QUERIES + 1)]

    def objects():
        orng = random.Random(909)
        text = frozenset(("w",))
        for oid in range(1, C9_OBJECTS + 1):
            yield SpatialKeywordObject(oid, Point(orng.random(), orng.random()), text, 0)

    def run(mode: str) -> int:
        cfg = SystemConfig(grid_n=256, grid_m=256, routers=2, evaluators=4, beta=1.0,
                           seed=9, policy="round_robin", stats_cadence=10**9,
                           adaptive=False, mode=mode, retain_results=False)
        s = System(cfg)
        for q in queries:
            s.ingest_query(q)
        s.drain()
        n = 0
        for o in objects():
            s.ingest_object(o)
            n += 1
            if n % 2000 == 0:
                s.drain()
        s.drain()
        return s.counters["candidates"]

    routed = run("agrid")
    broadcast = run("broadcast")
    elapsed = time.perf_counter() - t0

    assert broadcast >= CANDIDATE_FACTOR * routed, (routed, broadcast)
    assert elapsed < SEPARATION_BUDGET_S
    report(9, f"candidates {routed} routed vs {broadcast} broadcast "
              f"({broadcast / max(routed, 1):.0f}x, need >= {CANDIDATE_FACTOR}x) "
              f"in {elapsed:.0f}s (budget {SEPARATION_BUDGET_S:.0f}s)")


# -- 10: cell-side advice sits at the sweep minimum -------------------------------------


def test_criterion_10_cell_side_advice_minimizes_load():
    rq = 0.01
    model = GranularityModel(object_rate=10.0, query_rate=1.0,
                             standing_queries=1e5, query_side=rq)
    sides = [rq / 4, rq / 2, rq, 2 * rq, 4 * rq]
    loads = [routing_load(model, side) for side in sides]
    assert min(range(len(sides)), key=loads.__getitem__) == 2
    assert loads[2] < loads[1] and loads[2] < loads[3]  # interior minimum, not a tie
    side, cells = advise_granularity(model)
    assert side == rq and cells == round(1 / rq)
    report(10, f"load minimum at cell side == query side "
               f"(sweep {['%.0f' % v for v in loads]}, advice {cells} cells per axis)")


# -- 11: single-keyword summaries for subset queries ------------------------------------


def _subset_workload(seed: int):
    rng = random.Random(5200 + seed)
    vocab = [f"tag{i:02d}" for i in range(30)]
    queries = [ContinuousQuery(qid,
                               square_mbr(Point(rng.random(), rng.random()),
                                          rng.uniform(0.05, 0.3)),
                               frozenset(rng.sample(vocab, rng.randint(1, 4))),
                               Predicate.CONTAINS, FOREVER)
               for qid in range(1, 81)]
    objects = [SpatialKeywordObject(oid, Point(rng.random(), rng.random()),
                                    frozenset(rng.sample(vocab, rng.randint(1, 5))), oid)
               for oid in range(1, 601)]
    return queries, objects


def _all_keywords(q):
    """The traffic baseline: a CONTAINS query puts every keyword in the summaries."""
    return q.text if q.predicate is Predicate.CONTAINS else summary_contribution(q)


def _subset_run(queries, objects):
    cfg = SystemConfig(grid_n=32, grid_m=32, routers=2, evaluators=4, beta=1.0,
                       seed=3, policy="round_robin", stats_cadence=10**9,
                       adaptive=False, mode="agrid")
    s = System(cfg)
    for q in queries:
        s.ingest_query(q)
    s.drain()
    for o in objects:
        s.ingest_object(o)
    s.drain()
    unit = s.workers["r0"].unit
    sizes = {pid: len(effective_set(unit, pid)) for pid in s.pm}
    results = sorted((m.qid, m.oid, m.ts) for m in s.results)
    return results, s.counters["forwarded_objects"], sizes, dict(s.pm)


def test_criterion_11_contains_summaries_shrink_traffic_not_results(monkeypatch):
    # routers and evaluators must agree on the rule, so the baseline swaps it
    # in every module that holds a reference
    binders = [mod for name, mod in sorted(sys.modules.items())
               if name.startswith("skystream")
               and getattr(mod, "summary_contribution", None) is summary_contribution]
    assert {runtime_mod, evaluator_mod, agrid_mod} <= set(binders)
    geom = GridGeometry(32, 32)
    strict_reductions = 0
    for seed in range(20):
        queries, objects = _subset_workload(seed)
        res_single, fwd_single, sizes_single, pm = _subset_run(queries, objects)
        with monkeypatch.context() as mp:
            for mod in binders:
                mp.setattr(mod, "summary_contribution", _all_keywords)
            res_full, fwd_full, sizes_full, _ = _subset_run(queries, objects)

        oracle = SingleIndexOracle()
        for q in queries:
            oracle.register(q)
        expected = []
        for o in objects:
            expected.extend(oracle.process(o))

        assert res_single == res_full == sorted(expected)  # zero result change
        assert fwd_single <= fwd_full
        if fwd_single < fwd_full:
            strict_reductions += 1

        # summary size per partition == distinct filter keywords registered there
        for pid, rect in pm.items():
            attached = [q for q in queries
                        if rect_intersect(rect, geom.cell_range(q.mbr)) is not None]
            filter_kws = {min(q.text) for q in attached}
            full_kws = set().union(*(q.text for q in attached)) if attached else set()
            assert sizes_single[pid] == len(filter_kws)
            assert sizes_full[pid] == len(full_kws)
            assert sizes_single[pid] <= sizes_full[pid]
    assert strict_reductions >= 10  # the optimization must actually bite
    report(11, f"20 workloads: same match multiset, single-keyword summaries, "
               f"traffic strictly lower on {strict_reductions}/20")

"""Evaluator index: matching, cost accounting, cleaning, splits, migration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skystream import agrid
from skystream.agrid import ANY_KEYWORD, GridGeometry, summary_block, summary_contribution
from skystream.evaluator import (
    NO_QIDS,
    WILDCARD,
    CellBatch,
    CellIndex,
    EvaluatorState,
    OutOfBoundsError,
    RegionMismatchError,
    UnsplittableError,
    iter_region,
)
from skystream.model import (
    ContinuousQuery,
    MatchResult,
    Point,
    Predicate,
    Rect,
    SpatialKeywordObject,
    matches,
)

from oracles import (
    SingleIndexOracle,
    cost_aggregates_from_cells,
    query_aggregates_from_cells,
)

FOREVER = 10**9


def cell_point(geom: GridGeometry, i: int, j: int) -> Point:
    return Point((i + 0.5) / geom.n, (j + 0.5) / geom.m)


def cells_rect(geom: GridGeometry, x0: int, y0: int, x1: int, y1: int) -> Rect:
    # quarter-cell insets keep float rounding away from cell boundaries
    return Rect(
        (x0 + 0.25) / geom.n,
        (y0 + 0.25) / geom.m,
        (x1 + 0.75) / geom.n,
        (y1 + 0.75) / geom.m,
    )


def make_query(geom, qid, x0, y0, x1, y1, text=("coffee",), predicate=Predicate.OVERLAPS, expiry=FOREVER):
    return ContinuousQuery(qid, cells_rect(geom, x0, y0, x1, y1), frozenset(text), predicate, expiry)


def make_object(geom, oid, i, j, text=("coffee",), ts=0):
    return SpatialKeywordObject(oid, cell_point(geom, i, j), frozenset(text), ts)


def full_cleaning_cycle(ev: EvaluatorState, now: int) -> None:
    """Evict every query with expiry <= now from every owned cell.

    The first step finishes the cycle from wherever the cursor stands; the
    second sweeps every owned cell from the first.
    """
    for _ in range(2):
        ev.cleaning_step(now + 1, budget=ev.owned_cell_count())


def check_aggregates(ev: EvaluatorState) -> None:
    rows, cols, total = cost_aggregates_from_cells(ev.cells)
    assert {k: v for k, v in ev.row_cost.items() if v} == rows
    assert {k: v for k, v in ev.col_cost.items() if v} == cols
    assert ev.overall_cost == total
    rows, cols, total = query_aggregates_from_cells(ev.cells)
    assert {k: v for k, v in ev.row_q.items() if v} == rows
    assert {k: v for k, v in ev.col_q.items() if v} == cols
    assert ev.overall_q == total
    # attach counts and registry must agree with the cells exactly
    seen: dict[int, int] = {}
    for cell in ev.cells.values():
        for qid in cell.qids:
            seen[qid] = seen.get(qid, 0) + 1
    assert seen == ev.attach_count
    assert set(seen) == set(ev.registry)


def blocks_from_cells(ev: EvaluatorState) -> dict:
    """Each summary block's keywords, recomputed from every owned cell: the
    contributions of the queries attached there, the wildcard alone where
    one of them is INSIDE."""
    want: dict = {}
    for coord, cell in ev.cells.items():
        kws = want.setdefault(summary_block(coord), set())
        for qid in cell.qids:
            kws |= summary_contribution(ev.registry[qid])
    return {block: frozenset({ANY_KEYWORD}) if ANY_KEYWORD in kws else frozenset(kws)
            for block, kws in want.items() if kws}


def check_summary(ev: EvaluatorState) -> None:
    assert ev.summary_blocks() == blocks_from_cells(ev)


def take_region(ev: EvaluatorState, region) -> CellBatch:
    """Extract `region` from `ev` and return it as a transfer hands it over:
    a snapshot of each of its cells with content, and the record of every
    query they index, the way a transfer's one CELL_BATCH carries them."""
    cells = [(c, ev.cells[c].copy()) for c in iter_region(region)
             if c in ev.cells and (ev.cells[c].cost or ev.cells[c].qids)]
    records = {qid: ev.registry[qid] for _, cell in cells for qid in cell.qids}
    ev.extract_cells(region)
    return CellBatch(region, cells, records)


class TestRegistration:
    def test_attaches_to_owned_overlap_only(self):
        g = GridGeometry(8, 8)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        q = make_query(g, 1, 2, 2, 5, 5)
        assert ev.register_query(q) == 4  # (2..3) x (2..3)
        assert ev.attach_count[1] == 4
        assert ev.overall_q == 4
        assert ev.registry[1] is q
        check_aggregates(ev)

    def test_duplicate_registration_is_noise_free(self):
        g = GridGeometry(8, 8)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        q = make_query(g, 1, 0, 0, 1, 1)
        ev.register_query(q)
        before = (ev.overall_q, dict(ev.attach_count), ev.summary_blocks())
        assert ev.register_query(q) == 0
        assert (ev.overall_q, dict(ev.attach_count), ev.summary_blocks()) == before
        check_aggregates(ev)

    def test_disjoint_query_attaches_nothing(self):
        g = GridGeometry(8, 8)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        q = make_query(g, 1, 6, 6, 7, 7)
        assert ev.register_query(q) == 0
        assert not ev.registry and not ev.cells
        assert ev.overall_q == 0 and not ev.attach_count and not ev.summary_blocks()

    def test_inside_query_skips_inverted_lists(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        q = ContinuousQuery(7, cells_rect(g, 1, 1, 1, 1), frozenset(), Predicate.INSIDE, FOREVER)
        ev.register_query(q)
        cell = ev.cells[(1, 1)]
        assert cell.spatial_only == {7}
        assert not cell.inverted


class TestSummaryCounts:
    """Each summary block holds the contributions of the queries attached in it."""

    def test_a_query_contributes_once_until_its_last_cell_leaves(self):
        g = GridGeometry(4, 4)  # one summary block
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(make_query(g, 1, 0, 0, 3, 2, text=("tea", "mint")))  # 12 cells
        ev.register_query(make_query(g, 2, 0, 0, 0, 0, text=("tea",)))
        assert ev.attach_count[1] == 12
        assert ev.summary_blocks() == {(0, 0): frozenset({"tea", "mint"})}
        ev.extract_cells((0, 2, 3, 3))  # takes 4 of query 1's cells
        assert ev.attach_count[1] == 8
        assert ev.summary_blocks() == {(0, 0): frozenset({"tea", "mint"})}
        check_summary(ev)
        ev.extract_cells((1, 0, 3, 1))  # every cell of query 1 but (0, 0) and (0, 1)
        ev.extract_cells((0, 1, 0, 1))
        assert ev.attach_count == {1: 1, 2: 1}
        assert ev.summary_blocks() == {(0, 0): frozenset({"tea", "mint"})}
        ev.extract_cells((0, 0, 0, 0))  # the last cell
        assert not ev.registry and ev.summary_blocks() == {}

    def test_eviction_takes_the_contribution_away_once(self):
        g = GridGeometry(8, 8)
        ev = EvaluatorState(0, g, (0, 0, 7, 7))
        ev.register_query(make_query(g, 1, 0, 0, 7, 1, text=("old",), expiry=5))
        ev.register_query(make_query(g, 2, 1, 1, 2, 2, text=("new",), expiry=50))
        before = {(0, 0): frozenset({"old", "new"}), (1, 0): frozenset({"old"})}
        assert ev.summary_blocks() == before
        # the first row's step evicts query 1 from half its cells: still registered
        ev.cleaning_step(watermark=10, budget=8)
        assert ev.attach_count[1] == 8
        assert ev.summary_blocks() == before
        assert ev.cleaning_step(watermark=10, budget=56) == {(0, 0): frozenset({"new"})}
        assert set(ev.registry) == {2}
        check_summary(ev)

    def test_absorbed_query_counts_once_on_each_side(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(make_query(g, 1, 0, 1, 3, 2, text=("span",)))
        ev.register_query(make_query(g, 2, 0, 3, 0, 3, predicate=Predicate.INSIDE, text=()))
        dest = EvaluatorState(1, g, None)
        dest.absorb_cells(take_region(ev, (0, 2, 3, 3)))
        assert ev.summary_blocks() == {(0, 0): frozenset({"span"})}
        # the wildcard alone stands for the block
        assert dest.summary_blocks() == {(0, 0): frozenset({ANY_KEYWORD})}
        assert dest.attach_count == {1: 4, 2: 1}
        check_summary(ev)
        check_summary(dest)

    def test_blocks_hold_only_the_queries_attached_in_them(self):
        g = GridGeometry(8, 8)  # four summary blocks
        ev = EvaluatorState(0, g, (0, 0, 7, 7))
        ev.register_query(make_query(g, 1, 0, 0, 1, 1, text=("tea",)))
        ev.register_query(make_query(g, 2, 3, 4, 4, 4, text=("mint",)))  # straddles two
        ev.register_query(make_query(g, 3, 5, 5, 5, 5, text=("oat", "rye"),
                                     predicate=Predicate.CONTAINS))
        assert ev.summary_blocks() == {
            (0, 0): frozenset({"tea"}),
            (0, 1): frozenset({"mint"}),
            (1, 1): frozenset({"mint", "oat"}),
        }
        check_summary(ev)

    def test_a_refresh_recomputes_only_the_blocks_touched(self):
        g = GridGeometry(8, 8)
        ev = EvaluatorState(0, g, (0, 0, 7, 7))
        ev.register_query(make_query(g, 1, 0, 0, 1, 1, text=("tea",)))
        ev.register_query(make_query(g, 2, 5, 5, 5, 5, text=("mint",)))
        first = ev.summary_blocks()
        assert ev.summary_blocks() is first  # nothing touched: the same dict
        ev.register_query(make_query(g, 3, 6, 0, 6, 0, text=("oat",)))
        second = ev.summary_blocks()
        assert second == {**first, (1, 0): frozenset({"oat"})}
        # a dict once returned never changes, and an untouched block keeps its set
        assert first == {(0, 0): frozenset({"tea"}), (1, 1): frozenset({"mint"})}
        assert second[(0, 0)] is first[(0, 0)]
        ev.extract_cells((4, 0, 7, 7))
        assert ev.summary_blocks() == {(0, 0): frozenset({"tea"})}


class TestProcessing:
    def test_candidates_priced_even_when_they_miss(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        # CONTAINS wants both words; an object with only one is a candidate
        # (keyword hit) that fails the final check, but still costs work.
        ev.register_query(make_query(g, 1, 0, 0, 3, 3, text=("sale", "food"), predicate=Predicate.CONTAINS))
        o = make_object(g, 100, 2, 2, text=("sale", "coupon"))
        assert ev.process_object(o) == []
        assert ev.cells[(2, 2)].cost == 1
        assert ev.overall_cost == 1

    def test_match_and_dedupe(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(make_query(g, 3, 0, 0, 3, 3, text=("food", "sale")))
        ev.register_query(make_query(g, 1, 0, 0, 3, 3, text=("food",)))
        o = make_object(g, 9, 1, 1, text=("food", "sale"), ts=5)
        out = ev.process_object(o)
        assert [(r.qid, r.oid, r.ts) for r in out] == [(1, 9, 5), (3, 9, 5)]
        # two distinct candidates, not three keyword hits
        assert ev.cells[(1, 1)].cost == 2

    def test_spatial_only_counts_toward_cost(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        q = ContinuousQuery(2, cells_rect(g, 1, 1, 2, 2), frozenset(), Predicate.INSIDE, FOREVER)
        ev.register_query(q)
        o = make_object(g, 5, 1, 1, text=("anything",), ts=1)
        assert [r.qid for r in ev.process_object(o)] == [2]
        assert ev.overall_cost == 1

    def test_expired_object_never_matches(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(make_query(g, 1, 0, 0, 3, 3, expiry=10))
        late = make_object(g, 1, 0, 0, ts=11)
        assert ev.process_object(late) == []
        in_time = make_object(g, 2, 0, 0, ts=10)
        assert [r.qid for r in ev.process_object(in_time)] == [1]

    def test_object_outside_bounds_rejected(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 1, 3))
        with pytest.raises(OutOfBoundsError):
            ev.process_object(make_object(g, 1, 3, 3))

    def test_untouched_cell_stays_unmaterialized(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        assert ev.process_object(make_object(g, 1, 2, 2)) == []
        assert (2, 2) not in ev.cells

    def test_matches_equal_single_index_oracle(self):
        g = GridGeometry(6, 6)
        ev = EvaluatorState(0, g, (0, 0, 5, 5))
        oracle = SingleIndexOracle()
        rng = random.Random(42)
        vocab = ["alpha", "beta", "gamma", "delta", "nile"]
        for qid in range(60):
            x0, y0 = rng.randrange(6), rng.randrange(6)
            x1, y1 = rng.randrange(x0, 6), rng.randrange(y0, 6)
            pred = rng.choice(list(Predicate))
            words = frozenset(rng.sample(vocab, rng.randint(1, 3))) if pred is not Predicate.INSIDE else frozenset()
            q = ContinuousQuery(qid, cells_rect(g, x0, y0, x1, y1), words, pred, rng.randrange(5, 40))
            ev.register_query(q)
            oracle.register(q)
        for oid in range(300):
            o = SpatialKeywordObject(
                oid,
                cell_point(g, rng.randrange(6), rng.randrange(6)),
                frozenset(rng.sample(vocab, rng.randint(1, 3))),
                ts=rng.randrange(0, 45),
            )
            got = [(r.qid, r.oid, r.ts) for r in ev.process_object(o)]
            assert sorted(got) == sorted(oracle.process(o))
        check_aggregates(ev)
        check_summary(ev)


class TestBestSplit:
    def build_costed(self):
        """Three objects inside a 7x7 region shaped like the split walkthrough:
        per-cell costs 1@(2,3), 2@(4,2), 1@(4,4)."""
        g = GridGeometry(7, 7)
        ev = EvaluatorState(2, g, (0, 0, 6, 4))
        ev.register_query(make_query(g, 1, 2, 3, 2, 3, text=("pizza",)))
        ev.register_query(make_query(g, 2, 4, 2, 4, 2, text=("tea",)))
        ev.register_query(make_query(g, 3, 4, 2, 4, 2, text=("tea", "mint")))
        ev.register_query(make_query(g, 4, 4, 4, 4, 4, text=("jazz",)))
        ev.process_object(make_object(g, 1, 2, 3, text=("pizza",)))
        ev.process_object(make_object(g, 2, 4, 2, text=("tea",)))
        ev.process_object(make_object(g, 3, 4, 4, text=("jazz",)))
        return ev

    def test_walkthrough_costs_and_cut(self):
        ev = self.build_costed()
        assert ev.overall_cost == 4
        assert dict(ev.row_cost) == {3: 1, 2: 2, 4: 1}
        choice = ev.find_best_split()
        assert choice.axis == "h"
        assert choice.cut == 2
        assert choice.diff == 0
        assert choice.cost_low == 2 and choice.cost_high == 2

    def test_tie_prefers_horizontal_then_lower_cut(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        # perfectly symmetric: both axes can achieve diff 0
        for k, (i, j) in enumerate([(0, 0), (3, 0), (0, 3), (3, 3)]):
            ev.register_query(make_query(g, k, i, j, i, j, text=("w",)))
            ev.process_object(make_object(g, k, i, j, text=("w",)))
        choice = ev.find_best_split()
        assert choice.axis == "h"
        assert choice.cut == 0  # cuts 0..2 all give diff 0

    def test_single_cell_unsplittable(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (2, 2, 2, 2))
        with pytest.raises(UnsplittableError):
            ev.find_best_split()

    def test_single_row_splits_vertically(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 2, 3, 2))
        ev.register_query(make_query(g, 1, 0, 2, 0, 2, text=("a",)))
        ev.process_object(make_object(g, 1, 0, 2, text=("a",)))
        choice = ev.find_best_split()
        assert choice.axis == "v"


class TestShiftCut:
    """Strip enumeration: one candidate per costed line along each full edge."""

    def build_columns(self, costs, x0=0):
        g = GridGeometry(8, 8)
        ev = EvaluatorState(0, g, (x0, 0, x0 + len(costs) - 1, 3))
        qid = 0
        for k, c in enumerate(costs):
            if not c:
                continue
            i = x0 + k
            ev.register_query(make_query(g, qid, i, 0, i, 0, text=(f"w{i}",)))
            for _ in range(c):
                ev.process_object(make_object(g, 1000 + qid, i, 0, text=(f"w{i}",)))
            qid += 1
        return ev

    @staticmethod
    def strips(ev, pm):
        return [(c.neighbor, c.region, c.moved_cost, c.moved_queries)
                for c in ev.find_shift_cut(pm)]

    def test_right_shift_picks_balancing_strip(self):
        ev = self.build_columns([8, 1, 1, 2])
        pm = {0: (0, 0, 3, 3), 1: (4, 0, 7, 3)}
        assert self.strips(ev, pm) == [
            (1, (3, 0, 3, 3), 2, 1),
            (1, (2, 0, 3, 3), 3, 2),
            (1, (1, 0, 3, 3), 4, 3),
        ]
        # against a neighbor at cost 2, the widest strip evens the pair best
        cr = {c.region: 12 - max(12 - c.moved_cost, 2 + c.moved_cost)
              for c in ev.find_shift_cut(pm)}
        assert max(cr, key=cr.get) == (1, 0, 3, 3)
        assert cr[(1, 0, 3, 3)] == 4

    def test_left_shift_grows_from_left_edge(self):
        ev = self.build_columns([2, 1, 1, 8], x0=4)
        pm = {0: (4, 0, 7, 3), 1: (0, 0, 3, 3)}
        assert self.strips(ev, pm) == [
            (1, (4, 0, 4, 3), 2, 1),
            (1, (4, 0, 5, 3), 3, 2),
            (1, (4, 0, 6, 3), 4, 3),
        ]

    def test_whole_region_is_never_offered(self):
        ev = self.build_columns([3, 3])
        pm = {0: (0, 0, 1, 3), 1: (2, 0, 7, 3)}
        assert self.strips(ev, pm) == [(1, (1, 0, 1, 3), 3, 1)]
        # a single column has no strip to give across its vertical edges
        single = self.build_columns([5], x0=2)
        assert single.find_shift_cut({0: (2, 0, 2, 3), 1: (3, 0, 7, 3), 2: (0, 0, 1, 3)}) == ()

    def test_tie_moves_fewest_cells(self):
        # columns 4, 2 and 1 carry nothing: a strip ending at one of them
        # moves no cost, or the same cost as a thinner strip, so only the
        # strip ending at column 3 is emitted
        ev = self.build_columns([3, 0, 0, 5, 0])
        pm = {0: (0, 0, 4, 3), 1: (5, 0, 7, 3)}
        assert self.strips(ev, pm) == [(1, (3, 0, 4, 3), 5, 1)]

    def test_vertical_sides_use_row_aggregates(self):
        g = GridGeometry(8, 8)
        ev = EvaluatorState(0, g, (0, 2, 1, 5))
        ev.register_query(make_query(g, 1, 0, 2, 0, 2, text=("bot",)))
        ev.register_query(make_query(g, 2, 0, 3, 0, 3, text=("mid",)))
        for k in range(4):
            ev.process_object(make_object(g, k, 0, 2, text=("bot",)))
        for k in range(2):
            ev.process_object(make_object(g, 10 + k, 0, 3, text=("mid",)))
        # rows 2..5 cost 4/2/0/0; a neighbor below and one above
        pm = {0: (0, 2, 1, 5), 1: (0, 0, 1, 1), 2: (0, 6, 1, 7)}
        assert self.strips(ev, pm) == [
            (1, (0, 2, 1, 2), 4, 1),
            (1, (0, 2, 1, 3), 6, 2),
            (2, (0, 3, 1, 5), 2, 1),
        ]

    def test_moving_only_empty_strips_is_no_improvement(self):
        g = GridGeometry(8, 8)
        ev = EvaluatorState(0, g, (0, 4, 1, 7))
        ev.register_query(make_query(g, 1, 0, 7, 0, 7, text=("top",)))
        for k in range(6):
            ev.process_object(make_object(g, k, 0, 7, text=("top",)))
        # all cost sits in the row farthest from the neighbor below: every
        # strip short of the whole region moves nothing, so none is offered
        assert ev.find_shift_cut({0: (0, 4, 1, 7), 1: (0, 0, 1, 3)}) == ()


class TestRegionSums:
    def test_strip_sums_match_cells(self):
        g = GridGeometry(6, 6)
        ev = EvaluatorState(0, g, (1, 1, 4, 4))
        rng = random.Random(7)
        for qid in range(30):
            x0, y0 = rng.randint(1, 4), rng.randint(1, 4)
            x1, y1 = rng.randint(x0, 4), rng.randint(y0, 4)
            ev.register_query(make_query(g, qid, x0, y0, x1, y1, text=("z",)))
        for oid in range(120):
            ev.process_object(make_object(g, oid, rng.randint(1, 4), rng.randint(1, 4), text=("z",)))
        region = (1, 1, 4, 2)  # bottom two rows
        cost, q = ev.region_sums(region)
        want_cost = sum(c.cost for xy, c in ev.cells.items() if xy[1] <= 2)
        want_q = sum(len(c.qids) for xy, c in ev.cells.items() if xy[1] <= 2)
        assert (cost, q) == (want_cost, want_q)

    def test_non_strip_region_rejected(self):
        g = GridGeometry(6, 6)
        ev = EvaluatorState(0, g, (1, 1, 4, 4))
        with pytest.raises(RegionMismatchError):
            ev.region_sums((2, 2, 3, 3))


class TestCleaning:
    def test_watermark_protects_pending_matches(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(make_query(g, 1, 0, 0, 3, 3, expiry=5, text=("old",)))
        ev.register_query(make_query(g, 2, 0, 0, 3, 3, expiry=50, text=("new",)))
        done = None
        while done is None:
            done = ev.cleaning_step(watermark=10, budget=4)
        assert 1 not in ev.registry and 2 in ev.registry
        assert done == {(0, 0): frozenset({"new"})}
        check_aggregates(ev)
        check_summary(ev)

    def test_exact_watermark_is_kept(self):
        # expiry == watermark means an object with ts == expiry may still
        # arrive and match, so the query must survive
        g = GridGeometry(2, 2)
        ev = EvaluatorState(0, g, (0, 0, 1, 1))
        ev.register_query(make_query(g, 1, 0, 0, 1, 1, expiry=10))
        while ev.cleaning_step(watermark=10, budget=1) is None:
            pass
        assert 1 in ev.registry
        assert [r.qid for r in ev.process_object(make_object(g, 1, 0, 0, ts=10))] == [1]

    def test_a_full_cycle_raises_the_expiry_floor(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(make_query(g, 1, 0, 0, 0, 0, expiry=5, text=("old",)))
        ev.register_query(make_query(g, 2, 0, 0, 3, 3, expiry=50, text=("new",)))
        assert ev._expiry_floor == 5
        while ev.cleaning_step(watermark=10, budget=4) is None:
            pass
        assert set(ev.registry) == {2}
        # no step scans again until the watermark passes what is left
        assert ev._expiry_floor == 50

    def test_budget_paces_the_cursor(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(make_query(g, 1, 0, 0, 3, 3))
        steps = 0
        while ev.cleaning_step(watermark=0, budget=4) is None:
            steps += 1
        assert steps == 3  # 16 cells at 4 per step, summary on the 4th

    def test_a_migration_does_not_restart_the_cycle(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(make_query(g, 1, 0, 0, 3, 3))
        assert ev.cleaning_step(watermark=0, budget=4) is None
        assert ev.cleaning_step(watermark=0, budget=4) is None  # 8 of 16 cells
        ev.extract_cells((0, 3, 3, 3))
        # 12 cells are left and 8 were walked: one more step ends the cycle
        assert ev.cleaning_step(watermark=0, budget=4) == {(0, 0): frozenset({"coffee"})}
        # a cursor past the new end is clamped, and the next step ends the cycle
        assert ev.cleaning_step(watermark=0, budget=4) is None
        assert ev.cleaning_step(watermark=0, budget=4) is None
        ev.extract_cells((0, 0, 3, 1))
        assert ev.cleaning_step(watermark=0, budget=4) == {(0, 0): frozenset({"coffee"})}

    def test_full_cleaning_cycle_now_boundary(self):
        g = GridGeometry(2, 2)
        ev = EvaluatorState(0, g, (0, 0, 1, 1))
        ev.register_query(make_query(g, 1, 0, 0, 1, 1, expiry=5))
        ev.register_query(make_query(g, 2, 0, 0, 1, 1, expiry=6))
        full_cleaning_cycle(ev, now=5)
        assert set(ev.registry) == {2}

    def test_full_cleaning_cycle_from_mid_cycle(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        rng = random.Random(11)
        # one expired query sits only in the first cell, behind the cursor
        queries = [make_query(g, 0, 0, 0, 0, 0, text=("a",), expiry=3)]
        for qid in range(1, 30):
            x0, y0 = rng.randrange(4), rng.randrange(4)
            x1, y1 = rng.randrange(x0, 4), rng.randrange(y0, 4)
            queries.append(make_query(g, qid, x0, y0, x1, y1, text=(rng.choice("abc"),),
                                      expiry=rng.randrange(20)))
        for q in queries:
            ev.register_query(q)
        ev.cleaning_step(watermark=0, budget=6)  # evicts nothing, moves the cursor
        assert ev._cursor == 6
        full_cleaning_cycle(ev, now=9)
        assert set(ev.registry) == {q.qid for q in queries if q.expiry > 9}
        assert ev.registry and len(ev.registry) < len(queries)
        for cell in ev.cells.values():
            assert cell.qids <= set(ev.registry)
        check_aggregates(ev)
        check_summary(ev)

    def test_eviction_reclaims_empty_cells(self):
        g = GridGeometry(2, 2)
        ev = EvaluatorState(0, g, (0, 0, 1, 1))
        ev.register_query(make_query(g, 1, 0, 0, 1, 1, expiry=1))
        assert len(ev.cells) == 4
        full_cleaning_cycle(ev, now=2)
        assert not ev.cells  # nothing indexed, no cost history: drop them

    def test_costed_cell_survives_eviction(self):
        g = GridGeometry(2, 2)
        ev = EvaluatorState(0, g, (0, 0, 1, 1))
        ev.register_query(make_query(g, 1, 0, 0, 1, 1, expiry=1, text=("x",)))
        ev.process_object(make_object(g, 1, 0, 0, text=("x",), ts=0))
        full_cleaning_cycle(ev, now=2)
        assert ev.cells[(0, 0)].cost == 1
        assert not ev.cells[(0, 0)].qids


class TestMigration:
    def build_loaded(self, seed=3):
        g = GridGeometry(6, 6)
        ev = EvaluatorState(0, g, (0, 0, 5, 5))
        rng = random.Random(seed)
        vocab = ["a", "b", "c", "d"]
        for qid in range(40):
            x0, y0 = rng.randrange(6), rng.randrange(6)
            x1, y1 = rng.randrange(x0, 6), rng.randrange(y0, 6)
            ev.register_query(make_query(g, qid, x0, y0, x1, y1, text=rng.sample(vocab, 2)))
        for oid in range(200):
            ev.process_object(
                make_object(g, oid, rng.randrange(6), rng.randrange(6), text=rng.sample(vocab, 2), ts=oid)
            )
        return g, ev

    def test_extract_absorb_conserves_everything(self):
        g, ev = self.build_loaded()
        total_cost = ev.overall_cost
        total_q = ev.overall_q
        batch = take_region(ev, (0, 4, 5, 5))  # top two rows
        dest = EvaluatorState(1, g, None)
        dest.absorb_cells(batch)
        assert ev.bounds == (0, 0, 5, 3)
        assert dest.bounds == (0, 4, 5, 5)
        assert ev.overall_cost + dest.overall_cost == total_cost
        assert ev.overall_q + dest.overall_q == total_q
        check_aggregates(ev)
        check_aggregates(dest)
        check_summary(ev)
        check_summary(dest)

    def test_straddling_query_lives_on_both_sides(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        q = make_query(g, 1, 0, 1, 3, 2, text=("span",))
        ev.register_query(q)
        batch = take_region(ev, (0, 2, 3, 3))
        dest = EvaluatorState(1, g, None)
        dest.absorb_cells(batch)
        assert ev.registry[1] == q and dest.registry[1] == q
        assert ev.attach_count[1] == 4 and dest.attach_count[1] == 4
        o = make_object(g, 7, 1, 2, text=("span",), ts=0)
        assert [r.qid for r in dest.process_object(o)] == [1]

    def test_dest_matches_like_never_moved(self):
        g, ev = self.build_loaded(seed=11)
        reference = EvaluatorState(9, g, (0, 0, 5, 5))
        for q in ev.registry.values():
            reference.register_query(q)
        batch = take_region(ev, (4, 0, 5, 5))  # right strip
        dest = EvaluatorState(1, g, None)
        dest.absorb_cells(batch)
        rng = random.Random(99)
        for oid in range(150):
            i, j = rng.randrange(6), rng.randrange(6)
            o = make_object(g, 1000 + oid, i, j, text=rng.sample(["a", "b", "c", "d"], 2), ts=300)
            target = dest if i >= 4 else ev
            got = [(r.qid, r.oid) for r in target.process_object(o)]
            want = [(r.qid, r.oid) for r in reference.process_object(o)]
            assert got == want

    def test_extract_everything_empties_the_evaluator(self):
        g, ev = self.build_loaded(seed=5)
        batch = take_region(ev, (0, 0, 5, 5))
        assert ev.bounds is None
        assert not ev.registry and ev.overall_cost == 0 and ev.overall_q == 0
        dest = EvaluatorState(1, g, None)
        dest.absorb_cells(batch)
        check_aggregates(dest)

    def test_interior_extraction_rejected(self):
        g, ev = self.build_loaded()
        with pytest.raises(RegionMismatchError):
            ev.extract_cells((1, 1, 4, 4))

    def test_absorb_requires_rect_union(self):
        g = GridGeometry(6, 6)
        dest = EvaluatorState(1, g, (0, 0, 1, 1))
        bad = CellBatch(region=(3, 3, 4, 4), cells=[], records={})
        with pytest.raises(RegionMismatchError):
            dest.absorb_cells(bad)

    def test_copy_shares_no_set(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(make_query(g, 1, 1, 1, 1, 1, text=("tea", "mint"), expiry=5))
        ev.register_query(make_query(g, 2, 1, 1, 1, 1, predicate=Predicate.INSIDE, text=()))
        ev.process_object(make_object(g, 1, 1, 1, text=("tea",)))
        cell = ev.cells[(1, 1)]
        snap = cell.copy()
        want = (2, {1, 2}, {2}, {"tea": {1}, "mint": {1}})
        assert (snap.cost, snap.qids, snap.spatial_only, snap.inverted) == want
        # every way the evaluator changes a cell: register, match, evict
        ev.register_query(make_query(g, 3, 1, 1, 1, 1, text=("tea", "jam")))
        ev.register_query(make_query(g, 4, 1, 1, 1, 1, predicate=Predicate.INSIDE, text=()))
        ev.process_object(make_object(g, 2, 1, 1, text=("tea",), ts=1))
        full_cleaning_cycle(ev, now=5)
        assert cell.qids == {2, 3, 4} and cell.inverted == {"tea": {3}, "jam": {3}}
        assert (snap.cost, snap.qids, snap.spatial_only, snap.inverted) == want

    def test_absorbing_a_held_cell_is_rejected(self):
        g = GridGeometry(4, 4)
        src = EvaluatorState(0, g, (0, 0, 3, 1))
        dst = EvaluatorState(1, g, (0, 2, 3, 3))
        src.register_query(make_query(g, 1, 0, 0, 3, 1, text=("w",)))
        batch = take_region(src, (0, 1, 3, 1))
        dst.cells[(2, 1)] = CellIndex()  # a stale cell outside dst's bounds
        with pytest.raises(RegionMismatchError):
            dst.absorb_cells(batch)

    def test_absorb_is_registration_duplicate_safe(self):
        # a query may reach the destination both by forwarding and inside
        # the batch; the second arrival must not double-count
        g = GridGeometry(4, 4)
        src = EvaluatorState(0, g, (0, 0, 3, 1))
        dst = EvaluatorState(1, g, (0, 2, 3, 3))
        q = make_query(g, 1, 0, 0, 3, 3, text=("dup",))
        src.register_query(q)
        dst.register_query(q)
        batch = take_region(src, (0, 0, 3, 1))
        dst.absorb_cells(batch)
        assert dst.attach_count[1] == 16
        check_aggregates(dst)
        check_summary(dst)


class TestCompactLists:
    """One-query keyword lists are one shared frozenset per registration, and
    a cell whose queries are all INSIDE keeps one qid set."""

    def test_single_query_lists_share_one_frozenset_per_registration(self):
        g = GridGeometry(8, 8)
        ev = EvaluatorState(0, g, (0, 0, 7, 7))
        k = 16
        for qid in range(k):  # disjoint 2x2 ranges tiling the grid
            x, y = 2 * (qid % 4), 2 * (qid // 4)
            ev.register_query(make_query(g, qid, x, y, x + 1, y + 1, text=("tea",)))
        lists = [hits for cell in ev.cells.values() for hits in cell.inverted.values()]
        assert len(lists) == 4 * k
        assert all(type(hits) is frozenset for hits in lists)
        assert len({id(hits) for hits in lists}) == k
        for cell in ev.cells.values():
            assert cell.inverted == {"tea": cell.qids}

    def test_a_second_query_makes_a_set_and_detach_drops_the_frozenset(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(make_query(g, 1, 0, 0, 1, 0, text=("tea", "jam"), expiry=5))
        ev.register_query(make_query(g, 2, 0, 0, 0, 0, text=("tea",)))
        joined, alone = ev.cells[(0, 0)], ev.cells[(1, 0)]
        assert type(joined.inverted["tea"]) is set and joined.inverted["tea"] == {1, 2}
        assert type(joined.inverted["jam"]) is frozenset
        assert alone.inverted["tea"] is alone.inverted["jam"] is joined.inverted["jam"]
        full_cleaning_cycle(ev, now=5)
        assert joined.inverted == {"tea": {2}}
        assert (1, 0) not in ev.cells
        check_aggregates(ev)

    def test_inside_only_cell_keeps_one_qid_set(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        for qid in (1, 2):
            ev.register_query(make_query(g, qid, 1, 1, 1, 1, text=(),
                                         predicate=Predicate.INSIDE, expiry=qid * 10))
        cell = ev.cells[(1, 1)]
        assert cell.spatial_only is cell.qids and cell.qids == {1, 2}
        ev.register_query(make_query(g, 3, 1, 1, 1, 1, text=("tea",), expiry=5))
        assert cell.spatial_only is not cell.qids and cell.spatial_only == {1, 2}
        full_cleaning_cycle(ev, now=5)  # the keyword query leaves: joined again
        assert cell.spatial_only is cell.qids and cell.qids == {1, 2}
        full_cleaning_cycle(ev, now=10)
        assert cell.spatial_only is cell.qids and cell.qids == {2}
        assert ev.process_object(make_object(g, 1, 1, 1, ts=10)) == [MatchResult(2, 1, 10)]
        check_aggregates(ev)

    def test_keyword_cell_splits_to_the_shared_empty_set(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(make_query(g, 1, 0, 0, 0, 0, text=("tea",)))
        assert ev.cells[(0, 0)].spatial_only is NO_QIDS

    def test_copy_keeps_the_join_and_shares_only_frozensets(self):
        g = GridGeometry(4, 4)
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(make_query(g, 1, 0, 0, 0, 0, text=(), predicate=Predicate.INSIDE))
        ev.register_query(make_query(g, 2, 1, 0, 1, 0, text=("tea", "jam")))
        ev.register_query(make_query(g, 3, 1, 0, 1, 0, text=("tea",)))
        inside, keyed = ev.cells[(0, 0)].copy(), ev.cells[(1, 0)]
        assert inside.spatial_only is inside.qids is not ev.cells[(0, 0)].qids
        snap = keyed.copy()
        assert snap.inverted["jam"] is keyed.inverted["jam"]
        assert snap.inverted["tea"] == {2, 3} and snap.inverted["tea"] is not keyed.inverted["tea"]

    def test_one_wildcard_object(self):
        g = GridGeometry(4, 4)
        q = make_query(g, 1, 0, 0, 0, 0, text=(), predicate=Predicate.INSIDE)
        assert WILDCARD is agrid.WILDCARD
        assert summary_contribution(q) is WILDCARD
        ev = EvaluatorState(0, g, (0, 0, 3, 3))
        ev.register_query(q)
        assert ev.summary_blocks()[(0, 0)] is WILDCARD


class TestStatsReport:
    def test_report_is_fixed_size(self):
        g, ev = TestMigration().build_loaded()
        pm = {0: (0, 0, 5, 5)}
        rep = ev.stats_report(pm)
        assert rep.pid == 0
        assert rep.overall_cost == ev.overall_cost
        assert rep.query_copies == ev.overall_q
        assert rep.best_split is not None
        assert rep.strips == rep.corners == ()  # sole partition has no neighbors
        # with neighbors, the strips are bounded by the region's side: at
        # most one per line short of the whole region along each edge
        ev.extract_cells((0, 5, 5, 5))
        pm = {0: ev.bounds, 1: (0, 5, 5, 5)}
        rep = ev.stats_report(pm)
        assert rep.strips == ev.find_shift_cut(pm)
        assert 0 < len(rep.strips) <= 4

    def test_corner_costs_come_from_strips(self):
        g = GridGeometry(6, 6)
        # A owns the left 4 columns, B hugs the top-right corner
        pm = {0: (0, 0, 3, 5), 1: (4, 3, 5, 5), 2: (4, 0, 5, 2)}
        ev = EvaluatorState(0, g, pm[0])
        ev.register_query(make_query(g, 1, 0, 4, 3, 5, text=("n",)))
        ev.process_object(make_object(g, 1, 2, 5, text=("n",)))
        rep = ev.stats_report(pm)
        regions = {c.neighbor: c for c in rep.corners}
        assert regions[1].region == (0, 3, 3, 5)
        assert regions[1].moved_cost == 1
        assert regions[2].region == (0, 0, 3, 2)
        assert regions[2].moved_cost == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_operations_keep_books_balanced(data):
    g = GridGeometry(5, 5)
    ev = EvaluatorState(0, g, (0, 0, 4, 4))
    vocab = ["p", "q", "r"]
    qid = 0
    n_ops = data.draw(st.integers(10, 40))
    for _ in range(n_ops):
        op = data.draw(st.sampled_from(["reg", "obj", "expire", "clean"]))
        if op == "reg":
            x0 = data.draw(st.integers(0, 4))
            y0 = data.draw(st.integers(0, 4))
            x1 = data.draw(st.integers(x0, 4))
            y1 = data.draw(st.integers(y0, 4))
            words = data.draw(st.sets(st.sampled_from(vocab), min_size=1, max_size=2))
            expiry = data.draw(st.integers(0, 30))
            ev.register_query(make_query(g, qid, x0, y0, x1, y1, text=words, expiry=expiry))
            qid += 1
        elif op == "obj":
            i = data.draw(st.integers(0, 4))
            j = data.draw(st.integers(0, 4))
            words = data.draw(st.sets(st.sampled_from(vocab), min_size=1, max_size=2))
            ts = data.draw(st.integers(0, 30))
            ev.process_object(make_object(g, 0, i, j, text=words, ts=ts))
        elif op == "expire":
            now = data.draw(st.integers(0, 30))
            full_cleaning_cycle(ev, now)
            assert all(q.expiry > now for q in ev.registry.values())
        else:
            ev.cleaning_step(data.draw(st.integers(0, 30)), budget=data.draw(st.integers(1, 9)))
        # the scan is skipped below the floor, so it must never pass a live query
        assert all(ev._expiry_floor <= q.expiry for q in ev.registry.values())
    check_aggregates(ev)
    check_summary(ev)


def check_absorbed_cells(dest: EvaluatorState, batch) -> None:
    """Each adopted cell indexes what registering its records over it builds."""
    for coord, _ in batch.cells:
        cell = dest.cells[coord]
        fresh = EvaluatorState(99, dest.geom, coord + coord)
        for qid in cell.qids:
            fresh.register_query(batch.records[qid])
        built = fresh.cells.get(coord, CellIndex())
        assert cell.qids == built.qids, coord
        assert cell.spatial_only == built.spatial_only, coord
        assert cell.inverted == built.inverted, coord


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_migrations_adopt_cells_whole(data):
    """Two evaluators split a 6x6 grid at a moving column cut and hand
    strips back and forth while queries arrive, objects match and cleaning
    evicts; each side's matches equal an evaluator that never migrates."""
    g = GridGeometry(6, 6)
    cut = data.draw(st.integers(0, 4))  # left owns columns 0..cut
    left = EvaluatorState(0, g, (0, 0, cut, 5))
    right = EvaluatorState(1, g, (cut + 1, 0, 5, 5))
    reference = EvaluatorState(9, g, (0, 0, 5, 5))
    vocab = ["p", "q", "r"]
    qid = ts = 0
    for _ in range(data.draw(st.integers(10, 40))):
        op = data.draw(st.sampled_from(["reg", "obj", "obj", "clean", "move"]))
        ts += 1
        if op == "reg":
            x0 = data.draw(st.integers(0, 5))
            y0 = data.draw(st.integers(0, 5))
            x1 = data.draw(st.integers(x0, 5))
            y1 = data.draw(st.integers(y0, 5))
            pred = data.draw(st.sampled_from(list(Predicate)))
            words = () if pred is Predicate.INSIDE else data.draw(
                st.sets(st.sampled_from(vocab), min_size=1, max_size=2))
            q = make_query(g, qid, x0, y0, x1, y1, text=words, predicate=pred,
                           expiry=ts + data.draw(st.integers(0, 20)))
            for ev in (left, right, reference):
                ev.register_query(q)
            qid += 1
        elif op == "obj":
            i = data.draw(st.integers(0, 5))
            j = data.draw(st.integers(0, 5))
            words = data.draw(st.sets(st.sampled_from(vocab), min_size=1, max_size=2))
            o = make_object(g, ts, i, j, text=words, ts=ts)
            owner = left if i <= cut else right
            assert owner.process_object(o) == reference.process_object(o)
        elif op == "clean":
            side = data.draw(st.sampled_from([left, right]))
            if side.bounds is not None:
                side.cleaning_step(ts, budget=data.draw(st.integers(1, 12)))
        else:
            to_right = data.draw(st.booleans())
            donor_width = cut + 1 if to_right else 5 - cut
            if not donor_width:
                continue
            k = data.draw(st.integers(1, donor_width))
            if to_right:
                src, dest, region = left, right, (cut - k + 1, 0, cut, 5)
                cut -= k
            else:
                src, dest, region = right, left, (cut + 1, 0, cut + k, 5)
                cut += k
            batch = take_region(src, region)
            dest.absorb_cells(batch)
            check_absorbed_cells(dest, batch)
            for ev in (left, right):
                check_aggregates(ev)
                check_summary(ev)
    for ev in (left, right):
        check_aggregates(ev)
        check_summary(ev)


def test_iter_region_is_row_major():
    assert list(iter_region((1, 2, 2, 3))) == [(1, 2), (2, 2), (1, 3), (2, 3)]


def plain_cell(cell: CellIndex) -> tuple:
    """A cell's lists by value, as plain frozensets."""
    return (frozenset(cell.qids), frozenset(cell.spatial_only),
            {kw: frozenset(hits) for kw, hits in cell.inverted.items()})


def reference_cell(qids: set[int], queries: dict[int, ContinuousQuery]) -> tuple:
    """What a plain-set index over `qids` holds."""
    inverted: dict[str, set[int]] = {}
    inside = set()
    for qid in qids:
        q = queries[qid]
        if q.predicate is Predicate.INSIDE:
            inside.add(qid)
        else:
            for kw in q.text:
                inverted.setdefault(kw, set()).add(qid)
    return (frozenset(qids), frozenset(inside),
            {kw: frozenset(hits) for kw, hits in inverted.items()})


def check_cell_format(cell: CellIndex, queries: dict[int, ContinuousQuery]) -> set[int]:
    """The format invariants of one cell; returns the ids of its mutable sets."""
    for hits in cell.inverted.values():
        if type(hits) is frozenset:
            assert len(hits) == 1
        else:
            assert type(hits) is set and hits
    joined = cell.spatial_only is cell.qids
    assert joined == (not cell.inverted)
    if joined:
        assert all(queries[qid].predicate is Predicate.INSIDE for qid in cell.qids)
    else:
        inside = cell.spatial_only
        assert inside is NO_QIDS or (type(inside) is set and inside)
    mutable = [cell.qids, cell.spatial_only, *cell.inverted.values()]
    return {id(s) for s in mutable if type(s) is set}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compact_cells_equal_a_plain_set_index(data):
    """Random register, process, clean, migrate and copy steps over two
    evaluators at a moving column cut: after each step every cell, and every
    snapshot taken so far, equals a plain-set index by value, keeps the list
    format, and shares no mutable set with any other cell or snapshot."""
    g = GridGeometry(6, 6)
    cut = data.draw(st.integers(0, 4))  # left owns columns 0..cut
    left = EvaluatorState(0, g, (0, 0, cut, 5))
    right = EvaluatorState(1, g, (cut + 1, 0, 5, 5))
    queries: dict[int, ContinuousQuery] = {}
    ref: dict[tuple[int, int], set[int]] = {c: set() for c in iter_region((0, 0, 5, 5))}
    snaps: list[tuple[CellIndex, tuple]] = []
    vocab = ["p", "q", "r"]
    qid = ts = 0
    for _ in range(data.draw(st.integers(10, 50))):
        op = data.draw(st.sampled_from(["reg", "reg", "obj", "clean", "move", "copy"]))
        ts += 1
        if op == "reg":
            x0 = data.draw(st.integers(0, 5))
            y0 = data.draw(st.integers(0, 5))
            x1 = data.draw(st.integers(x0, min(5, x0 + 2)))
            y1 = data.draw(st.integers(y0, min(5, y0 + 2)))
            pred = data.draw(st.sampled_from(list(Predicate)))
            words = () if pred is Predicate.INSIDE else data.draw(
                st.sets(st.sampled_from(vocab), min_size=1, max_size=2))
            q = make_query(g, qid, x0, y0, x1, y1, text=words, predicate=pred,
                           expiry=ts + data.draw(st.integers(0, 20)))
            queries[qid] = q
            for ev in (left, right):
                ev.register_query(q)
            for coord in iter_region((x0, y0, x1, y1)):
                ref[coord].add(qid)
            qid += 1
        elif op == "obj":
            i = data.draw(st.integers(0, 5))
            j = data.draw(st.integers(0, 5))
            o = make_object(g, ts, i, j, ts=ts,
                            text=data.draw(st.sets(st.sampled_from(vocab), min_size=1, max_size=2)))
            want = [MatchResult(k, o.oid, ts) for k in sorted(ref[(i, j)])
                    if ts <= queries[k].expiry and matches(o, queries[k])]
            assert (left if i <= cut else right).process_object(o) == want
        elif op == "clean":
            ev = data.draw(st.sampled_from([left, right]))
            if ev.bounds is None:
                continue
            budget = data.draw(st.integers(1, 12))
            x0, y0, x1, _ = ev.bounds
            width = x1 - x0 + 1
            start = ev._cursor
            for k in range(start, min(start + budget, ev.owned_cell_count())):
                coord = (x0 + k % width, y0 + k // width)
                ref[coord] = {h for h in ref[coord] if queries[h].expiry >= ts}
            ev.cleaning_step(ts, budget=budget)
        elif op == "move":
            to_right = data.draw(st.booleans())
            donor_width = cut + 1 if to_right else 5 - cut
            if not donor_width:
                continue
            k = data.draw(st.integers(1, donor_width))
            if to_right:
                src, dest, region = left, right, (cut - k + 1, 0, cut, 5)
                cut -= k
            else:
                src, dest, region = right, left, (cut + 1, 0, cut + k, 5)
                cut += k
            dest.absorb_cells(take_region(src, region))
        else:
            ev = data.draw(st.sampled_from([left, right]))
            if ev.cells:
                coord = data.draw(st.sampled_from(sorted(ev.cells)))
                snap = ev.cells[coord].copy()
                snaps.append((snap, reference_cell(ref[coord], queries)))
        owners: dict[int, int] = {}  # id of a mutable set -> the cell holding it
        held = [(coord, cell) for ev in (left, right) for coord, cell in ev.cells.items()]
        held_coords = {coord for coord, _ in held}
        assert len(held) == len(held_coords)
        for coord, cell in held:
            assert plain_cell(cell) == reference_cell(ref[coord], queries), coord
        for coord in iter_region((0, 0, 5, 5)):
            if coord not in held_coords:
                assert not ref[coord], coord
        for n, cell in enumerate([cell for _, cell in held] + [snap for snap, _ in snaps]):
            for ident in check_cell_format(cell, queries):
                assert owners.setdefault(ident, n) == n
        for snap, want in snaps:
            assert plain_cell(snap) == want
    for ev in (left, right):
        check_aggregates(ev)
        check_summary(ev)

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skystream.agrid import (
    ANY_KEYWORD,
    WILDCARD,
    AGrid,
    EmptyIntersectionError,
    GridGeometry,
    NoOverlapError,
    OutOfWorldError,
    RoutingUnit,
    SUMMARY_BLOCK,
    TilingError,
    WORLD,
    _ranges_mask,
    block_range,
    corner_shift_candidates,
    dump_partitioning,
    full_edge_neighbors,
    load_partitioning,
    mergeable_pairs,
    summary_contribution,
    uniform_partitioning,
)
from skystream.model import ContinuousQuery, Point, Predicate, Rect

from oracles import (
    effective_set,
    pending_gate_forwards,
    pinwheel_partitioning,
    random_recursive_partitioning,
    scan_range_owners,
)


def make_query(qid=1, mbr=Rect(0.1, 0.1, 0.2, 0.2), text=("coffee",), predicate=Predicate.OVERLAPS, expiry=10**9):
    return ContinuousQuery(qid, mbr, frozenset(text), predicate, expiry)


def paper_layout():
    """A 7x7 grid shaped like the introduction's walkthrough: partition A in
    the top-left spanning cells (0,5)..(3,6), B to its right, C underneath."""
    pm = {0: (0, 5, 3, 6), 1: (4, 5, 6, 6), 2: (0, 0, 6, 4)}
    return AGrid(7, 7, pm)


class TestCellGeometry:
    def test_cell_of_basic(self):
        g = AGrid(10, 10, {0: (0, 0, 9, 9)})
        assert g.cell_of(Point(0.0, 0.0)) == (0, 0)
        assert g.cell_of(Point(0.35, 0.99)) == (3, 9)

    def test_cell_of_out_of_world(self):
        g = AGrid(10, 10, {0: (0, 0, 9, 9)})
        with pytest.raises(OutOfWorldError):
            g.cell_of(Point(1.0, 0.5))

    def test_cell_range_half_open_boundary(self):
        # A query ending exactly on a cell boundary excludes the next cell.
        g = AGrid(10, 10, {0: (0, 0, 9, 9)})
        assert g.cell_range(Rect(0.0, 0.0, 0.3, 0.3)) == (0, 0, 2, 2)
        assert g.cell_range(Rect(0.25, 0.25, 0.3001, 0.35)) == (2, 2, 3, 3)

    def test_cell_range_clips_to_world(self):
        g = AGrid(10, 10, {0: (0, 0, 9, 9)})
        assert g.cell_range(Rect(-1.0, 0.95, 0.15, 2.0)) == (0, 9, 1, 9)
        with pytest.raises(EmptyIntersectionError):
            g.cell_range(Rect(2.0, 2.0, 3.0, 3.0))

    def test_tiling_validation(self):
        with pytest.raises(TilingError):
            AGrid(4, 4, {0: (0, 0, 3, 2)})  # top row uncovered
        with pytest.raises(TilingError):
            AGrid(4, 4, {0: (0, 0, 3, 3), 1: (0, 0, 0, 0)})  # overlap


def reference_cell_range(geom: GridGeometry, rect: Rect):
    """The cell range computed through the clipped Rect, as Rect.clip builds it.

    A copy kept apart from the program, written for any world rectangle and
    evaluated on the unit square, so the float expressions of
    `GridGeometry.cell_range` stay pinned bit for bit. None for no overlap.
    """
    w = WORLD
    xmin = max(rect.xmin, w.xmin)
    ymin = max(rect.ymin, w.ymin)
    xmax = min(rect.xmax, w.xmax)
    ymax = min(rect.ymax, w.ymax)
    if xmin >= xmax or ymin >= ymax:
        return None
    clipped = Rect(xmin, ymin, xmax, ymax)
    sx = geom.n / w.width
    sy = geom.m / w.height
    x0 = int(math.floor((clipped.xmin - w.xmin) * sx))
    y0 = int(math.floor((clipped.ymin - w.ymin) * sy))
    x1 = int(math.ceil((clipped.xmax - w.xmin) * sx)) - 1
    y1 = int(math.ceil((clipped.ymax - w.ymin) * sy)) - 1
    x0, y0 = max(x0, 0), max(y0, 0)
    x1 = min(max(x1, x0), geom.n - 1)
    y1 = min(max(y1, y0), geom.m - 1)
    return (x0, y0, x1, y1)


@st.composite
def grid_and_rect(draw, outside=False):
    world = WORLD
    n, m = draw(st.integers(1, 64)), draw(st.integers(1, 64))

    def coord(lo, hi, cells):
        span = hi - lo
        return draw(st.one_of(
            st.integers(-2, cells + 2).map(lambda k: lo + k * span / cells),  # cell lines
            st.sampled_from((lo, hi)),  # the world's edges
            st.floats(lo - span / 2, hi + span / 2),
        ))

    xs = sorted((coord(world.xmin, world.xmax, n), coord(world.xmin, world.xmax, n)))
    ys = sorted((coord(world.ymin, world.ymax, m), coord(world.ymin, world.ymax, m)))
    # one float wide, where rounding can put the range's end before its start
    if draw(st.booleans()):
        xs[1] = math.nextafter(xs[0], math.inf)
    if draw(st.booleans()):
        ys[1] = math.nextafter(ys[0], math.inf)
    if outside:
        # push the rect wholly past one side, possibly touching it
        side = draw(st.sampled_from(("left", "right", "down", "up")))
        gap = draw(st.sampled_from((0.0, 0.5, 3.0)))
        if side == "left":
            xs = [world.xmin - gap - (xs[1] - xs[0]), world.xmin - gap]
        elif side == "right":
            xs = [world.xmax + gap, world.xmax + gap + (xs[1] - xs[0])]
        elif side == "down":
            ys = [world.ymin - gap - (ys[1] - ys[0]), world.ymin - gap]
        else:
            ys = [world.ymax + gap, world.ymax + gap + (ys[1] - ys[0])]
    assume(xs[0] < xs[1] and ys[0] < ys[1])
    return GridGeometry(n, m), Rect(xs[0], ys[0], xs[1], ys[1])


class TestCellRangeBitIdentity:
    @settings(max_examples=400, deadline=None)
    @given(grid_and_rect())
    def test_matches_the_clipped_rect_formula(self, case):
        geom, rect = case
        want = reference_cell_range(geom, rect)
        # the ingest check and the clip agree on which ranges miss the world
        assert (want is None) == (not rect.intersects(WORLD))
        if want is None:
            with pytest.raises(EmptyIntersectionError):
                geom.cell_range(rect)
        else:
            got = geom.cell_range(rect)
            assert got == want
            assert all(type(v) is int for v in got)

    @settings(max_examples=150, deadline=None)
    @given(grid_and_rect(outside=True))
    def test_rect_outside_the_world_raises(self, case):
        geom, rect = case
        assert reference_cell_range(geom, rect) is None
        with pytest.raises(EmptyIntersectionError):
            geom.cell_range(rect)

    def test_edge_and_boundary_cases(self):
        g = GridGeometry(10, 10)
        for rect in (
            Rect(0.0, 0.0, 1.0, 1.0),  # the whole world
            Rect(0.3, 0.3, 0.4, 0.4),  # exactly one cell's lines
            Rect(-0.5, -0.5, 0.0001, 0.0001),  # crossing the low corner
            Rect(0.9999, 0.9999, 3.0, 3.0),  # crossing the high corner
            Rect(0.1, -2.0, 0.2, 5.0),  # spanning the world in y
        ):
            assert g.cell_range(rect) == reference_cell_range(g, rect)
        for rect in (Rect(1.0, 0.0, 2.0, 1.0), Rect(0.0, -1.0, 1.0, 0.0)):
            with pytest.raises(EmptyIntersectionError):
                g.cell_range(rect)  # touches the world along an edge only


class TestDominantCells:
    def test_dominant_cell_is_top_left_of_overlap(self):
        g = paper_layout()
        # Range whose own top-left sits inside partition A.
        crange = (2, 1, 5, 5)
        assert g.dominant_cell(0, crange) == (2, 5)

    def test_right_dominant_jumps_past_partition_edge(self):
        g = paper_layout()
        crange = (2, 1, 5, 5)
        # A's right edge is x=3, so the right jump lands at (4, 5) in B.
        assert g.right_dominant((2, 5), crange) == (4, 5)
        assert g.owner_of((4, 5)) == 1

    def test_bottom_dominant(self):
        g = paper_layout()
        crange = (2, 1, 5, 5)
        assert g.bottom_dominant((2, 5), crange) == (2, 4)

    def test_jumps_exit_range(self):
        g = paper_layout()
        crange = (0, 5, 3, 6)  # exactly partition A
        assert g.right_dominant((0, 6), crange) is None
        assert g.bottom_dominant((0, 6), crange) is None

    def test_no_overlap_error(self):
        g = paper_layout()
        with pytest.raises(NoOverlapError):
            g.dominant_cell(1, (0, 0, 2, 2))

    def test_point_routing(self):
        g = paper_layout()
        # Object landing in cell (2,5) belongs to partition A.
        assert g.owner_of((2, 5)) == 0
        assert g.route_point(Point(2.5 / 7, 5.5 / 7)) == 0


class TestNeighborSearch:
    def test_full_grid_visits_everything(self):
        g = paper_layout()
        pids, pops = g.neighbor_search_cells((0, 0, 6, 6))
        assert set(pids) == {0, 1, 2}
        assert pops <= 2 * 3 + 1

    def test_single_partition_range(self):
        g = paper_layout()
        pids, pops = g.neighbor_search_cells((1, 1, 2, 3))
        assert set(pids) == {2}
        assert pops == 1

    def test_pinwheel_layout(self):
        # Non-guillotine tilings are the hard case for corner-following walks.
        g = AGrid(3, 3, pinwheel_partitioning())
        pids, pops = g.neighbor_search_cells((0, 0, 2, 2))
        assert set(pids) == {0, 1, 2, 3, 4}
        assert pops <= 11
        for crange in [(0, 0, 1, 1), (1, 1, 2, 2), (0, 1, 1, 2), (1, 0, 2, 1)]:
            pids, _ = g.neighbor_search_cells(crange)
            assert set(pids) == scan_range_owners(g.cell_owner, crange), crange

    def test_matches_scan_oracle_on_random_tilings(self):
        rng = random.Random(7)
        for trial in range(40):
            n = rng.randrange(4, 33)
            m = rng.randrange(4, 33)
            pm = random_recursive_partitioning(rng, n, m, rng.randrange(2, 40))
            g = AGrid(n, m, pm)
            for _ in range(60):
                x0, x1 = sorted(rng.randrange(n) for _ in range(2))
                y0, y1 = sorted(rng.randrange(m) for _ in range(2))
                crange = (x0, y0, x1, y1)
                pids, pops = g.neighbor_search_cells(crange)
                assert len(pids) == len(set(pids))
                assert set(pids) == scan_range_owners(g.cell_owner, crange)
                assert pops <= 2 * len(pids) + 1

    def test_rect_interface_clips(self):
        g = paper_layout()
        assert set(g.neighbor_search(Rect(0.0, 0.8, 2.0, 2.0))) == {0, 1}


class TestPartitionGeometry:
    def test_uniform_partitioning_tiles(self):
        for k in (1, 2, 4, 6, 7, 9, 25):
            pm = uniform_partitioning(20, 20, k)
            assert len(pm) == k
            AGrid(20, 20, pm)  # validates

    @pytest.mark.parametrize("n, m, k", [(1, 4, 4), (1, 6, 6), (4, 1, 4)])
    def test_uniform_partitioning_tries_every_factor_pair(self, n, m, k):
        # the near-square pair fits neither way round; a strip of cells does
        pm = uniform_partitioning(n, m, k)
        assert sorted(pm.values()) == sorted((i, j, i, j) for i in range(n) for j in range(m))
        AGrid(n, m, pm)

    def test_full_edge_neighbors(self):
        pm = {0: (0, 0, 1, 3), 1: (2, 0, 3, 3), 2: (4, 0, 5, 1), 3: (4, 2, 5, 3)}
        assert full_edge_neighbors(pm, 0) == [(1, "right")]
        # 1 and 2 share only part of an edge: not shift-compatible.
        assert (2, "right") not in full_edge_neighbors(pm, 1)
        assert full_edge_neighbors(pm, 2) == [(3, "up")]

    def test_corner_candidates(self):
        # B hugs A's lower right corner: the bottom strip of A can move.
        pm = {0: (0, 0, 3, 3), 1: (4, 0, 5, 1), 2: (4, 2, 5, 3)}
        cands = corner_shift_candidates(pm, 0)
        assert (1, (0, 0, 3, 1)) in cands
        assert (2, (0, 2, 3, 3)) in cands
        assert len(cands) == 2

    def test_corner_candidate_interior_neighbor_excluded(self):
        # Neighbor strictly interior on A's side: moving a strip would split A.
        pm = {0: (0, 0, 3, 3), 1: (4, 0, 5, 0), 2: (4, 1, 5, 2), 3: (4, 3, 5, 3)}
        cands = corner_shift_candidates(pm, 0)
        assert all(nid != 2 for nid, _ in cands)

    def test_mergeable_pairs(self):
        pm = {0: (0, 0, 1, 3), 1: (2, 0, 3, 3), 2: (4, 0, 5, 1), 3: (4, 2, 5, 3)}
        assert mergeable_pairs(pm) == [(0, 1), (2, 3)]


class TestSerialization:
    def test_roundtrip(self):
        g = paper_layout()
        g.generation = 4
        text = dump_partitioning(g)
        assert text.splitlines()[0] == "agrid 7 7 4"
        g2 = load_partitioning(text)
        assert g2.pm == g.pm
        assert g2.generation == 4
        assert (g2.cell_owner == g.cell_owner).all()

    def test_load_rejects_bad_tiling(self):
        with pytest.raises(TilingError):
            load_partitioning("agrid 4 4 0\n0 0 0 3 2\n")

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
    def test_load_rejects_text_without_a_header(self, text):
        with pytest.raises(ValueError, match="no header"):
            load_partitioning(text)

    def test_load_rejects_a_pid_listed_twice(self):
        # the second line alone would tile the grid; it must not overwrite the first
        with pytest.raises(ValueError, match="partition 0 is listed twice"):
            load_partitioning("agrid 4 4 0\n0 0 0 1 3\n0 0 0 3 3\n")


class TestSummaryContribution:
    def test_overlaps_contributes_all(self):
        q = make_query(text=("b", "a", "c"))
        assert summary_contribution(q) == frozenset({"a", "b", "c"})

    def test_contains_single_filter_keyword_lex(self):
        q = make_query(text=("beta", "alpha"), predicate=Predicate.CONTAINS)
        assert summary_contribution(q) == frozenset({"alpha"})

    def test_inside_wildcard(self):
        q = ContinuousQuery(1, Rect(0, 0, 1, 1), frozenset(), Predicate.INSIDE, 10)
        assert summary_contribution(q) == frozenset({ANY_KEYWORD})


def summary_unit() -> RoutingUnit:
    """A replica whose summaries are driven directly, apart from its grid,
    which is one summary block (0, 0)."""
    return RoutingUnit(0, AGrid(4, 4, {0: (0, 0, 3, 3)}))


CELL = (1, 2)  # any cell of summary_unit's grid
ONE_BLOCK = (0, 0, 0, 0)  # the block range of every query on summary_unit's grid


class TestRouterSummaries:
    def test_entry_survives_refresh_until_watermarked(self):
        u = summary_unit()
        u.apply_keyword_forward(("r", 0), 0, 0, frozenset({"coffee"}), ONE_BLOCK)
        assert u.should_forward_object(frozenset({"coffee"}), 0, CELL)
        # Refresh built before the evaluator saw the registration: keyword stays.
        assert u.apply_refresh(0, {}, {("r", 0): -1}, 0)
        assert u.should_forward_object(frozenset({"coffee"}), 0, CELL)
        # Refresh proving the registration was incorporated: entry pruned, and
        # the rebuilt set (empty here, say the query expired) governs.
        u.apply_refresh(0, {}, {("r", 0): 0}, 0)
        assert not u.should_forward_object(frozenset({"coffee"}), 0, CELL)

    def test_refresh_keeps_live_keywords(self):
        u = summary_unit()
        u.apply_keyword_forward(("r", 0), 0, 0, frozenset({"coffee"}), ONE_BLOCK)
        u.apply_refresh(0, {(0, 0): frozenset({"coffee"})}, {("r", 0): 0}, 0)
        assert u.should_forward_object(frozenset({"coffee"}), 0, CELL)
        assert not u.should_forward_object(frozenset({"tea"}), 0, CELL)

    def test_epoch_gating_discards_stale_destination_refresh(self):
        u = summary_unit()
        u.premerge(dst=1, src=0)
        u.apply_keyword_forward(("r", 0), 0, 0, frozenset({"coffee"}), ONE_BLOCK)
        # Destination refresh built before it absorbed the moved cells.
        assert not u.apply_refresh(1, {}, {}, 0)
        assert u.should_forward_object(frozenset({"coffee"}), 1, CELL)  # union view holds
        # Post-absorb refresh (epoch 1) is accepted and ends the union view.
        assert u.apply_refresh(1, {(0, 0): frozenset({"coffee"})}, {}, 1)
        assert 1 not in u.uview
        assert u.should_forward_object(frozenset({"coffee"}), 1, CELL)

    def test_wildcard_forwards_everything(self):
        u = summary_unit()
        u.apply_keyword_forward(("r", 1), 2, 0, frozenset({ANY_KEYWORD}), ONE_BLOCK)
        assert u.should_forward_object(frozenset({"whatever"}), 2, CELL)

    def test_gate_reads_the_block_of_the_objects_cell(self):
        u = RoutingUnit(0, AGrid(8, 8, {0: (0, 0, 7, 7)}))  # four summary blocks
        u.apply_refresh(0, {(0, 0): frozenset({"tea"}), (1, 1): frozenset({ANY_KEYWORD})}, {}, 0)
        assert u.should_forward_object(frozenset({"tea"}), 0, (3, 3))
        assert not u.should_forward_object(frozenset({"tea"}), 0, (4, 3))  # block (1, 0)
        assert u.should_forward_object(frozenset({"rye"}), 0, (7, 7))  # the wildcard's block
        assert effective_set(u, 0, (1, 0)) == frozenset()
        assert effective_set(u, 0) == frozenset({"tea", ANY_KEYWORD})
        # a pending registration opens only the blocks of its range
        u.apply_keyword_forward(("r", 1), 0, 0, frozenset({"tea"}), (1, 0, 1, 0))
        assert u.should_forward_object(frozenset({"tea"}), 0, (4, 3))
        assert not u.should_forward_object(frozenset({"tea"}), 0, (0, 4))  # block (0, 1)
        assert effective_set(u, 0, (1, 0)) == frozenset({"tea"})
        assert effective_set(u, 0, (0, 1)) == frozenset()

    def test_repeated_ranges_give_the_mask_of_the_distinct_ones(self):
        rng = random.Random(4)
        width = 8
        ranges = []
        for _ in range(40):
            bx0, by0 = rng.randrange(width), rng.randrange(width)
            ranges.append((bx0, by0, rng.randrange(bx0, width), rng.randrange(by0, width)))
        repeated = ranges + rng.choices(ranges, k=200)
        rng.shuffle(repeated)
        want = 0
        for bx0, by0, bx1, by1 in ranges:
            for bx in range(bx0, bx1 + 1):
                for by in range(by0, by1 + 1):
                    want |= 1 << (by * width + bx)
        assert _ranges_mask(ranges, width) == want
        assert _ranges_mask(repeated, width) == want

    def test_counts_hold_only_pending_contributions(self):
        u = summary_unit()
        for qid, text in enumerate([("coffee", "tea"), ("coffee",), ("beans", "tea")]):
            u.register_query(make_query(qid=qid, text=text))
        u.register_query(ContinuousQuery(9, Rect(0.1, 0.1, 0.2, 0.2), frozenset(),
                                         Predicate.INSIDE, 10**9))
        # a forwarded entry from the other replica stays pending
        u.apply_keyword_forward(("r", 1), 0, 0, frozenset({"mocha", "tea"}), ONE_BLOCK)
        before = effective_set(u, 0)
        assert u.pending_kw[0]["tea"] == [ONE_BLOCK] * 3  # two from replica 0
        assert u.should_forward_object(frozenset({"tea"}), 0, CELL)
        assert u.pending_kw[0]["tea"] == 1  # read once: the bitmask of block (0, 0)
        # the evaluator has incorporated every registration of replica 0 and
        # reports a rebuilt set that still holds all of them
        assert u.apply_refresh(0, {(0, 0): before - {"mocha"}}, {("r", 0): 3}, 0)
        assert u.pending_kw[0] == {"mocha": ONE_BLOCK, "tea": ONE_BLOCK}
        assert [len(p) for p in u.pending[0].values()] == [0, 1]
        assert effective_set(u, 0) == before
        # once the last pending entry is proven, nothing is left behind
        u.apply_refresh(0, {(0, 0): before}, {("r", 0): 3, ("r", 1): 0}, 0)
        assert 0 not in u.pending_kw
        assert [len(p) for p in u.pending[0].values()] == [0, 0]
        assert effective_set(u, 0) == before

    def test_entries_of_an_origin_must_arrive_in_seq_order(self):
        u = summary_unit()
        u.apply_keyword_forward(("r", 1), 0, 4, frozenset({"tea"}), ONE_BLOCK)
        with pytest.raises(ValueError, match="out of order"):
            u.apply_keyword_forward(("r", 1), 0, 6, frozenset({"tea"}), ONE_BLOCK)
        u.apply_keyword_forward(("r", 1), 0, 5, frozenset({"tea"}), ONE_BLOCK)
        assert u.pending[0][("r", 1)].head == 4 and len(u.pending[0][("r", 1)]) == 2

    def test_query_range_across_a_block_edge_opens_both_blocks(self):
        u = RoutingUnit(0, AGrid(8, 8, {0: (0, 0, 7, 7)}))  # four summary blocks
        # cells x 3..4 of row 2 sit on both sides of the edge at x = 4
        q = make_query(mbr=Rect(0.4, 0.3, 0.55, 0.35), text=("tea",))
        assert u.grid.cell_range(q.mbr) == (3, 2, 4, 2)
        assert u.register_query(q).blocks == (0, 0, 1, 0)
        assert u.should_forward_object(frozenset({"tea"}), 0, (0, 0))
        assert u.should_forward_object(frozenset({"tea"}), 0, (7, 3))
        assert not u.should_forward_object(frozenset({"tea"}), 0, (3, 4))
        assert not u.should_forward_object(frozenset({"tea"}), 0, (7, 7))
        assert not u.should_forward_object(frozenset({"mocha"}), 0, (3, 2))
        assert u.pending_forwards == 2

    def test_union_view_reads_the_source_entries_of_the_block(self):
        u = RoutingUnit(0, AGrid(8, 8, {0: (0, 0, 3, 7), 1: (4, 0, 7, 7)}))
        u.premerge(dst=1, src=0)
        u.apply_keyword_forward(("r", 1), 0, 0, frozenset({"tea"}), (0, 1, 0, 1))
        u.apply_keyword_forward(("e", 0), 0, 0, WILDCARD, (1, 0, 1, 0))
        # the source's entries gate the destination in their own blocks only
        assert u.should_forward_object(frozenset({"tea"}), 1, (2, 5))
        assert not u.should_forward_object(frozenset({"tea"}), 1, (5, 5))
        assert u.should_forward_object(frozenset({"rye"}), 1, (5, 2))
        assert not u.should_forward_object(frozenset({"rye"}), 1, (2, 2))
        assert effective_set(u, 1, (1, 0)) == WILDCARD
        # the destination's post-absorb refresh ends the view
        assert u.apply_refresh(1, {}, {}, 1)
        assert not u.should_forward_object(frozenset({"rye"}), 1, (5, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gate_without_refresh_matches_the_pending_oracle(self, data):
        n = data.draw(st.integers(1, 14), "n")
        m = data.draw(st.integers(1, 14), "m")
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), "seed"))
        pm = random_recursive_partitioning(rng, n, m, rng.randint(1, 4))
        a = RoutingUnit(0, AGrid(n, m, pm))
        b = RoutingUnit(1, AGrid(n, m, pm))  # gets every entry forwarded
        words = ["tea", "rye", "jam", "oat"]
        entries: dict[int, list] = {pid: [] for pid in pm}  # pid -> (keywords, cell range)
        for qid in range(data.draw(st.integers(1, 12), "queries")):
            pred = rng.choice(list(Predicate))
            text = frozenset(rng.sample(words, rng.randint(1, 2)))
            x0, y0 = rng.random(), rng.random()
            mbr = Rect(x0, y0, x0 + rng.uniform(0.01, 0.6), y0 + rng.uniform(0.01, 0.6))
            q = ContinuousQuery(qid, mbr, text, pred, 10**9)
            d = a.register_query(q)
            for pid, seq, kws in d.entries:
                b.apply_keyword_forward(a.origin, pid, seq, kws, d.blocks)
                entries[pid].append((kws, a.grid.cell_range(mbr)))
            # gate reads between registrations turn some ranges into bitmasks
            for _ in range(4):
                cell = (rng.randrange(n), rng.randrange(m))
                pid = a.grid.owner_of(cell)
                text = frozenset(rng.sample(words, rng.randint(0, 2)))
                want = pending_gate_forwards(entries[pid], text, cell, SUMMARY_BLOCK)
                assert a.should_forward_object(text, pid, cell) == want
                assert b.should_forward_object(text, pid, cell) == want


class TestRoutingUnit:
    def unit(self, uid=0):
        return RoutingUnit(uid, paper_layout())

    def test_register_targets_match_neighbor_search(self):
        u = self.unit()
        q = make_query(mbr=Rect(0.0, 0.8, 0.9, 0.95))
        d = u.register_query(q)
        assert set(d.targets) == {0, 1}
        assert [pid for pid, _, _ in d.entries] == d.targets
        assert {kws for _, _, kws in d.entries} == {frozenset({"coffee"})}

    def test_second_identical_query_adds_no_new_keywords(self):
        u = self.unit()
        q1 = make_query(qid=1)
        q2 = make_query(qid=2)
        def sets():
            return {pid: effective_set(u, pid) for pid in u.grid.pm}

        empty = sets()
        u.register_query(q1)
        after_q1 = sets()
        u.register_query(q2)
        assert after_q1 != empty
        assert sets() == after_q1

    def test_replicas_converge(self):
        a, b = self.unit(0), self.unit(1)
        q = make_query(mbr=Rect(0.0, 0.8, 0.9, 0.95), text=("espresso", "beans"))
        d = a.register_query(q)
        for pid, seq, kws in d.entries:
            b.apply_keyword_forward(a.origin, pid, seq, kws, d.blocks)
        for pid in d.targets:
            assert effective_set(a, pid) == effective_set(b, pid)
        # A refresh stream applied to both keeps them identical.
        for unit in (a, b):
            unit.apply_refresh(0, {(0, 1): frozenset({"espresso", "beans"})}, {a.origin: 10}, 0)
        assert effective_set(a, 0) == effective_set(b, 0)

    def test_object_filtering(self):
        u = self.unit()
        q = make_query(mbr=Rect(0.0, 0.8, 0.4, 0.95), text=("espresso",))
        u.register_query(q)
        assert u.should_forward_object(frozenset({"espresso", "milk"}), 0, (1, 5))
        assert not u.should_forward_object(frozenset({"tea"}), 0, (1, 5))

import random

import pytest

from skystream.agrid import (
    ANY_KEYWORD,
    AGrid,
    EmptyIntersectionError,
    NoOverlapError,
    OutOfWorldError,
    RouterSummaries,
    RoutingUnit,
    SummaryConfig,
    TilingError,
    corner_shift_candidates,
    dump_partitioning,
    full_edge_neighbors,
    load_partitioning,
    mergeable_pairs,
    summary_contribution,
    uniform_partitioning,
)
from skystream.model import ContinuousQuery, Point, Predicate, Rect

from oracles import pinwheel_partitioning, random_recursive_partitioning, scan_range_owners


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


class TestSummaryContribution:
    def test_overlaps_contributes_all(self):
        q = make_query(text=("b", "a", "c"))
        assert summary_contribution(q) == frozenset({"a", "b", "c"})

    def test_contains_single_filter_keyword_lex(self):
        q = make_query(text=("beta", "alpha"), predicate=Predicate.CONTAINS)
        assert summary_contribution(q) == frozenset({"alpha"})

    def test_contains_rarest_mode(self):
        cfg = SummaryConfig(contains_mode="filter_rarest", freq={"alpha": 50, "beta": 2})
        q = make_query(text=("beta", "alpha"), predicate=Predicate.CONTAINS)
        assert summary_contribution(q, cfg) == frozenset({"beta"})

    def test_contains_full_mode(self):
        cfg = SummaryConfig(contains_mode="full")
        q = make_query(text=("beta", "alpha"), predicate=Predicate.CONTAINS)
        assert summary_contribution(q, cfg) == frozenset({"alpha", "beta"})

    def test_inside_wildcard(self):
        q = ContinuousQuery(1, Rect(0, 0, 1, 1), frozenset(), Predicate.INSIDE, 10)
        assert summary_contribution(q) == frozenset({ANY_KEYWORD})


class TestRouterSummaries:
    def test_entry_survives_refresh_until_watermarked(self):
        s = RouterSummaries()
        s.add_entry(0, ("r", 0), 0, frozenset({"coffee"}))
        assert s.should_forward(0, frozenset({"coffee"}))
        # Refresh built before the evaluator saw the registration: keyword stays.
        assert s.apply_refresh(0, (), {("r", 0): -1}, 0)
        assert s.should_forward(0, frozenset({"coffee"}))
        # Refresh proving the registration was incorporated: entry pruned, and
        # the rebuilt set (empty here, say the query expired) governs.
        s.apply_refresh(0, (), {("r", 0): 0}, 0)
        assert not s.should_forward(0, frozenset({"coffee"}))

    def test_refresh_keeps_live_keywords(self):
        s = RouterSummaries()
        s.add_entry(0, ("r", 0), 0, frozenset({"coffee"}))
        s.apply_refresh(0, ("coffee",), {("r", 0): 0}, 0)
        assert s.should_forward(0, frozenset({"coffee"}))
        assert not s.should_forward(0, frozenset({"tea"}))

    def test_epoch_gating_discards_stale_destination_refresh(self):
        s = RouterSummaries()
        s.premerge(dst=1, src=0)
        s.add_entry(0, ("r", 0), 0, frozenset({"coffee"}))
        # Destination refresh built before it absorbed the moved cells.
        assert not s.apply_refresh(1, (), {}, 0)
        assert s.should_forward(1, frozenset({"coffee"}))  # union view holds
        # Post-absorb refresh (epoch 1) is accepted and ends the union view.
        assert s.apply_refresh(1, ("coffee",), {}, 1)
        assert 1 not in s.uview
        assert s.should_forward(1, frozenset({"coffee"}))

    def test_cancel_premerge(self):
        s = RouterSummaries()
        s.premerge(1, 0)
        s.cancel_premerge(1)
        assert s.apply_refresh(1, ("x",), {}, 0)

    def test_wildcard_forwards_everything(self):
        s = RouterSummaries()
        s.add_entry(2, ("r", 1), 0, frozenset({ANY_KEYWORD}))
        assert s.should_forward(2, frozenset({"whatever"}))


class TestRoutingUnit:
    def unit(self, uid=0):
        return RoutingUnit(uid, paper_layout())

    def test_register_targets_match_neighbor_search(self):
        u = self.unit()
        q = make_query(mbr=Rect(0.0, 0.8, 0.9, 0.95))
        d = u.register_query(q)
        assert set(d.targets) == {0, 1}
        assert d.contribution == frozenset({"coffee"})

    def test_second_identical_query_adds_no_new_keywords(self):
        u = self.unit()
        q1 = make_query(qid=1)
        q2 = make_query(qid=2)
        def sets():
            return {pid: u.summaries.effective_set(pid) for pid in u.grid.pm}

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
            b.apply_keyword_forward(a.origin, pid, seq, kws)
        for pid in d.targets:
            assert a.summaries.effective_set(pid) == b.summaries.effective_set(pid)
        # A refresh stream applied to both keeps them identical.
        for unit in (a, b):
            unit.apply_refresh(0, ("espresso", "beans"), {a.origin: 10}, 0)
        assert a.summaries.effective_set(0) == b.summaries.effective_set(0)

    def test_object_filtering(self):
        u = self.unit()
        q = make_query(mbr=Rect(0.0, 0.8, 0.4, 0.95), text=("espresso",))
        u.register_query(q)
        assert u.should_forward_object(frozenset({"espresso", "milk"}), 0)
        assert not u.should_forward_object(frozenset({"tea"}), 0)

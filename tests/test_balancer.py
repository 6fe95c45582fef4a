"""Rebalance selection, initial decomposition, and the cell-size advisor."""

import random

import numpy as np
import pytest

from skystream.agrid import AGrid, corner_shift_candidates, full_edge_neighbors
from skystream.balancer import (
    GranularityModel,
    OpKind,
    RebalanceOp,
    WorkloadSnapshot,
    advise_granularity,
    best_gridline_split,
    cost_reduction_split_merge,
    enumerate_candidates,
    initial_partitioning,
    routing_load,
    select_rebalance_op,
    transfer_overhead_split_merge,
)
from skystream.evaluator import EvaluatorStats, ShiftCandidate, SplitChoice

from oracles import random_recursive_partitioning


class TestCostFormulas:
    def test_split_merge_reduction(self):
        assert cost_reduction_split_merge(10, 5, 5, 2, 2) == 5
        assert cost_reduction_split_merge(8, 4, 4, 0, 0) == 4  # ideal halving

    def test_merge_hotspot_rejected_by_sign(self):
        # merging a pair at least as heavy as the split target gains nothing
        assert cost_reduction_split_merge(10, 5, 5, 6, 6) <= 0

    def test_transfer_overhead(self):
        assert transfer_overhead_split_merge(0, 0, 3.5) == 0
        assert transfer_overhead_split_merge(100, 50, 1.0) == 150
        assert transfer_overhead_split_merge(100, 50, 0.0) == 0

    def test_edge_strip_worked_example(self):
        # the donor reports the strip's exact cost and copies
        pm = {0: (0, 0, 3, 7), 1: (4, 0, 7, 7)}
        strip = ShiftCandidate(1, (3, 0, 3, 7), moved_cost=4, moved_queries=8)
        snap = WorkloadSnapshot(pm, {0: make_stats(0, 10, 20, strips=[strip]),
                                     1: make_stats(1, 2, 3)})
        [op] = enumerate_candidates(snap, beta=1.0)
        assert op == RebalanceOp(OpKind.SHIFT_H, 0, 1, cr=10 - max(10 - 4, 2 + 4),
                                 ct=8.0, region=(3, 0, 3, 7))
        assert (op.cr, op.ct) == (4, 8.0)

    def test_edge_strip_free_when_no_copies_move(self):
        pm = {0: (0, 0, 7, 3), 1: (0, 4, 7, 7)}
        strip = ShiftCandidate(1, (0, 2, 7, 3), moved_cost=3, moved_queries=0)
        snap = WorkloadSnapshot(pm, {0: make_stats(0, 6, 0, strips=[strip]),
                                     1: make_stats(1, 0, 0)})
        [op] = enumerate_candidates(snap, beta=1.0)
        assert op.kind is OpKind.SHIFT_V and (op.cr, op.ct) == (3, 0.0)

    def test_shift_wrong_direction(self):
        # a strip onto an equally loaded neighbor, or one that overshoots
        # the lighter neighbor, cannot lower the maximum
        pm = {0: (0, 0, 3, 7), 1: (4, 0, 7, 7)}
        for cost_b, moved in ((10, 1), (8, 6)):
            strip = ShiftCandidate(1, (3, 0, 3, 7), moved_cost=moved, moved_queries=0)
            snap = WorkloadSnapshot(pm, {0: make_stats(0, 10, 4, strips=[strip]),
                                         1: make_stats(1, cost_b, 4)})
            [op] = enumerate_candidates(snap, beta=0.0)
            assert op.cr <= 0
            assert select_rebalance_op(snap, beta=0.0, spare=None) is None


def make_stats(pid, cost, copies, split=None, strips=(), corners=()):
    return EvaluatorStats(
        pid=pid,
        overall_cost=cost,
        query_copies=copies,
        best_split=split,
        strips=tuple(strips),
        corners=tuple(corners),
    )


def column_strips(neighbor, rect, costs, copies):
    """The strips a donor at `rect` reports toward a right-hand neighbor."""
    x0, y0, x1, y1 = rect
    out, run_c, run_q = [], 0, 0
    for i in range(x1, x0, -1):
        run_c += costs[i - x0]
        run_q += copies[i - x0]
        if costs[i - x0]:
            out.append(ShiftCandidate(neighbor, (i, y0, x1, y1), run_c, run_q))
    return out


def even_split(cost, q):
    low, high = cost // 2, cost - cost // 2
    return SplitChoice("h", 0, abs(2 * low - cost), low, high, q // 2, q - q // 2)


class TestSnapshot:
    def test_requires_complete_stats(self):
        pm = {0: (0, 0, 3, 3), 1: (4, 0, 7, 3)}
        with pytest.raises(ValueError):
            WorkloadSnapshot(pm, {0: make_stats(0, 5, 1)})

    def test_alpha_and_heaviest_tiebreak(self):
        pm = {0: (0, 0, 3, 3), 1: (4, 0, 7, 3)}
        snap = WorkloadSnapshot(pm, {0: make_stats(0, 7, 1), 1: make_stats(1, 7, 9)})
        assert snap.heaviest == 0


class TestSelectRebalanceOp:
    def test_balanced_snapshot_yields_nothing(self):
        pm = {0: (0, 0, 3, 7), 1: (4, 0, 7, 7)}
        snap = WorkloadSnapshot(pm, {0: make_stats(0, 10, 4), 1: make_stats(1, 10, 4)})
        assert select_rebalance_op(snap, beta=1.0, spare=2) is None

    def test_forced_shift_halves_the_hotspot(self):
        pm = {0: (0, 0, 3, 7), 1: (4, 0, 7, 7)}
        strips = column_strips(1, pm[0], [25, 25, 25, 25], [2, 2, 2, 2])
        snap = WorkloadSnapshot(pm, {0: make_stats(0, 100, 8, strips=strips),
                                     1: make_stats(1, 0, 0)})
        op = select_rebalance_op(snap, beta=0.0, spare=2)
        assert op is not None
        assert op.cr == 50
        assert op.kind is OpKind.SHIFT_H and op.src == 0 and op.dst == 1
        assert op.region == (2, 0, 3, 7)

    def test_beta_can_veto_everything(self):
        pm = {0: (0, 0, 3, 7), 1: (4, 0, 7, 7)}
        strips = column_strips(1, pm[0], [25, 25, 25, 25], [2, 2, 2, 2])
        snap = WorkloadSnapshot(pm, {0: make_stats(0, 100, 8, strips=strips),
                                     1: make_stats(1, 0, 0)})
        # the one-column strip has Cr 25 at Ct 2*beta, the halving strip Cr 50
        # at Ct 4*beta; beta=20 vetoes both (40 > 25, 80 > 50)
        assert select_rebalance_op(snap, beta=20.0, spare=2) is None
        assert select_rebalance_op(snap, beta=1.0, spare=2) is not None

    @pytest.mark.parametrize("beta", [-1.0, float("nan")])
    def test_a_transfer_weight_that_is_no_cost_is_rejected(self, beta):
        # moving the strip raises the maximum from 10 to 17: C_r -7; a beta
        # of -1 makes C_t -10 and picked it, a nan beta vetoed every op
        pm = {0: (0, 0, 3, 7), 1: (4, 0, 7, 7)}
        strip = ShiftCandidate(1, (3, 0, 3, 7), moved_cost=8, moved_queries=10)
        snap = WorkloadSnapshot(pm, {0: make_stats(0, 10, 10, strips=[strip]),
                                     1: make_stats(1, 9, 4)})
        with pytest.raises(ValueError):
            select_rebalance_op(snap, beta=beta, spare=None)
        assert select_rebalance_op(snap, beta=0.0, spare=None) is None

    def test_split_merge_when_no_full_edge_neighbor_exists(self):
        # the heavy bottom half borders two quarter partitions, neither
        # sharing a complete edge, so splitting it and merging the light
        # pair is the only available operation
        pm = {
            0: (0, 0, 7, 3),  # heavy, bottom half
            1: (0, 4, 3, 7),  # top-left
            2: (4, 4, 7, 7),  # top-right
        }
        stats = {
            0: make_stats(0, 100, 40, split=even_split(100, 40)),
            1: make_stats(1, 20, 10),
            2: make_stats(2, 30, 12),
        }
        snap = WorkloadSnapshot(pm, stats)
        op = select_rebalance_op(snap, beta=0.01, spare=9)
        assert op is not None and op.kind is OpKind.SPLIT_MERGE
        assert op.src == 0 and op.dst == 9
        # 1 and 2 merge; 1 has fewer copies so it moves onto 2's worker
        assert op.merge_keep == 2 and op.merge_move == 1
        assert op.cr == 100 - max(50, 50, 20 + 30) == 50
        assert op.ct == pytest.approx(0.01 * (20 + 10))

    def test_heavy_merge_pair_kills_the_split(self):
        # same geometry but the only mergeable pair outweighs the split
        # target: C_r < 0, so no operation survives the filter
        pm = {0: (0, 0, 7, 3), 1: (0, 4, 3, 7), 2: (4, 4, 7, 7)}
        stats = {
            0: make_stats(0, 100, 40, split=even_split(100, 40)),
            1: make_stats(1, 96, 10),
            2: make_stats(2, 94, 12),
        }
        assert select_rebalance_op(WorkloadSnapshot(pm, stats), beta=0.01, spare=9) is None

    def test_corner_shift_scored_exactly(self):
        pm = {0: (0, 0, 3, 5), 1: (4, 3, 5, 5), 2: (4, 0, 5, 2)}
        corners = [
            ShiftCandidate(1, (0, 3, 3, 5), moved_cost=30, moved_queries=5),
            ShiftCandidate(2, (0, 0, 3, 2), moved_cost=20, moved_queries=4),
        ]
        stats = {
            0: make_stats(0, 100, 50, corners=corners),
            1: make_stats(1, 10, 5),
            2: make_stats(2, 60, 20),
        }
        op = select_rebalance_op(WorkloadSnapshot(pm, stats), beta=1.0, spare=None)
        assert op is not None and op.kind is OpKind.SHIFT_CORNER
        assert op.dst == 1 and op.region == (0, 3, 3, 5)
        assert op.cr == 100 - max(100 - 30, 10 + 30)  # exact, not estimated
        assert op.ct == 5.0


class TestSelectionOracle:
    """Independent re-enumeration of every candidate, then argmax."""

    @staticmethod
    def oracle(snap: WorkloadSnapshot, beta: float, spare):
        pm = snap.pm
        src = min(pm, key=lambda p: (-snap.cost(p), p))
        ca = snap.cost(src)
        cands = []
        sx0, sy0, sx1, sy1 = pm[src]
        for c in snap.stats[src].strips:
            x0, y0, x1, y1 = pm[c.neighbor]
            # a strip across a vertical edge spans the donor's full height
            rank, kind = (0, OpKind.SHIFT_H) if (y0, y1) == (sy0, sy1) else (1, OpKind.SHIFT_V)
            cb = snap.cost(c.neighbor)
            cr = ca - max(ca - c.moved_cost, cb + c.moved_cost)
            ct = beta * c.moved_queries
            cands.append((cr, rank, src, c.neighbor, c.region,
                          RebalanceOp(kind, src, c.neighbor, cr, ct, region=c.region)))
        for c in snap.stats[src].corners:
            cb = snap.cost(c.neighbor)
            cr = ca - max(ca - c.moved_cost, cb + c.moved_cost)
            ct = beta * c.moved_queries
            cands.append(
                (cr, 2, src, c.neighbor, c.region, RebalanceOp(OpKind.SHIFT_CORNER, src, c.neighbor, cr, ct, region=c.region))
            )
        split = snap.stats[src].best_split
        if split is not None and spare is not None:
            best_pair = None
            for a in pm:
                for b in pm:
                    if a >= b or src in (a, b):
                        continue
                    ax0, ay0, ax1, ay1 = pm[a]
                    bx0, by0, bx1, by1 = pm[b]
                    touch = (ay0 == by0 and ay1 == by1 and (bx0 == ax1 + 1 or bx1 + 1 == ax0)) or (
                        ax0 == bx0 and ax1 == bx1 and (by0 == ay1 + 1 or by1 + 1 == ay0)
                    )
                    if not touch:
                        continue
                    key = (snap.cost(a) + snap.cost(b), (a, b))
                    if best_pair is None or key < best_pair[0]:
                        best_pair = (key, (a, b))
            if best_pair is not None:
                y, z = best_pair[1]
                if (snap.query_copies(z), -z) > (snap.query_copies(y), -y):
                    y, z = z, y
                cr = ca - max(split.cost_low, split.cost_high, snap.cost(y) + snap.cost(z))
                ct = beta * (split.q_high + snap.query_copies(z))
                cands.append(
                    (cr, 3, src, spare, (),
                     RebalanceOp(OpKind.SPLIT_MERGE, src, spare, cr, ct, merge_keep=y, merge_move=z, split=split))
                )
        viable = [c for c in cands if c[5].cr > c[5].ct]
        if not viable:
            return None
        viable.sort(key=lambda c: (-c[0], c[1], c[2], c[3], c[4]))
        return viable[0][5]

    def test_matches_brute_force_on_random_snapshots(self):
        rng = random.Random(2024)
        agree_some_op = 0
        for trial in range(100):
            n = m = rng.choice([8, 12, 16])
            parts = rng.randint(2, 6)
            pm = random_recursive_partitioning(rng, n, m, parts)
            stats = {}
            for pid, rect in pm.items():
                cost = rng.randint(0, 200)
                copies = rng.randint(0, 80)
                split = None
                if (rect[0], rect[1]) != (rect[2], rect[3]) and rng.random() < 0.8:
                    low = rng.randint(0, cost)
                    ql = rng.randint(0, copies)
                    split = SplitChoice("h", rect[1], abs(2 * low - cost), low, cost - low, ql, copies - ql)
                corners = []
                for nid, region in corner_shift_candidates(pm, pid):
                    corners.append(
                        ShiftCandidate(nid, region, rng.randint(0, cost), rng.randint(0, copies))
                    )
                stats[pid] = make_stats(pid, cost, copies, split=split,
                                        strips=random_strips(rng, pm, pid, cost, copies),
                                        corners=corners)
            snap = WorkloadSnapshot(pm, stats)
            beta = rng.choice([0.0, 0.1, 1.0, 3.0])
            spare = rng.choice([None, 99])
            got = select_rebalance_op(snap, beta, spare)
            want = self.oracle(snap, beta, spare)
            assert got == want, f"trial {trial}: {got} != {want}"
            if got is not None:
                agree_some_op += 1
                assert got.cr > got.ct
        assert agree_some_op > 20  # the sweep must actually exercise selections


def random_strips(rng, pm, pid, cost, copies):
    """Random but well-formed strips toward each full-edge neighbor of `pid`."""
    x0, y0, x1, y1 = pm[pid]
    out = []
    for nid, side in full_edge_neighbors(pm, pid):
        lo, hi = (x0, x1) if side in ("left", "right") else (y0, y1)
        for idx in sorted(rng.sample(range(lo, hi), min(hi - lo, rng.randint(0, 3)))):
            region = {"left": (x0, y0, idx, y1), "right": (idx + 1, y0, x1, y1),
                      "down": (x0, y0, x1, idx), "up": (x0, idx + 1, x1, y1)}[side]
            out.append(ShiftCandidate(nid, region, rng.randint(0, cost), rng.randint(0, copies)))
    return out


class TestInitialPartitioning:
    def test_uniform_square_quarters(self):
        grid = np.ones((8, 8))
        pm = initial_partitioning(grid, 4)
        assert len(pm) == 4
        costs = [grid[r[0] : r[2] + 1, r[1] : r[3] + 1].sum() for r in pm.values()]
        assert all(c == 16 for c in costs)  # alpha = total / 4
        AGrid(8, 8, pm)  # validates the tiling

    def test_single_partition_is_whole_grid(self):
        pm = initial_partitioning(np.ones((5, 7)), 1)
        assert pm == {0: (0, 0, 4, 6)}

    def test_stops_when_heaviest_is_single_cell(self):
        grid = np.zeros((4, 4))
        grid[0, 0] = 100.0
        pm = initial_partitioning(grid, 16)
        assert len(pm) < 16
        heaviest = max(pm.values(), key=lambda r: grid[r[0] : r[2] + 1, r[1] : r[3] + 1].sum())
        assert heaviest[0] == heaviest[2] and heaviest[1] == heaviest[3]

    @staticmethod
    def brute_force_split(grid, rect):
        x0, y0, x1, y1 = rect
        total = grid[x0 : x1 + 1, y0 : y1 + 1].sum()
        best = None
        for j in range(y0, y1):
            low = grid[x0 : x1 + 1, y0 : j + 1].sum()
            key = (max(low, total - low), abs((j - y0 + 1) - (y1 - j)), 0, j)
            if best is None or key < best:
                best, pick = key, ("h", j)
        for i in range(x0, x1):
            low = grid[x0 : i + 1, y0 : y1 + 1].sum()
            key = (max(low, total - low), abs((i - x0 + 1) - (x1 - i)), 1, i)
            if best is None or key < best:
                best, pick = key, ("v", i)
        return pick

    def test_each_split_is_gridline_optimal(self):
        rng = random.Random(77)
        for _ in range(25):
            grid = np.array([[rng.randint(0, 9) for _ in range(16)] for _ in range(16)], dtype=float)
            pm = initial_partitioning(grid, 5)
            assert len(pm) == 5
            AGrid(16, 16, pm)
            # replay the greedy loop against the brute-force chooser
            import heapq

            heap = []
            seq = 0

            def push(rect):
                nonlocal seq
                c = grid[rect[0] : rect[2] + 1, rect[1] : rect[3] + 1].sum()
                heapq.heappush(heap, (-c, seq, rect))
                seq += 1

            push((0, 0, 15, 15))
            while len(heap) < 5:
                negc, _, rect = heapq.heappop(heap)
                axis, cut = self.brute_force_split(grid, rect)
                x0, y0, x1, y1 = rect
                if axis == "h":
                    push((x0, y0, x1, cut))
                    push((x0, cut + 1, x1, y1))
                else:
                    push((x0, y0, cut, y1))
                    push((cut + 1, y0, x1, y1))
            want = sorted(r for _, _, r in heap)
            assert sorted(pm.values()) == want

    def test_no_single_whole_partition_reassignment_improves_alpha(self):
        rng = random.Random(5)
        grid = np.array([[rng.randint(0, 9) for _ in range(16)] for _ in range(16)], dtype=float)
        pm = initial_partitioning(grid, 5)
        costs = {p: grid[r[0] : r[2] + 1, r[1] : r[3] + 1].sum() for p, r in pm.items()}
        alpha = max(costs.values())
        for j in pm:
            for i in pm:
                if i == j:
                    continue
                loads = [c for p, c in costs.items() if p not in (i, j)] + [costs[i] + costs[j]]
                assert alpha <= max(loads)

    def test_split_chooser_tiebreaks(self):
        grid = np.zeros((4, 4))
        # all cuts tie at max-cost 0; the balanced horizontal middle wins
        assert best_gridline_split(grid, (0, 0, 3, 3))[:2] == ("h", 1)
        with pytest.raises(ValueError):
            best_gridline_split(grid, (2, 2, 2, 2))


class TestAdvisor:
    def model(self, **kw):
        args = dict(object_rate=10.0, query_rate=1.0, standing_queries=1e5, query_side=0.001)
        args.update(kw)
        return GranularityModel(**args)

    def test_sweep_minimum_at_query_side(self):
        m = self.model()
        rq = m.query_side
        sweep = [rq / 4, rq / 2, rq, 2 * rq, 4 * rq]
        loads = [routing_load(m, rc) for rc in sweep]
        assert loads == [17.0, 5.0, 2.0, pytest.approx(10.0), pytest.approx(34.0)]
        assert min(range(5), key=loads.__getitem__) == 2

    def test_recommendation(self):
        rc, per_axis = advise_granularity(self.model())
        assert rc == 0.001
        assert per_axis == 1000

    def test_zero_object_rate_fanout_regimes(self):
        m = self.model(object_rate=0.0)
        rq = m.query_side
        # registration fan-out strictly shrinks while cells are small ...
        small = [routing_load(m, rc) for rc in [rq / 8, rq / 4, rq / 2, rq]]
        assert all(a > b for a, b in zip(small, small[1:]))
        # ... and is flat once cells outgrow the query
        large = [routing_load(m, rc) for rc in [2 * rq, 4 * rq, 8 * rq]]
        assert len(set(large)) == 1

    def test_zero_object_rate_monotone_with_unit_constant(self):
        m = self.model(object_rate=0.0, small_query_cells=1.0)
        rq = m.query_side
        loads = [routing_load(m, rc) for rc in [rq / 4, rq / 2, rq, 2 * rq, 4 * rq]]
        assert all(a >= b for a, b in zip(loads, loads[1:]))

    def test_minimizer_for_other_nondecreasing_costs(self):
        import math

        for fn in (math.sqrt, lambda x: x * x, lambda x: min(x, 3.0)):
            m = self.model(per_object_cost=fn)
            rq = m.query_side
            sweep = [rq / 4, rq / 2, rq, 2 * rq, 4 * rq]
            loads = [routing_load(m, rc) for rc in sweep]
            assert loads[2] == min(loads)

    def test_validation(self):
        with pytest.raises(ValueError):
            self.model(query_side=0.0)
        with pytest.raises(ValueError):
            self.model(query_side=1.5)
        with pytest.raises(ValueError):
            self.model(small_query_cells=4.0)
        with pytest.raises(ValueError):
            self.model(object_rate=-1.0)

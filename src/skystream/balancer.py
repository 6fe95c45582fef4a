"""Partitioning decisions: initialization, rebalance selection, cell sizing.

Pure functions over workload statistics. Nothing here touches evaluator
state or channels; the runtime feeds in one snapshot of per-evaluator
reports per round and executes whatever operation comes back. Keeping this
layer side-effect free makes decisions replayable: any logged operation
can be rechecked against the snapshot that produced it.

Two quantities drive every decision. The cost reduction C_r is the drop in
the maximum partition cost the operation would achieve, and the transfer
overhead C_t charges beta per query copy that would have to move. Every
shift candidate, edge strip or corner, names its exact region and the cost
and copies in it, as its donor reported them, so both are exact for shifts;
split/merge uses the donor's best cut. An operation is worth doing only
when C_r > C_t, and among worthwhile candidates the largest C_r wins.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .agrid import CellRect, full_edge_neighbors, mergeable_pairs
from .evaluator import EvaluatorStats, SplitChoice

__all__ = [
    "WorkloadSnapshot",
    "OpKind",
    "RebalanceOp",
    "cost_reduction_split_merge",
    "transfer_overhead_split_merge",
    "check_beta",
    "select_rebalance_op",
    "best_gridline_split",
    "initial_partitioning",
    "GranularityModel",
    "routing_load",
    "advise_granularity",
]


@dataclass
class WorkloadSnapshot:
    """Per-partition statistics as of one reporting round.

    Complete by construction: the coordinator closes a round only once
    every partition in the map has reported, so every pid has an entry.
    """

    pm: dict[int, CellRect]
    stats: dict[int, EvaluatorStats]

    def __post_init__(self) -> None:
        missing = set(self.pm) - set(self.stats)
        if missing:
            raise ValueError(f"snapshot missing stats for partitions {sorted(missing)}")

    def cost(self, pid: int) -> int:
        return self.stats[pid].overall_cost

    def query_copies(self, pid: int) -> int:
        """Transfer-relevant count: per-cell attachment copies, not distinct."""
        return self.stats[pid].query_copies

    @property
    def heaviest(self) -> int:
        return min(self.pm, key=lambda p: (-self.cost(p), p))


class OpKind(Enum):
    SHIFT_H = "shift_h"  # strip moves across a vertical boundary
    SHIFT_V = "shift_v"  # strip moves across a horizontal boundary
    SHIFT_CORNER = "shift_corner"
    SPLIT_MERGE = "split_merge"


@dataclass(frozen=True)
class RebalanceOp:
    kind: OpKind
    src: int
    dst: int  # shift receiver, or the spare worker that hosts the split-off half
    cr: float
    ct: float
    merge_keep: int | None = None  # split/merge: partner that absorbs the other
    merge_move: int | None = None  # split/merge: partner whose cells move; its worker becomes the spare
    region: CellRect | None = None  # shift: exact cells to move
    split: SplitChoice | None = None  # split/merge: the cut the source reported


def cost_reduction_split_merge(cost_x: float, cost_x1: float, cost_x2: float, cost_y: float, cost_z: float) -> float:
    """Drop in the maximum cost when X splits and Y absorbs Z."""
    return cost_x - max(cost_x1, cost_x2, cost_y + cost_z)


def transfer_overhead_split_merge(queries_x2: float, queries_z: float, beta: float) -> float:
    return beta * (queries_x2 + queries_z)


_KIND_RANK = {OpKind.SHIFT_H: 0, OpKind.SHIFT_V: 1, OpKind.SHIFT_CORNER: 2, OpKind.SPLIT_MERGE: 3}


def _op_sort_key(op: RebalanceOp):
    # max C_r first; ties prefer shifts over split/merge (lighter protocol),
    # then a fixed arbitrary order so replicas agree
    return (-op.cr, _KIND_RANK[op.kind], op.src, op.dst, op.region or ())


def enumerate_candidates(snapshot: WorkloadSnapshot, beta: float, spare: int | None = None) -> list[RebalanceOp]:
    """All scored rebalance candidates for the heaviest partition."""
    src = snapshot.heaviest
    cost_a = snapshot.cost(src)
    out: list[RebalanceOp] = []

    edge_kind = {nid: OpKind.SHIFT_H if side in ("left", "right") else OpKind.SHIFT_V
                 for nid, side in full_edge_neighbors(snapshot.pm, src)}
    stats = snapshot.stats[src]
    shifts = [(edge_kind[c.neighbor], c) for c in stats.strips]
    shifts += [(OpKind.SHIFT_CORNER, c) for c in stats.corners]
    for kind, cand in shifts:
        cost_b = snapshot.cost(cand.neighbor)
        cr = cost_a - max(cost_a - cand.moved_cost, cost_b + cand.moved_cost)
        ct = beta * cand.moved_queries
        out.append(RebalanceOp(kind, src, cand.neighbor, cr, ct, region=cand.region))

    split = stats.best_split
    if split is not None and spare is not None:
        pairs = [p for p in mergeable_pairs(snapshot.pm) if src not in p]
        if pairs:
            y, z = min(pairs, key=lambda p: (snapshot.cost(p[0]) + snapshot.cost(p[1]), p))
            # the partner with fewer query copies moves; its worker frees up
            if (snapshot.query_copies(z), -z) > (snapshot.query_copies(y), -y):
                y, z = z, y
            cr = cost_reduction_split_merge(
                cost_a, split.cost_low, split.cost_high, snapshot.cost(y), snapshot.cost(z)
            )
            ct = transfer_overhead_split_merge(split.q_high, snapshot.query_copies(z), beta)
            out.append(
                RebalanceOp(
                    OpKind.SPLIT_MERGE, src, spare, cr, ct,
                    merge_keep=y, merge_move=z, split=split,
                )
            )
    return out


def check_beta(beta: float) -> None:
    """C_t must be a cost: a negative beta pays ops to move data, even ops
    that raise the maximum, and nan makes C_r > C_t fail for every op."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and non-negative, got {beta}")


def select_rebalance_op(
    snapshot: WorkloadSnapshot, beta: float, spare: int | None = None
) -> RebalanceOp | None:
    """The candidate maximizing C_r among those with C_r > C_t, if any.

    Deterministic in the snapshot, so every routing replica would pick the
    same operation; only replica 0 actually decides.
    """
    check_beta(beta)
    viable = [op for op in enumerate_candidates(snapshot, beta, spare) if op.cr > op.ct]
    if not viable:
        return None
    return min(viable, key=_op_sort_key)


# -- initial decomposition ----------------------------------------------------


def best_gridline_split(cost_grid: np.ndarray, rect: CellRect) -> tuple[str, int, float]:
    """Cut of `rect` minimizing the heavier side's cost.

    Ties fall to the more cell-balanced cut, then horizontal, then the
    smaller index. cost_grid is indexed [x, y].
    """
    x0, y0, x1, y1 = rect
    if x0 == x1 and y0 == y1:
        raise ValueError("single cell cannot split")
    block = cost_grid[x0 : x1 + 1, y0 : y1 + 1]
    total = float(block.sum())
    best: tuple | None = None
    if y0 < y1:
        rows = block.sum(axis=0)
        run = 0.0
        for j in range(y0, y1):
            run += float(rows[j - y0])
            key = (max(run, total - run), abs((j - y0 + 1) - (y1 - j)), 0, j)
            if best is None or key < best:
                best = key
                choice = ("h", j, key[0])
    if x0 < x1:
        cols = block.sum(axis=1)
        run = 0.0
        for i in range(x0, x1):
            run += float(cols[i - x0])
            key = (max(run, total - run), abs((i - x0 + 1) - (x1 - i)), 1, i)
            if best is None or key < best:
                best = key
                choice = ("v", i, key[0])
    return choice


def initial_partitioning(cost_grid: np.ndarray, max_partitions: int) -> dict[int, CellRect]:
    """Greedy recursive decomposition of a warmup cost histogram.

    Repeatedly splits the heaviest partition on its best gridline until
    the partition budget is reached or the heaviest is a single cell.
    """
    if max_partitions < 1:
        raise ValueError("need at least one partition")
    n, m = cost_grid.shape
    heap: list[tuple[float, int, CellRect]] = []
    seq = 0

    def push(rect: CellRect) -> None:
        nonlocal seq
        cost = float(cost_grid[rect[0] : rect[2] + 1, rect[1] : rect[3] + 1].sum())
        heapq.heappush(heap, (-cost, seq, rect))
        seq += 1

    push((0, 0, n - 1, m - 1))
    while len(heap) < max_partitions:
        neg_cost, _, rect = heapq.heappop(heap)
        x0, y0, x1, y1 = rect
        if x0 == x1 and y0 == y1:
            heapq.heappush(heap, (neg_cost, seq, rect))  # heaviest is a single cell
            break
        axis, cut, _ = best_gridline_split(cost_grid, rect)
        if axis == "h":
            push((x0, y0, x1, cut))
            push((x0, cut + 1, x1, y1))
        else:
            push((x0, y0, cut, y1))
            push((cut + 1, y0, x1, y1))
    rects = sorted(r for _, _, r in heap)
    return {pid: rect for pid, rect in enumerate(rects)}


# -- cell granularity ---------------------------------------------------------


@dataclass(frozen=True)
class GranularityModel:
    """Steady-state workload description for choosing the cell side.

    object_rate and query_rate are arrivals per unit time, standing_queries
    the live query count, query_side the average query side length in a
    unit world. per_object_cost maps mean queries-per-cell to the cost of
    evaluating one object; identity models a linear scan of candidates.
    small_query_cells is the average number of cells a query overlaps once
    cells outgrow the query range (between 1 and 4).
    """

    object_rate: float
    query_rate: float
    standing_queries: float
    query_side: float
    per_object_cost: Callable[[float], float] = lambda x: x
    small_query_cells: float = 2.0

    def __post_init__(self) -> None:
        if min(self.object_rate, self.query_rate, self.standing_queries) < 0:
            raise ValueError("rates and counts must be non-negative")
        if not 0 < self.query_side <= 1:
            raise ValueError("query side must lie in (0, 1]")
        if not 1 <= self.small_query_cells < 4:
            raise ValueError("cells per small query must lie in [1, 4)")


def routing_load(model: GranularityModel, cell_side: float) -> float:
    """Processing demand at a given cell side length.

    Two regimes: once cells outgrow the query range, each object scans the
    queries of a whole cell while registration touches a constant number
    of cells; with cells at or below the query range, per-object work
    saturates but registration fans out quadratically.
    """
    if model.query_side < cell_side:
        per_cell = model.small_query_cells * model.standing_queries * cell_side**2
        return model.object_rate * model.per_object_cost(per_cell) + model.query_rate * model.small_query_cells
    per_cell = model.standing_queries * model.query_side**2
    fanout = (model.query_side / cell_side) ** 2
    return model.object_rate * model.per_object_cost(per_cell) + model.query_rate * fanout


def advise_granularity(model: GranularityModel) -> tuple[float, int]:
    """Recommended (cell side, cells per axis): match the query side.

    Shrinking cells below the query side only inflates registration
    fan-out; growing them only inflates per-object scans. The crossover is
    the minimizer whenever per_object_cost is non-decreasing.
    """
    side = model.query_side
    return side, max(1, round(1.0 / side))

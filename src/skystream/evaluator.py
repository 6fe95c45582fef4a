"""Evaluator state: per-cell inverted indexes plus workload statistics.

An evaluator owns one rectangular region of the fine grid. Queries are
attached to the inverted list of every owned cell their MBR overlaps, so a
cell is a self-contained unit that can migrate to another evaluator during
rebalancing. Everything aggregated here (costs, query attachment counts,
summary keyword refcounts) is a sum of per-cell quantities for exactly that
reason: extract and absorb move cells and their share of every aggregate,
and the books still balance on both sides.

Cost follows the candidate-count model: processing an object in a cell adds
the number of candidate queries its keywords pull from the cell's inverted
lists (deduplicated by qid) to that cell's cost, and to the row, column and
overall aggregates.

Expired queries are only physically removed by the cleaning cursor, and only
once the caller-provided watermark proves no in-flight object could still
match them; matching itself checks expiry against the object timestamp, so
results never depend on cleaning progress.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .agrid import (
    CellRect,
    GridGeometry,
    SummaryConfig,
    rect_cells,
    rect_contains_cell,
    rect_intersect,
    summary_contribution,
)
from .model import ContinuousQuery, MatchResult, Predicate, SpatialKeywordObject, matches

__all__ = [
    "OutOfBoundsError",
    "RegionMismatchError",
    "UnsplittableError",
    "NoImprovementError",
    "CellIndex",
    "CellBatch",
    "SplitChoice",
    "ShiftChoice",
    "CornerCandidate",
    "EvaluatorStats",
    "EvaluatorState",
]


class OutOfBoundsError(ValueError):
    pass


class RegionMismatchError(ValueError):
    pass


class UnsplittableError(ValueError):
    pass


class NoImprovementError(ValueError):
    pass


class CellIndex:
    """Index content of one grid cell."""

    __slots__ = ("cost", "qids", "inverted", "spatial_only")

    def __init__(self) -> None:
        self.cost = 0
        self.qids: set[int] = set()
        self.inverted: dict[str, set[int]] = {}
        self.spatial_only: set[int] = set()  # INSIDE queries, no keywords

    def candidates(self, o_text: frozenset[str]) -> set[int]:
        found = set(self.spatial_only)
        for kw in o_text:
            hits = self.inverted.get(kw)
            if hits:
                found |= hits
        return found


@dataclass
class CellBatch:
    """Wire form of a migrating region: per-cell content plus query records."""

    region: CellRect
    cells: list[tuple[tuple[int, int], int, list[int]]]  # (coord, cost, qids)
    records: dict[int, ContinuousQuery]


@dataclass(frozen=True)
class SplitChoice:
    """Best balanced gridline cut of an evaluator's region.

    axis is "h" (cut between rows, low side keeps rows <= cut) or "v".
    cost_low/cost_high and q_low/q_high describe the two sides; the high
    side is the one that moves on a split.
    """

    axis: str
    cut: int
    diff: int
    cost_low: int
    cost_high: int
    q_low: int
    q_high: int


@dataclass(frozen=True)
class ShiftChoice:
    region: CellRect
    moved_cost: int
    moved_queries: int


@dataclass(frozen=True)
class CornerCandidate:
    neighbor: int
    region: CellRect
    moved_cost: int
    moved_queries: int


@dataclass(frozen=True)
class EvaluatorStats:
    """Fixed-size statistics report, never the full grid."""

    pid: int
    overall_cost: int
    query_copies: int
    query_count: int
    best_split: SplitChoice | None
    corners: tuple[CornerCandidate, ...]


class EvaluatorState:
    def __init__(
        self,
        pid: int,
        geom: GridGeometry,
        bounds: CellRect | None,
        summary_cfg: SummaryConfig = SummaryConfig(),
    ):
        self.pid = pid
        self.geom = geom
        self.bounds = bounds
        self.summary_cfg = summary_cfg
        self.cells: dict[tuple[int, int], CellIndex] = {}
        self.registry: dict[int, ContinuousQuery] = {}
        self.attach_count: dict[int, int] = {}
        self.row_cost: Counter = Counter()
        self.col_cost: Counter = Counter()
        self.overall_cost = 0
        self.row_q: Counter = Counter()
        self.col_q: Counter = Counter()
        self.overall_q = 0
        self.summary_counts: Counter = Counter()
        self.duplicate_registrations = 0
        self.contract_misses = 0
        # cleaning cursor: index into the row-major enumeration of owned cells
        self._cursor = 0
        # no registered query expires before this; lowered on registration
        self._expiry_floor = float("inf")

    # -- basic geometry ----------------------------------------------------

    @property
    def query_count(self) -> int:
        return len(self.registry)

    def owns_cell(self, cell: tuple[int, int]) -> bool:
        return self.bounds is not None and rect_contains_cell(self.bounds, cell)

    def owned_cell_count(self) -> int:
        return rect_cells(self.bounds) if self.bounds else 0

    def _cell(self, coord: tuple[int, int]) -> CellIndex:
        cell = self.cells.get(coord)
        if cell is None:
            cell = self.cells[coord] = CellIndex()
        return cell

    # -- registration ------------------------------------------------------

    def query_cells(self, q: ContinuousQuery) -> CellRect | None:
        """Owned part of the query's cell range, or None."""
        if self.bounds is None:
            return None
        return rect_intersect(self.geom.cell_range(q.mbr), self.bounds)

    def register_query(self, q: ContinuousQuery) -> int:
        """Attach a query to every owned cell its MBR overlaps.

        Returns the number of cells newly attached. Re-registration over
        already-attached cells is an idempotent drop (counted); arriving by
        a second path with new cells merges cleanly.
        """
        region = self.query_cells(q)
        if region is None:
            self.contract_misses += 1
            return 0
        record = self.registry.get(q.qid, q)
        added = 0
        for coord in iter_region(region):
            cell = self._cell(coord)
            if q.qid in cell.qids:
                continue
            self._attach(record, cell, coord)
            added += 1
        if added == 0:
            self.duplicate_registrations += 1
        return added

    def _attach(self, q: ContinuousQuery, cell: CellIndex, coord: tuple[int, int]) -> None:
        cell.qids.add(q.qid)
        if q.predicate is Predicate.INSIDE:
            cell.spatial_only.add(q.qid)
        else:
            for kw in q.text:
                cell.inverted.setdefault(kw, set()).add(q.qid)
        if q.qid not in self.registry:
            self.registry[q.qid] = q
            self._expiry_floor = min(self._expiry_floor, q.expiry)
        self.attach_count[q.qid] = self.attach_count.get(q.qid, 0) + 1
        self.col_q[coord[0]] += 1
        self.row_q[coord[1]] += 1
        self.overall_q += 1
        self.summary_counts.update(summary_contribution(q, self.summary_cfg))

    def _detach(self, qid: int, cell: CellIndex, coord: tuple[int, int]) -> None:
        q = self.registry[qid]
        cell.qids.discard(qid)
        cell.spatial_only.discard(qid)
        if q.predicate is not Predicate.INSIDE:
            for kw in q.text:
                hits = cell.inverted.get(kw)
                if hits is not None:
                    hits.discard(qid)
                    if not hits:
                        del cell.inverted[kw]
        self.col_q[coord[0]] -= 1
        self.row_q[coord[1]] -= 1
        self.overall_q -= 1
        self.summary_counts.subtract(summary_contribution(q, self.summary_cfg))
        remaining = self.attach_count[qid] - 1
        if remaining:
            self.attach_count[qid] = remaining
        else:
            del self.attach_count[qid]
            del self.registry[qid]

    # -- object evaluation ---------------------------------------------------

    def process_object(self, o: SpatialKeywordObject) -> list[MatchResult]:
        coord = self.geom.cell_of(o.loc)
        if not self.owns_cell(coord):
            raise OutOfBoundsError(f"cell {coord} outside bounds {self.bounds}")
        cell = self.cells.get(coord)
        if cell is None:
            return []
        cand = cell.candidates(o.text)
        q_l = len(cand)
        if q_l:
            cell.cost += q_l
            self.col_cost[coord[0]] += q_l
            self.row_cost[coord[1]] += q_l
            self.overall_cost += q_l
        out: list[MatchResult] = []
        for qid in sorted(cand):
            q = self.registry[qid]
            if o.ts <= q.expiry and matches(o, q):
                out.append(MatchResult(qid, o.oid, o.ts))
        return out

    # -- expiry / cleaning ----------------------------------------------------

    def _evict_expired(self, coord: tuple[int, int], watermark: int) -> int:
        cell = self.cells.get(coord)
        if cell is None:
            return 0
        doomed = [qid for qid in cell.qids if self.registry[qid].expiry < watermark]
        for qid in doomed:
            self._detach(qid, cell, coord)
        if not cell.qids and not cell.cost:
            del self.cells[coord]
        return len(doomed)

    def expire_queries(self, now: int) -> int:
        """Sweep every owned cell, dropping queries with expiry <= now.

        Returns the number of distinct queries removed. Equivalent to a full
        cleaning cycle with watermark now + 1 ("time now is over").
        """
        if self.bounds is None:
            return 0
        before = len(self.registry)
        for coord in list(self.cells.keys()):
            self._evict_expired(coord, now + 1)
        return before - len(self.registry)

    def cleaning_step(self, watermark: int, budget: int) -> frozenset[str] | None:
        """Advance the cleaning cursor by `budget` cells.

        Evicts queries whose expiry precedes the watermark (the smallest
        object timestamp that may still arrive). Returns the rebuilt summary
        keyword set when a full cycle completes, else None.
        """
        total = self.owned_cell_count()
        if total == 0:
            return self.summary_set()
        b = self.bounds
        width = b[2] - b[0] + 1
        end = min(self._cursor + max(1, budget), total)
        if self._expiry_floor < watermark:  # else no query can be evicted yet
            for k in range(self._cursor, end):
                coord = (b[0] + k % width, b[1] + k // width)
                self._evict_expired(coord, watermark)
        self._cursor = end
        if self._cursor >= total:
            self._cursor = 0
            return self.summary_set()
        return None

    def summary_set(self) -> frozenset[str]:
        return frozenset(k for k, c in self.summary_counts.items() if c > 0)

    # -- split / shift scans ---------------------------------------------------

    def find_best_split(self) -> SplitChoice:
        """Gridline cut minimizing the cost difference of the two sides.

        Scans the row aggregates, then the column aggregates, each once.
        Ties prefer the horizontal cut, then the smaller cut index.
        """
        b = self.bounds
        if b is None or (b[0] == b[2] and b[1] == b[3]):
            raise UnsplittableError(f"region {b} has no interior gridline")
        total = self.overall_cost
        total_q = self.overall_q
        best: tuple | None = None
        for axis, lo, hi, cost_agg, q_agg in (
            ("h", b[1], b[3], self.row_cost, self.row_q),
            ("v", b[0], b[2], self.col_cost, self.col_q),
        ):
            if lo == hi:
                continue
            run_cost = 0
            run_q = 0
            for cut in range(lo, hi):
                run_cost += cost_agg[cut]
                run_q += q_agg[cut]
                diff = abs(2 * run_cost - total)
                key = (diff, 0 if axis == "h" else 1, cut)
                if best is None or key < best[0]:
                    best = (key, SplitChoice(axis, cut, diff, run_cost, total - run_cost, run_q, total_q - run_q))
        assert best is not None
        return best[1]

    def find_shift_cut(self, side: str, target_cost: float) -> ShiftChoice:
        """Pick the strip to hand a full-edge neighbor sitting at `side`.

        Minimizes |kept cost - target|; raises NoImprovement when every cut
        is worse than doing nothing.
        """
        b = self.bounds
        if b is None:
            raise NoImprovementError("empty region")
        x0, y0, x1, y1 = b
        if side in ("left", "right"):
            lo, hi, cost_agg, q_agg = x0, x1, self.col_cost, self.col_q
        else:
            lo, hi, cost_agg, q_agg = y0, y1, self.row_cost, self.row_q
        if lo == hi:
            raise NoImprovementError("single line cannot shift")
        grows_from_low = side in ("left", "down")
        total = self.overall_cost
        best: tuple | None = None
        run_cost = 0
        run_q = 0
        # Enumerate strips growing from the shared edge.
        order = range(lo, hi) if grows_from_low else range(hi, lo, -1)
        for idx in order:
            run_cost += cost_agg[idx]
            run_q += q_agg[idx]
            kept = total - run_cost
            key = (abs(kept - target_cost), abs(idx - (lo if grows_from_low else hi)))
            if best is None or key < best[0]:
                if grows_from_low:
                    region = (x0, y0, idx, y1) if side == "left" else (x0, y0, x1, idx)
                else:
                    region = (idx, y0, x1, y1) if side == "right" else (x0, idx, x1, y1)
                best = (key, ShiftChoice(region, run_cost, run_q))
        assert best is not None
        if best[0][0] >= abs(total - target_cost):
            raise NoImprovementError("no cut improves on the current imbalance")
        return best[1]

    def corner_candidates(self, pm: dict[int, CellRect]) -> tuple[CornerCandidate, ...]:
        from .agrid import corner_shift_candidates

        out = []
        for nid, region in corner_shift_candidates(pm, self.pid):
            cost, q = self.region_sums(region)
            out.append(CornerCandidate(nid, region, cost, q))
        return tuple(out)

    def region_sums(self, region: CellRect) -> tuple[int, int]:
        """Cost and attachment sums of a full-width or full-height strip."""
        b = self.bounds
        if b is None or rect_intersect(region, b) != region:
            raise RegionMismatchError(f"{region} not inside {b}")
        if region[0] == b[0] and region[2] == b[2]:
            rng, cost_agg, q_agg = range(region[1], region[3] + 1), self.row_cost, self.row_q
        elif region[1] == b[1] and region[3] == b[3]:
            rng, cost_agg, q_agg = range(region[0], region[2] + 1), self.col_cost, self.col_q
        else:
            raise RegionMismatchError(f"{region} is not a boundary strip of {b}")
        return sum(cost_agg[i] for i in rng), sum(q_agg[i] for i in rng)

    def stats_report(self, pm: dict[int, CellRect] | None = None) -> EvaluatorStats:
        try:
            split = self.find_best_split()
        except UnsplittableError:
            split = None
        corners: tuple[CornerCandidate, ...] = ()
        if pm is not None and self.pid in pm:
            corners = self.corner_candidates(pm)
        return EvaluatorStats(
            pid=self.pid,
            overall_cost=self.overall_cost,
            query_copies=self.overall_q,
            query_count=self.query_count,
            best_split=split,
            corners=corners,
        )

    # -- cell migration -----------------------------------------------------

    def extract_cells(self, region: CellRect) -> CellBatch:
        """Remove a boundary strip (or everything) and return it as a batch."""
        remainder = strip_remainder(self.bounds, region)
        cells: list[tuple[tuple[int, int], int, list[int]]] = []
        records: dict[int, ContinuousQuery] = {}
        for coord in iter_region(region):
            cell = self.cells.pop(coord, None)
            if cell is None:
                continue
            qids = sorted(cell.qids)
            cells.append((coord, cell.cost, qids))
            for qid in qids:
                records[qid] = self.registry[qid]
            self._forget_cell(coord, cell)
        self.bounds = remainder
        self._cursor = 0
        return CellBatch(region=region, cells=cells, records=records)

    def _forget_cell(self, coord: tuple[int, int], cell: CellIndex) -> None:
        if cell.cost:
            self.col_cost[coord[0]] -= cell.cost
            self.row_cost[coord[1]] -= cell.cost
            self.overall_cost -= cell.cost
        for qid in sorted(cell.qids):
            self._detach(qid, cell, coord)

    def absorb_cells(self, batch: CellBatch) -> None:
        """Merge a migrated region into this evaluator."""
        region = batch.region
        if self.bounds is None:
            new_bounds = region
        else:
            new_bounds = union_rect(self.bounds, region)
        for coord, cost, qids in batch.cells:
            if not rect_contains_cell(region, coord):
                raise RegionMismatchError(f"cell {coord} outside batch region {region}")
            cell = self._cell(coord)
            if cost:
                cell.cost += cost
                self.col_cost[coord[0]] += cost
                self.row_cost[coord[1]] += cost
                self.overall_cost += cost
            for qid in qids:
                if qid in cell.qids:
                    continue
                self._attach(batch.records[qid], cell, coord)
        self.bounds = new_bounds
        self._cursor = 0


def strip_remainder(rect: CellRect | None, strip: CellRect) -> CellRect | None:
    """`rect` minus a boundary strip, which must leave a rectangle or None."""
    if rect is None or rect_intersect(strip, rect) != strip:
        raise RegionMismatchError(f"{strip} not inside {rect}")
    if strip == rect:
        return None
    x0, y0, x1, y1 = rect
    if strip[0] == x0 and strip[2] == x1:  # horizontal strip
        if strip[1] == y0:
            return (x0, strip[3] + 1, x1, y1)
        if strip[3] == y1:
            return (x0, y0, x1, strip[1] - 1)
    if strip[1] == y0 and strip[3] == y1:  # vertical strip
        if strip[0] == x0:
            return (strip[2] + 1, y0, x1, y1)
        if strip[2] == x1:
            return (x0, y0, strip[0] - 1, y1)
    raise RegionMismatchError(f"removing {strip} from {rect} leaves a non-rectangle")


def union_rect(a: CellRect, b: CellRect) -> CellRect:
    """Union of two cell rects that must form a rectangle (adjacent, aligned)."""
    if a[1] == b[1] and a[3] == b[3] and (a[2] + 1 == b[0] or b[2] + 1 == a[0]):
        return (min(a[0], b[0]), a[1], max(a[2], b[2]), a[3])
    if a[0] == b[0] and a[2] == b[2] and (a[3] + 1 == b[1] or b[3] + 1 == a[1]):
        return (a[0], min(a[1], b[1]), a[2], max(a[3], b[3]))
    raise RegionMismatchError(f"{a} and {b} do not union into a rectangle")


def iter_region(region: CellRect) -> Iterator[tuple[int, int]]:
    for j in range(region[1], region[3] + 1):
        for i in range(region[0], region[2] + 1):
            yield (i, j)

"""Evaluator state: per-cell inverted indexes plus workload statistics.

An evaluator owns one rectangular region of the fine grid. Queries are
attached to the inverted list of every owned cell their MBR overlaps, so a
cell is a self-contained unit that can migrate to another evaluator during
rebalancing. The cost and attachment aggregates are sums of per-cell
quantities for exactly that reason: extract and absorb move whole cell
indexes and their share of every aggregate, once per cell, and the books
still balance on both sides. A migrating cell's inverted lists travel as
they are and are never rebuilt query by query.

Most lists hold one query, so `CellIndex` keeps them compact, and only its
`attach`, `detach` and `copy` know the format. A keyword list holding one
query is an immutable `frozenset((qid,))`, built once per registration and
shared by every list that registration starts, in every cell; it becomes
a mutable set only when a second query joins. While a cell holds no keyword
query, its `spatial_only` is its `qids` set itself. Writes are copy-on-write
at the frozensets: nothing ever mutates one, so a snapshot (`copy`) may
share them, while it copies every mutable set, and so a migrated cell
shares no mutable set with its source.

The router summary is kept per summary block (`summary_block`): a block's
keyword set is the union of `summary_contribution` over the queries attached
to the owned cells in that block. Each block's set is cached, and a refresh
recomputes only the blocks that an attach, detach, extract or absorb touched
since the last one, so its cost follows what changed, not the index size.
A migrated query counts in every block, on either side, where it holds a
cell, so each side reports it exactly where it can match there.

Cost follows the candidate-count model: processing an object in a cell adds
the number of candidate queries its keywords pull from the cell's inverted
lists (deduplicated by qid) to that cell's cost, and to the row, column and
overall aggregates.

Expired queries are only physically removed by a cleaning step, which
evicts each one whole, from every cell that holds it, once the
caller-provided watermark proves no in-flight object could still match it;
matching itself checks expiry against the object timestamp, so results
never depend on cleaning progress.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .agrid import (
    WILDCARD,
    CellRect,
    GridGeometry,
    block_cells,
    block_range,
    corner_shift_candidates,
    full_edge_neighbors,
    rect_contains_cell,
    rect_intersect,
    summary_contribution,
)
from .model import ContinuousQuery, MatchResult, Predicate, SpatialKeywordObject, matches

__all__ = [
    "OutOfBoundsError",
    "RegionMismatchError",
    "UnsplittableError",
    "CellIndex",
    "CellBatch",
    "SplitChoice",
    "ShiftCandidate",
    "EvaluatorStats",
    "EvaluatorState",
]


class OutOfBoundsError(ValueError):
    pass


class RegionMismatchError(ValueError):
    pass


class UnsplittableError(ValueError):
    pass


# A split cell's `spatial_only` while it holds no INSIDE query.
NO_QIDS: frozenset[int] = frozenset()

NO_KEYWORDS: frozenset[str] = frozenset()


class CellIndex:
    """Index content of one grid cell.

    `qids` holds every query attached here, `spatial_only` the INSIDE ones
    and `inverted` each keyword's list of the others. Two formats keep
    the common cases small, and only `attach`, `detach` and `copy` write
    them:

    - A keyword list holding one query is the frozenset `single` passed to
      `attach`, which the caller builds once per registration and shares
      across every list the call starts; it becomes a mutable set when a
      second query joins, and a detach that finds the frozenset deletes
      the key.
    - While `inverted` is empty every query here is INSIDE, and
      `spatial_only` is `qids` itself. The first keyword query splits the
      two, and the detach that empties `inverted` joins them again.

    The rule is copy-on-write at the frozensets: a write replaces one and
    never mutates it, so `copy` shares them and copies every mutable set.
    Readers may hold what `candidates` returns only until the next write.
    """

    __slots__ = ("cost", "qids", "inverted", "spatial_only")

    def __init__(self) -> None:
        self.cost = 0
        self.qids: set[int] = set()
        self.inverted: dict[str, set[int] | frozenset[int]] = {}
        self.spatial_only: set[int] | frozenset[int] = self.qids

    def candidates(self, o_text: frozenset[str]) -> set[int] | frozenset[int]:
        """Qids the object's keywords pull from this cell, for reading only.

        When one list contributes, this is that list itself; a copy is made
        only to union a second one in.
        """
        inverted = self.inverted
        found = self.spatial_only
        if not inverted:
            return found
        for kw in o_text:
            hits = inverted.get(kw)
            if hits:
                found = found | hits if found else hits
        return found

    def attach(self, qid: int, text: frozenset[str] | None,
               single: frozenset[int] | None) -> bool:
        """Index `qid` under `text` (None for INSIDE); False if it is here already.

        `single` is `frozenset((qid,))`, shared by every list this starts.
        """
        qids = self.qids
        if qid in qids:
            return False
        inside = self.spatial_only
        if text is None:
            if inside is not qids:
                if inside:
                    inside.add(qid)
                else:
                    self.spatial_only = {qid}
        else:
            if inside is qids:  # the first keyword query: split
                self.spatial_only = set(qids) if qids else NO_QIDS
            inverted = self.inverted
            for kw in text:
                hits = inverted.get(kw)
                if hits is None:
                    inverted[kw] = single
                elif hits.__class__ is frozenset:
                    inverted[kw] = {*hits, qid}
                else:
                    hits.add(qid)
        qids.add(qid)
        return True

    def detach(self, qid: int, text: frozenset[str] | None) -> None:
        """Undo `attach(qid, text, ...)`; `qid` must be here."""
        qids = self.qids
        qids.remove(qid)
        inside = self.spatial_only
        if text is None:
            if inside is not qids:
                inside.remove(qid)
                if not inside:
                    self.spatial_only = NO_QIDS
            return
        inverted = self.inverted
        for kw in text:
            hits = inverted[kw]
            if hits.__class__ is frozenset:
                del inverted[kw]
            else:
                hits.remove(qid)
                if not hits:
                    del inverted[kw]
        if not inverted:  # every query left is INSIDE: join them again
            self.spatial_only = qids

    def copy(self) -> CellIndex:
        """A snapshot sharing no mutable set with this cell.

        It keeps the join of `spatial_only` and `qids`, and shares the
        one-query frozensets (`frozenset.copy` returns the set itself).
        """
        snap = CellIndex.__new__(CellIndex)
        snap.cost = self.cost
        snap.qids = qids = self.qids.copy()
        inside = self.spatial_only
        snap.spatial_only = qids if inside is self.qids else inside.copy()
        snap.inverted = {kw: hits.copy() for kw, hits in self.inverted.items()}
        return snap


@dataclass
class CellBatch:
    """A migrated region as `absorb_cells` takes it: whole cell indexes plus query records.

    Each cell comes as its `CellIndex`, inverted lists included, and the
    absorbing evaluator adopts it as it is: no list is rebuilt query by
    query. `records` holds every query any of the cells index.
    """

    region: CellRect
    cells: list[tuple[tuple[int, int], CellIndex]]  # (coord, cell)
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
class ShiftCandidate:
    """A boundary strip this evaluator could hand `neighbor`, with its sums."""

    neighbor: int
    region: CellRect
    moved_cost: int
    moved_queries: int


@dataclass(frozen=True)
class EvaluatorStats:
    """Statistics report built from the aggregates, never the full grid.

    Everything is fixed-size except `strips`, which holds at most one entry
    per row or column along each full-edge neighbor, so it grows with the
    region's side and never with the whole grid.
    """

    pid: int
    overall_cost: int
    query_copies: int
    best_split: SplitChoice | None
    strips: tuple[ShiftCandidate, ...]
    corners: tuple[ShiftCandidate, ...]


class EvaluatorState:
    def __init__(self, pid: int, geom: GridGeometry, bounds: CellRect | None):
        self.pid = pid
        self.geom = geom
        self.bounds = bounds
        self.cells: dict[tuple[int, int], CellIndex] = {}
        self.registry: dict[int, ContinuousQuery] = {}
        self.attach_count: dict[int, int] = {}
        self.row_cost: Counter = Counter()
        self.col_cost: Counter = Counter()
        self.overall_cost = 0
        self.row_q: Counter = Counter()
        self.col_q: Counter = Counter()
        self.overall_q = 0
        # summary block -> keywords, as last returned by summary_blocks, which
        # never changes a dict it has returned; and the blocks to recompute
        self._blocks: dict[tuple[int, int], frozenset[str]] = {}
        self._stale: set[tuple[int, int]] = set()
        # no registered query expires before this; lowered on registration,
        # raised by each eviction
        self._expiry_floor = float("inf")

    # -- basic geometry ----------------------------------------------------

    def owns_cell(self, cell: tuple[int, int]) -> bool:
        return self.bounds is not None and rect_contains_cell(self.bounds, cell)

    # -- registration ------------------------------------------------------

    def register_query(self, q: ContinuousQuery, crange: CellRect | None = None) -> int:
        """Attach a query to every owned cell its MBR overlaps.

        `crange` is the query's cell range when the caller has it. Returns
        the number of cells newly attached: re-registration over cells
        already attached is an idempotent drop, and arriving by a second
        path with new cells merges cleanly.
        """
        bounds = self.bounds
        if bounds is None:
            return 0
        if crange is None:
            crange = self.geom.cell_range(q.mbr)
        region = rect_intersect(crange, bounds)
        if region is None:
            return 0
        record = self.registry.get(q.qid, q)
        qid = record.qid
        if record.predicate is Predicate.INSIDE:
            text = single = None
        else:
            text, single = record.text, frozenset((qid,))
        cells = self.cells
        col_q, row_q = self.col_q, self.row_q
        added = 0
        x0, y0, x1, y1 = region
        for j in range(y0, y1 + 1):
            for i in range(x0, x1 + 1):
                coord = (i, j)
                cell = cells.get(coord)
                if cell is None:
                    cell = cells[coord] = CellIndex()
                if cell.attach(qid, text, single):
                    col_q[i] += 1
                    row_q[j] += 1
                    added += 1
        if added:
            self._admit(record, added)
            self._touch(region)
        return added

    def _admit(self, q: ContinuousQuery, added: int) -> None:
        """Per-query side of attaching `q` to `added` more cells."""
        qid = q.qid
        self.overall_q += added
        held = self.attach_count.get(qid)
        if held is not None:
            self.attach_count[qid] = held + added
            return
        self.attach_count[qid] = added
        self.registry[qid] = q
        if q.expiry < self._expiry_floor:
            self._expiry_floor = q.expiry

    def _retire(self, qid: int, removed: int) -> None:
        """Per-query side of detaching `qid` from `removed` cells."""
        self.overall_q -= removed
        held = self.attach_count[qid] - removed
        if held:
            self.attach_count[qid] = held
            return
        del self.attach_count[qid]
        del self.registry[qid]

    # -- object evaluation ---------------------------------------------------

    def process_object(self, o: SpatialKeywordObject,
                       coord: tuple[int, int] | None = None) -> list[MatchResult]:
        """Match `o` against its cell; `coord` is its cell when the caller knows it."""
        if coord is None:
            coord = self.geom.cell_of(o.loc)
        b = self.bounds
        if b is None or not (b[0] <= coord[0] <= b[2] and b[1] <= coord[1] <= b[3]):
            raise OutOfBoundsError(f"cell {coord} outside bounds {b}")
        cell = self.cells.get(coord)
        if cell is None:
            return []
        cand = cell.candidates(o.text)
        q_l = len(cand)
        if not q_l:
            return []
        cell.cost += q_l
        self.col_cost[coord[0]] += q_l
        self.row_cost[coord[1]] += q_l
        self.overall_cost += q_l
        registry = self.registry
        ts = o.ts
        out: list[MatchResult] = []
        for qid in sorted(cand) if q_l > 1 else cand:
            q = registry[qid]
            if ts <= q.expiry and matches(o, q):
                out.append(MatchResult(qid, o.oid, ts))
        return out

    # -- expiry / cleaning ----------------------------------------------------

    def cleaning_step(self, watermark: int,
                      refresh: bool) -> dict[tuple[int, int], frozenset[str]] | None:
        """Evict every query whose expiry precedes the watermark (the smallest
        object timestamp that may still arrive); with `refresh`, return the
        rebuilt per-block summary, else None.
        """
        if self._expiry_floor < watermark:  # else no query can be evicted yet
            self._evict(watermark)
        return self.summary_blocks() if refresh else None

    def _evict(self, watermark: int) -> None:
        """Detach each query expiring before `watermark` from every owned cell
        of its range that holds it, and raise the floor to the smallest
        expiry left. A cell left with no query and no cost history is dropped.
        """
        expired = []
        floor = float("inf")
        for q in self.registry.values():
            if q.expiry < watermark:
                expired.append(q)
            elif q.expiry < floor:
                floor = q.expiry
        self._expiry_floor = floor
        bounds = self.bounds
        cell_range = self.geom.cell_range
        cells = self.cells
        col_q, row_q = self.col_q, self.row_q
        for q in expired:
            qid = q.qid
            text = None if q.predicate is Predicate.INSIDE else q.text
            region = rect_intersect(cell_range(q.mbr), bounds)
            x0, y0, x1, y1 = region
            removed = 0
            for j in range(y0, y1 + 1):
                for i in range(x0, x1 + 1):
                    coord = (i, j)
                    cell = cells.get(coord)
                    if cell is None or qid not in cell.qids:
                        continue
                    cell.detach(qid, text)
                    col_q[i] -= 1
                    row_q[j] -= 1
                    removed += 1
                    if not cell.qids and not cell.cost:
                        del cells[coord]
            self._retire(qid, removed)
            self._touch(region)

    def summary_blocks(self) -> dict[tuple[int, int], frozenset[str]]:
        """Keywords per summary block over the owned cells; blocks with none are absent.

        Recomputes only the blocks touched since the last call, into a new
        dict, so a dict once returned (and installed by routers) never changes.
        """
        stale = self._stale
        if stale:
            blocks = dict(self._blocks)
            for block in stale:
                kws = self._block_summary(block)
                if kws:
                    blocks[block] = kws
                else:
                    blocks.pop(block, None)
            stale.clear()
            self._blocks = blocks
        return self._blocks

    def _block_summary(self, block: tuple[int, int]) -> frozenset[str]:
        """Union of `summary_contribution` over the queries attached in `block`'s owned cells."""
        b = self.bounds
        region = None if b is None else rect_intersect(block_cells(block), b)
        if region is None:
            return NO_KEYWORDS
        x0, y0, x1, y1 = region
        cells = self.cells
        qids: set[int] = set()
        for j in range(y0, y1 + 1):
            for i in range(x0, x1 + 1):
                cell = cells.get((i, j))
                if cell is not None:
                    if cell.spatial_only:
                        return WILDCARD
                    qids |= cell.qids
        registry = self.registry
        return NO_KEYWORDS.union(*[summary_contribution(registry[qid]) for qid in qids])

    def _touch(self, region: CellRect) -> None:
        """Mark every summary block `region` overlaps for recomputation."""
        bx0, by0, bx1, by1 = block_range(region)
        stale = self._stale
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                stale.add((bx, by))

    # -- split / shift candidates ----------------------------------------------

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

    def find_shift_cut(self, pm: dict[int, CellRect]) -> tuple[ShiftCandidate, ...]:
        """Every strip worth handing a full-edge neighbor, one walk per edge.

        Strips grow from the shared edge one row or column at a time, and
        one is emitted only where the newly added line carries cost: a strip
        moving no cost cannot lower the maximum, and a thicker strip with
        the same cost is dominated. The whole region is never offered.
        """
        x0, y0, x1, y1 = self.bounds
        out = []
        for nid, side in full_edge_neighbors(pm, self.pid):
            if side in ("left", "right"):
                lo, hi, cost_agg, q_agg = x0, x1, self.col_cost, self.col_q
            else:
                lo, hi, cost_agg, q_agg = y0, y1, self.row_cost, self.row_q
            order = range(lo, hi) if side in ("left", "down") else range(hi, lo, -1)
            run_cost = run_q = 0
            for idx in order:
                run_cost += cost_agg[idx]
                run_q += q_agg[idx]
                if not cost_agg[idx]:
                    continue
                if side == "left":
                    region = (x0, y0, idx, y1)
                elif side == "right":
                    region = (idx, y0, x1, y1)
                elif side == "down":
                    region = (x0, y0, x1, idx)
                else:
                    region = (x0, idx, x1, y1)
                out.append(ShiftCandidate(nid, region, run_cost, run_q))
        return tuple(out)

    def corner_candidates(self, pm: dict[int, CellRect]) -> tuple[ShiftCandidate, ...]:
        out = []
        for nid, region in corner_shift_candidates(pm, self.pid):
            cost, q = self.region_sums(region)
            out.append(ShiftCandidate(nid, region, cost, q))
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
        """Cost and copies; with a map that holds this partition, also the
        split, strip and corner candidates the balancer reads."""
        split = None
        strips: tuple[ShiftCandidate, ...] = ()
        corners: tuple[ShiftCandidate, ...] = ()
        if pm is not None and self.pid in pm:
            try:
                split = self.find_best_split()
            except UnsplittableError:
                pass
            strips = self.find_shift_cut(pm)
            corners = self.corner_candidates(pm)
        return EvaluatorStats(
            pid=self.pid,
            overall_cost=self.overall_cost,
            query_copies=self.overall_q,
            best_split=split,
            strips=strips,
            corners=corners,
        )

    # -- cell migration -----------------------------------------------------

    def extract_cells(self, region: CellRect) -> None:
        """Remove a boundary strip (or everything); the receiver already holds
        the cells, as the snapshots a transfer streamed to it.

        Each cell's share of the aggregates is taken away once per cell, and
        each query it indexes is retired once for all the extracted cells
        that held it.
        """
        remainder = strip_remainder(self.bounds, region)
        cells = self.cells
        held: Counter = Counter()  # qid -> extracted cells indexing it
        for coord in iter_region(region):
            cell = cells.pop(coord, None)
            if cell is None:
                continue
            self._add_cell_sums(coord, -cell.cost, -len(cell.qids))
            held.update(cell.qids)
        for qid, n in held.items():
            self._retire(qid, n)
        self.bounds = remainder
        self._touch(region)

    def absorb_cells(self, batch: CellBatch) -> None:
        """Merge a migrated region into this evaluator, adopting its cells whole.

        A batch cell this evaluator already holds is a RegionMismatchError:
        a region only ever moves to an evaluator that does not own it.
        """
        region = batch.region
        if self.bounds is None:
            new_bounds = region
        else:
            new_bounds = union_rect(self.bounds, region)
        cells = self.cells
        added: Counter = Counter()  # qid -> batch cells indexing it
        for coord, cell in batch.cells:
            if not rect_contains_cell(region, coord):
                raise RegionMismatchError(f"cell {coord} outside batch region {region}")
            if coord in cells:
                raise RegionMismatchError(f"cell {coord} is already held here")
            cells[coord] = cell
            self._add_cell_sums(coord, cell.cost, len(cell.qids))
            added.update(cell.qids)
        records = batch.records
        for qid, n in added.items():
            self._admit(records[qid], n)
        self.bounds = new_bounds
        self._touch(region)

    def _add_cell_sums(self, coord: tuple[int, int], cost: int, copies: int) -> None:
        """Add one cell's cost and query copies to the aggregates, negative to
        take them away; `overall_q` is kept per query by `_admit` and `_retire`."""
        if cost:
            self.col_cost[coord[0]] += cost
            self.row_cost[coord[1]] += cost
            self.overall_cost += cost
        if copies:
            self.col_q[coord[0]] += copies
            self.row_q[coord[1]] += copies


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

"""Augmented grid routing: a fine cell grid whose cells are tagged with the
id of the partition covering them, plus per-block textual summaries.

Cell coordinates are (x, y) with x growing rightward and y growing upward,
so a range's "top-left" cell is (min x, max y). Partitions are rectangles of
whole cells, stored as inclusive cell bounds, and must tile the grid.

Range routing walks partition shortcuts instead of scanning cells: from the
dominant (top-left) cell of each discovered partition it jumps one cell past
the partition's right edge and one cell below its bottom edge. The jump
targets are again dominant cells, so the stack only ever holds dominant
cells and each discovered partition pushes at most two, bounding pops by
2 * partitions + 1.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from math import ceil, floor
from typing import Iterator

import numpy as np

from .model import ContinuousQuery, Point, Predicate, Rect

__all__ = [
    "ANY_KEYWORD",
    "WILDCARD",
    "CellRect",
    "OutOfWorldError",
    "EmptyIntersectionError",
    "NoOverlapError",
    "TilingError",
    "WORLD",
    "GridGeometry",
    "AGrid",
    "SUMMARY_BLOCK",
    "summary_block",
    "block_cells",
    "block_range",
    "summary_contribution",
    "RoutingUnit",
    "full_edge_neighbors",
    "corner_shift_candidates",
    "mergeable_pairs",
    "uniform_partitioning",
    "dump_partitioning",
    "load_partitioning",
]

# Inclusive cell bounds (xcellmin, ycellmin, xcellmax, ycellmax).
CellRect = tuple[int, int, int, int]

# Sentinel summary keyword meaning "forward every object" (needed for INSIDE
# queries, which no textual filter can represent). Outside normal token space.
ANY_KEYWORD = "\x00any"

# The summary contribution of every INSIDE query, and the set of a block
# holding one: its wildcard already forwards every keyword. One object,
# shared by every pending entry and block that holds it.
WILDCARD = frozenset((ANY_KEYWORD,))

# Side, in grid cells, of the square blocks router summaries are kept per:
# each partition's summary is one keyword set per block its cells fall in.
SUMMARY_BLOCK = 4

# The space every grid covers; objects and query ranges outside it are
# rejected or clipped.
WORLD = Rect(0.0, 0.0, 1.0, 1.0)


class OutOfWorldError(ValueError):
    pass


class EmptyIntersectionError(ValueError):
    pass


class NoOverlapError(ValueError):
    pass


class TilingError(ValueError):
    pass


def rect_cells(r: CellRect) -> int:
    return (r[2] - r[0] + 1) * (r[3] - r[1] + 1)


def rect_contains_cell(r: CellRect, cell: tuple[int, int]) -> bool:
    return r[0] <= cell[0] <= r[2] and r[1] <= cell[1] <= r[3]


def rect_intersect(a: CellRect, b: CellRect) -> CellRect | None:
    x0, y0 = max(a[0], b[0]), max(a[1], b[1])
    x1, y1 = min(a[2], b[2]), min(a[3], b[3])
    if x0 > x1 or y0 > y1:
        return None
    return (x0, y0, x1, y1)


@dataclass(frozen=True)
class GridGeometry:
    """Cell coordinate math for an n x m grid over the unit square."""

    n: int
    m: int

    def cell_of(self, loc: Point) -> tuple[int, int]:
        # once per object: unpacked rather than going through WORLD.contains
        x, y = loc
        if not (0.0 <= x < 1.0 and 0.0 <= y < 1.0):
            raise OutOfWorldError(f"{loc} outside the unit square")
        n, m = self.n, self.m
        i = int(x * n)
        j = int(y * m)
        # Float edge: clamp keeps boundary points in the last cell.
        return (i if i < n else n - 1, j if j < m else m - 1)

    def cell_range(self, rect: Rect) -> CellRect:
        """Cells overlapping `rect` (clipped to the unit square), inclusive bounds."""
        # clips as Rect.clip does, by comparing floats (on a tie the rect's
        # own value is kept, as max and min keep their first argument), but
        # without building the clipped Rect
        xmin, ymin, xmax, ymax = rect.xmin, rect.ymin, rect.xmax, rect.ymax
        if xmin < 0.0:
            xmin = 0.0
        if ymin < 0.0:
            ymin = 0.0
        if xmax > 1.0:
            xmax = 1.0
        if ymax > 1.0:
            ymax = 1.0
        if xmin >= xmax or ymin >= ymax:
            raise EmptyIntersectionError(f"{rect} does not intersect the unit square")
        n, m = self.n, self.m
        x0 = floor(xmin * n)
        y0 = floor(ymin * m)
        x1 = ceil(xmax * n) - 1
        y1 = ceil(ymax * m) - 1
        if x0 < 0:
            x0 = 0
        if y0 < 0:
            y0 = 0
        if x1 < x0:
            x1 = x0
        if x1 > n - 1:
            x1 = n - 1
        if y1 < y0:
            y1 = y0
        if y1 > m - 1:
            y1 = m - 1
        return (x0, y0, x1, y1)


class AGrid:
    """The fine grid with per-cell partition tags and the partitions map."""

    def __init__(
        self,
        n: int,
        m: int,
        pm: dict[int, CellRect],
        generation: int = 0,
    ):
        self.n = n
        self.m = m
        self.geom = GridGeometry(n, m)
        self.generation = generation
        self.pm: dict[int, CellRect] = dict(pm)
        self.cell_owner = self._build_owner(n, m, self.pm)
        self.validate()
        self._visited: dict[int, int] = {}
        self._epoch = 0

    @staticmethod
    def _build_owner(n: int, m: int, pm: dict[int, CellRect]) -> np.ndarray:
        owner = np.full((n, m), -1, dtype=np.int32)
        for pid, (x0, y0, x1, y1) in pm.items():
            if not (0 <= x0 <= x1 < n and 0 <= y0 <= y1 < m):
                raise TilingError(f"partition {pid} bounds {x0, y0, x1, y1} exceed grid")
            region = owner[x0 : x1 + 1, y0 : y1 + 1]
            if (region != -1).any():
                raise TilingError(f"partition {pid} overlaps a previous partition")
            region[...] = pid
        return owner

    def validate(self) -> None:
        if (self.cell_owner == -1).any():
            raise TilingError("partitions do not cover the grid")

    def apply_update(self, pm: dict[int, CellRect], generation: int) -> None:
        """Install a new partitions map (routing update phase)."""
        self.cell_owner = self._build_owner(self.n, self.m, pm)
        self.pm = dict(pm)
        self.generation = generation

    # -- coordinate conversions (delegated) --------------------------------

    def cell_of(self, loc: Point) -> tuple[int, int]:
        return self.geom.cell_of(loc)

    def cell_range(self, rect: Rect) -> CellRect:
        return self.geom.cell_range(rect)

    def owner_of(self, cell: tuple[int, int]) -> int:
        # ndarray.item with a tuple index returns a Python int, without the
        # numpy scalar that indexing would build
        return self.cell_owner.item(cell)

    # -- routing ----------------------------------------------------------

    def route_point(self, loc: Point) -> int:
        """O(1): the partition owning the cell under `loc` (2 lookups)."""
        return self.owner_of(self.cell_of(loc))

    def dominant_cell(self, pid: int, crange: CellRect) -> tuple[int, int]:
        """Top-left cell (min x, max y) of partition `pid` within `crange`."""
        inter = rect_intersect(self.pm[pid], crange)
        if inter is None:
            raise NoOverlapError(f"partition {pid} misses range {crange}")
        return (inter[0], inter[3])

    def right_dominant(self, cell: tuple[int, int], crange: CellRect) -> tuple[int, int] | None:
        """Dominant cell of the partition right of `cell`'s owner, or None.

        `cell` must itself be a dominant cell, so its y is the top row of its
        partition's overlap with the range.
        """
        p = self.pm[self.owner_of(cell)]
        rx = p[2] + 1
        if rx > crange[2]:
            return None
        return self.dominant_cell(self.owner_of((rx, cell[1])), crange)

    def bottom_dominant(self, cell: tuple[int, int], crange: CellRect) -> tuple[int, int] | None:
        """Dominant cell of the partition below `cell`'s owner, or None."""
        p = self.pm[self.owner_of(cell)]
        by = p[1] - 1
        if by < crange[1]:
            return None
        return self.dominant_cell(self.owner_of((cell[0], by)), crange)

    def neighbor_search_cells(self, crange: CellRect) -> tuple[list[int], int]:
        """All partitions overlapping the cell range, with the pop count.

        Stack-based dominant-cell walk; pops <= 2 * len(result) + 1.
        """
        self._epoch += 1
        epoch = self._epoch
        visited = self._visited
        result: list[int] = []
        stack: list[tuple[int, int]] = [(crange[0], crange[3])]
        pops = 0
        while stack:
            cell = stack.pop()
            pops += 1
            pid = self.owner_of(cell)
            if visited.get(pid) == epoch:
                continue
            visited[pid] = epoch
            result.append(pid)
            bc = self.bottom_dominant(cell, crange)
            if bc is not None:
                stack.append(bc)
            rc = self.right_dominant(cell, crange)
            if rc is not None:
                stack.append(rc)
        return result, pops

    def neighbor_search(self, rect: Rect, crange: CellRect | None = None) -> list[int]:
        """Partitions overlapping `rect`; `crange` is its cell range when the caller has it."""
        if crange is None:
            crange = self.cell_range(rect)
        return self.neighbor_search_cells(crange)[0]


# -- partition geometry ----------------------------------------------------


def full_edge_neighbors(pm: dict[int, CellRect], pid: int) -> list[tuple[int, str]]:
    """Neighbors sharing a complete side with `pid` (shift-compatible).

    A strip can only move between two partitions whose perpendicular extents
    coincide, otherwise one of them stops being a rectangle.
    """
    a = pm[pid]
    out: list[tuple[int, str]] = []
    for nid, b in pm.items():
        if nid == pid:
            continue
        if a[1] == b[1] and a[3] == b[3]:  # same y-range
            if b[0] == a[2] + 1:
                out.append((nid, "right"))
            elif b[2] + 1 == a[0]:
                out.append((nid, "left"))
        if a[0] == b[0] and a[2] == b[2]:  # same x-range
            if b[1] == a[3] + 1:
                out.append((nid, "up"))
            elif b[3] + 1 == a[1]:
                out.append((nid, "down"))
    return sorted(out)


def corner_shift_candidates(pm: dict[int, CellRect], pid: int) -> list[tuple[int, CellRect]]:
    """Corner-shift targets for `pid`: (neighbor, region of `pid` to move).

    The neighbor hugs one end of a side without covering it fully; the moved
    region is the full-width (or full-height) strip of `pid` matching the
    neighbor's extent, so both stay rectangles. At most 8 exist.
    """
    a = pm[pid]
    out: list[tuple[int, CellRect]] = []
    for nid, b in pm.items():
        if nid == pid:
            continue
        if b[0] == a[2] + 1 or b[2] + 1 == a[0]:  # right or left neighbor
            if b[1] == a[1] and b[3] < a[3]:
                out.append((nid, (a[0], a[1], a[2], b[3])))
            elif b[3] == a[3] and b[1] > a[1]:
                out.append((nid, (a[0], b[1], a[2], a[3])))
        if b[1] == a[3] + 1 or b[3] + 1 == a[1]:  # above or below
            if b[0] == a[0] and b[2] < a[2]:
                out.append((nid, (a[0], a[1], b[2], a[3])))
            elif b[2] == a[2] and b[0] > a[0]:
                out.append((nid, (b[0], a[1], a[2], a[3])))
    return sorted(out)


def mergeable_pairs(pm: dict[int, CellRect]) -> list[tuple[int, int]]:
    """Unordered pairs whose union is a rectangle (full-edge neighbors)."""
    out = set()
    for pid in pm:
        for nid, _ in full_edge_neighbors(pm, pid):
            out.add((min(pid, nid), max(pid, nid)))
    return sorted(out)


def uniform_partitioning(n: int, m: int, k: int) -> dict[int, CellRect]:
    """k near-square uniform tiles, the spatial-only routing baseline.

    Tries the factor pairs of k from the most square one outward, each as
    rows x cols and then swapped, and carves the first whose tiles fit.
    """
    if k < 1:
        raise ValueError(f"cannot carve {k} uniform partitions")
    for r in range(math.isqrt(k), 0, -1):
        if k % r == 0:
            for rows, cols in ((r, k // r), (k // r, r)):
                if cols <= n and rows <= m:
                    return _tiles(n, m, rows, cols)
    raise ValueError(f"cannot carve {k} uniform partitions from a grid of {n} x {m} cells")


def _tiles(n: int, m: int, rows: int, cols: int) -> dict[int, CellRect]:
    xs = np.linspace(0, n, cols + 1, dtype=int)
    ys = np.linspace(0, m, rows + 1, dtype=int)
    pm: dict[int, CellRect] = {}
    pid = 0
    for r in range(rows):
        for c in range(cols):
            pm[pid] = (int(xs[c]), int(ys[r]), int(xs[c + 1]) - 1, int(ys[r + 1]) - 1)
            pid += 1
    return pm


# -- serialization ----------------------------------------------------------


def dump_partitioning(grid: AGrid) -> str:
    lines = [f"agrid {grid.n} {grid.m} {grid.generation}"]
    for pid in sorted(grid.pm):
        x0, y0, x1, y1 = grid.pm[pid]
        lines.append(f"{pid} {x0} {y0} {x1} {y1}")
    return "\n".join(lines) + "\n"


def load_partitioning(text: str) -> AGrid:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty partitioning: no header line")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "agrid":
        raise ValueError(f"bad partitioning header: {lines[0]!r}")
    n, m, generation = int(head[1]), int(head[2]), int(head[3])
    pm: dict[int, CellRect] = {}
    for ln in lines[1:]:
        pid, x0, y0, x1, y1 = (int(v) for v in ln.split())
        if pid in pm:
            raise ValueError(f"partition {pid} is listed twice")
        pm[pid] = (x0, y0, x1, y1)
    return AGrid(n, m, pm, generation=generation)


# -- textual summaries -------------------------------------------------------


def summary_block(cell: tuple[int, int]) -> tuple[int, int]:
    """The summary block holding `cell`; routers and evaluators both key by it."""
    return (cell[0] // SUMMARY_BLOCK, cell[1] // SUMMARY_BLOCK)


def block_cells(block: tuple[int, int]) -> CellRect:
    """The cells of a summary block (possibly reaching past the grid's edge)."""
    x0, y0 = block[0] * SUMMARY_BLOCK, block[1] * SUMMARY_BLOCK
    return (x0, y0, x0 + SUMMARY_BLOCK - 1, y0 + SUMMARY_BLOCK - 1)


def block_range(crange: CellRect) -> CellRect:
    """The summary blocks a cell range overlaps, as inclusive block bounds."""
    b = SUMMARY_BLOCK
    return (crange[0] // b, crange[1] // b, crange[2] // b, crange[3] // b)


def summary_contribution(q: ContinuousQuery) -> frozenset[str]:
    """Keywords a query adds to its partitions' summaries.

    OVERLAPS needs every keyword present (any shared keyword triggers it).
    CONTAINS only needs one, the lexicographically smallest: an object
    matching must carry all query keywords, so indexing under a single filter
    keyword never under-reports.
    INSIDE queries have no textual filter at all and force the wildcard.
    """
    if q.predicate is Predicate.INSIDE:
        return WILDCARD
    if q.predicate is Predicate.OVERLAPS:
        return q.text
    return frozenset((min(q.text),))


# The block sets of a partition no refresh has reached; never written.
_NO_BLOCKS: dict[tuple[int, int], frozenset[str]] = {}

# The blocks a keyword's pending entries cover: the block range of its one
# entry; the list of their ranges, when several hold it; or, once the gate
# has read that list, a bitmask with bit by * row_blocks + bx set for each
# covered block (bx, by). Appending a range is cheaper than setting its bits,
# so a keyword no object asks about never pays for a bitmask.
PendingBlocks = CellRect | list[CellRect] | int


@dataclass
class RoutingDecision:
    """Outcome of registering one query at a routing unit."""

    targets: list[int]
    entries: list[tuple[int, int, frozenset[str]]]  # (pid, seq, contribution)
    blocks: CellRect  # the summary blocks the query's range overlaps


class PendingEntries:
    """One origin's registrations at one partition that no refresh has
    covered yet, in seq order: entry i has seq `head + i`, keywords
    `kws[i]` and block range `blocks[i]`. An origin's seqs per partition are
    consecutive and arrive in order over one FIFO channel."""

    __slots__ = ("head", "kws", "blocks")

    def __init__(self, head: int):
        self.head = head
        self.kws: deque[frozenset[str]] = deque()
        self.blocks: deque[CellRect] = deque()

    def __len__(self) -> int:
        return len(self.kws)

    def __iter__(self) -> Iterator[tuple[frozenset[str], CellRect]]:
        return zip(self.kws, self.blocks)


class RoutingUnit:
    """One routing replica: the grid plus per-block keyword summaries.

    A partition's summary is one keyword set per summary block
    (`summary_block`) holding some of its cells: an object is forwarded only
    if its keywords meet the set of the block its cell lies in. A summary
    must never under-report: every keyword some live query attached in the
    block depends on has to be present, or objects get dropped and matches
    silently lost. Refreshes, which the evaluator sends on every
    `runtime.REFRESH_STEPS`-th cleaning step, replace the partition's block
    sets, so every registration is also held as a pending entry, with the
    block range of the query's cells, until a refresh's per-origin
    watermark proves the evaluator incorporated it; the gate forwards on a
    keyword that either the block's set holds or a pending entry whose
    range covers the block. Refreshes from a transfer
    destination are ignored until their epoch shows the absorbed cells (see
    runtime), and from premerge until then the destination's summary unions
    the source's, block by block. A partition that a map update retired
    keeps its sets while such a union view reads them, and loses them when
    the view ends.

    Transport-free; the runtime wraps this with channels. Replicas converge
    because they all apply the same registrations (their own plus forwarded
    entries) and the same refresh stream per partition.
    """

    def __init__(self, unit_id: int, grid: AGrid):
        self.unit_id = unit_id
        self.grid = grid
        self.reg_seq: dict[int, int] = {}  # pid -> queries this unit sent there
        # pid -> block -> keywords, as the partition's last refresh carried them
        self.base: dict[int, dict[tuple[int, int], frozenset[str]]] = {}
        # pid -> origin -> its pending entries
        self.pending: dict[int, dict[tuple, PendingEntries]] = {}
        # pid -> keyword -> blocks the pending entries holding it cover
        self.pending_kw: dict[int, dict[str, PendingBlocks]] = {}
        self.row_blocks = (grid.n - 1) // SUMMARY_BLOCK + 1  # blocks per grid row
        self.expected_epoch: dict[int, int] = {}
        self.uview: dict[int, int] = {}  # premerged dst -> src
        self.retired: set[int] = set()  # pids a map update removed and none restored
        self.pending_forwards = 0  # objects forwarded only on a pending entry

    @property
    def origin(self) -> tuple:
        return ("r", self.unit_id)

    # -- data path ----------------------------------------------------------

    def route_point(self, loc: Point) -> tuple[int, tuple[int, int]]:
        """The partition owning `loc`, and its cell, which travels with the object."""
        grid = self.grid
        cell = grid.geom.cell_of(loc)  # AGrid.cell_of and owner_of, inlined: once per object
        return grid.cell_owner.item(cell), cell

    def should_forward_object(self, o_text: frozenset[str], pid: int,
                              cell: tuple[int, int]) -> bool:
        """Whether an object with keywords `o_text` in `cell` could match a query at `pid`.

        Reads `pid`'s set for the cell's block, then the pending entries
        whose range covers the block; under a premerge union view, the
        source partition's too. A keyword's list of pending ranges becomes
        its bitmask the first time the gate reads it.
        """
        side = SUMMARY_BLOCK  # summary_block, inlined: once per object
        bx = cell[0] // side
        by = cell[1] // side
        block = (bx, by)
        base = self.base.get(pid, _NO_BLOCKS).get(block)
        if base is not None and (ANY_KEYWORD in base or not o_text.isdisjoint(base)):
            return True
        src = self.uview.get(pid)
        if src is not None:
            base = self.base.get(src, _NO_BLOCKS).get(block)
            if base is not None and (ANY_KEYWORD in base or not o_text.isdisjoint(base)):
                return True
        pending_kw = self.pending_kw
        for p in (pid,) if src is None else (pid, src):
            index = pending_kw.get(p)
            if not index:
                continue
            bit = by * self.row_blocks + bx
            for kw in (*o_text, ANY_KEYWORD) if ANY_KEYWORD in index else o_text:
                held = index.get(kw)
                if held is None:
                    continue
                if type(held) is list:  # read for the first time since it grew
                    held = index[kw] = _ranges_mask(held, self.row_blocks)
                if (held[0] <= bx <= held[2] and held[1] <= by <= held[3]
                        if type(held) is tuple else held >> bit & 1):
                    self.pending_forwards += 1
                    return True
        return False

    def register_query(self, q: ContinuousQuery) -> RoutingDecision:
        """Route a query: pick target partitions, update summaries.

        Returns the decision, including the per-target (seq, contribution)
        entries and the block range that must be forwarded to the other
        replicas.
        """
        grid = self.grid
        crange = grid.cell_range(q.mbr)
        targets = grid.neighbor_search(q.mbr, crange)
        blocks = block_range(crange)
        contribution = summary_contribution(q)
        entries: list[tuple[int, int, frozenset[str]]] = []
        origin = self.origin
        reg_seq = self.reg_seq
        add_entry = self._add_entry
        for pid in targets:
            seq = reg_seq.get(pid, 0)
            reg_seq[pid] = seq + 1
            add_entry(pid, origin, seq, contribution, blocks)
            entries.append((pid, seq, contribution))
        return RoutingDecision(targets, entries, blocks)

    # -- summary maintenance ------------------------------------------------

    def apply_keyword_forward(self, origin: tuple, pid: int, seq: int, kws: frozenset[str],
                              blocks: CellRect) -> None:
        self._add_entry(pid, origin, seq, kws, blocks)

    def _add_entry(self, pid: int, origin: tuple, seq: int, kws: frozenset[str],
                   blocks: CellRect) -> None:
        per_pid = self.pending.get(pid)
        if per_pid is None:
            per_pid = self.pending[pid] = {}
        pend = per_pid.get(origin)
        if pend is None:
            pend = per_pid[origin] = PendingEntries(seq)
        elif not pend.kws:
            pend.head = seq
        elif seq != pend.head + len(pend.kws):
            raise ValueError(f"registration seq {seq} from {origin} at {pid} is out of order")
        pend.kws.append(kws)
        pend.blocks.append(blocks)
        index = self.pending_kw.get(pid)
        if index is None:
            index = self.pending_kw[pid] = {}
        _index_entry(index, kws, blocks, self.row_blocks)

    def apply_refresh(self, pid: int, blocks: dict[tuple[int, int], frozenset[str]],
                      vector: dict[tuple, int], epoch: int) -> bool:
        """Install a rebuilt summary, block -> keywords, kept as it is (the
        sender never changes it); False when a stale epoch discards it."""
        expected = self.expected_epoch.get(pid, 0)
        if epoch < expected:
            return False
        self.base[pid] = blocks
        per_pid = self.pending.get(pid)
        if per_pid:
            pruned = False
            for origin, pend in per_pid.items():
                k = min(vector.get(origin, -1) - pend.head + 1, len(pend))
                if k > 0:
                    pruned = True
                    pend.head += k
                    for _ in range(k):
                        pend.kws.popleft()
                        pend.blocks.popleft()
            if pruned:
                self._reindex(pid)
        if epoch == expected:
            src = self.uview.pop(pid, None)
            if src in self.retired:
                # the union view was the last live reference to it
                self._drop(src)
        return True

    def _reindex(self, pid: int) -> None:
        """Rebuild `pid`'s keyword index from its remaining pending entries."""
        index: dict[str, PendingBlocks] = {}
        row_blocks = self.row_blocks
        for pend in self.pending[pid].values():
            for kws, blocks in pend:
                _index_entry(index, kws, blocks, row_blocks)
        if index:
            self.pending_kw[pid] = index
        else:
            self.pending_kw.pop(pid, None)

    def premerge(self, dst: int, src: int) -> None:
        self.uview[dst] = src
        self.expected_epoch[dst] = self.expected_epoch.get(dst, 0) + 1

    def _drop(self, pid: int) -> None:
        """Forget a retired partition's sets; its epoch counter stays, since
        a later reuse of the same id must continue from it."""
        self.base.pop(pid, None)
        self.pending.pop(pid, None)
        self.pending_kw.pop(pid, None)
        self.uview.pop(pid, None)

    def apply_partition_update(self, pm: dict[int, CellRect], generation: int) -> None:
        self.retired |= set(self.grid.pm) - set(pm)
        self.retired -= set(pm)
        self.grid.apply_update(pm, generation)


def _index_entry(index: dict[str, PendingBlocks], kws: frozenset[str], blocks: CellRect,
                 row_blocks: int) -> None:
    """Add one pending entry's block range under each of its keywords."""
    for kw in kws:
        held = index.get(kw)
        if held is None:
            index[kw] = blocks
        elif type(held) is tuple:
            index[kw] = [held, blocks]
        elif type(held) is list:
            held.append(blocks)
        else:
            index[kw] = held | _ranges_mask((blocks,), row_blocks)


def _ranges_mask(ranges, row_blocks: int) -> int:
    """The bitmask of the blocks in some block ranges, bit by * row_blocks + bx per block."""
    mask = 0
    # many queries share a block range, and setting a range's bits twice changes nothing
    for bx0, by0, bx1, by1 in dict.fromkeys(ranges):
        row = ((2 << (bx1 - bx0)) - 1) << (by0 * row_blocks + bx0)
        for _ in range(by1 - by0 + 1):
            mask |= row
            row <<= row_blocks
    return mask

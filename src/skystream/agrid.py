"""Augmented grid routing: a fine cell grid whose cells are tagged with the
id of the partition covering them, plus per-partition textual summaries.

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
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .model import ContinuousQuery, Point, Predicate, Rect

__all__ = [
    "ANY_KEYWORD",
    "CellRect",
    "OutOfWorldError",
    "EmptyIntersectionError",
    "NoOverlapError",
    "TilingError",
    "GridGeometry",
    "AGrid",
    "SummaryConfig",
    "summary_contribution",
    "RouterSummaries",
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

WORLD_UNIT = Rect(0.0, 0.0, 1.0, 1.0)


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
    """Cell coordinate math for an n x m grid over a world rectangle."""

    n: int
    m: int
    world: Rect = WORLD_UNIT

    def cell_of(self, loc: Point) -> tuple[int, int]:
        w = self.world
        if not w.contains(loc):
            raise OutOfWorldError(f"{loc} outside world {w}")
        i = int((loc.x - w.xmin) / w.width * self.n)
        j = int((loc.y - w.ymin) / w.height * self.m)
        # Float edge: clamp keeps boundary points in the last cell.
        return (min(i, self.n - 1), min(j, self.m - 1))

    def cell_range(self, rect: Rect) -> CellRect:
        """Cells overlapping `rect` (clipped to the world), inclusive bounds."""
        clipped = rect.clip(self.world)
        if clipped is None:
            raise EmptyIntersectionError(f"{rect} does not intersect world")
        w = self.world
        sx = self.n / w.width
        sy = self.m / w.height
        x0 = int(math.floor((clipped.xmin - w.xmin) * sx))
        y0 = int(math.floor((clipped.ymin - w.ymin) * sy))
        x1 = int(math.ceil((clipped.xmax - w.xmin) * sx)) - 1
        y1 = int(math.ceil((clipped.ymax - w.ymin) * sy)) - 1
        x0, y0 = max(x0, 0), max(y0, 0)
        x1 = min(max(x1, x0), self.n - 1)
        y1 = min(max(y1, y0), self.m - 1)
        return (x0, y0, x1, y1)


class AGrid:
    """The fine grid with per-cell partition tags and the partitions map."""

    def __init__(
        self,
        n: int,
        m: int,
        pm: dict[int, CellRect],
        world: Rect = WORLD_UNIT,
        generation: int = 0,
        validate: bool = True,
    ):
        self.n = n
        self.m = m
        self.world = world
        self.geom = GridGeometry(n, m, world)
        self.generation = generation
        self.pm: dict[int, CellRect] = dict(pm)
        self.cell_owner = self._build_owner(n, m, self.pm)
        if validate:
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
        return int(self.cell_owner[cell[0], cell[1]])

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

    def neighbor_search(self, rect: Rect) -> list[int]:
        return self.neighbor_search_cells(self.cell_range(rect))[0]


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
    """k near-square uniform tiles, the spatial-only routing baseline."""
    best = (1, k)
    for r in range(1, int(math.isqrt(k)) + 1):
        if k % r == 0:
            best = (r, k // r)
    rows, cols = best
    if cols > n or rows > m:
        rows, cols = cols, rows
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


def load_partitioning(text: str, world: Rect = WORLD_UNIT) -> AGrid:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if len(head) != 4 or head[0] != "agrid":
        raise ValueError(f"bad partitioning header: {lines[0]!r}")
    n, m, generation = int(head[1]), int(head[2]), int(head[3])
    pm: dict[int, CellRect] = {}
    for ln in lines[1:]:
        pid, x0, y0, x1, y1 = (int(v) for v in ln.split())
        pm[pid] = (x0, y0, x1, y1)
    return AGrid(n, m, pm, world=world, generation=generation)


# -- textual summaries -------------------------------------------------------


@dataclass(frozen=True)
class SummaryConfig:
    """How queries contribute keywords to partition summaries.

    contains_mode:
      "filter_lex"    CONTAINS queries contribute one filter keyword, the
                      lexicographically smallest (deterministic, no stats).
      "filter_rarest" one keyword again, the rarest per `freq` (ties lex).
      "full"          all keywords (baseline for traffic comparisons).
    """

    contains_mode: str = "filter_lex"
    freq: dict[str, int] | None = None


def summary_contribution(q: ContinuousQuery, cfg: SummaryConfig = SummaryConfig()) -> frozenset[str]:
    """Keywords a query adds to its partitions' summaries.

    OVERLAPS needs every keyword present (any shared keyword triggers it).
    CONTAINS only needs one: an object matching must carry all query
    keywords, so indexing under a single filter keyword never under-reports.
    INSIDE queries have no textual filter at all and force the wildcard.
    """
    if q.predicate is Predicate.INSIDE:
        return frozenset((ANY_KEYWORD,))
    if q.predicate is Predicate.OVERLAPS or cfg.contains_mode == "full":
        return q.text
    if cfg.contains_mode == "filter_rarest" and cfg.freq:
        return frozenset((min(q.text, key=lambda k: (cfg.freq.get(k, 0), k)),))
    return frozenset((min(q.text),))


class RouterSummaries:
    """Per-partition keyword summaries as seen by one routing replica.

    The summary must never under-report: every keyword some live query at the
    partition depends on has to be present, or objects get dropped and
    matches silently lost. Refreshes from the evaluator's cleaning cycle
    replace the base set, so every registration is also held as a pending
    entry until a refresh's per-origin watermark proves the evaluator
    incorporated it. Refreshes from a transfer destination are ignored until
    their epoch shows the absorbed cells (see runtime), and from premerge
    until then the destination's summary unions the source's.
    """

    def __init__(self) -> None:
        self.base: dict[int, set[str]] = {}
        # pid -> origin -> OrderedDict(seq -> contribution)
        self.regs: dict[int, dict[tuple, OrderedDict]] = {}
        self.kw_count: dict[int, Counter] = {}
        self.expected_epoch: dict[int, int] = {}
        self.uview: dict[int, int] = {}

    def add_entry(self, pid: int, origin: tuple, seq: int, kws: frozenset[str]) -> None:
        per_origin = self.regs.setdefault(pid, {}).setdefault(origin, OrderedDict())
        if seq in per_origin:
            return
        per_origin[seq] = kws
        self.kw_count.setdefault(pid, Counter()).update(kws)

    def apply_refresh(self, pid: int, kws: Iterable[str], vector: dict[tuple, int], epoch: int) -> bool:
        """Install a rebuilt summary; False when a stale epoch discards it."""
        if epoch < self.expected_epoch.get(pid, 0):
            return False
        self.base[pid] = set(kws)
        counts = self.kw_count.get(pid)
        for origin, entries in self.regs.get(pid, {}).items():
            seen = vector.get(origin, -1)
            while entries:
                seq, contrib = next(iter(entries.items()))
                if seq > seen:
                    break
                del entries[seq]
                if counts:
                    counts.subtract(contrib)
        if epoch == self.expected_epoch.get(pid, 0):
            self.uview.pop(pid, None)
        return True

    def premerge(self, dst: int, src: int) -> None:
        self.uview[dst] = src
        self.expected_epoch[dst] = self.expected_epoch.get(dst, 0) + 1

    def cancel_premerge(self, dst: int) -> None:
        self.uview.pop(dst, None)
        self.expected_epoch[dst] = self.expected_epoch.get(dst, 0) - 1

    def drop(self, pid: int) -> None:
        """Forget a retired partition's sets; its epoch counter stays, since
        a later reuse of the same id must continue from it."""
        self.base.pop(pid, None)
        self.regs.pop(pid, None)
        self.kw_count.pop(pid, None)
        self.uview.pop(pid, None)

    def _contains(self, pid: int, kw: str) -> bool:
        base = self.base.get(pid)
        if base and kw in base:
            return True
        counts = self.kw_count.get(pid)
        return bool(counts) and counts[kw] > 0

    def should_forward(self, pid: int, o_text: frozenset[str]) -> bool:
        pids = (pid, self.uview[pid]) if pid in self.uview else (pid,)
        for p in pids:
            if self._contains(p, ANY_KEYWORD):
                return True
            for kw in o_text:
                if self._contains(p, kw):
                    return True
        return False

    def effective_set(self, pid: int) -> frozenset[str]:
        out: set[str] = set(self.base.get(pid, ()))
        counts = self.kw_count.get(pid)
        if counts:
            out.update(k for k, c in counts.items() if c > 0)
        if pid in self.uview:
            out |= self.effective_set(self.uview[pid])
        return frozenset(out)


@dataclass
class RoutingDecision:
    """Outcome of registering one query at a routing unit."""

    targets: list[int]
    contribution: frozenset[str]
    entries: list[tuple[int, int, frozenset[str]]]  # (pid, seq, contribution)


class RoutingUnit:
    """One routing replica: the grid plus its summary view.

    Transport-free; the runtime wraps this with channels. Replicas converge
    because they all apply the same registrations (their own plus forwarded
    entries) and the same refresh stream per partition.
    """

    def __init__(self, unit_id: int, grid: AGrid, cfg: SummaryConfig = SummaryConfig()):
        self.unit_id = unit_id
        self.grid = grid
        self.cfg = cfg
        self.summaries = RouterSummaries()
        self.reg_seq: dict[int, int] = {}  # pid -> queries this unit sent there

    @property
    def origin(self) -> tuple:
        return ("r", self.unit_id)

    def register_query(self, q: ContinuousQuery) -> RoutingDecision:
        """Route a query: pick target partitions, update summaries.

        Returns the decision, including the per-target (seq, contribution)
        entries that must be forwarded to the other replicas.
        """
        targets = self.grid.neighbor_search(q.mbr)
        contribution = summary_contribution(q, self.cfg)
        entries: list[tuple[int, int, frozenset[str]]] = []
        for pid in targets:
            seq = self.reg_seq.get(pid, 0)
            self.reg_seq[pid] = seq + 1
            self.summaries.add_entry(pid, self.origin, seq, contribution)
            entries.append((pid, seq, contribution))
        return RoutingDecision(targets, contribution, entries)

    def apply_keyword_forward(self, origin: tuple, pid: int, seq: int, kws: frozenset[str]) -> None:
        self.summaries.add_entry(pid, origin, seq, kws)

    def apply_refresh(self, pid: int, kws: Iterable[str], vector: dict[tuple, int], epoch: int) -> bool:
        return self.summaries.apply_refresh(pid, kws, vector, epoch)

    def should_forward_object(self, o_text: frozenset[str], pid: int) -> bool:
        return self.summaries.should_forward(pid, o_text)

    def route_point(self, loc: Point) -> int:
        return self.grid.route_point(loc)

    def apply_partition_update(self, pm: dict[int, CellRect], generation: int) -> None:
        self.grid.apply_update(pm, generation)

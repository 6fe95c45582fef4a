"""Independent reference implementations the real code is checked against.

Everything here is deliberately naive: cell scans, exhaustive loops, direct
set algebra. None of it imports the algorithms under test.
"""

from __future__ import annotations

import random

import numpy as np

from skystream.agrid import ANY_KEYWORD
from skystream.model import ContinuousQuery, SpatialKeywordObject, matches


def scan_range_owners(cell_owner: np.ndarray, crange) -> set[int]:
    """Every partition id appearing in the cell range, by brute scan."""
    x0, y0, x1, y1 = crange
    return set(int(v) for v in np.unique(cell_owner[x0 : x1 + 1, y0 : y1 + 1]))


def effective_set(unit, pid: int, block: tuple[int, int] | None = None) -> frozenset[str]:
    """Keywords a routing unit's gate forwards on at `pid` in `block`, or in
    any block when None: the block sets and the keywords of the pending
    entries whose block range covers the block, plus the source partition's
    under a premerge union view. Reads the entries, not the keyword index."""
    out: set[str] = set()
    for pend in unit.pending.get(pid, {}).values():
        for kws, (bx0, by0, bx1, by1) in pend:
            if block is None or (bx0 <= block[0] <= bx1 and by0 <= block[1] <= by1):
                out |= kws
    blocks = unit.base.get(pid, {})
    if block is None:
        out.update(*blocks.values())
    else:
        out.update(blocks.get(block, ()))
    if pid in unit.uview:
        out |= effective_set(unit, unit.uview[pid], block)
    return frozenset(out)


def pending_gate_forwards(entries, o_text: frozenset[str], cell: tuple[int, int],
                          side: int) -> bool:
    """Whether pending registrations `entries`, (keywords, cell range) pairs,
    forward an object with keywords `o_text` in `cell`: some entry has a
    cell in the same side x side block as `cell`, and holds the wildcard or
    one of the object's keywords. Scans every cell of every range."""
    block = (cell[0] // side, cell[1] // side)
    for kws, (x0, y0, x1, y1) in entries:
        near = any((i // side, j // side) == block
                   for i in range(x0, x1 + 1) for j in range(y0, y1 + 1))
        if near and (ANY_KEYWORD in kws or kws & o_text):
            return True
    return False


def random_recursive_partitioning(rng: random.Random, n: int, m: int, parts: int):
    """Random guillotine tiling: repeatedly split a random splittable rect."""
    rects = [(0, 0, n - 1, m - 1)]
    while len(rects) < parts:
        splittable = [r for r in rects if r[2] > r[0] or r[3] > r[1]]
        if not splittable:
            break
        r = splittable[rng.randrange(len(splittable))]
        rects.remove(r)
        x0, y0, x1, y1 = r
        axes = []
        if x1 > x0:
            axes.append("v")
        if y1 > y0:
            axes.append("h")
        if rng.choice(axes) == "v":
            cut = rng.randrange(x0, x1)
            rects.append((x0, y0, cut, y1))
            rects.append((cut + 1, y0, x1, y1))
        else:
            cut = rng.randrange(y0, y1)
            rects.append((x0, y0, x1, cut))
            rects.append((x0, cut + 1, x1, y1))
    return {pid: r for pid, r in enumerate(sorted(rects))}


def pinwheel_partitioning():
    """The classic non-guillotine 3x3 pinwheel: four strips around a center."""
    return {
        0: (0, 2, 1, 2),  # top strip
        1: (2, 1, 2, 2),  # right strip
        2: (1, 0, 2, 0),  # bottom strip
        3: (0, 0, 0, 1),  # left strip
        4: (1, 1, 1, 1),  # center
    }


class SingleIndexOracle:
    """One global brute-force index: the answer any distribution must equal.

    Liveness is judged purely on logical timestamps (o.ts <= q.expiry), so
    the expected match set is independent of delivery interleavings as long
    as registrations settle before later tuples are injected.
    """

    def __init__(self) -> None:
        self.queries: list[ContinuousQuery] = []

    def register(self, q: ContinuousQuery) -> None:
        self.queries.append(q)

    def process(self, o: SpatialKeywordObject) -> list[tuple[int, int, int]]:
        out = []
        for q in self.queries:
            if o.ts <= q.expiry and matches(o, q):
                out.append((q.qid, o.oid, o.ts))
        return out


def cost_aggregates_from_cells(cells: dict) -> tuple[dict, dict, int]:
    """Recompute row/col/overall cost sums straight from per-cell costs."""
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    total = 0
    for (i, j), cell in cells.items():
        c = cell.cost
        if c:
            cols[i] = cols.get(i, 0) + c
            rows[j] = rows.get(j, 0) + c
            total += c
    return rows, cols, total


def query_aggregates_from_cells(cells: dict) -> tuple[dict, dict, int]:
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    total = 0
    for (i, j), cell in cells.items():
        c = len(cell.qids)
        if c:
            cols[i] = cols.get(i, 0) + c
            rows[j] = rows.get(j, 0) + c
            total += c
    return rows, cols, total

"""Reference matcher, written apart from the program it checks.

It reads only the benchmark's own tuples (see inputs.py) and follows the
matching rules directly:

- rectangles are half-open: xmin <= x < xmax and ymin <= y < ymax;
- INSIDE matches on location alone, OVERLAPS needs one shared keyword,
  CONTAINS needs every query keyword in the object;
- an object matches a query only while its ts <= the query's expiry;
- a query is visible to the objects of every chunk ingested after its own
  chunk drained (standing queries: to every stream chunk).

Queries sit in a coarse bucket grid purely to avoid a full scan; every
candidate is then tested with the full rule, so the buckets only have to
over-cover. The same matcher, run on a fixed input, is the drift
reference in calibrate.py.
"""

from __future__ import annotations

from collections import Counter

BUCKETS = 64  # a power of two, so x * BUCKETS is exact


def _bucket_span(lo: float, hi: float) -> range:
    a = min(BUCKETS - 1, max(0, int(lo * BUCKETS)))
    b = min(BUCKETS - 1, max(0, int(hi * BUCKETS)))
    return range(a, b + 1)


def query_matches(q: tuple, o: tuple) -> bool:
    _, xmin, ymin, xmax, ymax, qkws, predicate, expiry = q
    _, x, y, okws, ts = o
    if ts > expiry or not (xmin <= x < xmax and ymin <= y < ymax):
        return False
    if predicate == "INSIDE":
        return True
    if predicate == "OVERLAPS":
        return any(k in okws for k in qkws)
    if predicate == "CONTAINS":
        return all(k in okws for k in qkws)
    raise ValueError(f"unknown predicate {predicate!r}")


class ReferenceMatcher:
    def __init__(self) -> None:
        self.buckets: dict[tuple[int, int], list[tuple]] = {}

    def add(self, q: tuple) -> None:
        for i in _bucket_span(q[1], q[3]):
            for j in _bucket_span(q[2], q[4]):
                self.buckets.setdefault((i, j), []).append(q)

    def match(self, o: tuple) -> list[tuple[int, int]]:
        x, y = o[1], o[2]
        key = (min(BUCKETS - 1, int(x * BUCKETS)), min(BUCKETS - 1, int(y * BUCKETS)))
        return [(q[0], o[0]) for q in self.buckets.get(key, ()) if query_matches(q, o)]


def expected_matches(standing: list, stream: list) -> list[Counter]:
    """Per stream chunk, the (qid, oid) multiset the program must emit."""
    ref = ReferenceMatcher()
    for q in standing:
        ref.add(q)
    out: list[Counter] = []
    for tag, items in stream:
        got: Counter = Counter()
        if tag == "Q":
            for q in items:
                ref.add(q)
        else:
            for o in items:
                got.update(ref.match(o))
        out.append(got)
    return out

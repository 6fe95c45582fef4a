"""Core data model: points, half-open rectangles, streamed objects, continuous queries.

All rectangles in the system are half-open: the min corner is inside, the max
corner is not. This makes any axis-aligned tiling unambiguous (every point
belongs to exactly one tile) and is relied on by the grid and routing layers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, NamedTuple

__all__ = [
    "Predicate",
    "Point",
    "Rect",
    "SpatialKeywordObject",
    "ContinuousQuery",
    "MatchResult",
    "tokenize",
    "inside",
    "overlaps_text",
    "contains_text",
    "matches",
]


class Predicate(enum.Enum):
    """Matching predicate attached to a continuous query."""

    INSIDE = "INSIDE"
    OVERLAPS = "OVERLAPS"
    CONTAINS = "CONTAINS"


class Point(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned rectangle, min corner inclusive, max corner exclusive."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError(f"degenerate rectangle {self}")

    def contains(self, p: Point) -> bool:
        return self.xmin <= p.x < self.xmax and self.ymin <= p.y < self.ymax

    def intersects(self, other: "Rect") -> bool:
        return (
            self.xmin < other.xmax
            and other.xmin < self.xmax
            and self.ymin < other.ymax
            and other.ymin < self.ymax
        )

    def clip(self, other: "Rect") -> "Rect | None":
        """Intersection with `other`, or None when the overlap is empty."""
        xmin = max(self.xmin, other.xmin)
        ymin = max(self.ymin, other.ymin)
        xmax = min(self.xmax, other.xmax)
        ymax = min(self.ymax, other.ymax)
        if xmin >= xmax or ymin >= ymax:
            return None
        return Rect(xmin, ymin, xmax, ymax)

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin


def tokenize(text: str | Iterable[str]) -> frozenset[str]:
    """Normalize raw text (or an iterable of tokens) into a keyword set.

    Case-folded, whitespace-tokenized, deduplicated. Empty tokens vanish.
    """
    if isinstance(text, str):
        parts: Iterable[str] = text.split()
    else:
        parts = text
    return frozenset(t.casefold() for t in parts if t)


@dataclass(frozen=True, slots=True)
class SpatialKeywordObject:
    """One streamed object: id, location, keyword set, logical timestamp."""

    oid: int
    loc: Point
    text: frozenset[str]
    ts: int

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError(f"object {self.oid} has an empty keyword set")


@dataclass(frozen=True, slots=True)
class ContinuousQuery:
    """A standing query: MBR, keyword set, predicate, expiry timestamp.

    A query is live for an object stamped ts while ts <= expiry; after its
    expiry it is dropped whole by the evaluator's next cleaning step that
    the watermark allows.
    """

    qid: int
    mbr: Rect
    text: frozenset[str]
    predicate: Predicate
    expiry: int

    def __post_init__(self) -> None:
        if self.predicate is not Predicate.INSIDE and not self.text:
            raise ValueError(f"query {self.qid} needs keywords for {self.predicate}")

    def live_at(self, ts: int) -> bool:
        return ts <= self.expiry


class MatchResult(NamedTuple):
    qid: int
    oid: int
    ts: int


def inside(loc: Point, rect: Rect) -> bool:
    """Half-open point-in-rectangle test."""
    return rect.contains(loc)


def overlaps_text(o_text: frozenset[str], q_text: frozenset[str]) -> bool:
    """True when the object and query share at least one keyword."""
    return not o_text.isdisjoint(q_text)


def contains_text(o_text: frozenset[str], q_text: frozenset[str]) -> bool:
    """True when every query keyword appears in the object's text."""
    return q_text <= o_text


def matches(o: SpatialKeywordObject, q: ContinuousQuery) -> bool:
    """Full predicate evaluation, ignoring expiry.

    INSIDE is purely spatial; OVERLAPS and CONTAINS require the spatial test
    plus their textual condition. It runs once per candidate, so the tests
    of `inside`, `overlaps_text` and `contains_text` are inlined here.
    """
    x, y = o.loc
    r = q.mbr
    if not (r.xmin <= x < r.xmax and r.ymin <= y < r.ymax):
        return False
    pred = q.predicate
    if pred is Predicate.INSIDE:
        return True
    if pred is Predicate.OVERLAPS:
        return not o.text.isdisjoint(q.text)
    return q.text <= o.text

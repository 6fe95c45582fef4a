"""Workload generation and tweet-corpus ingestion.

Three query stream families share one synthetic object stream: query
centers either follow the object distribution, a skewed Gaussian
mixture, or (textually selective) draw their keywords from a narrow
frequency-rank window of the vocabulary. Everything is reproducible
from (spec, seed).

The vocabulary is kept in ascending frequency order and its bottom
rank window is reserved: objects never draw keywords from it, so a
selectivity percentile of zero yields query keywords guaranteed to be
disjoint from every object's text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import accumulate
from pathlib import Path

from .model import ContinuousQuery, Point, Predicate, Rect, SpatialKeywordObject

VALID_KINDS = ("NormalTweets", "SpatiallySkewed", "TextuallySelective")

# lon_min, lat_min, lon_max, lat_max
CONTINENTAL_US = (-125.0, 24.0, -66.5, 49.5)

FAR_FUTURE = 2**31

# default object/query-center mixture: a handful of "urban" clusters
TWEET_CENTERS = (
    (Point(0.30, 0.68), 0.30, 0.07),
    (Point(0.72, 0.32), 0.25, 0.06),
    (Point(0.52, 0.50), 0.20, 0.10),
    (Point(0.18, 0.22), 0.15, 0.05),
    (Point(0.82, 0.80), 0.10, 0.06),
)

SKEW_CENTERS = (
    (Point(0.25, 0.25), 0.7, 0.05),
    (Point(0.75, 0.75), 0.3, 0.05),
)


class EmptyCorpus(ValueError):
    """The tweet file contained no usable records."""


@dataclass(frozen=True)
class TweetRecord:
    id: str
    loc: Point  # raw (lon, lat), not yet world-normalized
    text: frozenset[str]


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str
    object_count: int = 0
    query_count: int = 0
    # ascending frequency rank: (token, relative frequency)
    keyword_vocab: tuple[tuple[str, float], ...] | None = None
    query_keywords: int = 3
    query_side_fraction: float = 0.001
    skew_centers: tuple[tuple[Point, float, float], ...] | None = None
    selectivity_percentile: float = 0.5
    seed: int = 0
    object_keywords: int = 3
    predicate: Predicate = Predicate.OVERLAPS
    expiry: int = FAR_FUTURE

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if self.object_count < 0 or self.query_count < 0:
            raise ValueError("counts must be >= 0")
        if not 0.0 < self.query_side_fraction <= 1.0:
            raise ValueError("query_side_fraction must be in (0, 1]")
        if not 0.0 <= self.selectivity_percentile <= 1.0:
            raise ValueError("selectivity_percentile must be in [0, 1]")
        if self.query_keywords < 0 or self.object_keywords < 1:
            raise ValueError("keyword counts out of range")


def synthetic_vocab(size: int = 10_000, s: float = 1.0) -> tuple[tuple[str, float], ...]:
    """Zipf(s) vocabulary in ascending frequency order.

    Token names carry their Zipf rank (w00001 is the most frequent), so
    tests can assert rank windows by name alone.
    """
    return tuple((f"w{size - i:05d}", (size - i) ** -s) for i in range(size))


def reserved_window(vocab_size: int) -> int:
    return max(1, vocab_size // 100)


def percentile_window(vocab_size: int, p: float) -> tuple[int, int]:
    """Ascending-rank slice [lo, hi) queried at selectivity percentile p."""
    w = reserved_window(vocab_size)
    lo = min(int(p * vocab_size), vocab_size - w)
    return lo, lo + w


def _object_weights(vocab) -> tuple[list[float], int]:
    """Cumulative object-keyword weights (so a draw does not re-sum the
    vocabulary) and the number of drawable tokens."""
    w = reserved_window(len(vocab))
    weights = [0.0] * w + [f for _, f in vocab[w:]]
    return list(accumulate(weights)), sum(1 for f in weights if f > 0)


def _draw_distinct(rng: random.Random, tokens, cum_weights, drawable: int,
                   k: int) -> frozenset[str]:
    k = min(k, drawable)
    out: set[str] = set()
    while len(out) < k:
        out.update(rng.choices(tokens, cum_weights=cum_weights, k=k - len(out)))
    return frozenset(out)


def _clamp(v: float) -> float:
    return min(max(v, 0.0), 0.999999)


def _draw_point(rng: random.Random, centers) -> Point:
    c, _, sigma = rng.choices(centers, [w for _, w, _ in centers])[0]
    return Point(_clamp(rng.gauss(c.x, sigma)), _clamp(rng.gauss(c.y, sigma)))


def square_mbr(center: Point, side: float) -> Rect:
    half = side / 2.0
    return Rect(
        max(center.x - half, 0.0),
        max(center.y - half, 0.0),
        min(center.x + half, 1.0),
        min(center.y + half, 1.0),
    )


def generate(spec: WorkloadSpec) -> tuple[list[SpatialKeywordObject], list[ContinuousQuery]]:
    """Materialize the (object, query) streams for one spec, deterministically."""
    rng = random.Random(spec.seed)
    vocab = spec.keyword_vocab if spec.keyword_vocab is not None else synthetic_vocab()
    tokens = [t for t, _ in vocab]
    ocum, drawable = _object_weights(vocab)

    objects = []
    for i in range(1, spec.object_count + 1):
        loc = _draw_point(rng, TWEET_CENTERS)
        text = _draw_distinct(rng, tokens, ocum, drawable, spec.object_keywords)
        objects.append(SpatialKeywordObject(i, loc, text, i))

    queries = []
    for qid in range(1, spec.query_count + 1):
        if spec.kind == "SpatiallySkewed":
            center = _draw_point(rng, spec.skew_centers or SKEW_CENTERS)
        else:
            center = _draw_point(rng, TWEET_CENTERS)
        if spec.kind == "TextuallySelective":
            lo, hi = percentile_window(len(vocab), spec.selectivity_percentile)
            kws = frozenset(rng.sample(tokens[lo:hi], min(spec.query_keywords, hi - lo)))
        else:
            kws = _draw_distinct(rng, tokens, ocum, drawable, spec.query_keywords)
        queries.append(ContinuousQuery(
            qid, square_mbr(center, spec.query_side_fraction),
            kws, spec.predicate, spec.expiry))
    return objects, queries


# -- scale-factor transform -------------------------------------------------------------


def scale_object(o: SpatialKeywordObject, sf: float) -> SpatialKeywordObject:
    return replace(o, loc=Point(o.loc.x * sf, o.loc.y * sf))


def scale_query(q: ContinuousQuery, sf: float) -> ContinuousQuery:
    r = q.mbr
    return replace(q, mbr=Rect(r.xmin * sf, r.ymin * sf, r.xmax * sf, r.ymax * sf))


# -- tweet corpus -----------------------------------------------------------------------


@dataclass
class TweetCorpus:
    records: list[TweetRecord]
    skipped: int


def read_tweets(path: str | Path) -> TweetCorpus:
    """Parse `id, lat, lon, text...` lines; malformed lines count, not crash."""
    records: list[TweetRecord] = []
    skipped = 0
    with open(path, encoding="utf-8", errors="replace") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",", 3)
            if len(parts) < 3:
                skipped += 1
                continue
            try:
                lat = float(parts[1])
                lon = float(parts[2])
            except ValueError:
                skipped += 1
                continue
            text = frozenset(parts[3].split()) if len(parts) == 4 else frozenset()
            records.append(TweetRecord(parts[0].strip(), Point(lon, lat), text))
    return TweetCorpus(records, skipped)


def normalize_location(raw: Point, bbox=CONTINENTAL_US) -> Point | None:
    """Map raw (lon, lat) into the unit world; None when outside the box."""
    lon_min, lat_min, lon_max, lat_max = bbox
    if not (lon_min <= raw.x <= lon_max and lat_min <= raw.y <= lat_max):
        return None
    x = (raw.x - lon_min) / (lon_max - lon_min)
    y = (raw.y - lat_min) / (lat_max - lat_min)
    return Point(_clamp(x), _clamp(y))


def ingest_tweets(path: str | Path, limit: int,
                  bbox=CONTINENTAL_US) -> list[SpatialKeywordObject]:
    """`limit` objects from the corpus, looping from the top when it runs out."""
    corpus = read_tweets(path)
    usable = []
    for rec in corpus.records:
        loc = normalize_location(rec.loc, bbox)
        # keyword-less tweets can never match; objects must carry text
        if loc is not None and rec.text:
            usable.append((loc, rec.text))
    if not usable:
        raise EmptyCorpus(f"no usable records in {path}")
    out = []
    for i in range(limit):
        loc, text = usable[i % len(usable)]
        out.append(SpatialKeywordObject(i + 1, loc, text, i + 1))
    return out

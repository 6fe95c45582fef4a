"""Seeded input generation for the three benchmark workloads.

Inputs are plain tuples so that the reference matcher never touches the
program's types; `to_model` converts them for the program at the end.

  object: (oid, x, y, keywords, ts)
  query:  (qid, xmin, ymin, xmax, ymax, keywords, predicate, expiry)

The location mixture, the vocabulary and the hotspot path are fixed; the
seed draws the individual objects and queries from them. Fixing the shape
keeps the deterministic metrics (messages per event, alpha) close from one
seed to the next, while every seed still gives a different stream.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

NEVER = 2**31
VOCAB_SIZE = 10_000
VOCAB = tuple(f"k{r}" for r in range(VOCAB_SIZE))  # index = frequency rank

# tweet-like location mixture: (cx, cy, weight, sigma); the other 12% is uniform
CITIES = (
    (0.30, 0.68, 0.26, 0.06),
    (0.72, 0.32, 0.22, 0.05),
    (0.52, 0.50, 0.18, 0.09),
    (0.18, 0.22, 0.12, 0.04),
    (0.82, 0.80, 0.10, 0.05),
)

# hotspot centres visited in order, equal shares of the stream each
HOTSPOT_PATH = ((0.25, 0.25), (0.75, 0.30), (0.70, 0.75), (0.30, 0.70))
HOTSPOT_SIGMA = 0.08


@dataclass(frozen=True)
class Shape:
    """Sizes and settings of one workload at scale 1."""

    grid: int
    standing: int
    object_chunks: int
    chunk: int  # objects per object chunk
    churn_per_gap: int = 0  # queries arriving after each object chunk
    adaptive: bool = False
    stats_cadence: int = 10_000
    sample_pm: bool = True  # initial partitioning from an object sample


SHAPES = {
    "tweets-static": Shape(grid=128, standing=5_000, object_chunks=40, chunk=1_000),
    "query-churn": Shape(grid=128, standing=1_000, object_chunks=40, chunk=1_000,
                         churn_per_gap=100),
    "drifting-hotspot": Shape(grid=128, standing=5_000, object_chunks=40, chunk=1_000,
                              adaptive=True, stats_cadence=5_000, sample_pm=False),
}
QUERY_CHUNK = 1_000  # standing queries per set-up chunk


@dataclass
class Inputs:
    shape: Shape
    standing: list  # query tuples registered in set-up
    stream: list  # ("D" | "Q", [tuples]) chunks, each ingested then drained

    @property
    def stream_events(self) -> int:
        return sum(len(items) for _, items in self.stream)


def _zipf_cum() -> list[float]:
    acc, cum = 0.0, []
    for r in range(VOCAB_SIZE):
        acc += 1.0 / (r + 1)
        cum.append(acc)
    return cum


_WORD_CUM = _zipf_cum()


def draw_words(rng: random.Random, k: int) -> frozenset[str]:
    """k distinct words, each drawn Zipf(1) by rank, as tweets and ad keywords are."""
    out: set[str] = set()
    total = _WORD_CUM[-1]
    while len(out) < k:
        out.add(VOCAB[bisect.bisect(_WORD_CUM, rng.random() * total)])
    return frozenset(out)


_CITY_CUM = tuple(sum(c[2] for c in CITIES[: i + 1]) for i in range(len(CITIES)))


def _city_point(rng: random.Random) -> tuple[float, float]:
    u = rng.random()
    if u >= _CITY_CUM[-1]:
        return rng.random(), rng.random()
    cx, cy, _, sigma = CITIES[bisect.bisect(_CITY_CUM, u)]
    return _gauss_in_world(rng, cx, cy, sigma)


def _gauss_in_world(rng: random.Random, cx: float, cy: float, sigma: float) -> tuple[float, float]:
    while True:
        x, y = rng.gauss(cx, sigma), rng.gauss(cy, sigma)
        if 0.0 <= x < 1.0 and 0.0 <= y < 1.0:
            return x, y


def _square(qid: int, x: float, y: float, side: float, kws, predicate: str, expiry: int):
    h = side / 2
    return (qid, x - h, y - h, x + h, y + h, kws, predicate, expiry)


def _tweet(rng: random.Random, oid: int) -> tuple:
    x, y = _city_point(rng)
    return (oid, x, y, draw_words(rng, rng.randint(2, 5)), oid)


def _keyword_query(rng: random.Random, qid: int, predicate: str, expiry: int) -> tuple:
    x, y = _city_point(rng)
    side = rng.uniform(0.008, 0.012)
    return _square(qid, x, y, side, draw_words(rng, rng.randint(1, 3)), predicate, expiry)


def generate(workload: str, seed: int, part: int = 0, scale: float = 1.0) -> Inputs:
    """Input set `part` of the workload for `seed`.

    `scale` shrinks the standing queries, the object chunks and the churn
    per gap (tests); chunks keep their size.
    """
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}/{seed}/{part}")
    n_standing = max(1, int(shape.standing * scale))
    n_chunks = max(2, int(shape.object_chunks * scale))
    chunk = shape.chunk
    n_objects = n_chunks * chunk

    if workload == "drifting-hotspot":
        standing = [_square(qid, rng.random(), rng.random(), 0.02, frozenset(), "INSIDE", NEVER)
                    for qid in range(n_standing)]
        objects = []
        for oid in range(n_objects):
            cx, cy = HOTSPOT_PATH[oid * len(HOTSPOT_PATH) // n_objects]
            x, y = _gauss_in_world(rng, cx, cy, HOTSPOT_SIGMA)
            objects.append((oid, x, y, draw_words(rng, 3), oid))
    else:
        standing = [_keyword_query(rng, qid, "OVERLAPS", NEVER) for qid in range(n_standing)]
        objects = [_tweet(rng, oid) for oid in range(n_objects)]

    stream: list = []
    qid = n_standing
    churn = max(1, int(shape.churn_per_gap * scale)) if shape.churn_per_gap else 0
    for c in range(n_chunks):
        part = objects[c * chunk : (c + 1) * chunk]
        stream.append(("D", part))
        if churn and c < n_chunks - 1:
            now = part[-1][4]
            batch = []
            for _ in range(churn):
                predicate = "OVERLAPS" if rng.random() < 0.5 else "CONTAINS"
                lifetime = rng.randint(chunk, 6 * chunk)
                batch.append(_keyword_query(rng, qid, predicate, now + lifetime))
                qid += 1
            stream.append(("Q", batch))
    return Inputs(shape, standing, stream)


def to_model(inputs: Inputs):
    """(standing, stream) rebuilt as the program's objects and queries."""
    from skystream.model import ContinuousQuery, Point, Predicate, Rect, SpatialKeywordObject

    def query(t):
        return ContinuousQuery(t[0], Rect(t[1], t[2], t[3], t[4]), t[5], Predicate[t[6]], t[7])

    def obj(t):
        return SpatialKeywordObject(t[0], Point(t[1], t[2]), t[3], t[4])

    standing = [query(t) for t in inputs.standing]
    stream = [(tag, [obj(t) for t in items] if tag == "D" else [query(t) for t in items])
              for tag, items in inputs.stream]
    return standing, stream

"""Workload generator and tweet ingestion tests."""

from __future__ import annotations

import hashlib
import math

import pytest

from skystream.model import Point, Predicate
from skystream.workload import (
    CONTINENTAL_US,
    EmptyCorpus,
    TWEET_CENTERS,
    WorkloadSpec,
    generate,
    ingest_tweets,
    normalize_location,
    percentile_window,
    read_tweets,
    reserved_window,
    scale_object,
    scale_query,
    synthetic_vocab,
)


def spec(**over):
    base = dict(kind="NormalTweets", object_count=50, query_count=30, seed=11)
    base.update(over)
    return WorkloadSpec(**base)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            spec(kind="Uniform")

    def test_negative_counts(self):
        with pytest.raises(ValueError):
            spec(object_count=-1)

    def test_side_fraction_range(self):
        with pytest.raises(ValueError):
            spec(query_side_fraction=0.0)
        with pytest.raises(ValueError):
            spec(query_side_fraction=1.5)

    def test_percentile_range(self):
        with pytest.raises(ValueError):
            spec(kind="TextuallySelective", selectivity_percentile=1.2)


class TestVocabulary:
    def test_zipf_is_ascending_by_frequency(self):
        vocab = synthetic_vocab(1000)
        freqs = [f for _, f in vocab]
        assert freqs == sorted(freqs)
        assert len(vocab) == 1000
        assert vocab[-1][0] == "w00001"  # heaviest token carries rank 1

    def test_window_arithmetic(self):
        assert reserved_window(10_000) == 100
        assert reserved_window(50) == 1
        assert percentile_window(10_000, 0.0) == (0, 100)
        assert percentile_window(10_000, 0.5) == (5000, 5100)
        assert percentile_window(10_000, 1.0) == (9900, 10_000)

    def test_objects_never_use_the_reserved_bottom(self):
        vocab = synthetic_vocab(500)
        objects, _ = generate(spec(object_count=400, keyword_vocab=vocab))
        reserved = {t for t, _ in vocab[: reserved_window(len(vocab))]}
        used = set().union(*(o.text for o in objects))
        assert used.isdisjoint(reserved)


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = generate(spec())
        b = generate(spec())
        assert a == b
        c = generate(spec(seed=12))
        assert a != c

    def test_empty_query_stream(self):
        objects, queries = generate(spec(query_count=0))
        assert queries == []
        assert len(objects) == 50

    def test_object_stream_shape(self):
        objects, _ = generate(spec(object_count=80, object_keywords=4))
        assert [o.oid for o in objects] == list(range(1, 81))
        assert [o.ts for o in objects] == list(range(1, 81))
        for o in objects:
            assert len(o.text) == 4
            assert 0.0 <= o.loc.x < 1.0 and 0.0 <= o.loc.y < 1.0

    def test_query_mbrs_are_world_clipped_squares(self):
        _, queries = generate(spec(query_count=200, query_side_fraction=0.02))
        for q in queries:
            r = q.mbr
            assert 0.0 <= r.xmin < r.xmax <= 1.0
            assert 0.0 <= r.ymin < r.ymax <= 1.0
            assert r.xmax - r.xmin <= 0.02 + 1e-12
            assert r.ymax - r.ymin <= 0.02 + 1e-12
        unclipped = [q for q in queries
                     if 0.01 < q.mbr.xmin and q.mbr.xmax < 0.99]
        assert unclipped, "expected interior queries"
        for q in unclipped:
            assert q.mbr.xmax - q.mbr.xmin == pytest.approx(0.02)
            assert q.mbr.ymax - q.mbr.ymin == pytest.approx(0.02)

    def test_predicate_and_expiry_plumb_through(self):
        _, queries = generate(spec(predicate=Predicate.CONTAINS, expiry=77))
        assert all(q.predicate is Predicate.CONTAINS for q in queries)
        assert all(q.expiry == 77 for q in queries)

    def test_selective_queries_stay_in_their_rank_window(self):
        vocab = synthetic_vocab(1000)
        for p in (0.0, 0.3, 1.0):
            _, queries = generate(spec(
                kind="TextuallySelective", selectivity_percentile=p,
                keyword_vocab=vocab, query_count=60))
            lo, hi = percentile_window(1000, p)
            window = {t for t, _ in vocab[lo:hi]}
            for q in queries:
                assert q.text <= window

    def test_percentile_zero_is_disjoint_from_objects(self):
        vocab = synthetic_vocab(800)
        objects, queries = generate(spec(
            kind="TextuallySelective", selectivity_percentile=0.0,
            keyword_vocab=vocab, object_count=500, query_count=80))
        object_kws = set().union(*(o.text for o in objects))
        query_kws = set().union(*(q.text for q in queries))
        assert query_kws and object_kws
        assert query_kws.isdisjoint(object_kws)

    def test_match_potential_grows_with_percentile(self):
        # higher-percentile windows use more frequent keywords, so more
        # objects share at least one keyword with some query; at this tiny
        # scale only the endpoints are sampling-noise-proof
        vocab = synthetic_vocab(1000)
        objects, _ = generate(spec(object_count=400, keyword_vocab=vocab))
        sharing = {}
        for p in (0.0, 0.1, 0.5, 1.0):
            _, queries = generate(spec(
                kind="TextuallySelective", selectivity_percentile=p,
                keyword_vocab=vocab, query_count=60))
            qkws = set().union(*(q.text for q in queries))
            sharing[p] = sum(1 for o in objects if o.text & qkws)
        assert sharing[0.0] == 0
        assert sharing[1.0] > max(sharing[0.1], sharing[0.5])
        assert max(sharing[0.1], sharing[0.5]) < sharing[1.0] / 10

    def test_skewed_queries_cluster_at_their_centers(self):
        centers = ((Point(0.2, 0.2), 0.5, 0.03), (Point(0.8, 0.8), 0.5, 0.03))
        _, queries = generate(spec(
            kind="SpatiallySkewed", skew_centers=centers, query_count=150))
        near = 0
        for q in queries:
            cx = (q.mbr.xmin + q.mbr.xmax) / 2
            cy = (q.mbr.ymin + q.mbr.ymax) / 2
            d = min(math.hypot(cx - c.x, cy - c.y) for c, _, _ in centers)
            near += d < 0.15
        assert near >= 140

    def test_normal_queries_follow_the_object_mixture(self):
        _, queries = generate(spec(query_count=150))
        near = 0
        for q in queries:
            cx = (q.mbr.xmin + q.mbr.xmax) / 2
            cy = (q.mbr.ymin + q.mbr.ymax) / 2
            d = min(math.hypot(cx - c.x, cy - c.y) for c, _, _ in TWEET_CENTERS)
            near += d < 0.3
        assert near >= 135


def stream_digest(spec: WorkloadSpec) -> str:
    objects, queries = generate(spec)
    lines = [f"D {o.oid} {o.loc.x!r} {o.loc.y!r} {o.ts} {','.join(sorted(o.text))}"
             for o in objects]
    lines += [f"Q {q.qid} {q.mbr.xmin!r} {q.mbr.ymin!r} {q.mbr.xmax!r} {q.mbr.ymax!r} "
              f"{q.predicate.name} {q.expiry} {','.join(sorted(q.text))}"
              for q in queries]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class TestStreamDigest:
    """Pinned streams: generator speed-ups must not change any draw."""

    @pytest.mark.parametrize("kind,seed,want", [
        ("NormalTweets", 0, "1837bfcf09ad2161"),
        ("NormalTweets", 7, "9e46eea9e2c5a6e4"),
        ("SpatiallySkewed", 0, "475690047272376c"),
        ("SpatiallySkewed", 7, "00902bf67d5f6667"),
        ("TextuallySelective", 0, "4225d98575aefdca"),
        ("TextuallySelective", 7, "a73f3503e3dc24ba"),
    ])
    def test_default_vocabulary(self, kind, seed, want):
        assert stream_digest(spec(kind=kind, object_count=150, query_count=40,
                                  seed=seed)) == want

    def test_vocabulary_smaller_than_the_keyword_count(self):
        # 3 tokens, one reserved: every object and query draw is capped at 2
        s = spec(object_count=60, query_count=20, seed=3,
                 keyword_vocab=synthetic_vocab(3), object_keywords=3, query_keywords=3)
        assert stream_digest(s) == "21e060d20fbd3423"


class TestScaleFactor:
    def test_scaling_compresses_toward_the_origin(self):
        objects, queries = generate(spec())
        o = scale_object(objects[0], 0.5)
        assert o.loc == Point(objects[0].loc.x * 0.5, objects[0].loc.y * 0.5)
        assert o.text == objects[0].text and o.ts == objects[0].ts
        q = scale_query(queries[0], 0.5)
        assert q.mbr.xmax == pytest.approx(queries[0].mbr.xmax * 0.5)
        assert q.text == queries[0].text


TWEETS = """\
1001, 40.7, -74.0, harbor lights tonight
1002, 34.05, -118.24, sunset over the canyon
1003, 41.88, -87.63, wind off the lake
bad line
1004, not_a_float, -74.0, nope
1005, 51.5, -0.12, off the map entirely
1006, 29.76, -95.36, rain again downtown
"""


class TestTweetIngestion:
    @pytest.fixture
    def corpus_file(self, tmp_path):
        p = tmp_path / "tweets.txt"
        p.write_text(TWEETS)
        return p

    def test_parse_counts_malformed_lines(self, corpus_file):
        corpus = read_tweets(corpus_file)
        assert len(corpus.records) == 5  # the off-map one still parses
        assert corpus.skipped == 2

    def test_normalization_maps_the_bbox_to_the_unit_world(self):
        lon_min, lat_min, lon_max, lat_max = CONTINENTAL_US
        corner = normalize_location(Point(lon_min, lat_min))
        assert corner == Point(0.0, 0.0)
        mid = normalize_location(Point((lon_min + lon_max) / 2,
                                       (lat_min + lat_max) / 2))
        assert mid.x == pytest.approx(0.5) and mid.y == pytest.approx(0.5)
        assert normalize_location(Point(-0.12, 51.5)) is None

    def test_limit_wraps_around_the_file(self, corpus_file):
        objects = ingest_tweets(corpus_file, 10)
        assert len(objects) == 10
        assert [o.oid for o in objects] == list(range(1, 11))
        assert [o.ts for o in objects] == list(range(1, 11))
        # 4 usable records (the London one is outside the bbox): 1..4,1..4,1,2
        assert objects[0].loc == objects[4].loc
        assert objects[1].text == objects[9].text
        for o in objects:
            assert 0.0 <= o.loc.x < 1.0 and 0.0 <= o.loc.y < 1.0

    def test_empty_corpus_raises(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("\n# nothing here\n")
        with pytest.raises(EmptyCorpus):
            ingest_tweets(p, 5)

    def test_keyword_less_tweets_are_parsed_but_never_ingested(self, tmp_path):
        p = tmp_path / "sparse.txt"
        p.write_text("1, 40.7, -74.0\n2, 40.7, -74.0, real words\n")
        corpus = read_tweets(p)
        assert len(corpus.records) == 2 and corpus.skipped == 0
        objects = ingest_tweets(p, 4)
        assert all(o.text == frozenset({"real", "words"}) for o in objects)

    def test_text_tokens_come_from_the_remainder(self, corpus_file):
        corpus = read_tweets(corpus_file)
        rec = corpus.records[0]
        assert rec.id == "1001"
        assert rec.text == frozenset({"harbor", "lights", "tonight"})

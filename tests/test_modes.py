"""Every distribution mode against one brute-force index.

Hypothesis draws queries of all three predicates with random expiries and
objects on an 8x8 grid. Some objects lie on or past the unit square's
edges, and some query ranges reach past them; every mode drops such an
object, so the oracle is fed only the objects inside the square. Under random_weighted scheduling, agrid, uniform,
broadcast and adaptive agrid must each emit exactly the SingleIndexOracle's
match multiset; textual, which serves keyword predicates only, must do the
same on the keyword-predicate subset. Queries arrive in two batches, the
second after part of the object stream, so registrations also land on
evaluators that have cleaned, refreshed or migrated. Objects are ingested
in runs of a drawn length with no delivery inside a run, so every mode
also routes and evaluates object batches larger than one.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SingleIndexOracle
from skystream.agrid import WORLD
from skystream.model import ContinuousQuery, Point, Predicate, Rect, SpatialKeywordObject
from skystream.runtime import System, SystemConfig

WORDS = ("a", "b", "c", "d", "e")
SPATIAL_MODES = (("agrid", False), ("uniform", False), ("broadcast", False),
                 ("agrid", True))

coord = st.integers(0, 998).map(lambda v: v / 1000)
# mostly inside the unit square, sometimes on or past one of its edges
object_coord = st.one_of(coord, coord, st.integers(-300, 1300).map(lambda v: v / 1000))
query_start = st.integers(-300, 998).map(lambda v: v / 1000)
extent = st.integers(1, 600).map(lambda v: v / 1000)


@st.composite
def queries(draw):
    out = []
    for qid in range(1, draw(st.integers(1, 24)) + 1):
        pred = draw(st.sampled_from(list(Predicate)))
        kws = draw(st.frozensets(st.sampled_from(WORDS),
                                 min_size=0 if pred is Predicate.INSIDE else 1,
                                 max_size=3))
        # ends past 0, so every range overlaps the square and is accepted
        x0, y0 = draw(query_start), draw(query_start)
        mbr = Rect(x0, y0, max(x0, 0.0) + draw(extent), max(y0, 0.0) + draw(extent))
        out.append(ContinuousQuery(qid, mbr, kws, pred, draw(st.integers(1, 120))))
    return out


@st.composite
def objects(draw):
    return [SpatialKeywordObject(
                oid, Point(draw(object_coord), draw(object_coord)),
                draw(st.frozensets(st.sampled_from(WORDS), min_size=1, max_size=3)),
                oid)
            for oid in range(1, draw(st.integers(1, 80)) + 1)]


def oracle_matches(qs, objs, q_split, o_split):
    oracle = SingleIndexOracle()
    out: Counter = Counter()
    for batch_q, batch_o in ((qs[:q_split], objs[:o_split]),
                             (qs[q_split:], objs[o_split:])):
        for q in batch_q:
            oracle.register(q)
        for o in batch_o:
            if WORLD.contains(o.loc):
                out.update(oracle.process(o))
    return out


def system_matches(qs, objs, q_split, o_split, seed, mode, adaptive, run):
    s = System(SystemConfig(
        grid_n=8, grid_m=8, routers=2, evaluators=3, seed=seed,
        policy="random_weighted", beta=0.02, stats_cadence=40, clean_interval=8,
        adaptive=adaptive, mode=mode))
    burst = random.Random(seed)
    for batch_q, batch_o in ((qs[:q_split], objs[:o_split]),
                             (qs[q_split:], objs[o_split:])):
        for q in batch_q:
            s.ingest_query(q)
        s.drain()
        for k, o in enumerate(batch_o, 1):
            s.ingest_object(o)
            if k % run:
                continue
            for _ in range(burst.randint(0, 5)):
                if not s.tick():
                    break
        s.drain()
    assert s.counters["rebalance_count"] == len(s.decisions)  # every op completed
    return Counter(map(tuple, s.results))


@settings(max_examples=60, deadline=None)
@given(queries(), objects(), st.data())
def test_every_mode_emits_the_oracle_multiset(qs, objs, data):
    q_split = data.draw(st.integers(0, len(qs)), label="q_split")
    o_split = data.draw(st.integers(0, len(objs)), label="o_split")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    run = data.draw(st.integers(1, 8), label="run")
    want = oracle_matches(qs, objs, q_split, o_split)
    for mode, adaptive in SPATIAL_MODES:
        got = system_matches(qs, objs, q_split, o_split, seed, mode, adaptive, run)
        assert got == want, f"{mode} (adaptive={adaptive}) diverged"

    keyed = [q for q in qs if q.predicate is not Predicate.INSIDE]
    k_split = sum(1 for q in qs[:q_split] if q.predicate is not Predicate.INSIDE)
    want = oracle_matches(keyed, objs, k_split, o_split)
    got = system_matches(keyed, objs, k_split, o_split, seed, "textual", False, run)
    assert got == want, "textual diverged"

"""Router-side keyword summaries as an admission gate.

Routers keep, per partition and per block of grid cells, the union of
the keywords standing queries there could match. An incoming object
whose tokens miss its cell's block summary is dropped at the router and
never crosses the network. This demo
sweeps query selectivity: at percentile 1.0 queries use the most common
words (summaries admit nearly everything), at 0.0 they use words no
object ever carries (everything is dropped at the router).
"""

from skystream.runtime import System, SystemConfig
from skystream.workload import WorkloadSpec, generate, synthetic_vocab

OBJECTS = 10_000
QUERIES = 800


def run(vocab, objects, percentile):
    spec = WorkloadSpec(kind="TextuallySelective", query_count=QUERIES,
                        keyword_vocab=vocab, query_keywords=3,
                        selectivity_percentile=percentile, seed=5)
    queries = generate(spec)[1]
    cfg = SystemConfig(grid_n=64, grid_m=64, routers=2, evaluators=4,
                       stats_cadence=10**9, mode="agrid",
                       retain_results=False)
    s = System(cfg)
    for q in queries:
        s.ingest_query(q)
    s.drain()
    for i, o in enumerate(objects):
        s.ingest_object(o)
        if i % 1000 == 999:
            s.drain()
    s.drain()
    return s.counters["forwarded_objects"], s.counters["dropped_by_summary"]


def main():
    vocab = synthetic_vocab()
    objects = generate(WorkloadSpec(kind="TextuallySelective",
                                    object_count=OBJECTS,
                                    keyword_vocab=vocab, seed=5))[0]
    print(f"{OBJECTS} objects against {QUERIES} queries, by query selectivity\n")
    print(f"{'percentile':>10} {'forwarded':>10} {'dropped':>9} {'drop rate':>10}")
    for p in (1.0, 0.75, 0.5, 0.25, 0.1, 0.0):
        fwd, drop = run(vocab, objects, p)
        print(f"{p:>10} {fwd:>10} {drop:>9} {drop / OBJECTS:>9.1%}")


if __name__ == "__main__":
    main()

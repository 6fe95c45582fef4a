"""Output checks. Each returns a list of problems; an empty list passes."""

from __future__ import annotations

from collections import Counter


def check_chunk_matches(chunk: int, expected: Counter, emitted: list) -> list[str]:
    """The emitted (qid, oid) multiset equals the reference: none missing, none twice."""
    got = Counter(emitted)
    if got == expected:
        return []
    missing = expected - got
    extra = got - expected
    return [f"chunk {chunk}: {sum(missing.values())} matches missing "
            f"(e.g. {sorted(missing)[:3]}), {sum(extra.values())} extra or duplicated "
            f"(e.g. {sorted(extra)[:3]})"]


def check_object_accounting(counters, objects_ingested: int) -> list[str]:
    routed = (counters["forwarded_objects"] + counters["dropped_by_summary"]
              + counters["out_of_world"])
    if routed == objects_ingested:
        return []
    return [f"forwarded + dropped + out_of_world = {routed}, "
            f"but {objects_ingested} objects were ingested"]


def check_candidates(candidates: int, matches: int) -> list[str]:
    if candidates >= matches:
        return []
    return [f"{candidates} candidates cannot yield {matches} matches"]


def check_evictions(expiry: dict[int, int], resident: set[int], watermark: int,
                    expect_some: bool) -> list[str]:
    """Cleaning evicted only queries that expired before the watermark.

    `expiry` maps every registered qid to its expiry; `resident` holds the
    qids still indexed at some evaluator. With `expect_some`, at least one
    query must have been evicted.
    """
    gone = set(expiry) - resident
    if expect_some and not gone:
        return ["cleaning evicted no query"]
    live = sorted(q for q in gone if expiry[q] >= watermark)
    if live:
        return [f"queries {live[:5]} were evicted before the watermark {watermark} passed them"]
    return []


def check_tiling(pm: dict[int, tuple], n: int, m: int) -> list[str]:
    """Every cell of the n x m grid is owned by exactly one partition, cell by cell."""
    owners = [[0] * m for _ in range(n)]
    problems: list[str] = []
    for pid, (x0, y0, x1, y1) in pm.items():
        if not (0 <= x0 <= x1 < n and 0 <= y0 <= y1 < m):
            problems.append(f"partition {pid} {(x0, y0, x1, y1)} leaves the grid")
            continue
        for i in range(x0, x1 + 1):
            col = owners[i]
            for j in range(y0, y1 + 1):
                col[j] += 1
    bad = [(i, j, owners[i][j]) for i in range(n) for j in range(m) if owners[i][j] != 1]
    if bad:
        problems.append(f"{len(bad)} cells not owned exactly once, e.g. (x, y, owners) {bad[:3]}")
    return problems


def check_partition_views(pm: dict[int, tuple], router_pms: list[dict],
                          bounds: dict[int, tuple | None]) -> list[str]:
    """Routers hold the coordinator's map; each evaluator owns its partition or nothing."""
    problems = [f"router {i} holds a different partitions map"
                for i, rpm in enumerate(router_pms) if rpm != pm]
    problems += [f"evaluator {i} bounds {b} differ from its partition {pm.get(i)}"
                 for i, b in sorted(bounds.items()) if b != pm.get(i)]
    return problems


def check_migrations(completed: int) -> list[str]:
    return [] if completed >= 1 else ["no migration completed"]


def check_repeats(first: dict, again: dict, rep: int) -> list[str]:
    """A repeat of the same inputs must give the same counts: the runtime is seeded."""
    diff = sorted(k for k in first if first[k] != again.get(k))
    return [f"rep {rep} differs from rep 1 in {diff}"] if diff else []

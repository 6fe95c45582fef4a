"""Cost accounting inside one evaluator, and what a split would fix.

Feeds a small evaluator a handful of standing queries and a burst of
objects concentrated in one corner, then prints the row and column cost
profiles the evaluator maintains as it works. Those aggregates are the
whole input to find_best_split, so the chosen gridline cut can be read
straight off the printed profile. Finishes by actually performing the
move, the way a transfer does: snapshot the expensive strip's cells into a
batch, extract the strip, absorb the batch into a second evaluator, and
show both cost totals afterwards.
"""

import random

from skystream.agrid import GridGeometry
from skystream.evaluator import CellBatch, EvaluatorState, iter_region
from skystream.model import ContinuousQuery, Point, Predicate, SpatialKeywordObject
from skystream.workload import square_mbr

FOREVER = 2**31


def main():
    rng = random.Random(3)
    geom = GridGeometry(8, 8)
    ev = EvaluatorState(0, geom, (0, 0, 7, 7))

    words = ["rain", "coffee", "transit", "футбол", "opera"]
    for qid in range(12):
        center = Point(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        q = ContinuousQuery(qid, square_mbr(center, rng.uniform(0.1, 0.3)),
                            frozenset(rng.sample(words, 2)),
                            Predicate.OVERLAPS, FOREVER)
        ev.register_query(q)

    # objects pile up in the lower-left quarter
    for oid in range(400):
        loc = Point(min(abs(rng.gauss(0.2, 0.12)), 0.99),
                    min(abs(rng.gauss(0.2, 0.12)), 0.99))
        o = SpatialKeywordObject(oid, loc, frozenset({rng.choice(words)}), oid)
        ev.process_object(o)

    print(f"overall cost {ev.overall_cost}, {len(ev.registry)} queries, "
          f"{sum(ev.attach_count.values())} cell attachments")
    for label, agg in (("row", ev.row_cost), ("column", ev.col_cost)):
        print(f"\n{label} cost profile")
        for i in range(8):
            bar = "#" * (agg.get(i, 0) // 4)
            print(f"  {i}: {agg.get(i, 0):>5} {bar}")

    choice = ev.find_best_split()
    axis = "rows" if choice.axis == "h" else "columns"
    print(f"\nbest split: cut {axis} after index {choice.cut}, "
          f"sides cost {choice.cost_low} / {choice.cost_high} "
          f"(difference {choice.diff})")

    # perform the move the split suggests
    if choice.axis == "h":
        strip = (0, 0, 7, choice.cut)
    else:
        strip = (0, 0, choice.cut, 7)
    cells = [(c, ev.cells[c].copy()) for c in iter_region(strip) if c in ev.cells]
    records = {qid: ev.registry[qid] for _, cell in cells for qid in cell.qids}
    ev.extract_cells(strip)
    peer = EvaluatorState(1, geom, None)
    peer.absorb_cells(CellBatch(strip, cells, records))
    print(f"\nafter moving strip {strip}:")
    print(f"  evaluator 0 bounds {ev.bounds}, cost {ev.overall_cost}")
    print(f"  evaluator 1 bounds {peer.bounds}, cost {peer.overall_cost}")


if __name__ == "__main__":
    main()

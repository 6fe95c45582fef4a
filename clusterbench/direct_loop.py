"""The tweets-static job without the runtime: one thread, AGrid and EvaluatorState only.

    python3 clusterbench/direct_loop.py --seed 1

Routes each standing query to the partitions `AGrid.neighbor_search` finds
and each object to the partition `AGrid.route_point` names, with no
channels, routers, summaries or cleaning. It is the floor the runtime's
overhead is measured against; the README quotes its figures. Times are at
reference speed, as in run.py, and the matches are checked the same way.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def direct_rep(job, calib):
    from skystream.agrid import AGrid, GridGeometry
    from skystream.evaluator import EvaluatorState

    from clusterbench import checks
    from clusterbench.harness import Meter, initial_pm

    n = job.shape.grid
    box: dict = {}
    problems: list[str] = []

    def build():
        pm = initial_pm(job.sample, n)
        geom = GridGeometry(n, n)
        box["grid"] = AGrid(n, n, pm)
        box["states"] = {pid: EvaluatorState(pid, geom, rect) for pid, rect in pm.items()}

    def register(queries):
        grid, states = box["grid"], box["states"]
        for q in queries:
            for pid in grid.neighbor_search(q.mbr):
                states[pid].register_query(q)

    setup = Meter(calib)
    setup.segment(build)
    setup.segment(lambda: register(job.standing))
    stream = Meter(calib)
    for k, (tag, items) in enumerate(job.stream):
        emitted: list = []

        def process():
            grid, states = box["grid"], box["states"]
            for o in items:
                emitted.extend((m.qid, m.oid)
                               for m in states[grid.route_point(o.loc)].process_object(o))

        stream.segment(lambda: register(items) if tag == "Q" else process())
        problems += checks.check_chunk_matches(k, job.expected[k], emitted)
    return setup, stream, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from clusterbench.calibrate import Calibration
    from clusterbench.harness import Job

    calib = Calibration()
    job = Job("tweets-static", args.seed, 0, 1.0)
    rates, raw_rates, setups = [], [], []
    for _ in range(args.reps):
        setup, stream, problems = direct_rep(job, calib)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        rates.append(job.stream_events / stream.norm)
        raw_rates.append(job.stream_events / stream.raw)
        setups.append(setup.norm)
    print(f"direct loop, tweets-static seed {args.seed}, {args.reps} reps: "
          f"events_per_s {statistics.median(rates):.0f} (raw {statistics.median(raw_rates):.0f}), "
          f"setup_s {setups[0]:.3f}, matches checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())

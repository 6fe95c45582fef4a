"""Command-line front end.

Three subcommands:

  run     drive one simulated deployment (runtime.System, in any mode of
          runtime.WORKERS) over a generated workload or a trace file,
          writing metrics.csv, decisions.csv, results.txt and (for
          grid-backed modes) partitioning.json into --out
  bench   count routing operations for point and range lookups across
          partition counts, comparing the adaptive grid against a uniform
          grid scan and a reference hierarchical index
  advise  recommend a routing-cell size from workload rates

Log verbosity comes from the SKYSTREAM_LOG environment variable (DEBUG,
INFO, WARNING, ...). Exit status is 0 on success and 2 on configuration
or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import random
import sys
from pathlib import Path

import numpy as np

from .agrid import (
    AGrid,
    CellRect,
    GridGeometry,
    OutOfWorldError,
    dump_partitioning,
    rect_contains_cell,
    rect_intersect,
    uniform_partitioning,
)
from .balancer import (
    GranularityModel,
    advise_granularity,
    initial_partitioning,
    routing_load,
)
from .model import ContinuousQuery, Point, Predicate, SpatialKeywordObject
from .runtime import System, SystemConfig, format_match, parse_trace_line
from .workload import (
    WorkloadSpec,
    generate,
    ingest_tweets,
    scale_object,
    scale_query,
    square_mbr,
    synthetic_vocab,
)

log = logging.getLogger("skystream.cli")

# CLI mode name -> runtime mode name
MODES = {
    "agrid": "agrid",
    "uniform": "uniform",
    "textual": "textual",
    "broadcast-baseline": "broadcast",
}

METRICS_FIELDS = ("tick", "alpha", "totalCost", "forwardedObjects",
                  "droppedBySummary", "peakChannelDepth", "rebalanceCount",
                  "forwardedNoCandidate")
DECISIONS_FIELDS = ("tick", "opKind", "pids", "Cr", "Ct", "alphaBefore")

INGEST_CHUNK = 1000          # events between drains while streaming; bounds the object batches
SAMPLE_LIMIT = 5000          # objects used for the initial partitioning


# -- argument helpers ---------------------------------------------------------------


def _parse_grid(text: str) -> tuple[int, int]:
    """"64x64" or "64" -> (n, m)."""
    parts = text.lower().split("x")
    try:
        if len(parts) == 1:
            n = m = int(parts[0])
        elif len(parts) == 2:
            n, m = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(f"--grid wants NxM or N, got {text!r}") from None
    if n < 1 or m < 1:
        raise ValueError(f"grid dimensions must be positive, got {text!r}")
    return n, m


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"not a boolean: {text!r}")


# short CLI key -> WorkloadSpec field
_WL_ALIASES = {
    "objects": "object_count",
    "queries": "query_count",
    "qk": "query_keywords",
    "ok": "object_keywords",
    "side": "query_side_fraction",
    "percentile": "selectivity_percentile",
}
_WL_FIELDS = {
    "kind": str,
    "object_count": int,
    "query_count": int,
    "query_keywords": int,
    "object_keywords": int,
    "query_side_fraction": float,
    "selectivity_percentile": float,
    "seed": int,
    "expiry": int,
}


def _workload_mapping(text: str) -> dict:
    """Inline `k=v,k=v` or a JSON file path -> raw key/value mapping."""
    if os.path.isfile(text):
        raw = json.loads(Path(text).read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"workload file {text} must hold a JSON object")
        return raw
    raw = {}
    for item in text.split(","):
        if not item:
            continue
        key, sep, val = item.partition("=")
        if not sep:
            raise ValueError(f"workload spec wants key=value items, got {item!r}")
        raw[key.strip()] = val.strip()
    return raw


def build_workload(text: str, default_seed: int,
                   ) -> tuple[list[SpatialKeywordObject], list[ContinuousQuery]]:
    """Materialize (objects, queries) from a workload argument.

    Accepts the short inline keys (objects=, queries=, qk=, ok=, side=,
    percentile=) as well as the full WorkloadSpec field names; `vocab=N`
    picks a synthetic vocabulary size, `corpus=PATH` swaps the synthetic
    object stream for tweets read from PATH.
    """
    raw = _workload_mapping(text)
    corpus = raw.pop("corpus", None)
    vocab_size = raw.pop("vocab", None)
    predicate = raw.pop("predicate", None)

    kwargs: dict = {}
    for key, val in raw.items():
        field = _WL_ALIASES.get(key, key)
        if field not in _WL_FIELDS:
            options = sorted(set(_WL_ALIASES) | set(_WL_FIELDS) |
                             {"predicate", "vocab", "corpus"})
            raise ValueError(f"unknown workload key {key!r}; "
                             f"expected one of {', '.join(options)}")
        kwargs[field] = _WL_FIELDS[field](val)

    kwargs.setdefault("seed", default_seed)
    kwargs.setdefault("kind", "NormalTweets")
    if predicate is not None:
        try:
            kwargs["predicate"] = Predicate[str(predicate).upper()]
        except KeyError:
            raise ValueError(f"unknown predicate {predicate!r}") from None
    if vocab_size is not None:
        kwargs["keyword_vocab"] = synthetic_vocab(int(vocab_size))

    spec = WorkloadSpec(**kwargs)
    if corpus is None:
        return generate(spec)
    return _corpus_workload(str(corpus), spec)


def _corpus_workload(path: str, spec: WorkloadSpec,
                     ) -> tuple[list[SpatialKeywordObject], list[ContinuousQuery]]:
    """Objects straight from a tweet file; queries anchored at sampled tweets."""
    if spec.object_count < 1:
        raise ValueError("corpus workloads need objects=N (how many to ingest)")
    objects = ingest_tweets(path, limit=spec.object_count)
    rng = random.Random(spec.seed)
    queries = []
    for qid in range(1, spec.query_count + 1):
        anchor = rng.choice(objects)
        if spec.predicate is Predicate.INSIDE:
            text = frozenset()
        else:
            pool = sorted(anchor.text)
            text = frozenset(rng.sample(pool, min(spec.query_keywords, len(pool))))
        queries.append(ContinuousQuery(
            qid=qid,
            mbr=square_mbr(anchor.loc, spec.query_side_fraction),
            text=text,
            predicate=spec.predicate,
            expiry=spec.expiry,
        ))
    return objects, queries


def load_trace(path: str) -> list[tuple[str, object]]:
    events = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                ev = parse_trace_line(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if ev is not None:
                events.append(ev)
    return events


# -- run ----------------------------------------------------------------------------


def _initial_pm(events: list, n: int, m: int, evaluators: int,
                ) -> dict[int, CellRect] | None:
    """Partition along the object sample's cell histogram, like a warm start."""
    geom = GridGeometry(n, m)
    cost = np.zeros((n, m), dtype=np.int64)
    seen = 0
    for tag, item in events:
        if tag != "D":
            continue
        try:
            i, j = geom.cell_of(item.loc)
        except OutOfWorldError:
            continue
        cost[i, j] += 1
        seen += 1
        if seen >= SAMPLE_LIMIT:
            break
    if seen == 0:
        return None
    return initial_partitioning(cost, evaluators)


def cmd_run(args: argparse.Namespace) -> int:
    n, m = _parse_grid(args.grid)
    mode = MODES[args.mode]
    if bool(args.workload) == bool(args.trace):
        raise ValueError("give exactly one of --workload or --trace")
    if not (math.isfinite(args.sf) and args.sf > 0):
        raise ValueError(f"--sf must be positive and finite, got {args.sf}")

    cfg = SystemConfig(
        grid_n=n, grid_m=m,
        routers=args.routers, evaluators=args.evaluators,
        beta=args.beta, seed=args.seed,
        stats_cadence=args.stats_cadence, adaptive=args.adaptive,
        mode=mode, clean_interval=args.clean_interval,
        retain_results=False,
    )

    if args.trace:
        events = load_trace(args.trace)
    else:
        objects, queries = build_workload(args.workload, args.seed)
        events = [("Q", q) for q in queries] + [("D", o) for o in objects]
    if args.sf != 1.0:
        events = [("Q", scale_query(x, args.sf)) if tag == "Q"
                  else ("D", scale_object(x, args.sf)) for tag, x in events]
    n_objects = sum(1 for tag, _ in events if tag == "D")
    n_queries = len(events) - n_objects
    log.info("run: %d objects, %d queries, mode=%s grid=%dx%d",
             n_objects, n_queries, mode, n, m)

    pm = _initial_pm(events, n, m, args.evaluators) if mode == "agrid" else None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    matches = 0
    with open(out / "results.txt", "w") as rfh:
        def on_match(mres):
            nonlocal matches
            matches += 1
            rfh.write(format_match(mres) + "\n")

        s = System(cfg, pm=pm, on_match=on_match)
        pending = 0
        queries_pending = False
        for tag, item in events:
            # a query must be registered before any later object can reach
            # an evaluator through another router
            if pending >= INGEST_CHUNK or (tag == "D" and queries_pending):
                s.drain()
                pending = 0
                queries_pending = False
            if tag == "Q":
                s.ingest_query(item)
                queries_pending = True
            else:
                s.ingest_object(item)
            pending += 1
        s.drain()
        if s.pm:
            s.trigger_stats()   # guarantees a final metrics row
            s.drain()

    _write_csv(out / "metrics.csv", METRICS_FIELDS, s.metrics)
    _write_csv(out / "decisions.csv", DECISIONS_FIELDS, s.decisions)
    wrote = [out / "metrics.csv", out / "decisions.csv", out / "results.txt"]
    if s.pm:
        grid = s.workers[s.coordinator].unit.grid
        (out / "partitioning.json").write_text(dump_partitioning(grid))
        wrote.append(out / "partitioning.json")

    print(f"mode={args.mode} objects={n_objects} queries={n_queries} matches={matches}")
    c = s.counters
    line = (f"delivered={s.delivered_total}"
            f" candidates={c['candidates']}"
            f" forwarded={c['forwarded_objects']}"
            f" dropped={c['dropped_by_summary']}"
            f" rebalances={c['rebalance_count']}")
    if s.metrics:
        line += f" alpha={s.metrics[-1]['alpha']:.3f}"
    if s.use_summaries:
        # objects the router gates let through only on a registration no
        # refresh had covered yet
        pending = sum(s.workers[name].unit.pending_forwards for name in s.router_names)
        line += f" pending_forwards={pending}"
    print(line)
    print("wrote: " + " ".join(str(p) for p in wrote))
    return 0


def _write_csv(path: Path, fields: tuple, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)


# -- bench --------------------------------------------------------------------------


class RectTree:
    """Reference hierarchical index: a bounding-box tree over partitions.

    Built by median splits on rectangle centers with alternating axes.
    Operation counts are bounding-box tests, the usual proxy for the work
    a hierarchical index does per lookup.
    """

    __slots__ = ("root",)

    def __init__(self, pm: dict[int, CellRect]):
        items = [rect for _, rect in sorted(pm.items())]
        self.root = self._build(items, 0)

    def _build(self, items: list[CellRect], depth: int):
        if len(items) == 1:
            return (items[0], True, None, None)
        axis = depth % 2
        items = sorted(items, key=lambda r: r[axis] + r[axis + 2])
        mid = len(items) // 2
        left = self._build(items[:mid], depth + 1)
        right = self._build(items[mid:], depth + 1)
        lb, rb = left[0], right[0]
        bbox = (min(lb[0], rb[0]), min(lb[1], rb[1]),
                max(lb[2], rb[2]), max(lb[3], rb[3]))
        return (bbox, False, left, right)

    def point_ops(self, cell: tuple[int, int]) -> int:
        ops = 0
        stack = [self.root]
        while stack:
            bbox, leaf, left, right = stack.pop()
            ops += 1
            if not rect_contains_cell(bbox, cell):
                continue
            if not leaf:
                stack.append(left)
                stack.append(right)
        return ops

    def range_ops(self, crange: CellRect) -> int:
        ops = 0
        stack = [self.root]
        while stack:
            bbox, leaf, left, right = stack.pop()
            ops += 1
            if rect_intersect(bbox, crange) is None:
                continue
            if not leaf:
                stack.append(left)
                stack.append(right)
        return ops


BENCH_PARTITIONS = (16, 64, 256, 1024)
BENCH_FRACTIONS = (0.0005, 0.001, 0.005, 0.015)


def bench_rows(cells: int, trials: int, seed: int) -> list[dict]:
    """Mean op counts per layout: one point row plus one row per range size."""
    rng = random.Random(seed)
    points = [Point(rng.random(), rng.random()) for _ in range(trials)]
    ranges = {f: [square_mbr(Point(rng.random(), rng.random()), f)
                  for _ in range(trials)]
              for f in BENCH_FRACTIONS}
    rows = []
    for k in BENCH_PARTITIONS:
        pm = uniform_partitioning(cells, cells, k)
        grid = AGrid(cells, cells, pm)
        tree = RectTree(pm)
        tree_pt = sum(tree.point_ops(grid.cell_of(p)) for p in points) / trials
        # point routing through a cell grid is a single owner-tag probe,
        # independent of how many partitions the grid is carved into
        rows.append({"partitions": k, "op": "point", "side_fraction": 0.0,
                     "agrid_ops": 1.0, "grid_ops": 1.0,
                     "tree_ops": round(tree_pt, 2)})
        for f in BENCH_FRACTIONS:
            a = g = t = 0
            for r in ranges[f]:
                crange = grid.cell_range(r)
                a += grid.neighbor_search_cells(crange)[1]
                g += (crange[2] - crange[0] + 1) * (crange[3] - crange[1] + 1)
                t += tree.range_ops(crange)
            rows.append({"partitions": k, "op": "range", "side_fraction": f,
                         "agrid_ops": round(a / trials, 2),
                         "grid_ops": round(g / trials, 2),
                         "tree_ops": round(t / trials, 2)})
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    cells, _ = _parse_grid(args.grid)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    rows = bench_rows(cells, args.trials, args.seed)
    fields = ("partitions", "op", "side_fraction", "agrid_ops", "grid_ops",
              "tree_ops")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "bench.csv", fields, rows)
        print(f"wrote: {out / 'bench.csv'}")
    else:
        print(f"{'partitions':>10} {'op':>6} {'side':>8} "
              f"{'agrid':>8} {'grid':>10} {'tree':>8}")
        for r in rows:
            print(f"{r['partitions']:>10} {r['op']:>6} {r['side_fraction']:>8g} "
                  f"{r['agrid_ops']:>8g} {r['grid_ops']:>10g} {r['tree_ops']:>8g}")
    return 0


# -- advise -------------------------------------------------------------------------


def cmd_advise(args: argparse.Namespace) -> int:
    model = GranularityModel(
        object_rate=args.object_rate,
        query_rate=args.query_rate,
        standing_queries=args.standing_queries,
        query_side=args.query_side,
    )
    side, per_axis = advise_granularity(model)
    print(f"recommended routing-cell side: {side:g} ({per_axis} cells per axis)")
    base = routing_load(model, side)
    print(f"{'cell_side':>12} {'relative_load':>14}")
    for mult in (0.25, 0.5, 1.0, 2.0, 4.0):
        cs = args.query_side * mult
        rel = routing_load(model, cs) / base if base else float("inf")
        mark = "  <- recommended" if cs == side else ""
        print(f"{cs:>12.6g} {rel:>14.4f}{mark}")
    return 0


# -- entry point ----------------------------------------------------------------------


def _setup_logging() -> None:
    level_name = os.environ.get("SKYSTREAM_LOG", "").strip().upper()
    level = getattr(logging, level_name, None) if level_name else None
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="skystream",
        description="spatial-keyword matching over a simulated cluster",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="drive one simulated deployment")
    run_p.add_argument("--grid", default="64x64", metavar="NxM",
                       help="fine-grid dimensions (default 64x64)")
    run_p.add_argument("--evaluators", type=int, default=4, metavar="N")
    run_p.add_argument("--routers", type=int, default=2, metavar="N")
    run_p.add_argument("--beta", type=float, default=1.0,
                       help="per-cell transfer weight in the rebalance test")
    run_p.add_argument("--stats-cadence", type=int, default=10_000,
                       dest="stats_cadence", metavar="TICKS",
                       help="deliveries between statistics rounds")
    run_p.add_argument("--mode", choices=sorted(MODES), default="agrid")
    run_p.add_argument("--adaptive", nargs="?", const=True, default=False,
                       type=_parse_bool, metavar="BOOL",
                       help="rebalance from statistics rounds (agrid only)")
    run_p.add_argument("--sf", type=float, default=1.0,
                       help="multiply all coordinates by this scale factor")
    run_p.add_argument("--workload", metavar="SPEC",
                       help="inline k=v,... workload spec or a JSON file "
                            "(kind defaults to NormalTweets)")
    run_p.add_argument("--trace", metavar="PATH",
                       help="event trace file with D/Q lines")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--out", default="skystream-out", metavar="DIR")
    run_p.add_argument("--clean-interval", type=int, default=64,
                       dest="clean_interval", metavar="N",
                       help="evaluator deliveries between lazy-cleaning steps")
    run_p.set_defaults(func=cmd_run)

    bench_p = sub.add_parser("bench", help="routing op-count microbenchmark")
    bench_p.add_argument("--grid", default="256", metavar="N",
                         help="fine-grid side (default 256)")
    bench_p.add_argument("--trials", type=int, default=200, metavar="N",
                         help="random lookups per configuration")
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--out", metavar="DIR",
                         help="write bench.csv here instead of stdout")
    bench_p.set_defaults(func=cmd_bench)

    adv_p = sub.add_parser("advise", help="recommend a routing-cell size")
    adv_p.add_argument("--query-side", type=float, required=True,
                       dest="query_side", metavar="R",
                       help="typical query range side (world fraction)")
    adv_p.add_argument("--object-rate", type=float, default=10.0,
                       dest="object_rate", metavar="RATE")
    adv_p.add_argument("--query-rate", type=float, default=1.0,
                       dest="query_rate", metavar="RATE")
    adv_p.add_argument("--standing-queries", type=int, default=100_000,
                       dest="standing_queries", metavar="N")
    adv_p.set_defaults(func=cmd_advise)
    return p


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

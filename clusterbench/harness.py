"""One benchmark run of one workload.

A run builds SETS input sets from the seed, with their reference matches,
then runs reps over the sets in turn until `seconds` have passed and every
set has run equally often. A rep is what a user of `skystream run` pays
for one job: build the initial partitioning, construct `System`, register
the standing queries, then stream the chunks, each ingested and then
drained, from one thread. Every timed segment sits between two passes of
the drift reference (calibrate.py), and its time at reference speed is
what the end-to-end metrics report. Every rep checks its own output.

Averaging over several input sets is what keeps the metrics steady from
seed to seed: with one set, alpha on the static workloads moved 7-10%
between seeds (where the initial cuts fall against the busiest queries),
and the migration volume on drifting-hotspot, and with it the work, 5%.
"""

from __future__ import annotations

import gc
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from skystream.agrid import GridGeometry
from skystream.balancer import initial_partitioning
from skystream.runtime import System, SystemConfig

from . import checks
from .calibrate import REFERENCE_S, Calibration
from .inputs import QUERY_CHUNK, generate, to_model
from .reference import expected_matches
from .trace import PER_LAYER, Tracer, median_metrics

WORKLOADS = ("tweets-static", "query-churn", "drifting-hotspot")
END_TO_END = (
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("messages_per_event", "messages/event"),
    ("alpha_mean", "ratio"),
    ("peak_rss_mb", "MB"),
)
SETS = 6
MAX_REPS = 48
PM_SAMPLE = 5_000  # objects in the initial-partitioning sample, as in `skystream run`
ROUTERS = 2
EVALUATORS = 4


class Meter:
    """Sums segment times, raw and at reference speed.

    Each segment is followed by a pass of the drift reference; a segment's
    time at reference speed is its time times REFERENCE_S over the mean of
    the passes right before and right after it.
    """

    def __init__(self, calib: Calibration):
        self.calib = calib
        self.last_ref = calib.run()
        self.raw = self.norm = 0.0
        self.refs: list[float] = []

    def segment(self, fn) -> None:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        after = self.calib.run()
        ref = (self.last_ref + after) / 2
        self.last_ref = after
        self.refs.append(ref)
        self.raw += dt
        self.norm += dt * REFERENCE_S / ref


@dataclass
class Rep:
    setup: Meter
    stream: Meter
    events: int
    messages: int
    alphas: list
    counts: dict
    problems: list = field(default_factory=list)
    layers: dict | None = None


def _rss_kb(field_name: str) -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field_name} missing from /proc/self/status")


def initial_pm(sample: list, n: int) -> dict:
    """Partition along the sample's cell histogram, as `skystream run` does."""
    geom = GridGeometry(n, n)
    cost = np.zeros((n, n), dtype=np.int64)
    for o in sample:
        i, j = geom.cell_of(o.loc)
        cost[i, j] += 1
    return initial_partitioning(cost, EVALUATORS)


class Job:
    """Inputs, reference results and settings shared by every rep of a run."""

    def __init__(self, workload: str, seed: int, part: int, scale: float):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        inputs = generate(workload, seed, part, scale)
        self.shape = inputs.shape
        self.expected = expected_matches(inputs.standing, inputs.stream)
        self.expiry = {q[0]: q[7] for q in inputs.standing}
        for tag, items in inputs.stream:
            if tag == "Q":
                self.expiry.update((q[0], q[7]) for q in items)
        self.standing, self.stream = to_model(inputs)
        objects = [o for tag, items in self.stream if tag == "D" for o in items]
        self.objects = len(objects)
        self.sample = objects[:PM_SAMPLE] if self.shape.sample_pm else None
        self.stream_events = inputs.stream_events
        self.cfg = SystemConfig(
            grid_n=self.shape.grid, grid_m=self.shape.grid, routers=ROUTERS,
            evaluators=EVALUATORS, seed=seed, adaptive=self.shape.adaptive,
            stats_cadence=max(100, int(self.shape.stats_cadence * scale)),
            retain_results=False)

    def rep(self, calib: Calibration, tracer: Tracer | None) -> Rep:
        emitted: list = []
        box: dict = {}
        if tracer is None:
            def on_match(m):
                emitted.append((m.qid, m.oid))
        else:
            def on_match(m):
                emitted.append((m.qid, m.oid))
                tracer.on_match(m.oid, box["s"].delivered_total)

        def build():
            pm = initial_pm(self.sample, self.shape.grid) if self.sample is not None else None
            box["s"] = System(self.cfg, pm=pm, on_match=on_match)

        def ingest(tag: str, items: list):
            s = box["s"]
            if tag == "Q":
                for q in items:
                    s.ingest_query(q)
            elif tracer is None:
                for o in items:
                    s.ingest_object(o)
            else:
                for o in items:
                    tracer.on_ingest(o.oid, s.delivered_total)
                    s.ingest_object(o)
            s.drain()

        def final_round():
            box["s"].trigger_stats()  # guarantees a closing metrics row, as `skystream run`
            box["s"].drain()

        setup = Meter(calib)
        setup.segment(build)
        for k in range(0, len(self.standing), QUERY_CHUNK):
            setup.segment(lambda: ingest("Q", self.standing[k : k + QUERY_CHUNK]))
        s = box["s"]
        ticks0, rows0 = s.delivered_total, len(s.metrics)
        problems: list[str] = []
        stream = Meter(calib)
        for k, (tag, items) in enumerate(self.stream):
            emitted.clear()
            stream.segment(lambda: ingest(tag, items))
            problems += checks.check_chunk_matches(k, self.expected[k], emitted)
        stream.segment(final_round)
        layers = None
        if tracer is not None:
            speed = (setup.norm + stream.norm) / (setup.raw + stream.raw)
            layers = tracer.metrics(s, speed)
        counts = {
            "deliveries": s.delivered_total,
            "metrics_rows": len(s.metrics),
            "decisions": len(s.decisions),
            **s.counters,
        }
        problems += self.check_state(s)
        return Rep(setup, stream, self.stream_events, s.delivered_total - ticks0,
                   [row["alpha"] for row in s.metrics[rows0:]], counts, problems, layers)

    def check_state(self, s: System) -> list[str]:
        c = s.counters
        matches = sum(sum(e.values()) for e in self.expected)
        problems = checks.check_object_accounting(c, self.objects)
        problems += checks.check_candidates(c["candidates"], matches)
        resident: set[int] = set()
        for name in s.evaluator_names:
            resident.update(s.workers[name].state.registry)
        problems += checks.check_evictions(self.expiry, resident, s.watermark(),
                                           expect_some=self.workload == "query-churn")
        if self.shape.adaptive:
            problems += checks.check_migrations(c["rebalance_count"])
        problems += checks.check_tiling(s.pm, self.shape.grid, self.shape.grid)
        problems += checks.check_partition_views(
            s.pm,
            [s.workers[name].unit.grid.pm for name in s.router_names],
            {i: s.workers[name].state.bounds for i, name in enumerate(s.evaluator_names)})
        return problems


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one workload; returns the result object plus a `detail` section."""
    calib = Calibration()
    jobs = [Job(workload, seed, part, scale) for part in range(SETS)]
    gc.collect()
    gc.freeze()  # the inputs and reference results are not the program's to collect
    rss_inputs = _rss_kb("VmRSS")
    tracer = Tracer() if trace else None
    reps: list[Rep] = []
    attempted = failed = 0
    problems: list[str] = []
    peak_kb = 0
    t_start = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        while len(reps) < MAX_REPS:
            job = jobs[len(reps) % SETS]
            events = len(job.standing) + job.stream_events
            attempted += events
            if tracer is not None:
                tracer.reset()
            try:
                rep = job.rep(calib, tracer)
            except Exception:  # the program failed: report it instead of dying
                traceback.print_exc()
                failed += events
                problems.append(f"rep {len(reps) + 1} raised; see stderr")
                break
            if not reps:
                peak_kb = _rss_kb("VmHWM")
            if len(reps) >= SETS:
                rep.problems += checks.check_repeats(reps[-SETS].counts, rep.counts, len(reps) + 1)
            reps.append(rep)
            problems += rep.problems
            gc.collect()
            if problems or (len(reps) % SETS == 0
                            and time.perf_counter() - t_start >= seconds):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        gc.unfreeze()
    return summarise(workload, seed, reps, attempted, failed, problems,
                     peak_kb - rss_inputs, trace)


def summarise(workload: str, seed: int, reps: list[Rep], attempted: int, failed: int,
              problems: list[str], rss_kb: int, trace: bool) -> dict:
    result = {"correct": not problems and len(reps) >= SETS, "attempted": attempted,
              "failed": failed, "metrics": {}}
    detail = {"workload": workload, "seed": seed, "problems": problems[:20],
              "reps": [{"setup_raw_s": r.setup.raw, "setup_norm_s": r.setup.norm,
                        "stream_raw_s": r.stream.raw, "stream_norm_s": r.stream.norm,
                        "reference_s": statistics.median(r.setup.refs + r.stream.refs)}
                       for r in reps]}
    result["detail"] = detail
    if len(reps) < SETS:
        return result
    first, one_each = reps[0], reps[:SETS]
    if trace:
        values = median_metrics([r.layers for r in reps])
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in PER_LAYER}
        return result
    values = {
        "setup_s": first.setup.norm,
        "events_per_s": statistics.median(r.events / r.stream.norm for r in reps),
        "messages_per_event": sum(r.messages for r in one_each) / sum(r.events for r in one_each),
        "alpha_mean": statistics.fmean(a for r in one_each for a in r.alphas),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in END_TO_END}
    detail["raw_events_per_s"] = statistics.median(r.events / r.stream.raw for r in reps)
    detail["raw_setup_s"] = first.setup.raw
    return result

"""Per-layer tracing: spans and counts around the program's public calls.

The tracer wraps methods on the program's classes for the length of a
traced run and restores them afterwards. A span's time includes the spans
it contains; `runtime.self_ms` is the one self time reported, `System.tick`
minus the worker `handle` spans inside it.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter

from skystream import agrid, evaluator, runtime

MSG_KINDS = tuple(k.value for k in runtime.MsgKind)

# (name, unit), in the order BENCHMARK.json lists them
PER_LAYER = (
    ("runtime.self_ms", "ms"),
    ("runtime.deliveries", "count"),
    *((f"runtime.msgs.{kind}", "count") for kind in MSG_KINDS),
    ("runtime.peak_channel_depth", "count"),
    ("runtime.match_delay_ticks_p50", "ticks"),
    ("runtime.match_delay_ticks_p99", "ticks"),
    ("agrid.route_point_ms", "ms"),
    ("agrid.gate_ms", "ms"),
    ("agrid.gate_drop_ratio", "ratio"),
    ("agrid.useful_forward_ratio", "ratio"),
    ("agrid.register_query_ms", "ms"),
    ("agrid.neighbor_search_ms", "ms"),
    ("agrid.partitions_per_query", "count/query"),
    ("agrid.summary_apply_ms", "ms"),
    ("evaluator.process_object_ms", "ms"),
    ("evaluator.candidates_per_object", "count/object"),
    ("evaluator.matches_per_candidate", "ratio"),
    ("evaluator.register_query_ms", "ms"),
    ("evaluator.cells_per_query", "count/query"),
    ("evaluator.cleaning_ms", "ms"),
    ("evaluator.cleaning_steps", "count"),
    ("evaluator.useful_cleaning_ratio", "ratio"),
    ("evaluator.queries_evicted", "count"),
    ("evaluator.migration_ms", "ms"),
    ("evaluator.cells_moved", "count"),
    ("evaluator.resident_query_copies", "count"),
    ("balancer.select_ms", "ms"),
    ("balancer.rounds", "count"),
    ("balancer.ops_started", "count"),
    ("balancer.ops_completed", "count"),
    ("balancer.ops_aborted", "count"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[int], p: float) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    return float(values[min(len(values) - 1, int(p * len(values)))])


class Tracer:
    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.total: Counter = Counter()  # span name -> seconds, children included
        self.own: Counter = Counter()  # span name -> seconds, children excluded
        self.count: Counter = Counter()
        self.stack: list[list[float]] = []
        self.ingest_tick: dict[int, int] = {}
        self.delays: list[int] = []
        self.copies: dict[int, int] = {}  # pid -> query copies in its latest stats report

    def reset(self) -> None:
        """Start a new rep; the wrappers keep writing into the same containers."""
        for box in (self.total, self.own, self.count, self.stack, self.ingest_tick,
                    self.delays, self.copies):
            box.clear()

    # -- wrapping ------------------------------------------------------------

    def _span(self, name, orig, before=None, after=None):
        stack, total, own = self.stack, self.total, self.own

        def traced(*args, **kwargs):
            state = before(args) if before else None
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                total[name] += dt
                own[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after:
                after(args, result, state)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str | None = None, before=None, after=None,
               wrapper=None) -> None:
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        if wrapper is None:
            wrapper = self._span(name, orig, before, after)
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        c = self.count
        send = runtime.System.send

        def counted_send(sys, sender, receiver, kind, **payload):
            c[f"msg.{kind.value}"] += 1
            if payload.get("verb") == "op_abort":
                c["op_abort"] += 1
            return send(sys, sender, receiver, kind, **payload)

        def gate_after(args, forward, _):
            c["gated"] += 1
            c["dropped"] += not forward

        def route_after(args, decision, _):
            c["routed_queries"] += 1
            c["query_partitions"] += len(decision.targets)

        def object_before(args):
            return args[0].overall_cost

        def object_after(args, out, cost_before):
            cands = args[0].overall_cost - cost_before
            c["objects"] += 1
            c["candidates"] += cands
            c["useful_objects"] += cands > 0
            c["matches"] += len(out)

        def register_after(args, added, _):
            c["eval_registrations"] += 1
            c["cells_attached"] += added

        def clean_before(args):
            return args[0].overall_q, len(args[0].registry)

        def clean_after(args, _, state):
            copies, queries = state
            c["cleaning_steps"] += 1
            c["useful_steps"] += args[0].overall_q < copies
            c["evicted"] += queries - len(args[0].registry)

        def absorb_after(args, _, __):
            c["cells_moved"] += agrid.rect_cells(args[1].region)

        copies = self.copies

        def report_after(args, stats, _):
            copies[stats.pid] = stats.query_copies
            c["peak_copies"] = max(c["peak_copies"], sum(copies.values()))

        self._patch(runtime.System, "send", wrapper=counted_send)
        self._patch(runtime.System, "tick", "tick")
        self._patch(runtime.RouterWorker, "handle", "handle")
        self._patch(runtime.EvaluatorWorker, "handle", "handle")
        self._patch(runtime, "select_rebalance_op", "select")
        self._patch(agrid.RoutingUnit, "route_point", "route_point")
        self._patch(agrid.RoutingUnit, "should_forward_object", "gate", after=gate_after)
        self._patch(agrid.RoutingUnit, "register_query", "route_query", after=route_after)
        self._patch(agrid.RoutingUnit, "apply_keyword_forward", "summary_apply")
        self._patch(agrid.RoutingUnit, "apply_refresh", "summary_apply")
        self._patch(agrid.AGrid, "neighbor_search", "neighbor_search")
        ev = evaluator.EvaluatorState
        self._patch(ev, "process_object", "process_object", object_before, object_after)
        self._patch(ev, "register_query", "eval_register", after=register_after)
        self._patch(ev, "cleaning_step", "cleaning", clean_before, clean_after)
        self._patch(ev, "extract_cells", "migration")
        self._patch(ev, "absorb_cells", "migration", after=absorb_after)
        self._patch(ev, "find_shift_cut", "migration")
        self._patch(ev, "stats_report", "stats_report", after=report_after)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- hooks the harness calls ----------------------------------------------

    def on_ingest(self, oid: int, tick: int) -> None:
        self.ingest_tick[oid] = tick

    def on_match(self, oid: int, tick: int) -> None:
        self.delays.append(tick - self.ingest_tick[oid])

    # -- results ------------------------------------------------------------

    def metrics(self, s: runtime.System, speed: float) -> dict[str, float]:
        """This rep's per-layer metrics; times are scaled by `speed` to reference speed."""
        c, total = self.count, self.total

        def ms(span: str) -> float:
            return total[span] * speed * 1000.0

        out = {
            "runtime.self_ms": self.own["tick"] * speed * 1000.0,
            "runtime.deliveries": s.delivered_total,
            **{f"runtime.msgs.{kind}": c[f"msg.{kind}"] for kind in MSG_KINDS},
            "runtime.peak_channel_depth": s.peak_channel_depth,
            "runtime.match_delay_ticks_p50": _percentile(self.delays, 0.50),
            "runtime.match_delay_ticks_p99": _percentile(self.delays, 0.99),
            "agrid.route_point_ms": ms("route_point"),
            "agrid.gate_ms": ms("gate"),
            "agrid.gate_drop_ratio": _ratio(c["dropped"], c["gated"]),
            "agrid.useful_forward_ratio": _ratio(c["useful_objects"],
                                                 s.counters["forwarded_objects"]),
            "agrid.register_query_ms": ms("route_query"),
            "agrid.neighbor_search_ms": ms("neighbor_search"),
            "agrid.partitions_per_query": _ratio(c["query_partitions"], c["routed_queries"]),
            "agrid.summary_apply_ms": ms("summary_apply"),
            "evaluator.process_object_ms": ms("process_object"),
            "evaluator.candidates_per_object": _ratio(c["candidates"], c["objects"]),
            "evaluator.matches_per_candidate": _ratio(c["matches"], c["candidates"]),
            "evaluator.register_query_ms": ms("eval_register"),
            "evaluator.cells_per_query": _ratio(c["cells_attached"], c["eval_registrations"]),
            "evaluator.cleaning_ms": ms("cleaning"),
            "evaluator.cleaning_steps": c["cleaning_steps"],
            "evaluator.useful_cleaning_ratio": _ratio(c["useful_steps"], c["cleaning_steps"]),
            "evaluator.queries_evicted": c["evicted"],
            "evaluator.migration_ms": ms("migration"),
            "evaluator.cells_moved": c["cells_moved"],
            "evaluator.resident_query_copies": max(
                c["peak_copies"], sum(s.workers[name].state.overall_q for name in s.evaluator_names)),
            "balancer.select_ms": ms("select"),
            "balancer.rounds": len(s.metrics),
            "balancer.ops_started": len(s.decisions),
            "balancer.ops_completed": s.counters["rebalance_count"],
            "balancer.ops_aborted": c["op_abort"],
        }
        return out


def median_metrics(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(rep[name] for rep in per_rep) for name, _ in PER_LAYER}

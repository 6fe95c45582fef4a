"""Deterministic message-passing runtime for the matching system.

Workers (routing replicas and evaluators) exchange messages over FIFO
channels driven by a seeded scheduler, so any run is reproducible from
(config, seed, input order). The interesting part is the two-phase cell
transfer: while a region migrates between evaluators, objects and queries
keep flowing, and the combination of transmitted-cell marking, query
forwarding, pre-merged summaries, and permanent forwarding entries keeps
matching exactly-once throughout.

One transfer (src hands `region` to dst) runs like this:

  coordinator  premerges summaries at every router, then tells src to begin
  src          streams one cell copy per message, marking each transmitted;
               keeps evaluating objects over its whole area; queries that
               overlap a transmitted cell are indexed locally and also
               forwarded to dst
  dst          stages cell copies and forwarded queries, absorbs them in one
               step when the stream ends, then confirms
  coordinator  orders src to extract (src drops the region and installs a
               permanent forwarding entry), broadcasts the new partitions
               map, collects router acks, then has dst flush its first
               summary refresh and collects acks for that too before letting
               src publish refreshes again

The last hand-off ordering matters: if src could publish a refresh before
every router had seen dst's, a router could prune the keywords of a migrated
query while still relying on src's summary to cover dst.
"""

from __future__ import annotations

import heapq
import random
import zlib
from collections import Counter, deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from .agrid import (
    AGrid,
    CellRect,
    GridGeometry,
    OutOfWorldError,
    RoutingUnit,
    SummaryConfig,
    WORLD_UNIT,
    rect_contains_cell,
    rect_intersect,
    summary_contribution,
    uniform_partitioning,
)
from .balancer import OpKind, RebalanceOp, WorkloadSnapshot, select_rebalance_op
from .evaluator import (
    CellBatch,
    CellIndex,
    EvaluatorState,
    NoImprovementError,
    iter_region,
    strip_remainder,
    union_rect,
)
from .model import (
    ContinuousQuery,
    MatchResult,
    Point,
    Predicate,
    Rect,
    SpatialKeywordObject,
    matches,
)

__all__ = [
    "MsgKind",
    "Message",
    "ProtocolViolation",
    "Scheduler",
    "SystemConfig",
    "System",
    "RouterWorker",
    "EvaluatorWorker",
    "parse_trace_line",
    "format_trace_object",
    "format_trace_query",
    "format_match",
]


class ProtocolViolation(AssertionError):
    """A worker received a message its role or phase cannot accept."""


class MsgKind(Enum):
    DATA_OBJECT = "DataObject"
    QUERY = "Query"
    KEYWORD_FORWARD = "KeywordForward"
    STATS_REPORT = "StatsReport"
    REBALANCE_COMMAND = "RebalanceCommand"
    CELL_BATCH = "CellBatch"
    PARTITION_UPDATE = "PartitionUpdate"
    FORWARDED_TUPLE = "ForwardedTuple"
    SUMMARY_REFRESH = "SummaryRefresh"


@dataclass
class Message:
    kind: MsgKind
    payload: dict
    seq: int  # per-channel, strictly increasing from 0


@dataclass
class TransientState:
    """Source-side bookkeeping for one outgoing region transfer."""

    op_id: int
    tid: int
    peer: str
    region: CellRect
    pending: deque
    transmitted: set = field(default_factory=set)
    extracted: bool = False


@dataclass
class StagingState:
    """Destination-side buffer until the whole region has arrived."""

    op_id: int
    tid: int
    region: CellRect
    cells: list = field(default_factory=list)  # (coord, cost, qids)
    records: dict = field(default_factory=dict)
    queries: list = field(default_factory=list)


# -- scheduling ------------------------------------------------------------------


class Scheduler:
    """Picks which channel delivers next; the only source of randomness.

    round_robin rotates over backlogged channels in first-use order, one
    message per visit. random_weighted draws a channel with probability
    proportional to its backlog. Both are deterministic under a fixed seed.
    """

    def __init__(self, seed: int, policy: str = "round_robin"):
        if policy not in ("round_robin", "random_weighted"):
            raise ValueError(f"unknown scheduling policy {policy!r}")
        self.rng = random.Random(seed)
        self.policy = policy
        self._rotation: deque = deque()
        self._queued: set = set()

    def enqueue(self, key: tuple) -> None:
        if key not in self._queued:
            self._queued.add(key)
            self._rotation.append(key)

    def pick(self, channels: dict) -> tuple | None:
        if self.policy == "round_robin":
            while self._rotation:
                key = self._rotation[0]
                if channels[key]:
                    self._rotation.rotate(-1)
                    return key
                self._rotation.popleft()
                self._queued.discard(key)
            return None
        live = [k for k in self._rotation if channels[k]]
        if not live:
            self._rotation.clear()
            self._queued.clear()
            return None
        return self.rng.choices(live, weights=[len(channels[k]) for k in live])[0]


# -- configuration ------------------------------------------------------------------


@dataclass
class SystemConfig:
    grid_n: int = 64
    grid_m: int = 64
    routers: int = 2
    evaluators: int = 4
    beta: float = 1.0
    seed: int = 0
    policy: str = "round_robin"
    stats_cadence: int = 10_000
    adaptive: bool = False
    mode: str = "agrid"  # agrid | uniform | textual | broadcast
    summary: SummaryConfig = field(default_factory=SummaryConfig)
    clean_interval: int = 64  # evaluator deliveries between cleaning steps
    retain_results: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("agrid", "uniform", "textual", "broadcast"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.adaptive and self.mode != "agrid":
            raise ValueError("adaptive rebalancing requires the agrid mode")
        if self.routers < 1 or self.evaluators < 1:
            raise ValueError("need at least one router and one evaluator")
        if self.stats_cadence < 1 or self.clean_interval < 1:
            raise ValueError("cadences must be positive")


# -- small geometry helpers -----------------------------------------------------------


def _side_of(src: CellRect, dst: CellRect) -> str:
    """Direction of dst as seen from src (they share a full edge)."""
    if dst[0] == src[2] + 1:
        return "right"
    if dst[2] == src[0] - 1:
        return "left"
    if dst[1] == src[3] + 1:
        return "up"
    if dst[3] == src[1] - 1:
        return "down"
    raise ProtocolViolation(f"{src} and {dst} are not edge neighbors")


# -- router ---------------------------------------------------------------------------


class RouterWorker:
    """One routing replica; replica 0 doubles as the rebalance coordinator.

    Routes by cell ownership. The other modes' subclasses override the data
    path only; they hold no grid and are sent no summary or map traffic.
    """

    def __init__(self, name: str, index: int, system: "System"):
        self.name = name
        self.index = index
        self.sys = system
        cfg = system.cfg
        self.unit: RoutingUnit | None = None
        if system.pm:
            grid = AGrid(cfg.grid_n, cfg.grid_m, dict(system.pm), generation=0)
            self.unit = RoutingUnit(index, grid, cfg.summary)
        self.use_summaries = system.use_summaries
        self.retired: set[int] = set()
        # coordinator state, used on replica 0 only
        self.op: RebalanceOp | None = None
        self.op_id = 0
        self.op_stage = "idle"
        self.op_transfers: dict[int, dict] = {}
        self.pm_acks: set[str] = set()
        self.refresh_acks: set[tuple] = set()
        self.round_id = 0
        self.round_open = False
        self.round_pids: frozenset[int] = frozenset()
        self.round_reports: dict[int, Any] = {}
        self.round_window: dict[int, int] = {}

    # -- dispatch ----------------------------------------------------------------

    def handle(self, msg: Message) -> None:
        p = msg.payload
        if msg.kind is MsgKind.DATA_OBJECT:
            self.route_object(p["obj"])
        elif msg.kind is MsgKind.QUERY:
            self.route_query(p["query"])
        elif msg.kind is MsgKind.KEYWORD_FORWARD:
            self.unit.apply_keyword_forward(p["origin"], p["pid"], p["seq"], p["kws"])
        elif msg.kind is MsgKind.SUMMARY_REFRESH:
            self.apply_refresh(p)
        elif msg.kind is MsgKind.PARTITION_UPDATE:
            self.apply_partition_update(p)
        elif msg.kind is MsgKind.STATS_REPORT:
            self.coord_stats_report(p)
        elif msg.kind is MsgKind.REBALANCE_COMMAND:
            self.handle_command(p)
        else:
            raise ProtocolViolation(f"router {self.name} got {msg.kind}")

    # -- data path ----------------------------------------------------------------

    @staticmethod
    def check_query(q: ContinuousQuery) -> None:
        """Reject, at ingest, a query this mode cannot serve."""

    def object_targets(self, o: SpatialKeywordObject) -> list[str]:
        """Evaluators that must see `o`; empty when none can match it."""
        sys = self.sys
        try:
            pid = self.unit.route_point(o.loc)
        except OutOfWorldError:
            sys.counters["out_of_world"] += 1
            return []
        if self.use_summaries and not self.unit.should_forward_object(o.text, pid):
            sys.counters["dropped_by_summary"] += 1
            return []
        return [f"e{pid}"]

    def route_object(self, o: SpatialKeywordObject) -> None:
        sys = self.sys
        targets = self.object_targets(o)
        if not targets:
            sys.retire(o.ts)
            return
        sys.note_extra_inflight(o.ts, len(targets) - 1)
        for ename in targets:
            sys.send(self.name, ename, MsgKind.DATA_OBJECT, obj=o)
        sys.counters["forwarded_objects"] += len(targets)

    def route_query(self, q: ContinuousQuery) -> None:
        sys = self.sys
        decision = self.unit.register_query(q)
        if not decision.targets:
            sys.counters["out_of_world"] += 1
            return
        for pid, seq, kws in decision.entries:
            sys.send(self.name, f"e{pid}", MsgKind.QUERY,
                     query=q, origin=self.unit.origin, seq=seq)
            if self.use_summaries:
                for other in sys.router_names:
                    if other != self.name:
                        sys.send(self.name, other, MsgKind.KEYWORD_FORWARD,
                                 origin=self.unit.origin, pid=pid, seq=seq, kws=kws)

    # -- summary and map maintenance -------------------------------------------------

    def apply_refresh(self, p: dict) -> None:
        pid = p["pid"]
        summaries = self.unit.summaries
        chained = summaries.uview.get(pid)
        self.unit.apply_refresh(pid, p["kws"], p["vector"], p["epoch"])
        if chained is not None and pid not in summaries.uview and chained in self.retired:
            # the dropped union view was the last live reference to a
            # retired partition
            summaries.drop(chained)
        if p.get("flush_of") is not None:
            self.sys.send(self.name, self.sys.coordinator, MsgKind.REBALANCE_COMMAND,
                          verb="refresh_ack", op_id=p["flush_of"], pid=p["pid"],
                          router=self.name)

    def apply_partition_update(self, p: dict) -> None:
        self.retired |= set(self.unit.grid.pm) - set(p["pm"])
        self.retired -= set(p["pm"])
        self.unit.apply_partition_update(p["pm"], p["generation"])
        self.sys.send(self.name, self.sys.coordinator, MsgKind.REBALANCE_COMMAND,
                      verb="pm_ack", generation=p["generation"], router=self.name)

    # -- coordinator: statistics rounds ------------------------------------------------

    def request_stats(self) -> None:
        self.round_id += 1
        self.round_open = True
        self.round_pids = frozenset(self.sys.pm)
        self.round_reports = {}
        self.round_window = {}
        for ename in self.sys.evaluator_names:
            self.sys.send(self.name, ename, MsgKind.REBALANCE_COMMAND,
                          verb="report_stats", round=self.round_id,
                          pm=dict(self.sys.pm))

    def coord_stats_report(self, p: dict) -> None:
        if self.index != 0:
            raise ProtocolViolation(f"{self.name} is not the coordinator")
        if p["round"] != self.round_id or not self.round_open:
            return  # straggler from a superseded or closed round
        stats = p["stats"]
        self.round_reports[stats.pid] = stats
        self.round_window[stats.pid] = p["window_cost"]
        if not self.round_pids <= set(self.round_reports):
            return
        self.round_open = False
        alpha = self.sys.record_metrics_row(
            self.round_pids, self.round_reports, self.round_window)
        if self.sys.cfg.adaptive and self.op is None and self.sys.spare is not None:
            snap = WorkloadSnapshot(
                dict(self.sys.pm),
                {pid: self.round_reports[pid] for pid in self.sys.pm},
            )
            op = select_rebalance_op(snap, self.sys.cfg.beta, spare=self.sys.spare)
            if op is not None:
                self.sys.log_decision(op, alpha)
                self.start_op(op)

    # -- coordinator: rebalance execution ----------------------------------------------

    def start_op(self, op: RebalanceOp) -> None:
        sys = self.sys
        self.op = op
        self.op_id += 1
        self.op_stage = "transfer"
        self.pm_acks = set()
        self.refresh_acks = set()
        if op.kind is OpKind.SPLIT_MERGE:
            x0, y0, x1, y1 = sys.pm[op.src]
            s = op.split
            if s.axis == "h":
                region_x2: CellRect = (x0, s.cut + 1, x1, y1)
            else:
                region_x2 = (s.cut + 1, y0, x1, y1)
            self.op_transfers = {
                0: {"src": op.src, "dst": op.dst, "region": region_x2,
                    "extracted": False},
                1: {"src": op.merge_move, "dst": op.merge_keep,
                    "region": sys.pm[op.merge_move], "extracted": False},
            }
            self.broadcast_routers(MsgKind.REBALANCE_COMMAND,
                                   verb="premerge", dst=op.dst, src=op.src)
            self.broadcast_routers(MsgKind.REBALANCE_COMMAND,
                                   verb="premerge", dst=op.merge_keep, src=op.merge_move)
            for tid, t in self.op_transfers.items():
                sys.send(self.name, f"e{t['src']}", MsgKind.REBALANCE_COMMAND,
                         verb="begin_transfer", op_id=self.op_id, tid=tid,
                         region=t["region"], dst=t["dst"])
            return
        self.op_transfers = {0: {"src": op.src, "dst": op.dst,
                                 "region": op.region, "extracted": False}}
        self.broadcast_routers(MsgKind.REBALANCE_COMMAND,
                               verb="premerge", dst=op.dst, src=op.src)
        if op.kind is OpKind.SHIFT_CORNER:
            sys.send(self.name, f"e{op.src}", MsgKind.REBALANCE_COMMAND,
                     verb="begin_transfer", op_id=self.op_id, tid=0,
                     region=op.region, dst=op.dst)
        else:
            side = _side_of(sys.pm[op.src], sys.pm[op.dst])
            target = (self.round_reports[op.src].overall_cost
                      + self.round_reports[op.dst].overall_cost) / 2
            sys.send(self.name, f"e{op.src}", MsgKind.REBALANCE_COMMAND,
                     verb="begin_shift", op_id=self.op_id, tid=0,
                     side=side, target_cost=target, dst=op.dst)

    def broadcast_routers(self, kind: MsgKind, **payload) -> None:
        for rname in self.sys.router_names:
            self.sys.send(self.name, rname, kind, **payload)

    def handle_command(self, p: dict) -> None:
        verb = p["verb"]
        if verb == "premerge":
            self.unit.summaries.premerge(p["dst"], p["src"])
            return
        if verb == "cancel_premerge":
            self.unit.summaries.cancel_premerge(p["dst"])
            return
        if self.index != 0:
            raise ProtocolViolation(f"non-coordinator {self.name} got {verb!r}")
        if verb == "op_plan":
            self.op_transfers[p["tid"]]["region"] = p["region"]
        elif verb == "op_abort":
            self.broadcast_routers(MsgKind.REBALANCE_COMMAND,
                                   verb="cancel_premerge",
                                   dst=self.op_transfers[0]["dst"])
            self.op = None
            self.op_stage = "idle"
            self.op_transfers = {}
        elif verb == "absorbed":
            t = self.op_transfers[p["tid"]]
            self.sys.send(self.name, f"e{t['src']}", MsgKind.REBALANCE_COMMAND,
                          verb="extract_now", op_id=p["op_id"], tid=p["tid"])
        elif verb == "extracted":
            self.op_transfers[p["tid"]]["extracted"] = True
            if all(t["extracted"] for t in self.op_transfers.values()):
                self.publish_partition_update()
        elif verb == "pm_ack":
            if self.op_stage != "updating" or p["generation"] != self.sys.generation:
                return
            self.pm_acks.add(p["router"])
            if self.pm_acks >= set(self.sys.router_names):
                self.op_stage = "flushing"
                for t in self.op_transfers.values():
                    self.sys.send(self.name, f"e{t['dst']}", MsgKind.REBALANCE_COMMAND,
                                  verb="flush_summary", op_id=self.op_id)
        elif verb == "refresh_ack":
            if self.op_stage != "flushing" or p["op_id"] != self.op_id:
                return
            self.refresh_acks.add((p["router"], p["pid"]))
            want = {(r, t["dst"]) for r in self.sys.router_names
                    for t in self.op_transfers.values()}
            if self.refresh_acks >= want:
                self.finish_op()
        else:
            raise ProtocolViolation(f"unknown command verb {verb!r}")

    def publish_partition_update(self) -> None:
        sys = self.sys
        pm = dict(sys.pm)
        for t in self.op_transfers.values():
            remainder = strip_remainder(pm[t["src"]], t["region"])
            if remainder is None:
                del pm[t["src"]]
            else:
                pm[t["src"]] = remainder
            if t["dst"] in pm:
                pm[t["dst"]] = union_rect(pm[t["dst"]], t["region"])
            else:
                pm[t["dst"]] = t["region"]
        sys.pm = pm
        sys.generation += 1
        if self.op.kind is OpKind.SPLIT_MERGE:
            sys.spare = self.op.merge_move
        self.op_stage = "updating"
        self.broadcast_routers(MsgKind.PARTITION_UPDATE,
                               pm=dict(pm), generation=sys.generation)

    def finish_op(self) -> None:
        for t in self.op_transfers.values():
            self.sys.send(self.name, f"e{t['src']}", MsgKind.REBALANCE_COMMAND,
                          verb="op_done", op_id=self.op_id)
        self.op = None
        self.op_stage = "idle"
        self.op_transfers = {}
        self.sys.counters["rebalance_count"] += 1


# -- evaluator ---------------------------------------------------------------------


class EvaluatorWorker:
    """Per-cell indexes over this evaluator's region, plus cell transfers."""

    def __init__(self, name: str, index: int, system: "System"):
        self.name = name
        self.index = index
        self.sys = system
        cfg = system.cfg
        geom = GridGeometry(cfg.grid_n, cfg.grid_m, system.world)
        self.state = EvaluatorState(index, geom, system.pm.get(index), cfg.summary)
        self.reg_seen: dict[tuple, int] = {}
        self.own_seq = 0
        self.epoch = 0
        self.transient: TransientState | None = None
        self.staging: StagingState | None = None
        self.forward_table: list[tuple[CellRect, str]] = []
        self.window_cost = 0
        self.delivered = 0

    @property
    def origin(self) -> tuple:
        return ("e", self.index)

    # -- dispatch ------------------------------------------------------------------

    def handle(self, msg: Message) -> None:
        p = msg.payload
        if msg.kind is MsgKind.DATA_OBJECT:
            self.handle_object(p["obj"])
        elif msg.kind is MsgKind.QUERY:
            self.handle_query(p["query"], p["origin"], p["seq"])
        elif msg.kind is MsgKind.FORWARDED_TUPLE:
            if p["inner"] == "object":
                self.sys.counters["forwarded_tuples_in"] += 1
                self.handle_object(p["obj"])
            else:
                self.handle_forwarded_query(p["query"], p.get("cells"))
        elif msg.kind is MsgKind.CELL_BATCH:
            self.stage_cell(p)
        elif msg.kind is MsgKind.REBALANCE_COMMAND:
            self.handle_command(p)
        else:
            raise ProtocolViolation(f"evaluator {self.name} got {msg.kind}")
        self.delivered += 1
        if self.delivered % self.sys.cfg.clean_interval == 0:
            self.maybe_clean()

    # -- objects --------------------------------------------------------------------

    def handle_object(self, o: SpatialKeywordObject) -> None:
        sys = self.sys
        st = self.state
        coord = st.geom.cell_of(o.loc)
        if not st.owns_cell(coord):
            # newest entry wins: it names the worker this cell left for last,
            # so every hop advances in migration history and chains terminate
            for region, peer in reversed(self.forward_table):
                if rect_contains_cell(region, coord):
                    sys.counters["forwarded_tuples"] += 1
                    sys.send(self.name, peer, MsgKind.FORWARDED_TUPLE,
                             inner="object", obj=o)
                    return
            raise ProtocolViolation(
                f"{self.name} got object at cell {coord} outside {st.bounds} "
                "with no forwarding entry")
        before = st.overall_cost
        out = st.process_object(o)
        delta = st.overall_cost - before
        self.window_cost += delta
        sys.counters["candidates"] += self.candidate_charge(delta)
        sys.emit(out)
        sys.retire(o.ts)

    def candidate_charge(self, cost_delta: int) -> int:
        """Candidates one object counts: the queries its cell lists pulled."""
        return cost_delta

    # -- queries --------------------------------------------------------------------

    def handle_query(self, q: ContinuousQuery, origin: tuple | None, seq: int) -> None:
        self.state.register_query(q)
        if origin is not None:
            prev = self.reg_seen.get(origin, -1)
            if seq <= prev:
                raise ProtocolViolation(
                    f"{self.name} saw registration seq {seq} after {prev} from {origin}")
            self.reg_seen[origin] = seq
        self.after_register(q)

    def handle_forwarded_query(self, q: ContinuousQuery,
                               cells: tuple | None) -> None:
        self.sys.counters["forwarded_tuples_in"] += 1
        if self.staging is not None and self.overlaps_region(q, self.staging.region):
            # incoming-region cells are still staged; register after absorbing
            if all(sq.qid != q.qid for sq in self.staging.queries):
                self.staging.queries.append(q)
        if self.state.register_query(q):
            self.broadcast_own_registration(q)
        chase = None if cells is None else frozenset(cells)
        self.after_register(q, chase)

    def after_register(self, q: ContinuousQuery,
                       chase: frozenset | None = None) -> None:
        """Post-registration forwarding shared by every arrival path.

        `chase` limits the re-forward to the cells this arrival was handed
        (None means the whole range, for a query entering the data plane).
        Scoping each hop to its handed-off cells is what makes chains
        terminate: a cell only ever travels its own migration history, and
        the newest table entry always points at a strictly later tenure.
        """
        sys = self.sys
        crange = self.state.geom.cell_range(q.mbr)
        tr = self.transient
        if tr is not None and not tr.extracted:
            # live outgoing transfer: transmitted cells already left as copies
            overlap = rect_intersect(crange, tr.region)
            if overlap is not None:
                gone = tuple(c for c in iter_region(overlap)
                             if c in tr.transmitted)
                if gone:
                    sys.counters["forwarded_tuples"] += 1
                    sys.send(self.name, tr.peer, MsgKind.FORWARDED_TUPLE,
                             inner="query", query=q, cells=gone)
        stg = self.staging
        targets: dict[str, list] = {}
        claimed: set[tuple[int, int]] = set()
        for region, peer in reversed(self.forward_table):
            ov = rect_intersect(crange, region)
            if ov is None:
                continue
            for c in iter_region(ov):
                if chase is not None and c not in chase:
                    continue
                if c in claimed:
                    continue
                claimed.add(c)
                if self.state.owns_cell(c):
                    continue
                if stg is not None and rect_contains_cell(stg.region, c):
                    continue  # cell is inbound; the staged copy registers it
                targets.setdefault(peer, []).append(c)
        for peer, cs in targets.items():
            sys.counters["forwarded_tuples"] += 1
            sys.send(self.name, peer, MsgKind.FORWARDED_TUPLE,
                     inner="query", query=q, cells=tuple(cs))

    def overlaps_region(self, q: ContinuousQuery, region: CellRect) -> bool:
        return rect_intersect(self.state.geom.cell_range(q.mbr), region) is not None

    def broadcast_own_registration(self, q: ContinuousQuery) -> None:
        """Re-registered queries join the summaries under this evaluator's name."""
        kws = summary_contribution(q, self.sys.cfg.summary)
        seq = self.own_seq
        self.own_seq += 1
        self.reg_seen[self.origin] = seq
        for rname in self.sys.router_names:
            self.sys.send(self.name, rname, MsgKind.KEYWORD_FORWARD,
                          origin=self.origin, pid=self.index, seq=seq, kws=kws)

    # -- transfer protocol -------------------------------------------------------------

    def handle_command(self, p: dict) -> None:
        verb = p["verb"]
        sys = self.sys
        if verb == "report_stats":
            pm = p["pm"]
            pm_arg = pm if pm.get(self.index) == self.state.bounds else None
            stats = self.state.stats_report(pm_arg)
            sys.send(self.name, sys.coordinator, MsgKind.STATS_REPORT,
                     round=p["round"], stats=stats, window_cost=self.window_cost)
            self.window_cost = 0
        elif verb == "begin_shift":
            try:
                choice = self.state.find_shift_cut(p["side"], p["target_cost"])
            except NoImprovementError:
                sys.send(self.name, sys.coordinator, MsgKind.REBALANCE_COMMAND,
                         verb="op_abort", op_id=p["op_id"], tid=p["tid"])
                return
            self.begin_outgoing(p["op_id"], p["tid"], choice.region, p["dst"])
        elif verb == "begin_transfer":
            self.begin_outgoing(p["op_id"], p["tid"], p["region"], p["dst"])
        elif verb == "stream_next":
            self.stream_next(p["op_id"])
        elif verb == "cells_begin":
            if self.staging is not None:
                raise ProtocolViolation(f"{self.name} is already staging a region")
            self.epoch += 1
            self.staging = StagingState(p["op_id"], p["tid"], p["region"])
        elif verb == "cells_done":
            self.finish_staging()
        elif verb == "extract_now":
            tr = self.transient
            if tr is None or tr.op_id != p["op_id"]:
                raise ProtocolViolation(f"{self.name} has no transfer {p['op_id']}")
            self.state.extract_cells(tr.region)  # dst already holds the copies
            self.forward_table.append((tr.region, tr.peer))
            tr.extracted = True
            sys.send(self.name, sys.coordinator, MsgKind.REBALANCE_COMMAND,
                     verb="extracted", op_id=p["op_id"], tid=p["tid"])
        elif verb == "op_done":
            self.transient = None
        elif verb == "flush_summary":
            self.broadcast_refresh(flush_of=p["op_id"])
        else:
            raise ProtocolViolation(f"unknown command verb {verb!r}")

    def begin_outgoing(self, op_id: int, tid: int, region: CellRect, dst: int) -> None:
        sys = self.sys
        if self.transient is not None:
            raise ProtocolViolation(f"{self.name} already has an outgoing transfer")
        peer = f"e{dst}"
        self.transient = TransientState(op_id, tid, peer, region,
                                        deque(iter_region(region)))
        sys.send(self.name, sys.coordinator, MsgKind.REBALANCE_COMMAND,
                 verb="op_plan", op_id=op_id, tid=tid, region=region)
        sys.send(self.name, peer, MsgKind.REBALANCE_COMMAND,
                 verb="cells_begin", op_id=op_id, tid=tid, region=region)
        sys.send(self.name, self.name, MsgKind.REBALANCE_COMMAND,
                 verb="stream_next", op_id=op_id)

    def stream_next(self, op_id: int) -> None:
        tr = self.transient
        if tr is None or tr.op_id != op_id:
            raise ProtocolViolation(f"{self.name} has no transfer {op_id} to stream")
        sys = self.sys
        coord = tr.pending.popleft()
        tr.transmitted.add(coord)
        cell = self.state.cells.get(coord)
        if cell is not None and (cell.cost or cell.qids):
            qids = sorted(cell.qids)
            sys.send(self.name, tr.peer, MsgKind.CELL_BATCH,
                     op_id=op_id, tid=tr.tid, coord=coord, cost=cell.cost,
                     qids=qids,
                     records={qid: self.state.registry[qid] for qid in qids})
        if tr.pending:
            sys.send(self.name, self.name, MsgKind.REBALANCE_COMMAND,
                     verb="stream_next", op_id=op_id)
        else:
            sys.send(self.name, tr.peer, MsgKind.REBALANCE_COMMAND,
                     verb="cells_done", op_id=op_id, tid=tr.tid)

    def stage_cell(self, p: dict) -> None:
        stg = self.staging
        if stg is None or stg.op_id != p["op_id"]:
            raise ProtocolViolation(f"{self.name} got a stray cell batch")
        if not rect_contains_cell(stg.region, p["coord"]):
            raise ProtocolViolation(f"cell {p['coord']} outside {stg.region}")
        stg.cells.append((p["coord"], p["cost"], p["qids"]))
        stg.records.update(p["records"])

    def finish_staging(self) -> None:
        stg = self.staging
        if stg is None:
            raise ProtocolViolation(f"{self.name} got cells_done while not staging")
        batch = CellBatch(region=stg.region, cells=stg.cells, records=stg.records)
        self.state.absorb_cells(batch)
        self.staging = None
        region_cells = frozenset(iter_region(stg.region))
        for q in stg.queries:
            if self.state.register_query(q):
                self.broadcast_own_registration(q)
            self.after_register(q, region_cells)
        self.sys.send(self.name, self.sys.coordinator, MsgKind.REBALANCE_COMMAND,
                      verb="absorbed", op_id=stg.op_id, tid=stg.tid)

    # -- cleaning -------------------------------------------------------------------

    def maybe_clean(self) -> None:
        if (self.transient is not None or self.staging is not None
                or self.state.bounds is None):
            return  # mid-transfer, or owning nothing
        budget = max(1, self.state.owned_cell_count() // 32)
        kws = self.state.cleaning_step(self.sys.watermark(), budget)
        if kws is not None and self.sys.use_summaries:
            self.broadcast_refresh(flush_of=None)

    def broadcast_refresh(self, flush_of: int | None) -> None:
        payload = dict(
            pid=self.index,
            kws=self.state.summary_set(),
            vector=dict(self.reg_seen),
            epoch=self.epoch,
            flush_of=flush_of,
        )
        for rname in self.sys.router_names:
            self.sys.send(self.name, rname, MsgKind.SUMMARY_REFRESH, **payload)


# -- baselines that are not spatio-textually aware ------------------------------------


class BroadcastRouter(RouterWorker):
    """Every object goes to every evaluator; queries are spread by qid."""

    def object_targets(self, o: SpatialKeywordObject) -> list[str]:
        return self.sys.evaluator_names

    def route_query(self, q: ContinuousQuery) -> None:
        names = self.sys.evaluator_names
        self.sys.send(self.name, names[q.qid % len(names)], MsgKind.QUERY,
                      query=q, origin=None, seq=0)


class BroadcastEvaluator(EvaluatorWorker):
    """Owns the whole grid, so every resident query is a candidate."""

    def __init__(self, name: str, index: int, system: "System"):
        super().__init__(name, index, system)
        self.state.bounds = (0, 0, system.cfg.grid_n - 1, system.cfg.grid_m - 1)

    def candidate_charge(self, cost_delta: int) -> int:
        return len(self.state.registry)


class TextualRouter(RouterWorker):
    """Keyword partitioning: each keyword hashes to one evaluator."""

    @staticmethod
    def check_query(q: ContinuousQuery) -> None:
        if q.predicate is Predicate.INSIDE or not q.text:
            raise ValueError("textual mode serves keyword predicates only")

    def keyword_targets(self, text: frozenset[str]) -> list[str]:
        return [f"e{idx}" for idx in sorted({self.sys.keyword_evaluator(kw) for kw in text})]

    def object_targets(self, o: SpatialKeywordObject) -> list[str]:
        return self.keyword_targets(o.text)

    def route_query(self, q: ContinuousQuery) -> None:
        for ename in self.keyword_targets(q.text):
            self.sys.send(self.name, ename, MsgKind.QUERY, query=q, origin=None, seq=0)


class TextualEvaluator(EvaluatorWorker):
    """A flat inverted index over the keywords that hash to this evaluator.

    A match is emitted only by the evaluator of the smallest keyword the
    object and query share, so each is reported once.
    """

    def __init__(self, name: str, index: int, system: "System"):
        super().__init__(name, index, system)
        self.flat = CellIndex()
        self.registry: dict[int, ContinuousQuery] = {}

    def handle_object(self, o: SpatialKeywordObject) -> None:
        sys = self.sys
        cand = self.flat.candidates(o.text)
        sys.counters["candidates"] += len(cand)
        out = []
        for qid in sorted(cand):
            q = self.registry[qid]
            if (o.ts <= q.expiry and matches(o, q)
                    and sys.keyword_evaluator(min(o.text & q.text)) == self.index):
                out.append(MatchResult(qid, o.oid, o.ts))
        sys.emit(out)
        sys.retire(o.ts)

    def handle_query(self, q: ContinuousQuery, origin: tuple | None, seq: int) -> None:
        for kw in q.text:
            if self.sys.keyword_evaluator(kw) == self.index:
                self.flat.inverted.setdefault(kw, set()).add(q.qid)
        self.registry[q.qid] = q

    def maybe_clean(self) -> None:
        wm = self.sys.watermark()
        for qid in [qid for qid, q in self.registry.items() if q.expiry < wm]:
            for kw in self.registry.pop(qid).text:
                hits = self.flat.inverted.get(kw)
                if hits is not None:
                    hits.discard(qid)
                    if not hits:
                        del self.flat.inverted[kw]


# mode -> (router class, evaluator class)
WORKERS: dict[str, tuple[type[RouterWorker], type[EvaluatorWorker]]] = {
    "agrid": (RouterWorker, EvaluatorWorker),
    "uniform": (RouterWorker, EvaluatorWorker),
    "broadcast": (BroadcastRouter, BroadcastEvaluator),
    "textual": (TextualRouter, TextualEvaluator),
}


# -- the system ---------------------------------------------------------------------


class System:
    """All workers, channels, and bookkeeping for one simulated deployment."""

    def __init__(
        self,
        cfg: SystemConfig,
        pm: dict[int, CellRect] | None = None,
        on_match: Callable[[MatchResult], None] | None = None,
    ):
        self.cfg = cfg
        self.world: Rect = WORLD_UNIT
        n, m, e = cfg.grid_n, cfg.grid_m, cfg.evaluators
        router_cls, evaluator_cls = WORKERS[cfg.mode]
        # the spatially unaware modes keep an empty partitions map
        self.pm: dict[int, CellRect] = {}
        if cfg.mode in ("agrid", "uniform"):
            self.pm = dict(pm) if pm is not None else uniform_partitioning(n, m, e)
            if not set(self.pm) <= set(range(e)):
                raise ValueError("partition ids must be evaluator indices")
        self.generation = 0
        # agrid alone keeps router keyword summaries and a spare evaluator
        # for split-merge rebalancing
        self.use_summaries = cfg.mode == "agrid"
        self.spare: int | None = e if self.use_summaries else None
        self.router_names = [f"r{i}" for i in range(cfg.routers)]
        worker_count = e + 1 if self.use_summaries else e
        self.evaluator_names = [f"e{i}" for i in range(worker_count)]
        self.coordinator = "r0"
        self.on_match = on_match
        self.results: list[MatchResult] = []
        self.counters: Counter = Counter()
        self.metrics: list[dict] = []
        self.decisions: list[dict] = []
        self.channels: dict[tuple, deque] = {}
        self._send_seq: Counter = Counter()
        self._deliver_seq: Counter = Counter()
        self.scheduler = Scheduler(cfg.seed, cfg.policy)
        self._ingest_rng = random.Random(cfg.seed + 0x5EED)
        self._ingest_rr = 0
        self.delivered_total = 0
        self.peak_channel_depth = 0
        self.now = 0
        self._wm_heap: list[int] = []
        self._wm_dead: Counter = Counter()
        self.check_query = router_cls.check_query
        self.workers: dict[str, Any] = {}
        for i, rname in enumerate(self.router_names):
            self.workers[rname] = router_cls(rname, i, self)
        for i, ename in enumerate(self.evaluator_names):
            self.workers[ename] = evaluator_cls(ename, i, self)

    # -- transport ------------------------------------------------------------------

    def send(self, sender: str, receiver: str, kind: MsgKind, **payload) -> None:
        key = (sender, receiver)
        chan = self.channels.get(key)
        if chan is None:
            chan = self.channels[key] = deque()
        seq = self._send_seq[key]
        self._send_seq[key] = seq + 1
        chan.append(Message(kind, payload, seq))
        if len(chan) > self.peak_channel_depth:
            self.peak_channel_depth = len(chan)
        self.scheduler.enqueue(key)

    def _deliver(self, key: tuple) -> None:
        msg = self.channels[key].popleft()
        expected = self._deliver_seq[key]
        if msg.seq != expected:
            raise ProtocolViolation(
                f"channel {key} delivered seq {msg.seq}, expected {expected}")
        self._deliver_seq[key] = expected + 1
        self.delivered_total += 1
        self.workers[key[1]].handle(msg)

    def tick(self) -> bool:
        """Deliver one message; False when every channel is empty."""
        key = self.scheduler.pick(self.channels)
        if key is None:
            return False
        self._deliver(key)
        if self.delivered_total % self.cfg.stats_cadence == 0 and self.pm:
            self.workers[self.coordinator].request_stats()
        return True

    def step_channel(self, sender: str, receiver: str) -> bool:
        """Deliver one message from a specific channel (test hook)."""
        chan = self.channels.get((sender, receiver))
        if not chan:
            return False
        self._deliver((sender, receiver))
        return True

    def drain(self, max_ticks: int | None = None) -> int:
        done = 0
        while max_ticks is None or done < max_ticks:
            if not self.tick():
                break
            done += 1
        return done

    def trigger_stats(self) -> None:
        self.workers[self.coordinator].request_stats()

    # -- ingest ----------------------------------------------------------------------

    def _pick_router(self) -> str:
        idx = (self._ingest_rr + self._ingest_rng.choice((0, 1))) % len(self.router_names)
        self._ingest_rr += 1
        return self.router_names[idx]

    def ingest_object(self, o: SpatialKeywordObject) -> None:
        if o.ts < self.now:
            raise ValueError(
                f"object timestamps must be non-decreasing ({o.ts} < {self.now})")
        self.now = o.ts
        heapq.heappush(self._wm_heap, o.ts)
        self.send("in", self._pick_router(), MsgKind.DATA_OBJECT, obj=o)

    def ingest_query(self, q: ContinuousQuery) -> None:
        self.check_query(q)
        self.send("in", self._pick_router(), MsgKind.QUERY, query=q)

    # -- object-liveness watermark -------------------------------------------------------

    def note_extra_inflight(self, ts: int, k: int) -> None:
        for _ in range(k):
            heapq.heappush(self._wm_heap, ts)

    def retire(self, ts: int) -> None:
        self._wm_dead[ts] += 1

    def watermark(self) -> int:
        """Smallest object timestamp that may still be in flight."""
        heap, dead = self._wm_heap, self._wm_dead
        while heap and dead[heap[0]]:
            dead[heap[0]] -= 1
            heapq.heappop(heap)
        return heap[0] if heap else self.now

    # -- outputs ---------------------------------------------------------------------

    def emit(self, out: list[MatchResult]) -> None:
        if self.cfg.retain_results:
            self.results.extend(out)
        if self.on_match is not None:
            for m in out:
                self.on_match(m)

    def keyword_evaluator(self, kw: str) -> int:
        return zlib.crc32(kw.encode()) % len(self.evaluator_names)

    def total_candidates(self) -> int:
        return self.counters["candidates"]

    def record_metrics_row(self, pids: frozenset[int], reports: dict,
                           window: dict) -> float:
        vals = [window.get(pid, 0) for pid in sorted(pids)]
        mean = sum(vals) / len(vals) if vals else 0.0
        alpha = (max(vals) / mean) if mean > 0 else 1.0
        self.metrics.append({
            "tick": self.delivered_total,
            "alpha": alpha,
            "totalCost": sum(reports[pid].overall_cost for pid in pids),
            "forwardedObjects": self.counters["forwarded_objects"],
            "droppedBySummary": self.counters["dropped_by_summary"],
            "peakChannelDepth": self.peak_channel_depth,
            "rebalanceCount": self.counters["rebalance_count"],
        })
        return alpha

    def log_decision(self, op: RebalanceOp, alpha: float) -> None:
        pids = [op.src, op.dst]
        if op.kind is OpKind.SPLIT_MERGE:
            pids += [op.merge_keep, op.merge_move]
        self.decisions.append({
            "tick": self.delivered_total,
            "opKind": op.kind.value,
            "pids": "/".join(str(p) for p in pids),
            "Cr": op.cr,
            "Ct": op.ct,
            "alphaBefore": alpha,
        })


# -- trace format ---------------------------------------------------------------------


def parse_trace_line(line: str) -> tuple[str, Any] | None:
    """One trace line -> ("D", object) or ("Q", query); None for blanks/comments.

    Format:
      D oid x y ts kw1,kw2,...
      Q qid xmin ymin xmax ymax predicate expiry kw1,kw2,...
    A lone "-" (or a missing trailing field) means no keywords.
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split()
    tag = parts[0]
    if tag == "D":
        if len(parts) not in (5, 6):
            raise ValueError(f"bad object line: {line!r}")
        kws = _parse_kws(parts[5] if len(parts) == 6 else "-")
        return ("D", SpatialKeywordObject(
            oid=int(parts[1]),
            loc=Point(float(parts[2]), float(parts[3])),
            text=kws,
            ts=int(parts[4]),
        ))
    if tag == "Q":
        if len(parts) not in (8, 9):
            raise ValueError(f"bad query line: {line!r}")
        kws = _parse_kws(parts[8] if len(parts) == 9 else "-")
        try:
            predicate = Predicate[parts[6].upper()]
        except KeyError:
            raise ValueError(f"unknown predicate {parts[6]!r} in {line!r}") from None
        return ("Q", ContinuousQuery(
            qid=int(parts[1]),
            mbr=Rect(float(parts[2]), float(parts[3]),
                     float(parts[4]), float(parts[5])),
            text=kws,
            predicate=predicate,
            expiry=int(parts[7]),
        ))
    raise ValueError(f"unknown trace tag {tag!r}")


def _parse_kws(fieldtext: str) -> frozenset[str]:
    if fieldtext == "-":
        return frozenset()
    return frozenset(kw for kw in fieldtext.split(",") if kw)


def _format_kws(kws: frozenset[str]) -> str:
    return ",".join(sorted(kws)) if kws else "-"


def format_trace_object(o: SpatialKeywordObject) -> str:
    return f"D {o.oid} {o.loc.x:.6f} {o.loc.y:.6f} {o.ts} {_format_kws(o.text)}"


def format_trace_query(q: ContinuousQuery) -> str:
    r = q.mbr
    return (f"Q {q.qid} {r.xmin:.6f} {r.ymin:.6f} {r.xmax:.6f} {r.ymax:.6f} "
            f"{q.predicate.name} {q.expiry} {_format_kws(q.text)}")


def format_match(m: MatchResult) -> str:
    return f"{m.qid} {m.oid} {m.ts}"

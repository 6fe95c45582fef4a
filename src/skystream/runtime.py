"""Deterministic message-passing runtime for the matching system.

Workers (routing replicas and evaluators) exchange messages over FIFO
channels driven by a seeded scheduler, so any run is reproducible from
(config, seed, input order). The interesting part is the cell transfer:
while a region migrates between evaluators, objects and queries keep
flowing, and the combination of query forwarding, pre-merged summaries, and
permanent forwarding entries keeps matching exactly-once throughout.

One transfer (src hands `region` to dst) runs like this:

  coordinator  premerges summaries at every router, then tells src to begin
  src          sends the whole region in one CELL_BATCH: a snapshot of every
               cell with cost or queries, and the record of every query they
               index; keeps evaluating objects over its whole area; a query
               that overlaps the region is indexed locally and also forwarded
               to dst, which the FIFO channel delivers after the batch
  dst          adopts the snapshots as its cells in one absorb step, bumps
               its summary epoch, then confirms
  coordinator  orders src to extract (src drops the region and installs a
               permanent forwarding entry), broadcasts the new partitions
               map, collects router acks, then has dst flush its first
               summary refresh and collects acks for that too before letting
               src publish refreshes again

The last hand-off ordering matters: if src could publish a refresh before
every router had seen dst's, a router could prune the keywords of a migrated
query while still relying on src's summary to cover dst.

A summary refresh, the periodic one at the end of a cleaning cycle and the
flush alike, carries the evaluator's keyword set per summary block
(`agrid.summary_block`) and the registration seqs it has seen per origin;
routers gate each object on its block's set, plus the keywords of the
partition's registrations that no refresh has covered yet and whose block
range covers the object's block.

The coordinator advances an op when every ack it awaits has arrived (absorbed
and extracted per transfer, then pm_ack per router, then refresh_ack per
router and destination); any other ack is a ProtocolViolation.

Objects move in batches: what was ingested since the last delivery goes to
each router as one DATA_OBJECT, and a router sends each evaluator one
DATA_OBJECT of (object, cell) pairs. Workers still act object by object.
That DATA_OBJECT also carries how many objects the router's gate dropped for
the evaluator since its last one; the evaluator advances its cleaning clock
by them, so a gate that drops more does not evict later.
Delivery counts and channel depths count a batch of k objects or k cell
snapshots as k.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from .agrid import (
    AGrid,
    CellRect,
    GridGeometry,
    OutOfWorldError,
    RoutingUnit,
    WORLD,
    block_range,
    rect_contains_cell,
    rect_intersect,
    summary_contribution,
    uniform_partitioning,
)
from .balancer import OpKind, RebalanceOp, WorkloadSnapshot, check_beta, select_rebalance_op
from .evaluator import (
    CellBatch,
    CellIndex,
    EvaluatorState,
    OutOfBoundsError,
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
    size: int = 1  # objects or cell snapshots a batch carries, else 1


@dataclass
class TransientState:
    """Source-side bookkeeping for one outgoing region transfer."""

    op_id: int
    peer: str
    region: CellRect
    extracted: bool = False


# -- scheduling ------------------------------------------------------------------


class Scheduler:
    """Picks which channel delivers next; the only source of randomness.

    round_robin rotates over backlogged channels in first-use order, one
    message per visit. random_weighted draws a channel with probability
    proportional to its backlog in messages, so an object batch weighs as
    much as any other message. Both are deterministic under a fixed seed.
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
    mode: str = "agrid"  # a key of WORKERS
    clean_interval: int = 64  # evaluator deliveries between cleaning steps
    retain_results: bool = True

    def __post_init__(self) -> None:
        if self.mode not in WORKERS:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.adaptive and self.mode != "agrid":
            raise ValueError("adaptive rebalancing requires the agrid mode")
        if self.grid_n < 1 or self.grid_m < 1:
            raise ValueError("the grid needs at least one cell on each side")
        if self.routers < 1 or self.evaluators < 1:
            raise ValueError("need at least one router and one evaluator")
        if self.stats_cadence < 1 or self.clean_interval < 1:
            raise ValueError("cadences must be positive")
        check_beta(self.beta)


# -- router ---------------------------------------------------------------------------


class RouterWorker:
    """One routing replica; replica 0 doubles as the rebalance coordinator.

    Routes by cell ownership. The other modes' subclasses override the data
    path only; they hold no partitions map and are sent no summary or map
    traffic.
    """

    def __init__(self, name: str, index: int, system: "System"):
        self.name = name
        self.index = index
        self.sys = system
        cfg = system.cfg
        self.geom = GridGeometry(cfg.grid_n, cfg.grid_m)
        self.unit: RoutingUnit | None = None
        if system.pm:
            self.unit = RoutingUnit(index, AGrid(cfg.grid_n, cfg.grid_m, dict(system.pm)))
        self.use_summaries = system.use_summaries
        # evaluator -> objects the gate dropped for it since the last
        # DATA_OBJECT to it, which carries the count on
        self.owed: dict[str, int] = {}
        # coordinator state, used on replica 0 only
        self.op: RebalanceOp | None = None
        self.op_id = 0
        self.transfers: list[tuple[int, int, CellRect]] = []  # (src, dst, region) by tid
        self.awaiting: set[tuple] = set()  # acks the op's current step still needs
        self.round_id = 0
        self.round_open = False
        self.round_generation = 0
        self.round_pids: frozenset[int] = frozenset()
        self.round_reports: dict[int, Any] = {}
        self.round_window: dict[int, int] = {}

    # -- dispatch ----------------------------------------------------------------

    def handle(self, msg: Message) -> None:
        p = msg.payload
        if msg.kind is MsgKind.DATA_OBJECT:
            self.route_objects(p["objs"])
        elif msg.kind is MsgKind.QUERY:
            self.route_query(p["query"])
        elif msg.kind is MsgKind.KEYWORD_FORWARD:
            self.unit.apply_keyword_forward(p["origin"], p["pid"], p["seq"], p["kws"],
                                            p["blocks"])
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
        if not q.mbr.intersects(WORLD):
            raise ValueError(f"query {q.qid} range {q.mbr} misses the unit square")

    def locate(self, o: SpatialKeywordObject) -> tuple[int, int] | None:
        """`o`'s cell for the modes without a partitions map; None, counted,
        when `o` lies outside the unit square."""
        try:
            return self.geom.cell_of(o.loc)
        except OutOfWorldError:
            self.sys.counters["out_of_world"] += 1
            return None

    def object_targets(self, o: SpatialKeywordObject
                       ) -> tuple[tuple[int, int] | None, list[str]]:
        """`o`'s cell, and the evaluators that must see `o` (none when none can match it)."""
        sys = self.sys
        try:
            pid, cell = self.unit.route_point(o.loc)
        except OutOfWorldError:
            sys.counters["out_of_world"] += 1
            return None, []
        if self.use_summaries and not self.unit.should_forward_object(o.text, pid, cell):
            sys.counters["dropped_by_summary"] += 1
            ename = sys.evaluator_names[pid]
            self.owed[ename] = self.owed.get(ename, 0) + 1
            return None, []
        return cell, [f"e{pid}"]

    def route_objects(self, objs: list[SpatialKeywordObject]) -> None:
        """Route a batch; each evaluator gets one batch of (object, cell) in
        ingest order, with the count of objects the gate dropped for it."""
        sys = self.sys
        batches: defaultdict[str, list] = defaultdict(list)
        forwarded = 0
        for o in objs:
            cell, targets = self.object_targets(o)
            if not targets:
                sys.retire(o.ts)
                continue
            sys.note_extra_inflight(o.ts, len(targets) - 1)
            for ename in targets:
                batches[ename].append((o, cell))
            forwarded += len(targets)
        owed = self.owed
        for ename, batch in batches.items():
            sys.send(self.name, ename, MsgKind.DATA_OBJECT, objs=batch,
                     skipped=owed.pop(ename, 0))
        sys.counters["forwarded_objects"] += forwarded

    def route_query(self, q: ContinuousQuery) -> None:
        sys = self.sys
        if not self.use_summaries:
            # no refresh would ever prune a summary entry, so keep none
            for pid in self.unit.grid.neighbor_search(q.mbr):
                sys.send(self.name, f"e{pid}", MsgKind.QUERY, query=q, origin=None, seq=0)
            return
        origin = self.unit.origin
        decision = self.unit.register_query(q)
        for pid, seq, kws in decision.entries:
            sys.send(self.name, f"e{pid}", MsgKind.QUERY,
                     query=q, origin=origin, seq=seq)
            for other in sys.router_names:
                if other != self.name:
                    sys.send(self.name, other, MsgKind.KEYWORD_FORWARD,
                             origin=origin, pid=pid, seq=seq, kws=kws,
                             blocks=decision.blocks)

    # -- summary and map maintenance -------------------------------------------------

    def apply_refresh(self, p: dict) -> None:
        installed = self.unit.apply_refresh(p["pid"], p["blocks"], p["vector"], p["epoch"])
        if p["flush_of"] is not None:
            if not installed:  # an ack must mean the destination's summary is in place
                raise ProtocolViolation(f"{self.name} discarded e{p['pid']}'s flush as stale")
            self.sys.send(self.name, self.sys.coordinator, MsgKind.REBALANCE_COMMAND,
                          verb="refresh_ack", op_id=p["flush_of"], pid=p["pid"],
                          router=self.name)

    def apply_partition_update(self, p: dict) -> None:
        self.unit.apply_partition_update(p["pm"], p["generation"])
        self.sys.send(self.name, self.sys.coordinator, MsgKind.REBALANCE_COMMAND,
                      verb="pm_ack", generation=p["generation"], router=self.name)

    # -- coordinator: statistics rounds ------------------------------------------------

    def request_stats(self) -> None:
        self.round_id += 1
        self.round_open = True
        self.round_pids = frozenset(self.sys.pm)
        self.round_generation = self.sys.generation
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
        # reports name regions of the map they were taken under, so an op
        # that finished while the round was open voids this round's decision
        if (self.sys.cfg.adaptive and self.op is None
                and self.round_generation == self.sys.generation):
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
        self.transfers = [(op.src, op.dst, op.region)]
        if op.kind is OpKind.SPLIT_MERGE:
            x0, y0, x1, y1 = sys.pm[op.src]
            s = op.split
            region_x2 = (x0, s.cut + 1, x1, y1) if s.axis == "h" else (s.cut + 1, y0, x1, y1)
            self.transfers = [(op.src, op.dst, region_x2),
                              (op.merge_move, op.merge_keep, sys.pm[op.merge_move])]
        self.awaiting = {(verb, self.op_id, tid) for tid in range(len(self.transfers))
                         for verb in ("absorbed", "extracted")}
        for src, dst, _ in self.transfers:
            self.broadcast_routers(MsgKind.REBALANCE_COMMAND,
                                   verb="premerge", dst=dst, src=src)
        for tid, (src, dst, region) in enumerate(self.transfers):
            sys.send(self.name, f"e{src}", MsgKind.REBALANCE_COMMAND,
                     verb="begin_transfer", op_id=self.op_id, tid=tid,
                     region=region, dst=dst)

    def broadcast_routers(self, kind: MsgKind, **payload) -> None:
        for rname in self.sys.router_names:
            self.sys.send(self.name, rname, kind, **payload)

    def handle_command(self, p: dict) -> None:
        verb = p["verb"]
        if verb == "premerge":
            self.unit.premerge(p["dst"], p["src"])
            return
        # only the coordinator ever awaits an ack, so take_ack refuses one anywhere else
        if verb in ("absorbed", "extracted"):
            self.take_ack((verb, p["op_id"], p["tid"]))
        elif verb == "pm_ack":
            self.take_ack((verb, p["generation"], p["router"]))
        elif verb == "refresh_ack":
            self.take_ack((verb, p["op_id"], p["router"], p["pid"]))
        else:
            raise ProtocolViolation(f"unknown command verb {verb!r}")

    def take_ack(self, ack: tuple) -> None:
        """Strike `ack` off the awaited set; the step's last ack starts the next step."""
        if ack not in self.awaiting:
            raise ProtocolViolation(f"{self.name} does not await {ack}")
        self.awaiting.remove(ack)
        verb = ack[0]
        if verb == "absorbed":
            tid = ack[2]
            self.sys.send(self.name, f"e{self.transfers[tid][0]}", MsgKind.REBALANCE_COMMAND,
                          verb="extract_now", op_id=self.op_id, tid=tid)
        if self.awaiting:
            return
        if verb == "extracted":
            self.publish_partition_update()
        elif verb == "pm_ack":  # every router has the map: each destination flushes
            self.awaiting = {("refresh_ack", self.op_id, r, dst) for r in self.sys.router_names
                             for _, dst, _ in self.transfers}
            for _, dst, _ in self.transfers:
                self.sys.send(self.name, f"e{dst}", MsgKind.REBALANCE_COMMAND,
                              verb="flush_summary", op_id=self.op_id)
        else:
            self.finish_op()

    def publish_partition_update(self) -> None:
        sys = self.sys
        pm = dict(sys.pm)
        for src, dst, region in self.transfers:
            remainder = strip_remainder(pm[src], region)
            if remainder is None:
                del pm[src]
            else:
                pm[src] = remainder
            if dst in pm:
                pm[dst] = union_rect(pm[dst], region)
            else:
                pm[dst] = region
        sys.pm = pm
        sys.generation += 1
        if self.op.kind is OpKind.SPLIT_MERGE:
            sys.spare = self.op.merge_move
        self.awaiting = {("pm_ack", sys.generation, r) for r in sys.router_names}
        self.broadcast_routers(MsgKind.PARTITION_UPDATE,
                               pm=dict(pm), generation=sys.generation)

    def finish_op(self) -> None:
        for src, _, _ in self.transfers:
            self.sys.send(self.name, f"e{src}", MsgKind.REBALANCE_COMMAND,
                          verb="op_done", op_id=self.op_id)
        self.op = None
        self.transfers = []
        self.sys.counters["rebalance_count"] += 1


# -- evaluator ---------------------------------------------------------------------


class EvaluatorWorker:
    """Per-cell indexes over this evaluator's region, plus cell transfers."""

    def __init__(self, name: str, index: int, system: "System"):
        self.name = name
        self.index = index
        self.sys = system
        cfg = system.cfg
        geom = GridGeometry(cfg.grid_n, cfg.grid_m)
        self.state = EvaluatorState(index, geom, system.pm.get(index))
        self.reg_seen: dict[tuple, int] = {}
        self.own_seq = 0
        self.epoch = 0
        self.transient: TransientState | None = None
        self.forward_table: list[tuple[CellRect, str]] = []
        self.window_cost = 0
        self.delivered = 0  # the cleaning clock
        self.clean_interval = cfg.clean_interval

    @property
    def origin(self) -> tuple:
        return ("e", self.index)

    # -- dispatch ------------------------------------------------------------------

    def handle(self, msg: Message) -> None:
        p = msg.payload
        if msg.kind is MsgKind.DATA_OBJECT:
            # each object counts as one delivery, so cleaning runs between
            # the same objects whatever the batching
            if p["skipped"]:
                self.count_skipped(p["skipped"])
            handle_object = self.handle_object
            interval = self.clean_interval
            for o, cell in p["objs"]:
                handle_object(o, cell)
                self.delivered += 1  # count_delivery, inlined: once per object
                if self.delivered % interval == 0:
                    self.maybe_clean()
            return
        if msg.kind is MsgKind.QUERY:
            self.handle_query(p["query"], p["origin"], p["seq"])
        elif msg.kind is MsgKind.FORWARDED_TUPLE:
            if p["inner"] == "object":
                self.handle_object(p["obj"], p["cell"])
            else:
                self.handle_forwarded_query(p["query"], p.get("cells"))
        elif msg.kind is MsgKind.CELL_BATCH:
            self.absorb_region(p)
        elif msg.kind is MsgKind.REBALANCE_COMMAND:
            self.handle_command(p)
        else:
            raise ProtocolViolation(f"evaluator {self.name} got {msg.kind}")
        self.count_delivery()

    def count_delivery(self) -> None:
        self.delivered += 1
        if self.delivered % self.clean_interval == 0:
            self.maybe_clean()

    def count_skipped(self, k: int) -> None:
        """Advance the cleaning clock by `k` objects that routers dropped for
        this partition, so cleaning keeps pace with the objects routed here
        rather than only with those delivered."""
        interval = self.clean_interval
        before = self.delivered
        self.delivered = before + k
        for _ in range(self.delivered // interval - before // interval):
            self.maybe_clean()

    # -- objects --------------------------------------------------------------------

    def handle_object(self, o: SpatialKeywordObject, coord: tuple[int, int] | None) -> None:
        """Match `o`, or forward it if its cell `coord` has left this evaluator."""
        sys = self.sys
        st = self.state
        before = st.overall_cost
        try:
            out = st.process_object(o, coord)
        except OutOfBoundsError:
            self.forward_object(o, coord)
            return
        delta = st.overall_cost - before
        self.window_cost += delta
        if not delta:
            sys.no_candidate_objects += 1
        sys.counters["candidates"] += self.candidate_charge(delta)
        if out:
            sys.emit(out)
        sys.retire(o.ts)

    def forward_object(self, o: SpatialKeywordObject, coord: tuple[int, int]) -> None:
        """Send `o` after its cell, which has left this evaluator."""
        # newest entry wins: it names the worker this cell left for last,
        # so every hop advances in migration history and chains terminate
        for region, peer in reversed(self.forward_table):
            if rect_contains_cell(region, coord):
                self.sys.send(self.name, peer, MsgKind.FORWARDED_TUPLE,
                              inner="object", obj=o, cell=coord)
                return
        raise ProtocolViolation(
            f"{self.name} got object at cell {coord} outside {self.state.bounds} "
            "with no forwarding entry")

    def candidate_charge(self, cost_delta: int) -> int:
        """Candidates one object counts: the queries its cell lists pulled."""
        return cost_delta

    # -- queries --------------------------------------------------------------------

    def handle_query(self, q: ContinuousQuery, origin: tuple | None, seq: int) -> None:
        crange = self.state.geom.cell_range(q.mbr)
        self.state.register_query(q, crange)
        if origin is not None:
            prev = self.reg_seen.get(origin, -1)
            if seq <= prev:
                raise ProtocolViolation(
                    f"{self.name} saw registration seq {seq} after {prev} from {origin}")
            self.reg_seen[origin] = seq
        self.after_register(q, crange)

    def handle_forwarded_query(self, q: ContinuousQuery,
                               cells: tuple | None) -> None:
        crange = self.state.geom.cell_range(q.mbr)
        if self.state.register_query(q, crange):
            self.broadcast_own_registration(q, crange)
        chase = None if cells is None else frozenset(cells)
        self.after_register(q, crange, chase)

    def after_register(self, q: ContinuousQuery, crange: CellRect,
                       chase: frozenset | None = None) -> None:
        """Post-registration forwarding shared by every arrival path.

        `crange` is the query's cell range. `chase` limits the re-forward to
        the cells this arrival was handed (None means the whole range, for a
        query entering the data plane).
        Scoping each hop to its handed-off cells is what makes chains
        terminate: a cell only ever travels its own migration history, and
        the newest table entry always points at a strictly later tenure.
        """
        tr = self.transient
        live = tr is not None and not tr.extracted
        if not live and not self.forward_table:
            return  # nothing has left this evaluator that the query could chase
        sys = self.sys
        if live:
            # live outgoing transfer: every region cell already left as a copy
            overlap = rect_intersect(crange, tr.region)
            if overlap is not None:
                sys.send(self.name, tr.peer, MsgKind.FORWARDED_TUPLE,
                         inner="query", query=q, cells=tuple(iter_region(overlap)))
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
                targets.setdefault(peer, []).append(c)
        for peer, cs in targets.items():
            sys.send(self.name, peer, MsgKind.FORWARDED_TUPLE,
                     inner="query", query=q, cells=tuple(cs))

    def broadcast_own_registration(self, q: ContinuousQuery, crange: CellRect) -> None:
        """Re-registered queries join the summaries under this evaluator's
        name, over the blocks of their cell range `crange`."""
        kws = summary_contribution(q)
        blocks = block_range(crange)
        seq = self.own_seq
        self.own_seq += 1
        self.reg_seen[self.origin] = seq
        for rname in self.sys.router_names:
            self.sys.send(self.name, rname, MsgKind.KEYWORD_FORWARD,
                          origin=self.origin, pid=self.index, seq=seq, kws=kws,
                          blocks=blocks)

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
        elif verb == "begin_transfer":
            self.begin_outgoing(p["op_id"], p["tid"], p["region"], p["dst"])
        elif verb == "extract_now":
            tr = self.transient
            if tr is None or tr.op_id != p["op_id"]:
                raise ProtocolViolation(f"{self.name} has no transfer {p['op_id']}")
            self.state.extract_cells(tr.region)  # dst already holds the snapshots
            self.forward_table.append((tr.region, tr.peer))
            tr.extracted = True
            sys.send(self.name, sys.coordinator, MsgKind.REBALANCE_COMMAND,
                     verb="extracted", op_id=p["op_id"], tid=p["tid"])
        elif verb == "op_done":
            self.transient = None
        elif verb == "flush_summary":
            self.broadcast_refresh(self.state.summary_blocks(), flush_of=p["op_id"])
        else:
            raise ProtocolViolation(f"unknown command verb {verb!r}")

    def begin_outgoing(self, op_id: int, tid: int, region: CellRect, dst: int) -> None:
        """Send `region` to `dst` as one CELL_BATCH: a snapshot of every cell
        with cost or queries, and the record of every query they index."""
        if self.transient is not None:
            raise ProtocolViolation(f"{self.name} already has an outgoing transfer")
        peer = f"e{dst}"
        self.transient = TransientState(op_id, peer, region)
        st = self.state
        cells = []
        qids: set[int] = set()
        for coord in iter_region(region):
            cell = st.cells.get(coord)
            if cell is not None and (cell.cost or cell.qids):
                cells.append((coord, cell.copy()))
                qids |= cell.qids
        registry = st.registry
        self.sys.send(self.name, peer, MsgKind.CELL_BATCH, op_id=op_id, tid=tid,
                      region=region, cells=cells,
                      records={qid: registry[qid] for qid in qids})

    def absorb_region(self, p: dict) -> None:
        """Adopt a CELL_BATCH's cells; refreshes from here on cover the region."""
        self.epoch += 1
        self.state.absorb_cells(CellBatch(p["region"], p["cells"], p["records"]))
        self.sys.send(self.name, self.sys.coordinator, MsgKind.REBALANCE_COMMAND,
                      verb="absorbed", op_id=p["op_id"], tid=p["tid"])

    # -- cleaning -------------------------------------------------------------------

    def maybe_clean(self) -> None:
        if self.transient is not None or self.state.bounds is None:
            return  # mid-transfer, or owning nothing
        budget = max(1, self.state.owned_cell_count() // 32)
        blocks = self.state.cleaning_step(self.sys.watermark(), budget)
        if blocks is not None and self.sys.use_summaries:
            self.broadcast_refresh(blocks, flush_of=None)

    def broadcast_refresh(self, blocks: dict[tuple[int, int], frozenset[str]],
                          flush_of: int | None) -> None:
        payload = dict(
            pid=self.index,
            blocks=blocks,
            vector=dict(self.reg_seen),
            epoch=self.epoch,
            flush_of=flush_of,
        )
        for rname in self.sys.router_names:
            self.sys.send(self.name, rname, MsgKind.SUMMARY_REFRESH, **payload)


# -- baselines that are not spatio-textually aware ------------------------------------


class BroadcastRouter(RouterWorker):
    """Every object goes to every evaluator; queries are spread by qid."""

    def object_targets(self, o: SpatialKeywordObject
                       ) -> tuple[tuple[int, int] | None, list[str]]:
        cell = self.locate(o)
        return cell, self.sys.evaluator_names if cell is not None else []

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
        RouterWorker.check_query(q)
        if q.predicate is Predicate.INSIDE or not q.text:
            raise ValueError("textual mode serves keyword predicates only")

    def keyword_targets(self, text: frozenset[str]) -> list[str]:
        return [f"e{idx}" for idx in sorted({self.sys.keyword_evaluator(kw) for kw in text})]

    def object_targets(self, o: SpatialKeywordObject
                       ) -> tuple[tuple[int, int] | None, list[str]]:
        cell = self.locate(o)
        return cell, self.keyword_targets(o.text) if cell is not None else []

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

    def handle_object(self, o: SpatialKeywordObject, coord: tuple[int, int] | None) -> None:
        sys = self.sys
        cand = self.flat.candidates(o.text)
        if not cand:
            sys.no_candidate_objects += 1
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
        self.flat.attach(q.qid, self.own_keywords(q.text), frozenset((q.qid,)))
        self.registry[q.qid] = q

    def maybe_clean(self) -> None:
        wm = self.sys.watermark()
        for qid in [qid for qid, q in self.registry.items() if q.expiry < wm]:
            self.flat.detach(qid, self.own_keywords(self.registry.pop(qid).text))

    def own_keywords(self, text: frozenset[str]) -> frozenset[str]:
        """The keywords of `text` that this evaluator indexes."""
        keyword_evaluator = self.sys.keyword_evaluator
        return frozenset(kw for kw in text if keyword_evaluator(kw) == self.index)


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
        # objects an evaluator received and found no candidate for; kept out
        # of `counters` so those read the same as before it was counted
        self.no_candidate_objects = 0
        self.metrics: list[dict] = []
        self.decisions: list[dict] = []
        self.channels: dict[tuple, deque] = {}
        self._depth: Counter = Counter()  # per channel: queued objects plus other messages
        self._send_seq: Counter = Counter()
        self._deliver_seq: Counter = Counter()
        self.scheduler = Scheduler(cfg.seed, cfg.policy)
        self._ingest_rng = random.Random(cfg.seed + 0x5EED)
        self._ingest_rr = 0
        # router -> objects ingested for it since the last delivery
        self._ingested: defaultdict[str, list] = defaultdict(list)
        self.delivered_total = 0
        self.peak_channel_depth = 0
        self.now = 0
        # object timestamp -> copies in flight; ingest timestamps never
        # decrease, so insertion order is timestamp order
        self._inflight: dict[int, int] = {}
        self.check_query = router_cls.check_query
        self.workers: dict[str, Any] = {}
        for i, rname in enumerate(self.router_names):
            self.workers[rname] = router_cls(rname, i, self)
        for i, ename in enumerate(self.evaluator_names):
            self.workers[ename] = evaluator_cls(ename, i, self)

    # -- transport ------------------------------------------------------------------

    def send(self, sender: str, receiver: str, kind: MsgKind, **payload) -> None:
        """Queue a message; a DATA_OBJECT counts as its objects, a CELL_BATCH
        as its cell snapshots (at least 1)."""
        key = (sender, receiver)
        chan = self.channels.get(key)
        if chan is None:
            chan = self.channels[key] = deque()
        seq = self._send_seq[key]
        self._send_seq[key] = seq + 1
        if kind is MsgKind.DATA_OBJECT:
            size = len(payload["objs"])
        elif kind is MsgKind.CELL_BATCH:
            size = max(1, len(payload["cells"]))
        else:
            size = 1
        chan.append(Message(kind, payload, seq, size))
        depth = self._depth[key] + size
        self._depth[key] = depth
        if depth > self.peak_channel_depth:
            self.peak_channel_depth = depth
        self.scheduler.enqueue(key)

    def _deliver(self, key: tuple) -> None:
        msg = self.channels[key].popleft()
        expected = self._deliver_seq[key]
        if msg.seq != expected:
            raise ProtocolViolation(
                f"channel {key} delivered seq {msg.seq}, expected {expected}")
        self._deliver_seq[key] = expected + 1
        self._depth[key] -= msg.size
        self.delivered_total += msg.size
        self.workers[key[1]].handle(msg)

    def _send_ingested(self) -> None:
        """One DATA_OBJECT per router for everything ingested since the last delivery."""
        for rname, objs in self._ingested.items():
            self.send("in", rname, MsgKind.DATA_OBJECT, objs=objs)
        self._ingested.clear()

    def tick(self) -> bool:
        """Deliver one message; False when every channel is empty."""
        if self._ingested:
            self._send_ingested()
        key = self.scheduler.pick(self.channels)
        if key is None:
            return False
        before = self.delivered_total
        self._deliver(key)
        cadence = self.cfg.stats_cadence
        if self.delivered_total // cadence != before // cadence and self.pm:
            self.workers[self.coordinator].request_stats()
        return True

    def step_channel(self, sender: str, receiver: str) -> bool:
        """Deliver one message from a specific channel (test hook)."""
        if self._ingested:
            self._send_ingested()
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
        inflight = self._inflight
        inflight[o.ts] = inflight.get(o.ts, 0) + 1
        self._ingested[self._pick_router()].append(o)

    def ingest_query(self, q: ContinuousQuery) -> None:
        self.check_query(q)
        if self._ingested:  # keeps each ingest channel in ingest order
            self._send_ingested()
        self.send("in", self._pick_router(), MsgKind.QUERY, query=q)

    # -- object-liveness watermark -------------------------------------------------------

    def note_extra_inflight(self, ts: int, k: int) -> None:
        if k:
            inflight = self._inflight
            inflight[ts] = inflight.get(ts, 0) + k

    def retire(self, ts: int) -> None:
        """One copy of an object stamped `ts` is done. A copy that was never
        ingested (one put straight onto a channel) may have no entry."""
        inflight = self._inflight
        left = inflight.get(ts, 0) - 1
        if left > 0:
            inflight[ts] = left
        elif left == 0:
            del inflight[ts]

    def watermark(self) -> int:
        """Smallest object timestamp that may still be in flight."""
        return next(iter(self._inflight), self.now)

    # -- outputs ---------------------------------------------------------------------

    def emit(self, out: list[MatchResult]) -> None:
        if self.cfg.retain_results:
            self.results.extend(out)
        if self.on_match is not None:
            for m in out:
                self.on_match(m)

    def keyword_evaluator(self, kw: str) -> int:
        return zlib.crc32(kw.encode()) % len(self.evaluator_names)

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
            "forwardedNoCandidate": self.no_candidate_objects,
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

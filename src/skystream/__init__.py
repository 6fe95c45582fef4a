"""skystream: adaptive spatial-keyword stream matching.

A library-shaped implementation of an augmented-grid router, cost-balanced
cell partitioning with online rebalancing, textual routing summaries, and a
deterministic message-passing runtime for driving it all end to end.
"""

from .model import (
    ContinuousQuery,
    MatchResult,
    Point,
    Predicate,
    Rect,
    SpatialKeywordObject,
    contains_text,
    inside,
    matches,
    overlaps_text,
    tokenize,
)
from .agrid import (
    AGrid,
    RoutingUnit,
    dump_partitioning,
    load_partitioning,
    summary_contribution,
    uniform_partitioning,
)
from .evaluator import CellBatch, EvaluatorState, EvaluatorStats
from .balancer import (
    GranularityModel,
    OpKind,
    RebalanceOp,
    WorkloadSnapshot,
    advise_granularity,
    initial_partitioning,
    select_rebalance_op,
)
from .runtime import System, SystemConfig
from .workload import (
    WorkloadSpec,
    generate,
    ingest_tweets,
    read_tweets,
    scale_object,
    scale_query,
    synthetic_vocab,
)

__version__ = "0.1.0"

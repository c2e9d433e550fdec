"""repro — Efficiently Monitoring Top-k Pairs over Sliding Windows.

A complete reproduction of Shen, Cheema, Lin, Zhang and Wang (ICDE 2012):
continuous and snapshot top-k *pairs* queries over count- and time-based
sliding windows, answered from a per-scoring-function K-skyband maintained
with the paper's K-staircase (Algorithms 3-4), queried through a priority
search tree (Algorithms 1-2), with the TA optimization for global scoring
functions (Algorithm 5) and the paper's full competitor suite (naive,
supreme, linear, basic).

Quickstart::

    from repro import TopKPairsMonitor, k_closest_pairs

    monitor = TopKPairsMonitor(window_size=1000, num_attributes=2)
    closest = k_closest_pairs(2)
    query = monitor.register_query(closest, k=3, n=500)
    monitor.append((0.1, 0.9))
    monitor.append((0.15, 0.88))
    monitor.append((0.7, 0.2))
    for pair in monitor.results(query):
        print(pair.older.values, pair.newer.values, pair.score)
"""

from repro.obs import (
    Counters,
    MetricsRecorder,
    MetricsRegistry,
    NullRecorder,
    TickEvent,
)
from repro.audit import (
    MonitorAuditor,
    Violation,
    check_monitor,
    check_pst,
    check_skiplist,
    check_skyband,
    check_staircase,
    check_window,
    lint_paths,
)
from repro.core import (
    Pair,
    QueryHandle,
    SCaseMaintainer,
    SkybandDelta,
    TAMaintainer,
    TopKPairsMonitor,
    TopKPairsQuery,
    answer_snapshot,
)
from repro.exceptions import (
    AuditViolationError,
    InvalidParameterError,
    ReproError,
    ScoringFunctionError,
    UnknownQueryError,
    WindowError,
)
from repro.scoring import (
    GlobalScoringFunction,
    LambdaScoringFunction,
    ScoringFunction,
    k_closest_pairs,
    k_furthest_pairs,
    paper_scoring_functions,
    sensor_scoring_function,
    top_k_dissimilar_pairs,
    top_k_similar_pairs,
)
from repro.stream import StreamManager, StreamObject

__version__ = "1.0.0"

__all__ = [
    "AuditViolationError",
    "Counters",
    "GlobalScoringFunction",
    "InvalidParameterError",
    "LambdaScoringFunction",
    "MetricsRecorder",
    "MetricsRegistry",
    "MonitorAuditor",
    "NullRecorder",
    "Pair",
    "QueryHandle",
    "ReproError",
    "SCaseMaintainer",
    "ScoringFunction",
    "ScoringFunctionError",
    "SkybandDelta",
    "StreamManager",
    "StreamObject",
    "TAMaintainer",
    "TickEvent",
    "TopKPairsMonitor",
    "TopKPairsQuery",
    "UnknownQueryError",
    "Violation",
    "WindowError",
    "answer_snapshot",
    "check_monitor",
    "check_pst",
    "check_skiplist",
    "check_skyband",
    "check_staircase",
    "check_window",
    "lint_paths",
    "k_closest_pairs",
    "k_furthest_pairs",
    "paper_scoring_functions",
    "sensor_scoring_function",
    "top_k_dissimilar_pairs",
    "top_k_similar_pairs",
]

"""repro.obs — unified observability for the monitoring pipeline.

The paper's whole argument is quantitative: the K-skyband stays near the
``O(K log(N/K))`` bound of Theorem 3 and per-update cost stays sub-linear
(§VI).  This package makes the repo able to *see* that continuously:

* :mod:`repro.obs.metrics` — a process-local :class:`MetricsRegistry`
  with counters, gauges and fixed-bucket histograms (Prometheus-style
  naming, no third-party dependency);
* :mod:`repro.obs.recorder` — the instrumentation fan-in: a no-op
  :class:`NullRecorder` (the default everywhere, so disabled overhead is
  one attribute check per instrumented block) and the live
  :class:`MetricsRecorder`;
* :mod:`repro.obs.trace` — structured per-tick :class:`TickEvent`
  records with phase timings (window eviction, new-pair generation,
  skyband insert/expire, staircase repair, PST rebuilds) and the
  skyband dynamics (pairs added, removed and expired; skyband and
  staircase sizes);
* :mod:`repro.obs.cost_model` — the machine-independent operation
  :class:`Counters`;
* :mod:`repro.obs.export` — exporters: Prometheus text exposition,
  JSON-lines tick stream, CSV, and JSON registry snapshots;
* :mod:`repro.obs.spans` — request-level span tracing: client-minted
  trace ids carried through the serving layer, recorded into a bounded
  :class:`SpanRecorder` ring (null-object twin :data:`NULL_SPANS`);
* :mod:`repro.obs.flight` — the :class:`FlightRecorder` post-mortem
  ring (spans + ticks + error frames) with triggered JSONL dumps, and
  the :class:`RingLog` cursor-addressed bounded log under it;
* :mod:`repro.obs.httpd` — the stdlib asyncio HTTP sidecar serving
  ``/metrics``, ``/healthz``, ``/varz``, ``/tracez`` and ``/ticks``
  (``repro serve --obs-port``).

Usage::

    from repro import TopKPairsMonitor
    from repro.obs import MetricsRecorder
    from repro.obs.export import to_prometheus

    recorder = MetricsRecorder()
    monitor = TopKPairsMonitor(1000, 2, recorder=recorder)
    ...
    print(to_prometheus(recorder.registry))

Metric catalogue and exporter formats: ``docs/observability.md``.
"""

from repro.obs.cost_model import Counters, CountingScoringFunction
from repro.obs.flight import FlightRecorder, RingLog
from repro.obs.export import (
    registry_to_json,
    to_prometheus,
    write_metrics_json,
    write_tick_csv,
    write_tick_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.httpd import PROMETHEUS_CONTENT_TYPE, ObsHTTPServer
from repro.obs.recorder import NULL_RECORDER, MetricsRecorder, NullRecorder
from repro.obs.spans import (
    NULL_SPANS,
    NullSpanRecorder,
    Span,
    SpanRecorder,
    new_span_id,
    new_trace_id,
)
from repro.obs.trace import PHASES, TickEvent

__all__ = [
    "Counter",
    "Counters",
    "CountingScoringFunction",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRecorder",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NULL_SPANS",
    "NullRecorder",
    "NullSpanRecorder",
    "ObsHTTPServer",
    "PHASES",
    "PROMETHEUS_CONTENT_TYPE",
    "RingLog",
    "Span",
    "SpanRecorder",
    "TickEvent",
    "new_span_id",
    "new_trace_id",
    "registry_to_json",
    "to_prometheus",
    "write_metrics_json",
    "write_tick_csv",
    "write_tick_jsonl",
]

"""Per-layer metrics from the traced run's spans.

Every number comes from the measured phase only (spans that start
inside it), except the set-up costs, which come from the set-up window.
Server-side layers are self times summed over every server process;
the engine layers (``stream``, ``maintenance``, ``continuous``,
``session.ingest``) are the primary's, and a standby's engine work is
reported whole as ``standby.apply``.  The residual is the
client-observed time (inside ``ServeClient.request`` and
``next_event``) minus every timed layer, so layers plus residual add up
to it by construction; what it holds is the event loops, the sockets
and the glue of the serve handlers and the client.
"""

from __future__ import annotations

from repro.analysis.theory import expected_skyband_size
from tracing import summarize
from workloads import WINDOW

__all__ = ["PER_LAYER", "per_layer"]

TOTAL, SELF, CALLS, VALUE = range(4)
US = 1e6

#: name -> (unit, better); BENCHMARK.json's per_layer list mirrors this.
PER_LAYER = {
    "client.encode_us_per_op": ("us", "lower"),
    "client.decode_us_per_op": ("us", "lower"),
    "protocol.encode_us_per_op": ("us", "lower"),
    "protocol.decode_us_per_op": ("us", "lower"),
    "protocol.pair_to_wire_us_per_op": ("us", "lower"),
    "protocol.bytes_per_op": ("bytes", "lower"),
    "server.delta_frames_per_row": ("count", "lower"),
    "server.residual_us_per_op": ("us", "lower"),
    "tenancy.grant_us_per_batch": ("us", "lower"),
    "tenancy.mux_wait_us_per_batch": ("us", "lower"),
    "session.ingest_us_per_row": ("us", "lower"),
    "session.read_us_per_read": ("us", "lower"),
    "session.register_s": ("s", "lower"),
    "stream.append_us_per_row": ("us", "lower"),
    "maintenance.on_tick_us_per_row": ("us", "lower"),
    "maintenance.generate_us_per_row": ("us", "lower"),
    "maintenance.insert_us_per_row": ("us", "lower"),
    "maintenance.expire_us_per_row": ("us", "lower"),
    "maintenance.staircase_us_per_row": ("us", "lower"),
    "maintenance.pst_rebuild_us_per_row": ("us", "lower"),
    "maintenance.candidates_per_row": ("count", "lower"),
    "maintenance.candidate_yield": ("ratio", "higher"),
    "maintenance.sweep_frac": ("fraction", "lower"),
    "maintenance.skyband_vs_thm3": ("ratio", "lower"),
    "continuous.apply_us_per_row": ("us", "lower"),
    "query.snapshot_us_per_read": ("us", "lower"),
    "checkpoint.document_s": ("s", "lower"),
    "checkpoint.restore_s": ("s", "lower"),
    "checkpoint.bytes": ("bytes", "lower"),
    "standby.apply_us_per_row": ("us", "lower"),
    "trace.residual_frac": ("fraction", "lower"),
    "trace.engine_frac": ("fraction", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "host.spin_ms": ("ms", "lower"),
}

ENGINE_SPANS = ("stream.append", "maintenance.on_tick", "continuous.apply")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _merge(summaries: list[dict]) -> dict:
    spans: dict = {}
    events: dict = {}
    for summary in summaries:
        for name, row in summary["spans"].items():
            into = spans.setdefault(name, [0.0, 0.0, 0, 0])
            for i, value in enumerate(row):
                into[i] += value
        for name, row in summary["events"].items():
            into = events.setdefault(name, [0.0, 0])
            into[0] += row[0]
            into[1] += row[1]
    return {"spans": spans, "events": events}


def per_layer(plain, traced, spin_ms: float) -> dict:
    """``{name: value}`` for every metric in :data:`PER_LAYER`.

    ``plain`` and ``traced`` are the two passes over the same input
    (``run.run_pass`` results); ``traced`` carries the span dumps.
    Set-up costs are per set.
    """
    phase = {"primary": [], "standby": []}
    setup = {"primary": [], "standby": []}
    client = []
    for record in traced.sets:
        for role, dump in record.server_dumps:
            phase[role].append(summarize(dump, *record.phase))
            setup[role].append(summarize(dump, *record.setup))
        client.append(summarize(traced.client_dump, *record.phase))
    primary, standby = _merge(phase["primary"]), _merge(phase["standby"])
    servers = _merge([primary, standby])
    client = _merge(client)
    primary_setup, standby_setup = (_merge(setup["primary"]),
                                    _merge(setup["standby"]))
    sets = len(traced.sets)

    def span(summary, name, field):
        return summary["spans"].get(name, (0.0, 0.0, 0, 0))[field]

    def event(summary, name):
        return summary["events"].get(name, (0.0, 0))[0]

    def total(field):
        return sum(getattr(r.run, field) for r in traced.sets)

    rows, reads, batches = total("rows"), total("reads"), total("batches")
    ops = sum(r.ops for r in traced.sets)
    observed = (span(client, "client.request", TOTAL)
                + span(client, "client.next_event", TOTAL))
    client_codec = (span(client, "client.encode", TOTAL)
                    + span(client, "client.decode", TOTAL))
    server_timed = sum(row[SELF] for row in servers["spans"].values())
    residual = observed - client_codec - server_timed
    engine = sum(span(servers, name, TOTAL) for name in ENGINE_SPANS)
    groups = [g for r in traced.sets for g in r.groups]
    expected = sum(expected_skyband_size(g["K"], WINDOW) for g in groups)
    sizes = sum(g["skyband_size"] for g in groups)
    candidates = event(primary, "count.candidates")
    sweeps = event(primary, "count.apply_sweep")
    merges = sweeps + event(primary, "count.apply_incremental")
    plain_wall = sum(r.wall for r in plain.sets)
    traced_wall = sum(r.wall for r in traced.sets)

    m = {
        "client.encode_us_per_op":
            _ratio(span(client, "client.encode", TOTAL), ops) * US,
        "client.decode_us_per_op":
            _ratio(span(client, "client.decode", TOTAL), ops) * US,
        "protocol.encode_us_per_op":
            _ratio(span(servers, "protocol.encode", SELF), ops) * US,
        "protocol.decode_us_per_op":
            _ratio(span(servers, "protocol.decode", SELF), ops) * US,
        "protocol.pair_to_wire_us_per_op":
            _ratio(span(servers, "protocol.pair_to_wire", SELF), ops) * US,
        "protocol.bytes_per_op":
            _ratio(span(servers, "protocol.encode", VALUE), ops),
        "server.delta_frames_per_row": _ratio(total("delta_frames"), rows),
        "server.residual_us_per_op": _ratio(residual, ops) * US,
        "tenancy.grant_us_per_batch":
            _ratio(span(primary, "tenancy.grant", SELF), batches) * US,
        "tenancy.mux_wait_us_per_batch":
            _ratio(span(primary, "tenancy.mux_wait", TOTAL), batches) * US,
        "session.ingest_us_per_row":
            _ratio(span(primary, "session.ingest", SELF), rows) * US,
        "session.read_us_per_read":
            _ratio(span(servers, "session.read", SELF), reads) * US,
        "session.register_s":
            span(primary_setup, "session.register", TOTAL) / sets,
        "stream.append_us_per_row":
            _ratio(span(primary, "stream.append", SELF), rows) * US,
        "maintenance.on_tick_us_per_row":
            _ratio(span(primary, "maintenance.on_tick", TOTAL), rows) * US,
        "maintenance.candidates_per_row": _ratio(candidates, rows),
        "maintenance.candidate_yield":
            _ratio(event(primary, "count.skyband_added"), candidates),
        "maintenance.sweep_frac": _ratio(sweeps, merges),
        "maintenance.skyband_vs_thm3": _ratio(sizes, expected),
        "continuous.apply_us_per_row":
            _ratio(span(primary, "continuous.apply", SELF), rows) * US,
        "query.snapshot_us_per_read":
            _ratio(span(servers, "query.snapshot", SELF), reads) * US,
        "checkpoint.document_s":
            span(primary_setup, "checkpoint.document", TOTAL) / sets,
        "checkpoint.restore_s":
            span(standby_setup, "checkpoint.restore", TOTAL) / sets,
        "checkpoint.bytes":
            span(primary_setup, "checkpoint.document", VALUE) / sets,
        "standby.apply_us_per_row":
            _ratio(span(standby, "session.ingest", TOTAL), rows) * US,
        "trace.residual_frac": _ratio(residual, observed),
        "trace.engine_frac":
            _ratio(engine, sum(r.server_cpu for r in traced.sets)),
        "trace.overhead_frac": _ratio(traced_wall, plain_wall) - 1.0,
        "host.spin_ms": spin_ms,
    }
    for name in ("generate", "insert", "expire", "staircase", "pst_rebuild"):
        m[f"maintenance.{name}_us_per_row"] = \
            _ratio(event(primary, f"phase.{name}"), rows) * US
    return m

"""Wire protocol for the serving layer (docs/serving.md).

Frames are newline-delimited JSON objects (NDJSON), UTF-8 encoded, one
frame per line.  Three frame shapes travel over a connection:

* **requests** (client → server) — ``{"op": <name>, "id": <echo>, ...}``
  where ``op`` is one of :data:`OPS` and the optional ``id`` is echoed
  verbatim in the response so a client can match replies;
* **responses** (server → client) — ``{"ok": true, "op": ..., "id": ...,
  ...payload}`` on success, ``{"ok": false, "error": {"code": ...,
  "message": ...}, ...}`` on failure.  Error codes are catalogued in
  :data:`ERROR_CODES`; the server answers *every* malformed input with a
  structured error frame rather than dying or going silent;
* **events** (server → client, push) — ``{"event": <kind>, ...}``.
  Subscription deltas are ``{"event": "delta", "query": ..., "tick": ...,
  "entered": [...], "left": [...]}``; delivery keeps the client's answer
  in sync without re-shipping the full top-k every tick (the
  delta-based protocol of Mäcker et al., see PAPERS.md).  Connections
  registered via the ``replicate`` op additionally receive ``rows``
  events — ``{"event": "rows", "first_seq": ..., "now_seq": ...,
  "epoch": ..., "namespace": ..., "rows": [[values...], ...],
  "timestamps": [...]|null}`` — the raw replication feed a warm standby
  applies to keep its maintainer state hot (docs/serving.md, failover
  runbook).

On a multi-tenant server (``repro serve --tenants``) every data op is
scoped to a *namespace*: a connection first sends ``{"op": "auth",
"namespace": ..., "token": ...}`` (or ``admin: true`` with the admin
token) and every later op runs against that namespace's own monitor.
Auth failures answer with ``unauthorized``; quota violations answer
with ``quota_exceeded`` whose ``error.details`` object reports the
quota name and, for mid-batch ingest cuts, the exact ``ingested``
count (``Monitor.extend`` semantics: the prefix really was admitted).

Any request may additionally carry an optional ``trace`` field — an
opaque client-minted id string (see :func:`repro.obs.spans.new_trace_id`)
propagated end to end: the server opens an ``op:<name>`` span under it,
the ingest tick runs under it, every delta event the tick produced
carries it, and the ingest ack echoes it back.  :func:`trace_of`
validates the field; untraced frames (the default) pay nothing.

Pairs cross the wire via :func:`pair_to_wire` — a deterministic dict
(sequence numbers, score, attribute values) so two servers holding the
same window produce byte-identical serializations.  Frames carry answer
pairs as lists of :class:`~repro.core.pair.Pair`; :func:`encode_frame`
JSON-encodes each pair once, on first use, and splices the cached text
into every later frame that carries it.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.pair import Pair
from repro.exceptions import ProtocolError

__all__ = [
    "ERROR_CODES",
    "MAX_FRAME_BYTES",
    "MAX_TRACE_ID_CHARS",
    "OPS",
    "PROTOCOL_VERSION",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "ok_frame",
    "pair_to_wire",
    "trace_of",
]

#: bumped on every incompatible wire change; the ``hello`` event and
#: ``stats`` responses carry it so clients can refuse to speak newer
#: servers.
PROTOCOL_VERSION = 1

#: default per-frame byte ceiling (requests larger than this are
#: answered with ``frame_too_large`` and the connection is closed, since
#: the stream can no longer be resynchronized).
MAX_FRAME_BYTES = 1 << 20

#: trace ids are opaque, but unbounded ones would let a client bloat
#: every span record and delta frame the server emits.
MAX_TRACE_ID_CHARS = 64

#: the request operations the server understands.
OPS = (
    "ingest",
    "register",
    "unregister",
    "snapshot",
    "subscribe",
    "unsubscribe",
    "checkpoint",
    "stats",
    "shutdown",
    "replicate",
    "promote",
    "epoch",
    "auth",
)

#: structured error codes (the machine-readable half of an error frame).
ERROR_CODES = (
    "bad_json",        # line is not valid JSON
    "bad_frame",       # JSON but not an object, or no "op" string
    "unknown_op",      # "op" is not in OPS
    "bad_request",     # op-specific field missing or invalid
    "unknown_query",   # query handle does not name a registered query
    "frame_too_large", # request exceeded the frame byte ceiling
    "checkpoint_failed",
    "shutting_down",   # server is draining; no new work accepted
    "not_primary",     # standby refused a mutating op; promote it first
    "unauthorized",    # missing/wrong/revoked token, or no auth yet
    "quota_exceeded",  # a namespace quota rejected (details name it)
    "internal",        # unexpected server-side failure (bug)
)


#: ``json.dumps(obj, separators=(",", ":"))`` without building an
#: encoder per call
_encode = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(payload: dict) -> bytes:
    """One wire frame: compact JSON plus the terminating newline.

    A field whose value is a non-empty list of :class:`Pair` is spliced
    from each pair's cached JSON (:func:`_pair_json`), in key order, so
    the bytes equal ``json.dumps`` of the same frame with every pair
    replaced by its :func:`pair_to_wire` dict — without encoding any
    pair's floats twice.
    """
    parts: list[str] = []
    plain: dict = {}
    for key, value in payload.items():
        if isinstance(value, list) and value \
                and isinstance(value[0], Pair):
            if plain:
                parts.append(_encode(plain)[1:-1])
                plain = {}
            parts.append(
                f"{_encode(key)}:[{','.join(map(_pair_json, value))}]"
            )
        else:
            plain[key] = value
    if not parts:
        return _encode(payload).encode("utf-8") + b"\n"
    if plain:
        parts.append(_encode(plain)[1:-1])
    return ("{" + ",".join(parts) + "}\n").encode("utf-8")


def decode_frame(line: bytes) -> dict:
    """Parse one received line into a frame dict.

    Raises :class:`~repro.exceptions.ProtocolError` with the matching
    error code for anything that is not a JSON object.
    """
    try:
        payload = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("bad_json", f"frame is not valid JSON: {exc}") \
            from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            "bad_frame",
            f"frame must be a JSON object, got {type(payload).__name__}",
        )
    return payload


def trace_of(frame: dict) -> Optional[str]:
    """The request's validated ``trace`` id, or ``None`` when untraced.

    Raises ``bad_request`` for a non-string or oversized id — a frame
    that *tried* to trace deserves a loud failure, not silent dropping.
    """
    trace = frame.get("trace")
    if trace is None:
        return None
    if not isinstance(trace, str) or not trace:
        raise ProtocolError(
            "bad_request", "'trace' must be a non-empty string"
        )
    if len(trace) > MAX_TRACE_ID_CHARS:
        raise ProtocolError(
            "bad_request",
            f"'trace' exceeds {MAX_TRACE_ID_CHARS} characters",
        )
    return trace


def ok_frame(op: str, request_id=None, **payload) -> dict:
    """A success response echoing the request's ``op`` and ``id``."""
    frame: dict = {"ok": True, "op": op}
    if request_id is not None:
        frame["id"] = request_id
    frame.update(payload)
    return frame


def error_frame(
    code: str,
    message: str,
    *,
    request_id=None,
    op: Optional[str] = None,
    details: Optional[dict] = None,
) -> dict:
    """A structured error response (``ok: false``).

    ``code`` must come from :data:`ERROR_CODES` — clients dispatch on
    it, so ad-hoc codes are a bug in the server, not a protocol value.
    ``details`` (optional) attaches a machine-readable object under
    ``error.details`` — ``quota_exceeded`` frames use it to report the
    quota that fired and how much of the request was admitted.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"uncatalogued error code {code!r}")
    frame: dict = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    if details is not None:
        frame["error"]["details"] = dict(details)
    if op is not None:
        frame["op"] = op
    if request_id is not None:
        frame["id"] = request_id
    return frame


def pair_to_wire(pair: Pair) -> dict:
    """A deterministic JSON-able view of one answer pair.

    Keyed by the members' sequence numbers (the pair's identity), plus
    the score and both value tuples so clients can render answers
    without a second lookup.  Identical windows serialize identically —
    the property the checkpoint/restore regression test pins down.
    """
    return {
        "older": pair.older.seq,
        "newer": pair.newer.seq,
        "score": pair.score,
        "older_values": list(pair.older.values),
        "newer_values": list(pair.newer.values),
    }


def _pair_json(pair: Pair) -> str:
    """``pair_to_wire(pair)`` as compact JSON, encoded on first use and
    kept on the pair: its seqs, score and values never change, so every
    later snapshot, delta and journal line reuses the same text."""
    try:
        return pair.wire
    except AttributeError:
        text = pair.wire = _encode(pair_to_wire(pair))
        return text

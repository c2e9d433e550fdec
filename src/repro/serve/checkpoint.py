"""Versioned checkpoint/restore for the serving layer (docs/serving.md).

A checkpoint is one JSON document capturing the monitor's constructor
configuration, the window contents (sequence numbers, attribute values,
timestamps, payloads), the registered query specs — and, since format
version 2, the serialized **maintainer state**: each skyband group's
pairs and staircase points.  The paper's core observation (the K-skyband
is the exact, minimal state needed to answer any top-k pair query) means
that section admits an ``O(|SKB|)`` *structural* restore: the window is
bulk-loaded into the sorted lists, the skyband pairs are reconnected to
the live window objects, re-validated through one Algorithm 4 sweep and
installed wholesale — no ``O(N^2)`` bootstrap.  *Replay* restore (feed
the window through the engine and re-bootstrap every group) remains
available as the correctness oracle.

Format (version 2)::

    {
      "format": "repro-checkpoint",
      "version": 2,
      "created_at": <unix seconds>,
      "epoch": <fencing epoch, monotonic across failovers>,
      "monitor": {window_size, num_attributes, time_horizon, strategy, seed},
      "next_seq": <the next arrival's sequence number>,
      "window": [[seq, [values...], timestamp|null, payload|null], ...],
      "queries": [{handle, scoring, k, n}, ...],
      "next_handle": <int>,
      "maintainers": [
        {"scoring": <name>, "K": <int>,
         "skyband": [[older_seq, newer_seq, score], ...],
         "staircase": [[[score, -older_seq, uid], age_key], ...]},
        ...
      ]
    }

``skyband`` rows are in ascending ``score_key`` order (the maintainer's
native order); everything else about a pair (uid, age_key, tie-break
keys) is derivable from the two sequence numbers and the score.  The
``staircase`` section is redundant by construction — Algorithm 4 over
the skyband reproduces it — and restore exploits that as an integrity
check: the serialized points must match the re-swept ones exactly.

Compatibility rules: readers accept version ``2`` only and reject any
other version (the pre-maintainer-state version 1 included) with a
:class:`~repro.exceptions.CheckpointError` naming it; unknown *extra*
keys are ignored, so additive changes do not need a version bump.
Payloads must be JSON-serializable — a checkpoint attempt with an
opaque payload fails loudly rather than writing a lossy file.

Writes are atomic and durable: unique temp file (``.tmp.<pid>``),
fsync, ``os.replace``, then an fsync of the parent directory so the
rename itself survives a crash.  A writer that knows its fencing epoch
refuses to clobber a checkpoint written by a higher epoch (the
split-brain guard for the warm-standby protocol).
"""

from __future__ import annotations

import json
import os
import time
from typing import Optional

from repro.core.pair import Pair
from repro.core.skyband_update import update_skyband_and_staircase
from repro.exceptions import CheckpointError
from repro.serve.session import SCORING_NAMES, ServerMonitor
from repro.stream.object import StreamObject

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "RESTORE_MODES",
    "checkpoint_document",
    "checkpoint_state",
    "load_checkpoint",
    "restore_namespace_checkpoints",
    "restore_server_monitor",
    "save_checkpoint",
    "write_checkpoint_document",
]

FORMAT_NAME = "repro-checkpoint"
FORMAT_VERSION = 2
RESTORE_MODES = ("structural", "replay")

_REQUIRED_KEYS = ("format", "version", "monitor", "next_seq", "window",
                  "queries", "maintainers")
_MONITOR_KEYS = ("window_size", "num_attributes", "time_horizon",
                 "strategy", "seed")


def _maintainer_states(session: ServerMonitor) -> list[dict]:
    """Serialized skyband-group state, one entry per scoring name with a
    registered query (the groups replay restore would rebuild)."""
    states: list[dict] = []
    seen: set[str] = set()
    for record in session.queries():
        if record.scoring in seen:
            continue
        seen.add(record.scoring)
        maintainer = session.monitor.maintainer_for(
            session.scoring_for(record.scoring)
        )
        if maintainer is None:
            continue
        states.append({
            "scoring": record.scoring,
            "K": maintainer.K,
            "skyband": [
                [pair.older.seq, pair.newer.seq, pair.score]
                for pair in maintainer.skyband
            ],
            "staircase": [
                [list(score_key), age_key]
                for score_key, age_key in maintainer.staircase.points()
            ],
        })
    return states


def checkpoint_state(session: ServerMonitor) -> dict:
    """The JSON-able checkpoint document for a live session."""
    manager = session.monitor.manager
    window = [
        [obj.seq, list(obj.values), obj.timestamp, obj.payload]
        for obj in manager
    ]
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "created_at": time.time(),  # audit: allow[RA108] wall-clock file metadata, not a hot-path timing
        "epoch": session.epoch,
        # Additive since multi-tenancy: the namespace this session
        # serves, so a directory restore can route each document back.
        # Pre-tenancy readers ignore it; absent means "default".
        "namespace": session.namespace,
        "monitor": dict(session.config),
        "next_seq": manager.now_seq + 1,
        "window": window,
        "queries": [record.spec() for record in session.queries()],
        "next_handle": session._next_handle,
        "maintainers": _maintainer_states(session),
    }


def checkpoint_document(session: ServerMonitor) -> tuple[str, dict]:
    """Serialize a session into ``(document, summary-metadata)``.

    Pure snapshot — no file I/O — so the asyncio server can capture a
    consistent state on the event loop (no ingest can interleave) and
    hand the blocking write to an executor thread.

    Raises :class:`~repro.exceptions.CheckpointError` when the window
    holds a payload JSON cannot represent.
    """
    state = checkpoint_state(session)
    try:
        document = json.dumps(state, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"window payloads must be JSON-serializable to checkpoint: {exc}"
        ) from exc
    meta = {
        "bytes": len(document) + 1,
        "objects": len(state["window"]),
        "queries": len(state["queries"]),
        "next_seq": state["next_seq"],
        "epoch": state["epoch"],
    }
    return document, meta


def _epoch_on_disk(path: str) -> Optional[int]:
    """The fencing epoch of an existing checkpoint at ``path``, or
    ``None`` when there is no readable checkpoint there (a missing or
    corrupt file must never block a write)."""
    try:
        with open(path, encoding="utf-8") as handle:
            state = json.load(handle)
        if not isinstance(state, dict) or state.get("format") != FORMAT_NAME:
            return None
        epoch = state.get("epoch", 0)
        return epoch if isinstance(epoch, int) else None
    except (OSError, ValueError):
        return None


def write_checkpoint_document(
    document: str, path: str, fence_epoch: Optional[int] = None
) -> None:
    """Write an already-serialized checkpoint atomically and durably.

    Unique temp file per writer (``.tmp.<pid>`` — two servers pointed
    at one path never clobber each other's in-flight write), fsync,
    ``os.replace``, then fsync of the parent directory so the rename
    survives a crash.  The temp file is unlinked on any failure.

    ``fence_epoch`` is the writer's fencing epoch: when given, an
    existing checkpoint at ``path`` carrying a *higher* epoch makes the
    write fail with :class:`~repro.exceptions.CheckpointError` — a
    demoted primary must not overwrite its successor's state.

    Blocking — call from a worker thread when on the event loop.
    """
    if fence_epoch is not None:
        existing = _epoch_on_disk(path)
        if existing is not None and existing > fence_epoch:
            raise CheckpointError(
                f"refusing to overwrite {path!r}: it carries fencing "
                f"epoch {existing}, newer than this writer's "
                f"{fence_epoch} (a promoted standby owns this path)"
            )
    tmp_path = f"{path}.tmp.{os.getpid()}"
    replaced = False
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(document)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        replaced = True
    finally:
        if not replaced:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
    directory = os.path.dirname(os.path.abspath(path))
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def save_checkpoint(session: ServerMonitor, path: str) -> dict:
    """Write a checkpoint atomically; returns summary metadata.

    Raises :class:`~repro.exceptions.CheckpointError` when the window
    holds a payload JSON cannot represent (the file is not written), or
    when ``path`` holds a checkpoint from a higher fencing epoch.
    """
    document, meta = checkpoint_document(session)
    write_checkpoint_document(document, path, session.epoch)
    return {"path": path, **meta}


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fail(origin: str, message: str) -> None:
    raise CheckpointError(f"checkpoint {origin}: {message}")


def _validate_window(state: dict, origin: str) -> None:
    window = state["window"]
    if not isinstance(window, list):
        _fail(origin, "'window' must be a list of rows, got "
              f"{type(window).__name__}")
    previous_seq = 0
    for index, row in enumerate(window):
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            _fail(origin, f"window row {index} must be "
                  "[seq, values, timestamp, payload]")
        seq, values, timestamp, _payload = row
        if not _is_int(seq) or seq < 1:
            _fail(origin, f"window row {index} has invalid seq {seq!r}")
        if previous_seq and seq != previous_seq + 1:
            _fail(origin, "window is not seq-contiguous: expected "
                  f"{previous_seq + 1}, found {seq}")
        previous_seq = seq
        if not isinstance(values, (list, tuple)) or not all(
            _is_number(value) for value in values
        ):
            _fail(origin, f"window row {index} (seq {seq}) has "
                  "non-numeric or non-list values")
        if timestamp is not None and not _is_number(timestamp):
            _fail(origin, f"window row {index} (seq {seq}) has a "
                  f"non-numeric timestamp {timestamp!r}")
    next_seq = state["next_seq"]
    if not _is_int(next_seq) or next_seq < 1:
        _fail(origin, f"'next_seq' must be an int >= 1, got {next_seq!r}")
    if window and previous_seq + 1 != next_seq:
        _fail(origin, f"window ends at seq {previous_seq} but 'next_seq' "
              f"says {next_seq}")


def _validate_queries(state: dict, origin: str) -> None:
    queries = state["queries"]
    if not isinstance(queries, list):
        _fail(origin, "'queries' must be a list of specs, got "
              f"{type(queries).__name__}")
    for index, spec in enumerate(queries):
        if not isinstance(spec, dict):
            _fail(origin, f"query spec {index} must be an object")
        handle = spec.get("handle")
        if not isinstance(handle, str) or not handle:
            _fail(origin, f"query spec {index} is missing a string "
                  "'handle'")
        if spec.get("scoring") not in SCORING_NAMES:
            _fail(origin, f"query {handle!r} registers unknown scoring "
                  f"{spec.get('scoring')!r}")
        if not _is_int(spec.get("k")) or spec["k"] < 1:
            _fail(origin, f"query {handle!r} needs an int k >= 1, got "
                  f"{spec.get('k')!r}")
        if not _is_int(spec.get("n")) or spec["n"] < 2:
            _fail(origin, f"query {handle!r} needs an int n >= 2, got "
                  f"{spec.get('n')!r}")


def _validate_maintainers(state: dict, origin: str) -> None:
    maintainers = state["maintainers"]
    if not isinstance(maintainers, list):
        _fail(origin, "'maintainers' must be a list, got "
              f"{type(maintainers).__name__}")
    seen: set[str] = set()
    for index, entry in enumerate(maintainers):
        if not isinstance(entry, dict):
            _fail(origin, f"maintainer entry {index} must be an object")
        scoring = entry.get("scoring")
        if scoring not in SCORING_NAMES:
            _fail(origin, f"maintainer entry {index} names unknown "
                  f"scoring {scoring!r}")
        if scoring in seen:
            _fail(origin, f"duplicate maintainer entry for {scoring!r}")
        seen.add(scoring)
        if not _is_int(entry.get("K")) or entry["K"] < 1:
            _fail(origin, f"maintainer {scoring!r} needs an int K >= 1, "
                  f"got {entry.get('K')!r}")
        skyband = entry.get("skyband")
        if not isinstance(skyband, list):
            _fail(origin, f"maintainer {scoring!r} 'skyband' must be a "
                  "list of [older, newer, score] triples")
        for position, triple in enumerate(skyband):
            if not isinstance(triple, (list, tuple)) or len(triple) != 3:
                _fail(origin, f"maintainer {scoring!r} skyband entry "
                      f"{position} must be [older, newer, score]")
            older, newer, score = triple
            if not _is_int(older) or not _is_int(newer) or older >= newer:
                _fail(origin, f"maintainer {scoring!r} skyband entry "
                      f"{position} has invalid seqs ({older!r}, {newer!r})")
            if not _is_number(score):
                _fail(origin, f"maintainer {scoring!r} skyband entry "
                      f"{position} has a non-numeric score {score!r}")
        staircase = entry.get("staircase")
        if not isinstance(staircase, list):
            _fail(origin, f"maintainer {scoring!r} 'staircase' must be a "
                  "list of [[score, -older_seq, uid], age_key] points")
        for position, point in enumerate(staircase):
            valid = (
                isinstance(point, (list, tuple)) and len(point) == 2
                and isinstance(point[0], (list, tuple))
                and len(point[0]) == 3
                and _is_number(point[0][0])
                and _is_int(point[0][1]) and _is_int(point[0][2])
                and _is_int(point[1])
            )
            if not valid:
                _fail(origin, f"maintainer {scoring!r} staircase point "
                      f"{position} is malformed")


def _validate_state(state, origin: str) -> dict:
    """Full shape validation of a checkpoint document.

    Every malformed document fails loudly here — with a
    :class:`~repro.exceptions.CheckpointError` naming the broken
    section — instead of surfacing a raw ``TypeError``/``KeyError``
    mid-replay.
    """
    if not isinstance(state, dict) or state.get("format") != FORMAT_NAME:
        _fail(origin, f"not a {FORMAT_NAME} document")
    version = state.get("version")
    if version != FORMAT_VERSION:
        _fail(origin, f"format version {version!r} is not supported; "
              f"this reader accepts version {FORMAT_VERSION} only")
    for key in _REQUIRED_KEYS:
        if key not in state:
            _fail(origin, f"missing the {key!r} section")
    monitor = state["monitor"]
    if not isinstance(monitor, dict) or any(
        key not in monitor for key in _MONITOR_KEYS
    ):
        _fail(origin, f"incomplete monitor section (need {_MONITOR_KEYS})")
    if not _is_int(monitor["window_size"]) or monitor["window_size"] < 1:
        _fail(origin, "monitor.window_size must be an int >= 1, got "
              f"{monitor['window_size']!r}")
    if not _is_int(monitor["num_attributes"]) or monitor["num_attributes"] < 1:
        _fail(origin, "monitor.num_attributes must be an int >= 1, got "
              f"{monitor['num_attributes']!r}")
    epoch = state.get("epoch", 0)
    if not _is_int(epoch) or epoch < 0:
        _fail(origin, f"'epoch' must be an int >= 0, got {epoch!r}")
    next_handle = state.get("next_handle", 1)
    if not _is_int(next_handle) or next_handle < 1:
        _fail(origin, f"'next_handle' must be an int >= 1, got "
              f"{next_handle!r}")
    namespace = state.get("namespace", "default")
    if not isinstance(namespace, str) or not namespace:
        _fail(origin, f"'namespace' must be a non-empty string, got "
              f"{namespace!r}")
    _validate_window(state, origin)
    _validate_queries(state, origin)
    _validate_maintainers(state, origin)
    return state


def load_checkpoint(path: str) -> dict:
    """Read and validate a checkpoint document.

    Raises :class:`~repro.exceptions.CheckpointError` for a missing
    file, malformed JSON, a foreign format, a version other than
    :data:`FORMAT_VERSION`, missing sections, or any section whose
    shape is wrong — a document that loads is structurally sound all the
    way down to individual window rows and query specs.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            state = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") \
            from exc
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is not valid JSON: {exc}"
        ) from exc
    return _validate_state(state, repr(path))


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
def _replay_window(session: ServerMonitor, state: dict) -> None:
    """The replay restore path: feed the saved window through the engine.

    Every arrival runs the full maintenance machinery, and re-registered
    queries re-bootstrap their skybands from window pairs — ``O(N^2)``
    per group, which is why this is the *oracle*, not the fast path.
    """
    manager = session.monitor.manager
    window = state["window"]
    if window:
        manager.seed_sequence(int(window[0][0]))
    for seq, values, timestamp, payload in window:
        event = session.monitor.append(
            values, timestamp=timestamp, payload=payload
        )
        if event.new.seq != seq:
            raise CheckpointError(
                f"window is not seq-contiguous: expected {seq} from the "
                f"checkpoint, but the monitor assigned {event.new.seq}"
            )
        if event.expired:
            raise CheckpointError(
                "window replay expired objects; the checkpoint window "
                "does not fit its own monitor configuration"
            )
    if not window:
        manager.seed_sequence(int(state["next_seq"]))
    elif manager.now_seq + 1 != state["next_seq"]:
        raise CheckpointError(
            f"next_seq mismatch after replay: window ends at "
            f"{manager.now_seq}, checkpoint says next is "
            f"{state['next_seq']}"
        )


def _structural_restore(session: ServerMonitor, state: dict) -> None:
    """The structural path: bulk-load the window, reconnect the
    serialized skyband pairs and install each group wholesale.

    Every deserialized skyband is re-swept through Algorithm 4 before
    installation: the sweep must keep every pair (or the section is not
    a valid K-skyband) and must reproduce the serialized staircase
    points exactly (or the two sections disagree) — a corrupt document
    can therefore never become a silently wrong maintainer.
    """
    manager = session.monitor.manager
    objects = [
        StreamObject(seq, values, timestamp, payload)
        for seq, values, timestamp, payload in state["window"]
    ]
    if objects:
        manager.load_window(objects)
    else:
        manager.seed_sequence(int(state["next_seq"]))
    by_seq = {obj.seq: obj for obj in objects}
    for entry in state["maintainers"]:
        scoring = entry["scoring"]
        scoring_fn = session.scoring_for(scoring)
        depth = int(entry["K"])
        pairs: list[Pair] = []
        for older, newer, score in entry["skyband"]:
            a = by_seq.get(int(older))
            b = by_seq.get(int(newer))
            if a is None or b is None:
                raise CheckpointError(
                    f"maintainer {scoring!r} references a pair outside "
                    f"the window: ({older}, {newer})"
                )
            pairs.append(Pair(a, b, score))
        for position in range(1, len(pairs)):
            if pairs[position].score_key <= pairs[position - 1].score_key:
                raise CheckpointError(
                    f"maintainer {scoring!r} skyband is not in ascending "
                    f"score order at position {position}"
                )
        kept, staircase = update_skyband_and_staircase(pairs, depth)
        if len(kept) != len(pairs):
            raise CheckpointError(
                f"maintainer {scoring!r} skyband is not a valid "
                f"{depth}-skyband: re-sweeping discarded "
                f"{len(pairs) - len(kept)} pair(s)"
            )
        serialized_points = [
            (tuple(score_key), age_key)
            for score_key, age_key in entry["staircase"]
        ]
        if staircase.points() != serialized_points:
            raise CheckpointError(
                f"maintainer {scoring!r} staircase does not match its "
                "skyband (sections disagree; the document is corrupt)"
            )
        session.monitor.restore_group(scoring_fn, depth, kept, staircase)


def restore_server_monitor(
    source,
    *,
    mode: str = "structural",
    audit: Optional[bool] = None,
    recorder=None,
) -> ServerMonitor:
    """Warm-restart a session from a checkpoint path or loaded state.

    ``mode="structural"`` (the default) uses the ``maintainers``
    section: the window is bulk-loaded and each skyband group installed
    directly — ``O(ND log N + |SKB| log K)`` instead of replay's
    ``O(N^2)`` per group.  ``mode="replay"`` ignores that section and
    re-ingests the window through the engine (the oracle path).

    Either way the restored session preserves original sequence numbers
    and re-registers every saved query under its old wire handle, and
    answers every ``snapshot_query`` byte-identically to the session
    that wrote the checkpoint.  With ``audit=True`` a structural restore
    is immediately cross-checked against the brute-force skyband — the
    same oracle ``repro audit`` runs every tick.
    """
    if mode not in RESTORE_MODES:
        raise CheckpointError(
            f"unknown restore mode {mode!r}; expected one of "
            f"{RESTORE_MODES}"
        )
    if isinstance(source, str):
        state = load_checkpoint(source)
    else:
        state = _validate_state(source, "<state>")
    config = state["monitor"]
    session = ServerMonitor(
        config["window_size"], config["num_attributes"],
        time_horizon=config["time_horizon"], strategy=config["strategy"],
        seed=config["seed"], audit=audit, recorder=recorder,
    )
    session.epoch = int(state.get("epoch", 0))
    session.namespace = state.get("namespace", "default")
    structural = mode == "structural"
    if structural:
        _structural_restore(session, state)
    else:
        _replay_window(session, state)
    for spec in state["queries"]:
        # Saved wire handles are pinned so clients resubscribing after a
        # restart keep their query names.
        session.register(
            spec["scoring"], int(spec["k"]), int(spec["n"]),
            handle_id=spec["handle"],
        )
    session._next_handle = max(
        int(state.get("next_handle", session._next_handle)),
        session._next_handle,
    )
    if structural and session.monitor.auditor is not None:
        # Structural restores skip the per-tick audit hooks replay runs,
        # so subject the installed state to one full pass right away —
        # including the brute-force skyband cross-check.
        session.monitor.auditor.check_now(cross_check=True)
    return session


def restore_namespace_checkpoints(
    directory: str,
    *,
    mode: str = "structural",
    audit: Optional[bool] = None,
    recorder=None,
) -> dict[str, ServerMonitor]:
    """Restore every ``<ns>.ckpt`` in a multi-tenant checkpoint dir.

    The per-namespace layout written by ``checkpoint`` with
    ``scope: "all"``: one document per namespace, each carrying its own
    fencing epoch and its ``namespace`` key.  A file whose embedded
    namespace disagrees with its file name fails loudly (a renamed file
    would otherwise restore one tenant's window under another tenant's
    name).  Returns ``{namespace: restored session}``; an empty dict
    for a directory with no checkpoints.
    """
    try:
        entries = sorted(os.listdir(directory))
    except OSError as exc:
        raise CheckpointError(
            f"cannot list checkpoint directory {directory!r}: {exc}"
        ) from exc
    sessions: dict[str, ServerMonitor] = {}
    for entry in entries:
        if not entry.endswith(".ckpt"):
            continue
        name = entry[:-len(".ckpt")]
        session = restore_server_monitor(
            os.path.join(directory, entry),
            mode=mode, audit=audit, recorder=recorder,
        )
        if session.namespace != name:
            raise CheckpointError(
                f"checkpoint {entry!r} embeds namespace "
                f"{session.namespace!r}; file name and document "
                f"disagree — refusing to restore a misrouted tenant"
            )
        sessions[name] = session
    return sessions

"""repro.serve — the network serving layer.

Turns the library into a service: an asyncio TCP server
(:class:`~repro.serve.server.ServeServer`) speaking a newline-delimited
JSON protocol (:mod:`repro.serve.protocol`), a session layer owning the
monitor plus a wire-visible query registry
(:class:`~repro.serve.session.ServerMonitor`), delta-based pub/sub of
continuous answers, versioned checkpoint/restore
(:mod:`repro.serve.checkpoint`) and a synchronous client library
(:class:`~repro.serve.client.ServeClient`).

Protocol, backpressure policies and the checkpoint format are
documented in ``docs/serving.md``; ``repro serve`` / ``repro client``
are the CLI entry points.
"""

from repro.serve.checkpoint import (
    FORMAT_NAME,
    FORMAT_VERSION,
    RESTORE_MODES,
    checkpoint_state,
    load_checkpoint,
    restore_namespace_checkpoints,
    restore_server_monitor,
    save_checkpoint,
)
from repro.serve.client import ServeClient, ServeRequestError, apply_delta
from repro.serve.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
    pair_to_wire,
)
from repro.serve.server import (
    BACKPRESSURE_POLICIES,
    ROLES,
    BackgroundServer,
    ServeServer,
)
from repro.serve.session import (
    SCORING_NAMES,
    DeltaEvent,
    QueryRecord,
    ServerMonitor,
)
from repro.serve.standby import StandbyTailer, connect_standby
from repro.serve.tenancy import (
    DEFAULT_NAMESPACE,
    FairMultiplexer,
    Namespace,
    NamespaceRegistry,
    TenantQuotas,
    TenantSpec,
    TokenBucket,
    load_tenants_file,
    save_tenants_file,
    valid_namespace,
)

__all__ = [
    "BACKPRESSURE_POLICIES",
    "BackgroundServer",
    "DEFAULT_NAMESPACE",
    "DeltaEvent",
    "ERROR_CODES",
    "FORMAT_NAME",
    "FairMultiplexer",
    "FORMAT_VERSION",
    "MAX_FRAME_BYTES",
    "Namespace",
    "NamespaceRegistry",
    "OPS",
    "PROTOCOL_VERSION",
    "QueryRecord",
    "RESTORE_MODES",
    "ROLES",
    "SCORING_NAMES",
    "ServeClient",
    "ServeRequestError",
    "ServeServer",
    "ServerMonitor",
    "StandbyTailer",
    "TenantQuotas",
    "TenantSpec",
    "TokenBucket",
    "apply_delta",
    "checkpoint_state",
    "connect_standby",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "load_checkpoint",
    "load_tenants_file",
    "ok_frame",
    "pair_to_wire",
    "restore_server_monitor",
    "restore_namespace_checkpoints",
    "save_checkpoint",
    "save_tenants_file",
    "valid_namespace",
]

"""Ingest batches are validated whole and rejected atomically.

A batch with one bad row (wrong width, a non-number, a bool, NaN or an
infinity) or bad timestamps must come back ``bad_request`` with nothing
ingested, nothing replicated and no quota token spent; a warm standby of
the primary must stay at the primary's ``now_seq`` and keep tailing.
``snapshot`` checks ``n`` by the same rule as ``register``.
"""

from __future__ import annotations

import math
import time

import pytest

from repro.exceptions import InvalidParameterError, WindowError
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.server import BackgroundServer
from repro.serve.session import ServerMonitor
from repro.serve.standby import connect_standby
from repro.serve.tenancy import NamespaceRegistry, TenantQuotas, TenantSpec
from repro.stream.manager import StreamManager

TOKEN = "beta-secret-token"
ADMIN_TOKEN = "admin-secret-token"
GOOD = [[0.1, 0.9], [0.2, 0.8], [0.35, 0.6], [0.5, 0.5]]

BAD_BATCHES = {
    "short_row": ([[.1, .2], [.4, .5], [.3], [.7, .8]], None),
    "long_row": ([[.1, .2], [.4, .5, .6]], None),
    "str_value": ([[.1, .2], ["x", 0.1]], None),
    "none_value": ([[None, 0.1]], None),
    "bool_value": ([[.1, .2], [True, 0.1]], None),
    "nan_value": ([[.1, .2], [math.nan, 0.1]], None),
    "inf_value": ([[math.inf, 0.1]], None),
    "neg_inf_value": ([[.1, .2], [0.3, -math.inf]], None),
    "row_not_a_list": ([[.1, .2], 0.3], None),
    "too_few_timestamps": ([[.1, .2], [.3, .4], [.5, .6], [.7, .8]],
                           [100.0, 101.0]),
    "too_many_timestamps": ([[.1, .2]], [100.0, 101.0]),
    "nan_timestamp": ([[.1, .2], [.3, .4]], [100.0, math.nan]),
    "str_timestamp": ([[.1, .2]], ["soon"]),
}
#: rejected on a time window only
BAD_TIMED_BATCHES = {
    "decreasing_timestamp": ([[.1, .2], [.3, .4], [.5, .6]],
                             [100.0, 99.0, 101.0]),
    "before_newest": ([[.1, .2]], [3.0]),
    "missing_timestamps": ([[.1, .2]], None),
}


def _registry(horizon):
    specs = {"beta": TenantSpec("beta", TOKEN, TenantQuotas(
        ingest_rows_per_sec=1.0, burst_rows=100.0))}
    return NamespaceRegistry(
        specs,
        lambda name, spec: ServerMonitor(16, 2, time_horizon=horizon),
        admin_token=ADMIN_TOKEN,
    )


def _timestamps(first, count, horizon):
    return [float(first + i) for i in range(count)] if horizon else None


def _wait_for(get, want, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if get() == want:
            return
        time.sleep(0.02)
    assert get() == want


def _check_rejected_atomically(rows, timestamps, horizon=None):
    """Primary + warm standby: the bad batch changes nothing, and the
    standby follows the next good batch."""
    with BackgroundServer(_registry(horizon)) as primary:
        with ServeClient(port=primary.port) as client:
            client.auth("beta", TOKEN)
            client.register("closest", 3)
            client.ingest(GOOD, timestamps=_timestamps(1, 4, horizon))
            standby_registry = _registry(horizon)
            _, tailer = connect_standby(
                "127.0.0.1", primary.port, registry=standby_registry,
                admin_token=ADMIN_TOKEN,
            )
            with BackgroundServer(standby_registry,
                                  role="standby", standby=tailer):
                bucket = primary.server.tenants.get("beta").bucket
                tokens = bucket.tokens
                with pytest.raises(ServeRequestError) as err:
                    client.request("ingest", rows=rows,
                                   timestamps=timestamps)
                assert err.value.code == "bad_request"
                assert client.epoch()["now_seq"] == 4
                assert bucket.tokens == tokens
                session = primary.server.tenants.get("beta").session
                assert len(session.monitor.manager) == 4

                ack = client.ingest([[0.6, 0.4], [0.7, 0.3]],
                                    timestamps=_timestamps(5, 2, horizon))
                assert ack["ingested"] == 2 and ack["now_seq"] == 6
                standby_ns = standby_registry.get("beta")
                _wait_for(lambda: standby_ns.session.monitor.manager.now_seq,
                          6)
                assert tailer.error is None
                assert standby_ns.session.results("q1") == \
                    session.results("q1")


@pytest.mark.parametrize("case", sorted(BAD_BATCHES))
def test_bad_batch_is_rejected_atomically(case):
    rows, timestamps = BAD_BATCHES[case]
    _check_rejected_atomically(rows, timestamps)


@pytest.mark.parametrize("case", sorted(BAD_TIMED_BATCHES))
def test_bad_timed_batch_is_rejected_atomically(case):
    rows, timestamps = BAD_TIMED_BATCHES[case]
    _check_rejected_atomically(rows, timestamps, horizon=10.0)


def test_single_tenant_standby_stays_in_sync():
    """The short-row batch that used to ingest a prefix and leave the
    standby stopped at a replication gap."""
    with BackgroundServer(ServerMonitor(32, 2)) as primary:
        with ServeClient(port=primary.port) as client:
            client.register("closest", 3)
            registry, tailer = connect_standby("127.0.0.1", primary.port)
            session = registry.get("default").session
            with BackgroundServer(registry, role="standby", standby=tailer):
                with pytest.raises(ServeRequestError) as err:
                    client.ingest(BAD_BATCHES["short_row"][0])
                assert err.value.code == "bad_request"
                assert client.epoch()["now_seq"] == 0
                client.ingest(GOOD)
                _wait_for(lambda: session.monitor.manager.now_seq, 4)
                assert tailer.error is None


def test_rejected_row_leaves_the_namespace_usable():
    """A non-number used to stay in the window without skip-list nodes,
    after which most ingests failed with an internal KeyError."""
    with BackgroundServer(ServerMonitor(8, 2)) as primary:
        with ServeClient(port=primary.port) as client:
            client.register("closest", 2)
            with pytest.raises(ServeRequestError) as err:
                client.ingest([["x", 0.1]])
            assert err.value.code == "bad_request"
            for i in range(12):
                ack = client.ingest([[i / 12, 1 - i / 12]])
                assert ack["now_seq"] == i + 1
            assert len(client.snapshot(query="q1")) == 2


# ----------------------------------------------------------------------
# snapshot's n
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", ["x", 0, 1, -5, True, 2.5, 17])
def test_snapshot_rejects_bad_n(n):
    with BackgroundServer(ServerMonitor(16, 2)) as primary:
        with ServeClient(port=primary.port) as client:
            client.ingest(GOOD)
            with pytest.raises(ServeRequestError) as err:
                client.snapshot("closest", 2, n)
            assert err.value.code == "bad_request"
            with pytest.raises(ServeRequestError) as err:
                client.register("closest", 2, n)
            assert err.value.code == "bad_request"


@pytest.mark.parametrize("n", [2, 16, None])
def test_snapshot_accepts_valid_n(n):
    with BackgroundServer(ServerMonitor(16, 2)) as primary:
        with ServeClient(port=primary.port) as client:
            client.ingest(GOOD)
            assert len(client.snapshot("closest", 1, n)) == 1


# ----------------------------------------------------------------------
# library boundary
# ----------------------------------------------------------------------
@pytest.mark.parametrize("values", [
    ("x", 0.1), (None, 0.1), (True, 0.1), (math.nan, 0.1), (0.1, math.inf),
    (0.1,), (0.1, 0.2, 0.3), (10 ** 400, 0.1),
])
def test_stream_manager_rejects_bad_values_untouched(values):
    manager = StreamManager(4, 2)
    for row in GOOD[:3]:
        manager.append(row)
    before = [(o.seq, o.values) for o in manager]
    lists = [list(manager.attribute_list(i)) for i in range(2)]
    with pytest.raises(InvalidParameterError):
        manager.append(values)
    assert [(o.seq, o.values) for o in manager] == before
    assert [list(manager.attribute_list(i)) for i in range(2)] == lists
    assert manager.now_seq == 3
    assert manager.append((0.5, 0.5)).new.seq == 4


def test_time_window_rejects_bad_timestamp_untouched():
    manager = StreamManager(4, 2, time_horizon=5.0)
    manager.append((0.1, 0.2), timestamp=10.0)
    for timestamp in (9.0, math.nan, None):
        with pytest.raises(WindowError):
            manager.append((0.3, 0.4), timestamp=timestamp)
    assert manager.now_seq == 1 and len(manager) == 1
    assert manager.append((0.3, 0.4), timestamp=10.0).new.seq == 2

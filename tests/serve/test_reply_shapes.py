"""Reply shapes on the wire, pinned for both serving modes.

A single-tenant ``repro serve`` (one open ``default`` namespace) and a
``--tenants`` server run as real subprocesses, each with a warm standby.
The table below pins the exact key set of every reply whose shape
depends on the mode: ``hello``, the ``replicate`` ack, the ``promote``
ack on a standby, ``epoch`` per kind of connection, ``stats`` ->
``serve`` and the sidecar's ``/healthz``.  Values are not pinned; the
other serve tests check those.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.request

import pytest

from repro.serve.client import ServeClient
from repro.serve.tenancy import TenantSpec, save_tenants_file

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

ALPHA_TOKEN = "alpha-secret-token"
ADMIN_TOKEN = "admin-secret-token"

HELLO = {"event", "protocol", "backpressure", "queue_depth", "role",
         "multi_tenant"}
ACK = {"ok", "op", "id"}
NS_ENTRY = {"epoch", "now_seq"}
SERVE = {"protocol", "role", "epoch", "backpressure", "queue_depth",
         "connections", "subscriptions", "replicas", "obs_port",
         "tracing"}
HEALTH = {"status", "flight", "protocol", "role", "window_size",
          "last_tick_age_seconds", "connections", "subscribers", "queries"}
STANDBY = {"primary", "applied_seq", "events_applied", "rows_applied",
           "lag_rows", "tailing", "disconnected", "error", "delta_log",
           "shipped_group_ticks", "computed_group_ticks"}

#: (mode, reply) -> the exact key set of that reply
SHAPES = {
    ("open", "hello"): HELLO | {"epoch"},
    ("tenants", "hello"): HELLO,
    ("open", "replicate"): ACK | {"role", "epoch", "now_seq"},
    ("tenants", "replicate"): ACK | {"role", "namespaces"},
    ("open", "promote"): ACK | {"role", "epoch", "now_seq"},
    ("tenants", "promote"): ACK | {"role", "namespaces"},
    ("open", "epoch:anonymous"): ACK | {"role", "epoch", "now_seq"},
    ("tenants", "epoch:anonymous"): ACK | {"role"},
    ("tenants", "epoch:tenant"): ACK | {"role", "epoch", "now_seq",
                                        "namespace"},
    ("tenants", "epoch:admin"): ACK | {"role", "namespaces"},
    ("open", "epoch:standby"): ACK | {"role", "epoch", "now_seq",
                                      "standby"},
    ("tenants", "epoch:standby"): ACK | {"role", "namespaces", "standby"},
    ("open", "standby"): STANDBY,
    ("tenants", "standby"): STANDBY | {"namespaces"},
    ("open", "stats:anonymous"): SERVE,
    ("tenants", "stats:tenant"): SERVE | {"tenancy"},
    ("tenants", "stats:admin"): SERVE | {"tenancy"},
    ("tenants", "tenancy:tenant"): {"namespace", "quotas",
                                    "subscriptions"},
    ("tenants", "tenancy:admin"): {"namespaces", "mux"},
    ("open", "healthz"): HEALTH | {"epoch", "now_seq"},
    ("tenants", "healthz"): HEALTH | {"multi_tenant", "namespaces"},
    ("tenants", "healthz:namespace"): NS_ENTRY | {"window_size",
                                                  "queries"},
}


def _spawn(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--columns", "2",
         "--window", "64", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    ports = {}
    for line in process.stdout:
        if "listening on" in line:
            ports["port"] = int(line.rsplit(":", 1)[1])
        if "telemetry on" in line:
            ports["obs"] = int(line.rsplit(":", 1)[1])
        if "obs" in ports:
            return process, ports
    raise AssertionError(f"repro serve {args} exited before announcing")


def _stop(process, port):
    if process.poll() is None:
        try:
            with ServeClient(port=port) as client:
                if client.hello["multi_tenant"]:
                    client.auth(token=ADMIN_TOKEN, admin=True)
                client.shutdown()
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
    process.stdout.close()


def _client(port, principal):
    client = ServeClient(port=port)
    if principal == "tenant":
        client.auth("alpha", ALPHA_TOKEN)
    elif principal == "admin":
        client.auth(token=ADMIN_TOKEN, admin=True)
    return client


def _healthz(obs_port):
    url = f"http://127.0.0.1:{obs_port}/healthz"
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read())


def _observe(mode, tmp_path):
    """Every pinned reply of one mode, keyed like :data:`SHAPES`."""
    args = []
    if mode == "tenants":
        path = str(tmp_path / "tenants.json")
        save_tenants_file(path, {"alpha": TenantSpec("alpha", ALPHA_TOKEN)},
                          ADMIN_TOKEN)
        args = ["--tenants", path]
    writer = "tenant" if mode == "tenants" else "anonymous"
    operator = "admin" if mode == "tenants" else "anonymous"
    principals = ("anonymous", "tenant", "admin") if mode == "tenants" \
        else ("anonymous",)
    seen = {}
    primary, ports = _spawn("--obs-port", "0", *args)
    standby = standby_ports = None
    try:
        with _client(ports["port"], writer) as client:
            seen["hello"] = client.hello
            client.ingest([[0.1, 0.9], [0.2, 0.8], [0.3, 0.7]])
        for principal in principals:
            with _client(ports["port"], principal) as client:
                seen[f"epoch:{principal}"] = client.epoch()
                if principal != "anonymous" or mode == "open":
                    stats = client.stats()["serve"]
                    seen[f"stats:{principal}"] = stats
                    if "tenancy" in stats:
                        seen[f"tenancy:{principal}"] = stats["tenancy"]
        with _client(ports["port"], operator) as client:
            seen["replicate"] = client.replicate()
        health = _healthz(ports["obs"])
        seen["healthz"] = health
        if mode == "tenants":
            seen["healthz:namespace"] = health["namespaces"]["alpha"]

        standby, standby_ports = _spawn(
            "--obs-port", "0", "--standby", f"127.0.0.1:{ports['port']}",
            *args,
        )
        with _client(standby_ports["port"], operator) as client:
            epoch = client.epoch()
            seen["epoch:standby"] = epoch
            seen["standby"] = epoch["standby"]
            seen["promote"] = client.promote()
    finally:
        _stop(primary, ports["port"])
        if standby is not None:
            _stop(standby, standby_ports["port"])
    return seen


@pytest.mark.parametrize("mode", ["open", "tenants"])
def test_reply_key_sets(mode, tmp_path):
    seen = _observe(mode, tmp_path)
    expected = {reply: keys for (m, reply), keys in SHAPES.items()
                if m == mode}
    assert set(seen) == set(expected)
    for reply, keys in expected.items():
        assert set(seen[reply]) == keys, reply
    for reply in ("replicate", "promote", "epoch:admin", "epoch:standby"):
        for entry in seen.get(reply, {}).get("namespaces", {}).values():
            assert set(entry) == NS_ENTRY, reply

"""Property: a multi-tenant server == N independent servers.

Hypothesis drives an interleaved program of ingest batches and query
registrations across several namespaces, executed two ways:

* over the wire against one multi-tenant :class:`ServeServer` whose
  per-namespace sessions run with ``audit=True``, and
* directly against one independent audited :class:`ServerMonitor` per
  namespace, replaying only that namespace's slice of the program.

Afterwards every namespace's ``checkpoint_state`` must be byte-identical
between the two worlds (minus the ``created_at`` wall-clock stamp):
tenants can neither observe nor perturb each other.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.serve.checkpoint import checkpoint_state  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.server import BackgroundServer  # noqa: E402
from repro.serve.session import ServerMonitor  # noqa: E402
from repro.serve.tenancy import (  # noqa: E402
    NamespaceRegistry,
    TenantSpec,
)

NAMES = ["alpha", "beta", "gamma"]
TOKENS = {name: f"{name}-secret-token" for name in NAMES}
WINDOW = 8
COLUMNS = 2

row_strategy = st.lists(
    st.integers(min_value=0, max_value=99).map(lambda v: v / 4.0),
    min_size=COLUMNS, max_size=COLUMNS,
)

step_strategy = st.one_of(
    st.tuples(
        st.just("ingest"),
        st.sampled_from(NAMES),
        st.lists(row_strategy, min_size=1, max_size=4),
    ),
    st.tuples(
        st.just("register"),
        st.sampled_from(NAMES),
        st.sampled_from(["closest", "furthest"]),
    ),
)

program_strategy = st.lists(step_strategy, min_size=1, max_size=12)


def canonical(session):
    state = checkpoint_state(session)
    state.pop("created_at")
    return json.dumps(state, sort_keys=True)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=program_strategy)
def test_multi_tenant_equals_independent_servers(program):
    registry = NamespaceRegistry(
        {name: TenantSpec(name, TOKENS[name]) for name in NAMES},
        lambda name, spec: ServerMonitor(WINDOW, COLUMNS, audit=True),
    )
    with BackgroundServer(registry) as background:
        clients = {}
        try:
            for name in NAMES:
                client = ServeClient(port=background.port)
                client.auth(name, TOKENS[name])
                clients[name] = client
            for step in program:
                if step[0] == "ingest":
                    _, name, rows = step
                    clients[name].ingest(rows)
                else:
                    _, name, scoring = step
                    clients[name].register(scoring, 2)
            served = {
                name: canonical(registry.get(name).session)
                for name in NAMES
            }
        finally:
            for client in clients.values():
                client.close()

    # replay each namespace's slice against its own audited server
    for name in NAMES:
        independent = ServerMonitor(WINDOW, COLUMNS, audit=True)
        independent.namespace = name
        for step in program:
            if step[1] != name:
                continue
            if step[0] == "ingest":
                independent.ingest(step[2])
            else:
                independent.register(step[2], 2)
        assert canonical(independent) == served[name], (
            f"namespace {name} diverged from an independent server"
        )

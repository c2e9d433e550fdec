"""Multi-tenant serving: auth, quotas, fairness, isolation.

Unit coverage for :mod:`repro.serve.tenancy` (token bucket refill
boundaries, tenants-file parsing, registry auth/reload, multiplexer
fairness) plus wire-level coverage against a real server: auth edges
(wrong/missing/revoked/admin), quota rejections with exact mid-batch
accounting, per-peer metric label eviction, the client's stall-proof
request deadline, per-namespace checkpoints, and a multi-tenant warm
standby.  The namespace-isolation *property* test lives in
test_tenancy_property.py.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.exceptions import (
    ProtocolError,
    ServeError,
    ServeTimeoutError,
    TenantConfigError,
)
from repro.serve.checkpoint import restore_namespace_checkpoints
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.server import BackgroundServer
from repro.serve.session import ServerMonitor
from repro.serve.standby import connect_standby
from repro.serve.tenancy import (
    FairMultiplexer,
    NamespaceRegistry,
    TenantQuotas,
    TenantSpec,
    TokenBucket,
    load_tenants_file,
    save_tenants_file,
    valid_namespace,
)

ALPHA_TOKEN = "alpha-secret-token"
BETA_TOKEN = "beta-secret-token"
ADMIN_TOKEN = "admin-secret-token"


def make_registry(beta_quotas=None, window=64, audit=False):
    specs = {
        "alpha": TenantSpec("alpha", ALPHA_TOKEN),
        "beta": TenantSpec("beta", BETA_TOKEN,
                           beta_quotas or TenantQuotas()),
    }
    return NamespaceRegistry(
        specs,
        lambda name, spec: ServerMonitor(window, 2, audit=audit),
        admin_token=ADMIN_TOKEN,
    )


@pytest.fixture()
def tenant_server():
    with BackgroundServer(make_registry()) as background:
        yield background


# ----------------------------------------------------------------------
# token bucket
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_grants_whole_rows(self):
        clock = [0.0]
        bucket = TokenBucket(10.0, 5.0, clock=lambda: clock[0])
        assert bucket.grant(3) == 3  # burst pays immediately
        assert bucket.grant(5) == 2  # only 2 tokens left
        assert bucket.grant(1) == 0  # empty, no time passed

    def test_refill_boundary_truncates_to_whole_rows(self):
        clock = [0.0]
        bucket = TokenBucket(10.0, 5.0, clock=lambda: clock[0])
        assert bucket.grant(5) == 5
        clock[0] += 0.25  # exactly 2.5 tokens accrue
        assert bucket.grant(99) == 2  # the half token stays banked
        clock[0] += 0.25  # banked 0.5 + 2.5 = 3.0 whole rows
        assert bucket.grant(99) == 3

    def test_refill_caps_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(10.0, 4.0, clock=lambda: clock[0])
        assert bucket.grant(4) == 4
        clock[0] += 100.0
        assert bucket.grant(99) == 4  # not 1000

    def test_burst_defaults_to_rate_and_validates(self):
        assert TokenBucket(7.0).burst == 7.0
        assert TokenBucket(0.5).burst == 1.0  # always >= one row
        with pytest.raises(TenantConfigError):
            TokenBucket(0.0)
        with pytest.raises(TenantConfigError):
            TokenBucket(10.0, 0.5)

    def test_zero_request_is_free(self):
        bucket = TokenBucket(10.0, 5.0, clock=lambda: 0.0)
        assert bucket.grant(0) == 0
        assert bucket.tokens == 5.0


# ----------------------------------------------------------------------
# tenants file + specs
# ----------------------------------------------------------------------
class TestTenantsFile:
    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "tenants.json")
        specs = {
            "alpha": TenantSpec("alpha", ALPHA_TOKEN,
                                TenantQuotas(max_queries=2)),
            "beta": TenantSpec("beta", BETA_TOKEN, revoked=True),
        }
        save_tenants_file(path, specs, ADMIN_TOKEN)
        loaded, admin = load_tenants_file(path)
        assert admin == ADMIN_TOKEN
        assert sorted(loaded) == ["alpha", "beta"]
        assert loaded["alpha"].quotas.max_queries == 2
        assert loaded["beta"].revoked

    def test_toml_parses(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")  # noqa: F841  py>=3.11
        path = tmp_path / "tenants.toml"
        path.write_text(
            f'admin_token = "{ADMIN_TOKEN}"\n'
            f'[tenants.alpha]\ntoken = "{ALPHA_TOKEN}"\n'
            f'[tenants.alpha.quotas]\nmax_queries = 3\n'
        )
        specs, admin = load_tenants_file(str(path))
        assert admin == ADMIN_TOKEN
        assert specs["alpha"].quotas.max_queries == 3

    def test_toml_is_read_only_for_the_cli(self, tmp_path):
        with pytest.raises(TenantConfigError, match="JSON"):
            save_tenants_file(str(tmp_path / "x.toml"), {}, None)

    def test_rejects_unknown_fields_and_bad_values(self, tmp_path):
        path = tmp_path / "tenants.json"
        for document in (
            {"tenants": {"a": {"token": "long-enough-token",
                               "surprise": 1}}},
            {"tenants": {"a": {"token": "short"}}},
            {"tenants": {"..": {"token": "long-enough-token"}}},
            {"tenants": {"a": {"token": "long-enough-token",
                               "quotas": {"max_queries": 0}}}},
            {"admin_token": "short"},
            {"unknown_top": {}},
        ):
            path.write_text(json.dumps(document))
            with pytest.raises(TenantConfigError):
                load_tenants_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(TenantConfigError):
            load_tenants_file(str(tmp_path / "absent.json"))

    def test_namespace_names_block_traversal(self):
        assert valid_namespace("alpha-1.prod")
        for name in ("", ".", "..", ".hidden", "a/b", "a b", "-x",
                     "x" * 65, 7, None):
            assert not valid_namespace(name)

    def test_burst_requires_rate(self):
        with pytest.raises(TenantConfigError):
            TenantQuotas(burst_rows=5)


# ----------------------------------------------------------------------
# registry: auth + reload
# ----------------------------------------------------------------------
class TestRegistry:
    def test_auth_failures_are_uniform(self):
        registry = make_registry()
        registry.specs["beta"].revoked = True
        messages = set()
        for name, token in (("alpha", "wrong-token-here"),
                            ("alpha", None),
                            ("ghost", ALPHA_TOKEN),
                            ("beta", BETA_TOKEN)):  # revoked
            with pytest.raises(ProtocolError) as err:
                registry.authenticate(name, token)
            assert err.value.code == "unauthorized"
            messages.add(str(err.value))
        # one message for every failure mode: nothing to enumerate from
        assert len(messages) == 1
        assert registry.authenticate("alpha", ALPHA_TOKEN).name == "alpha"

    def test_admin_auth(self):
        registry = make_registry()
        registry.authenticate_admin(ADMIN_TOKEN)
        with pytest.raises(ProtocolError):
            registry.authenticate_admin("wrong-admin-token")
        with pytest.raises(ProtocolError):
            NamespaceRegistry({}).authenticate_admin(None)

    def test_lazy_creation_needs_spec_or_open(self):
        registry = make_registry()
        assert registry.namespace("alpha").name == "alpha"
        with pytest.raises(ProtocolError):
            registry.namespace("ghost")

    def test_reload_revokes_and_swaps_buckets(self):
        registry = make_registry()
        registry.namespace("alpha")
        registry.namespace("beta")
        alpha_session = registry.get("alpha").session
        new_specs = {
            "alpha": TenantSpec(
                "alpha", ALPHA_TOKEN,
                TenantQuotas(ingest_rows_per_sec=5.0),
            ),
            "beta": TenantSpec("beta", BETA_TOKEN, revoked=True),
        }
        stale = registry.reload(new_specs, ADMIN_TOKEN)
        assert stale == ["beta"]
        assert registry.get("alpha").bucket is not None  # quota applied
        # the session survived the reload: same engine, same window
        assert registry.get("alpha").session is alpha_session


# ----------------------------------------------------------------------
# fair multiplexer
# ----------------------------------------------------------------------
class TestFairMultiplexer:
    def test_round_robin_interleaves_namespaces(self):
        async def scenario():
            mux = FairMultiplexer(max_pending=8)
            order = []

            def job(name):
                async def run():
                    order.append(name)
                return run

            # Queue a burst for 'heavy' first, then one for 'light':
            # round-robin must schedule light's job after at most one
            # more heavy job, not behind the whole burst.
            jobs = [asyncio.ensure_future(mux.submit("heavy", job("heavy")))
                    for _ in range(4)]
            jobs.append(asyncio.ensure_future(
                mux.submit("light", job("light"))
            ))
            await asyncio.gather(*jobs)
            return order

        order = asyncio.run(scenario())
        assert order.index("light") <= 2
        assert order.count("heavy") == 4

    def test_one_in_flight_per_namespace(self):
        async def scenario():
            mux = FairMultiplexer(max_pending=8)
            active = {"now": 0, "peak": 0}
            release = asyncio.Event()

            async def tick():
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
                await release.wait()
                active["now"] -= 1

            jobs = [asyncio.ensure_future(mux.submit("ns", tick))
                    for _ in range(3)]
            await asyncio.sleep(0.01)
            release.set()
            await asyncio.gather(*jobs)
            return active["peak"]

        assert asyncio.run(scenario()) == 1

    def test_submit_backpressure_bounds_the_queue(self):
        async def scenario():
            mux = FairMultiplexer(max_pending=2)
            gate = asyncio.Event()

            async def blocked():
                await gate.wait()

            first = asyncio.ensure_future(mux.submit("ns", blocked))
            second = asyncio.ensure_future(mux.submit("ns", blocked))
            # Third submitter must park on the semaphore, not enqueue.
            third = asyncio.ensure_future(mux.submit("ns", blocked))
            await asyncio.sleep(0.01)
            stats = mux.stats()
            gate.set()
            await asyncio.gather(first, second, third)
            return stats

        stats = asyncio.run(scenario())
        assert stats["queued"] <= 1  # one running, one queued, one parked

    def test_stop_fails_queued_jobs(self):
        async def scenario():
            mux = FairMultiplexer(max_pending=4)
            gate = asyncio.Event()

            async def blocked():
                await gate.wait()

            running = asyncio.ensure_future(mux.submit("ns", blocked))
            queued = asyncio.ensure_future(mux.submit("ns", blocked))
            await asyncio.sleep(0.01)
            mux.stop()
            with pytest.raises(ServeError):
                await queued
            gate.set()
            await running
            with pytest.raises(ServeError):
                await mux.submit("ns", blocked)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# wire auth edges
# ----------------------------------------------------------------------
class TestWireAuth:
    def test_hello_announces_multi_tenant(self, tenant_server):
        with ServeClient(port=tenant_server.port) as client:
            assert client.hello["multi_tenant"] is True
            assert "epoch" not in client.hello  # nothing leaks pre-auth

    def test_ops_require_auth(self, tenant_server):
        with ServeClient(port=tenant_server.port) as client:
            for call in (lambda: client.ingest([[0.1, 0.2]]),
                         lambda: client.register("closest", 2),
                         lambda: client.snapshot(scoring="closest", k=2),
                         lambda: client.checkpoint(ship=True),
                         lambda: client.stats()):
                with pytest.raises(ServeRequestError) as err:
                    call()
                assert err.value.code == "unauthorized"

    def test_wrong_missing_revoked_tokens(self, tenant_server):
        with ServeClient(port=tenant_server.port) as client:
            for kwargs in ({"namespace": "alpha", "token": "wrong-token-1"},
                           {"namespace": "alpha"},
                           {"namespace": "ghost", "token": ALPHA_TOKEN},
                           {"token": "wrong-admin-tok", "admin": True}):
                with pytest.raises(ServeRequestError) as err:
                    client.auth(**kwargs)
                assert err.value.code == "unauthorized"
            # still usable after failed attempts
            ack = client.auth("alpha", ALPHA_TOKEN)
            assert ack["namespace"] == "alpha"
            assert ack["epoch"] == 0

    def test_revoked_tenant_cannot_auth(self):
        registry = make_registry()
        registry.specs["beta"].revoked = True
        with BackgroundServer(registry) as background:
            with ServeClient(port=background.port) as client:
                with pytest.raises(ServeRequestError) as err:
                    client.auth("beta", BETA_TOKEN)
                assert err.value.code == "unauthorized"

    def test_admin_ops_are_gated(self, tenant_server):
        with ServeClient(port=tenant_server.port) as tenant:
            tenant.auth("alpha", ALPHA_TOKEN)
            for call in (tenant.replicate, tenant.promote,
                         tenant.shutdown,
                         lambda: tenant.checkpoint(scope="all")):
                with pytest.raises(ServeRequestError) as err:
                    call()
                assert err.value.code == "unauthorized"
        with ServeClient(port=tenant_server.port) as admin:
            admin.auth(token=ADMIN_TOKEN, admin=True)
            ship = admin.checkpoint(ship=True, scope="all")
            assert ship["namespaces"] == ["alpha"]  # beta never touched

    def test_auth_rejected_on_single_tenant_server(self):
        session = ServerMonitor(16, 2)
        with BackgroundServer(session) as background:
            with ServeClient(port=background.port) as client:
                assert client.hello["multi_tenant"] is False
                with pytest.raises(ServeRequestError) as err:
                    client.auth("alpha", ALPHA_TOKEN)
                assert err.value.code == "bad_request"

    def test_epoch_discloses_by_privilege(self, tenant_server):
        with ServeClient(port=tenant_server.port) as probe:
            ack = probe.epoch()
            assert ack["role"] == "primary"
            assert "epoch" not in ack and "namespaces" not in ack
        with ServeClient(port=tenant_server.port) as tenant:
            tenant.auth("alpha", ALPHA_TOKEN)
            ack = tenant.epoch()
            assert ack["namespace"] == "alpha" and ack["epoch"] == 0
            assert "namespaces" not in ack
        with ServeClient(port=tenant_server.port) as admin:
            admin.auth(token=ADMIN_TOKEN, admin=True)
            assert "alpha" in admin.epoch()["namespaces"]


# ----------------------------------------------------------------------
# wire quotas
# ----------------------------------------------------------------------
class TestWireQuotas:
    def test_mid_batch_rate_cut_reports_exact_count(self):
        registry = make_registry(
            TenantQuotas(ingest_rows_per_sec=1.0, burst_rows=4.0)
        )
        with BackgroundServer(registry) as background:
            with ServeClient(port=background.port) as client:
                client.auth("beta", BETA_TOKEN)
                with pytest.raises(ServeRequestError) as err:
                    client.ingest([[float(i), float(i)] for i in range(9)])
                assert err.value.code == "quota_exceeded"
                details = err.value.details
                assert details["quota"] == "ingest_rows_per_sec"
                assert details["requested"] == 9
                assert details["ingested"] == 4  # the burst prefix
                assert details["now_seq"] == 4
                # the admitted prefix really entered the stream
                assert client.epoch()["now_seq"] == 4

    def test_zero_grant_ingests_nothing(self):
        registry = make_registry(
            TenantQuotas(ingest_rows_per_sec=1.0, burst_rows=1.0)
        )
        with BackgroundServer(registry) as background:
            with ServeClient(port=background.port) as client:
                client.auth("beta", BETA_TOKEN)
                client.ingest([[0.0, 0.0]])  # drains the burst
                with pytest.raises(ServeRequestError) as err:
                    client.ingest([[1.0, 1.0]])
                assert err.value.details["ingested"] == 0
                assert client.epoch()["now_seq"] == 1

    def test_max_queries(self):
        registry = make_registry(TenantQuotas(max_queries=1))
        with BackgroundServer(registry) as background:
            with ServeClient(port=background.port) as client:
                client.auth("beta", BETA_TOKEN)
                client.register("closest", 2)
                with pytest.raises(ServeRequestError) as err:
                    client.register("furthest", 2)
                assert err.value.code == "quota_exceeded"
                assert err.value.details["quota"] == "max_queries"
                # unregister frees the slot
                client.unregister("q1")
                client.register("furthest", 2)

    def test_max_subscribers_counts_across_connections(self):
        registry = make_registry(TenantQuotas(max_subscribers=1))
        with BackgroundServer(registry) as background:
            first = ServeClient(port=background.port)
            second = ServeClient(port=background.port)
            try:
                first.auth("beta", BETA_TOKEN)
                second.auth("beta", BETA_TOKEN)
                query = first.register("closest", 2)
                first.subscribe(query)
                with pytest.raises(ServeRequestError) as err:
                    second.subscribe(query)
                assert err.value.code == "quota_exceeded"
                assert err.value.details["quota"] == "max_subscribers"
                first.unsubscribe(query)
                second.subscribe(query)
            finally:
                first.close()
                second.close()

    def test_quotas_do_not_leak_across_namespaces(self):
        registry = make_registry(TenantQuotas(max_queries=1))
        with BackgroundServer(registry) as background:
            with ServeClient(port=background.port) as alpha, \
                    ServeClient(port=background.port) as beta:
                alpha.auth("alpha", ALPHA_TOKEN)
                beta.auth("beta", BETA_TOKEN)
                beta.register("closest", 2)
                # alpha is unlimited; beta's quota is beta's alone
                for _ in range(3):
                    alpha.register("closest", 2)
                with pytest.raises(ServeRequestError):
                    beta.register("closest", 2)


# ----------------------------------------------------------------------
# namespace isolation (wire-level; the hypothesis property test is in
# test_tenancy_property.py)
# ----------------------------------------------------------------------
class TestIsolation:
    def test_streams_and_answers_are_disjoint(self, tenant_server):
        with ServeClient(port=tenant_server.port) as alpha, \
                ServeClient(port=tenant_server.port) as beta:
            alpha.auth("alpha", ALPHA_TOKEN)
            beta.auth("beta", BETA_TOKEN)
            alpha.ingest([[0.1, 0.9], [0.2, 0.8], [0.15, 0.85]])
            beta.ingest([[5.0, 5.0]])
            assert alpha.epoch()["now_seq"] == 3
            assert beta.epoch()["now_seq"] == 1
            assert len(beta.snapshot(scoring="closest", k=5)) == 0
            assert len(alpha.snapshot(scoring="closest", k=5)) == 3

    def test_query_handles_are_per_namespace(self, tenant_server):
        with ServeClient(port=tenant_server.port) as alpha, \
                ServeClient(port=tenant_server.port) as beta:
            alpha.auth("alpha", ALPHA_TOKEN)
            beta.auth("beta", BETA_TOKEN)
            q_alpha = alpha.register("closest", 2)
            q_beta = beta.register("furthest", 3)
            assert q_alpha == q_beta == "q1"  # same handle, two worlds
            alpha.ingest([[0.1, 0.9], [0.2, 0.8]])
            assert len(alpha.snapshot(query="q1")) == 1
            assert len(beta.snapshot(query="q1")) == 0

    def test_deltas_fan_out_only_to_the_owning_namespace(
            self, tenant_server):
        with ServeClient(port=tenant_server.port) as alpha, \
                ServeClient(port=tenant_server.port) as beta:
            alpha.auth("alpha", ALPHA_TOKEN)
            beta.auth("beta", BETA_TOKEN)
            qa = alpha.register("closest", 2)
            qb = beta.register("closest", 2)
            alpha.subscribe(qa)
            beta.subscribe(qb)
            alpha.ingest([[0.1, 0.9], [0.2, 0.8]])
            event = alpha.next_event(timeout=5.0)
            assert event is not None and event["event"] == "delta"
            assert beta.next_event(timeout=0.2) is None


# ----------------------------------------------------------------------
# per-namespace checkpoints
# ----------------------------------------------------------------------
class TestNamespaceCheckpoints:
    def test_scope_all_writes_and_restores_every_namespace(self, tmp_path):
        registry = make_registry()
        with BackgroundServer(registry,
                              checkpoint_dir=str(tmp_path)) as background:
            with ServeClient(port=background.port) as alpha, \
                    ServeClient(port=background.port) as beta, \
                    ServeClient(port=background.port) as admin:
                alpha.auth("alpha", ALPHA_TOKEN)
                beta.auth("beta", BETA_TOKEN)
                admin.auth(token=ADMIN_TOKEN, admin=True)
                alpha.ingest([[0.1, 0.9], [0.2, 0.8]])
                alpha.register("closest", 2)
                beta.ingest([[1.0, 1.0]])
                ack = admin.checkpoint(scope="all")
                assert ack["namespaces"] == ["alpha", "beta"]
        sessions = restore_namespace_checkpoints(str(tmp_path))
        assert sorted(sessions) == ["alpha", "beta"]
        assert sessions["alpha"].monitor.manager.now_seq == 2
        assert sessions["alpha"].namespace == "alpha"
        assert len(sessions["alpha"].queries()) == 1
        assert sessions["beta"].monitor.manager.now_seq == 1

    def test_tenant_checkpoint_path_must_be_bare(self, tmp_path):
        registry = make_registry()
        with BackgroundServer(registry,
                              checkpoint_dir=str(tmp_path)) as background:
            with ServeClient(port=background.port) as client:
                client.auth("alpha", ALPHA_TOKEN)
                client.ingest([[0.1, 0.2]])
                for path in ("../escape.ckpt", "/tmp/abs.ckpt", "a/b.ckpt"):
                    with pytest.raises(ServeRequestError) as err:
                        client.checkpoint(path)
                    assert err.value.code == "bad_request"
                client.checkpoint("mine.ckpt")
                assert (tmp_path / "mine.ckpt").exists()

    def test_directory_restore_rejects_misrouted_document(self, tmp_path):
        registry = make_registry()
        with BackgroundServer(registry,
                              checkpoint_dir=str(tmp_path)) as background:
            with ServeClient(port=background.port) as alpha:
                alpha.auth("alpha", ALPHA_TOKEN)
                alpha.ingest([[0.1, 0.2]])
                alpha.checkpoint("alpha.ckpt")
        # rename the file to another tenant: restore must refuse
        (tmp_path / "alpha.ckpt").rename(tmp_path / "beta.ckpt")
        from repro.exceptions import CheckpointError

        with pytest.raises(CheckpointError, match="beta"):
            restore_namespace_checkpoints(str(tmp_path))


# ----------------------------------------------------------------------
# multi-tenant warm standby
# ----------------------------------------------------------------------
class TestMultiTenantStandby:
    def test_bootstrap_tail_promote(self):
        primary_registry = make_registry()
        with BackgroundServer(primary_registry) as primary:
            alpha = ServeClient(port=primary.port)
            beta = ServeClient(port=primary.port)
            try:
                alpha.auth("alpha", ALPHA_TOKEN)
                beta.auth("beta", BETA_TOKEN)
                alpha.ingest([[0.1, 0.9], [0.2, 0.8]])
                beta.ingest([[1.0, 1.0]])

                standby_registry = make_registry()
                restored, tailer = connect_standby(
                    "127.0.0.1", primary.port, registry=standby_registry,
                )
                assert restored is standby_registry
                assert sorted(ns.name for ns in
                              standby_registry.namespaces()) \
                    == ["alpha", "beta"]
                with BackgroundServer(standby_registry,
                                      role="standby",
                                      standby=tailer) as standby:
                    alpha.ingest([[0.3, 0.7]])
                    beta.ingest([[2.0, 2.0], [3.0, 3.0]])
                    deadline = time.monotonic() + 10.0
                    want = {"alpha": 3, "beta": 3}
                    while time.monotonic() < deadline:
                        seqs = {
                            ns.name: ns.session.monitor.manager.now_seq
                            for ns in standby_registry.namespaces()
                        }
                        if seqs == want:
                            break
                        time.sleep(0.02)
                    assert seqs == want

                    with ServeClient(port=standby.port) as client:
                        client.auth("alpha", ALPHA_TOKEN)
                        # a standby rejects tenant ingest too
                        with pytest.raises(ServeRequestError) as err:
                            client.ingest([[9.0, 9.0]])
                        assert err.value.code == "not_primary"
                    with ServeClient(port=standby.port) as admin:
                        admin.auth(token=ADMIN_TOKEN, admin=True)
                        ack = admin.promote()
                        assert ack["role"] == "primary"
                        assert ack["namespaces"]["alpha"]["epoch"] == 1
                        assert ack["namespaces"]["beta"]["epoch"] == 1
            finally:
                alpha.close()
                beta.close()

    def test_multi_tenant_primary_requires_registry(self):
        with BackgroundServer(make_registry()) as primary:
            with pytest.raises(ServeError, match="multi-tenant"):
                connect_standby("127.0.0.1", primary.port)

    def test_single_tenant_primary_rejects_registry(self):
        with BackgroundServer(ServerMonitor(16, 2)) as primary:
            with pytest.raises(ServeError, match="single-tenant"):
                connect_standby("127.0.0.1", primary.port,
                                registry=make_registry())


# ----------------------------------------------------------------------
# tenants-file hot reload through a live server
# ----------------------------------------------------------------------
class TestHotReload:
    def test_reload_revokes_live_connections(self, tmp_path):
        path = str(tmp_path / "tenants.json")
        specs = {
            "alpha": TenantSpec("alpha", ALPHA_TOKEN),
            "beta": TenantSpec("beta", BETA_TOKEN),
        }
        save_tenants_file(path, specs, ADMIN_TOKEN)
        registry = NamespaceRegistry(
            specs,
            lambda name, spec: ServerMonitor(16, 2),
            admin_token=ADMIN_TOKEN, path=path,
        )
        with BackgroundServer(registry) as background:
            beta = ServeClient(port=background.port)
            try:
                beta.auth("beta", BETA_TOKEN)
                beta.ingest([[1.0, 1.0]])
                specs["beta"] = TenantSpec("beta", BETA_TOKEN,
                                           revoked=True)
                save_tenants_file(path, specs, ADMIN_TOKEN)
                stale = asyncio.run_coroutine_threadsafe(
                    background.server.reload_tenants(),
                    background._loop,
                ).result(timeout=10.0)
                assert stale == ["beta"]
                # the connection was farewelled and closed
                event = beta.next_event(timeout=5.0)
                assert event is not None and event["event"] == "bye"
                with pytest.raises(ServeError):
                    while True:
                        beta.next_event(timeout=5.0)
            finally:
                beta.close()
            # new auth for the revoked tenant fails; alpha still works
            with ServeClient(port=background.port) as client:
                with pytest.raises(ServeRequestError):
                    client.auth("beta", BETA_TOKEN)
                client.auth("alpha", ALPHA_TOKEN)

    def test_malformed_reload_keeps_old_config(self, tmp_path):
        path = str(tmp_path / "tenants.json")
        specs = {"alpha": TenantSpec("alpha", ALPHA_TOKEN)}
        save_tenants_file(path, specs, ADMIN_TOKEN)
        registry = NamespaceRegistry(
            specs,
            lambda name, spec: ServerMonitor(16, 2),
            admin_token=ADMIN_TOKEN, path=path,
        )
        with BackgroundServer(registry) as background:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("{not json")
            stale = asyncio.run_coroutine_threadsafe(
                background.server.reload_tenants(),
                background._loop,
            ).result(timeout=10.0)
            assert stale == []
            with ServeClient(port=background.port) as client:
                client.auth("alpha", ALPHA_TOKEN)  # old config survives


# ----------------------------------------------------------------------
# satellite: per-peer metric label cardinality stays bounded
# ----------------------------------------------------------------------
class TestPeerLabelCardinality:
    def _materialize_peer_series(self, port, count):
        """Connect ``count`` subscribers and tick once so fan-out mints
        their per-peer queue-depth series; returns the open clients."""
        clients = []
        feeder = ServeClient(port=port)
        query = feeder.register("closest", 2)
        for _ in range(count):
            client = ServeClient(port=port)
            client.subscribe(query)
            clients.append(client)
        feeder.ingest([[0.1, 0.9], [0.2, 0.8]])
        for client in clients:
            assert client.next_event(timeout=5.0) is not None
        return feeder, clients

    def test_cap_and_eviction(self):
        session = ServerMonitor(32, 2)
        with BackgroundServer(session, max_peer_labels=2) as background:
            server = background.server
            feeder, clients = self._materialize_peer_series(
                background.port, 4,
            )
            try:
                # 2 named peers + the shared overflow bucket, never 4
                assert len(server._m_sub_queue) <= 3
                assert ("overflow",) in server._m_sub_queue
                named = [key for key in server._m_sub_queue._children
                         if key != ("overflow",)]
                assert len(named) == 2
            finally:
                for client in clients:
                    client.close()
            # disconnects evict the named series (overflow persists)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                remaining = [key for key in server._m_sub_queue._children
                             if key != ("overflow",)]
                if not remaining:
                    break
                time.sleep(0.02)
            assert not remaining
            assert ("overflow",) in server._m_sub_queue
            feeder.close()

    def test_churn_does_not_grow_families(self):
        session = ServerMonitor(32, 2)
        with BackgroundServer(session, max_peer_labels=2) as background:
            server = background.server
            feeder = ServeClient(port=background.port)
            query = feeder.register("closest", 2)
            for round_number in range(6):
                subscriber = ServeClient(port=background.port)
                subscriber.subscribe(query)
                # each round contributes a strictly closer pair, far from
                # everything before, so the top-k answer always changes
                # and a delta is guaranteed to fan out
                base = 100.0 * (round_number + 1)
                spread = 1.0 / (2.0 ** round_number)
                feeder.ingest([[base, 0.0], [base + spread, 0.0]])
                assert subscriber.next_event(timeout=5.0) is not None
                assert len(server._m_sub_queue) <= 3
                subscriber.close()
            feeder.close()


# ----------------------------------------------------------------------
# satellite: client deadline survives stalls and trickles
# ----------------------------------------------------------------------
def _stub_server(handler):
    """A one-connection raw TCP stub; returns its port."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def run():
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        try:
            handler(conn)
        except OSError:
            pass
        finally:
            conn.close()
            listener.close()

    threading.Thread(target=run, daemon=True).start()
    return port


HELLO = (json.dumps({"event": "hello", "protocol": 1,
                     "multi_tenant": False}) + "\n").encode()


class TestClientTimeouts:
    def test_stalled_response_raises_serve_timeout(self):
        def handler(conn):
            conn.sendall(HELLO)
            conn.recv(65536)  # swallow the request, never answer
            time.sleep(30.0)

        port = _stub_server(handler)
        with ServeClient(port=port, timeout=0.5) as client:
            start = time.monotonic()
            with pytest.raises(ServeTimeoutError, match="stats"):
                client.stats()
            assert time.monotonic() - start < 5.0

    def test_trickling_bytes_cannot_postpone_the_deadline(self):
        def handler(conn):
            conn.sendall(HELLO)
            conn.recv(65536)
            # Drip one byte per 100ms: every recv succeeds, so a naive
            # per-recv timeout would never fire.
            for byte in b'{"ok": true, "id": 1, "x": "' + b"y" * 600:
                conn.sendall(bytes([byte]))
                time.sleep(0.1)

        port = _stub_server(handler)
        with ServeClient(port=port, timeout=0.5) as client:
            start = time.monotonic()
            with pytest.raises(ServeTimeoutError):
                client.stats()
            assert time.monotonic() - start < 5.0

    def test_connect_timeout_is_separate(self):
        # a listening socket that never accepts still completes the TCP
        # handshake, so stall the hello instead: connect succeeds, the
        # hello read must hit the connect deadline.
        def handler(conn):
            time.sleep(30.0)

        port = _stub_server(handler)
        start = time.monotonic()
        with pytest.raises(ServeTimeoutError, match="hello"):
            ServeClient(port=port, timeout=60.0, connect_timeout=0.5)
        assert time.monotonic() - start < 5.0

    def test_normal_requests_still_work(self):
        session = ServerMonitor(16, 2)
        with BackgroundServer(session) as background:
            with ServeClient(port=background.port, timeout=5.0,
                             connect_timeout=5.0) as client:
                client.ingest([[0.1, 0.2]])
                assert client.epoch()["now_seq"] == 1

"""The ``repro bench serve`` sections at a small window: their report
shapes, their correctness flags, and that they write nothing into the
working directory."""

from __future__ import annotations

import pytest

from repro.bench.harness import synthetic_rows
from repro.bench.serve import (
    DIM,
    NAMESPACES,
    _bench_checkpoint,
    _bench_multi_tenant,
    _bench_standby,
)
from repro.serve.client import ServeClient
from repro.serve.server import BackgroundServer
from repro.serve.session import ServerMonitor

WINDOW = 32


@pytest.fixture(scope="module")
def sections(tmp_path_factory):
    """All three sections, run once with a scratch working directory;
    returns ``(checkpoint, standby, multi_tenant, files left behind)``."""
    cwd = tmp_path_factory.mktemp("cwd")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(cwd)
        rows = synthetic_rows(3 * WINDOW, DIM, seed=13)
        with BackgroundServer(ServerMonitor(WINDOW, DIM)) as primary:
            with ServeClient(port=primary.port) as client:
                checkpoint = _bench_checkpoint(client, rows[:WINDOW], k=5)
                standby = _bench_standby(primary.port, rows[WINDOW:])
                client.shutdown()
        multi_tenant = _bench_multi_tenant(WINDOW, rounds=1)
    return checkpoint, standby, multi_tenant, sorted(cwd.iterdir())


class TestSections:
    def test_checkpoint_keys_and_flags(self, sections):
        checkpoint = sections[0]
        assert set(checkpoint) == {
            "save_seconds", "restore_seconds", "restore_seconds_structural",
            "structural_speedup", "bytes", "objects", "restored_queries",
            "answers_identical",
        }
        assert checkpoint["answers_identical"] is True
        assert checkpoint["restored_queries"] == 2
        assert checkpoint["objects"] == WINDOW

    def test_standby_keys_and_flags(self, sections):
        standby = sections[1]
        assert set(standby) == {
            "bootstrap_seconds", "bootstrap_objects", "rows", "caught_up",
            "promote_seconds", "promoted_epoch",
        }
        assert standby["caught_up"] is True
        assert standby["promoted_epoch"] == 1
        assert standby["bootstrap_objects"] == WINDOW
        assert standby["rows"] == 2 * WINDOW

    def test_multi_tenant_keys(self, sections):
        tenants = sections[2]
        assert set(tenants) == {
            "namespaces", "rounds", "rows", "aggregate_rows_per_sec",
            "single_tenant_rows_per_sec", "single_tenant_fraction",
            "round_fractions",
        }
        assert tenants["namespaces"] == NAMESPACES
        assert tenants["rounds"] == len(tenants["round_fractions"]) == 1
        assert tenants["rows"] > 0
        assert tenants["single_tenant_fraction"] > 0

    def test_nothing_written_to_the_working_directory(self, sections):
        assert sections[3] == []

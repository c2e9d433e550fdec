"""The three closed-loop workloads: set-up, measured phase, answer checks.

Every workload runs window N = 512 over d = 2 attributes against real
``repro serve`` processes, through at most two
:class:`~repro.serve.client.ServeClient` connections, and never sends a
request before the previous one was answered.  Its rows and reads come
from the seed alone (stdlib :mod:`random`), and its counts are fixed per
second of ``--seconds``, so two commits do identical work.  See
README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import json
import os
import random
from time import perf_counter
from typing import Optional

from procs import BenchError, ServerProcess
from speed import probe
from repro.baselines.brute import BruteForceReference
from repro.serve.client import ServeClient, apply_delta
from repro.serve.session import SCORING_NAMES

__all__ = ["WORKLOADS", "Run", "mismatch"]

WINDOW = 512
DIM = 2
FILL_BATCH = 64
BATCH_ROWS = 4
READ_EVERY = 2          # ingest workloads: one snapshot read per 2 batches
ROW_EVERY = 16          # snapshot_reads: one ingested row per 16 reads
#: loop iterations per measured chunk (about a quarter second each):
#: the rate and CPU metrics are medians over chunks, and every chunk is
#: scaled by the host-speed probes at its two ends (speed.py)
CHUNK_BATCHES = 16
CHUNK_READS = 160
CLIENT_TIMEOUT = 60.0
SERVER_ARGS = ["--window", str(WINDOW), "--columns", str(DIM)]
LATENCIES = ("ack", "delta", "read")


def _keys(answer) -> list:
    """An answer's pair identities, whatever shape it arrived in."""
    pairs = answer.values() if isinstance(answer, dict) else answer
    return sorted((pair["older"], pair["newer"]) for pair in pairs)


def mismatch(expected: list, answers: dict) -> Optional[str]:
    """``None`` when every answer (``{label: answer}``) holds exactly the
    ``expected`` pairs, else a message naming the first that differs."""
    for label, answer in answers.items():
        got = _keys(answer)
        if got != expected:
            missing = sorted(set(expected) - set(got))[:3]
            extra = sorted(set(got) - set(expected))[:3]
            return (f"{label}: {len(got)} pairs, expected {len(expected)}; "
                    f"missing {missing} extra {extra}")
    return None


def brute_top_k(rows: list, scoring: str, k: int, n: Optional[int],
                upto: Optional[int] = None) -> list:
    """The brute-force top-k pair keys over the window ending at row
    ``upto`` (1-based sequence number; default: the last row)."""
    reference = BruteForceReference(SCORING_NAMES[scoring](DIM), WINDOW)
    for row in rows[:upto]:
        reference.append(row)
    return sorted((p.older.seq, p.newer.seq)
                  for p in reference.top_k(k, n))


class Run:
    """One set of servers and connections, plus what the loop observed."""

    def __init__(self, workdir: str, seed: int, share: float, *,
                 index: int = 0, trace_dir: Optional[str] = None,
                 deadline: float) -> None:
        self.workdir = workdir
        self.seed = seed
        #: seconds of the workload's fixed per-second work this set runs
        self.share = share
        self.index = index
        self.trace_dir = trace_dir
        self.deadline = deadline
        self.servers: list[ServerProcess] = []
        self.clients: list[ServeClient] = []
        #: rows sent per namespace, in sequence order (the brute-force
        #: reference replays them)
        self.streams: dict[str, list] = {}
        self.lat: dict[str, list[float]] = {kind: [] for kind in LATENCIES}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rows = 0
        self.reads = 0
        self.batches = 0
        self.delta_frames = 0
        self.steps = 0
        #: chunk boundaries: (time, rows, reads, server CPU seconds, probe
        #: seconds, then the sample count of each of LATENCIES)
        self.marks: list[tuple] = []
        #: seconds spent probing, kept out of every chunk's wall time
        self.probing = 0.0

    # -- plumbing ----------------------------------------------------------
    def rng(self, stream: str) -> random.Random:
        return random.Random(f"perfbench:{stream}:{self.seed}")

    def count(self, per_second: int) -> int:
        return round(per_second * self.share)

    def spawn(self, args: list[str], role: str) -> ServerProcess:
        label = f"{role}-{self.index}"
        trace_out = (os.path.join(self.trace_dir, f"{label}.pkl")
                     if self.trace_dir is not None else None)
        server = ServerProcess(SERVER_ARGS + args, workdir=self.workdir,
                               label=label, trace_out=trace_out)
        self.servers.append(server)
        return server

    def connect(self, server: ServerProcess) -> ServeClient:
        client = ServeClient(port=server.port, timeout=CLIENT_TIMEOUT)
        self.clients.append(client)
        return client

    def close(self) -> None:
        for client in self.clients:
            client.close()
        # Standbys first, so none outlives the primary it tails.
        for server in reversed(self.servers):
            server.stop()

    def check_deadline(self) -> None:
        if perf_counter() > self.deadline:
            raise BenchError("run exceeded its time budget")

    def mark(self) -> None:
        """Close a chunk and probe the host's speed (a no-op when nothing
        happened since the last)."""
        if self.marks and self.marks[-1][1:3] == (self.rows, self.reads):
            return
        now = perf_counter()
        cpu = sum(server.cpu_seconds() for server in self.servers)
        self.marks.append((now - self.probing, self.rows, self.reads, cpu,
                           probe(), *map(len, self.lat.values())))
        self.probing += perf_counter() - now

    def step(self, every: int) -> None:
        """Count one loop iteration; every ``every`` of them, close a
        chunk and check the time budget."""
        self.steps += 1
        if self.steps % every == 0:
            self.mark()
            self.check_deadline()

    def expected(self, namespace: str, spec: tuple, answer: list,
                 brute: bool) -> list:
        """The pairs every copy of a query's answer must hold: the
        brute-force top-k, or (``brute=False``) the first copy."""
        if brute:
            return brute_top_k(self.streams[namespace], *spec)
        return _keys(answer)

    def fail(self, message: Optional[str]) -> None:
        if message is not None:
            self.failed += 1
            self.problems.append(message)

    # -- requests ------------------------------------------------------------
    def request(self, client: ServeClient, op: str, **fields) -> dict:
        self.attempted += 1
        return client.request(op, **fields)

    def fill(self, client: ServeClient, namespace: str) -> None:
        rng = self.rng(f"fill:{namespace}:{self.index}")
        rows = [[rng.random() for _ in range(DIM)] for _ in range(WINDOW)]
        for i in range(0, len(rows), FILL_BATCH):
            client.ingest(rows[i:i + FILL_BATCH])
        self.streams.setdefault(namespace, []).extend(rows)

    def ingest(self, client: ServeClient, namespace: str,
               rows: list) -> tuple[float, dict]:
        """One measured ingest; returns (send time, ack)."""
        sent = perf_counter()
        ack = self.request(client, "ingest", rows=rows)
        self.lat["ack"].append(perf_counter() - sent)
        if ack.get("ingested") != len(rows):
            raise BenchError(f"ingest acked {ack.get('ingested')} of "
                             f"{len(rows)} rows")
        self.streams[namespace].extend(rows)
        self.rows += len(rows)
        self.batches += 1
        self.delta_frames += ack["deltas"]
        return sent, ack

    def read(self, client: ServeClient, **fields) -> dict:
        started = perf_counter()
        response = self.request(client, "snapshot", **fields)
        self.lat["read"].append(perf_counter() - started)
        self.reads += 1
        return response

    def deltas(self, client: ServeClient, answers: dict, count: int,
               sent: Optional[float], ack: dict) -> None:
        """Read ``count`` delta frames of one ingest and replay them;
        with ``sent`` each frame's arrival is a latency sample."""
        first_tick = ack["now_seq"] - ack["ingested"] + 1
        for _ in range(count):
            event = client.next_event(timeout=CLIENT_TIMEOUT)
            if event is None:
                raise BenchError("timed out awaiting a delta frame")
            if sent is not None:
                self.lat["delta"].append(perf_counter() - sent)
            if event.get("event") != "delta" or event.get("lagged") \
                    or not first_tick <= event["tick"] <= ack["now_seq"]:
                raise BenchError(f"unexpected event {event!r:.200}")
            apply_delta(answers[event["query"]], event)


class IngestFanout:
    name = "ingest_fanout"
    why = ("every user's path: 4-row ingests fanned out to 4 subscribed "
           "queries over 3 skyband groups; engine maintenance dominates, "
           "so engine changes show here and wire changes barely do")
    batches_per_second = 70
    queries = [("closest", 5, None), ("closest", 20, 256),
               ("furthest", 10, None), ("similar", 5, None)]

    def setup(self, run: Run) -> None:
        server = run.spawn([], "server")
        self.producer = run.connect(server)
        self.subscriber = run.connect(server)
        run.fill(self.producer, "default")
        self.handles = [self.producer.register(s, k, n)
                        for s, k, n in self.queries]
        self.answers = {h: self.subscriber.subscribe(h)
                        for h in self.handles}

    def measure(self, run: Run) -> None:
        rng = run.rng(f"rows:{run.index}")
        for b in range(run.count(self.batches_per_second)):
            rows = [[rng.random() for _ in range(DIM)]
                    for _ in range(BATCH_ROWS)]
            sent, ack = run.ingest(self.producer, "default", rows)
            run.deltas(self.subscriber, self.answers, ack["deltas"],
                       sent, ack)
            if b % READ_EVERY == READ_EVERY - 1:
                handle = self.handles[(b // READ_EVERY) % len(self.handles)]
                answer = run.read(self.subscriber, query=handle)["answer"]
                run.fail(mismatch(_keys(self.answers[handle]),
                                  {f"snapshot {handle}": answer}))
            run.step(CHUNK_BATCHES)

    def verify(self, run: Run, brute: bool) -> None:
        for handle, spec in zip(self.handles, self.queries):
            snapshot = run.request(self.subscriber, "snapshot",
                                   query=handle)["answer"]
            run.fail(mismatch(
                run.expected("default", spec, snapshot, brute),
                {f"{handle} replay": self.answers[handle],
                 f"{handle} snapshot": snapshot}))


class SnapshotReads:
    name = "snapshot_reads"
    why = ("read-mostly dashboards: back-to-back 50-pair snapshot reads, "
           "one row ingested per 16 reads; query answering and the wire "
           "dominate, the engine takes about a fifth")
    reads_per_second = 1200
    # Ad-hoc specs, each answerable from the registered K=50 group (no
    # new skyband group), alternating with one read of the registered
    # answer (None).
    cycle = [("closest", 10, 64), ("closest", 20, 128),
             ("closest", 50, 256), ("closest", 10, 512), None]
    samples = 2             # ad-hoc answers per set checked by brute force

    def setup(self, run: Run) -> None:
        server = run.spawn([], "server")
        self.producer = run.connect(server)
        self.reader = run.connect(server)
        run.fill(self.producer, "default")
        self.handle = self.producer.register("closest", 50)
        self.answers = {self.handle: self.producer.subscribe(self.handle)}

    def measure(self, run: Run) -> None:
        rng = run.rng(f"rows:{run.index}")
        total = run.count(self.reads_per_second)
        # Sample k is the first read of ad-hoc spec (index*samples + k)
        # mod 4 past the middle of the k-th slice: the sets rotate specs.
        every = total // self.samples
        targets = [(k * every + every // 2,
                    (run.index * self.samples + k) % (len(self.cycle) - 1))
                   for k in range(self.samples)]
        self.sampled = []
        for i in range(total):
            spec = self.cycle[i % len(self.cycle)]
            if spec is None:
                answer = run.read(self.reader, query=self.handle)["answer"]
                run.fail(mismatch(_keys(self.answers[self.handle]),
                                  {f"snapshot {self.handle}": answer}))
            else:
                scoring, k, n = spec
                response = run.read(self.reader, scoring=scoring, k=k, n=n)
                if targets and i >= targets[0][0] \
                        and i % len(self.cycle) == targets[0][1]:
                    targets.pop(0)
                    self.sampled.append((response["tick"], spec,
                                         response["answer"]))
            if i % ROW_EVERY == ROW_EVERY - 1:
                row = [rng.random() for _ in range(DIM)]
                sent, ack = run.ingest(self.producer, "default", [row])
                run.deltas(self.producer, self.answers, ack["deltas"],
                           sent, ack)
            run.step(CHUNK_READS)

    def verify(self, run: Run, brute: bool) -> None:
        snapshot = run.request(self.producer, "snapshot",
                               query=self.handle)["answer"]
        run.fail(mismatch(
            run.expected("default", ("closest", 50, None), snapshot, brute),
            {"replay": self.answers[self.handle], "snapshot": snapshot}))
        rows = run.streams["default"]
        for tick, (scoring, k, n), answer in self.sampled:
            run.fail(mismatch(brute_top_k(rows, scoring, k, n, upto=tick),
                              {f"read k={k} n={n} at tick {tick}": answer}))


class StandbyTenant:
    name = "standby_tenant"
    why = ("the only path through auth, token bucket, fair multiplexer, "
           "replication and standby apply (checkpoint ship and restore in "
           "setup_s); deltas are timed at the standby")
    batches_per_second = 58
    tokens = {"a": "perfbench-token-a", "b": "perfbench-token-b"}
    queries = [("closest", 5, None), ("similar", 10, None)]
    idle_query = ("furthest", 10, None)

    def setup(self, run: Run) -> None:
        path = os.path.join(run.workdir, "tenants.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "admin_token": "perfbench-admin-token",
                "tenants": {
                    "a": {"token": self.tokens["a"],
                          "quotas": {"ingest_rows_per_sec": 1_000_000}},
                    "b": {"token": self.tokens["b"]},
                },
            }, handle)
        primary = run.spawn(["--tenants", path], "primary")
        self.producer = run.connect(primary)
        self.producer.auth("b", self.tokens["b"])
        run.fill(self.producer, "b")
        self.idle_handle = self.producer.register(*self.idle_query)
        self.producer.auth("a", self.tokens["a"])
        run.fill(self.producer, "a")
        self.handles = [self.producer.register(s, k, n)
                        for s, k, n in self.queries]
        self.producer_answers = {h: self.producer.subscribe(h)
                                for h in self.handles}
        standby = run.spawn(["--tenants", path, "--standby",
                             f"127.0.0.1:{primary.port}"], "standby")
        self.standby = run.connect(standby)
        self.standby.auth("a", self.tokens["a"])
        self.standby_answers = {h: self.standby.subscribe(h)
                                for h in self.handles}

    def measure(self, run: Run) -> None:
        rng = run.rng(f"rows:{run.index}")
        for b in range(run.count(self.batches_per_second)):
            rows = [[rng.random() for _ in range(DIM)]
                    for _ in range(BATCH_ROWS)]
            sent, ack = run.ingest(self.producer, "a", rows)
            count = ack["deltas"]
            if count:
                # The standby's subscriber sees the same deltas once the
                # standby has applied the batch.
                run.deltas(self.standby, self.standby_answers, count,
                           sent, ack)
            else:
                while run.request(self.standby, "epoch")["now_seq"] \
                        < ack["now_seq"]:
                    run.check_deadline()
            run.deltas(self.producer, self.producer_answers, count, None, ack)
            if b % READ_EVERY == READ_EVERY - 1:
                handle = self.handles[(b // READ_EVERY) % len(self.handles)]
                answer = run.read(self.standby, query=handle)["answer"]
                run.fail(mismatch(
                    _keys(self.producer_answers[handle]),
                    {f"standby snapshot {handle}": answer,
                     f"standby replay {handle}":
                         self.standby_answers[handle]}))
            run.step(CHUNK_BATCHES)

    def verify(self, run: Run, brute: bool) -> None:
        for handle, spec in zip(self.handles, self.queries):
            primary = run.request(self.producer, "snapshot",
                                  query=handle)["answer"]
            run.fail(mismatch(
                run.expected("a", spec, primary, brute),
                {f"primary snapshot {handle}": primary,
                 f"primary replay {handle}": self.producer_answers[handle],
                 f"standby replay {handle}": self.standby_answers[handle],
                 f"standby snapshot {handle}": run.request(
                     self.standby, "snapshot", query=handle)["answer"]}))
        self.producer.auth("b", self.tokens["b"])
        self.standby.auth("b", self.tokens["b"])
        primary = run.request(self.producer, "snapshot",
                              query=self.idle_handle)["answer"]
        run.fail(mismatch(
            run.expected("b", self.idle_query, primary, brute),
            {"primary snapshot b": primary,
             "standby snapshot b": run.request(
                 self.standby, "snapshot",
                 query=self.idle_handle)["answer"]}))


WORKLOADS = {w.name: w for w in (IngestFanout, SnapshotReads, StandbyTenant)}

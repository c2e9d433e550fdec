"""Checkpoint/restore: format validation, atomicity, durability, the
v2 structural restore, and the byte-identity acceptance regression — a
checkpoint taken mid-stream and restored into a fresh server answers
every registered query byte-identically."""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.exceptions import CheckpointError
from repro.serve.checkpoint import (
    FORMAT_NAME,
    FORMAT_VERSION,
    checkpoint_state,
    load_checkpoint,
    restore_server_monitor,
    save_checkpoint,
    write_checkpoint_document,
)
from repro.serve.protocol import pair_to_wire
from repro.serve.session import ServerMonitor


def rows(n, seed=0):
    rng = random.Random(seed)
    return [[rng.random(), rng.random()] for _ in range(n)]


def populated_session(window=32, n_rows=80):
    session = ServerMonitor(window, 2)
    session.register("closest", 3)
    session.register("furthest", 2)
    session.register("dissimilar", 4)
    session.ingest(rows(n_rows))
    session.drain_deltas()
    return session


class TestByteIdenticalRestore:
    def test_mid_stream_checkpoint_restores_byte_identically(self, tmp_path):
        """The acceptance criterion: every registered query's snapshot
        answer serializes byte-identically after restore."""
        session = populated_session()
        path = str(tmp_path / "ck.json")
        save_checkpoint(session, path)
        restored = restore_server_monitor(path)
        assert [r.spec() for r in restored.queries()] == \
            [r.spec() for r in session.queries()]
        for record in session.queries():
            original = json.dumps(
                [pair_to_wire(p) for p in session.results(record.handle_id)]
            )
            recovered = json.dumps(
                [pair_to_wire(p)
                 for p in restored.results(record.handle_id)]
            )
            assert original == recovered

    def test_restored_session_continues_identically(self, tmp_path):
        """Feeding the same suffix to both sessions keeps them equal —
        restore is a true mid-stream fork, not just a snapshot."""
        session = populated_session()
        path = str(tmp_path / "ck.json")
        save_checkpoint(session, path)
        restored = restore_server_monitor(path)
        suffix = rows(40, seed=9)
        session.ingest(suffix)
        restored.ingest(suffix)
        for record in session.queries():
            assert json.dumps(
                [pair_to_wire(p) for p in session.results(record.handle_id)]
            ) == json.dumps(
                [pair_to_wire(p)
                 for p in restored.results(record.handle_id)]
            )

    def test_sequence_numbers_preserved(self, tmp_path):
        session = populated_session(window=16, n_rows=50)
        path = str(tmp_path / "ck.json")
        save_checkpoint(session, path)
        restored = restore_server_monitor(path)
        assert restored.monitor.manager.now_seq == \
            session.monitor.manager.now_seq
        assert [obj.seq for obj in restored.monitor.manager] == \
            [obj.seq for obj in session.monitor.manager]

    def test_handles_with_gaps_restore_under_saved_names(self, tmp_path):
        session = ServerMonitor(32, 2)
        session.register("closest", 3)   # q1
        q2 = session.register("furthest", 2)
        session.register("closest", 5)   # q3
        session.unregister(q2)           # leave a gap
        session.ingest(rows(40))
        path = str(tmp_path / "ck.json")
        save_checkpoint(session, path)
        restored = restore_server_monitor(path)
        assert [r.handle_id for r in restored.queries()] == ["q1", "q3"]
        # deltas after restore carry the restored (saved) handle names
        restored.drain_deltas()
        restored.ingest(rows(10, seed=4))
        assert {event.query for event in restored.drain_deltas()} \
            <= {"q1", "q3"}
        # and new registrations never collide with restored names
        assert restored.register("closest", 2) == "q4"

    def test_empty_window_checkpoint(self, tmp_path):
        session = ServerMonitor(32, 2)
        session.register("closest", 3)
        path = str(tmp_path / "ck.json")
        meta = save_checkpoint(session, path)
        assert meta["objects"] == 0
        restored = restore_server_monitor(path)
        restored.ingest(rows(5))
        assert [obj.seq for obj in restored.monitor.manager] == \
            [1, 2, 3, 4, 5]


class TestFormat:
    def test_document_shape(self, tmp_path):
        session = populated_session()
        path = str(tmp_path / "ck.json")
        save_checkpoint(session, path)
        state = json.loads(open(path).read())
        assert state["format"] == FORMAT_NAME
        assert state["version"] == FORMAT_VERSION
        assert len(state["window"]) == len(list(session.monitor.manager))
        assert len(state["queries"]) == 3

    def test_no_tmp_file_left_behind(self, tmp_path):
        session = populated_session()
        path = str(tmp_path / "ck.json")
        save_checkpoint(session, path)
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{broken")
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_foreign_format_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"format": "other-thing", "version": 1}))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(path))
        assert FORMAT_NAME in str(err.value)

    def test_newer_version_rejected(self, tmp_path):
        session = populated_session()
        state = checkpoint_state(session)
        state["version"] = FORMAT_VERSION + 1
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(path))
        assert "version" in str(err.value)

    def test_missing_section_rejected(self, tmp_path):
        session = populated_session()
        state = checkpoint_state(session)
        del state["window"]
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(str(path))
        assert "window" in str(err.value)

    def test_unknown_scoring_rejected(self, tmp_path):
        session = populated_session()
        state = checkpoint_state(session)
        state["queries"][0]["scoring"] = "sideways"
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_additive_extra_keys_ignored(self, tmp_path):
        """The compatibility rule: unknown extra keys never break a
        reader, so additive format changes need no version bump."""
        session = populated_session()
        state = checkpoint_state(session)
        state["future_extension"] = {"anything": True}
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(state))
        restored = restore_server_monitor(str(path))
        assert len(restored.queries()) == 3

    def test_unserializable_payload_fails_loudly(self, tmp_path):
        session = ServerMonitor(8, 2)
        session.monitor.append([0.1, 0.2], payload=object())
        path = str(tmp_path / "ck.json")
        with pytest.raises(CheckpointError):
            save_checkpoint(session, path)
        assert not os.path.exists(path)  # nothing (lossy) was written

    def test_payloads_and_timestamps_survive(self, tmp_path):
        session = ServerMonitor(8, 2, time_horizon=1000.0)
        session.monitor.append([0.1, 0.2], timestamp=1.5,
                               payload={"tag": "a"})
        session.monitor.append([0.3, 0.4], timestamp=2.5,
                               payload={"tag": "b"})
        path = str(tmp_path / "ck.json")
        save_checkpoint(session, path)
        restored = restore_server_monitor(path)
        objects = list(restored.monitor.manager)
        assert [obj.payload for obj in objects] == [{"tag": "a"},
                                                    {"tag": "b"}]
        assert [obj.timestamp for obj in objects] == [1.5, 2.5]


class TestDurability:
    def test_tmp_file_unlinked_on_failed_replace(self, tmp_path):
        """A failed write must not leave its temp file behind."""
        target = tmp_path / "ck.json"
        target.mkdir()  # os.replace(file -> directory) fails
        with pytest.raises(OSError):
            write_checkpoint_document("{}", str(target))
        assert os.listdir(tmp_path) == ["ck.json"]

    def test_tmp_name_carries_pid(self, tmp_path, monkeypatch):
        """Two writers pointed at one path must not share a temp name."""
        seen = {}
        original = os.replace

        def spy(src, dst):
            seen["src"] = src
            return original(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        session = populated_session()
        save_checkpoint(session, str(tmp_path / "ck.json"))
        assert seen["src"].endswith(f".tmp.{os.getpid()}")

    def test_fencing_refuses_lower_epoch_overwrite(self, tmp_path):
        """A demoted primary must not clobber its successor's
        checkpoint: the on-disk epoch wins."""
        path = str(tmp_path / "ck.json")
        promoted = populated_session()
        promoted.epoch = 3
        save_checkpoint(promoted, path)
        demoted = populated_session(n_rows=20)
        demoted.epoch = 1
        with pytest.raises(CheckpointError) as err:
            save_checkpoint(demoted, path)
        assert "epoch" in str(err.value)
        assert load_checkpoint(path)["epoch"] == 3  # untouched

    def test_fencing_allows_same_and_higher_epoch(self, tmp_path):
        path = str(tmp_path / "ck.json")
        session = populated_session()
        session.epoch = 2
        save_checkpoint(session, path)
        save_checkpoint(session, path)  # same epoch: fine
        session.epoch = 5
        save_checkpoint(session, path)  # higher epoch: fine
        assert load_checkpoint(path)["epoch"] == 5

    def test_unfenced_write_ignores_on_disk_epoch(self, tmp_path):
        path = str(tmp_path / "ck.json")
        session = populated_session()
        session.epoch = 9
        save_checkpoint(session, path)
        document = json.dumps(checkpoint_state(populated_session()))
        write_checkpoint_document(document, path)  # no fence_epoch
        assert load_checkpoint(path)["epoch"] == 0


class TestValidationHardening:
    """Malformed documents fail with CheckpointError naming the broken
    section — never a raw TypeError/KeyError escaping mid-restore."""

    def _state(self, **overrides):
        state = checkpoint_state(populated_session())
        state = json.loads(json.dumps(state))  # normalize tuples
        state.update(overrides)
        return state

    def _restore_path(self, tmp_path, state):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(state))
        return restore_server_monitor(str(path))

    @pytest.mark.parametrize("window", [
        42,                           # not a list at all
        [[1, [0.1, 0.2], None]],      # wrong arity
        [["x", [0.1, 0.2], None, None]],    # non-int seq
        [[0, [0.1, 0.2], None, None]],      # seq < 1
        [[1, "values", None, None]],        # values not a list
        [[1, [0.1, "y"], None, None]],      # non-numeric value
        [[1, [0.1, 0.2], "late", None]],    # non-numeric timestamp
    ])
    def test_malformed_window_rows(self, tmp_path, window):
        state = self._state(window=window, next_seq=2)
        with pytest.raises(CheckpointError):
            self._restore_path(tmp_path, state)

    def test_contiguity_error_names_expected_then_found(self, tmp_path):
        rows_ = [[5, [0.1, 0.2], None, None], [7, [0.3, 0.4], None, None]]
        state = self._state(window=rows_, next_seq=8)
        with pytest.raises(CheckpointError) as err:
            self._restore_path(tmp_path, state)
        assert "expected 6, found 7" in str(err.value)

    def test_empty_window_validates_next_seq(self, tmp_path):
        state = self._state(window=[], next_seq="soon", maintainers=[])
        with pytest.raises(CheckpointError) as err:
            self._restore_path(tmp_path, state)
        assert "next_seq" in str(err.value)

    def test_empty_window_next_seq_restores(self, tmp_path):
        state = self._state(window=[], next_seq=42, maintainers=[])
        restored = self._restore_path(tmp_path, state)
        assert restored.monitor.manager.now_seq == 41

    def test_window_end_must_match_next_seq(self, tmp_path):
        state = self._state(next_seq=999)
        with pytest.raises(CheckpointError) as err:
            self._restore_path(tmp_path, state)
        assert "next_seq" in str(err.value)

    @pytest.mark.parametrize("queries", [
        {"handle": "q1"},                       # wrong top-level type
        ["q1"],                                 # spec not an object
        [{"scoring": "closest", "k": 3, "n": 8}],   # missing handle
        [{"handle": "q1", "scoring": "closest", "k": True, "n": 8}],
        [{"handle": "q1", "scoring": "closest", "k": 0, "n": 8}],
        [{"handle": "q1", "scoring": "closest", "k": 3, "n": 1}],
    ])
    def test_malformed_query_specs(self, tmp_path, queries):
        state = self._state(queries=queries)
        with pytest.raises(CheckpointError):
            self._restore_path(tmp_path, state)

    @pytest.mark.parametrize("mutate", [
        lambda m: m.update(scoring="sideways"),
        lambda m: m.update(K=0),
        lambda m: m.update(skyband="pairs"),
        lambda m: m.update(skyband=[[1, 2]]),
        lambda m: m.update(skyband=[[2, 1, 0.5]]),   # older >= newer
        lambda m: m.update(skyband=[[1, 2, "far"]]),
        lambda m: m.update(staircase=[["broken"]]),
    ])
    def test_malformed_maintainers(self, tmp_path, mutate):
        state = self._state()
        mutate(state["maintainers"][0])
        with pytest.raises(CheckpointError):
            self._restore_path(tmp_path, state)

    def test_wrong_top_level_types(self, tmp_path):
        for key, value in [("monitor", []), ("epoch", -1),
                           ("next_handle", 0), ("maintainers", "no")]:
            state = self._state(**{key: value})
            with pytest.raises(CheckpointError):
                self._restore_path(tmp_path, state)


class TestStructuralRestore:
    def _answers(self, session):
        return {
            record.handle_id: json.dumps(
                [pair_to_wire(p)
                 for p in session.results(record.handle_id)]
            )
            for record in session.queries()
        }

    def test_structural_matches_replay_and_original(self, tmp_path):
        session = populated_session(window=24, n_rows=70)
        path = str(tmp_path / "ck.json")
        save_checkpoint(session, path)
        replayed = restore_server_monitor(path, mode="replay")
        structural = restore_server_monitor(path, mode="structural",
                                            audit=True)
        want = self._answers(session)
        assert self._answers(replayed) == want
        assert self._answers(structural) == want

    def test_structural_continues_identically(self, tmp_path):
        session = populated_session(window=24, n_rows=70)
        path = str(tmp_path / "ck.json")
        save_checkpoint(session, path)
        structural = restore_server_monitor(path, mode="structural")
        suffix = rows(30, seed=77)
        session.ingest(suffix)
        structural.ingest(suffix)
        assert self._answers(structural) == self._answers(session)

    def test_epoch_round_trips(self, tmp_path):
        session = populated_session()
        session.epoch = 7
        path = str(tmp_path / "ck.json")
        save_checkpoint(session, path)
        assert restore_server_monitor(path).epoch == 7

    def test_unknown_mode_rejected(self, tmp_path):
        session = populated_session()
        path = str(tmp_path / "ck.json")
        save_checkpoint(session, path)
        with pytest.raises(CheckpointError):
            restore_server_monitor(path, mode="sideways")

    def test_v1_document_rejected(self, tmp_path):
        """One format: a v1 file (no maintainer state, no epoch) fails
        with an error naming its version, in either restore mode."""
        session = populated_session()
        state = checkpoint_state(session)
        del state["maintainers"]
        del state["epoch"]
        state["version"] = 1
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(state))
        for mode in ("structural", "replay"):
            with pytest.raises(CheckpointError) as err:
                restore_server_monitor(str(path), mode=mode)
            assert "version 1 " in str(err.value)

    def test_v2_document_without_maintainers_rejected(self, tmp_path):
        state = checkpoint_state(populated_session())
        del state["maintainers"]
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError) as err:
            restore_server_monitor(str(path), mode="replay")
        assert "'maintainers'" in str(err.value)

    def test_dropped_skyband_pair_detected(self, tmp_path):
        """Deleting one skyband pair keeps the section well-formed but
        makes it disagree with the staircase — restore must refuse."""
        state = checkpoint_state(populated_session())
        entry = next(m for m in state["maintainers"]
                     if len(m["skyband"]) > 2)
        del entry["skyband"][1]
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError):
            restore_server_monitor(str(path))

    def test_corrupted_staircase_detected(self, tmp_path):
        state = checkpoint_state(populated_session())
        entry = next(m for m in state["maintainers"] if m["staircase"])
        entry["staircase"][0][1] -= 1  # nudge one age_key
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError) as err:
            restore_server_monitor(str(path))
        assert "staircase" in str(err.value)

    def test_out_of_order_skyband_detected(self, tmp_path):
        state = checkpoint_state(populated_session())
        entry = next(m for m in state["maintainers"]
                     if len(m["skyband"]) > 2)
        entry["skyband"].reverse()
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError) as err:
            restore_server_monitor(str(path))
        assert "order" in str(err.value)

    def test_pair_outside_window_detected(self, tmp_path):
        state = checkpoint_state(populated_session())
        entry = next(m for m in state["maintainers"] if m["skyband"])
        entry["skyband"][0][0] = 100000
        entry["skyband"][0][1] = 100001
        path = tmp_path / "ck.json"
        path.write_text(json.dumps(state))
        with pytest.raises(CheckpointError) as err:
            restore_server_monitor(str(path))
        assert "outside" in str(err.value)

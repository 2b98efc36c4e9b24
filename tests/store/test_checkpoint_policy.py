"""Automatic checkpointing: policy watermarks and the background
checkpointer thread.

Determinism: the tests drive commits, then ``wait_for_checkpoints()``
blocks until the checkpointer has drained every pending request, so
assertions never race the background snapshot IO.
"""

import pytest

from repro.rdf.terms import Literal, URIRef
from repro.store import CheckpointPolicy, QuadStore, StoreError
from repro.store.persistence import snapshot_files

EX = "http://example.org/"
P = URIRef(EX + "p")


def _commit_one(store, i):
    store.insert((URIRef(f"{EX}s{i}"), P, Literal(str(i))))


class TestPolicy:
    def test_default_is_explicit_only(self):
        policy = CheckpointPolicy()
        assert policy.explicit_only
        assert not policy.due(10**9, 10**9)

    def test_watermarks_must_be_positive(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(ops=0)
        with pytest.raises(ValueError):
            CheckpointPolicy(wal_bytes=-1)

    def test_due_per_watermark_kind(self):
        assert CheckpointPolicy(ops=5).due(0, 5)
        assert not CheckpointPolicy(ops=5).due(10**9, 4)
        assert CheckpointPolicy(wal_bytes=100).due(100, 0)
        assert not CheckpointPolicy(wal_bytes=100).due(99, 10**9)

    def test_in_memory_store_rejects_watermarks(self):
        with pytest.raises(StoreError):
            QuadStore(checkpoint_policy=CheckpointPolicy(ops=1))

    def test_explicit_only_store_runs_no_thread(self, tmp_path):
        with QuadStore(tmp_path / "s") as store:
            assert store._checkpointer is None
            for i in range(50):
                _commit_one(store, i)
            assert store.wait_for_checkpoints(0.1)  # trivially idle
            assert snapshot_files(store.directory) == []


class TestAutoCheckpoint:
    def test_op_count_watermark_triggers(self, tmp_path):
        with QuadStore(
            tmp_path / "s",
            checkpoint_policy=CheckpointPolicy(ops=10),
        ) as store:
            for i in range(25):
                _commit_one(store, i)
            assert store.wait_for_checkpoints()
            stats = store._checkpointer.stats()
            assert stats["runs"] >= 1
            assert stats["failures"] == 0
            assert snapshot_files(store.directory)
            # the WAL tail holds at most the ops since the last run
            assert store._wal.records <= 25
            info = store.info()
            assert info["checkpoint_policy"]["ops"] == 10
            assert info["auto_checkpoint"]["runs"] == stats["runs"]
        # recovery sees exactly the committed content
        with QuadStore(tmp_path / "s") as reopened:
            assert reopened.size == 25
            assert reopened.recovery.snapshot_generation > 0

    def test_wal_bytes_watermark_triggers(self, tmp_path):
        with QuadStore(
            tmp_path / "s",
            checkpoint_policy=CheckpointPolicy(wal_bytes=512),
        ) as store:
            total = 0
            for i in range(40):
                _commit_one(store, i)
                total = max(total, store._wal.tail_bytes)
            assert store.wait_for_checkpoints()
            assert store._checkpointer.stats()["runs"] >= 1
            # the settled tail is below the watermark plus one
            # commit's worth of records that landed after the last run
            assert store._wal.tail_bytes < total + 512
            assert snapshot_files(store.directory)
        with QuadStore(tmp_path / "s") as reopened:
            assert reopened.size == 40

    def test_superseded_snapshots_are_pruned(self, tmp_path):
        with QuadStore(
            tmp_path / "s",
            checkpoint_policy=CheckpointPolicy(ops=5),
        ) as store:
            # two rounds with a settled checkpointer between them: sixty
            # commits in a row can all land before its first run starts
            for first in (0, 30):
                for i in range(first, first + 30):
                    _commit_one(store, i)
                assert store.wait_for_checkpoints()
            assert store._checkpointer.stats()["runs"] >= 2
            # every run pruned the snapshots it superseded; at most
            # the newest (plus one written while pruning) remain
            assert len(snapshot_files(store.directory)) <= 2

    def test_explicit_checkpoint_resets_the_op_counter(self, tmp_path):
        with QuadStore(
            tmp_path / "s",
            checkpoint_policy=CheckpointPolicy(ops=10),
        ) as store:
            for i in range(8):
                _commit_one(store, i)
            store.checkpoint()  # explicit: counter back to zero
            for i in range(8, 16):
                _commit_one(store, i)
            assert store.wait_for_checkpoints()
            # 8 + 8 commits but never 10 since a checkpoint: the
            # only snapshots are the explicit one and none automatic
            assert store._checkpointer.stats()["runs"] == 0

    def test_checkpoint_failure_is_recorded_not_fatal(
        self, tmp_path, monkeypatch
    ):
        with QuadStore(
            tmp_path / "s",
            checkpoint_policy=CheckpointPolicy(ops=5),
        ) as store:
            import repro.store.engine as engine_module

            def broken(directory, generation, lines):
                raise OSError("disk full")

            monkeypatch.setattr(
                engine_module, "write_snapshot", broken
            )
            for i in range(6):
                _commit_one(store, i)
            assert store.wait_for_checkpoints()
            stats = store._checkpointer.stats()
            assert stats["failures"] >= 1
            assert "disk full" in stats["last_error"]
            monkeypatch.undo()
            # the thread survived; the next trip checkpoints fine
            for i in range(6, 12):
                _commit_one(store, i)
            assert store.wait_for_checkpoints()
            assert store._checkpointer.stats()["runs"] >= 1

    def test_closed_durable_store_refuses_commits(self, tmp_path):
        store = QuadStore(tmp_path / "s")
        _commit_one(store, 0)
        store.close()
        with pytest.raises(StoreError, match="closed"):
            _commit_one(store, 1)

"""Durability: WAL replay, snapshots, and torn-write crash recovery.

The crash model is a process dying mid-``write()``: the WAL ends in an
arbitrary byte prefix of a record. Recovery must restore *exactly* the
last generation whose commit marker made it to disk — never a partial
batch, never less than was committed.
"""

import shutil

from repro.rdf.terms import Literal, URIRef
from repro.store import QuadStore, scan_wal, snapshot_files
from repro.store.persistence import WAL_FILENAME

EX = "http://example.org/"


def _triple(i, o="x"):
    return (URIRef(f"{EX}s{i}"), URIRef(EX + "p"), Literal(o))


def _build_store(directory, batches=4, per_batch=3):
    """Commit ``batches`` multi-op generations; returns, per generation,
    (wal_bytes_after_commit, canonical_dump_after_commit)."""
    marks = []
    with QuadStore(directory) as store:
        wal_path = directory / WAL_FILENAME
        for b in range(batches):
            batch = store.batch()
            for j in range(per_batch):
                batch.insert(_triple(f"{b}_{j}", o=str(b)))
            if b == 2:  # one remove-heavy batch, for op-type coverage
                batch.remove(_triple("0_0", o="0"))
            store.commit(batch)
            marks.append(
                (store.generation, wal_path.stat().st_size,
                 store.to_nquads())
            )
    return marks


class TestReplay:
    def test_restart_replays_wal_exactly(self, tmp_path):
        marks = _build_store(tmp_path)
        final_generation, _, final_dump = marks[-1]
        with QuadStore(tmp_path) as reopened:
            assert reopened.generation == final_generation
            assert reopened.to_nquads() == final_dump
            assert reopened.recovery.clean

    def test_snapshot_plus_tail(self, tmp_path):
        with QuadStore(tmp_path) as store:
            store.insert(_triple(1))
            store.checkpoint()
            store.insert(_triple(2))
            dump = store.to_nquads()
        with QuadStore(tmp_path) as reopened:
            assert reopened.generation == 2
            assert reopened.to_nquads() == dump
            report = reopened.recovery
            assert report.snapshot_generation == 1
            assert report.batches_replayed == 1

    def test_checkpoint_resets_wal(self, tmp_path):
        with QuadStore(tmp_path) as store:
            store.insert(_triple(1))
            store.checkpoint()
            assert (tmp_path / WAL_FILENAME).stat().st_size == 0
            assert snapshot_files(tmp_path)

    def test_compact_prunes_old_snapshots(self, tmp_path):
        with QuadStore(tmp_path) as store:
            store.insert(_triple(1))
            store.checkpoint()
            store.insert(_triple(2))
            store.compact()
            generations = [g for g, _ in snapshot_files(tmp_path)]
            assert generations == [2]


class TestTornTail:
    def test_truncation_sweep_recovers_last_committed_generation(
        self, tmp_path
    ):
        """Truncate the WAL at *every* byte offset: recovery must land
        on exactly the last generation whose record fits the prefix,
        byte-identical to the dump taken right after that commit."""
        source = tmp_path / "source"
        source.mkdir()
        marks = _build_store(source, batches=4, per_batch=2)
        wal_bytes = (source / WAL_FILENAME).read_bytes()

        # generation 0 is the empty store (no snapshot was written). A
        # record cut exactly before its final newline is still intact —
        # its CRC-checked commit marker is complete — so the boundary
        # for generation g is ``offset - 1``, not ``offset``.
        def expectation(length):
            generation, dump = 0, ""
            for g, offset, text in marks:
                if offset - 1 <= length:
                    generation, dump = g, text
            return generation, dump

        work = tmp_path / "work"
        for length in range(len(wal_bytes) + 1):
            if work.exists():
                shutil.rmtree(work)
            work.mkdir()
            (work / WAL_FILENAME).write_bytes(wal_bytes[:length])
            expected_generation, expected_dump = expectation(length)
            with QuadStore(work) as store:
                assert store.generation == expected_generation, (
                    f"truncated at byte {length}"
                )
                assert store.to_nquads() == expected_dump, (
                    f"truncated at byte {length}"
                )
                boundaries = {m[1] for m in marks}
                boundaries |= {m[1] - 1 for m in marks}
                if length > 0 and length not in boundaries:
                    assert store.recovery.torn_bytes > 0

    def test_recovery_truncates_the_torn_tail_durably(self, tmp_path):
        marks = _build_store(tmp_path, batches=3, per_batch=2)
        wal_path = tmp_path / WAL_FILENAME
        data = wal_path.read_bytes()
        # cut mid-way through the final record
        cut = marks[-2][1] + (marks[-1][1] - marks[-2][1]) // 2
        wal_path.write_bytes(data[:cut])

        with QuadStore(tmp_path) as store:
            assert store.generation == marks[-2][0]
            assert store.recovery.torn_bytes == cut - marks[-2][1]
        # after recovery the log is clean: a second open replays the
        # same state with nothing torn
        scan = scan_wal(wal_path)
        assert scan.torn_bytes == 0
        with QuadStore(tmp_path) as store:
            assert store.generation == marks[-2][0]
            assert store.recovery.clean

    def test_garbage_wal_recovers_empty(self, tmp_path):
        (tmp_path / WAL_FILENAME).write_bytes(b"\x00garbage\xff\n")
        with QuadStore(tmp_path) as store:
            assert store.generation == 0
            assert store.size == 0

    def test_corrupt_commit_marker_rejects_whole_batch(self, tmp_path):
        with QuadStore(tmp_path) as store:
            store.insert(_triple(1))
            store.insert(_triple(2))
        wal_path = tmp_path / WAL_FILENAME
        lines = wal_path.read_bytes().splitlines(keepends=True)
        # flip the CRC of the *last* commit marker
        assert lines[-1].startswith(b"C ")
        lines[-1] = lines[-1][:-9] + b"deadbeef\n"
        wal_path.write_bytes(b"".join(lines))
        with QuadStore(tmp_path) as store:
            assert store.generation == 1
            assert store.size == 1

    def test_unreadable_snapshot_falls_back_to_older(self, tmp_path):
        with QuadStore(tmp_path) as store:
            store.insert(_triple(1))
            store.checkpoint()
            store.insert(_triple(2))
            store.checkpoint()
            dump_gen1 = None
        files = dict(
            (g, p) for g, p in snapshot_files(tmp_path)
        )
        # corrupt the newest snapshot; the older one + WAL must win
        files[2].write_text("<not nquads\n", encoding="utf-8")
        with QuadStore(tmp_path) as store:
            # WAL was reset at the gen-2 checkpoint, so the older
            # snapshot alone is the best recoverable state
            assert store.generation == 1
            assert store.recovery.snapshot_generation == 1
            assert store.size == 1


class TestDirectoryFsync:
    """Regression: snapshot renames and WAL truncates fsync-ed the file
    but never the parent directory, so a power loss could roll back the
    rename/truncate itself. The sweep monkeypatches ``os.fsync`` and
    asserts a *directory* descriptor is synced on every namespace
    operation."""

    @staticmethod
    def _record_dir_fsyncs(monkeypatch):
        import os
        import stat

        calls = []
        real_fsync = os.fsync

        def recording(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording)
        return calls

    def test_checkpoint_syncs_directory_for_rename_and_reset(
        self, tmp_path, monkeypatch
    ):
        with QuadStore(tmp_path) as store:
            store.insert(_triple(1))
            calls = self._record_dir_fsyncs(monkeypatch)
            store.checkpoint()
        # once for the snapshot rename, once for the WAL reset
        assert len(calls) >= 2

    def test_torn_tail_truncate_syncs_directory(
        self, tmp_path, monkeypatch
    ):
        with QuadStore(tmp_path) as store:
            store.insert(_triple(1))
        wal_path = tmp_path / WAL_FILENAME
        data = wal_path.read_bytes()
        wal_path.write_bytes(data + b"B 99")  # torn header
        calls = self._record_dir_fsyncs(monkeypatch)
        with QuadStore(tmp_path) as store:
            assert store.recovery.torn_bytes > 0
        assert len(calls) >= 1  # truncate_wal synced the directory

    def test_recovery_sweep_survives_checkpoint_cycles(
        self, tmp_path, monkeypatch
    ):
        """Full sweep: commits, auto-prune-style checkpoints, torn
        tail — every namespace op paired with a directory fsync, and
        recovery restores the exact committed content."""
        calls = self._record_dir_fsyncs(monkeypatch)
        with QuadStore(tmp_path) as store:
            for i in range(6):
                store.insert(_triple(i))
                if i % 2 == 1:
                    store.checkpoint()
            dump = store.to_nquads()
        checkpoints = 3
        assert len(calls) >= 2 * checkpoints
        with QuadStore(tmp_path) as store:
            assert store.to_nquads() == dump


class TestGenerationGap:
    def test_refuses_to_open_across_a_lost_snapshot(self, tmp_path):
        """Regression: with its only snapshot damaged, a store whose WAL
        resumed after a checkpoint opened at the last generation holding
        just the post-checkpoint quads — a state that never existed —
        and accepted writes on top of it."""
        from repro.store import StoreError

        with QuadStore(tmp_path) as store:
            for i in range(5):
                store.insert(_triple(i))
            store.checkpoint()
            for i in range(5, 8):
                store.insert(_triple(i))
        (snapshot,) = [p for _, p in snapshot_files(tmp_path)]
        snapshot.write_text("<not nquads\n", encoding="utf-8")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        try:
            QuadStore(tmp_path)
        except StoreError as exc:
            message = str(exc)
        else:  # pragma: no cover - the regression
            raise AssertionError("opened across a generation gap")
        assert "generation 6" in message
        assert "snapshot generation 0" in message
        # nothing was truncated or deleted
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_damaged_sealed_segment_refuses_to_open(
        self, tmp_path, monkeypatch
    ):
        import repro.store.engine as engine
        from repro.store import StoreError
        from repro.store.persistence import sealed_segments

        with QuadStore(tmp_path) as store:
            store.insert(_triple(1))
            # the checkpoint fails after the seal: the segment stays
            monkeypatch.setattr(engine, "write_snapshot", _raise_disk_full)
            try:
                store.checkpoint()
            except OSError:
                pass
            monkeypatch.undo()
            store.insert(_triple(2))
        ((_, segment),) = sealed_segments(tmp_path)
        segment.write_bytes(segment.read_bytes()[:-5])
        try:
            QuadStore(tmp_path)
        except StoreError as exc:
            assert segment.name in str(exc)
        else:  # pragma: no cover
            raise AssertionError("opened over a damaged sealed segment")


def _raise_disk_full(directory, generation, lines):
    raise OSError("disk full")


class TestCheckpointCrashStates:
    """The on-disk states a checkpoint passes through, each captured by
    copying the live directory without ``close()`` (a crash at that
    point): every one reopens on the last acknowledged generation with
    byte-identical content, and checkpoints on from there."""

    @staticmethod
    def _crash_during_checkpoint(tmp_path, monkeypatch, after_rename):
        """Checkpoint a store with a snapshot and a WAL tail; copy its
        directory right before (or after) the new snapshot's rename.
        Returns ``(copy, generation, dump)`` at the moment of the copy."""
        import repro.store.engine as engine

        live = tmp_path / "live"
        copy = tmp_path / "copy"
        store = QuadStore(live)
        for i in range(4):
            store.insert(_triple(i))
        store.checkpoint()
        store.remove((URIRef(f"{EX}s1"), None, None))
        store.insert(_triple(9))
        real = engine.write_snapshot

        def crashing(directory, generation, lines):
            if not after_rename:
                shutil.copytree(live, copy)
            path = real(directory, generation, lines)
            if after_rename:
                shutil.copytree(live, copy)
            return path

        monkeypatch.setattr(engine, "write_snapshot", crashing)
        expected = (store.generation, store.to_nquads())
        store.checkpoint()
        monkeypatch.undo()
        store.close()
        return (copy,) + expected

    @staticmethod
    def _reopens_exactly(copy, generation, dump):
        with QuadStore(copy) as store:
            assert store.generation == generation
            assert store.to_nquads() == dump
            # nothing committed since the crash: the segment sealed at
            # this generation is merged, not overwritten by the empty log
            assert store.checkpoint().read_text(encoding="utf-8") == dump
            store.insert(_triple(20))
            dump = store.to_nquads()
            store.checkpoint()
        with QuadStore(copy) as store:
            assert store.generation == generation + 1
            assert store.to_nquads() == dump
            assert store.recovery.ops_replayed == 0

    def test_after_the_seal_before_the_rename(self, tmp_path, monkeypatch):
        from repro.store.persistence import sealed_segments

        copy, generation, dump = self._crash_during_checkpoint(
            tmp_path, monkeypatch, after_rename=False
        )
        assert [g for g, _ in sealed_segments(copy)] == [generation]
        assert [g for g, _ in snapshot_files(copy)] == [4]
        self._reopens_exactly(copy, generation, dump)

    def test_after_the_rename_before_the_unlink(self, tmp_path, monkeypatch):
        from repro.store.persistence import sealed_segments

        copy, generation, dump = self._crash_during_checkpoint(
            tmp_path, monkeypatch, after_rename=True
        )
        assert [g for g, _ in sealed_segments(copy)] == [generation]
        assert [g for g, _ in snapshot_files(copy)] == [4, generation]
        self._reopens_exactly(copy, generation, dump)

    def test_leftover_tmp_snapshot(self, tmp_path, monkeypatch):
        copy, generation, dump = self._crash_during_checkpoint(
            tmp_path, monkeypatch, after_rename=False
        )
        # the checkpoint died mid-write: half a snapshot under .tmp
        tmp = copy / f"snapshot-{generation:09d}.nq.tmp"
        tmp.write_text(dump[: len(dump) // 2], encoding="utf-8")
        with QuadStore(copy) as store:
            assert not tmp.exists()
        self._reopens_exactly(copy, generation, dump)


class TestCheckpointMerge:
    def test_snapshot_is_the_canonical_dump(self, tmp_path):
        """Inserts, removes and re-inserts across several checkpoints:
        each snapshot file holds exactly ``to_nquads()`` of its
        generation."""
        g = URIRef(EX + "g")
        with QuadStore(tmp_path) as store:
            for round_ in range(3):
                batch = store.batch()
                for i in range(6):
                    batch.insert(_triple(i, o=str(round_ % 2)), g)
                    batch.insert(_triple(i, o="lit\nline"))
                batch.remove(_triple(round_, o=str(1 - round_ % 2)), g)
                store.commit(batch)
                store.remove((URIRef(f"{EX}s{round_ + 2}"), None, None))
                store.insert(_triple(round_ + 2, o="lit\nline"))
                path = store.checkpoint()
                assert path.read_text(encoding="utf-8") == store.to_nquads()

    def test_checkpoint_serializes_no_quad(self, tmp_path, monkeypatch):
        import repro.rdf.nquads as nquads
        import repro.store.engine as engine

        with QuadStore(tmp_path) as store:
            for i in range(10):
                store.insert(_triple(i))
            calls = []
            real = nquads.serialize_quad

            def counting(quad):
                calls.append(quad)
                return real(quad)

            monkeypatch.setattr(engine, "serialize_quad", counting)
            store.checkpoint()
        assert calls == []

    def test_line_count_mismatch_raises_and_keeps_the_segments(
        self, tmp_path
    ):
        from repro.store import StoreError
        from repro.store.persistence import sealed_segments

        with QuadStore(tmp_path) as store:
            store.insert(_triple(1))
            base = store.checkpoint()
            # a base that does not hold what generation 1 held
            base.write_text(base.read_text() + base.read_text().replace(
                "s1", "s0"), encoding="utf-8")
            store.insert(_triple(2))
            try:
                store.checkpoint()
            except StoreError as exc:
                assert "3 lines" in str(exc) and "2 quads" in str(exc)
            else:  # pragma: no cover
                raise AssertionError("a miscounted snapshot was written")
            assert [g for g, _ in snapshot_files(tmp_path)] == [1]
            assert [g for g, _ in sealed_segments(tmp_path)] == [2]
            assert not list(tmp_path.glob("*.tmp"))

    def test_missing_base_raises(self, tmp_path):
        with QuadStore(tmp_path) as store:
            store.insert(_triple(1))
            base = store.checkpoint()
            base.unlink()
            store.insert(_triple(2))
            try:
                store.checkpoint()
            except OSError:
                pass
            else:  # pragma: no cover
                raise AssertionError("checkpoint without its base")
            assert snapshot_files(tmp_path) == []

    def test_commits_proceed_during_a_checkpoint(self, tmp_path, monkeypatch):
        """The snapshot is written off the commit lock: a commit made
        while it is being written returns before it finishes."""
        import threading

        import repro.store.engine as engine

        store = QuadStore(tmp_path)
        store.insert(_triple(1))
        entered = threading.Event()
        committed = threading.Event()
        failures = []
        real = engine.write_snapshot

        def waiting(directory, generation, lines):
            entered.set()
            if not committed.wait(5.0):
                failures.append("the commit waited for the checkpoint")
            return real(directory, generation, lines)

        monkeypatch.setattr(engine, "write_snapshot", waiting)
        checkpointing = threading.Thread(target=store.checkpoint)
        checkpointing.start()
        assert entered.wait(5.0)
        store.insert(_triple(2))
        committed.set()
        checkpointing.join()
        assert failures == []
        ((generation, path),) = snapshot_files(tmp_path)
        assert generation == 1
        assert path.read_text(encoding="utf-8").count("\n") == 1
        dump = store.to_nquads()
        store.close()
        with QuadStore(tmp_path) as reopened:
            assert reopened.generation == 2
            assert reopened.to_nquads() == dump

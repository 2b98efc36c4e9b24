"""Concurrent reader/writer equivalence under MVCC.

Readers pin snapshots while a writer commits multi-op batches. The
invariant under test is batch atomicity: every pinned view contains
each batch either completely or not at all, and generations observed
by any single reader never go backwards. Runs under ``REPRO_SANITIZE=1``
like the rest of the suite — snapshots are immutable, so the store
sanitizer's mutation-during-iteration tripwire must stay silent.
"""

import threading

from repro.rdf.terms import Literal, URIRef
from repro.store import QuadStore

EX = "http://example.org/"
BATCHES = 30
PER_BATCH = 5


def _batch_triples(b):
    return [
        (URIRef(f"{EX}s{b}_{j}"), URIRef(EX + "p"), Literal(str(b)))
        for j in range(PER_BATCH)
    ]


class TestReaderWriterEquivalence:
    def test_readers_only_see_whole_batches(self):
        store = QuadStore()
        errors = []
        done = threading.Event()

        def writer():
            for b in range(BATCHES):
                batch = store.batch()
                for triple in _batch_triples(b):
                    batch.insert(triple)
                store.commit(batch)
            done.set()

        def reader():
            last_generation = 0
            while not done.is_set() or last_generation < BATCHES:
                view = store.head()
                if view.generation < last_generation:
                    errors.append(
                        f"generation went backwards: "
                        f"{last_generation} -> {view.generation}"
                    )
                    return
                last_generation = view.generation
                counts = {}
                for s, p, o in view.triples(
                    (None, URIRef(EX + "p"), None)
                ):
                    counts[o.lexical] = counts.get(o.lexical, 0) + 1
                for b, count in counts.items():
                    if count != PER_BATCH:
                        errors.append(
                            f"partial batch {b} visible at generation "
                            f"{view.generation}: {count}/{PER_BATCH}"
                        )
                        return
                if len(counts) != view.generation:
                    errors.append(
                        f"generation {view.generation} shows "
                        f"{len(counts)} batches"
                    )
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]
        # the final state is the full catalog, exactly once each
        assert store.generation == BATCHES
        assert store.size == BATCHES * PER_BATCH

    def test_concurrent_run_equals_sequential_run(self):
        """Order of interleaved commits from two writers may vary, but
        the final content must equal the sequential union (all batches
        are disjoint)."""
        concurrent = QuadStore()
        threads = [
            threading.Thread(target=lambda lo=lo: [
                concurrent.commit(
                    concurrent.batch().add_all(_batch_triples(b))
                )
                for b in range(lo, BATCHES, 2)
            ])
            for lo in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        sequential = QuadStore()
        for b in range(BATCHES):
            sequential.commit(
                sequential.batch().add_all(_batch_triples(b))
            )
        assert concurrent.to_nquads() == sequential.to_nquads()
        assert concurrent.generation == sequential.generation

    def test_writers_per_context_commit_against_pinned_readers(self):
        """N threads each commit ``WriteBatch``es into their own
        context while readers pin heads: every commit is one atomic
        generation, so a pinned view holds whole batches only."""
        store = QuadStore()
        writers = 4
        contexts = [URIRef(f"{EX}g{i}") for i in range(writers)]
        done = threading.Event()
        errors = []

        def work(context, lo):
            for b in range(lo, BATCHES, writers):
                store.commit(
                    store.batch().add_all(_batch_triples(b), context)
                )

        def reader():
            while not done.is_set():
                view = store.head()
                seen = sum(1 for _ in view.triples((None, None, None)))
                if seen != view.generation * PER_BATCH:
                    errors.append(
                        f"generation {view.generation} shows "
                        f"{seen} triples"
                    )
                    return

        readers = [threading.Thread(target=reader) for _ in range(2)]
        threads = [
            threading.Thread(target=work, args=(ctx, lo))
            for lo, ctx in enumerate(contexts)
        ]
        for thread in readers + threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        done.set()
        for thread in readers:
            thread.join(timeout=60)
        assert not any(t.is_alive() for t in readers + threads)
        assert not errors, errors[:3]
        assert store.generation == BATCHES
        for lo, context in enumerate(contexts):
            expected = sum(
                len(_batch_triples(b))
                for b in range(lo, BATCHES, writers)
            )
            assert len(store.graph(context)) == expected


class TestInterleavedRemove:
    """Regression: a pattern remove that matched in one lock
    acquisition and applied the OP_REMOVEs in another let two racing
    removers both claim the same triple; ``QuadStore.remove`` matches
    and removes under the commit lock. Conservation
    invariant: each round inserts exactly one triple, so the racers'
    removal counts must sum to exactly one."""

    ROUNDS = 100

    def _run_rounds(self, store, subject, triple):
        """One inserter vs two racing removers, round by round.

        Two rendezvous per round: ``go`` releases the race only after
        the insert landed, ``done`` holds the next insert until both
        removers finished this round (otherwise the next insert could
        race a stale remover and break the one-triple-per-round
        invariant the conservation assert depends on)."""
        removed = [0, 0]
        go = threading.Barrier(3)
        done = threading.Barrier(3)

        def remover(slot):
            for _ in range(self.ROUNDS):
                go.wait()
                removed[slot] += store.remove((subject, None, None))
                done.wait()

        threads = [
            threading.Thread(target=remover, args=(slot,))
            for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        inserted = 0
        for _ in range(self.ROUNDS):
            inserted += store.insert(triple)
            go.wait()  # both removers race for the single triple
            done.wait()
        for thread in threads:
            thread.join()
        assert inserted == self.ROUNDS  # every round started empty
        return removed

    def test_racing_removers_conserve_counts(self):
        store = QuadStore()
        subject = URIRef(EX + "contested")
        triple = (subject, URIRef(EX + "p"), Literal("x"))
        removed = self._run_rounds(store, subject, triple)
        assert sum(removed) == self.ROUNDS
        assert store.size == 0


class TestWritePathMachineryUnderStress:
    """Group commit + background and explicit checkpoints running
    together while readers pin snapshots — the lock sanitizer
    (REPRO_SANITIZE=1 or the fixture) must observe no inversion between
    the checkpoint lock, the commit lock, the queue mutex and the
    checkpointer condition, and no checkpoint may fail."""

    def test_group_commit_with_auto_checkpoint_and_readers(
        self, tmp_path, lock_sanitizer
    ):
        import sys

        from repro.store import CheckpointPolicy

        store = QuadStore(
            tmp_path / "s",
            group_commit=True,
            checkpoint_policy=CheckpointPolicy(ops=20),
        )
        stop = threading.Event()
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self._run(store, stop, errors)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert store.wait_for_checkpoints()
        assert store._checkpointer.stats()["failures"] == 0
        assert store.size == 4 * BATCHES * PER_BATCH
        dump = store.to_nquads()
        store.close()
        with QuadStore(tmp_path / "s") as reopened:
            assert reopened.to_nquads() == dump

    @staticmethod
    def _run(store, stop, errors):
        def writer(t):
            for b in range(BATCHES):
                for triple in _batch_triples(f"{t}_{b}"):
                    generation, _ = store.apply(
                        [("+", triple, None)]
                    )
                    if generation <= 0:
                        errors.append("bad generation")

        def reader():
            while not stop.is_set():
                view = store.head()
                sum(1 for _ in view.triples((None, None, None)))

        def checkpointer():
            while not stop.is_set():
                try:
                    store.checkpoint()
                except Exception as exc:  # reported by the assertion
                    errors.append(f"explicit checkpoint: {exc!r}")

        others = [threading.Thread(target=reader) for _ in range(2)]
        others.append(threading.Thread(target=checkpointer))
        writers = [
            threading.Thread(target=writer, args=(t,)) for t in range(4)
        ]
        for thread in others + writers:
            thread.start()
        for thread in writers:
            thread.join(60.0)
        stop.set()
        for thread in others + writers:
            thread.join(60.0)
            assert not thread.is_alive()

"""MVCC engine semantics: generations, snapshot isolation, overlays."""

import random
import threading

import pytest

from repro.platform import Capture, Platform
from repro.rdf import RDF, URIRef
from repro.rdf.graph import Dataset, FrozenGraphError
from repro.rdf.nquads import serialize_nquads
from repro.rdf.terms import Literal
from repro.store import QuadStore, StoreError, WriteBatch, engine
from repro.store.wal import OP_ADD, OP_REMOVE

from ..rdf.test_graph import leaked_mutations

EX = "http://example.org/"


def _triple(i, o="x"):
    return (URIRef(f"{EX}s{i}"), URIRef(EX + "p"), Literal(o))


def _small_platform(store):
    platform = Platform()
    platform.attach_store(store)
    platform.register_user("ada", full_name="Ada")
    for n in range(3):
        platform.upload(Capture(
            username="ada", title=f"Mole Antonelliana {n}",
            tags=("turin",), timestamp=n,
        ))
    return platform


class TestCommits:
    def test_insert_bumps_generation(self):
        store = QuadStore()
        assert store.generation == 0
        assert store.insert(_triple(1))
        assert store.generation == 1
        assert store.size == 1

    def test_duplicate_insert_is_a_noop_commit(self):
        store = QuadStore()
        store.insert(_triple(1))
        assert not store.insert(_triple(1))
        # no effective ops → no generation bump
        assert store.generation == 1

    def test_batch_commits_atomically_as_one_generation(self):
        store = QuadStore()
        batch = store.batch()
        for i in range(5):
            batch.insert(_triple(i))
        generation = store.commit(batch)
        assert generation == 1
        assert store.size == 5

    def test_add_then_remove_in_one_batch_nets_out(self):
        store = QuadStore()
        batch = store.batch().insert(_triple(1)).remove(_triple(1))
        store.commit(batch)
        assert store.size == 0
        assert not store.head()._contains(*_triple(1))

    def test_remove_expands_pattern(self):
        store = QuadStore()
        for i in range(4):
            store.insert(_triple(i))
        removed = store.remove((None, URIRef(EX + "p"), None))
        assert removed == 4
        assert store.size == 0

    def test_empty_ops_keep_generation(self):
        store = QuadStore()
        store.insert(_triple(1))
        generation, effective = store.apply([])
        assert (generation, effective) == (1, 0)
        assert store.generation == 1


class TestSnapshotIsolation:
    def test_pinned_head_never_sees_later_commits(self):
        """The tentpole invariant: a reader's pinned generation is
        immutable — concurrent commits publish *new* states."""
        store = QuadStore()
        store.insert(_triple(1))
        pinned = store.head()
        assert pinned.generation == 1
        assert len(pinned) == 1

        store.insert(_triple(2))
        store.remove((None, None, None))
        assert store.size == 0

        # the pinned snapshot is byte-for-byte what generation 1 held
        assert pinned.generation == 1
        assert len(pinned) == 1
        assert pinned._contains(*_triple(1))
        assert not pinned._contains(*_triple(2))

    def test_snapshots_are_frozen(self):
        """Every graph the store or the platform hands out refuses
        every mutator — nobody outside holds a writable view."""
        g1 = URIRef(EX + "g1")
        store = QuadStore()
        store.insert(_triple(1))
        store.insert(_triple(2), context=g1)
        snapshot = store.dataset_snapshot()
        platform = _small_platform(QuadStore())
        closing = Platform(inference=True)
        assert leaked_mutations({
            "store.head()": store.head(),
            "store.graph(ctx)": store.graph(g1),
            "snapshot.default": snapshot.default,
            "snapshot.graph(ctx)": snapshot.graph(g1),
            "snapshot.union_graph()": snapshot.union_graph(),
            "platform.union_graph()": platform.union_graph(),
            "platform.triple_store().union_graph()":
                platform.triple_store().union_graph(),
            "platform.triple_store().default":
                platform.triple_store().default,
            "inference platform.union_graph()": closing.union_graph(),
        }) == []
        assert store.generation == 2 and store.size == 2

    def test_pinned_iteration_yields_exactly_the_pinned_generation(
        self, monkeypatch
    ):
        """Iterators started on a pinned view keep yielding that
        generation's triples while another thread removes all of them,
        inserts others and forces every context through a fold."""
        monkeypatch.setattr(engine, "OVERLAY_LIMIT", 8)
        store = QuadStore()
        platform = _small_platform(store)
        platform.synchronize_store()
        # give every context of the generation to pin a live overlay
        # (two adds, one remove): later small commits copy-on-write it
        seed = WriteBatch()
        for context in store.contexts():
            seed.remove(next(store.graph(context).triples()), context)
            for n in range(2):
                seed.insert(_triple(f"seed-{n}"), context)
        store.commit(seed)
        assert store.info()["overlay_ops"] == 3 * len(store.contexts())

        union = platform.union_graph()  # nothing pending: pins the head
        head = store.head()
        assert union.generation == head.generation == store.generation
        expected = set(head.triples())
        assert len(expected) > 100
        iterators = [head.triples(), union.triples((None, None, None))]
        seen = [[], []]

        by_context = {}
        for s, p, o, context in store.quads():  # base first, then adds
            by_context.setdefault(context, []).append((s, p, o))
        rounds = []
        for k in range(2):  # small: the overlays stay, one op deeper
            batch = WriteBatch()
            for context, triples in by_context.items():
                batch.remove(triples.pop(0), context)   # from the base
                batch.remove(triples.pop(), context)    # from the adds
                batch.insert(_triple(f"small-{k}"), context)
            rounds.append(batch)
        for k in range(6):  # bulk: every context folds
            batch = WriteBatch()
            for context, triples in by_context.items():
                cut = len(triples) // (6 - k)
                for n, triple in enumerate(triples[:cut]):
                    batch.remove(triple, context)
                    batch.insert(_triple(f"bulk-{k}-{n}"), context)
                del triples[:cut]
            rounds.append(batch)

        for batch in rounds:
            for iterator, out in zip(iterators, seen):
                for _ in range(len(expected) // 12):
                    out.append(next(iterator))
            writer = threading.Thread(target=store.commit, args=(batch,))
            writer.start()
            writer.join(timeout=30)
            assert not writer.is_alive()
        for iterator, out in zip(iterators, seen):
            out.extend(iterator)

        # the head moved on completely; the pinned views did not
        assert not expected & set(store.head().triples())
        assert store.info()["overlay_ops"] == 0
        for out in seen:
            assert len(out) == len(expected) and set(out) == expected

    def test_dataset_snapshot_pins_named_graphs(self):
        store = QuadStore()
        g1 = URIRef(EX + "g1")
        store.insert(_triple(1))
        store.insert(_triple(2), context=g1)
        snapshot = store.dataset_snapshot()
        assert isinstance(snapshot, Dataset)
        assert len(snapshot.default) == 1
        assert len(snapshot.graph(g1)) == 1
        # later writes are invisible to the pinned dataset
        store.insert(_triple(3), context=g1)
        assert len(snapshot.graph(g1)) == 1
        assert len(store.graph(g1)) == 2

    def test_dataset_snapshot_union_deduplicates(self):
        store = QuadStore()
        g1 = URIRef(EX + "g1")
        store.insert(_triple(1))
        store.insert(_triple(1), context=g1)
        union = store.dataset_snapshot().union_graph()
        assert len(list(union.triples((None, None, None)))) == 1

    def test_unknown_named_graph_is_empty_view(self):
        store = QuadStore()
        view = store.dataset_snapshot().graph(URIRef(EX + "nope"))
        assert len(view) == 0
        assert list(view.triples((None, None, None))) == []

    def test_remove_graph_refused_on_snapshot(self):
        store = QuadStore()
        store.insert(_triple(1), context=URIRef(EX + "g1"))
        snapshot = store.dataset_snapshot()
        with pytest.raises(FrozenGraphError):
            snapshot.remove_graph(URIRef(EX + "g1"))


class TestOverlays:
    def test_overlay_folds_past_limit(self, monkeypatch):
        monkeypatch.setattr(engine, "OVERLAY_LIMIT", 8)
        store = QuadStore()
        for i in range(20):
            store.insert(_triple(i))
        info = store.info()
        # folding keeps the overlay bounded by the limit
        assert info["overlay_ops"] <= 8
        assert store.size == 20

    def test_fold_preserves_contents_and_generation_semantics(
        self, monkeypatch
    ):
        monkeypatch.setattr(engine, "OVERLAY_LIMIT", 4)
        store = QuadStore()
        expected = set()
        for i in range(12):
            store.insert(_triple(i))
            expected.add(_triple(i))
            if i % 3 == 0:
                store.remove((URIRef(f"{EX}s{i}"), None, None))
                expected.discard(_triple(i))
        assert set(store.head().triples((None, None, None))) == expected

    def test_compact_folds_without_changing_contents(self):
        store = QuadStore()
        for i in range(6):
            store.insert(_triple(i))
        store.remove((URIRef(EX + "s0"), None, None))
        before = store.to_nquads()
        generation = store.generation
        summary = store.compact()
        assert summary["folded_contexts"] >= 1
        assert store.to_nquads() == before
        assert store.generation == generation  # same data, same gen


def _random_commits(seed, count):
    """``count`` effective batches over two contexts: mostly adds, and
    removes of quads an earlier batch added."""
    rng = random.Random(seed)
    contexts = (None, URIRef(EX + "ctx"))
    live = []
    for serial in range(count):
        batch = WriteBatch()
        for j in range(rng.randint(1, 6)):
            quad = (_triple(rng.randrange(40), f"v{serial}-{j}"),
                    rng.choice(contexts))
            batch.insert(*quad)
            live.append(quad)
        for _ in range(rng.randint(0, 3)):
            if len(live) > 8:
                batch.remove(*live.pop(rng.randrange(len(live) - 6)))
        yield batch


class TestSharedGenerations:
    """A commit thaws the last overlay and a fold thaws the last base:
    every published generation keeps reading what it pinned."""

    @pytest.mark.parametrize("limit", [8, 1024])
    def test_fifty_pinned_generations_keep_their_own_dump(
        self, monkeypatch, limit
    ):
        monkeypatch.setattr(engine, "OVERLAY_LIMIT", limit)
        store = QuadStore()
        pinned = []
        for batch in _random_commits(7, 50):
            generation = store.generation
            assert store.commit(batch) == generation + 1
            pinned.append((store.dataset_snapshot(), store.to_nquads()))
        assert len({dump for _, dump in pinned}) == 50
        for snapshot, dump in pinned:
            assert serialize_nquads(snapshot) == dump
            assert len(snapshot.union_graph()) == len(
                set(snapshot.union_graph().triples())
            )

    def test_fold_changes_no_dump_and_no_older_snapshot(self, monkeypatch):
        monkeypatch.setattr(engine, "OVERLAY_LIMIT", 8)
        folding = QuadStore()
        model = Dataset()  # the same batches, never folded
        before_fold = None
        for batch in _random_commits(11, 30):
            overlay = folding.info()["overlay_ops"]
            snapshot, dump = folding.dataset_snapshot(), folding.to_nquads()
            folding.commit(batch)
            for op, triple, context in batch.ops:
                graph = model.graph(context) if context else model.default
                if op == OP_ADD:
                    graph.add(triple)
                else:
                    graph.remove(triple)
            assert folding.to_nquads() == serialize_nquads(model)
            if folding.info()["overlay_ops"] < overlay:  # it folded
                before_fold = (snapshot, dump)
        assert before_fold is not None
        snapshot, dump = before_fold
        assert serialize_nquads(snapshot) == dump

    def test_compact_changes_no_dump_and_no_older_snapshot(self):
        store = QuadStore()
        for batch in _random_commits(13, 20):
            store.commit(batch)
        store.compact()  # a base to fold the next overlay into
        for batch in _random_commits(17, 10):
            store.commit(batch)
        snapshot, dump = store.dataset_snapshot(), store.to_nquads()
        old_base = store._state.contexts[None].base
        assert store.compact()["folded_contexts"] == 2
        assert store.info()["overlay_ops"] == 0
        assert store.to_nquads() == dump
        assert serialize_nquads(snapshot) == dump
        # the new base is the old one thawed, not a second copy: what
        # the overlay did not touch is the same container in both
        new_base = store._state.contexts[None].base
        assert new_base is not old_base
        shared = [
            subject for subject in old_base._spo
            if new_base._spo.get(subject) is old_base._spo[subject]
        ]
        assert shared

    def test_first_bulk_load_becomes_the_base(self, monkeypatch):
        monkeypatch.setattr(engine, "OVERLAY_LIMIT", 8)
        store = QuadStore()
        batch = WriteBatch().add_all(_triple(i) for i in range(20))
        store.commit(batch)
        assert store.info()["overlay_ops"] == 0
        assert store.size == 20
        assert set(store.head().triples()) == {
            _triple(i) for i in range(20)
        }
        # and it is a base like any other: the next commits overlay it
        store.insert(_triple(99))
        store.remove(_triple(3))
        assert store.size == 20
        assert _triple(3) not in store.head()


class TestSyncDataset:
    def test_sync_is_one_generation_and_idempotent(self):
        store = QuadStore()
        dataset = Dataset()
        dataset.default.add(_triple(1))
        dataset.graph(URIRef(EX + "g1")).add(_triple(2))
        first = store.sync_dataset(dataset)
        assert first == 1
        assert store.size == 2
        # identical dataset → nothing to reconcile, no new generation
        assert store.sync_dataset(dataset) == first

    def test_sync_removes_vanished_quads(self):
        store = QuadStore()
        dataset = Dataset()
        dataset.default.add(_triple(1))
        dataset.default.add(_triple(2))
        store.sync_dataset(dataset)
        smaller = Dataset()
        smaller.default.add(_triple(1))
        store.sync_dataset(smaller)
        assert store.size == 1
        assert store.head()._contains(*_triple(1))


class TestReconcile:
    G1 = URIRef(EX + "g1")

    @staticmethod
    def _committed(store, monkeypatch):
        """The op lists the store commits, one per commit."""
        seen = []
        commit = QuadStore.commit

        def recording(self, batch):
            seen.append(list(batch.ops))
            return commit(self, batch)

        monkeypatch.setattr(QuadStore, "commit", recording)
        return seen

    def test_reads_each_collection_in_place(self, monkeypatch):
        store = QuadStore()
        store.insert(_triple(0), URIRef(EX + "other"))
        store.insert(_triple(1))
        store.insert(_triple(2))
        graph = Dataset().graph(self.G1)
        graph.add_all([_triple(7, "b"), _triple(7, "a"), _triple(3)])
        wanted = {None: {_triple(2): 1, _triple(9): 1, _triple(5): 1},
                  self.G1: graph}
        committed = self._committed(store, monkeypatch)
        generation = store.reconcile(wanted)
        assert (generation, store.generation) == (4, 4)
        # a context's removals, then its additions in term order; the
        # context no one named is left alone
        assert committed == [[
            (OP_REMOVE, _triple(1), None),
            (OP_ADD, _triple(5), None),
            (OP_ADD, _triple(9), None),
            (OP_ADD, _triple(3), self.G1),
            (OP_ADD, _triple(7, "a"), self.G1),
            (OP_ADD, _triple(7, "b"), self.G1),
        ]]
        assert store.reconcile(wanted) == generation
        assert store.size == 7

    def test_sync_dataset_is_reconcile_of_its_graphs(self, monkeypatch):
        rng = random.Random(3)
        dataset = Dataset()
        for i in rng.sample(range(200), 60):
            dataset.default.add(_triple(i, str(rng.random())))
        for i in rng.sample(range(200), 40):
            dataset.graph(self.G1).add(_triple(i, str(i % 7)))
        synced, reconciled = QuadStore(), QuadStore()
        committed = self._committed(synced, monkeypatch)
        synced.sync_dataset(dataset)
        reconciled.reconcile({
            None: set(dataset.default), self.G1: dataset.graph(self.G1),
        })
        assert synced.to_nquads() == reconciled.to_nquads()
        # additions come as sorting the triples themselves orders them
        assert [triple for _, triple, _ in committed[0]] == (
            sorted(dataset.default) + sorted(dataset.graph(self.G1))
        )


class TestStatistics:
    def test_statistics_maintained_incrementally(self):
        """Commits keep the cached snapshot in step with a fresh
        collection pass — without full rebuilds."""
        store = QuadStore()
        city = URIRef(EX + "City")
        batch = store.batch()
        for i in range(5):
            batch.insert((URIRef(f"{EX}s{i}"), RDF.type, city))
        store.commit(batch)
        stats = store.statistics()
        assert stats.class_counts[city] == 5

        from repro.analysis.stats import GraphStatistics

        store.remove((URIRef(EX + "s0"), None, None))
        fresh_view = store.head()
        maintained = store.statistics()
        assert maintained.class_counts[city] == 4
        # the carried view is the head state's
        assert GraphStatistics.current(fresh_view) is maintained

        reference = GraphStatistics.collect(fresh_view)
        assert maintained.total == reference.total
        assert maintained.class_counts == reference.class_counts
        assert maintained.predicates == reference.predicates


class TestMisc:

    def test_context_coercion_rejects_garbage(self):
        store = QuadStore()
        with pytest.raises(TypeError):
            store.insert(_triple(1), context=123)

    def test_info_shape(self):
        store = QuadStore(name="mem")
        store.insert(_triple(1))
        info = store.info()
        assert info["name"] == "mem"
        assert info["directory"] is None
        assert info["generation"] == 1
        assert info["quads"] == 1
        assert "wal" not in info  # in-memory store does no file IO

    def test_info_skips_a_snapshot_pruned_after_the_listing(
        self, tmp_path, monkeypatch
    ):
        """Regression: the background checkpointer unlinks superseded
        snapshots; one that vanished between ``snapshot_files()`` and
        the ``stat()`` made ``info()`` die with FileNotFoundError."""
        from repro.store import engine

        store = QuadStore(tmp_path / "s")
        store.insert(_triple(1))
        kept = store.checkpoint()
        listing = engine.snapshot_files(store.directory)
        gone = store.directory / "snapshot-000000000000.nq"
        monkeypatch.setattr(
            engine, "snapshot_files",
            lambda directory: [(0, gone)] + listing,
        )
        info = store.info()
        assert [s["path"] for s in info["snapshots"]] == [str(kept)]
        store.close()

    def test_store_error_is_value_error(self):
        assert issubclass(StoreError, ValueError)

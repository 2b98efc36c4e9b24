"""A crash model for the durable store: a hypothesis state machine.

The model is a dict of sets (context -> triples) plus the canonical
N-Quads text of every generation it acknowledged. The machine drives a
durable :class:`QuadStore` through ``WriteBatch`` commits, pattern
removes, checkpoints, compactions and crash-copy reopens (the directory
copied while the store is open, as a crash would leave it), and checks
after every step:

* the store's content is the model's, byte for byte;
* every snapshot file on disk holds exactly the canonical N-Quads of
  the generation its name carries.

A reopen must land on the last acknowledged generation.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.rdf.nquads import serialize_quad
from repro.rdf.terms import Literal, URIRef
from repro.store import QuadStore, WriteBatch, snapshot_files

EX = "http://example.org/"
CONTEXTS = (None, URIRef(EX + "g1"), URIRef(EX + "g2"))
SUBJECTS = tuple(URIRef(f"{EX}s{i}") for i in range(4))
OBJECTS = (Literal("a"), Literal("b", lang="en"), URIRef(EX + "o"))
P = URIRef(EX + "p")

_ops = st.lists(
    st.tuples(
        st.sampled_from("+-"),
        st.sampled_from(SUBJECTS),
        st.sampled_from(OBJECTS),
        st.sampled_from(CONTEXTS),
    ),
    min_size=1,
    max_size=6,
)


class DurableStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="crash-model-"))
        self.copies = 0
        self.directory = self.root / "store"
        self.store = QuadStore(self.directory)
        self.model = {key: set() for key in CONTEXTS}
        self.generation = 0
        #: canonical N-Quads of every acknowledged generation
        self.canonical = {0: ""}

    def _canonical(self):
        lines = sorted(
            serialize_quad(triple + (key,))
            for key, triples in self.model.items()
            for triple in triples
        )
        return "\n".join(lines) + ("\n" if lines else "")

    def _acknowledge(self, generation, effective):
        """A commit with any effective op is the next generation; one
        without is no generation at all."""
        assert generation == self.generation + (1 if effective else 0)
        self.generation = generation
        self.canonical[generation] = self._canonical()

    @rule(ops=_ops)
    def commit(self, ops):
        batch = WriteBatch()
        effective = 0
        for op, s, o, key in ops:
            triple = (s, P, o)
            present = triple in self.model[key]
            if op == "+":
                batch.insert(triple, key)
                self.model[key].add(triple)
                effective += not present
            else:
                batch.remove(triple, key)
                self.model[key].discard(triple)
                effective += present
        self._acknowledge(self.store.commit(batch), effective)

    @rule(subject=st.sampled_from(SUBJECTS), key=st.sampled_from(CONTEXTS))
    def remove(self, subject, key):
        removed = {t for t in self.model[key] if t[0] == subject}
        assert self.store.remove((subject, None, None), key) == len(removed)
        self.model[key] -= removed
        self._acknowledge(self.store.generation, len(removed))

    @rule()
    def checkpoint(self):
        path = self.store.checkpoint()
        assert path.name == f"snapshot-{self.generation:09d}.nq"

    @rule()
    def compact(self):
        self.store.compact()

    @precondition(lambda self: self.copies < 4)
    @rule()
    def crash_copy_reopen(self):
        self.copies += 1
        copy = self.root / f"copy-{self.copies}"
        shutil.copytree(self.directory, copy)
        self.store.close()
        self.directory = copy
        self.store = QuadStore(copy)
        assert self.store.generation == self.generation

    @invariant()
    def content_is_the_model(self):
        assert self.store.to_nquads() == self.canonical[self.generation]

    @invariant()
    def every_snapshot_is_its_generation(self):
        for generation, path in snapshot_files(self.directory):
            assert path.read_text(encoding="utf-8") == (
                self.canonical[generation]
            )

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)


DurableStoreMachine.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestDurableStore = DurableStoreMachine.TestCase

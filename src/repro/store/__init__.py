"""Pluggable MVCC quad-store: WAL + snapshots + generation-stamped reads.

Concurrency: thread-safe

The storage engine extracted out of :class:`repro.rdf.graph.Graph`
(ROADMAP: "durable, concurrent quad-store backend"):

* :class:`QuadStore` — the engine: immutable published states,
  single-writer commits, per-context base+overlay segments, in-memory
  compaction, incremental planner statistics.
* :class:`SnapshotGraph` / :class:`SnapshotDataset` — generation-pinned
  read views the SPARQL evaluator and planner run against.
* :class:`WriteBatch` — the one way in: ordered quad ops that
  ``QuadStore.commit``/``apply`` turn into one generation and one WAL
  record (``insert``/``remove`` are one-op conveniences,
  ``sync_dataset`` the bulk loader over the same path).
* :class:`WriteAheadLog` / snapshot files — durability; opening a store
  directory *is* crash recovery (newest snapshot + sealed WAL segments +
  WAL tail, torn tail truncated, a generation gap refused).
* :class:`CheckpointPolicy` — opt-in automatic checkpointing: WAL-byte
  and op-count watermarks evaluated after each commit trigger a
  background checkpoint (seal the WAL, merge it into the next
  snapshot off the commit lock), bounding restart replay without
  explicit ``compact()`` calls (the default stays explicit-only).
* :class:`GroupCommitQueue` — opt-in group commit
  (``QuadStore(..., group_commit=True)``): concurrent writers coalesce
  into one WAL append / fsync / published generation per group, each
  submitter still observing its serial-equivalent result.

The ``repro store`` CLI (``info``/``compact``/``recover``/``load``/
``dump``, plus the ``--checkpoint-ops``/``--checkpoint-wal-bytes``/
``--group-commit`` policy flags) administers store directories;
``repro_store_*`` metrics in :mod:`repro.obs` expose generations, WAL
traffic, compactions, automatic checkpoints and group-commit batching.
"""

from .engine import (
    CheckpointPolicy,
    GroupCommitQueue,
    QuadStore,
    SnapshotDataset,
    SnapshotGraph,
    StoreError,
    WriteBatch,
)
from .persistence import RecoveryReport, snapshot_files
from .wal import WalScan, WriteAheadLog, scan_wal

__all__ = [
    "CheckpointPolicy",
    "GroupCommitQueue",
    "QuadStore",
    "RecoveryReport",
    "SnapshotDataset",
    "SnapshotGraph",
    "StoreError",
    "WalScan",
    "WriteAheadLog",
    "WriteBatch",
    "scan_wal",
    "snapshot_files",
]

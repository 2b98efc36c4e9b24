"""Snapshot files, sealed WAL segments and recovery bookkeeping.

Concurrency: single-threaded

A *snapshot* is the full store content at one generation, written as
canonical N-Quads (sorted lines, trailing newline) to
``snapshot-<generation, 9 digits>.nq``. Snapshots are written atomically
— streamed to a temp file, flushed, ``fsync``-ed, renamed into place,
then the *parent directory* is ``fsync``-ed — so a crash mid-checkpoint
leaves the previous snapshot intact, and a power loss after the rename
cannot un-rename it (the rename itself lives in the directory entry,
which only the directory fsync makes durable).

A checkpoint never serializes the store: it *seals* the live WAL
(``wal.log`` renamed to ``wal.log.<generation, 9 digits>``) and builds
the next snapshot from the previous one plus the sealed segments'
op lines (:func:`merge_snapshot`). A canonical line stands for exactly
one quad, so the previous snapshot's lines minus the removed ones,
merged with the sorted added ones, *are* the canonical N-Quads of the
sealed generation. Restart cost is ``O(snapshot + segments + WAL
tail)``: the engine loads the newest readable snapshot and replays the
sealed segments in ascending order, then ``wal.log``, skipping records
the snapshot already holds.
"""

from __future__ import annotations

import bisect
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    AbstractSet,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..rdf.graph import Graph
from ..rdf.namespace import NamespaceManager
from ..rdf.nquads import parse_nquads
from ..rdf.terms import URIRef

__all__ = [
    "WAL_FILENAME",
    "RecoveryReport",
    "fsync_directory",
    "load_snapshot",
    "merge_snapshot",
    "prune_snapshots",
    "sealed_segments",
    "segment_path",
    "snapshot_files",
    "snapshot_generation",
    "snapshot_path",
    "write_snapshot",
]

#: The live WAL file inside a store directory.
WAL_FILENAME = "wal.log"

#: Bytes of the base snapshot a checkpoint's merge reads at a time.
MERGE_CHUNK_BYTES = 1 << 18

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{9})\.nq$")
_SEGMENT_RE = re.compile(r"^wal\.log\.(\d{9})$")

#: Identifier given to the default-context base graph.
DEFAULT_GRAPH_IRI = URIRef("urn:graph:default")


def fsync_directory(directory: Path) -> None:
    """Flush a directory's entries (renames, truncates) to disk.

    File-content fsyncs do not make *namespace* operations durable: a
    rename or truncate lives in the directory, and a power loss can
    roll it back unless the directory itself is fsync-ed. Platforms
    whose filesystems cannot open directories (Windows) silently skip —
    there the rename durability is the filesystem's business.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def snapshot_path(directory: Path, generation: int) -> Path:
    return directory / f"snapshot-{generation:09d}.nq"


def snapshot_generation(path: Path) -> int:
    """The generation a snapshot file's name carries."""
    match = _SNAPSHOT_RE.match(path.name)
    if match is None:
        raise ValueError(f"{path.name} is not a snapshot file name")
    return int(match.group(1))


def segment_path(directory: Path, generation: int) -> Path:
    """Where the WAL sealed at ``generation`` lives."""
    return directory / f"{WAL_FILENAME}.{generation:09d}"


def _numbered(
    directory: Path, pattern: "re.Pattern[str]"
) -> List[Tuple[int, Path]]:
    found: List[Tuple[int, Path]] = []
    if not directory.is_dir():
        return found
    for entry in directory.iterdir():
        match = pattern.match(entry.name)
        if match is not None:
            found.append((int(match.group(1)), entry))
    found.sort()
    return found


def snapshot_files(directory: Path) -> List[Tuple[int, Path]]:
    """All snapshot files in ``directory``, ascending by generation."""
    return _numbered(directory, _SNAPSHOT_RE)


def sealed_segments(directory: Path) -> List[Tuple[int, Path]]:
    """All sealed WAL segments in ``directory``, ascending by the
    generation they were sealed at."""
    return _numbered(directory, _SEGMENT_RE)


def merge_snapshot(
    base: Optional[Path],
    added: AbstractSet[str],
    removed: AbstractSet[str],
) -> Iterator[List[str]]:
    """The canonical lines of ``base`` without ``removed``, merged with
    ``added``: streamed in sorted order, in chunks of about
    :data:`MERGE_CHUNK_BYTES` of the base.

    Every line ends in a newline. ``base`` is a snapshot file (``None``
    for the empty store); ``added`` must be disjoint from it and
    ``removed`` a subset of it, which the caller checks by counting the
    lines that come out. Only the delta and one chunk are held in
    memory, and no Python code runs per line but the removal filter's
    comprehension: a checkpoint runs beside commits and shares the
    interpreter with them.
    """
    adds = sorted(added)
    taken = 0
    if base is not None:
        with open(base, "r", encoding="utf-8") as handle:
            while True:
                chunk = handle.readlines(MERGE_CHUNK_BYTES)
                if not chunk:
                    break
                if removed:
                    chunk = [line for line in chunk if line not in removed]
                    if not chunk:
                        continue
                # the adds that sort before the chunk's last line belong
                # in it: two sorted runs, which the sort merges in C
                cut = bisect.bisect_right(adds, chunk[-1], taken)
                if cut > taken:
                    chunk += adds[taken:cut]
                    chunk.sort()
                    taken = cut
                yield chunk
    yield adds[taken:]


def write_snapshot(
    directory: Path, generation: int, chunks: Iterable[List[str]]
) -> Path:
    """Atomically write canonical N-Quads for ``generation``.

    ``chunks`` are lists of newline-terminated statements, together in
    sorted order, so equal store contents always produce byte-identical
    files; they are streamed to the temp file as they come. If producing
    them raises, the temp file is removed and no snapshot appears.
    """
    final = snapshot_path(directory, generation)
    tmp = directory / (final.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            for chunk in chunks:
                handle.writelines(chunk)
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, final)
    # the rename is only durable once the directory entry is flushed
    fsync_directory(directory)
    return final


def prune_snapshots(directory: Path, keep_generation: int) -> List[Path]:
    """Delete snapshot files older than ``keep_generation``."""
    removed: List[Path] = []
    for generation, path in snapshot_files(directory):
        if generation < keep_generation:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                continue
            removed.append(path)
    return removed


def load_snapshot(
    path: Path, namespaces: Optional[NamespaceManager] = None
) -> Tuple[Dict[Optional[URIRef], Graph], int]:
    """Parse a snapshot file into per-context base graphs.

    Returns ``(contexts, quad_count)`` where the ``None`` key is the
    default context. Raises on malformed content — the engine treats
    an unreadable snapshot as absent and falls back to an older one.
    """
    namespaces = namespaces or NamespaceManager()
    contexts: Dict[Optional[URIRef], Graph] = {}
    count = 0
    for s, p, o, g in parse_nquads(path.read_text(encoding="utf-8")):
        graph = contexts.get(g)
        if graph is None:
            graph = Graph(g if g is not None else DEFAULT_GRAPH_IRI,
                          namespaces)
            contexts[g] = graph
        graph.insert((s, p, o))
        count += 1
    return contexts, count


@dataclass
class RecoveryReport:
    """What one store open found on disk and did about it."""

    directory: str
    snapshot_path: Optional[str] = None
    snapshot_generation: int = 0
    snapshot_quads: int = 0
    #: snapshots that failed to parse and were skipped (newest first)
    snapshot_errors: List[str] = field(default_factory=list)
    batches_replayed: int = 0
    ops_replayed: int = 0
    torn_bytes: int = 0
    torn_reason: Optional[str] = None
    #: the generation the store resumed at
    generation: int = 0

    @property
    def clean(self) -> bool:
        """True when nothing had to be repaired or skipped."""
        return self.torn_bytes == 0 and not self.snapshot_errors

    def as_dict(self) -> dict:
        return {
            "directory": self.directory,
            "snapshot": self.snapshot_path,
            "snapshot_generation": self.snapshot_generation,
            "snapshot_quads": self.snapshot_quads,
            "snapshot_errors": list(self.snapshot_errors),
            "batches_replayed": self.batches_replayed,
            "ops_replayed": self.ops_replayed,
            "torn_bytes": self.torn_bytes,
            "torn_reason": self.torn_reason,
            "generation": self.generation,
            "clean": self.clean,
        }

    def render(self) -> str:
        lines = [
            f"directory:         {self.directory}",
            f"snapshot:          {self.snapshot_path or '(none)'}",
            f"snapshot gen:      {self.snapshot_generation}",
            f"batches replayed:  {self.batches_replayed}"
            f" ({self.ops_replayed} ops)",
            f"resumed at gen:    {self.generation}",
        ]
        if self.torn_bytes:
            lines.append(
                f"torn tail:         {self.torn_bytes} bytes truncated"
                f" ({self.torn_reason})"
            )
        for error in self.snapshot_errors:
            lines.append(f"skipped snapshot:  {error}")
        if self.clean:
            lines.append("state:             clean")
        return "\n".join(lines)

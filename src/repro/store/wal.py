"""Append-only write-ahead log of quad deltas.

Concurrency: single-writer

The WAL is the durability half of the MVCC quad-store
(:mod:`repro.store.engine`): every committed generation appends one
*record* before the new state is published, so replay after a crash
reconstructs exactly the committed history. The format is line-oriented
UTF-8 text reusing the N-Quads term serialization that snapshot files
use, which keeps the two on-disk artifacts inspectable with the same
tooling::

    B <generation> <nops>
    + <subject> <predicate> <object> [<graph>] .
    - <subject> <predicate> <object> [<graph>] .
    C <generation> <crc32 as 8 hex digits>

A record is only *committed* once its ``C`` line is present with the
right generation and a CRC-32 matching the op lines. :func:`scan_wal`
accepts records strictly in order and stops at the first malformed,
uncommitted or CRC-failing record: everything after that point is a
*torn tail* (a crash mid-append) and is reported so the engine can
truncate it away — a partially written batch is never half-applied.

A checkpoint *seals* the log (:meth:`WriteAheadLog.seal`): the live
``wal.log`` is renamed to ``wal.log.<generation, 9 digits>`` and a fresh
one opened, so commits continue into the new file while the sealed
segment is folded into the next snapshot (:func:`segment_delta` reads
its op lines without parsing them into terms). A sealed segment is
complete by construction — it was fsync-ed before the rename — so
recovery treats a torn sealed segment as damage, not as a crash tail.

The engine serializes ``append``/``seal`` calls under its commit lock;
this module takes no locks of its own. ``seal`` does the only file
opens after construction: one per checkpoint, for the fresh log.

Durability guarantee: ``seal`` and :func:`truncate_wal` fsync the log
*and then the parent directory*, so a power loss after either cannot
undo the rename or the truncate — without the directory fsync the
filesystem may replay the metadata journal without it, and recovery
would re-trust a torn tail that was already cut, or find post-seal
records under the sealed segment's name.
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, List, Optional, Sequence, Set, Tuple, Union

from ..rdf.nquads import Quad, parse_nquads_line, serialize_quad
from ..rdf.ntriples import NTriplesError
from .persistence import fsync_directory, segment_path

__all__ = [
    "OP_ADD",
    "OP_REMOVE",
    "WalBatch",
    "WalOp",
    "WalScan",
    "WriteAheadLog",
    "scan_wal",
    "segment_delta",
    "truncate_wal",
]

#: Op codes as they appear at the start of WAL op lines.
OP_ADD = "+"
OP_REMOVE = "-"

#: One logged operation: ``("+" | "-", quad)``.
WalOp = Tuple[str, Quad]


@dataclass
class WalBatch:
    """One committed record: a generation and its ordered quad ops.

    With ``scan_wal(..., parse=False)`` each op carries the canonical
    N-Quads line of its quad (no newline) instead of the parsed quad.
    """

    generation: int
    ops: List[Tuple[str, Any]]


@dataclass
class WalScan:
    """Result of scanning a WAL file up to the last committed record.

    ``valid_bytes`` is the prefix length holding only committed
    records; anything beyond it (``torn_bytes``) must be truncated
    before the log is appended to again.
    """

    batches: List[WalBatch] = field(default_factory=list)
    valid_bytes: int = 0
    torn_bytes: int = 0
    torn_reason: Optional[str] = None

    @property
    def last_generation(self) -> Optional[int]:
        return self.batches[-1].generation if self.batches else None


def _crc_line(digest: int, line: str) -> int:
    return zlib.crc32(line.encode("utf-8"), digest)


def scan_wal(path: Union[str, Path], *, parse: bool = True) -> WalScan:
    """Read every committed record of ``path``; tolerate a torn tail.

    Never raises on bad content: corruption anywhere marks the rest of
    the file torn (with a reason) rather than failing recovery. With
    ``parse=False`` the op quads stay canonical lines (CRC-checked, not
    parsed into terms).
    """
    path = Path(path)
    scan = WalScan()
    if not path.exists():
        return scan
    data = path.read_bytes()
    total = len(data)

    # (raw line bytes, byte offset of the line's end incl. newline)
    spans: List[Tuple[bytes, int]] = []
    cursor = 0
    pieces = data.split(b"\n")
    for j, raw in enumerate(pieces):
        cursor += len(raw) + (1 if j < len(pieces) - 1 else 0)
        spans.append((raw, cursor))

    def fail(reason: str) -> WalScan:
        scan.torn_bytes = total - scan.valid_bytes
        scan.torn_reason = reason
        return scan

    def decode(raw: bytes) -> Optional[str]:
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            return None

    i = 0
    while i < len(spans):
        raw, end = spans[i]
        text = decode(raw)
        if text is None:
            return fail("undecodable bytes")
        header = text.strip()
        if not header:
            # blank line between records (or the empty fragment after a
            # final newline): consume as valid padding
            scan.valid_bytes = end
            i += 1
            continue
        parts = header.split()
        if len(parts) != 3 or parts[0] != "B":
            return fail(f"expected batch header, got {header[:40]!r}")
        try:
            generation = int(parts[1])
            nops = int(parts[2])
        except ValueError:
            return fail("malformed batch header")
        if generation <= 0 or nops < 0:
            return fail("malformed batch header")
        last = scan.last_generation
        if last is not None and generation <= last:
            return fail("non-monotonic generation")

        digest = 0
        ops: List[WalOp] = []
        j = i + 1
        for _ in range(nops):
            if j >= len(spans):
                return fail("incomplete record")
            op_raw, _ = spans[j]
            op_text = decode(op_raw)
            if op_text is None:
                return fail("undecodable bytes")
            op_line = op_text.rstrip("\r")
            if (
                len(op_line) < 2
                or op_line[0] not in (OP_ADD, OP_REMOVE)
                or op_line[1] != " "
            ):
                return fail("malformed op line")
            quad: Any = op_line[2:]
            if parse:
                try:
                    quad = parse_nquads_line(quad, lineno=j + 1)
                except (NTriplesError, ValueError):
                    return fail("unparseable op quad")
            digest = zlib.crc32(op_raw.rstrip(b"\r"), digest)
            ops.append((op_line[0], quad))
            j += 1

        if j >= len(spans):
            return fail("incomplete record")
        commit_raw, commit_end = spans[j]
        commit_text = decode(commit_raw)
        if commit_text is None:
            return fail("undecodable bytes")
        cparts = commit_text.strip().split()
        if len(cparts) != 3 or cparts[0] != "C":
            return fail("missing commit marker")
        expected = f"{digest & 0xFFFFFFFF:08x}"
        if (
            cparts[1] != str(generation)
            or len(cparts[2]) != 8
            or cparts[2].lower() != expected
        ):
            return fail("commit marker mismatch")

        scan.batches.append(WalBatch(generation, ops))
        scan.valid_bytes = commit_end
        i = j + 1

    scan.torn_bytes = total - scan.valid_bytes
    return scan


def truncate_wal(path: Union[str, Path], valid_bytes: int) -> int:
    """Cut a torn tail off ``path``; returns the bytes removed."""
    path = Path(path)
    if not path.exists():
        return 0
    size = path.stat().st_size
    if valid_bytes >= size:
        return 0
    with open(path, "r+b") as handle:
        handle.truncate(valid_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    # make the truncate itself durable (see the module docstring)
    fsync_directory(path.parent)
    return size - valid_bytes


def segment_delta(
    segments: Sequence[Path], after: int, upto: int
) -> Tuple[Set[str], Set[str]]:
    """The net line-level delta of the records in generations
    ``(after, upto]`` of the sealed ``segments`` (ascending).

    Returns ``(added, removed)``: newline-terminated canonical lines. A
    ``+`` then ``-`` of the same line (or the reverse) cancels, so
    ``added`` holds lines the snapshot at ``after`` lacks and ``removed``
    lines it holds. Raises ``ValueError`` on a damaged segment.
    """
    added: Set[str] = set()
    removed: Set[str] = set()
    for path in segments:
        scan = scan_wal(path, parse=False)
        if scan.torn_bytes:
            raise ValueError(
                f"sealed WAL segment {path.name} is damaged at byte "
                f"{scan.valid_bytes}: {scan.torn_reason}"
            )
        for batch in scan.batches:
            if not after < batch.generation <= upto:
                continue
            for op, text in batch.ops:
                line = text + "\n"
                if op == OP_ADD:
                    if line in removed:
                        removed.discard(line)
                    else:
                        added.add(line)
                elif line in added:
                    added.discard(line)
                else:
                    removed.add(line)
    return added, removed


class WriteAheadLog:
    """Single-writer append handle over one WAL file.

    The engine calls :meth:`append` and :meth:`seal` under its commit
    lock; the handle is opened eagerly here (at store construction,
    outside any lock) and reused for every append until a seal opens
    the next one. With ``sync=True`` every
    record is ``fsync``-ed before the commit is acknowledged —
    crash-durable at the cost of one disk flush per batch; the default
    flushes to the OS only (survives process death, not power loss).
    """

    def __init__(self, path: Union[str, Path], *, sync: bool = False) -> None:
        self.path = Path(path)
        self.sync = sync
        #: records / bytes appended through this handle (this process).
        self.records = 0
        self.bytes_written = 0
        #: seconds the last ``append`` spent in ``os.fsync`` (0.0 when
        #: ``sync=False``) — read by the engine's telemetry after each
        #: commit so fsync stalls are attributable without this module
        #: importing the metrics registry.
        self.last_fsync_seconds = 0.0
        self._handle: Optional[IO[bytes]] = open(self.path, "ab")
        #: bytes in the live log since the last seal — what a restart
        #: would have to replay; maintained in memory so the engine's
        #: checkpoint policy never stats the file on the commit path.
        self.tail_bytes = self._handle.tell()
        if self._handle.tell() > 0:
            # Guarantee appends start on a line boundary even when a
            # previous process died between a commit marker and its
            # newline (scan accepts such a record; appending to it
            # directly would corrupt it).
            with open(self.path, "rb") as probe:
                probe.seek(-1, os.SEEK_END)
                trailing = probe.read(1)
            if trailing != b"\n":
                self._handle.write(b"\n")
                self._handle.flush()
                self.tail_bytes += 1

    def append(self, generation: int, ops: Sequence[WalOp]) -> int:
        """Append one committed batch; returns the bytes written."""
        if self._handle is None:
            raise ValueError(f"WAL {self.path} is closed")
        op_lines = [f"{op} {serialize_quad(quad)}" for op, quad in ops]
        digest = 0
        for line in op_lines:
            digest = _crc_line(digest, line)
        record = "".join(
            [f"B {generation} {len(op_lines)}\n"]
            + [line + "\n" for line in op_lines]
            + [f"C {generation} {digest & 0xFFFFFFFF:08x}\n"]
        )
        payload = record.encode("utf-8")
        self._handle.write(payload)
        self._handle.flush()
        if self.sync:
            fsync_began = time.perf_counter()
            os.fsync(self._handle.fileno())
            self.last_fsync_seconds = time.perf_counter() - fsync_began
        else:
            self.last_fsync_seconds = 0.0
        self.records += 1
        self.bytes_written += len(payload)
        self.tail_bytes += len(payload)
        return len(payload)

    def seal(self, generation: int) -> Path:
        """Close the live log as the segment of ``generation`` (the
        head) and continue in a fresh one; returns the segment's path.

        Flushes and fsyncs the log whatever ``sync`` says, renames it to
        ``wal.log.<generation>``, opens a fresh ``wal.log`` and fsyncs
        the directory: once this returns, every record up to
        ``generation`` is in the sealed segment and nothing after it.
        If that segment already exists — a store reopened after a seal
        with no commit since — the live log holds no record and stays.
        """
        if self._handle is None:
            raise ValueError(f"WAL {self.path} is closed")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        sealed = segment_path(self.path.parent, generation)
        if not sealed.exists():
            self._handle.close()
            try:
                os.replace(self.path, sealed)
            finally:
                # the fresh log, or the same one again if the rename
                # failed: the store keeps accepting commits either way
                self._handle = open(self.path, "ab")
            fsync_directory(self.path.parent)
        self.tail_bytes = 0
        return sealed

    def size(self) -> int:
        """Current on-disk size of the log file."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WriteAheadLog({str(self.path)!r}, records={self.records})"

"""On-disk batch-update traces.

A trace is a plain text file, one batch per line::

    # comments and blank lines are ignored
    I 0 1 0 2 1 2     <- insert batch {(0,1), (0,2), (1,2)}
    D 0 1             <- delete batch {(0,1)}

The format is deliberately trivial: it round-trips through
:func:`write_trace`/:func:`read_trace`, diffs cleanly, and any external
tool (or the CLI's ``generate`` subcommand) can produce it.

Sealed traces end with an integrity footer::

    # repro-trace-end batches=12 crc32=1a2b3c4d

covering every byte before it.  :func:`read_trace` verifies the footer
when present (truncated or corrupt files raise
:class:`~repro.errors.TraceError`) and tolerates its absence for
hand-written traces; ``strict=True`` demands it — for consumers that
must never replay a torn stream silently (the out-of-core replays of
``repro run`` and E23).  :class:`TraceWriter` appends batches incrementally
(flushing each line, WAL-style) and writes the footer on ``close``.

Two reading disciplines:

* :func:`read_trace` materialises the whole stream (CRC verified against
  the full body *before* any batch is returned) — the all-or-nothing
  mode for small traces and repro artifacts.
* :func:`iter_trace` is the out-of-core path: the file is consumed in
  bounded byte chunks, the CRC is folded incrementally per chunk, and
  batches are yielded as they parse.  Memory stays O(chunk + one batch)
  no matter how long the trace is — the 10^6-edge scenario streams of
  docs/SCENARIOS.md never exist in memory at once.  Corruption is
  reported at the footer (truncation in ``strict`` mode at exhaustion),
  so consumers that must not observe a torn prefix either apply batches
  through a transactional layer (the recovery manager) or use
  :func:`read_trace`.  :func:`scan_trace` is the matching streaming
  validator: one bounded-memory pass returning the stream's shape.
"""

from __future__ import annotations

import os
import pathlib
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from ..errors import BatchError, TraceError
from .graph import norm_edge
from .streams import BatchOp

_FOOTER_PREFIX = "# repro-trace-end "


def _footer(batches: int, crc: int) -> str:
    return f"{_FOOTER_PREFIX}batches={batches} crc32={crc & 0xFFFFFFFF:08x}"


def _format_op(op: BatchOp) -> str:
    letter = "I" if op.kind == "insert" else "D"
    flat = " ".join(f"{u} {v}" for u, v in op.edges)
    return f"{letter} {flat}"


def write_trace(
    ops: Iterable[BatchOp], path: str | pathlib.Path, footer: bool = True
) -> int:
    """Write a stream to a trace file; returns the number of batches.

    With ``footer=True`` (the default) the file is sealed with the
    integrity footer; pass ``footer=False`` for the bare legacy format.
    """
    lines = [_format_op(op) for op in ops]
    body = "\n".join(lines) + ("\n" if lines else "")
    text = body
    if footer:
        text += _footer(len(lines), zlib.crc32(body.encode())) + "\n"
    pathlib.Path(path).write_text(text)
    return len(lines)


class TraceWriter:
    """Incremental (write-ahead-log style) trace writer.

    Each :meth:`append` writes and flushes one batch line, so a crash
    loses at most the batch being written — and the missing footer marks
    the file as unsealed, which ``read_trace(strict=True)`` reports as a
    :class:`~repro.errors.TraceError` instead of silently replaying a
    torn log.  :meth:`close` seals the file with the integrity footer.

    ``append=True`` resumes an existing trace instead of truncating it —
    the service-restart move.  A *sealed* trace has its footer verified
    exactly as :func:`read_trace` does, then stripped, and the CRC/batch
    count resumed so later batches extend the body seamlessly (a corrupt
    one raises :class:`~repro.errors.TraceError` untouched).  An
    *unsealed* existing file (a crashed writer's log) resumes in place.
    ``sync=True`` additionally ``fsync``s after every batch — the
    durability level an ingest ack promises.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        *,
        append: bool = False,
        sync: bool = False,
    ) -> None:
        self.path = pathlib.Path(path)
        self._sync = sync
        self._crc = 0
        self.batches = 0
        if append and self.path.exists() and self.path.stat().st_size > 0:
            self._resume()
        else:
            self._fh = open(self.path, "w")

    def _resume(self) -> None:
        """Resume an existing trace file (stripping a verified footer)."""
        text = self.path.read_bytes().decode()
        body, sealed = _split_footer(text, self.path)
        count = len(_parse_body(body, sealed, self.path))
        if sealed is not None:
            # The footer is strictly a suffix of the file, so stripping
            # it is a single in-place truncate — never a truncate-to-zero
            # rewrite, which would leave a kill -9 window where the whole
            # WAL (every previously acked batch) is empty or partial.  A
            # crash before the truncate leaves the sealed file intact (it
            # unseals again on the next start); a crash after leaves a
            # valid unsealed body that recover_trace loads as-is.
            with open(self.path, "rb+") as fh:
                fh.truncate(len(body.encode()))
                os.fsync(fh.fileno())
        self._fh = open(self.path, "a")
        self._crc = zlib.crc32(body.encode())
        self.batches = count

    def append(self, op: BatchOp) -> None:
        if self._fh is None:
            raise TraceError(f"{self.path}: trace already sealed")
        line = _format_op(op) + "\n"
        self._fh.write(line)
        self._fh.flush()
        if self._sync:
            os.fsync(self._fh.fileno())
        self._crc = zlib.crc32(line.encode(), self._crc)
        self.batches += 1

    def close(self) -> None:
        """Seal the trace with the integrity footer (idempotent)."""
        if self._fh is None:
            return
        self._fh.write(_footer(self.batches, self._crc) + "\n")
        self._fh.close()
        self._fh = None

    def abort(self) -> None:
        """Release the file *without* sealing it (idempotent).

        The WAL stays unsealed on disk — the state a recovery pass treats
        as a crashed writer's log.  For callers that must not certify the
        file as complete (e.g. a quarantined tenant whose ladders
        diverged from the WAL) but should not leak the handle either.
        """
        if self._fh is None:
            return
        self._fh.close()
        self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _parse_footer_line(stripped: str, path: object) -> tuple[int, int]:
    """Parse ``(batches, crc)`` out of one footer line (already stripped)."""
    fields = dict(part.split("=", 1) for part in stripped.split() if "=" in part)
    try:
        return int(fields["batches"]), int(fields["crc32"], 16)
    except (KeyError, ValueError) as exc:
        raise TraceError(f"{path}: malformed end-of-trace footer") from exc


def _parse_body_line(line: str, path: object, lineno: int) -> Optional[BatchOp]:
    """Parse one body line into a batch (None for comments/blanks)."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split()
    kind_letter, numbers = parts[0].upper(), parts[1:]
    if kind_letter not in ("I", "D"):
        raise BatchError(f"{path}:{lineno}: unknown batch kind {parts[0]!r}")
    if len(numbers) % 2 != 0 or not numbers:
        raise BatchError(f"{path}:{lineno}: odd number of endpoints")
    try:
        values = [int(x) for x in numbers]
    except ValueError as exc:
        raise BatchError(f"{path}:{lineno}: non-integer endpoint") from exc
    edges = tuple(
        norm_edge(values[i], values[i + 1]) for i in range(0, len(values), 2)
    )
    return BatchOp("insert" if kind_letter == "I" else "delete", edges)


def _split_footer(text: str, path: object) -> tuple[str, Optional[tuple[int, int]]]:
    """Split raw trace text into (body, footer-fields or None)."""
    lines = text.splitlines(keepends=True)
    for i, raw in enumerate(lines):
        if not raw.strip().startswith(_FOOTER_PREFIX.strip()):
            continue
        if any(line.strip() for line in lines[i + 1 :]):
            raise TraceError(f"{path}: content after end-of-trace footer")
        return "".join(lines[:i]), _parse_footer_line(raw.strip(), path)
    return text, None


def read_trace(path: str | pathlib.Path, strict: bool = False) -> list[BatchOp]:
    """Parse a trace file into a list of batch operations.

    When the file carries an end-of-trace footer, the batch count and
    CRC-32 are verified and any mismatch (truncation, corruption, torn
    writes) raises :class:`~repro.errors.TraceError`.  ``strict=True``
    additionally rejects files with no footer at all.
    """
    text = pathlib.Path(path).read_text()
    body, sealed = _split_footer(text, path)
    if sealed is None and strict:
        raise TraceError(
            f"{path}: missing end-of-trace footer — the trace was never "
            "sealed (torn write-ahead log?) or predates the footer format"
        )
    return _parse_body(body, sealed, path)


def _parse_body(
    body: str, sealed: Optional[tuple[int, int]], path: object
) -> list[BatchOp]:
    """Parse a trace body, verifying it against its footer when sealed.

    The CRC is checked before any line parses, so a corrupt body raises
    :class:`~repro.errors.TraceError` rather than a parse error.
    """
    if sealed is not None:
        expected_crc = sealed[1]
        actual_crc = zlib.crc32(body.encode())
        if actual_crc != expected_crc:
            raise TraceError(
                f"{path}: body CRC-32 {actual_crc:08x} does not match the "
                f"footer's {expected_crc:08x} — the trace is corrupt"
            )
    ops: list[BatchOp] = []
    for lineno, raw in enumerate(body.splitlines(), 1):
        op = _parse_body_line(raw, path, lineno)
        if op is not None:
            ops.append(op)
    if sealed is not None and len(ops) != sealed[0]:
        raise TraceError(
            f"{path}: footer promises {sealed[0]} batches but the body "
            f"holds {len(ops)} — the trace is truncated or corrupt"
        )
    return ops


#: Default read-chunk size of :func:`iter_trace` (64 KiB keeps the reader
#: comfortably cache-resident while amortising syscalls over ~1k lines).
DEFAULT_CHUNK_BYTES = 1 << 16


def iter_trace(
    path: str | pathlib.Path,
    strict: bool = False,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Iterator[BatchOp]:
    """Stream a trace file batch by batch in bounded memory.

    The file is read in ``chunk_bytes``-sized chunks; the body CRC-32 is
    folded incrementally as each chunk's lines are consumed and checked
    against the footer when (and if) it is reached, along with the batch
    count.  ``strict=True`` raises :class:`~repro.errors.TraceError` on
    exhaustion if no footer was seen (a torn write-ahead log).

    Unlike :func:`read_trace`, batches are yielded *before* the footer is
    reached, so a corrupt tail is reported only after the intact prefix
    has been consumed.  Callers that must never observe a torn prefix
    should apply batches transactionally (the recovery manager does) or
    fall back to :func:`read_trace`.
    """
    if chunk_bytes < 1:
        raise TraceError(f"{path}: chunk_bytes must be >= 1, got {chunk_bytes}")
    crc = 0
    count = 0
    lineno = 0
    sealed: Optional[tuple[int, int]] = None
    with open(pathlib.Path(path), "rb") as fh:
        pending = b""
        eof = False
        while not eof:
            chunk = fh.read(chunk_bytes)
            if not chunk:
                eof = True
            pending += chunk
            while pending:
                nl = pending.find(b"\n")
                if nl < 0:
                    if not eof:
                        break  # partial line; wait for the next chunk
                    raw, pending = pending, b""
                else:
                    raw, pending = pending[: nl + 1], pending[nl + 1 :]
                lineno += 1
                text = raw.decode()
                stripped = text.strip()
                if sealed is not None:
                    if stripped:
                        raise TraceError(
                            f"{path}: content after end-of-trace footer"
                        )
                    continue
                if stripped.startswith(_FOOTER_PREFIX.strip()):
                    sealed = _parse_footer_line(stripped, path)
                    expected_batches, expected_crc = sealed
                    if (crc & 0xFFFFFFFF) != expected_crc:
                        raise TraceError(
                            f"{path}: body CRC-32 {crc & 0xFFFFFFFF:08x} does "
                            f"not match the footer's {expected_crc:08x} — the "
                            "trace is corrupt"
                        )
                    if count != expected_batches:
                        raise TraceError(
                            f"{path}: footer promises {expected_batches} "
                            f"batches but the body holds {count} — the trace "
                            "is truncated or corrupt"
                        )
                    continue
                crc = zlib.crc32(raw, crc)
                op = _parse_body_line(text, path, lineno)
                if op is not None:
                    count += 1
                    yield op
    if sealed is None and strict:
        raise TraceError(
            f"{path}: missing end-of-trace footer — the trace was never "
            "sealed (torn write-ahead log?) or predates the footer format"
        )


@dataclass(frozen=True)
class TraceInfo:
    """Shape of a trace, computed by one streaming :func:`scan_trace` pass."""

    vertices: int  # 1 + the highest vertex id mentioned (0 if none)
    batches: int
    edge_updates: int
    max_live_edges: int  # high-water mark of the live-edge set


def scan_trace(path: str | pathlib.Path, strict: bool = False) -> TraceInfo:
    """Validate a trace file in one bounded-memory streaming pass.

    The same replayability checks as :func:`validate_trace` (inserts
    absent, deletes present, no in-batch duplicates) run against a live
    set whose size tracks the trace's actual live-edge high-water mark —
    for windowed streams this stays bounded no matter how long the trace
    is.  Returns the stream's shape for callers (``repro run``) that
    previously materialised the whole trace just to size the structures.
    """
    top = batches = updates = high = 0
    for op, top, live in _replay_checked(iter_trace(path, strict=strict)):
        batches += 1
        updates += op.size
        high = max(high, live)
    return TraceInfo(
        vertices=top, batches=batches, edge_updates=updates, max_live_edges=high
    )


def recover_trace(path: str | pathlib.Path) -> tuple[list[BatchOp], int]:
    """Read a write-ahead log tolerating a torn tail (the ``kill -9`` case).

    Returns ``(ops, good_bytes)`` where ``good_bytes`` is the byte length
    of the valid prefix.  Three file states load cleanly:

    * **sealed** (graceful shutdown) — verified like :func:`read_trace`;
    * **unsealed** (crashed writer, clean tail) — every line parses;
    * **torn tail** (killed mid-``append``) — the final line is dropped
      when it lacks its trailing newline or fails to parse.  A batch is
      only ever *acked* after its full line is flushed, so the dropped
      line was never promised to anyone.

    Corruption anywhere before the tail still raises — a torn log loses
    at most the batch being written, never one in the middle.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    text = data.decode()
    body, sealed = _split_footer(text, path)
    if sealed is not None:
        return _parse_body(body, sealed, path), len(data)
    lines = text.splitlines(keepends=True)
    # a final line without its newline is a torn write: never acked.
    if lines and not lines[-1].endswith("\n"):
        lines.pop()
    ops: list[BatchOp] = []
    good = 0
    for lineno, raw in enumerate(lines, 1):
        try:
            op = _parse_body_line(raw, path, lineno)
        except BatchError:
            rest = "".join(lines[lineno:])
            if any(
                line.strip() and not line.strip().startswith("#")
                for line in rest.splitlines()
            ):
                raise  # garbage *before* parseable batches: real corruption
            break  # torn tail: drop the unacked final line
        good += len(raw.encode())
        if op is not None:
            ops.append(op)
    return ops, good


def write_stream(
    ops: Iterable[BatchOp], path: str | pathlib.Path
) -> "TraceWriter":
    """Drain a (possibly huge) stream into a sealed trace, out-of-core.

    Unlike :func:`write_trace` this never materialises the stream: each
    batch is formatted, written and dropped.  Returns the closed writer
    so callers can read ``batches`` off it.
    """
    with TraceWriter(path) as writer:
        for op in ops:
            writer.append(op)
    return writer


def validate_trace(ops: Sequence[BatchOp]) -> int:
    """Check a stream is replayable (inserts absent, deletes present).

    Returns the number of vertices mentioned.  Raises BatchError on the
    first inconsistent batch.
    """
    top = 0
    for _op, top, _live in _replay_checked(ops):
        pass
    return top


def _replay_checked(ops: Iterable[BatchOp]) -> Iterator[tuple[BatchOp, int, int]]:
    """Replay ``ops`` against a live-edge set, yielding after each batch.

    Yields ``(op, vertices mentioned so far, live edges now)``; raises
    BatchError on an in-batch duplicate, an insert of a live edge or a
    delete of an absent one.
    """
    live: set = set()
    top = 0
    for i, op in enumerate(ops):
        seen_in_batch = set()
        for e in op.edges:
            if e in seen_in_batch:
                raise BatchError(f"batch {i}: duplicate edge {e}")
            seen_in_batch.add(e)
            top = max(top, e[1] + 1)
            if op.kind == "insert":
                if e in live:
                    raise BatchError(f"batch {i}: inserting live edge {e}")
                live.add(e)
            else:
                if e not in live:
                    raise BatchError(f"batch {i}: deleting absent edge {e}")
                live.remove(e)
        yield op, top, len(live)

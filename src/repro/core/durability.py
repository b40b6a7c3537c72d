"""Durability primitives: atomic artifacts and the changeset WAL.

Two on-disk building blocks back crash recovery (see DESIGN.md
"Durability & crash recovery"):

**Verifiable atomic artifacts** -- :func:`write_artifact` frames a bytes
payload with a single header line ``<magic> <version> <digest> <length>``
(blake2b-128 of the payload) and writes it via temp file + fsync +
``os.replace`` (:func:`atomic_write_bytes`), so a crash at any point
leaves either the previous file or the complete new one, never a torn
mix.  :func:`read_artifact` verifies length and digest and raises a
*typed* error per failure mode: :class:`~repro.errors.CheckpointFormatError`
(bad magic / malformed header), :class:`~repro.errors.CheckpointVersionError`
(version from the future), :class:`~repro.errors.CheckpointCorruptError`
(length or digest mismatch).  Every artifact kind has exactly one
readable version; older headers fail with the version error.

**Write-ahead log** -- :class:`WriteAheadLog` is an append-only segment
log of ``(sequence, payload)`` records:

* segment files ``wal-<first_sequence>.seg``, each starting with the
  header line ``pghive-wal 1``; rotation at ``segment_bytes``;
* record framing ``<u64 sequence> <u32 length> <u32 crc32> <payload>``
  (little-endian; the crc covers sequence+length+payload), so any torn
  or bit-flipped record is detected;
* fsync policies ``always`` (every append), ``batch`` (every
  ``batch_every`` appends and at rotation/close), ``off`` (the OS
  decides);
* torn-tail tolerance: a bad record *at the tail of the last segment*
  is the expected signature of a crash mid-append -- :meth:`replay`
  stops cleanly before it and opening the log truncates it away.  A bad
  record anywhere else -- including one *followed by* CRC-valid records
  in the last segment, the signature of a mid-segment bit flip rather
  than a torn write -- is real corruption and raises
  :class:`~repro.errors.WALCorruptError` instead of silently dropping
  fsync-acknowledged data;
* :meth:`prune` drops segments made redundant by a checkpoint: a
  segment is deleted once the *next* segment already covers everything
  after the checkpointed sequence.

Failpoints (:func:`repro.core.faults.fire`) bracket every write and
fsync so the fault-injection tests can crash at exact byte positions.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
import zlib
from collections.abc import Iterator
from pathlib import Path

from repro.core.faults import fire
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigurationError,
    WALCorruptError,
    WALError,
)

# ----------------------------------------------------------------------
# Atomic artifact files
# ----------------------------------------------------------------------

#: blake2b digest size (bytes) recorded in artifact headers.
DIGEST_SIZE = 16

#: an artifact header line never legitimately exceeds this.
_MAX_HEADER = 256


def payload_digest(payload: bytes) -> str:
    """Hex blake2b-128 digest recorded in artifact headers."""
    return hashlib.blake2b(payload, digest_size=DIGEST_SIZE).hexdigest()


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically: temp + fsync + replace.

    The temp file is fsynced before the rename and the directory after
    it, so after a crash the target either holds its previous content or
    the complete new content.  The temp file is cleaned up on failure.
    """
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            fire("atomic.before_fsync", path=str(temp))
            os.fsync(handle.fileno())
        fire("atomic.before_replace", temp=str(temp), path=str(path))
        os.replace(temp, path)
        fire("atomic.after_replace", path=str(path))
        _fsync_directory(path.parent)
    finally:
        temp.unlink(missing_ok=True)
    return path


def _fsync_directory(directory: Path) -> None:
    """Flush a rename to disk (best effort on exotic filesystems)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_artifact(
    path: str | Path, magic: bytes, version: int, payload: bytes
) -> Path:
    """Atomically write a digest-framed artifact file."""
    header = b"%s %d %s %d\n" % (
        magic,
        version,
        payload_digest(payload).encode("ascii"),
        len(payload),
    )
    try:
        return atomic_write_bytes(path, header + payload)
    except OSError as error:
        raise CheckpointError(
            f"could not write artifact {path}: {error}"
        ) from error


def read_artifact(
    path: str | Path,
    magic: bytes,
    *,
    version: int,
) -> tuple[int, bytes]:
    """Read and verify an artifact written by :func:`write_artifact`.

    Returns ``(version, payload)``.  Failure modes raise distinct typed
    errors; see the module docstring.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as error:
        raise CheckpointError(
            f"could not read artifact {path}: {error}"
        ) from error
    newline = data.find(b"\n", 0, _MAX_HEADER)
    if newline < 0:
        raise CheckpointFormatError(
            f"{path}: truncated artifact header (no newline in the first "
            f"{_MAX_HEADER} bytes)"
        )
    tokens = data[:newline].split()
    payload = data[newline + 1 :]
    if not tokens or tokens[0] != magic:
        raise CheckpointFormatError(
            f"{path} is not a {magic.decode('ascii')!r} artifact"
        )
    try:
        found_version = int(tokens[1])
    except (IndexError, ValueError):
        raise CheckpointFormatError(
            f"{path}: unparseable artifact version in header"
        ) from None
    if found_version != version:
        raise CheckpointVersionError(
            f"{path}: unsupported version {found_version} (this build "
            f"reads version {version})"
        )
    if len(tokens) != 4:
        raise CheckpointFormatError(
            f"{path}: version-{found_version} header carries "
            f"{len(tokens)} fields, expected 4"
        )
    try:
        length = int(tokens[3])
    except ValueError:
        raise CheckpointFormatError(
            f"{path}: unparseable payload length in header"
        ) from None
    if len(payload) != length:
        raise CheckpointCorruptError(
            f"{path}: payload is {len(payload)} bytes, header promises "
            f"{length} (truncated or overwritten)"
        )
    digest = tokens[2].decode("ascii", "replace")
    if payload_digest(payload) != digest:
        raise CheckpointCorruptError(
            f"{path}: payload digest mismatch (file is corrupt)"
        )
    return found_version, payload


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------

WAL_MAGIC = b"pghive-wal"
WAL_VERSION = 1
_SEGMENT_HEADER = b"%s %d\n" % (WAL_MAGIC, WAL_VERSION)
_SEGMENT_RE = re.compile(r"^wal-(\d{12})\.seg$")

#: record head: little-endian u64 sequence + u32 payload length.
_HEAD = struct.Struct("<QI")
#: u32 crc32 over head+payload, stored between head and payload.
_CRC = struct.Struct("<I")

FSYNC_POLICIES = ("always", "batch", "off")

#: how far past the last good sequence the tail-repair resync scan will
#: believe a candidate record; garbage offsets rarely pass it, so the
#: crc is only computed for plausible frames.
_RESYNC_SEQ_WINDOW = 1 << 20


def _segment_name(first_sequence: int) -> str:
    return f"wal-{first_sequence:012d}.seg"


def _segment_first_sequence(path: Path) -> int:
    match = _SEGMENT_RE.match(path.name)
    if match is None:
        raise WALError(f"{path} is not a WAL segment file")
    return int(match.group(1))


def _scan_segment(data: bytes, path: Path) -> tuple[list[tuple[int, int, int]], int]:
    """Parse one segment's records.

    Returns ``(records, valid_end)`` where each record is
    ``(sequence, payload_start, payload_end)`` and ``valid_end`` is the
    byte offset after the last *valid* record.  Scanning stops at the
    first invalid record (torn tail or corruption -- the caller decides
    which, based on segment position).  A segment whose header itself is
    bad yields ``valid_end = -1``.
    """
    if not data.startswith(_SEGMENT_HEADER):
        return [], -1
    records: list[tuple[int, int, int]] = []
    offset = len(_SEGMENT_HEADER)
    size = len(data)
    while offset < size:
        head_end = offset + _HEAD.size
        crc_end = head_end + _CRC.size
        if crc_end > size:
            break  # torn mid-head
        sequence, length = _HEAD.unpack_from(data, offset)
        payload_end = crc_end + length
        if payload_end > size:
            break  # torn mid-payload
        (stored_crc,) = _CRC.unpack_from(data, head_end)
        crc = zlib.crc32(data[offset:head_end])
        crc = zlib.crc32(data[crc_end:payload_end], crc)
        if crc != stored_crc:
            break  # bit rot or torn overwrite
        records.append((sequence, crc_end, payload_end))
        offset = payload_end
    return records, offset


def _has_valid_record_after(
    data: bytes, offset: int, last_sequence: int
) -> bool:
    """True when a CRC-valid record frame parses at or after ``offset``.

    Distinguishes a torn tail (garbage runs to EOF) from a corrupted
    record *followed by* intact, possibly fsync-acknowledged records: the
    former may be truncated away, the latter must raise.  The scan tries
    every byte offset but only computes a crc for frames whose sequence
    lands in ``(last_sequence, last_sequence + _RESYNC_SEQ_WINDOW]`` and
    whose length fits the segment, which prunes nearly all garbage.
    """
    size = len(data)
    min_record = _HEAD.size + _CRC.size
    for start in range(offset, size - min_record + 1):
        sequence, length = _HEAD.unpack_from(data, start)
        if (
            sequence <= last_sequence
            or sequence > last_sequence + _RESYNC_SEQ_WINDOW
        ):
            continue
        payload_end = start + min_record + length
        if payload_end > size:
            continue
        (stored_crc,) = _CRC.unpack_from(data, start + _HEAD.size)
        crc = zlib.crc32(data[start : start + _HEAD.size])
        crc = zlib.crc32(data[start + min_record : payload_end], crc)
        if crc == stored_crc:
            return True
    return False


class WriteAheadLog:
    """Append-only, checksummed, segmented changeset log.

    One instance owns one directory.  Appends must carry strictly
    increasing sequence numbers (the session's stream position), which
    is what lets :meth:`replay` hand back exactly the records after a
    checkpointed position and :meth:`prune` drop segments a checkpoint
    made redundant.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        fsync: str = "batch",
        batch_every: int = 8,
        segment_bytes: int = 8 * 1024 * 1024,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if batch_every < 1:
            raise ConfigurationError(
                f"batch_every must be >= 1, got {batch_every}"
            )
        if segment_bytes < len(_SEGMENT_HEADER) + _HEAD.size + _CRC.size:
            raise ConfigurationError(
                f"segment_bytes={segment_bytes} cannot hold a single record"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.batch_every = int(batch_every)
        self.segment_bytes = int(segment_bytes)
        self._handle = None
        self._handle_path: Path | None = None
        self._size = 0
        self._unsynced = 0
        self._last_sequence = 0
        self._tail_record_start: int | None = None
        self._tail_prev_sequence = 0
        self._repair_tail()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_sequence(self) -> int:
        """Sequence of the newest durable record (0 when empty)."""
        return self._last_sequence

    def segment_paths(self) -> list[Path]:
        """All segment files, oldest first."""
        return sorted(
            p for p in self.directory.iterdir() if _SEGMENT_RE.match(p.name)
        )

    # ------------------------------------------------------------------
    # Open-time tail repair
    # ------------------------------------------------------------------
    def _repair_tail(self) -> None:
        """Drop the torn tail (if any) of the last segment and learn the
        durable stream position.

        Truncation is only a *tail* repair: an invalid record (or
        segment header) followed by CRC-valid records is a mid-segment
        bit flip, and truncating there would silently discard records
        that may have been fsync-acknowledged -- that raises
        :class:`WALCorruptError` instead.
        """
        segments = self.segment_paths()
        tail_tolerated = False
        while segments:
            last = segments[-1]
            data = last.read_bytes()
            records, valid_end = _scan_segment(data, last)
            if valid_end < 0:
                # Crash during rotation: the new segment's header itself
                # is torn, so it cannot hold any record -- drop the file.
                # Only the newest segment may look like this; deeper in
                # the log it is real corruption.
                if tail_tolerated:
                    raise WALCorruptError(
                        f"{last}: segment header is corrupt in a sealed "
                        "segment"
                    )
                if _has_valid_record_after(
                    data, 1, _segment_first_sequence(last) - 1
                ):
                    raise WALCorruptError(
                        f"{last}: segment header is corrupt but the "
                        "segment still holds valid records (mid-segment "
                        "corruption, not a torn rotation)"
                    )
                last.unlink()
                segments.pop()
                tail_tolerated = True
                continue
            if valid_end < len(data):
                base = (
                    records[-1][0]
                    if records
                    else _segment_first_sequence(last) - 1
                )
                if _has_valid_record_after(data, valid_end + 1, base):
                    raise WALCorruptError(
                        f"{last}: invalid record at offset {valid_end} is "
                        "followed by valid records (mid-segment corruption, "
                        "not a torn tail)"
                    )
                with open(last, "r+b") as handle:
                    handle.truncate(valid_end)
                    handle.flush()
                    os.fsync(handle.fileno())
            if not records:
                # Every record was torn away, leaving a bare header.
                # Unlink the file so a future rotation can reuse the
                # name, and keep looking for the newest durable record.
                last.unlink()
                segments.pop()
                tail_tolerated = True
                continue
            self._last_sequence = records[-1][0]
            return

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, sequence: int, payload: bytes) -> None:
        """Durably (per policy) log one record."""
        if sequence <= self._last_sequence:
            raise WALError(
                f"WAL sequences must be strictly increasing: got {sequence} "
                f"after {self._last_sequence}"
            )
        if self._handle is None or self._size >= self.segment_bytes:
            self._rotate(sequence)
        head = _HEAD.pack(sequence, len(payload))
        crc = zlib.crc32(payload, zlib.crc32(head))
        record = head + _CRC.pack(crc) + payload
        fire(
            "wal.before_append",
            path=str(self._handle_path),
            sequence=sequence,
        )
        record_start = self._size
        self._handle.write(record)
        self._handle.flush()
        self._size += len(record)
        self._unsynced += 1
        fire(
            "wal.after_append",
            path=str(self._handle_path),
            sequence=sequence,
            record_start=record_start,
            record_end=self._size,
        )
        if self.fsync == "always" or (
            self.fsync == "batch" and self._unsynced >= self.batch_every
        ):
            self._fsync()
        self._tail_record_start = record_start
        self._tail_prev_sequence = self._last_sequence
        self._last_sequence = sequence

    def rollback_last(self) -> None:
        """Physically remove the record appended by the latest ``append``.

        Compensation for write-ahead ordering: when the session rejects
        a change-set *after* it was logged (a validation error), the
        record must not persist -- a later replay would re-raise the
        rejection and a later append would violate sequence monotonicity.
        Only the immediately preceding append can be rolled back.
        """
        if self._handle is None or self._tail_record_start is None:
            raise WALError("no just-appended record to roll back")
        self._handle.truncate(self._tail_record_start)
        self._handle.flush()
        if self.fsync != "off":
            os.fsync(self._handle.fileno())
            self._unsynced = 0
        self._size = self._tail_record_start
        self._last_sequence = self._tail_prev_sequence
        self._tail_record_start = None

    def drop_tail_record(self, sequence: int) -> None:
        """Remove the newest durable record (it must carry ``sequence``).

        The recovery-time twin of :meth:`rollback_last`: a crash between
        a WAL append and the rollback of a rejected change-set leaves a
        poisoned final record that was never acknowledged -- replay drops
        it here instead of bricking the directory.  Refuses anything but
        the current tail record.
        """
        if self._handle is not None:
            raise WALError(
                "drop_tail_record operates on a quiescent log (no open "
                "append segment); use rollback_last after a live append"
            )
        if sequence != self._last_sequence:
            raise WALError(
                f"cannot drop record {sequence}: the tail record is "
                f"{self._last_sequence}"
            )
        segments = self.segment_paths()
        if not segments:
            raise WALError("cannot drop a record from an empty log")
        last = segments[-1]
        data = last.read_bytes()
        records, _valid_end = _scan_segment(data, last)
        if not records or records[-1][0] != sequence:
            raise WALError(
                f"{last}: tail segment does not end with record {sequence}"
            )
        start = records[-1][1] - _HEAD.size - _CRC.size
        with open(last, "r+b") as handle:
            handle.truncate(start)
            handle.flush()
            os.fsync(handle.fileno())
        self._last_sequence = 0
        self._repair_tail()

    def _rotate(self, first_sequence: int) -> None:
        """Seal the current segment and start a new one."""
        self._close_handle()
        path = self.directory / _segment_name(first_sequence)
        if path.exists():
            raise WALError(f"refusing to overwrite existing segment {path}")
        self._handle = open(path, "ab")
        self._handle_path = path
        self._handle.write(_SEGMENT_HEADER)
        self._handle.flush()
        self._size = len(_SEGMENT_HEADER)
        self._unsynced = 0
        if self.fsync != "off":
            self._fsync()

    def _fsync(self) -> None:
        fire("wal.before_fsync", path=str(self._handle_path))
        os.fsync(self._handle.fileno())
        self._unsynced = 0
        fire("wal.after_fsync", path=str(self._handle_path))

    def sync(self) -> None:
        """Force an fsync of the open segment regardless of policy."""
        if self._handle is not None:
            self._fsync()

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self.fsync != "off":
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
            self._handle_path = None
            self._size = 0

    def close(self) -> None:
        """Seal the log (flush + fsync the open segment)."""
        self._close_handle()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, after: int = 0) -> Iterator[tuple[int, bytes]]:
        """Yield ``(sequence, payload)`` for every record after ``after``.

        A torn record at the tail of the *last* segment ends the replay
        cleanly (crash mid-append); a bad record anywhere else raises
        :class:`WALCorruptError`.  Sequences must increase strictly
        across the whole log.
        """
        segments = self.segment_paths()
        previous = None
        for position, path in enumerate(segments):
            data = path.read_bytes()
            records, valid_end = _scan_segment(data, path)
            is_last = position == len(segments) - 1
            if valid_end < 0:
                if is_last:
                    return  # torn rotation; nothing durable in here
                raise WALCorruptError(
                    f"{path}: segment header is corrupt in a sealed segment"
                )
            if valid_end < len(data) and not is_last:
                raise WALCorruptError(
                    f"{path}: invalid record at offset {valid_end} of a "
                    "sealed segment (mid-history corruption)"
                )
            for sequence, start, end in records:
                if previous is not None and sequence <= previous:
                    raise WALCorruptError(
                        f"{path}: sequence {sequence} follows {previous}; "
                        "the log is not strictly increasing"
                    )
                previous = sequence
                if sequence > after:
                    yield sequence, data[start:end]

    # ------------------------------------------------------------------
    # Pruning
    # ------------------------------------------------------------------
    def prune(self, up_to: int) -> int:
        """Delete segments fully covered by a checkpoint at ``up_to``.

        A segment is redundant when the *next* segment starts at or
        before ``up_to + 1`` -- every record the recovery would need is
        then in later segments.  The newest segment is always kept (it
        holds the live append position).  Returns segments deleted.
        """
        segments = self.segment_paths()
        deleted = 0
        for position in range(len(segments) - 1):
            next_first = _segment_first_sequence(segments[position + 1])
            if next_first <= up_to + 1:
                if segments[position] == self._handle_path:
                    continue
                segments[position].unlink()
                deleted += 1
            else:
                break
        return deleted

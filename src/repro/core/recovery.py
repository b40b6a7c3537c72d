"""Durable sessions: WAL-ahead logging and crash recovery.

The incremental-view-maintenance framing makes recovery exact: a
discovery state is (last consistent snapshot) + (replayed delta log), so

    ``recover == checkpoint restore + WAL replay``

and a recovered session is *fingerprint-identical* to one that never
crashed (the crash-recovery oracle pins this at every record boundary).

Both durable sessions share one log layer, ``_DurableLog``, with the
directory layout::

    <dir>/wal/wal-<first_sequence>.seg   append-only changeset log
    <dir>/checkpoint-<sequence>[.ckpt]   atomic digest-verified snapshots

Each session logs in exactly one place: :class:`DurableSchemaSession`
in :meth:`~DurableSchemaSession.apply` (``add_batch`` applies through
it), and :class:`DurableShardedSchemaSession` in ``_stage``, the one
staging path its ``apply`` and pipelined ``ingest_stream`` both take.
Element inserts convert to one columnar change-set before either logs
(:func:`~repro.graph.columnar.columnar_changeset`), so every record is
columnar or deletion-only and replays with no endpoint lookup.  The
record is the change-set's wire encoding
(:meth:`~repro.graph.changes.ChangeSet.to_wire`) under the sequence
number the apply will get, appended *before* state mutates -- so after
a crash the log is always at least as new as memory ever was.
``checkpoint()`` snapshots the full state (a ``.ckpt`` file, or a
manifest directory for the sharded session), keeps the
``keep_checkpoints`` newest snapshots so a corrupt newest checkpoint
still leaves an older one to fall back to (with correspondingly more
WAL to replay), and prunes only WAL segments that even the *oldest
retained* snapshot no longer needs -- pruning to the newest snapshot
would leave a replay gap under exactly the fallback the retention
bound exists for.

``recover()`` (also reachable as ``SchemaSession.recover``) walks
checkpoints newest-first, restores the first one that verifies, replays
the WAL strictly after the restored stream position, and resumes
logging.  A torn final WAL record is dropped by the log itself; the
half-applied change-set it belonged to was never acknowledged, so the
producer re-feeds it and the outcome matches the uncrashed run.  For
the sharded session, workers never log; combined with its worker fault
tolerance this survives both whole-process crashes (WAL) and individual
worker deaths (retry/degrade).
"""

from __future__ import annotations

import re
import shutil
import warnings
from pathlib import Path
from typing import Self

from repro.core.durability import WriteAheadLog
from repro.core.session import ChangeReport, SchemaSession
from repro.core.sharding import ShardedSchemaSession, _BaselineFiles
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ReproError,
    WALCorruptError,
    WALError,
)
from repro.graph.changes import ChangeSet

#: WAL payload kind prefix of every record: one applied change-set.
_KIND_CHANGESET = b"C"

#: Internal checkpoint name: a ``.ckpt`` file (single session) or a
#: manifest directory without suffix (sharded session).
_CHECKPOINT_RE = re.compile(r"^checkpoint-(\d{12})(\.ckpt)?$")
_WAL_DIR = "wal"


def _logged_apply(session, change_set: ChangeSet, run):
    """Append to the WAL, run the in-memory apply, compensate rejection.

    Write-ahead ordering logs the record before ``run`` mutates state;
    if ``run`` is rejected without advancing the stream position (a
    validation error such as deletions without ``retain_union``), the
    record is rolled back so the log never holds a change-set the
    session refused -- otherwise the next append would violate sequence
    monotonicity and a later recovery would replay the rejection.
    """
    sequence = session._sequence + 1
    session._wal.append(sequence, _KIND_CHANGESET + change_set.to_wire())
    try:
        return run()
    except Exception:
        if session._sequence < sequence:
            session._wal.rollback_last()
        raise


def _replay_record(session, payload: bytes) -> None:
    """Re-apply one WAL record through the session's own ``apply``."""
    kind = payload[:1]
    if kind != _KIND_CHANGESET:
        raise WALCorruptError(
            f"unknown WAL record kind {kind!r} (payload of another build?)"
        )
    session.apply(ChangeSet.from_wire(payload[1:]))


class _DurableLog:
    """The log layer both durable sessions share.

    It owns the session directory and its write-ahead log, internal
    checkpoints with their retention bound and WAL pruning horizon, the
    newest-valid-checkpoint recovery walk, and WAL replay.  It precedes
    the in-memory session class in the MRO: ``__init__`` validates the
    log options and the directory before the session is built and
    forwards every other argument to it, and ``close`` seals the log
    before the session releases its own resources.  ``_checkpoint_dirs``
    picks the internal checkpoint kind: ``.ckpt`` files or manifest
    directories.
    """

    _checkpoint_dirs = False

    def __init__(
        self,
        directory: str | Path,
        *args,
        fsync: str = "batch",
        wal_batch_every: int = 8,
        wal_segment_bytes: int = 8 * 1024 * 1024,
        keep_checkpoints: int = 2,
        _resume: bool = False,
        **kwargs,
    ) -> None:
        if keep_checkpoints < 1:
            raise ConfigurationError(
                f"keep_checkpoints must be >= 1, got {keep_checkpoints}"
            )
        directory = Path(directory)
        if not _resume and self._holds_durable_state(directory):
            raise ConfigurationError(
                f"{directory} already holds durable session state; resume "
                f"it with {type(self).__name__}.recover(...) instead of "
                "constructing a fresh session over it"
            )
        directory.mkdir(parents=True, exist_ok=True)
        super().__init__(*args, **kwargs)
        self.directory = directory
        self.keep_checkpoints = int(keep_checkpoints)
        self._replaying = False
        self._wal = WriteAheadLog(
            directory / _WAL_DIR,
            fsync=fsync,
            batch_every=wal_batch_every,
            segment_bytes=wal_segment_bytes,
        )

    @property
    def wal(self) -> WriteAheadLog:
        """The session's write-ahead log (benchmarks introspect this)."""
        return self._wal

    # ------------------------------------------------------------------
    # Internal checkpoints
    # ------------------------------------------------------------------
    @classmethod
    def _checkpoints(cls, directory: Path) -> list[Path]:
        """Internal checkpoints under ``directory``, newest first."""
        suffix = "" if cls._checkpoint_dirs else ".ckpt"
        found = [
            path
            for path in directory.iterdir()
            if _CHECKPOINT_RE.match(path.stem)
            and path.suffix == suffix
            and path.is_dir() == cls._checkpoint_dirs
        ]
        return sorted(found, reverse=True)

    @classmethod
    def _holds_durable_state(cls, directory: Path) -> bool:
        if not directory.is_dir():
            return False
        if cls._checkpoints(directory):
            return True
        wal_dir = directory / _WAL_DIR
        return wal_dir.is_dir() and any(wal_dir.glob("wal-*.seg"))

    def _checkpoint(self, path: str | Path | None, write) -> Path:
        """Snapshot state through ``write``; prune what it obsoletes.

        Without ``path`` the snapshot lands in the session directory as
        ``checkpoint-<sequence>`` and participates in recovery, WAL
        pruning, and the ``keep_checkpoints`` retention bound.  The WAL
        is pruned only up to the *oldest retained* snapshot: recovery
        may fall back past a corrupt newer one all the way to it, so
        every record after it must stay replayable.  An explicit
        external ``path`` writes a plain portable checkpoint and prunes
        nothing.
        """
        self._wal.sync()  # never prune segments ahead of the disk state
        if path is not None:
            return write(Path(path))
        suffix = "" if self._checkpoint_dirs else ".ckpt"
        target = self.directory / f"checkpoint-{self._sequence:012d}{suffix}"
        write(target)
        for stale in self._checkpoints(self.directory)[self.keep_checkpoints :]:
            if self._checkpoint_dirs:
                shutil.rmtree(stale, ignore_errors=True)
            else:
                stale.unlink(missing_ok=True)
        oldest = self._checkpoints(self.directory)[-1]
        self._wal.prune(int(_CHECKPOINT_RE.match(oldest.stem).group(1)))
        return target

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def _recover(cls, directory: str | Path, restore, options: dict):
        """Restore the newest valid checkpoint, then replay the WAL.

        Checkpoints are tried newest-first through ``restore``; a
        corrupt one is skipped in favour of an older one (the WAL then
        replays further back).  If every existing checkpoint fails
        verification, a :class:`CheckpointError` aggregating the
        failures is raised -- recovery never silently restarts from
        scratch when snapshots exist.  ``options`` are constructor
        keywords; a restored checkpoint's own shape overrides them.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise CheckpointError(
                f"cannot recover from {directory}: no such directory"
            )
        base = None
        failures: list[str] = []
        for candidate in cls._checkpoints(directory):
            try:
                base = restore(candidate)
                break
            except CheckpointError as error:
                failures.append(f"{candidate.name}: {error}")
        if base is None and failures:
            raise CheckpointError(
                "no checkpoint under "
                f"{directory} could be restored: " + "; ".join(failures)
            )
        if base is not None:
            options = {**options, **cls._restored_options(base)}
        session = cls(directory, **options, _resume=True)
        if base is not None:
            session._adopt_restored(base)
        session._replay_wal()
        return session

    @classmethod
    def _restored_options(cls, base) -> dict:
        """Constructor options that reproduce a restored session."""
        return {
            "config": base.config,
            "schema_name": base.schema_name,
            "retain_union": base._retain_union,
        }

    def _replay_wal(self) -> None:
        """Apply every WAL record strictly after the restored position.

        A record the session *rejects* (a :class:`ReproError` that is not
        a WAL failure) is tolerated only as the final record of the log:
        that is the signature of a crash between the append and its
        rollback, and the change-set was never acknowledged, so it is
        dropped with a :class:`RuntimeWarning` naming its sequence and
        the error.  The same rejection earlier in the log is real
        divergence and re-raises.
        """
        self._replaying = True
        try:
            expected = self._sequence
            for sequence, payload in self._wal.replay(after=self._sequence):
                if sequence != expected + 1:
                    raise WALCorruptError(
                        f"WAL replay expected sequence {expected + 1}, "
                        f"found {sequence} (segments missing?)"
                    )
                try:
                    _replay_record(self, payload)
                except WALError:
                    raise
                except ReproError as error:
                    if sequence == self._wal.last_sequence:
                        warnings.warn(
                            f"WAL replay dropped the final record "
                            f"(sequence {sequence}), which the session "
                            f"rejects: {type(error).__name__}: {error}",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                        self._wal.drop_tail_record(sequence)
                        break
                    raise
                expected = sequence
        finally:
            self._replaying = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Seal the WAL (flush + fsync its open segment), then let the
        session release its own resources (worker pools)."""
        self._wal.close()
        session_close = getattr(super(), "close", None)
        if session_close is not None:
            session_close()

    def __enter__(self) -> Self:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class DurableSchemaSession(_DurableLog, SchemaSession):
    """A :class:`SchemaSession` whose change feed survives crashes.

    Takes the session ``directory``, every :class:`SchemaSession`
    argument, and the log options: ``fsync`` picks the WAL durability
    policy (``"always"``/``"batch"``/``"off"``), ``wal_batch_every`` and
    ``wal_segment_bytes`` tune the log, and ``keep_checkpoints`` bounds
    how many snapshots stay on disk (>= 1; more snapshots mean more
    corruption fallback depth at more disk cost).  Construct on a
    *fresh* directory; for one that already holds durable state use
    :meth:`recover`.
    """

    def apply(self, change_set: ChangeSet) -> ChangeReport:
        # Element inserts convert before they are logged: the record
        # then carries the endpoints the union or store resolved.
        change_set = self._as_columnar(change_set)
        if self._replaying:
            return super().apply(change_set)
        return _logged_apply(
            self,
            change_set,
            lambda: super(DurableSchemaSession, self).apply(change_set),
        )

    def checkpoint(self, path: str | Path | None = None) -> Path:
        """Snapshot state; prune the WAL and old snapshots it obsoletes.

        Without ``path`` the snapshot is an internal
        ``checkpoint-<sequence>.ckpt`` file in the session directory;
        with one it is a plain portable checkpoint (see
        ``_DurableLog._checkpoint``).
        """
        return self._checkpoint(path, super().checkpoint)

    @classmethod
    def recover(cls, directory: str | Path, **options) -> "DurableSchemaSession":
        """Resume a durable session: newest valid checkpoint + WAL replay.

        ``options`` are constructor keywords.  The log options always
        apply; ``config``/``schema_name``/feature flags apply only when
        the directory has no checkpoint at all (WAL-only recovery of a
        session that never checkpointed).
        """
        return cls._recover(directory, SchemaSession.restore, options)

    def _adopt_restored(self, base: SchemaSession) -> None:
        """Take over a restored base session's state and history."""
        self._adopt_state(base._dstate)
        self.reports = base.reports
        self._timer = base._timer
        self._result = base._result


class DurableShardedSchemaSession(_DurableLog, ShardedSchemaSession):
    """A :class:`ShardedSchemaSession` with a parent-level WAL.

    Every change-set -- from :meth:`apply`, :meth:`add_batch` or
    :meth:`ingest_stream` -- is logged once, in ``_stage``, after its
    element inserts converted and *before* it is partitioned, in the
    parent process; workers never touch the log.
    Takes the session ``directory``, every :class:`ShardedSchemaSession`
    argument, and the log options of :class:`DurableSchemaSession`.
    Checkpoints are manifest directories ``checkpoint-<sequence>/``
    under the session directory.  Worker deaths are handled by the base
    class's retry/degrade machinery; this class adds whole-process crash
    recovery on top.
    """

    _checkpoint_dirs = True

    # Inherited unchanged (logging happens in ``_stage``), but bound in
    # this class body: perfbench's tracer patches
    # ``cls.__dict__["apply"]`` of every durable session class.
    apply = ShardedSchemaSession.apply

    def _stage(self, change_set: ChangeSet):
        if self._replaying:
            return super()._stage(change_set)
        return _logged_apply(
            self,
            change_set,
            lambda: super(DurableShardedSchemaSession, self)._stage(change_set),
        )

    def checkpoint(self, directory: str | Path | None = None) -> Path:
        """Write a manifest checkpoint; prune WAL and stale snapshots.

        Same contract as :meth:`DurableSchemaSession.checkpoint`, with
        an internal ``checkpoint-<sequence>/`` manifest directory.
        """
        return self._checkpoint(directory, super().checkpoint)

    @classmethod
    def recover(
        cls, directory: str | Path, *, parallel: bool | None = None, **options
    ) -> "DurableShardedSchemaSession":
        """Sharded analogue of :meth:`DurableSchemaSession.recover`.

        ``parallel`` overrides the restored execution mode; the shape
        options (``config``/``n_shards``/flags) apply only when no
        checkpoint exists yet (WAL-only recovery).
        """
        return cls._recover(
            directory,
            lambda path: ShardedSchemaSession.restore(path, parallel=parallel),
            {**options, "parallel": bool(parallel)},
        )

    @classmethod
    def _restored_options(cls, base) -> dict:
        return {
            **super()._restored_options(base),
            "n_shards": base.n_shards,
            "parallel": base.parallel,
        }

    def _adopt_restored(self, base: ShardedSchemaSession) -> None:
        """Transplant a restored base session's live innards.

        The donor is neutralised afterwards (its pools, shard sessions
        and baseline files -- directory and finalizer alike -- now belong
        to this session); do not keep using it.
        """
        self._registry = base._registry
        self._interner = base._interner
        self._interner_pinned = base._interner_pinned
        self._signatures = base._signatures
        self._sequence = base._sequence
        self.reports = base.reports
        self._shards = base._shards
        self._pools = base._pools
        self._baselines = base._baselines
        self._shard_views = base._shard_views
        self._shard_dirty = base._shard_dirty
        self._merged_schema = base._merged_schema
        self._union = base._union
        self._pending = base._pending
        self._degraded = base._degraded
        base._pools = None
        base._shards = None
        base._baselines = _BaselineFiles(base.n_shards)

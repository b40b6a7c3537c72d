"""Durable sessions: WAL-ahead logging and crash recovery.

The incremental-view-maintenance framing makes recovery exact: a
discovery state is (last consistent snapshot) + (replayed delta log), so

    ``recover == checkpoint restore + WAL replay``

and a recovered session is *fingerprint-identical* to one that never
crashed (the crash-recovery oracle pins this at every record boundary).

:class:`DurableSchemaSession` wraps :class:`~repro.core.session.SchemaSession`
with a directory layout::

    <dir>/wal/wal-<first_sequence>.seg   append-only changeset log
    <dir>/checkpoint-<sequence>.ckpt     atomic digest-verified snapshots

Every :meth:`apply`/:meth:`add_batch` first appends the change-set's
wire encoding (:meth:`~repro.graph.changes.ChangeSet.to_wire`) to the
WAL under the sequence number the apply will get, *then* mutates state
-- so after a crash the log is always at least as new as memory ever
was.  :meth:`checkpoint` snapshots the full state, keeps the
``keep_checkpoints`` newest snapshots so a corrupt newest checkpoint
still leaves an older one to fall back to (with correspondingly more
WAL to replay), and prunes only WAL segments that even the *oldest
retained* snapshot no longer needs -- pruning to the newest snapshot
would leave a replay gap under exactly the fallback the retention
bound exists for.

:meth:`DurableSchemaSession.recover` (also reachable as
``SchemaSession.recover``) walks checkpoints newest-first, restores the
first one that verifies, replays the WAL strictly after the restored
stream position, and resumes logging.  A torn final WAL record is
dropped by the log itself; the half-applied change-set it belonged to
was never acknowledged, so the producer re-feeds it and the outcome
matches the uncrashed run.

:class:`DurableShardedSchemaSession` is the same construction over
:class:`~repro.core.sharding.ShardedSchemaSession`: one parent-level WAL
(workers never log) and one manifest-checkpoint *directory* per
snapshot.  Combined with the sharded session's worker fault tolerance
this survives both whole-process crashes (WAL) and individual worker
deaths (retry/degrade).
"""

from __future__ import annotations

import re
import shutil
from pathlib import Path

from repro.core.config import PGHiveConfig
from repro.core.durability import WriteAheadLog
from repro.core.session import ChangeReport, SchemaSession
from repro.core.sharding import ShardedChangeReport, ShardedSchemaSession
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    ReproError,
    WALCorruptError,
    WALError,
)
from repro.graph.changes import ChangeSet
from repro.graph.model import PropertyGraph

#: WAL payload kind prefix: a change-set applied via ``apply``.
_KIND_CHANGESET = b"C"
#: WAL payload kind prefix: an insert batch applied via ``add_batch``
#: (replayed through ``add_batch`` to keep its empty-batch semantics --
#: an empty first batch still fits the preprocessor).
_KIND_BATCH = b"B"

_CHECKPOINT_FILE_RE = re.compile(r"^checkpoint-(\d{12})\.ckpt$")
_CHECKPOINT_DIR_RE = re.compile(r"^checkpoint-(\d{12})$")
_WAL_DIR = "wal"


def _checkpoint_candidates(
    directory: Path, pattern: re.Pattern, want_dir: bool
) -> list[Path]:
    """Internal checkpoint paths under ``directory``, newest first."""
    found = [
        path
        for path in directory.iterdir()
        if pattern.match(path.name) and path.is_dir() == want_dir
    ]
    return sorted(found, reverse=True)


def _has_durable_state(
    directory: Path, pattern: re.Pattern, want_dir: bool
) -> bool:
    if not directory.is_dir():
        return False
    if _checkpoint_candidates(directory, pattern, want_dir):
        return True
    wal_dir = directory / _WAL_DIR
    return wal_dir.is_dir() and any(wal_dir.glob("wal-*.seg"))


def _oldest_retained_sequence(
    directory: Path, pattern: re.Pattern, want_dir: bool
) -> int:
    """Sequence of the oldest internal checkpoint still on disk.

    This is the WAL pruning horizon: recovery may fall back past a
    corrupt newer checkpoint all the way to this one, so every record
    after it must stay replayable.
    """
    candidates = _checkpoint_candidates(directory, pattern, want_dir)
    return int(pattern.match(candidates[-1].name).group(1))


def _logged_apply(session, kind: bytes, change_set: ChangeSet, run):
    """Append to the WAL, run the in-memory apply, compensate rejection.

    Write-ahead ordering logs the record before ``run`` mutates state;
    if ``run`` is rejected without advancing the stream position (a
    validation error such as deletions without ``retain_union``), the
    record is rolled back so the log never holds a change-set the
    session refused -- otherwise the next append would violate sequence
    monotonicity and a later recovery would replay the rejection.
    """
    sequence = session._sequence + 1
    session._wal.append(sequence, kind + change_set.to_wire())
    try:
        return run()
    except Exception:
        if session._sequence < sequence:
            session._wal.rollback_last()
        raise


def _replay_wal_records(session) -> None:
    """Apply every WAL record strictly after the restored position.

    A record the session *rejects* (a :class:`ReproError` that is not a
    WAL failure) is tolerated only as the final record of the log: that
    is the signature of a crash between the append and its rollback,
    and the change-set was never acknowledged, so it is dropped.  The
    same rejection earlier in the log is real divergence and re-raises.
    """
    session._replaying = True
    try:
        expected = session._sequence
        for sequence, payload in session._wal.replay(after=session._sequence):
            if sequence != expected + 1:
                raise WALCorruptError(
                    f"WAL replay expected sequence {expected + 1}, "
                    f"found {sequence} (segments missing?)"
                )
            try:
                _replay_record(session, payload)
            except WALError:
                raise
            except ReproError:
                if sequence == session._wal.last_sequence:
                    session._wal.drop_tail_record(sequence)
                    break
                raise
            expected = sequence
    finally:
        session._replaying = False


class DurableSchemaSession(SchemaSession):
    """A :class:`SchemaSession` whose change feed survives crashes.

    ``fsync`` picks the WAL durability policy (``"always"``/``"batch"``/
    ``"off"``); ``keep_checkpoints`` bounds how many snapshots stay on
    disk (>= 1; more snapshots mean more corruption fallback depth at
    more disk cost).  Construct on a *fresh* directory; for one that
    already holds durable state use :meth:`recover`.
    """

    def __init__(
        self,
        directory: str | Path,
        config: PGHiveConfig | None = None,
        schema_name: str = "session-schema",
        *,
        fsync: str = "batch",
        wal_batch_every: int = 8,
        wal_segment_bytes: int = 8 * 1024 * 1024,
        keep_checkpoints: int = 2,
        retain_union: bool | None = None,
        streaming_postprocess: bool | None = None,
        track_keys: bool | None = None,
        _resume: bool = False,
    ) -> None:
        if keep_checkpoints < 1:
            raise ConfigurationError(
                f"keep_checkpoints must be >= 1, got {keep_checkpoints}"
            )
        directory = Path(directory)
        if not _resume and _has_durable_state(
            directory, _CHECKPOINT_FILE_RE, want_dir=False
        ):
            raise ConfigurationError(
                f"{directory} already holds durable session state; resume "
                "it with SchemaSession.recover(...) instead of constructing "
                "a fresh session over it"
            )
        directory.mkdir(parents=True, exist_ok=True)
        super().__init__(
            config,
            schema_name=schema_name,
            retain_union=retain_union,
            streaming_postprocess=streaming_postprocess,
            track_keys=track_keys,
        )
        self.directory = directory
        self.keep_checkpoints = int(keep_checkpoints)
        self._replaying = False
        self._wal = WriteAheadLog(
            directory / _WAL_DIR,
            fsync=fsync,
            batch_every=wal_batch_every,
            segment_bytes=wal_segment_bytes,
        )

    # ------------------------------------------------------------------
    # Logged change feed
    # ------------------------------------------------------------------
    @property
    def wal(self) -> WriteAheadLog:
        """The session's write-ahead log (benchmarks introspect this)."""
        return self._wal

    def apply(self, change_set: ChangeSet) -> ChangeReport:
        if self._replaying:
            return super().apply(change_set)
        return _logged_apply(
            self,
            _KIND_CHANGESET,
            change_set,
            lambda: super(DurableSchemaSession, self).apply(change_set),
        )

    def add_batch(self, batch: PropertyGraph) -> ChangeReport:
        if self._replaying:
            return super().add_batch(batch)
        return _logged_apply(
            self,
            _KIND_BATCH,
            ChangeSet.from_graph(batch),
            lambda: super(DurableSchemaSession, self).add_batch(batch),
        )

    # ------------------------------------------------------------------
    # Checkpoints (pruning variants of the base implementation)
    # ------------------------------------------------------------------
    def checkpoint(self, path: str | Path | None = None) -> Path:
        """Snapshot state; prune the WAL and old snapshots it obsoletes.

        Without ``path`` the snapshot lands in the session directory as
        ``checkpoint-<sequence>.ckpt`` and participates in recovery,
        WAL pruning, and the ``keep_checkpoints`` retention bound.  The
        WAL is pruned only up to the *oldest retained* snapshot, so
        falling back past a corrupt newer one always finds its replay
        suffix intact.  An explicit external ``path`` writes a plain
        portable checkpoint and prunes nothing.
        """
        self._wal.sync()  # never prune segments ahead of the disk state
        if path is None:
            target = self.directory / f"checkpoint-{self._sequence:012d}.ckpt"
            super().checkpoint(target)
            self._prune_checkpoints()
            self._wal.prune(
                _oldest_retained_sequence(
                    self.directory, _CHECKPOINT_FILE_RE, want_dir=False
                )
            )
            return target
        return super().checkpoint(Path(path))

    def _prune_checkpoints(self) -> None:
        candidates = _checkpoint_candidates(
            self.directory, _CHECKPOINT_FILE_RE, want_dir=False
        )
        for stale in candidates[self.keep_checkpoints :]:
            stale.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: str | Path,
        *,
        fsync: str = "batch",
        wal_batch_every: int = 8,
        wal_segment_bytes: int = 8 * 1024 * 1024,
        keep_checkpoints: int = 2,
        config: PGHiveConfig | None = None,
        schema_name: str = "session-schema",
        retain_union: bool | None = None,
        streaming_postprocess: bool | None = None,
        track_keys: bool | None = None,
    ) -> "DurableSchemaSession":
        """Resume a durable session: newest valid checkpoint + WAL replay.

        Checkpoints are tried newest-first; a corrupt one is skipped in
        favour of an older one (the WAL then replays further back).  If
        every existing checkpoint fails verification, a
        :class:`CheckpointError` aggregating the failures is raised --
        recovery never silently restarts from scratch when snapshots
        exist.  ``config``/``schema_name``/feature flags apply only when
        the directory has no checkpoint at all (WAL-only recovery of a
        session that never checkpointed).
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise CheckpointError(
                f"cannot recover from {directory}: no such directory"
            )
        base = None
        failures: list[str] = []
        for candidate in _checkpoint_candidates(
            directory, _CHECKPOINT_FILE_RE, want_dir=False
        ):
            try:
                base = SchemaSession.restore(candidate)
                break
            except CheckpointError as error:
                failures.append(f"{candidate.name}: {error}")
        if base is None and failures:
            raise CheckpointError(
                "no checkpoint under "
                f"{directory} could be restored: " + "; ".join(failures)
            )
        if base is not None:
            session = cls(
                directory,
                base.config,
                schema_name=base.schema_name,
                fsync=fsync,
                wal_batch_every=wal_batch_every,
                wal_segment_bytes=wal_segment_bytes,
                keep_checkpoints=keep_checkpoints,
                retain_union=base._retain_union,
                streaming_postprocess=base._streaming,
                track_keys=base._track_keys,
                _resume=True,
            )
            session._adopt_state(base._dstate)
            session.reports = base.reports
            session._timer = base._timer
            session._result = base._result
        else:
            session = cls(
                directory,
                config,
                schema_name=schema_name,
                fsync=fsync,
                wal_batch_every=wal_batch_every,
                wal_segment_bytes=wal_segment_bytes,
                keep_checkpoints=keep_checkpoints,
                retain_union=retain_union,
                streaming_postprocess=streaming_postprocess,
                track_keys=track_keys,
                _resume=True,
            )
        session._replay_wal()
        return session

    def _replay_wal(self) -> None:
        """Apply every WAL record strictly after the restored position."""
        _replay_wal_records(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Seal the WAL (flush + fsync its open segment)."""
        self._wal.close()

    def __enter__(self) -> "DurableSchemaSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _replay_record(session, payload: bytes) -> None:
    """Re-apply one WAL record through the session's own feed methods."""
    kind, body = payload[:1], payload[1:]
    change_set = ChangeSet.from_wire(body)
    if kind == _KIND_BATCH:
        graph = PropertyGraph(f"{session.schema_name}-replay")
        for node in change_set.nodes:
            graph.put_node(node)
        for edge in change_set.edges:
            graph.add_edge(edge)
        session.add_batch(graph)
    elif kind == _KIND_CHANGESET:
        session.apply(change_set)
    else:
        raise WALCorruptError(
            f"unknown WAL record kind {kind!r} (payload of a newer build?)"
        )


class DurableShardedSchemaSession(ShardedSchemaSession):
    """A :class:`ShardedSchemaSession` with a parent-level WAL.

    Change-sets are logged once, *before* partitioning, in the parent
    process -- whether they arrive through :meth:`apply` or a pipelined
    :meth:`ingest_stream` -- and workers never touch the log.
    Checkpoints are manifest directories ``checkpoint-<sequence>/``
    under the session directory.
    Worker deaths are handled by the base class's retry/degrade
    machinery; this class adds whole-process crash recovery on top.
    """

    def __init__(
        self,
        directory: str | Path,
        config: PGHiveConfig | None = None,
        schema_name: str = "sharded-schema",
        *,
        n_shards: int = 4,
        parallel: bool = False,
        fsync: str = "batch",
        wal_batch_every: int = 8,
        wal_segment_bytes: int = 8 * 1024 * 1024,
        keep_checkpoints: int = 2,
        retain_union: bool | None = None,
        streaming_postprocess: bool | None = None,
        track_keys: bool | None = None,
        max_shard_retries: int = 2,
        retry_backoff: float = 0.05,
        resync_every: int = 64,
        _resume: bool = False,
    ) -> None:
        if keep_checkpoints < 1:
            raise ConfigurationError(
                f"keep_checkpoints must be >= 1, got {keep_checkpoints}"
            )
        directory = Path(directory)
        if not _resume and _has_durable_state(
            directory, _CHECKPOINT_DIR_RE, want_dir=True
        ):
            raise ConfigurationError(
                f"{directory} already holds durable session state; resume "
                "it with DurableShardedSchemaSession.recover(...) instead "
                "of constructing a fresh session over it"
            )
        directory.mkdir(parents=True, exist_ok=True)
        super().__init__(
            config,
            schema_name=schema_name,
            n_shards=n_shards,
            parallel=parallel,
            retain_union=retain_union,
            streaming_postprocess=streaming_postprocess,
            track_keys=track_keys,
            max_shard_retries=max_shard_retries,
            retry_backoff=retry_backoff,
            resync_every=resync_every,
        )
        self.directory = directory
        self.keep_checkpoints = int(keep_checkpoints)
        self._replaying = False
        self._wal = WriteAheadLog(
            directory / _WAL_DIR,
            fsync=fsync,
            batch_every=wal_batch_every,
            segment_bytes=wal_segment_bytes,
        )

    # ------------------------------------------------------------------
    # Logged change feed (add_batch routes through apply in the base)
    # ------------------------------------------------------------------
    @property
    def wal(self) -> WriteAheadLog:
        """The session's write-ahead log."""
        return self._wal

    def apply(self, change_set: ChangeSet) -> ShardedChangeReport:
        if self._replaying:
            return super().apply(change_set)
        return _logged_apply(
            self,
            _KIND_CHANGESET,
            change_set,
            lambda: super(DurableShardedSchemaSession, self).apply(change_set),
        )

    def _stage_pipelined(self, change_set: ChangeSet):
        # Parallel ingest_stream stages change-sets here rather than
        # through apply; log each one before it is staged, exactly as
        # apply does, so the pipelined feed is as durable as lockstep.
        if self._replaying:
            return super()._stage_pipelined(change_set)
        return _logged_apply(
            self,
            _KIND_CHANGESET,
            change_set,
            lambda: super(
                DurableShardedSchemaSession, self
            )._stage_pipelined(change_set),
        )

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str | Path | None = None) -> Path:
        """Write a manifest checkpoint; prune WAL and stale snapshots.

        Same contract as the single-session variant: no argument means
        an internal ``checkpoint-<sequence>/`` directory that recovery,
        WAL pruning, and retention manage (pruning stops at the oldest
        retained manifest so fallback replay never hits a gap); an
        explicit path writes a plain portable manifest checkpoint.
        """
        self._wal.sync()
        if directory is None:
            target = self.directory / f"checkpoint-{self._sequence:012d}"
            super().checkpoint(target)
            self._prune_checkpoints()
            self._wal.prune(
                _oldest_retained_sequence(
                    self.directory, _CHECKPOINT_DIR_RE, want_dir=True
                )
            )
            return target
        return super().checkpoint(Path(directory))

    def _prune_checkpoints(self) -> None:
        candidates = _checkpoint_candidates(
            self.directory, _CHECKPOINT_DIR_RE, want_dir=True
        )
        for stale in candidates[self.keep_checkpoints :]:
            shutil.rmtree(stale, ignore_errors=True)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: str | Path,
        *,
        parallel: bool | None = None,
        fsync: str = "batch",
        wal_batch_every: int = 8,
        wal_segment_bytes: int = 8 * 1024 * 1024,
        keep_checkpoints: int = 2,
        config: PGHiveConfig | None = None,
        schema_name: str = "sharded-schema",
        n_shards: int = 4,
        retain_union: bool | None = None,
        streaming_postprocess: bool | None = None,
        track_keys: bool | None = None,
        max_shard_retries: int = 2,
        retry_backoff: float = 0.05,
        resync_every: int = 64,
    ) -> "DurableShardedSchemaSession":
        """Sharded analogue of :meth:`DurableSchemaSession.recover`.

        ``parallel`` overrides the restored execution mode; the shape
        parameters (``config``/``n_shards``/flags) apply only when no
        checkpoint exists yet (WAL-only recovery).
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise CheckpointError(
                f"cannot recover from {directory}: no such directory"
            )
        base = None
        failures: list[str] = []
        for candidate in _checkpoint_candidates(
            directory, _CHECKPOINT_DIR_RE, want_dir=True
        ):
            try:
                base = ShardedSchemaSession.restore(
                    candidate, parallel=parallel
                )
                break
            except CheckpointError as error:
                failures.append(f"{candidate.name}: {error}")
        if base is None and failures:
            raise CheckpointError(
                "no checkpoint under "
                f"{directory} could be restored: " + "; ".join(failures)
            )
        if base is not None:
            session = cls(
                directory,
                base.config,
                schema_name=base.schema_name,
                n_shards=base.n_shards,
                parallel=base.parallel,
                fsync=fsync,
                wal_batch_every=wal_batch_every,
                wal_segment_bytes=wal_segment_bytes,
                keep_checkpoints=keep_checkpoints,
                retain_union=base._retain_union,
                streaming_postprocess=base._streaming,
                track_keys=base._track_keys,
                max_shard_retries=max_shard_retries,
                retry_backoff=retry_backoff,
                resync_every=resync_every,
                _resume=True,
            )
            session._adopt_restored(base)
        else:
            session = cls(
                directory,
                config,
                schema_name=schema_name,
                n_shards=n_shards,
                parallel=bool(parallel),
                fsync=fsync,
                wal_batch_every=wal_batch_every,
                wal_segment_bytes=wal_segment_bytes,
                keep_checkpoints=keep_checkpoints,
                retain_union=retain_union,
                streaming_postprocess=streaming_postprocess,
                track_keys=track_keys,
                max_shard_retries=max_shard_retries,
                retry_backoff=retry_backoff,
                resync_every=resync_every,
                _resume=True,
            )
        session._replay_wal()
        return session

    def _adopt_restored(self, base: ShardedSchemaSession) -> None:
        """Transplant a restored base session's live innards.

        The donor is neutralised afterwards (its pools and shard
        sessions now belong to this session); do not keep using it.
        """
        self._registry = base._registry
        self._interner = base._interner
        self._interner_pinned = base._interner_pinned
        self._signatures = base._signatures
        self._sequence = base._sequence
        self.reports = base.reports
        self._shards = base._shards
        self._pools = base._pools
        self._shard_states = base._shard_states
        self._shard_dirty = base._shard_dirty
        self._merged_state = base._merged_state
        self._pending = base._pending
        self._degraded = base._degraded
        base._pools = None
        base._shards = None

    def _replay_wal(self) -> None:
        """Apply every WAL record strictly after the restored position."""
        _replay_wal_records(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Seal the WAL and shut down worker pools."""
        self._wal.close()
        super().close()

"""`ShardedSchemaSession`: partitioned, parallel discovery over N shards.

The incremental-view-maintenance literature's standard route to parallel
maintenance -- partition the change feed, keep mergeable per-partition
state, combine on read -- applied to PG-HIVE:

* Element-wise inserts convert once, before staging (and so before the
  durable subclass logs them), into one columnar
  :class:`~repro.graph.columnar.ElementBatch` on the session's interner,
  through the converter the single session uses
  (:func:`~repro.graph.columnar.columnar_changeset`); past that point
  every change-set is columnar or deletion-only.
  :func:`~repro.graph.columnar.partition_columnar` then routes every node
  and edge row to one of ``n_shards`` per-shard
  :class:`~repro.core.session.SchemaSession`\\ s by stable content
  hashing.  Edges travel with full *stub* rows of endpoints owned by
  other shards (resolved from the session's node registry), flagged so
  the receiving shard clusters them for context but never records them
  -- each element is counted by exactly one shard, which is what makes
  the per-shard states mergeable without double-counting.  Node
  deletions broadcast to every shard (stub copies and their incident
  edges must cascade everywhere); edge deletions route to the owning
  shard.
* Shards run serially in-process by default, or -- with
  ``parallel=True`` -- each shard gets a dedicated single-worker
  ``ProcessPoolExecutor`` so its session lives in a pinned OS process and
  change-sets for different shards are ingested concurrently.
* **Merged reads and determinism.** :meth:`schema` fetches one
  :class:`ShardView` per dirty shard -- its instance-bearing schema
  (accumulators attached while streaming reads are valid), its
  ``streaming_valid`` flag and its stream position; no union graph,
  interner, signature store or pipeline cache crosses the process
  boundary on a read.  The views fold in shard order
  (:func:`~repro.core.state.merged_schema`) and the merged schema is
  post-processed once: accumulator reads, or -- after any deletion -- a
  full scan of the *coordinator's* union graph.  With ``retain_union``
  the coordinator keeps that union itself, taking every committed
  change-set in the single session's order (inserts, first version
  wins; then edge deletions; then node deletions, cascading), so it is
  the single session's union.  Views of untouched shards come from the
  view cache, and a read on a quiet feed returns the cached merged
  schema outright.  In serial mode the union is held twice in one
  process -- in the shard sessions and in the coordinator -- sharing
  node and edge objects but not the graph maps.
* :meth:`checkpoint` extends the session checkpoint format with a
  per-shard manifest: one versioned manifest file plus one ordinary
  session checkpoint per shard, so shards restore independently (and, in
  parallel mode, write/load their own files inside their worker
  processes).
* **State as a value, for crash recovery only.** A shard's full
  :class:`~repro.core.state.DiscoveryState` is fetched as its recovery
  *baseline*: at restore and by the eager resync every
  :data:`RESYNC_EVERY` applied parts, never by a read.
* **Worker fault tolerance** (parallel mode): a dead worker process
  never surfaces a raw ``BrokenProcessPool``.  The shard's pool is
  restarted with bounded exponential backoff, its baseline is
  resubmitted and the change-sets applied since are replayed
  (``_pending``), and the failed operation is retried.  After
  ``max_shard_retries`` failed restarts the shard *degrades* to an
  in-process serial session -- correct but no longer parallel --
  surfaced through a :class:`~repro.errors.DegradedModeWarning` and a
  structured
  :class:`ShardFaultEvent` journal (``fault_events``), never silently.

Determinism: shard views fold in shard order, the schema merge processes
types in canonical content order, and the merged schema gets canonical
type names -- so for label-mergeable feeds the merged schema is
fingerprint-identical to a single :class:`SchemaSession` over the same
change-sets, for every shard count (the sharding oracle pins this).
Abstract-type Jaccard absorption remains order-sensitive, exactly as it
is between batches of a single session.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from collections import deque
from collections.abc import Iterable
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core.config import PGHiveConfig
from repro.core.durability import read_artifact, write_artifact
from repro.core.pipeline import PGHive
from repro.core.session import ChangeReport, SchemaSession
from repro.core.shm import (
    ShmChangeSet,
    decode_changeset_shm,
    encode_changeset_shm,
    global_registry as global_shm_registry,
    rebase_changeset,
    shm_available,
)
from repro.core.state import DiscoveryState, instance_bearing, merged_schema
from repro.errors import (
    CheckpointCorruptError,
    ConfigurationError,
    DegradedModeWarning,
)
from repro.graph.changes import ChangeSet, HashPartitioner
from repro.graph.columnar import (
    Interner,
    SignatureStore,
    columnar_changeset,
    global_interner,
    partition_columnar,
    value_shapes,
)
from repro.graph.model import PropertyGraph
from repro.schema.model import SchemaGraph

#: First line of every sharded-checkpoint manifest (digest-framed; see
#: repro.core.durability).  Registry entries are content-encoded records;
#: version 4 dropped the per-session post-processing options, which
#: follow the config.
MANIFEST_MAGIC = b"pghive-sharded-checkpoint"
MANIFEST_VERSION = 4
MANIFEST_NAME = "manifest.ckpt"

#: Pending-replay length at which a parallel shard's state is fetched
#: eagerly as its recovery baseline, bounding how many parts a pool
#: restart must resubmit.
RESYNC_EVERY = 64


@dataclass(frozen=True)
class ShardedChangeReport:
    """Diagnostics for one change-set applied across shards.

    Insert counts are the producer's (stubs excluded); deletion counts
    are global -- a node removed from three shards (owner plus two stub
    copies) counts once.  ``shard_reports`` carries the per-shard
    :class:`~repro.core.session.ChangeReport` of every shard that
    received a non-empty sub-change-set.
    """

    sequence: int
    nodes_inserted: int
    edges_inserted: int
    nodes_deleted: int
    edges_deleted: int
    seconds: float
    shard_reports: tuple[tuple[int, ChangeReport], ...]

    @property
    def shards_touched(self) -> int:
        """Number of shards that received work from this change-set."""
        return len(self.shard_reports)


@dataclass(frozen=True)
class ShardView:
    """What a merged read needs from one shard, and nothing more.

    ``schema`` is the shard's instance-bearing schema
    (:func:`~repro.core.state.instance_bearing`); it carries the per-type
    accumulators only while ``streaming_valid`` holds -- after a deletion
    the read re-scans the coordinator's union and has no use for them.
    ``sequence`` is the shard's stream position.  In serial mode the
    view shares the live shard's type objects: read it, never mutate it.
    """

    schema: SchemaGraph
    streaming_valid: bool
    sequence: int


def shard_view(session: SchemaSession) -> ShardView:
    """The :class:`ShardView` of one shard session."""
    state = session.discovery_state
    return ShardView(
        schema=instance_bearing(
            state.schema, keep_summaries=state.streaming_valid
        ),
        streaming_valid=state.streaming_valid,
        sequence=state.sequence,
    )


@dataclass(frozen=True)
class ShardFaultEvent:
    """One structured entry of a sharded session's fault journal.

    ``kind`` is ``"retry"`` (the worker pool died and is being
    restarted) or ``"degraded"`` (retries exhausted; the shard fell back
    to in-process serial execution).  ``attempt`` counts restarts of the
    same operation; ``detail`` carries the triggering error text.
    """

    kind: str
    shard: int
    attempt: int
    detail: str


# ----------------------------------------------------------------------
# Worker-process plumbing (parallel mode).  Each shard owns a dedicated
# single-worker ProcessPoolExecutor, so one module-level session per
# worker process is exactly one session per shard.
# ----------------------------------------------------------------------
_WORKER_SESSION: SchemaSession | None = None


def _worker_init(config, schema_name, retain_union):
    global _WORKER_SESSION
    _WORKER_SESSION = SchemaSession(
        config, schema_name=schema_name, retain_union=retain_union
    )


def _worker_apply(change_set: ChangeSet) -> ChangeReport:
    return _WORKER_SESSION.apply(change_set)


def _worker_apply_shm(descriptor: ShmChangeSet) -> ChangeReport:
    """Apply one shared-memory change-set inside the shard worker.

    Decodes against the session's *current* interner, so every batch of
    one worker lifetime shares a single grow-only id lineage -- the
    invariant the session's signature refcounts rely on.  (Pickled
    batches satisfy it differently: each carries a copy of the
    coordinator's interner, and successive copies are id-compatible
    supersets.)
    """
    session = _WORKER_SESSION
    interner = session.discovery_state.interner or global_interner()
    return session.apply(decode_changeset_shm(descriptor, interner))


def _worker_state() -> DiscoveryState:
    return _WORKER_SESSION.discovery_state


def _worker_view() -> ShardView:
    return shard_view(_WORKER_SESSION)


def _worker_checkpoint(path: str) -> str:
    return str(_WORKER_SESSION.checkpoint(path))


def _worker_restore(path: str) -> int:
    global _WORKER_SESSION
    _WORKER_SESSION = SchemaSession.restore(path)
    return _WORKER_SESSION.sequence


def _worker_adopt(state: DiscoveryState, config, schema_name) -> int:
    """Replace the worker's session with one resumed from ``state``.

    Pool-restart recovery ships the shard's baseline back into the fresh
    worker; the parent then replays the change-sets applied since that
    baseline was fetched, reproducing the pre-crash session bit for bit.
    """
    global _WORKER_SESSION
    _WORKER_SESSION = SchemaSession.from_state(
        state, config, schema_name=schema_name
    )
    return _WORKER_SESSION.sequence


#: Worker entry points by operation name, for the crash-recovery wrapper.
_WORKER_OPS = {
    "apply": _worker_apply,
    "state": _worker_state,
    "view": _worker_view,
    "checkpoint": _worker_checkpoint,
}


def _degraded_op(session: SchemaSession, op: str, *args):
    """In-process equivalent of one worker operation (degraded shards)."""
    if op == "apply":
        return session.apply(args[0])
    if op == "state":
        return session.discovery_state
    if op == "view":
        return shard_view(session)
    return str(session.checkpoint(args[0]))


@dataclass
class _PreparedChange:
    """Coordinator-side effects of one change-set, staged for dispatch.

    ``_prepare`` seeds the registry/signature stores and partitions;
    a failed submission rolls the seeds back through ``_rollback``; a
    successful one commits deletions and the sequence bump.  Splitting
    the phases this way lets :meth:`ShardedSchemaSession.ingest_stream`
    overlap the dispatch of several change-sets.
    """

    change_set: ChangeSet
    parts: dict[int, ChangeSet]
    deleted_nodes: set[str]
    inserted_node_ids: set[str]
    nodes_inserted: int
    edges_inserted: int
    seeded: list[str]
    seeded_signatures: list[int]
    interner_before: Interner
    pinned_before: bool


@dataclass
class _InflightDispatch:
    """One change-set's dispatch in flight across the shard pools."""

    parts: dict[int, ChangeSet]
    reports: dict[int, ChangeReport] = field(default_factory=dict)
    futures: dict[int, Future] = field(default_factory=dict)
    failed: dict[int, BaseException] = field(default_factory=dict)
    #: shared-memory block name per shard, released after collection.
    blocks: dict[int, str] = field(default_factory=dict)


class ShardedSchemaSession:
    """N-way partitioned discovery with a mergeable combined read view.

    Accepts the same change feed as :class:`SchemaSession` (``apply`` /
    ``add_batch``) and serves the same lazy :meth:`schema` snapshots;
    ``retain_union`` overrides the config field exactly as on the single
    session.  Use as a context manager (or call :meth:`close`) when
    ``parallel=True`` so the worker processes shut down deterministically.
    """

    def __init__(
        self,
        config: PGHiveConfig | None = None,
        schema_name: str = "sharded-schema",
        *,
        n_shards: int = 4,
        parallel: bool = False,
        retain_union: bool | None = None,
        max_shard_retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        if max_shard_retries < 0:
            raise ConfigurationError(
                f"max_shard_retries must be >= 0, got {max_shard_retries}"
            )
        if retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        self.config = config or PGHiveConfig()
        self.schema_name = schema_name
        self.n_shards = int(n_shards)
        self.parallel = bool(parallel)
        self._retain_union = (
            self.config.retain_union if retain_union is None else retain_union
        )
        # Shards must never flush post-processing themselves: specs stay
        # raw so the passes run once, over the merged schema.
        self._shard_config = replace(self.config, post_process_each_batch=False)
        self._partitioner = HashPartitioner(self.n_shards)
        #: first-inserted version of every live node, for stub routing
        #: (mirrors the union graph's first-version-wins semantics), as a
        #: compact ``(labelset_id, keyset_id, values)`` record.
        self._registry: dict[str, tuple[int, int, tuple]] = {}
        #: the single interner every change-set of this session must
        #: share: registry records store interner-local ids, so a batch
        #: built against a different interner would silently decode to
        #: wrong content.  Pinned by the first insert (element inserts
        #: convert on it; columnar ones bring theirs) or by restore, and
        #: enforced afterwards.
        self._interner: Interner = global_interner()
        self._interner_pinned = False
        #: coordinator-level signature seeds mirroring the registry: one
        #: refcount per live registered node, keyed by the node's
        #: structural signature.  Seeded alongside registry entries,
        #: rolled back with them on a rejected change-set, decremented
        #: when a committed deletion unregisters the node, and persisted
        #: content-encoded in the manifest.
        self._signatures = SignatureStore(self._interner)
        self._sequence = 0
        self.reports: list[ShardedChangeReport] = []
        #: per shard: changed since its view was last fetched.
        self._shard_dirty = [True] * self.n_shards
        #: the last fetched read view of each shard (merged reads only).
        self._shard_views: list[ShardView | None] = [None] * self.n_shards
        #: the crash-recovery baseline of each parallel shard: its full
        #: state as of restore or the last eager resync (never a read).
        self._shard_states: list[DiscoveryState | None] = [None] * self.n_shards
        self._merged_schema: SchemaGraph | None = None
        #: the union of every change-set committed so far, maintained
        #: like a single session's (``retain_union`` only): the graph the
        #: full-scan post-processing reads after a deletion.
        self._union: PropertyGraph | None = (
            PropertyGraph(f"{self.schema_name}-union")
            if self._retain_union
            else None
        )
        self._shards: list[SchemaSession] | None = None
        self._pools: list[ProcessPoolExecutor] | None = None
        # Fault tolerance (parallel mode): worker death triggers up to
        # ``max_shard_retries`` pool restarts with bounded exponential
        # backoff, resubmitting the shard's baseline plus the
        # change-sets applied since (``_pending``); exhausted retries
        # degrade the shard to an in-process session, never silently.
        self.max_shard_retries = int(max_shard_retries)
        self.retry_backoff = float(retry_backoff)
        #: structured journal of every worker fault handled.
        self.fault_events: list[ShardFaultEvent] = []
        self._pending: list[list[ChangeSet]] = [
            [] for _ in range(self.n_shards)
        ]
        self._degraded: dict[int, SchemaSession] = {}
        #: handoff mode: ``"shm"`` ships parts through shared-memory
        #: blocks whenever the platform provides POSIX shared memory,
        #: ``"pickle"`` ships whole change-sets otherwise.  Serial mode
        #: never consults it (shards apply in-process).
        self.handoff = (
            "shm" if self.parallel and shm_available() else "pickle"
        )
        self._shm_registry = global_shm_registry()
        #: futures submitted to each shard's pool and not yet collected
        #: (the ingest_stream window keeps several in flight per shard).
        self._shard_inflight = [0] * self.n_shards
        if not self.parallel:
            self._shards = [
                self._make_shard_session(index) for index in range(self.n_shards)
            ]

    # ------------------------------------------------------------------
    # Shard plumbing
    # ------------------------------------------------------------------
    def _make_shard_session(self, index: int) -> SchemaSession:
        return SchemaSession(
            self._shard_config,
            schema_name=f"{self.schema_name}-shard{index}",
            retain_union=self._retain_union,
        )

    def _make_shard_pool(self, index: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            initializer=_worker_init,
            initargs=(
                self._shard_config,
                f"{self.schema_name}-shard{index}",
                self._retain_union,
            ),
        )

    def _ensure_pools(self) -> list[ProcessPoolExecutor]:
        if self._pools is None:
            self._pools = [
                self._make_shard_pool(index) for index in range(self.n_shards)
            ]
        return self._pools

    def close(self) -> None:
        """Shut down worker processes (no-op in serial mode)."""
        if self._pools is not None:
            for pool in self._pools:
                pool.shutdown(wait=True)
            self._pools = None

    def __enter__(self) -> "ShardedSchemaSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sequence(self) -> int:
        """Number of change-sets applied to the sharded session."""
        return self._sequence

    @property
    def dirty(self) -> bool:
        """True when some shard changed since the last merged read."""
        return self._merged_schema is None or any(self._shard_dirty)

    @property
    def shard_sessions(self) -> list[SchemaSession]:
        """The in-process shard sessions (serial mode only)."""
        if self._shards is None:
            raise ConfigurationError(
                "shard sessions live in worker processes under parallel=True"
            )
        return self._shards

    def __repr__(self) -> str:
        mode = "parallel" if self.parallel else "serial"
        return (
            f"ShardedSchemaSession(name={self.schema_name!r}, "
            f"n_shards={self.n_shards}, mode={mode}, "
            f"changes={self._sequence})"
        )

    # ------------------------------------------------------------------
    # Change feed
    # ------------------------------------------------------------------
    def apply(self, change_set: ChangeSet) -> ShardedChangeReport:
        """Partition one change-set and apply the parts to their shards.

        Element inserts convert to columnar first; change-sets partition
        over the batch's id column and the per-shard sub-change-sets stay
        columnar, so every shard ingests through the zero-copy path.
        This is :meth:`ingest_stream` with a window of one: the same
        stage/finish path, collected before returning.
        """
        return self._finish(*self._stage(self._as_columnar(change_set)))

    def _prepare(self, change_set: ChangeSet) -> _PreparedChange:
        """Stage one change-set: seed registry/signatures and partition.

        Rejection during staging rolls its own seeds back; once the
        staged parts exist the caller owns the rollback-vs-commit
        decision around dispatch.
        """
        if change_set.has_deletions and not self._retain_union:
            raise ConfigurationError(
                "deletions require retained union graphs: construct the "
                "sharded session with PGHiveConfig(retain_union=True)"
            )
        interner_before = self._interner
        pinned_before = self._interner_pinned
        seeded: list[str] = []
        seeded_signatures: list[int] = []
        columnar = change_set.columnar
        batch_records: dict[str, tuple[int, int, tuple]] = {}
        if columnar is not None:
            if columnar.interner is not self._interner:
                if self._interner_pinned:
                    raise ConfigurationError(
                        "columnar change-sets of one sharded session must "
                        "all share one Interner: the node registry stores "
                        "interner-local ids, and records from a different "
                        "interner would decode to wrong content"
                    )
                self._interner = columnar.interner
                self._signatures.interner = columnar.interner
            self._interner_pinned = True
            registry = self._registry
            # Build each node's compact record once (node ids of a frozen
            # batch are unique): it seeds the registry *and* feeds the
            # partitioner's stub rows.  The batch already carries the
            # structural signature column, so seeding the signature
            # refcounts rides the same pass.
            signature_list = columnar.nodes.signature_list
            for row, node_id in enumerate(columnar.nodes.ids):
                record = batch_records[node_id] = columnar.node_record(row)
                if node_id not in registry:
                    registry[node_id] = record
                    seeded.append(node_id)
                    signature_id = signature_list[row]
                    self._signatures.add(signature_id)
                    seeded_signatures.append(signature_id)
        prepared = _PreparedChange(
            change_set=change_set,
            parts={},
            deleted_nodes={
                node_id
                for node_id in change_set.delete_nodes
                if node_id in self._registry
            },
            inserted_node_ids=set(batch_records),
            nodes_inserted=change_set.inserted_node_count,
            edges_inserted=change_set.inserted_edge_count,
            seeded=seeded,
            seeded_signatures=seeded_signatures,
            interner_before=interner_before,
            pinned_before=pinned_before,
        )
        try:
            prepared.parts = partition_columnar(
                self._partitioner, change_set, batch_records
            )
        except Exception:
            self._rollback(prepared)
            raise
        return prepared

    def _as_columnar(self, change_set: ChangeSet) -> ChangeSet:
        """The coordinator's element boundary: element inserts convert on
        the session's interner, endpoints the change-set does not carry
        resolve against the node registry
        (:func:`~repro.graph.columnar.columnar_changeset`)."""
        return columnar_changeset(change_set, self._interner, self._registry.get)

    def _rollback(self, prepared: _PreparedChange) -> None:
        """Un-stage a rejected change-set.

        The coordinator must end up as if the batch never happened:
        un-seed the registry entries of this batch and restore the
        interner pin (PR 7's poisoning class, now caught by PGL802).
        Signature seeds roll back with their registry entries -- before
        the interner pin is restored, while their ids are still
        resolvable.
        """
        for node_id in prepared.seeded:
            del self._registry[node_id]
        for signature_id in prepared.seeded_signatures:
            self._signatures.remove(signature_id)
        self._interner = prepared.interner_before
        self._interner_pinned = prepared.pinned_before
        self._signatures.interner = prepared.interner_before

    def _commit_coordinator(self, prepared: _PreparedChange) -> int:
        """Commit coordinator effects; returns the sequence number.

        Union-registry deletions commit only once the parts were
        submitted to their shards (and before the next change-set
        partitions, which keeps the registry serial-equivalent), so a
        batch rejected at staging or submission cannot leave the
        registry missing nodes the shards still hold.  The signature
        decrement reads the registry entry before it is dropped.  The
        coordinator union takes the change-set at the same point.
        """
        if self._union is not None:
            self._update_union(prepared.change_set)
        for node_id in prepared.deleted_nodes:
            self._signatures.remove(
                self._record_signature(self._registry[node_id])
            )
            del self._registry[node_id]
        self._sequence += 1
        return self._sequence

    def _update_union(self, change_set: ChangeSet) -> None:
        """Mirror one committed change-set into the coordinator union.

        The order and rules of :meth:`SchemaSession._apply`: inserted
        rows the union lacks are added (first version wins), then edge
        deletions apply, then node deletions, each cascading its
        incident edges; ids the union does not hold are skipped.
        """
        union = self._union
        if change_set.columnar is not None:
            change_set.columnar.merge_into_graph(union)
        for edge_id in change_set.delete_edges:
            if union.has_edge(edge_id):
                union.remove_edge(edge_id)
        for node_id in change_set.delete_nodes:
            if union.has_node(node_id):
                union.remove_node(node_id)

    def _build_report(
        self,
        prepared: _PreparedChange,
        sequence: int,
        shard_reports: tuple[tuple[int, ChangeReport], ...],
        seconds: float,
    ) -> ShardedChangeReport:
        stubs = (
            frozenset(prepared.change_set.stub_node_ids)
            & prepared.inserted_node_ids
        )
        report = ShardedChangeReport(
            sequence=sequence,
            nodes_inserted=prepared.nodes_inserted - len(stubs),
            edges_inserted=prepared.edges_inserted,
            nodes_deleted=len(prepared.deleted_nodes),
            edges_deleted=sum(r.edges_deleted for _, r in shard_reports),
            seconds=seconds,
            shard_reports=shard_reports,
        )
        self.reports.append(report)
        return report

    def add_batch(self, batch: PropertyGraph) -> ShardedChangeReport:
        """Sugar: apply one insert-only property-graph batch."""
        return self.apply(ChangeSet.from_graph(batch))

    def _record_signature(self, record: tuple[int, int, tuple]) -> int:
        """The structural-signature id of one compact node record."""
        labelset_id, keyset_id, values = record
        return self._interner.intern_element_signature(
            labelset_id, keyset_id, value_shapes(values)
        )

    def _submit_parts(self, parts: dict[int, ChangeSet]) -> _InflightDispatch:
        """Ship one change-set's parts to their shards without waiting.

        Serial and degraded shards apply inline (there is no process to
        overlap with); live parallel shards get their part submitted to
        their pinned single-worker pool -- through a shared-memory block
        under the ``"shm"`` handoff, a pickle otherwise -- and the
        returned dispatch carries the futures plus the block names to
        release at collection.
        """
        inflight = _InflightDispatch(parts=parts)
        if not parts:
            return inflight
        for index in parts:
            self._shard_dirty[index] = True
        if not self.parallel:
            for index, part in parts.items():
                inflight.reports[index] = self._shards[index].apply(part)
            return inflight
        pools = self._ensure_pools()
        for index, part in parts.items():
            session = self._degraded.get(index)
            if session is not None:
                inflight.reports[index] = self._degraded_apply(session, part)
                continue
            try:
                if self.handoff == "shm" and part.columnar is not None:
                    descriptor = encode_changeset_shm(part, self._shm_registry)
                    inflight.blocks[index] = descriptor.block
                    inflight.futures[index] = pools[index].submit(
                        _worker_apply_shm, descriptor
                    )
                else:
                    inflight.futures[index] = pools[index].submit(
                        _worker_apply, part
                    )
                self._shard_inflight[index] += 1
            except (OSError, BrokenProcessPool) as error:
                inflight.failed[index] = error
        return inflight

    def _collect_dispatch(
        self, inflight: _InflightDispatch
    ) -> tuple[tuple[int, ChangeReport], ...]:
        """Wait for one dispatch and fold in crash recovery.

        A shard may have degraded between this dispatch's submission and
        now (an earlier dispatch of the window exhausted its retries); its
        broken future then lands in ``failed`` and the part replays on
        the degraded in-process session instead of the recovery path.
        Shared-memory blocks release unconditionally -- the creator-side
        reference is dropped even when collection raises.
        """
        parts, reports = inflight.parts, inflight.reports
        failed = inflight.failed
        try:
            if inflight.futures:
                wait(list(inflight.futures.values()))
                for index, future in inflight.futures.items():
                    self._shard_inflight[index] -= 1
                    try:
                        reports[index] = future.result()
                        self._record_applied(index, parts[index])
                    except (OSError, BrokenProcessPool) as error:
                        failed[index] = error
            for index in sorted(failed):
                session = self._degraded.get(index)
                if session is not None:
                    reports[index] = self._degraded_apply(
                        session, parts[index]
                    )
                else:
                    reports[index] = self._recover_shard_op(
                        index, "apply", (parts[index],), failed[index]
                    )
        finally:
            for name in inflight.blocks.values():
                self._shm_registry.release(name)
            inflight.blocks.clear()
        return tuple(sorted(reports.items()))

    def ingest_stream(
        self, change_sets: Iterable[ChangeSet]
    ) -> list[ShardedChangeReport]:
        """Apply a whole change feed with pipelined shard dispatch.

        Each change-set is staged -- partitioned, registry-seeded,
        encoded for its workers, submitted -- while shard workers still
        ingest earlier ones; its coordinator effects commit at
        submission, so the next change-set partitions against the exact
        serial-equivalent registry.  Results are collected through a
        bounded window of ``max(2, n_shards)`` dispatches for
        backpressure.  Single-worker pools apply each shard's parts in
        submission order, so per-shard state is identical to one
        :meth:`apply` call per change-set; reports come back in feed
        order.  Serial shards apply at submission, so in serial mode the
        window only holds dispatches that already finished.

        Coordinator-side rejection (a dangling edge, a foreign interner,
        deletions without ``retain_union``) is detected at staging and
        rolls back before anything commits.  A worker-side exception
        after submission cannot roll the coordinator back -- here and in
        :meth:`apply` alike -- but the error still surfaces.  Parts reach
        their workers endpoint-complete and already validated, so no
        known input takes that path.
        """
        window_size = max(2, self.n_shards)
        reports: list[ShardedChangeReport] = []
        window: deque[
            tuple[_PreparedChange, int, _InflightDispatch, float]
        ] = deque()
        try:
            for change_set in change_sets:
                # Backpressure: a full window blocks on the oldest
                # dispatch, and an oversized pending-replay tail drains
                # the window until the eager resync can run (it is
                # suppressed while its shard has futures in flight).
                while len(window) >= window_size or (
                    window
                    and any(
                        len(pending) >= RESYNC_EVERY
                        for pending in self._pending
                    )
                ):
                    reports.append(self._finish(*window.popleft()))
                window.append(self._stage(self._as_columnar(change_set)))
            while window:
                reports.append(self._finish(*window.popleft()))
        except BaseException:
            # Drain what remains so shm blocks release and inflight
            # counters stay truthful; the first error wins.
            while window:
                entry = window.popleft()
                try:
                    self._finish(*entry)
                except Exception:
                    pass
            raise
        return reports

    def _stage(
        self, change_set: ChangeSet
    ) -> tuple[_PreparedChange, int, _InflightDispatch, float]:
        """Stage, submit and commit one columnar or deletion-only change-set.

        Coordinator effects commit at submission, so a rejection here
        (staging or submission) rolls back and leaves the stream
        position where it was.
        """
        prepared = self._prepare(change_set)
        start = time.perf_counter()  # repro-lint: ignore[PGL102] -- dispatch wall-clock goes into the batch report only, never into state
        try:
            inflight = self._submit_parts(prepared.parts)
        except Exception:
            self._rollback(prepared)
            raise
        sequence = self._commit_coordinator(prepared)
        return prepared, sequence, inflight, start

    def _finish(
        self,
        prepared: _PreparedChange,
        sequence: int,
        inflight: _InflightDispatch,
        start: float,
    ) -> ShardedChangeReport:
        """Collect one staged dispatch and record its report."""
        shard_reports = self._collect_dispatch(inflight)
        seconds = time.perf_counter() - start  # repro-lint: ignore[PGL102] -- dispatch wall-clock goes into the batch report only, never into state
        return self._build_report(prepared, sequence, shard_reports, seconds)

    def _record_applied(self, index: int, part: ChangeSet) -> None:
        """Track a worker-applied change-set for crash resubmission.

        The pending list replays on top of the shard's baseline after a
        pool restart; it is cleared whenever a fresh baseline is fetched.
        Reads fetch views, never baselines, so past :data:`RESYNC_EVERY`
        entries the state is resynced eagerly: the replay tail stays
        bounded however the feed is read.
        """
        pending = self._pending[index]
        pending.append(part)
        # While the shard still has futures in flight (a window of them) a
        # state fetch would queue behind them and include their effects,
        # so crash replay of the still-pending parts would double-apply:
        # resync only at quiescence (ingest_stream drains to get there).
        if len(pending) >= RESYNC_EVERY and not self._shard_inflight[index]:
            self._store_fetched_state(index, self._shard_op(index, "state"))

    def _store_fetched_state(self, index: int, state: DiscoveryState) -> None:
        """Adopt a freshly fetched shard state as the recovery baseline."""
        self._shard_states[index] = state
        self._pending[index].clear()

    # ------------------------------------------------------------------
    # Worker fault handling (parallel mode)
    # ------------------------------------------------------------------
    @property
    def degraded_shards(self) -> list[int]:
        """Shards that fell back to in-process serial execution."""
        return sorted(self._degraded)

    def worker_pids(self) -> dict[int, int]:
        """PID of each live shard worker (parallel mode only).

        The fault-injection tests SIGKILL these to exercise real worker
        death rather than a simulated exception.
        """
        if not self.parallel:
            raise ConfigurationError(
                "worker_pids() requires parallel=True (serial shards live "
                "in this process)"
            )
        pools = self._ensure_pools()
        return {
            index: pools[index].submit(os.getpid).result()
            for index in range(self.n_shards)
            if index not in self._degraded
        }

    def _shard_op(self, index: int, op: str, *args):
        """Run one worker operation with crash recovery."""
        session = self._degraded.get(index)
        if session is not None:
            if op == "apply":
                return self._degraded_apply(session, args[0])
            return _degraded_op(session, op, *args)
        try:
            if op == "apply":
                return self._apply_via_pool(
                    self._ensure_pools()[index], args[0]
                )
            return self._ensure_pools()[index].submit(
                _WORKER_OPS[op], *args
            ).result()
        except (OSError, BrokenProcessPool) as error:
            return self._recover_shard_op(index, op, args, error)

    def _apply_via_pool(
        self, pool: ProcessPoolExecutor, part: ChangeSet
    ) -> ChangeReport:
        """Apply one change-set through a shard pool, active handoff.

        Recovery replay must ship parts the same way the live path does:
        under the shm handoff a worker decodes every batch against its
        current interner, and slipping a pickled batch (which carries a
        coordinator-lineage interner copy) in between would break the
        grow-only id lineage its signature refcounts rely on.
        """
        if self.handoff == "shm" and part.columnar is not None:
            descriptor = encode_changeset_shm(part, self._shm_registry)
            try:
                return pool.submit(_worker_apply_shm, descriptor).result()
            finally:
                self._shm_registry.release(descriptor.block)
        return pool.submit(_worker_apply, part).result()

    def _degraded_apply(
        self, session: SchemaSession, part: ChangeSet
    ) -> ChangeReport:
        """Apply one change-set on a degraded in-process session.

        Under the shm handoff the degraded session's interner is a
        worker-lineage copy (restored from the recovery baseline), so
        the part -- built against the coordinator's interner -- is
        rebased onto the session's interner first; under the pickle
        handoff batches already carry a compatible interner.
        """
        if self.handoff == "shm":
            part = rebase_changeset(
                part, session.discovery_state.interner or global_interner()
            )
        return session.apply(part)

    def _recover_shard_op(self, index: int, op: str, args, error):
        """Restart the shard's pool and re-run ``op``; degrade when the
        retry budget is exhausted."""
        detail = f"{type(error).__name__}: {error}"
        for attempt in range(1, self.max_shard_retries + 1):
            self.fault_events.append(
                ShardFaultEvent("retry", index, attempt, detail)
            )
            self._backoff(attempt)
            try:
                self._restart_shard_pool(index)
                if op == "apply":
                    result = self._apply_via_pool(self._pools[index], args[0])
                else:
                    result = self._pools[index].submit(
                        _WORKER_OPS[op], *args
                    ).result()
            except (OSError, BrokenProcessPool) as retry_error:
                detail = f"{type(retry_error).__name__}: {retry_error}"
                continue
            if op == "apply":
                self._record_applied(index, args[0])
            return result
        session = self._degrade_shard(index, detail)
        if op == "apply":
            return self._degraded_apply(session, args[0])
        return _degraded_op(session, op, *args)

    def _backoff(self, attempt: int) -> None:
        delay = min(self.retry_backoff * (2 ** (attempt - 1)), 1.0)
        if delay > 0:
            time.sleep(delay)  # repro-lint: ignore[PGL102] -- bounded restart backoff; wall-clock never reaches discovery state

    def _restart_shard_pool(self, index: int) -> None:
        """Replace a dead worker pool and rebuild its session state."""
        pools = self._ensure_pools()
        pools[index].shutdown(wait=False, cancel_futures=True)
        pools[index] = self._make_shard_pool(index)
        baseline = self._shard_states[index]
        if baseline is not None:
            pools[index].submit(
                _worker_adopt,
                baseline,
                self._shard_config,
                f"{self.schema_name}-shard{index}",
            ).result()
        for part in self._pending[index]:
            self._apply_via_pool(pools[index], part)

    def _degrade_shard(self, index: int, detail: str) -> SchemaSession:
        """Exhausted retries: rebuild the shard in-process and continue.

        Correctness is preserved (baseline + pending replay,
        exactly what a pool restart resubmits); parallelism for this
        shard is not.  Surfaced as a :class:`DegradedModeWarning` plus a
        structured ``"degraded"`` fault event -- never silent.
        """
        self.fault_events.append(
            ShardFaultEvent("degraded", index, self.max_shard_retries, detail)
        )
        warnings.warn(
            DegradedModeWarning(
                f"shard {index} of {self.schema_name!r}: worker pool failed "
                f"after {self.max_shard_retries} restart(s) ({detail}); "
                "continuing in-process serially"
            ),
            stacklevel=4,
        )
        if self._pools is not None:
            self._pools[index].shutdown(wait=False, cancel_futures=True)
        baseline = self._shard_states[index]
        if baseline is None:
            session = self._make_shard_session(index)
        else:
            # The baseline serves no read and no pool will restart from
            # it again, so the degraded session adopts it in place.
            session = SchemaSession.from_state(
                baseline,
                self._shard_config,
                schema_name=f"{self.schema_name}-shard{index}",
            )
        for part in self._pending[index]:
            self._degraded_apply(session, part)
        self._pending[index].clear()
        self._shard_states[index] = None
        self._degraded[index] = session
        return session

    # ------------------------------------------------------------------
    # Merged read view
    # ------------------------------------------------------------------
    def _fetch_view(self, index: int) -> ShardView:
        if not self.parallel:
            return shard_view(self._shards[index])
        return self._shard_op(index, "view")

    def _refresh_views(self) -> list[ShardView]:
        """The current view of every shard, re-fetching dirty ones only.

        Every fetch lands in a local map first; the view cache and the
        dirty flags are written together once all fetches succeeded, so
        a failed fetch leaves both as they were.
        """
        stale = [
            index
            for index in range(self.n_shards)
            if self._shard_dirty[index] or self._shard_views[index] is None
        ]
        fetched: dict[int, ShardView] = {}
        if self.parallel:
            # Fetch all stale live shards concurrently; a dead worker
            # falls back to the crash-recovery path below.
            pools = self._ensure_pools()
            futures = {}
            for index in stale:
                if index in self._degraded:
                    continue
                try:
                    futures[index] = pools[index].submit(_worker_view)
                except (OSError, BrokenProcessPool):
                    continue
            if futures:
                wait(list(futures.values()))
            for index, future in futures.items():
                try:
                    fetched[index] = future.result()
                except (OSError, BrokenProcessPool):
                    continue
        for index in stale:
            if index not in fetched:
                fetched[index] = self._fetch_view(index)
        for index, view in fetched.items():
            self._shard_views[index] = view
            self._shard_dirty[index] = False
        return list(self._shard_views)

    def schema(self) -> SchemaGraph:
        """The merged schema as of the last applied change-set.

        Lazily merged with dirty tracking: untouched shards contribute
        their cached view, and a read on a quiet feed returns the
        previous merged schema without any merge at all.  The merged
        schema is a value -- later writes never mutate it; the next read
        builds a fresh one.
        """
        if not self.dirty:
            return self._merged_schema
        views = self._refresh_views()
        merged = merged_schema(
            (view.schema for view in views),
            theta=self.config.theta,
            name=self.schema_name,
        )
        if self.config.post_processing:
            self._post_process(
                merged, all(view.streaming_valid for view in views)
            )
        self._merged_schema = merged
        return merged

    def _post_process(self, merged: SchemaGraph, streaming_valid: bool) -> None:
        pipeline = PGHive(self.config)
        if streaming_valid:
            pipeline.post_process_streaming(merged)
        else:
            # Only a retain_union session accepts deletions, so the
            # coordinator union exists whenever streaming reads lapsed.
            pipeline.post_process(merged, self._union)

    # ------------------------------------------------------------------
    # Checkpoint / restore (per-shard manifest format)
    # ------------------------------------------------------------------
    def checkpoint(self, directory: str | Path) -> Path:
        """Write a per-shard manifest checkpoint under ``directory``.

        Layout: one ``manifest.ckpt`` (versioned header + pickled
        metadata incl. the node registry and the stream position) plus
        one ordinary :meth:`SchemaSession.checkpoint` file per shard.
        In parallel mode every shard writes its own file from inside its
        worker process.  The manifest is written last, so a directory
        with a readable manifest always has complete shard files.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        shard_files = [f"shard-{index:03d}.ckpt" for index in range(self.n_shards)]
        if self.parallel:
            pools = self._ensure_pools()
            futures = {}
            for index in range(self.n_shards):
                if index in self._degraded:
                    continue
                try:
                    futures[index] = pools[index].submit(
                        _worker_checkpoint, str(directory / shard_files[index])
                    )
                except (OSError, BrokenProcessPool):
                    continue
            if futures:
                wait(list(futures.values()))
            done = set()
            for index, future in futures.items():
                try:
                    future.result()  # surface worker-side errors
                    done.add(index)
                except (OSError, BrokenProcessPool):
                    continue
            for index in range(self.n_shards):
                if index not in done:
                    # Degraded shard, or the worker died mid-checkpoint:
                    # the recovery wrapper restarts/replays and rewrites.
                    self._shard_op(
                        index, "checkpoint", str(directory / shard_files[index])
                    )
        else:
            for index in range(self.n_shards):
                self._shards[index].checkpoint(directory / shard_files[index])
        payload = {
            "config": self.config,
            "schema_name": self.schema_name,
            "n_shards": self.n_shards,
            "parallel": self.parallel,
            "retain_union": self._retain_union,
            "sequence": self._sequence,
            # Registry records are encoded by content (labels, keys,
            # values): interner ids are process-local and would not
            # survive a restore in a fresh process.
            "registry": {
                node_id: (
                    sorted(self._interner.labelset(labelset_id).labels),
                    self._interner.keyset(keyset_id).keys,
                    values,
                )
                for node_id, (labelset_id, keyset_id, values)
                in self._registry.items()
            },
            # Coordinator signature seeds, content-encoded like the
            # registry records (ids are process-local).
            "signatures": self._signatures.snapshot(),
            "shard_files": shard_files,
        }
        write_artifact(
            directory / MANIFEST_NAME,
            MANIFEST_MAGIC,
            MANIFEST_VERSION,
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )
        return directory

    @classmethod
    def restore(
        cls, directory: str | Path, *, parallel: bool | None = None
    ) -> "ShardedSchemaSession":
        """Rebuild a sharded session from :meth:`checkpoint` output.

        ``parallel`` overrides the execution mode of the restored session
        (the on-disk format is mode-agnostic: shard checkpoints are plain
        session checkpoints either way).  Only restore manifests from
        trusted sources: payloads are pickles.
        """
        directory = Path(directory)
        manifest = directory / MANIFEST_NAME
        _, data = read_artifact(
            manifest, MANIFEST_MAGIC, version=MANIFEST_VERSION
        )
        try:
            payload = pickle.loads(data)
        except Exception as error:
            raise CheckpointCorruptError(
                f"{manifest}: corrupt manifest payload: {error}"
            ) from error
        session = cls(
            payload["config"],
            schema_name=payload["schema_name"],
            n_shards=payload["n_shards"],
            parallel=payload.get("parallel", False) if parallel is None else parallel,
            retain_union=payload["retain_union"],
        )
        session._sequence = payload["sequence"]
        interner = global_interner()
        session._registry = {
            node_id: (
                interner.intern_labels(labels),
                interner.intern_keys(keys),
                tuple(values),
            )
            for node_id, (labels, keys, values) in payload["registry"].items()
        }
        session._interner = interner
        session._signatures = SignatureStore.from_snapshot(
            payload["signatures"], interner
        )
        # Restored records were re-interned against the process-wide
        # interner; later batches must share it.
        session._interner_pinned = bool(session._registry)
        shard_paths = [directory / name for name in payload["shard_files"]]
        if session.parallel:
            pools = session._ensure_pools()
            futures = [
                pools[index].submit(_worker_restore, str(shard_paths[index]))
                for index in range(session.n_shards)
            ]
            wait(futures)
            for future in futures:
                future.result()
            # Seed the crash-recovery baselines: a worker that dies
            # before the first resync must get the restored state
            # resubmitted, not a fresh session.
            futures = [
                pools[index].submit(_worker_state)
                for index in range(session.n_shards)
            ]
            wait(futures)
            states = [future.result() for future in futures]
            for index, state in enumerate(states):
                session._store_fetched_state(index, state)
        else:
            session._shards = [
                SchemaSession.restore(path) for path in shard_paths
            ]
            states = [shard.discovery_state for shard in session._shards]
        if session._union is not None:
            # Every row of a node reaches its owner shard, so the owner's
            # union holds the node's first version; a stub copy elsewhere
            # may hold a later one.  Each edge lives in its owner's union
            # only.
            shard_of = session._partitioner.shard_of
            for index, state in enumerate(states):
                for node in state.union.nodes():
                    if shard_of(node.node_id) == index:
                        session._union.add_node(node)
            for state in states:
                for edge in state.union.edges():
                    session._union.add_edge(edge)
        return session

"""`SchemaSession`: the long-lived change-feed façade over discovery.

The paper's pipeline is exposed through two entry points
(:meth:`~repro.core.pipeline.PGHive.discover` and ``discover_incremental``),
both thin adapters over one :class:`SchemaSession`, which models discovery
the way PG-Schema frames schemas -- as first-class evolving objects driven
by a stream of change operations:

* **Change feed** -- :meth:`SchemaSession.apply` consumes
  :class:`~repro.graph.changes.ChangeSet` bundles (node/edge inserts plus
  node/edge deletions); :meth:`add_batch` is sugar for insert-only
  property-graph batches, and :meth:`GraphStore.attach
  <repro.graph.store.GraphStore.attach>` forwards live store mutations.
* **Snapshots** -- :meth:`schema` serves the schema at any point
  mid-stream.  Post-processing (constraints, datatypes, cardinalities,
  keys) runs lazily, only when the schema is dirty, and is cached until
  the next write; until the first deletion each refresh is an O(|schema|)
  read over the per-type accumulators.
* **Diff subscriptions** -- registered subscribers receive one
  :class:`DiffEvent` (a :class:`~repro.schema.diff.SchemaDiff` plus the
  change report) after every applied change-set, computed against a
  lightweight baseline snapshot.
* **Checkpoint / restore** -- :meth:`checkpoint` serialises the schema,
  the per-type accumulators, the MinHash signature caches, and the fitted
  preprocessor to a versioned on-disk format; :meth:`restore` resumes in
  a fresh process without replaying the stream, producing bit-identical
  subsequent results.

Deletions break the insert-monotone guarantees of the streaming
accumulators, so they are gated on a retained union graph
(``retain_union``): the first applied deletion permanently switches
post-processing to the full re-scan over the surviving union
(:meth:`~repro.core.pipeline.PGHive.post_process`).

Since the sharded-discovery work every mutable artefact the session
accumulates -- schema, accumulators, preprocessor, MinHash caches, union
graph, stream position -- lives in one explicit
:class:`~repro.core.state.DiscoveryState` value object (the ``_dstate``
attribute, exposed read-only as :attr:`SchemaSession.discovery_state`).
Checkpoints serialise that state; :meth:`SchemaSession.from_state`
resumes from one; and :class:`~repro.core.sharding.ShardedSchemaSession`
merges one per shard through ``DiscoveryState.merge``.

Checkpoint files embed a pickle payload.  Pickle executes code on load:
only restore checkpoints produced by a process you trust.
"""

from __future__ import annotations

import pickle
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import PGHiveConfig
from repro.core.durability import read_artifact, write_artifact
from repro.core.pipeline import DiscoveryResult, PGHive, PipelineState
from repro.core.state import DiscoveryState
from repro.core.type_extraction import KeyIndexCache
from repro.errors import (
    CheckpointCorruptError,
    ConfigurationError,
    MissingElementError,
)
from repro.graph.changes import ChangeSet
from repro.graph.columnar import (
    ElementBatch,
    SignatureStore,
    columnar_changeset,
    global_interner,
    intern_element,
    value_shapes,
)
from repro.graph.model import PropertyGraph
from repro.schema.diff import SchemaDiff, diff_schemas
from repro.schema.model import EdgeType, NodeType, SchemaGraph
from repro.util import Timer

#: First line of every checkpoint file: magic token + format version (+
#: payload digest and length since v2; see repro.core.durability).
#: Version 3 dropped the per-session post-processing options, which
#: follow the config; version 4 keeps endpoint summaries as per-source
#: target maps plus in-degrees instead of per-endpoint sets; version 5
#: drops the per-change-set reports and batch timings, which grew with
#: the stream.
CHECKPOINT_MAGIC = b"pghive-session-checkpoint"
CHECKPOINT_VERSION = 5


@dataclass(frozen=True)  # no slots: checkpoints pickle these, and
class ChangeReport:       # frozen+slots dataclasses cannot unpickle on 3.10
    """Diagnostics for one applied change-set."""

    sequence: int
    nodes_inserted: int
    edges_inserted: int
    nodes_deleted: int
    edges_deleted: int
    seconds: float
    node_types_after: int
    edge_types_after: int


@dataclass(frozen=True, slots=True)
class DiffEvent:
    """What one change-set taught the schema, delivered to subscribers."""

    sequence: int
    diff: SchemaDiff
    report: ChangeReport


#: Subscriber callback signature.
DiffSubscriber = Callable[[DiffEvent], None]


def _diff_snapshot(schema: SchemaGraph) -> SchemaGraph:
    """Cheap baseline copy for diffing: specs and tokens, no instance sets.

    :func:`~repro.schema.diff.diff_schemas` only reads labels, property
    specs, and cardinalities, so the per-change baseline skips the
    instance-id sets and streaming accumulators a full ``copy()`` would
    duplicate -- keeping subscription overhead O(|schema|) per change-set.
    """
    snapshot = SchemaGraph(schema.name)
    for node_type in schema.node_types():
        clone = NodeType(node_type.type_id, node_type.labels, node_type.abstract)
        clone.properties = {
            key: spec.copy() for key, spec in node_type.properties.items()
        }
        snapshot.add_node_type(clone)
    for edge_type in schema.edge_types():
        clone = EdgeType(edge_type.type_id, edge_type.labels, edge_type.abstract)
        clone.properties = {
            key: spec.copy() for key, spec in edge_type.properties.items()
        }
        clone.source_tokens = set(edge_type.source_tokens)
        clone.target_tokens = set(edge_type.target_tokens)
        clone.cardinality = edge_type.cardinality
        clone.cardinality_bounds = edge_type.cardinality_bounds
        snapshot.add_edge_type(clone)
    return snapshot


def read_checkpoint_payload(path: str | Path) -> dict:
    """The decoded payload dict of one :meth:`SchemaSession.checkpoint` file.

    The header's version and payload digest are verified before
    unpickling; failures raise the typed errors
    :meth:`SchemaSession.restore` documents.  Readers that need only
    part of a checkpoint (the sharded coordinator rebuilding its union
    from shard files) load it through here without building a session.
    Only read files from trusted sources: the payload is a pickle.
    """
    path = Path(path)
    _, data = read_artifact(path, CHECKPOINT_MAGIC, version=CHECKPOINT_VERSION)
    try:
        return pickle.loads(data)
    except Exception as error:
        raise CheckpointCorruptError(
            f"{path}: corrupt checkpoint payload: {error}"
        ) from error


class SchemaSession:
    """One long-lived, observable, persistable discovery session.

    ``retain_union`` overrides ``config.retain_union`` for this session
    only, without mutating the caller's config object.
    """

    def __init__(
        self,
        config: PGHiveConfig | None = None,
        schema_name: str = "session-schema",
        *,
        retain_union: bool | None = None,
    ) -> None:
        self.config = config or PGHiveConfig()
        self.schema_name = schema_name
        self._retain_union = (
            self.config.retain_union if retain_union is None else retain_union
        )
        self._pipeline = PGHive(self.config)
        #: every mutable discovery artefact, as one mergeable value object.
        self._dstate = DiscoveryState.fresh(
            schema_name, retain_union=self._retain_union
        )
        self._timer = Timer()
        self._result = DiscoveryResult(
            schema=self._dstate.schema,
            timer=self._timer,
            config=self.config,
            batches_processed=0,
        )
        self.reports: list[ChangeReport] = []
        self._subscribers: list[DiffSubscriber] = []
        self._baseline: SchemaGraph | None = None
        self._store = None  # set by GraphStore.attach
        #: Algorithm 2's key indexes over ``_schema``: a derived cache,
        #: never saved; dropped on deletion and whenever the state is
        #: replaced (see KeyIndexCache).
        self._key_indexes = KeyIndexCache()

    # ------------------------------------------------------------------
    # DiscoveryState delegation (all mutable state lives in ``_dstate``)
    # ------------------------------------------------------------------
    @property
    def _schema(self) -> SchemaGraph:
        return self._dstate.schema

    @property
    def _state(self) -> PipelineState:
        return self._dstate.pipeline

    @property
    def _union(self) -> PropertyGraph | None:
        return self._dstate.union

    @_union.setter
    def _union(self, graph: PropertyGraph | None) -> None:
        self._dstate.union = graph

    @property
    def _dirty(self) -> bool:
        return self._dstate.dirty

    @_dirty.setter
    def _dirty(self, value: bool) -> None:
        self._dstate.dirty = value

    @property
    def _sequence(self) -> int:
        return self._dstate.sequence

    @_sequence.setter
    def _sequence(self, value: int) -> None:
        self._dstate.sequence = value

    @property
    def _streaming_valid(self) -> bool:
        return self._dstate.streaming_valid

    @_streaming_valid.setter
    def _streaming_valid(self, value: bool) -> None:
        self._dstate.streaming_valid = value

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def discovery_state(self) -> DiscoveryState:
        """The session's live :class:`DiscoveryState`.

        This is the session's *own* state, not a copy: callers may read
        it (the sharded merge does, through the non-mutating
        ``DiscoveryState.merged``) but must not mutate it.
        """
        return self._dstate

    @property
    def schema_graph(self) -> SchemaGraph:
        """The live schema *without* triggering a post-processing refresh."""
        return self._schema

    @property
    def state(self) -> PipelineState:
        """Cross-batch pipeline state (preprocessor + signature caches)."""
        return self._state

    @property
    def timer(self) -> Timer:
        """Accumulated stage timings for this session (process-local)."""
        return self._timer

    @property
    def retains_union(self) -> bool:
        """True when the session keeps a union graph (deletions allowed)."""
        return self._union is not None

    @property
    def union_graph(self) -> PropertyGraph:
        """The cumulative union graph (requires ``retain_union``)."""
        if self._union is None:
            raise ConfigurationError(
                "the incremental engine no longer retains a union graph by "
                "default; construct it with PGHiveConfig(retain_union=True)"
            )
        return self._union

    @property
    def sequence(self) -> int:
        """Number of change-sets applied so far (monotone, checkpointed)."""
        return self._sequence

    @property
    def dirty(self) -> bool:
        """True when writes arrived after the last post-processing pass."""
        return self._dirty

    # ------------------------------------------------------------------
    # Change feed
    # ------------------------------------------------------------------
    def apply(self, change_set: ChangeSet) -> ChangeReport:
        """Apply one change-set: inserts first, then deletions.

        The pipeline consumes only :class:`ElementBatch` inserts.  Element
        inserts convert once, here, through
        :func:`~repro.graph.columnar.columnar_changeset`: an edge endpoint
        the change-set does not carry becomes a stub row resolved against
        the retained union graph, then an attached store.  An empty
        insert advances the sequence (and is logged by durable sessions)
        but runs no pipeline step, as the sharded session skips it: the
        preprocessor must not fit on zero rows.
        """
        if change_set.has_deletions and self._union is None:
            raise ConfigurationError(
                "deletions require the retained union graph: construct the "
                "session with PGHiveConfig(retain_union=True)"
            )
        change_set = self._as_columnar(change_set)
        columnar = change_set.columnar
        if columnar is not None and not len(columnar):
            columnar = None
        inserted = (0, 0)
        stubs: frozenset[str] = frozenset()
        if columnar is not None:
            stubs = change_set.stub_node_ids
            if stubs:
                # Guard against producers flagging ids they did not ship.
                stubs = frozenset(stubs) & set(columnar.nodes.ids)
            inserted = (columnar.node_count - len(stubs), columnar.edge_count)
        return self._apply(
            columnar,
            change_set.delete_edges,
            change_set.delete_nodes,
            inserted=inserted,
            exclude_record=stubs,
        )

    def add_batch(self, batch: PropertyGraph) -> ChangeReport:
        """Sugar: apply one insert-only property-graph batch."""
        return self.apply(
            ChangeSet.inserts_columnar(
                ElementBatch.from_graph(batch, self._dstate.interner)
            )
        )

    def _as_columnar(self, change_set: ChangeSet) -> ChangeSet:
        """The session's element boundary (see :meth:`apply`)."""
        return columnar_changeset(
            change_set,
            self._dstate.interner or global_interner(),
            self._endpoint_record,
        )

    def _endpoint_record(self, node_id: str) -> tuple[int, int, tuple] | None:
        """Stub record of a node from the union graph, then the store."""
        if self._union is not None and self._union.has_node(node_id):
            node = self._union.node(node_id)
        elif self._store is not None and self._store.graph.has_node(node_id):
            node = self._store.node(node_id)
        else:
            return None
        return intern_element(self._dstate.interner or global_interner(), node)

    def _apply(
        self,
        columnar: ElementBatch | None,
        delete_edge_ids: Iterable[str],
        delete_node_ids: Iterable[str],
        inserted: tuple[int, int] = (0, 0),
        exclude_record: frozenset[str] = frozenset(),
    ) -> ChangeReport:
        """Shared apply path.  ``inserted`` is the *producer's* insert
        count -- endpoint stub rows are replays, not inserts, and must
        not inflate the report.  ``exclude_record`` carries the stub
        ids: clustered but never recorded as instances."""
        self._sequence += 1
        nodes_deleted = edges_deleted = 0
        change_timer = Timer()
        with change_timer.measure("change"):
            if columnar is not None:
                self._ingest_columnar(columnar, exclude_record)
            if delete_edge_ids or delete_node_ids:
                edges_deleted = self._delete_edges(delete_edge_ids)
                nodes_deleted, cascaded = self._delete_nodes(delete_node_ids)
                edges_deleted += cascaded
            if self.config.post_process_each_batch:
                self._flush_postprocess()
        self._result.batches_processed += 1
        seconds = change_timer.lap("change")
        self._result.batch_seconds.append(seconds)
        report = ChangeReport(
            sequence=self._sequence,
            nodes_inserted=inserted[0],
            edges_inserted=inserted[1],
            nodes_deleted=nodes_deleted,
            edges_deleted=edges_deleted,
            seconds=seconds,
            node_types_after=self._schema.node_type_count,
            edge_types_after=self._schema.edge_type_count,
        )
        self.reports.append(report)
        self._emit(report)
        return report

    def _ingest_columnar(
        self,
        batch: ElementBatch,
        exclude_record: frozenset[str] = frozenset(),
    ) -> None:
        """Steps (b)-(d) for one insert batch, merging into the schema.

        When the session retains a union graph (deletions enabled), the
        rows it lacks are also merged into the union as elements --
        deletions stay element-wise by design.
        """
        # The signature store keys refcounts by interner-local signature
        # ids; re-point it at the batch's interner (grow-only lineage, so
        # ids from earlier batches stay valid) before the pipeline
        # classifies and counts this batch's rows.
        signatures = self._dstate.signatures
        signatures.interner = batch.interner
        self._pipeline._process_batch_columnar(
            batch,
            self._schema,
            self._timer,
            self._result,
            self._state,
            build_summaries=(
                self._streaming_valid and self.config.post_processing
            ),
            exclude_record=exclude_record,
            signatures=signatures,
            key_indexes=self._key_indexes,
        )
        if self._union is not None:
            # repro-lint: ignore[PGL301] -- union retention is an opt-in element-wise feature; the columnar fast path skips this branch entirely
            batch.merge_into_graph(self._union)
        # Adopting the batch's interner per change-set is safe here: no
        # session state stores interner-local ids across batches (schema,
        # accumulators, and signature caches are content-keyed), and
        # checkpoints persist a content-only snapshot.  Sharded workers
        # rely on this -- each pickled change-set arrives with its own
        # interner copy.
        self._dstate.interner = batch.interner
        self._dirty = True

    # ------------------------------------------------------------------
    # Deletions (gated on the retained union; see module docstring)
    # ------------------------------------------------------------------
    def _delete_nodes(self, node_ids: Iterable[str]) -> tuple[int, int]:
        graph = self.union_graph
        present = [n for n in node_ids if graph.has_node(n)]
        # Incident edges go first so edge types update before node removal.
        incident: set[str] = set()
        for node_id in present:
            incident.update(e.edge_id for e in graph.out_edges(node_id))
            incident.update(e.edge_id for e in graph.in_edges(node_id))
        cascaded = self._delete_edges(incident)
        removed = 0
        for node_id in present:
            self._detach_instance(node_id, is_edge=False)
            graph.remove_node(node_id)
            removed += 1
        if removed:
            self._after_deletion()
        return removed, cascaded

    def _delete_edges(self, edge_ids: Iterable[str]) -> int:
        graph = self.union_graph
        removed = 0
        for edge_id in list(edge_ids):
            if not graph.has_edge(edge_id):
                continue
            self._detach_instance(edge_id, is_edge=True)
            graph.remove_edge(edge_id)
            removed += 1
        if removed:
            self._after_deletion()
        return removed

    def _after_deletion(self) -> None:
        # Types lost keys or went away: the suffix-posting index is stale.
        self._key_indexes = KeyIndexCache()
        self._drop_empty_types()
        self._dirty = True
        # Accumulators are insert-monotone; they now overcount forever.
        self._streaming_valid = False

    def _detach_instance(self, instance_id: str, is_edge: bool) -> None:
        graph = self.union_graph
        try:
            element = (
                graph.edge(instance_id) if is_edge else graph.node(instance_id)
            )
        except MissingElementError:
            return
        types = self._schema.edge_types() if is_edge else self._schema.node_types()
        for schema_type in types:
            if instance_id not in schema_type.instance_ids:
                continue
            # Recorded instance found: its insert counted the structural
            # signature, so the delete decrements it exactly.  Stub
            # echoes (no recording type) fall through without touching
            # the store, mirroring how they were never counted.
            signature_id = self._element_signature_id(element, is_edge)
            if signature_id is not None:
                self._dstate.signatures.remove(signature_id)
            schema_type.instance_ids.discard(instance_id)
            schema_type.instance_count -= 1
            for key in element.properties:
                schema_type.property_counts[key] -= 1
                if schema_type.property_counts[key] <= 0:
                    del schema_type.property_counts[key]
                    # The last carrier of this property is gone: drop the
                    # spec rather than leave a phantom STRING/optional
                    # entry no surviving instance backs.  Deletion is
                    # already non-monotone (empty types drop, bounds
                    # tighten, mandatory can return) -- and this is what
                    # keeps sharded discovery exact: a shard that loses
                    # its last local carrier must agree with the merged
                    # global view, which only counts live carriers.
                    schema_type.properties.pop(key, None)
            return

    def _element_signature_id(self, element, is_edge: bool) -> int | None:
        """Recompute the interned structural signature of a live element.

        Mirrors the columnar freeze exactly: sorted-key value order,
        per-value datatype-shape codes, endpoint label tokens for edges.
        Returns ``None`` when an edge endpoint is already gone from the
        union (defensive; incident edges detach before their endpoints).
        """
        interner = self._dstate.signatures.interner
        labelset_id = interner.intern_labels(element.labels)
        keyset_id = interner.intern_keys(element.properties)
        keys = interner.keyset(keyset_id).keys
        shape = value_shapes(tuple(element.properties[key] for key in keys))
        if not is_edge:
            return interner.intern_element_signature(
                labelset_id, keyset_id, shape
            )
        graph = self.union_graph
        try:
            source = graph.node(element.source_id)
            target = graph.node(element.target_id)
        except MissingElementError:
            return None
        src_sid = interner.labelset(
            interner.intern_labels(source.labels)
        ).token_sid
        tgt_sid = interner.labelset(
            interner.intern_labels(target.labels)
        ).token_sid
        return interner.intern_element_signature(
            labelset_id, keyset_id, shape, src_sid, tgt_sid
        )

    def _drop_empty_types(self) -> None:
        for node_type in list(self._schema.node_types()):
            if node_type.instance_count <= 0:
                self._schema.remove_node_type(node_type.type_id)
        for edge_type in list(self._schema.edge_types()):
            if edge_type.instance_count <= 0:
                self._schema.remove_edge_type(edge_type.type_id)

    # ------------------------------------------------------------------
    # Snapshots and post-processing
    # ------------------------------------------------------------------
    def schema(self) -> SchemaGraph:
        """The schema as of the last applied change-set.

        Runs post-processing only when writes arrived since the previous
        read (the result is cached until the next write), so mid-stream
        reads are free on a quiet feed and O(|schema|) after traffic.
        """
        self._flush_postprocess()
        return self._schema

    def refresh(self) -> SchemaGraph:
        """Force a post-processing pass now, regardless of the dirty flag.

        Like :meth:`schema`, it returns the raw schema when
        ``config.post_processing`` is off: no summaries exist to read.
        """
        if self.config.post_processing:
            with self._timer.measure("postprocess"):
                self._run_post_processing()
            self._dirty = False
        return self._schema

    def finalize(self) -> DiscoveryResult:
        """Flush pending post-processing and return the discovery result."""
        self._flush_postprocess()
        return self._result

    def _flush_postprocess(self) -> None:
        """Run the lazy post-processing pass iff writes are pending."""
        if self._dirty and self.config.post_processing:
            with self._timer.measure("postprocess"):
                self._run_post_processing()
            self._dirty = False

    def _run_post_processing(self) -> None:
        if self._streaming_valid:
            self._pipeline.post_process_streaming(self._schema)
        else:
            self._pipeline.post_process(self._schema, self.union_graph)

    # ------------------------------------------------------------------
    # Diff subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, callback: DiffSubscriber) -> DiffSubscriber:
        """Register ``callback`` for one DiffEvent per applied change-set.

        The first subscription baselines the diff at the current schema;
        events describe changes from that point on.  Subscribing implies
        post-processing after every change-set (diffs report constraint
        and cardinality movement, which only exists post-processed).
        """
        if callback not in self._subscribers:
            self._subscribers.append(callback)
        if self._baseline is None:
            self._flush_postprocess()
            self._baseline = _diff_snapshot(self._schema)
        return callback

    def unsubscribe(self, callback: DiffSubscriber) -> None:
        """Remove a subscriber (no-op when unknown)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            return
        if not self._subscribers:
            self._baseline = None

    def _emit(self, report: ChangeReport) -> None:
        if not self._subscribers:
            return
        self._flush_postprocess()
        diff = diff_schemas(self._baseline, self._schema)
        self._baseline = _diff_snapshot(self._schema)
        event = DiffEvent(sequence=report.sequence, diff=diff, report=report)
        for callback in list(self._subscribers):
            callback(event)

    # ------------------------------------------------------------------
    # Store binding (see GraphStore.attach)
    # ------------------------------------------------------------------
    def bind_store(self, store) -> None:
        """Called by :meth:`GraphStore.attach` / ``detach``; not user API."""
        self._store = store

    # ------------------------------------------------------------------
    # State adoption (restore, sharded workers, merged continuations)
    # ------------------------------------------------------------------
    def _adopt_state(self, state: DiscoveryState) -> None:
        """Replace the session's state wholesale (fresh sessions only)."""
        self._dstate = state
        self._result.schema = state.schema
        self._key_indexes = KeyIndexCache()

    @classmethod
    def from_state(
        cls,
        state: DiscoveryState,
        config: PGHiveConfig | None = None,
        *,
        schema_name: str | None = None,
    ) -> "SchemaSession":
        """A session that continues from an existing :class:`DiscoveryState`.

        The state is adopted by reference, not copied -- do not keep
        feeding the donor.  ``retain_union`` follows the state (a state
        without a union graph cannot accept deletions).  Useful for
        resuming from a merged shard state or a state built elsewhere;
        note that a merged state keeps only one fitted preprocessor, so
        continuation embeds unseen label tokens through their
        deterministic identity vectors.
        """
        session = cls(
            config,
            schema_name=schema_name or state.schema.name,
            retain_union=state.union is not None,
        )
        session._adopt_state(state)
        return session

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, path: str | Path) -> Path:
        """Write a versioned checkpoint a fresh process can resume from.

        The file carries everything subsequent batches depend on: the
        schema (with its per-type accumulators), the fitted preprocessor
        and its embedding cache, the MinHash instances with their
        signature caches, the union graph when retained, and the stream
        position.  Subscribers, the store binding, per-change-set reports
        and wall-clock timings are process-local and deliberately not
        captured: a restored session starts them empty.  Written
        atomically (temp file + fsync + rename) with a payload digest in
        the header that :meth:`restore` verifies.
        """
        path = Path(path)
        payload = {
            "config": self.config,
            "schema_name": self.schema_name,
            "retain_union": self._retain_union,
            "streaming_valid": self._streaming_valid,
            "dirty": self._dirty,
            "sequence": self._sequence,
            # Payload key stays "state" (checkpoint format v1); reading
            # the field off _dstate keeps the DiscoveryState.pipeline
            # coverage visible to the state-completeness lint.
            "schema": self._schema,
            "state": self._dstate.pipeline,
            "union": self._union,
            # Content-only interner snapshot: restored processes re-warm
            # the columnar content caches (ids themselves are process
            # local; nothing persistent keys on them).
            "interner": (
                None
                if self._dstate.interner is None
                else self._dstate.interner.snapshot()
            ),
            # Content-encoded signature refcounts (structural dedup):
            # restored stores re-intern the content against the restoring
            # process's interner.
            "signatures": self._dstate.signatures.snapshot(),
            "result": {
                "batches_processed": self._result.batches_processed,
                "node_cluster_count": self._result.node_cluster_count,
                "edge_cluster_count": self._result.edge_cluster_count,
                "node_parameters": self._result.node_parameters,
                "edge_parameters": self._result.edge_parameters,
            },
        }
        write_artifact(
            path,
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
        )
        return path

    @classmethod
    def restore(cls, path: str | Path) -> "SchemaSession":
        """Rebuild a session from :meth:`checkpoint` output.

        The restored session produces bit-identical results for any
        subsequent change feed (the round-trip tests pin this).  The
        payload digest is verified before unpickling; failure modes
        raise distinct typed errors (:class:`CheckpointFormatError`,
        :class:`CheckpointVersionError`, :class:`CheckpointCorruptError`).
        Only restore files from trusted sources: the payload is a pickle.
        """
        return cls._from_checkpoint_payload(read_checkpoint_payload(path))

    @classmethod
    def _from_checkpoint_payload(cls, payload: dict) -> "SchemaSession":
        """Build a session from a decoded checkpoint payload dict."""
        session = cls(
            payload["config"],
            schema_name=payload["schema_name"],
            retain_union=payload["retain_union"],
        )
        interner = global_interner()
        snapshot = payload.get("interner")
        if snapshot:
            interner.merge_snapshot(snapshot)
        session._adopt_state(
            DiscoveryState(
                schema=payload["schema"],
                pipeline=payload["state"],
                union=payload["union"],
                sequence=payload["sequence"],
                streaming_valid=payload["streaming_valid"],
                dirty=payload["dirty"],
                interner=interner,
                # Pre-dedup checkpoints carry no signature refcounts;
                # restore an empty store (rows demote to the full
                # pipeline, which is always correct).
                signatures=SignatureStore.from_snapshot(
                    payload.get("signatures"), interner
                ),
            )
        )
        meta = payload["result"]
        session._result.schema = session._schema
        session._result.batches_processed = meta["batches_processed"]
        session._result.node_cluster_count = meta["node_cluster_count"]
        session._result.edge_cluster_count = meta["edge_cluster_count"]
        session._result.node_parameters = meta["node_parameters"]
        session._result.edge_parameters = meta["edge_parameters"]
        return session

    @classmethod
    def recover(cls, directory: str | Path, **kwargs) -> "SchemaSession":
        """Recover a durable session from its directory.

        Convenience front door to
        :meth:`repro.core.recovery.DurableSchemaSession.recover`: find
        the newest *valid* checkpoint under ``directory`` (falling back
        to older ones if the newest is corrupt), replay the write-ahead
        log from the checkpointed stream position, and resume durable
        logging.  The result is fingerprint-identical to a session that
        never crashed.
        """
        from repro.core.recovery import DurableSchemaSession

        return DurableSchemaSession.recover(directory, **kwargs)

    def __repr__(self) -> str:
        return (
            f"SchemaSession(name={self.schema_name!r}, "
            f"changes={self._sequence}, "
            f"node_types={self._schema.node_type_count}, "
            f"edge_types={self._schema.edge_type_count})"
        )

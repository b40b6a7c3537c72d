"""`DiscoveryState`: the mergeable value object holding all discovery state.

Every mutable artefact a discovery session accumulates lives here, in one
explicit, serializable bundle: the schema snapshot (with its per-type
streaming accumulators), the fitted preprocessor and the MinHash
signature caches (:class:`~repro.core.pipeline.PipelineState`), the
retained union graph when deletions are enabled, and the stream position.
:class:`~repro.core.session.SchemaSession` owns exactly one
``DiscoveryState``; checkpoints serialise it; and
:class:`~repro.core.sharding.ShardedSchemaSession` merges one per shard
into a combined read view.

The central operation is :meth:`DiscoveryState.merge` -- the state-level
analogue of the schema-merge of section 4.6, lifted to *everything* the
pipeline tracks:

* **Schemas** reconcile through :func:`repro.schema.merge.merge_into`
  (deterministically sorted since the sharding work) and are then
  canonicalised -- deterministic cluster naming, sorted type order,
  sorted property specs -- so the merged result is independent of the
  order states are folded in (for token-mergeable types; abstract-type
  Jaccard absorption remains inherently order-sensitive).
* **Accumulators** merge monotonically through the existing
  ``TypeSummaries.merge_from`` lattice/union/witness machinery, so
  streaming post-processing reads over the merged state equal a single
  session's reads over the combined feed.
* **MinHash signature caches** union per ``(num_tables, band_size,
  seed)`` instance (signatures are content-derived per parameter set, so
  rows from different states agree bit for bit).
* **Union graphs** union element-wise; **stream positions** take the
  maximum; ``streaming_valid`` holds only when it held on every input
  (a deletion anywhere poisons streaming reads everywhere).

Counts stay exact under merging as long as each element was *recorded*
by exactly one input state -- the sharding layer guarantees this by
marking cross-shard endpoint stubs (see
:attr:`repro.graph.changes.ChangeSet.stub_node_ids`), and types that
carry only stub echoes (zero recorded instances) are dropped before
reconciliation because every element they describe is recorded by its
owner.

Merging never mutates its inputs.  Property specs of raw (not yet
post-processed) states merge to raw specs; run the post-processing
passes on the merged schema to fill datatypes, constraints,
cardinalities, and keys exactly.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.pipeline import PipelineState
from repro.graph.columnar import Interner, SignatureStore, global_interner
from repro.graph.model import PropertyGraph
from repro.lsh.minhash import MinHashLSH
from repro.schema.merge import DEFAULT_THETA, canonicalize_schema, merge_into
from repro.schema.model import SchemaGraph


@dataclass
class DiscoveryState:
    """Everything one discovery session mutates, as a mergeable value.

    ``schema`` carries the per-type accumulators (``summaries``);
    ``pipeline`` carries the fitted preprocessor and the MinHash
    instances with their signature caches; ``union`` is the retained
    union graph (``None`` on insert-only streaming sessions);
    ``sequence`` is the stream position (change-sets consumed);
    ``streaming_valid`` records whether the insert-monotone accumulators
    still match the data (a deletion clears it permanently); ``dirty``
    marks writes not yet post-processed.
    """

    schema: SchemaGraph
    pipeline: PipelineState = field(default_factory=PipelineState)
    union: PropertyGraph | None = None
    sequence: int = 0
    streaming_valid: bool = True
    dirty: bool = False
    #: the content interner backing columnar ingestion (usually the
    #: process-wide one).  Ids are process-local; checkpoints persist a
    #: content snapshot, and merging states unions their content.
    interner: Interner | None = field(default_factory=global_interner)
    #: ref-counted element-signature store driving structural dedup:
    #: maps interned signature ids to live instance counts.  Checkpoints
    #: persist it content-encoded; merging sums refcounts.
    signatures: SignatureStore = field(default_factory=SignatureStore)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def fresh(
        cls, schema_name: str = "schema", retain_union: bool = False
    ) -> "DiscoveryState":
        """An empty state ready to consume a change feed."""
        return cls(
            schema=SchemaGraph(schema_name),
            pipeline=PipelineState(),
            union=PropertyGraph(f"{schema_name}-union") if retain_union else None,
        )

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def merge(
        self,
        other: "DiscoveryState",
        theta: float = DEFAULT_THETA,
        name: str | None = None,
    ) -> "DiscoveryState":
        """A new state covering both inputs; neither input is mutated."""
        return DiscoveryState.merged(
            [self, other], theta=theta, name=name or self.schema.name
        )

    @classmethod
    def merged(
        cls,
        states: Iterable["DiscoveryState"],
        theta: float = DEFAULT_THETA,
        name: str = "merged-schema",
    ) -> "DiscoveryState":
        """Fold any number of states into one combined state.

        Inputs are read, never mutated; the result shares immutable
        payloads (nodes, edges, signature rows, the preprocessor) but no
        mutable containers with them.  Folding happens in the given
        order; see the module docstring for the determinism guarantees.
        """
        states = list(states)
        result = cls(
            schema=SchemaGraph(name),
            pipeline=PipelineState(),
            union=(
                PropertyGraph(f"{name}-union")
                if states and all(s.union is not None for s in states)
                else None
            ),
        )
        for state in states:
            result._fold_in(state, theta)
        canonicalize_schema(result.schema)
        return result

    def _fold_in(self, other: "DiscoveryState", theta: float) -> None:
        """One fold step of :meth:`merged` (destructive on ``self`` only)."""
        merge_into(self.schema, instance_bearing(other.schema), theta)
        if self.union is not None and other.union is not None:
            self.union.merge_in(other.union)
        if self.pipeline.preprocessor is None:
            # Word2Vec models are not meaningfully mergeable; the first
            # fitted preprocessor wins.  Unknown tokens embed through
            # their deterministic identity vector, so a merged state fed
            # further batches still embeds identical tokens identically.
            self.pipeline.preprocessor = other.pipeline.preprocessor
        for key, lsh in other.pipeline.minhash_cache.items():
            mine = self.pipeline.minhash_cache.get(key)
            if mine is None:
                num_tables, band_size, seed = key
                mine = MinHashLSH(
                    num_tables=num_tables, band_size=band_size, seed=seed
                )
                self.pipeline.minhash_cache[key] = mine
            mine.merge_cache_from(lsh)
        if other.interner is not None:
            if self.interner is None:
                self.interner = other.interner
            else:
                self.interner.merge_from(other.interner)
        if self.interner is not None and self.signatures.interner is not self.interner:
            self.signatures.interner = self.interner
        self.signatures.merge_from(other.signatures)
        self.sequence = max(self.sequence, other.sequence)
        self.streaming_valid = self.streaming_valid and other.streaming_valid
        self.dirty = self.dirty or other.dirty


def merged_schema(
    schemas: Iterable[SchemaGraph],
    theta: float = DEFAULT_THETA,
    name: str = "merged-schema",
) -> SchemaGraph:
    """Fold instance-bearing schemas, in the given order, into one
    canonical schema.

    The schema half of :meth:`DiscoveryState.merged` -- the same
    :func:`~repro.schema.merge.merge_into` steps and canonicalisation --
    and all a merged read of the sharded session needs.  Inputs are
    read, never mutated, and should already be :func:`instance_bearing`
    views.
    """
    result = SchemaGraph(name)
    for schema in schemas:
        merge_into(result, schema, theta)
    return canonicalize_schema(result)


def instance_bearing(
    schema: SchemaGraph, keep_summaries: bool = True
) -> SchemaGraph:
    """A read-only view of ``schema`` without its zero-instance types.

    A type with no recorded instances describes only endpoint stubs
    whose every element is recorded by another state (its owner shard),
    so merging it would add nothing but a phantom type.  The view shares
    the surviving type objects; callers must treat it as read-only
    (:func:`~repro.schema.merge.merge_into` does).  Without
    ``keep_summaries`` each surviving type is a shallow copy with its
    accumulators detached -- what a reader that will re-scan the union
    ships instead of summaries it cannot use.
    """
    view = SchemaGraph(schema.name)
    for node_type in schema.node_types():
        if node_type.instance_count > 0:
            view.add_node_type(
                node_type if keep_summaries else _detached(node_type)
            )
    for edge_type in schema.edge_types():
        if edge_type.instance_count > 0:
            view.add_edge_type(
                edge_type if keep_summaries else _detached(edge_type)
            )
    return view


def _detached(schema_type):
    """A shallow copy of a schema type without its accumulators."""
    view = copy.copy(schema_type)
    view.summaries = None
    return view

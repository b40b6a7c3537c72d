"""The PG-HIVE pipeline (Algorithm 1 / Figure 2).

:class:`PGHive` wires together the steps: (a) data load, (b) preprocessing
into representation vectors, (c) LSH clustering, (d) type extraction and
merging, then -- optionally -- (e) property constraints, (f) datatype
inference, (g) cardinalities, and (h) serialisation helpers.  The same
object also drives incremental discovery over a batch stream, delegating to
:class:`~repro.core.session.SchemaSession`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.accumulators import SummaryOptions
from repro.core.adaptive import AdaptiveParameters
from repro.core.cardinality_inference import (
    compute_cardinalities,
    compute_cardinalities_streaming,
)
from repro.core.clustering import ColumnarCluster, cluster_features_columnar
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.constraints import infer_property_constraints
from repro.core.datatype_inference import infer_datatypes, infer_datatypes_streaming
from repro.core.preprocess import Preprocessor
from repro.core.serialization import to_pg_schema, to_xsd
from repro.core.type_extraction import KeyIndexCache, extract_types
from repro.graph.columnar import (
    ColumnarElements,
    ElementBatch,
    SignatureStore,
    ValueColumn,
)
from repro.graph.model import PropertyGraph
from repro.graph.store import GraphStore
from repro.lsh.base import GroupingRule
from repro.lsh.minhash import MinHashLSH
from repro.schema.model import SchemaGraph
from repro.schema.validation import ValidationMode
from repro.util import Timer

#: Table 1 capability row for PG-HIVE.
CAPABILITIES = {
    "label_independent": True,
    "multilabeled_elements": True,
    "schema_elements": "nodes, edges & constraints",
    "constraints": True,
    "incremental": True,
    "automation": True,
    "notes": "LSH and fine tuning",
}


@dataclass
class PipelineState:
    """Mutable per-run state shared across the batches of one discovery.

    The incremental engine owns one of these for its whole lifetime so the
    expensive artefacts survive from batch to batch instead of being
    rebuilt per ``add_batch`` call: the fitted :class:`Preprocessor` (the
    Word2Vec model plus its token-embedding cache) and the
    :class:`MinHashLSH` instances whose signature caches already hold
    every structural pattern seen so far.  Static discovery uses a fresh
    state per run, which degenerates to the old per-call behaviour.
    """

    preprocessor: Preprocessor | None = None
    minhash_cache: dict[tuple[int, int, int], MinHashLSH] = field(
        default_factory=dict
    )


@dataclass
class DiscoveryResult:
    """Outcome of a discovery run: the schema plus run diagnostics."""

    schema: SchemaGraph
    timer: Timer
    config: PGHiveConfig
    node_parameters: AdaptiveParameters | None = None
    edge_parameters: AdaptiveParameters | None = None
    node_cluster_count: int = 0
    edge_cluster_count: int = 0
    batches_processed: int = 1
    batch_seconds: list[float] = field(default_factory=list)

    @property
    def elapsed_seconds(self) -> float:
        """Total wall-clock time across all stages."""
        return self.timer.total

    @property
    def type_discovery_seconds(self) -> float:
        """Time until types exist (Figure 5): load+preprocess+cluster+extract."""
        return (
            self.timer.lap("preprocess")
            + self.timer.lap("clustering")
            + self.timer.lap("extraction")
        )

    def node_assignments(self) -> dict[str, str]:
        """node id -> discovered node-type id."""
        return self.schema.node_assignments()

    def edge_assignments(self) -> dict[str, str]:
        """edge id -> discovered edge-type id."""
        return self.schema.edge_assignments()

    def to_pg_schema(self, mode: ValidationMode = ValidationMode.STRICT) -> str:
        """PG-Schema rendering of the discovered schema."""
        return to_pg_schema(self.schema, mode)

    def to_xsd(self) -> str:
        """XSD rendering of the discovered schema."""
        return to_xsd(self.schema)


class PGHive:
    """Hybrid incremental schema discovery for property graphs."""

    def __init__(self, config: PGHiveConfig | None = None) -> None:
        self.config = config or PGHiveConfig()

    # ------------------------------------------------------------------
    # Static discovery (single batch)
    # ------------------------------------------------------------------
    def discover(
        self,
        source: PropertyGraph | GraphStore,
        schema_name: str | None = None,
    ) -> DiscoveryResult:
        """Run the full pipeline over one graph.

        One ``add_batch`` on a default
        :class:`~repro.core.session.SchemaSession`: static discovery is a
        stream of one batch, post-processed from the per-type
        accumulators like every other insert-only read.
        """
        from repro.core.session import SchemaSession

        graph = source.graph if isinstance(source, GraphStore) else source
        session = SchemaSession(
            self.config, schema_name=schema_name or f"{graph.name}-schema"
        )
        session.add_batch(graph)
        return session.finalize()

    # ------------------------------------------------------------------
    # Incremental discovery (batch stream)
    # ------------------------------------------------------------------
    def discover_incremental(
        self,
        batches: Iterable[PropertyGraph],
        schema_name: str = "incremental-schema",
    ) -> DiscoveryResult:
        """Run Algorithm 1 over a stream of insert batches.

        Adapter over :class:`~repro.core.session.SchemaSession`: each
        batch becomes one applied change-set; post-processing runs once,
        lazily, at :meth:`finalize` (or per batch when configured).
        """
        from repro.core.session import SchemaSession

        session = SchemaSession(self.config, schema_name=schema_name)
        for batch in batches:
            session.add_batch(batch)
        return session.finalize()

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------
    def _process_batch_columnar(
        self,
        batch: ElementBatch,
        schema: SchemaGraph,
        timer: Timer,
        result: DiscoveryResult,
        state: PipelineState | None = None,
        build_summaries: bool = False,
        exclude_record: frozenset[str] = frozenset(),
        signatures: SignatureStore | None = None,
        key_indexes: KeyIndexCache | None = None,
    ) -> None:
        """Steps (b)-(d) for one batch, merging into ``schema`` in place.

        Every insert reaches discovery here, as an :class:`ElementBatch`:
        the preprocessor assembles vectors from interned id columns,
        clustering signs one MinHash pattern per distinct (label-token,
        key-set) combination, and extraction folds value columns into the
        per-type accumulators.

        When ``state`` is supplied (incremental runs), the preprocessor is
        fitted on the first batch only and reused afterwards -- tokens the
        model never saw embed through their deterministic identity vector,
        so identical tokens still agree across batches -- and the MinHash
        signature caches persist, honouring the paper's "never revisit
        earlier batches" design.

        ``build_summaries`` feeds the per-type streaming accumulators
        during extraction (keys tracked iff ``config.infer_keys``); the
        session sets it unless post-processing is off or a deletion has
        already made the accumulators stale.

        ``exclude_record`` names batch elements that must not be recorded
        as instances -- endpoint stubs owned by another shard.  They still
        participate in preprocessing and clustering (endpoint tokens and
        batch well-formedness need them) but contribute no counts, specs,
        or accumulator folds.

        ``signatures`` enables content-addressable structural dedup: rows
        whose element signature already has a live refcount (a *prior
        batch* carried the same structure) skip preprocessing and
        clustering and fold straight into the accumulators through
        per-signature repeat clusters.  The split only engages for
        exact-grouping clustering (MinHash + AND).  It is *not* always
        output-neutral: removing repeat rows changes which rows
        ``adapt_parameters`` samples, the cluster boundaries and the
        cluster order, and unlabeled Algorithm 2 absorption is sensitive
        to all three (``tests/properties/test_dedup_oracle.py`` pins a
        known divergence).  Refcounts are maintained whenever a store is
        supplied (even when the split is gated off) so deletions can
        decrement symmetrically.

        ``key_indexes`` is the caller's Algorithm 2 index cache for
        ``schema`` (the session's); without it extraction builds its
        indexes per call.
        """
        if state is None:
            state = PipelineState()
        summary_options = (
            SummaryOptions(
                track_keys=self.config.infer_keys,
                pair_cap=self.config.key_pair_tracking_cap,
            )
            if build_summaries
            else None
        )
        dedup_active = (
            signatures is not None
            and self.config.structural_dedup
            and self.config.method is ClusteringMethod.MINHASH
            and self.config.grouping_rule is GroupingRule.AND
        )
        if signatures is not None:
            node_first, node_repeats = _split_repeats(
                batch.nodes, signatures, exclude_record, dedup_active
            )
            edge_first, edge_repeats = _split_repeats(
                batch.edges, signatures, frozenset(), dedup_active
            )
        if dedup_active and (node_repeats or edge_repeats):
            work = ElementBatch(
                _take_rows(batch.nodes, node_first),
                _take_rows(batch.edges, edge_first),
                batch.interner,
            )
        else:
            work = batch
            node_repeats = edge_repeats = {}
        with timer.measure("preprocess"):
            if state.preprocessor is None:
                state.preprocessor = Preprocessor(self.config).fit_batch(work)
            preprocessor = state.preprocessor
            node_features = preprocessor.node_features_columnar(work)
            edge_features = preprocessor.edge_features_columnar(work)
        with timer.measure("clustering"):
            node_outcome = cluster_features_columnar(
                node_features, self.config, "nodes", state.minhash_cache
            )
            edge_outcome = cluster_features_columnar(
                edge_features, self.config, "edges", state.minhash_cache
            )
            interner = batch.interner
            node_outcome.clusters.extend(
                ColumnarCluster(batch.nodes, interner, rows, repeat_signature=sid)
                for sid, rows in node_repeats.items()
            )
            edge_outcome.clusters.extend(
                ColumnarCluster(batch.edges, interner, rows, repeat_signature=sid)
                for sid, rows in edge_repeats.items()
            )
        self._extract_and_tally(
            schema, timer, result, node_outcome, edge_outcome,
            summary_options, exclude_record, key_indexes,
        )

    def _extract_and_tally(
        self,
        schema: SchemaGraph,
        timer: Timer,
        result: DiscoveryResult,
        node_outcome,
        edge_outcome,
        summary_options: SummaryOptions | None,
        exclude_record: frozenset[str],
        key_indexes: KeyIndexCache | None = None,
    ) -> None:
        with timer.measure("extraction"):
            extract_types(
                schema,
                node_outcome.clusters,
                edge_outcome.clusters,
                theta=self.config.theta,
                summary_options=summary_options,
                exclude_record=exclude_record,
                key_indexes=key_indexes,
            )
        result.node_parameters = node_outcome.parameters or result.node_parameters
        result.edge_parameters = edge_outcome.parameters or result.edge_parameters
        result.node_cluster_count += node_outcome.cluster_count
        result.edge_cluster_count += edge_outcome.cluster_count

    def post_process(self, schema: SchemaGraph, graph: PropertyGraph) -> SchemaGraph:
        """Steps (e)-(g): constraints, datatypes, cardinalities (+ keys).

        Full-scan variant: re-reads every instance's values from ``graph``.
        It is the read of a union-retaining session after its first
        deletion (the accumulators below only grow), and the tests'
        oracle for the streaming read.
        """
        infer_property_constraints(schema)
        infer_datatypes(schema, graph)
        compute_cardinalities(schema, graph)
        if self.config.infer_keys:
            from repro.core.key_inference import infer_keys

            infer_keys(schema, graph)
        return schema

    def post_process_streaming(self, schema: SchemaGraph) -> SchemaGraph:
        """Steps (e)-(g) as pure reads over the per-type accumulators.

        O(|schema|) per call and independent of how many batches the
        stream has carried: every value was folded exactly once when its
        batch arrived (see :mod:`repro.core.accumulators`), so no graph
        argument exists to re-scan.
        """
        infer_property_constraints(schema)
        infer_datatypes_streaming(schema)
        compute_cardinalities_streaming(schema)
        if self.config.infer_keys:
            from repro.core.key_inference import infer_keys_streaming

            infer_keys_streaming(schema)
        return schema


def _split_repeats(
    block: ColumnarElements,
    signatures: SignatureStore,
    exclude_record: frozenset[str],
    split: bool,
) -> tuple[list[int], dict[int, list[int]]]:
    """Classify ``block`` rows against the signature store, counting inserts.

    A row is a *repeat* iff its signature had a live refcount before this
    batch: rows of a batch-new structure all stay together on the full
    pipeline, so first-instance accumulator semantics (key-pair seeding)
    are decided by the same group fold as without dedup.  Every
    non-excluded row increments its refcount; excluded rows (endpoint
    stubs owned by another shard) are classified for the split but never
    counted, mirroring how they are never recorded -- or deleted -- here.
    """
    refcounts = signatures.refcounts
    sig_list = block.signature_list
    prior = {sid for sid in set(sig_list) if sid in refcounts}
    first_rows: list[int] = []
    repeats: dict[int, list[int]] = {}
    get = refcounts.get
    if exclude_record and block.kind == "nodes":
        ids = block.ids
        for row, sid in enumerate(sig_list):
            if ids[row] not in exclude_record:
                refcounts[sid] = get(sid, 0) + 1
    else:
        # Bulk path: fold one Counter instead of a per-row dict update.
        for sid, count in Counter(sig_list).items():
            refcounts[sid] = get(sid, 0) + count
    if split:
        for row, sid in enumerate(sig_list):
            if sid in prior:
                repeats.setdefault(sid, []).append(row)
            else:
                first_rows.append(row)
    return first_rows, repeats


def _take_rows(block: ColumnarElements, rows: list[int]) -> ColumnarElements:
    """A derived block holding only ``rows`` of ``block``, order preserved.

    Value columns are remapped through an old-row -> new-row index, which
    keeps each column's row array sorted (the slice preserves relative
    order), so downstream grouping logic sees a well-formed block.
    """
    if len(rows) == len(block):
        return block
    index = np.asarray(rows, dtype=np.intp)
    old_to_new = np.full(len(block), -1, dtype=np.intp)
    old_to_new[index] = np.arange(len(rows), dtype=np.intp)
    columns: dict[str, ValueColumn] = {}
    for key, column in block.columns.items():
        mapped = old_to_new[column.rows]
        mask = mapped >= 0
        if not mask.any():
            continue
        columns[key] = ValueColumn(mapped[mask], column.values[mask])
    ids = [block.ids[row] for row in rows]
    if block.kind == "edges":
        return ColumnarElements(
            "edges",
            ids,
            block.labelset_ids[index],
            block.token_sids[index],
            block.keyset_ids[index],
            columns,
            [block.source_ids[row] for row in rows],
            [block.target_ids[row] for row in rows],
            block.src_token_sids[index],
            block.tgt_token_sids[index],
            block.signature_ids[index],
        )
    return ColumnarElements(
        "nodes",
        ids,
        block.labelset_ids[index],
        block.token_sids[index],
        block.keyset_ids[index],
        columns,
        signature_ids=block.signature_ids[index],
    )

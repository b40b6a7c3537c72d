"""Seed-semantics reference for discovery steps (b)-(d), one element at a time.

The library runs steps (b)-(d) of PG-HIVE only over columnar batches
(:class:`~repro.graph.columnar.ElementBatch`).  This module restates what
each layer must compute in the most direct element-wise form, so the
columnar oracle (``tests/properties/test_columnar_oracle.py``) can compare
the two layer by layer:

* **vectors** (section 4.1) -- one hybrid vector per element: the scaled
  label-token embedding (three of them for edges) followed by a binary
  indicator over the batch's sorted property keys;
* **partition** (section 4.2) -- adaptive LSH parameters over those
  vectors, then ELSH over the vectors or MinHash over each element's own
  token set (signed from token strings, never from interned ids);
* **recording** (section 4.3) -- members attached one by one through
  ``record_instance`` and folded cell by cell through
  :meth:`TypeSummaries.observe`;
* **row access** -- one element's values looked up cell by cell, with a
  binary search of each key's value column (what every row-major reader
  of a batch must see through the block's cached row view);
* **matching** (section 4.3) -- Algorithm 2's Jaccard rule for unlabeled
  clusters as a scan of every type in schema order, the oracle of the
  indexed matcher (``tests/properties/test_jaccard_index_oracle.py``).

Nothing here is optimised; it is test code, and slow on purpose.
"""

from __future__ import annotations

import numpy as np

from repro.core import type_extraction
from repro.core.accumulators import DEFAULT_OPTIONS, SummaryOptions, ensure_summaries
from repro.core.adaptive import AdaptiveParameters, adapt_parameters
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.embedding.word2vec import Word2Vec
from repro.graph.columnar import ColumnarElements, ElementBatch
from repro.graph.model import Edge, Node
from repro.lsh.elsh import EuclideanLSH
from repro.lsh.minhash import MinHashLSH
from repro.schema.model import EdgeType
from repro.util import derive_seed, jaccard


def scaled_embedding(model: Word2Vec, token: str, config: PGHiveConfig) -> np.ndarray:
    """Label-token embedding: unit blend of trained and identity vectors."""
    if not token:
        return np.zeros(config.embedding_dim)
    blend = np.zeros(config.embedding_dim)
    for component in (model.vector(token), model.initial_vector(token)):
        norm = float(np.linalg.norm(component))
        if norm > 0.0:
            blend += component / norm
    norm = float(np.linalg.norm(blend))
    if norm == 0.0:
        blend = model.initial_vector(token)
        norm = float(np.linalg.norm(blend)) or 1.0
    return blend * (config.label_weight / norm)


def _indicator(properties, keys: list[str]) -> list[float]:
    return [1.0 if key in properties else 0.0 for key in keys]


def node_vectors(
    model: Word2Vec, nodes: list[Node], config: PGHiveConfig
) -> np.ndarray:
    """``f_v = [embed(token) | 1{key present}]`` per node."""
    keys = sorted({key for node in nodes for key in node.properties})
    rows = [
        np.concatenate(
            [
                scaled_embedding(model, node.token, config),
                _indicator(node.properties, keys),
            ]
        )
        for node in nodes
    ]
    return np.array(rows).reshape(len(nodes), model.dim + len(keys))


def edge_vectors(
    model: Word2Vec,
    edges: list[Edge],
    node_of: dict[str, Node],
    config: PGHiveConfig,
) -> np.ndarray:
    """``f_e = [embed(edge) | embed(source) | embed(target) | 1{key}]``."""
    keys = sorted({key for edge in edges for key in edge.properties})
    rows = [
        np.concatenate(
            [
                scaled_embedding(model, edge.token, config),
                scaled_embedding(model, node_of[edge.source_id].token, config),
                scaled_embedding(model, node_of[edge.target_id].token, config),
                _indicator(edge.properties, keys),
            ]
        )
        for edge in edges
    ]
    return np.array(rows).reshape(len(edges), 3 * model.dim + len(keys))


def node_token_set(node: Node) -> frozenset[str]:
    """MinHash token set of one node: its keys plus its label token."""
    tokens = set(node.properties)
    if node.token:
        tokens.add(f"label:{node.token}")
    return frozenset(tokens)


def edge_token_set(edge: Edge, node_of: dict[str, Node]) -> frozenset[str]:
    """MinHash token set of one edge: keys plus role-tagged label tokens."""
    tokens = set(edge.properties)
    source_token = node_of[edge.source_id].token
    target_token = node_of[edge.target_id].token
    if edge.token:
        tokens.add(f"label:{edge.token}")
    if source_token:
        tokens.add(f"src:{source_token}")
    if target_token:
        tokens.add(f"tgt:{target_token}")
    return frozenset(tokens)


def partition(
    vectors: np.ndarray,
    token_sets: list[frozenset[str]],
    label_count: int,
    config: PGHiveConfig,
    kind: str,
) -> tuple[list[list[int]], AdaptiveParameters | None]:
    """Per-element LSH partition (member rows per cluster, in order)."""
    if not token_sets:
        return [], None
    parameters = adapt_parameters(
        vectors,
        label_count=label_count,
        kind=kind,
        overrides=config.node_lsh if kind == "nodes" else config.edge_lsh,
        seed=derive_seed(config.seed, "adaptive", kind),
    )
    if config.method is ClusteringMethod.ELSH:
        lsh = EuclideanLSH(
            bucket_length=parameters.bucket_length,
            num_tables=parameters.num_tables,
            hashes_per_table=config.hashes_per_table,
            seed=derive_seed(config.seed, "elsh", kind),
        )
        groups = lsh.cluster(vectors, rule=config.grouping_rule)
    else:
        lsh = MinHashLSH(
            num_tables=parameters.num_tables,
            band_size=config.minhash_band_size,
            seed=derive_seed(config.seed, "minhash", kind),
        )
        groups = lsh.cluster(token_sets, rule=config.grouping_rule)
    return [list(rows) for rows in groups], parameters


def record(
    schema_type,
    members: list[Node] | list[Edge],
    options: SummaryOptions | None,
    exclude_record: frozenset[str] = frozenset(),
) -> None:
    """Attach ``members`` one at a time, folding each cell as it arrives."""
    is_edge = isinstance(schema_type, EdgeType)
    summaries = None
    if options is not None and (
        schema_type.summaries is not None or schema_type.instance_count == 0
    ):
        summaries = ensure_summaries(schema_type, is_edge, options)
    for member in members:
        instance_id = member.edge_id if is_edge else member.node_id
        if instance_id in exclude_record:
            continue
        if not schema_type.record_instance(instance_id, member.properties):
            continue
        if summaries is None:
            # Never resurrect summaries over unfolded history.
            schema_type.summaries = None
            continue
        endpoints = (member.source_id, member.target_id) if is_edge else None
        summaries.observe(instance_id, member.properties, endpoints)


def _tracker_state(tracker) -> tuple:
    witnesses = None if tracker.witnesses is None else dict(tracker.witnesses)
    return witnesses, tracker.count


def type_state(schema_type) -> dict:
    """Everything recording can change on a type, as comparable values."""
    state = {
        "instance_ids": set(schema_type.instance_ids),
        "instance_count": schema_type.instance_count,
        "property_counts": {
            key: count
            for key, count in schema_type.property_counts.items()
            if count
        },
        "properties": sorted(schema_type.properties),
        "summaries": None,
    }
    summaries = schema_type.summaries
    if summaries is None:
        return state
    endpoints = summaries.endpoints
    keys = summaries.keys
    state["summaries"] = {
        "datatypes": dict(summaries.datatypes.types),
        "endpoints": None
        if endpoints is None
        else (
            endpoints.targets_per_source,
            endpoints.sources_per_target,
            endpoints.max_out,
            endpoints.max_in,
        ),
        "keys": None
        if keys is None
        else (
            {key: _tracker_state(t) for key, t in keys.singles.items()},
            {pair: _tracker_state(t) for pair, t in keys.pairs.items()},
            keys.pair_overflow,
            keys.instances,
        ),
    }
    return state


def row_values(
    batch: ElementBatch, block: ColumnarElements, row: int
) -> tuple:
    """One row's values in key-set order, one binary search per cell."""
    keyset = batch.interner.keyset(int(block.keyset_ids[row]))
    return tuple(
        block.columns[key].values[
            int(np.searchsorted(block.columns[key].rows, row))
        ]
        for key in keyset.keys
    )


def node_record(batch: ElementBatch, row: int) -> tuple[int, int, tuple]:
    """``(labelset_id, keyset_id, values)`` of one node row."""
    block = batch.nodes
    return (
        int(block.labelset_ids[row]),
        int(block.keyset_ids[row]),
        row_values(batch, block, row),
    )


def edge_record(batch: ElementBatch, row: int) -> tuple:
    """``(src, tgt, labelset_id, keyset_id, values)`` of one edge row."""
    block = batch.edges
    return (
        block.source_ids[row],
        block.target_ids[row],
        int(block.labelset_ids[row]),
        int(block.keyset_ids[row]),
        row_values(batch, block, row),
    )


def to_elements(batch: ElementBatch) -> tuple[list[Node], list[Edge]]:
    """Materialise a batch element by element from per-cell lookups."""
    interner = batch.interner

    def properties(block: ColumnarElements, row: int) -> dict:
        keys = interner.keyset(int(block.keyset_ids[row])).keys
        return dict(zip(keys, row_values(batch, block, row)))

    nodes = [
        Node(
            node_id,
            interner.labelset(int(batch.nodes.labelset_ids[row])).labels,
            properties(batch.nodes, row),
        )
        for row, node_id in enumerate(batch.nodes.ids)
    ]
    edges = [
        Edge(
            edge_id,
            batch.edges.source_ids[row],
            batch.edges.target_ids[row],
            interner.labelset(int(batch.edges.labelset_ids[row])).labels,
            properties(batch.edges, row),
        )
        for row, edge_id in enumerate(batch.edges.ids)
    ]
    return nodes, edges


def best_jaccard_match(candidates, cluster, theta: float):
    """The first candidate with the strictly highest Jaccard score >= theta."""
    best, best_score = None, -1.0
    cluster_keys = frozenset(cluster.property_keys)
    for candidate in candidates:
        score = jaccard(candidate.property_keys, cluster_keys)
        if score >= theta and score > best_score:
            best, best_score = candidate, score
    return best


def best_edge_match(schema, cluster, theta: float):
    """:func:`best_jaccard_match` over endpoint-compatible edge types."""
    return best_jaccard_match(
        (
            candidate
            for candidate in schema.edge_types()
            if type_extraction._endpoints_compatible(candidate, cluster)
        ),
        cluster,
        theta,
    )


def linear_extract_node_types(
    schema,
    clusters,
    theta: float,
    summary_options: SummaryOptions | None = DEFAULT_OPTIONS,
    exclude_record: frozenset[str] = frozenset(),
):
    """``extract_node_types`` with each unlabeled cluster scanning every
    type: labelled types first, then abstract ones."""
    type_extraction.extract_node_types(
        schema,
        [cluster for cluster in clusters if cluster.is_labeled],
        theta,
        summary_options,
        exclude_record,
    )
    for cluster in clusters:
        if cluster.is_labeled:
            continue
        target = best_jaccard_match(
            (t for t in schema.node_types() if t.labels), cluster, theta
        )
        if target is None:
            target = best_jaccard_match(
                (t for t in schema.node_types() if not t.labels), cluster, theta
            )
        if target is not None:
            type_extraction._absorb_node_cluster(
                target, cluster, summary_options, exclude_record
            )
        else:
            type_extraction._new_node_type(
                schema, cluster, summary_options, exclude_record
            )
    return schema


def linear_extract_edge_types(
    schema,
    clusters,
    theta: float,
    summary_options: SummaryOptions | None = DEFAULT_OPTIONS,
):
    """``extract_edge_types`` with each unlabeled cluster scanning every
    endpoint-compatible type."""
    type_extraction.extract_edge_types(
        schema,
        [cluster for cluster in clusters if cluster.is_labeled],
        theta,
        summary_options,
    )
    for cluster in clusters:
        if cluster.is_labeled:
            continue
        target = best_edge_match(schema, cluster, theta)
        if target is not None:
            type_extraction._absorb_edge_cluster(target, cluster, summary_options)
        else:
            type_extraction._new_edge_type(schema, cluster, summary_options)
    return schema

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
  vectors, with the distance scale mu taken over every element pair,
  then ELSH hashing every element's vector or MinHash over each
  element's own token set (signed from token strings, never from
  interned ids);
* **corpus** (section 4.1) -- the Word2Vec label corpus walked element
  by element over a property graph (:func:`build_label_corpus`);
* **recording** (section 4.3) -- members attached one by one through
  ``record_instance`` and folded cell by cell through
  :func:`observe_summaries`, the per-cell folds every columnar
  accumulator method must equal;
* **row access** -- one element's values looked up cell by cell, with a
  binary search of each key's value column (what every row-major reader
  of a batch must see through the block's cached row view);
* **matching** (section 4.3) -- Algorithm 2's Jaccard rule for unlabeled
  clusters as a scan of every type in schema order, the oracle of the
  indexed matcher (``tests/properties/test_jaccard_index_oracle.py``);
* **post-processing** (section 4.4) -- constraints, datatypes,
  cardinalities and keys re-read from a retained union graph by
  :meth:`PGHive.post_process` (:func:`full_scan_session` /
  :func:`full_scan`), the oracle of the accumulator reads;
* **schema merging** (section 4.6) -- each labelled incoming edge type
  scanning every target edge type in canonical order for its match
  (:func:`reference_merge_into`), the oracle of the token-filtered
  matcher in :func:`repro.schema.merge.merge_into`
  (``tests/properties/test_merge_oracle.py``).

Nothing here is optimised; it is test code, and slow on purpose.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

import numpy as np

from repro.core import type_extraction
from repro.core.accumulators import (
    DEFAULT_OPTIONS,
    DatatypeAccumulator,
    DistinctTracker,
    EndpointAccumulator,
    KeyAccumulator,
    SummaryOptions,
    TypeSummaries,
    ensure_summaries,
    hashable_value,
)
from repro.core.adaptive import (
    MAX_DISTANCE_PAIRS,
    SAMPLE_FLOOR,
    SAMPLE_FRACTION,
    AdaptiveParameters,
    parameters_for_scale,
)
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.pipeline import PGHive
from repro.core.session import SchemaSession
from repro.embedding.word2vec import Word2Vec
from repro.graph.columnar import ColumnarElements, ElementBatch
from repro.graph.model import Edge, Node, PropertyGraph
from repro.lsh.base import GroupingRule, group
from repro.lsh.elsh import EuclideanLSH
from repro.lsh.minhash import MinHashLSH
from repro.schema.cardinality import CardinalityBounds
from repro.schema.datatypes import generalize, infer_value_type
from repro.schema.merge import (
    DEFAULT_THETA,
    _absorb_sorted,
    _add_edge_copy,
    _add_node_copy,
    _edge_sort_key,
    _endpoints_overlap,
    _merge_unlabeled_edge,
    _merge_unlabeled_node,
    _node_sort_key,
)
from repro.schema.model import EdgeType, SchemaGraph
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


def build_label_corpus(
    graph: PropertyGraph,
    max_sentences: int | None = 50_000,
    seed: int = 0,
) -> list[list[str]]:
    """Label-token sentences for ``graph``, walked element by element.

    When the graph has more edges than ``max_sentences`` a uniform random
    subsample (deterministic under ``seed``) keeps training time bounded;
    the vocabulary still registers every node token via the single-token
    sentences, so no label set loses its embedding.
    """
    sentences: list[list[str]] = []
    seen_tokens: set[str] = set()
    for node in graph.nodes():
        token = node.token
        if token and token not in seen_tokens:
            seen_tokens.add(token)
            sentences.append([token])

    edge_sentences: list[list[str]] = []
    for edge in graph.edges():
        source_token = graph.node(edge.source_id).token
        target_token = graph.node(edge.target_id).token
        sentence = [t for t in (source_token, edge.token, target_token) if t]
        if len(sentence) >= 2:
            edge_sentences.append(sentence)
        elif len(sentence) == 1 and sentence[0] not in seen_tokens:
            seen_tokens.add(sentence[0])
            sentences.append(sentence)

    if max_sentences is not None and len(edge_sentences) > max_sentences:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(edge_sentences), size=max_sentences, replace=False)
        edge_sentences = [edge_sentences[i] for i in sorted(chosen)]
    sentences.extend(edge_sentences)
    return sentences


def representative(
    members: list[Node] | list[Edge], node_of: dict[str, Node]
) -> tuple[set[str], set[str], set[str], set[str]]:
    """``rep(C)``: unions of labels, keys, and (edges) endpoint tokens."""
    labels: set[str] = set()
    keys: set[str] = set()
    sources: set[str] = set()
    targets: set[str] = set()
    for member in members:
        labels |= member.labels
        keys |= set(member.properties)
        if isinstance(member, Edge):
            sources.add(node_of[member.source_id].token)
            targets.add(node_of[member.target_id].token)
    return labels, keys, sources, targets


def estimate_distance_scale(vectors: np.ndarray, rng: np.random.Generator) -> float:
    """Average pairwise Euclidean distance, one delta per element pair."""
    count = len(vectors)
    if count < 2:
        return 0.0
    sample_size = max(int(count * SAMPLE_FRACTION), SAMPLE_FLOOR)
    sample_size = min(sample_size, count)
    indices = (
        np.arange(count)
        if sample_size == count
        else rng.choice(count, size=sample_size, replace=False)
    )
    sample = vectors[indices]

    if sample_size <= 200:
        deltas = sample[:, None, :] - sample[None, :, :]
        squared = np.einsum("ijk,ijk->ij", deltas, deltas)
        upper = squared[np.triu_indices(sample_size, k=1)]
        return float(np.sqrt(upper).mean()) if upper.size else 0.0

    pair_budget = min(MAX_DISTANCE_PAIRS, sample_size * (sample_size - 1) // 2)
    left = rng.integers(0, sample_size, pair_budget)
    right = rng.integers(0, sample_size, pair_budget)
    distinct = left != right
    if not np.any(distinct):
        return 0.0
    deltas = sample[left[distinct]] - sample[right[distinct]]
    distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
    return float(distances.mean())


def minhash_cluster(
    lsh: MinHashLSH, token_sets: list, rule: GroupingRule = GroupingRule.AND
) -> list[list[int]]:
    """Group indices of ``token_sets`` by their own banded signatures."""
    signatures = lsh.signatures(token_sets)
    if signatures.size == 0:
        return []
    return group(signatures, rule)


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
    mu = estimate_distance_scale(
        vectors, np.random.default_rng(derive_seed(config.seed, "adaptive", kind))
    )
    parameters = parameters_for_scale(
        mu,
        label_count=label_count,
        element_count=len(vectors),
        kind=kind,
        overrides=config.node_lsh if kind == "nodes" else config.edge_lsh,
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
        groups = minhash_cluster(lsh, token_sets, rule=config.grouping_rule)
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
        observe_summaries(summaries, instance_id, member.properties, endpoints)


def observe_datatype(accumulator: DatatypeAccumulator, key: str, value) -> None:
    """Fold one value into the lattice element of ``key``."""
    current = accumulator.types.get(key)
    value_type = infer_value_type(value)
    accumulator.types[key] = (
        value_type if current is None else generalize(current, value_type)
    )


class ReferenceEndpoints:
    """Set-based endpoint state: distinct targets per source and sources
    per target, with maxima re-derived on every fold.

    It shares no layout with :class:`EndpointAccumulator`: the reference
    fold swaps it in for a type's accumulator, and :func:`endpoint_state`
    reduces either one to the same canonical form.
    """

    def __init__(self) -> None:
        self.targets_per_source: dict[str, set[str]] = {}
        self.sources_per_target: dict[str, set[str]] = {}
        self.max_out = 0
        self.max_in = 0

    def merge_from(self, other: ReferenceEndpoints) -> None:
        for source_id, targets in other.targets_per_source.items():
            for target_id in targets:
                observe_endpoint(self, source_id, target_id)

    def bounds(self) -> CardinalityBounds:
        return CardinalityBounds(self.max_out, self.max_in)


def observe_endpoint(
    reference: ReferenceEndpoints, source_id: str, target_id: str
) -> None:
    """Fold one edge instance's endpoints, re-deriving both maxima."""
    targets = reference.targets_per_source.setdefault(source_id, set())
    targets.add(target_id)
    reference.max_out = max(reference.max_out, len(targets))
    sources = reference.sources_per_target.setdefault(target_id, set())
    sources.add(source_id)
    reference.max_in = max(reference.max_in, len(sources))


def endpoint_state(endpoints: EndpointAccumulator | ReferenceEndpoints) -> tuple:
    """Canonical endpoint state: distinct pairs, in-degrees, both maxima."""
    pairs = {
        (source_id, target_id)
        for source_id, targets in endpoints.targets_per_source.items()
        for target_id in targets
    }
    if isinstance(endpoints, ReferenceEndpoints):
        in_degree = {
            target_id: len(sources)
            for target_id, sources in endpoints.sources_per_target.items()
        }
    else:
        in_degree = dict(endpoints.in_degree)
    return pairs, in_degree, endpoints.max_out, endpoints.max_in


def observe_distinct(tracker: DistinctTracker, value, instance_id: str) -> None:
    """Fold one (value, instance) observation; a second witness is terminal."""
    tracker.count += 1
    if tracker.witnesses is None:
        return
    if tracker.witnesses.setdefault(value, instance_id) != instance_id:
        tracker.witnesses = None


def observe_keys(accumulator: KeyAccumulator, instance_id: str, properties) -> None:
    """Fold one instance's property map into the key trackers.

    The first instance seeds one pair tracker per pair of its keys (or
    flags ``pair_overflow`` above the cap); a later instance missing
    either key of a pair kills that pair.
    """
    first_instance = accumulator.instances == 0
    accumulator.instances += 1
    for key, value in properties.items():
        tracker = accumulator.singles.setdefault(key, DistinctTracker())
        observe_distinct(tracker, hashable_value(value), instance_id)
    if first_instance:
        keys = sorted(properties)
        if len(keys) > accumulator.pair_cap:
            accumulator.pair_overflow = True
            return
        for pair in combinations(keys, 2):
            accumulator.pairs[pair] = DistinctTracker()
    for pair in list(accumulator.pairs):
        left, right = pair
        if left in properties and right in properties:
            value = (hashable_value(properties[left]), hashable_value(properties[right]))
            observe_distinct(accumulator.pairs[pair], value, instance_id)
        else:
            del accumulator.pairs[pair]


def observe_summaries(
    summaries: TypeSummaries,
    instance_id: str,
    properties,
    endpoints: tuple[str, str] | None = None,
) -> None:
    """Fold one newly recorded instance into every accumulator of a type."""
    for key, value in properties.items():
        observe_datatype(summaries.datatypes, key, value)
    if summaries.endpoints is not None and endpoints is not None:
        if isinstance(summaries.endpoints, EndpointAccumulator):
            reference = ReferenceEndpoints()
            reference.merge_from(summaries.endpoints)
            summaries.endpoints = reference
        observe_endpoint(summaries.endpoints, *endpoints)
    if summaries.keys is not None:
        observe_keys(summaries.keys, instance_id, properties)


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
        "endpoints": None if endpoints is None else endpoint_state(endpoints),
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


def full_scan_session(
    config: PGHiveConfig, schema_name: str = "full-scan"
) -> SchemaSession:
    """A union-retaining session that builds no accumulators.

    Its raw schema equals that of a session under ``config``; read it
    with :func:`full_scan`.
    """
    return SchemaSession(
        replace(config, post_processing=False, retain_union=True), schema_name
    )


def full_scan(session: SchemaSession, config: PGHiveConfig) -> SchemaGraph:
    """Post-process ``session``'s raw schema by re-scanning its union."""
    return PGHive(config).post_process(session.schema_graph, session.union_graph)


def reference_merge_into(
    target: SchemaGraph,
    incoming: SchemaGraph,
    theta: float = DEFAULT_THETA,
) -> SchemaGraph:
    """:func:`repro.schema.merge.merge_into` with every labelled incoming
    edge type re-sorting *all* target edge types before filtering by
    token."""
    deferred_nodes = []
    for node_type in sorted(incoming.node_types(), key=_node_sort_key):
        if node_type.labels:
            existing = target.node_type_by_token(node_type.token)
            if existing is not None:
                _absorb_sorted(existing, node_type)
            else:
                _add_node_copy(target, node_type)
        else:
            deferred_nodes.append(node_type)
    for node_type in deferred_nodes:
        _merge_unlabeled_node(target, node_type, theta)
    deferred_edges = []
    for edge_type in sorted(incoming.edge_types(), key=_edge_sort_key):
        if edge_type.labels:
            existing = next(
                (
                    candidate
                    for candidate in sorted(
                        target.edge_types(), key=_edge_sort_key
                    )
                    if candidate.labels
                    and candidate.token == edge_type.token
                    and _endpoints_overlap(candidate, edge_type)
                ),
                None,
            )
            if existing is not None:
                _absorb_sorted(existing, edge_type)
            else:
                _add_edge_copy(target, edge_type)
        else:
            deferred_edges.append(edge_type)
    for edge_type in deferred_edges:
        _merge_unlabeled_edge(target, edge_type, theta)
    return target

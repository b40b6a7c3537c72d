"""Type extraction and merging (Algorithm 2, section 4.3).

Clusters produced by LSH are folded into the running schema graph:

1. **Labelled clusters** merge directly with the existing type carrying the
   same label token ("clusters that have the same label(s) are merged
   directly"); otherwise they found a new type.
2. **Unlabeled clusters** merge with the labelled type whose property-key
   set is Jaccard-similar at ``theta`` (0.9), then with each other, and any
   survivor becomes an ABSTRACT type (PG-Schema's escape hatch).
3. **Edge clusters** merge by label, guarded by endpoint compatibility:
   two same-label clusters merge only when their source and target token
   sets overlap.  Edge patterns (Def. 3.6) distinguish ``R = (L_s, L_t)``,
   and Table 2 datasets contain same-label edge types told apart purely by
   endpoints (e.g. the two ``ConnectsTo`` types of MB6) -- merging by bare
   label would collapse them, which is precisely SchemI's weakness.
   The merged type's endpoint unions realise ``rho_s`` (section 4.3
   "Edges").  Unlabeled edge clusters fall back to the Jaccard rule with
   the same endpoint guard.

All merging is monotone (Lemmas 1 and 2): labels, property keys, endpoints
and member instances only accumulate.
"""

from __future__ import annotations

from repro.core.accumulators import DEFAULT_OPTIONS, SummaryOptions
from repro.core.clustering import ColumnarCluster
from repro.schema.model import EdgeType, NodeType, SchemaGraph
from repro.util import jaccard


def _new_node_type(
    schema: SchemaGraph,
    cluster: ColumnarCluster,
    options: SummaryOptions | None,
    exclude_record: frozenset[str] = frozenset(),
) -> NodeType:
    node_type = NodeType(
        schema.new_type_id("n"), cluster.labels, abstract=not cluster.labels
    )
    cluster.record_into(node_type, options, exclude_record)
    return schema.add_node_type(node_type)


def _new_edge_type(
    schema: SchemaGraph, cluster: ColumnarCluster, options: SummaryOptions | None
) -> EdgeType:
    edge_type = EdgeType(
        schema.new_type_id("e"), cluster.labels, abstract=not cluster.labels
    )
    cluster.record_into(edge_type, options)
    for source_token in cluster.source_tokens:
        edge_type.source_tokens.add(source_token)
    for target_token in cluster.target_tokens:
        edge_type.target_tokens.add(target_token)
    return schema.add_edge_type(edge_type)


def _absorb_node_cluster(
    node_type: NodeType,
    cluster: ColumnarCluster,
    options: SummaryOptions | None,
    exclude_record: frozenset[str] = frozenset(),
) -> None:
    node_type.labels |= cluster.labels
    if cluster.labels:
        node_type.abstract = False
    cluster.record_into(node_type, options, exclude_record)


def _absorb_edge_cluster(
    edge_type: EdgeType, cluster: ColumnarCluster, options: SummaryOptions | None
) -> None:
    edge_type.labels |= cluster.labels
    if cluster.labels:
        edge_type.abstract = False
    edge_type.source_tokens |= cluster.source_tokens
    edge_type.target_tokens |= cluster.target_tokens
    cluster.record_into(edge_type, options)


def extract_node_types(
    schema: SchemaGraph,
    clusters: list[ColumnarCluster],
    theta: float,
    summary_options: SummaryOptions | None = DEFAULT_OPTIONS,
    exclude_record: frozenset[str] = frozenset(),
) -> SchemaGraph:
    """Fold node clusters into ``schema`` (lines 2-14 of Algorithm 2)."""
    unlabeled: list[ColumnarCluster] = []
    # Token index built once per call: the per-cluster lookup used to
    # linear-scan every type and recompute its token (sorted+join), which
    # dominated extraction on batches with many distinct structures.  A
    # type's token never changes inside this loop -- labelled absorption
    # unions equal label sets and unlabeled clusters contribute none --
    # so the index stays valid; first labelled type wins, as before.
    by_token: dict[str, NodeType] = {}
    for node_type in schema.node_types():
        if node_type.labels:
            by_token.setdefault(node_type.token, node_type)
    for cluster in clusters:
        if not cluster.is_labeled:
            unlabeled.append(cluster)
            continue
        token = "+".join(sorted(cluster.labels))
        existing = by_token.get(token)
        if existing is not None:
            _absorb_node_cluster(existing, cluster, summary_options, exclude_record)
        else:
            by_token[token] = _new_node_type(
                schema, cluster, summary_options, exclude_record
            )

    for cluster in unlabeled:
        target = _best_jaccard_match(
            (t for t in schema.node_types() if t.labels), cluster, theta
        )
        if target is None:
            target = _best_jaccard_match(
                (t for t in schema.node_types() if not t.labels), cluster, theta
            )
        if target is not None:
            _absorb_node_cluster(target, cluster, summary_options, exclude_record)
        else:
            _new_node_type(schema, cluster, summary_options, exclude_record)
    return schema


def extract_edge_types(
    schema: SchemaGraph,
    clusters: list[ColumnarCluster],
    theta: float,
    summary_options: SummaryOptions | None = DEFAULT_OPTIONS,
) -> SchemaGraph:
    """Fold edge clusters into ``schema`` (section 4.3 "Edges")."""
    unlabeled: list[ColumnarCluster] = []
    # Same-token candidates indexed once per call (insertion order kept
    # within each token, so the first compatible candidate matches the
    # old full-scan's choice); see extract_node_types for the validity
    # argument.  Endpoint compatibility still checks live token sets.
    by_token: dict[str, list[EdgeType]] = {}
    for edge_type in schema.edge_types():
        if edge_type.labels:
            by_token.setdefault(edge_type.token, []).append(edge_type)
    for cluster in clusters:
        if not cluster.is_labeled:
            unlabeled.append(cluster)
            continue
        token = "+".join(sorted(cluster.labels))
        existing = None
        for candidate in by_token.get(token, ()):
            if _endpoints_compatible(candidate, cluster):
                existing = candidate
                break
        if existing is not None:
            _absorb_edge_cluster(existing, cluster, summary_options)
        else:
            by_token.setdefault(token, []).append(
                _new_edge_type(schema, cluster, summary_options)
            )

    for cluster in unlabeled:
        target = _best_edge_match(schema, cluster, theta)
        if target is not None:
            _absorb_edge_cluster(target, cluster, summary_options)
        else:
            _new_edge_type(schema, cluster, summary_options)
    return schema


def extract_types(
    schema: SchemaGraph,
    node_clusters: list[ColumnarCluster],
    edge_clusters: list[ColumnarCluster],
    theta: float = 0.9,
    summary_options: SummaryOptions | None = DEFAULT_OPTIONS,
    exclude_record: frozenset[str] = frozenset(),
) -> SchemaGraph:
    """Algorithm 2 entry point: merge both cluster kinds into ``schema``.

    ``exclude_record`` skips instance attachment for the listed member
    ids (cross-shard endpoint stubs); stubs are always *nodes*, and node
    and edge ids live in separate namespaces that may overlap, so the
    exclusion applies to node extraction only -- an edge whose id happens
    to equal a stubbed node id must still be recorded.
    """
    extract_node_types(schema, node_clusters, theta, summary_options, exclude_record)
    extract_edge_types(schema, edge_clusters, theta, summary_options)
    return schema


def _best_jaccard_match(candidates, cluster: ColumnarCluster, theta: float):
    best, best_score = None, -1.0
    cluster_keys = frozenset(cluster.property_keys)
    for candidate in candidates:
        score = jaccard(candidate.property_keys, cluster_keys)
        if score >= theta and score > best_score:
            best, best_score = candidate, score
    return best


def _best_edge_match(schema: SchemaGraph, cluster: ColumnarCluster, theta: float):
    best, best_score = None, -1.0
    cluster_keys = frozenset(cluster.property_keys)
    for candidate in schema.edge_types():
        if not _endpoints_compatible(candidate, cluster):
            continue
        score = jaccard(candidate.property_keys, cluster_keys)
        if score >= theta and score > best_score:
            best, best_score = candidate, score
    return best


def _endpoints_compatible(edge_type: EdgeType, cluster: ColumnarCluster) -> bool:
    """Source and target token sets must both overlap.

    The empty token (an unlabeled endpoint) is a *wildcard*: it gives no
    evidence of incompatibility, so sides whose only information is
    unlabeled endpoints match anything.
    """
    return _tokens_overlap(
        edge_type.source_tokens, cluster.source_tokens
    ) and _tokens_overlap(edge_type.target_tokens, cluster.target_tokens)


def _tokens_overlap(left: set[str], right: set[str]) -> bool:
    left_known = left - {""}
    right_known = right - {""}
    if not left_known or not right_known:
        return True
    return bool(left_known & right_known)

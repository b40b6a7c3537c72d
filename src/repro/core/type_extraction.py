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

The Jaccard rule is answered by :class:`_KeyIndex`, an exact
set-similarity index (the size and prefix filters of All-Pairs and
PPJoin) built per call and only when the call has unlabeled clusters.
It picks the same type a scan of every type in schema order would pick;
``tests/seed_reference.py`` keeps that scan as the oracle.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Callable, Iterable
from functools import partial
from itertools import islice
from math import ceil

from repro.core.accumulators import DEFAULT_OPTIONS, SummaryOptions
from repro.core.clustering import ColumnarCluster
from repro.schema.model import EdgeType, NodeType, SchemaGraph


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

    if not unlabeled:
        return schema
    # Labelled types first, abstract types second; both passes filter one
    # scored candidate list.  Unlabeled clusters add no labels, so a
    # type's pass cannot change inside this loop.
    index = _KeyIndex(schema.node_types())
    for cluster in unlabeled:
        matches = index.matches(cluster.property_keys, theta)
        position = index.best(matches, theta, _has_labels)
        if position is None:
            position = index.best(matches, theta, _has_no_labels)
        if position is not None:
            _absorb_node_cluster(
                index.types[position], cluster, summary_options, exclude_record
            )
            index.refresh(position)
        else:
            index.add(_new_node_type(schema, cluster, summary_options, exclude_record))
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

    if not unlabeled:
        return schema
    index = _KeyIndex(schema.edge_types())
    for cluster in unlabeled:
        position = index.best(
            index.matches(cluster.property_keys, theta),
            theta,
            partial(_endpoints_compatible, cluster=cluster),
        )
        if position is not None:
            _absorb_edge_cluster(index.types[position], cluster, summary_options)
            index.refresh(position)
        else:
            index.add(_new_edge_type(schema, cluster, summary_options))
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


#: Filters compare against ``theta - _SLACK`` so that float rounding in
#: ``theta * n`` or ``n / theta`` never prunes a type the final
#: ``score >= theta`` comparison accepts: at ``theta = 15 / 29``,
#: ``theta * 29`` rounds above 15.
_SLACK = 1e-9

_NO_POSTINGS: list[int] = []


class _KeyIndex:
    """Exact candidate index for the Jaccard rule of Algorithm 2.

    Holds the types of one kind in schema order (``types[position]``),
    one posting list of ascending positions per property key, and the
    positions of types without keys.  Built per extraction call and
    updated in place as clusters are absorbed or found new types; it is
    never persisted.  :meth:`matches` returns exactly the types sharing a
    key with the cluster (key-less types, for a key-less cluster) that a
    scan of every type would score at ``theta`` or above, with the same
    scores; :meth:`best` covers the zero scores that reach ``theta <= 0``.
    The filters are exact:

    * **prefix filter** -- a type with ``J >= theta`` against ``n``
      cluster keys shares at least ``r = ceil(theta * n)`` of them, so it
      posts under at least one of *any* ``n - r + 1`` cluster keys
      (pigeonhole); the shortest posting lists are taken.  Every key of
      every type is posted, so no global token order is needed;
    * **size filter** -- ``theta * n <= |y| <= n / theta``;
    * **scoring** -- ``o / (n + m - o)``, the two integers
      :func:`repro.util.jaccard` divides, so scores are bit-identical.
    """

    __slots__ = ("types", "postings", "keyless", "_posted")

    def __init__(self, types: Iterable) -> None:
        self.types: list = []
        self.postings: dict[str, list[int]] = {}
        #: positions of key-less types (dict as an ordered set)
        self.keyless: dict[int, None] = {}
        #: per position, how many of the type's keys are posted
        self._posted: list[int] = []
        for schema_type in types:
            self.add(schema_type)

    def add(self, schema_type) -> int:
        """Index a type at the next position (schema order)."""
        position = len(self.types)
        self.types.append(schema_type)
        self._posted.append(0)
        self.keyless[position] = None
        self.refresh(position)
        return position

    def refresh(self, position: int) -> None:
        """Post the keys ``types[position]`` gained since it was indexed.

        Keys are read from the type, not from the absorbed cluster: a
        cluster whose members are all excluded or replayed records none.
        Key sets only grow and dicts keep insertion order, so the gained
        keys are the suffix past the posted count.
        """
        properties = self.types[position].properties
        posted = self._posted[position]
        if len(properties) == posted:
            return
        self.keyless.pop(position, None)
        postings = self.postings
        for key in islice(properties, posted, None):
            insort(postings.setdefault(key, []), position)
        self._posted[position] = len(properties)

    def candidates(self, keys: set[str], theta: float) -> list[int]:
        """Ascending positions that pass the prefix and size filters."""
        n = len(keys)
        if not n:
            return list(self.keyless)
        slack = theta - _SLACK
        # A positive score needs one shared key, so r >= 1 even when the
        # slack threshold is not positive (theta <= 1e-9).
        required = max(1, ceil(slack * n))
        postings = self.postings
        prefix = sorted(
            (postings.get(key, _NO_POSTINGS) for key in keys), key=len
        )[: max(0, n - required + 1)]
        found = set().union(*prefix)
        if slack > 0.0:
            low, high = slack * n, n / slack
            types = self.types
            found = {
                position
                for position in found
                if low <= len(types[position].properties) <= high
            }
        return sorted(found)

    def matches(self, keys: set[str], theta: float) -> list[tuple[float, int]]:
        """``(score, position)`` of every type scoring ``>= theta`` with a
        positive overlap (or both key sets empty), ascending position."""
        n = len(keys)
        types = self.types
        scored = []
        for position in self.candidates(keys, theta):
            properties = types[position].properties
            overlap = len(keys.intersection(properties))
            union = n + len(properties) - overlap
            score = overlap / union if union else 1.0
            if score >= theta:
                scored.append((score, position))
        return scored

    def best(
        self,
        matches: list[tuple[float, int]],
        theta: float,
        accept: Callable[[object], bool],
    ) -> int | None:
        """Position of the first accepted type with the strictly highest
        score, as a scan in schema order picks it.

        At ``theta <= 0`` a type sharing no key also reaches ``theta``
        (at score 0); when no accepted match scored higher, the first
        accepted type in schema order wins.
        """
        types = self.types
        best, best_score = None, -1.0
        for score, position in matches:
            if score >= theta and score > best_score and accept(types[position]):
                best, best_score = position, score
        if best is None and theta <= 0.0:
            best = next(
                (p for p, schema_type in enumerate(types) if accept(schema_type)),
                None,
            )
        return best


def _has_labels(schema_type) -> bool:
    return bool(schema_type.labels)


def _has_no_labels(schema_type) -> bool:
    return not schema_type.labels


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

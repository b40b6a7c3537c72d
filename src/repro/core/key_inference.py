"""Key-constraint inference (extension; PG-Keys [9]).

The paper's schema definition builds on PG-Keys but the published pipeline
stops at mandatory/optional flags.  This extension closes that gap: a
property is a *candidate key* for a type when it is mandatory and its
values are pairwise distinct across the type's instances (an EXCLUSIVE
SINGLETON key in PG-Keys terms).  Composite pairs are searched only among
mandatory non-key properties, capped to keep the pass linear-ish.

Candidate keys are upper-bound claims in the same sense as cardinalities:
they hold on the observed data and may be invalidated by future inserts.
"""

from __future__ import annotations

import warnings
from itertools import combinations

from repro.core.accumulators import hashable_value as _hashable
from repro.errors import SchemaError
from repro.graph.model import PropertyGraph
from repro.schema.model import EdgeType, NodeType, SchemaGraph

#: Skip composite-key search above this many mandatory candidates.
MAX_COMPOSITE_CANDIDATES = 6
#: Keys over types with fewer instances than this are too weak to claim.
MIN_INSTANCES_FOR_KEY = 2


def _instance_values(
    graph: PropertyGraph,
    schema_type: NodeType | EdgeType,
    keys: tuple[str, ...],
    is_edge: bool,
) -> list[tuple] | None:
    """Tuples of the given keys' values per instance; None when any absent."""
    getter = graph.edge if is_edge else graph.node
    exists = graph.has_edge if is_edge else graph.has_node
    rows: list[tuple] = []
    # Sorted: instance_ids is a set; keep row order hash-seed independent.
    for instance_id in sorted(schema_type.instance_ids):
        if not exists(instance_id):
            continue
        element = getter(instance_id)
        try:
            rows.append(
                tuple(_hashable(element.properties[key]) for key in keys)
            )
        except KeyError:
            return None  # a key is absent on some instance -> not a key
    return rows


def candidate_keys_for_type(
    graph: PropertyGraph,
    schema_type: NodeType | EdgeType,
    is_edge: bool,
) -> list[tuple[str, ...]]:
    """All singleton and pair candidate keys of one type."""
    if schema_type.instance_count < MIN_INSTANCES_FOR_KEY:
        return []
    mandatory = sorted(schema_type.mandatory_keys())
    singles: list[tuple[str, ...]] = []
    non_keys: list[str] = []
    for key in mandatory:
        rows = _instance_values(graph, schema_type, (key,), is_edge)
        if rows and len(set(rows)) == len(rows):
            singles.append((key,))
        else:
            non_keys.append(key)

    composites: list[tuple[str, ...]] = []
    if len(non_keys) <= MAX_COMPOSITE_CANDIDATES:
        for pair in combinations(non_keys, 2):
            rows = _instance_values(graph, schema_type, pair, is_edge)
            if rows and len(set(rows)) == len(rows):
                composites.append(pair)
    return singles + composites


def candidate_keys_from_summaries(schema_type: NodeType | EdgeType) -> list[tuple[str, ...]]:
    """Streaming equivalent of :func:`candidate_keys_for_type`.

    Reads the per-type :class:`~repro.core.accumulators.KeyAccumulator`
    in the exact candidate order of the full scan (sorted mandatory
    singles, then pairs of the non-key remainder), so the result lists
    are identical.  A singleton is a key when its distinct-value tracker
    covered every instance without a cross-instance duplicate; pairs read
    the pair trackers that survived since the type's first instance.
    Types whose first instance exceeded the pair-tracking cap report no
    composites (``pair_overflow``).
    """
    if schema_type.instance_count < MIN_INSTANCES_FOR_KEY:
        return []
    summaries = schema_type.summaries
    if summaries is None or summaries.keys is None:
        raise SchemaError(
            f"type {schema_type.display_name!r} has no key accumulator; "
            "enable infer_keys before the stream starts or use the "
            "full-scan candidate_keys_for_type"
        )
    accumulator = summaries.keys
    mandatory = sorted(schema_type.mandatory_keys())
    singles: list[tuple[str, ...]] = []
    non_keys: list[str] = []
    for key in mandatory:
        tracker = accumulator.singles.get(key)
        if (
            tracker is not None
            and tracker.count == accumulator.instances
            and tracker.distinct
        ):
            singles.append((key,))
        else:
            non_keys.append(key)

    composites: list[tuple[str, ...]] = []
    if len(non_keys) <= MAX_COMPOSITE_CANDIDATES:
        if accumulator.pair_overflow:
            if len(non_keys) >= 2:
                # The full scan would search these pairs; say so instead of
                # silently diverging for very wide types.
                warnings.warn(
                    f"type {schema_type.display_name!r}: composite-key "
                    "tracking overflowed (first instance exceeded "
                    f"key_pair_tracking_cap={accumulator.pair_cap}); "
                    "streaming inference reports no composite keys",
                    RuntimeWarning,
                    stacklevel=2,
                )
        else:
            for pair in combinations(non_keys, 2):
                tracker = accumulator.pairs.get(pair)
                if tracker is not None and tracker.distinct:
                    composites.append(pair)
    return singles + composites


def infer_keys_streaming(schema: SchemaGraph) -> SchemaGraph:
    """Fill ``type.candidate_keys`` from the streaming accumulators."""
    for node_type in schema.node_types():
        node_type.candidate_keys = candidate_keys_from_summaries(node_type)
        _mark_unique(node_type)
    for edge_type in schema.edge_types():
        edge_type.candidate_keys = candidate_keys_from_summaries(edge_type)
        _mark_unique(edge_type)
    return schema


def infer_keys(schema: SchemaGraph, graph: PropertyGraph) -> SchemaGraph:
    """Fill ``type.candidate_keys`` for every node and edge type."""
    for node_type in schema.node_types():
        node_type.candidate_keys = candidate_keys_for_type(
            graph, node_type, is_edge=False
        )
        _mark_unique(node_type)
    for edge_type in schema.edge_types():
        edge_type.candidate_keys = candidate_keys_for_type(
            graph, edge_type, is_edge=True
        )
        _mark_unique(edge_type)
    return schema


def _mark_unique(schema_type: NodeType | EdgeType) -> None:
    """Flag exactly the singleton candidate keys ``unique``.

    A flag left by an earlier read is cleared when its key no longer
    holds (a duplicate value arrived, or deletions left too few
    instances), so a read does not depend on which reads came before.
    """
    singles = {key[0] for key in schema_type.candidate_keys if len(key) == 1}
    for key, spec in schema_type.properties.items():
        spec.unique = True if key in singles else None


def to_pg_keys(schema: SchemaGraph) -> str:
    """Render candidate keys as PG-Keys statements.

    One ``FOR (x:Label) EXCLUSIVE MANDATORY SINGLETON x.key`` line per
    singleton key; composite keys list the property tuple.
    """
    lines: list[str] = []
    for node_type in schema.node_types():
        spec = node_type.display_name
        for key_tuple in getattr(node_type, "candidate_keys", []) or []:
            properties = ", ".join(f"x.{key}" for key in key_tuple)
            kind = "SINGLETON" if len(key_tuple) == 1 else "COMPOSITE"
            lines.append(
                f"FOR (x:{spec}) EXCLUSIVE MANDATORY {kind} {properties}"
            )
    for edge_type in schema.edge_types():
        spec = edge_type.display_name
        for key_tuple in getattr(edge_type, "candidate_keys", []) or []:
            properties = ", ".join(f"r.{key}" for key in key_tuple)
            kind = "SINGLETON" if len(key_tuple) == 1 else "COMPOSITE"
            lines.append(
                f"FOR ()-[r:{spec}]->() EXCLUSIVE MANDATORY {kind} {properties}"
            )
    return "\n".join(lines)

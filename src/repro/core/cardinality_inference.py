"""Edge-type cardinality inference (section 4.4).

For each edge type we count, per source node, the distinct targets reached
through instances of that type (and symmetrically per target), then take
maxima:

    max_out(rho) = max_s |{t : (s -> t) in E, type(s -> t) = rho}|
    max_in(rho)  = max_t |{s : (s -> t) in E, type(s -> t) = rho}|

The pair classifies into 0:1 / N:1 / 0:N / M:N.  Note the paper's Example 8
(WORKS_AT: each person one organisation, organisations many employees =>
N:1) fixes the orientation used here; see DESIGN.md for the discrepancy
with the paper's inline table.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import SchemaError
from repro.graph.model import PropertyGraph
from repro.schema.cardinality import CardinalityBounds
from repro.schema.model import EdgeType, SchemaGraph


def bounds_for_edge_type(
    graph: PropertyGraph, edge_type: EdgeType
) -> CardinalityBounds:
    """Compute (max-out, max-in) distinct-endpoint counts for one type."""
    targets_by_source: dict[str, set[str]] = defaultdict(set)
    sources_by_target: dict[str, set[str]] = defaultdict(set)
    for instance_id in edge_type.instance_ids:
        if not graph.has_edge(instance_id):
            continue
        edge = graph.edge(instance_id)
        targets_by_source[edge.source_id].add(edge.target_id)
        sources_by_target[edge.target_id].add(edge.source_id)
    max_out = max((len(v) for v in targets_by_source.values()), default=0)
    max_in = max((len(v) for v in sources_by_target.values()), default=0)
    return CardinalityBounds(max_out, max_in)


def compute_cardinalities(schema: SchemaGraph, graph: PropertyGraph) -> SchemaGraph:
    """Fill cardinality bounds and classes for every edge type (full scan).

    Recounts every instance's endpoints over the retained ``graph`` with
    plain per-endpoint sets.  This is the independent reference of the
    streaming read: it shares no state or layout with
    :class:`~repro.core.accumulators.EndpointAccumulator`, and it runs
    only where the accumulators cannot answer (after a deletion on a
    union-retaining session).
    """
    for edge_type in schema.edge_types():
        bounds = bounds_for_edge_type(graph, edge_type)
        edge_type.cardinality_bounds = bounds
        edge_type.cardinality = bounds.classify()
    return schema


def compute_cardinalities_streaming(schema: SchemaGraph) -> SchemaGraph:
    """Fill cardinality bounds from the per-type endpoint accumulators.

    The :class:`~repro.core.accumulators.EndpointAccumulator` maintains
    the distinct targets per source, the in-degree per target and their
    maxima per batch, so this read is O(|schema|) -- the maxima equal
    what :func:`bounds_for_edge_type` would recount over the cumulative
    union graph.
    """
    for edge_type in schema.edge_types():
        summaries = edge_type.summaries
        if summaries is None or summaries.endpoints is None:
            raise SchemaError(
                f"edge type {edge_type.display_name!r} has no endpoint "
                "accumulator; use the full-scan compute_cardinalities"
            )
        bounds = summaries.endpoints.bounds()
        edge_type.cardinality_bounds = bounds
        edge_type.cardinality = bounds.classify()
    return schema

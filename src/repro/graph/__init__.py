"""Property-graph substrate: data model, storage engine, IO, patterns."""

from repro.graph.batching import reassemble, split_into_batches, stream_batches
from repro.graph.changes import ChangeSet, HashPartitioner, stable_shard
from repro.graph.columnar import (
    BatchBuilder,
    ElementBatch,
    Interner,
    changesets_from_elements,
    columnar_changesets_from_rows,
    global_interner,
)
from repro.graph.csv_io import (
    iter_columnar_changesets_csv,
    read_graph_csv,
    write_graph_csv,
)
from repro.graph.json_io import (
    graph_from_elements,
    iter_columnar_changesets_jsonl,
    iter_graph_jsonl,
    read_graph_jsonl,
    write_graph_jsonl,
)
from repro.graph.model import Edge, Node, PropertyGraph, label_token
from repro.graph.patterns import (
    EdgePattern,
    NodePattern,
    edge_patterns,
    node_patterns,
    patterns_by_token,
)
from repro.graph.query import EdgeQuery, NodeQuery, query_edges, query_nodes
from repro.graph.statistics import (
    TABLE2_HEADER,
    GraphStatistics,
    compute_statistics,
    label_coverage,
    property_fill_ratio,
)
from repro.graph.store import GraphStore

__all__ = [
    "BatchBuilder",
    "ChangeSet",
    "Edge",
    "EdgePattern",
    "EdgeQuery",
    "ElementBatch",
    "GraphStatistics",
    "GraphStore",
    "HashPartitioner",
    "Interner",
    "Node",
    "NodePattern",
    "NodeQuery",
    "PropertyGraph",
    "TABLE2_HEADER",
    "changesets_from_elements",
    "columnar_changesets_from_rows",
    "compute_statistics",
    "edge_patterns",
    "global_interner",
    "graph_from_elements",
    "iter_columnar_changesets_csv",
    "iter_columnar_changesets_jsonl",
    "iter_graph_jsonl",
    "label_coverage",
    "label_token",
    "node_patterns",
    "patterns_by_token",
    "property_fill_ratio",
    "query_edges",
    "query_nodes",
    "read_graph_csv",
    "stable_shard",
    "read_graph_jsonl",
    "reassemble",
    "split_into_batches",
    "stream_batches",
    "write_graph_csv",
    "write_graph_jsonl",
]

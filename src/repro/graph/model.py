"""Property-graph data model (Definition 3.1 of the paper).

A property graph is a tuple ``G = (V, E, rho, lambda, pi)`` where nodes and
edges are disjoint finite sets, ``rho`` maps each edge to an ordered pair of
nodes, ``lambda`` assigns finite label sets, and ``pi`` assigns key-value
properties.  :class:`PropertyGraph` realises exactly this model: a directed
multigraph whose nodes and edges both carry label *sets* (possibly empty) and
string-keyed property maps.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.errors import (
    DanglingEdgeError,
    DuplicateElementError,
    MissingElementError,
)

#: Property values are plain Python scalars (the datatypes the schema layer
#: can infer) -- strings, booleans, ints, floats, or None for explicit nulls.
PropertyValue = Any

NO_LABELS: frozenset[str] = frozenset()


def label_token(labels: Iterable[str]) -> str:
    """Return the canonical token for a label set.

    Multi-labelled elements are represented by the alphabetically sorted
    concatenation of their labels (section 4.1 of the paper), so that e.g.
    ``{Student, Person}`` and ``{Person, Student}`` map to the same token
    ``"Person+Student"``.  The empty label set maps to ``""``.
    """
    return "+".join(sorted(labels))


@dataclass(frozen=True, slots=True)
class Node:
    """A node: identifier, a (possibly empty) label set, and properties."""

    node_id: str
    labels: frozenset[str] = NO_LABELS
    properties: Mapping[str, PropertyValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.labels, frozenset):
            object.__setattr__(self, "labels", frozenset(self.labels))
        object.__setattr__(self, "properties", dict(self.properties))

    @property
    def property_keys(self) -> frozenset[str]:
        """The set of property keys present on this node."""
        return frozenset(self.properties)

    @property
    def token(self) -> str:
        """Canonical label-combination token (see :func:`label_token`)."""
        return label_token(self.labels)

    def with_labels(self, labels: Iterable[str]) -> "Node":
        """Return a copy of this node with a replacement label set."""
        return Node(self.node_id, frozenset(labels), dict(self.properties))

    def with_properties(self, properties: Mapping[str, PropertyValue]) -> "Node":
        """Return a copy of this node with a replacement property map."""
        return Node(self.node_id, self.labels, dict(properties))


@dataclass(frozen=True, slots=True)
class Edge:
    """A directed edge between two node identifiers, with labels/properties."""

    edge_id: str
    source_id: str
    target_id: str
    labels: frozenset[str] = NO_LABELS
    properties: Mapping[str, PropertyValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.labels, frozenset):
            object.__setattr__(self, "labels", frozenset(self.labels))
        object.__setattr__(self, "properties", dict(self.properties))

    @property
    def property_keys(self) -> frozenset[str]:
        """The set of property keys present on this edge."""
        return frozenset(self.properties)

    @property
    def token(self) -> str:
        """Canonical label-combination token (see :func:`label_token`)."""
        return label_token(self.labels)

    def endpoints(self) -> tuple[str, str]:
        """The ordered ``(source_id, target_id)`` pair (rho of Def. 3.1)."""
        return (self.source_id, self.target_id)

    def with_labels(self, labels: Iterable[str]) -> "Edge":
        """Return a copy of this edge with a replacement label set."""
        return Edge(
            self.edge_id,
            self.source_id,
            self.target_id,
            frozenset(labels),
            dict(self.properties),
        )

    def with_properties(self, properties: Mapping[str, PropertyValue]) -> "Edge":
        """Return a copy of this edge with a replacement property map."""
        return Edge(
            self.edge_id,
            self.source_id,
            self.target_id,
            self.labels,
            dict(properties),
        )


class PropertyGraph:
    """A directed multigraph of :class:`Node` and :class:`Edge` elements.

    The class maintains adjacency lists incrementally so that the degree
    queries needed for cardinality inference (section 4.4) are O(1) per
    node, and supports iteration in deterministic insertion order.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._edges: dict[str, Edge] = {}
        self._out: dict[str, list[str]] = {}
        self._in: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Insert ``node``; raise :class:`DuplicateElementError` if present."""
        if node.node_id in self._nodes:
            raise DuplicateElementError(f"node {node.node_id!r} already exists")
        self._nodes[node.node_id] = node
        self._out[node.node_id] = []
        self._in[node.node_id] = []
        return node

    def put_node(self, node: Node) -> Node:
        """Insert or replace ``node`` (labels/properties are overwritten)."""
        if node.node_id not in self._nodes:
            return self.add_node(node)
        self._nodes[node.node_id] = node
        return node

    def add_edge(self, edge: Edge) -> Edge:
        """Insert ``edge``; endpoints must already exist in the graph."""
        if edge.edge_id in self._edges:
            raise DuplicateElementError(f"edge {edge.edge_id!r} already exists")
        if edge.source_id not in self._nodes:
            raise DanglingEdgeError(
                f"edge {edge.edge_id!r}: unknown source {edge.source_id!r}"
            )
        if edge.target_id not in self._nodes:
            raise DanglingEdgeError(
                f"edge {edge.edge_id!r}: unknown target {edge.target_id!r}"
            )
        self._edges[edge.edge_id] = edge
        self._out[edge.source_id].append(edge.edge_id)
        self._in[edge.target_id].append(edge.edge_id)
        return edge

    def put_edge(self, edge: Edge) -> Edge:
        """Insert or replace ``edge``, keeping adjacency lists consistent.

        Replacement preserves the edge's position in insertion order; when
        the replacement moves an endpoint, the adjacency lists of the old
        and new endpoint nodes are updated.
        """
        existing = self._edges.get(edge.edge_id)
        if existing is None:
            return self.add_edge(edge)
        if edge.source_id not in self._nodes:
            raise DanglingEdgeError(
                f"edge {edge.edge_id!r}: unknown source {edge.source_id!r}"
            )
        if edge.target_id not in self._nodes:
            raise DanglingEdgeError(
                f"edge {edge.edge_id!r}: unknown target {edge.target_id!r}"
            )
        if existing.source_id != edge.source_id:
            self._out[existing.source_id].remove(edge.edge_id)
            self._out[edge.source_id].append(edge.edge_id)
        if existing.target_id != edge.target_id:
            self._in[existing.target_id].remove(edge.edge_id)
            self._in[edge.target_id].append(edge.edge_id)
        self._edges[edge.edge_id] = edge
        return edge

    def remove_node(self, node_id: str) -> None:
        """Remove a node and every edge incident to it."""
        node = self.node(node_id)
        for edge_id in list(self._out[node.node_id]) + list(self._in[node.node_id]):
            if edge_id in self._edges:
                self.remove_edge(edge_id)
        del self._nodes[node_id]
        del self._out[node_id]
        del self._in[node_id]

    def remove_edge(self, edge_id: str) -> None:
        """Remove an edge by identifier."""
        edge = self.edge(edge_id)
        self._out[edge.source_id].remove(edge_id)
        self._in[edge.target_id].remove(edge_id)
        del self._edges[edge_id]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Node:
        """Return the node with ``node_id`` or raise MissingElementError."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise MissingElementError(f"no node {node_id!r}") from None

    def edge(self, edge_id: str) -> Edge:
        """Return the edge with ``edge_id`` or raise MissingElementError."""
        try:
            return self._edges[edge_id]
        except KeyError:
            raise MissingElementError(f"no edge {edge_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        """True if a node with ``node_id`` exists."""
        return node_id in self._nodes

    def has_edge(self, edge_id: str) -> bool:
        """True if an edge with ``edge_id`` exists."""
        return edge_id in self._edges

    # ------------------------------------------------------------------
    # Iteration and size
    # ------------------------------------------------------------------
    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._nodes.values())

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges in insertion order."""
        return iter(self._edges.values())

    def node_ids(self) -> Iterator[str]:
        """Iterate over node identifiers in insertion order."""
        return iter(self._nodes)

    def edge_ids(self) -> Iterator[str]:
        """Iterate over edge identifiers in insertion order."""
        return iter(self._edges)

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def __len__(self) -> int:
        return self.node_count + self.edge_count

    def __contains__(self, element_id: str) -> bool:
        return element_id in self._nodes or element_id in self._edges

    def __repr__(self) -> str:
        return (
            f"PropertyGraph(name={self.name!r}, nodes={self.node_count}, "
            f"edges={self.edge_count})"
        )

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def out_edges(self, node_id: str) -> list[Edge]:
        """Edges whose source is ``node_id``."""
        self.node(node_id)
        return [self._edges[eid] for eid in self._out[node_id]]

    def in_edges(self, node_id: str) -> list[Edge]:
        """Edges whose target is ``node_id``."""
        self.node(node_id)
        return [self._edges[eid] for eid in self._in[node_id]]

    def out_degree(self, node_id: str) -> int:
        """Number of outgoing edges of ``node_id``."""
        self.node(node_id)
        return len(self._out[node_id])

    def in_degree(self, node_id: str) -> int:
        """Number of incoming edges of ``node_id``."""
        self.node(node_id)
        return len(self._in[node_id])

    def neighbors(self, node_id: str) -> list[str]:
        """Distinct node ids adjacent to ``node_id`` (either direction)."""
        seen: dict[str, None] = {}
        for edge in self.out_edges(node_id):
            seen.setdefault(edge.target_id, None)
        for edge in self.in_edges(node_id):
            seen.setdefault(edge.source_id, None)
        return list(seen)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "PropertyGraph":
        """Return a structural copy (elements are immutable and shared)."""
        clone = PropertyGraph(name or self.name)
        for node in self.nodes():
            clone.add_node(node)
        for edge in self.edges():
            clone.add_edge(edge)
        return clone

    def subgraph(
        self,
        node_ids: Iterable[str],
        name: str | None = None,
        include_dangling: bool = False,
    ) -> "PropertyGraph":
        """Induced subgraph over ``node_ids``.

        When ``include_dangling`` is true, endpoint nodes of edges touching
        the selection are pulled in as well (useful for batch streams that
        must keep edges connected).
        """
        wanted = set(node_ids)
        for node_id in wanted:
            self.node(node_id)  # validate early
        sub = PropertyGraph(name or f"{self.name}-sub")
        for node_id in self._nodes:
            if node_id in wanted:
                sub.add_node(self._nodes[node_id])
        for edge in self.edges():
            src_in = edge.source_id in wanted
            tgt_in = edge.target_id in wanted
            if src_in and tgt_in:
                sub.add_edge(edge)
            elif include_dangling and (src_in or tgt_in):
                for endpoint in edge.endpoints():
                    if not sub.has_node(endpoint):
                        sub.add_node(self._nodes[endpoint])
                sub.add_edge(edge)
        return sub

    def merge_in(self, other: "PropertyGraph") -> "PropertyGraph":
        """Union ``other`` into this graph in place; the first version wins."""
        for node in other.nodes():
            if not self.has_node(node.node_id):
                self.add_node(node)
        for edge in other.edges():
            if not self.has_edge(edge.edge_id):
                self.add_edge(edge)
        return self

    # ------------------------------------------------------------------
    # Aggregates used across the pipeline
    # ------------------------------------------------------------------
    def all_node_property_keys(self) -> list[str]:
        """Sorted list of distinct property keys over all nodes."""
        keys: set[str] = set()
        for node in self.nodes():
            keys.update(node.properties)
        return sorted(keys)

    def all_edge_property_keys(self) -> list[str]:
        """Sorted list of distinct property keys over all edges."""
        keys: set[str] = set()
        for edge in self.edges():
            keys.update(edge.properties)
        return sorted(keys)

    def all_node_labels(self) -> list[str]:
        """Sorted list of distinct individual node labels."""
        labels: set[str] = set()
        for node in self.nodes():
            labels.update(node.labels)
        return sorted(labels)

    def all_edge_labels(self) -> list[str]:
        """Sorted list of distinct individual edge labels."""
        labels: set[str] = set()
        for edge in self.edges():
            labels.update(edge.labels)
        return sorted(labels)

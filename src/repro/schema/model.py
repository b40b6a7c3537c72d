"""Schema-graph model (Definitions 3.2-3.4 of the paper).

A schema graph ``SG = (Vs, Es, rho_s)`` holds node types and edge types.
Types are *mutable* accumulation objects: discovery repeatedly absorbs
clusters and other types into them, unioning labels, property keys, and
endpoint tokens (Lemmas 1 and 2 guarantee nothing is ever lost).

Each type also tracks the instance identifiers assigned to it; the
post-processing passes (constraints, datatypes, cardinalities) and the
majority-F1 evaluation both need that assignment.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.graph.model import label_token
from repro.schema.cardinality import Cardinality, CardinalityBounds
from repro.schema.datatypes import DataType

ABSTRACT_PREFIX = "ABSTRACT"


class PropertySpec:
    """Schema entry for one property key of a type.

    ``data_type`` and ``mandatory`` stay ``None`` until the corresponding
    post-processing pass fills them in (they are optional in Algorithm 1).
    ``unique`` is set by the key-inference extension
    (:mod:`repro.core.key_inference`) when values are pairwise distinct.
    """

    __slots__ = ("key", "data_type", "mandatory", "unique")

    def __init__(
        self,
        key: str,
        data_type: DataType | None = None,
        mandatory: bool | None = None,
        unique: bool | None = None,
    ) -> None:
        self.key = key
        self.data_type = data_type
        self.mandatory = mandatory
        self.unique = unique

    def merged_with(self, other: "PropertySpec") -> "PropertySpec":
        """Monotone merge: datatypes generalise, mandatory weakens to optional.

        ``unique`` resets to unknown: distinctness within each side says
        nothing about distinctness across their union, so keys must be
        re-inferred after a merge.
        """
        from repro.schema.datatypes import generalize

        if self.key != other.key:
            raise SchemaError(f"cannot merge specs {self.key!r} and {other.key!r}")
        if self.data_type is None or other.data_type is None:
            data_type = self.data_type or other.data_type
        else:
            data_type = generalize(self.data_type, other.data_type)
        if self.mandatory is None or other.mandatory is None:
            mandatory = self.mandatory if self.mandatory is not None else other.mandatory
        else:
            mandatory = self.mandatory and other.mandatory
        return PropertySpec(self.key, data_type, mandatory, unique=None)

    def copy(self) -> "PropertySpec":
        """Independent copy."""
        return PropertySpec(self.key, self.data_type, self.mandatory, self.unique)

    def __repr__(self) -> str:
        parts = [repr(self.key)]
        if self.data_type is not None:
            parts.append(str(self.data_type))
        if self.mandatory is not None:
            parts.append("MANDATORY" if self.mandatory else "OPTIONAL")
        if self.unique:
            parts.append("UNIQUE")
        return f"PropertySpec({', '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertySpec):
            return NotImplemented
        return (
            self.key == other.key
            and self.data_type == other.data_type
            and self.mandatory == other.mandatory
            and self.unique == other.unique
        )

    def __hash__(self) -> int:
        return hash((self.key, self.data_type, self.mandatory, self.unique))


class _TypeBase:
    """Shared state of node and edge types."""

    def __init__(
        self,
        type_id: str,
        labels: Iterable[str] = (),
        abstract: bool = False,
    ) -> None:
        self.type_id = type_id  # repro-lint: ignore[PGL201] -- identity, not mergeable content: absorb keeps the receiver's id and fingerprints exclude it by design
        self.labels: set[str] = set(labels)
        self.properties: dict[str, PropertySpec] = {}
        self.abstract = abstract
        self.instance_ids: set[str] = set()
        #: per-key occurrence counts over instances (constraint inference)
        self.property_counts: Counter[str] = Counter()
        self.instance_count = 0
        #: candidate keys (tuples of property names) from key inference
        self.candidate_keys: list[tuple[str, ...]] = []
        #: streaming post-processing accumulators
        #: (:class:`repro.core.accumulators.TypeSummaries`), attached and
        #: fed by type extraction.  Kept duck-typed (``merge_from`` /
        #: ``copy``) so the schema layer needs no import from core.
        self.summaries = None  # repro-lint: ignore[PGL201] -- fingerprints are summary-independent by design (sharded and single-session summaries differ internally)

    @property
    def token(self) -> str:
        """Canonical token of the type's label set."""
        return label_token(self.labels)

    @property
    def property_keys(self) -> frozenset[str]:
        """Keys of every property ever observed on this type."""
        return frozenset(self.properties)

    @property
    def display_name(self) -> str:
        """Human-readable name: label token or ABSTRACT id."""
        return self.token if self.labels else f"{ABSTRACT_PREFIX}:{self.type_id}"

    def ensure_property(self, key: str) -> PropertySpec:
        """Get-or-create the :class:`PropertySpec` for ``key``."""
        spec = self.properties.get(key)
        if spec is None:
            spec = PropertySpec(key)
            self.properties[key] = spec
        return spec

    def record_instance(self, instance_id: str, property_keys: Iterable[str]) -> bool:
        """Attach an instance: update counts and ensure property specs exist.

        Replayed instances (batch streams ship endpoint stubs with every
        batch that references them) are counted once -- double counting
        would skew the constraint frequencies ``f_T(p)`` of section 4.4.
        Returns True when the instance was newly recorded (callers fold
        property values into the streaming summaries exactly then).
        """
        if instance_id in self.instance_ids:
            return False
        self.instance_ids.add(instance_id)
        self.instance_count += 1
        for key in property_keys:
            self.property_counts[key] += 1
            self.ensure_property(key)
        return True

    def _absorb_base(self, other: "_TypeBase") -> None:
        self.labels |= other.labels
        for key, spec in other.properties.items():
            if key in self.properties:
                self.properties[key] = self.properties[key].merged_with(spec)
            else:
                self.properties[key] = spec.copy()
        self.instance_ids |= other.instance_ids
        self.property_counts += other.property_counts
        self.instance_count += other.instance_count
        # Uniqueness within each side says nothing about the union.
        self.candidate_keys = []
        if self.summaries is not None and other.summaries is not None:
            self.summaries.merge_from(other.summaries)
        else:
            # A side without summaries carries unfolded values: the union's
            # streaming state would be incomplete, so drop it entirely.
            self.summaries = None
        if other.labels:
            self.abstract = False

    def mandatory_keys(self) -> frozenset[str]:
        """Keys currently flagged mandatory."""
        return frozenset(
            key for key, spec in self.properties.items() if spec.mandatory
        )

    def optional_keys(self) -> frozenset[str]:
        """Keys currently flagged optional."""
        return frozenset(
            key for key, spec in self.properties.items() if spec.mandatory is False
        )


class NodeType(_TypeBase):
    """A node type (Def. 3.2): label set plus property specifications."""

    def absorb(self, other: "NodeType") -> "NodeType":
        """Union ``other`` into this type (Lemma 1 monotone merge)."""
        self._absorb_base(other)
        return self

    def copy(self) -> "NodeType":
        """Deep copy (property specs copied, instance sets copied)."""
        clone = NodeType(self.type_id, self.labels, self.abstract)
        clone.properties = {k: s.copy() for k, s in self.properties.items()}
        clone.instance_ids = set(self.instance_ids)
        clone.property_counts = Counter(self.property_counts)
        clone.instance_count = self.instance_count
        clone.candidate_keys = list(self.candidate_keys)
        clone.summaries = None if self.summaries is None else self.summaries.copy()
        return clone

    def __repr__(self) -> str:
        return (
            f"NodeType({self.display_name!r}, props={sorted(self.properties)}, "
            f"instances={self.instance_count})"
        )


class EdgeType(_TypeBase):
    """An edge type (Def. 3.3): labels, properties, connectivity, cardinality.

    Connectivity is tracked as the *label tokens* of observed source/target
    node types; :meth:`SchemaGraph.edge_endpoints` resolves them to node
    types to realise ``rho_s``.
    """

    def __init__(
        self,
        type_id: str,
        labels: Iterable[str] = (),
        abstract: bool = False,
    ) -> None:
        super().__init__(type_id, labels, abstract)
        self.source_tokens: set[str] = set()
        self.target_tokens: set[str] = set()
        self.cardinality: Cardinality | None = None
        self.cardinality_bounds: CardinalityBounds | None = None

    def record_endpoints(self, source_token: str, target_token: str) -> None:
        """Add one observed (source, target) label-token pair."""
        self.source_tokens.add(source_token)
        self.target_tokens.add(target_token)

    def absorb(self, other: "EdgeType") -> "EdgeType":
        """Union ``other`` into this type (Lemma 2 monotone merge)."""
        self._absorb_base(other)
        self.source_tokens |= other.source_tokens
        self.target_tokens |= other.target_tokens
        if other.cardinality_bounds is not None:
            if self.cardinality_bounds is None:
                self.cardinality_bounds = other.cardinality_bounds
            else:
                self.cardinality_bounds = self.cardinality_bounds.merged_with(
                    other.cardinality_bounds
                )
            self.cardinality = self.cardinality_bounds.classify()
        return self

    def copy(self) -> "EdgeType":
        """Deep copy."""
        clone = EdgeType(self.type_id, self.labels, self.abstract)
        clone.properties = {k: s.copy() for k, s in self.properties.items()}
        clone.instance_ids = set(self.instance_ids)
        clone.property_counts = Counter(self.property_counts)
        clone.instance_count = self.instance_count
        clone.source_tokens = set(self.source_tokens)
        clone.target_tokens = set(self.target_tokens)
        clone.cardinality = self.cardinality
        clone.cardinality_bounds = self.cardinality_bounds
        clone.candidate_keys = list(self.candidate_keys)
        clone.summaries = None if self.summaries is None else self.summaries.copy()
        return clone

    def __repr__(self) -> str:
        return (
            f"EdgeType({self.display_name!r}, props={sorted(self.properties)}, "
            f"from={sorted(self.source_tokens)}, to={sorted(self.target_tokens)}, "
            f"instances={self.instance_count})"
        )


class SchemaGraph:
    """The discovered schema ``SG = (Vs, Es, rho_s)`` (Def. 3.4)."""

    def __init__(self, name: str = "schema") -> None:
        self.name = name
        self._node_types: dict[str, NodeType] = {}
        self._edge_types: dict[str, EdgeType] = {}
        self._id_counter = itertools.count()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def new_type_id(self, prefix: str) -> str:
        """Fresh identifier (``n17`` / ``e3``) unique within this schema.

        Skips identifiers already taken -- copies and merges carry types
        whose ids were issued by *other* schemas' counters.
        """
        while True:
            candidate = f"{prefix}{next(self._id_counter)}"
            if (
                candidate not in self._node_types
                and candidate not in self._edge_types
            ):
                return candidate

    def add_node_type(self, node_type: NodeType) -> NodeType:
        """Register a node type."""
        if node_type.type_id in self._node_types:
            raise SchemaError(f"duplicate node type id {node_type.type_id!r}")
        self._node_types[node_type.type_id] = node_type
        return node_type

    def add_edge_type(self, edge_type: EdgeType) -> EdgeType:
        """Register an edge type."""
        if edge_type.type_id in self._edge_types:
            raise SchemaError(f"duplicate edge type id {edge_type.type_id!r}")
        self._edge_types[edge_type.type_id] = edge_type
        return edge_type

    def remove_node_type(self, type_id: str) -> None:
        """Remove a node type (used when a merge collapses two ids)."""
        del self._node_types[type_id]

    def remove_edge_type(self, type_id: str) -> None:
        """Remove an edge type."""
        del self._edge_types[type_id]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node_types(self) -> Iterator[NodeType]:
        """Iterate node types in insertion order."""
        return iter(self._node_types.values())

    def edge_types(self) -> Iterator[EdgeType]:
        """Iterate edge types in insertion order."""
        return iter(self._edge_types.values())

    def node_type(self, type_id: str) -> NodeType:
        """Node type by id."""
        try:
            return self._node_types[type_id]
        except KeyError:
            raise SchemaError(f"no node type {type_id!r}") from None

    def edge_type(self, type_id: str) -> EdgeType:
        """Edge type by id."""
        try:
            return self._edge_types[type_id]
        except KeyError:
            raise SchemaError(f"no edge type {type_id!r}") from None

    def has_node_type(self, type_id: str) -> bool:
        """True when a node type is registered under ``type_id``."""
        return type_id in self._node_types

    def has_edge_type(self, type_id: str) -> bool:
        """True when an edge type is registered under ``type_id``."""
        return type_id in self._edge_types

    @property
    def node_type_count(self) -> int:
        """Number of node types."""
        return len(self._node_types)

    @property
    def edge_type_count(self) -> int:
        """Number of edge types."""
        return len(self._edge_types)

    def node_type_by_token(self, token: str) -> NodeType | None:
        """The labelled node type whose label token equals ``token``."""
        for node_type in self._node_types.values():
            if node_type.labels and node_type.token == token:
                return node_type
        return None

    def edge_type_by_token(self, token: str) -> EdgeType | None:
        """The labelled edge type whose label token equals ``token``."""
        for edge_type in self._edge_types.values():
            if edge_type.labels and edge_type.token == token:
                return edge_type
        return None

    def abstract_node_types(self) -> list[NodeType]:
        """Node types kept as ABSTRACT (no labels discovered)."""
        return [t for t in self._node_types.values() if t.abstract]

    # ------------------------------------------------------------------
    # Connectivity (rho_s)
    # ------------------------------------------------------------------
    def edge_endpoints(
        self, edge_type: EdgeType
    ) -> tuple[list[NodeType], list[NodeType]]:
        """Resolve an edge type's endpoint tokens to node types.

        A node type matches an endpoint token when its own token equals it;
        tokens with no matching labelled type resolve to nothing (the data
        's endpoint was unlabeled or its type is ABSTRACT).
        """
        sources = [
            t
            for token in sorted(edge_type.source_tokens)
            if (t := self.node_type_by_token(token)) is not None
        ]
        targets = [
            t
            for token in sorted(edge_type.target_tokens)
            if (t := self.node_type_by_token(token)) is not None
        ]
        return sources, targets

    # ------------------------------------------------------------------
    # Assignment views (used by evaluation and post-processing)
    # ------------------------------------------------------------------
    def node_assignments(self) -> dict[str, str]:
        """instance id -> node-type id over all node types."""
        assignment: dict[str, str] = {}
        for node_type in self._node_types.values():
            for instance_id in node_type.instance_ids:
                assignment[instance_id] = node_type.type_id
        return assignment

    def edge_assignments(self) -> dict[str, str]:
        """instance id -> edge-type id over all edge types."""
        assignment: dict[str, str] = {}
        for edge_type in self._edge_types.values():
            for instance_id in edge_type.instance_ids:
                assignment[instance_id] = edge_type.type_id
        return assignment

    # ------------------------------------------------------------------
    # Copying / summarising
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "SchemaGraph":
        """Deep copy of the schema (types copied, ids preserved)."""
        clone = SchemaGraph(name or self.name)
        for node_type in self._node_types.values():
            clone.add_node_type(node_type.copy())
        for edge_type in self._edge_types.values():
            clone.add_edge_type(edge_type.copy())
        return clone

    def summary(self) -> Mapping[str, int]:
        """Counts used in logs and tests."""
        return {
            "node_types": self.node_type_count,
            "edge_types": self.edge_type_count,
            "abstract_node_types": len(self.abstract_node_types()),
            "node_instances": sum(
                t.instance_count for t in self._node_types.values()
            ),
            "edge_instances": sum(
                t.instance_count for t in self._edge_types.values()
            ),
        }

    def __repr__(self) -> str:
        return (
            f"SchemaGraph(name={self.name!r}, node_types={self.node_type_count}, "
            f"edge_types={self.edge_type_count})"
        )


def subsumes(general: SchemaGraph, specific: SchemaGraph) -> bool:
    """True when ``general`` generalises ``specific`` (``specific ⊑ general``).

    Every labelled type of ``specific`` must have a counterpart in
    ``general`` whose labels and property keys are supersets; abstract types
    must be covered by *some* type with a property-key superset.  This is the
    monotone-chain relation of section 4.6.
    """
    for node_type in specific.node_types():
        if node_type.labels:
            counterpart = _find_covering(general.node_types(), node_type)
        else:
            counterpart = _find_covering(general.node_types(), node_type, labels=False)
        if counterpart is None:
            return False
    for edge_type in specific.edge_types():
        counterpart = None
        for candidate in general.edge_types():
            if not edge_type.labels <= candidate.labels:
                continue
            if not edge_type.property_keys <= candidate.property_keys:
                continue
            if not edge_type.source_tokens <= candidate.source_tokens:
                continue
            if not edge_type.target_tokens <= candidate.target_tokens:
                continue
            counterpart = candidate
            break
        if counterpart is None:
            return False
    return True


def _find_covering(candidates, wanted, labels: bool = True):
    for candidate in candidates:
        if labels and not wanted.labels <= candidate.labels:
            continue
        if not wanted.property_keys <= candidate.property_keys:
            continue
        return candidate
    return None


def _type_fingerprint(schema_type: NodeType | EdgeType) -> tuple:
    base = (
        tuple(sorted(schema_type.labels)),
        schema_type.abstract,
        tuple(
            (spec.key, spec.data_type, spec.mandatory, spec.unique)
            for spec in sorted(
                schema_type.properties.values(), key=lambda s: s.key
            )
        ),
        tuple(sorted(schema_type.instance_ids)),
        tuple(sorted(schema_type.property_counts.items())),
        schema_type.instance_count,
        tuple(sorted(schema_type.candidate_keys)),
    )
    if isinstance(schema_type, EdgeType):
        bounds = schema_type.cardinality_bounds
        base += (
            tuple(sorted(schema_type.source_tokens)),
            tuple(sorted(schema_type.target_tokens)),
            schema_type.cardinality,
            None if bounds is None else (bounds.max_out, bounds.max_in),
        )
    return base


def schema_fingerprint(schema: SchemaGraph) -> tuple:
    """Canonical, hashable digest of everything a schema asserts.

    Two schemas with equal fingerprints agree on every type, label,
    property spec, instance assignment, endpoint token, cardinality, and
    candidate key.  Deliberately excluded: streaming accumulators
    (``summaries``, internal post-processing state), type *ids*, and the
    registry insertion order -- ids and ordering are artefacts of arrival
    and merge order, and the sharded read path reconstructs the same
    schema under canonical names, so the fingerprint compares what the
    schema *asserts*, not how it was assembled.  Per-type tuples are
    sorted by their repr, a total and deterministic order.  Used by the
    checkpoint round-trip tests, the session-vs-maintenance equivalence
    oracle, and the sharded-vs-single-session oracle.
    """
    return (
        tuple(sorted((_type_fingerprint(t) for t in schema.node_types()), key=repr)),
        tuple(sorted((_type_fingerprint(t) for t in schema.edge_types()), key=repr)),
    )

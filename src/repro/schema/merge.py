"""Schema merging (section 4.6): the least-general schema covering both inputs.

Merge rules mirror Algorithm 2, lifted from clusters to whole schemas:

* labelled node/edge types with the same label token merge directly;
* unlabeled node types merge with a labelled type when the Jaccard
  similarity of their property-key sets reaches ``theta`` (0.9 by default),
  then with each other, and otherwise survive as ABSTRACT types;
* unlabeled edge types additionally require overlapping endpoint tokens
  before a Jaccard merge, so structurally similar but differently wired
  relationships stay apart;
* property specs union, datatypes generalise, mandatory weakens to optional,
  cardinality bounds take componentwise maxima.

Monotonicity (Lemmas 1-2) makes the result a generalisation of both inputs;
:func:`repro.schema.model.subsumes` checks that relation.

Since the sharded-discovery work, merging is **deterministic**: incoming
types are processed in a canonical content order (label token, then
sorted property keys, then sorted instance ids) rather than insertion
order, merge candidates are scanned in the same canonical order, and
absorbed property specs are re-sorted by key -- so folding the same set
of schemas in any order produces fingerprint-identical results for
token-mergeable types.  :func:`canonicalize_schema` completes the
picture with deterministic cluster naming: content-derived type ids and
a canonical type order, independent of how many partial schemas were
folded or in which sequence.
"""

from __future__ import annotations

import hashlib

from repro.schema.model import EdgeType, NodeType, SchemaGraph
from repro.util import jaccard

DEFAULT_THETA = 0.9


def _instance_discriminator(schema_type: NodeType | EdgeType) -> tuple:
    """Cheap deterministic tie-break between content-similar types.

    Distinct types of one schema (almost) never share instances, so the
    minimum instance id separates them without materialising the whole
    sorted id set -- the keys below sit inside candidate-scan loops, and
    O(|instances| log |instances|) per comparison would dominate merges.
    """
    return (
        schema_type.instance_count,
        min(schema_type.instance_ids, default=""),
    )


def _node_sort_key(node_type: NodeType) -> tuple:
    """Canonical content order for node types (no ids, no insertion order)."""
    return (
        node_type.token,
        tuple(sorted(node_type.property_keys)),
        _instance_discriminator(node_type),
    )


def _edge_sort_key(edge_type: EdgeType) -> tuple:
    """Canonical content order for edge types."""
    return (
        edge_type.token,
        tuple(sorted(edge_type.source_tokens)),
        tuple(sorted(edge_type.target_tokens)),
        tuple(sorted(edge_type.property_keys)),
        _instance_discriminator(edge_type),
    )


def merge_schemas(
    base: SchemaGraph,
    incoming: SchemaGraph,
    theta: float = DEFAULT_THETA,
    name: str | None = None,
) -> SchemaGraph:
    """Return a new schema generalising ``base`` and ``incoming``."""
    merged = base.copy(name or base.name)
    merge_into(merged, incoming, theta)
    return merged


def merge_into(
    target: SchemaGraph,
    incoming: SchemaGraph,
    theta: float = DEFAULT_THETA,
) -> SchemaGraph:
    """Destructively merge ``incoming`` into ``target`` (section 4.6 rules).

    ``incoming`` is read-only; its types are copied before absorption.
    Types are processed -- and merge candidates scanned -- in canonical
    content order, so the result does not depend on either schema's
    insertion order.
    """
    deferred_nodes: list[NodeType] = []
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

    deferred_edges: list[EdgeType] = []
    for edge_type in sorted(incoming.edge_types(), key=_edge_sort_key):
        if edge_type.labels:
            # Only same-token labelled types can match; sorting just them
            # (the key leads with the token) yields the same first match
            # as scanning every type in canonical order.
            token = edge_type.token
            same_token = [
                candidate
                for candidate in target.edge_types()
                if candidate.labels and candidate.token == token
            ]
            existing = next(
                (
                    candidate
                    for candidate in sorted(same_token, key=_edge_sort_key)
                    if _endpoints_overlap(candidate, edge_type)
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


def _absorb_sorted(existing, incoming) -> None:
    """Absorb a copy of ``incoming`` and keep property specs key-sorted."""
    existing.absorb(incoming.copy())
    existing.properties = dict(sorted(existing.properties.items()))


def _add_node_copy(target: SchemaGraph, node_type: NodeType) -> NodeType:
    clone = node_type.copy()
    if any(t.type_id == clone.type_id for t in target.node_types()):
        clone.type_id = target.new_type_id("n")
    return target.add_node_type(clone)


def _add_edge_copy(target: SchemaGraph, edge_type: EdgeType) -> EdgeType:
    clone = edge_type.copy()
    if any(t.type_id == clone.type_id for t in target.edge_types()):
        clone.type_id = target.new_type_id("e")
    return target.add_edge_type(clone)


def _merge_unlabeled_node(
    target: SchemaGraph, node_type: NodeType, theta: float
) -> None:
    best, best_score = None, -1.0
    candidates = sorted(target.node_types(), key=_node_sort_key)
    for candidate in candidates:
        if not candidate.labels:
            continue
        score = jaccard(candidate.property_keys, node_type.property_keys)
        if score >= theta and score > best_score:
            best, best_score = candidate, score
    if best is None:
        for candidate in candidates:
            if candidate.labels:
                continue
            score = jaccard(candidate.property_keys, node_type.property_keys)
            if score >= theta and score > best_score:
                best, best_score = candidate, score
    if best is not None:
        _absorb_sorted(best, node_type)
    else:
        clone = _add_node_copy(target, node_type)
        clone.abstract = True


def _merge_unlabeled_edge(
    target: SchemaGraph, edge_type: EdgeType, theta: float
) -> None:
    best, best_score = None, -1.0
    for candidate in sorted(target.edge_types(), key=_edge_sort_key):
        if not _endpoints_overlap(candidate, edge_type):
            continue
        score = jaccard(candidate.property_keys, edge_type.property_keys)
        if score >= theta and score > best_score:
            best, best_score = candidate, score
    if best is not None:
        _absorb_sorted(best, edge_type)
    else:
        clone = _add_edge_copy(target, edge_type)
        clone.abstract = True


def _content_digest(*parts: tuple) -> str:
    """Short stable digest of canonical content parts (naming only)."""
    text = "\x1f".join("\x1e".join(map(str, part)) for part in parts)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=4).hexdigest()


def _canonical_stem(schema_type: NodeType | EdgeType) -> str:
    prefix = "e" if isinstance(schema_type, EdgeType) else "n"
    if schema_type.labels:
        return f"{prefix}:{schema_type.token}"
    return (
        f"{prefix}:abstract:"
        f"{_content_digest(tuple(sorted(schema_type.property_keys)))}"
    )


def canonicalize_schema(schema: SchemaGraph) -> SchemaGraph:
    """Deterministic cluster naming and ordering, in place.

    Rewrites every type id to a content-derived name (``n:Person``,
    ``e:FOLLOWS``, ``n:abstract:<digest-of-keys>``; colliding stems get a
    deterministic ``#k`` suffix in canonical order), reorders the type
    registries canonically, and key-sorts every property-spec dict.  Two
    schemas that agree on content therefore also agree on names, type
    order, and rendering -- regardless of how many partial schemas were
    merged to produce them, or in which order.

    Intended for merged/reconciled schemas (the sharded read path); live
    session schemas keep their arrival-order ids.
    """
    node_types = sorted(schema.node_types(), key=_node_sort_key)
    edge_types = sorted(schema.edge_types(), key=_edge_sort_key)
    for node_type in node_types:
        schema.remove_node_type(node_type.type_id)
    for edge_type in edge_types:
        schema.remove_edge_type(edge_type.type_id)
    used: set[str] = set()
    for schema_type in (*node_types, *edge_types):
        stem = _canonical_stem(schema_type)
        candidate, suffix = stem, 2
        while candidate in used:
            candidate = f"{stem}#{suffix}"
            suffix += 1
        used.add(candidate)
        schema_type.type_id = candidate
        schema_type.properties = dict(sorted(schema_type.properties.items()))
    for node_type in node_types:
        schema.add_node_type(node_type)
    for edge_type in edge_types:
        schema.add_edge_type(edge_type)
    return schema


def _endpoints_overlap(left: EdgeType, right: EdgeType) -> bool:
    """True when both endpoint token sets intersect.

    Empty tokens (unlabeled endpoints) act as wildcards: a side whose only
    observed endpoints are unlabeled is compatible with anything.
    """
    return _tokens_overlap(
        left.source_tokens, right.source_tokens
    ) and _tokens_overlap(left.target_tokens, right.target_tokens)


def _tokens_overlap(left: set[str], right: set[str]) -> bool:
    left_known = left - {""}
    right_known = right - {""}
    if not left_known or not right_known:
        return True
    return bool(left_known & right_known)

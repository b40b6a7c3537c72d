"""Change-feed primitives for live schema sessions.

A :class:`ChangeSet` is one unit of the change feed consumed by
:class:`repro.core.session.SchemaSession`: a bundle of node/edge inserts
and node/edge deletions that the producer wants applied atomically (one
discovery step, one diff event).  It is the property-graph analogue of the
"stream of schema evolution operations" framing of Bonifati et al. --
instead of replaying whole graphs, producers describe what changed.

Conventions:

* Inserts are either a columnar :class:`~repro.graph.columnar.ElementBatch`
  (``columnar``) or full :class:`~repro.graph.model.Node` / ``Edge``
  elements, never both.  Element inserts are producer-side convenience:
  every session converts them once, at its boundary and before logging,
  into one columnar change-set
  (:func:`repro.graph.columnar.columnar_changeset`).  An edge whose
  endpoints are not part of the same change-set is legal; the converter
  resolves each such endpoint through the session's lookup (retained
  union graph, attached :class:`~repro.graph.store.GraphStore`, or the
  sharded node registry) into a stub row.
* Deletions are bare identifiers.  Deleting a node implies deleting its
  incident edges (the consumer cascades).
* Within one change-set, inserts are applied before deletions.
* ``stub_node_ids`` marks nodes shipped only as *endpoint stubs*: full
  copies of nodes that live (and were recorded) elsewhere, included so
  the change-set's edges are endpoint-complete.  Consumers use stubs for
  batch assembly and clustering context but do not record them as fresh
  instances -- the property that keeps instance and property counts
  exact when several consumers (shards) each see a stub copy of the same
  node, and signature refcounts equal to live instance counts.
* Only columnar and deletion-only change-sets have a WAL wire form
  (:meth:`ChangeSet.to_wire`); element-wise inserts are converted first.

The module also provides :class:`HashPartitioner`, the stable id routing
of sharded discovery (the split itself is
:func:`repro.graph.columnar.partition_columnar`).  Streams of elements or
file rows become change-sets through one grouper,
:func:`repro.graph.columnar.columnar_changesets_from_rows`, which emits
columnar payloads.
"""

from __future__ import annotations

import hashlib
import pickle
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, WALError
from repro.graph.model import Edge, Node, PropertyGraph

if TYPE_CHECKING:
    from repro.graph.columnar import ElementBatch, Interner

#: Version token of the WAL wire encoding of one change-set.  Version 2
#: groups columnar rows by structure (labels + keys written once per
#: distinct structure, not once per row) and deflate-compresses the
#: pickled record, shrinking the WAL sharply on repeat-heavy feeds.
WIRE_VERSION = 2
#: Frame prefix of a version-2 record (the only framing this build reads).
_WIRE_V2_PREFIX = b"\x02"


@dataclass
class ChangeSet:
    """One atomic unit of a schema session's change feed."""

    nodes: list[Node] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    delete_nodes: list[str] = field(default_factory=list)
    delete_edges: list[str] = field(default_factory=list)
    #: ids among ``nodes`` that are endpoint stubs (see module docstring).
    stub_node_ids: frozenset[str] = frozenset()
    #: columnar insert payload (:class:`repro.graph.columnar.ElementBatch`).
    #: Mutually exclusive with element-wise ``nodes``/``edges`` inserts;
    #: ``stub_node_ids`` then names stub *rows* of the batch.  Deletions
    #: are bare identifiers either way.
    columnar: "ElementBatch | None" = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def inserts(cls, nodes=(), edges=()) -> "ChangeSet":
        """Insert-only change-set."""
        return cls(nodes=list(nodes), edges=list(edges))

    @classmethod
    def inserts_columnar(cls, batch: "ElementBatch") -> "ChangeSet":
        """Insert-only change-set carrying a columnar batch."""
        return cls(columnar=batch)

    @classmethod
    def deletions(cls, nodes=(), edges=()) -> "ChangeSet":
        """Deletion-only change-set (identifiers, not elements)."""
        return cls(delete_nodes=list(nodes), delete_edges=list(edges))

    @classmethod
    def from_graph(cls, graph: PropertyGraph) -> "ChangeSet":
        """Insert-only change-set carrying every element of ``graph``."""
        return cls(nodes=list(graph.nodes()), edges=list(graph.edges()))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def has_inserts(self) -> bool:
        """True when the change-set carries at least one insert."""
        return bool(
            self.nodes
            or self.edges
            or (self.columnar is not None and len(self.columnar))
        )

    @property
    def has_deletions(self) -> bool:
        """True when the change-set carries at least one deletion."""
        return bool(self.delete_nodes or self.delete_edges)

    @property
    def inserted_node_count(self) -> int:
        """Number of inserted node rows/elements (stubs included)."""
        count = len(self.nodes)
        if self.columnar is not None:
            count += self.columnar.node_count
        return count

    @property
    def inserted_edge_count(self) -> int:
        """Number of inserted edge rows/elements."""
        count = len(self.edges)
        if self.columnar is not None:
            count += self.columnar.edge_count
        return count

    @property
    def insert_count(self) -> int:
        """Number of inserted elements (stubs included)."""
        return self.inserted_node_count + self.inserted_edge_count

    @property
    def fresh_insert_count(self) -> int:
        """Number of inserted elements that are not endpoint stubs."""
        return self.insert_count - len(self.stub_node_ids)

    @property
    def delete_count(self) -> int:
        """Number of deletion targets (cascades not included)."""
        return len(self.delete_nodes) + len(self.delete_edges)

    @property
    def change_count(self) -> int:
        """Total operations carried by this change-set."""
        return self.insert_count + self.delete_count

    @property
    def is_empty(self) -> bool:
        """True when the change-set carries nothing at all."""
        return not (self.has_inserts or self.has_deletions)

    def __bool__(self) -> bool:
        return not self.is_empty

    def __repr__(self) -> str:
        suffix = ", columnar" if self.columnar is not None else ""
        return (
            f"ChangeSet(+{self.inserted_node_count}N/"
            f"+{self.inserted_edge_count}E, "
            f"-{len(self.delete_nodes)}N/-{len(self.delete_edges)}E{suffix})"
        )

    # ------------------------------------------------------------------
    # WAL wire encoding
    # ------------------------------------------------------------------
    def to_wire(self) -> bytes:
        """Serialise a columnar or deletion-only change-set for the WAL.

        Columnar payloads are encoded by *content* (ids, sorted labels,
        sorted keys, aligned values) -- interner ids are process-local
        and must never hit disk.  Rows are grouped by structure: each
        distinct (labels, keys) combination is written once, followed by
        its rows' ids and values, so repeat-heavy change-sets pay per
        distinct structure rather than per row.  The whole record is
        deflate-compressed.  :meth:`from_wire` rebuilds the batch against
        the reading process's interner, preserving row order within
        every structure group and first-occurrence order across groups
        (which is what clustering keys on).  Element-wise inserts have
        no wire form and raise :class:`WALError`: sessions convert them
        (:func:`repro.graph.columnar.columnar_changeset`) before logging.
        """
        if self.nodes or self.edges:
            raise WALError(
                "element-wise change-sets have no wire form; convert them "
                "with repro.graph.columnar.columnar_changeset first"
            )
        record: dict = {
            "version": WIRE_VERSION,
            "delete_nodes": list(self.delete_nodes),
            "delete_edges": list(self.delete_edges),
            "stubs": sorted(self.stub_node_ids),
        }
        batch = self.columnar
        if batch is None:
            # The historical "elements" tag with empty insert lists keeps
            # deletion-only frames byte-identical to earlier builds.
            record.update(kind="elements", nodes=[], edges=[])
        else:
            interner = batch.interner
            record["kind"] = "columnar"
            record["node_groups"] = _group_rows(
                interner, batch.nodes, edges=False
            )
            record["edge_groups"] = _group_rows(
                interner, batch.edges, edges=True
            )
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        return _WIRE_V2_PREFIX + zlib.compress(payload, 1)

    @classmethod
    def from_wire(
        cls, data: bytes, interner: "Interner | None" = None
    ) -> "ChangeSet":
        """Decode :meth:`to_wire` output (see its docstring for caveats).

        Only version-2 columnar or deletion-only frames decode; anything
        else -- an element frame included -- raises :class:`WALError`.
        Columnar payloads rebuild against ``interner`` (the process-wide
        one by default).  Only decode records from trusted sources: the
        payload is a pickle.
        """
        if data[:1] != _WIRE_V2_PREFIX:
            raise WALError(
                "undecodable change-set wire record: not a version-"
                f"{WIRE_VERSION} frame (this build reads wire version "
                f"{WIRE_VERSION} only)"
            )
        try:
            record = pickle.loads(zlib.decompress(data[1:]))
        except Exception as error:
            raise WALError(
                f"undecodable change-set wire record: {error}"
            ) from error
        version = record.get("version") if isinstance(record, dict) else None
        if version != WIRE_VERSION:
            raise WALError(
                f"unsupported change-set wire version {version!r} "
                f"(this build reads version {WIRE_VERSION})"
            )
        columnar = None
        if record["kind"] == "columnar":
            columnar = _rebuild_batch(record, interner)
        elif record.get("nodes") or record.get("edges"):
            raise WALError(
                "undecodable change-set wire record: an element-wise "
                "insert frame (this build logs columnar inserts only)"
            )
        return cls(
            delete_nodes=list(record["delete_nodes"]),
            delete_edges=list(record["delete_edges"]),
            stub_node_ids=frozenset(record["stubs"]),
            columnar=columnar,
        )


def _rebuild_batch(record: dict, interner: "Interner | None") -> "ElementBatch":
    """The :class:`ElementBatch` of a columnar wire record."""
    from repro.graph.columnar import BatchBuilder, global_interner

    builder = BatchBuilder(interner or global_interner())
    target = builder.interner
    for labels, keys, rows in record["node_groups"]:
        labelset_id = target.intern_labels(labels)
        keyset_id = target.intern_keys(keys)
        for node_id, values in rows:
            builder.add_node(node_id, labelset_id, keyset_id, tuple(values))
    for labels, keys, rows in record["edge_groups"]:
        labelset_id = target.intern_labels(labels)
        keyset_id = target.intern_keys(keys)
        for edge_id, src, tgt, values in rows:
            builder.add_edge(
                edge_id, src, tgt, labelset_id, keyset_id, tuple(values)
            )
    return builder.freeze()


def _group_rows(interner, block, edges: bool) -> list:
    """Structure-grouped wire form of one columnar block.

    One entry per distinct (labels, keys) structure, in first-occurrence
    order: ``(sorted labels, keys, [(id, values), ...])`` for nodes,
    ``(sorted labels, keys, [(id, src, tgt, values), ...])`` for edges.
    A structure group coincides exactly with a clustering pattern (one
    label set <-> one token), so the decoder's group-major rebuild
    preserves both within-pattern row order and across-pattern
    first-occurrence order -- everything batch processing is sensitive
    to.  Values come from the block's cached row view
    (:attr:`~repro.graph.columnar.ColumnarElements.value_rows`).
    """
    groups: dict[tuple[int, int], list] = {}
    ordered: list[tuple] = []
    if edges:
        payloads = zip(
            block.ids, block.source_ids, block.target_ids, block.value_rows
        )
    else:
        payloads = zip(block.ids, block.value_rows)
    for structure, payload in zip(
        zip(block.labelset_list, block.keyset_list), payloads
    ):
        rows = groups.get(structure)
        if rows is None:
            rows = groups[structure] = []
            ordered.append(
                (
                    sorted(interner.labelset(structure[0]).labels),
                    interner.keyset(structure[1]).keys,
                    rows,
                )
            )
        rows.append(payload)
    return ordered


def stable_shard(element_id: str, n_shards: int) -> int:
    """Content-stable shard index of an element id.

    Python's ``hash`` on strings is salted per process, so routing uses a
    blake2b digest instead -- the same id lands on the same shard in
    every process, which checkpoint/restore and process-parallel workers
    both depend on.
    """
    digest = hashlib.blake2b(element_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") % n_shards


class HashPartitioner:
    """Stable content-hash routing of element ids to ``n_shards`` shards.

    Nodes route by ``stable_shard(node_id)``; edges by
    ``stable_shard(edge_id)``.  Splitting a change-set into per-shard
    parts (stub rows, deletion broadcast) is
    :func:`repro.graph.columnar.partition_columnar`.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = int(n_shards)

    def shard_of(self, element_id: str) -> int:
        """Stable shard index of one element id."""
        return stable_shard(element_id, self.n_shards)

"""JSON-lines import/export for property graphs.

One JSON object per line, tagged with ``"kind": "node" | "edge"``.  JSON
preserves scalar types exactly, so this format round-trips graphs without
the re-inference the CSV path needs.  It is also the on-disk format the
incremental examples use to simulate an ingest stream.

One decoder (:func:`_iter_records_jsonl`) reads every file and feeds two
parsers, one per output kind: :func:`record_to_element` for ``Node``/``Edge``
elements (:func:`iter_graph_jsonl`, :func:`read_graph_jsonl`) and
:func:`columnar_rows_from_records` for interned rows
(:func:`iter_columnar_changesets_jsonl`, which turns the file into a
columnar change feed without ever assembling a full graph in memory).
A malformed line raises :class:`SerializationError` naming ``path:line``.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.errors import SerializationError
from repro.graph.changes import ChangeSet
from repro.graph.columnar import (
    Interner,
    columnar_changesets_from_rows,
    global_interner,
)
from repro.graph.model import Edge, Node, PropertyGraph


def node_to_record(node: Node) -> dict:
    """JSON-serialisable record for a node."""
    return {
        "kind": "node",
        "id": node.node_id,
        "labels": sorted(node.labels),
        "properties": dict(node.properties),
    }


def edge_to_record(edge: Edge) -> dict:
    """JSON-serialisable record for an edge."""
    return {
        "kind": "edge",
        "id": edge.edge_id,
        "source": edge.source_id,
        "target": edge.target_id,
        "labels": sorted(edge.labels),
        "properties": dict(edge.properties),
    }


def record_to_element(record: dict) -> Node | Edge:
    """Inverse of the ``*_to_record`` functions."""
    kind = record.get("kind")
    if kind == "node":
        return Node(
            record["id"],
            frozenset(record.get("labels", ())),
            record.get("properties", {}),
        )
    if kind == "edge":
        return Edge(
            record["id"],
            record["source"],
            record["target"],
            frozenset(record.get("labels", ())),
            record.get("properties", {}),
        )
    raise SerializationError(f"unknown record kind: {kind!r}")


def write_graph_jsonl(graph: PropertyGraph, path: str | Path) -> Path:
    """Write ``graph`` as JSON lines (nodes first, then edges)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for node in graph.nodes():
            handle.write(json.dumps(node_to_record(node)) + "\n")
        for edge in graph.edges():
            handle.write(json.dumps(edge_to_record(edge)) + "\n")
    return path


def iter_graph_jsonl(path: str | Path) -> Iterator[Node | Edge]:
    """Stream elements back from a JSON-lines file."""
    path = Path(path)
    cursor = [0]
    with _malformed_records(path, cursor):
        for record in _iter_records_jsonl(path, cursor):
            yield record_to_element(record)


def columnar_rows_from_records(
    records: Iterable[dict], interner: Interner | None = None
) -> Iterator[tuple[str, tuple]]:
    """Intern JSON records into raw columnar rows (no element objects).

    The record -> row step shared by :func:`iter_columnar_changesets_jsonl`
    and anything holding decoded records in memory.  Label lists and
    property-key shapes repeat massively in real exports, so both intern
    through per-stream caches -- one dict hit per record, with the key
    sort paid once per distinct *as-written* key order.
    """
    interner = interner or global_interner()
    label_cache: dict[tuple, int] = {}
    keyset_cache: dict[tuple[str, ...], tuple[int, tuple[str, ...]]] = {}
    for record in records:
        kind = record.get("kind")
        if kind not in ("node", "edge"):
            # Checked before interning: a bad record must not grow the
            # interner.
            raise SerializationError(f"unknown record kind: {kind!r}")
        labels = tuple(record.get("labels", ()))
        labelset_id = label_cache.get(labels)
        if labelset_id is None:
            labelset_id = interner.intern_labels(labels)
            label_cache[labels] = labelset_id
        properties = record.get("properties", {})
        raw_keys = tuple(properties)
        cached = keyset_cache.get(raw_keys)
        if cached is None:
            sorted_keys = tuple(sorted(raw_keys))
            cached = (interner.intern_keys(sorted_keys), sorted_keys)
            keyset_cache[raw_keys] = cached
        keyset_id, sorted_keys = cached
        values = tuple([properties[key] for key in sorted_keys])
        if kind == "node":
            yield "n", (record["id"], labelset_id, keyset_id, values)
        else:
            yield "e", (
                record["id"],
                record["source"],
                record["target"],
                labelset_id,
                keyset_id,
                values,
            )


def _iter_records_jsonl(path: Path, cursor: list[int]) -> Iterator[dict]:
    """Decode one JSON record per line (blank lines skipped).

    ``cursor[0]`` tracks the line being decoded, so a parser failing on
    the record just yielded can name its line.
    """
    loads = json.loads
    with path.open() as handle:
        for cursor[0], line in enumerate(handle, start=1):
            try:
                yield loads(line)
            except json.JSONDecodeError as exc:
                if not line.strip():
                    continue
                raise SerializationError(f"invalid JSON ({exc})") from exc


@contextmanager
def _malformed_records(path: Path, cursor: list[int]) -> Iterator[None]:
    """Re-raise a failure on a malformed line as one naming ``path:line``.

    Invalid JSON and an unknown record ``kind`` already raise
    :class:`SerializationError`; a non-object line, a missing
    ``id``/``source``/``target`` or unhashable labels fail either parser
    with a builtin error.  Both surface as a :class:`SerializationError`
    prefixed with ``path:line``.
    """
    try:
        yield
    except SerializationError as exc:
        raise SerializationError(f"{path}:{cursor[0]}: {exc}") from exc
    except (AttributeError, KeyError, TypeError) as exc:
        raise SerializationError(
            f"{path}:{cursor[0]}: malformed record ({exc!r})"
        ) from exc


def _iter_rows_jsonl(
    path: Path, interner: Interner
) -> Iterator[tuple[str, tuple]]:
    """Stream interned columnar rows from a JSON-lines file."""
    cursor = [0]
    with _malformed_records(path, cursor):
        yield from columnar_rows_from_records(
            _iter_records_jsonl(path, cursor), interner
        )


def iter_columnar_changesets_jsonl(
    path: str | Path,
    batch_size: int = 1000,
    interner: Interner | None = None,
) -> Iterator[ChangeSet]:
    """Stream a JSON-lines file as endpoint-complete insert change-sets.

    Feeds large datasets straight into a :class:`SchemaSession` or
    :class:`ShardedSchemaSession` without materialising a full
    :class:`PropertyGraph`: records intern straight into
    :class:`~repro.graph.columnar.ElementBatch` payloads (no
    :class:`Node`/:class:`Edge` is instantiated), edges referencing nodes
    from earlier change-sets ship stub rows marked in ``stub_node_ids``,
    and memory holds one compact record per distinct node id but no
    edges or adjacency (see
    :func:`repro.graph.columnar.columnar_changesets_from_rows`).
    """
    interner = interner or global_interner()
    return columnar_changesets_from_rows(
        _iter_rows_jsonl(Path(path), interner), batch_size, interner
    )


def graph_from_elements(
    elements: Iterable[Node | Edge], name: str = "graph"
) -> PropertyGraph:
    """Build a graph from any element iterable.

    Edges may appear before their endpoints; they are buffered and
    inserted once all nodes are known.
    """
    graph = PropertyGraph(name)
    pending: list[Edge] = []
    for element in elements:
        if isinstance(element, Node):
            graph.add_node(element)
        else:
            pending.append(element)
    for edge in pending:
        graph.add_edge(edge)
    return graph


def read_graph_jsonl(path: str | Path, name: str = "jsonl-graph") -> PropertyGraph:
    """Load a whole graph from a JSON-lines file."""
    return graph_from_elements(iter_graph_jsonl(path), name)

"""CSV import/export in a neo4j-admin-like layout.

Nodes file columns:   ``id``, ``labels`` (``;``-separated), one column per
property key.  Edges file columns: ``id``, ``source``, ``target``,
``labels``, one column per property key.  Empty cells mean "property
absent" (not an empty string), matching how graph databases treat missing
properties; values are serialised with a small type-tag-free convention and
re-inferred on load using the schema layer's parsing primitives.

Each file is opened through one header check (:func:`_csv_body`) and
parsed by one of two parsers, one per output kind: :func:`_iter_elements_csv`
yields ``Node``/``Edge`` elements (:func:`read_graph_csv`) and
:func:`_iter_rows_csv` yields interned rows
(:func:`iter_columnar_changesets_csv`, which streams the layout as a
columnar change feed without assembling a full graph in memory).  A row
too short for its fixed columns raises :class:`SerializationError` naming
``path:line``.
"""

from __future__ import annotations

import csv
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.errors import SerializationError
from repro.graph.changes import ChangeSet
from repro.graph.columnar import (
    Interner,
    columnar_changesets_from_rows,
    global_interner,
)
from repro.graph.json_io import graph_from_elements
from repro.graph.model import Edge, Node, PropertyGraph, PropertyValue

_LABEL_SEPARATOR = ";"


def _format_value(value: PropertyValue) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse_value(text: str) -> PropertyValue:
    """Parse a CSV cell back into the most specific scalar."""
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def write_graph_csv(graph: PropertyGraph, directory: str | Path) -> tuple[Path, Path]:
    """Write ``graph`` to ``<dir>/nodes.csv`` and ``<dir>/edges.csv``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    nodes_path = directory / "nodes.csv"
    edges_path = directory / "edges.csv"

    node_keys = graph.all_node_property_keys()
    with nodes_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "labels", *node_keys])
        for node in graph.nodes():
            row = [node.node_id, _LABEL_SEPARATOR.join(sorted(node.labels))]
            for key in node_keys:
                if key in node.properties:
                    row.append(_format_value(node.properties[key]))
                else:
                    row.append("")
            writer.writerow(row)

    edge_keys = graph.all_edge_property_keys()
    with edges_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "source", "target", "labels", *edge_keys])
        for edge in graph.edges():
            row = [
                edge.edge_id,
                edge.source_id,
                edge.target_id,
                _LABEL_SEPARATOR.join(sorted(edge.labels)),
            ]
            for key in edge_keys:
                if key in edge.properties:
                    row.append(_format_value(edge.properties[key]))
                else:
                    row.append("")
            writer.writerow(row)
    return nodes_path, edges_path


#: Fixed leading columns of each file; property columns follow.
_NODE_COLUMNS = ["id", "labels"]
_EDGE_COLUMNS = ["id", "source", "target", "labels"]


def _graph_paths(directory: str | Path) -> tuple[Path, Path]:
    """``(nodes.csv, edges.csv)`` under ``directory``; both must exist."""
    directory = Path(directory)
    nodes_path = directory / "nodes.csv"
    edges_path = directory / "edges.csv"
    if not nodes_path.exists() or not edges_path.exists():
        raise SerializationError(f"missing nodes.csv/edges.csv under {directory}")
    return nodes_path, edges_path


@contextmanager
def _csv_body(path: Path, columns: list[str]) -> Iterator[tuple[list[str], Iterator]]:
    """Open one CSV file, check its header, yield ``(property keys, rows)``.

    A row missing one of the fixed ``columns`` fails its parser with an
    :class:`IndexError`; it surfaces as a :class:`SerializationError`
    naming ``path:line``.
    """
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header[: len(columns)] != columns:
            raise SerializationError(f"bad {path.name} header: {header}")
        try:
            yield header[len(columns):], reader
        except IndexError as exc:
            raise SerializationError(
                f"{path}:{reader.line_num}: row is missing fixed columns "
                f"{columns}"
            ) from exc


def _iter_elements_csv(
    nodes_path: Path, edges_path: Path
) -> Iterator[Node | Edge]:
    """Stream nodes then edges off disk, one row at a time."""
    with _csv_body(nodes_path, _NODE_COLUMNS) as (keys, reader):
        for row in reader:
            labels = frozenset(part for part in row[1].split(_LABEL_SEPARATOR) if part)
            properties = {
                key: _parse_value(cell)
                for key, cell in zip(keys, row[2:])
                if cell != ""
            }
            yield Node(row[0], labels, properties)
    with _csv_body(edges_path, _EDGE_COLUMNS) as (keys, reader):
        for row in reader:
            labels = frozenset(part for part in row[3].split(_LABEL_SEPARATOR) if part)
            properties = {
                key: _parse_value(cell)
                for key, cell in zip(keys, row[4:])
                if cell != ""
            }
            yield Edge(row[0], row[1], row[2], labels, properties)


def _iter_rows_csv(
    nodes_path: Path, edges_path: Path, interner: Interner
) -> Iterator[tuple[str, tuple]]:
    """Stream interned columnar rows off disk, no element objects.

    Label cells and property-presence masks repeat massively in real
    exports, so both intern through per-file caches: one dict hit per
    row instead of one split/sort/intern per row.
    """
    with _csv_body(nodes_path, _NODE_COLUMNS) as (keys, reader):
        yield from _interned_rows(reader, keys, 2, interner, kind="n")
    with _csv_body(edges_path, _EDGE_COLUMNS) as (keys, reader):
        yield from _interned_rows(reader, keys, 4, interner, kind="e")


def _interned_rows(reader, keys, offset, interner, kind):
    label_column = offset - 1
    sorted_positions = sorted(range(len(keys)), key=keys.__getitem__)
    label_cache: dict[str, int] = {}
    keyset_cache: dict[tuple[int, ...], int] = {}
    for row in reader:
        cell = row[label_column]
        labelset_id = label_cache.get(cell)
        if labelset_id is None:
            labelset_id = interner.intern_labels(
                part for part in cell.split(_LABEL_SEPARATOR) if part
            )
            label_cache[cell] = labelset_id
        cells = row[offset:]
        present = tuple(
            position
            for position in sorted_positions
            if position < len(cells) and cells[position] != ""
        )
        keyset_id = keyset_cache.get(present)
        if keyset_id is None:
            keyset_id = interner.intern_keys(
                keys[position] for position in present
            )
            keyset_cache[present] = keyset_id
        values = tuple(_parse_value(cells[position]) for position in present)
        if kind == "n":
            yield ("n", (row[0], labelset_id, keyset_id, values))
        else:
            yield ("e", (row[0], row[1], row[2], labelset_id, keyset_id, values))


def iter_columnar_changesets_csv(
    directory: str | Path,
    batch_size: int = 1000,
    interner: Interner | None = None,
) -> Iterator[ChangeSet]:
    """Stream a CSV graph directory as endpoint-complete insert change-sets.

    Rows stream off disk (never a full :class:`PropertyGraph`) and intern
    straight into :class:`~repro.graph.columnar.ElementBatch` payloads;
    edges referencing nodes from earlier change-sets ship stub rows
    marked in ``stub_node_ids``, so the feed is valid for any session --
    see :func:`repro.graph.columnar.columnar_changesets_from_rows` for
    grouping and memory behaviour.
    """
    nodes_path, edges_path = _graph_paths(directory)
    interner = interner or global_interner()
    return columnar_changesets_from_rows(
        _iter_rows_csv(nodes_path, edges_path, interner), batch_size, interner
    )


def read_graph_csv(directory: str | Path, name: str = "csv-graph") -> PropertyGraph:
    """Load a graph previously written by :func:`write_graph_csv`."""
    return graph_from_elements(_iter_elements_csv(*_graph_paths(directory)), name)

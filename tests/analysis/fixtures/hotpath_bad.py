"""Fixture: PGL301-PGL303 positives.

PGL301/PGL302 fire inside hot-path-named functions; PGL303 fires on a
``searchsorted`` evaluated once per loop iteration in any function.
"""

import numpy as np


def ingest_columnar(batch, union):
    nodes, edges = batch.to_elements()  # expect[PGL301]
    union.merge_in(batch.to_property_graph("change"))  # expect[PGL301]
    return nodes, edges


def build_columnar(rows, Node):
    return [Node(row) for row in rows]  # expect[PGL301]


def record_into(block, summaries):
    for value in block.columns["name"]:  # expect[PGL302]
        summaries.observe("name", value)
    doubled = [value * 2 for value in block.columns["age"]]  # expect[PGL302]
    return doubled


def columnar_changesets(block):
    return {row for row in block.columns["id"].take(block.rows)}  # expect[PGL302]


def row_values(block, keyset, row):
    return tuple(
        block.columns[key].values[
            int(np.searchsorted(block.columns[key].rows, row))  # expect[PGL303]
        ]
        for key in keyset.keys
    )


def lookup_all(rows, needles):
    positions = []
    for needle in needles:
        positions.append(rows.searchsorted(needle))  # expect[PGL303]
    while positions:
        if np.searchsorted(rows, positions.pop()) < 0:  # expect[PGL303]
            break
    return {n: np.searchsorted(rows, n) for n in needles}  # expect[PGL303]


def nested_scope_in_loop(columns):
    for column in columns:
        def find(row, rows=column.rows):
            return np.searchsorted(rows, row)
        # The def body is not looped; the comprehension's iterable is,
        # once per outer iteration.
        yield [find(r) for r in np.searchsorted(column.rows, [1, 2])]  # expect[PGL303]

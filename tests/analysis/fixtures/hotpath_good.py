"""Fixture: PGL301-PGL303 negatives.

Hot functions using the vectorised API stay silent, element-wise
conversion outside the hot call graph is legitimate, and one vectorised
``searchsorted`` over a whole array (or one per function call) is fine.
"""

import numpy as np


def record_into(block, summaries, group_rows):
    taken = block.columns["name"].take(group_rows)
    summaries.observe_column("name", taken)
    return len(taken)


def ingest_columnar(batch, state):
    state.sequence += 1
    return batch.node_count


def to_union_graph(batch):
    # Not a hot-path name: element-wise conversion is this function's job.
    nodes, edges = batch.to_elements()
    return batch.to_property_graph("union")


def per_row_outside_hot_path(block):
    return [value for value in block.columns["age"]]


def positions_once(rows, needles):
    positions = np.searchsorted(rows, needles)
    return [int(position) for position in positions]


def one_lookup(column, row):
    return column.values[int(np.searchsorted(column.rows, row))]


def iterable_evaluated_once(rows, needles):
    for position in np.searchsorted(rows, needles):
        yield position
    return [p for p in rows.searchsorted(needles)]


def row_view(block):
    return [dict(zip(keys, values)) for keys, values in block.value_rows]

"""Constants and helpers shared by the benchmark modules."""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.graph.model import PropertyGraph

#: Default scale keeps the full suite in the low minutes on one machine.
DEFAULT_GRID_SCALE = 0.25
SEED = 2026


def merge_json(path: Path, key: str, payload: dict) -> None:
    """Merge ``payload`` under ``key`` in the shared bench JSON file."""
    existing: dict = {}
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError:
            loaded = None
        # Legacy layout (one bench at top level) is replaced wholesale.
        if isinstance(loaded, dict) and "bench" not in loaded:
            existing = loaded
    existing[key] = payload
    path.write_text(json.dumps(existing, indent=2) + "\n")


def emit(capsys, text: str) -> None:
    """Print ``text`` to the real terminal, bypassing pytest capture."""
    with capsys.disabled():
        print()
        print(text)


def synthetic_stream(
    batch_count: int, nodes_per_batch: int, seed: int
) -> list[PropertyGraph]:
    """Insert batches over a fixed set of labelled types.

    Every batch replays the same small set of "hub" nodes (identical
    content each time, as real endpoint stubs are), so the session's
    replay dedup and the growing N:1 cardinalities are both exercised.
    """
    from repro.graph.model import Edge, Node, PropertyGraph

    rng = np.random.default_rng(seed)
    hubs = [
        Node(f"hub{i}", {"Warehouse"}, {"wid": f"w-{i}", "region": f"r{i % 3}"})
        for i in range(4)
    ]
    batches: list[PropertyGraph] = []
    serial = 0
    for index in range(batch_count):
        batch = PropertyGraph(f"stream-batch{index + 1}")
        for hub in hubs:
            batch.add_node(hub)
        people: list[str] = []
        products: list[str] = []
        for _ in range(nodes_per_batch):
            serial += 1
            roll = rng.random()
            if roll < 0.5:
                node_id = f"p{serial}"
                properties = {
                    "uid": f"u-{serial}",
                    "name": f"name{int(rng.integers(0, 5000))}",
                    "age": int(rng.integers(18, 90)),
                }
                if rng.random() < 0.6:
                    properties["city"] = f"c{int(rng.integers(0, 40))}"
                batch.add_node(Node(node_id, {"Person"}, properties))
                people.append(node_id)
            else:
                node_id = f"g{serial}"
                properties = {
                    "sku": f"sku-{serial}",
                    "price": float(np.round(rng.uniform(1, 500), 2)) + 0.5,
                    "stock": int(rng.integers(0, 1000)),
                }
                batch.add_node(Node(node_id, {"Product"}, properties))
                products.append(node_id)
        edge_count = nodes_per_batch  # ~1 edge per node
        for _ in range(edge_count):
            serial += 1
            if people and products and rng.random() < 0.7:
                source = people[int(rng.integers(0, len(people)))]
                target = products[int(rng.integers(0, len(products)))]
                batch.add_edge(
                    Edge(
                        f"b{serial}",
                        source,
                        target,
                        {"BOUGHT"},
                        {"qty": int(rng.integers(1, 9))},
                    )
                )
            elif products:
                source = products[int(rng.integers(0, len(products)))]
                target = hubs[int(rng.integers(0, len(hubs)))].node_id
                batch.add_edge(
                    Edge(
                        f"s{serial}",
                        source,
                        target,
                        {"STORED_IN"},
                        {"since": "2024-03-09"},
                    )
                )
        batches.append(batch)
    return batches

"""Deterministic feed generation: JSONL elements, deletion plan, truth.

Run as its own process (never inside the measuring process) by
``run.py``; the output directory is a cache keyed by workload, seed,
scale and :data:`workloads.FEED_VERSION`::

    python3 perfbench/feed.py --workload durable_ingest --seed 1 --out DIR

Files written (atomically, via a sibling temp directory):

* ``feed.jsonl`` -- one ``repro.graph.json_io`` record per line.  Node
  order is a seeded shuffle of each generator's nodes; every edge is
  written right after the later of its two endpoints, and the three
  generators are interleaved in seeded blocks that keep their mix even
  along the whole feed.  Because no edge precedes
  an endpoint, the columnar reader emits change-set ``j`` as exactly
  lines ``[j * batch_size, (j + 1) * batch_size)``, which is what the
  deletion plan is keyed by.
* ``plan.json`` -- per change-set, the node and edge ids it deletes
  (empty unless the workload churns).  A node is deleted only after the
  last edge that references it, and never together with an edge it
  already cascaded, so no deletion misses.
* ``truth.json`` -- generator ground truth (element id -> type) for F1*.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from workloads import FEED_VERSION, WORKLOADS, Workload  # noqa: E402

#: elements per interleaving block when mixing generators.
_BLOCK = 64


def _ordered_records(dataset, rng) -> list[dict]:
    """One generator's elements in arrival order (edges after endpoints)."""
    from repro.graph.json_io import edge_to_record, node_to_record

    graph = dataset.graph
    nodes = list(graph.nodes())
    order = rng.permutation(len(nodes))
    position = {nodes[index].node_id: rank for rank, index in enumerate(order)}
    edges_after: dict[int, list] = {}
    for edge in graph.edges():
        anchor = max(position[edge.source_id], position[edge.target_id])
        edges_after.setdefault(anchor, []).append(edge)
    records: list[dict] = []
    for rank, index in enumerate(order):
        records.append(node_to_record(nodes[index]))
        for edge in edges_after.get(rank, ()):
            records.append(edge_to_record(edge))
    return records


def _interleave(streams: list[list[dict]], rng) -> list[dict]:
    """Mix generator streams in seeded blocks, preserving each one's order.

    The next block comes from a stream chosen with probability
    proportional to what it has left, so all streams run out together
    and every stretch of the feed -- the WAL tail replayed by a crash
    recovery included -- carries the same mix whatever the seed.
    """
    cursors = [0] * len(streams)
    out: list[dict] = []
    while True:
        left = np.array([len(s) - c for s, c in zip(streams, cursors)], dtype=float)
        if not left.any():
            return out
        pick = int(rng.choice(len(streams), p=left / left.sum()))
        start = cursors[pick]
        out.extend(streams[pick][start : start + _BLOCK])
        cursors[pick] = min(len(streams[pick]), start + _BLOCK)


def _deletion_plan(records: list[dict], workload: Workload, rng) -> list[dict]:
    """Per change-set deletions of earlier, no-longer-referenced inserts."""
    batch = workload.batch_size
    n_sets = (len(records) + batch - 1) // batch
    plan = [{"nodes": [], "edges": []} for _ in range(n_sets)]
    if workload.delete_share <= 0:
        return plan
    last_ref: dict[str, int] = {}
    incident: dict[str, list[str]] = {}
    for line, record in enumerate(records):
        if record["kind"] == "node":
            last_ref.setdefault(record["id"], line)
        else:
            for end in (record["source"], record["target"]):
                last_ref[end] = line
                incident.setdefault(end, []).append(record["id"])
    live_nodes: list[str] = []
    live_edges: list[str] = []
    dead_edges: set[str] = set()
    for index in range(n_sets):
        start = index * batch
        if index:
            quota = max(1, round(workload.delete_share * batch))
            # Nodes whose every reference lies in earlier change-sets.
            deletable = [n for n in live_nodes if last_ref[n] < start]
            n_nodes = min(len(deletable), quota // 2)
            picked = set()
            if n_nodes:
                chosen = rng.choice(len(deletable), size=n_nodes, replace=False)
                for i in sorted(chosen.tolist()):
                    picked.add(deletable[i])
                    dead_edges.update(incident.get(deletable[i], ()))
                live_nodes = [n for n in live_nodes if n not in picked]
            live_edges = [e for e in live_edges if e not in dead_edges]
            n_edges = min(len(live_edges), quota - n_nodes)
            edge_pick = []
            if n_edges:
                chosen = rng.choice(len(live_edges), size=n_edges, replace=False)
                edge_pick = [live_edges[i] for i in sorted(chosen.tolist())]
                dead_edges.update(edge_pick)
                live_edges = [e for e in live_edges if e not in dead_edges]
            plan[index] = {"nodes": sorted(picked), "edges": edge_pick}
        for record in records[start : start + batch]:
            if record["kind"] == "node":
                live_nodes.append(record["id"])
            else:
                live_edges.append(record["id"])
    return plan


def generate(workload: Workload, seed: int, scale: float, out: Path) -> Path:
    """Write the workload's feed for ``seed`` into ``out`` (atomically)."""
    from repro.datasets import load_dataset
    from repro.datasets.noise import apply_noise

    rng = np.random.default_rng([FEED_VERSION, seed])
    streams = []
    node_truth: dict[str, str] = {}
    edge_truth: dict[str, str] = {}
    for index, (name, nodes) in enumerate(workload.datasets):
        dataset_seed = seed * 1000 + index
        dataset = load_dataset(
            name, nodes=max(128, int(nodes * scale)), seed=dataset_seed
        )
        if workload.property_noise or workload.label_availability < 1.0:
            dataset = apply_noise(
                dataset,
                property_noise=workload.property_noise,
                label_availability=workload.label_availability,
                seed=dataset_seed,
            )
        node_truth.update(dataset.node_truth)
        edge_truth.update(dataset.edge_truth)
        streams.append(_ordered_records(dataset, rng))
    records = _interleave(streams, rng)
    plan = _deletion_plan(records, workload, rng)

    temp = out.with_name(out.name + f".tmp{os.getpid()}")
    shutil.rmtree(temp, ignore_errors=True)
    temp.mkdir(parents=True)
    with (temp / "feed.jsonl").open("w") as handle:
        for record in records:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    (temp / "plan.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "scale": scale,
                "batch_size": workload.batch_size,
                "elements": len(records),
                "deletions": plan,
            }
        )
    )
    (temp / "truth.json").write_text(
        json.dumps({"nodes": node_truth, "edges": edge_truth})
    )
    shutil.rmtree(out, ignore_errors=True)
    os.replace(temp, out)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    generate(WORKLOADS[args.workload], args.seed, args.scale, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

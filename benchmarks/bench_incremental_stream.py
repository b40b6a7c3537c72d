"""Per-batch post-processing cost: streaming accumulators vs union re-scan.

Drives N insert batches through :meth:`SchemaSession.add_batch` with
``post_process_each_batch=True`` in two modes:

* ``streaming`` -- the default session: no union graph, post-processing
  reads the per-type accumulators (O(|schema|) per batch);
* ``union-rescan`` -- the pre-accumulator oracle (``retain_union=True,
  streaming_postprocess=False``): every batch re-scans the cumulative
  union graph, so per-batch post-processing cost grows with batch index.

Reports per-batch latency, per-batch post-processing time, peak traced
heap per mode (tracemalloc) plus process ``ru_maxrss``, and emits the
whole trajectory as JSON.  At full scale the run fails (exit 1) unless
the streaming mode achieves >= 5x cumulative post-processing speedup and
its per-batch cost stays flat; quick mode (CI) only reports.

Run:        PYTHONPATH=src python benchmarks/bench_incremental_stream.py
Quick (CI): PYTHONPATH=src python benchmarks/bench_incremental_stream.py --quick
JSON:       ... --json stream_bench.json
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.core.config import PGHiveConfig
from repro.core.session import SchemaSession
from repro.graph.model import Edge, Node, PropertyGraph

SEED = 2026
#: Acceptance scale (ISSUE 2): >= 5x cumulative speedup at 50 batches.
FULL_BATCHES, FULL_NODES = 50, 300
QUICK_BATCHES, QUICK_NODES = 12, 120
MIN_SPEEDUP = 5.0
#: Streaming per-batch post-processing must not trend upward: the mean of
#: the last quarter may exceed the first quarter's by at most this factor
#: (the schema itself stops growing after the first few batches).
MAX_FLATNESS_RATIO = 2.0


def synthetic_stream(
    batch_count: int, nodes_per_batch: int, seed: int
) -> list[PropertyGraph]:
    """Insert batches over a fixed set of labelled types.

    Every batch replays the same small set of "hub" nodes (identical
    content each time, as real endpoint stubs are), so the session's
    replay dedup and the growing N:1 cardinalities are both exercised.
    """
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


def run_mode(mode: str, batches: list[PropertyGraph], seed: int) -> dict:
    """One full stream through a session; returns the perf trajectory."""
    overrides = (
        {}
        if mode == "streaming"
        else {"retain_union": True, "streaming_postprocess": False}
    )
    config = PGHiveConfig(
        seed=seed,
        infer_keys=True,
        post_process_each_batch=True,
        **overrides,
    )
    session = SchemaSession(config, schema_name=f"bench-{mode}")
    per_batch: list[float] = []
    postprocess: list[float] = []
    tracemalloc.start()
    for batch in batches:
        before = session.timer.lap("postprocess")
        start = time.perf_counter()
        session.add_batch(batch)
        per_batch.append(time.perf_counter() - start)
        postprocess.append(session.timer.lap("postprocess") - before)
    session.finalize()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "mode": mode,
        "per_batch_seconds": per_batch,
        "postprocess_seconds": postprocess,
        "postprocess_total_seconds": sum(postprocess),
        "peak_traced_bytes": int(peak),
        "node_types": session.schema_graph.node_type_count,
        "edge_types": session.schema_graph.edge_type_count,
    }


def flatness_ratio(samples: list[float]) -> float:
    """Median of the last quarter over the median of the first quarter.

    Medians, not means: per-batch streaming cost sits in the
    sub-millisecond range where a single GC pause would dominate a mean.
    """
    quarter = max(1, len(samples) // 4)
    head = float(np.median(samples[:quarter]))
    tail = float(np.median(samples[-quarter:]))
    return tail / head if head > 0 else float("inf")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI scale, no gating")
    parser.add_argument("--batches", type=int, default=None)
    parser.add_argument("--nodes-per-batch", type=int, default=None)
    parser.add_argument("--json", type=Path, default=None, metavar="PATH")
    args = parser.parse_args(argv)

    batch_count = args.batches or (QUICK_BATCHES if args.quick else FULL_BATCHES)
    nodes = args.nodes_per_batch or (QUICK_NODES if args.quick else FULL_NODES)
    batches = synthetic_stream(batch_count, nodes, SEED)
    total_elements = sum(len(b) for b in batches)
    print(
        f"incremental stream bench: {batch_count} batches, "
        f"~{nodes} nodes/batch, {total_elements:,} elements total"
    )

    results = {
        mode: run_mode(mode, batches, SEED) for mode in ("streaming", "union-rescan")
    }
    streaming, rescan = results["streaming"], results["union-rescan"]
    speedup = (
        rescan["postprocess_total_seconds"]
        / max(streaming["postprocess_total_seconds"], 1e-12)
    )
    flatness = flatness_ratio(streaming["postprocess_seconds"])
    rescan_flatness = flatness_ratio(rescan["postprocess_seconds"])

    for record in results.values():
        pp = record["postprocess_seconds"]
        print(
            f"  {record['mode']:<13} post-process total {record['postprocess_total_seconds']:8.3f}s   "
            f"first {pp[0] * 1000:7.2f}ms  last {pp[-1] * 1000:7.2f}ms   "
            f"peak heap {record['peak_traced_bytes'] / 1e6:7.1f}MB"
        )
    print(
        f"  cumulative post-processing speedup: {speedup:5.1f}x   "
        f"flatness (last/first quarter): streaming {flatness:.2f}, "
        f"union-rescan {rescan_flatness:.2f}"
    )
    print(f"  ru_maxrss: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss} kB")

    payload = {
        "batches": batch_count,
        "nodes_per_batch": nodes,
        "total_elements": total_elements,
        "seed": SEED,
        "modes": results,
        "speedup": speedup,
        "streaming_flatness": flatness,
        "union_rescan_flatness": rescan_flatness,
    }
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2))
        print(f"  wrote {args.json}")

    if not args.quick:
        failures = []
        if speedup < MIN_SPEEDUP:
            failures.append(f"speedup {speedup:.1f}x < {MIN_SPEEDUP}x")
        if flatness > MAX_FLATNESS_RATIO:
            failures.append(
                f"streaming per-batch post-processing grew {flatness:.2f}x "
                f"(limit {MAX_FLATNESS_RATIO}x)"
            )
        if failures:
            print("FAIL: " + "; ".join(failures))
            return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Session change-feed throughput: inserts/sec, deletes/sec, snapshots.

Drives a synthetic labelled stream through one :class:`SchemaSession` and
measures the operations a long-lived service cares about:

* **insert throughput** -- elements/sec through ``apply`` on insert-only
  change-sets (streaming accumulators on, no union graph);
* **delete throughput** -- elements/sec through deletion change-sets on a
  union-retaining session;
* **snapshot latency** -- ``session.schema()`` immediately after a write
  (dirty: one O(|schema|) post-processing pass) vs on a quiet feed
  (cached: no work);
* **checkpoint / restore** -- wall time and file size, plus a
  correctness gate: the restored session must fingerprint identically.

Run:        PYTHONPATH=src python benchmarks/bench_session_ops.py
Quick (CI): PYTHONPATH=src python benchmarks/bench_session_ops.py --quick
JSON:       ... --json session_bench.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_common import synthetic_stream

from repro.core.config import PGHiveConfig
from repro.core.session import SchemaSession
from repro.graph.changes import ChangeSet
from repro.schema.model import schema_fingerprint

SEED = 2026
FULL_BATCHES, FULL_NODES = 40, 300
QUICK_BATCHES, QUICK_NODES = 10, 120
#: Fraction of nodes deleted again during the deletion phase.
DELETE_FRACTION = 0.3


def bench_inserts(batches, config) -> tuple[SchemaSession, dict]:
    session = SchemaSession(config, schema_name="bench-inserts")
    elements = 0
    start = time.perf_counter()
    for batch in batches:
        session.apply(ChangeSet.from_graph(batch))
        elements += len(batch)
    elapsed = time.perf_counter() - start
    return session, {
        "elements": elements,
        "seconds": elapsed,
        "inserts_per_second": elements / max(elapsed, 1e-12),
    }


def bench_snapshots(session: SchemaSession, samples: int = 5) -> dict:
    dirty_latencies = []
    cached_latencies = []
    for _ in range(samples):
        session._dirty = True  # simulate a write having just landed
        start = time.perf_counter()
        session.schema()
        dirty_latencies.append(time.perf_counter() - start)
        start = time.perf_counter()
        session.schema()  # quiet feed: served from cache
        cached_latencies.append(time.perf_counter() - start)
    return {
        "dirty_ms": float(np.median(dirty_latencies)) * 1000,
        "cached_ms": float(np.median(cached_latencies)) * 1000,
    }


def bench_deletes(batches, config, rng) -> dict:
    session = SchemaSession(
        config, schema_name="bench-deletes", retain_union=True
    )
    node_ids: list[str] = []
    for batch in batches:
        session.apply(ChangeSet.from_graph(batch))
        node_ids.extend(batch.node_ids())
    victims = list(
        rng.choice(
            sorted(set(node_ids)),
            size=int(len(set(node_ids)) * DELETE_FRACTION),
            replace=False,
        )
    )
    chunk = max(1, len(victims) // 20)
    deleted_nodes = deleted_edges = 0
    start = time.perf_counter()
    for lo in range(0, len(victims), chunk):
        report = session.apply(
            ChangeSet.deletions(nodes=victims[lo : lo + chunk])
        )
        deleted_nodes += report.nodes_deleted
        deleted_edges += report.edges_deleted
    elapsed = time.perf_counter() - start
    removed = deleted_nodes + deleted_edges
    return {
        "deleted_nodes": deleted_nodes,
        "deleted_edges": deleted_edges,
        "seconds": elapsed,
        "deletes_per_second": removed / max(elapsed, 1e-12),
    }


def bench_checkpoint(session: SchemaSession) -> tuple[bool, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.ckpt"
        start = time.perf_counter()
        session.checkpoint(path)
        checkpoint_seconds = time.perf_counter() - start
        size = path.stat().st_size
        start = time.perf_counter()
        restored = SchemaSession.restore(path)
        restore_seconds = time.perf_counter() - start
    identical = schema_fingerprint(restored.schema_graph) == schema_fingerprint(
        session.schema_graph
    )
    return identical, {
        "checkpoint_ms": checkpoint_seconds * 1000,
        "restore_ms": restore_seconds * 1000,
        "bytes": size,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI scale")
    parser.add_argument("--batches", type=int, default=None)
    parser.add_argument("--nodes-per-batch", type=int, default=None)
    parser.add_argument("--json", type=Path, default=None, metavar="PATH")
    args = parser.parse_args(argv)

    batch_count = args.batches or (QUICK_BATCHES if args.quick else FULL_BATCHES)
    nodes = args.nodes_per_batch or (QUICK_NODES if args.quick else FULL_NODES)
    batches = synthetic_stream(batch_count, nodes, SEED)
    total = sum(len(b) for b in batches)
    print(
        f"session ops bench: {batch_count} change-sets, ~{nodes} nodes each, "
        f"{total:,} elements total"
    )

    config = PGHiveConfig(seed=SEED, infer_keys=True)
    session, inserts = bench_inserts(batches, config)
    print(
        f"  inserts    {inserts['inserts_per_second']:10,.0f} elements/sec "
        f"({inserts['elements']:,} elements in {inserts['seconds']:.2f}s)"
    )

    snapshots = bench_snapshots(session)
    print(
        f"  snapshot   dirty {snapshots['dirty_ms']:7.2f}ms   "
        f"cached {snapshots['cached_ms']:7.4f}ms"
    )

    deletes = bench_deletes(batches, config, np.random.default_rng(SEED))
    print(
        f"  deletes    {deletes['deletes_per_second']:10,.0f} elements/sec "
        f"({deletes['deleted_nodes']:,}N + {deletes['deleted_edges']:,}E "
        f"in {deletes['seconds']:.2f}s)"
    )

    identical, checkpoint = bench_checkpoint(session)
    print(
        f"  checkpoint {checkpoint['checkpoint_ms']:7.1f}ms write, "
        f"{checkpoint['restore_ms']:7.1f}ms restore, "
        f"{checkpoint['bytes'] / 1e6:.2f}MB on disk, "
        f"restore bit-identical: {identical}"
    )

    payload = {
        "batches": batch_count,
        "nodes_per_batch": nodes,
        "total_elements": total,
        "seed": SEED,
        "inserts": inserts,
        "snapshots": snapshots,
        "deletes": deletes,
        "checkpoint": checkpoint,
        "restore_identical": identical,
    }
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2))
        print(f"  wrote {args.json}")

    if not identical:
        print("FAIL: restored session fingerprint differs from the original")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

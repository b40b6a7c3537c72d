"""Sharded ingestion scaling: throughput vs shards and dispatch.

Drives one synthetic columnar insert stream through
:class:`ShardedSchemaSession` across a variant grid -- shard count x
dispatch window -- and reports elements/sec plus the speedup over that
variant's own 1-shard run.  Both dispatch variants take the session's
one stage/finish path: "lockstep" calls ``apply`` per change-set (a
window of one dispatch), "pipeline" calls ``ingest_stream`` (a window of
``max(2, n_shards)`` dispatches in flight).  Process shards use the platform's handoff: zero-copy ``shm`` where
POSIX shared memory works, ``pickle`` otherwise (each row records
which).  Two measurements ride along:

* **per-hop payload bytes** -- what one shard part costs on the executor
  pipe: the full pickle versus the shm descriptor (name + layout; the
  rows stay in the shared block).  Measured on the coordinator alone, so
  the number is meaningful on any machine, single-core CI included.
* **merged-snapshot latency** at each shard count.

Gates:

* fingerprint gate (unconditional, every variant, full and ``--quick``):
  each run must match a single :class:`SchemaSession` consuming the same
  feed exactly;
* leak gate (unconditional): the shm block registry must own nothing
  after the runs;
* speedup gate: >= 2x at 4 process shards (best variant) -- enforced
  only when ``os.cpu_count() >= 4`` and 4 shards are in the sweep; on
  smaller machines process shards only add IPC overhead and the bench
  still measures honestly.  ``--require-speedup R`` overrides the floor.

Results merge into ``BENCH_ingest.json`` under the ``sharded_scaling``
key, alongside the ``dedup_ingest`` section.

Run:        PYTHONPATH=src python benchmarks/bench_sharded_scaling.py
Quick (CI): PYTHONPATH=src python benchmarks/bench_sharded_scaling.py --quick
JSON:       ... --json BENCH_ingest.json
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_common import merge_json, synthetic_stream

from repro.core.config import PGHiveConfig
from repro.core.session import SchemaSession
from repro.core.sharding import ShardedSchemaSession
from repro.core.shm import encode_changeset_shm, global_registry, shm_available
from repro.graph.changes import ChangeSet
from repro.graph.columnar import BatchBuilder, global_interner
from repro.schema.model import schema_fingerprint

SEED = 2026
FULL_BATCHES, FULL_NODES, FULL_SHARDS = 30, 400, (1, 2, 4)
QUICK_BATCHES, QUICK_NODES, QUICK_SHARDS = 8, 120, (1, 2)
#: Acceptance floor at 4 process shards on >= 4 cores.
REQUIRED_SPEEDUP = 2.0


def columnar_change_sets(batches) -> list[ChangeSet]:
    """Columnar change-sets (one per batch) over the process interner.

    Only columnar parts travel through shared memory, so the bench feeds
    the representation the handoff is built for; each synthetic batch is
    endpoint-complete (hubs are re-emitted per batch), so no stub rows
    are needed.
    """
    interner = global_interner()
    change_sets = []
    for batch in batches:
        builder = BatchBuilder(interner)
        for node in batch.nodes():
            builder.put_node_element(node)
        for edge in batch.edges():
            builder.add_edge_element(edge)
        change_sets.append(ChangeSet.inserts_columnar(builder.freeze()))
    return change_sets


def measure_payload_bytes(change_sets) -> dict:
    """Per-hop bytes: whole-change-set pickle vs shm descriptor."""
    registry = global_registry()
    pickled = descriptor_bytes = 0
    for change_set in change_sets:
        pickled += len(
            pickle.dumps(change_set, protocol=pickle.HIGHEST_PROTOCOL)
        )
        descriptor = encode_changeset_shm(change_set, registry)
        try:
            descriptor_bytes += descriptor.wire_nbytes()
        finally:
            registry.release(descriptor.block)
    hops = max(len(change_sets), 1)
    return {
        "pickle_bytes_per_hop": pickled / hops,
        "shm_descriptor_bytes_per_hop": descriptor_bytes / hops,
        "payload_reduction_x": pickled / max(descriptor_bytes, 1),
    }


def single_session_reference(change_sets, config):
    session = SchemaSession(config, schema_name="scaling-single")
    start = time.perf_counter()
    for change_set in change_sets:
        session.apply(change_set)
    ingest_seconds = time.perf_counter() - start
    return schema_fingerprint(session.schema()), ingest_seconds


def bench_variant(change_sets, n_shards, pipelined, parallel):
    with ShardedSchemaSession(
        PGHiveConfig(seed=SEED),
        schema_name="scaling-sharded",
        n_shards=n_shards,
        parallel=parallel,
    ) as session:
        start = time.perf_counter()
        if pipelined:
            session.ingest_stream(change_sets)
        else:
            for change_set in change_sets:
                session.apply(change_set)
        ingest_seconds = time.perf_counter() - start
        start = time.perf_counter()
        schema = session.schema()
        merge_seconds = time.perf_counter() - start
        fingerprint = schema_fingerprint(schema)
        handoff = session.handoff
    return fingerprint, {
        "n_shards": n_shards,
        "handoff": handoff,
        "pipelined": pipelined,
        "parallel": parallel,
        "ingest_seconds": ingest_seconds,
        "merge_ms": merge_seconds * 1000,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI scale")
    parser.add_argument("--batches", type=int, default=None)
    parser.add_argument("--nodes-per-batch", type=int, default=None)
    parser.add_argument(
        "--serial",
        action="store_true",
        help="in-process shards instead of worker processes",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        metavar="R",
        help="override the 4-shard speedup floor (default: "
        f"{REQUIRED_SPEEDUP}x, gated only on >= 4 cores)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=Path("BENCH_ingest.json"),
        help="shared bench output path (default: BENCH_ingest.json)",
    )
    args = parser.parse_args(argv)

    batch_count = args.batches or (QUICK_BATCHES if args.quick else FULL_BATCHES)
    nodes = args.nodes_per_batch or (QUICK_NODES if args.quick else FULL_NODES)
    shard_counts = QUICK_SHARDS if args.quick else FULL_SHARDS
    parallel = not args.serial
    cores = os.cpu_count() or 1

    batches = synthetic_stream(batch_count, nodes, SEED)
    change_sets = columnar_change_sets(batches)
    total = sum(len(batch) for batch in batches)
    handoff = "shm" if parallel and shm_available() else "pickle"
    mode = "process shards" if parallel else "serial shards"
    print(
        f"sharded scaling bench: {batch_count} columnar change-sets, "
        f"~{nodes} nodes each, {total:,} elements, {mode}, "
        f"handoff {handoff}, {cores} core(s)"
    )

    payload_bytes = None
    if shm_available():
        payload_bytes = measure_payload_bytes(change_sets)
        print(
            f"  per-hop payload   {payload_bytes['pickle_bytes_per_hop']:10,.0f} B"
            " pickled vs "
            f"{payload_bytes['shm_descriptor_bytes_per_hop']:,.0f} B shm "
            f"descriptor ({payload_bytes['payload_reduction_x']:.0f}x smaller)"
        )

    config = PGHiveConfig(seed=SEED)
    reference, single_seconds = single_session_reference(change_sets, config)
    print(
        f"  single session    {total / max(single_seconds, 1e-12):10,.0f} "
        f"elements/sec ({single_seconds:.2f}s)"
    )

    rows = []
    fingerprints_match = True
    baselines: dict[bool, float] = {}
    for pipelined in (False, True):
        for n_shards in shard_counts:
            fingerprint, row = bench_variant(
                change_sets, n_shards, pipelined, parallel
            )
            row["matches_single_session"] = fingerprint == reference
            fingerprints_match &= row["matches_single_session"]
            baselines.setdefault(pipelined, row["ingest_seconds"])
            row["throughput"] = total / max(row["ingest_seconds"], 1e-12)
            row["speedup_vs_1_shard"] = baselines[pipelined] / max(
                row["ingest_seconds"], 1e-12
            )
            rows.append(row)
            dispatch = "pipeline" if pipelined else "lockstep"
            print(
                f"  {n_shards} shard(s) {row['handoff']:>6}/{dispatch:<8} "
                f"{row['throughput']:10,.0f} elements/sec  "
                f"({row['ingest_seconds']:.2f}s ingest, "
                f"{row['merge_ms']:.1f}ms snapshot, "
                f"{row['speedup_vs_1_shard']:.2f}x vs 1 shard, "
                f"match: {row['matches_single_session']})"
            )

    leaked_blocks = list(global_registry().live_blocks())

    required = (
        args.require_speedup
        if args.require_speedup is not None
        else REQUIRED_SPEEDUP
    )
    gate_shards = max(shard_counts)
    speedup_gated = parallel and cores >= 4 and gate_shards >= 4
    best_speedup = max(
        (
            row["speedup_vs_1_shard"]
            for row in rows
            if row["n_shards"] == gate_shards
        ),
        default=1.0,
    )

    merge_json(
        args.json,
        "sharded_scaling",
        {
            "quick": args.quick,
            "batches": batch_count,
            "nodes_per_batch": nodes,
            "total_elements": total,
            "seed": SEED,
            "cores": cores,
            "parallel": parallel,
            "shm_available": shm_available(),
            "payload_bytes": payload_bytes,
            "single_session_seconds": single_seconds,
            "variants": rows,
            "fingerprints_match": fingerprints_match,
            "leaked_blocks": leaked_blocks,
            "speedup_gate": {
                "enforced": speedup_gated,
                "required": required,
                "at_shards": gate_shards,
                "best": best_speedup,
            },
        },
    )
    print(f"  wrote {args.json}")

    if not fingerprints_match:
        print("FAIL: a sharded run diverged from the single-session schema")
        return 1
    if leaked_blocks:
        print(f"FAIL: leaked shared-memory blocks: {leaked_blocks}")
        return 1
    if speedup_gated and best_speedup < required:
        print(
            f"FAIL: best {gate_shards}-shard speedup {best_speedup:.2f}x "
            f"< required {required:.2f}x"
        )
        return 1
    if not speedup_gated:
        print(
            f"  (speedup gate skipped: {cores} core(s), "
            f"max {gate_shards} shard(s) in sweep)"
        )
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

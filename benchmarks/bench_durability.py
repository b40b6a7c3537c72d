"""Durability overhead: WAL fsync policies vs a no-WAL baseline.

Drives the same synthetic change feed through a plain
:class:`SchemaSession` (no WAL) and through
:class:`DurableSchemaSession` under each fsync policy, then runs a
crash-recovery drill: crash mid-feed, recover from disk, finish the
feed, and gate on fingerprint equality with the uncrashed run.

Acceptance gate (full mode): with ``fsync=off`` the WAL costs at most
10% insert throughput vs the no-WAL baseline.  ``--quick`` (CI) still
runs every policy and the recovery drill but skips the overhead gate --
shared runners are too noisy for a throughput bound.

Run:        PYTHONPATH=src python benchmarks/bench_durability.py
Quick (CI): PYTHONPATH=src python benchmarks/bench_durability.py --quick
JSON:       ... --json BENCH_durability.json
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_common import synthetic_stream

from repro.core.config import PGHiveConfig
from repro.core.recovery import DurableSchemaSession
from repro.core.session import SchemaSession
from repro.graph.changes import ChangeSet
from repro.schema.model import schema_fingerprint

SEED = 2026
FULL_BATCHES, FULL_NODES = 40, 300
QUICK_BATCHES, QUICK_NODES = 8, 100
#: Full-mode gate: fsync=off WAL overhead vs no-WAL baseline.
MAX_OFF_OVERHEAD = 0.10
REPEATS = 3


def feed_elements(batches):
    return [ChangeSet.from_graph(batch) for batch in batches]


def run_baseline(feed, config) -> tuple[tuple, dict]:
    best = None
    fingerprint = None
    for _ in range(REPEATS):
        session = SchemaSession(config, schema_name="bench-durability")
        start = time.perf_counter()
        for change_set in feed:
            session.apply(change_set)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
        fingerprint = schema_fingerprint(session.schema())
    elements = sum(cs.insert_count for cs in feed)
    return fingerprint, {
        "seconds": best,
        "inserts_per_second": elements / max(best, 1e-12),
    }


def run_durable(feed, config, fsync) -> tuple[tuple, dict]:
    best = None
    fingerprint = None
    wal_bytes = 0
    for _ in range(REPEATS):
        root = Path(tempfile.mkdtemp(prefix=f"bench-wal-{fsync}-"))
        try:
            session = DurableSchemaSession(
                root / "sess",
                config,
                schema_name="bench-durability",
                fsync=fsync,
            )
            start = time.perf_counter()
            for change_set in feed:
                session.apply(change_set)
            elapsed = time.perf_counter() - start
            session.close()
            wal_bytes = sum(
                path.stat().st_size for path in session.wal.segment_paths()
            )
            best = elapsed if best is None else min(best, elapsed)
            fingerprint = schema_fingerprint(session.schema())
        finally:
            shutil.rmtree(root, ignore_errors=True)
    elements = sum(cs.insert_count for cs in feed)
    return fingerprint, {
        "seconds": best,
        "inserts_per_second": elements / max(best, 1e-12),
        "wal_bytes": wal_bytes,
    }


def recovery_drill(feed, config, baseline_fingerprint) -> tuple[bool, dict]:
    """Crash mid-feed, recover, finish; gate on fingerprint equality."""
    crash_at = len(feed) // 2
    root = Path(tempfile.mkdtemp(prefix="bench-recovery-"))
    try:
        directory = root / "sess"
        session = DurableSchemaSession(
            directory, config, schema_name="bench-durability", fsync="batch"
        )
        for change_set in feed[: crash_at // 2]:
            session.apply(change_set)
        session.checkpoint()
        for change_set in feed[crash_at // 2 : crash_at]:
            session.apply(change_set)
        del session  # crash: no close, no final checkpoint

        start = time.perf_counter()
        recovered = DurableSchemaSession.recover(
            directory, config=config, schema_name="bench-durability"
        )
        recover_seconds = time.perf_counter() - start
        replayed = recovered.sequence - crash_at // 2
        for change_set in feed[recovered.sequence :]:
            recovered.apply(change_set)
        identical = (
            schema_fingerprint(recovered.schema()) == baseline_fingerprint
        )
        recovered.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return identical, {
        "crash_at": crash_at,
        "records_replayed": replayed,
        "recover_ms": recover_seconds * 1000,
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
    feed = feed_elements(synthetic_stream(batch_count, nodes, SEED))
    total = sum(cs.insert_count for cs in feed)
    print(
        f"durability bench: {batch_count} change-sets, ~{nodes} nodes each, "
        f"{total:,} elements total"
    )

    config = PGHiveConfig(seed=SEED, infer_keys=True)
    baseline_fingerprint, baseline = run_baseline(feed, config)
    print(
        f"  no-WAL baseline   {baseline['inserts_per_second']:10,.0f} "
        f"elements/sec"
    )

    policies = {}
    fingerprints_match = True
    for fsync in ("off", "batch", "always"):
        fingerprint, result = run_durable(feed, config, fsync)
        overhead = (
            result["seconds"] / max(baseline["seconds"], 1e-12)
        ) - 1.0
        result["overhead_vs_baseline"] = overhead
        policies[fsync] = result
        fingerprints_match &= fingerprint == baseline_fingerprint
        print(
            f"  fsync={fsync:<6}      {result['inserts_per_second']:10,.0f} "
            f"elements/sec  ({overhead:+7.1%} vs baseline, "
            f"WAL {result['wal_bytes'] / 1e6:.2f}MB)"
        )

    recovered_identical, drill = recovery_drill(
        feed, config, baseline_fingerprint
    )
    print(
        f"  recovery drill    crash@{drill['crash_at']}, "
        f"{drill['records_replayed']} records replayed in "
        f"{drill['recover_ms']:.1f}ms, fingerprint identical: "
        f"{recovered_identical}"
    )

    off_overhead = policies["off"]["overhead_vs_baseline"]
    gate_checked = not args.quick
    gate_ok = off_overhead <= MAX_OFF_OVERHEAD

    payload = {
        "batches": batch_count,
        "nodes_per_batch": nodes,
        "total_elements": total,
        "seed": SEED,
        "baseline": baseline,
        "policies": policies,
        "recovery": drill,
        "recovery_identical": recovered_identical,
        "fingerprints_match": fingerprints_match,
        "max_off_overhead": MAX_OFF_OVERHEAD,
        "off_overhead_gate": {"checked": gate_checked, "ok": gate_ok},
    }
    if args.json is not None:
        args.json.write_text(json.dumps(payload, indent=2))
        print(f"  wrote {args.json}")

    if not (recovered_identical and fingerprints_match):
        print("FAIL: a durable run diverged from the no-WAL baseline")
        return 1
    if gate_checked and not gate_ok:
        print(
            f"FAIL: fsync=off overhead {off_overhead:.1%} exceeds the "
            f"{MAX_OFF_OVERHEAD:.0%} budget"
        )
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Columnar vs element-input ingest throughput (single core).

Writes one synthetic labelled graph to a JSON-lines file, decodes the
records once, then ingests the same decoded records twice into a
streaming :class:`SchemaSession`:

* ``element`` -- records become ``Node``/``Edge`` dataclasses
  (:func:`record_to_element`), :func:`changesets_from_elements` groups
  them, and the session materialises a ``PropertyGraph`` per change-set
  and converts it to an :class:`ElementBatch` at its boundary;
* ``columnar`` -- records intern into raw rows
  (:func:`columnar_rows_from_records`) and group into
  :class:`ElementBatch` payloads; the pipeline signs one MinHash
  pattern per distinct structure and accumulators fold value columns.

The timed region starts at the decoded records on both sides, so the
gated speedup measures the *ingestion pipelines* -- element
construction, grouping, preprocessing, LSH, extraction, accumulation --
not the shared JSON byte decoding (which is file-format cost and
identical in both runs).  End-to-end from-disk timings (decode
included) are measured and reported as well.

Correctness gate (always on, both modes): all schemas must be
fingerprint-identical.  Speedup gate (also always on, both modes):
every measured size must reach its entry in ``MIN_SPEEDUP_BY_SCALE``
or the run fails (exit 1).  Thresholds are per scale because speedup
grows with element count (fixed per-batch costs amortise); a single
flat gate either under-constrains small sizes or can never pass at
them.  ``--quick`` (CI) runs only the smallest size but still enforces
that size's gate.  The trajectory merges into ``BENCH_ingest.json``
(or ``--json PATH``) under the ``ingest_columnar`` key, alongside
``bench_dedup_ingest.py``'s ``dedup_ingest`` section.

Run:        PYTHONPATH=src python benchmarks/bench_ingest_columnar.py
Quick (CI): PYTHONPATH=src python benchmarks/bench_ingest_columnar.py --quick
JSON:       ... --json BENCH_ingest.json
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

from bench_common import merge_json

from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.session import SchemaSession
from repro.graph.changes import changesets_from_elements
from repro.graph.columnar import columnar_changesets_from_rows
from repro.graph.json_io import (
    columnar_rows_from_records,
    iter_changesets_jsonl,
    iter_columnar_changesets_jsonl,
    record_to_element,
    write_graph_jsonl,
)
from repro.graph.model import Edge, Node, PropertyGraph
from repro.schema.model import schema_fingerprint

SEED = 2026
#: Acceptance scale (ISSUE 5): >= 3x single-core ingest at 100k elements.
FULL_SIZES = (10_000, 100_000)
QUICK_SIZES = (10_000,)
#: Per-scale speedup floors, enforced at *every* measured size in both
#: full and --quick modes.  Measured trajectory: ~2.6x at 10k (fixed
#: per-batch costs still visible), ~3.5x at 100k where the paper-scale
#: >=3x acceptance gate applies.
MIN_SPEEDUP_BY_SCALE = {10_000: 2.0, 100_000: 3.0}
BATCH_SIZE = 5_000
#: Best-of-N timing (this is a throughput gate; min damps scheduler noise).
REPEATS = 2
#: Node share of the element budget (rest becomes edges).
NODE_SHARE = 0.6

LABEL_SETS = (
    frozenset({"Person"}),
    frozenset({"Person", "Student"}),
    frozenset({"City"}),
    frozenset({"Company"}),
    frozenset(),
)
EDGE_LABEL_SETS = (frozenset({"KNOWS"}), frozenset({"WORKS_AT"}))


def synthetic_graph(element_count: int, seed: int) -> PropertyGraph:
    """One labelled graph with mixed-type, partially-optional properties."""
    rng = np.random.default_rng(seed)
    node_count = int(element_count * NODE_SHARE)
    edge_count = element_count - node_count
    graph = PropertyGraph(f"ingest-{element_count}")
    for index in range(node_count):
        labels = LABEL_SETS[int(rng.integers(0, len(LABEL_SETS)))]
        properties = {"name": f"name{index}"}
        if rng.random() < 0.6:
            properties["age"] = int(rng.integers(0, 90))
        if rng.random() < 0.4:
            properties["score"] = float(rng.random()) * 10 + 0.5
        if rng.random() < 0.2:
            properties["active"] = bool(rng.random() < 0.5)
        if rng.random() < 0.15:
            properties["joined"] = f"2024-0{int(rng.integers(1, 10))}-12"
        graph.add_node(Node(f"n{index}", labels, properties))
    for index in range(edge_count):
        source = f"n{int(rng.integers(0, node_count))}"
        target = f"n{int(rng.integers(0, node_count))}"
        labels = EDGE_LABEL_SETS[int(rng.random() < 0.3)]
        properties = (
            {"since": 2000 + int(rng.integers(0, 25))}
            if rng.random() < 0.6
            else {}
        )
        graph.add_edge(Edge(f"e{index}", source, target, labels, properties))
    return graph


def _session() -> SchemaSession:
    config = PGHiveConfig(method=ClusteringMethod.MINHASH, seed=SEED)
    return SchemaSession(config, schema_name="ingest")


def ingest_feed(change_sets) -> tuple[tuple, float]:
    """Drive one change-set feed to a final schema; returns (fp, seconds)."""
    session = _session()
    start = time.perf_counter()
    for change_set in change_sets:
        session.apply(change_set)
    session.schema()
    seconds = time.perf_counter() - start
    return schema_fingerprint(session.schema()), seconds


def element_feed(records):
    return changesets_from_elements(
        (record_to_element(record) for record in records), BATCH_SIZE
    )


def columnar_feed(records):
    return columnar_changesets_from_rows(
        columnar_rows_from_records(records), BATCH_SIZE
    )


def best_of(make_feed, records) -> tuple[tuple, float]:
    fingerprint, best = None, float("inf")
    for _ in range(REPEATS):
        fingerprint, seconds = ingest_feed(make_feed(records))
        best = min(best, seconds)
    return fingerprint, best


def run(sizes) -> tuple[int, list[dict]]:
    results: list[dict] = []
    failed = False
    for element_count in sizes:
        graph = synthetic_graph(element_count, SEED)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "ingest.jsonl"
            write_graph_jsonl(graph, path)
            with path.open() as handle:
                records = [json.loads(line) for line in handle if line.strip()]
            element_fp, element_seconds = best_of(element_feed, records)
            columnar_fp, columnar_seconds = best_of(columnar_feed, records)
            disk_element_fp, disk_element_seconds = ingest_feed(
                iter_changesets_jsonl(path, batch_size=BATCH_SIZE)
            )
            disk_columnar_fp, disk_columnar_seconds = ingest_feed(
                iter_columnar_changesets_jsonl(path, batch_size=BATCH_SIZE)
            )
        identical = (
            element_fp == columnar_fp == disk_element_fp == disk_columnar_fp
        )
        speedup = element_seconds / columnar_seconds
        disk_speedup = disk_element_seconds / disk_columnar_seconds
        throughput = element_count / columnar_seconds
        results.append(
            {
                "elements": element_count,
                "element_seconds": round(element_seconds, 4),
                "columnar_seconds": round(columnar_seconds, 4),
                "element_eps": round(element_count / element_seconds),
                "columnar_eps": round(throughput),
                "speedup": round(speedup, 2),
                "disk_element_seconds": round(disk_element_seconds, 4),
                "disk_columnar_seconds": round(disk_columnar_seconds, 4),
                "disk_speedup": round(disk_speedup, 2),
                "fingerprint_identical": identical,
            }
        )
        print(
            f"[{element_count:>7}] element {element_seconds:6.2f}s "
            f"({element_count / element_seconds:8.0f} el/s)  "
            f"columnar {columnar_seconds:6.2f}s ({throughput:8.0f} el/s)  "
            f"speedup {speedup:4.2f}x  "
            f"(from disk incl. JSON decode: {disk_speedup:4.2f}x)  "
            f"fingerprint {'OK' if identical else 'MISMATCH'}"
        )
        if not identical:
            print("FAIL: columnar schema diverges from the element oracle")
            failed = True
        floor = MIN_SPEEDUP_BY_SCALE.get(element_count)
        if floor is None:
            print(
                f"FAIL: no speedup gate registered for {element_count} "
                "elements; add it to MIN_SPEEDUP_BY_SCALE"
            )
            failed = True
        elif speedup < floor:
            print(
                f"FAIL: columnar speedup {speedup:.2f}x at "
                f"{element_count} elements is below the {floor}x gate"
            )
            failed = True
        else:
            print(
                f"gate OK: {speedup:.2f}x >= {floor}x at "
                f"{element_count} elements"
            )
    return (1 if failed else 0), results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: smallest size only (all gates still enforced)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=Path("BENCH_ingest.json"),
        help="trajectory output path (default: BENCH_ingest.json)",
    )
    args = parser.parse_args()
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    exit_code, results = run(sizes)
    payload = {
        "quick": args.quick,
        "batch_size": BATCH_SIZE,
        "min_speedup_by_scale": {
            str(size): MIN_SPEEDUP_BY_SCALE[size] for size in sizes
        },
        "results": results,
    }
    merge_json(args.json, "ingest_columnar", payload)
    print(f"wrote {args.json}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

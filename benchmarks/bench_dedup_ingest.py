"""Structural-dedup ingest vs repeat ratio (single core).

Generates synthetic streams whose *structural* repeat ratio -- the share
of elements whose ``(labels, property-key set)`` structure was already
seen earlier in the stream -- is swept across a target grid, then
ingests each stream three ways into a streaming :class:`SchemaSession`:

* ``element``  -- ``Node``/``Edge`` dataclasses through
  :func:`changesets_from_elements` (interned into the same columnar
  grouper), with ``structural_dedup=False``;
* ``columnar`` -- interned rows through
  :func:`columnar_changesets_from_rows` with ``structural_dedup=False``;
* ``dedup``    -- the same columnar feed with ``structural_dedup=True``,
  so repeats of an interned element signature take the
  O(distinct-structures) fast path (repeat clusters, accumulator
  ``observe_repeat`` folds, signature-grouped WAL encoding).

The structure generator is zipfian: repeats draw from a small hot pool
with ``1/rank**1.1`` weights, while fresh elements walk an endless
sequence of new key-set *combinations* over a bounded key pool.  Keys
bound, structures unbounded -- matching real exports, where property
vocabulary saturates long before structural variety does.  The realised
repeat ratio is measured from the emitted stream and recorded next to
the target.

Gates (always on, full and ``--quick``):

* every schema fingerprint-identical across all three feeds (the feed
  is labelled, where dedup is exact; see DESIGN.md "Structural dedup"
  for the unlabeled case);
* dedup must keep rows out of the full pipeline: the rows reaching
  ``Preprocessor.node_features_columnar``/``edge_features_columnar``
  with dedup off, divided by the rows reaching them with dedup on over
  the same columnar feed, must reach ``MIN_PREPROCESS_REDUCTION`` for
  its ``(elements, ratio)`` row.  The counts are deterministic (they
  repeat exactly from run to run), so the gate does not flake with
  machine load the way a wall-clock speedup gate does;
* the signature-grouped wire encoding must shrink change-set bytes by
  ``MIN_WAL_REDUCTION`` versus a reconstructed v1 per-row encoding.

Timings of all three feeds (best of ``REPEATS``) are reported, not gated.
Results merge into ``BENCH_ingest.json`` under the ``dedup_ingest`` key.

Run:        PYTHONPATH=src python benchmarks/bench_dedup_ingest.py
Quick (CI): PYTHONPATH=src python benchmarks/bench_dedup_ingest.py --quick
JSON:       ... --json BENCH_ingest.json
"""
from __future__ import annotations

import argparse
import itertools
import pickle
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_common import merge_json

from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.preprocess import Preprocessor
from repro.core.session import SchemaSession
from repro.graph import changesets_from_elements
from repro.graph.changes import ChangeSet
from repro.graph.columnar import columnar_changesets_from_rows
from repro.graph.json_io import columnar_rows_from_records, record_to_element
from repro.schema.model import schema_fingerprint

SEED = 7
#: Full mode sweeps the repeat-ratio grid at one paper-ish scale; quick
#: (CI) runs one mid-ratio row at a smaller scale, gates still enforced.
FULL_ROWS = ((100_000, 0.80), (100_000, 0.90), (100_000, 0.99))
QUICK_ROWS = ((20_000, 0.90),)
#: Floors on (rows preprocessed with dedup off) / (rows preprocessed
#: with dedup on), per (elements, target ratio) row.  Each is the ratio
#: measured before this gate existed, rounded down to two decimals; the
#: counts behind it (off / on) were 173742 / 28057, 173687 / 19057 and
#: 173637 / 10854 for the full rows and 30715 / 9228 for the quick row
#: (off counts exceed the element count by the stub rows shipped).
MIN_PREPROCESS_REDUCTION = {
    (100_000, 0.80): 6.19,
    (100_000, 0.90): 9.11,
    (100_000, 0.99): 15.99,
    (20_000, 0.90): 3.32,
}
#: Signature-grouped wire v2 vs reconstructed per-row v1 bytes; measured
#: 2.9-3.2x across the grid.
MIN_WAL_REDUCTION = 2.5
BATCH_SIZE = 5_000
#: Best-of-N timing (reported only; min damps scheduler noise).
REPEATS = 2
#: Node share of the element budget (rest becomes edges).
NODE_SHARE = 0.6
#: Zipf exponent for hot-structure draws.
ZIPF_EXPONENT = 1.1

NODE_LABEL_SETS = (
    ["Person"],
    ["Person", "Student"],
    ["City"],
    ["Company"],
    ["Org"],
    ["Post"],
)
EDGE_LABEL_SETS = (["KNOWS"], ["WORKS_AT"], ["LIKES"])
#: Bounded property vocabulary.  Fresh structures are new *combinations*
#: of these keys, never new keys: an unbounded key vocabulary would grow
#: the property-indicator vector dimension (and with it Word2Vec and
#: distance-scale estimation) and the bench would measure preprocessing
#: blow-up, not dedup.
KEY_POOL = [f"p{index:02d}" for index in range(36)]
INT_KEYS = set(KEY_POOL[::3])
FLOAT_KEYS = set(KEY_POOL[1::5])
BOOL_KEYS = set(KEY_POOL[2::7])


def _fresh_node_structures():
    """Endless distinct (labels, keys) node structures over KEY_POOL."""
    for size in itertools.count(2):
        for combo in itertools.combinations(KEY_POOL, min(size, 6)):
            for labels in NODE_LABEL_SETS:
                yield labels, list(combo)


def _fresh_edge_structures():
    """Endless distinct (labels, keys) edge structures over KEY_POOL."""
    for combo in itertools.combinations(KEY_POOL, 3):
        for labels in EDGE_LABEL_SETS:
            yield labels, list(combo)


def _value_for(key: str, index: int, rng) -> object:
    if key in INT_KEYS:
        return int(rng.integers(0, 90))
    if key in FLOAT_KEYS:
        return float(rng.random())
    if key in BOOL_KEYS:
        return bool(rng.random() < 0.5)
    return f"v{index % 97}"


def make_records(
    element_count: int, repeat_ratio: float, seed: int = SEED
) -> tuple[list[dict], float]:
    """One synthetic stream at a target structural repeat ratio.

    Returns ``(records, realised_ratio)`` where the realised ratio is
    measured from the emitted stream: the share of records whose
    ``(kind, labels, key set)`` was already emitted earlier.
    """
    rng = np.random.default_rng(seed)
    node_count = int(element_count * NODE_SHARE)
    hot_nodes = [
        (labels, [KEY_POOL[k] for k in range(1 + (rank % 4))])
        for rank, labels in enumerate(NODE_LABEL_SETS)
    ]
    hot_edges = [
        (labels, [KEY_POOL[10 + rank]])
        for rank, labels in enumerate(EDGE_LABEL_SETS)
    ]
    weights = 1.0 / np.arange(1, len(hot_nodes) + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    fresh = rng.random(element_count) >= repeat_ratio
    picks = rng.choice(len(hot_nodes), size=element_count, p=weights)
    node_gen = _fresh_node_structures()
    edge_gen = _fresh_edge_structures()
    records: list[dict] = []
    for index in range(node_count):
        labels, keys = next(node_gen) if fresh[index] else hot_nodes[picks[index]]
        records.append(
            {
                "kind": "node",
                "id": f"n{index}",
                "labels": labels,
                "properties": {key: _value_for(key, index, rng) for key in keys},
            }
        )
    for index in range(node_count, element_count):
        if fresh[index]:
            labels, keys = next(edge_gen)
        else:
            labels, keys = hot_edges[int(picks[index]) % len(hot_edges)]
        records.append(
            {
                "kind": "edge",
                "id": f"e{index}",
                "source": f"n{int(rng.integers(0, node_count))}",
                "target": f"n{int(rng.integers(0, node_count))}",
                "labels": labels,
                "properties": {key: _value_for(key, index, rng) for key in keys},
            }
        )
    seen: set[tuple] = set()
    repeats = 0
    for record in records:
        structure = (
            record["kind"],
            tuple(record["labels"]),
            tuple(sorted(record["properties"])),
        )
        if structure in seen:
            repeats += 1
        else:
            seen.add(structure)
    return records, repeats / element_count


def _session(dedup: bool) -> SchemaSession:
    config = PGHiveConfig(
        method=ClusteringMethod.MINHASH, seed=SEED, structural_dedup=dedup
    )
    return SchemaSession(config, schema_name="dedup-ingest")


#: The preprocessor's feature builders and the batch block each one reads.
_FEATURE_BUILDERS = {
    "node_features_columnar": "nodes",
    "edge_features_columnar": "edges",
}


@contextmanager
def preprocessed_rows() -> Iterator[list[int]]:
    """Count the rows reaching the preprocessor's feature builders.

    Every row that dedup does not fold into an already-seen structure
    runs the full pipeline, and the full pipeline starts by vectorising
    it here; the count is therefore what dedup saves, free of timing
    noise.  Yields a one-element list holding the running count.
    """
    counter = [0]
    originals = {name: Preprocessor.__dict__[name] for name in _FEATURE_BUILDERS}

    def counting(original, block):
        def builder(self, batch):
            counter[0] += len(getattr(batch, block))
            return original(self, batch)

        return builder

    for name, block in _FEATURE_BUILDERS.items():
        setattr(Preprocessor, name, counting(originals[name], block))
    try:
        yield counter
    finally:
        for name, original in originals.items():
            setattr(Preprocessor, name, original)


def ingest_feed(change_sets, dedup: bool) -> tuple[tuple, float, int]:
    """Drive one change-set feed to a final schema.

    Returns ``(fingerprint, seconds, rows preprocessed)``.
    """
    session = _session(dedup)
    with preprocessed_rows() as rows:
        start = time.perf_counter()
        for change_set in change_sets:
            session.apply(change_set)
        session.schema()
        seconds = time.perf_counter() - start
    return schema_fingerprint(session.schema()), seconds, rows[0]


def best_run(make_feed, dedup: bool) -> tuple[tuple, float, int]:
    """Best-of-``REPEATS`` run; the row count must repeat exactly."""
    fingerprint, best, counts = None, float("inf"), set()
    for _ in range(REPEATS):
        fingerprint, seconds, rows = ingest_feed(make_feed(), dedup)
        best = min(best, seconds)
        counts.add(rows)
    if len(counts) != 1:
        raise RuntimeError(f"preprocessed row counts differ across runs: {counts}")
    return fingerprint, best, counts.pop()


def element_run(records) -> tuple[tuple, float, int]:
    return best_run(
        lambda: changesets_from_elements(
            (record_to_element(record) for record in records), BATCH_SIZE
        ),
        dedup=False,
    )


def columnar_run(records, dedup: bool) -> tuple[tuple, float, int]:
    return best_run(
        lambda: columnar_changesets_from_rows(
            columnar_rows_from_records(records), BATCH_SIZE
        ),
        dedup,
    )


def _wire_v1_bytes(change_set: ChangeSet) -> int:
    """Reconstructed wire v1 size: per-row records, pickled, uncompressed.

    The pre-dedup encoding shipped one fully-materialised row per
    element (id, sorted labels, keys, values) with no structure grouping
    and no compression; rebuilding it from the live batch gives the v1
    baseline without keeping a legacy encoder in the library.
    """
    batch = change_set.columnar
    interner = batch.interner
    record = {
        "version": 1,
        "kind": "columnar",
        "delete_nodes": [],
        "delete_edges": [],
        "stubs": sorted(change_set.stub_node_ids),
        "node_rows": [
            (
                batch.nodes.ids[row],
                sorted(interner.labelset(batch.nodes.labelset_list[row]).labels),
                interner.keyset(batch.nodes.keyset_list[row]).keys,
                tuple(batch.node_record(row)[2]),
            )
            for row in range(len(batch.nodes))
        ],
        "edge_rows": [
            (
                batch.edges.ids[row],
                batch.edge_record(row)[0],
                batch.edge_record(row)[1],
                sorted(interner.labelset(batch.edges.labelset_list[row]).labels),
                interner.keyset(batch.edges.keyset_list[row]).keys,
                tuple(batch.edge_record(row)[4]),
            )
            for row in range(len(batch.edges))
        ],
    }
    return len(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))


def wal_bytes(records) -> tuple[int, int]:
    """(v1, v2) wire bytes for the stream's change-sets."""
    v1 = v2 = 0
    for change_set in columnar_changesets_from_rows(
        columnar_rows_from_records(records), BATCH_SIZE
    ):
        v1 += _wire_v1_bytes(change_set)
        v2 += len(change_set.to_wire())
    return v1, v2


def run(rows) -> tuple[int, list[dict]]:
    results: list[dict] = []
    failed = False
    for element_count, target_ratio in rows:
        records, realised_ratio = make_records(element_count, target_ratio)
        element_fp, element_seconds, _ = element_run(records)
        dedup_fp, dedup_seconds, dedup_rows = columnar_run(records, dedup=True)
        plain_fp, plain_seconds, plain_rows = columnar_run(records, dedup=False)
        v1_bytes, v2_bytes = wal_bytes(records)
        identical = element_fp == dedup_fp == plain_fp
        reduction = plain_rows / dedup_rows
        wal_reduction = v1_bytes / v2_bytes
        results.append(
            {
                "elements": element_count,
                "target_repeat_ratio": target_ratio,
                "realised_repeat_ratio": round(realised_ratio, 4),
                "element_seconds": round(element_seconds, 4),
                "columnar_seconds": round(plain_seconds, 4),
                "dedup_seconds": round(dedup_seconds, 4),
                "element_eps": round(element_count / element_seconds),
                "columnar_eps": round(element_count / plain_seconds),
                "dedup_eps": round(element_count / dedup_seconds),
                "speedup_vs_element": round(element_seconds / dedup_seconds, 2),
                "speedup_vs_columnar": round(plain_seconds / dedup_seconds, 2),
                "preprocessed_rows_plain": plain_rows,
                "preprocessed_rows_dedup": dedup_rows,
                "preprocess_reduction": round(reduction, 3),
                "wal_v1_bytes": v1_bytes,
                "wal_v2_bytes": v2_bytes,
                "wal_reduction": round(wal_reduction, 2),
                "fingerprint_identical": identical,
            }
        )
        print(
            f"[{element_count:>7} @ {target_ratio:.2f} "
            f"(realised {realised_ratio:.3f})] "
            f"element {element_seconds:5.2f}s  "
            f"columnar {plain_seconds:5.2f}s  dedup {dedup_seconds:5.2f}s  "
            f"preprocessed rows {plain_rows} -> {dedup_rows} "
            f"({reduction:4.2f}x)  "
            f"WAL {wal_reduction:4.2f}x  "
            f"fingerprint {'OK' if identical else 'MISMATCH'}"
        )
        if not identical:
            print("FAIL: schemas diverge across the element, columnar and dedup feeds")
            failed = True
        floor = MIN_PREPROCESS_REDUCTION.get((element_count, target_ratio))
        if floor is None:
            print(
                f"FAIL: no reduction gate registered for "
                f"({element_count}, {target_ratio}); add it to "
                "MIN_PREPROCESS_REDUCTION"
            )
            failed = True
        elif reduction < floor:
            print(
                f"FAIL: dedup cut preprocessed rows {reduction:.3f}x at ratio "
                f"{target_ratio}, below the {floor}x gate"
            )
            failed = True
        else:
            print(f"gate OK: {reduction:.3f}x >= {floor}x at ratio {target_ratio}")
        if wal_reduction < MIN_WAL_REDUCTION:
            print(
                f"FAIL: WAL reduction {wal_reduction:.2f}x is below the "
                f"{MIN_WAL_REDUCTION}x gate"
            )
            failed = True
    return (1 if failed else 0), results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI mode: one mid-ratio row at reduced scale (gates enforced)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=Path("BENCH_ingest.json"),
        help="shared bench output path (default: BENCH_ingest.json)",
    )
    args = parser.parse_args()
    rows = QUICK_ROWS if args.quick else FULL_ROWS
    exit_code, results = run(rows)
    payload = {
        "quick": args.quick,
        "batch_size": BATCH_SIZE,
        "min_preprocess_reduction": {
            f"{count}@{ratio}": MIN_PREPROCESS_REDUCTION[(count, ratio)]
            for count, ratio in rows
        },
        "min_wal_reduction": MIN_WAL_REDUCTION,
        "results": results,
    }
    merge_json(args.json, "dedup_ingest", payload)
    print(f"wrote {args.json}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

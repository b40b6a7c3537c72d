"""Shared-memory handoff oracle: shm-parallel ≡ serial fingerprints.

The zero-copy handoff (:mod:`repro.core.shm`) replaces pickled shard
parts with name+layout descriptors over ``multiprocessing.shared_memory``.
That substitution must be *invisible*: for random interleaved
insert/delete columnar feeds, a parallel :class:`ShardedSchemaSession`
running the shm handoff lands on a schema fingerprint-identical to one
:class:`SchemaSession` consuming the same feed -- at every tested shard
count, through ``apply`` lockstep and through the pipelined
``ingest_stream``, across worker death (retry and degraded mode), and
across a checkpoint/restore mid-stream.  Every test also asserts the
block registry and ``/dev/shm`` are clean afterwards: a fingerprint
match that leaks segments is still a failure.
"""

import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.config import PGHiveConfig
from repro.core.faults import FaultInjector
from repro.core.session import SchemaSession
from repro.core.sharding import ShardedSchemaSession
from repro.core.shm import SHM_NAME_PREFIX, global_registry, shm_available
from repro.errors import DegradedModeWarning
from repro.graph.changes import ChangeSet
from repro.graph.columnar import BatchBuilder, global_interner
from repro.schema.model import schema_fingerprint

from tests.properties.test_sharding_oracle import (
    interpret,
    operation_scripts,
    to_change_sets,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)

SHARD_COUNTS = (1, 2, 4)
CONFIG = PGHiveConfig(seed=3, infer_keys=True)


def assert_no_leaked_blocks():
    """The coordinator registry owns nothing and /dev/shm has no blocks."""
    assert global_registry().live_blocks() == ()
    shm_dir = Path("/dev/shm")
    if shm_dir.is_dir():
        leaked = [p.name for p in shm_dir.glob(SHM_NAME_PREFIX + "*")]
        assert leaked == [], f"leaked shared-memory segments: {leaked}"


def columnarize(change_sets):
    """Re-express element-wise inserts as endpoint-complete columnar batches.

    Edges referencing nodes from earlier change-sets ship full stub
    copies (marked in ``stub_node_ids``), exactly as the streaming reader
    does, so the handoff carries producer-built batches and their stub
    rows rather than the coordinator's own conversion of element inputs.
    """
    interner = global_interner()
    directory = {}
    out = []
    for change_set in change_sets:
        if not (change_set.nodes or change_set.edges):
            out.append(change_set)
            continue
        builder = BatchBuilder(interner)
        fresh = set()
        for node in change_set.nodes:
            labelset_id = interner.intern_labels(node.labels)
            keyset_id = interner.intern_keys(node.properties)
            keys = interner.keyset(keyset_id).keys
            values = tuple(node.properties[key] for key in keys)
            builder.put_node(node.node_id, labelset_id, keyset_id, values)
            directory[node.node_id] = (labelset_id, keyset_id, values)
            fresh.add(node.node_id)
        stubs = set()
        for edge in change_set.edges:
            for endpoint in (edge.source_id, edge.target_id):
                if endpoint not in fresh and endpoint not in stubs:
                    builder.add_node(endpoint, *directory[endpoint])
                    stubs.add(endpoint)
            builder.add_edge_element(edge)
        out.append(
            ChangeSet(
                columnar=builder.freeze(), stub_node_ids=frozenset(stubs)
            )
        )
    return out


def columnar_feed(ops):
    return columnarize(to_change_sets(interpret(ops)))


def serial_fingerprint(feed, config=CONFIG):
    session = SchemaSession(config, retain_union=True)
    for change_set in feed:
        session.apply(change_set)
    return schema_fingerprint(session.schema())


def shm_session(n_shards, config=CONFIG, **kwargs):
    session = ShardedSchemaSession(
        config, n_shards=n_shards, parallel=True, retain_union=True, **kwargs
    )
    assert session.handoff == "shm"
    return session


#: A pinned feed with cross-batch edges, a node deletion (broadcast +
#: stub cleanup), and an edge deletion -- the full protocol surface.
PINNED_OPS = [
    (
        "insert",
        [
            ("v1", "Person", {"person_id": 1, "name": "a"}),
            ("v2", "Org", {"org_id": 2, "url": "u"}),
            ("v3", "Post", {"post_id": 3, "rank": "r"}),
        ],
        [(0, 1), (2, 0)],
    ),
    ("del_nodes", [1]),
    (
        "insert",
        [
            ("v4", "Person", {"person_id": 4, "name": "b", "age": 9}),
            ("v5", "Org", {"org_id": 5}),
        ],
        [(3, 0), (1, 2)],
    ),
    ("del_edges", [0]),
    (
        "insert",
        [("v6", "Post", {"post_id": 6, "url": "w"})],
        [(0, 5)],
    ),
]


class TestShmHandoffMatchesSerial:
    @given(ops=operation_scripts())
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fingerprint_identical_across_shard_counts(self, ops):
        feed = columnar_feed(ops)
        reference = serial_fingerprint(feed)
        for n_shards in SHARD_COUNTS:
            with shm_session(n_shards) as session:
                for change_set in feed:
                    session.apply(change_set)
                fingerprint = schema_fingerprint(session.schema())
            assert fingerprint == reference, f"n_shards={n_shards} diverged"
        assert_no_leaked_blocks()

    def test_ingest_stream_matches_apply_loop(self):
        feed = columnar_feed(PINNED_OPS)
        reference = serial_fingerprint(feed)
        for n_shards in SHARD_COUNTS:
            with shm_session(n_shards) as session:
                session.ingest_stream(feed)
                streamed = schema_fingerprint(session.schema())
            assert streamed == reference, f"n_shards={n_shards} diverged"
        assert_no_leaked_blocks()


class TestShmWorkerFaults:
    def test_killed_worker_retries_without_surfacing(self):
        feed = columnar_feed(PINNED_OPS)
        reference = serial_fingerprint(feed)
        session = shm_session(2, retry_backoff=0.01)
        try:
            for index, change_set in enumerate(feed):
                if index == 2:
                    FaultInjector.kill_process(session.worker_pids()[0])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    session.apply(change_set)
            assert [e.kind for e in session.fault_events] == ["retry"]
            assert session.degraded_shards == []
            assert schema_fingerprint(session.schema()) == reference
        finally:
            session.close()
        assert_no_leaked_blocks()

    def test_exhausted_retries_degrade_and_rebase(self):
        """Degraded shards replay shm parts in-process: the change-sets
        were interned against the coordinator lineage, so the in-process
        fallback must rebase them -- a wrong-lineage decode would produce
        a divergent (not crashing) schema, which only the fingerprint
        oracle catches."""
        feed = columnar_feed(PINNED_OPS)
        reference = serial_fingerprint(feed)
        session = shm_session(2, max_shard_retries=0, retry_backoff=0.01)
        try:
            for index, change_set in enumerate(feed):
                if index == 2:
                    for pid in session.worker_pids().values():
                        FaultInjector.kill_process(pid)
                    with pytest.warns(DegradedModeWarning, match="in-process"):
                        session.apply(change_set)
                else:
                    session.apply(change_set)
            assert session.degraded_shards == [0, 1]
            assert schema_fingerprint(session.schema()) == reference
        finally:
            session.close()
        assert_no_leaked_blocks()


class TestShmCheckpointRecovery:
    def test_checkpoint_restore_mid_stream(self, tmp_path):
        feed = columnar_feed(PINNED_OPS)
        reference = serial_fingerprint(feed)
        split = len(feed) // 2
        with shm_session(2) as session:
            for change_set in feed[:split]:
                session.apply(change_set)
            directory = session.checkpoint(tmp_path / "ck")
        assert_no_leaked_blocks()

        resumed = ShardedSchemaSession.restore(directory, parallel=True)
        try:
            for change_set in feed[split:]:
                resumed.apply(change_set)
            assert schema_fingerprint(resumed.schema()) == reference
        finally:
            resumed.close()
        assert_no_leaked_blocks()


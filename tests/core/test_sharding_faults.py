"""Worker fault tolerance for parallel sharded sessions.

The contract: a SIGKILLed worker never surfaces a raw
``BrokenProcessPool``.  The shard retries on a restarted pool (bounded
backoff), and when restarts are exhausted it degrades to in-process
serial execution with a structured :class:`DegradedModeWarning` --
results stay fingerprint-identical to the serial oracle either way.
"""

import warnings

import pytest

from repro.core.config import PGHiveConfig
from repro.core.faults import FaultInjector
from repro.core.session import SchemaSession
from repro.core.sharding import ShardedSchemaSession
from repro.errors import DegradedModeWarning
from repro.graph.changes import ChangeSet
from repro.graph.model import Edge, Node
from repro.schema.model import schema_fingerprint

CONFIG = PGHiveConfig(seed=0, infer_keys=True)


def change_feed(rounds=6):
    feed = []
    for round_ in range(rounds):
        nodes = [
            Node(f"n{round_}-{i}", {"Person" if i % 2 else "City"},
                 {"p": i, "tag": f"t{round_}"})
            for i in range(5)
        ]
        edges = [
            Edge(f"e{round_}-{i}", nodes[i].node_id, nodes[i + 1].node_id,
                 {"KNOWS"}, {"w": i})
            for i in range(4)
        ]
        feed.append(ChangeSet.inserts(nodes, edges))
    return feed


def oracle_fingerprint(feed):
    session = SchemaSession(CONFIG, schema_name="s")
    for change_set in feed:
        session.apply(change_set)
    return schema_fingerprint(session.schema())


class TestWorkerDeath:
    def test_killed_worker_retries_without_surfacing(self):
        feed = change_feed()
        session = ShardedSchemaSession(
            CONFIG,
            schema_name="s",
            n_shards=2,
            parallel=True,
            retry_backoff=0.01,
        )
        try:
            for index, change_set in enumerate(feed):
                if index == 2:
                    FaultInjector.kill_process(session.worker_pids()[0])
                    assert session.fault_events == []
                # No BrokenProcessPool may escape; warnings are errors here.
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    session.apply(change_set)
            assert [e.kind for e in session.fault_events] == ["retry"]
            assert session.fault_events[0].shard == 0
            assert session.degraded_shards == []
            assert schema_fingerprint(session.schema()) == oracle_fingerprint(
                feed
            )
        finally:
            session.close()

    def test_exhausted_retries_degrade_with_warning(self):
        feed = change_feed()
        session = ShardedSchemaSession(
            CONFIG,
            schema_name="s",
            n_shards=2,
            parallel=True,
            max_shard_retries=0,
            retry_backoff=0.01,
        )
        try:
            for index, change_set in enumerate(feed):
                if index == 3:
                    for pid in session.worker_pids().values():
                        FaultInjector.kill_process(pid)
                    with pytest.warns(DegradedModeWarning, match="in-process"):
                        session.apply(change_set)
                else:
                    session.apply(change_set)
            assert session.degraded_shards == [0, 1]
            degraded = [
                e for e in session.fault_events if e.kind == "degraded"
            ]
            assert len(degraded) == 2
            # Degraded shards keep accepting work and the result is exact.
            assert schema_fingerprint(session.schema()) == oracle_fingerprint(
                feed
            )
        finally:
            session.close()

    def test_state_reads_survive_worker_death(self):
        feed = change_feed()
        session = ShardedSchemaSession(
            CONFIG,
            schema_name="s",
            n_shards=2,
            parallel=True,
            retry_backoff=0.01,
        )
        try:
            for change_set in feed[:3]:
                session.apply(change_set)
            # Kill between apply and the merged-state read: the state
            # fetch itself must retry/restart, not raise.
            for pid in session.worker_pids().values():
                FaultInjector.kill_process(pid)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                schema = session.schema()
            assert schema.node_type_by_token("Person") is not None
            assert all(e.kind == "retry" for e in session.fault_events)
        finally:
            session.close()


def churn_feed():
    """Inserts with node and edge deletions; no later edge touches a
    deleted node."""
    inserts = change_feed(5)
    return [
        inserts[0],
        inserts[1],
        ChangeSet.deletions(nodes=["n0-2"], edges=["e1-3"]),
        inserts[2],
        inserts[3],
        # A node deletion broadcasts, so it reaches the killed shard.
        ChangeSet.deletions(nodes=["n2-1"], edges=["e3-0"]),
        inserts[4],
    ]


class TestWorkerDeathAfterRead:
    def test_replay_starts_from_the_baseline_not_the_read(self):
        feed = churn_feed()
        oracle = SchemaSession(CONFIG, schema_name="s", retain_union=True)
        for change_set in feed[:6]:
            oracle.apply(change_set)
        session = ShardedSchemaSession(
            CONFIG,
            schema_name="s",
            n_shards=2,
            parallel=True,
            retain_union=True,
            retry_backoff=0.01,
        )
        try:
            for change_set in feed[:3]:
                session.apply(change_set)
            replay_tail = len(session._pending[0])
            session.schema()
            # A read fetches views: the replay tail and baseline stay.
            assert len(session._pending[0]) == replay_tail > 0
            assert session._shard_states[0] is None
            for change_set in feed[3:5]:
                session.apply(change_set)
            FaultInjector.kill_process(session.worker_pids()[0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                session.apply(feed[5])
                schema = session.schema()
            assert [e.kind for e in session.fault_events] == ["retry"]
            assert session.fault_events[0].shard == 0
            assert schema_fingerprint(schema) == schema_fingerprint(
                oracle.schema()
            )
            session.apply(feed[6])
            oracle.apply(feed[6])
            assert schema_fingerprint(session.schema()) == schema_fingerprint(
                oracle.schema()
            )
        finally:
            session.close()

"""Worker fault tolerance for parallel sharded sessions.

The contract: a SIGKILLed worker never surfaces a raw
``BrokenProcessPool``.  The shard retries on a restarted pool (bounded
backoff), and when restarts are exhausted it degrades to in-process
serial execution with a structured :class:`DegradedModeWarning` --
results stay fingerprint-identical to the serial oracle either way.
"""

import os
import shutil
import signal
import warnings

import pytest

from repro.core import sharding
from repro.core.config import PGHiveConfig
from repro.core.faults import FaultInjector
from repro.core.session import SchemaSession
from repro.core.sharding import ShardedSchemaSession
from repro.errors import CheckpointError, DegradedModeWarning
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
            assert session._baselines.paths[0] is None
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


def churn_oracle(feed):
    session = SchemaSession(CONFIG, schema_name="s", retain_union=True)
    for change_set in feed:
        session.apply(change_set)
    return schema_fingerprint(session.schema())


def churn_session(n_shards=2, **options):
    return ShardedSchemaSession(
        CONFIG,
        schema_name="s",
        n_shards=n_shards,
        parallel=True,
        retain_union=True,
        retry_backoff=0.01,
        **options,
    )


def checkpoint_then_die(path):
    """Worker-side resync: shard 0's writes its file, then dies unanswered."""
    sharding._WORKER_SESSION.checkpoint(path)
    if "shard-000-" in path:
        os.kill(os.getpid(), signal.SIGKILL)
    return path


def die_before_checkpoint(path):
    """Worker-side resync: shard 0's dies before writing anything."""
    if "shard-000-" in path:
        os.kill(os.getpid(), signal.SIGKILL)
    return str(sharding._WORKER_SESSION.checkpoint(path))


def failing_checkpoint(path):
    """Worker-side resync whose file cannot be written."""
    raise CheckpointError(f"{path}: no space left on device")


class TestBaselineFiles:
    """A parallel shard's recovery baseline is a checkpoint file: every
    worker death below ends at the single-session oracle."""

    def test_kill_right_after_restore(self, tmp_path):
        feed = churn_feed()
        with churn_session() as session:
            for change_set in feed[:3]:
                session.apply(change_set)
            session.checkpoint(tmp_path / "ck")
        with ShardedSchemaSession.restore(tmp_path / "ck") as restored:
            assert all(not pending for pending in restored._pending)
            assert all(path.is_file() for path in restored._baselines.paths)
            FaultInjector.kill_process(restored.worker_pids()[0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for change_set in feed[3:]:
                    restored.apply(change_set)
                schema = restored.schema()
            assert [e.kind for e in restored.fault_events] == ["retry"]
            assert schema_fingerprint(schema) == churn_oracle(feed)

    def test_kill_right_after_checkpoint(self, tmp_path):
        feed = churn_feed()
        with churn_session() as session:
            for change_set in feed[:4]:
                session.apply(change_set)
            session.checkpoint(tmp_path / "ck")
            assert all(not pending for pending in session._pending)
            # The baselines are links: the checkpoint directory can go.
            shutil.rmtree(tmp_path / "ck")
            FaultInjector.kill_process(session.worker_pids()[1])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for change_set in feed[4:]:
                    session.apply(change_set)
                schema = session.schema()
            assert [e.kind for e in session.fault_events] == ["retry"]
            assert session.fault_events[0].shard == 1
            assert schema_fingerprint(schema) == churn_oracle(feed)

    @pytest.mark.parametrize(
        "resync", [die_before_checkpoint, checkpoint_then_die]
    )
    def test_worker_dies_during_eager_resync(self, monkeypatch, resync):
        monkeypatch.setattr("repro.core.sharding.RESYNC_EVERY", 3)
        monkeypatch.setattr("repro.core.sharding._worker_checkpoint", resync)
        feed = churn_feed()
        with churn_session() as session:
            for change_set in feed[:3]:
                session.apply(change_set)
            # The third part asked shard 0's worker for a fresh baseline,
            # which died: the resync is dropped with any file it wrote,
            # and the old baseline (none yet) plus the full tail stay.
            assert session._baselines.paths[0] is None
            assert len(session._pending[0]) == 3
            assert session.fault_events == []
            monkeypatch.setattr(
                "repro.core.sharding._worker_checkpoint",
                sharding._WORKER_OPS["checkpoint"],
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                session.apply(feed[3])
                assert [e.kind for e in session.fault_events] == ["retry"]
                assert session.fault_events[0].shard == 0
                # The retried part made the tail due: a resync ran.
                assert session._baselines.paths[0].is_file()
                assert session._pending[0] == []
                for change_set in feed[4:]:
                    session.apply(change_set)
                schema = session.schema()
            assert len(session.fault_events) == 1
            # No orphaned resync file is left beside the baselines.
            assert sorted(session._baselines._directory.iterdir()) == sorted(
                session._baselines.paths
            )
            assert schema_fingerprint(schema) == churn_oracle(feed)

    def test_kill_right_after_eager_resync(self, monkeypatch):
        monkeypatch.setattr("repro.core.sharding.RESYNC_EVERY", 3)
        feed = churn_feed()
        with churn_session() as session:
            for change_set in feed[:3]:
                session.apply(change_set)
            baseline = session._baselines.paths[0]
            assert baseline.is_file() and session._pending[0] == []
            FaultInjector.kill_process(session.worker_pids()[0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for change_set in feed[3:]:
                    session.apply(change_set)
                schema = session.schema()
            assert [e.kind for e in session.fault_events] == ["retry"]
            assert schema_fingerprint(schema) == churn_oracle(feed)

    def test_unwritable_resync_keeps_the_old_baseline(
        self, tmp_path, monkeypatch
    ):
        # An eager resync that cannot write its file must not escape
        # the dispatch: every shard's part still reaches its tail.
        feed = churn_feed()
        with churn_session() as session:
            session.apply(feed[0])
            session.checkpoint(tmp_path / "ck")
            baselines = list(session._baselines.paths)
            monkeypatch.setattr("repro.core.sharding.RESYNC_EVERY", 1)
            monkeypatch.setattr(
                "repro.core.sharding._worker_checkpoint", failing_checkpoint
            )
            session.apply(feed[1])
            assert session._baselines.paths == baselines
            assert [len(pending) for pending in session._pending] == [1, 1]
            assert sorted(session._baselines._directory.iterdir()) == sorted(
                baselines
            )
            for pid in session.worker_pids().values():
                FaultInjector.kill_process(pid)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for change_set in feed[2:]:
                    session.apply(change_set)
                schema = session.schema()
            assert [e.kind for e in session.fault_events] == ["retry"] * 2
            assert schema_fingerprint(schema) == churn_oracle(feed)

    @pytest.mark.parametrize("damage", ["removed", "corrupted"])
    def test_unreadable_baseline_fails_loudly(self, tmp_path, damage):
        # The baseline file is the only copy of a dead worker's state:
        # restarts that cannot read it count as failed attempts, and a
        # shard that cannot be rebuilt raises instead of resuming from
        # a wrong state.
        feed = churn_feed()
        with churn_session(max_shard_retries=2) as session:
            for change_set in feed[:3]:
                session.apply(change_set)
            session.checkpoint(tmp_path / "ck")
            baseline = session._baselines.paths[0]
            if damage == "removed":
                baseline.unlink()
            else:
                baseline.unlink()  # break the link; keep the checkpoint
                baseline.write_bytes(b"not a checkpoint")
            FaultInjector.kill_process(session.worker_pids()[0])
            with pytest.raises(CheckpointError, match="shard 0 .* unreadable"):
                session.apply(feed[3])
            assert [e.kind for e in session.fault_events] == ["retry"] * 2
            # The second attempt records why the first restart failed.
            assert "Checkpoint" in session.fault_events[1].detail
            assert session.degraded_shards == []

    def test_exhausted_retries_restore_the_baseline_file(self, tmp_path):
        feed = churn_feed()
        with churn_session(max_shard_retries=0) as session:
            for change_set in feed[:3]:
                session.apply(change_set)
            session.checkpoint(tmp_path / "ck")
            session.apply(feed[3])
            baseline = session._baselines.paths[0]
            FaultInjector.kill_process(session.worker_pids()[0])
            with pytest.warns(DegradedModeWarning, match="in-process"):
                session.apply(feed[4])
            assert session.degraded_shards == [0]
            assert [e.kind for e in session.fault_events] == ["degraded"]
            # The degraded shard restored from its baseline file and
            # needs it no more.
            assert session._baselines.paths[0] is None
            assert not baseline.exists()
            for change_set in feed[5:]:
                session.apply(change_set)
            assert schema_fingerprint(session.schema()) == churn_oracle(feed)

    def test_streamed_resyncs_wait_for_parts_in_flight(self, monkeypatch):
        # A resync taken while a part of its shard is still in flight
        # would hold that part, which then replays a second time after
        # a crash: the shard's stream position would run ahead.
        monkeypatch.setattr("repro.core.sharding.RESYNC_EVERY", 3)
        feed = []
        for round_, inserts in enumerate(change_feed(12)):
            feed.append(inserts)
            feed.append(
                ChangeSet.deletions(
                    nodes=[f"n{round_}-0"], edges=[f"e{round_}-2"]
                )
            )
        with churn_session(n_shards=3) as session:
            session.ingest_stream(feed[:18])
            assert any(session._baselines.paths)
            positions = [
                session._fetch_view(index).sequence for index in range(3)
            ]
            for pid in session.worker_pids().values():
                FaultInjector.kill_process(pid)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert [
                    session._fetch_view(index).sequence for index in range(3)
                ] == positions
                for change_set in feed[18:]:
                    session.apply(change_set)
                schema = session.schema()
            assert [e.kind for e in session.fault_events] == ["retry"] * 3
            assert schema_fingerprint(schema) == churn_oracle(feed)

"""Crash-recovery tests for durable sessions.

The acceptance bar (mirrors the crash-recovery oracle): recover ==
newest valid checkpoint + WAL replay, and a recovered session finishing
the feed is fingerprint-identical to one that never crashed.  Corrupt
checkpoints fall back to older ones; only when *every* checkpoint fails
does recovery raise (never a silent restart from scratch).
"""

import shutil
import warnings

import pytest

from repro.core.config import PGHiveConfig
from repro.core.durability import WriteAheadLog
from repro.core.faults import FaultInjector, SimulatedCrash
from repro.core.recovery import (
    DurableSchemaSession,
    DurableShardedSchemaSession,
)
from repro.core.session import SchemaSession
from repro.core.sharding import ShardedSchemaSession
from repro.errors import CheckpointError, ConfigurationError
from repro.graph.batching import split_into_batches
from repro.graph.changes import ChangeSet
from repro.graph.columnar import (
    BatchBuilder,
    Interner,
    columnar_changeset,
    global_interner,
)
from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.store import GraphStore
from repro.schema.model import schema_fingerprint

CONFIG = PGHiveConfig(seed=0, infer_keys=True)


def change_feed(rounds=8):
    """A deterministic feed of insert and delete change-sets."""
    feed = []
    for round_ in range(rounds):
        nodes = [
            Node(
                f"n{round_}-{i}",
                {"Person" if i % 2 else "City"},
                {"p": i, "tag": f"t{round_}"},
            )
            for i in range(5)
        ]
        edges = [
            Edge(f"e{round_}-{i}", nodes[i].node_id, nodes[i + 1].node_id,
                 {"KNOWS"}, {"w": i})
            for i in range(4)
        ]
        feed.append(ChangeSet.inserts(nodes, edges))
        if round_ == 5:
            feed.append(ChangeSet.deletions(nodes=["n1-0"], edges=["e2-1"]))
    return feed


def columnar_feed(rounds=4):
    feed = []
    for round_ in range(rounds):
        interner = Interner()
        builder = BatchBuilder(interner)
        labels = interner.intern_labels(["Item"])
        keys = interner.intern_keys(["rank"])
        for i in range(4):
            builder.add_node(f"c{round_}-{i}", labels, keys, (i,))
        feed.append(ChangeSet.inserts_columnar(builder.freeze()))
    return feed


def as_columnar(change_set):
    """A self-contained element change-set as its columnar form."""
    return columnar_changeset(change_set, global_interner(), lambda _: None)


def oracle_fingerprint(feed):
    session = SchemaSession(CONFIG, schema_name="s", retain_union=True)
    for change_set in feed:
        session.apply(change_set)
    return schema_fingerprint(session.schema())


class TestDurableSchemaSession:
    def test_recover_after_crash_matches_uncrashed(self, tmp_path):
        feed = change_feed()
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off", retain_union=True
        )
        for change_set in feed[:3]:
            session.apply(change_set)
        session.checkpoint()
        for change_set in feed[3:6]:
            session.apply(change_set)
        del session  # crash: no close, no final checkpoint

        recovered = SchemaSession.recover(directory, fsync="off")
        assert isinstance(recovered, DurableSchemaSession)
        assert recovered.sequence == 6
        for change_set in feed[recovered.sequence:]:
            recovered.apply(change_set)
        assert schema_fingerprint(recovered.schema()) == oracle_fingerprint(feed)

    def test_recover_without_any_checkpoint_replays_whole_wal(self, tmp_path):
        feed = change_feed()
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off", retain_union=True
        )
        for change_set in feed:
            session.apply(change_set)
        del session
        recovered = DurableSchemaSession.recover(
            directory,
            config=CONFIG,
            schema_name="s",
            fsync="off",
            retain_union=True,
        )
        assert recovered.sequence == len(feed)
        assert schema_fingerprint(recovered.schema()) == oracle_fingerprint(feed)

    def test_recovered_session_keeps_logging(self, tmp_path):
        feed = change_feed()
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off", retain_union=True
        )
        for change_set in feed[:4]:
            session.apply(change_set)
        del session
        first = DurableSchemaSession.recover(
            directory, config=CONFIG, schema_name="s", fsync="off",
            retain_union=True,
        )
        for change_set in feed[4:7]:
            first.apply(change_set)
        del first  # crash again
        second = DurableSchemaSession.recover(
            directory, config=CONFIG, schema_name="s", fsync="off",
            retain_union=True,
        )
        assert second.sequence == 7
        for change_set in feed[7:]:
            second.apply(change_set)
        assert schema_fingerprint(second.schema()) == oracle_fingerprint(feed)

    def test_batch_feed_recovers(self, figure1_graph, tmp_path):
        batches = split_into_batches(figure1_graph, 4, seed=4)
        oracle = SchemaSession(CONFIG, schema_name="s", retain_union=True)
        for batch in batches:
            oracle.add_batch(batch)

        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off", retain_union=True
        )
        for batch in batches[:2]:
            session.add_batch(batch)
        del session
        recovered = DurableSchemaSession.recover(
            directory, config=CONFIG, schema_name="s", fsync="off",
            retain_union=True,
        )
        assert recovered.sequence == 2
        for batch in batches[2:]:
            recovered.add_batch(batch)
        assert schema_fingerprint(recovered.schema()) == schema_fingerprint(
            oracle.schema()
        )

    def test_empty_first_batch_is_logged_but_runs_no_pipeline_step(
        self, figure1_graph, tmp_path
    ):
        # An empty batch advances the sequence and is logged, but the
        # preprocessor does not fit on its zero rows, live or on replay.
        batches = [
            PropertyGraph("empty"),
            *split_into_batches(figure1_graph, 2, seed=4),
        ]
        oracle = SchemaSession(CONFIG, schema_name="s")
        for batch in batches:
            oracle.add_batch(batch)
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off"
        )
        session.add_batch(batches[0])
        assert session.sequence == 1
        assert session.state.preprocessor is None
        for batch in batches[1:]:
            session.add_batch(batch)
        del session
        recovered = DurableSchemaSession.recover(
            directory, config=CONFIG, schema_name="s", fsync="off"
        )
        assert recovered.sequence == 3
        assert schema_fingerprint(recovered.schema()) == schema_fingerprint(
            oracle.schema()
        )

    def test_columnar_feed_recovers(self, tmp_path):
        feed = columnar_feed()
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off", retain_union=True
        )
        for change_set in feed[:2]:
            session.apply(change_set)
        del session
        recovered = DurableSchemaSession.recover(
            directory, config=CONFIG, schema_name="s", fsync="off",
            retain_union=True,
        )
        assert recovered.sequence == 2
        for change_set in feed[2:]:
            recovered.apply(change_set)
        assert schema_fingerprint(recovered.schema()) == oracle_fingerprint(feed)

    def test_torn_final_record_is_dropped(self, tmp_path):
        feed = change_feed()
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off", retain_union=True
        )

        def tear(point, context):
            FaultInjector.truncate_at(
                context["path"], context["record_start"] + 5
            )
            raise SimulatedCrash("torn mid-record")

        for index, change_set in enumerate(feed):
            if index == 4:
                with FaultInjector() as injector:
                    injector.arm("wal.after_append", tear)
                    with pytest.raises(SimulatedCrash):
                        session.apply(change_set)
                break
            session.apply(change_set)

        recovered = DurableSchemaSession.recover(
            directory, config=CONFIG, schema_name="s", fsync="off",
            retain_union=True,
        )
        # The torn record was never acknowledged; the producer re-feeds it.
        assert recovered.sequence == 4
        for change_set in feed[recovered.sequence:]:
            recovered.apply(change_set)
        assert schema_fingerprint(recovered.schema()) == oracle_fingerprint(feed)

    def test_refuses_fresh_construction_over_durable_state(self, tmp_path):
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off", retain_union=True
        )
        session.apply(change_feed()[0])
        session.close()
        with pytest.raises(ConfigurationError, match="recover"):
            DurableSchemaSession(directory, CONFIG, schema_name="s")


class TestStoreFedRecovery:
    """Endpoints an attached store resolved are logged as stub rows.

    Replay has no store, so a record that needed the store's nodes to
    rebuild its edge could not replay: mid-log it raised
    ``DanglingEdgeError``, and as the final record it was dropped as an
    unacknowledged tail although its apply had been acknowledged.
    """

    @pytest.mark.parametrize("edge_last", [False, True], ids=["mid", "last"])
    def test_store_resolved_edge_recovers(self, tmp_path, edge_last):
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="always"
        )
        store = GraphStore()
        store.attach(session)
        store.add_node(Node("a", {"P"}, {"x": 1}))
        store.add_node(Node("b", {"P"}, {"x": 2}))
        store.add_edge(Edge("e1", "a", "b", {"K"}, {"w": 1}))
        if not edge_last:
            store.add_node(Node("c", {"Q"}, {"y": 3}))
        want = (session.sequence, schema_fingerprint(session.schema()))
        store.detach()
        del session  # crash: no close, no checkpoint
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no record may be dropped
            recovered = DurableSchemaSession.recover(
                directory, config=CONFIG, schema_name="s", fsync="always"
            )
        got = (recovered.sequence, schema_fingerprint(recovered.schema()))
        recovered.close()
        assert got == want


class TestCheckpointFallbackAndRetention:
    def build(self, tmp_path, keep=3):
        feed = change_feed()
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory,
            CONFIG,
            schema_name="s",
            fsync="off",
            keep_checkpoints=keep,
            retain_union=True,
        )
        for index, change_set in enumerate(feed):
            session.apply(change_set)
            if index in (2, 5):
                session.checkpoint()
        session.close()
        return directory, feed

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        directory, feed = self.build(tmp_path)
        checkpoints = sorted(directory.glob("checkpoint-*.ckpt"))
        assert len(checkpoints) == 2
        FaultInjector.corrupt_byte(checkpoints[-1], 120)
        recovered = DurableSchemaSession.recover(directory, fsync="off")
        # Restored from the older snapshot, then replayed deeper WAL.
        assert recovered.sequence == len(feed)
        assert schema_fingerprint(recovered.schema()) == oracle_fingerprint(feed)

    def test_retention_bound_holds(self, tmp_path):
        feed = change_feed()
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory,
            CONFIG,
            schema_name="s",
            fsync="off",
            keep_checkpoints=2,
            retain_union=True,
        )
        for change_set in feed:
            session.apply(change_set)
            session.checkpoint()
        checkpoints = sorted(directory.glob("checkpoint-*.ckpt"))
        assert len(checkpoints) == 2
        # Newest two sequences survive.
        assert checkpoints[-1].name == f"checkpoint-{len(feed):012d}.ckpt"
        session.close()

    def test_wal_segments_are_pruned_by_checkpoints(self, tmp_path):
        feed = change_feed(rounds=16)
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory,
            CONFIG,
            schema_name="s",
            fsync="off",
            wal_segment_bytes=384,
            keep_checkpoints=1,
            retain_union=True,
        )
        for change_set in feed[: len(feed) // 2]:
            session.apply(change_set)
        grown = len(session.wal.segment_paths())
        assert grown > 1
        session.checkpoint()
        assert len(session.wal.segment_paths()) < grown
        for change_set in feed[len(feed) // 2:]:
            session.apply(change_set)
        session.checkpoint()
        # With a single retained checkpoint at the head, at most the
        # live segment plus rotation slack survives.
        assert len(session.wal.segment_paths()) <= 2
        session.close()

    def test_wal_retained_back_to_oldest_checkpoint(self, tmp_path):
        """Pruning must honour the *oldest* retained checkpoint.

        With keep_checkpoints=2, recovery may fall back past a corrupt
        newest snapshot, so every record after the older one has to stay
        replayable even across segment rotation.
        """
        feed = change_feed(rounds=16)
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory,
            CONFIG,
            schema_name="s",
            fsync="off",
            wal_segment_bytes=384,
            keep_checkpoints=2,
            retain_union=True,
        )
        first_at, second_at = 5, 11
        for index, change_set in enumerate(feed):
            session.apply(change_set)
            if index in (first_at, second_at):
                session.checkpoint()
        session.wal.sync()
        replayed = [
            sequence for sequence, _ in session.wal.replay(after=first_at + 1)
        ]
        assert replayed == list(range(first_at + 2, len(feed) + 1))
        session.close()

    def test_corrupt_newest_falls_back_across_pruned_segments(self, tmp_path):
        """Regression: pruning to the newest checkpoint used to leave a
        replay gap when the fallback needed records behind it."""
        feed = change_feed(rounds=16)
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory,
            CONFIG,
            schema_name="s",
            fsync="off",
            wal_segment_bytes=384,
            keep_checkpoints=2,
            retain_union=True,
        )
        for index, change_set in enumerate(feed):
            session.apply(change_set)
            if index in (5, 11):
                session.checkpoint()
        session.close()
        assert len(session.wal.segment_paths()) > 1
        checkpoints = sorted(directory.glob("checkpoint-*.ckpt"))
        assert len(checkpoints) == 2
        FaultInjector.corrupt_byte(checkpoints[-1], 120)
        recovered = DurableSchemaSession.recover(directory, fsync="off")
        assert recovered.sequence == len(feed)
        assert schema_fingerprint(recovered.schema()) == oracle_fingerprint(feed)

    def test_external_checkpoint_is_portable_and_prunes_nothing(
        self, tmp_path
    ):
        feed = change_feed()
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off", retain_union=True
        )
        for change_set in feed[:4]:
            session.apply(change_set)
        external = session.checkpoint(tmp_path / "export.ckpt")
        assert external == tmp_path / "export.ckpt"
        assert not list(directory.glob("checkpoint-*.ckpt"))
        restored = SchemaSession.restore(external)
        assert restored.sequence == 4
        session.close()


@pytest.mark.parametrize(
    "cls", [DurableSchemaSession, DurableShardedSchemaSession]
)
class TestSharedDurableLayer:
    """Validation and the newest-valid restore walk, on both classes."""

    def test_keep_checkpoints_must_be_positive(self, tmp_path, cls):
        directory = tmp_path / "sess"
        with pytest.raises(ConfigurationError, match="keep_checkpoints"):
            cls(directory, CONFIG, keep_checkpoints=0)
        # Validation runs before the directory or the session is built.
        assert not directory.exists()

    def test_recover_missing_directory(self, tmp_path, cls):
        with pytest.raises(CheckpointError, match="no such directory"):
            cls.recover(tmp_path / "absent")

    def test_all_checkpoints_corrupt_raises(self, tmp_path, cls):
        directory = tmp_path / "sess"
        session = cls(
            directory,
            CONFIG,
            schema_name="s",
            fsync="off",
            keep_checkpoints=3,
            retain_union=True,
        )
        for index, change_set in enumerate(change_feed()):
            session.apply(change_set)
            if index in (2, 5):
                session.checkpoint()
        session.close()
        checkpoints = sorted(directory.glob("checkpoint-*"))
        assert len(checkpoints) == 2
        for checkpoint in checkpoints:
            artifact = (
                checkpoint / "manifest.ckpt" if checkpoint.is_dir() else checkpoint
            )
            FaultInjector.corrupt_byte(artifact, 60)
        with pytest.raises(CheckpointError, match="no checkpoint") as caught:
            cls.recover(directory, fsync="off")
        # The error aggregates every failed candidate, never only the last.
        for checkpoint in checkpoints:
            assert checkpoint.name in str(caught.value)


class TestRejectedChangeSets:
    """A change-set the session refuses must never persist in the WAL."""

    def test_rejected_apply_rolls_back_the_wal_record(self, tmp_path):
        feed = change_feed()
        directory = tmp_path / "sess"
        # No retained union graph: deletions are a validation error.
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off"
        )
        session.apply(feed[0])
        with pytest.raises(ConfigurationError, match="retain_union"):
            session.apply(ChangeSet.deletions(nodes=["n0-0"]))
        assert session.sequence == 1
        assert session.wal.last_sequence == 1
        # The session is still usable: the next apply logs sequence 2
        # instead of tripping the strictly-increasing check.
        session.apply(feed[1])
        session.close()
        recovered = DurableSchemaSession.recover(
            directory, config=CONFIG, schema_name="s", fsync="off"
        )
        assert recovered.sequence == 2
        assert schema_fingerprint(recovered.schema()) == schema_fingerprint(
            _insert_only_oracle(feed[:2]).schema()
        )

    def test_rejected_sharded_apply_rolls_back_the_wal_record(self, tmp_path):
        feed = change_feed()
        directory = tmp_path / "shard"
        session = DurableShardedSchemaSession(
            directory, CONFIG, schema_name="s", n_shards=2, fsync="off"
        )
        session.apply(feed[0])
        with pytest.raises(ConfigurationError, match="retain_union"):
            session.apply(ChangeSet.deletions(nodes=["n0-0"]))
        assert session.sequence == 1
        assert session.wal.last_sequence == 1
        session.apply(feed[1])
        session.close()
        recovered = DurableShardedSchemaSession.recover(
            directory, config=CONFIG, schema_name="s", n_shards=2, fsync="off"
        )
        assert recovered.sequence == 2
        recovered.close()

    def test_poisoned_tail_record_is_dropped_on_recovery(self, tmp_path):
        """Crash between the WAL append and the rejection rollback.

        The rejected change-set is then the (never acknowledged) final
        record of the log; recovery drops it instead of replaying the
        rejection forever.
        """
        feed = change_feed()
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off"
        )
        session.apply(feed[0])
        session.apply(feed[1])
        session.close()
        log = WriteAheadLog(directory / "wal", fsync="off")
        log.append(3, b"C" + ChangeSet.deletions(nodes=["n0-0"]).to_wire())
        log.close()
        # The drop is never silent: the warning names the record and
        # the rejection.
        with pytest.warns(
            RuntimeWarning, match=r"sequence 3\).*ConfigurationError"
        ):
            recovered = DurableSchemaSession.recover(
                directory, config=CONFIG, schema_name="s", fsync="off"
            )
        assert recovered.sequence == 2
        assert recovered.wal.last_sequence == 2
        # Logging resumes cleanly where the poisoned record was dropped.
        recovered.apply(feed[2])
        assert recovered.sequence == 3
        recovered.close()

    def test_mid_log_rejection_still_raises(self, tmp_path):
        """A rejected record *followed by later records* is divergence,
        not an unacknowledged tail -- recovery must not drop it."""
        feed = change_feed()
        directory = tmp_path / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off"
        )
        session.apply(feed[0])
        session.close()
        log = WriteAheadLog(directory / "wal", fsync="off")
        log.append(2, b"C" + ChangeSet.deletions(nodes=["n0-0"]).to_wire())
        log.append(3, b"C" + as_columnar(feed[1]).to_wire())
        log.close()
        with pytest.raises(ConfigurationError, match="retain_union"):
            DurableSchemaSession.recover(
                directory, config=CONFIG, schema_name="s", fsync="off"
            )


def _insert_only_oracle(feed):
    session = SchemaSession(CONFIG, schema_name="s")
    for change_set in feed:
        session.apply(change_set)
    return session


class TestDurableShardedSession:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_recover_matches_uncrashed(self, tmp_path, n_shards):
        feed = change_feed()
        directory = tmp_path / f"shard{n_shards}"
        session = DurableShardedSchemaSession(
            directory,
            CONFIG,
            schema_name="s",
            n_shards=n_shards,
            fsync="off",
            retain_union=True,
        )
        for change_set in feed[:3]:
            session.apply(change_set)
        session.checkpoint()
        for change_set in feed[3:6]:
            session.apply(change_set)
        session.close()  # crash after close is the easy case; still a restart

        recovered = DurableShardedSchemaSession.recover(directory, fsync="off")
        assert recovered.sequence == 6
        assert recovered.n_shards == n_shards
        for change_set in feed[recovered.sequence:]:
            recovered.apply(change_set)
        assert schema_fingerprint(recovered.schema()) == oracle_fingerprint(feed)
        recovered.close()

    def test_parallel_recover_matches_serial_oracle(self, tmp_path):
        feed = change_feed()
        directory = tmp_path / "par"
        session = DurableShardedSchemaSession(
            directory,
            CONFIG,
            schema_name="s",
            n_shards=2,
            parallel=True,
            fsync="off",
            retain_union=True,
        )
        try:
            for change_set in feed[:3]:
                session.apply(change_set)
            session.checkpoint()
            for change_set in feed[3:5]:
                session.apply(change_set)
        finally:
            session.close()

        recovered = DurableShardedSchemaSession.recover(
            directory, parallel=True, fsync="off"
        )
        try:
            assert recovered.parallel
            assert recovered.sequence == 5
            for change_set in feed[recovered.sequence:]:
                recovered.apply(change_set)
            assert schema_fingerprint(recovered.schema()) == oracle_fingerprint(
                feed
            )
        finally:
            recovered.close()

    @pytest.mark.parametrize("parallel", [False, True])
    def test_ingest_stream_logs_every_change_set(self, tmp_path, parallel):
        """The pipelined feed is as durable as ``apply``, in both modes."""
        feed = change_feed()[:4]
        directory = tmp_path / "stream"
        session = DurableShardedSchemaSession(
            directory,
            CONFIG,
            schema_name="s",
            n_shards=2,
            parallel=parallel,
            fsync="off",
            retain_union=True,
        )
        try:
            reports = session.ingest_stream(feed)
            assert [report.sequence for report in reports] == [1, 2, 3, 4]
            assert session.sequence == 4
            assert session.wal.last_sequence == 4
            uncrashed = schema_fingerprint(session.schema())
            # Crash: copy the directory while the session is still open.
            crashed = tmp_path / "crashed"
            shutil.copytree(directory, crashed)
        finally:
            session.close()
        assert uncrashed == oracle_fingerprint(feed)

        recovered = DurableShardedSchemaSession.recover(
            crashed, config=CONFIG, schema_name="s", n_shards=2,
            fsync="off", retain_union=True,
        )
        try:
            assert recovered.sequence == 4
            assert schema_fingerprint(recovered.schema()) == uncrashed
        finally:
            recovered.close()

    def test_rejected_ingest_stream_change_set_rolls_back_its_record(
        self, tmp_path
    ):
        feed = change_feed()
        directory = tmp_path / "stream"
        # No retained union graph: deletions are rejected at staging.
        session = DurableShardedSchemaSession(
            directory, CONFIG, schema_name="s", n_shards=2, parallel=True,
            fsync="off",
        )
        try:
            with pytest.raises(ConfigurationError, match="retain_union"):
                session.ingest_stream(
                    [feed[0], ChangeSet.deletions(nodes=["n0-0"]), feed[1]]
                )
            assert session.sequence == 1
            assert session.wal.last_sequence == 1
            session.ingest_stream([feed[1]])
            assert session.wal.last_sequence == 2
        finally:
            session.close()

    def test_manifest_retention_and_refusal(self, tmp_path):
        directory = tmp_path / "shard"
        session = DurableShardedSchemaSession(
            directory,
            CONFIG,
            schema_name="s",
            n_shards=2,
            fsync="off",
            keep_checkpoints=1,
        )
        feed = change_feed()
        for index, change_set in enumerate(feed[:4]):
            session.apply(change_set)
            session.checkpoint()
        manifests = [
            path
            for path in directory.iterdir()
            if path.is_dir() and path.name.startswith("checkpoint-")
        ]
        assert len(manifests) == 1
        session.close()
        with pytest.raises(ConfigurationError, match="recover"):
            DurableShardedSchemaSession(directory, CONFIG, n_shards=2)

    def test_corrupt_newest_manifest_falls_back_across_pruned_segments(
        self, tmp_path
    ):
        feed = change_feed(rounds=16)
        directory = tmp_path / "shard"
        session = DurableShardedSchemaSession(
            directory,
            CONFIG,
            schema_name="s",
            n_shards=2,
            fsync="off",
            wal_segment_bytes=384,
            keep_checkpoints=2,
            retain_union=True,
        )
        for index, change_set in enumerate(feed):
            session.apply(change_set)
            if index in (5, 11):
                session.checkpoint()
        session.close()
        manifests = sorted(
            path
            for path in directory.iterdir()
            if path.is_dir() and path.name.startswith("checkpoint-")
        )
        assert len(manifests) == 2
        FaultInjector.corrupt_byte(manifests[-1] / "manifest.ckpt", 60)
        recovered = DurableShardedSchemaSession.recover(directory, fsync="off")
        assert recovered.sequence == len(feed)
        assert schema_fingerprint(recovered.schema()) == oracle_fingerprint(feed)
        recovered.close()

    def test_sharded_restore_oracle_equivalence(self, tmp_path):
        """Recovered sharded session == plain sharded session == single."""
        feed = change_feed()
        directory = tmp_path / "shard"
        session = DurableShardedSchemaSession(
            directory,
            CONFIG,
            schema_name="s",
            n_shards=4,
            fsync="off",
            retain_union=True,
        )
        for change_set in feed[:5]:
            session.apply(change_set)
        session.close()
        recovered = DurableShardedSchemaSession.recover(
            directory, config=CONFIG, schema_name="s", n_shards=4,
            fsync="off", retain_union=True,
        )
        for change_set in feed[5:]:
            recovered.apply(change_set)

        sharded = ShardedSchemaSession(
            CONFIG, schema_name="s", n_shards=4, retain_union=True
        )
        for change_set in feed:
            sharded.apply(change_set)

        want = oracle_fingerprint(feed)
        assert schema_fingerprint(recovered.schema()) == want
        assert schema_fingerprint(sharded.schema()) == want
        recovered.close()

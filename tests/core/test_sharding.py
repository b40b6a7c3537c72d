"""Unit tests for the sharded session: partitioning, stubs, dirty
tracking, per-shard checkpoint manifests, and process-parallel mode."""

import gc
import pickle

import pytest

from repro.core import sharding
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.durability import write_artifact
from repro.core.pipeline import PGHive
from repro.core.recovery import DurableShardedSchemaSession
from repro.core.session import CHECKPOINT_MAGIC, SchemaSession
from repro.core.sharding import (
    MANIFEST_MAGIC,
    MANIFEST_NAME,
    ShardedSchemaSession,
)
from repro.core.state import DiscoveryState
from repro.datasets.registry import load_dataset
from repro.errors import (
    CheckpointError,
    CheckpointVersionError,
    ConfigurationError,
    DanglingEdgeError,
)
from repro.graph.batching import split_into_batches
from repro.graph.changes import ChangeSet, HashPartitioner, stable_shard
from repro.graph.columnar import (
    ElementBatch,
    changesets_from_elements,
    global_interner,
    partition_columnar,
)
from repro.graph.model import Edge, Node, PropertyGraph
from repro.schema.model import schema_fingerprint

LABELS = ["Person", "Org", "Post"]


def labelled_node(serial: int) -> Node:
    label = LABELS[serial % len(LABELS)]
    return Node(
        f"v{serial}",
        {label},
        {f"{label.lower()}_id": serial, "name": f"n{serial}"},
    )


def feed(change_set_count: int = 5, nodes_per_set: int = 4):
    """Insert-only change-sets with cross-change-set edges."""
    change_sets = []
    nodes: list[Node] = []
    edge_serial = 0
    for index in range(change_set_count):
        fresh = [
            labelled_node(index * nodes_per_set + offset)
            for offset in range(nodes_per_set)
        ]
        nodes.extend(fresh)
        edges = []
        for _ in range(3):
            source = nodes[(edge_serial * 7) % len(nodes)]
            target = nodes[(edge_serial * 3 + 1) % len(nodes)]
            label = f"R_{sorted(source.labels)[0]}_{sorted(target.labels)[0]}"
            edges.append(
                Edge(
                    f"r{edge_serial}",
                    source.node_id,
                    target.node_id,
                    {label},
                    {"w": edge_serial % 3},
                )
            )
            edge_serial += 1
        change_sets.append(ChangeSet.inserts(nodes=fresh, edges=edges))
    return change_sets


class TestStableShard:
    def test_deterministic_and_in_range(self):
        for n_shards in (1, 2, 5):
            for element_id in ("a", "v12", "edge:9"):
                shard = stable_shard(element_id, n_shards)
                assert shard == stable_shard(element_id, n_shards)
                assert 0 <= shard < n_shards

    def test_single_shard_routes_everything_to_zero(self):
        assert all(stable_shard(f"x{i}", 1) == 0 for i in range(20))


def columnar(change_set: ChangeSet) -> ChangeSet:
    """The change-set with its element inserts as one columnar batch."""
    return ChangeSet(
        columnar=ElementBatch.from_elements(change_set.nodes, change_set.edges),
        delete_nodes=list(change_set.delete_nodes),
        delete_edges=list(change_set.delete_edges),
    )


class TestHashPartitioner:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(0)

    def test_every_element_lands_on_exactly_one_shard(self):
        partitioner = HashPartitioner(4)
        change_set = feed(1, 8)[0]
        parts = partition_columnar(partitioner, columnar(change_set))
        fresh_nodes, edges = [], []
        for part in parts.values():
            part_nodes, part_edges = part.columnar.to_elements()
            fresh_nodes += [
                node.node_id
                for node in part_nodes
                if node.node_id not in part.stub_node_ids
            ]
            edges += [edge.edge_id for edge in part_edges]
        assert sorted(fresh_nodes) == sorted(n.node_id for n in change_set.nodes)
        assert sorted(edges) == sorted(e.edge_id for e in change_set.edges)

    def test_cross_shard_edges_ship_marked_stubs(self):
        partitioner = HashPartitioner(3)
        parts = partition_columnar(partitioner, columnar(feed(1, 9)[0]))
        for index, part in parts.items():
            part_nodes, part_edges = part.columnar.to_elements()
            shipped = {node.node_id for node in part_nodes}
            for edge in part_edges:
                assert set(edge.endpoints()) <= shipped
            for stub_id in part.stub_node_ids:
                # A stub is a node owned by a different shard.
                assert partitioner.shard_of(stub_id) != index

    def test_stub_resolution_uses_node_registry(self):
        older = labelled_node(0)
        edge = Edge("r0", older.node_id, older.node_id, {"R"})
        session = ShardedSchemaSession(PGHiveConfig(seed=1), n_shards=2)
        session.apply(ChangeSet.inserts(nodes=[older]))
        converted = session._as_columnar(ChangeSet.inserts(edges=[edge]))
        assert converted.stub_node_ids == {older.node_id}
        parts = partition_columnar(session._partitioner, converted)
        edge_part = parts[session._partitioner.shard_of(edge.edge_id)]
        assert older.node_id in edge_part.stub_node_ids
        report = session.apply(ChangeSet.inserts(edges=[edge]))
        assert (report.nodes_inserted, report.edges_inserted) == (0, 1)
        with pytest.raises(DanglingEdgeError):
            ShardedSchemaSession(n_shards=2).apply(ChangeSet.inserts(edges=[edge]))

    def test_node_deletions_broadcast_edge_deletions_route(self):
        partitioner = HashPartitioner(3)
        parts = partition_columnar(
            partitioner, ChangeSet.deletions(nodes=["v1"], edges=["r1"])
        )
        assert all(part.columnar is None for part in parts.values())
        with_node_delete = [i for i, p in parts.items() if p.delete_nodes]
        with_edge_delete = [i for i, p in parts.items() if p.delete_edges]
        assert with_node_delete == [0, 1, 2]
        assert with_edge_delete == [partitioner.shard_of("r1")]


class TestShardedSession:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            ShardedSchemaSession(n_shards=0)
        session = ShardedSchemaSession(n_shards=2)
        with pytest.raises(ConfigurationError):
            session.apply(ChangeSet.deletions(nodes=["v0"]))

    def test_report_counts_are_global(self):
        config = PGHiveConfig(seed=1)
        session = ShardedSchemaSession(config, n_shards=3, retain_union=True)
        for change_set in feed(3):
            report = session.apply(change_set)
            assert report.nodes_inserted == len(change_set.nodes)
            assert report.edges_inserted == len(change_set.edges)
        report = session.apply(ChangeSet.deletions(nodes=["v0", "ghost"]))
        # One node deleted globally, even though stub copies were removed
        # from several shards; ghosts count zero.
        assert report.nodes_deleted == 1
        assert session.sequence == 4
        assert len(session.reports) == 4

    def test_dirty_tracking_caches_merged_reads(self):
        config = PGHiveConfig(seed=1)
        session = ShardedSchemaSession(config, n_shards=2)
        change_sets = feed(2)
        session.apply(change_sets[0])
        assert session.dirty
        first = session.schema()
        assert not session.dirty
        assert session.schema() is first  # quiet feed: cached object
        session.apply(change_sets[1])
        assert session.dirty
        second = session.schema()
        assert second is not first  # merged schema is a value, not a view

    def test_only_dirty_shards_are_refetched(self):
        config = PGHiveConfig(seed=1)
        session = ShardedSchemaSession(config, n_shards=4)
        session.apply(feed(1)[0])
        session.schema()
        cached = list(session._shard_views)
        assert all(view is not None for view in cached)
        # A change-set touching one shard only invalidates that shard.
        lonely = labelled_node(99)
        target_shard = session._partitioner.shard_of(lonely.node_id)
        session.apply(ChangeSet.inserts(nodes=[lonely]))
        assert session._shard_dirty[target_shard]
        untouched = [
            index for index in range(4) if index != target_shard
        ]
        session.schema()
        for index in untouched:
            assert session._shard_views[index] is cached[index]
        assert session._shard_views[target_shard] is not cached[target_shard]
        # Reads fetch views only: serial shards have no baselines at all.
        assert session._baselines.paths == [None] * 4

    def test_merged_state_accessor_is_gone(self):
        # A read folds schemas only; no merged DiscoveryState exists.
        assert not hasattr(ShardedSchemaSession, "discovery_state")

    def test_views_carry_summaries_only_while_streaming(self):
        config = PGHiveConfig(seed=1)
        session = ShardedSchemaSession(config, n_shards=2, retain_union=True)
        for change_set in feed(2):
            session.apply(change_set)
        session.schema()
        for index, view in enumerate(session._shard_views):
            shard = session.shard_sessions[index]
            assert view.streaming_valid
            assert view.sequence == shard.sequence
            assert all(
                t.summaries is not None for t in view.schema.node_types()
            )
        session.apply(ChangeSet.deletions(edges=["r0"]))
        session.schema()
        owner = session._partitioner.shard_of("r0")
        view = session._shard_views[owner]
        assert not view.streaming_valid
        live = session.shard_sessions[owner].schema_graph
        for schema_type in view.schema.edge_types():
            assert schema_type.summaries is None
            # Detached copies: the live shard keeps its accumulators.
            assert live.edge_type(schema_type.type_id).summaries is not None

    def test_add_batch_matches_apply_from_graph(self):
        config = PGHiveConfig(seed=1)
        batch = PropertyGraph("b")
        for serial in range(6):
            batch.add_node(labelled_node(serial))
        by_batch = ShardedSchemaSession(config, n_shards=2)
        by_batch.add_batch(batch)
        by_change = ShardedSchemaSession(config, n_shards=2)
        by_change.apply(ChangeSet.from_graph(batch))
        assert schema_fingerprint(by_batch.schema()) == schema_fingerprint(
            by_change.schema()
        )

    def test_matches_single_session_on_insert_feed(self):
        config = PGHiveConfig(seed=1, infer_keys=True)
        single = SchemaSession(config, retain_union=True)
        sharded = ShardedSchemaSession(config, n_shards=3, retain_union=True)
        for change_set in feed(4):
            single.apply(change_set)
            sharded.apply(change_set)
        assert schema_fingerprint(sharded.schema()) == schema_fingerprint(
            single.schema()
        )

    def test_empty_batch_runs_no_pipeline_step(self):
        # ELSH parameters are fitted on the first batch that reaches the
        # pipeline; an empty one must not be it, in either session.
        config = PGHiveConfig(seed=0, method=ClusteringMethod.ELSH)
        graph = load_dataset("LDBC", nodes=300, seed=0).graph
        batches = split_into_batches(graph, 3, seed=0)
        fingerprints = []
        for session, leading in (
            (SchemaSession(config), [PropertyGraph("empty")]),
            (ShardedSchemaSession(config, n_shards=1), [PropertyGraph("empty")]),
            (SchemaSession(config), []),
        ):
            for batch in [*leading, *batches]:
                session.add_batch(batch)
            assert session.sequence == len(leading) + len(batches)
            fingerprints.append(schema_fingerprint(session.schema()))
        assert fingerprints[0] == fingerprints[1] == fingerprints[2]

    @pytest.mark.xfail(
        strict=True,
        reason="one ELSH shard folds labelled LDBC edges differently from a "
        "single session: 16 edge types vs 17 (MinHash 17/17); see ROADMAP "
        "'ELSH that depends on structure, not on batches' and 'Label-pure "
        "clusters'",
    )
    def test_one_elsh_shard_equals_single_session(self):
        graph = load_dataset("LDBC", nodes=300, seed=2).graph
        config = PGHiveConfig(seed=2, method=ClusteringMethod.ELSH)
        single = SchemaSession(config)
        with ShardedSchemaSession(config, n_shards=1) as sharded:
            for batch in split_into_batches(graph, 3, seed=2):
                single.add_batch(batch)
                sharded.add_batch(batch)
            assert (
                sharded.schema().edge_type_count
                == single.schema().edge_type_count
            )
            assert schema_fingerprint(sharded.schema()) == schema_fingerprint(
                single.schema()
            )

    def test_shard_sessions_unavailable_in_parallel_mode(self):
        session = ShardedSchemaSession(n_shards=2, parallel=True)
        with pytest.raises(ConfigurationError):
            session.shard_sessions
        session.close()


class TestShardedCheckpoint:
    def test_round_trip_and_continuation(self, tmp_path):
        config = PGHiveConfig(seed=5, infer_keys=True)
        change_sets = feed(4)
        session = ShardedSchemaSession(config, n_shards=3)
        for change_set in change_sets[:2]:
            session.apply(change_set)
        directory = session.checkpoint(tmp_path / "ck")
        assert (directory / "manifest.ckpt").exists()
        assert sorted(p.name for p in directory.glob("shard-*.ckpt")) == [
            "shard-000.ckpt",
            "shard-001.ckpt",
            "shard-002.ckpt",
        ]
        resumed = ShardedSchemaSession.restore(directory)
        assert resumed.sequence == session.sequence
        assert schema_fingerprint(resumed.schema()) == schema_fingerprint(
            session.schema()
        )
        for change_set in change_sets[2:]:
            session.apply(change_set)
            resumed.apply(change_set)
        assert schema_fingerprint(resumed.schema()) == schema_fingerprint(
            session.schema()
        )

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_refuses_older_manifest_versions(self, tmp_path, version):
        session = ShardedSchemaSession(PGHiveConfig(seed=5), n_shards=2)
        session.apply(feed(1)[0])
        directory = session.checkpoint(tmp_path / "ck")
        manifest = directory / MANIFEST_NAME
        payload = manifest.read_bytes().split(b"\n", 1)[1]
        if version == 1:
            manifest.write_bytes(MANIFEST_MAGIC + b" 1\n" + payload)
        else:
            write_artifact(manifest, MANIFEST_MAGIC, version, payload)
        with pytest.raises(CheckpointVersionError, match=f"version {version}"):
            ShardedSchemaSession.restore(directory)

    def test_refuses_shard_files_of_an_older_session_version(self, tmp_path):
        # The manifest is current, but a shard file is a session
        # checkpoint of the version before the endpoint-summary layout
        # change: restoring must fail typed, not as a corrupt payload.
        session = ShardedSchemaSession(PGHiveConfig(seed=5), n_shards=2)
        session.apply(feed(1)[0])
        directory = session.checkpoint(tmp_path / "ck")
        for shard in sorted(directory.glob("shard-*.ckpt")):
            payload = shard.read_bytes().split(b"\n", 1)[1]
            write_artifact(shard, CHECKPOINT_MAGIC, 3, payload)
        with pytest.raises(CheckpointVersionError, match="version 3"):
            ShardedSchemaSession.restore(directory)

    def test_manifest_validation(self, tmp_path):
        with pytest.raises(CheckpointError):
            ShardedSchemaSession.restore(tmp_path / "missing")
        bogus = tmp_path / "bogus"
        bogus.mkdir()
        (bogus / "manifest.ckpt").write_bytes(b"not a manifest\n")
        with pytest.raises(CheckpointError):
            ShardedSchemaSession.restore(bogus)

    def test_per_shard_files_are_plain_session_checkpoints(self, tmp_path):
        config = PGHiveConfig(seed=5)
        session = ShardedSchemaSession(config, n_shards=2)
        session.apply(feed(1)[0])
        directory = session.checkpoint(tmp_path / "ck")
        shard = SchemaSession.restore(directory / "shard-000.ckpt")
        assert schema_fingerprint(shard.schema_graph) == schema_fingerprint(
            session.shard_sessions[0].schema_graph
        )


def report_summary(report):
    return (
        report.sequence,
        report.nodes_inserted,
        report.edges_inserted,
        report.nodes_deleted,
        report.edges_deleted,
        tuple(index for index, _ in report.shard_reports),
    )


class TestIngestStream:
    """``apply`` is ``ingest_stream`` with a window of one."""

    @pytest.mark.parametrize("parallel", [False, True])
    def test_apply_matches_ingest_stream_report_by_report(self, parallel):
        change_sets = feed(6)
        # Edges reaching back into earlier change-sets ship stub rows.
        assert any(
            edge.source_id not in {node.node_id for node in cs.nodes}
            for cs in change_sets
            for edge in cs.edges
        )
        change_sets = [
            *change_sets[:3],
            ChangeSet.deletions(edges=["r1"]),
            *change_sets[3:],
            ChangeSet.deletions(nodes=["v0", "v5", "ghost"], edges=["r4"]),
        ]
        config = PGHiveConfig(seed=1)
        options = dict(n_shards=3, parallel=parallel, retain_union=True)
        with ShardedSchemaSession(config, **options) as lockstep:
            applied = [
                report_summary(lockstep.apply(change_set))
                for change_set in change_sets
            ]
            expected = schema_fingerprint(lockstep.schema())
        with ShardedSchemaSession(config, **options) as streamed:
            streamed_reports = streamed.ingest_stream(change_sets)
            assert streamed.reports == streamed_reports
            assert schema_fingerprint(streamed.schema()) == expected
        assert [report_summary(r) for r in streamed_reports] == applied
        assert applied[3][4] == 1 and applied[-1][3] == 2

    def test_eager_resync_bounds_pending_replay(self, monkeypatch):
        """An unread parallel feed keeps every replay tail short."""
        monkeypatch.setattr("repro.core.sharding.RESYNC_EVERY", 4)
        config = PGHiveConfig(seed=1)
        change_sets = feed(20, nodes_per_set=2)
        serial = ShardedSchemaSession(config, n_shards=2)
        serial.ingest_stream(change_sets)
        with ShardedSchemaSession(config, n_shards=2, parallel=True) as session:
            longest: list[int] = []
            stage = session._stage

            def spy(change_set):
                longest.append(max(map(len, session._pending)))
                return stage(change_set)

            monkeypatch.setattr(session, "_stage", spy)
            session.ingest_stream(change_sets)
            longest.append(max(map(len, session._pending)))
            assert len(longest) == len(change_sets) + 1
            assert max(longest) < 4
            # Resyncs wrote every shard's baseline file before any read.
            assert all(
                path is not None and path.is_file()
                for path in session._baselines.paths
            )
            assert schema_fingerprint(session.schema()) == schema_fingerprint(
                serial.schema()
            )


class TestReadPath:
    """A merged read folds shard views: it merges no union, builds or
    pickles no DiscoveryState, and its full scan reads the coordinator's
    own union."""

    def test_serial_reads_fold_views_only(self, monkeypatch):
        config = PGHiveConfig(seed=1)
        session = ShardedSchemaSession(config, n_shards=3, retain_union=True)
        change_sets = feed(4)

        def forbidden(*args, **kwargs):
            raise AssertionError("called by a merged read")

        real_dumps = pickle.dumps

        def dumps(value, *args, **kwargs):
            if isinstance(value, DiscoveryState):
                raise AssertionError("a DiscoveryState was pickled by a read")
            return real_dumps(value, *args, **kwargs)

        scanned = []
        real_post_process = PGHive.post_process

        def post_process(pipeline, schema, graph):
            scanned.append(graph)
            return real_post_process(pipeline, schema, graph)

        def read():
            with monkeypatch.context() as patch:
                patch.setattr(PropertyGraph, "merge_in", forbidden)
                patch.setattr(DiscoveryState, "merged", forbidden)
                patch.setattr(pickle, "dumps", dumps)
                patch.setattr(PGHive, "post_process", post_process)
                return session.schema()

        for change_set in change_sets[:3]:
            session.apply(change_set)
        read()
        assert scanned == []  # insert-only: accumulator reads
        session.apply(ChangeSet.deletions(edges=["r2"]))
        read()
        session.apply(change_sets[3])
        read()
        session.apply(ChangeSet.deletions(nodes=["v13"]))
        read()
        assert len(scanned) == 3
        assert all(graph is session._union for graph in scanned)

    def test_parallel_reads_leave_the_interner_alone(self):
        # Workers intern content the coordinator never sees (MinHash
        # token strings of LDBC's edges); a read must not pull it in.
        graph = load_dataset("LDBC", nodes=200, seed=1).graph
        change_sets = changesets_from_elements(
            [*graph.nodes(), *graph.edges()], batch_size=100
        )
        config = PGHiveConfig(seed=1, method=ClusteringMethod.MINHASH)
        with ShardedSchemaSession(config, n_shards=2, parallel=True) as session:
            for change_set in change_sets:
                session.apply(change_set)
                before = global_interner().snapshot()
                session.schema()
                assert global_interner().snapshot() == before


class TestParallelMode:
    def test_parallel_matches_serial(self):
        config = PGHiveConfig(seed=2, infer_keys=True)
        change_sets = feed(3)
        serial = ShardedSchemaSession(config, n_shards=2)
        for change_set in change_sets:
            serial.apply(change_set)
        with ShardedSchemaSession(config, n_shards=2, parallel=True) as parallel:
            for change_set in change_sets:
                parallel.apply(change_set)
            assert schema_fingerprint(parallel.schema()) == schema_fingerprint(
                serial.schema()
            )

    def test_pickle_handoff_without_shared_memory(self, monkeypatch):
        # Platforms without POSIX shared memory ship parts by pickle.
        monkeypatch.setattr(
            "repro.core.sharding.shm_available", lambda: False
        )
        config = PGHiveConfig(seed=2, infer_keys=True)
        change_sets = feed(3)
        serial = ShardedSchemaSession(config, n_shards=2)
        for change_set in change_sets:
            serial.apply(change_set)
        with ShardedSchemaSession(config, n_shards=2, parallel=True) as parallel:
            assert parallel.handoff == "pickle"
            for change_set in change_sets:
                parallel.apply(change_set)
            assert schema_fingerprint(parallel.schema()) == schema_fingerprint(
                serial.schema()
            )

    def test_parallel_checkpoint_restores_serially(self, tmp_path):
        config = PGHiveConfig(seed=2)
        change_sets = feed(2)
        with ShardedSchemaSession(config, n_shards=2, parallel=True) as session:
            for change_set in change_sets:
                session.apply(change_set)
            directory = session.checkpoint(tmp_path / "ck")
            expected = schema_fingerprint(session.schema())
        resumed = ShardedSchemaSession.restore(directory, parallel=False)
        assert not resumed.parallel
        assert schema_fingerprint(resumed.schema()) == expected


class TestRecoveryBaselines:
    """A parallel shard's crash-recovery baseline is a checkpoint file
    its worker reads and writes: no shard state crosses to the
    coordinator, and no baseline file outlives its session."""

    def test_worker_state_entry_points_are_gone(self):
        assert not hasattr(sharding, "_worker_state")
        assert not hasattr(sharding, "_worker_adopt")

    def test_no_discovery_state_reaches_the_coordinator(
        self, tmp_path, monkeypatch
    ):
        config = PGHiveConfig(seed=1)
        inserts = feed(76, nodes_per_set=2)
        change_sets = list(inserts[:3])
        for index, change_set in enumerate(inserts[3:]):
            change_sets.append(change_set)
            if index % 10 == 9:
                change_sets.append(ChangeSet.deletions(edges=[f"r{index}"]))
        oracle = SchemaSession(config, retain_union=True)
        for change_set in change_sets:
            oracle.apply(change_set)
        options = dict(n_shards=2, parallel=True, retain_union=True)
        with ShardedSchemaSession(config, **options) as session:
            for change_set in change_sets[:3]:
                session.apply(change_set)
            session.checkpoint(tmp_path / "ck")

        crossed: list[str] = []

        def reduce_ex(state, protocol):
            crossed.append("pickled")
            return object.__reduce_ex__(state, protocol)

        def setstate(state, values):
            crossed.append("unpickled")
            state.__dict__.update(values)

        monkeypatch.setattr(DiscoveryState, "__reduce_ex__", reduce_ex)
        monkeypatch.setattr(
            DiscoveryState, "__setstate__", setstate, raising=False
        )
        restored = ShardedSchemaSession.restore(tmp_path / "ck")
        try:
            tail = change_sets[3:]
            assert len(tail) >= 70 + 3
            for change_set in tail[:70]:
                restored.apply(change_set)
            restored.checkpoint(tmp_path / "ck2")
            checkpointed = list(restored._baselines.paths)
            monkeypatch.setattr("repro.core.sharding.RESYNC_EVERY", 1)
            restored.apply(tail[70])
            for change_set in tail[71:]:
                restored.apply(change_set)
            # The forced resync replaced the checkpoint's baselines.
            assert all(
                path is not None and path not in checkpointed
                for path in restored._baselines.paths
            )
            assert schema_fingerprint(restored.schema()) == schema_fingerprint(
                oracle.schema()
            )
        finally:
            restored.close()
        assert crossed == []

    def test_restore_leaves_the_interner_alone(self, tmp_path):
        # Shard files carry interner content the coordinator never sees
        # (MinHash token strings of LDBC's edges); restore reads only
        # their unions.
        graph = load_dataset("LDBC", nodes=200, seed=1).graph
        change_sets = changesets_from_elements(
            [*graph.nodes(), *graph.edges()], batch_size=100
        )
        config = PGHiveConfig(seed=1, method=ClusteringMethod.MINHASH)
        options = dict(n_shards=2, parallel=True, retain_union=True)
        with ShardedSchemaSession(config, **options) as session:
            for change_set in change_sets:
                session.apply(change_set)
            session.checkpoint(tmp_path / "ck")
            expected = schema_fingerprint(session.schema())
        before = global_interner().snapshot()
        with ShardedSchemaSession.restore(tmp_path / "ck") as restored:
            assert global_interner().snapshot() == before
            assert schema_fingerprint(restored.schema()) == expected

    def test_baseline_directory_never_outlives_its_session(self, tmp_path):
        config = PGHiveConfig(seed=1)
        made: list = []

        def session_with_baselines():
            session = ShardedSchemaSession(config, n_shards=2, parallel=True)
            for change_set in feed(2):
                session.apply(change_set)
            session.checkpoint(tmp_path / f"ck{len(made)}")
            directory = session._baselines._directory
            assert directory.is_dir()
            assert directory.name.startswith("pghive-baselines-")
            made.append(directory)
            return session

        session_with_baselines().close()
        assert not made[-1].exists()
        with session_with_baselines():
            pass
        assert not made[-1].exists()
        session = session_with_baselines()
        pools = session._pools
        del session
        gc.collect()
        try:
            assert not made[-1].exists()
        finally:
            for pool in pools:
                pool.shutdown()

    def test_recovered_durable_session_owns_the_baselines(self, tmp_path):
        config = PGHiveConfig(seed=1)
        home = tmp_path / "durable"
        with DurableShardedSchemaSession(
            home, config, n_shards=2, parallel=True, retain_union=True
        ) as durable:
            for change_set in feed(3):
                durable.apply(change_set)
            durable.checkpoint()
            durable.apply(ChangeSet.deletions(edges=["r1"]))
            expected = schema_fingerprint(durable.schema())
        recovered = DurableShardedSchemaSession.recover(home, parallel=True)
        try:
            gc.collect()  # the restored donor is gone
            directory = recovered._baselines._directory
            assert directory.is_dir()
            assert home not in directory.parents
            assert all(
                path.parent == directory for path in recovered._baselines.paths
            )
            assert schema_fingerprint(recovered.schema()) == expected
        finally:
            recovered.close()
        assert not directory.exists()

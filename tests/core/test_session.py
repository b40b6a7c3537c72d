"""Unit tests for the `SchemaSession` change-feed façade."""

import pytest

from repro.core.config import PGHiveConfig
from repro.core.pipeline import PGHive
from repro.core.session import DiffEvent, SchemaSession
from repro.core.sharding import ShardedSchemaSession
from repro.errors import ConfigurationError, DanglingEdgeError
from repro.graph.batching import split_into_batches
from repro.graph.changes import ChangeSet
from repro.graph.model import Edge, Node
from repro.graph.store import GraphStore
from repro.schema.model import schema_fingerprint


def feed(session, graph, batches=3, seed=4):
    for batch in split_into_batches(graph, batches, seed=seed):
        session.add_batch(batch)
    return session


class TestChangeSet:
    def test_from_graph_round_trip(self, figure1_graph):
        change = ChangeSet.from_graph(figure1_graph)
        assert change.insert_count == len(figure1_graph)
        assert change.has_inserts and not change.has_deletions

    def test_emptiness(self):
        assert ChangeSet().is_empty
        assert not ChangeSet()
        assert ChangeSet.deletions(nodes=["x"])
        assert ChangeSet.inserts(nodes=[Node("a")]).change_count == 1


class TestChangeFeed:
    def test_apply_matches_add_batch(self, figure1_graph):
        by_batch = feed(SchemaSession(PGHiveConfig(seed=0)), figure1_graph)
        by_change = SchemaSession(PGHiveConfig(seed=0))
        for batch in split_into_batches(figure1_graph, 3, seed=4):
            by_change.apply(ChangeSet.from_graph(batch))
        assert schema_fingerprint(by_batch.schema()) == schema_fingerprint(
            by_change.schema()
        )

    def test_matches_discover_incremental(self, figure1_graph):
        config = PGHiveConfig(seed=0)
        batches = split_into_batches(figure1_graph, 3, seed=4)
        result = PGHive(config).discover_incremental(batches)
        session = feed(SchemaSession(config), figure1_graph)
        assert schema_fingerprint(session.schema()) == schema_fingerprint(
            result.schema
        )

    def test_reports_and_sequence(self, figure1_graph):
        session = feed(SchemaSession(PGHiveConfig(seed=0)), figure1_graph)
        assert [r.sequence for r in session.reports] == [1, 2, 3]
        assert session.sequence == 3
        assert all(r.seconds >= 0.0 for r in session.reports)

    def test_empty_change_set_is_a_recorded_noop(self, figure1_graph):
        session = feed(SchemaSession(PGHiveConfig(seed=0)), figure1_graph)
        types_before = session.schema_graph.node_type_count
        report = session.apply(ChangeSet())
        assert report.nodes_inserted == report.nodes_deleted == 0
        assert session.schema_graph.node_type_count == types_before


class TestSnapshots:
    def test_mid_stream_schema_is_post_processed(self, figure1_graph):
        session = SchemaSession(PGHiveConfig(seed=0))
        batches = split_into_batches(figure1_graph, 2, seed=3)
        session.add_batch(batches[0])
        # The raw schema is lazy: nothing post-processed yet.
        assert all(
            spec.data_type is None
            for t in session.schema_graph.node_types()
            for spec in t.properties.values()
        )
        snapshot = session.schema()
        assert any(
            spec.data_type is not None
            for t in snapshot.node_types()
            for spec in t.properties.values()
        )
        # The stream continues after the read.
        session.add_batch(batches[1])
        person = session.schema().node_type_by_token("Person")
        assert person.properties["name"].data_type is not None

    def test_snapshot_cached_until_next_write(self, figure1_graph):
        session = feed(SchemaSession(PGHiveConfig(seed=0)), figure1_graph)
        session.schema()
        lap_after_first = session.timer.lap("postprocess")
        session.schema()  # clean read: no second post-processing pass
        assert session.timer.lap("postprocess") == lap_after_first
        assert not session.dirty

    def test_finalize_matches_schema_read(self, figure1_graph):
        config = PGHiveConfig(seed=0)
        read = feed(SchemaSession(config), figure1_graph).schema()
        finalized = feed(SchemaSession(config), figure1_graph).finalize().schema
        assert schema_fingerprint(read) == schema_fingerprint(finalized)


class TestDiffSubscriptions:
    def test_event_per_change_set(self, figure1_graph):
        session = SchemaSession(PGHiveConfig(seed=0))
        events: list[DiffEvent] = []
        session.subscribe(events.append)
        batches = split_into_batches(figure1_graph, 3, seed=4)
        for batch in batches:
            session.add_batch(batch)
        assert [e.sequence for e in events] == [1, 2, 3]
        assert events[0].report.nodes_inserted == batches[0].node_count

    def test_first_event_reports_new_types(self, figure1_graph):
        session = SchemaSession(PGHiveConfig(seed=0))
        events = []
        session.subscribe(events.append)
        session.add_batch(figure1_graph)
        diff = events[0].diff
        assert set(diff.added_node_types) == {"Org.", "Person", "Place", "Post"}
        assert not diff.removed_node_types

    def test_unsubscribe_stops_delivery(self, figure1_graph):
        session = SchemaSession(PGHiveConfig(seed=0))
        events = []
        callback = session.subscribe(events.append)
        batches = split_into_batches(figure1_graph, 2, seed=3)
        session.add_batch(batches[0])
        session.unsubscribe(callback)
        session.add_batch(batches[1])
        assert len(events) == 1
        session.unsubscribe(callback)  # unknown callback: no-op

    def test_deletion_emits_removed_type(self, figure1_graph):
        session = SchemaSession(
            PGHiveConfig(seed=0), retain_union=True
        )
        session.add_batch(figure1_graph)
        events = []
        session.subscribe(events.append)
        session.apply(ChangeSet.deletions(nodes=["place"]))
        assert events[-1].diff.removed_node_types == ["Place"]
        assert events[-1].report.nodes_deleted == 1


class TestDeletions:
    def test_requires_retained_union(self, figure1_graph):
        session = SchemaSession(PGHiveConfig(seed=0))
        session.add_batch(figure1_graph)
        with pytest.raises(ConfigurationError):
            session.apply(ChangeSet.deletions(nodes=["place"]))

    def test_delete_cascades_and_drops_types(self, figure1_graph):
        session = SchemaSession(PGHiveConfig(seed=0), retain_union=True)
        session.add_batch(figure1_graph)
        report = session.apply(ChangeSet.deletions(nodes=["place"]))
        assert report.nodes_deleted == 1
        assert report.edges_deleted == 2  # both LOCATED_IN edges
        schema = session.schema()
        assert schema.node_type_by_token("Place") is None
        assert schema.edge_type_by_token("LOCATED_IN") is None

    def test_streaming_falls_back_to_full_scan(self, figure1_graph):
        session = SchemaSession(PGHiveConfig(seed=0), retain_union=True)
        session.add_batch(figure1_graph)
        assert session._streaming_valid
        session.apply(ChangeSet.deletions(edges=["e2"]))
        assert not session._streaming_valid
        knows = session.schema().edge_type_by_token("KNOWS")
        assert knows.instance_ids == {"e1"}
        # "since" died with e2: its count is gone and the spec is pruned
        # with it -- no surviving instance backs it, so leaving a phantom
        # STRING/optional entry would misdescribe the data (and would
        # diverge from the sharded merge, which only sees live carriers).
        assert knows.property_counts.get("since", 0) == 0
        assert "since" not in knows.properties

    def test_mixed_change_set_inserts_before_deletes(self, figure1_graph):
        session = SchemaSession(PGHiveConfig(seed=0), retain_union=True)
        session.add_batch(figure1_graph)
        change = ChangeSet(
            nodes=[Node("eve", {"Person"}, {"name": "Eve", "gender": "f",
                                            "bday": "1/1/2000"})],
            delete_nodes=["john"],
        )
        report = session.apply(change)
        assert report.nodes_inserted == 1 and report.nodes_deleted == 1
        person = session.schema().node_type_by_token("Person")
        assert "eve" in person.instance_ids
        assert "john" not in person.instance_ids


class TestEndpointResolution:
    def test_unresolvable_endpoint_raises(self):
        session = SchemaSession(PGHiveConfig(seed=0))
        with pytest.raises(DanglingEdgeError):
            session.apply(
                ChangeSet.inserts(edges=[Edge("e", "ghost-a", "ghost-b")])
            )

    def test_union_resolves_endpoint_stubs(self, figure1_graph):
        session = SchemaSession(PGHiveConfig(seed=0), retain_union=True)
        session.add_batch(figure1_graph)
        # New edge between already-known nodes, shipped without stubs.
        report = session.apply(
            ChangeSet.inserts(edges=[Edge("e8", "alice", "post2", {"LIKES"})])
        )
        assert report.edges_inserted == 1
        # Resolved endpoint stubs are replays, not inserts.
        assert report.nodes_inserted == 0
        likes = session.schema().edge_type_by_token("LIKES")
        assert "e8" in likes.instance_ids

    def test_store_resolves_endpoint_stubs(self, figure1_graph):
        store = GraphStore(figure1_graph)
        session = SchemaSession(PGHiveConfig(seed=0))
        store.attach(session, replay=True)
        store.detach()
        session.bind_store(store)  # resolution-only binding
        session.apply(
            ChangeSet.inserts(edges=[Edge("e8", "alice", "post2", {"LIKES"})])
        )
        likes = session.schema().edge_type_by_token("LIKES")
        assert "e8" in likes.instance_ids


class TestSignatureRefcounts:
    """Resolved endpoints are stub rows: clustered, never re-counted."""

    @staticmethod
    def by_label(signatures):
        interner = signatures.interner
        counts: dict[str, int] = {}
        for signature_id, count in signatures.refcounts.items():
            signature = interner.element_signature(signature_id)
            (label,) = interner.labelset(signature.labelset_id).labels
            counts[label] = counts.get(label, 0) + count
        return counts

    @staticmethod
    def live_instances(schema, edges=True):
        types = list(schema.node_types())
        if edges:
            types += list(schema.edge_types())
        return {
            label: schema_type.instance_count
            for schema_type in types
            for label in schema_type.labels
        }

    def test_edge_only_inserts_match_live_instances(self):
        config = PGHiveConfig(seed=0, retain_union=True)
        feed = [
            ChangeSet.inserts(
                [Node("a", {"P"}, {"x": 1}), Node("b", {"P"}, {"x": 2})]
            ),
            ChangeSet.inserts(edges=[Edge("e1", "a", "b", {"K"})]),
            ChangeSet.inserts(edges=[Edge("e2", "a", "b", {"K"})]),
            ChangeSet.deletions(nodes=["a"]),  # cascades e1 and e2
        ]
        single = SchemaSession(config)
        with ShardedSchemaSession(config, n_shards=2) as sharded:
            for change_set in feed:
                single.apply(change_set)
                sharded.apply(change_set)
                counts = self.by_label(single.discovery_state.signatures)
                schema = single.schema_graph
                assert counts == self.live_instances(schema)
                # The coordinator counts registered nodes only.
                nodes = self.live_instances(schema, edges=False)
                assert {
                    label: count
                    for label, count in counts.items()
                    if label in nodes
                } == self.by_label(sharded._signatures)
        assert counts == {"P": 1}


class TestStoreAttachment:
    def test_mutations_flow_live(self, figure1_graph):
        store = GraphStore()
        session = SchemaSession(PGHiveConfig(seed=0))
        store.attach(session)
        for node in figure1_graph.nodes():
            store.add_node(node)
        for edge in figure1_graph.edges():
            store.add_edge(edge)
        tokens = {t.token for t in session.schema().node_types()}
        assert tokens == {"Person", "Post", "Org.", "Place"}
        assert session.sequence == len(figure1_graph)

    def test_buffered_flush(self, figure1_graph):
        store = GraphStore()
        session = SchemaSession(PGHiveConfig(seed=0))
        store.attach(session, flush_every=1000)
        for node in figure1_graph.nodes():
            store.add_node(node)
        assert session.sequence == 0  # still buffered
        store.flush()
        assert session.sequence == 1
        assert session.schema().node_type_count == 4

    def test_detach_flushes_and_stops(self, figure1_graph):
        store = GraphStore()
        session = SchemaSession(PGHiveConfig(seed=0))
        store.attach(session, flush_every=1000)
        for node in figure1_graph.nodes():
            store.add_node(node)
        store.detach()
        assert session.sequence == 1  # detach flushed the buffer
        store.add_node(Node("late", {"Person"}, {"name": "Late"}))
        assert session.sequence == 1  # no longer forwarded

    def test_replay_seeds_preloaded_store(self, figure1_graph):
        store = GraphStore(figure1_graph)
        session = SchemaSession(PGHiveConfig(seed=0))
        store.attach(session, replay=True)
        assert session.schema().node_type_count == 4

    def test_unforwardable_deletion_rejected_before_mutation(
        self, figure1_graph
    ):
        # A union-less session cannot consume deletions; the store must
        # refuse *before* mutating so store and session never diverge.
        store = GraphStore(figure1_graph)
        session = SchemaSession(PGHiveConfig(seed=0))
        store.attach(session, replay=True)
        for mutation in (
            lambda: store.remove_node("place"),
            lambda: store.remove_edge("e1"),
            lambda: store.update_node(store.node("john")),
            lambda: store.update_edge(store.edge("e1")),
        ):
            with pytest.raises(ConfigurationError):
                mutation()
        assert store.graph.has_node("place")  # nothing was committed
        assert store.graph.has_edge("e1")
        store.add_node(Node("late", {"Person"}, {"name": "Late"}))
        assert session.sequence == 2  # replay + the late insert still flow

    def test_double_attach_rejected(self, figure1_graph):
        store = GraphStore()
        store.attach(SchemaSession(PGHiveConfig(seed=0)))
        with pytest.raises(ConfigurationError):
            store.attach(SchemaSession(PGHiveConfig(seed=0)))

    def test_store_deletions_flow_through(self, figure1_graph):
        store = GraphStore()
        session = SchemaSession(PGHiveConfig(seed=0), retain_union=True)
        store.attach(session, replay=False)
        for node in figure1_graph.nodes():
            store.add_node(node)
        for edge in figure1_graph.edges():
            store.add_edge(edge)
        store.remove_node("place")
        schema = session.schema()
        assert schema.node_type_by_token("Place") is None
        assert not session.union_graph.has_node("place")

    def test_update_node_reroutes_as_delete_insert(self, figure1_graph):
        store = GraphStore()
        session = SchemaSession(PGHiveConfig(seed=0), retain_union=True)
        store.attach(session)
        for node in figure1_graph.nodes():
            store.add_node(node)
        for edge in figure1_graph.edges():
            store.add_edge(edge)
        updated = store.node("john").with_properties(
            {"name": "John", "gender": "male", "bday": "24/9/2005",
             "city": "Athens"}
        )
        store.update_node(updated)
        person = session.schema().node_type_by_token("Person")
        assert "john" in person.instance_ids
        assert "city" in person.property_keys
        # Incident edges survived the delete/reinsert round trip.
        knows = session.schema_graph.edge_type_by_token("KNOWS")
        assert {"e1", "e2"} <= knows.instance_ids

    def test_update_edge_reroutes_as_delete_insert(self, figure1_graph):
        store = GraphStore()
        session = SchemaSession(PGHiveConfig(seed=0), retain_union=True)
        store.attach(session)
        for node in figure1_graph.nodes():
            store.add_node(node)
        for edge in figure1_graph.edges():
            store.add_edge(edge)
        store.update_edge(store.edge("e2").with_properties({"since": 2026}))
        knows = session.schema().edge_type_by_token("KNOWS")
        assert "e2" in knows.instance_ids
        assert session.union_graph.edge("e2").properties["since"] == 2026


class TestAdapterDelegation:
    def test_discover_equals_one_batch_session(self, figure1_graph):
        config = PGHiveConfig(seed=0, infer_keys=True)
        result = PGHive(config).discover(figure1_graph)
        session = SchemaSession(
            config, schema_name=f"{figure1_graph.name}-schema"
        )
        session.add_batch(figure1_graph)
        assert not session.retains_union
        assert schema_fingerprint(result.schema) == schema_fingerprint(
            session.schema()
        )

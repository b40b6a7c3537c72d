"""Crash-recovery oracle: recover == never crashed, at every boundary.

The durability invariant under test: crash a durable session at *any*
WAL record boundary (or mid-record, leaving a torn tail), recover from
disk, finish the feed, and the schema fingerprint equals an
uninterrupted run of the same feed.  Exhaustive boundary sweeps cover
element-wise, columnar, and sharded (1/2/4 shards) feeds; a
Hypothesis-driven version varies the script, the crash point, and the
checkpoint position.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
import pytest

from repro.core.config import PGHiveConfig
from repro.core.faults import FaultInjector, SimulatedCrash
from repro.core.recovery import (
    DurableSchemaSession,
    DurableShardedSchemaSession,
)
from repro.core.session import SchemaSession
from repro.core.sharding import ShardedSchemaSession
from repro.graph.changes import ChangeSet
from repro.graph.columnar import BatchBuilder, global_interner
from repro.graph.model import Edge, Node
from repro.schema.model import schema_fingerprint

CONFIG = PGHiveConfig(seed=0, infer_keys=True)

LABELS = ["Person", "Org", "Post"]
KEYS = ["name", "age", "rank"]


def element_insert(round_, width=4):
    nodes = [
        Node(f"n{round_}-{i}", {LABELS[i % len(LABELS)]},
             {"name": f"x{i}", "age": i})
        for i in range(width)
    ]
    edges = [
        Edge(f"e{round_}-{i}", nodes[i].node_id, nodes[i + 1].node_id,
             {"REL"}, {"w": i})
        for i in range(width - 1)
    ]
    return ChangeSet.inserts(nodes, edges)


def columnar_insert(round_, width=4):
    # All columnar change-sets share the process-wide interner: sharded
    # sessions pin one interner per session, and WAL replay decodes
    # against the global one by default.
    interner = global_interner()
    builder = BatchBuilder(interner)
    keys = interner.intern_keys(["age", "name"])
    for i in range(width):
        builder.add_node(
            f"c{round_}-{i}",
            interner.intern_labels([LABELS[i % len(LABELS)]]),
            keys,
            (i, f"y{i}"),
        )
    return ChangeSet.inserts_columnar(builder.freeze())


def linking_insert(round_):
    """Element insert whose edges reach nodes of earlier change-sets.

    The session resolves those endpoints (union, store or registry) into
    stub rows before logging, so replay must need no lookup.
    """
    node = Node(f"n{round_}-0", {"Person"}, {"name": "z", "age": 9})
    edges = [
        Edge(f"e{round_}-0", node.node_id, "n0-0", {"REL"}, {"w": 0}),
        Edge(f"e{round_}-1", "c1-0", "n2-1", {"REL"}, {"w": 1}),
    ]
    return ChangeSet.inserts([node], edges)


def mixed_feed():
    """Element inserts, columnar inserts, and deletions interleaved."""
    return [
        element_insert(0),
        columnar_insert(1),
        element_insert(2),
        linking_insert(3),
        ChangeSet.deletions(nodes=["n0-1"], edges=["e2-0"]),
        columnar_insert(4),
        element_insert(5),
        ChangeSet.deletions(nodes=["c1-2"]),
        element_insert(7),
    ]


def uncrashed_fingerprint(feed):
    session = SchemaSession(CONFIG, schema_name="s", retain_union=True)
    for change_set in feed:
        session.apply(change_set)
    return schema_fingerprint(session.schema())


def recover_and_finish(directory, feed, sharded=False, n_shards=1):
    cls = DurableShardedSchemaSession if sharded else DurableSchemaSession
    kwargs = {"n_shards": n_shards} if sharded else {}
    session = cls.recover(
        directory,
        config=CONFIG,
        schema_name="s",
        fsync="off",
        retain_union=True,
        **kwargs,
    )
    for change_set in feed[session.sequence:]:
        session.apply(change_set)
    fingerprint = schema_fingerprint(session.schema())
    session.close()
    return fingerprint


class TestEveryBoundary:
    def test_single_session_every_record_boundary(self, tmp_path):
        feed = mixed_feed()
        want = uncrashed_fingerprint(feed)
        for boundary in range(len(feed) + 1):
            directory = tmp_path / f"b{boundary}"
            session = DurableSchemaSession(
                directory, CONFIG, schema_name="s", fsync="off",
                retain_union=True,
            )
            for change_set in feed[:boundary]:
                session.apply(change_set)
            if boundary == 5:
                session.checkpoint()
            del session  # crash at the record boundary
            assert recover_and_finish(directory, feed) == want, (
                f"boundary {boundary}"
            )

    def test_single_session_torn_tail_at_every_record(self, tmp_path):
        feed = mixed_feed()
        want = uncrashed_fingerprint(feed)

        def tear(point, context):
            FaultInjector.truncate_at(
                context["path"], context["record_start"] + 6
            )
            raise SimulatedCrash("torn")

        for victim in range(len(feed)):
            directory = tmp_path / f"t{victim}"
            session = DurableSchemaSession(
                directory, CONFIG, schema_name="s", fsync="off",
                retain_union=True,
            )
            with FaultInjector() as injector:
                injector.arm("wal.after_append", tear, after=victim)
                with pytest.raises(SimulatedCrash):
                    for change_set in feed:
                        session.apply(change_set)
            recovered = DurableSchemaSession.recover(
                directory,
                config=CONFIG,
                schema_name="s",
                fsync="off",
                retain_union=True,
            )
            # The torn record vanished: recovery lands exactly before it.
            assert recovered.sequence == victim
            for change_set in feed[recovered.sequence:]:
                recovered.apply(change_set)
            assert schema_fingerprint(recovered.schema()) == want, (
                f"victim {victim}"
            )
            recovered.close()

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_sharded_every_record_boundary(self, tmp_path, n_shards):
        feed = mixed_feed()
        want = uncrashed_fingerprint(feed)
        for boundary in range(len(feed) + 1):
            directory = tmp_path / f"s{n_shards}-{boundary}"
            session = DurableShardedSchemaSession(
                directory,
                CONFIG,
                schema_name="s",
                n_shards=n_shards,
                fsync="off",
                retain_union=True,
            )
            for change_set in feed[:boundary]:
                session.apply(change_set)
            if boundary == 4:
                session.checkpoint()
            del session
            got = recover_and_finish(
                directory, feed, sharded=True, n_shards=n_shards
            )
            assert got == want, f"shards {n_shards}, boundary {boundary}"


@st.composite
def crash_scripts(draw):
    """A feed plus a crash boundary and an optional checkpoint position."""
    feed = []
    serial = 0
    inserted_nodes = []
    for _ in range(draw(st.integers(3, 6))):
        kind = draw(st.sampled_from(["elements", "columnar", "delete"]))
        if kind == "delete" and not inserted_nodes:
            kind = "elements"
        serial += 1
        if kind == "elements":
            change_set = element_insert(
                f"h{serial}", width=draw(st.integers(2, 4))
            )
            inserted_nodes.extend(n.node_id for n in change_set.nodes)
            feed.append(change_set)
        elif kind == "columnar":
            change_set = columnar_insert(
                f"h{serial}", width=draw(st.integers(2, 4))
            )
            inserted_nodes.extend(change_set.columnar.nodes.ids)
            feed.append(change_set)
        else:
            index = draw(st.integers(0, len(inserted_nodes) - 1))
            feed.append(
                ChangeSet.deletions(nodes=[inserted_nodes[index]])
            )
    crash_at = draw(st.integers(0, len(feed)))
    checkpoint_at = draw(
        st.one_of(st.none(), st.integers(1, max(1, crash_at)))
    )
    return feed, crash_at, checkpoint_at


class TestHypothesisOracle:
    @given(script=crash_scripts())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_recovery_matches_uncrashed(self, script, tmp_path_factory):
        feed, crash_at, checkpoint_at = script
        want = uncrashed_fingerprint(feed)
        directory = tmp_path_factory.mktemp("oracle") / "sess"
        session = DurableSchemaSession(
            directory, CONFIG, schema_name="s", fsync="off", retain_union=True
        )
        for index, change_set in enumerate(feed[:crash_at]):
            session.apply(change_set)
            if checkpoint_at is not None and index + 1 == checkpoint_at:
                session.checkpoint()
        del session
        assert recover_and_finish(directory, feed) == want


class TestShardedMatchesSingle:
    """Recovered sharded feeds agree with the plain sharded session too."""

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_three_surfaces_agree(self, tmp_path, n_shards):
        feed = mixed_feed()
        want = uncrashed_fingerprint(feed)

        sharded = ShardedSchemaSession(
            CONFIG, schema_name="s", n_shards=n_shards, retain_union=True
        )
        for change_set in feed:
            sharded.apply(change_set)
        assert schema_fingerprint(sharded.schema()) == want

        directory = tmp_path / "durable"
        durable = DurableShardedSchemaSession(
            directory,
            CONFIG,
            schema_name="s",
            n_shards=n_shards,
            fsync="off",
            retain_union=True,
        )
        for change_set in feed[:4]:
            durable.apply(change_set)
        del durable
        got = recover_and_finish(
            directory, feed, sharded=True, n_shards=n_shards
        )
        assert got == want

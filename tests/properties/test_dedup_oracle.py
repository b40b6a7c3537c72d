"""Property-based equivalence: structural dedup on vs off.

Content-addressable dedup (`structural_dedup`) routes rows whose element
signature was seen in a prior batch through per-signature repeat
clusters instead of the full preprocess/LSH/extract pipeline.  For
random interleaved insert/delete columnar feeds of labelled elements --
drawn repeat-heavy, because that is the regime the fast path actually
fires in -- the discovered schema must be fingerprint-identical with
dedup on and off, at every tested shard count, and across durable
checkpoint/restore and WAL crash-replay (which must also round-trip the
signature store's refcounts exactly).

Dedup is *not* exact in general: on unlabeled, noisy incremental
streams the repeat split changes which rows ``adapt_parameters``
samples, the cluster boundaries and the cluster order, and unlabeled
Algorithm 2 absorption is sensitive to all three.  A measured
counterexample is pinned below as a strict xfail, so a fix flips it.

The generators keep every edge's endpoints inside its own change-set,
so feeds are endpoint-complete without stub shipping; stub interactions
with dedup refcounts are pinned separately in the sharding suite.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.recovery import DurableSchemaSession
from repro.core.session import SchemaSession
from repro.core.sharding import ShardedSchemaSession
from repro.datasets.noise import apply_noise
from repro.datasets.registry import load_dataset
from repro.graph.batching import split_into_batches
from repro.graph.changes import ChangeSet
from repro.graph.columnar import BatchBuilder, ElementBatch, global_interner
from repro.schema.model import schema_fingerprint

SHARD_COUNTS = (1, 2, 4)

#: Hot structure pool: repeats draw from here, so most rows share a
#: small set of element signatures (the dedup fast path's habitat).
HOT_NODES = (
    ("Person", ("age", "name")),
    ("Person", ("name",)),
    ("Org", ("url",)),
    ("Post", ("name", "rank")),
)
HOT_EDGES = (
    ("KNOWS", ("w",)),
    ("LIKES", ()),
)
INT_KEYS = {"age", "rank", "w"}


def _value(key: str, serial: int):
    return serial if key in INT_KEYS else f"{key}-{serial}"


def _config(dedup: bool) -> PGHiveConfig:
    # MinHash + AND grouping is the regime where the repeat split
    # engages (exact structure grouping); dedup is a no-op elsewhere.
    return PGHiveConfig(
        method=ClusteringMethod.MINHASH,
        seed=11,
        infer_keys=True,
        structural_dedup=dedup,
    )


@st.composite
def dedup_scripts(draw):
    """Interleaved insert/delete ops over a repeat-heavy structure mix."""
    ops = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["insert", "insert", "del_nodes", "del_edges"]))
        if kind == "insert":
            nodes = []
            for _ in range(draw(st.integers(1, 4))):
                # ~80% of rows reuse a hot structure; the rest mint a
                # fresh key-set so first-instance and repeat rows mix
                # inside single batches as well as across them.
                pick = draw(st.integers(0, 9))
                nodes.append(pick if pick < 8 else None)
            edges = [draw(st.integers(0, 7)) for _ in range(draw(st.integers(0, 2)))]
            ops.append(("insert", nodes, edges))
        else:
            ops.append((kind, draw(st.lists(st.integers(0, 99), min_size=1, max_size=2))))
    return ops


def build_feed(ops) -> list[ChangeSet]:
    """Resolve a script into columnar change-sets (global interner).

    Inserts become :class:`BatchBuilder` batches whose edges connect
    nodes of the same batch (endpoint-complete); deletes target
    previously-inserted ids, exercising refcount decrements.
    """
    interner = global_interner()
    serial = 0
    node_ids: list[str] = []
    edge_ids: list[str] = []
    feed: list[ChangeSet] = []
    for op in ops:
        if op[0] == "insert":
            _, node_picks, edge_picks = op
            builder = BatchBuilder(interner)
            batch_nodes = []
            for pick in node_picks:
                serial += 1
                if pick is not None:
                    label, keys = HOT_NODES[pick % len(HOT_NODES)]
                else:
                    label, keys = "Person", ("name", f"k{serial}")
                node_id = f"v{serial}"
                builder.add_node(
                    node_id,
                    interner.intern_labels([label]),
                    interner.intern_keys(keys),
                    tuple(_value(key, serial) for key in keys),
                )
                batch_nodes.append(node_id)
                node_ids.append(node_id)
            for pick in edge_picks:
                if len(batch_nodes) < 2:
                    break
                serial += 1
                label, keys = HOT_EDGES[pick % len(HOT_EDGES)]
                edge_id = f"r{serial}"
                builder.add_edge(
                    edge_id,
                    batch_nodes[pick % len(batch_nodes)],
                    batch_nodes[(pick + 1) % len(batch_nodes)],
                    interner.intern_labels([label]),
                    interner.intern_keys(keys),
                    tuple(_value(key, serial) for key in keys),
                )
                edge_ids.append(edge_id)
            feed.append(ChangeSet.inserts_columnar(builder.freeze()))
        elif op[0] == "del_nodes":
            if not node_ids:
                continue
            targets = sorted({node_ids[i % len(node_ids)] for i in op[1]})
            feed.append(ChangeSet.deletions(nodes=targets))
        else:
            if not edge_ids:
                continue
            targets = sorted({edge_ids[i % len(edge_ids)] for i in op[1]})
            feed.append(ChangeSet.deletions(edges=targets))
    return feed


def drive(feed, dedup: bool, n_shards: int = 1):
    if n_shards == 1:
        session = SchemaSession(_config(dedup), retain_union=True)
    else:
        session = ShardedSchemaSession(
            _config(dedup), n_shards=n_shards, retain_union=True
        )
    for change_set in feed:
        session.apply(change_set)
    return session


class TestDedupMatchesNoDedup:
    @given(ops=dedup_scripts())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fingerprint_identical_at_all_shard_counts(self, ops):
        feed = build_feed(ops)
        for n_shards in SHARD_COUNTS:
            off = schema_fingerprint(drive(feed, dedup=False, n_shards=n_shards).schema())
            on = schema_fingerprint(drive(feed, dedup=True, n_shards=n_shards).schema())
            assert on == off, f"n_shards={n_shards} diverged with dedup on"

    def test_repeat_fast_path_engages(self):
        """Pinned: cross-batch repeats actually take the dedup path.

        Two batches of identical structures leave the second batch's
        rows as pure repeats; the store must hold their live refcounts
        (one per inserted row) and the schema must match dedup-off.
        """
        ops = [
            ("insert", [0, 0, 1], [0]),
            ("insert", [0, 1, 2], [0, 1]),
            ("del_nodes", [0]),
            ("insert", [0, 2], []),
        ]
        feed = build_feed(ops)
        on = drive(feed, dedup=True)
        off = drive(feed, dedup=False)
        assert schema_fingerprint(on.schema()) == schema_fingerprint(off.schema())
        refcounts = on._dstate.signatures.refcounts
        assert any(count > 1 for count in refcounts.values())
        # Both sessions maintain refcounts (the store also serves WAL
        # compaction); the split being on or off must not change them.
        assert refcounts == off._dstate.signatures.refcounts


    @pytest.mark.xfail(
        strict=True,
        reason="repeat split moves unlabeled Algorithm 2 merges: "
        "267 node types with dedup, 265 without",
    )
    def test_unlabeled_noisy_incremental_stream(self):
        graph = apply_noise(
            load_dataset("ICIJ", nodes=1500, seed=3), 0.2, 0.0, seed=7
        ).graph
        fingerprints = []
        for dedup in (True, False):
            session = SchemaSession(
                PGHiveConfig(
                    method=ClusteringMethod.MINHASH,
                    seed=11,
                    structural_dedup=dedup,
                )
            )
            for batch in split_into_batches(graph, 5, seed=1):
                session.apply(
                    ChangeSet.inserts_columnar(ElementBatch.from_graph(batch))
                )
            fingerprints.append(schema_fingerprint(session.schema()))
        assert fingerprints[0] == fingerprints[1]


class TestDedupSurvivesRecovery:
    @given(
        ops=dedup_scripts(),
        crash_fraction=st.floats(0.0, 1.0),
        with_checkpoint=st.booleans(),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_crash_replay_round_trips_signature_store(
        self, ops, crash_fraction, with_checkpoint, tmp_path_factory
    ):
        """Recover == never crashed, with dedup on -- and the recovered
        signature store's refcounts equal the uninterrupted run's."""
        feed = build_feed(ops)
        reference = drive(feed, dedup=True)
        want_fp = schema_fingerprint(reference.schema())
        want_refcounts = dict(reference._dstate.signatures.refcounts)

        crash_at = round(crash_fraction * len(feed))
        directory = tmp_path_factory.mktemp("dedup-oracle") / "sess"
        session = DurableSchemaSession(
            directory, _config(True), schema_name="s", fsync="off",
            retain_union=True,
        )
        for index, change_set in enumerate(feed[:crash_at]):
            session.apply(change_set)
            if with_checkpoint and index + 1 == max(1, crash_at // 2):
                session.checkpoint()
        del session  # crash at a record boundary

        recovered = DurableSchemaSession.recover(
            directory, config=_config(True), schema_name="s", fsync="off",
            retain_union=True,
        )
        assert recovered.sequence == crash_at
        for change_set in feed[recovered.sequence:]:
            recovered.apply(change_set)
        assert schema_fingerprint(recovered.schema()) == want_fp
        assert dict(recovered._dstate.signatures.refcounts) == want_refcounts
        recovered.close()

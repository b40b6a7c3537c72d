"""Streaming post-processing equivalence and accumulator unit tests.

The streaming subsystem (``repro.core.accumulators``) must reproduce the
full-scan post-processing results *bit for bit*: same datatypes, same
cardinality bounds and classes, same mandatory/optional flags, same
candidate keys -- on any insert stream, in any batch order, including the
single-batch degenerate case.  The oracle is the pre-accumulator
behaviour: the full-scan ``PGHive.post_process`` over a union-retaining
session's raw schema (``seed_reference.full_scan``).  The accumulator
unit tests fold cells through the per-cell reference folds of
``tests/seed_reference.py``.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.accumulators import (
    DatatypeAccumulator,
    DistinctTracker,
    EndpointAccumulator,
    KeyAccumulator,
    SummaryOptions,
    TypeSummaries,
)
from repro.core.config import PGHiveConfig
from repro.core.pipeline import PGHive
from repro.core.session import SchemaSession
from repro.datasets.registry import load_dataset
from repro.errors import ConfigurationError, SchemaError
from repro.graph.batching import split_into_batches
from repro.graph.model import Edge, Node, PropertyGraph
from repro.schema.datatypes import DataType

from tests.seed_reference import (
    ReferenceEndpoints,
    endpoint_state,
    full_scan,
    full_scan_session,
    observe_datatype,
    observe_distinct,
    observe_endpoint,
    observe_keys,
    observe_summaries,
)


# ----------------------------------------------------------------------
# Accumulator unit behaviour
# ----------------------------------------------------------------------
class TestDatatypeAccumulator:
    def test_folds_through_lattice(self):
        acc = DatatypeAccumulator()
        observe_datatype(acc, "x", 1)
        assert acc.types["x"] is DataType.INTEGER
        observe_datatype(acc, "x", 2.5)
        assert acc.types["x"] is DataType.FLOAT
        observe_datatype(acc, "x", "hello")
        assert acc.types["x"] is DataType.STRING
        # STRING is absorbing.
        observe_datatype(acc, "x", 3)
        assert acc.types["x"] is DataType.STRING

    def test_merge_is_lattice_join(self):
        left, right = DatatypeAccumulator(), DatatypeAccumulator()
        observe_datatype(left, "a", 1)
        observe_datatype(right, "a", 2.5)
        observe_datatype(right, "b", "2024-03-09")
        left.merge_from(right)
        assert left.types["a"] is DataType.FLOAT
        assert left.types["b"] is DataType.DATE

    def test_order_invariance(self):
        values = [1, 2.5, True, "2024-03-09", None, "text"]
        forward, backward = DatatypeAccumulator(), DatatypeAccumulator()
        for v in values:
            observe_datatype(forward, "k", v)
        for v in reversed(values):
            observe_datatype(backward, "k", v)
        assert forward.types == backward.types


def fold_endpoints(pairs):
    """The accumulator and the set-based reference over the same pairs."""
    accumulator, reference = EndpointAccumulator(), ReferenceEndpoints()
    for source_id, target_id in pairs:
        accumulator.observe_pairs([source_id], [target_id])
        observe_endpoint(reference, source_id, target_id)
    assert endpoint_state(accumulator) == endpoint_state(reference)
    return accumulator, reference


class TestEndpointAccumulator:
    def test_running_maxima(self):
        acc, _ = fold_endpoints([("s1", "t1"), ("s1", "t2"), ("s2", "t1")])
        bounds = acc.bounds()
        assert (bounds.max_out, bounds.max_in) == (2, 2)
        assert acc.in_degree == {"t1": 2, "t2": 1}

    def test_duplicate_edges_do_not_inflate(self):
        acc, _ = fold_endpoints([("s", "t"), ("s", "t")])
        assert (acc.max_out, acc.max_in) == (1, 1)
        assert acc.in_degree == {"t": 1}

    def test_merge_unions_endpoint_sets(self):
        left, left_reference = fold_endpoints([("s", "t1")])
        right, right_reference = fold_endpoints([("s", "t2"), ("u", "t1")])
        left.merge_from(right)
        left_reference.merge_from(right_reference)
        assert endpoint_state(left) == endpoint_state(left_reference)
        assert (left.max_out, left.max_in) == (2, 2)
        # Shared (s, t1) on both sides stays one distinct endpoint pair.
        left2, _ = fold_endpoints([("s", "t1")])
        right2, _ = fold_endpoints([("s", "t1")])
        left2.merge_from(right2)
        assert endpoint_state(left2) == ({("s", "t1")}, {"t1": 1}, 1, 1)


ENDPOINT_IDS = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def split_points(draw, length, max_cuts):
    """Sorted cut positions splitting ``length`` items into pieces."""
    return sorted(draw(st.lists(st.integers(0, length), max_size=max_cuts)))


def pieces(items, cuts):
    return [items[i:j] for i, j in zip([0, *cuts], [*cuts, len(items)])]


class TestEndpointAccumulatorOracle:
    """Chunking, merge trees, copies and pickles all equal the reference."""

    @given(
        pairs=st.lists(st.tuples(ENDPOINT_IDS, ENDPOINT_IDS), max_size=60),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_fold_order_equals_reference(self, pairs, data):
        reference = ReferenceEndpoints()
        for source_id, target_id in pairs:
            observe_endpoint(reference, source_id, target_id)
        expected = endpoint_state(reference)

        parts = []
        for part in pieces(pairs, data.draw(split_points(len(pairs), 5))):
            accumulator = EndpointAccumulator()
            for chunk in pieces(part, data.draw(split_points(len(part), 4))):
                fold = data.draw(
                    st.sampled_from(
                        [accumulator.observe_pairs, accumulator.observe_repeat]
                    )
                )
                fold([s for s, _ in chunk], [t for _, t in chunk])
            parts.append(accumulator)
        while len(parts) > 1:
            index = data.draw(st.integers(0, len(parts) - 2))
            left, right = parts[index], parts.pop(index + 1)
            if data.draw(st.booleans()):
                left, right = right, left
            carrier = data.draw(st.sampled_from(["direct", "copy", "pickle"]))
            if carrier == "copy":
                left = left.copy()
            elif carrier == "pickle":
                right = pickle.loads(pickle.dumps(right))
            left.merge_from(right)
            parts[index] = left
        (merged,) = parts

        assert endpoint_state(merged) == expected
        assert merged.bounds() == reference.bounds()
        assert endpoint_state(merged.copy()) == expected
        assert endpoint_state(pickle.loads(pickle.dumps(merged))) == expected


class TestDistinctTracker:
    def test_detects_cross_instance_duplicates(self):
        tracker = DistinctTracker()
        observe_distinct(tracker, "v", "i1")
        assert tracker.distinct
        observe_distinct(tracker, "v", "i2")
        assert not tracker.distinct

    def test_merge_same_witness_is_not_a_duplicate(self):
        # The same instance replayed on both sides of a type merge must
        # not collapse the tracker (overlapping instance sets dedup).
        left, right = DistinctTracker(), DistinctTracker()
        observe_distinct(left, "v", "i1")
        observe_distinct(right, "v", "i1")
        left.merge_from(right)
        assert left.distinct

    def test_merge_cross_side_collision_is_a_duplicate(self):
        left, right = DistinctTracker(), DistinctTracker()
        observe_distinct(left, "v", "i1")
        observe_distinct(right, "v", "i2")
        left.merge_from(right)
        assert not left.distinct

    def test_duplicated_state_is_terminal_and_frees_memory(self):
        tracker = DistinctTracker()
        observe_distinct(tracker, "v", "i1")
        observe_distinct(tracker, "v", "i2")
        assert tracker.witnesses is None
        observe_distinct(tracker, "w", "i3")
        assert not tracker.distinct


class TestKeyAccumulator:
    def test_pairs_seeded_from_first_instance(self):
        acc = KeyAccumulator()
        observe_keys(acc, "i1", {"a": 1, "b": 2, "c": 3})
        assert set(acc.pairs) == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_pair_dies_when_key_missing(self):
        acc = KeyAccumulator()
        observe_keys(acc, "i1", {"a": 1, "b": 2})
        observe_keys(acc, "i2", {"a": 2})
        assert acc.pairs == {}

    def test_pair_overflow_above_cap(self):
        acc = KeyAccumulator(pair_cap=2)
        observe_keys(acc, "i1", {"a": 1, "b": 2, "c": 3})
        assert acc.pair_overflow
        assert acc.pairs == {}

    def test_single_tracker_counts_cover_instances(self):
        acc = KeyAccumulator()
        observe_keys(acc, "i1", {"a": 1})
        observe_keys(acc, "i2", {"a": 2, "b": 1})
        assert acc.singles["a"].count == acc.instances == 2
        assert acc.singles["b"].count == 1  # absent on i1 -> not a key


class TestTypeSummariesMerge:
    def test_key_state_lost_when_one_side_untracked(self):
        options = SummaryOptions(track_keys=True)
        left = TypeSummaries(is_edge=False, options=options)
        right = TypeSummaries(is_edge=False)
        observe_summaries(left, "i1", {"a": 1})
        observe_summaries(right, "i2", {"a": 2})
        left.merge_from(right)
        assert left.keys is None  # unknown, never wrong

    def test_copy_is_independent(self):
        options = SummaryOptions(track_keys=True)
        original = TypeSummaries(is_edge=True, options=options)
        observe_summaries(original, "e1", {"w": 1})
        original.endpoints.observe_pairs(["s"], ["t"])
        clone = original.copy()
        observe_summaries(clone, "e2", {"w": 2})
        clone.endpoints.observe_pairs(["s", "u"], ["t2", "t2"])
        assert endpoint_state(original.endpoints) == ({("s", "t")}, {"t": 1}, 1, 1)
        assert endpoint_state(clone.endpoints) == (
            {("s", "t"), ("s", "t2"), ("u", "t2")},
            {"t": 1, "t2": 2},
            2,
            2,
        )
        assert original.keys.instances == 1


# ----------------------------------------------------------------------
# Engine-level behaviour
# ----------------------------------------------------------------------
class TestUnionRetention:
    def test_no_union_graph_by_default(self, figure1_graph):
        session = SchemaSession(PGHiveConfig(seed=0))
        for batch in split_into_batches(figure1_graph, 2, seed=1):
            session.add_batch(batch)
        assert not session.retains_union
        with pytest.raises(ConfigurationError):
            session.union_graph

    def test_retain_union_keeps_all_batches(self, figure1_graph):
        session = SchemaSession(
            PGHiveConfig(seed=0, retain_union=True)
        )
        for batch in split_into_batches(figure1_graph, 2, seed=1):
            session.add_batch(batch)
        assert session.union_graph.node_count == figure1_graph.node_count
        assert session.union_graph.edge_count == figure1_graph.edge_count

    def test_streaming_read_raises_without_summaries(self):
        from repro.core.datatype_inference import infer_datatypes_streaming
        from repro.schema.model import NodeType, SchemaGraph

        schema = SchemaGraph()
        schema.add_node_type(NodeType("n0", {"T"}))
        with pytest.raises(SchemaError):
            infer_datatypes_streaming(schema)

    def test_edge_type_with_unfolded_history_invalidates_summaries(self):
        # An edge type first recorded without accumulators must not grow
        # summaries later: they would miss the first members' endpoints
        # and report too-small cardinality bounds, so the streaming read
        # raises instead.
        from repro.core.cardinality_inference import (
            compute_cardinalities_streaming,
        )
        from repro.core.type_extraction import extract_types
        from repro.schema.model import SchemaGraph

        from tests.core.test_type_extraction import edge_cluster

        schema = SchemaGraph()
        first = edge_cluster(["e1"], {"REL"}, {"w"}, {"A"}, {"B"})
        extract_types(schema, [], [first], summary_options=None)
        second = edge_cluster(["e2"], {"REL"}, {"w"}, {"A"}, {"B"})
        extract_types(schema, [], [second])
        (edge_type,) = schema.edge_types()
        assert edge_type.instance_ids == {"e1", "e2"}
        assert edge_type.summaries is None
        with pytest.raises(SchemaError):
            compute_cardinalities_streaming(schema)

    def test_no_summaries_when_post_processing_disabled(self, figure1_graph):
        # config.post_processing=False times clustering alone; the session
        # must not pay for accumulators nobody will ever read.
        session = SchemaSession(
            PGHiveConfig(seed=0, post_processing=False)
        )
        for batch in split_into_batches(figure1_graph, 2, seed=1):
            session.add_batch(batch)
        session.finalize()
        assert all(
            t.summaries is None
            for t in (*session.schema_graph.node_types(), *session.schema_graph.edge_types())
        )

    def test_refresh_honours_disabled_post_processing(self):
        # No accumulators exist to read, so refresh() returns the raw
        # schema like schema() and finalize() instead of raising.
        graph = load_dataset("LDBC", nodes=100, seed=0).graph
        session = SchemaSession(PGHiveConfig(seed=0, post_processing=False))
        session.add_batch(graph)
        schema = session.refresh()
        assert schema is session.schema_graph
        assert schema.node_type_by_token("Person") is not None
        assert session.dirty

    def test_pair_overflow_warns_instead_of_silent_divergence(self):
        import warnings

        from repro.core.key_inference import candidate_keys_from_summaries
        from repro.schema.model import NodeType

        node_type = NodeType("n0", {"Wide"})
        node_type.summaries = TypeSummaries(
            is_edge=False, options=SummaryOptions(track_keys=True, pair_cap=2)
        )
        # Three shared-value keys on every instance: all mandatory, none a
        # singleton key, so the full scan would search their pairs.
        for index in range(3):
            properties = {"a": 1, "b": 2, "c": 3}
            node_type.record_instance(f"i{index}", properties)
            observe_summaries(node_type.summaries, f"i{index}", properties)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            from repro.core.constraints import infer_type_constraints

            infer_type_constraints(node_type)
            keys = candidate_keys_from_summaries(node_type)
        assert keys == []
        assert any("composite-key tracking overflowed" in str(w.message)
                   for w in caught)


class TestFlatStream:
    def test_per_batch_reads_never_scan(self, monkeypatch):
        # Every per-batch read is an O(|schema|) accumulator read: the
        # full-scan passes, whose cost grows with the stream, never run.
        import repro.core.cardinality_inference as cardinality_inference
        import repro.core.datatype_inference as datatype_inference
        import repro.core.key_inference as key_inference
        import repro.core.pipeline as pipeline

        def scan(*args, **kwargs):
            raise AssertionError("a full scan ran on an insert-only stream")

        for module, name in (
            (pipeline, "infer_datatypes"),
            (datatype_inference, "infer_datatypes"),
            (pipeline, "compute_cardinalities"),
            (cardinality_inference, "compute_cardinalities"),
            (key_inference, "infer_keys"),
        ):
            monkeypatch.setattr(module, name, scan)
        reads = []
        streaming_read = PGHive.post_process_streaming

        def counted(self, schema):
            reads.append(schema.node_type_count + schema.edge_type_count)
            return streaming_read(self, schema)

        monkeypatch.setattr(PGHive, "post_process_streaming", counted)
        graph = load_dataset("LDBC", nodes=300, seed=0).graph
        config = PGHiveConfig(
            seed=0, infer_keys=True, post_process_each_batch=True
        )
        session = SchemaSession(config)
        for batch in split_into_batches(graph, 12, seed=0):
            session.add_batch(batch)
        session.finalize()
        assert not session.retains_union
        assert len(reads) == 12
        assert all(count > 0 for count in reads)


# ----------------------------------------------------------------------
# Equivalence with the full-scan oracle
# ----------------------------------------------------------------------
def _snapshot(schema):
    """Everything post-processing writes, keyed by type id."""
    out = {}
    for schema_type in (*schema.node_types(), *schema.edge_types()):
        out[schema_type.type_id] = (
            schema_type.display_name,
            {
                key: (spec.data_type, spec.mandatory, spec.unique)
                for key, spec in schema_type.properties.items()
            },
            list(schema_type.candidate_keys),
            getattr(schema_type, "cardinality", None),
            getattr(schema_type, "cardinality_bounds", None),
        )
    return out


def _run_stream(batches, seed, **overrides):
    config = PGHiveConfig(seed=seed, infer_keys=True, **overrides)
    session = SchemaSession(config)
    for batch in batches:
        session.add_batch(batch)
    session.finalize()
    return session.schema_graph


def _full_scan_stream(batches, seed, each_batch=False):
    config = PGHiveConfig(seed=seed, infer_keys=True)
    session = full_scan_session(config)
    for batch in batches:
        session.add_batch(batch)
        if each_batch:
            full_scan(session, config)
    return full_scan(session, config)


def _assert_equivalent(batches, seed):
    streaming = _run_stream(batches, seed)
    assert _snapshot(streaming) == _snapshot(_full_scan_stream(batches, seed))


_VALUES = st.one_of(
    st.integers(min_value=-10, max_value=10),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    st.booleans(),
    st.sampled_from(["2024-03-09", "2024-03-09T12:30:00", "x", "yy", None]),
    st.text(alphabet="abAB", min_size=0, max_size=4),
)

#: label -> (property key, chance the key is present)
_TEMPLATES = {
    "Person": (("pid", 1.0), ("name", 1.0), ("age", 0.7)),
    "Post": (("pid", 1.0), ("content", 0.9), ("score", 0.5)),
    "Place": (("name", 1.0), ("lat", 0.8)),
}
_EDGE_TEMPLATES = {
    "KNOWS": (("since", 0.8),),
    "LIKES": (("weight", 0.6), ("since", 0.4)),
}


@st.composite
def _streams(draw):
    node_count = draw(st.integers(min_value=6, max_value=28))
    graph = PropertyGraph("hypothesis-graph")
    labels = sorted(_TEMPLATES)
    for index in range(node_count):
        label = draw(st.sampled_from(labels))
        properties = {}
        for key, presence in _TEMPLATES[label]:
            if draw(st.floats(min_value=0.0, max_value=1.0)) <= presence:
                if key == "pid":
                    # Mostly unique with occasional duplicates, so both
                    # key outcomes are exercised.
                    duplicate = draw(st.booleans()) and index > 0
                    properties[key] = f"id-{0 if duplicate else index}"
                else:
                    properties[key] = draw(_VALUES)
        graph.add_node(Node(f"n{index}", {label}, properties))
    edge_count = draw(st.integers(min_value=0, max_value=2 * node_count))
    for index in range(edge_count):
        source = f"n{draw(st.integers(min_value=0, max_value=node_count - 1))}"
        target = f"n{draw(st.integers(min_value=0, max_value=node_count - 1))}"
        label = draw(st.sampled_from(sorted(_EDGE_TEMPLATES)))
        properties = {}
        for key, presence in _EDGE_TEMPLATES[label]:
            if draw(st.floats(min_value=0.0, max_value=1.0)) <= presence:
                properties[key] = draw(_VALUES)
        graph.add_edge(Edge(f"e{index}", source, target, {label}, properties))
    batch_count = draw(st.integers(min_value=1, max_value=4))
    batch_seed = draw(st.integers(min_value=0, max_value=99))
    return split_into_batches(graph, batch_count, seed=batch_seed)


class TestStreamingEquivalence:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(batches=_streams(), seed=st.integers(min_value=0, max_value=9))
    def test_randomized_streams_match_oracle(self, batches, seed):
        _assert_equivalent(batches, seed)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(batches=_streams(), seed=st.integers(min_value=0, max_value=9))
    def test_per_batch_postprocess_matches_oracle(self, batches, seed):
        streaming = _run_stream(batches, seed, post_process_each_batch=True)
        oracle = _full_scan_stream(batches, seed, each_batch=True)
        assert _snapshot(streaming) == _snapshot(oracle)

    def test_figure1_stream_matches_oracle(self, figure1_graph):
        for batch_count in (1, 2, 4):
            batches = split_into_batches(figure1_graph, batch_count, seed=7)
            _assert_equivalent(batches, seed=0)

    def test_single_batch_matches_static_full_scan(self, figure1_graph):
        # Degenerate stream of one batch: static discovery (one add_batch,
        # read from the accumulators) must agree with the full scan over
        # the very same graph.
        config = PGHiveConfig(seed=0, infer_keys=True)
        static = PGHive(config).discover(figure1_graph)
        oracle = _full_scan_stream([figure1_graph], seed=0)
        assert _snapshot(static.schema) == _snapshot(oracle)

"""Cross-batch persistent-state tests for the incremental session.

The session must keep one fitted preprocessor and one set of MinHash
signature caches alive across ``add_batch`` calls (instead of rebuilding
them per batch) *without* changing what schema comes out.
"""

import pytest

from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.pipeline import PGHive, PipelineState
from repro.core.session import SchemaSession
from repro.graph.batching import split_into_batches


@pytest.fixture
def batches(figure1_graph):
    return split_into_batches(figure1_graph, 3, seed=4)


class TestStatePersistence:
    def test_preprocessor_fitted_once_and_reused(self, batches):
        # This split's first batch is empty and fits nothing; the first
        # batch with rows fits the preprocessor for the whole stream.
        session = SchemaSession(PGHiveConfig(seed=0))
        assert batches[0].node_count == 0
        session.add_batch(batches[0])
        assert session.state.preprocessor is None
        session.add_batch(batches[1])
        preprocessor = session.state.preprocessor
        assert preprocessor is not None
        model = preprocessor.model
        for batch in batches[2:]:
            session.add_batch(batch)
            assert session.state.preprocessor is preprocessor
            assert session.state.preprocessor.model is model

    def test_minhash_signature_cache_survives_batches(self, batches):
        from repro.core.config import AdaptiveOverrides

        # Pin num_tables so every batch maps to the same cache key and the
        # one MinHashLSH instance accumulates patterns across the stream.
        config = PGHiveConfig(
            method=ClusteringMethod.MINHASH,
            seed=0,
            node_lsh=AdaptiveOverrides(num_tables=8),
            edge_lsh=AdaptiveOverrides(num_tables=8),
        )
        session = SchemaSession(config)
        sizes: list[int] = []
        instances: set[int] = set()
        for batch in batches:
            session.add_batch(batch)
            instances.update(id(lsh) for lsh in session.state.minhash_cache.values())
            sizes.append(
                sum(
                    len(lsh._signature_cache)
                    for lsh in session.state.minhash_cache.values()
                )
            )
        # One instance per kind for the whole stream, never rebuilt.
        assert len(instances) <= 2
        assert sizes[-1] > 0
        # Monotone: later batches only ever add patterns.
        assert all(later >= earlier for earlier, later in zip(sizes, sizes[1:]))

    def test_embedding_cache_grows_not_resets(self, batches):
        session = SchemaSession(PGHiveConfig(seed=0))
        seen: list[set[str]] = []
        for batch in batches:
            session.add_batch(batch)
            # The empty first batch fits no preprocessor.
            if session.state.preprocessor is not None:
                seen.append(set(session.state.preprocessor._embedding_cache))
        assert len(seen) == len(batches) - 1
        assert seen[-1]
        assert all(earlier <= later for earlier, later in zip(seen, seen[1:]))

    @pytest.mark.parametrize("method", list(ClusteringMethod))
    def test_persistent_state_schema_matches_stateless(
        self, figure1_graph, method
    ):
        # Same stream through the stateful session and through per-batch
        # fresh state must agree on the discovered type inventory.
        config = PGHiveConfig(method=method, seed=0)
        stream = split_into_batches(figure1_graph, 3, seed=4)

        session = SchemaSession(config)
        for batch in stream:
            session.add_batch(batch)
        stateful = session.finalize()

        pipeline = PGHive(config)
        from repro.core.pipeline import DiscoveryResult
        from repro.graph.columnar import ElementBatch
        from repro.schema.model import SchemaGraph
        from repro.util import Timer

        schema = SchemaGraph("stateless")
        timer = Timer()
        result = DiscoveryResult(schema=schema, timer=timer, config=config)
        for batch in stream:
            pipeline._process_batch_columnar(
                ElementBatch.from_graph(batch), schema, timer, result, None
            )

        assert {t.token for t in stateful.schema.node_types()} == {
            t.token for t in schema.node_types()
        }
        assert {t.token for t in stateful.schema.edge_types()} == {
            t.token for t in schema.edge_types()
        }

    def test_static_discovery_uses_fresh_state(self, figure1_graph):
        # Two static runs over the same pipeline object must not leak
        # state into each other.
        pipeline = PGHive(PGHiveConfig(seed=0))
        first = pipeline.discover(figure1_graph)
        second = pipeline.discover(figure1_graph)
        assert {t.token for t in first.schema.node_types()} == {
            t.token for t in second.schema.node_types()
        }

    def test_state_dataclass_defaults(self):
        state = PipelineState()
        assert state.preprocessor is None
        assert state.minhash_cache == {}

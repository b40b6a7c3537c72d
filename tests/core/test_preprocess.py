"""Unit tests for representation vectors (section 4.1, Example 3)."""

import numpy as np
import pytest

from repro.core.config import PGHiveConfig
from repro.core.preprocess import Preprocessor
from repro.graph.columnar import ElementBatch, Interner


@pytest.fixture
def batch(figure1_graph) -> ElementBatch:
    return ElementBatch.from_graph(figure1_graph, Interner())


@pytest.fixture
def preprocessor(batch) -> Preprocessor:
    return Preprocessor(PGHiveConfig(embedding_dim=8, seed=1)).fit_batch(batch)


def row_of(block, element_id: str) -> int:
    return block.ids.index(element_id)


class TestNodeFeatures:
    def test_vector_dimension_is_d_plus_K(self, preprocessor, batch, figure1_graph):
        features = preprocessor.node_features_columnar(batch)
        distinct_keys = len(figure1_graph.all_node_property_keys())
        assert features.vectors.shape == (7, 8 + distinct_keys)

    def test_binary_block_flags_present_properties(self, preprocessor, batch):
        features = preprocessor.node_features_columnar(batch)
        keys = sorted(batch.nodes.columns)
        binary = features.vectors[row_of(batch.nodes, "bob"), 8:]
        for position, key in enumerate(keys):
            expected = 1.0 if key in {"name", "gender", "bday"} else 0.0
            assert binary[position] == expected

    def test_unlabeled_node_has_zero_embedding(self, preprocessor, batch):
        features = preprocessor.node_features_columnar(batch)
        row = row_of(batch.nodes, "alice")
        assert np.allclose(features.vectors[row, :8], 0.0)

    def test_same_token_same_embedding(self, preprocessor, batch):
        features = preprocessor.node_features_columnar(batch)
        bob, john = row_of(batch.nodes, "bob"), row_of(batch.nodes, "john")
        assert np.allclose(
            features.vectors[bob, :8], features.vectors[john, :8]
        )

    def test_embedding_scaled_to_label_weight(self, batch):
        config = PGHiveConfig(embedding_dim=8, label_weight=3.0, seed=1)
        features = Preprocessor(config).fit_batch(batch).node_features_columnar(
            batch
        )
        row = row_of(batch.nodes, "bob")
        assert np.linalg.norm(features.vectors[row, :8]) == pytest.approx(3.0)

    def test_distinct_tokens_separated(self, preprocessor, batch):
        features = preprocessor.node_features_columnar(batch)
        post = features.vectors[row_of(batch.nodes, "post1"), :8]
        org = features.vectors[row_of(batch.nodes, "org"), :8]
        assert np.linalg.norm(post - org) > 0.5

    def test_token_sets_include_label_and_keys(self, batch):
        # MinHash signs the interned node pattern of each row.
        block, interner = batch.nodes, batch.interner

        def pattern_tokens(element_id):
            row = row_of(block, element_id)
            return interner.node_pattern(
                int(block.token_sids[row]), int(block.keyset_ids[row])
            ).tokens

        bob_tokens = pattern_tokens("bob")
        assert "label:Person" in bob_tokens
        assert {"name", "gender", "bday"} <= set(bob_tokens)
        assert not any(t.startswith("label:") for t in pattern_tokens("alice"))


class TestEdgeFeatures:
    def test_vector_dimension_is_3d_plus_Q(self, preprocessor, batch):
        features = preprocessor.edge_features_columnar(batch)
        assert features.vectors.shape == (7, 3 * 8 + 2)  # keys: from, since

    def test_three_embedding_blocks(self, preprocessor, batch):
        features = preprocessor.edge_features_columnar(batch)
        row = row_of(batch.edges, "e5")  # WORKS_AT bob->org
        edge_block = features.vectors[row, :8]
        source_block = features.vectors[row, 8:16]
        target_block = features.vectors[row, 16:24]
        assert np.linalg.norm(edge_block) > 0
        assert np.linalg.norm(source_block) > 0
        assert np.linalg.norm(target_block) > 0
        assert not np.allclose(source_block, target_block)

    def test_unlabeled_source_zero_block(self, preprocessor, batch):
        features = preprocessor.edge_features_columnar(batch)
        row = row_of(batch.edges, "e1")  # KNOWS alice->john, alice unlabeled
        assert np.allclose(features.vectors[row, 8:16], 0.0)

    def test_rows_carry_endpoint_tokens(self, batch):
        block, interner = batch.edges, batch.interner
        row = row_of(block, "e5")
        assert interner.string(int(block.src_token_sids[row])) == "Person"
        assert interner.string(int(block.tgt_token_sids[row])) == "Org."

    def test_edge_token_sets_role_tagged(self, batch):
        block, interner = batch.edges, batch.interner
        row = row_of(block, "e5")
        tokens = interner.edge_pattern(
            int(block.token_sids[row]),
            int(block.src_token_sids[row]),
            int(block.tgt_token_sids[row]),
            int(block.keyset_ids[row]),
        ).tokens
        assert "label:WORKS_AT" in tokens
        assert "src:Person" in tokens
        assert "tgt:Org." in tokens
        assert "from" in tokens


class TestLifecycle:
    def test_transform_before_fit_raises(self, batch):
        preprocessor = Preprocessor(PGHiveConfig())
        with pytest.raises(RuntimeError):
            preprocessor.node_features_columnar(batch)

    def test_empty_batch_fits(self):
        preprocessor = Preprocessor(PGHiveConfig(embedding_dim=8))
        preprocessor.fit_batch(ElementBatch.from_elements([], [], Interner()))
        assert preprocessor.model is not None

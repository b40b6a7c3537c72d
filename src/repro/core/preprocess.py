"""Preprocessing: representation vectors of section 4.1.

Every node becomes ``f_v in R^(d+K)``: a Word2Vec embedding of its label
token concatenated with a binary indicator over the dataset's distinct node
property keys.  Every edge becomes ``f_e in R^(3d+Q)``: embeddings of the
edge token and both endpoint tokens, plus a binary indicator over the edge
property keys.  Unlabeled elements embed as the zero vector (Example 3).

For the MinHash variant, the same information is exposed as token *sets*:
the element's label token (plus role-tagged endpoint tokens for edges)
together with its property keys.  This keeps the approach hybrid in both
variants; the label contribution disappears automatically when labels are
absent, leaving the pure property-set behaviour the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import PGHiveConfig
from repro.embedding.corpus import build_label_corpus_columnar
from repro.embedding.word2vec import Word2Vec
from repro.graph.columnar import ColumnarElements, ElementBatch, Interner
from repro.util import derive_seed


@dataclass
class ColumnarFeatures:
    """Clustering input for one element kind (nodes or edges).

    Carries the representation vectors plus the columnar block itself:
    clustering reads interned id columns instead of per-element records,
    and type extraction records members by row index.
    """

    block: ColumnarElements
    interner: Interner
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.block)


class Preprocessor:
    """Trains the shared Word2Vec model and vectorises nodes and edges.

    Label embeddings are L2-normalised and scaled by ``config.label_weight``
    before concatenation with the binary property block, so a label
    disagreement moves a vector by a distance comparable to a few property
    flips -- without this, raw Word2Vec magnitudes (which start near zero)
    would let structurally identical elements of different types collide.
    The zero vector of unlabeled elements is preserved by normalisation.
    """

    def __init__(self, config: PGHiveConfig) -> None:
        self.config = config
        self.model: Word2Vec | None = None
        #: token -> scaled embedding, valid for the current model; survives
        #: across batches so an incremental stream embeds each distinct
        #: token once, not once per batch.
        self._embedding_cache: dict[str, np.ndarray] = {}

    def _scaled_embedding(self, model: Word2Vec, token: str) -> np.ndarray:
        """Blend of trained-semantic and deterministic-identity directions.

        Skip-gram training can collapse distinct labels that share contexts
        onto nearly identical directions; blending in the content-derived
        identity vector guarantees distinct tokens stay separated (the
        hybrid vectors must "prevent semantically different nodes from
        being merged", section 4.1) while identical label sets still map to
        identical embeddings everywhere.
        """
        if not token:
            return np.zeros(self.config.embedding_dim)
        blend = np.zeros(self.config.embedding_dim)
        for component in (model.vector(token), model.initial_vector(token)):
            norm = float(np.linalg.norm(component))
            if norm > 0.0:
                blend += component / norm
        norm = float(np.linalg.norm(blend))
        if norm == 0.0:
            blend = model.initial_vector(token)
            norm = float(np.linalg.norm(blend)) or 1.0
        return blend * (self.config.label_weight / norm)

    def fit_batch(self, batch: ElementBatch) -> "Preprocessor":
        """Train the label-token Word2Vec model on ``batch``."""
        corpus = build_label_corpus_columnar(
            batch,
            max_sentences=self.config.max_corpus_sentences,
            seed=derive_seed(self.config.seed, "corpus"),
        )
        return self._fit_corpus(corpus)

    def _fit_corpus(self, corpus: list[list[str]]) -> "Preprocessor":
        self.model = Word2Vec(
            dim=self.config.embedding_dim,
            window=self.config.embedding_window,
            negative=self.config.embedding_negative,
            epochs=self.config.embedding_epochs,
            seed=derive_seed(self.config.seed, "word2vec"),
        ).fit(corpus)
        self._embedding_cache.clear()
        return self

    def _require_model(self) -> Word2Vec:
        if self.model is None:
            raise RuntimeError("Preprocessor.fit_batch must run before transforming")
        return self.model

    def _embedding_rows(
        self, token_sids: np.ndarray, interner: Interner
    ) -> tuple[np.ndarray, np.ndarray]:
        """Embedding table + row index over an interned token-id column.

        One scaled embedding per *distinct* token id (served from the
        persistent string-keyed cache, so batches with different interners
        embed identical tokens identically), gathered per element by one
        fancy-indexing pass.
        """
        model = self._require_model()
        cache = self._embedding_cache
        distinct, inverse = np.unique(token_sids, return_inverse=True)
        rows: list[np.ndarray] = []
        for sid in distinct.tolist():
            token = interner.string(int(sid))
            embedding = cache.get(token)
            if embedding is None:
                embedding = self._scaled_embedding(model, token)
                cache[token] = embedding
            rows.append(embedding)
        if not rows:
            return np.zeros((0, self.config.embedding_dim)), inverse
        return np.vstack(rows), inverse

    @staticmethod
    def _indicator_from_columns(
        vectors: np.ndarray,
        offset: int,
        key_index: dict[str, int],
        block: ColumnarElements,
    ) -> None:
        """Set the binary indicator block, one fancy index per column."""
        for key, column in block.columns.items():
            vectors[column.rows, offset + key_index[key]] = 1.0

    def node_features_columnar(self, batch: ElementBatch) -> ColumnarFeatures:
        """Vectorise the node section of a columnar batch."""
        model = self._require_model()
        block = batch.nodes
        keys = sorted(block.columns)
        key_index = {key: position for position, key in enumerate(keys)}
        dim = model.dim
        vectors = np.zeros((len(block), dim + len(keys)))
        if len(block):
            table, inverse = self._embedding_rows(
                block.token_sids, batch.interner
            )
            if table.size:
                vectors[:, :dim] = table[inverse]
            self._indicator_from_columns(vectors, dim, key_index, block)
        return ColumnarFeatures(block, batch.interner, vectors)

    def edge_features_columnar(self, batch: ElementBatch) -> ColumnarFeatures:
        """Vectorise the edge section of a columnar batch."""
        model = self._require_model()
        block = batch.edges
        keys = sorted(block.columns)
        key_index = {key: position for position, key in enumerate(keys)}
        dim = model.dim
        vectors = np.zeros((len(block), 3 * dim + len(keys)))
        if len(block):
            segments = (
                block.token_sids,
                block.src_token_sids,
                block.tgt_token_sids,
            )
            for segment, sids in enumerate(segments):
                table, inverse = self._embedding_rows(sids, batch.interner)
                if table.size:
                    vectors[:, segment * dim : (segment + 1) * dim] = table[
                        inverse
                    ]
            self._indicator_from_columns(vectors, 3 * dim, key_index, block)
        return ColumnarFeatures(block, batch.interner, vectors)

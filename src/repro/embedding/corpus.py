"""Building the label-token corpus a discovery run trains Word2Vec on.

Section 4.1: "We train a Word2Vec model on the set of node and edge labels
observed in the dataset to ensure consistent semantic embeddings across
identical label sets."  The co-occurrence signal comes from the graph
structure itself: every edge contributes the sentence

    [source-label-token, edge-label-token, target-label-token]

so labels that appear in the same relationships end up with nearby
embeddings.  Unlabeled endpoints (empty tokens) are dropped from sentences;
isolated labelled nodes still register their token through single-token
sentences so every observed label set owns an embedding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.graph.columnar import ElementBatch


def build_label_corpus_columnar(
    batch: "ElementBatch",
    max_sentences: int | None = 50_000,
    seed: int = 0,
) -> list[list[str]]:
    """Label-token sentences for a columnar :class:`ElementBatch`.

    When the batch has more edges than ``max_sentences`` a uniform random
    subsample (deterministic under ``seed``) keeps training time bounded;
    the vocabulary still registers every node token via the single-token
    sentences, so no label set loses its embedding.  Reads interned
    token-id columns instead of walking element objects: node sentences
    come from the distinct token ids in first-appearance order, edge
    sentences from one object-array gather per endpoint column.
    ``tests/seed_reference.py`` keeps the element-wise reference
    (``build_label_corpus``).
    """
    interner = batch.interner
    sentences: list[list[str]] = []
    seen_tokens: set[str] = set()
    node_sids = batch.nodes.token_sids
    if len(node_sids):
        distinct, first_row = np.unique(node_sids, return_index=True)
        for sid in distinct[np.argsort(first_row, kind="stable")].tolist():
            token = interner.string(int(sid))
            if token and token not in seen_tokens:
                seen_tokens.add(token)
                sentences.append([token])

    edge_sentences: list[list[str]] = []
    edges = batch.edges
    if len(edges):

        def strings_of(sids: np.ndarray) -> list[str]:
            distinct, inverse = np.unique(sids, return_inverse=True)
            table = np.array(
                [interner.string(int(sid)) for sid in distinct], dtype=object
            )
            return table[inverse].tolist()

        triples = zip(
            strings_of(edges.src_token_sids),
            strings_of(edges.token_sids),
            strings_of(edges.tgt_token_sids),
        )
        for source_token, edge_token, target_token in triples:
            sentence = [
                t for t in (source_token, edge_token, target_token) if t
            ]
            if len(sentence) >= 2:
                edge_sentences.append(sentence)
            elif len(sentence) == 1 and sentence[0] not in seen_tokens:
                seen_tokens.add(sentence[0])
                sentences.append(sentence)

    if max_sentences is not None and len(edge_sentences) > max_sentences:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(edge_sentences), size=max_sentences, replace=False)
        edge_sentences = [edge_sentences[i] for i in sorted(chosen)]
    sentences.extend(edge_sentences)
    return sentences

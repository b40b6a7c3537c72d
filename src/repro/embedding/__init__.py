"""Embedding substrate: Word2Vec from scratch plus the label-corpus builder."""

from repro.embedding.vocab import Vocabulary
from repro.embedding.word2vec import Word2Vec

__all__ = ["Vocabulary", "Word2Vec"]

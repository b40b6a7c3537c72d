"""Euclidean LSH (ELSH): p-stable bucketed random projections.

Datar et al. [32] / Leskovec et al. [63]: each of the ``T`` tables hashes a
vector ``x`` to ``floor((a . x + offset) / b)`` with ``a ~ N(0, I)`` and
``offset ~ U[0, b)``.  The bucket length ``b`` controls granularity (larger
buckets -> more collisions, higher recall, lower precision); the table count
``T`` trades recall against runtime (section 4.2).

Optionally ``hashes_per_table > 1`` concatenates several projections per
table (the classic AND-within/OR-across construction) -- useful with
``GroupingRule.OR`` to keep transitive unions selective.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClusteringError, ConfigurationError
from repro.lsh.base import GroupingRule, group


class EuclideanLSH:
    """p-stable LSH for L2 distance over real vectors."""

    def __init__(
        self,
        bucket_length: float,
        num_tables: int,
        hashes_per_table: int = 1,
        seed: int = 0,
    ) -> None:
        if bucket_length <= 0:
            raise ConfigurationError(
                f"bucket_length must be > 0, got {bucket_length}"
            )
        if num_tables < 1:
            raise ConfigurationError(f"num_tables must be >= 1, got {num_tables}")
        if hashes_per_table < 1:
            raise ConfigurationError(
                f"hashes_per_table must be >= 1, got {hashes_per_table}"
            )
        self.bucket_length = float(bucket_length)
        self.num_tables = int(num_tables)
        self.hashes_per_table = int(hashes_per_table)
        self.seed = seed
        self._projections: np.ndarray | None = None  # (D, T*g)
        self._offsets: np.ndarray | None = None  # (T*g,)
        self._dimension: int | None = None

    @property
    def total_hashes(self) -> int:
        """Number of scalar hash functions (T * g)."""
        return self.num_tables * self.hashes_per_table

    def fit(self, dimension: int) -> "EuclideanLSH":
        """Draw the random projections for ``dimension``-sized vectors."""
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
        rng = np.random.default_rng(self.seed)
        self._dimension = dimension
        self._projections = rng.standard_normal((dimension, self.total_hashes))
        self._offsets = rng.uniform(0.0, self.bucket_length, self.total_hashes)
        return self

    def _require_fitted(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise ClusteringError(f"expected (n, D) matrix, got {vectors.shape}")
        if self._projections is None or self._dimension != vectors.shape[1]:
            self.fit(vectors.shape[1])
        return vectors

    def hash_values(self, vectors: np.ndarray) -> np.ndarray:
        """Raw per-hash bucket indices, shape ``(n, T*g)``."""
        vectors = self._require_fitted(vectors)
        projected = vectors @ self._projections + self._offsets
        return np.floor(projected / self.bucket_length).astype(np.int64)

    def signatures(self, vectors: np.ndarray) -> np.ndarray:
        """Per-table bucket identifiers, shape ``(n, T)``.

        With ``hashes_per_table == 1`` these are the raw bucket indices;
        otherwise each table's ``g`` values are folded into one stable
        64-bit identifier so the grouping rules see a single column per
        table.
        """
        raw = self.hash_values(vectors)
        if self.hashes_per_table == 1:
            return raw
        count = raw.shape[0]
        per_table = raw.reshape(count, self.num_tables, self.hashes_per_table)
        mixed = np.zeros((count, self.num_tables), dtype=np.int64)
        for position in range(self.hashes_per_table):
            mixed = mixed * np.int64(1_000_003) + per_table[:, :, position]
        return mixed

    def cluster(
        self, vectors: np.ndarray, rule: GroupingRule = GroupingRule.AND
    ) -> list[list[int]]:
        """Group row indices of ``vectors`` under the chosen rule."""
        return group(self.signatures(vectors), rule)

    def __repr__(self) -> str:
        return (
            f"EuclideanLSH(b={self.bucket_length:.4g}, T={self.num_tables}, "
            f"g={self.hashes_per_table})"
        )

"""Adaptive LSH parameterization (section 4.2).

Before clustering, a small sample of the representation vectors estimates
the dataset's distance scale ``mu`` (the average pairwise Euclidean
distance).  The bucket length follows

    b_base = 1.2 * mu          # 1.2 avoids overfragmentation
    b      = b_base * alpha    # alpha from the distinct-label count L

with ``alpha = 0.8`` for L <= 3, ``1.0`` for 4 <= L <= 10, and ``1.5`` for
L > 10.  Table counts follow the paper's heuristics

    T_nodes = b_base * max(5, alpha * min(25, log10 N))
    T_edges = b_base * max(3, alpha * min(20, log10 E))

rounded to integers and clamped to [1, 64] so degenerate scales (tiny toy
graphs, near-zero mu) stay usable.  Users can override any of b, T, alpha
through :class:`~repro.core.config.AdaptiveOverrides`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.config import AdaptiveOverrides

#: Sample at least this many elements when estimating mu ("at least 10k
#: nodes", section 4.2); graphs smaller than the floor are used whole.
SAMPLE_FLOOR = 10_000
SAMPLE_FRACTION = 0.01
#: Cap on sampled distance pairs; the mean converges long before this.
MAX_DISTANCE_PAIRS = 20_000
#: Clamp for the table count after rounding.
MAX_TABLES = 64
#: Fallback bucket length when every sampled vector coincides (mu = 0).
MIN_BUCKET_LENGTH = 1e-3


@dataclass(frozen=True, slots=True)
class AdaptiveParameters:
    """Resolved LSH parameters plus the statistics that produced them."""

    bucket_length: float
    num_tables: int
    mu: float
    alpha: float
    b_base: float
    label_count: int
    element_count: int

    def describe(self) -> str:
        """One-line summary for logs and bench output."""
        return (
            f"b={self.bucket_length:.3f} T={self.num_tables} "
            f"(mu={self.mu:.3f}, alpha={self.alpha}, L={self.label_count}, "
            f"N={self.element_count})"
        )


def alpha_for_label_count(label_count: int) -> float:
    """The label-diversity multiplier of section 4.2."""
    if label_count <= 3:
        return 0.8
    if label_count <= 10:
        return 1.0
    return 1.5


@lru_cache(maxsize=16)
def _upper_pairs(count: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(count, k=1)``, read-only, cached per ``count``."""
    left, right = np.triu_indices(count, k=1)
    left.setflags(write=False)
    right.setflags(write=False)
    return left, right


def pair_distance_matrix(vectors: np.ndarray) -> np.ndarray:
    """Euclidean distance between every two rows of ``vectors``, ``(k, k)``.

    The all-pairs branch of :func:`estimate_distance_scale` hands it
    one row per distinct vector, never one per element.
    """
    deltas = vectors[:, None, :] - vectors[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", deltas, deltas))


def estimate_distance_scale(
    vectors: np.ndarray,
    rng: np.random.Generator,
    inverse: np.ndarray | None = None,
) -> float:
    """Average pairwise Euclidean distance over a sampled subset.

    With ``inverse``, ``vectors`` holds distinct rows and element ``i``
    is ``vectors[inverse[i]]``.  Distances are then computed once per
    pair of distinct rows and gathered per element pair, in element-pair
    order, so the mean is bit-identical to passing ``vectors[inverse]``.
    """
    if inverse is None:
        inverse = np.arange(len(vectors))
    count = len(inverse)
    if count < 2:
        return 0.0
    sample_size = max(int(count * SAMPLE_FRACTION), SAMPLE_FLOOR)
    sample_size = min(sample_size, count)
    rows = (
        inverse
        if sample_size == count
        else inverse[rng.choice(count, size=sample_size, replace=False)]
    )

    if sample_size <= 200:
        # Small samples: take every pair exactly.
        present, local = np.unique(rows, return_inverse=True)
        distances = pair_distance_matrix(vectors[present])
        left, right = _upper_pairs(sample_size)
        upper = distances.take(local.take(left) * len(present) + local.take(right))
        return float(upper.mean()) if upper.size else 0.0

    pair_budget = min(MAX_DISTANCE_PAIRS, sample_size * (sample_size - 1) // 2)
    left = rng.integers(0, sample_size, pair_budget)
    right = rng.integers(0, sample_size, pair_budget)
    distinct = left != right
    if not np.any(distinct):
        return 0.0
    # One delta per distinct pair of distinct rows, gathered back.
    width = len(vectors)
    pairs, gather = np.unique(
        rows[left[distinct]] * width + rows[right[distinct]], return_inverse=True
    )
    deltas = vectors[pairs // width] - vectors[pairs % width]
    distances = np.sqrt(np.einsum("ij,ij->i", deltas, deltas))
    return float(distances[gather].mean())


def _table_count(
    b_base: float,
    alpha: float,
    element_count: int,
    floor: int,
    log_cap: int,
) -> int:
    log_term = math.log10(element_count) if element_count > 1 else 1.0
    raw = b_base * max(floor, alpha * min(log_cap, log_term))
    return int(np.clip(round(raw), 1, MAX_TABLES))


def adapt_parameters(
    vectors: np.ndarray,
    label_count: int,
    kind: str,
    overrides: AdaptiveOverrides | None = None,
    seed: int = 0,
    inverse: np.ndarray | None = None,
) -> AdaptiveParameters:
    """Resolve LSH parameters for ``vectors`` per the section 4.2 heuristics.

    ``kind`` selects the node or edge T formula (``"nodes"`` / ``"edges"``).
    Overridden fields short-circuit the corresponding heuristic.  With
    ``inverse``, ``vectors`` holds distinct rows and the elements are
    ``vectors[inverse]`` (see :func:`estimate_distance_scale`).
    """
    if kind not in ("nodes", "edges"):
        raise ValueError(f"kind must be 'nodes' or 'edges', got {kind!r}")
    mu = estimate_distance_scale(vectors, np.random.default_rng(seed), inverse)
    return parameters_for_scale(
        mu,
        label_count=label_count,
        element_count=len(vectors) if inverse is None else len(inverse),
        kind=kind,
        overrides=overrides,
    )


def parameters_for_scale(
    mu: float,
    label_count: int,
    element_count: int,
    kind: str,
    overrides: AdaptiveOverrides | None = None,
) -> AdaptiveParameters:
    """The section 4.2 heuristics for a known distance scale ``mu``."""
    overrides = overrides or AdaptiveOverrides()
    b_base = max(1.2 * mu, MIN_BUCKET_LENGTH)
    alpha = (
        overrides.alpha
        if overrides.alpha is not None
        else alpha_for_label_count(label_count)
    )
    bucket_length = (
        overrides.bucket_length
        if overrides.bucket_length is not None
        else b_base * alpha
    )
    if overrides.num_tables is not None:
        num_tables = overrides.num_tables
    elif kind == "nodes":
        num_tables = _table_count(b_base, alpha, element_count, floor=5, log_cap=25)
    else:
        num_tables = _table_count(b_base, alpha, element_count, floor=3, log_cap=20)
    return AdaptiveParameters(
        bucket_length=float(bucket_length),
        num_tables=int(num_tables),
        mu=mu,
        alpha=float(alpha),
        b_base=float(b_base),
        label_count=label_count,
        element_count=element_count,
    )

"""Configuration for a PG-HIVE discovery run.

Defaults follow the paper: adaptive LSH parameters (section 4.2), Jaccard
merge threshold ``theta = 0.9`` (section 4.3), full post-processing with
exact datatype inference (section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.core.accumulators import DEFAULT_PAIR_CAP
from repro.errors import ConfigurationError
from repro.lsh.base import GroupingRule


class ClusteringMethod(Enum):
    """Which LSH family clusters the representation vectors."""

    ELSH = "elsh"
    MINHASH = "minhash"


@dataclass
class AdaptiveOverrides:
    """Manual LSH parameters; ``None`` fields fall back to the adaptive rule.

    "Regardless of the adaptive approach, users can always provide their own
    LSH parameters" (section 4.2).
    """

    bucket_length: float | None = None
    num_tables: int | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.bucket_length is not None and self.bucket_length <= 0:
            raise ConfigurationError(
                f"bucket_length must be > 0, got {self.bucket_length}"
            )
        if self.num_tables is not None and self.num_tables < 1:
            raise ConfigurationError(
                f"num_tables must be >= 1, got {self.num_tables}"
            )
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigurationError(f"alpha must be > 0, got {self.alpha}")


@dataclass
class PGHiveConfig:
    """Everything a :class:`~repro.core.pipeline.PGHive` run can tune."""

    method: ClusteringMethod = ClusteringMethod.ELSH
    #: Jaccard threshold of Algorithm 2 (theta).
    theta: float = 0.9
    #: Word2Vec embedding dimension d of section 4.1.
    embedding_dim: int = 16
    #: Scale of the (unit-normalised) label embedding relative to one binary
    #: property flag.  Values >= 1 keep differently-labelled elements apart
    #: even when their property structure coincides (the "hybrid" property
    #: of section 4.1).
    label_weight: float = 2.0
    embedding_epochs: int = 3
    embedding_window: int = 2
    embedding_negative: int = 5
    #: Cap on training sentences (edge triples) for the label corpus.
    max_corpus_sentences: int = 50_000
    #: How per-table buckets combine into clusters (DESIGN.md section 4).
    grouping_rule: GroupingRule = GroupingRule.AND
    #: ELSH AND-within-table width (classic g); 1 matches Spark MLlib.
    hashes_per_table: int = 1
    #: MinHash band size r (minhashes folded per table).
    minhash_band_size: int = 2
    #: Manual LSH parameter overrides for nodes and edges.
    node_lsh: AdaptiveOverrides = field(default_factory=AdaptiveOverrides)
    edge_lsh: AdaptiveOverrides = field(default_factory=AdaptiveOverrides)
    #: Run constraint/datatype/cardinality inference (h-f-g of Figure 2).
    post_processing: bool = True
    #: Also infer candidate keys (PG-Keys extension; see
    #: repro.core.key_inference).  Off by default: it is an extension
    #: beyond the paper's published pipeline and costs a distinct-value
    #: tracker per property (and capped property pair) of every type.
    infer_keys: bool = False
    #: Apply post-processing after every incremental batch instead of only
    #: after the final one (the ``postProcessing`` flag of Algorithm 1).
    post_process_each_batch: bool = False
    #: Keep the cumulative union graph inside the incremental engine.  Off
    #: by default -- the union grows without bound and exists only for
    #: deletions, whose reads re-scan it.
    retain_union: bool = False
    #: Composite-key tracking cap: pair trackers are only created while a
    #: type's first instance has at most this many property keys.
    key_pair_tracking_cap: int = DEFAULT_PAIR_CAP
    #: Content-addressable structural dedup: columnar rows whose interned
    #: element signature has a live refcount skip preprocessing and LSH
    #: clustering, folding only the streaming accumulators.  Engages for
    #: exact-grouping clustering (MinHash + AND); other configurations
    #: keep the full per-row pipeline.  Not always output-neutral: on
    #: unlabeled or partly labelled incremental streams the split can
    #: change which types Algorithm 2 merges (DESIGN.md "Structural
    #: dedup").
    structural_dedup: bool = True
    #: Master seed; every random component derives a stable sub-seed.
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must be in [0, 1], got {self.theta}")
        if self.embedding_dim < 1:
            raise ConfigurationError(
                f"embedding_dim must be >= 1, got {self.embedding_dim}"
            )
        if self.label_weight <= 0:
            raise ConfigurationError(
                f"label_weight must be > 0, got {self.label_weight}"
            )
        if self.minhash_band_size < 1:
            raise ConfigurationError(
                f"minhash_band_size must be >= 1, got {self.minhash_band_size}"
            )
        if self.hashes_per_table < 1:
            raise ConfigurationError(
                f"hashes_per_table must be >= 1, got {self.hashes_per_table}"
            )
        if self.key_pair_tracking_cap < 0:
            raise ConfigurationError(
                "key_pair_tracking_cap must be >= 0, got "
                f"{self.key_pair_tracking_cap}"
            )

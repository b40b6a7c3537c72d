"""LSH clustering step (section 4.2) producing candidate-type clusters.

A cluster summarises its members by the *representative pattern*
``rep(C) = (L, K, R)``: the union of labels, the union of observed property
keys, and -- for edges -- the unions of source/target label tokens.  The
representative is the candidate type handed to Algorithm 2.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.accumulators import SummaryOptions, ensure_summaries
from repro.core.adaptive import AdaptiveParameters, adapt_parameters
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.preprocess import ColumnarFeatures
from repro.graph.columnar import ColumnarElements, Interner
from repro.lsh.base import group
from repro.lsh.elsh import EuclideanLSH
from repro.lsh.minhash import MinHashLSH
from repro.util import derive_seed


class ColumnarCluster:
    """One candidate type over columnar batch rows (no member objects).

    Exposes the representative pattern Algorithm 2 merges on
    (``labels``, ``property_keys``, endpoint token sets, ``member_ids``);
    recording is columnar: :meth:`record_into` attaches members and folds
    their value *columns* into the type's streaming summaries -- datatype
    lattice joins, distinct-value witnesses, and endpoint counters
    consume one column per (key-set group, key), not one cell per
    element.
    """

    __slots__ = (
        "block",
        "interner",
        "member_rows",
        "member_ids",
        "labels",
        "property_keys",
        "source_tokens",
        "target_tokens",
        "repeat_signature",
    )

    def __init__(
        self,
        block: ColumnarElements,
        interner: Interner,
        member_rows: list[int],
        repeat_signature: int | None = None,
        pattern_rows: list[int] | None = None,
    ) -> None:
        self.block = block
        self.interner = interner
        self.member_rows = member_rows
        #: Set for structural-repeat clusters (dedup fast path): every
        #: member shares this interned element signature, so recording
        #: may use the accumulator ``observe_repeat`` variants.
        self.repeat_signature = repeat_signature
        ids = block.ids
        self.member_ids = [ids[row] for row in member_rows]
        if repeat_signature is not None:
            # Every member shares one structure, so the representative
            # pattern is fully determined by the interned signature -- no
            # per-row set unions.
            signature = interner.element_signature(repeat_signature)
            self.labels = set(interner.labelset(signature.labelset_id).labels)
            self.property_keys = set(
                interner.keyset(signature.keyset_id).keys
            )
            if block.is_edges:
                self.source_tokens = {interner.string(signature.src_sid)}
                self.target_tokens = {interner.string(signature.tgt_sid)}
            else:
                self.source_tokens = set()
                self.target_tokens = set()
            return
        # ``pattern_rows`` is the first row of each distinct structural
        # pattern among the members, ascending: every id below first
        # occurs on one of them, in the same order, so the unions (and
        # their set insertion order) equal the per-member ones.
        rows = member_rows if pattern_rows is None else pattern_rows
        labelset_list = block.labelset_list
        labels: set[str] = set()
        for lid in {labelset_list[row] for row in rows}:
            labels |= interner.labelset(lid).labels
        self.labels = labels
        keyset_list = block.keyset_list
        property_keys: set[str] = set()
        for kid in {keyset_list[row] for row in rows}:
            property_keys.update(interner.keyset(kid).keys)
        self.property_keys = property_keys
        if block.is_edges:
            src_list = block.src_token_list
            tgt_list = block.tgt_token_list
            self.source_tokens = {
                interner.string(sid)
                for sid in {src_list[row] for row in rows}
            }
            self.target_tokens = {
                interner.string(sid)
                for sid in {tgt_list[row] for row in rows}
            }
        else:
            self.source_tokens = set()
            self.target_tokens = set()

    @property
    def is_labeled(self) -> bool:
        """True when at least one member carried a label (section 4.3)."""
        return bool(self.labels)

    @property
    def size(self) -> int:
        """Number of member instances."""
        return len(self.member_ids)

    def record_into(
        self,
        schema_type,
        options: SummaryOptions | None,
        exclude_record: frozenset[str] = frozenset(),
    ) -> None:
        """Attach members to ``schema_type``, folding columns vectorised.

        Replayed instances are skipped, ``exclude_record`` stubs are
        never recorded, and summaries are never resurrected over unfolded
        history.  Accumulator outcomes equal folding each member's cells
        one at a time through the per-cell ``observe`` methods (the
        columnar oracle in ``tests/properties`` pins this); only the
        folding granularity changes.
        """
        block = self.block
        is_edge = block.is_edges
        # When the type is fresh (or already carries summaries), summaries
        # are ensured *before* member recording -- so a cluster whose
        # members are all excluded stubs still leaves a (possibly empty)
        # summary bundle on a zero-instance type.
        summaries = None
        if options is not None and (
            schema_type.summaries is not None
            or schema_type.instance_count == 0
        ):
            summaries = ensure_summaries(schema_type, is_edge, options)
        instance_ids = schema_type.instance_ids
        member_ids = self.member_ids
        member_rows = self.member_rows
        fresh_rows: list[int] = []
        fresh_ids: list[str] = []
        for position, instance_id in enumerate(member_ids):
            if instance_id in exclude_record or instance_id in instance_ids:
                continue
            instance_ids.add(instance_id)
            fresh_rows.append(member_rows[position])
            fresh_ids.append(instance_id)
        if not fresh_rows:
            return
        schema_type.instance_count += len(fresh_rows)
        if summaries is None:
            # Never resurrect summaries over unfolded history.
            schema_type.summaries = None

        # Group fresh members by interned key set (dict insertion order =
        # first occurrence, which pins the KeyAccumulator's first-instance
        # semantics; members stay ascending within each group).
        keyset_list = block.keyset_list
        groups: dict[int, list[int]] = {}
        setdefault = groups.setdefault
        for position, row in enumerate(fresh_rows):
            setdefault(keyset_list[row], []).append(position)
        property_counts = schema_type.property_counts
        key_accumulator = None if summaries is None else summaries.keys
        datatypes = None if summaries is None else summaries.datatypes
        # Structural-repeat clusters carry their signature's shape string
        # (aligned with the sorted key tuple), unlocking the accumulator
        # observe_repeat fast paths; results are fold-identical.
        repeat_shape = (
            self.interner.element_signature(self.repeat_signature).shape
            if self.repeat_signature is not None and summaries is not None
            else None
        )
        for keyset_id, positions in groups.items():
            keyset = self.interner.keyset(keyset_id)
            group_size = len(positions)
            for key in keyset.keys:
                property_counts[key] += group_size
                schema_type.ensure_property(key)
            if summaries is None:
                continue
            group_rows = [fresh_rows[p] for p in positions]
            columns: dict[str, list] = {}
            for position_in_keys, key in enumerate(keyset.keys):
                values = block.columns[key].take(group_rows)
                columns[key] = values
                if repeat_shape is not None:
                    datatypes.observe_repeat(
                        key, repeat_shape[position_in_keys], values
                    )
                else:
                    datatypes.observe_column(key, values)
            if key_accumulator is not None:
                group_ids = [fresh_ids[p] for p in positions]
                if repeat_shape is not None:
                    key_accumulator.observe_repeat(
                        group_ids, keyset.keys, columns
                    )
                else:
                    key_accumulator.observe_group(
                        group_ids, keyset.keys, columns
                    )
        if (
            summaries is not None
            and is_edge
            and summaries.endpoints is not None
        ):
            source_ids = block.source_ids
            target_ids = block.target_ids
            pair_sources = [source_ids[row] for row in fresh_rows]
            pair_targets = [target_ids[row] for row in fresh_rows]
            if repeat_shape is not None:
                summaries.endpoints.observe_repeat(pair_sources, pair_targets)
            else:
                summaries.endpoints.observe_pairs(pair_sources, pair_targets)


@dataclass
class ClusteringOutcome:
    """Clusters plus the parameters that produced them."""

    clusters: list[ColumnarCluster]
    parameters: AdaptiveParameters | None

    @property
    def cluster_count(self) -> int:
        """Number of clusters."""
        return len(self.clusters)


def _groups_by_first_occurrence(
    group_of_element: np.ndarray,
    group_count: int,
    elements: np.ndarray | None = None,
) -> list[list[int]]:
    """Member-row groups ordered like ``lsh.base.group_by_signature``.

    ``group_of_element`` assigns each element a dense group id; the
    result lists groups by first-member occurrence with members
    ascending -- the exact order AND grouping over per-element
    signatures produces (and OR grouping, whose components are sorted
    by smallest member), fully vectorised.  Members are element
    positions, or ``elements[position]`` when ``elements`` is given.
    """
    count = len(group_of_element)
    first_member = np.full(group_count, count, dtype=np.intp)
    np.minimum.at(first_member, group_of_element, np.arange(count, dtype=np.intp))
    renumber = np.empty(group_count, dtype=np.intp)
    renumber[np.argsort(first_member, kind="stable")] = np.arange(
        group_count, dtype=np.intp
    )
    dense = renumber[group_of_element]
    order = np.argsort(dense, kind="stable")
    if elements is not None:
        order = elements[order]
    members = order.tolist()
    ends = np.cumsum(np.bincount(dense, minlength=group_count)).tolist()
    return [members[start:end] for start, end in zip([0, *ends], ends)]


def _pattern_inverse(
    block: ColumnarElements,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct structural patterns of ``block`` and the row -> pattern map.

    A pattern is the interned (label-token[, source-token, target-token],
    key-set, label-set) id row; elements with equal patterns have equal
    representation vectors and equal MinHash token sets.  Returns the
    distinct id rows (sorted), the first row carrying each, and the
    per-row pattern index.  The label-set column comes last: it only
    tells apart label sets whose tokens collide (``{"A+B"}`` and
    ``{"A", "B"}``), so the pattern order is the token order otherwise.
    """
    if block.is_edges:
        columns = (
            block.token_sids,
            block.src_token_sids,
            block.tgt_token_sids,
            block.keyset_ids,
            block.labelset_ids,
        )
    else:
        columns = (block.token_sids, block.keyset_ids, block.labelset_ids)
    return _distinct_rows(columns)


def _distinct_rows(
    columns: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(np.stack(columns, axis=1), axis=0, return_index=True,
    return_inverse=True)`` by a stable ``np.lexsort`` and a row diff.

    The distinct rows come sorted with ``columns[0]`` as the primary key,
    each with the first row carrying it; ``inverse`` maps every row to
    its distinct row.  ``np.unique(axis=0)`` sorts a structured view of
    the rows, three to nine times slower on these narrow integer columns.
    """
    stacked = np.stack(columns, axis=1)
    count = len(stacked)
    if count == 0:
        empty = np.empty(0, dtype=np.intp)
        return stacked, empty, empty
    order = np.lexsort(columns[::-1])
    starts = np.empty(count, dtype=bool)
    starts[0] = True
    ordered = stacked[order]
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    first_rows = order[starts]
    inverse = np.empty(count, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return stacked[first_rows], first_rows, inverse


def _clusters_from_pattern_groups(
    block: ColumnarElements,
    interner: Interner,
    pattern_groups: list[list[int]],
    first_rows: np.ndarray,
    inverse: np.ndarray,
) -> list[ColumnarCluster]:
    """Expand groups of patterns into clusters of rows.

    Clusters come in first-member order with members ascending, as
    grouping the rows themselves orders them.  A group's first member is
    the first row of one of its patterns, so the ascending first rows
    split into the same groups in the same order; they are the rows the
    representative unions read.
    """
    group_of_pattern = np.empty(len(first_rows), dtype=np.intp)
    group_of_pattern[np.concatenate(pattern_groups)] = np.repeat(
        np.arange(len(pattern_groups), dtype=np.intp),
        [len(patterns) for patterns in pattern_groups],
    )
    member_groups = _groups_by_first_occurrence(
        group_of_pattern[inverse], len(pattern_groups)
    )
    firsts = np.sort(first_rows)
    pattern_row_groups = _groups_by_first_occurrence(
        group_of_pattern[inverse[firsts]], len(pattern_groups), firsts
    )
    return [
        ColumnarCluster(block, interner, rows, pattern_rows=pattern_rows)
        for rows, pattern_rows in zip(member_groups, pattern_row_groups)
    ]


def cluster_features_columnar(
    features: ColumnarFeatures,
    config: PGHiveConfig,
    kind: str,
    minhash_cache: dict[tuple[int, int, int], MinHashLSH] | None = None,
) -> ClusteringOutcome:
    """Cluster one element kind with the configured LSH method.

    ``kind`` is ``"nodes"`` or ``"edges"``; it selects the adaptive-T
    formula and the per-kind manual overrides.

    ``minhash_cache`` (keyed by ``(num_tables, band_size, seed)``) lets an
    incremental run reuse one :class:`MinHashLSH` instance -- and with it
    the signature cache of every structural pattern seen in earlier
    batches -- whenever batches resolve to the same adaptive parameters
    (always the case under manual ``num_tables`` overrides; otherwise only
    when the adaptive formula lands on the same value).

    Both families work on distinct structural patterns
    (:func:`_pattern_inverse`): mu is estimated over the distinct
    vectors, ELSH hashes each distinct vector once, MinHash signs each
    distinct pattern once (handed to the kernel as pre-interned id
    arrays), and the grouping runs over patterns, then expands to
    elements through the pattern inverse.  Elements with equal patterns
    hash equally, so the expanded partition equals the per-element one.
    """
    if len(features) == 0:
        return ClusteringOutcome([], None)
    block = features.block
    interner = features.interner
    distinct, first_rows, inverse = _pattern_inverse(block)
    vectors = features.vectors[first_rows]

    labels: set[str] = set()
    for lid in np.unique(distinct[:, -1]).tolist():
        labels |= interner.labelset(int(lid)).labels
    overrides = config.node_lsh if kind == "nodes" else config.edge_lsh
    parameters = adapt_parameters(
        vectors,
        label_count=len(labels),
        kind=kind,
        overrides=overrides,
        seed=derive_seed(config.seed, "adaptive", kind),
        inverse=inverse,
    )

    if config.method is ClusteringMethod.ELSH:
        lsh = EuclideanLSH(
            bucket_length=parameters.bucket_length,
            num_tables=parameters.num_tables,
            hashes_per_table=config.hashes_per_table,
            seed=derive_seed(config.seed, "elsh", kind),
        )
        pattern_groups = lsh.cluster(vectors, rule=config.grouping_rule)
    else:
        seed = derive_seed(config.seed, "minhash", kind)
        cache_key = (parameters.num_tables, config.minhash_band_size, seed)
        lsh = None if minhash_cache is None else minhash_cache.get(cache_key)
        if lsh is None:
            lsh = MinHashLSH(
                num_tables=parameters.num_tables,
                band_size=config.minhash_band_size,
                seed=seed,
            )
            if minhash_cache is not None:
                minhash_cache[cache_key] = lsh
        if block.is_edges:
            patterns = [
                interner.edge_pattern(t, s, g, k)
                for t, s, g, k, _ in distinct.tolist()
            ]
        else:
            patterns = [
                interner.node_pattern(t, k) for t, k, _ in distinct.tolist()
            ]
        banded = lsh.signatures(
            [pattern.tokens for pattern in patterns],
            token_ids=[pattern.minhash_ids for pattern in patterns],
        )
        pattern_groups = group(banded, config.grouping_rule)

    clusters = _clusters_from_pattern_groups(
        block, interner, pattern_groups, first_rows, inverse
    )
    return ClusteringOutcome(clusters, parameters)

"""Streaming post-processing accumulators (incremental steps (e)-(g)).

The static pipeline computes constraints, datatypes, cardinalities, and
keys by re-scanning every instance of every type -- O(cumulative graph)
per invocation, which is exactly the cost Algorithm 1 promises to avoid
("never revisits earlier batches").  This module provides per-type
incremental summaries that consume each element **once, at arrival**, so
the post-processing passes become pure reads over O(|schema|) state:

* :class:`DatatypeAccumulator` -- one datatype-lattice element per
  property key, folded through ``generalize``.  The lattice
  (INT < FLOAT < STRING, DATE < DATETIME < STRING, BOOLEAN < STRING) is a
  join-semilattice: the fold is associative, commutative, and idempotent,
  so results are batch-order invariant and replay-safe.
* :class:`EndpointAccumulator` -- per edge type, the distinct targets per
  source and the in-degree per target, with running maxima, yielding the same
  :class:`~repro.schema.cardinality.CardinalityBounds` a full re-scan
  would produce.
* :class:`KeyAccumulator` -- distinct-value/null trackers per property
  (and per capped property pair) for PG-Keys candidate-key inference.
  Trackers record one *witness* instance per value so that merging two
  types with overlapping instance sets (batch streams replay endpoint
  stubs) does not manufacture false duplicates.

Mandatory/optional tallies need no new state: ``_TypeBase`` already
maintains ``property_counts`` / ``instance_count`` incrementally and
:mod:`repro.core.constraints` reads only those.

Summaries attach to schema types as the duck-typed ``summaries``
attribute; :meth:`repro.schema.model._TypeBase._absorb_base` merges them
monotonically when Algorithm 2 collapses two types, so the streaming
reads stay equal to the full-scan oracle across arbitrary merge orders.

Every fold here consumes whole columns or key-set groups; the one-cell-
at-a-time folds they must equal live in ``tests/seed_reference.py``,
where the columnar oracle compares the two.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations
from typing import Any

import numpy as np

from repro.schema.cardinality import CardinalityBounds
from repro.schema.datatypes import DataType, generalize, infer_value_type

#: Pair trackers are only created while a type's first instance carries at
#: most this many property keys (C(cap, 2) trackers); wider types skip
#: composite-key tracking and flag ``pair_overflow``.
DEFAULT_PAIR_CAP = 24


def hashable_value(value: Any) -> object:
    """Normalise a property value for set membership (lists -> repr)."""
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


@dataclass(frozen=True, slots=True)
class SummaryOptions:
    """What the per-type summaries should track."""

    track_keys: bool = False
    pair_cap: int = DEFAULT_PAIR_CAP


DEFAULT_OPTIONS = SummaryOptions()


def _column_value_type(values: Sequence[Any]) -> DataType:
    """The lattice join of ``infer_value_type`` over one value column.

    Homogeneous columns short-circuit: all-``int`` is INTEGER, all-``bool``
    BOOLEAN, all-``float`` reduces with one vectorised integrality check,
    and all-``str`` folds distinct values only (the per-value regexes are
    the expensive part).  Heterogeneous columns fall back to the scalar
    fold; every path stops at the absorbing STRING element.
    """
    if isinstance(values, list):
        vals = values
    elif isinstance(values, np.ndarray):
        vals = values.tolist()
    else:
        vals = list(values)
    kinds = set(map(type, vals))
    if kinds == {int}:
        return DataType.INTEGER
    if kinds == {bool}:
        return DataType.BOOLEAN
    if kinds == {float}:
        arr = np.asarray(vals, dtype=float)
        integral = np.isfinite(arr) & (arr == np.floor(arr))
        return DataType.INTEGER if bool(np.all(integral)) else DataType.FLOAT
    if kinds == {str}:
        seen: set[str] = set()
        result: DataType | None = None
        for value in vals:
            if value in seen:
                continue
            seen.add(value)
            value_type = infer_value_type(value)
            result = (
                value_type if result is None else generalize(result, value_type)
            )
            if result is DataType.STRING:
                return result
        return DataType.STRING if result is None else result
    result = None
    for value in vals:
        value_type = infer_value_type(value)
        result = value_type if result is None else generalize(result, value_type)
        if result is DataType.STRING:
            return result
    return DataType.STRING if result is None else result


class DatatypeAccumulator:
    """Per-property datatype lattice state: ``key -> join of value types``."""

    __slots__ = ("types",)

    def __init__(self) -> None:
        self.types: dict[str, DataType] = {}

    def observe_column(self, key: str, values: Sequence[Any]) -> None:
        """Fold one whole value column for ``key`` (columnar ingest path).

        Equivalent to folding each cell on its own -- the lattice join
        is associative, commutative, and idempotent -- but vectorised:
        homogeneous numeric/bool columns resolve with one type check,
        string columns fold *distinct* values only, and every path stops
        as soon as the join reaches the absorbing STRING element.
        """
        current = self.types.get(key)
        if current is DataType.STRING or not len(values):
            return
        column_type = _column_value_type(values)
        self.types[key] = (
            column_type
            if current is None
            else generalize(current, column_type)
        )

    def observe_repeat(
        self, key: str, shape_code: str, values: Sequence[Any]
    ) -> None:
        """Fold one column of a structural-repeat group (dedup fast path).

        ``shape_code`` is the column's signature shape character (see
        :func:`repro.graph.columnar.value_shapes`): when it already
        proves the column cannot move the lattice element for ``key``
        -- every value is ``bool`` and the key is BOOLEAN, every value
        is ``int`` and the key is INTEGER, or the key is FLOAT and the
        values are numeric -- the per-value scan is skipped entirely.
        Ambiguous shapes (strings may parse as dates, floats may be
        integral) fall back to :meth:`observe_column`, so the result is
        always exactly the generic fold.
        """
        current = self.types.get(key)
        if current is DataType.STRING:
            return
        if current is DataType.BOOLEAN:
            if shape_code == "b":
                return
        elif current is DataType.INTEGER:
            if shape_code == "i":
                return
        elif current is DataType.FLOAT:
            # generalize(FLOAT, INTEGER) == generalize(FLOAT, FLOAT)
            # == FLOAT: numeric columns cannot move a FLOAT key.
            if shape_code in ("i", "f"):
                return
        self.observe_column(key, values)

    def merge_from(self, other: "DatatypeAccumulator") -> None:
        """Lattice join with another accumulator (type merge)."""
        for key, value_type in other.types.items():
            current = self.types.get(key)
            self.types[key] = (
                value_type if current is None else generalize(current, value_type)
            )

    def copy(self) -> "DatatypeAccumulator":
        clone = DatatypeAccumulator()
        clone.types = dict(self.types)
        return clone


class EndpointAccumulator:
    """Distinct-endpoint counters for one edge type, with running maxima.

    ``targets_per_source`` holds the distinct targets of each source as
    the insertion-ordered keys of a ``dict[str, None]``; ``in_degree``
    counts the distinct sources of each target.  Maps that hold only
    ``str``, ``None`` and ``int`` are never tracked by CPython's cyclic
    collector, so this state -- one entry per distinct endpoint pair --
    adds nothing to the objects a full collection or a checkpoint
    unpickle walks.  No per-pair multiplicity is kept: no read uses one.
    """

    __slots__ = ("targets_per_source", "in_degree", "max_out", "max_in")

    def __init__(self) -> None:
        self.targets_per_source: dict[str, dict[str, None]] = {}
        self.in_degree: dict[str, int] = {}
        self.max_out = 0
        self.max_in = 0

    def observe_pairs(
        self, source_ids: Sequence[str], target_ids: Sequence[str]
    ) -> None:
        """Fold many edge endpoint pairs at once (columnar ingest path).

        Endpoint sets only grow, so the running maxima are
        order-invariant.  A target's in-degree moves only when its pair
        is new to the source's map.  The per-pair bookkeeping is
        flattened into local bindings (this is the hottest per-edge loop
        left on the columnar path).
        """
        targets_per_source = self.targets_per_source
        in_degree = self.in_degree
        max_out, max_in = self.max_out, self.max_in
        get_targets = targets_per_source.get
        get_degree = in_degree.get
        for source_id, target_id in zip(source_ids, target_ids):
            targets = get_targets(source_id)
            if targets is None:
                targets_per_source[source_id] = {target_id: None}
                if max_out < 1:
                    max_out = 1
            elif target_id in targets:
                continue
            else:
                targets[target_id] = None
                size = len(targets)
                if size > max_out:
                    max_out = size
            degree = get_degree(target_id, 0) + 1
            in_degree[target_id] = degree
            if degree > max_in:
                max_in = degree
        self.max_out, self.max_in = max_out, max_in

    def observe_repeat(
        self, source_ids: Sequence[str], target_ids: Sequence[str]
    ) -> None:
        """Fold a structural-repeat group's endpoints (dedup fast path).

        Cardinality depends on the concrete endpoint *ids*, which repeat
        structures do not share, so this is exactly
        :meth:`observe_pairs` -- named separately so the repeat recording
        path stays explicit about which folds it performs.
        """
        self.observe_pairs(source_ids, target_ids)

    def merge_from(self, other: "EndpointAccumulator") -> None:
        """Union the distinct pairs and re-establish the maxima."""
        in_degree = self.in_degree
        max_out, max_in = self.max_out, self.max_in
        for source_id, theirs in other.targets_per_source.items():
            mine = self.targets_per_source.setdefault(source_id, {})
            added = [target_id for target_id in theirs if target_id not in mine]
            mine.update(dict.fromkeys(added))
            max_out = max(max_out, len(mine))
            for target_id in added:
                degree = in_degree.get(target_id, 0) + 1
                in_degree[target_id] = degree
                max_in = max(max_in, degree)
        self.max_out, self.max_in = max_out, max_in

    def bounds(self) -> CardinalityBounds:
        """The (max-out, max-in) pair a full endpoint re-scan would yield."""
        return CardinalityBounds(self.max_out, self.max_in)

    def copy(self) -> "EndpointAccumulator":
        clone = EndpointAccumulator()
        clone.targets_per_source = {
            k: dict(v) for k, v in self.targets_per_source.items()
        }
        clone.in_degree = dict(self.in_degree)
        clone.max_out = self.max_out
        clone.max_in = self.max_in
        return clone


class DistinctTracker:
    """Are all observed values pairwise distinct across instances?

    ``witnesses`` maps each value to the instance that first produced it;
    a second *distinct* instance producing the same value collapses the
    tracker to the terminal duplicated state (``witnesses = None``) and
    frees the map -- duplication is monotone under inserts and merges.
    The witness identity makes merges of types with overlapping instance
    sets exact: the same instance replayed on both sides is not a
    duplicate, mirroring the full scan over the deduplicated instance set.
    """

    __slots__ = ("witnesses", "count")

    def __init__(self) -> None:
        self.witnesses: dict[object, str] | None = {}
        self.count = 0

    @property
    def distinct(self) -> bool:
        """True while no two distinct instances shared a value."""
        return self.witnesses is not None

    def observe_column(
        self, values: Sequence[Any], instance_ids: Sequence[str]
    ) -> None:
        """Fold one value column (columnar ingest path).

        The duplicated outcome is order-invariant, and a dead tracker
        skips the whole column in O(1).
        """
        self.count += len(instance_ids)
        witnesses = self.witnesses
        if witnesses is None:
            return
        setdefault = witnesses.setdefault
        for value, instance_id in zip(values, instance_ids):
            if isinstance(value, (list, dict, set)):
                value = repr(value)
            if setdefault(value, instance_id) != instance_id:
                self.witnesses = None
                return

    def observe_pair_column(
        self,
        left_values: Sequence[Any],
        right_values: Sequence[Any],
        instance_ids: Sequence[str],
    ) -> None:
        """Fold one aligned pair of value columns (composite-key tracking)."""
        self.count += len(instance_ids)
        witnesses = self.witnesses
        if witnesses is None:
            return
        setdefault = witnesses.setdefault
        for left, right, instance_id in zip(
            left_values, right_values, instance_ids
        ):
            if isinstance(left, (list, dict, set)):
                left = repr(left)
            if isinstance(right, (list, dict, set)):
                right = repr(right)
            if setdefault((left, right), instance_id) != instance_id:
                self.witnesses = None
                return

    def merge_from(self, other: "DistinctTracker") -> None:
        """Union two trackers; cross-side value collisions mean duplicates."""
        self.count += other.count
        if self.witnesses is None:
            return
        if other.witnesses is None:
            self.witnesses = None
            return
        witnesses = self.witnesses
        for value, witness in other.witnesses.items():
            prior = witnesses.setdefault(value, witness)
            if prior != witness:
                self.witnesses = None
                return

    def copy(self) -> "DistinctTracker":
        clone = DistinctTracker()
        clone.witnesses = None if self.witnesses is None else dict(self.witnesses)
        clone.count = self.count
        return clone


class KeyAccumulator:
    """Distinct-value state backing streaming candidate-key inference.

    ``singles`` holds one :class:`DistinctTracker` per property key ever
    observed with a value; ``pairs`` holds trackers for the property pairs
    of the type's *first* instance (a pair can only be a composite key
    when both keys are mandatory, i.e. present from the very first
    instance onward), pruned the moment an instance misses either key.
    ``instances`` counts folded elements so reads can require that a
    tracker covered every instance.
    """

    __slots__ = ("singles", "pairs", "pair_overflow", "pair_cap", "instances")

    def __init__(self, pair_cap: int = DEFAULT_PAIR_CAP) -> None:
        self.singles: dict[str, DistinctTracker] = {}
        self.pairs: dict[tuple[str, str], DistinctTracker] = {}
        self.pair_overflow = False
        self.pair_cap = pair_cap  # repro-lint: ignore[PGL201] -- construction-time config shared by both merge sides, not accumulated state
        self.instances = 0

    def observe_group(
        self,
        instance_ids: Sequence[str],
        keys: tuple[str, ...],
        columns: Mapping[str, Sequence[Any]],
    ) -> None:
        """Fold a group of instances sharing one property-key set.

        Columnar ingest groups instances by interned key-set, so presence
        checks and pair pruning run once per group and trackers consume
        whole columns.  ``keys`` must be sorted (key-set interning
        guarantees it) and ``columns[key]`` aligned with ``instance_ids``.
        """
        count = len(instance_ids)
        if count == 0:
            return
        first_instance = self.instances == 0
        self.instances += count
        for key in keys:
            tracker = self.singles.get(key)
            if tracker is None:
                tracker = self.singles[key] = DistinctTracker()
            tracker.observe_column(columns[key], instance_ids)
        if first_instance:
            if len(keys) > self.pair_cap:
                self.pair_overflow = True
                return
            for left, right in combinations(keys, 2):
                tracker = self.pairs[(left, right)] = DistinctTracker()
                tracker.observe_pair_column(
                    columns[left], columns[right], instance_ids
                )
            return
        if not self.pairs:
            return
        present = set(keys)
        dead = [
            pair
            for pair in self.pairs
            if pair[0] not in present or pair[1] not in present
        ]
        for pair in dead:
            del self.pairs[pair]
        for (left, right), tracker in self.pairs.items():
            tracker.observe_pair_column(
                columns[left], columns[right], instance_ids
            )

    def observe_repeat(
        self,
        instance_ids: Sequence[str],
        keys: tuple[str, ...],
        columns: Mapping[str, Sequence[Any]],
    ) -> None:
        """Fold a structural-repeat group (dedup fast path).

        Exactly :meth:`observe_group` minus the first-instance
        pair-candidate branch, which is unreachable for repeats: a live
        signature refcount means an instance with this structure was
        already recorded into the type.  The ``instances == 0`` guard
        keeps the fold exact even if a caller ever misclassifies.
        """
        count = len(instance_ids)
        if count == 0:
            return
        if self.instances == 0:
            self.observe_group(instance_ids, keys, columns)
            return
        self.instances += count
        for key in keys:
            tracker = self.singles.get(key)
            if tracker is None:
                tracker = self.singles[key] = DistinctTracker()
            tracker.observe_column(columns[key], instance_ids)
        if not self.pairs:
            return
        present = set(keys)
        dead = [
            pair
            for pair in self.pairs
            if pair[0] not in present or pair[1] not in present
        ]
        for pair in dead:
            del self.pairs[pair]
        for (left, right), tracker in self.pairs.items():
            tracker.observe_pair_column(
                columns[left], columns[right], instance_ids
            )

    def merge_from(self, other: "KeyAccumulator") -> None:
        """Merge on type absorption: pairs survive only on both sides."""
        self.instances += other.instances
        for key, tracker in other.singles.items():
            mine = self.singles.get(key)
            if mine is None:
                self.singles[key] = tracker.copy()
            else:
                mine.merge_from(tracker)
        self.pair_overflow = self.pair_overflow or other.pair_overflow
        if self.pair_overflow:
            self.pairs.clear()
            return
        merged: dict[tuple[str, str], DistinctTracker] = {}
        for pair, tracker in self.pairs.items():
            theirs = other.pairs.get(pair)
            if theirs is not None:
                tracker.merge_from(theirs)
                merged[pair] = tracker
        self.pairs = merged

    def copy(self) -> "KeyAccumulator":
        clone = KeyAccumulator(self.pair_cap)
        clone.singles = {k: t.copy() for k, t in self.singles.items()}
        clone.pairs = {p: t.copy() for p, t in self.pairs.items()}
        clone.pair_overflow = self.pair_overflow
        clone.instances = self.instances
        return clone


class TypeSummaries:
    """The bundle of accumulators attached to one schema type."""

    __slots__ = ("datatypes", "endpoints", "keys")

    def __init__(
        self,
        is_edge: bool,
        options: SummaryOptions = DEFAULT_OPTIONS,
    ) -> None:
        self.datatypes = DatatypeAccumulator()
        self.endpoints = EndpointAccumulator() if is_edge else None
        self.keys = KeyAccumulator(options.pair_cap) if options.track_keys else None

    def merge_from(self, other: "TypeSummaries") -> None:
        """Monotone merge for type absorption (Lemmas 1-2 extended)."""
        self.datatypes.merge_from(other.datatypes)
        if self.endpoints is not None and other.endpoints is not None:
            self.endpoints.merge_from(other.endpoints)
        elif other.endpoints is not None:
            self.endpoints = other.endpoints.copy()
        if self.keys is not None and other.keys is not None:
            self.keys.merge_from(other.keys)
        elif self.keys is not None or other.keys is not None:
            # One side never tracked keys: the union's key state is unknown.
            self.keys = None

    def copy(self) -> "TypeSummaries":
        clone = TypeSummaries(is_edge=False)
        clone.datatypes = self.datatypes.copy()
        clone.endpoints = None if self.endpoints is None else self.endpoints.copy()
        clone.keys = None if self.keys is None else self.keys.copy()
        return clone


def ensure_summaries(
    schema_type,
    is_edge: bool,
    options: SummaryOptions = DEFAULT_OPTIONS,
) -> TypeSummaries:
    """Get-or-create the :class:`TypeSummaries` of ``schema_type``."""
    summaries = schema_type.summaries
    if summaries is None:
        summaries = schema_type.summaries = TypeSummaries(is_edge, options)
    return summaries

"""Columnar zero-copy ingestion core: :class:`ElementBatch` + interning.

Materialising every node/edge as a Python dataclass means re-walking its
property dict in four layers (type extraction, preprocessing, MinHash
token sets, accumulators).  Incremental-view-
maintenance systems avoid exactly this by keeping deltas in flat columnar
relations (Szárnyas et al.), and PG-Schema's label/property-set formalism
makes the schema-relevant content of an element fully internable: a
label-set id, a property-key-set id, and typed value columns.

This module provides that representation:

* :class:`Interner` -- a process-wide content store mapping label *sets*,
  token strings, property key *sets*, and LSH token patterns to small
  integer ids.  Token strings carry their content-derived 61-bit MinHash
  ids (shared with :mod:`repro.lsh.minhash`'s process-wide token-id
  cache), so LSH signing of a columnar batch never re-hashes a token.
  Label sets are interned by the *set* (not the joined token string):
  two distinct sets whose tokens collide -- ``{"A+B"}`` vs ``{"A","B"}``
  -- keep distinct ids while sharing embedding/LSH behaviour, exactly as
  the element model treats them.
* :class:`ElementBatch` -- one change-feed batch as contiguous columns:
  element ids, interned label-set ids, interned key-set ids, per-key
  value columns (``rows`` index array + object values), and, for edges,
  endpoint ids and endpoint label-token string ids.
  ``from_elements``/``to_elements`` convert to and from the dataclass
  world; :class:`BatchBuilder` appends raw rows so file readers ingest
  without ever instantiating a ``Node``/``Edge``.
* :func:`columnar_changeset` -- the element boundary of both sessions:
  an element change-set becomes one columnar change-set, endpoints it
  does not carry resolved through a lookup into stub rows, before the
  change-set is logged or applied.
* :func:`columnar_changesets_from_rows` -- the one change-feed grouper:
  groups a raw row stream into endpoint-complete insert
  :class:`ChangeSet`\\ s whose payload is an :class:`ElementBatch` (stub
  copies marked in ``stub_node_ids``), holding one compact record per
  distinct node id in memory instead of one dataclass.  The file readers
  feed it rows directly; :func:`changesets_from_elements` feeds it
  ``Node``/``Edge`` streams through :func:`intern_element`.
* :func:`partition_columnar` -- the sharded-session partitioning step
  over the id column (stable blake2b routing through
  :class:`repro.graph.changes.HashPartitioner`, stub rows shipped across
  shards).

The interner is process-wide state exactly like the MinHash token-id
cache: ids are assigned in first-intern order and are therefore *not*
stable across processes.  Nothing persistent keys on them -- schemas,
accumulators, and signature caches remain string-keyed -- but discovery
state carries an interner *snapshot* through checkpoints so a restored
process re-warms the content caches (and the sharded manifest encodes
its stub registry by content, not by id).
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Mapping
from hashlib import blake2b
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, DanglingEdgeError
from repro.graph.changes import ChangeSet
from repro.graph.model import Edge, Node, PropertyGraph, label_token
from repro.lsh.minhash import token_content_id

if TYPE_CHECKING:
    from repro.graph.changes import HashPartitioner


class LabelSet:
    """One interned label set: the labels, their token, its string id."""

    __slots__ = ("labelset_id", "labels", "token", "token_sid")

    def __init__(
        self, labelset_id: int, labels: frozenset[str], token: str, token_sid: int
    ) -> None:
        self.labelset_id = labelset_id
        self.labels = labels
        self.token = token
        self.token_sid = token_sid


class KeySet:
    """One interned property-key set (keys sorted, frozenset cached)."""

    __slots__ = ("keyset_id", "keys", "frozen")

    def __init__(self, keyset_id: int, keys: tuple[str, ...]) -> None:
        self.keyset_id = keyset_id
        self.keys = keys
        self.frozen = frozenset(keys)


class TokenPattern:
    """One interned LSH structural pattern: token set + MinHash id array."""

    __slots__ = ("tokens", "minhash_ids")

    def __init__(self, tokens: frozenset[str], minhash_ids: np.ndarray) -> None:
        self.tokens = tokens
        self.minhash_ids = minhash_ids


#: Coarse per-value datatype-shape codes folded into element signatures.
#: Exact ``type()`` lookup: ``bool`` is its own dict key so it never
#: collapses into ``int``; subclasses and exotic types fall back to "o".
_SHAPE_CODES = {
    bool: "b",
    int: "i",
    float: "f",
    str: "s",
    type(None): "n",
}


def value_shapes(values: Iterable) -> str:
    """The datatype-shape string of one key-aligned value tuple."""
    get = _SHAPE_CODES.get
    return "".join([get(type(value), "o") for value in values])


class ElementSignature:
    """One interned structural signature: content ids + Merkle digest.

    A signature captures everything structural about an element --
    label set, property-key set, per-key datatype shape, and (edges)
    the endpoint label tokens -- so two rows with equal signatures are
    indistinguishable to preprocessing and MinHash/LSH clustering.  The
    digest is content-derived (stable across processes); the ids are
    process-local like every other interner id.
    """

    __slots__ = (
        "signature_id",
        "labelset_id",
        "keyset_id",
        "shape",
        "src_sid",
        "tgt_sid",
        "digest",
    )

    def __init__(
        self,
        signature_id: int,
        labelset_id: int,
        keyset_id: int,
        shape: str,
        src_sid: int,
        tgt_sid: int,
        digest: bytes,
    ) -> None:
        self.signature_id = signature_id
        self.labelset_id = labelset_id
        self.keyset_id = keyset_id
        self.shape = shape
        self.src_sid = src_sid
        self.tgt_sid = tgt_sid
        self.digest = digest

    @property
    def is_edge(self) -> bool:
        """True for edge signatures (endpoint tokens present)."""
        return self.src_sid >= 0


class Interner:
    """Process-wide content interner backing columnar batches.

    All methods are idempotent: interning the same content twice returns
    the same id.  The interner only grows (like the MinHash caches), and
    its size is bounded by the number of *distinct* label sets, tokens,
    key sets, and structural patterns -- small even for huge graphs.

    Thread safety: mutations hold a reentrant lock with double-checked
    lookup, so the already-interned fast path stays lock-free while
    concurrent sessions (the multi-tenant service) can share the
    process-wide instance.  Reads never lock: writers append backing
    content before publishing an id.
    """

    def __init__(self) -> None:
        # Snapshot/merge go through the intern_* API rather than field
        # copies: snapshot() persists the three content lists, and the
        # restore/merge paths re-intern that content, which rebuilds the
        # id maps and caches as a side effect.  The per-field lint
        # suppressions below record which bucket each field falls into.
        self._string_ids: dict[str, int] = {}  # repro-lint: ignore[PGL201] -- derived id map; rebuilt by intern_string during merge_snapshot
        self._strings: list[str] = []  # repro-lint: ignore[PGL201] -- persisted via snapshot()["strings"]; restored through intern_string
        self._string_minhash: list[int] = []  # repro-lint: ignore[PGL201] -- derived MinHash-per-string cache; recomputed by intern_string
        self._labelset_ids: dict[frozenset[str], int] = {}  # repro-lint: ignore[PGL201] -- derived id map; rebuilt by intern_labels during merge_snapshot
        self._labelsets: list[LabelSet] = []  # repro-lint: ignore[PGL201] -- persisted via snapshot()["labelsets"]; restored through intern_labels
        self._keyset_ids: dict[tuple[str, ...], int] = {}  # repro-lint: ignore[PGL201] -- derived id map; rebuilt by intern_keys during merge_snapshot
        self._keysets: list[KeySet] = []  # repro-lint: ignore[PGL201] -- persisted via snapshot()["keysets"]; restored through intern_keys
        self._node_patterns: dict[tuple[int, int], TokenPattern] = {}  # repro-lint: ignore[PGL201] -- derived pattern cache; deliberately excluded from snapshots, rebuilt on first use
        self._edge_patterns: dict[tuple[int, int, int, int], TokenPattern] = {}  # repro-lint: ignore[PGL201] -- derived pattern cache; deliberately excluded from snapshots, rebuilt on first use
        self._signature_keys: dict[tuple[int, int, str, int, int], int] = {}  # repro-lint: ignore[PGL201] -- derived id map; rebuilt by intern_element_signature during merge_snapshot
        self._signatures: list[ElementSignature] = []  # repro-lint: ignore[PGL201] -- persisted via snapshot()["signatures"]; restored through intern_signature_content
        self._signature_digests: dict[bytes, int] = {}  # repro-lint: ignore[PGL201] -- derived digest map; rebuilt by intern_element_signature during merge_snapshot
        self._labelset_digests: dict[int, bytes] = {}  # repro-lint: ignore[PGL201] -- derived Merkle digest cache; recomputed on first signature use
        self._keyset_digests: dict[int, bytes] = {}  # repro-lint: ignore[PGL201] -- derived Merkle digest cache; recomputed on first signature use
        # Reentrant because intern_labels/intern_keys intern their
        # component strings while already holding it.  Reads stay
        # lock-free: writers append content before publishing the id, so
        # a reader holding an id always finds its backing entries.
        self._lock = threading.RLock()  # repro-lint: ignore[PGL201] -- process-local lock, never part of snapshots; __setstate__ recreates it

    # ------------------------------------------------------------------
    # Token strings
    # ------------------------------------------------------------------
    def intern_string(self, text: str) -> int:
        """Intern one token string; returns its dense string id."""
        sid = self._string_ids.get(text)
        if sid is not None:
            return sid
        with self._lock:
            sid = self._string_ids.get(text)
            if sid is None:
                sid = len(self._strings)
                self._strings.append(text)
                self._string_minhash.append(token_content_id(text))
                # Publish the id last: lock-free readers must never see
                # an id whose backing content is still missing.
                self._string_ids[text] = sid
            return sid

    def string(self, sid: int) -> str:
        """The token string behind ``sid``."""
        return self._strings[sid]

    def string_minhash_id(self, sid: int) -> int:
        """The content-derived 61-bit MinHash token id of string ``sid``."""
        return self._string_minhash[sid]

    # ------------------------------------------------------------------
    # Label sets
    # ------------------------------------------------------------------
    def intern_labels(self, labels: Iterable[str]) -> int:
        """Intern one label set; returns its dense label-set id."""
        frozen = labels if isinstance(labels, frozenset) else frozenset(labels)
        lid = self._labelset_ids.get(frozen)
        if lid is not None:
            return lid
        with self._lock:
            lid = self._labelset_ids.get(frozen)
            if lid is None:
                token = label_token(frozen)
                lid = len(self._labelsets)
                self._labelsets.append(
                    LabelSet(lid, frozen, token, self.intern_string(token))
                )
                self._labelset_ids[frozen] = lid
            return lid

    def labelset(self, lid: int) -> LabelSet:
        """The :class:`LabelSet` behind ``lid``."""
        return self._labelsets[lid]

    # ------------------------------------------------------------------
    # Property-key sets
    # ------------------------------------------------------------------
    def intern_keys(self, keys: Iterable[str]) -> int:
        """Intern one property-key set (sorted); returns its key-set id."""
        ordered = tuple(sorted(keys))
        kid = self._keyset_ids.get(ordered)
        if kid is not None:
            return kid
        with self._lock:
            kid = self._keyset_ids.get(ordered)
            if kid is None:
                kid = len(self._keysets)
                self._keysets.append(KeySet(kid, ordered))
                for key in ordered:
                    self.intern_string(key)
                self._keyset_ids[ordered] = kid
            return kid

    def keyset(self, kid: int) -> KeySet:
        """The :class:`KeySet` behind ``kid``."""
        return self._keysets[kid]

    # ------------------------------------------------------------------
    # LSH structural patterns
    # ------------------------------------------------------------------
    def _build_pattern(self, tokens: set[str]) -> TokenPattern:
        frozen = frozenset(tokens)
        # Sorted: frozenset iteration is hash-seed dependent; downstream
        # signature reductions are order-insensitive, but the stored id
        # array should still be reproducible run to run.
        ids = np.fromiter(
            (
                self._string_minhash[self.intern_string(token)]
                for token in sorted(frozen)
            ),
            dtype=np.uint64,
            count=len(frozen),
        )
        return TokenPattern(frozen, ids)

    def node_pattern(self, token_sid: int, keyset_id: int) -> TokenPattern:
        """The MinHash token pattern of a (label token, key set) pair."""
        key = (token_sid, keyset_id)
        pattern = self._node_patterns.get(key)
        if pattern is not None:
            return pattern
        with self._lock:
            pattern = self._node_patterns.get(key)
            if pattern is None:
                tokens = set(self._keysets[keyset_id].keys)
                token = self._strings[token_sid]
                if token:
                    tokens.add(f"label:{token}")
                pattern = self._build_pattern(tokens)
                self._node_patterns[key] = pattern
            return pattern

    def edge_pattern(
        self, token_sid: int, src_sid: int, tgt_sid: int, keyset_id: int
    ) -> TokenPattern:
        """The MinHash token pattern of an edge structural signature."""
        key = (token_sid, src_sid, tgt_sid, keyset_id)
        pattern = self._edge_patterns.get(key)
        if pattern is not None:
            return pattern
        with self._lock:
            pattern = self._edge_patterns.get(key)
            if pattern is None:
                tokens = set(self._keysets[keyset_id].keys)
                token = self._strings[token_sid]
                if token:
                    tokens.add(f"label:{token}")
                source_token = self._strings[src_sid]
                if source_token:
                    tokens.add(f"src:{source_token}")
                target_token = self._strings[tgt_sid]
                if target_token:
                    tokens.add(f"tgt:{target_token}")
                pattern = self._build_pattern(tokens)
                self._edge_patterns[key] = pattern
            return pattern

    # ------------------------------------------------------------------
    # Element signatures (content-addressable structural dedup)
    # ------------------------------------------------------------------
    @staticmethod
    def _set_digest(items: Iterable[str]) -> bytes:
        """Merkle digest of an ordered string collection.

        Each item is hashed individually before folding, so component
        boundaries are unambiguous: ``("A+B",)`` and ``("A", "B")`` can
        never share a digest the way a plain join would allow.
        """
        hasher = blake2b(digest_size=16)
        for item in items:
            hasher.update(
                blake2b(item.encode("utf-8"), digest_size=16).digest()
            )
        return hasher.digest()

    def _signature_digest(
        self, labelset_id: int, keyset_id: int, shape: str,
        src_sid: int, tgt_sid: int,
    ) -> bytes:
        labelset_digest = self._labelset_digests.get(labelset_id)
        if labelset_digest is None:
            labelset_digest = self._set_digest(
                sorted(self._labelsets[labelset_id].labels)
            )
            self._labelset_digests[labelset_id] = labelset_digest  # repro-lint: ignore[PGL901] -- digest-cache helper; the only caller (intern_element_signature) holds self._lock
        keyset_digest = self._keyset_digests.get(keyset_id)
        if keyset_digest is None:
            keyset_digest = self._set_digest(self._keysets[keyset_id].keys)
            self._keyset_digests[keyset_id] = keyset_digest  # repro-lint: ignore[PGL901] -- digest-cache helper; the only caller (intern_element_signature) holds self._lock
        hasher = blake2b(digest_size=16)
        hasher.update(b"edge" if src_sid >= 0 else b"node")
        hasher.update(labelset_digest)
        hasher.update(keyset_digest)
        hasher.update(shape.encode("ascii"))
        if src_sid >= 0:
            hasher.update(
                blake2b(
                    self._strings[src_sid].encode("utf-8"), digest_size=16
                ).digest()
            )
            hasher.update(
                blake2b(
                    self._strings[tgt_sid].encode("utf-8"), digest_size=16
                ).digest()
            )
        return hasher.digest()

    def intern_element_signature(
        self,
        labelset_id: int,
        keyset_id: int,
        shape: str,
        src_sid: int = -1,
        tgt_sid: int = -1,
    ) -> int:
        """Intern one structural element signature; returns its dense id.

        The signature is a blake2b Merkle hash over the content behind
        ``(labelset_id, keyset_id, per-key datatype shape)`` plus, for
        edges, the endpoint label-token strings (``src_sid``/``tgt_sid``
        stay ``-1`` for nodes).  The already-interned fast path is one
        lock-free dict probe on the process-local id tuple; the digest
        map gives content identity for snapshot merges across processes.
        """
        key = (labelset_id, keyset_id, shape, src_sid, tgt_sid)
        signature_id = self._signature_keys.get(key)
        if signature_id is not None:
            return signature_id
        with self._lock:
            signature_id = self._signature_keys.get(key)
            if signature_id is None:
                digest = self._signature_digest(
                    labelset_id, keyset_id, shape, src_sid, tgt_sid
                )
                signature_id = self._signature_digests.get(digest)
                if signature_id is None:
                    signature_id = len(self._signatures)
                    self._signatures.append(
                        ElementSignature(
                            signature_id,
                            labelset_id,
                            keyset_id,
                            shape,
                            src_sid,
                            tgt_sid,
                            digest,
                        )
                    )
                    self._signature_digests[digest] = signature_id
                # Publish the id-tuple key last (lock-free reader rule).
                self._signature_keys[key] = signature_id
            return signature_id

    def intern_signature_content(
        self,
        labels: Iterable[str],
        keys: Iterable[str],
        shape: str,
        src_token: str | None = None,
        tgt_token: str | None = None,
    ) -> int:
        """Intern a signature from raw content (snapshot restore path)."""
        return self.intern_element_signature(
            self.intern_labels(labels),
            self.intern_keys(keys),
            shape,
            -1 if src_token is None else self.intern_string(src_token),
            -1 if tgt_token is None else self.intern_string(tgt_token),
        )

    def element_signature(self, signature_id: int) -> ElementSignature:
        """The :class:`ElementSignature` behind ``signature_id``."""
        return self._signatures[signature_id]

    def _signature_content(self, signature: ElementSignature) -> tuple:
        """Process-portable content tuple of one signature."""
        return (
            sorted(self._labelsets[signature.labelset_id].labels),
            self._keysets[signature.keyset_id].keys,
            signature.shape,
            self._strings[signature.src_sid]
            if signature.src_sid >= 0
            else None,
            self._strings[signature.tgt_sid]
            if signature.tgt_sid >= 0
            else None,
        )

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def string_count(self) -> int:
        """Number of interned token strings."""
        return len(self._strings)

    @property
    def labelset_count(self) -> int:
        """Number of interned label sets."""
        return len(self._labelsets)

    @property
    def keyset_count(self) -> int:
        """Number of interned property-key sets."""
        return len(self._keysets)

    @property
    def signature_count(self) -> int:
        """Number of interned element signatures (distinct structures)."""
        return len(self._signatures)

    def snapshot(self) -> dict:
        """Content-only snapshot for checkpoints (no process-local ids).

        Patterns are derived state and deliberately excluded: they
        rebuild on first use from the interned content.
        """
        return {
            "strings": list(self._strings),
            "labelsets": [sorted(ls.labels) for ls in self._labelsets],
            "keysets": [ks.keys for ks in self._keysets],
            "signatures": [
                self._signature_content(signature)
                for signature in self._signatures
            ],
        }

    def merge_snapshot(self, snapshot: Mapping) -> "Interner":
        """Re-intern a :meth:`snapshot` (restore path); idempotent."""
        for text in snapshot.get("strings", ()):
            self.intern_string(text)
        for labels in snapshot.get("labelsets", ()):
            self.intern_labels(labels)
        for keys in snapshot.get("keysets", ()):
            self.intern_keys(keys)
        for content in snapshot.get("signatures", ()):
            self.intern_signature_content(*content)
        return self

    def merge_from(self, other: "Interner") -> "Interner":
        """Union another interner's content into this one (state merges).

        Ids are *not* transferred -- they are process-local -- only the
        content, so batches built against ``other`` must be re-encoded
        (which never happens in practice: within one process every state
        shares the process-wide interner and this is a no-op).
        """
        if other is self:
            return self
        return self.merge_snapshot(other.snapshot())

    # ------------------------------------------------------------------
    # Pickling (shard workers receive the interner inside DiscoveryState)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Locks are process-local and unpicklable; drop it here and let
        # the receiving process build a fresh one.
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()


#: The process-wide interner used by default everywhere.
_GLOBAL = Interner()


def global_interner() -> Interner:
    """The process-wide :class:`Interner` (shared by every batch)."""
    return _GLOBAL


class SignatureStore:
    """Ref-counted element-signature store (one per discovery state).

    Signature *content* lives in the process-wide :class:`Interner`
    (grow-only, shared); the per-session refcounts here track how many
    live recorded instances carry each structure.  A positive count lets
    ingest classify a row as a structural *repeat* -- skipping
    preprocessing and LSH clustering, folding only the streaming
    accumulators -- and deletion decrements exactly, removing the entry
    at zero so the structure is first-seen again.  Counts steer
    *performance* only: the repeat and first-seen paths record
    identically, so schema exactness never depends on them (see
    DESIGN.md "Structural dedup").

    Snapshots encode content, not process-local ids, so a store
    round-trips through checkpoints and shard-state merges exactly like
    the interner itself.
    """

    __slots__ = ("interner", "refcounts")

    def __init__(
        self,
        interner: Interner | None = None,
        refcounts: Mapping[int, int] | None = None,
    ) -> None:
        self.interner = interner or _GLOBAL
        self.refcounts: dict[int, int] = dict(refcounts) if refcounts else {}

    def __len__(self) -> int:
        return len(self.refcounts)

    def __repr__(self) -> str:
        return (
            f"SignatureStore(distinct={len(self.refcounts)}, "
            f"instances={sum(self.refcounts.values())})"
        )

    def count(self, signature_id: int) -> int:
        """Live-instance refcount of one signature (0 when unseen)."""
        return self.refcounts.get(signature_id, 0)

    def seen(self, signature_id: int) -> bool:
        """True when the signature has a positive refcount."""
        return signature_id in self.refcounts

    def add(self, signature_id: int, n: int = 1) -> int:
        """Increment a signature's refcount by ``n``; returns the count."""
        updated = self.refcounts.get(signature_id, 0) + n
        self.refcounts[signature_id] = updated
        return updated

    def remove(self, signature_id: int, n: int = 1) -> int:
        """Decrement by ``n``, dropping the entry at zero.

        Tolerates decrements of unseen signatures (state restored from a
        checkpoint whose element inserts were never counted): the count
        floors at zero rather than going negative, which is always safe
        because a missing entry merely demotes future rows to the full
        pipeline.
        """
        updated = self.refcounts.get(signature_id, 0) - n
        if updated > 0:
            self.refcounts[signature_id] = updated
            return updated
        self.refcounts.pop(signature_id, None)
        return 0

    def snapshot(self) -> list:
        """Content-encoded ``(signature content, count)`` pairs."""
        interner = self.interner
        signatures = interner._signatures
        return [
            (interner._signature_content(signatures[signature_id]), count)
            for signature_id, count in self.refcounts.items()
        ]

    @classmethod
    def from_snapshot(
        cls, data, interner: Interner | None = None
    ) -> "SignatureStore":
        """Rebuild a store from :meth:`snapshot` output (restore path)."""
        store = cls(interner)
        refcounts = store.refcounts
        intern_content = store.interner.intern_signature_content
        for content, count in data or ():
            signature_id = intern_content(*content)
            refcounts[signature_id] = refcounts.get(signature_id, 0) + count
        return store

    def merge_from(self, other: "SignatureStore") -> "SignatureStore":
        """Sum another store's refcounts into this one (state merges)."""
        if other is self:
            return self
        refcounts = self.refcounts
        if other.interner is self.interner:
            for signature_id, count in other.refcounts.items():
                refcounts[signature_id] = (
                    refcounts.get(signature_id, 0) + count
                )
            return self
        # Cross-interner merge (restored or worker-shipped states):
        # re-intern by content, exactly like Interner.merge_from.
        intern_content = self.interner.intern_signature_content
        for content, count in other.snapshot():
            signature_id = intern_content(*content)
            refcounts[signature_id] = refcounts.get(signature_id, 0) + count
        return self

    def copy(self) -> "SignatureStore":
        """Independent copy sharing the process-wide interner."""
        return SignatureStore(self.interner, self.refcounts)


class ValueColumn:
    """One property key's values: element row indices + aligned values."""

    __slots__ = ("rows", "values", "_position_of", "_value_list")

    def __init__(self, rows: np.ndarray, values: np.ndarray) -> None:
        self.rows = rows
        self.values = values
        self._position_of: dict[int, int] | None = None
        self._value_list: list | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, element_rows: list[int]) -> list:
        """Values at a *list* of rows, via a lazily built position index.

        The per-cluster recording path touches many tiny row groups;
        dict indexing beats a numpy ``searchsorted`` round-trip there,
        and the index amortises over every cluster of the batch.
        """
        position_of = self._position_of
        if position_of is None:
            position_of = self._position_of = {
                row: position
                for position, row in enumerate(self.rows.tolist())
            }
            self._value_list = self.values.tolist()
        value_list = self._value_list
        return [value_list[position_of[row]] for row in element_rows]


class ColumnarElements:
    """One element kind (nodes or edges) of a batch, as flat columns."""

    __slots__ = (
        "kind",
        "ids",
        "labelset_ids",
        "token_sids",
        "keyset_ids",
        "columns",
        "source_ids",
        "target_ids",
        "src_token_sids",
        "tgt_token_sids",
        "signature_ids",
        "_labelset_list",
        "_keyset_list",
        "_src_token_list",
        "_tgt_token_list",
        "_signature_list",
        "_value_rows",
    )

    def __init__(
        self,
        kind: str,
        ids: list[str],
        labelset_ids: np.ndarray,
        token_sids: np.ndarray,
        keyset_ids: np.ndarray,
        columns: dict[str, ValueColumn],
        source_ids: list[str] | None = None,
        target_ids: list[str] | None = None,
        src_token_sids: np.ndarray | None = None,
        tgt_token_sids: np.ndarray | None = None,
        signature_ids: np.ndarray | None = None,
    ) -> None:
        self.kind = kind
        self.ids = ids
        self.labelset_ids = labelset_ids
        self.token_sids = token_sids
        self.keyset_ids = keyset_ids
        self.columns = columns
        self.source_ids = source_ids
        self.target_ids = target_ids
        self.src_token_sids = src_token_sids
        self.tgt_token_sids = tgt_token_sids
        self.signature_ids = signature_ids
        self._labelset_list: list[int] | None = None
        self._keyset_list: list[int] | None = None
        self._src_token_list: list[int] | None = None
        self._tgt_token_list: list[int] | None = None
        self._signature_list: list[int] | None = None
        self._value_rows: list[tuple] | None = None

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def is_edges(self) -> bool:
        """True for the edge section of a batch."""
        return self.kind == "edges"

    @property
    def labelset_list(self) -> list[int]:
        """``labelset_ids`` as a plain list (lazy; per-cluster indexing)."""
        cached = self._labelset_list
        if cached is None:
            cached = self._labelset_list = self.labelset_ids.tolist()
        return cached

    @property
    def keyset_list(self) -> list[int]:
        """``keyset_ids`` as a plain list (lazy; per-cluster indexing)."""
        cached = self._keyset_list
        if cached is None:
            cached = self._keyset_list = self.keyset_ids.tolist()
        return cached

    @property
    def src_token_list(self) -> list[int]:
        """``src_token_sids`` as a plain list (edges only, lazy)."""
        cached = self._src_token_list
        if cached is None:
            cached = self._src_token_list = self.src_token_sids.tolist()
        return cached

    @property
    def tgt_token_list(self) -> list[int]:
        """``tgt_token_sids`` as a plain list (edges only, lazy)."""
        cached = self._tgt_token_list
        if cached is None:
            cached = self._tgt_token_list = self.tgt_token_sids.tolist()
        return cached

    @property
    def signature_list(self) -> list[int]:
        """``signature_ids`` as a plain list (lazy; dedup classification)."""
        cached = self._signature_list
        if cached is None:
            cached = self._signature_list = self.signature_ids.tolist()
        return cached

    @property
    def value_rows(self) -> list[tuple]:
        """Per-row value tuples aligned with each row's key set (lazy).

        The row-major view of ``columns``, built by one pass over the
        columns in sorted key order.  Key sets are interned sorted, so
        ``value_rows[row]`` lines up with
        ``interner.keyset(keyset_list[row]).keys``.  Every row-major
        reader (WAL encoding, record shipping, element materialisation)
        shares this one view instead of looking cells up per row.
        """
        cached = self._value_rows
        if cached is None:
            gathered: list[list] = [[] for _ in range(len(self.ids))]
            row_values = gathered.__getitem__
            # Drive the per-cell appends from C (map + a zero-length
            # deque as the consumer): no bytecode runs per cell.
            consume = deque(maxlen=0).extend
            columns = self.columns
            for key in sorted(columns):
                column = columns[key]
                consume(
                    map(
                        list.append,
                        map(row_values, column.rows.tolist()),
                        column.values.tolist(),
                    )
                )
            cached = self._value_rows = list(map(tuple, gathered))
        return cached


_EMPTY_IDS = np.zeros(0, dtype=np.intp)


def _empty_block(kind: str) -> ColumnarElements:
    edges = kind == "edges"
    return ColumnarElements(
        kind,
        [],
        _EMPTY_IDS,
        _EMPTY_IDS,
        _EMPTY_IDS,
        {},
        [] if edges else None,
        [] if edges else None,
        _EMPTY_IDS if edges else None,
        _EMPTY_IDS if edges else None,
        _EMPTY_IDS,
    )


def _object_array(values: list) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    for position, value in enumerate(values):
        out[position] = value
    return out


class ElementBatch:
    """One insert batch in columnar form (node section + edge section).

    Batches are endpoint-complete by construction: every edge's endpoints
    appear as node rows of the same batch (possibly stub copies), exactly
    like the batch streams of the element-wise readers.
    """

    __slots__ = ("nodes", "edges", "interner")

    def __init__(
        self,
        nodes: ColumnarElements,
        edges: ColumnarElements,
        interner: Interner,
    ) -> None:
        self.nodes = nodes
        self.edges = edges
        self.interner = interner

    @property
    def node_count(self) -> int:
        """Number of node rows (stub copies included)."""
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Number of edge rows."""
        return len(self.edges)

    def __len__(self) -> int:
        return self.node_count + self.edge_count

    def __repr__(self) -> str:
        return f"ElementBatch(nodes={self.node_count}, edges={self.edge_count})"

    # ------------------------------------------------------------------
    # Converters (the element-input boundary)
    # ------------------------------------------------------------------
    @classmethod
    def from_elements(
        cls,
        nodes: Iterable[Node] = (),
        edges: Iterable[Edge] = (),
        interner: Interner | None = None,
    ) -> "ElementBatch":
        """Build a batch from dataclass elements (endpoint-complete)."""
        builder = BatchBuilder(interner)
        for node in nodes:
            builder.put_node_element(node)
        for edge in edges:
            builder.add_edge_element(edge)
        return builder.freeze()

    @classmethod
    def from_graph(
        cls, graph: PropertyGraph, interner: Interner | None = None
    ) -> "ElementBatch":
        """Build a batch carrying every element of ``graph``."""
        return cls.from_elements(graph.nodes(), graph.edges(), interner)

    def _properties_per_row(self, block: ColumnarElements) -> list[dict]:
        keysets = self.interner._keysets
        return [
            dict(zip(keysets[keyset_id].keys, values))
            for keyset_id, values in zip(block.keyset_list, block.value_rows)
        ]

    def to_elements(self) -> tuple[list[Node], list[Edge]]:
        """Materialise dataclass elements (the slow oracle direction)."""
        interner = self.interner
        node_props = self._properties_per_row(self.nodes)
        nodes = [
            Node(node_id, interner.labelset(lid).labels, properties)
            for node_id, lid, properties in zip(
                self.nodes.ids, self.nodes.labelset_list, node_props
            )
        ]
        edge_block = self.edges
        edges = [
            Edge(
                edge_id, source_id, target_id,
                interner.labelset(lid).labels, properties,
            )
            for edge_id, source_id, target_id, lid, properties in zip(
                edge_block.ids,
                edge_block.source_ids,
                edge_block.target_ids,
                edge_block.labelset_list,
                self._properties_per_row(edge_block),
            )
        ]
        return nodes, edges

    def to_property_graph(self, name: str = "batch") -> PropertyGraph:
        """Materialise the batch as a :class:`PropertyGraph`."""
        graph = PropertyGraph(name)
        self.merge_into_graph(graph)
        return graph

    def merge_into_graph(self, graph: PropertyGraph) -> None:
        """Add every row whose id ``graph`` lacks, as a ``Node``/``Edge``.

        First version wins, as in :meth:`PropertyGraph.merge_in`, and a
        row already in ``graph`` is skipped before it is materialised:
        merging a batch into the graph it was built from (a static
        discovery's adopted union) costs one id lookup per row.
        """
        interner = self.interner
        labelsets, keysets = interner._labelsets, interner._keysets
        nodes = self.nodes
        for node_id, labelset_id, keyset_id, values in zip(
            nodes.ids, nodes.labelset_list, nodes.keyset_list, nodes.value_rows
        ):
            if not graph.has_node(node_id):
                graph.add_node(
                    Node(
                        node_id,
                        labelsets[labelset_id].labels,
                        dict(zip(keysets[keyset_id].keys, values)),
                    )
                )
        edges = self.edges
        for edge_id, source_id, target_id, labelset_id, keyset_id, values in zip(
            edges.ids,
            edges.source_ids,
            edges.target_ids,
            edges.labelset_list,
            edges.keyset_list,
            edges.value_rows,
        ):
            if not graph.has_edge(edge_id):
                graph.add_edge(
                    Edge(
                        edge_id,
                        source_id,
                        target_id,
                        labelsets[labelset_id].labels,
                        dict(zip(keysets[keyset_id].keys, values)),
                    )
                )

    # ------------------------------------------------------------------
    # Row records (stub shipping / partitioning)
    # ------------------------------------------------------------------
    def node_record(self, row: int) -> tuple[int, int, tuple]:
        """Compact ``(labelset_id, keyset_id, values)`` record of one node."""
        nodes = self.nodes
        return (
            nodes.labelset_list[row],
            nodes.keyset_list[row],
            nodes.value_rows[row],
        )

    def edge_record(self, row: int) -> tuple[str, str, int, int, tuple]:
        """Compact ``(src, tgt, labelset_id, keyset_id, values)`` record."""
        edges = self.edges
        return (
            edges.source_ids[row],
            edges.target_ids[row],
            edges.labelset_list[row],
            edges.keyset_list[row],
            edges.value_rows[row],
        )


def intern_element(
    interner: Interner, element: Node | Edge
) -> tuple[int, int, tuple]:
    """Intern one element's content as ``(labelset_id, keyset_id, values)``.

    ``values`` align with the interned key set's sorted keys.  This is
    the one element -> row step: the ``BatchBuilder`` element adapters
    and :func:`changesets_from_elements` both go through it.
    """
    labelset_id = interner.intern_labels(element.labels)
    keyset_id = interner.intern_keys(element.properties)
    keys = interner.keyset(keyset_id).keys
    values = tuple(element.properties[key] for key in keys)
    return labelset_id, keyset_id, values


class BatchBuilder:
    """Row-wise assembly buffer freezing into an :class:`ElementBatch`.

    ``values`` tuples are aligned with the interned key set's sorted
    ``keys`` tuple.  The builder never touches ``Node``/``Edge`` objects
    unless the convenience ``*_element`` adapters are used.
    """

    def __init__(self, interner: Interner | None = None) -> None:
        self.interner = interner or _GLOBAL
        self._nodes: list[tuple[str, int, int, tuple]] = []
        self._node_index: dict[str, int] = {}
        self._edges: list[tuple[str, str, str, int, int, tuple]] = []

    @property
    def node_count(self) -> int:
        """Node rows appended so far."""
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Edge rows appended so far."""
        return len(self._edges)

    def has_node(self, node_id: str) -> bool:
        """True when a node row for ``node_id`` was appended."""
        return node_id in self._node_index

    def add_node(
        self, node_id: str, labelset_id: int, keyset_id: int, values: tuple
    ) -> None:
        """Append one node row (first writer wins on duplicate ids)."""
        if node_id in self._node_index:
            return
        self._node_index[node_id] = len(self._nodes)
        self._nodes.append((node_id, labelset_id, keyset_id, values))

    def put_node(
        self, node_id: str, labelset_id: int, keyset_id: int, values: tuple
    ) -> None:
        """Append or replace one node row (replacement keeps the row)."""
        position = self._node_index.get(node_id)
        record = (node_id, labelset_id, keyset_id, values)
        if position is None:
            self._node_index[node_id] = len(self._nodes)
            self._nodes.append(record)
        else:
            self._nodes[position] = record

    def add_edge(
        self,
        edge_id: str,
        source_id: str,
        target_id: str,
        labelset_id: int,
        keyset_id: int,
        values: tuple,
    ) -> None:
        """Append one edge row; endpoints must be appended before freeze.

        Duplicate edge ids keep the first row (deduplicated at freeze),
        matching how the element-wise session materialises a batch.
        """
        self._edges.append(
            (edge_id, source_id, target_id, labelset_id, keyset_id, values)
        )

    # Convenience adapters from the dataclass world ---------------------
    def put_node_element(self, node: Node) -> None:
        """Append/replace a node row from a :class:`Node`."""
        self.put_node(node.node_id, *intern_element(self.interner, node))

    def add_edge_element(self, edge: Edge) -> None:
        """Append an edge row from an :class:`Edge`."""
        self.add_edge(
            edge.edge_id,
            edge.source_id,
            edge.target_id,
            *intern_element(self.interner, edge),
        )

    # Freeze ------------------------------------------------------------
    def _freeze_block(
        self,
        kind: str,
        records: list,
        endpoint_token: Mapping[str, int] | None = None,
    ) -> ColumnarElements:
        if not records:
            return _empty_block(kind)
        interner = self.interner
        labelsets = interner._labelsets
        count = len(records)
        edges = kind == "edges"
        if edges:
            ids, source_ids, target_ids, lid_list, kid_list, values_list = map(
                list, zip(*records)
            )
        else:
            ids, lid_list, kid_list, values_list = map(list, zip(*records))
        labelset_ids = np.asarray(lid_list, dtype=np.intp)
        keyset_ids = np.asarray(kid_list, dtype=np.intp)
        uniq, inverse = np.unique(labelset_ids, return_inverse=True)
        token_sids = np.fromiter(
            (labelsets[int(lid)].token_sid for lid in uniq),
            dtype=np.intp,
            count=len(uniq),
        )[inverse]
        if edges:
            try:
                src_token_sids = np.fromiter(
                    (endpoint_token[source_id] for source_id in source_ids),
                    dtype=np.intp,
                    count=count,
                )
                tgt_token_sids = np.fromiter(
                    (endpoint_token[target_id] for target_id in target_ids),
                    dtype=np.intp,
                    count=count,
                )
            except KeyError as error:
                raise DanglingEdgeError(
                    f"columnar batch edge references node {error.args[0]!r} "
                    "absent from the batch; columnar change-sets must be "
                    "endpoint-complete (ship stub rows)"
                ) from None
            src_sid_list = src_token_sids.tolist()
            tgt_sid_list = tgt_token_sids.tolist()
        # Column assembly is the one unavoidable per-cell pass; appenders
        # are cached per key-set id as bound methods so the inner loop is
        # two C-level calls per cell.  The structural signature rides the
        # same pass, memoised on ``(ids..., per-value type tuple)`` so a
        # repeat-heavy batch pays one shape-string build and one interner
        # probe per *distinct* structure, not per row.
        raw_columns: dict[str, tuple[list[int], list]] = {}
        keysets = interner._keysets
        appenders_of: dict[int, list] = {}
        get_appenders = appenders_of.get
        sig_list: list[int] = []
        sig_append = sig_list.append
        sig_cache: dict[tuple, int] = {}
        sig_cache_get = sig_cache.get
        intern_signature = interner.intern_element_signature
        for row, (keyset_id, values) in enumerate(zip(kid_list, values_list)):
            if edges:
                sig_key = (
                    lid_list[row],
                    keyset_id,
                    tuple(map(type, values)),
                    src_sid_list[row],
                    tgt_sid_list[row],
                )
                signature_id = sig_cache_get(sig_key)
                if signature_id is None:
                    signature_id = sig_cache[sig_key] = intern_signature(
                        lid_list[row],
                        keyset_id,
                        value_shapes(values),
                        src_sid_list[row],
                        tgt_sid_list[row],
                    )
            else:
                sig_key = (lid_list[row], keyset_id, tuple(map(type, values)))
                signature_id = sig_cache_get(sig_key)
                if signature_id is None:
                    signature_id = sig_cache[sig_key] = intern_signature(
                        lid_list[row], keyset_id, value_shapes(values)
                    )
            sig_append(signature_id)
            if not values:
                continue
            appenders = get_appenders(keyset_id)
            if appenders is None:
                appenders = appenders_of[keyset_id] = []
                for key in keysets[keyset_id].keys:
                    column = raw_columns.get(key)
                    if column is None:
                        column = raw_columns[key] = ([], [])
                    appenders.append((column[0].append, column[1].append))
            for (append_row, append_value), value in zip(appenders, values):
                append_row(row)
                append_value(value)
        columns = {
            key: ValueColumn(
                np.asarray(rows, dtype=np.intp), _object_array(values)
            )
            for key, (rows, values) in raw_columns.items()
        }
        signature_ids = np.asarray(sig_list, dtype=np.intp)
        if not edges:
            return ColumnarElements(
                kind,
                ids,
                labelset_ids,
                token_sids,
                keyset_ids,
                columns,
                signature_ids=signature_ids,
            )
        return ColumnarElements(
            kind,
            ids,
            labelset_ids,
            token_sids,
            keyset_ids,
            columns,
            source_ids,
            target_ids,
            src_token_sids,
            tgt_token_sids,
            signature_ids,
        )

    def freeze(self) -> ElementBatch:
        """Finalize into an :class:`ElementBatch` (validates endpoints)."""
        labelsets = self.interner._labelsets
        endpoint_token = {
            node_id: labelsets[self._nodes[position][1]].token_sid
            for node_id, position in self._node_index.items()
        }
        edge_rows = self._edges
        if len({record[0] for record in edge_rows}) != len(edge_rows):
            # Duplicate edge ids keep the first row, like PropertyGraph
            # materialisation of a change-set does.
            seen: set[str] = set()
            add = seen.add
            edge_rows = [
                record
                for record in edge_rows
                if record[0] not in seen and not add(record[0])
            ]
        nodes = self._freeze_block("nodes", self._nodes)
        edges = self._freeze_block("edges", edge_rows, endpoint_token)
        return ElementBatch(nodes, edges, self.interner)


# ----------------------------------------------------------------------
# Columnar change-set grouping (the streaming-reader backbone)
# ----------------------------------------------------------------------

#: One raw node row: ``(node_id, labelset_id, keyset_id, values)``.
NodeRow = tuple[str, int, int, tuple]
#: One raw edge row: ``(edge_id, src, tgt, labelset_id, keyset_id, values)``.
EdgeRow = tuple[str, str, str, int, int, tuple]


def columnar_changesets_from_rows(
    rows: Iterable[tuple[str, tuple]],
    batch_size: int = 1000,
    interner: Interner | None = None,
) -> Iterator[ChangeSet]:
    """Group a raw row stream into endpoint-complete columnar change-sets.

    The one stream grouper behind every reader: ``rows`` yields
    ``("n", NodeRow)`` and ``("e", EdgeRow)`` tuples in stream order;
    change-sets of at most ``batch_size`` fresh rows are emitted with an
    :class:`ElementBatch` payload, edges referencing earlier nodes ship
    stub rows marked in ``stub_node_ids``, and out-of-order edges are
    buffered until their endpoints appear (a missing endpoint raises
    :class:`DanglingEdgeError` at end of stream).  Memory holds one
    compact record per distinct node id -- never a dataclass.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    interner = interner or _GLOBAL
    directory: dict[str, tuple[int, int, tuple]] = {}
    pending: list[EdgeRow] = []
    # The draft state is kept in plain locals (lists + index dict) rather
    # than a BatchBuilder: this loop runs once per element and per-row
    # method dispatch is measurable at ingest rates.
    node_rows: list[NodeRow] = []
    node_index: dict[str, int] = {}
    edge_rows: list[EdgeRow] = []
    stubs: set[str] = set()
    fresh = 0

    directory_get = directory.get

    def resolve(edge_row: EdgeRow) -> bool:
        """Place ``edge_row`` iff both endpoints are known."""
        source_id, target_id = edge_row[1], edge_row[2]
        source_record = directory_get(source_id)
        if source_record is None:
            return False
        target_record = directory_get(target_id)
        if target_record is None:
            return False
        if source_id not in node_index:
            node_index[source_id] = len(node_rows)
            node_rows.append((source_id, *source_record))
            stubs.add(source_id)
        if target_id not in node_index:
            node_index[target_id] = len(node_rows)
            node_rows.append((target_id, *target_record))
            stubs.add(target_id)
        edge_rows.append(edge_row)
        return True

    def flush() -> ChangeSet:
        nonlocal node_rows, node_index, edge_rows, stubs, fresh
        builder = BatchBuilder(interner)
        builder._nodes = node_rows
        builder._node_index = node_index
        builder._edges = edge_rows
        change_set = ChangeSet(
            columnar=builder.freeze(), stub_node_ids=frozenset(stubs)
        )
        node_rows, node_index, edge_rows = [], {}, []
        stubs = set()
        fresh = 0
        return change_set

    for kind, row in rows:
        if kind == "n":
            node_id = row[0]
            record = (row[1], row[2], row[3])
            directory[node_id] = record
            position = node_index.get(node_id)
            if position is not None:
                # Already shipped as a stub (or duplicated) in this
                # batch; the real insert supersedes both copy and flag.
                stubs.discard(node_id)
                node_rows[position] = row
            else:
                node_index[node_id] = len(node_rows)
                node_rows.append(row)
            fresh += 1
        else:
            if resolve(row):
                fresh += 1
            else:
                pending.append(row)
        if fresh >= batch_size:
            pending = [edge_row for edge_row in pending if not resolve(edge_row)]
            yield flush()

    pending = [edge_row for edge_row in pending if not resolve(edge_row)]
    if pending:
        missing = sorted(
            {
                endpoint
                for edge_row in pending
                for endpoint in (edge_row[1], edge_row[2])
                if endpoint not in directory
            }
        )
        raise DanglingEdgeError(
            f"{len(pending)} edge(s) reference node ids absent from the "
            f"stream (first few: {missing[:5]})"
        )
    if node_rows or edge_rows:
        yield flush()


def changesets_from_elements(
    elements: Iterable[Node | Edge], batch_size: int = 1000
) -> Iterator[ChangeSet]:
    """Group a ``Node``/``Edge`` stream into columnar insert change-sets.

    Each element interns once (:func:`intern_element`, on the global
    interner, like every session boundary) into a ``NodeRow``/``EdgeRow``
    and the rows go through :func:`columnar_changesets_from_rows`, so
    element streams get the same budget, stub shipping, edge buffering
    and :class:`DanglingEdgeError` as the file readers.
    """
    interner = _GLOBAL

    def rows() -> Iterator[tuple[str, tuple]]:
        for element in elements:
            content = intern_element(interner, element)
            if isinstance(element, Node):
                yield "n", (element.node_id, *content)
            else:
                yield "e", (
                    element.edge_id, element.source_id, element.target_id, *content
                )

    return columnar_changesets_from_rows(rows(), batch_size, interner)


# ----------------------------------------------------------------------
# The element boundary of the sessions
# ----------------------------------------------------------------------
def columnar_changeset(
    change_set: ChangeSet,
    interner: Interner,
    endpoint: Callable[[str], tuple[int, int, tuple] | None],
) -> ChangeSet:
    """Convert an element change-set into one columnar change-set.

    The one element boundary of :class:`~repro.core.session.SchemaSession`
    and :class:`~repro.core.sharding.ShardedSchemaSession`, run before a
    change-set is logged or applied.  Nodes and edges intern on
    ``interner``.  An edge endpoint the change-set does not carry becomes
    a stub row built from ``endpoint(node_id)`` -- a compact
    ``(labelset_id, keyset_id, values)`` record on ``interner`` -- and is
    marked in ``stub_node_ids``, like the stub rows columnar producers
    ship; an endpoint the lookup does not know raises
    :class:`DanglingEdgeError`.  Columnar and deletion-only change-sets
    pass through unchanged.
    """
    if not (change_set.nodes or change_set.edges):
        return change_set
    if change_set.columnar is not None:
        raise ConfigurationError(
            "a change-set carries either element-wise or columnar "
            "inserts, not both"
        )
    builder = BatchBuilder(interner)
    for node in change_set.nodes:
        builder.put_node_element(node)
    stubs = set(change_set.stub_node_ids)
    for edge in change_set.edges:
        for endpoint_id in edge.endpoints():
            if builder.has_node(endpoint_id):
                continue
            record = endpoint(endpoint_id)
            if record is None:
                raise DanglingEdgeError(
                    f"change-set edge {edge.edge_id!r} references node "
                    f"{endpoint_id!r}, which is neither in the change-set "
                    "nor known to the session; ship it in the change-set "
                    "or as an endpoint stub"
                )
            builder.add_node(endpoint_id, *record)
            stubs.add(endpoint_id)
        builder.add_edge_element(edge)
    return ChangeSet(
        delete_nodes=list(change_set.delete_nodes),
        delete_edges=list(change_set.delete_edges),
        stub_node_ids=frozenset(stubs),
        columnar=builder.freeze(),
    )


# ----------------------------------------------------------------------
# Sharded partitioning over the id column
# ----------------------------------------------------------------------
def partition_columnar(
    partitioner: "HashPartitioner",
    change_set: ChangeSet,
    records: Mapping[str, tuple[int, int, tuple]] | None = None,
) -> dict[int, ChangeSet]:
    """Split a change-set into non-empty per-shard columnar change-sets.

    Node rows route by ``partitioner.shard_of(node_id)``, edge rows by
    their edge id, and cross-shard endpoints travel as stub rows, marked
    in ``stub_node_ids`` so no shard re-records them.  Batches are
    endpoint-complete (:meth:`BatchBuilder.freeze` validates it), so
    every stub row comes from the batch itself; ``records`` may carry
    its compact node records pre-built (the sharded session builds them
    for its registry anyway).  Node deletions broadcast to every shard
    -- each shard owns the edges incident to its stub copies and must
    cascade them -- while edge deletions route to the owner shard.  A
    deletion-only change-set (``columnar is None``) yields deletion-only
    parts.
    """
    batch = change_set.columnar
    shard_of = partitioner.shard_of
    builders: dict[int, BatchBuilder] = {}
    stubs: dict[int, set[str]] = {}

    def builder(shard: int) -> BatchBuilder:
        existing = builders.get(shard)
        if existing is None:
            existing = builders[shard] = BatchBuilder(batch.interner)
            stubs[shard] = set()
        return existing

    if batch is not None:
        if records is None:
            records = {
                node_id: batch.node_record(row)
                for row, node_id in enumerate(batch.nodes.ids)
            }
        for node_id in batch.nodes.ids:
            shard = shard_of(node_id)
            builder(shard).add_node(node_id, *records[node_id])
            if node_id in change_set.stub_node_ids:
                stubs[shard].add(node_id)
        edge_block = batch.edges
        for row, edge_id in enumerate(edge_block.ids):
            shard = shard_of(edge_id)
            part = builder(shard)
            for endpoint_id in (
                edge_block.source_ids[row],
                edge_block.target_ids[row],
            ):
                if not part.has_node(endpoint_id):
                    part.add_node(endpoint_id, *records[endpoint_id])
                    stubs[shard].add(endpoint_id)
            part.add_edge(edge_id, *batch.edge_record(row))

    edge_deletes: dict[int, list[str]] = {}
    for edge_id in change_set.delete_edges:
        edge_deletes.setdefault(shard_of(edge_id), []).append(edge_id)
    shards = set(builders) | set(edge_deletes)
    if change_set.delete_nodes:
        shards.update(range(partitioner.n_shards))
    parts: dict[int, ChangeSet] = {}
    for shard in sorted(shards):
        part_builder = builders.get(shard)
        parts[shard] = ChangeSet(
            delete_nodes=list(change_set.delete_nodes),
            delete_edges=edge_deletes.get(shard, []),
            stub_node_ids=frozenset(stubs.get(shard, ())),
            columnar=None if part_builder is None else part_builder.freeze(),
        )
    return parts


__all__ = [
    "BatchBuilder",
    "ColumnarElements",
    "ElementBatch",
    "ElementSignature",
    "Interner",
    "KeySet",
    "LabelSet",
    "SignatureStore",
    "TokenPattern",
    "ValueColumn",
    "changesets_from_elements",
    "columnar_changeset",
    "columnar_changesets_from_rows",
    "global_interner",
    "intern_element",
    "partition_columnar",
    "value_shapes",
]

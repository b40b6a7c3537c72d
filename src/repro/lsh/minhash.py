"""MinHash LSH over token sets (Broder [21, 22]; Leskovec et al. [64]).

The probability that one min-wise hash agrees on two sets equals their
Jaccard similarity, so signatures of ``T`` hash functions estimate J(A, B)
by their agreement rate (section 4.2).  Banding (``band_size`` rows per
band) gives the classic S-curve when combined with ``GroupingRule.OR``;
``GroupingRule.AND`` requires the full signature to agree.

Hash functions are universal hashes ``(a * x + b) mod p`` over token ids
drawn from a shared, process-wide stable token universe (tokens are hashed
by content, so the same token set signs identically in every batch).

The hot path is fully vectorized: the Mersenne-prime modular multiply runs
on ``uint64`` arrays via 32-bit limb decomposition (no Python big-int
objects), all distinct token sets of a batch are hashed in one NumPy pass
(:meth:`MinHashLSH.signatures_batch`), and two caches make incremental
streams cheap -- a process-wide token-id cache (token ids are content
derived, so they are valid across every instance) and a per-instance
signature cache keyed by frozen token set (signatures depend on the
instance's hash coefficients).  Both caches are bounded by the number of
*distinct* tokens / structural patterns, which stays small even when
elements number in the millions.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from repro.errors import ClusteringError, ConfigurationError  # noqa: F401 (re-export)

_MERSENNE_PRIME = (1 << 61) - 1
#: Bucket value reserved for the empty set so all empty sets collide.
_EMPTY_SENTINEL = _MERSENNE_PRIME

#: Process-wide token -> 61-bit id cache (content-derived, instance-agnostic).
_TOKEN_ID_CACHE: dict[str, int] = {}

_P61 = np.uint64(_MERSENNE_PRIME)
_MASK29 = np.uint64((1 << 29) - 1)
_MASK32 = np.uint64((1 << 32) - 1)
#: Max elements per (hashes x token-occurrences) kernel chunk (~32 MiB).
_CHUNK_BUDGET = 1 << 22


def _token_id(token: str) -> int:
    """Stable 61-bit integer id of a token (content-derived, cached)."""
    cached = _TOKEN_ID_CACHE.get(token)
    if cached is None:
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        cached = int.from_bytes(digest, "little") % _MERSENNE_PRIME
        _TOKEN_ID_CACHE[token] = cached
    return cached


def token_content_id(token: str) -> int:
    """Public alias of the process-wide content-derived token id.

    The columnar :class:`~repro.graph.columnar.Interner` shares this cache
    so pre-interned token-id arrays handed to
    :meth:`MinHashLSH.signatures_batch` sign bit-identically to the string
    path.
    """
    return _token_id(token)


def _affine_mod_p61(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``(a * x + b) mod (2^61 - 1)`` on ``uint64`` arrays.

    The 128-bit product is assembled from 32-bit limbs and folded with
    ``2^61 === 1 (mod p)``: ``a*x = hh*2^64 + mid*2^32 + ll`` where
    ``hh < 2^58``, ``mid < 2^62`` and ``ll < 2^64``, so the pre-reduction
    sum stays below ``3 * 2^61 + 2^34``; adding ``b < 2^61`` keeps the
    total under ``2^63`` -- no overflow, no Python objects, and ``b``
    folds in before the single (expensive) modulo.
    """
    a_hi = a >> np.uint64(32)
    a_lo = a & _MASK32
    x_hi = x >> np.uint64(32)
    x_lo = x & _MASK32
    hh = a_hi * x_hi
    mid = a_hi * x_lo + a_lo * x_hi
    ll = a_lo * x_lo
    # 2^64 === 8, mid*2^32 === (mid >> 29) + (mid mod 2^29)*2^32 (mod p).
    total = (
        (hh << np.uint64(3))
        + (mid >> np.uint64(29))
        + ((mid & _MASK29) << np.uint64(32))
        + (ll >> np.uint64(61))
        + (ll & _P61)
        + b
    )
    return total % _P61


def _mulmod_p61(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact ``(a * x) mod (2^61 - 1)``; thin wrapper over the kernel."""
    return _affine_mod_p61(a, x, np.uint64(0))


def _hash_table(a: np.ndarray, b: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """(U, H) table of ``(a_h * id_u + b_h) mod p`` over distinct token ids."""
    return _affine_mod_p61(a[None, :], ids[:, None], b[None, :])


def _gather_min(hashed: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Min-reduce hash-table rows over one (S, L) member matrix.

    Gathers one member column at a time: each step copies contiguous
    (S, H) rows, never a (S, L, H) temporary.
    """
    mins = hashed[columns[:, 0]]
    for member in range(1, columns.shape[1]):
        np.minimum(mins, hashed[columns[:, member]], out=mins)
    return mins.astype(np.int64)


class MinHashLSH:
    """Min-wise hashing of token sets with optional banding."""

    def __init__(
        self,
        num_tables: int,
        band_size: int = 1,
        seed: int = 0,
    ) -> None:
        if num_tables < 1:
            raise ConfigurationError(f"num_tables must be >= 1, got {num_tables}")
        if band_size < 1:
            raise ConfigurationError(f"band_size must be >= 1, got {band_size}")
        self.num_tables = int(num_tables)
        self.band_size = int(band_size)
        self.seed = seed
        rng = np.random.default_rng(seed)
        total = self.num_tables * self.band_size
        self._a = rng.integers(1, _MERSENNE_PRIME, total, dtype=np.int64)
        self._b = rng.integers(0, _MERSENNE_PRIME, total, dtype=np.int64)
        self._a_u64 = self._a.astype(np.uint64)
        self._b_u64 = self._b.astype(np.uint64)
        #: raw signature per distinct token set seen by this instance.
        self._signature_cache: dict[frozenset[str], np.ndarray] = {}

    @property
    def total_hashes(self) -> int:
        """Number of min-wise hash functions (tables * band size)."""
        return self.num_tables * self.band_size

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------
    def _empty_signature(self) -> np.ndarray:
        return np.full(self.total_hashes, _EMPTY_SENTINEL, dtype=np.int64)

    def signature(self, tokens: Iterable[str]) -> np.ndarray:
        """Raw minhash signature of one token set, shape ``(T*r,)``."""
        key = tokens if isinstance(tokens, frozenset) else frozenset(tokens)
        cached = self._signature_cache.get(key)
        if cached is None:
            self._compute_signatures([key])
            cached = self._signature_cache[key]
        # Copy so no caller can mutate the cached row in place.
        return cached.copy()

    def signatures_batch(
        self,
        token_sets: Sequence[Iterable[str]],
        token_ids: Sequence[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Raw signatures for many sets in one pass, shape ``(n, T*r)``.

        Every distinct token set is hashed exactly once per instance
        lifetime (results live in the signature cache, so a later batch
        containing a pattern seen earlier pays a dictionary lookup, not a
        hash computation), and all cache misses of the call are hashed in
        one vectorized kernel sweep.

        ``token_ids`` (columnar ingest fast path) supplies one pre-interned
        ``uint64`` id array per token set, aligned with ``token_sets``; the
        kernel then skips per-token re-tokenisation entirely.  Ids must be
        the content-derived 61-bit token ids of :func:`token_content_id`
        (the :class:`repro.graph.columnar.Interner` caches exactly these),
        so cached rows stay bit-identical to the string path.
        """
        keys = [
            tokens if isinstance(tokens, frozenset) else frozenset(tokens)
            for tokens in token_sets
        ]
        cache = self._signature_cache
        if token_ids is None:
            missing = [key for key in dict.fromkeys(keys) if key not in cache]
            ids_of_missing = None
        else:
            ids_by_key = dict(zip(keys, token_ids))
            missing = [key for key in ids_by_key if key not in cache]
            ids_of_missing = [ids_by_key[key] for key in missing]
        computed = (
            self._compute_signatures(missing, ids_of_missing)
            if missing
            else None
        )
        if computed is not None and len(missing) == len(keys):
            # Cold all-distinct batch: rows already in input order.
            return computed
        if not keys:
            return np.zeros((0, self.total_hashes), dtype=np.int64)
        return np.vstack([cache[key] for key in keys])

    def _compute_signatures(
        self,
        sets: list[frozenset[str]],
        ids_of: list[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Hash ``sets`` (assumed distinct, uncached) into the cache.

        Returns the raw signatures in ``sets`` order, shape ``(n, T*r)``.
        ``ids_of``, when given, carries the pre-interned token ids of each
        set (skipping the per-token hash cache walk).
        """
        cache = self._signature_cache
        hashes = self.total_hashes
        out = np.empty((len(sets), hashes), dtype=np.int64)
        nonempty_positions = [
            position for position, token_set in enumerate(sets) if token_set
        ]
        if len(nonempty_positions) < len(sets):
            # All empty sets collide on the reserved sentinel row.
            out[
                [p for p, s in enumerate(sets) if not s]
            ] = _EMPTY_SENTINEL
            cache[frozenset()] = self._empty_signature()
        if not nonempty_positions:
            return out
        nonempty = [sets[position] for position in nonempty_positions]
        ids_nonempty = (
            None
            if ids_of is None
            else [ids_of[position] for position in nonempty_positions]
        )

        # Sort by set size so equal-length runs reshape into dense
        # (count, length) matrices -- the min then reduces one contiguous
        # axis with no per-set segment bookkeeping.
        if ids_nonempty is None:
            lengths = np.fromiter(
                map(len, nonempty), dtype=np.int64, count=len(nonempty)
            )
        else:
            lengths = np.fromiter(
                map(len, ids_nonempty), dtype=np.int64, count=len(ids_nonempty)
            )
        order = np.argsort(lengths, kind="stable")
        nonempty = [nonempty[i] for i in order]
        out_rows = np.asarray(nonempty_positions, dtype=np.intp)[order]
        sorted_lengths = lengths[order]

        if ids_nonempty is None:
            # Flatten once (in sorted order); map each occurrence to a
            # dense row of the distinct-token hash table (token ids come
            # from the process-wide cache, so blake2b runs once per
            # distinct token).
            tokens_flat = list(chain.from_iterable(nonempty))
            # Sorted: set iteration is hash-seed dependent; the min
            # reduction is order-insensitive but the dense row layout
            # should be reproducible run to run.
            distinct_tokens = sorted(set(tokens_flat))
            row_of = {token: row for row, token in enumerate(distinct_tokens)}
            unique_ids = np.fromiter(
                map(_token_id, distinct_tokens),
                dtype=np.uint64,
                count=len(distinct_tokens),
            )
            flat_rows = np.fromiter(
                map(row_of.__getitem__, tokens_flat),
                dtype=np.intp,
                count=len(tokens_flat),
            )
        else:
            # Pre-interned path: ids arrive as uint64 arrays, so the
            # distinct-token table falls out of one np.unique pass.
            flat_ids = np.concatenate(
                [
                    np.asarray(ids_nonempty[i], dtype=np.uint64)
                    for i in order
                ]
            )
            unique_ids, flat_rows = np.unique(flat_ids, return_inverse=True)

        # (U, H) table of h_i(x) over the distinct tokens, computed once;
        # row-major so every gather copies contiguous 8*H-byte rows.
        hashed_unique = _hash_table(self._a_u64, self._b_u64, unique_ids)
        occurrences_per_chunk = max(1, _CHUNK_BUDGET // hashes)

        run_starts = [
            0,
            *(np.flatnonzero(np.diff(sorted_lengths)) + 1),
            len(nonempty),
        ]
        flat_position = 0
        for run_index in range(len(run_starts) - 1):
            run_lo, run_hi = run_starts[run_index], run_starts[run_index + 1]
            length = int(sorted_lengths[run_lo])
            sets_per_chunk = max(1, occurrences_per_chunk // length)
            for lo in range(run_lo, run_hi, sets_per_chunk):
                hi = min(lo + sets_per_chunk, run_hi)
                span = (hi - lo) * length
                columns = flat_rows[
                    flat_position : flat_position + span
                ].reshape(hi - lo, length)
                flat_position += span
                mins = _gather_min(hashed_unique, columns)
                out[out_rows[lo:hi]] = mins
                cache.update(zip(nonempty[lo:hi], mins))
        return out

    def merge_cache_from(self, other: "MinHashLSH") -> "MinHashLSH":
        """Union ``other``'s signature cache into this instance's.

        Signatures are pure functions of the token set and the hash
        coefficients, and the coefficients are derived from
        ``(num_tables, band_size, seed)`` alone -- so two instances with
        equal parameters sign every set bit-identically and their caches
        can be unioned freely.  Rows already present are kept (they are
        equal by construction); ``other`` is not mutated.  Used by
        :meth:`repro.core.state.DiscoveryState.merge` to combine the
        per-shard pattern caches of a sharded session.
        """
        if (self.num_tables, self.band_size, self.seed) != (
            other.num_tables,
            other.band_size,
            other.seed,
        ):
            raise ConfigurationError(
                "cannot merge MinHash caches across parameter sets: "
                f"{self!r} (seed={self.seed}) vs {other!r} (seed={other.seed})"
            )
        for key, signature in other._signature_cache.items():
            self._signature_cache.setdefault(key, signature)
        return self

    @property
    def cache_size(self) -> int:
        """Number of distinct token sets in the signature cache."""
        return len(self._signature_cache)

    def fold_bands(self, raw: np.ndarray) -> np.ndarray:
        """Fold raw ``(n, T*r)`` signatures into banded ``(n, T)`` buckets.

        Each band's ``band_size`` minhashes are mixed into a single stable
        value so grouping rules operate on one column per table.
        """
        if self.band_size == 1:
            return raw
        count = raw.shape[0]
        bands = raw.reshape(count, self.num_tables, self.band_size)
        mixed = np.zeros((count, self.num_tables), dtype=np.int64)
        for position in range(self.band_size):
            mixed = (
                mixed * np.int64(1_000_003) + bands[:, :, position]
            ) % _MERSENNE_PRIME
        return mixed

    def signatures(
        self,
        token_sets: Sequence[Iterable[str]],
        token_ids: Sequence[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Banded signatures for many sets, shape ``(n, T)``."""
        if len(token_sets) == 0:
            return np.zeros((0, self.num_tables), dtype=np.int64)
        return self.fold_bands(self.signatures_batch(token_sets, token_ids))

    # ------------------------------------------------------------------
    # Similarity
    # ------------------------------------------------------------------
    def estimate_jaccard(
        self, left: Iterable[str], right: Iterable[str]
    ) -> float:
        """Signature-agreement estimate of J(left, right).

        Two empty sets both sign as the ``_EMPTY_SENTINEL`` row, so their
        estimate is 1.0, consistent with :func:`exact_jaccard`.
        """
        left_signature = self.signature(left)
        right_signature = self.signature(right)
        return float(np.mean(left_signature == right_signature))

    def __repr__(self) -> str:
        return (
            f"MinHashLSH(T={self.num_tables}, r={self.band_size}, "
            f"H={self.total_hashes})"
        )


def scalar_signature(lsh: MinHashLSH, tokens: Iterable[str]) -> np.ndarray:
    """Pre-vectorization reference signature (the seed implementation).

    Computes ``(a*x + b) mod p`` through object-dtype Python big-int
    arithmetic -- with an uncached blake2b per token, exactly as the
    original scalar hot path did.  Kept as the ground truth for
    equivalence tests and the throughput benchmark: the vectorized kernel
    must be bit-identical to this.
    """
    ids = np.array(
        [
            int.from_bytes(
                hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest(),
                "little",
            )
            % _MERSENNE_PRIME
            for t in sorted(set(tokens))
        ],
        dtype=np.int64,
    )
    if ids.size == 0:
        return np.full(lsh.total_hashes, _EMPTY_SENTINEL, dtype=np.int64)
    hashed = (
        lsh._a[:, None].astype(object) * ids[None, :].astype(object)
        + lsh._b[:, None].astype(object)
    ) % _MERSENNE_PRIME
    return np.min(hashed.astype(np.int64), axis=1)


def exact_jaccard(left: Iterable[str], right: Iterable[str]) -> float:
    """Exact Jaccard similarity of two token iterables (for tests)."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    return len(left_set & right_set) / len(left_set | right_set)

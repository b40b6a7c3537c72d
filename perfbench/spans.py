"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the program: :meth:`Tracer.install`
replaces public callables of ``repro`` layers with thin wrappers that
open a span around each call, and :meth:`Tracer.uninstall` puts the
originals back.  A callable that some module imported by name is
patched in that module too, so no call bypasses its span.  Each span
holds ``(name, start, end, parent, change_set)``; spans are kept in
memory and written out as JSON lines when the run ends.

Spans are only recorded inside a *root* span opened by the benchmark
itself (``bench.setup``, ``bench.ingest``, ``bench.recover``), and only
in the process that installed the tracer -- forked shard workers inherit
the patched callables but record nothing.  A span's self time is its
duration minus the time its direct children cover; the self time of a
root span is benchmark-loop time no layer accounts for
(``trace.unattributed_s``).

Read a span file::

    python3 perfbench/spans.py perfbench/.work/out/spans-<workload>-<seed>.jsonl
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOTS = ("bench.setup", "bench.ingest", "bench.recover")

_clock = time.perf_counter


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        #: rows of [name, start, end, parent_index, change_set, rep]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.change_set = 0
        self.rep = 0
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return bool(self._stack) and os.getpid() == self._pid

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.change_set, self.rep])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A benchmark-owned span; layer spans nest under it."""
        if name not in ROOTS:
            raise ValueError(f"unknown root span {name!r}")
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _wrapper(self, function, name, count=None):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Wrap ``owner.attr`` (function, method or classmethod)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrapper(original.__func__, name, count))
        else:
            replacement = self._wrapper(original, name, count)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every traced layer call and start the GC callbacks."""
        from repro.core import clustering, durability, pipeline, recovery, session
        from repro.core import sharding, shm, state, type_extraction
        from repro.graph import changes, columnar
        from repro.lsh import elsh, minhash
        from repro.schema import merge

        def wire_bytes(counters, args, kwargs, result):
            counters["changes.wire_bytes"] += len(result)

        def sets_signed(counters, args, kwargs, result):
            counters["lsh.minhash_sets"] += len(args[1])

        def vectors_hashed(counters, args, kwargs, result):
            counters["lsh.elsh_vectors"] += len(args[1])

        def extraction_call(counters, args, kwargs, result):
            counters["extraction.calls"] += 1

        def hop_bytes(counters, args, kwargs, result):
            counters["shm.hop_bytes"] += result.nbytes + result.wire_nbytes()

        def checkpoint_bytes(counters, args, kwargs, result):
            path = Path(result)
            files = [path] if path.is_file() else [p for p in path.rglob("*") if p.is_file()]
            counters["checkpoint.bytes"] = sum(p.stat().st_size for p in files)
            counters["checkpoint.sequence"] = args[0].sequence

        self.patch(columnar.BatchBuilder, "freeze", "columnar.freeze")
        self.patch(changes.ChangeSet, "to_wire", "changes.to_wire", wire_bytes)
        self.patch(changes.ChangeSet, "from_wire", "changes.from_wire")
        self.patch(durability.WriteAheadLog, "append", "wal.append")
        self.patch(durability.WriteAheadLog, "sync", "wal.sync")
        for cls in (recovery.DurableSchemaSession, recovery.DurableShardedSchemaSession):
            self.patch(cls, "apply", "session.apply")
            self.patch(cls, "checkpoint", "checkpoint", checkpoint_bytes)
            self.patch(cls, "recover", "recovery.recover")
        self.patch(session.SchemaSession, "restore", "recovery.restore")
        self.patch(sharding.ShardedSchemaSession, "restore", "recovery.restore")
        self.patch(session.SchemaSession, "schema", "session.read")
        self.patch(sharding.ShardedSchemaSession, "schema", "session.read")
        self.patch(minhash.MinHashLSH, "signatures", "lsh.minhash", sets_signed)
        self.patch(elsh.EuclideanLSH, "cluster", "lsh.elsh", vectors_hashed)
        self.patch(clustering.ColumnarCluster, "record_into", "accumulators.record_into")
        for module in (type_extraction, pipeline):
            self.patch(module, "extract_types", "extraction.extract_types", extraction_call)
        for module in (columnar, sharding):
            self.patch(module, "partition_columnar", "sharding.partition")
        for module in (shm, sharding):
            self.patch(module, "encode_changeset_shm", "shm.encode", hop_bytes)
        self.patch(state.DiscoveryState, "merged", "state.merged")
        for module in (merge, state):
            self.patch(module, "merge_into", "merge.merge_into")
        self._patch_fsync()
        gc.callbacks.append(self._on_gc)

    def _patch_fsync(self) -> None:
        """Count and time the fsyncs issued inside WAL calls only."""
        original = os.fsync
        tracer = self

        def fsync(fd):
            if not tracer.active or not (tracer.innermost() or "").startswith("wal."):
                return original(fd)
            tracer.counters["wal.fsyncs"] += 1
            index = tracer._open("wal.fsync")
            try:
                return original(fd)
            finally:
                tracer._close(index)

        self._patches.append((os, "fsync", original))
        os.fsync = fsync

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = _clock()
        else:
            self.counters["gc.pause_s"] += _clock() - self._gc_start
            if info.get("generation") == 2:
                self.counters["gc.collections_gen2"] += 1

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, (name, start, end, parent, change_set, rep) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "change_set": change_set,
                            "rep": rep,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per-name self time, inclusive time and call count of ``spans``.

    ``spans`` rows are ``[name, start, end, parent_index, ...]`` with
    parent indices into the same list (``-1`` for roots).
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for index, (name, start, end, *_rest) in enumerate(spans):
        own[name] += (end - start) - child_time[index]
        inclusive[name] += end - start
        calls[name] += 1
    return dict(own), dict(inclusive), dict(calls)


def subtree(spans: list[list], root_names: tuple[str, ...], rep: int) -> list[list]:
    """The spans of repetition ``rep`` under roots named ``root_names``,
    re-indexed so parent pointers stay valid."""
    keep: dict[int, int] = {}
    out: list[list] = []
    for index, row in enumerate(spans):
        name, start, end, parent, change_set, row_rep = row
        if row_rep != rep:
            continue
        if parent < 0:
            if name not in root_names:
                continue
            new_parent = -1
        elif parent in keep:
            new_parent = keep[parent]
        else:
            continue
        keep[index] = len(out)
        out.append([name, start, end, new_parent, change_set, row_rep])
    return out


def load(path: Path) -> list[list]:
    """Span rows back from a file written by :meth:`Tracer.write`."""
    rows = []
    with open(path) as handle:
        for line in handle:
            span = json.loads(line)
            rows.append(
                [span["name"], span["start"], span["end"], span["parent"],
                 span["change_set"], span["rep"]]
            )
    return rows


def main(argv: list[str] | None = None) -> int:
    """Print the self-time table of a span file."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 perfbench/spans.py SPANS.jsonl", file=sys.stderr)
        return 2
    rows = load(Path(argv[0]))
    own, inclusive, calls = self_times(rows)
    wall = sum(end - start for _n, start, end, parent, *_ in rows if parent < 0)
    print(f"{'span':<28} {'calls':>8} {'self_s':>10} {'incl_s':>10} {'self%':>7}")
    for name in sorted(own, key=own.get, reverse=True):
        share = own[name] / wall if wall else 0.0
        print(
            f"{name:<28} {calls[name]:>8} {own[name]:>10.4f} "
            f"{inclusive[name]:>10.4f} {share:>7.1%}"
        )
    print(f"{'wall (root spans)':<28} {'':>8} {sum(own.values()):>10.4f} {wall:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

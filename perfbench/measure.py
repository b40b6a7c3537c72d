"""The two phases that import the code under test: ``prepare`` and ``measure``.

``run.py`` starts each phase as its own process, so the measuring
process never generates feeds or builds its starting state::

    python3 perfbench/measure.py prepare --workload W --feed DIR --base DIR --out FILE
    python3 perfbench/measure.py measure --workload W --feed DIR --base DIR \
        --prepared FILE --work DIR --seconds S --trace 0|1 --out FILE [--spans FILE]

``prepare`` (untimed) builds the workload's base directory with the code
under test: a durable session over the first ``BASE_SHARE`` of the feed,
closed after one internal checkpoint.  For ``sharded_churn`` it also
fingerprints an in-process single :class:`SchemaSession` over the whole
feed, the reference the sharded result must equal.

``measure`` repeats one *repetition* (at least three times) while another one
still fits, at least by half, into ``--seconds``:

1. copy the base directory and ``recover()`` it ``SETUP_SAMPLES`` times
   (``setup_s``), keeping the last session;
2. closed loop over the rest of the feed: pull a change-set, attach its
   planned deletions, ``apply`` it, a dirty ``schema()`` read every
   ``read_every`` change-sets, internal checkpoints every
   ``CHECKPOINT_EVERY`` change-sets (aligned to leave ``REPLAY_TAIL``
   WAL records after the newest one), and a final read;
3. crash: copy the directory without closing the session, then time
   ``recover()`` of each copy (``recover_s``);
4. correctness gates (``Gates``): WAL record counts, recovered ==
   uncrashed, every repetition == the first, sharded == single, and no
   shared-memory block or work directory left behind.

Every reported time is rescaled to the reference machine speed by the
probes that bracket it (:func:`speed`), and every timed ``recover()``
starts right after a full ``gc.collect()``.

With ``--trace 1`` repetitions alternate untraced / traced; the traced
ones record spans (``spans.Tracer``) and yield the per-layer metrics,
and the untraced ones give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer, self_times, subtree  # noqa: E402
from workloads import (  # noqa: E402
    BASE_SHARE,
    CHECKPOINT_EVERY,
    CRASH_COPIES,
    N_SHARDS,
    REPLAY_TAIL,
    WORKLOADS,
    Workload,
)

from repro.core.config import ClusteringMethod, PGHiveConfig  # noqa: E402
from repro.core.recovery import (  # noqa: E402
    DurableSchemaSession,
    DurableShardedSchemaSession,
)
from repro.core.session import SchemaSession  # noqa: E402
from repro.core.shm import SHM_NAME_PREFIX, global_registry  # noqa: E402
from repro.graph.json_io import iter_columnar_changesets_jsonl  # noqa: E402
from repro.schema.model import schema_fingerprint  # noqa: E402

_clock = time.perf_counter
_FSYNC = "batch"
#: Iterations of the speed probe's loop, and its best-of-3 time on the
#: 2-core reference machine when that machine runs at full speed.
PROBE_LOOPS = 3000
PROBE_REFERENCE_S = 3.0e-4
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
#: at least this many repetitions per run, so that every per-step median
#: of ``ingest_eps`` has three samples and the pooled apply latencies
#: number well over 100 (with --trace 1 they alternate untraced / traced).
MIN_REPETITIONS = 3
#: timed recover() calls of the base directory per repetition.
SETUP_SAMPLES = 5


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
def _probe() -> float:
    best = float("inf")
    for _ in range(3):
        start = _clock()
        acc = 0
        table = {}
        for i in range(PROBE_LOOPS):
            table[i & 255] = acc
            acc += i * i % 7
        best = min(best, _clock() - start)
    return PROBE_REFERENCE_S / best


def speed(every_cpu: bool = False) -> float:
    """How fast the machine runs right now, relative to the reference speed.

    On the shared 2-core reference host each core flips between full
    speed and about 0.6 of it every few hundred milliseconds (a neighbour
    on the same physical core comes and goes), and the share of slow time
    drifts over minutes; CPU time slows exactly as much as wall time.
    Every timed call is therefore bracketed by this probe: a fixed
    pure-Python loop, independent of the code under test, timed best of 3
    (~1 ms).  A wall time ``t`` measured at speed ``s`` is reported as
    ``t * s``, the time the call would have taken at the reference speed.

    ``every_cpu`` probes each CPU this process may use, pinned to it in
    turn, and returns the mean: the sharded workload's shard workers run
    on the other CPUs while the caller waits.
    """
    if not every_cpu or len(_CPUS) < 2:
        return _probe()
    factors = []
    try:
        for cpu in _CPUS:
            os.sched_setaffinity(0, {cpu})
            factors.append(_probe())
    finally:
        os.sched_setaffinity(0, _CPUS)
    return statistics.fmean(factors)


def at_reference(seconds: float, before: float, every_cpu: bool) -> float:
    """``seconds`` of a call rescaled to the reference speed, taking as the
    call's speed the mean of the probes just before and just after it."""
    return seconds * (before + speed(every_cpu)) / 2


# ----------------------------------------------------------------------
# Workload plumbing
# ----------------------------------------------------------------------
def make_config(workload: Workload) -> PGHiveConfig:
    if workload.method == "elsh":
        return PGHiveConfig(method=ClusteringMethod.ELSH)
    return PGHiveConfig(
        method=ClusteringMethod.MINHASH, retain_union=workload.sharded
    )


def open_fresh(workload: Workload, directory: Path, config: PGHiveConfig):
    if workload.sharded:
        return DurableShardedSchemaSession(
            directory,
            config,
            n_shards=N_SHARDS,
            parallel=True,
            fsync=_FSYNC,
        )
    return DurableSchemaSession(directory, config, fsync=_FSYNC)


def recover(workload: Workload, directory: Path):
    cls = DurableShardedSchemaSession if workload.sharded else DurableSchemaSession
    return cls.recover(directory, fsync=_FSYNC)


def attach_deletions(change_set, plan: list[dict], index: int) -> int:
    """Add change-set ``index``'s planned deletions; returns their count."""
    planned = plan[index] if index < len(plan) else {"nodes": [], "edges": []}
    change_set.delete_nodes = list(planned["nodes"])
    change_set.delete_edges = list(planned["edges"])
    return len(planned["nodes"]) + len(planned["edges"])


def digest(schema) -> str:
    return hashlib.sha256(repr(schema_fingerprint(schema)).encode()).hexdigest()


def base_sets(workload: Workload, plan: dict) -> int:
    n_sets = len(plan["deletions"])
    return max(1, min(n_sets - 1, round(BASE_SHARE * n_sets)))


def _load_plan(feed: Path) -> dict:
    return json.loads((feed / "plan.json").read_text())


# ----------------------------------------------------------------------
# Phase 1: prepare (untimed)
# ----------------------------------------------------------------------
def prepare(workload: Workload, feed: Path, base: Path, out: Path) -> None:
    plan = _load_plan(feed)
    deletions = plan["deletions"]
    base_count = base_sets(workload, plan)
    config = make_config(workload)
    shutil.rmtree(base, ignore_errors=True)
    session = open_fresh(workload, base, config)
    try:
        stream = iter_columnar_changesets_jsonl(feed / "feed.jsonl", workload.batch_size)
        for index, change_set in zip(range(base_count), stream):
            attach_deletions(change_set, deletions, index)
            session.apply(change_set)
        session.checkpoint()
    finally:
        session.close()
    reference = None
    if workload.sharded:
        single = SchemaSession(config, retain_union=True)
        stream = iter_columnar_changesets_jsonl(feed / "feed.jsonl", workload.batch_size)
        for index, change_set in enumerate(stream):
            attach_deletions(change_set, deletions, index)
            single.apply(change_set)
        reference = digest(single.schema())
    out.write_text(json.dumps({"base_sets": base_count, "reference": reference}))


# ----------------------------------------------------------------------
# Phase 2: measure
# ----------------------------------------------------------------------
def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _checkpoint_sequences(directory: Path) -> list[int]:
    found = []
    for path in directory.iterdir():
        stem = path.name.removesuffix(".ckpt")
        if stem.startswith("checkpoint-") and stem[11:].isdigit():
            found.append(int(stem[11:]))
    return sorted(found)


def _vm_hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _shm_entries() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith(SHM_NAME_PREFIX)}
    except OSError:
        return set()


class Gates:
    """Correctness checks; each one is an operation that can fail."""

    def __init__(self) -> None:
        self.checked = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(what)


class Repetition:
    """One copy-recover-ingest-crash-recover cycle of a workload."""

    def __init__(self, workload, feed, base, work, plan, prepared, gates):
        self.workload = workload
        self.feed = feed
        self.base = base
        self.work = work
        self.deletions = plan["deletions"]
        self.n_sets = len(self.deletions)
        self.base_count = prepared["base_sets"]
        self.reference = prepared["reference"]
        self.total_elements = plan["elements"] + sum(
            len(d["nodes"]) + len(d["edges"]) for d in self.deletions
        )
        self.gates = gates
        self.operations = 0

    def run(self, rep: int, tracer: Tracer | None) -> dict:
        workload = self.workload
        root = tracer.root if tracer else (lambda name: nullcontext())
        span = tracer.span if tracer else (lambda name: nullcontext())
        directory = self.work / f"rep{rep}"
        shutil.copytree(self.base, directory)
        result: dict = {"traced": tracer is not None}
        # Set-up is short, so it is sampled several times: a recover()
        # that applies nothing writes nothing, and the last one is kept.
        # Every timed recover() starts right after a full collection, so
        # the collections inside it fall at the same points every time.
        result["setup_s"] = []
        session = None
        for sample in range(SETUP_SAMPLES):
            if session is not None:
                session.close()
                session = None
            gc.collect()
            before = speed(workload.sharded)
            with root("bench.setup"):
                start = _clock()
                session = recover(workload, directory)
                took = _clock() - start
            result["setup_s"].append(at_reference(took, before, workload.sharded))
            self.operations += 1
        copies: list[Path] = []
        try:
            stream = iter_columnar_changesets_jsonl(
                self.feed / "feed.jsonl", workload.batch_size
            )
            for _ in zip(range(self.base_count), stream):
                pass  # the base checkpoint already holds these change-sets
            laps_before = (
                {} if workload.sharded else dict(session.timer.laps)
            )
            gc.collect()
            ingest = self._ingest(session, stream, root, span, tracer)
            result.update(ingest)
            if not workload.sharded:
                laps = session.timer.laps
                result["laps"] = {
                    name: laps.get(name, 0.0) - laps_before.get(name, 0.0)
                    for name in ("preprocess", "clustering", "extraction", "postprocess")
                }
                result["worker_hwm_kb"] = 0
            else:
                pids = session.worker_pids().values()
                result["worker_hwm_kb"] = sum(_vm_hwm_kb(pid) for pid in pids)
            self._wal_gates(session, directory, ingest["applied"])
            result["disk_bytes_per_el"] = _tree_bytes(directory) / self.total_elements
            # Crash: the copies see the directory exactly as a killed
            # process would leave it (no close, no final checkpoint).
            for index in range(CRASH_COPIES):
                copy = self.work / f"crash{rep}-{index}"
                shutil.copytree(directory, copy)
                copies.append(copy)
        finally:
            session.close()
        shutil.rmtree(directory)
        session = None
        result["recover_s"] = []
        for index, copy in enumerate(copies):
            gc.collect()
            before = speed(workload.sharded)
            with root("bench.recover"):
                start = _clock()
                recovered = recover(workload, copy)
                took = _clock() - start
            result["recover_s"].append(at_reference(took, before, workload.sharded))
            self.operations += 1
            try:
                if index == 0:
                    self.gates.check(
                        digest(recovered.schema()) == result["fingerprint"],
                        f"rep {rep}: recovered schema differs from the uncrashed one",
                    )
            finally:
                recovered.close()
                recovered = None
                shutil.rmtree(copy)
        if self.reference is not None:
            self.gates.check(
                result["fingerprint"] == self.reference,
                f"rep {rep}: sharded schema differs from the single session",
            )
        return result

    def _ingest(self, session, stream, root, span, tracer) -> dict:
        workload = self.workload
        # Raw wall times; step i is scaled once the probe after it is in.
        raw_steps: list[float] = []
        raw_apply: list[float] = []
        raw_reads: list[tuple[int, float]] = []
        probes: list[float] = []
        shard_seconds = [0.0] * N_SHARDS
        coordinator_s = 0.0
        elements = 0
        applied = 0
        index = self.base_count
        with root("bench.ingest"):
            start = _clock()
            while True:
                # Probes lie between steps: step times, and with them
                # ingest_eps, exclude them.
                probes.append(speed(workload.sharded))
                step_start = _clock()
                if tracer:
                    tracer.change_set = index + 1
                with span("reader"):
                    change_set = next(stream, None)
                if change_set is None:
                    break
                deletes = attach_deletions(change_set, self.deletions, index)
                began = _clock()
                report = session.apply(change_set)
                took = _clock() - began
                raw_apply.append(took)
                elements += report.nodes_inserted + report.edges_inserted + deletes
                if workload.sharded:
                    slowest = 0.0
                    for shard, shard_report in report.shard_reports:
                        shard_seconds[shard] += shard_report.seconds
                        slowest = max(slowest, shard_report.seconds)
                    coordinator_s += took - slowest
                applied += 1
                index += 1
                if applied % workload.read_every == 0:
                    began = _clock()
                    session.schema()
                    raw_reads.append((len(raw_steps), _clock() - began))
                if (self.n_sets - session.sequence) % CHECKPOINT_EVERY == REPLAY_TAIL:
                    session.checkpoint()
                raw_steps.append(_clock() - step_start)
            final = session.schema()
            end = _clock()
            raw_steps.append(end - step_start)
            probes.append(speed(workload.sharded))
            wall = end - start
        # Step i ran between probes i and i + 1.
        factors = [(a + b) / 2 for a, b in zip(probes, probes[1:])]
        steps = [t * f for t, f in zip(raw_steps, factors)]
        self.operations += applied + len(raw_reads) + 1
        return {
            "wall_s": wall,
            "elements": elements,
            "applied": applied,
            "ingest_eps": elements / sum(steps),
            "speed": statistics.median(probes),
            "steps": steps,
            "apply_ms": [t * 1000.0 * f for t, f in zip(raw_apply, factors)],
            "read_ms": [t * 1000.0 * factors[i] for i, t in raw_reads],
            "fingerprint": digest(final),
            "schema": final,
            "shard_seconds": shard_seconds,
            "coordinator_s": coordinator_s,
        }

    def _wal_gates(self, session, directory: Path, applied: int) -> None:
        wal = session.wal
        self.gates.check(
            wal.last_sequence == session.sequence == self.base_count + applied,
            f"WAL holds {wal.last_sequence} records, session is at "
            f"{session.sequence}, expected {self.base_count + applied}",
        )
        latest = _checkpoint_sequences(directory)[-1]
        tail = sum(1 for _ in wal.replay(after=latest))
        self.gates.check(
            tail == session.sequence - latest,
            f"WAL replays {tail} records after checkpoint {latest}, expected "
            f"{session.sequence - latest}",
        )


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(reps: list[dict], peak_rss_mb: float, f1: tuple[float, float]) -> dict:
    plain = [rep for rep in reps if not rep["traced"]]
    apply_ms = [v for rep in plain for v in rep["apply_ms"]]
    read_ms = [v for rep in plain for v in rep["read_ms"]]
    # The stream's wall time: per step (one change-set with its read or
    # checkpoint, and the final read) the median over repetitions, summed.
    # Every repetition replays the same feed, so step i is the same work
    # each time, and a stall that hit one repetition drops out.
    stream_s = sum(
        statistics.median(step) for step in zip(*(rep["steps"] for rep in plain))
    )
    return {
        "setup_s": (_median([v for r in reps for v in r["setup_s"]]), "s"),
        "ingest_eps": (plain[0]["elements"] / stream_s if plain else 0.0, "el/s"),
        "apply_p50_ms": (_percentile(apply_ms, 50), "ms"),
        "apply_p90_ms": (_percentile(apply_ms, 90), "ms"),
        "read_p50_ms": (_percentile(read_ms, 50), "ms"),
        "recover_s": (_median([v for r in reps for v in r["recover_s"]]), "s"),
        "disk_bytes_per_el": (_median([r["disk_bytes_per_el"] for r in reps]), "B/el"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "node_f1": (f1[0], "F1"),
        "edge_f1": (f1[1], "F1"),
    }


def per_layer(reps: list[dict], live_blocks: int) -> dict:
    """Per-layer metrics: the median over traced repetitions."""
    rows: dict[str, list[float]] = {}
    for rep in reps:
        if rep["traced"]:
            for name, value in rep["layers"].items():
                rows.setdefault(name, []).append(value)
    plain_eps = _median([r["ingest_eps"] for r in reps if not r["traced"]])
    traced_eps = _median([r["ingest_eps"] for r in reps if r["traced"]])
    metrics = {name: (_median(values), LAYER_UNITS[name]) for name, values in rows.items()}
    metrics["shm.live_blocks_end"] = (float(live_blocks), "count")
    metrics["trace.overhead"] = (
        plain_eps / traced_eps - 1.0 if traced_eps else 0.0,
        "ratio",
    )
    return metrics


#: Unit of every per-layer metric (``BENCHMARK.json`` lists the same).
LAYER_UNITS = {
    "reader.busy_s": "s",
    "columnar.freeze_s": "s",
    "changes.to_wire_s": "s",
    "changes.wire_bytes_per_el": "B/el",
    "changes.from_wire_s": "s",
    "wal.append_s": "s",
    "wal.fsyncs": "count",
    "wal.sync_s": "s",
    "checkpoint.write_s": "s",
    "checkpoint.bytes_per_el": "B/el",
    "recovery.restore_s": "s",
    "recovery.replay_s": "s",
    "recovery.records_replayed": "count",
    "pipeline.preprocess_s": "s",
    "pipeline.clustering_s": "s",
    "pipeline.extraction_s": "s",
    "pipeline.postprocess_s": "s",
    "session.apply_self_s": "s",
    "session.read_s": "s",
    "lsh.minhash_s": "s",
    "lsh.minhash_sets": "count",
    "lsh.elsh_s": "s",
    "lsh.elsh_vectors": "count",
    "dedup.signed_per_el": "ratio",
    "accumulators.record_into_s": "s",
    "extraction.extract_types_s": "s",
    "extraction.calls": "count",
    "sharding.coordinator_s": "s",
    "sharding.worker_busy_s": "s",
    "sharding.worker_skew": "ratio",
    "sharding.partition_s": "s",
    "shm.encode_s": "s",
    "shm.hop_bytes_per_el": "B/el",
    "shm.live_blocks_end": "count",
    "state.merged_s": "s",
    "merge.merge_into_s": "s",
    "gc.collections_gen2": "count",
    "gc.pause_s": "s",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
}


def layer_metrics(rep: dict, tracer: Tracer, rep_index: int, counters: dict) -> dict:
    """Per-layer numbers of one traced repetition."""
    ingest = subtree(tracer.spans, ("bench.ingest",), rep_index)
    recovery = subtree(tracer.spans, ("bench.setup", "bench.recover"), rep_index)
    every = subtree(tracer.spans, ("bench.setup", "bench.ingest", "bench.recover"), rep_index)
    own, inclusive, _ = self_times(ingest)
    rec_own, rec_inclusive, rec_calls = self_times(recovery)
    all_own, _, _ = self_times(every)
    elements = rep["elements"]
    laps = rep.get("laps", {})
    lap_sum = sum(laps.get(n, 0.0) for n in ("preprocess", "clustering", "extraction"))
    shards = rep["shard_seconds"]
    busy = sum(shards)
    crash_recoveries = max(1, len(rep["recover_s"]))

    def o(name: str) -> float:
        return own.get(name, 0.0)

    return {
        "reader.busy_s": o("reader"),
        "columnar.freeze_s": o("columnar.freeze"),
        "changes.to_wire_s": o("changes.to_wire"),
        "changes.wire_bytes_per_el": counters.get("changes.wire_bytes", 0.0) / elements,
        "changes.from_wire_s": rec_own.get("changes.from_wire", 0.0),
        "wal.append_s": o("wal.append"),
        "wal.fsyncs": counters.get("wal.fsyncs", 0.0),
        "wal.sync_s": o("wal.fsync"),
        "checkpoint.write_s": o("checkpoint"),
        "checkpoint.bytes_per_el": counters.get("checkpoint.bytes", 0.0)
        / max(1, rep["elements_through_checkpoint"]),
        "recovery.restore_s": rec_inclusive.get("recovery.restore", 0.0),
        "recovery.replay_s": rec_inclusive.get("recovery.recover", 0.0)
        - rec_inclusive.get("recovery.restore", 0.0),
        "recovery.records_replayed": rec_calls.get("changes.from_wire", 0) / crash_recoveries,
        "pipeline.preprocess_s": laps.get("preprocess", 0.0),
        "pipeline.clustering_s": laps.get("clustering", 0.0),
        "pipeline.extraction_s": laps.get("extraction", 0.0),
        "pipeline.postprocess_s": laps.get("postprocess", 0.0),
        "session.apply_self_s": inclusive.get("session.apply", 0.0)
        - inclusive.get("changes.to_wire", 0.0)
        - inclusive.get("wal.append", 0.0)
        - lap_sum,
        "session.read_s": inclusive.get("session.read", 0.0),
        "lsh.minhash_s": o("lsh.minhash"),
        "lsh.minhash_sets": counters.get("lsh.minhash_sets", 0.0),
        "lsh.elsh_s": o("lsh.elsh"),
        "lsh.elsh_vectors": counters.get("lsh.elsh_vectors", 0.0),
        "dedup.signed_per_el": counters.get("lsh.minhash_sets", 0.0) / elements,
        "accumulators.record_into_s": o("accumulators.record_into"),
        "extraction.extract_types_s": o("extraction.extract_types"),
        "extraction.calls": counters.get("extraction.calls", 0.0),
        "sharding.coordinator_s": rep["coordinator_s"],
        "sharding.worker_busy_s": busy,
        "sharding.worker_skew": max(shards) / (busy / len(shards)) if busy else 0.0,
        "sharding.partition_s": o("sharding.partition"),
        "shm.encode_s": o("shm.encode"),
        "shm.hop_bytes_per_el": counters.get("shm.hop_bytes", 0.0) / elements,
        "state.merged_s": o("state.merged"),
        "merge.merge_into_s": o("merge.merge_into"),
        "gc.collections_gen2": counters.get("gc.collections_gen2", 0.0),
        "gc.pause_s": counters.get("gc.pause_s", 0.0),
        "trace.unattributed_s": sum(
            all_own.get(name, 0.0) for name in ("bench.setup", "bench.ingest", "bench.recover")
        ),
    }


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    plan = _load_plan(args.feed)
    prepared = json.loads(args.prepared.read_text())
    shm_before = _shm_entries()
    args.work.mkdir(parents=True, exist_ok=True)
    gates = Gates()
    runner = Repetition(workload, args.feed, args.base, args.work, plan, prepared, gates)
    tracer = Tracer() if args.trace else None
    reps: list[dict] = []
    errors: list[str] = []
    final_schema = None
    started = _clock()
    deadline = started + args.seconds
    rep_index = 0
    while True:
        traced = tracer is not None and rep_index % 2 == 1
        if traced:
            tracer.counters.clear()
            tracer.rep = rep_index
            tracer.install()
        try:
            rep = runner.run(rep_index, tracer if traced else None)
        except Exception as error:  # a failed operation ends the run
            errors.append(f"rep {rep_index}: {type(error).__name__}: {error}")
            break
        finally:
            if traced:
                tracer.uninstall()
        final_schema = rep.pop("schema")
        if reps:
            gates.check(
                rep["fingerprint"] == reps[0]["fingerprint"],
                f"rep {rep_index}: schema differs from rep 0 on the same feed",
            )
        if traced:
            sequence = int(tracer.counters.get("checkpoint.sequence", 0))
            rep["elements_through_checkpoint"] = _elements_through(plan, sequence)
            rep["layers"] = layer_metrics(rep, tracer, rep_index, dict(tracer.counters))
        reps.append(rep)
        rep_index += 1
        # Start another repetition only while at least half of it fits.
        per_rep = (_clock() - started) / rep_index
        if rep_index >= MIN_REPETITIONS and _clock() + per_rep / 2 > deadline:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_rss_mb = (peak_kb + max((r["worker_hwm_kb"] for r in reps), default=0)) / 1024.0
    live_blocks = len(global_registry().live_blocks())
    gates.check(live_blocks == 0, f"{live_blocks} shared-memory blocks still live")
    leaked = _shm_entries() - shm_before
    gates.check(not leaked, f"/dev/shm entries left behind: {sorted(leaked)}")
    leftovers = sorted(p.name for p in args.work.iterdir())
    gates.check(not leftovers, f"work directories left behind: {leftovers}")

    f1 = (0.0, 0.0)
    if final_schema is not None:
        from repro.eval.clustering_metrics import majority_f1

        truth = json.loads((args.feed / "truth.json").read_text())
        f1 = (
            majority_f1(final_schema.node_assignments(), truth["nodes"]).macro_f1,
            majority_f1(final_schema.edge_assignments(), truth["edges"]).macro_f1,
        )
    if tracer is not None and args.spans is not None:
        tracer.write(args.spans)

    failures = gates.failures + errors
    metrics = (
        per_layer(reps, live_blocks) if tracer else end_to_end(reps, peak_rss_mb, f1)
    )
    return {
        "attempted": runner.operations + gates.checked + len(errors),
        "failed": len(failures),
        "failures": failures,
        "repetitions": len(reps),
        "apply_samples": sum(len(r["apply_ms"]) for r in reps if not r["traced"]),
        "read_samples": sum(len(r["read_ms"]) for r in reps if not r["traced"]),
        "per_repetition": [
            {
                **{k: rep[k] for k in ("ingest_eps", "speed", "recover_s", "wall_s")},
                "apply_p50_ms": _median(rep["apply_ms"]),
                "read_p50_ms": _median(rep["read_ms"]),
            }
            for rep in reps
        ],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def _elements_through(plan: dict, sequence: int) -> int:
    """Elements (inserts + planned deletes) fed through change-set ``sequence``."""
    batch = plan["batch_size"]
    inserts = min(plan["elements"], sequence * batch)
    deletes = sum(
        len(d["nodes"]) + len(d["edges"]) for d in plan["deletions"][:sequence]
    )
    return inserts + deletes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("prepare", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--feed", type=Path, required=True)
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--prepared", type=Path)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    if args.phase == "prepare":
        prepare(WORKLOADS[args.workload], args.feed, args.base, args.out)
    else:
        args.out.write_text(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Checkpoint/restore round-trip tests for `SchemaSession`.

The acceptance bar: a session checkpointed mid-stream, restored (as a
fresh process would), and fed the remaining batches must produce a
bit-identical schema to an uninterrupted run over the same stream.
"""

import pickle
from types import SimpleNamespace

import pytest

import repro.util
from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.durability import payload_digest, write_artifact
from repro.core.session import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    SchemaSession,
)
from repro.core.serialization import to_pg_schema
from repro.core.type_extraction import KeyIndexCache
from repro.datasets.noise import apply_noise
from repro.datasets.registry import load_dataset
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
)
from repro.graph.batching import split_into_batches
from repro.graph.changes import ChangeSet
from repro.schema.model import schema_fingerprint


def stream(graph, batches=5, seed=4):
    return split_into_batches(graph, batches, seed=seed)


@pytest.mark.parametrize("method", list(ClusteringMethod))
class TestRoundTrip:
    def test_restore_is_bit_identical(self, figure1_graph, tmp_path, method):
        config = PGHiveConfig(method=method, seed=0, infer_keys=True)
        session = SchemaSession(config)
        for batch in stream(figure1_graph)[:3]:
            session.add_batch(batch)
        path = session.checkpoint(tmp_path / "mid.ckpt")
        restored = SchemaSession.restore(path)
        assert schema_fingerprint(restored.schema_graph) == schema_fingerprint(
            session.schema_graph
        )
        assert restored.sequence == session.sequence
        assert restored.reports == session.reports

    def test_resumed_stream_matches_uninterrupted(
        self, figure1_graph, tmp_path, method
    ):
        config = PGHiveConfig(method=method, seed=0, infer_keys=True)
        batches = stream(figure1_graph)

        uninterrupted = SchemaSession(config)
        for batch in batches:
            uninterrupted.add_batch(batch)

        interrupted = SchemaSession(config)
        for batch in batches[:2]:
            interrupted.add_batch(batch)
        path = interrupted.checkpoint(tmp_path / "crash.ckpt")
        del interrupted  # the worker "crashes" here

        resumed = SchemaSession.restore(path)
        for batch in batches[2:]:
            resumed.add_batch(batch)
        assert schema_fingerprint(resumed.schema()) == schema_fingerprint(
            uninterrupted.schema()
        )


class TestCheckpointCoverage:
    def test_pipeline_state_survives(self, figure1_graph, tmp_path):
        config = PGHiveConfig(method=ClusteringMethod.MINHASH, seed=0)
        session = SchemaSession(config)
        for batch in stream(figure1_graph)[:3]:
            session.add_batch(batch)
        restored = SchemaSession.restore(
            session.checkpoint(tmp_path / "state.ckpt")
        )
        # The fitted preprocessor (with its embedding cache) came along ...
        assert restored.state.preprocessor is not None
        assert set(restored.state.preprocessor._embedding_cache) == set(
            session.state.preprocessor._embedding_cache
        )
        # ... as did the MinHash instances with their signature caches.
        assert set(restored.state.minhash_cache) == set(session.state.minhash_cache)
        for key, lsh in session.state.minhash_cache.items():
            assert set(restored.state.minhash_cache[key]._signature_cache) == set(
                lsh._signature_cache
            )

    def test_union_and_deletions_survive(self, figure1_graph, tmp_path):
        session = SchemaSession(PGHiveConfig(seed=0), retain_union=True)
        session.add_batch(figure1_graph)
        session.apply(ChangeSet.deletions(nodes=["place"]))
        restored = SchemaSession.restore(
            session.checkpoint(tmp_path / "union.ckpt")
        )
        assert not restored.union_graph.has_node("place")
        assert not restored._streaming_valid
        # The restored session keeps deleting against the restored union.
        restored.apply(ChangeSet.deletions(nodes=["org"]))
        assert restored.schema().node_type_by_token("Org.") is None

    def test_key_index_cache_stays_out_of_saved_state(self, tmp_path, monkeypatch):
        # Algorithm 2's key indexes are a session-owned derived cache: a
        # session that kept them warm across every change-set and one
        # that dropped them before each must save the same bytes and
        # read the same schema.  A frozen clock makes report timings
        # agree.
        frozen = SimpleNamespace(perf_counter=lambda: 0.0)
        monkeypatch.setattr(repro.util, "time", frozen)
        graph = apply_noise(
            load_dataset("LDBC", nodes=200, seed=1),
            property_noise=0.2,
            label_availability=0.0,
            seed=1,
        ).graph
        config = PGHiveConfig(method=ClusteringMethod.ELSH, seed=0)
        warm, cold = SchemaSession(config), SchemaSession(config)
        for batch in stream(graph, batches=4):
            warm.add_batch(batch)
            cold._key_indexes = KeyIndexCache()
            cold.add_batch(batch)
        assert warm._key_indexes.nodes is not None
        assert len(warm._key_indexes.nodes.types) > 1
        warm_bytes = warm.checkpoint(tmp_path / "warm.ckpt").read_bytes()
        cold_bytes = cold.checkpoint(tmp_path / "cold.ckpt").read_bytes()
        assert warm_bytes == cold_bytes
        assert b"KeyIndex" not in warm_bytes
        assert to_pg_schema(warm.schema()) == to_pg_schema(cold.schema())
        assert schema_fingerprint(warm.schema()) == schema_fingerprint(
            cold.schema()
        )

    def test_dirty_flag_round_trips(self, figure1_graph, tmp_path):
        session = SchemaSession(PGHiveConfig(seed=0))
        session.add_batch(figure1_graph)
        assert session.dirty
        restored = SchemaSession.restore(
            session.checkpoint(tmp_path / "dirty.ckpt")
        )
        assert restored.dirty
        assert restored.schema().node_type_by_token("Person") is not None


class TestFormat:
    def test_header_pins_magic_version_digest_length(
        self, figure1_graph, tmp_path
    ):
        session = SchemaSession(PGHiveConfig(seed=0))
        session.add_batch(figure1_graph)
        path = session.checkpoint(tmp_path / "fmt.ckpt")
        header, payload = path.read_bytes().split(b"\n", 1)
        magic, version, digest, length = header.split()
        assert magic == CHECKPOINT_MAGIC
        assert int(version) == CHECKPOINT_VERSION
        assert digest.decode("ascii") == payload_digest(payload)
        assert int(length) == len(payload)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not a checkpoint\n" + b"\x00" * 32)
        with pytest.raises(CheckpointFormatError):
            SchemaSession.restore(path)

    def test_rejects_future_version(self, figure1_graph, tmp_path):
        session = SchemaSession(PGHiveConfig(seed=0))
        session.add_batch(figure1_graph)
        original = session.checkpoint(tmp_path / "orig.ckpt").read_bytes()
        header, payload = original.split(b"\n", 1)
        magic, _version, digest, length = header.split()
        bumped = b"%s %d %s %s\n" % (
            magic,
            CHECKPOINT_VERSION + 1,
            digest,
            length,
        )
        path = tmp_path / "future.ckpt"
        path.write_bytes(bumped + payload)
        with pytest.raises(CheckpointVersionError, match="version"):
            SchemaSession.restore(path)

    def test_rejects_truncated_payload(self, figure1_graph, tmp_path):
        session = SchemaSession(PGHiveConfig(seed=0))
        session.add_batch(figure1_graph)
        original = session.checkpoint(tmp_path / "full.ckpt").read_bytes()
        path = tmp_path / "cut.ckpt"
        path.write_bytes(original[: len(original) // 2])
        with pytest.raises(CheckpointCorruptError):
            SchemaSession.restore(path)

    def test_rejects_flipped_payload_byte(self, figure1_graph, tmp_path):
        session = SchemaSession(PGHiveConfig(seed=0))
        session.add_batch(figure1_graph)
        path = session.checkpoint(tmp_path / "flip.ckpt")
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="digest"):
            SchemaSession.restore(path)

    def test_refuses_v1_header(self, figure1_graph, tmp_path):
        session = SchemaSession(PGHiveConfig(seed=0))
        session.add_batch(figure1_graph)
        v2 = session.checkpoint(tmp_path / "v2.ckpt").read_bytes()
        payload = v2.split(b"\n", 1)[1]
        legacy = tmp_path / "legacy.ckpt"
        legacy.write_bytes(CHECKPOINT_MAGIC + b" 1\n" + payload)
        with pytest.raises(CheckpointVersionError, match="version 1"):
            SchemaSession.restore(legacy)

    @pytest.mark.parametrize("version", [2, 3])
    def test_refuses_older_checkpoint_versions(
        self, figure1_graph, tmp_path, version
    ):
        # v2 payloads carried per-session post-processing options (one
        # written with the full-scan option holds no accumulators); v3
        # payloads hold endpoint summaries as per-endpoint sets.  There
        # is no decoder for either, whatever the payload.
        session = SchemaSession(PGHiveConfig(seed=0))
        session.add_batch(figure1_graph)
        current = session.checkpoint(tmp_path / "current.ckpt")
        payload = current.read_bytes().split(b"\n", 1)[1]
        legacy = write_artifact(
            tmp_path / f"v{version}.ckpt", CHECKPOINT_MAGIC, version, payload
        )
        with pytest.raises(CheckpointVersionError, match=f"version {version}"):
            SchemaSession.restore(legacy)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            SchemaSession.restore(tmp_path / "absent.ckpt")

    def test_payload_is_a_plain_pickle_after_header(
        self, figure1_graph, tmp_path
    ):
        session = SchemaSession(PGHiveConfig(seed=0))
        session.add_batch(figure1_graph)
        path = session.checkpoint(tmp_path / "raw.ckpt")
        with open(path, "rb") as handle:
            handle.readline()
            payload = pickle.load(handle)
        assert payload["sequence"] == 1
        assert payload["schema_name"] == "session-schema"

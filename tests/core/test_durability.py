"""Unit tests for the durability primitives: artifacts, WAL, failpoints.

The WAL contract under test: strictly-increasing sequences, checksummed
records, rotation at the segment budget, torn-tail tolerance at the last
segment only, and pruning that never deletes a record a recovery after
the checkpoint could still need.
"""

import pytest

from repro.core.durability import (
    WriteAheadLog,
    atomic_write_bytes,
    payload_digest,
    read_artifact,
    write_artifact,
)
from repro.core.faults import FaultInjector, SimulatedCrash
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigurationError,
    WALCorruptError,
    WALError,
)

MAGIC = b"pghive-test"


def fill(log, first, last, payload=b"x" * 40):
    for sequence in range(first, last + 1):
        log.append(sequence, payload)


class TestAtomicArtifacts:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "artifact.bin"
        write_artifact(path, MAGIC, 3, b"payload bytes")
        assert read_artifact(path, MAGIC, version=3) == (3, b"payload bytes")

    def test_header_carries_digest_and_length(self, tmp_path):
        path = write_artifact(tmp_path / "a.bin", MAGIC, 1, b"abc")
        header = path.read_bytes().split(b"\n", 1)[0]
        magic, version, digest, length = header.split()
        assert magic == MAGIC
        assert digest.decode() == payload_digest(b"abc")
        assert int(length) == 3

    def test_typed_errors(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"not an artifact\n123")
        with pytest.raises(CheckpointFormatError):
            read_artifact(path, MAGIC, version=1)
        path.write_bytes(b"\x00" * 400)  # no newline in the header window
        with pytest.raises(CheckpointFormatError, match="header"):
            read_artifact(path, MAGIC, version=1)
        write_artifact(path, MAGIC, 9, b"abc")
        with pytest.raises(CheckpointVersionError):
            read_artifact(path, MAGIC, version=1)
        with pytest.raises(CheckpointError):
            read_artifact(tmp_path / "absent.bin", MAGIC, version=1)

    def test_corruption_is_detected(self, tmp_path):
        path = write_artifact(tmp_path / "a.bin", MAGIC, 1, b"sensitive" * 10)
        FaultInjector.corrupt_byte(path, 40)
        with pytest.raises(CheckpointCorruptError):
            read_artifact(path, MAGIC, version=1)

    def test_truncation_is_detected(self, tmp_path):
        path = write_artifact(tmp_path / "a.bin", MAGIC, 1, b"sensitive" * 10)
        FaultInjector.truncate_at(path, path.stat().st_size - 5)
        with pytest.raises(CheckpointCorruptError, match="bytes"):
            read_artifact(path, MAGIC, version=1)

    def test_v1_two_token_header_is_refused(self, tmp_path):
        path = tmp_path / "legacy.bin"
        path.write_bytes(MAGIC + b" 1\npayload")
        with pytest.raises(CheckpointVersionError, match="version 1"):
            read_artifact(path, MAGIC, version=2)

    def test_crash_before_replace_keeps_old_content(self, tmp_path):
        path = tmp_path / "a.bin"
        write_artifact(path, MAGIC, 1, b"old")
        with FaultInjector() as injector:
            injector.arm("atomic.before_replace")
            with pytest.raises(SimulatedCrash):
                write_artifact(path, MAGIC, 1, b"new")
        assert read_artifact(path, MAGIC, version=1) == (1, b"old")
        assert not (tmp_path / "a.bin.tmp").exists()

    def test_atomic_write_replaces_whole_file(self, tmp_path):
        path = tmp_path / "plain.bin"
        atomic_write_bytes(path, b"first version, quite long")
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"


class TestWALAppendReplay:
    def test_round_trip_and_after_filter(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as log:
            for sequence in range(1, 8):
                log.append(sequence, b"payload-%d" % sequence)
        log = WriteAheadLog(tmp_path, fsync="off")
        assert log.last_sequence == 7
        assert list(log.replay()) == [
            (sequence, b"payload-%d" % sequence) for sequence in range(1, 8)
        ]
        assert [sequence for sequence, _ in log.replay(after=5)] == [6, 7]

    def test_sequences_must_strictly_increase(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="off")
        log.append(1, b"a")
        log.append(5, b"gaps are fine")
        with pytest.raises(WALError, match="strictly increasing"):
            log.append(5, b"dup")
        with pytest.raises(WALError, match="strictly increasing"):
            log.append(2, b"rewind")

    def test_invalid_policy_and_bounds(self, tmp_path):
        with pytest.raises(ConfigurationError):
            WriteAheadLog(tmp_path, fsync="sometimes")
        with pytest.raises(ConfigurationError):
            WriteAheadLog(tmp_path, batch_every=0)
        with pytest.raises(ConfigurationError):
            WriteAheadLog(tmp_path, segment_bytes=4)

    @pytest.mark.parametrize("policy", ["always", "batch", "off"])
    def test_all_policies_replay_identically(self, tmp_path, policy):
        directory = tmp_path / policy
        with WriteAheadLog(directory, fsync=policy, batch_every=3) as log:
            fill(log, 1, 10)
        log = WriteAheadLog(directory, fsync="off")
        assert [sequence for sequence, _ in log.replay()] == list(range(1, 11))


class TestWALRotationAndPrune:
    def test_rotation_splits_segments(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="off", segment_bytes=200)
        fill(log, 1, 12)
        segments = log.segment_paths()
        assert len(segments) > 1
        assert segments[0].name == "wal-000000000001.seg"
        # Replay stitches the segments back together in order.
        assert [sequence for sequence, _ in log.replay()] == list(range(1, 13))

    def test_prune_keeps_everything_recovery_needs(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="off", segment_bytes=200)
        fill(log, 1, 30)
        before = len(log.segment_paths())
        assert before > 3
        checkpoint_at = 17
        log.prune(checkpoint_at)
        survivors = log.segment_paths()
        assert len(survivors) < before
        replayed = [sequence for sequence, _ in log.replay(after=checkpoint_at)]
        assert replayed == list(range(checkpoint_at + 1, 31))

    def test_prune_never_deletes_newest_segment(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="off", segment_bytes=200)
        fill(log, 1, 12)
        log.prune(10_000)
        assert len(log.segment_paths()) == 1
        assert log.last_sequence == 12


class TestWALTornTail:
    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as log:
            fill(log, 1, 10)
            last = log.segment_paths()[-1]
        FaultInjector.truncate_at(last, last.stat().st_size - 3)
        log = WriteAheadLog(tmp_path, fsync="off")
        assert log.last_sequence == 9
        assert [sequence for sequence, _ in log.replay()] == list(range(1, 10))
        # The log accepts new appends at the repaired position.
        log.append(10, b"retry")
        assert log.last_sequence == 10

    def test_fully_torn_segment_does_not_block_reuse(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off", segment_bytes=200) as log:
            fill(log, 1, 12)
            last = log.segment_paths()[-1]
            first_of_last = int(last.name[4:16])
        # Tear away every record of the last segment, header included.
        FaultInjector.truncate_at(last, 3)
        log = WriteAheadLog(tmp_path, fsync="off", segment_bytes=200)
        assert log.last_sequence == first_of_last - 1
        log.append(first_of_last, b"reused name")
        assert log.last_sequence == first_of_last

    def test_corrupt_record_with_valid_tail_raises_on_open(self, tmp_path):
        """A bit flip mid-last-segment with intact records after it is
        corruption, not a torn tail: opening must raise instead of
        silently truncating fsync-acknowledged records."""
        with WriteAheadLog(tmp_path, fsync="always") as log:
            fill(log, 1, 10)
            last = log.segment_paths()[-1]
        # Flip a byte inside the first record's payload: records 2..10
        # still parse cleanly after it.
        FaultInjector.corrupt_byte(last, 40)
        with pytest.raises(WALCorruptError, match="followed by valid"):
            WriteAheadLog(tmp_path, fsync="off")

    def test_corrupt_header_with_valid_records_raises_on_open(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="always") as log:
            fill(log, 1, 10)
            last = log.segment_paths()[-1]
        FaultInjector.corrupt_byte(last, 0)
        with pytest.raises(WALCorruptError, match="holds valid records"):
            WriteAheadLog(tmp_path, fsync="off")

    def test_mid_history_corruption_raises(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="off", segment_bytes=200)
        fill(log, 1, 20)
        log.close()
        sealed = log.segment_paths()[0]
        FaultInjector.corrupt_byte(sealed, sealed.stat().st_size - 2)
        fresh = WriteAheadLog(tmp_path, fsync="off", segment_bytes=200)
        with pytest.raises(WALCorruptError):
            list(fresh.replay())

    def test_corrupt_sealed_header_raises_on_open(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="off", segment_bytes=200)
        fill(log, 1, 20)
        log.close()
        sealed = log.segment_paths()[0]
        FaultInjector.corrupt_byte(sealed, 0)
        with pytest.raises(WALCorruptError):
            list(WriteAheadLog(tmp_path, fsync="off").replay())


class TestWALRollback:
    def test_rollback_last_removes_the_record(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="off")
        log.append(1, b"a")
        log.append(2, b"rejected")
        log.rollback_last()
        assert log.last_sequence == 1
        # The freed sequence is appendable again (no monotonicity trip).
        log.append(2, b"accepted")
        log.close()
        replayed = list(WriteAheadLog(tmp_path, fsync="off").replay())
        assert replayed == [(1, b"a"), (2, b"accepted")]

    def test_rollback_requires_a_preceding_append(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="off")
        with pytest.raises(WALError, match="roll back"):
            log.rollback_last()
        log.append(1, b"a")
        log.rollback_last()
        with pytest.raises(WALError, match="roll back"):
            log.rollback_last()

    def test_rollback_after_rotation(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="off", segment_bytes=200)
        fill(log, 1, 6)
        segments_before = len(log.segment_paths())
        assert segments_before > 1
        log.append(7, b"rejected, lands in a fresh or full segment")
        log.rollback_last()
        assert log.last_sequence == 6
        log.append(7, b"retry")
        log.close()
        replayed = [s for s, _ in WriteAheadLog(tmp_path, fsync="off").replay()]
        assert replayed == list(range(1, 8))

    def test_drop_tail_record(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as log:
            fill(log, 1, 5)
        log = WriteAheadLog(tmp_path, fsync="off")
        log.drop_tail_record(5)
        assert log.last_sequence == 4
        assert [s for s, _ in log.replay()] == [1, 2, 3, 4]

    def test_drop_tail_record_refuses_non_tail(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off") as log:
            fill(log, 1, 5)
        log = WriteAheadLog(tmp_path, fsync="off")
        with pytest.raises(WALError, match="tail record"):
            log.drop_tail_record(3)

    def test_drop_sole_record_of_a_segment(self, tmp_path):
        with WriteAheadLog(tmp_path, fsync="off", segment_bytes=200) as log:
            fill(log, 1, 12)
        log = WriteAheadLog(tmp_path, fsync="off", segment_bytes=200)
        tail = log.last_sequence
        records_in_last = sum(
            1 for s, _ in log.replay()
            if s >= int(log.segment_paths()[-1].name[4:16])
        )
        for expected in range(tail, tail - records_in_last, -1):
            log.drop_tail_record(expected)
        # The emptied segment was unlinked; the position rewound into
        # the previous segment.
        assert log.last_sequence == tail - records_in_last
        log.append(log.last_sequence + 1, b"resume")


class TestFailpoints:
    def test_crash_after_n_hits(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="off")
        with FaultInjector() as injector:
            injector.arm("wal.after_append", after=2)
            log.append(1, b"a")
            log.append(2, b"b")
            with pytest.raises(SimulatedCrash):
                log.append(3, b"c")
        assert injector.log.count("wal.after_append") == 3

    def test_callable_action_sees_context(self, tmp_path):
        seen = {}

        def probe(point, context):
            seen.update(context)

        log = WriteAheadLog(tmp_path, fsync="always")
        with FaultInjector() as injector:
            injector.arm("wal.before_fsync", probe)
            log.append(1, b"a")
        assert seen["path"].endswith(".seg")

    def test_single_injector_at_a_time(self):
        with FaultInjector():
            with pytest.raises(ConfigurationError):
                FaultInjector().__enter__()

    def test_fire_is_inert_without_injector(self, tmp_path):
        log = WriteAheadLog(tmp_path, fsync="always")
        log.append(1, b"a")  # every failpoint on this path is a no-op
        assert log.last_sequence == 1

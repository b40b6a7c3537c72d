"""WAL wire encoding of change-sets: round trips and version pinning.

The critical property for columnar payloads: interner ids are
process-local and must never survive serialisation, so a batch encoded
in one process decodes correctly against a *different* interner whose id
assignments disagree.
"""

import hashlib
import pickle
import zlib

import pytest

from repro.graph.changes import ChangeSet
from repro.graph.columnar import BatchBuilder, Interner, global_interner
from repro.graph.model import Edge, Node
from repro.errors import WALError


def element_change_set():
    nodes = [
        Node("alice", {"Person"}, {"name": "Alice", "age": 7}),
        Node("acme", {"Org", "Company"}, {"name": "Acme"}),
    ]
    edges = [Edge("e1", "alice", "acme", {"WORKS_AT"}, {"since": 2020})]
    return ChangeSet(
        nodes=nodes,
        edges=edges,
        delete_nodes=["ghost"],
        delete_edges=["old-edge"],
        stub_node_ids=frozenset({"acme"}),
    )


class TestElementWire:
    """Element inserts convert to columnar before they are logged, so
    they have no wire form of their own."""

    def test_element_change_set_has_no_wire_form(self):
        with pytest.raises(WALError, match="no wire form"):
            element_change_set().to_wire()

    def test_element_frame_is_refused(self):
        # The frame earlier builds wrote for element inserts.
        record = {
            "version": 2,
            "delete_nodes": [],
            "delete_edges": [],
            "stubs": [],
            "kind": "elements",
            "nodes": [("alice", ["Person"], {"name": "Alice"})],
            "edges": [],
        }
        frame = b"\x02" + zlib.compress(pickle.dumps(record))
        with pytest.raises(WALError, match="element-wise insert frame"):
            ChangeSet.from_wire(frame)

    def test_deletion_only(self):
        original = ChangeSet.deletions(nodes=["a"], edges=["b"])
        decoded = ChangeSet.from_wire(original.to_wire())
        assert decoded.delete_nodes == ["a"]
        assert decoded.delete_edges == ["b"]
        assert not decoded.has_inserts
        assert decoded.columnar is None


class TestColumnarWire:
    def build(self, interner):
        builder = BatchBuilder(interner)
        person = interner.intern_labels(["Person"])
        org = interner.intern_labels(["Org"])
        keys = interner.intern_keys(["age", "name"])
        builder.add_node("alice", person, keys, ("Alice", 7))
        builder.add_node("acme", org, keys, ("Acme", 99))
        builder.add_edge(
            "e1",
            "alice",
            "acme",
            interner.intern_labels(["WORKS_AT"]),
            interner.intern_keys(["since"]),
            (2020,),
        )
        return ChangeSet(columnar=builder.freeze(), stub_node_ids=frozenset({"acme"}))

    def test_round_trip_across_disagreeing_interners(self):
        writer = Interner()
        # Skew the reader's id space so any leaked id would mis-resolve.
        reader = Interner()
        reader.intern_labels(["Decoy1"])
        reader.intern_labels(["Decoy2"])
        reader.intern_keys(["zz"])

        wire = self.build(writer).to_wire()
        decoded = ChangeSet.from_wire(wire, interner=reader)
        batch = decoded.columnar
        assert batch is not None and batch.interner is reader
        assert list(batch.nodes.ids) == ["alice", "acme"]
        labelset_id, keyset_id, values = batch.node_record(0)
        assert reader.labelset(labelset_id).labels == frozenset({"Person"})
        assert reader.keyset(keyset_id).keys == ("age", "name")
        assert tuple(values) == ("Alice", 7)
        src, tgt, labelset_id, keyset_id, values = batch.edge_record(0)
        assert (src, tgt) == ("alice", "acme")
        assert reader.labelset(labelset_id).labels == frozenset({"WORKS_AT"})
        assert tuple(values) == (2020,)
        assert decoded.stub_node_ids == frozenset({"acme"})

    def test_decodes_against_global_interner_by_default(self):
        wire = self.build(Interner()).to_wire()
        decoded = ChangeSet.from_wire(wire)
        assert decoded.columnar.interner is global_interner()


class TestWireErrors:
    def test_garbage_payload(self):
        with pytest.raises(WALError, match="undecodable"):
            ChangeSet.from_wire(b"\x00\x01 not a pickle")

    def test_wrong_version(self):
        import pickle

        wire = pickle.dumps({"version": 999})
        with pytest.raises(WALError, match="version"):
            ChangeSet.from_wire(wire)

    def test_non_dict_record(self):
        import pickle

        with pytest.raises(WALError, match="version"):
            ChangeSet.from_wire(pickle.dumps([1, 2, 3]))

    def test_version_one_raw_pickle_frame_is_refused(self):
        import pickle

        legacy = pickle.dumps(
            {
                "version": 1,
                "kind": "columnar",
                "delete_nodes": [],
                "delete_edges": [],
                "stubs": [],
                "node_rows": [("a", ["P"], ("x",), (1,))],
                "edge_rows": [],
            }
        )
        with pytest.raises(WALError, match="version-2 frame"):
            ChangeSet.from_wire(legacy)

    def test_v2_frame_with_other_version_is_refused(self):
        import pickle
        import zlib

        for version in (1, 3):
            frame = b"\x02" + zlib.compress(
                pickle.dumps({"version": version, "kind": "columnar"})
            )
            with pytest.raises(WALError, match="unsupported"):
                ChangeSet.from_wire(frame)


# ----------------------------------------------------------------------
# Byte-level regression pins
# ----------------------------------------------------------------------
def _builder():
    interner = Interner()
    return interner, BatchBuilder(interner)


def _pin_labelled():
    interner, builder = _builder()
    person = interner.intern_labels(["Person"])
    org = interner.intern_labels(["Org", "Company"])
    person_keys = interner.intern_keys(["age", "name"])
    org_keys = interner.intern_keys(["name"])
    for i in range(6):
        builder.add_node(f"p{i}", person, person_keys, (20 + i, f"person-{i}"))
    builder.add_node("acme", org, org_keys, ("Acme",))
    works = interner.intern_labels(["WORKS_AT"])
    since = interner.intern_keys(["since"])
    for i in range(6):
        builder.add_edge(f"w{i}", f"p{i}", "acme", works, since, (2000 + i,))
    return ChangeSet(columnar=builder.freeze())


def _pin_unlabeled_noisy():
    interner, builder = _builder()
    unlabeled = interner.intern_labels([])
    key_pool = ["a", "b", "c", "d", "noise"]
    for i in range(12):
        keys = tuple(key for j, key in enumerate(key_pool) if (i >> j) & 1)
        keyset = interner.intern_keys(keys)
        builder.add_node(
            f"u{i}", unlabeled, keyset, tuple(f"{key}{i}" for key in keys)
        )
    rel = interner.intern_labels([])
    for i in range(5):
        builder.add_edge(
            f"r{i}", f"u{i}", f"u{i + 1}", rel,
            interner.intern_keys(["w"] if i % 2 else []),
            (i * 0.25,) if i % 2 else (),
        )
    return ChangeSet(columnar=builder.freeze())


def _pin_stubs_and_deletions():
    interner, builder = _builder()
    city = interner.intern_labels(["City"])
    keys = interner.intern_keys(["name", "pop"])
    for i in range(4):
        builder.add_node(f"c{i}", city, keys, (f"city-{i}", i * 1000))
    road = interner.intern_labels(["ROAD"])
    no_keys = interner.intern_keys([])
    for i in range(3):
        builder.add_edge(f"road{i}", f"c{i}", f"c{i + 1}", road, no_keys, ())
    return ChangeSet(
        columnar=builder.freeze(),
        stub_node_ids=frozenset({"c0", "c3"}),
        delete_nodes=["gone-1", "gone-0"],
        delete_edges=["old-road"],
    )


def _pin_empty_keysets():
    interner, builder = _builder()
    tag = interner.intern_labels(["Tag"])
    bare = interner.intern_labels([])
    no_keys = interner.intern_keys([])
    builder.add_node("t0", tag, no_keys, ())
    builder.add_node("t1", bare, no_keys, ())
    builder.add_edge("l0", "t0", "t1", bare, no_keys, ())
    return ChangeSet(columnar=builder.freeze())


def _pin_mixed_values():
    interner, builder = _builder()
    thing = interner.intern_labels(["Thing"])
    keys = interner.intern_keys(["f", "flag", "items", "missing", "text"])
    shared = "shared-" * 8  # one object in several rows: pickle memoises it
    rows = [
        (1.5, True, [1, 2], None, shared),
        (float("inf"), False, [], None, shared),
        (-0.0, None, ["x", [3]], 7, "solo"),
        (2, True, [1, 2], "", shared),
    ]
    for i, values in enumerate(rows):
        builder.add_node(f"m{i}", thing, keys, values)
    link = interner.intern_labels(["LINK"])
    for i in range(3):
        builder.add_edge(
            f"m-e{i}", f"m{i}", f"m{i + 1}", link,
            interner.intern_keys(["weight", "note"]),
            (None, i / 3),
        )
    return ChangeSet(columnar=builder.freeze(), stub_node_ids=frozenset({"m3"}))


#: blake2b digests of ``to_wire()`` recorded before the row-view encoder
#: replaced per-cell value lookups.  The wire format must never drift
#: silently: a deliberate change bumps ``WIRE_VERSION`` and these pins.
WIRE_PINS = {
    "deletions_only": (
        lambda: ChangeSet.deletions(nodes=["a", "b"], edges=["c"]),
        "73a5979b3c5f6b2c1fab1c43f70977f0a2dc646880e4ef2f19bc745bff806acc",
    ),
    "empty_keysets": (
        _pin_empty_keysets,
        "b5a9bbb33df554c0199fb9ddc7db5ee3a28fe432ef305170a08830ca042dd747",
    ),
    "labelled": (
        _pin_labelled,
        "daaa9359b6a339b980ee2696731fca98325eb620fb8e49ebdeb5a88120779d30",
    ),
    "mixed_values": (
        _pin_mixed_values,
        "83c305a7b388a34a6aa273cf0512bf4cb9f83b8a21f3da615290b0a799e1dcdc",
    ),
    "stubs_and_deletions": (
        _pin_stubs_and_deletions,
        "cdbbb30d40fe02c943b2732bbe71147cf02f96c531156bc19ffd618e6fa2408a",
    ),
    "unlabeled_noisy": (
        _pin_unlabeled_noisy,
        "6ff0d1a23d5b0f776f49e0a88c5e9c932ac7c3d1b457749ce8d8744a03528b14",
    ),
}


def wire_digest(change_set: ChangeSet) -> str:
    return hashlib.blake2b(change_set.to_wire(), digest_size=32).hexdigest()


@pytest.mark.parametrize("name", sorted(WIRE_PINS))
def test_wire_bytes_are_pinned(name):
    """``to_wire`` output is byte-for-byte what earlier builds wrote."""
    build, digest = WIRE_PINS[name]
    assert wire_digest(build()) == digest


@pytest.mark.parametrize("name", sorted(WIRE_PINS))
def test_decoded_change_sets_reencode_identically(name):
    """Decoding against a fresh interner and re-encoding is lossless."""
    wire = WIRE_PINS[name][0]().to_wire()
    assert ChangeSet.from_wire(wire, interner=Interner()).to_wire() == wire

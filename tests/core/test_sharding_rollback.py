"""Regression: a rejected change-set leaves the coordinator untouched.

PGL802 flagged the original ordering in ``ShardedSchemaSession.apply``:
the node registry was seeded and the interner pinned *before*
partitioning/dispatch, so a change-set rejected mid-way (e.g. a dangling
edge) left ghost registry entries and a poisoned pin behind -- the same
bug class as PR 7's rejected-changeset poisoning.  These tests pin the
compensating rollback.
"""

import pytest

from repro.core.config import PGHiveConfig
from repro.core.sharding import ShardedSchemaSession
from repro.errors import ConfigurationError, DanglingEdgeError
from repro.graph.changes import ChangeSet
from repro.graph.columnar import ElementBatch, Interner
from repro.graph.model import Edge, Node

from tests.core.test_sharding import feed


def _bad_change_set() -> ChangeSet:
    return ChangeSet.inserts(
        nodes=[Node("vX", {"Person"}, {"person_id": 99})],
        edges=[Edge("rX", "vX", "missing-node", {"R"}, {})],
    )


def test_rejected_changeset_rolls_back_coordinator_state():
    session = ShardedSchemaSession(
        PGHiveConfig(seed=1), n_shards=2, retain_union=True
    )
    session.apply(feed(1)[0])
    sequence = session.sequence
    registry_before = dict(session._registry)
    pinned_before = session._interner_pinned

    with pytest.raises(DanglingEdgeError):
        session.apply(_bad_change_set())

    # As if the batch never happened: no ghost registry entries, no
    # sequence bump, no report, no interner pin.
    assert "vX" not in session._registry
    assert session._registry == registry_before
    assert session.sequence == sequence
    assert len(session.reports) == sequence
    assert session._interner_pinned == pinned_before


def test_session_stays_usable_after_rejection():
    session = ShardedSchemaSession(
        PGHiveConfig(seed=1), n_shards=2, retain_union=True
    )
    change_sets = feed(2)
    session.apply(change_sets[0])
    with pytest.raises(DanglingEdgeError):
        session.apply(_bad_change_set())
    report = session.apply(change_sets[1])
    assert report.sequence == 2
    # The rejected batch's nodes are gone; the healthy batches' survive.
    assert all(
        node.node_id in session._registry for node in change_sets[1].nodes
    )


def test_rejected_deletions_do_not_commit():
    session = ShardedSchemaSession(
        PGHiveConfig(seed=1), n_shards=2, retain_union=True
    )
    session.apply(feed(1)[0])
    target = next(iter(session._registry))
    mixed = ChangeSet(
        nodes=(),
        edges=(Edge("rX", "vX", "missing-node", {"R"}, {}),),
        delete_nodes=frozenset({target}),
    )
    with pytest.raises(DanglingEdgeError):
        session.apply(mixed)
    # The union registry still holds the node the rejected batch asked
    # to delete: deletions commit only after dispatch succeeds.
    assert target in session._registry


def test_foreign_interner_after_element_pin_rolls_back():
    session = ShardedSchemaSession(
        PGHiveConfig(seed=1), n_shards=2, retain_union=True
    )
    # Element inserts convert on the session interner and pin it.
    session.apply(feed(1)[0])
    assert session._interner_pinned
    interner_before = session._interner
    registry_before = dict(session._registry)
    foreign = ChangeSet.inserts_columnar(
        ElementBatch.from_elements(
            [Node("vY", {"Person"}, {"person_id": 7})], interner=Interner()
        )
    )
    with pytest.raises(ConfigurationError, match="share one Interner"):
        session.apply(foreign)
    assert session._interner is interner_before
    assert session._registry == registry_before
    assert session.sequence == 1
    assert len(session.reports) == 1

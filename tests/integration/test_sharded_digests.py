"""Regression pin: sharded discovery output on change feeds.

Each case feeds :class:`ChangeSet`\\ s to a :class:`ShardedSchemaSession`
and compares a blake2b digest of the merged schema fingerprint against a
recorded value.  The feeds cover:

* registry datasets with 20% property noise, grouped into columnar
  change-sets by :func:`changesets_from_elements` (edges of later
  change-sets ship producer stub rows of earlier nodes);
* the small labelled feed of ``tests/core/test_sharding.py``, whose edges
  reference earlier change-sets' nodes *without* stubs, so the
  coordinator resolves them from its node registry (serial and process
  shards);
* the same feed with node and edge deletions mixed in.

A last case checks that checkpointing mid-stream, restoring from the
manifest and finishing the feed lands on the uncrashed run's digest.

Regenerate (only for a deliberate, explained output change) by pasting
the table this prints::

    PYTHONPATH=src python -m tests.integration.test_sharded_digests
"""

import hashlib
from functools import lru_cache

import pytest

from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.sharding import ShardedSchemaSession
from repro.datasets.noise import apply_noise
from repro.datasets.registry import load_dataset
from repro.graph.changes import ChangeSet
from repro.graph.columnar import changesets_from_elements
from repro.schema.model import schema_fingerprint

from tests.core.test_sharding import feed

NODES = 800
PROPERTY_NOISE = 0.2
BATCH_SIZE = 300
N_SHARDS = 2
DATASETS = ("LDBC", "POLE", "ICIJ", "FIB25")

#: (feed, method, label availability, mode) -> digest
EXPECTED: dict[tuple[str, str, float, str], str] = {
    ('LDBC', 'minhash', 1.0, 'serial'): '55df945e32540d8c541e59b10c424e13',
    ('LDBC', 'minhash', 0.0, 'serial'): '80f2309a76f8c5c810ed26d096e4ce59',
    ('LDBC', 'elsh', 1.0, 'serial'): '360015802bbd4070a172f91db1f2e239',
    ('LDBC', 'elsh', 0.0, 'serial'): '80f2309a76f8c5c810ed26d096e4ce59',
    ('POLE', 'minhash', 1.0, 'serial'): '7c3c905ba54a093288d335946673893a',
    ('POLE', 'minhash', 0.0, 'serial'): '1c4dc316947f023962f8e4ac469bfc67',
    ('POLE', 'elsh', 1.0, 'serial'): '7c3c905ba54a093288d335946673893a',
    ('POLE', 'elsh', 0.0, 'serial'): '3960b7ee60e07d033adfddd90b87ec17',
    ('ICIJ', 'minhash', 1.0, 'serial'): '8f317b37b52aec66bbb0de6ba8bf6972',
    ('ICIJ', 'minhash', 0.0, 'serial'): '205cdec7365dc7c60be2ea492e2755e5',
    ('ICIJ', 'elsh', 1.0, 'serial'): '8f317b37b52aec66bbb0de6ba8bf6972',
    ('ICIJ', 'elsh', 0.0, 'serial'): '27ef73c7649f2c32ace28f79704da49d',
    ('FIB25', 'minhash', 1.0, 'serial'): '78711bc2cf1f228c67683fccbd4ca97d',
    ('FIB25', 'minhash', 0.0, 'serial'): '6c4c99f7dfed03c29a122d87bb26ebea',
    ('FIB25', 'elsh', 1.0, 'serial'): '78711bc2cf1f228c67683fccbd4ca97d',
    ('FIB25', 'elsh', 0.0, 'serial'): '6dfc2573a07cb928ff405f1d39d94253',
    ('feed', 'minhash', 1.0, 'serial'): '109c01f66e1f491fb7d6b6830d0928ff',
    ('feed', 'minhash', 1.0, 'parallel'): '109c01f66e1f491fb7d6b6830d0928ff',
    ('deletions', 'minhash', 1.0, 'serial'): '990e250bbbda30f22a320cd21d1a274e',
}


def cases():
    for name in DATASETS:
        for method in ("minhash", "elsh"):
            for labels in (1.0, 0.0):
                yield name, method, labels, "serial"
    yield "feed", "minhash", 1.0, "serial"
    yield "feed", "minhash", 1.0, "parallel"
    yield "deletions", "minhash", 1.0, "serial"


def config(method: str) -> PGHiveConfig:
    # A short Word2Vec run keeps the suite fast; training is not under test.
    return PGHiveConfig(
        method=ClusteringMethod(method),
        seed=3,
        infer_keys=True,
        embedding_epochs=1,
        max_corpus_sentences=1000,
    )


@lru_cache(maxsize=2)
def noisy_graph(name: str, labels: float):
    dataset = load_dataset(name, nodes=NODES, seed=1)
    return apply_noise(dataset, PROPERTY_NOISE, labels, seed=2).graph


def deletion_feed() -> list[ChangeSet]:
    """``feed()`` with node/edge deletions between and inside change-sets.

    Deleted nodes are ones no later edge references, so every edge of the
    feed stays resolvable.
    """
    change_sets = feed(6)
    later = {
        endpoint
        for change_set in change_sets[3:]
        for edge in change_set.edges
        for endpoint in edge.endpoints()
    }
    earlier = [n.node_id for cs in change_sets[:3] for n in cs.nodes]
    doomed = [node_id for node_id in earlier if node_id not in later][:2]
    change_sets.insert(3, ChangeSet.deletions(nodes=doomed, edges=["r2"]))
    last = change_sets[-1]
    change_sets[-1] = ChangeSet(
        nodes=last.nodes,
        edges=last.edges,
        delete_nodes=[earlier[-1]],
        delete_edges=["r4", "r7"],
    )
    return change_sets


def change_feed(name: str, labels: float) -> list[ChangeSet]:
    if name == "feed":
        return feed(6)
    if name == "deletions":
        return deletion_feed()
    graph = noisy_graph(name, labels)
    elements = [*graph.nodes(), *graph.edges()]
    return list(changesets_from_elements(elements, batch_size=BATCH_SIZE))


def schema_digest(schema) -> str:
    fingerprint = repr(schema_fingerprint(schema)).encode()
    return hashlib.blake2b(fingerprint, digest_size=16).hexdigest()


def digest(name: str, method: str, labels: float, mode: str) -> str:
    with ShardedSchemaSession(
        config(method),
        n_shards=N_SHARDS,
        parallel=mode == "parallel",
        retain_union=name == "deletions",
    ) as session:
        for change_set in change_feed(name, labels):
            session.apply(change_set)
        return schema_digest(session.schema())


@pytest.mark.parametrize("case", list(cases()), ids=lambda c: "-".join(map(str, c)))
def test_sharded_element_feed_digest_is_pinned(case):
    assert digest(*case) == EXPECTED[case]


def test_restored_manifest_continues_to_the_uncrashed_digest(tmp_path):
    change_sets = deletion_feed()
    session = ShardedSchemaSession(
        config("minhash"), n_shards=N_SHARDS, retain_union=True
    )
    for change_set in change_sets[:4]:
        session.apply(change_set)
    directory = session.checkpoint(tmp_path / "ck")
    resumed = ShardedSchemaSession.restore(directory)
    for change_set in change_sets[4:]:
        resumed.apply(change_set)
    expected = EXPECTED[("deletions", "minhash", 1.0, "serial")]
    assert schema_digest(resumed.schema()) == expected


if __name__ == "__main__":
    print("EXPECTED: dict[tuple[str, str, float, str], str] = {")
    for case in cases():
        print(f"    {case!r}: {digest(*case)!r},")
    print("}")

"""Regression pin: discovery output on every registry dataset.

Each case runs :meth:`PGHive.discover` (or a 5-batch
:meth:`PGHive.discover_incremental`) over a ~1000-node registry dataset
with 20% property noise and compares a blake2b digest of the schema
fingerprint against a recorded value.  The digests were recorded before
element inputs were routed through the columnar pipeline, so any change
to what discovery asserts on element inputs fails here.

Regenerate (only for a deliberate, explained output change) by pasting
the table this prints::

    PYTHONPATH=src python tests/integration/test_discover_digests.py
"""

import hashlib
from functools import lru_cache

import pytest

from repro.core.config import ClusteringMethod, PGHiveConfig
from repro.core.pipeline import PGHive
from repro.datasets.noise import apply_noise
from repro.datasets.registry import dataset_names, load_dataset
from repro.graph.batching import split_into_batches
from repro.schema.model import schema_fingerprint

NODES = 1000
PROPERTY_NOISE = 0.2

#: (dataset, method, label availability, mode) -> digest
EXPECTED: dict[tuple[str, str, float, str], str] = {
    ('POLE', 'elsh', 1.0, 'static'): 'c798f4c46037ba86d305b974e8e1e1a6',
    ('POLE', 'elsh', 0.0, 'static'): '9cf4a40ddbf7ebb3cca674eacdefcaab',
    ('POLE', 'minhash', 1.0, 'static'): 'c798f4c46037ba86d305b974e8e1e1a6',
    ('POLE', 'minhash', 0.0, 'static'): '9cf4a40ddbf7ebb3cca674eacdefcaab',
    ('POLE', 'elsh', 1.0, 'incremental'): '6ff3104307eef6c2b586ad8955f13983',
    ('MB6', 'elsh', 1.0, 'static'): '5a2204733cc167b6f9349c7b560b67ff',
    ('MB6', 'elsh', 0.0, 'static'): '4dcc81b40168b60dff7a623055411ad3',
    ('MB6', 'minhash', 1.0, 'static'): '5a2204733cc167b6f9349c7b560b67ff',
    ('MB6', 'minhash', 0.0, 'static'): 'f45a41ee7b9a7864f9db890b3a0db13f',
    ('MB6', 'elsh', 1.0, 'incremental'): '5a2204733cc167b6f9349c7b560b67ff',
    ('HET.IO', 'elsh', 1.0, 'static'): '2007f2325a0c21ba38bfdc8fedd71473',
    ('HET.IO', 'elsh', 0.0, 'static'): 'ef8350fff2ea8f1699af7a7e4d6cb261',
    ('HET.IO', 'minhash', 1.0, 'static'): 'b2ae37f9ad167a9251d96aa837daaf0a',
    ('HET.IO', 'minhash', 0.0, 'static'): '5107d4d2d61dd1e83557203ca557811e',
    ('HET.IO', 'elsh', 1.0, 'incremental'): '769189ffff39cf0997bc388d00b00d99',
    ('FIB25', 'elsh', 1.0, 'static'): 'c0b291af9a1dd9af5c0c13808b36a47b',
    ('FIB25', 'elsh', 0.0, 'static'): '39ef0a6ad748a852c2efba2fa04a833d',
    ('FIB25', 'minhash', 1.0, 'static'): 'c0b291af9a1dd9af5c0c13808b36a47b',
    ('FIB25', 'minhash', 0.0, 'static'): 'be40dcdd1213c78cc9730be748843883',
    ('FIB25', 'elsh', 1.0, 'incremental'): 'c0b291af9a1dd9af5c0c13808b36a47b',
    ('ICIJ', 'elsh', 1.0, 'static'): '69cb1cb269947e48a578950e4f0585e3',
    ('ICIJ', 'elsh', 0.0, 'static'): '7692072b2070f6a96d80eb56d2d63452',
    ('ICIJ', 'minhash', 1.0, 'static'): '69cb1cb269947e48a578950e4f0585e3',
    ('ICIJ', 'minhash', 0.0, 'static'): '5d2e99ce261b526f4fee1ff509b2cbf8',
    ('ICIJ', 'elsh', 1.0, 'incremental'): 'c0eb9aa49982fe4dde56c7b9f97b2f42',
    ('LDBC', 'elsh', 1.0, 'static'): '68d73165179166a01104f87ff851edad',
    ('LDBC', 'elsh', 0.0, 'static'): '95c7921425e36f15698434de329e11fe',
    ('LDBC', 'minhash', 1.0, 'static'): '68d73165179166a01104f87ff851edad',
    ('LDBC', 'minhash', 0.0, 'static'): '39a27c360a4e7f06b8fe364285d36a15',
    ('LDBC', 'elsh', 1.0, 'incremental'): '68d73165179166a01104f87ff851edad',
    ('CORD19', 'elsh', 1.0, 'static'): 'dd59dcfe1532ff031162f6e98a5e0bd2',
    ('CORD19', 'elsh', 0.0, 'static'): '388ccb690b76089ed47cadc523b77370',
    ('CORD19', 'minhash', 1.0, 'static'): 'dd59dcfe1532ff031162f6e98a5e0bd2',
    ('CORD19', 'minhash', 0.0, 'static'): '388ccb690b76089ed47cadc523b77370',
    ('CORD19', 'elsh', 1.0, 'incremental'): 'dd59dcfe1532ff031162f6e98a5e0bd2',
    ('IYP', 'elsh', 1.0, 'static'): '55e0f436f789208859601dae921e3fc0',
    ('IYP', 'elsh', 0.0, 'static'): '2c199cc7c8eacff8eae6eae5436003f2',
    ('IYP', 'minhash', 1.0, 'static'): 'f51e33386949186497ce3e3c7730453e',
    ('IYP', 'minhash', 0.0, 'static'): 'fc3d45e5f7af6f5b338a892bec860894',
    ('IYP', 'elsh', 1.0, 'incremental'): 'e6c46ccebb1eddc5d94312f2ae71bb25',
}


def cases():
    for name in dataset_names():
        for method in ("elsh", "minhash"):
            for labels in (1.0, 0.0):
                yield name, method, labels, "static"
        yield name, "elsh", 1.0, "incremental"


# Cases of one dataset run consecutively and never mutate the graph.
@lru_cache(maxsize=1)
def dataset(name: str):
    return load_dataset(name, nodes=NODES, seed=1)


@lru_cache(maxsize=2)
def noisy_graph(name: str, labels: float):
    return apply_noise(dataset(name), PROPERTY_NOISE, labels, seed=2).graph


def digest(name: str, method: str, labels: float, mode: str) -> str:
    graph = noisy_graph(name, labels)
    # A short Word2Vec run keeps the suite fast; training is not under test.
    config = PGHiveConfig(
        method=ClusteringMethod(method),
        seed=3,
        embedding_epochs=1,
        max_corpus_sentences=1000,
    )
    hive = PGHive(config)
    if mode == "static":
        result = hive.discover(graph)
    else:
        result = hive.discover_incremental(
            split_into_batches(graph, 5, seed=4)
        )
    fingerprint = repr(schema_fingerprint(result.schema)).encode()
    return hashlib.blake2b(fingerprint, digest_size=16).hexdigest()


@pytest.mark.parametrize("case", list(cases()), ids=lambda c: "-".join(map(str, c)))
def test_discover_digest_is_pinned(case):
    assert digest(*case) == EXPECTED[case]


if __name__ == "__main__":
    print("EXPECTED: dict[tuple[str, str, float, str], str] = {")
    for case in cases():
        print(f"    {case!r}: {digest(*case)!r},")
    print("}")

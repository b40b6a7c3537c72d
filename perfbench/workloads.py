"""Workload definitions shared by the feed generator and the measuring phases.

Pure data: importing this module touches nothing under ``src/``.  Each
workload names the Table-2 generators that make its feed, how the feed
is perturbed, how it is cut into change-sets, the session configuration
it drives, and the read/checkpoint cadence of the closed measuring loop.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bump when the feed generator's output changes, so cached feeds of an
#: older generator are never reused.
FEED_VERSION = 2

#: share of the feed's change-sets covered by the base checkpoint.
BASE_SHARE = 0.25
#: periodic checkpoints are ``CHECKPOINT_EVERY`` change-sets apart, aligned
#: so that the newest one lies ``REPLAY_TAIL`` change-sets before the end
#: of the feed: every crash recovery then replays exactly ``REPLAY_TAIL``
#: WAL records, whatever the feed length of the seed.
CHECKPOINT_EVERY = 25
REPLAY_TAIL = 8
#: timed recoveries per repetition, each from its own copy of the crashed
#: directory.
CRASH_COPIES = 3
#: shard count of the sharded workload (= cores of the 2-core reference
#: machine, plus the coordinator process).
N_SHARDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: (generator name, node count) pairs mixed into one feed.
    datasets: tuple[tuple[str, int], ...]
    #: fraction of node labels kept (1.0 = fully labelled).
    label_availability: float = 1.0
    #: probability that each property is dropped (datasets.noise).
    property_noise: float = 0.0
    #: fresh elements per change-set.
    batch_size: int = 1000
    #: deletions per change-set, as a share of its fresh inserts.
    delete_share: float = 0.0
    #: "minhash" (MinHash + AND + structural dedup) or "elsh".
    method: str = "minhash"
    #: two parallel durable shards instead of one durable session.
    sharded: bool = False
    #: a dirty ``schema()`` read after every ``read_every`` change-sets.
    read_every: int = 4


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="durable_ingest",
            why=(
                "labelled IYP+LDBC+CORD19 mix through the durable MinHash+dedup "
                "session: codec, batch build and WAL dominate"
            ),
            datasets=(("IYP", 7400), ("LDBC", 4900), ("CORD19", 10600)),
        ),
        Workload(
            name="unlabeled_elsh",
            why=(
                "0% node labels + 20% property noise over LDBC+ICIJ+POLE with "
                "ELSH: dedup cannot engage, extraction and LSH dominate"
            ),
            datasets=(("LDBC", 875), ("ICIJ", 1250), ("POLE", 1250)),
            label_availability=0.0,
            property_noise=0.2,
            batch_size=150,
            method="elsh",
        ),
        Workload(
            name="sharded_churn",
            why=(
                "2 durable process shards with ~5% deletes per change-set and "
                "merged reads: partition, handoff and merge dominate"
            ),
            datasets=(("IYP", 900), ("LDBC", 650), ("CORD19", 1350)),
            batch_size=100,
            delete_share=0.05,
            sharded=True,
            read_every=8,
        ),
    )
}


#: Shrunk variants for the self-test: same paths, a few change-sets each.
TINY_SCALE = 0.06

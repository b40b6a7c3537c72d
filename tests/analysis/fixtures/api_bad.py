"""Fixture: PGL501/PGL502 positives."""


def tally(values, bucket=[]):  # expect[PGL501]
    bucket.extend(values)
    return bucket


def keyed(
    mapping={},  # expect[PGL501]
    *,
    tags=set(),  # expect[PGL501]
):
    return mapping, tags


class CountAccumulator:
    """Drifted merge_from and copy signatures."""

    def __init__(self):
        self.counts = {}

    def observe_column(self, key, values):
        self.counts[key] = self.counts.get(key, 0) + len(values)

    def merge_from(self, other, theta=0.5):  # expect[PGL502]
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def copy(self, deep):  # expect[PGL502]
        clone = CountAccumulator()
        clone.counts = dict(self.counts)
        return clone

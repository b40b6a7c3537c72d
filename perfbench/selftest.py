"""Tiny-scale self-test of the benchmark.

Runs every workload once untraced and once traced on a feed shrunk by
``workloads.TINY_SCALE`` and checks that

* every metric ``BENCHMARK.json`` declares is emitted, with its unit;
* no operation failed (all correctness gates passed);
* the traced run's span file nests properly and the per-name self times
  plus ``trace.unattributed_s`` add up to the wall time of its root spans.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

or through pytest by explicit path: ``python -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import load, self_times  # noqa: E402
from workloads import TINY_SCALE, WORKLOADS  # noqa: E402

SEED = 7


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
            "--scale", repr(TINY_SCALE),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _check_emitted(result: dict, declared: list[dict]) -> None:
    assert result["failed"] == 0 and result["correct"], result
    assert result["attempted"] >= 1
    emitted = result["metrics"]
    for metric in declared:
        assert metric["name"] in emitted, f"missing metric {metric['name']}"
        assert emitted[metric["name"]]["unit"] == metric["unit"], metric["name"]
    assert set(emitted) == {m["name"] for m in declared}


def _check_spans(workload: str, result: dict) -> None:
    rows = load(HERE / ".work" / "out" / f"spans-{workload}-s{SEED}.jsonl")
    assert rows, "the traced run wrote no spans"
    last_end: dict[int, float] = {}
    for index, (name, start, end, parent, *_rest) in enumerate(rows):
        assert start <= end, name
        if parent >= 0:
            assert parent < index
            p_start, p_end = rows[parent][1], rows[parent][2]
            assert p_start <= start and end <= p_end, f"{name} escapes its parent"
        # Siblings are sequential: a span starts after the previous
        # sibling under the same parent ended.
        assert start >= last_end.get(parent, float("-inf")), f"{name} overlaps a sibling"
        last_end[parent] = end
    own, _inclusive, _calls = self_times(rows)
    roots = [row for row in rows if row[3] < 0]
    wall = sum(end - start for _n, start, end, *_ in roots)
    layers = sum(v for name, v in own.items() if not name.startswith("bench."))
    unattributed = result["metrics"]["trace.unattributed_s"]["value"]
    assert abs(layers + unattributed - wall) <= 1e-6 * max(1.0, wall), (
        layers, unattributed, wall,
    )


def check_workload(workload: str) -> None:
    declared = _declared()
    _check_emitted(_run(workload, 0), declared["end_to_end"])
    traced = _run(workload, 1)
    _check_emitted(traced, declared["per_layer"])
    _check_spans(workload, traced)


def test_durable_ingest() -> None:
    check_workload("durable_ingest")


def test_unlabeled_elsh() -> None:
    check_workload("unlabeled_elsh")


def test_sharded_churn() -> None:
    check_workload("sharded_churn")


def main() -> int:
    for workload in WORKLOADS:
        check_workload(workload)
        print(f"ok  {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

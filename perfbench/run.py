"""PG-HIVE deployed-path benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload durable_ingest --seed 1 --seconds 12 --trace 0

Workloads: ``durable_ingest``, ``unlabeled_elsh``, ``sharded_churn``
(see ``workloads.py`` and ``README.md``).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(spans are written to ``perfbench/.work/out/``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Each phase runs in its own process, all with ``PYTHONPATH=src``:

1. ``feed.py`` writes the feed for ``--seed`` unless it is cached under
   ``perfbench/.work/feeds/`` (feeds never depend on the code under test
   beyond the dataset generators, so the cache key is the workload's
   definition + seed + scale + feed version);
2. ``measure.py prepare`` rebuilds the base checkpoint with the code
   under test, on every run;
3. ``measure.py measure`` is the measuring process.

``PYTHONHASHSEED`` is pinned so that set iteration order, and with it the
work done and the fingerprints compared across processes, repeat exactly
between runs of the same seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from workloads import FEED_VERSION, WORKLOADS  # noqa: E402

#: per-phase wall-clock limits (seconds); a phase past its limit is killed.
FEED_TIMEOUT = 300
PREPARE_TIMEOUT = 300
MEASURE_SLACK = 150


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _phase(argv: list[str], timeout: float) -> None:
    """Run one phase to completion; raise on failure or timeout."""
    completed = subprocess.run(
        [sys.executable, *argv], env=_env(), timeout=timeout, stdout=sys.stderr
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{Path(argv[0]).name} {argv[1:3]} exited {completed.returncode}")


def ensure_feed(workload: str, seed: int, scale: float) -> Path:
    shape = hashlib.sha256(repr(WORKLOADS[workload]).encode()).hexdigest()[:10]
    feed = WORK / "feeds" / f"v{FEED_VERSION}-{workload}-{shape}-s{seed}-x{scale:g}"
    if not all((feed / name).is_file() for name in ("feed.jsonl", "plan.json", "truth.json")):
        _phase(
            [str(HERE / "feed.py"), "--workload", workload, "--seed", str(seed),
             "--scale", repr(scale), "--out", str(feed)],
            FEED_TIMEOUT,
        )
    return feed


def run(workload: str, seed: int, seconds: float, trace: int, scale: float) -> dict:
    feed = ensure_feed(workload, seed, scale)
    run_dir = WORK / "runs" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        base = run_dir / "base"
        prepared = run_dir / "prepared.json"
        _phase(
            [str(HERE / "measure.py"), "prepare", "--workload", workload,
             "--feed", str(feed), "--base", str(base), "--out", str(prepared)],
            PREPARE_TIMEOUT,
        )
        result_file = run_dir / "result.json"
        argv = [
            str(HERE / "measure.py"), "measure", "--workload", workload,
            "--feed", str(feed), "--base", str(base), "--prepared", str(prepared),
            "--work", str(run_dir / "reps"), "--seconds", repr(seconds),
            "--trace", str(trace), "--out", str(result_file),
        ]
        if trace:
            argv += ["--spans", str(WORK / "out" / f"spans-{workload}-s{seed}.jsonl")]
        _phase(argv, seconds + MEASURE_SLACK)
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if run_dir.exists():
        result["failed"] += 1
        result["failures"].append(f"could not remove {run_dir}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="feed size factor (the self-test uses a tiny one)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no PG-HIVE sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace, args.scale)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(
        f"# {args.workload} seed={args.seed} repetitions={result['repetitions']} "
        f"apply_samples={result['apply_samples']} read_samples={result['read_samples']}"
    )
    for rep in result["per_repetition"]:
        print("# " + json.dumps(rep))
    for name, metric in result["metrics"].items():
        print(f"{name:<30} {metric['value']:>16.6f} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

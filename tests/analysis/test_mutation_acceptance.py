"""Mutation acceptance: reintroduce real durability bugs, expect diagnostics.

Fixture files prove the rules *can* fire; these tests prove they fire on
the production modules they exist to protect.  Each test copies the real
source (``durability.py``, ``recovery.py``, ``columnar.py``, ...) into a temp
tree, surgically reintroduces a bug class this codebase has actually
shipped and fixed, and asserts the matching rule flags exactly the
mutated protocol -- while the *unmutated* copy stays clean under the
same rule.  If a refactor ever reshapes these modules so a mutation
anchor disappears, the ``assert marker in source`` lines fail loudly
instead of the test silently passing on an unmutated copy.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.rules.concurrency import SharedStateMutationRule
from repro.analysis.rules.crash_consistency import (
    RenameFsyncRule,
    WalBeforeApplyRule,
)
from repro.analysis.rules.exception_safety import (
    ResourceLifecycleRule,
    SharedMemoryLifecycleRule,
)
from repro.analysis.rules.hotpath import SearchsortedLoopRule

from tests.analysis.conftest import REPO_ROOT, run_rules

CORE = REPO_ROOT / "src" / "repro" / "core"
GRAPH = REPO_ROOT / "src" / "repro" / "graph"


def _mutate(
    tmp_path: Path, original: Path, marker: str, replacement: str
) -> tuple[Path, str]:
    """Copy ``original`` with one surgical edit; returns (path, source)."""
    source = original.read_text(encoding="utf-8")
    assert source.count(marker) == 1, (
        f"mutation anchor no longer unique in {original.name}; "
        "update the mutation test"
    )
    mutated = source.replace(marker, replacement)
    target = tmp_path / original.name
    target.write_text(mutated, encoding="utf-8")
    return target, mutated


def _line_of(source: str, needle: str) -> int:
    for number, line in enumerate(source.splitlines(), start=1):
        if needle in line:
            return number
    raise AssertionError(f"{needle!r} not found in mutated source")


def test_removing_file_fsync_from_atomic_write_fires_pgl703(tmp_path):
    rule = RenameFsyncRule(scope=())
    original = CORE / "durability.py"
    assert run_rules([rule], original) == set()

    target, mutated = _mutate(
        tmp_path,
        original,
        'fire("atomic.before_fsync", path=str(temp))\n'
        "            os.fsync(handle.fileno())\n",
        'fire("atomic.before_fsync", path=str(temp))\n',
    )
    fired = run_rules([rule], target)
    rename_line = _line_of(mutated, "os.replace(temp, path)")
    assert (rename_line, "PGL703") in fired
    assert {rule_id for _, rule_id in fired} == {"PGL703"}


def test_logging_after_apply_fires_pgl701(tmp_path):
    rule = WalBeforeApplyRule(scope=())
    original = CORE / "recovery.py"
    assert run_rules([rule], original) == set()

    # The classic write-behind bug: run the in-memory apply first, log
    # afterwards.  A crash between the two loses an acknowledged batch.
    target, mutated = _mutate(
        tmp_path,
        original,
        "    sequence = session._sequence + 1\n"
        "    session._wal.append(sequence, _KIND_CHANGESET + change_set.to_wire())\n"
        "    try:\n"
        "        return run()\n"
        "    except Exception:\n"
        "        if session._sequence < sequence:\n"
        "            session._wal.rollback_last()\n"
        "        raise\n",
        "    sequence = session._sequence + 1\n"
        "    result = run()\n"
        "    session._wal.append(sequence, _KIND_CHANGESET + change_set.to_wire())\n"
        "    return result\n",
    )
    fired = run_rules([rule], target)
    assert fired, "PGL701 must flag the reordered WAL protocol"
    assert {rule_id for _, rule_id in fired} == {"PGL701"}
    # Every durable change-feed method routes through the reordered
    # helper, and the violation anchors inside the feed methods (the
    # inlined ``super().apply`` call site).
    apply_anchor = _line_of(
        mutated, "lambda: super(DurableSchemaSession, self).apply"
    )
    assert (apply_anchor, "PGL701") in fired


def test_unlogged_sharded_stage_fires_pgl701(tmp_path):
    rule = WalBeforeApplyRule(scope=())
    original = CORE / "recovery.py"
    assert run_rules([rule], original) == set()

    # ``_stage`` is the sharded session's one logging point: both
    # ``apply`` and ``ingest_stream`` stage through it.  Dropping the
    # logging wrapper there leaves every sharded change-set unlogged.
    target, mutated = _mutate(
        tmp_path,
        original,
        "    def _stage(self, change_set: ChangeSet):\n"
        "        if self._replaying:\n"
        "            return super()._stage(change_set)\n"
        "        return _logged_apply(\n"
        "            self,\n"
        "            change_set,\n"
        "            lambda: super(DurableShardedSchemaSession, self)"
        "._stage(change_set),\n"
        "        )\n",
        "    def _stage(self, change_set: ChangeSet):\n"
        "        return super()._stage(change_set)\n",
    )
    fired = run_rules([rule], target)
    assert fired == {
        (_line_of(mutated, "return super()._stage(change_set)"), "PGL701")
    }


def test_dropping_handle_close_fires_pgl801(tmp_path):
    rule = ResourceLifecycleRule(scope=())
    original = CORE / "durability.py"
    assert run_rules([rule], original) == set()

    target, mutated = _mutate(
        tmp_path,
        original,
        "            self._handle.close()\n",
        "",
    )
    fired = run_rules([rule], target)
    open_line = _line_of(mutated, 'self._handle = open(path, "ab")')
    assert (open_line, "PGL801") in fired
    assert {rule_id for _, rule_id in fired} == {"PGL801"}


def test_dropping_shm_unlink_fires_pgl803(tmp_path):
    rule = SharedMemoryLifecycleRule(scope=())
    original = CORE / "shm.py"
    assert run_rules([rule], original) == set()

    # Drop the unlink half of block reclamation: every created segment
    # now outlives the process in /dev/shm.
    target, mutated = _mutate(
        tmp_path,
        original,
        "    try:\n"
        "        block.unlink()\n"
        "    except FileNotFoundError:\n"
        "        pass\n",
        "",
    )
    fired = run_rules([rule], target)
    assert fired, "PGL803 must flag the module that lost its unlink path"
    assert {rule_id for _, rule_id in fired} == {"PGL803"}
    # The obligation anchors at the create=True sites, chiefly the
    # registry's block allocation.
    create_line = _line_of(mutated, "name=_fresh_name(), create=True")
    assert any(
        abs(line - create_line) <= 2 for line, _ in fired
    ), f"diagnostics {fired} do not anchor at the registry create site"


def test_unlocked_interner_mutation_fires_pgl901(tmp_path):
    rule = SharedStateMutationRule(scope=())
    original = GRAPH / "columnar.py"
    assert run_rules([rule], original) == set()

    # Drop the lock around intern_string's slow path: the double-checked
    # re-read becomes a plain racy read-modify-write.
    target, mutated = _mutate(
        tmp_path,
        original,
        "        if sid is not None:\n"
        "            return sid\n"
        "        with self._lock:\n",
        "        if sid is not None:\n"
        "            return sid\n"
        "        if True:\n",
    )
    fired = run_rules([rule], target)
    assert fired, "PGL901 must flag the unlocked interner mutation"
    assert {rule_id for _, rule_id in fired} == {"PGL901"}
    mutation_line = _line_of(mutated, "self._strings.append(text)")
    assert any(
        abs(line - mutation_line) <= 5 for line, _ in fired
    ), f"diagnostics {fired} do not anchor in the mutated slow path"


def test_reinserting_per_cell_searchsorted_fires_pgl303(tmp_path):
    rule = SearchsortedLoopRule(scope=())
    original = GRAPH / "columnar.py"
    assert run_rules([rule], original) == set()

    # Bring back the per-cell value lookup the row view replaced: one
    # binary search per (row, key), called for every WAL-encoded row.
    anchor = "    def node_record(self, row: int) -> tuple[int, int, tuple]:\n"
    target, mutated = _mutate(
        tmp_path,
        original,
        anchor,
        "    def _row_values(self, block, row: int) -> tuple:\n"
        "        keyset = self.interner.keyset(int(block.keyset_ids[row]))\n"
        "        return tuple(\n"
        "            block.columns[key].values[\n"
        "                int(np.searchsorted(block.columns[key].rows, row))\n"
        "            ]\n"
        "            for key in keyset.keys\n"
        "        )\n"
        "\n" + anchor,
    )
    fired = run_rules([rule], target)
    assert fired == {
        (_line_of(mutated, "np.searchsorted(block.columns"), "PGL303")
    }

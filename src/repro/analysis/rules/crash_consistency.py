"""Crash-consistency protocol rules (PGL7xx).

PR 7's durability guarantees are *orderings*, not local facts: a durable
session may mutate state only after the change-set is in the WAL, bytes
become durable only through the atomic artifact helpers, and a rename
publishes data only when fsyncs bracket it.  Crash tests probe these
protocols at record boundaries; these rules prove them over the call
graph for every code path, including ones no test exercises yet.

``PGL701`` -- WAL-before-apply: in ``apply``/``add_batch``/``_stage``
of ``DurableSchemaSession``/``DurableShardedSchemaSession`` (or any
subclass), a session-state mutation or ``super()`` call of one of those
methods must not be reachable before the ``WriteAheadLog.append`` call
in linearized execution order (the ``_logged_apply`` lambda protocol is
understood: the wrapped apply runs where the helper invokes it).  Events
guarded by a ``_replaying`` test are exempt -- replay re-applies records
already in the log.

``PGL702`` -- the interprocedural generalisation of ``PGL601``: a
function that pickles and, through resolved calls (bounded depth, never
descending into ``atomic_write_bytes``/``write_artifact`` or
``core/durability.py``), reaches a raw write site -- or a raw write site
whose callees pickle -- tears on crash exactly like the single-function
case.  Same-function pairs stay ``PGL601``'s; this rule fires only on
cross-function paths.

``PGL703`` -- rename discipline: every ``os.rename``/``os.replace``/
``Path.rename`` must be preceded by a file ``os.fsync`` in linearized
order, and the function must fsync the target's directory (a rename
without both is not crash-durable: the data or the directory entry can
be lost).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.astutil import dotted_name, walk_local
from repro.analysis.callgraph import (
    CallGraph,
    Event,
    FunctionInfo,
    first_unpreceded,
    project_callgraph,
)
from repro.analysis.framework import Diagnostic, Project, Rule
from repro.analysis.rules.durable_io import _PICKLE_CALLS, _write_site

#: class names whose change-feed methods must log before mutating.
DURABLE_SESSION_CLASSES = frozenset(
    {"DurableSchemaSession", "DurableShardedSchemaSession"}
)

#: methods forming the durable change feed (``_stage`` is the one
#: staging path of the sharded session's ``apply`` and ``ingest_stream``).
_FEED_METHODS = frozenset({"apply", "add_batch", "_stage"})

#: attribute names that denote the session's write-ahead log.
_WAL_ATTRS = frozenset({"_wal", "wal"})

#: guard-test substrings marking the sanctioned WAL-replay re-entry path.
_REPLAY_MARKERS = ("_replaying", "replaying")

#: blessed durable-write helpers: call paths through these are atomic.
_BLESSED_FUNCTIONS = frozenset({"atomic_write_bytes", "write_artifact"})
_BLESSED_MODULE_TAIL = "core/durability.py"


def _is_super_call(expression: ast.expr) -> bool:
    return (
        isinstance(expression, ast.Call)
        and isinstance(expression.func, ast.Name)
        and expression.func.id == "super"
    )


def _self_rooted(expression: ast.expr) -> bool:
    """Whether an assignment target reaches into ``self``."""
    while isinstance(expression, (ast.Attribute, ast.Subscript)):
        expression = expression.value
    return isinstance(expression, ast.Name) and expression.id == "self"


def _wal_append_call(node: ast.Call) -> bool:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "append"):
        return False
    receiver = func.value
    if isinstance(receiver, ast.Attribute):
        return receiver.attr in _WAL_ATTRS
    return isinstance(receiver, ast.Name) and receiver.id in _WAL_ATTRS


def _classify_wal_protocol(node: ast.AST, owner: FunctionInfo) -> str | None:
    """Event classifier for PGL701: ``append`` vs ``mutation``."""
    if isinstance(node, ast.Call):
        if _wal_append_call(node):
            return "append"
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _FEED_METHODS
            and _is_super_call(func.value)
        ):
            return "mutation"
        return None
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        if any(_self_rooted(target) for target in targets):
            return "mutation"
    if isinstance(node, ast.Delete) and any(
        _self_rooted(target) for target in node.targets
    ):
        return "mutation"
    return None


def _replay_guarded(event: Event) -> bool:
    return any(
        marker in guard
        for guard in event.guards
        for marker in _REPLAY_MARKERS
    )


class WalBeforeApplyRule(Rule):
    """PGL701: durable sessions must log before they mutate."""

    rule_id = "PGL701"
    name = "wal-before-apply"
    description = (
        "state mutation or super().apply reachable before the "
        "WriteAheadLog.append in a durable session's change-feed method"
    )
    default_scope = ("src/repro/",)

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        graph = project_callgraph(project)
        for info in list(graph.functions.values()):
            if not self.applies(info.module.display):
                continue
            if info.name not in _FEED_METHODS or info.class_name is None:
                continue
            if not graph.is_subclass_of(
                info.class_name, DURABLE_SESSION_CLASSES
            ):
                continue
            events = graph.linearize(info, _classify_wal_protocol)
            violation = first_unpreceded(
                events, "mutation", "append", exempt=_replay_guarded
            )
            if violation is None:
                continue
            anchor = (
                violation.node
                if violation.function.module is info.module
                else info.node
            )
            chain = " -> ".join(violation.stack)
            yield info.module.diagnostic(
                anchor,
                self.rule_id,
                f"{info.qualname} reaches a state mutation (via {chain}) "
                "before the WriteAheadLog.append; durable sessions must "
                "log the change-set first so a crash never loses "
                "acknowledged state",
            )


class InterprocDurableWriteRule(Rule):
    """PGL702: pickled bytes reach disk around the atomic helpers."""

    rule_id = "PGL702"
    name = "interproc-durable-write"
    description = (
        "pickle and a raw write site connected by a resolved call path "
        "that does not flow through atomic_write_bytes/write_artifact"
    )
    default_scope = ("src/repro/",)
    default_exclude = (_BLESSED_MODULE_TAIL,)

    #: resolved-call path length bound.
    depth = 3

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        graph = project_callgraph(project)
        pickles: set[tuple[str, str]] = set()
        writes: set[tuple[str, str]] = set()
        for info in graph.functions.values():
            for node in walk_local(info.node):
                if not isinstance(node, ast.Call):
                    continue
                if dotted_name(node.func) in _PICKLE_CALLS:
                    pickles.add(info.key)
                if _write_site(node) is not None:
                    writes.add(info.key)
        for info in graph.functions.values():
            if not self.applies(info.module.display):
                continue
            if info.key in pickles:
                yield from self._paths_from(
                    graph, info, writes, kind="write"
                )
            if info.key in writes:
                yield from self._paths_from(
                    graph, info, pickles, kind="pickle"
                )

    def _paths_from(
        self,
        graph: CallGraph,
        origin: FunctionInfo,
        targets: set[tuple[str, str]],
        *,
        kind: str,
    ) -> Iterable[Diagnostic]:
        """DFS resolved call chains from ``origin`` into ``targets``.

        Blessed helpers terminate a path (bytes flowing through them are
        atomic), and the origin itself is never a target -- PGL601 owns
        the single-function case.
        """
        reported: set[tuple[str, str]] = set()
        stack: list[tuple[FunctionInfo, ast.Call, tuple[str, ...], int]] = []
        for node in walk_local(origin.node):
            if isinstance(node, ast.Call):
                for callee in graph.resolve(node, origin):
                    stack.append((callee, node, (origin.qualname,), self.depth))
        while stack:
            current, first_call, chain, budget = stack.pop()
            if self._blessed(current) or current.key == origin.key:
                continue
            if current.key in targets and current.key not in reported:
                reported.add(current.key)
                path = " -> ".join((*chain, current.qualname))
                what = (
                    "a raw byte write"
                    if kind == "write"
                    else "a pickle of durable state"
                )
                yield origin.module.diagnostic(
                    first_call,
                    self.rule_id,
                    f"{origin.qualname} reaches {what} through the call "
                    f"path {path} without flowing through "
                    "repro.core.durability.atomic_write_bytes/"
                    "write_artifact; a crash mid-write tears the artifact",
                )
            if budget <= 1:
                continue
            next_chain = (*chain, current.qualname)
            if len(next_chain) > self.depth + 1:
                continue
            for callee in graph.callees(current):
                if callee.qualname not in next_chain:
                    stack.append((callee, first_call, next_chain, budget - 1))

    @staticmethod
    def _blessed(info: FunctionInfo) -> bool:
        return (
            info.name in _BLESSED_FUNCTIONS
            or info.module.display.endswith(_BLESSED_MODULE_TAIL)
        )


_RENAME_DOTTED = frozenset({"os.rename", "os.replace"})


def _classify_rename_protocol(node: ast.AST, owner: FunctionInfo) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    dotted = dotted_name(node.func)
    if dotted in _RENAME_DOTTED:
        return "rename"
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "rename"
        and dotted != "os.rename"
    ):
        return "rename"
    if dotted == "os.fsync":
        return "fsync"
    name = (
        node.func.attr
        if isinstance(node.func, ast.Attribute)
        else node.func.id
        if isinstance(node.func, ast.Name)
        else ""
    )
    if "fsync" in name and "dir" in name:
        return "dirsync"
    return None


class RenameFsyncRule(Rule):
    """PGL703: renames must be fsync-bracketed."""

    rule_id = "PGL703"
    name = "rename-fsync-bracketing"
    description = (
        "os.rename/os.replace/Path.rename without a preceding file fsync "
        "or without a directory fsync in the same protocol"
    )
    default_scope = ("src/repro/",)

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        graph = project_callgraph(project)
        for info in graph.functions.values():
            if not self.applies(info.module.display):
                continue
            local_renames = [
                node
                for node in walk_local(info.node)
                if isinstance(node, ast.Call)
                and _classify_rename_protocol(node, info) == "rename"
            ]
            if not local_renames:
                continue
            events = graph.linearize(info, _classify_rename_protocol)
            violation = first_unpreceded(events, "rename", "fsync")
            if violation is not None and violation.function.key == info.key:
                yield info.module.diagnostic(
                    violation.node,
                    self.rule_id,
                    f"rename in {info.qualname} without a preceding file "
                    "fsync; after a crash the renamed file may hold "
                    "unflushed garbage",
                )
            if not any(event.kind == "dirsync" for event in events):
                yield info.module.diagnostic(
                    local_renames[0],
                    self.rule_id,
                    f"rename in {info.qualname} without a directory fsync "
                    "anywhere in the protocol; after a crash the directory "
                    "entry itself may be lost",
                )

"""API hygiene rules (PGL5xx).

``PGL501`` -- mutable default arguments (``def f(x=[])``): the default
is evaluated once and shared across calls, which in accumulator-heavy
code turns into cross-instance state bleed.  ``frozenset()``/``tuple()``
defaults are immutable and fine.

``PGL502`` -- accumulator protocol drift.  The merge lattice relies on a
uniform protocol: ``merge_from(self, other)`` and ``copy(self)`` with
exactly those parameters.  A signature that drifts breaks callers that
treat accumulators uniformly (``TypeSummaries.merge_from`` fans out to
its members positionally).  The element-wise folds the columnar
``observe_*`` methods must equal live in ``tests/seed_reference.py``,
where the columnar oracle compares them.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.astutil import describe
from repro.analysis.framework import Diagnostic, ModuleContext, Rule

#: Default expressions that are mutable containers.
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray", "defaultdict"})


def _mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


class MutableDefaultRule(Rule):
    """PGL501: mutable default argument."""

    rule_id = "PGL501"
    name = "mutable-default"
    description = "mutable default argument shared across calls"

    def check_module(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        for qualname, function in ctx.functions():
            if not isinstance(
                function, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            defaults = [
                *function.args.defaults,
                *(
                    default
                    for default in function.args.kw_defaults
                    if default is not None
                ),
            ]
            for default in defaults:
                if _mutable_default(default):
                    yield ctx.diagnostic(
                        default,
                        self.rule_id,
                        f"mutable default {describe(default)} in {qualname}; "
                        "default to None and create the container inside",
                    )


#: Canonical accumulator protocol: method name -> required parameters
#: after ``self`` (no varargs, no defaults).
_PROTOCOL = {
    "merge_from": ("other",),
    "copy": (),
}

class AccumulatorSignatureRule(Rule):
    """PGL502: accumulator merge_from/copy protocol drift."""

    rule_id = "PGL502"
    name = "accumulator-signature"
    description = "merge_from/copy signature drift on an accumulator class"
    default_scope = ("src/repro/",)

    def check_module(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx, class_def):
        methods = {
            statement.name: statement
            for statement in class_def.body
            if isinstance(statement, ast.FunctionDef)
        }
        # The merge_from/copy protocol only binds classes that are part of
        # the merge lattice; defining merge_from is what opts a class in
        # (SchemaGraph.copy(name) is a graph container API, not drift).
        if "merge_from" not in methods:
            return
        for name, expected in _PROTOCOL.items():
            method = methods.get(name)
            if method is None:
                continue
            problem = self._signature_problem(method, expected)
            if problem is not None:
                yield ctx.diagnostic(
                    method,
                    self.rule_id,
                    f"{class_def.name}.{name} {problem}; the accumulator "
                    f"protocol is {name}(self"
                    + ("".join(f", {p}" for p in expected))
                    + ")",
                )

    @staticmethod
    def _signature_problem(
        method: ast.FunctionDef, expected: tuple[str, ...]
    ) -> str | None:
        args = method.args
        if args.vararg is not None or args.kwarg is not None:
            return "takes *args/**kwargs"
        names = [arg.arg for arg in args.posonlyargs + args.args]
        if names[:1] != ["self"]:
            return "is not an instance method"
        if tuple(names[1:]) != expected or args.kwonlyargs:
            return f"has parameters {tuple(names[1:])!r}"
        if args.defaults:
            return "has default values"
        return None

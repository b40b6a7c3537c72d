"""Hot-path hygiene rules (PGL3xx).

The columnar ingest path exists so that batch ingestion never
materialises per-element ``Node``/``Edge`` objects or walks value
columns row-by-row in Python -- that is the whole performance claim of
the columnar core.  These rules patrol the functions that form that
call graph, identified by name: ``_ingest_columnar``, ``record_into``,
and anything matching ``*_columnar`` / ``columnar_*``.

``PGL301`` -- per-element materialisation inside a hot function:
``Node(...)``/``Edge(...)`` construction or calls to the element-wise
converters ``to_elements()`` / ``to_property_graph()`` /
``merge_into_graph()`` / ``from_elements()``.

``PGL302`` -- per-row Python loops over value columns: a ``for`` loop or
comprehension whose iterable reaches into ``<block>.columns[...]``
(the sanctioned access is vectorised ``ValueColumn.take(rows)`` feeding
``observe_column``-family accumulators).

``PGL303`` -- a ``searchsorted`` call inside a loop or comprehension,
anywhere under ``src/repro/``.  One binary search per row or cell is
the lookup that once made WAL encoding cost more than discovery itself;
row-major readers use the block's cached ``value_rows`` view, and
row-group readers a position index built once (``ValueColumn.take``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.astutil import call_name, describe, walk_local
from repro.analysis.framework import Diagnostic, ModuleContext, Rule

#: Function (qual)names forming the columnar ingest call graph.
_HOT_EXACT = frozenset({"_ingest_columnar", "record_into"})

#: Constructors/converters that materialise per-element objects.
_ELEMENT_CONSTRUCTORS = frozenset({"Node", "Edge"})
_ELEMENT_CONVERTERS = frozenset(
    {"to_elements", "to_property_graph", "merge_into_graph", "from_elements"}
)


def is_hot_function(qualname: str) -> bool:
    """Whether a function (by dotted qualname) is on the hot path."""
    name = qualname.rsplit(".", 1)[-1]
    return (
        name in _HOT_EXACT
        or name.endswith("_columnar")
        or name.startswith("columnar_")
    )


class ElementMaterialisationRule(Rule):
    """PGL301: Node/Edge materialisation inside the columnar hot path."""

    rule_id = "PGL301"
    name = "hot-path-materialisation"
    description = (
        "Node/Edge construction or to_elements()/to_property_graph() inside "
        "the columnar ingest call graph"
    )
    default_scope = ("src/repro/",)

    def check_module(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        for qualname, function in ctx.functions():
            if not is_hot_function(qualname):
                continue
            for node in walk_local(function):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if (
                    name in _ELEMENT_CONSTRUCTORS
                    and isinstance(node.func, ast.Name)
                ):
                    yield ctx.diagnostic(
                        node,
                        self.rule_id,
                        f"{name}(...) materialised inside hot function "
                        f"{qualname}; the columnar path must stay "
                        "element-object free",
                    )
                elif (
                    name in _ELEMENT_CONVERTERS
                    and isinstance(node.func, ast.Attribute)
                ):
                    yield ctx.diagnostic(
                        node,
                        self.rule_id,
                        f".{name}() called inside hot function {qualname}; "
                        "element-wise conversion does not belong on the "
                        "columnar path",
                    )


class ColumnLoopRule(Rule):
    """PGL302: per-row Python loop over value columns on the hot path."""

    rule_id = "PGL302"
    name = "hot-path-column-loop"
    description = (
        "for loop / comprehension iterating <block>.columns[...] inside the "
        "columnar ingest call graph (use ValueColumn.take + observe_column)"
    )
    default_scope = ("src/repro/",)

    def check_module(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        for qualname, function in ctx.functions():
            if not is_hot_function(qualname):
                continue
            for node in walk_local(function):
                iterables: list[ast.expr] = []
                if isinstance(node, ast.For):
                    iterables = [node.iter]
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
                ):
                    iterables = [gen.iter for gen in node.generators]
                for iterable in iterables:
                    column = self._column_subscript(iterable)
                    if column is not None:
                        yield ctx.diagnostic(
                            node,
                            self.rule_id,
                            f"per-row loop over value column "
                            f"{describe(column)} inside hot function "
                            f"{qualname}; use ValueColumn.take(rows) with an "
                            "observe_column accumulator",
                        )

    @staticmethod
    def _column_subscript(expression: ast.expr) -> ast.expr | None:
        """The ``<x>.columns[...]`` subscript inside ``expression``, if any."""
        for node in ast.walk(expression):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "columns"
            ):
                return node
        return None


#: Comprehension node types (their first iterable is evaluated once).
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
#: Statements and expressions whose body runs once per iteration.
_LOOPS = (ast.For, ast.AsyncFor, ast.While, *_COMPREHENSIONS)
#: Scopes whose bodies do not run per iteration of an enclosing loop.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class SearchsortedLoopRule(Rule):
    """PGL303: ``searchsorted`` called once per loop iteration."""

    rule_id = "PGL303"
    name = "per-row-searchsorted"
    description = (
        "searchsorted call inside a for/while loop or comprehension (read "
        "the block's cached row view or build a position index once)"
    )
    default_scope = ("src/repro/",)

    def check_module(self, ctx: ModuleContext) -> Iterable[Diagnostic]:
        for node, qualname in self._looped_calls(ctx.tree, "", False):
            yield ctx.diagnostic(
                node,
                self.rule_id,
                f"searchsorted inside a loop in {qualname or '<module>'}: "
                "one binary search per row keeps row-major reads "
                "row-proportional in numpy round-trips; read the block's "
                "value_rows view or build a position index once",
            )

    def _looped_calls(
        self, node: ast.AST, qualname: str, in_loop: bool
    ) -> Iterable[tuple[ast.Call, str]]:
        """``searchsorted`` calls evaluated once per loop iteration."""
        if isinstance(node, _SCOPES):
            qualname = f"{qualname}.{node.name}" if qualname else node.name
            for child in node.body:
                yield from self._looped_calls(child, qualname, False)
            return
        if (
            in_loop
            and isinstance(node, ast.Call)
            and call_name(node) == "searchsorted"
        ):
            yield node, qualname
        once: tuple[ast.AST, ...] = ()
        children = list(ast.iter_child_nodes(node))
        if isinstance(node, (ast.For, ast.AsyncFor)):
            once = (node.iter, *node.orelse)
        elif isinstance(node, ast.While):
            once = tuple(node.orelse)
        elif isinstance(node, _COMPREHENSIONS):
            # Unpack the generator clauses: only the outermost iterable
            # is evaluated once, before the first iteration.
            first = node.generators[0]
            once = (first.iter,)
            children = [
                child
                for child in children
                if not isinstance(child, ast.comprehension)
            ]
            for generator in node.generators:
                children.extend(ast.iter_child_nodes(generator))
        looping = isinstance(node, _LOOPS)
        for child in children:
            child_in_loop = in_loop or (looping and child not in once)
            yield from self._looped_calls(child, qualname, child_in_loop)

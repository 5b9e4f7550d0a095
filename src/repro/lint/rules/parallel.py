"""PAR001: module-level state mutated inside functions.

The sweep engine (:func:`repro.core.orchestrator.run_grid`) dispatches
task chunks to *spawned* worker processes: module globals mutated at
call time are per-process, invisible to the parent, and make results
depend on which worker ran which chunk.  The rule flags both flavours
of the hazard:

* rebinding a module-level name through a ``global`` statement, and
* in-place mutation (method call, subscript/augmented assignment) of a
  module-level name bound to a mutable literal or constructor.

Intentional per-process state (e.g. the worker-side config table that a
pool initializer installs exactly once before any task runs) must carry
a justified waiver.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..context import FileContext
from ..findings import Finding, Severity
from .base import Rule, register

MUTABLE_CONSTRUCTORS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "collections.defaultdict",
    "collections.deque",
    "collections.Counter",
    "collections.OrderedDict",
}
MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "appendleft",
    "extendleft",
}


def _is_mutable_value(node: ast.expr, ctx: FileContext) -> bool:
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            if node.func.id in MUTABLE_CONSTRUCTORS:
                return True
        q = ctx.qualname(node.func)
        if q is not None and q in MUTABLE_CONSTRUCTORS:
            return True
    return False


@register
class Par001WorkerSharedState(Rule):
    """Module-level state mutated at call time breaks worker isolation."""

    id = "PAR001"
    severity = Severity.ERROR
    summary = (
        "module-level (mutable or rebound-via-global) state mutated "
        "inside a function"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        module_names: set[str] = set()
        mutable_names: set[str] = set()
        for stmt in ctx.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if isinstance(target, ast.Name):
                    module_names.add(target.id)
                    if value is not None and _is_mutable_value(value, ctx):
                        mutable_names.add(target.id)

        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            declared_global: set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    declared_global.update(
                        n for n in node.names if n in module_names
                    )
            for node in ast.walk(func):
                finding = self._check_node(
                    ctx, func, node, declared_global, mutable_names
                )
                if finding is not None:
                    yield finding

    def _check_node(
        self,
        ctx: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        node: ast.AST,
        declared_global: set[str],
        mutable_names: set[str],
    ) -> Finding | None:
        where = f"function {func.name}()"
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    return self.finding(
                        ctx,
                        node,
                        f"{where} rebinds module global {target.id!r}; "
                        f"worker processes each rebind their own copy — "
                        f"pass state explicitly or return it",
                    )
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in mutable_names
                ):
                    return self.finding(
                        ctx,
                        node,
                        f"{where} writes into module-level "
                        f"{target.value.id!r}; cross-process mutation is "
                        f"invisible to the parent sweep",
                    )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in mutable_names
                ):
                    return self.finding(
                        ctx,
                        node,
                        f"{where} deletes from module-level "
                        f"{target.value.id!r}; cross-process mutation is "
                        f"invisible to the parent sweep",
                    )
        elif isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr in MUTATING_METHODS
                and isinstance(f.value, ast.Name)
                and f.value.id in mutable_names
            ):
                return self.finding(
                    ctx,
                    node,
                    f"{where} mutates module-level {f.value.id!r} via "
                    f".{f.attr}(); cross-process mutation is invisible "
                    f"to the parent sweep",
                )
        return None

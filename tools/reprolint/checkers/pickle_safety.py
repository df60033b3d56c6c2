"""Pickle safety: process pools only receive module-level callables.

``run_campaign_sweep(options=ExecOptions(backend="process"))`` ships
work to a ``ProcessPoolExecutor``; every callable crossing that
boundary is pickled by reference, so lambdas, closures and
locally-defined functions fail at runtime — but only on the process backend, which the
quick test lane does not always exercise.  This rule checks statically
that anything passed to a process pool's ``submit``/``map`` (or its
``initializer=``) is a plain module-top-level def/class.  Thread pools
are exempt: nothing is pickled there.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.core import Checker, FileContext, Violation, attr_chain, register

_SUBMIT_METHODS = {"submit", "map", "apply", "apply_async", "imap", "imap_unordered"}


def _is_process_pool_call(node: ast.Call) -> bool:
    chain = attr_chain(node.func)
    if chain is None:
        return False
    if chain[-1] == "ProcessPoolExecutor":
        return True
    # multiprocessing.Pool / mp.Pool / get_context(...).Pool
    if chain[-1] == "Pool" and (len(chain) == 1 or chain[0] in ("multiprocessing", "mp")):
        return True
    return False


def _module_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


class _PoolVisitor(ast.NodeVisitor):
    def __init__(self, checker: "PickleSafety", ctx: FileContext):
        self.checker = checker
        self.ctx = ctx
        self.module_names = _module_level_names(ctx.tree)
        self.local_defs = {
            node.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in self.module_names
        }
        self.pool_vars: list[str] = []
        self.violations: list[Violation] = []

    # -- pool lifecycle ---------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if _is_process_pool_call(node):
            for kw in node.keywords:
                if kw.arg == "initializer":
                    self._check_callable(kw.value, "initializer for a process pool")
        elif isinstance(node.func, ast.Attribute) and node.func.attr in _SUBMIT_METHODS:
            owner = node.func.value
            if isinstance(owner, ast.Name) and owner.id in self.pool_vars and node.args:
                self._check_callable(
                    node.args[0], f"callable passed to process pool .{node.func.attr}()"
                )
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        bound: list[str] = []
        for item in node.items:
            if (
                isinstance(item.context_expr, ast.Call)
                and _is_process_pool_call(item.context_expr)
                and isinstance(item.optional_vars, ast.Name)
            ):
                bound.append(item.optional_vars.id)
        for item in node.items:
            self.visit(item.context_expr)
        self.pool_vars.extend(bound)
        for stmt in node.body:
            self.visit(stmt)
        for name in bound:
            self.pool_vars.remove(name)

    # -- the actual contract ----------------------------------------------
    def _check_callable(self, node: ast.expr, what: str) -> None:
        if isinstance(node, ast.Lambda):
            self._flag(node, f"{what} is a lambda; lambdas cannot be pickled")
        elif isinstance(node, ast.Name):
            if node.id in self.local_defs:
                self._flag(
                    node,
                    f"{what} ({node.id!r}) is defined inside a function; process "
                    "workers can only import module-top-level callables",
                )
            elif node.id not in self.module_names:
                self._flag(
                    node,
                    f"{what} ({node.id!r}) is not a module-top-level name; process "
                    "workers pickle callables by reference",
                )
        # Attribute access (module.fn) resolves importably — accepted.

    def _flag(self, node: ast.AST, message: str) -> None:
        self.violations.append(
            Violation(
                path=self.ctx.rel,
                line=getattr(node, "lineno", 1),
                rule=self.checker.name,
                message=message,
            )
        )


@register
class PickleSafety(Checker):
    name = "pickle-safety"
    description = (
        "callables submitted to process pools (submit/map/initializer) must "
        "be module-top-level defs/classes, never lambdas or closures"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        visitor = _PoolVisitor(self, ctx)
        visitor.visit(ctx.tree)
        return iter(visitor.violations)

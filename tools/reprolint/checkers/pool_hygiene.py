"""Pool hygiene: the fault-tolerant scheduler's own discipline.

The fleet pool (``repro/fleet/``) exists because a bare ``pool.map``
has no failure story: one lost worker or hung shard takes the whole
run's results with it, and an unbounded ``future.result()`` blocks the
scheduler forever on exactly the failure it was built to survive.
This rule keeps those patterns from creeping back into pool-role
modules:

* ``future.result()`` / ``future.exception()`` without a ``timeout``
  argument — an unbounded wait inside the machinery that promises
  per-shard deadlines.  Completed futures read their value with
  ``result(timeout=0)``, which cannot block.
* ``.map(...)`` on an executor — the fire-and-pray fan-out the
  submit/wait scheduler replaced.  ``map`` re-raises the first worker
  exception, discards every other shard's result and offers no
  per-task timeout, retry or rebuild hook.
* a ``ThreadPoolExecutor`` built at all (by any name it is imported
  under) — shards run in the calling thread or on the process pool.
  Thread fan-out ran slower than one in-process worker on every fleet
  and sweep workload measured.

Modules opt in via the ``pool`` role (``src/repro/fleet/`` in the
shipped config, or a ``# reprolint: module-role=pool`` pragma).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.core import Checker, FileContext, Violation, attr_chain, register

_EXECUTOR_CONSTRUCTORS = {"ThreadPoolExecutor", "ProcessPoolExecutor"}
_BLOCKING_METHODS = {"result", "exception"}


def _is_executor_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = attr_chain(node.func)
    if chain is None:
        return False
    if chain[-1] in _EXECUTOR_CONSTRUCTORS:
        return True
    # multiprocessing.Pool / mp.Pool
    return chain[-1] == "Pool" and (
        len(chain) == 1 or chain[0] in ("multiprocessing", "mp")
    )


def _is_thread_pool_call(node: ast.Call, aliases: set[str]) -> bool:
    chain = attr_chain(node.func)
    if chain is None:
        return False
    return chain[-1] == "ThreadPoolExecutor" or (len(chain) == 1 and chain[0] in aliases)


def _has_timeout(node: ast.Call) -> bool:
    if node.args:
        return True  # positional form: result(0) / exception(5.0)
    return any(kw.arg == "timeout" for kw in node.keywords)


class _HygieneVisitor(ast.NodeVisitor):
    def __init__(self, checker: "PoolHygiene", ctx: FileContext):
        self.checker = checker
        self.ctx = ctx
        self.executor_vars: set[str] = set()
        self.thread_pool_aliases: set[str] = set()
        self.violations: list[Violation] = []

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name == "ThreadPoolExecutor" and alias.asname:
                self.thread_pool_aliases.add(alias.asname)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_executor_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.executor_vars.add(target.id)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        for item in node.items:
            if _is_executor_call(item.context_expr) and isinstance(
                item.optional_vars, ast.Name
            ):
                self.executor_vars.add(item.optional_vars.id)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _is_thread_pool_call(node, self.thread_pool_aliases):
            self._flag(
                node,
                "ThreadPoolExecutor in a pool module; run shards in-process "
                "or on the process pool (run_sharded)",
            )
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _BLOCKING_METHODS and not _has_timeout(node):
                self._flag(
                    node,
                    f".{func.attr}() without a timeout can block the scheduler "
                    "forever; pass timeout= (completed futures take timeout=0)",
                )
            elif func.attr == "map" and self._is_executor(func.value):
                self._flag(
                    node,
                    "executor .map() has no per-task timeout, retry or rebuild "
                    "path; use the submit/wait scheduler (run_sharded) instead",
                )
        self.generic_visit(node)

    def _is_executor(self, owner: ast.expr) -> bool:
        if isinstance(owner, ast.Name):
            return owner.id in self.executor_vars
        return _is_executor_call(owner)

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
class PoolHygiene(Checker):
    name = "pool-hygiene"
    description = (
        "pool-role modules must bound every future.result()/.exception() "
        "with a timeout, never fan out through executor .map() and never "
        "build a ThreadPoolExecutor"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if "pool" not in ctx.roles:
            return
        visitor = _HygieneVisitor(self, ctx)
        visitor.visit(ctx.tree)
        yield from visitor.violations

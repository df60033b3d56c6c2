"""A/B-equivalence coverage: every engine=/compiled= switch is tested both ways.

The columnar bus kernel and the compiled inference engine are only
trustworthy because the reference implementations stay reachable behind
``engine="event"`` / ``compiled=False`` and tests hold both sides to
bit-exact agreement.  A switch whose reference side no tests exercise
is an equivalence claim nothing checks.  This project-level rule
cross-references the ASTs of the linted sources and the ``--tests``
tree: for every *public* callable exposing an A/B parameter
(``engine``, ``compiled``), both required values must be observable in
test calls, where an observation is

* an explicit literal keyword (``engine="event"``),
* a literal keyword of a constructor passed as another keyword — the
  switch reached through an options object
  (``options=ExecOptions(engine="event")``),
* an omitted keyword (counts as the source-side default),
* a literal forwarded one level through an enclosing test helper
  (``def report_for(engine): ... gateway.monitor(engine=engine)``
  called as ``report_for("event")``), or
* any non-literal keyword, recorded as the ``"<non-null>"`` sentinel —
  switches like ``faults=`` take a constructed object rather than an
  enum literal, so the required pair is ``(None, "<non-null>")``:
  tested off, and tested with *some* model bound to a variable.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator, Sequence

from tools.reprolint.core import Checker, FileContext, Violation, register

_MISSING = object()

#: Observation recorded for a keyword whose value is any non-literal
#: expression; pairs with the same sentinel string in ``ab_required``.
NON_LITERAL = "<non-null>"


def _literal(node: ast.expr) -> object:
    if isinstance(node, ast.Constant):
        return node.value
    return _MISSING


def _options_literals(call: ast.Call, param: str) -> set[object]:
    """Literals bound to ``param`` inside constructors passed as keywords."""
    found: set[object] = set()
    for keyword in call.keywords:
        if not isinstance(keyword.value, ast.Call):
            continue
        for inner in keyword.value.keywords:
            value = _literal(inner.value) if inner.arg == param else _MISSING
            if value is not _MISSING:
                found.add(value)
    return found


def _callee_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


@dataclass(frozen=True)
class _Definition:
    func: str
    param: str
    rel: str
    line: int
    default: object  # _MISSING when the parameter has no default


def _param_default(args: ast.arguments, name: str) -> object:
    positional = [*args.posonlyargs, *args.args]
    for index, arg in enumerate(positional):
        if arg.arg == name:
            offset = index - (len(positional) - len(args.defaults))
            if 0 <= offset < len(args.defaults):
                return _literal(args.defaults[offset])
            return _MISSING
    for index, arg in enumerate(args.kwonlyargs):
        if arg.arg == name:
            default = args.kw_defaults[index]
            return _literal(default) if default is not None else _MISSING
    return _MISSING


class _CallScanner(ast.NodeVisitor):
    """Collects test-side calls with the enclosing function recorded."""

    def __init__(self) -> None:
        self.stack: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        #: (callee, param) -> set of observed literal values
        self.observed: dict[tuple[str, str], set[object]] = defaultdict(set)
        #: calls recorded for the forwarding pass: (callee, call, enclosing def)
        self.calls: list[
            tuple[str, ast.Call, ast.FunctionDef | ast.AsyncFunctionDef | None]
        ] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.stack.append(node)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        callee = _callee_name(node)
        if callee is not None:
            self.calls.append((callee, node, self.stack[-1] if self.stack else None))
        self.generic_visit(node)


@register
class ABEquivalenceCoverage(Checker):
    name = "ab-equivalence"
    description = (
        "every public callable with an engine=/compiled= A/B switch must be "
        "invoked with both values somewhere under the test tree"
    )

    def check_project(
        self, sources: Sequence[FileContext], tests: Sequence[FileContext]
    ) -> Iterator[Violation]:
        definitions = self._collect_definitions(sources)
        if not definitions:
            return
        by_func: dict[str, list[_Definition]] = defaultdict(list)
        for definition in definitions:
            by_func[definition.func].append(definition)

        observed: dict[tuple[str, str], set[object]] = defaultdict(set)
        scanners = [self._scan(ctx) for ctx in tests]

        # Pass 1: direct literals, defaults, and forwarder discovery.
        forwarders: list[tuple[str, str, str, str, object]] = []
        for scanner in scanners:
            for callee, call, enclosing in scanner.calls:
                if callee not in by_func:
                    continue
                has_star_kwargs = any(kw.arg is None for kw in call.keywords)
                for definition in by_func[callee]:
                    keyword = next(
                        (kw for kw in call.keywords if kw.arg == definition.param), None
                    )
                    if keyword is None:
                        nested = _options_literals(call, definition.param)
                        if nested:
                            observed[(callee, definition.param)].update(nested)
                        elif not has_star_kwargs and definition.default is not _MISSING:
                            observed[(callee, definition.param)].add(definition.default)
                        continue
                    value = _literal(keyword.value)
                    if value is not _MISSING:
                        observed[(callee, definition.param)].add(value)
                        continue
                    forwarded = False
                    if isinstance(keyword.value, ast.Name) and enclosing is not None:
                        params = [
                            a.arg
                            for a in [
                                *enclosing.args.posonlyargs,
                                *enclosing.args.args,
                            ]
                        ]
                        if keyword.value.id in params:
                            forwarded = True
                            forwarders.append(
                                (
                                    enclosing.name,
                                    keyword.value.id,
                                    callee,
                                    definition.param,
                                    _param_default(enclosing.args, keyword.value.id),
                                )
                            )
                    if not forwarded:
                        # Non-literal, non-forwarded argument: a
                        # constructed object (or expression) was passed,
                        # so the switch is observably on even though the
                        # exact value is not a literal.
                        observed[(callee, definition.param)].add(NON_LITERAL)

        # Pass 2: resolve literals passed through one forwarding level.
        for caller, caller_param, callee, param, caller_default in forwarders:
            for scanner in scanners:
                for name, call, _ in scanner.calls:
                    if name != caller:
                        continue
                    value = self._argument_literal(call, caller, caller_param, scanners)
                    provided = any(kw.arg == caller_param for kw in call.keywords)
                    if value is not _MISSING:
                        observed[(callee, param)].add(value)
                    elif provided:
                        # Forwarded a non-literal: the switch is on.
                        observed[(callee, param)].add(NON_LITERAL)
                    elif caller_default is not _MISSING:
                        observed[(callee, param)].add(caller_default)

        for definition in definitions:
            required = set(self.config.ab_required[definition.param])
            covered = observed.get((definition.func, definition.param), set())
            missing = sorted(required - covered, key=repr)
            if missing:
                values = ", ".join(f"{definition.param}={value!r}" for value in missing)
                yield Violation(
                    path=definition.rel,
                    line=definition.line,
                    rule=self.name,
                    message=(
                        f"{definition.func}() exposes the {definition.param}= A/B "
                        f"switch but no test exercises {values}; add an "
                        "equivalence test covering both sides"
                    ),
                )

    # -- helpers -----------------------------------------------------------
    def _collect_definitions(self, sources: Sequence[FileContext]) -> list[_Definition]:
        definitions: list[_Definition] = []
        for ctx in sources:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("_"):
                    continue
                params = {
                    a.arg
                    for a in [
                        *node.args.posonlyargs,
                        *node.args.args,
                        *node.args.kwonlyargs,
                    ]
                }
                for param in self.config.ab_required:
                    if param in params:
                        definitions.append(
                            _Definition(
                                func=node.name,
                                param=param,
                                rel=ctx.rel,
                                line=node.lineno,
                                default=_param_default(node.args, param),
                            )
                        )
        return definitions

    def _scan(self, ctx: FileContext) -> _CallScanner:
        scanner = _CallScanner()
        scanner.visit(ctx.tree)
        return scanner

    def _argument_literal(
        self,
        call: ast.Call,
        caller: str,
        caller_param: str,
        scanners: Sequence[_CallScanner],
    ) -> object:
        """The literal bound to ``caller_param`` in a call to ``caller``."""
        for kw in call.keywords:
            if kw.arg == caller_param:
                return _literal(kw.value)
        index = self._positional_index(caller, caller_param, scanners)
        if index is not None and index < len(call.args):
            return _literal(call.args[index])
        return _MISSING

    def _positional_index(
        self, caller: str, caller_param: str, scanners: Sequence[_CallScanner]
    ) -> int | None:
        for scanner in scanners:
            for _, _, enclosing in scanner.calls:
                if enclosing is not None and enclosing.name == caller:
                    positional = [
                        a.arg
                        for a in [
                            *enclosing.args.posonlyargs,
                            *enclosing.args.args,
                        ]
                    ]
                    if caller_param in positional:
                        return positional.index(caller_param)
        return None

"""Hot-path purity: columnar modules stay columnar.

The fastbus/capture/compiled-engine stack earns its ~10-100x speedups
by never touching frames one at a time.  Regressions creep in as
innocent-looking ``for`` loops or ``.to_records()`` round-trips, which
work, pass the bit-exactness tests, and quietly put a per-frame Python
loop back on the hot path.  In ``columnar``-role modules this rule
flags:

* ``for``/``async for`` statements (comprehensions building columns
  are fine — the ban is on statement loops, the shape per-frame
  fallbacks take);
* calls to ``.to_records()`` (row materialisation);
* ``.records`` attribute reads (the lazily materialised row list on
  ``CarHackingCapture`` — hot paths must take ``.capture`` instead);
* per-element ``CANFrame(...)`` construction.

Each module's sanctioned scalar helpers (CSV I/O, table builders run
once at import) are whitelisted in :mod:`tools.reprolint.project`;
anything else needs an inline suppression with a justification.  A
whitelist entry that names no function in its module is reported too,
so deleting a helper also drops its sanction.  ``while`` loops are not
flagged: the fastbus arbitration sweep is one, an exact sequential
replay of the event engine.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.core import Checker, FileContext, Violation, attr_chain, register


@register
class HotPathPurity(Checker):
    name = "hot-path-purity"
    description = (
        "columnar modules may not iterate frames in for-loops, call "
        ".to_records(), read .records, or construct CANFrame per "
        "element outside whitelisted helpers, and may not whitelist "
        "helpers they do not define"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if "columnar" not in ctx.roles:
            return
        defined = {
            node.name
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for name in sorted(ctx.hot_path_whitelist - defined):
            yield Violation(
                path=ctx.rel,
                line=1,
                rule=self.name,
                message=(
                    f"hot-path whitelist names {name!r}, which is no function "
                    "in this module; drop the stale entry"
                ),
            )
        yield from self._walk(ctx, ctx.tree, in_whitelisted=False)

    def _walk(
        self, ctx: FileContext, node: ast.AST, in_whitelisted: bool
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            whitelisted = in_whitelisted
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                whitelisted = whitelisted or child.name in ctx.hot_path_whitelist
            if not whitelisted:
                yield from self._inspect(ctx, child)
            yield from self._walk(ctx, child, whitelisted)

    def _inspect(self, ctx: FileContext, node: ast.AST) -> Iterator[Violation]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield Violation(
                path=ctx.rel,
                line=node.lineno,
                rule=self.name,
                message=(
                    "Python for-loop in a columnar module; vectorise or move "
                    "into a whitelisted scalar helper"
                ),
            )
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "to_records":
                yield Violation(
                    path=ctx.rel,
                    line=node.lineno,
                    rule=self.name,
                    message=(
                        ".to_records() materialises per-frame rows on the "
                        "columnar hot path"
                    ),
                )
            else:
                chain = attr_chain(node.func)
                if chain and chain[-1] == "CANFrame":
                    yield Violation(
                        path=ctx.rel,
                        line=node.lineno,
                        rule=self.name,
                        message=(
                            "per-element CANFrame construction in a columnar "
                            "module; keep frames in ScheduleArray/CaptureArray "
                            "columns"
                        ),
                    )
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "records"
            and isinstance(node.ctx, ast.Load)
        ):
            yield Violation(
                path=ctx.rel,
                line=node.lineno,
                rule=self.name,
                message=(
                    ".records materialises the per-frame row list; columnar "
                    "paths take the CaptureArray (.capture) directly"
                ),
            )

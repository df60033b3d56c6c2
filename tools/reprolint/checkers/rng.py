"""RNG discipline: every draw flows through an injected Generator.

The E-table reproductions only hold if every stochastic component
consumes a named, seed-derived ``np.random.Generator`` from
:mod:`repro.utils.rng`.  A single module-level ``np.random.rand()`` (or
stdlib ``random``) call introduces hidden global state that breaks
order-stable campaign sweeps and cross-backend determinism, so any
generator construction or legacy-API draw outside the ``rng-home``
module is a violation — annotations like ``np.random.Generator`` are
fine, calls are not.  Importing ``numpy.random`` itself (``import
numpy.random as npr``, ``from numpy import random``, ``from numpy.random
import ...``) is a violation too, since calls through such an alias
escape the ``np.random.*`` call check.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.core import Checker, FileContext, Violation, attr_chain, register


_NUMPY_RANDOM_IMPORT = (
    "numpy.random imported; construct generators only in repro.utils.rng "
    "and inject them"
)


def _is_numpy_random(module: str) -> bool:
    return module == "numpy.random" or module.startswith("numpy.random.")


@register
class RngDiscipline(Checker):
    name = "rng-discipline"
    description = (
        "randomness must flow through injected np.random.Generator streams "
        "built by repro.utils.rng (no np.random.* calls, no stdlib random)"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if "rng-home" in ctx.roles:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self._violation(
                            ctx,
                            node,
                            "stdlib random is banned; draw from an injected "
                            "np.random.Generator (repro.utils.rng.new_rng)",
                        )
                    elif _is_numpy_random(alias.name):
                        yield self._violation(ctx, node, _NUMPY_RANDOM_IMPORT)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "random" or module.startswith("random."):
                    yield self._violation(
                        ctx,
                        node,
                        "stdlib random is banned; draw from an injected "
                        "np.random.Generator (repro.utils.rng.new_rng)",
                    )
                elif _is_numpy_random(module) or (
                    module == "numpy" and any(alias.name == "random" for alias in node.names)
                ):
                    yield self._violation(ctx, node, _NUMPY_RANDOM_IMPORT)
            elif isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if (
                    chain
                    and len(chain) >= 3
                    and chain[0] in ("np", "numpy")
                    and chain[1] == "random"
                ):
                    target = ".".join(chain)
                    yield self._violation(
                        ctx,
                        node,
                        f"{target}() call outside repro/utils/rng.py; use "
                        "repro.utils.rng.new_rng / an injected Generator",
                    )

    def _violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=ctx.rel,
            line=getattr(node, "lineno", 1),
            rule=self.name,
            message=message,
        )

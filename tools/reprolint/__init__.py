"""reprolint — AST-based invariant checks for the columnar IDS stack.

The repo's headline guarantees (bit-exact fastbus-vs-event arbitration,
bit-exact compiled inference, order-stable seeded campaign sweeps) rest
on coding conventions that nothing in the runtime enforces.  This
package enforces them statically, with stdlib ``ast`` only:

======================  ====================================================
rule                    invariant
======================  ====================================================
``rng-discipline``      every random draw flows through an injected
                        ``np.random.Generator`` built by ``repro.utils.rng``
``hot-path-purity``     columnar modules never fall back to per-frame
                        Python loops or per-record materialisation
``dtype-discipline``    kernel allocations pass an explicit ``dtype=``
``pickle-safety``       everything shipped to a process pool is a
                        module-top-level callable
``ab-equivalence``      every public ``engine=`` / ``faults=`` A/B switch
                        is exercised with both values under ``tests/``
``sim-time-hygiene``    no wall-clock reads inside simulation modules
``typed-core``          the strict-mypy core modules stay fully annotated
``bare-suppression``    every suppression carries a justification
======================  ====================================================

Run ``python -m tools.reprolint --list-rules`` for the catalogue, or
``scripts/lint.sh`` for the full gate (reprolint + typed-core mypy).
"""

from tools.reprolint.core import LintResult, Violation, run_lint
from tools.reprolint.project import DEFAULT_CONFIG, LintConfig

__all__ = ["DEFAULT_CONFIG", "LintConfig", "LintResult", "Violation", "run_lint"]

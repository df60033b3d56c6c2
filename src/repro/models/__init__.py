"""IDS model definitions.

:func:`~repro.models.qmlp.build_qmlp` constructs the paper's quantised
multi-layer perceptron from a :class:`~repro.models.qmlp.QMLPConfig`, at
any uniform bit width (4-bit is the deployed configuration).
"""

from repro.models.qmlp import QMLPConfig, build_qmlp

__all__ = ["QMLPConfig", "build_qmlp"]

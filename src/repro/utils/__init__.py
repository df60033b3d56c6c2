"""Shared utilities: seeded RNG, bit manipulation, tables, logging.

These helpers are dependency-free (numpy only) and used across every
subsystem.  Nothing in here is specific to CAN or FPGAs.
"""

from repro.utils.bitops import bits_to_int, bytes_to_bits, int_to_bits
from repro.utils.logutil import get_logger
from repro.utils.rng import SeedSequence, derive_seed, new_rng
from repro.utils.tables import Table, format_si

__all__ = [
    "SeedSequence",
    "Table",
    "bits_to_int",
    "bytes_to_bits",
    "derive_seed",
    "format_si",
    "get_logger",
    "int_to_bits",
    "new_rng",
]

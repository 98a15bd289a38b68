"""Shared low-level utilities for the CBMA reproduction.

This subpackage collects the small, dependency-free building blocks used
throughout the library:

- :mod:`repro.utils.bits` -- bit/byte packing and conversions.
- :mod:`repro.utils.crc` -- table-driven CRC-16 implementations.
- :mod:`repro.utils.db` -- decibel and linear power conversions.
- :mod:`repro.utils.correlation` -- normalised correlation, peak picking
  and the denominator guard (the sliding kernel lives in
  :mod:`repro.utils.correlation_batch`).
- :mod:`repro.utils.rng` -- reproducible random number generation.
- :mod:`repro.utils.validation` -- argument checking helpers.
"""

from repro.utils.bits import (
    bits_to_bytes,
    bits_to_int,
    bytes_to_bits,
    hamming_distance,
    int_to_bits,
    pack_bits,
    random_bits,
    unpack_bits,
)
from repro.utils.crc import Crc16, crc16_ccitt, crc16_ibm
from repro.utils.db import (
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    power_ratio_db,
    watts_to_dbm,
)
from repro.utils.correlation import (
    normalized_correlation,
    correlation_peaks,
)
from repro.utils.rng import child_rngs, make_rng, spawn_seed
from repro.utils.validation import (
    ensure_in_range,
    ensure_binary_array,
    ensure_positive,
)

__all__ = [
    "bits_to_bytes",
    "bits_to_int",
    "bytes_to_bits",
    "hamming_distance",
    "int_to_bits",
    "pack_bits",
    "random_bits",
    "unpack_bits",
    "Crc16",
    "crc16_ccitt",
    "crc16_ibm",
    "db_to_linear",
    "dbm_to_watts",
    "linear_to_db",
    "power_ratio_db",
    "watts_to_dbm",
    "normalized_correlation",
    "correlation_peaks",
    "child_rngs",
    "make_rng",
    "spawn_seed",
    "ensure_in_range",
    "ensure_binary_array",
    "ensure_positive",
]

"""Small shared utilities: units, ids, deterministic RNG plumbing."""

from repro.utils.units import (
    KIB,
    MIB,
    GIB,
    TIB,
    bytes_to_gib,
    bytes_to_mib,
    format_bytes,
    format_seconds,
)
from repro.utils.ids import IdAllocator
from repro.utils.rng import derive_rng

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "TIB",
    "bytes_to_gib",
    "bytes_to_mib",
    "format_bytes",
    "format_seconds",
    "IdAllocator",
    "derive_rng",
]

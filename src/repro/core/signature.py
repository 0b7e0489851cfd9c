"""PC signatures for reuse predictors.

State-of-the-art policies index their predictors with a hash of the
program counter; on a multi-core they fold in the core id (Mockingjay's
"hash of PC and core ID", paper Figure 1).  Prefetch requests carry the
triggering load's PC plus a prefetch bit so demand and prefetch behaviour
train separate entries (paper Section 3.3).
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finaliser: cheap, well-distributed 64-bit hash."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def stable_hash(text: str) -> int:
    """Process-independent string hash (built-in ``hash`` varies with
    PYTHONHASHSEED, which would make trace seeds irreproducible)."""
    value = 0xCBF29CE484222325  # FNV-1a
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & _MASK64
    return value


def make_signature(pc: int, core_id: int = 0, is_prefetch: bool = False,
                   table_bits: int = 11) -> int:
    """Predictor index for (*pc*, *core_id*, prefetch bit).

    Args:
        pc: program counter of the (triggering) load.
        core_id: requesting core — folded in so one shared physical table
            keeps per-core entries distinct.
        is_prefetch: set for prefetch fills (Section 3.3's prefetch bit).
        table_bits: log2 of the predictor table size.

    Returns:
        An index in ``[0, 2**table_bits)``.
    """
    # mix64(key), inline: every predictor lookup and training computes one.
    x = ((pc << 7) ^ (core_id << 1) ^ (1 if is_prefetch else 0)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x & ((1 << table_bits) - 1)

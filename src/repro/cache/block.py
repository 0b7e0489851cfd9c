"""Cache-line metadata and the per-access context record.

``AccessContext`` is the single record threaded through the whole memory
system for one access: caches consult it for indexing, replacement policies
for PC/core signatures, and the Drishti predictor fabric for routing
(which slice is asking, which core owns the predictor).
"""

from __future__ import annotations

# Access kinds.  Policies treat them differently: demand loads train
# reuse predictors, prefetches carry the triggering load's PC plus a
# prefetch bit (Section 3.3 of the paper), writebacks never train.
DEMAND = "demand"
PREFETCH = "prefetch"
WRITEBACK = "writeback"


class AccessContext:
    """Everything the memory system needs to know about one access.

    ``is_demand``/``is_prefetch``/``is_writeback`` are set once from
    *kind* at construction (every cache and policy hook reads them), so
    *kind* is fixed for the life of the record.
    """

    __slots__ = ("pc", "block", "core_id", "is_write", "kind", "cycle",
                 "slice_id", "is_demand", "is_prefetch", "is_writeback")

    def __init__(self, pc: int, block: int, core_id: int,
                 is_write: bool = False, kind: str = DEMAND, cycle: int = 0,
                 slice_id: int = 0) -> None:
        self.pc = pc
        self.block = block
        self.core_id = core_id
        self.is_write = is_write
        self.kind = kind
        self.cycle = cycle
        self.slice_id = slice_id  # filled in by the sliced LLC front-end
        self.is_demand = kind == DEMAND
        self.is_prefetch = kind == PREFETCH
        self.is_writeback = kind == WRITEBACK

    def __repr__(self) -> str:
        return (f"AccessContext(pc={self.pc!r}, block={self.block!r}, "
                f"core_id={self.core_id!r}, is_write={self.is_write!r}, "
                f"kind={self.kind!r}, cycle={self.cycle!r}, "
                f"slice_id={self.slice_id!r})")


class CacheBlock:
    """One cache line's bookkeeping state.

    Uses ``__slots__``: simulations hold hundreds of thousands of these.
    A way that holds no line holds the shared :data:`INVALID_LINE`; a
    cache allocates a ``CacheBlock`` for a way when it first fills it.
    """

    __slots__ = ("valid", "block", "dirty", "pc", "core_id", "is_prefetch",
                 "inserted_at", "last_touch")

    def __init__(self) -> None:
        self.valid = False
        self.block = -1
        self.dirty = False
        self.pc = 0
        self.core_id = -1
        self.is_prefetch = False
        self.inserted_at = 0
        self.last_touch = 0

    def __repr__(self) -> str:
        if not self.valid:
            return "CacheBlock(invalid)"
        flags = "D" if self.dirty else "-"
        flags += "P" if self.is_prefetch else "-"
        return f"CacheBlock(block={self.block:#x}, {flags}, core={self.core_id})"


class _ReadOnlyLine(CacheBlock):
    """A :class:`CacheBlock` with a fresh line's fields that refuses writes."""

    __slots__ = ()

    def __init__(self) -> None:
        fresh = CacheBlock()
        for name in CacheBlock.__slots__:
            object.__setattr__(self, name, getattr(fresh, name))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"INVALID_LINE is shared by every empty way; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(
            f"INVALID_LINE is shared by every empty way; cannot delete "
            f"{name!r}")

    def __reduce__(self) -> str:
        # Copies and unpickled caches point at this module's one line.
        return "INVALID_LINE"


#: The one invalid line every empty way of every cache points at.  Its
#: fields equal a fresh ``CacheBlock()``'s, and any write to it raises.
INVALID_LINE: CacheBlock = _ReadOnlyLine()

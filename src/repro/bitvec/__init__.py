"""Bit-vector substrate: packed validity vectors."""

from .. import _lazy

__all__ = [
    "BitMatrix",
    "BitVector",
    "intersect_all",
    "union_all",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".bitvector": ("BitMatrix", "BitVector", "intersect_all", "union_all"),
})

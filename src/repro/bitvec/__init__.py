"""Bit-vector substrate: packed and run-length encoded validity vectors."""

from .. import _lazy

__all__ = [
    "BitVector",
    "RleBitVector",
    "best_encoding",
    "intersect_all",
    "union_all",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".bitvector": ("BitVector", "intersect_all", "union_all"),
    ".rle": ("RleBitVector", "best_encoding"),
})

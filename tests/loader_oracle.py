"""The loader's bit-vector path one vector at a time: the reference the
matrix path matches.

:class:`~repro.server.loader.ClientAssistedLoader` keeps a chunk's vectors
as one bit matrix: the load mask is an OR-fold of its rows, the loaded
rows' bits come from one gather over the whole matrix, and each id's
:class:`BitVector` is built once, when a row group is written.  This
module is the earlier per-vector path — a ``union_all`` load mask, a
:func:`~repro.bitvec.bitvector.selector` restriction per vector, and
pending chunks concatenated (and sliced at a group boundary) vector by
vector — so a differential test can demand equal stored vectors from
both.

It covers loads whose records share one schema (no file rotation): give
it what the chunks carried, as ``{id: BitVector}`` dicts, never the
chunks' matrices.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bitvec.bitvector import BitVector, selector, union_all
from repro.rawjson.parser import try_parse
from repro.storage.rowgroup import ROW_GROUP_ROWS

#: One chunk as the oracle takes it: its records and its vectors.
OracleChunk = Tuple[List[str], Mapping[int, BitVector]]
#: One pending chunk: its loaded row count and derived vectors.
_Segment = Tuple[int, Dict[int, BitVector]]


def derive_bitvectors(vectors: Mapping[int, BitVector],
                      kept_positions: Sequence[int]
                      ) -> Dict[int, BitVector]:
    """Restrict every vector to the loaded rows: loaded row ``i`` is
    ``kept_positions[i]`` of the chunk."""
    restrict = selector(kept_positions)
    return {pid: restrict(bv) for pid, bv in vectors.items()}


def take(segments: List[_Segment], rows: int) -> Dict[int, BitVector]:
    """Remove the first *rows* pending rows from *segments*; return one
    group's vectors.  A chunk that lacked an id contributes 1s."""
    taken: List[_Segment] = []
    needed = rows
    while needed:
        count, vectors = segments.pop(0)
        if count > needed:
            segments.insert(0, (count - needed, {
                pid: bv.slice(needed, count) for pid, bv in vectors.items()
            }))
            vectors = {pid: bv.slice(0, needed)
                       for pid, bv in vectors.items()}
            count = needed
        taken.append((count, vectors))
        needed -= count
    if len(taken) == 1:
        return taken[0][1]
    ids = dict.fromkeys(pid for _, vectors in taken for pid in vectors)
    return {
        pid: reduce(BitVector.concat, [
            vectors[pid] if pid in vectors else BitVector.ones(count)
            for count, vectors in taken
        ])
        for pid in ids
    }


def load_groups(chunks: Sequence[OracleChunk], partial_loading: bool,
                required_ids: Optional[Sequence[int]] = None,
                seal_every: Optional[int] = None
                ) -> List[List[Tuple[int, Dict[int, BitVector]]]]:
    """Per part, its row groups as ``(row count, {id: vector})``: what a
    loader fed *chunks* (sealing after every *seal_every* chunks, then
    finalized) stores."""
    required = None if required_ids is None else frozenset(required_ids)
    parts: List[List[Tuple[int, Dict[int, BitVector]]]] = []
    pending: List[_Segment] = []
    part_open = False

    def seal() -> None:
        nonlocal part_open
        if part_open:
            rows = sum(count for count, _ in pending)
            if rows:
                parts[-1].append((rows, take(pending, rows)))
            part_open = False

    for number, (records, vectors) in enumerate(chunks, 1):
        n = len(records)
        sideline = partial_loading and (
            bool(vectors) if required is None else required <= set(vectors)
        )
        if sideline and vectors:
            mask = union_all([vectors[pid] for pid in sorted(vectors)])
        else:
            mask = BitVector.ones(n)
        selected = list(compress(range(n), mask.to_flags()))
        kept = []
        for position in selected:
            value, ok = try_parse(records[position])
            if ok and isinstance(value, dict):
                kept.append(position)
        if kept:
            if not part_open:
                parts.append([])
                part_open = True
            pending.append((len(kept), derive_bitvectors(vectors, kept)))
            while sum(count for count, _ in pending) >= ROW_GROUP_ROWS:
                parts[-1].append((ROW_GROUP_ROWS,
                                  take(pending, ROW_GROUP_ROWS)))
        if seal_every is not None and number % seal_every == 0:
            seal()
    seal()
    return parts

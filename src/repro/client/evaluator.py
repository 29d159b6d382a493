"""Client-side predicate evaluation: raw records → bit-vectors.

This is the code that runs "on the sensor": for every pushed-down predicate
it runs the compiled pattern matcher over each raw record and packs the
outcomes into one bit-vector per predicate (paper §IV).  No JSON parsing
happens here — that is the whole point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from ..bitvec.bitvector import BitVector
from ..core.optimizer import PushdownEntry
from ..rawjson.chunks import JsonChunk

#: Maps one hit byte per record (0 or 1) to an ASCII binary digit.
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass
class EvaluationReport:
    """Per-chunk accounting from the evaluator."""

    records: int = 0
    predicates: int = 0
    matches: Dict[int, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    modeled_us: float = 0.0

    def modeled_us_per_record(self) -> float:
        """Modeled client cost per record — compare against the budget."""
        if self.records == 0:
            return 0.0
        return self.modeled_us / self.records


class ClientEvaluator:
    """Evaluate a pushdown plan's predicates over raw JSON records."""

    def __init__(self, entries: Sequence[PushdownEntry]):
        self._entries = list(entries)
        self._matchers: List[Callable[[str], bool]] = [
            entry.compiled.matcher() for entry in self._entries
        ]

    @property
    def predicate_ids(self) -> List[int]:
        """Ids this evaluator annotates."""
        return [entry.predicate_id for entry in self._entries]

    def annotate(self, chunk: JsonChunk) -> EvaluationReport:
        """Attach one bit-vector per pushed predicate to *chunk*.

        Each predicate's hits become one byte per record (records in
        reverse order), read as a binary number: bit ``i`` of that int is
        record ``i``, so its little-endian bytes are the bit-vector payload.
        """
        records = chunk.records
        n = len(records)
        nbytes = (n + 7) // 8
        report = EvaluationReport(records=n, predicates=len(self._entries))
        start = time.perf_counter()
        backwards = records[::-1]
        for entry, matcher in zip(self._entries, self._matchers):
            hits = bytes(map(matcher, backwards))
            packed = int(hits.translate(_ASCII_BITS), 2) if n else 0
            chunk.attach(
                entry.predicate_id,
                BitVector(n, packed.to_bytes(nbytes, "little")),
            )
            report.matches[entry.predicate_id] = hits.count(1)
        report.wall_seconds = time.perf_counter() - start
        report.modeled_us = n * sum(entry.cost_us for entry in self._entries)
        return report

"""Client-side predicate evaluation: raw records → bit-vectors.

This is the code that runs "on the sensor": for every pushed-down
predicate it tests each raw record and packs the outcomes into one
bit-vector per predicate (paper §IV).  No JSON parsing happens here —
that is the whole point.  The chunk's vectors are one
:class:`~repro.bitvec.bitvector.BitMatrix`: each clause's packed int
becomes a row of it, and no per-predicate
:class:`~repro.bitvec.bitvector.BitVector` is built.

Clauses on one key share its search.  A plan pushes many key-value
clauses on few keys (yelp_pushdown: 29 clauses on 4 keys), so each chunk
scans every record once per distinct key: the key's
:func:`~repro.rawjson.raw_matcher.window_finder` lists the windows after
each key occurrence, joined with ``,``, and each key-value spec on that key
is one ``in`` test on the joined windows.  Single-pattern specs (exact,
prefix, suffix, substring, key presence) are one ``in`` test on the record.
Every test is ``map(operator.contains, ...)``: C level, no Python frame per
record.

The shared scan is exact only where
:func:`~repro.rawjson.raw_matcher.window_scan_exact` holds: the key pattern
holds no ``,`` or ``}`` and cannot overlap itself (and the value pattern is
non-empty, without ``,`` or ``}``).  Any other key-value spec runs its own
:meth:`PatternSpec.matcher` scan per record, the only exact path for it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from operator import contains
from typing import Callable, Dict, List, Sequence, Tuple

from ..bitvec.bitvector import BitMatrix
from ..core.optimizer import PushdownEntry
from ..core.predicates import PredicateKind
from ..rawjson.chunks import JsonChunk
from ..rawjson.raw_matcher import window_finder, window_scan_exact

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
        #: One window finder per distinct window-scanned key; text ``i + 1``
        #: of a chunk is finder ``i``'s joined windows, text 0 the records.
        self._finders: List[Callable[[str], List[str]]] = []
        texts: Dict[str, int] = {}
        #: Per entry: (text index, pattern) ``in`` tests, then whole-record
        #: matchers for the key-value specs the window scan cannot answer.
        self._tests: List[Tuple[List[Tuple[int, str]],
                                List[Callable[[str], bool]]]] = []
        for entry in self._entries:
            probes: List[Tuple[int, str]] = []
            matchers: List[Callable[[str], bool]] = []
            for spec in entry.compiled.specs:
                if spec.kind is not PredicateKind.KEY_VALUE:
                    probes.append((0, spec.patterns[0]))
                    continue
                key, value = spec.patterns
                if not window_scan_exact(key, value):
                    matchers.append(spec.matcher())
                    continue
                if key not in texts:
                    self._finders.append(window_finder(key))
                    texts[key] = len(self._finders)
                probes.append((texts[key], value))
            self._tests.append((probes, matchers))
        self._ids = frozenset(self.predicate_ids)

    @property
    def predicate_ids(self) -> List[int]:
        """Ids this evaluator annotates."""
        return [entry.predicate_id for entry in self._entries]

    def annotate(self, chunk: JsonChunk) -> EvaluationReport:
        """Annotate *chunk* with one bit-vector per pushed predicate.

        Each spec's hits become one byte per record (records in reverse
        order), read as a binary number: bit ``i`` of that int is record
        ``i``.  A clause ORs its specs' ints, and the clause ints become
        the rows of the chunk's :class:`BitMatrix` (rows the chunk
        already carried for other ids are kept).
        """
        records = chunk.records
        n = len(records)
        report = EvaluationReport(records=n, predicates=len(self._entries))
        start = time.perf_counter()
        backwards = records[::-1]
        texts = [backwards]
        for find in self._finders:
            texts.append(list(map(",".join, map(find, backwards))))
        rows = [(pid, chunk.matrix.row(pid)) for pid in chunk.matrix.ids
                if pid not in self._ids]
        for entry, (probes, matchers) in zip(self._entries, self._tests):
            packed = 0
            for text, pattern in probes:
                packed |= _pack(bytes(map(contains, texts[text],
                                          repeat(pattern))))
            for match in matchers:
                packed |= _pack(bytes(map(match, backwards)))
            rows.append((entry.predicate_id, packed))
            report.matches[entry.predicate_id] = packed.bit_count()
        chunk.matrix = BitMatrix.from_rows(n, rows)
        report.wall_seconds = time.perf_counter() - start
        report.modeled_us = n * sum(entry.cost_us for entry in self._entries)
        return report


def _pack(hits: bytes) -> int:
    """Hit bytes (0/1, last record first) as an int: bit ``i`` is record i."""
    return int(hits.translate(_ASCII_BITS) or b"0", 2)

"""Compile SQL predicates into raw pattern strings (paper Table I).

A pattern spec tells a client *what bytes to search for* so a predicate can
be evaluated on serialized JSON without parsing.  Operands are written by
the writer that stores the records (:mod:`repro.rawjson.writer`): strings
through its :func:`~repro.rawjson.writer.escape_string`, key-value operands
through its :func:`~repro.rawjson.writer.dumps`.  A pattern is therefore the
stored bytes by construction, which makes a semantic match always imply a
raw match (no false negatives):

====================  ==========================================
Predicate             Pattern string(s)
====================  ==========================================
``name = 'Bob'``      ``"Bob"``            (quoted operand)
``text LIKE '%de%'``  ``de``               (bare operand)
``time LIKE 'a%'``    ``"a``               (opening quote anchors prefix)
``time LIKE '%a'``    ``a"``               (closing quote anchors suffix)
``email != NULL``     ``"email"``          (quoted key)
``age = 10``          ``"age":`` and ``10``  (one compiled window scan)
====================  ==========================================

On its own, every spec runs as one C-level scan (:meth:`PatternSpec.matcher`):
the single-pattern kinds are one substring search, and ``age = 10`` is one
compiled regex scan, ``"age":[^,}]*?10``, with the same window semantics as
the two-phase search (see :mod:`repro.rawjson.raw_matcher`).  The scan is
compiled on first use and cached, never by :func:`compile_predicate`, which
the cost model calls for every candidate clause while planning.

A client running a whole plan (:class:`repro.client.ClientEvaluator`)
shares work between specs: one window scan per distinct key lists the
windows after ``"age":``, and each key-value spec on that key is one C-level
``in`` test on them; each single-pattern spec is one ``in`` test on the
record.  The shared scan is exact only when the key pattern holds no ``,`` or
``}`` and cannot overlap itself, and the value pattern is non-empty without
``,`` or ``}`` (:func:`repro.rawjson.raw_matcher.window_scan_exact`); any
other key-value spec falls back to its own :meth:`PatternSpec.matcher` scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..rawjson import raw_matcher
from ..rawjson.writer import dumps, escape_string
from .predicates import Clause, PredicateKind, SimplePredicate


@dataclass(frozen=True)
class PatternSpec:
    """The compiled matchable form of one simple predicate.

    Attributes:
        kind: The predicate family, which selects the matching strategy.
        patterns: One pattern string for the single-search kinds, two
            (key pattern, value pattern) for key-value match.
    """

    kind: PredicateKind
    patterns: Tuple[str, ...]

    def match(self, raw: str) -> bool:
        """Evaluate against one raw JSON record (false positives allowed)."""
        return self.matcher()(raw)

    def matcher(self) -> Callable[[str], bool]:
        """This spec's one-scan matcher, as a standalone callable."""
        if self.kind is PredicateKind.KEY_VALUE:
            return raw_matcher.key_value_matcher(*self.patterns)
        return raw_matcher.contains_matcher(self.patterns[0])

    def searches(self) -> List[str]:
        """The individual substring searches this spec performs.

        The cost model charges one substring-search term per entry.
        """
        return list(self.patterns)

    def total_pattern_length(self) -> int:
        """Σ len over pattern strings — the cost model's ``len(p)``."""
        return sum(len(p) for p in self.patterns)


@dataclass(frozen=True)
class CompiledClause:
    """A clause compiled to pattern specs; matches if any disjunct does.

    The cost of evaluating a disjunction is the sum of its simple-predicate
    costs (paper §V-D): clients must run every disjunct's search because the
    disjunction is true when *any* matches (short-circuiting only helps on
    matches, which the cost model already prices via the selectivity split).
    """

    clause: Clause
    specs: Tuple[PatternSpec, ...]

    def match(self, raw: str) -> bool:
        """Evaluate the disjunction against one raw record."""
        return self.matcher()(raw)

    def matcher(self) -> Callable[[str], bool]:
        """A standalone callable for hot loops (no attribute lookups)."""
        matchers = [spec.matcher() for spec in self.specs]
        if len(matchers) == 1:
            return matchers[0]

        def match_any(raw: str) -> bool:
            for match in matchers:
                if match(raw):
                    return True
            return False

        return match_any

    def total_pattern_length(self) -> int:
        """Σ len over all pattern strings of all disjuncts."""
        return sum(spec.total_pattern_length() for spec in self.specs)

    def search_count(self) -> int:
        """Number of substring searches (startup-cost multiplier)."""
        return sum(len(spec.patterns) for spec in self.specs)


def compile_predicate(predicate: SimplePredicate) -> PatternSpec:
    """Compile one simple predicate per the Table I rules."""
    kind = predicate.kind
    if kind is PredicateKind.EXACT:
        operand = escape_string(predicate.value)
        return PatternSpec(kind, (f'"{operand}"',))
    if kind is PredicateKind.SUBSTRING:
        return PatternSpec(kind, (escape_string(predicate.value),))
    if kind is PredicateKind.PREFIX:
        return PatternSpec(kind, ('"' + escape_string(predicate.value),))
    if kind is PredicateKind.SUFFIX:
        return PatternSpec(kind, (escape_string(predicate.value) + '"',))
    if kind is PredicateKind.KEY_PRESENCE:
        return PatternSpec(kind, (f'"{escape_string(predicate.column)}"',))
    if kind is PredicateKind.KEY_VALUE:
        key_pattern = f'"{escape_string(predicate.column)}":'
        return PatternSpec(kind, (key_pattern, dumps(predicate.value)))
    raise AssertionError(f"unhandled kind {kind}")


def compile_clause(clause: Clause) -> CompiledClause:
    """Compile every disjunct of *clause*."""
    return CompiledClause(
        clause, tuple(compile_predicate(p) for p in clause.predicates)
    )


def compile_clauses(clauses) -> Dict[Clause, CompiledClause]:
    """Compile a collection of clauses into a lookup table."""
    return {c: compile_clause(c) for c in clauses}

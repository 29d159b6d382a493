"""The predicate model: CIAO's unit of pushdown.

Paper §V-A: each query's WHERE clause is a *conjunction of disjunctive
clauses*.  The disjunctive clause — e.g. ``name IN ('Bob', 'John')`` — is the
atomic unit of pushdown (pushing only ``name = 'Bob'`` could discard tuples
the disjunction keeps), and is what the paper calls "a predicate" from §V on.

Supported simple predicates (Table I):

* exact string match      — ``name = 'Bob'``
* substring match         — ``text LIKE '%delicious%'``
* prefix / suffix match   — ``time LIKE '2016%'`` / ``time LIKE '%:30'``
  (a natural refinement of substring match: anchoring against the JSON
  string delimiters keeps the no-false-negative guarantee)
* key-presence match      — ``email != NULL``
* key-value match         — ``age = 10`` (integers and booleans)

Unsupported by design, because raw matching would produce *false negatives*
(paper §IV-B): range and inequality predicates, and float equality (the same
number can have several textual representations, e.g. ``2.4`` vs ``24e-1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple, Union

PredicateValue = Union[str, int, bool, None]


class PredicateKind(Enum):
    """The matchable predicate families of Table I."""

    EXACT = "exact"
    SUBSTRING = "substring"
    PREFIX = "prefix"
    SUFFIX = "suffix"
    KEY_PRESENCE = "key_presence"
    KEY_VALUE = "key_value"


class UnsupportedPredicateError(ValueError):
    """Raised when a predicate cannot be pushed down without false negatives."""


@dataclass(frozen=True)
class SimplePredicate:
    """One atomic, client-evaluable predicate on a single column.

    Instances are immutable and totally ordered so predicate sets have a
    deterministic iteration order — greedy tie-breaking must not depend on
    hash randomization.  The sort key stringifies the operand because values
    of different types (str / int / bool) may share a column.
    """

    kind: PredicateKind
    column: str
    value: PredicateValue

    def __post_init__(self) -> None:
        self._validate()

    def _sort_key(self) -> Tuple[str, str, str, str]:
        return (
            self.column,
            self.kind.value,
            type(self.value).__name__,
            str(self.value),
        )

    def __lt__(self, other: "SimplePredicate") -> bool:
        if not isinstance(other, SimplePredicate):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def _validate(self) -> None:
        if not self.column:
            raise ValueError("predicates need a column name")
        kind, value = self.kind, self.value
        if kind in (PredicateKind.EXACT, PredicateKind.SUBSTRING,
                    PredicateKind.PREFIX, PredicateKind.SUFFIX):
            if not isinstance(value, str) or not value:
                raise UnsupportedPredicateError(
                    f"{kind.value} match needs a non-empty string operand, "
                    f"got {value!r}"
                )
        elif kind is PredicateKind.KEY_PRESENCE:
            if value is not None:
                raise UnsupportedPredicateError(
                    "key-presence match takes no operand"
                )
        elif kind is PredicateKind.KEY_VALUE:
            if isinstance(value, bool):
                return
            if isinstance(value, int):
                return
            if isinstance(value, float):
                raise UnsupportedPredicateError(
                    "float equality is not pushdown-safe: the same number "
                    "has multiple textual representations (2.4 vs 24e-1)"
                )
            raise UnsupportedPredicateError(
                f"key-value match needs an int or bool, got {value!r}"
            )

    # ------------------------------------------------------------------
    def evaluate(self, record: Mapping[str, Any]) -> bool:
        """Ground-truth semantics on a *parsed* record (top-level keys).

        This is what queries ultimately verify after data skipping; the raw
        matchers in :mod:`repro.rawjson.raw_matcher` approximate it with
        one-sided (false-positive-only) error.
        """
        kind = self.kind
        if kind is PredicateKind.KEY_PRESENCE:
            return record.get(self.column) is not None
        actual = record.get(self.column)
        if kind is PredicateKind.EXACT:
            return isinstance(actual, str) and actual == self.value
        if kind is PredicateKind.SUBSTRING:
            return isinstance(actual, str) and self.value in actual
        if kind is PredicateKind.PREFIX:
            return isinstance(actual, str) and actual.startswith(self.value)
        if kind is PredicateKind.SUFFIX:
            return isinstance(actual, str) and actual.endswith(self.value)
        if kind is PredicateKind.KEY_VALUE:
            if isinstance(self.value, bool):
                return isinstance(actual, bool) and actual is self.value
            return (
                isinstance(actual, int)
                and not isinstance(actual, bool)
                and actual == self.value
            )
        raise AssertionError(f"unhandled kind {kind}")

    def sql(self) -> str:
        """Render as the SQL fragment the engine's parser accepts."""
        kind = self.kind
        if kind is PredicateKind.EXACT:
            return f"{self.column} = '{self.value}'"
        if kind is PredicateKind.SUBSTRING:
            return f"{self.column} LIKE '%{self.value}%'"
        if kind is PredicateKind.PREFIX:
            return f"{self.column} LIKE '{self.value}%'"
        if kind is PredicateKind.SUFFIX:
            return f"{self.column} LIKE '%{self.value}'"
        if kind is PredicateKind.KEY_PRESENCE:
            return f"{self.column} != NULL"
        if kind is PredicateKind.KEY_VALUE:
            if isinstance(self.value, bool):
                return f"{self.column} = {'true' if self.value else 'false'}"
            return f"{self.column} = {self.value}"
        raise AssertionError(f"unhandled kind {kind}")

    def __str__(self) -> str:
        return self.sql()


# Convenience constructors -------------------------------------------------
def exact(column: str, value: str) -> SimplePredicate:
    """``column = 'value'`` (string equality)."""
    return SimplePredicate(PredicateKind.EXACT, column, value)


def substring(column: str, value: str) -> SimplePredicate:
    """``column LIKE '%value%'``."""
    return SimplePredicate(PredicateKind.SUBSTRING, column, value)


def prefix(column: str, value: str) -> SimplePredicate:
    """``column LIKE 'value%'``."""
    return SimplePredicate(PredicateKind.PREFIX, column, value)


def suffix(column: str, value: str) -> SimplePredicate:
    """``column LIKE '%value'``."""
    return SimplePredicate(PredicateKind.SUFFIX, column, value)


def key_present(column: str) -> SimplePredicate:
    """``column != NULL``."""
    return SimplePredicate(PredicateKind.KEY_PRESENCE, column, None)


def key_value(column: str, value: Union[int, bool]) -> SimplePredicate:
    """``column = value`` for integers and booleans.

    Any other operand type raises :class:`TypeError`: the key-value window
    stops at ``,`` and ``}``, so an operand whose text held one could never
    match (a silent false negative).  A float raises
    :class:`UnsupportedPredicateError`, because float equality is not
    pushdown-safe.
    """
    if not isinstance(value, (int, float)):
        raise TypeError(
            f"key_value() needs an int or bool operand, got {value!r}"
        )
    return SimplePredicate(PredicateKind.KEY_VALUE, column, value)


@dataclass(frozen=True)
class Clause:
    """A disjunction of simple predicates: the atomic pushdown unit.

    A single simple predicate is represented as a one-element clause.  The
    paper refers to these as "predicates" from §V onward; we keep the name
    ``Clause`` to avoid ambiguity with :class:`SimplePredicate`.
    """

    predicates: Tuple[SimplePredicate, ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ValueError("a clause needs at least one simple predicate")
        # Canonical order makes logically-equal clauses compare equal, which
        # matters because predicate *overlap across queries* drives the
        # optimization: the same clause in two queries must be one set item.
        object.__setattr__(
            self, "predicates", tuple(sorted(set(self.predicates)))
        )
        self._cache_hash()

    # Planning looks clauses up in sets and dicts tens of thousands of
    # times; the generated hash re-hashed every predicate (enum member
    # included) on each lookup.  The value is the one the dataclass
    # would compute, computed once.
    def _cache_hash(self) -> None:
        object.__setattr__(self, "_hash", hash((self.predicates,)))

    def __hash__(self) -> int:
        return self._hash

    # ``str`` hashes are salted per process, so the cached hash must not
    # travel in a pickle: a stale one makes equal clauses miss each
    # other in the next process's dicts.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_hash"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._cache_hash()

    def __lt__(self, other: "Clause") -> bool:
        if not isinstance(other, Clause):
            return NotImplemented
        mine = tuple(p._sort_key() for p in self.predicates)
        theirs = tuple(p._sort_key() for p in other.predicates)
        return mine < theirs

    def evaluate(self, record: Mapping[str, Any]) -> bool:
        """True if any disjunct holds on the parsed record."""
        return any(p.evaluate(record) for p in self.predicates)

    def sql(self) -> str:
        """SQL fragment, parenthesized when disjunctive."""
        if len(self.predicates) == 1:
            return self.predicates[0].sql()
        return "(" + " OR ".join(p.sql() for p in self.predicates) + ")"

    @property
    def columns(self) -> Tuple[str, ...]:
        """Distinct columns referenced, sorted."""
        return tuple(sorted({p.column for p in self.predicates}))

    def __len__(self) -> int:
        return len(self.predicates)

    def __iter__(self) -> Iterator[SimplePredicate]:
        return iter(self.predicates)

    def __str__(self) -> str:
        return self.sql()


def clause(*predicates: SimplePredicate) -> Clause:
    """Build a :class:`Clause` from simple predicates."""
    return Clause(tuple(predicates))


@dataclass(frozen=True)
class Query:
    """A workload query: a conjunction of clauses plus a relative frequency.

    The evaluation uses the paper's single template
    ``SELECT COUNT(*) FROM <dataset> WHERE <conjunctive predicates>``;
    richer queries are supported by the engine but the optimizer only needs
    the WHERE structure and the frequency estimate.
    """

    clauses: Tuple[Clause, ...]
    frequency: float = 1.0
    name: str = ""

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("a query needs at least one clause")
        if self.frequency <= 0:
            raise ValueError("query frequency must be positive")
        # Duplicate clauses in one conjunction are redundant; drop them so
        # P_i is a set, as in the paper.
        object.__setattr__(
            self, "clauses", tuple(sorted(set(self.clauses)))
        )

    def evaluate(self, record: Mapping[str, Any]) -> bool:
        """True if the record satisfies every clause."""
        return all(c.evaluate(record) for c in self.clauses)

    def sql(self, table: str = "t") -> str:
        """Full SQL text in the paper's query-template shape."""
        where = " AND ".join(c.sql() for c in self.clauses)
        return f"SELECT COUNT(*) FROM {table} WHERE {where}"

    @property
    def clause_set(self) -> frozenset:
        """The set P_i of candidate clauses of this query."""
        return frozenset(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __str__(self) -> str:
        return self.sql()


@dataclass(frozen=True)
class Workload:
    """A set of prospective queries with frequencies (paper's Q).

    Provides the aggregate views the optimizer and the experiment harness
    need: the candidate pool ``P`` (union of all clause sets), per-clause
    query membership, and the Table III summary statistics.
    """

    queries: Tuple[Query, ...]
    dataset: str = ""

    def __post_init__(self) -> None:
        if not self.queries:
            raise ValueError("a workload needs at least one query")

    @property
    def candidate_pool(self) -> Tuple[Clause, ...]:
        """All distinct clauses across queries, in canonical order."""
        pool = set()
        for query in self.queries:
            pool.update(query.clauses)
        return tuple(sorted(pool))

    def queries_containing(self, clause_: Clause) -> List[Query]:
        """Queries whose conjunction includes *clause_*."""
        return [q for q in self.queries if clause_ in q.clause_set]

    def clause_query_counts(self) -> Dict[Clause, int]:
        """For each distinct clause, in how many queries it appears (X_i)."""
        counts: Dict[Clause, int] = {}
        for query in self.queries:
            for c in query.clauses:
                counts[c] = counts.get(c, 0) + 1
        return counts

    def total_predicates(self) -> int:
        """Σ over queries of #clauses — Table III's ``#Predicates``."""
        return sum(len(q) for q in self.queries)

    def min_max_predicates(self) -> Tuple[int, int]:
        """Smallest / largest #clauses in a query — Table III's Min/Max."""
        sizes = [len(q) for q in self.queries]
        return min(sizes), max(sizes)

    def normalized_frequencies(self) -> Dict[Query, float]:
        """Frequencies rescaled to sum to 1."""
        total = sum(q.frequency for q in self.queries)
        return {q: q.frequency / total for q in self.queries}

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def summary(self) -> Dict[str, Any]:
        """Table III-style summary row."""
        lo, hi = self.min_max_predicates()
        return {
            "dataset": self.dataset,
            "queries": len(self.queries),
            "total_predicates": self.total_predicates(),
            "min_predicates": lo,
            "max_predicates": hi,
            "distinct_clauses": len(self.candidate_pool),
        }

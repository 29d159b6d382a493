"""Predicate evaluation on *raw* JSON text, without parsing.

This is CIAO's client-side primitive (paper §IV): every supported predicate
reduces to one C-level scan over the serialized record.  Python's
``str.find`` and compiled regular expressions are C routines, so — exactly
as with ``std::string::find`` in the authors' C++ client — matching a record
costs orders of magnitude less than parsing it.

Key-value match (``age = 10``, Table I) is the paper's two-phase search:
find the key pattern ``"age":``, then look for the value pattern ``10`` in
the window that runs to the next key-value delimiter (a comma, or the
closing brace for the final pair, or end-of-record for truncated input).
It is compiled into one scan, ``"age":[^,}]*?10``, which has the same
window semantics whenever the value pattern holds no ``,`` or ``}`` — true
of every value pattern :mod:`repro.core.patterns` emits (``-?\\d+``,
``true``, ``false``).  Every occurrence of the key is tried, so a look-alike
byte sequence earlier in the record (e.g. inside a text field) can only
*add* windows, never hide the real one.

A client evaluating many key-value clauses on one key shares the key's
search: :func:`window_finder` lists the windows after each key occurrence
(one ``re.findall`` of ``"age":([^,}]*)``), and each clause is a substring
test on those windows joined by ``,``.  ``findall`` takes non-overlapping
matches, so this equals trying *every* occurrence only when
:func:`window_scan_exact` holds:

* the key pattern holds no ``,`` or ``}``, so a skipped occurrence that
  starts inside a listed window also ends inside it, and its window is a
  suffix of the listed one.  A key with a delimiter (``"a,b":``) can start
  in one window and reach past its end into a window of its own;
* the key pattern cannot overlap itself (no proper prefix equals a proper
  suffix).  Given the first condition this is conservative — an overlapping
  occurrence's window is a suffix of the listed one too — but it keeps every
  skipped occurrence inside a listed window by construction;
* the value pattern is non-empty and holds no ``,`` or ``}``, so it cannot
  match across the ``,`` joints.

A key-value spec that fails the check keeps its own :func:`key_value_matcher`
scan per record, the only exact path for it.

Contract (paper §IV-B): **false positives are allowed, false negatives are
not**.  A ``True`` here means "the record may satisfy the predicate; verify
after parsing"; a ``False`` means "the record definitely does not satisfy
it".  Queries re-evaluate their full predicate on surviving tuples, so
correctness never depends on the precision of these matchers.

The pattern strings handed to these functions are produced by
:mod:`repro.core.patterns`, which writes operands with the writer that stores
the records (:mod:`repro.rawjson.writer`) — that one escaping is what makes
the no-false-negative guarantee hold.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, List

#: Distinct key-value scans kept compiled; a plan pushes tens of clauses,
#: and selectivity estimation compiles a workload's candidate pool.
_COMPILED_CACHE_SIZE = 4096


def contains(raw: str, pattern: str) -> bool:
    """Plain substring search: the primitive behind every matcher.

    Used directly for *exact string match* (quoted operand) and *substring
    match* (bare operand), per Table I of the paper.
    """
    return raw.find(pattern) != -1


def key_present(raw: str, key_pattern: str) -> bool:
    """Key-presence match (``email != NULL``): search the quoted key."""
    return raw.find(key_pattern) != -1


def key_value_match(raw: str, key_pattern: str, value_pattern: str) -> bool:
    """Key-value match (``age = 10``): the two-phase window search."""
    return key_value_matcher(key_pattern, value_pattern)(raw)


def contains_matcher(pattern: str) -> Callable[[str], bool]:
    """A one-argument substring search for *pattern* (hot loops)."""

    def match(raw: str) -> bool:
        return pattern in raw

    return match


@lru_cache(maxsize=_COMPILED_CACHE_SIZE)
def key_value_matcher(key_pattern: str,
                      value_pattern: str) -> Callable[[str], bool]:
    """The key-value search compiled to one regex scan, cached per pattern.

    Compiled on first use, not when the predicate is compiled: planning
    prices thousands of candidate clauses that no client ever runs.
    """
    search = re.compile(
        re.escape(key_pattern) + "[^,}]*?" + re.escape(value_pattern)
    ).search

    def match(raw: str) -> bool:
        return search(raw) is not None

    return match


def window_scan_exact(key_pattern: str, value_pattern: str) -> bool:
    """May key-value match use the shared window scan of *key_pattern*?

    True when joining :func:`window_finder`'s non-overlapping windows with
    ``,`` and searching them for *value_pattern* gives exactly the
    two-phase answer (see the module docstring); false sends the clause to
    its own :func:`key_value_matcher` scan.
    """
    if not key_pattern or not value_pattern:
        return False
    if any(d in key_pattern or d in value_pattern for d in ",}"):
        return False
    return not any(key_pattern[:i] == key_pattern[-i:]
                   for i in range(1, len(key_pattern)))


def window_finder(key_pattern: str) -> Callable[[str], List[str]]:
    """``findall`` of the window after each non-overlapping key occurrence.

    Each window runs from just past the key to the next ``,`` or ``}``
    (or the end of the record).  Exact for key-value match only where
    :func:`window_scan_exact` holds.
    """
    return re.compile(re.escape(key_pattern) + "([^,}]*)").findall


def match_count_estimate(raw: str, pattern: str) -> int:
    """Number of (non-overlapping) occurrences of *pattern* in *raw*.

    Diagnostic helper used by the false-positive ablation bench to relate
    pattern specificity to spurious matches.
    """
    if not pattern:
        raise ValueError("empty patterns match everywhere; refusing to count")
    count = 0
    pos = raw.find(pattern)
    while pos != -1:
        count += 1
        pos = raw.find(pattern, pos + len(pattern))
    return count

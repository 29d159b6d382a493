"""The two-phase key-value window search of paper §IV-B, as a plain loop.

This is the reference the compiled raw matchers are tested against.  Key-
value match searches for the key pattern; from just after it, it scans to
the next key-value delimiter (a comma, or the closing brace for the final
pair, or end-of-record for truncated input) and reports whether the value
pattern occurs inside that window.  Every occurrence of the key pattern is
tried, so a look-alike byte sequence earlier in the record can only add
windows, never hide the real one.
"""

from __future__ import annotations

from typing import Iterator

from repro.core import CompiledClause, PatternSpec, PredicateKind


def key_value_window_match(raw: str, key_pattern: str,
                           value_pattern: str) -> bool:
    """Does *value_pattern* occur in the window after any key occurrence?"""
    for window_start in iter_occurrences(raw, key_pattern):
        window_end = find_delimiter(raw, window_start)
        if raw.find(value_pattern, window_start, window_end) != -1:
            return True
    return False


def spec_match(spec: PatternSpec, raw: str) -> bool:
    """One pattern spec evaluated the reference way."""
    if spec.kind is PredicateKind.KEY_VALUE:
        return key_value_window_match(raw, *spec.patterns)
    return raw.find(spec.patterns[0]) != -1


def clause_match(compiled: CompiledClause, raw: str) -> bool:
    """A compiled clause (a disjunction) evaluated the reference way."""
    return any(spec_match(spec, raw) for spec in compiled.specs)


def iter_occurrences(raw: str, pattern: str) -> Iterator[int]:
    """Yield the end offset of each occurrence of *pattern* in *raw*."""
    pos = raw.find(pattern)
    while pos != -1:
        yield pos + len(pattern)
        pos = raw.find(pattern, pos + 1)


def find_delimiter(raw: str, start: int) -> int:
    """Offset of the window-terminating delimiter at or after *start*.

    The paper scans to the next comma; the final key-value pair of an object
    has no trailing comma, so the closing brace also ends a window, and
    end-of-record ends one in truncated input.  The nearer of the two
    delimiters wins.
    """
    comma = raw.find(",", start)
    brace = raw.find("}", start)
    if comma == -1 and brace == -1:
        return len(raw)
    if comma == -1:
        return brace
    if brace == -1:
        return comma
    return min(comma, brace)

"""The JSON writer: the C ``json`` encoder behind one front door.

Every JSON byte the repository writes (generated records, Parquet-lite
footers, JSON columns, plans, chunk headers) and every pattern string a
client searches for (:func:`escape_string`) come from one module-level
:class:`json.JSONEncoder`.  The escaping the patterns search for is the
escaping the store holds by construction, which is what the paper's
no-false-negative guarantee (Table I) rests on.

Output is compact, with no insignificant whitespace: the cost model is
linear in record length, so the writer must not pad ``len(t)``.  Keys keep
their insertion order unless ``sort_keys`` is asked for, so a generated
record's raw length is deterministic.  Three guards keep the repository's
format where the encoder's own differs:

* ``-0.0`` is written ``0.0``;
* a lone surrogate code point (which does not UTF-8-encode) is written as
  a lowercase ``\\udXXX`` escape, so the output always UTF-8-encodes; the
  parser decodes such escapes to U+FFFD, as they do not denote a
  character;
* an object key that is not a ``str``, at any depth, raises
  :class:`TypeError` (the encoder would write it as a string).

NaN and infinities raise :class:`ValueError`; a value of any other type
raises :class:`TypeError`.
"""

from __future__ import annotations

import json
import re
from itertools import compress, repeat
from typing import Any, Dict

from .parser import SURROGATE

# check_circular=False: the key walk meets a cycle first and raises
# RecursionError, the writer's error for a cycle, so the encoder's own
# check would only cost time.
_OPTIONS: Dict[str, Any] = dict(
    ensure_ascii=False, separators=(",", ":"), allow_nan=False,
    check_circular=False,
)
_ENCODE = json.JSONEncoder(**_OPTIONS).encode
_ENCODE_SORTED = json.JSONEncoder(sort_keys=True, **_OPTIONS).encode
_CONTAINERS = (dict, list, tuple)


def _escape_surrogate(match: re.Match[str]) -> str:
    return f"\\u{ord(match.group()):04x}"


def _escape_surrogates(text: str) -> str:
    if text.isascii():
        return text
    return SURROGATE.sub(_escape_surrogate, text)


def _check_keys(value: Any) -> None:
    """Raise :class:`TypeError` on a non-``str`` key anywhere in *value*."""
    if isinstance(value, dict):
        if not all(map(isinstance, value, repeat(str))):
            raise TypeError("JSON object keys must be strings")
        value = value.values()
    for item in compress(value, map(isinstance, value, repeat(_CONTAINERS))):
        _check_keys(item)


def _positive_zeros(value: Any) -> Any:
    """*value* with every float zero written as ``0.0``."""
    if isinstance(value, float):
        return 0.0 if value == 0.0 else value
    if isinstance(value, dict):
        return {key: _positive_zeros(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_positive_zeros(item) for item in value]
    return value


def escape_string(value: str) -> str:
    """Escape *value* as the writer stores it between JSON double quotes."""
    if not isinstance(value, str):
        raise TypeError(f"cannot escape {type(value).__name__} as a string")
    return _escape_surrogates(_ENCODE(value)[1:-1])


def dumps(value: Any, sort_keys: bool = False) -> str:
    """Serialize *value* as compact JSON (no insignificant whitespace)."""
    if isinstance(value, _CONTAINERS):
        _check_keys(value)
    encode = _ENCODE_SORTED if sort_keys else _ENCODE
    text = encode(value)
    if "-0.0" in text:  # rare; a string or a float like -0.05 also hits
        text = encode(_positive_zeros(value))
    return _escape_surrogates(text)


def dump_record(record: Dict[str, Any]) -> str:
    """Serialize one data record (a flat-ish JSON object) to a single line."""
    if not isinstance(record, dict):
        raise TypeError(f"records must be dicts, got {type(record).__name__}")
    return dumps(record)

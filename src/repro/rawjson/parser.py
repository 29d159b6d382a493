"""The strict JSON record parser: the C ``json`` decoder behind one door.

The server's loading parse — the step partial loading exists to avoid, and
the analogue of the paper's rapidJSON (C++) step.  Every caller goes
through :func:`loads`, which holds RFC 8259 strictness on top of a
module-level :class:`json.JSONDecoder`: ``NaN``, ``Infinity`` and
``-Infinity`` are malformed; a lone surrogate escape (``"\\ud800"``)
decodes to U+FFFD, so every parsed string re-encodes as UTF-8; and no
value sits inside more than :data:`MAX_DEPTH` containers.  Every failure
raises :class:`~repro.rawjson.errors.JsonSyntaxError` with the decoder's
offset.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Tuple

from .errors import JsonError, JsonSyntaxError

# Nesting guard: records are shallow, so anything deeper is corrupt or
# hostile; the decoder's own recursion limit sits far above this.
MAX_DEPTH = 128


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-standard constant {name}")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
# A \uD800-\uDFFF escape is the only way a lone surrogate gets decoded.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]").search
#: A lone surrogate code point: the one character that does not UTF-8-encode.
SURROGATE = re.compile("[\ud800-\udfff]")


def _too_deep(container: Any, depth: int) -> bool:
    """True if a value under *container*, itself at *depth*, sits too deep.

    Only containers are visited: a scalar can be too deep only as an item
    of a non-empty container at :data:`MAX_DEPTH`.  A Parquet-lite footer
    is mostly scalars, so this walk no longer calls down into each one.
    """
    items = container.values() if isinstance(container, dict) else container
    if depth >= MAX_DEPTH:
        return len(items) > 0
    for item in items:
        if isinstance(item, (dict, list)) and _too_deep(item, depth + 1):
            return True
    return False


def _replace_surrogates(value: Any) -> Any:
    if isinstance(value, str):
        return SURROGATE.sub("\ufffd", value)
    if isinstance(value, dict):
        return {_replace_surrogates(k): _replace_surrogates(v)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_replace_surrogates(item) for item in value]
    return value


def loads(text: str) -> Any:
    """Parse one JSON document from *text* (the `json.loads` equivalent)."""
    try:
        value = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise JsonSyntaxError(exc.msg, exc.pos) from None
    except (ValueError, RecursionError) as exc:
        # A rejected constant, an integer over the digit limit, or nesting
        # past the C recursion limit.
        raise JsonSyntaxError(str(exc), 0) from None
    if (text.count("{") + text.count("[") > MAX_DEPTH
            and isinstance(value, (dict, list)) and _too_deep(value, 0)):
        raise JsonSyntaxError("maximum nesting depth exceeded", 0)
    if _SURROGATE_ESCAPE(text):
        value = _replace_surrogates(value)
    return value


def parse_object(text: str) -> Dict[str, Any]:
    """Parse *text* and require the top-level value to be an object.

    CIAO records are always JSON objects (one per line); anything else in a
    chunk indicates a corrupt producer and should fail loudly at load time.
    """
    value = loads(text)
    if not isinstance(value, dict):
        raise JsonSyntaxError(
            f"expected a JSON object, got {type(value).__name__}", 0
        )
    return value


def try_parse(text: str) -> Tuple[Any, bool]:
    """Parse leniently: returns ``(value, ok)`` instead of raising.

    Used by the loader and the just-in-time sideline parse to quarantine
    malformed records without aborting a whole chunk or query.
    """
    try:
        return loads(text), True
    except JsonError:
        return None, False

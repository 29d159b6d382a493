"""Property-based differential tests: our JSON stack vs the stdlib.

The writer (the C encoder plus the repository's guards) and the strict
record parser (the C decoder plus RFC 8259 strictness) must agree with
plain ``json`` on every valid document — these tests let hypothesis hunt
for disagreements.  Text includes control characters and lone surrogates,
the characters the writer escapes.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rawjson import dumps, loads


def any_text(**size):
    """Text over every code point, lone surrogates (category Cs) included.

    Naming ``exclude_categories`` drops the default ``st.text()``'s
    exclusion of surrogates.  Half the strings are drawn over control
    characters and surrogates alone, so the writer's escaping edge comes up
    often; the other half cover the whole of Unicode.
    """
    return st.one_of(
        st.text(st.characters(exclude_categories=[]), **size),
        st.text(st.characters(categories=["Cc", "Cs"]), **size),
    )


def decoded(value, errors):
    """*value* as a JSON decoder returns it after the writer escaped it.

    An escaped high-low surrogate pair decodes to one character; a lone
    surrogate is kept (``errors="surrogatepass"``, the stdlib) or becomes
    U+FFFD (``errors="replace"``, the repository's parser).
    """
    if isinstance(value, str):
        return value.encode("utf-16-le", "surrogatepass").decode(
            "utf-16-le", errors)
    if isinstance(value, dict):
        return {decoded(k, errors): decoded(v, errors)
                for k, v in value.items()}
    if isinstance(value, list):
        return [decoded(item, errors) for item in value]
    return value


# JSON-representable values.  Floats are restricted to finite ones: NaN and
# infinities are not valid JSON, and the writer rejects them.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    any_text(max_size=40),
)

json_keys = any_text(max_size=10)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(json_keys, children, max_size=5),
    ),
    max_leaves=25,
)


@given(json_values)
@example({"\udfff": ["a\ud800b", "\ud83d\ude00", "\x00"]})
@settings(max_examples=200)
def test_own_writer_own_parser_roundtrip(value):
    assert loads(dumps(value)) == decoded(value, "replace")


@given(json_values)
@example({"\udfff": ["a\ud800b", "\ud83d\ude00", "\x00"]})
@settings(max_examples=200)
def test_own_writer_output_is_stdlib_compatible(value):
    text = dumps(value)
    text.encode("utf-8")  # a lone surrogate would raise here
    assert json.loads(text) == decoded(value, "surrogatepass")


@given(json_values)
@settings(max_examples=200)
def test_own_parser_reads_stdlib_output(value):
    text = json.dumps(value)
    assert loads(text) == decoded(json.loads(text), "replace")


@given(json_values)
@settings(max_examples=100)
def test_parser_agrees_with_stdlib_on_indented_output(value):
    text = json.dumps(value, indent=2)
    assert loads(text) == decoded(json.loads(text), "replace")


@given(any_text(max_size=60))
@example("\ud800")
@example("\udc00\ud800")
@settings(max_examples=200)
def test_string_escaping_roundtrip(text):
    assert loads(dumps(text)) == decoded(text, "replace")
    assert json.loads(dumps(text)) == decoded(text, "surrogatepass")


@given(any_text(max_size=30))
@example('"\ud800')
@settings(max_examples=100)
def test_malformed_prefixes_never_crash(text):
    """The parser must raise ValueError (or succeed), never crash."""
    try:
        loads(text)
    except ValueError:
        pass

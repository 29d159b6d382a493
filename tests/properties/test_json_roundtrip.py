"""Property-based differential tests: our JSON stack vs the stdlib.

The hand-written writer and the strict record parser (the C decoder plus
RFC 8259 strictness) must agree with plain ``json`` on every valid
document — these tests let hypothesis hunt for disagreements.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rawjson import dumps, loads

# JSON-representable values.  Floats are restricted to finite ones; NaN is
# not valid JSON and infinities are rejected by both writers.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=40),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)


@given(json_values)
@settings(max_examples=200)
def test_own_writer_own_parser_roundtrip(value):
    assert loads(dumps(value)) == value


@given(json_values)
@settings(max_examples=200)
def test_own_writer_output_is_stdlib_compatible(value):
    assert json.loads(dumps(value)) == value


@given(json_values)
@settings(max_examples=200)
def test_own_parser_reads_stdlib_output(value):
    text = json.dumps(value)
    assert loads(text) == json.loads(text)


@given(json_values)
@settings(max_examples=100)
def test_parser_agrees_with_stdlib_on_indented_output(value):
    text = json.dumps(value, indent=2)
    assert loads(text) == json.loads(text)


@given(st.text(max_size=60))
@settings(max_examples=200)
def test_string_escaping_roundtrip(text):
    assert loads(dumps(text)) == text
    assert json.loads(dumps(text)) == text


@given(st.text(max_size=30))
@settings(max_examples=100)
def test_malformed_prefixes_never_crash(text):
    """The parser must raise ValueError (or succeed), never crash."""
    try:
        loads(text)
    except ValueError:
        pass

"""Property-based test of CIAO's central client-side invariant.

Paper §IV-B: raw pattern matching may produce false *positives* but never
false *negatives* — if a record semantically satisfies a supported
predicate, the compiled pattern search over its serialized form must match.
Partial loading would otherwise silently drop query answers, so this is the
single most important property in the system.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    Clause,
    clause,
    compile_clause,
    compile_predicate,
    exact,
    key_present,
    key_value,
    prefix,
    substring,
    suffix,
)
from repro.rawjson import dump_record

COLUMNS = ["name", "age", "text", "email", "nested", "weird key"]


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


# Field values exercise escaping: quotes, backslashes, control characters,
# unicode and lone surrogates.
field_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10_000, max_value=10_000),
    any_text(max_size=25),
    st.lists(any_text(max_size=8), max_size=3),
    st.dictionaries(any_text(max_size=6), st.integers(), max_size=2),
)

records = st.dictionaries(
    st.sampled_from(COLUMNS), field_values, max_size=len(COLUMNS)
)

operand_text = any_text(min_size=1, max_size=12)


@st.composite
def simple_predicates(draw):
    column = draw(st.sampled_from(COLUMNS))
    kind = draw(st.sampled_from(
        ["exact", "substring", "prefix", "suffix", "present", "kv_int",
         "kv_bool"]
    ))
    if kind == "exact":
        return exact(column, draw(operand_text))
    if kind == "substring":
        return substring(column, draw(operand_text))
    if kind == "prefix":
        return prefix(column, draw(operand_text))
    if kind == "suffix":
        return suffix(column, draw(operand_text))
    if kind == "present":
        return key_present(column)
    if kind == "kv_int":
        return key_value(
            column, draw(st.integers(min_value=-9999, max_value=9999))
        )
    return key_value(column, draw(st.booleans()))


@given(records, simple_predicates())
@example({"name": "a\ud800"}, exact("name", "a\ud800"))
@example({"text": "\udc00\x1f"}, substring("text", "\udc00"))
@settings(max_examples=500)
def test_no_false_negatives_simple(record, predicate):
    if predicate.evaluate(record):
        raw = dump_record(record)
        assert compile_predicate(predicate).match(raw), (
            f"FALSE NEGATIVE: {predicate.sql()} on {raw}"
        )


@given(records, st.lists(simple_predicates(), min_size=1, max_size=4))
@example({"name": "\ud800"}, [prefix("name", "\ud800")])
@settings(max_examples=300)
def test_no_false_negatives_disjunction(record, predicates):
    c = Clause(tuple(predicates))
    if c.evaluate(record):
        raw = dump_record(record)
        assert compile_clause(c).match(raw), (
            f"FALSE NEGATIVE: {c.sql()} on {raw}"
        )


@st.composite
def planted_match_cases(draw):
    """Records constructed to satisfy the predicate — denser positives
    than uniform sampling would give."""
    column = draw(st.sampled_from(COLUMNS))
    operand = draw(operand_text)
    pad_before = draw(any_text(max_size=10))
    pad_after = draw(any_text(max_size=10))
    kind = draw(st.sampled_from(["exact", "substring", "prefix", "suffix"]))
    if kind == "exact":
        pred, value = exact(column, operand), operand
    elif kind == "substring":
        pred = substring(column, operand)
        value = pad_before + operand + pad_after
    elif kind == "prefix":
        pred, value = prefix(column, operand), operand + pad_after
    else:
        pred, value = suffix(column, operand), pad_before + operand
    record = draw(records)
    record[column] = value
    return pred, record


@given(planted_match_cases())
@example((suffix("email", "\udfff"), {"email": "x\udfff"}))
@settings(max_examples=500)
def test_no_false_negatives_on_planted_matches(case):
    predicate, record = case
    assert predicate.evaluate(record)
    raw = dump_record(record)
    assert compile_predicate(predicate).match(raw), (
        f"FALSE NEGATIVE: {predicate.sql()} on {raw}"
    )


@given(records, simple_predicates())
@example({"weird key": ["\ud800"]}, key_present("weird key"))
@settings(max_examples=300)
def test_matcher_is_deterministic(record, predicate):
    raw = dump_record(record)
    raw.encode("utf-8")  # a lone surrogate would raise here
    spec = compile_predicate(predicate)
    assert spec.match(raw) == spec.match(raw)


@given(records, st.lists(simple_predicates(), min_size=1, max_size=3))
@example({"nested": {"\udc00": 1}}, [substring("nested", "\udc00")])
@settings(max_examples=200)
def test_clause_matcher_closure_agrees_with_match(record, predicates):
    c = Clause(tuple(predicates))
    compiled = compile_clause(c)
    raw = dump_record(record)
    assert compiled.matcher()(raw) == compiled.match(raw)

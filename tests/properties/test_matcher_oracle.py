"""Differential test: the compiled key-value scan ≡ the two-phase window.

Key-value match compiles to one regex scan (``"age":[^,}]*?10``).  It must
agree with the paper's two-phase window search (``window_oracle``) on every
record, not just never miss a semantic match, because the bit vectors a
client ships are what the server loads and skips on.  Records are written
pair by pair, so they can repeat a key, hold look-alike keys (a longer key
ending in the same name, or the key's text inside a string value), nest
objects, end on the key (closing brace) or be cut short with no delimiter.
Keys ``a,b`` and ``a}`` hold a delimiter, so the client's shared window
scan is not exact for them and they must take the per-clause scan.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.client import ClientEvaluator
from repro.core import (
    CostModel,
    DEFAULT_COEFFICIENTS,
    Clause,
    PredicateKind,
    compile_clause,
    compile_predicate,
    key_value,
    manual_plan,
    prefix,
    substring,
)
from repro.rawjson import JsonChunk, dumps, key_value_match
from window_oracle import clause_match, key_value_window_match

KEYS = ["age", "xage", "age_", "Age", "a", "a,b", "a}"]

small_ints = st.integers(min_value=-3, max_value=12)

scalars = st.one_of(
    st.booleans(), small_ints, st.none(),
    st.integers(min_value=-10_000, max_value=10_000),
)

# Strings drawn from JSON-ish fragments, so values contain the key text,
# delimiters and digits far more often than uniform text would.
look_alike_text = st.lists(
    st.sampled_from(['"age":', "age", ":", ",", "}", "{", "1", "-1", "10",
                     "true", "false", " ", "x"]),
    max_size=6,
).map("".join)

values = st.one_of(
    scalars,
    look_alike_text,
    st.lists(scalars, max_size=3),
    st.dictionaries(st.sampled_from(KEYS), st.one_of(scalars,
                                                     look_alike_text),
                    max_size=3),
)


key_value_predicates = st.builds(
    key_value, st.sampled_from(KEYS), st.one_of(st.booleans(), small_ints)
)


@st.composite
def raw_records(draw, planted=None):
    """One serialized object, possibly with repeated keys or truncated.

    With a *planted* predicate, a pair on its column is inserted at a drawn
    position, so windows that hold the value pattern are common rather than
    rare.  It holds the operand, a near miss (``10`` for ``1``, ``-1`` for
    ``1``, the other bool), or the operand's text behind a drawn run of
    delimiters inside a string, a nested object or an array — where only
    the window's stop at the first ``,`` or ``}`` decides the answer.
    """
    pairs = draw(st.lists(
        st.tuples(st.sampled_from(KEYS), values), max_size=6
    ))
    if planted is not None:
        value = planted.value
        if isinstance(value, bool):
            near = [value, not value]
            text = "true" if value else "false"
        else:
            near = [value, -value, value * 10 + 1, value + 100]
            text = str(value)
        hidden = draw(look_alike_text) + text
        value = draw(st.sampled_from(
            near + [hidden, {"k": hidden}, [hidden]]
        ))
        at = draw(st.integers(min_value=0, max_value=len(pairs)))
        pairs.insert(at, (planted.column, value))
    raw = "{" + ",".join(
        f"{dumps(key)}:{dumps(value)}" for key, value in pairs
    ) + "}"
    if draw(st.booleans()):
        raw = raw[:draw(st.integers(min_value=0, max_value=len(raw)))]
    return raw


@st.composite
def key_value_cases(draw):
    """A key-value predicate and a record, half of them with a planted pair."""
    predicate = draw(key_value_predicates)
    planted = predicate if draw(st.booleans()) else None
    return predicate, draw(raw_records(planted))


@given(key_value_cases())
@settings(max_examples=600)
def test_compiled_key_value_matches_window_oracle(case):
    predicate, raw = case
    key_pattern, value_pattern = compile_predicate(predicate).patterns
    expected = key_value_window_match(raw, key_pattern, value_pattern)
    assert compile_predicate(predicate).match(raw) == expected, raw
    assert key_value_match(raw, key_pattern, value_pattern) == expected, raw


@st.composite
def clause_cases(draw):
    """Up to three key-value disjuncts and a record planted for one."""
    predicates = draw(st.lists(key_value_predicates, min_size=1, max_size=3))
    planted = draw(st.sampled_from([None] + predicates))
    return predicates, draw(raw_records(planted))


@given(clause_cases())
@settings(max_examples=300)
def test_compiled_clause_matches_window_oracle(case):
    predicates, raw = case
    compiled = compile_clause(Clause(tuple(predicates)))
    expected = clause_match(compiled, raw)
    assert compiled.match(raw) == expected, raw
    assert compiled.matcher()(raw) == expected, raw


# ----------------------------------------------------------------------
# ClientEvaluator.annotate ≡ the per-record oracle
# ----------------------------------------------------------------------
@st.composite
def raw_texts(draw, planted=None):
    """Free text over the bytes that decide a window, not JSON at all.

    Quotes, delimiters, digits, the start of a key holding a comma and the
    key ``"a,b":`` itself, so a key occurrence can start inside the window
    of the one before it.  With a *planted* key-value predicate, its key
    and value patterns are frequent tokens too.
    """
    tokens = list('"a,b:}0123456789') + ['"a,b":', '"a']
    if planted is not None:
        tokens += list(compile_predicate(planted).patterns) * 4
    return "".join(draw(st.lists(st.sampled_from(tokens), max_size=24)))


single_operands = st.sampled_from(["a", "1", "a,b", "b:", "12", "a}"])

single_predicates = st.one_of(
    st.builds(substring, st.sampled_from(KEYS), single_operands),
    st.builds(prefix, st.sampled_from(KEYS), single_operands),
)


@st.composite
def plan_clauses(draw):
    """1–6 clauses; key-value ones share one or two keys.

    A clause is a key-value predicate, a substring or prefix predicate, or
    a key-value predicate ORed with a substring or prefix one.
    """
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=2,
                         unique=True))
    on_keys = st.builds(key_value, st.sampled_from(keys),
                        st.one_of(st.booleans(), small_ints))
    one_clause = st.one_of(
        st.builds(lambda p: Clause((p,)), on_keys),
        st.builds(lambda p: Clause((p,)), single_predicates),
        st.builds(lambda p, q: Clause((p, q)), on_keys, single_predicates),
    )
    return draw(st.lists(one_clause, min_size=1, max_size=6, unique=True))


@st.composite
def annotate_cases(draw):
    """A plan's clauses and a chunk of up to 17 records for them.

    Records are serialized objects, some with a pair planted for one of the
    plan's key-value predicates, or raw text that need not be JSON at all.
    """
    clauses = draw(plan_clauses())
    planted = [None] + [
        p for c in clauses for p in c.predicates
        if p.kind is PredicateKind.KEY_VALUE
    ]
    records = draw(st.lists(
        st.sampled_from(planted).flatmap(
            lambda p: st.one_of(raw_texts(p), raw_records(p))
        ),
        min_size=1, max_size=17,
    ))
    return clauses, records


@given(annotate_cases())
@settings(max_examples=300)
# A key holding a delimiter: its second occurrence starts inside the first
# one's window, so only the per-clause scan sees the second window's 1.
@example(([Clause((key_value("a,b", 1),))], ['"a,b":"a,b":1']))
@example(([Clause((key_value("a}", 1),))], ['"a}":"a}":1']))
def test_annotate_equals_oracle_on_generated_records(case):
    clauses, records = case
    plan = manual_plan(clauses, {c: 0.5 for c in clauses},
                       CostModel(DEFAULT_COEFFICIENTS, 40))
    chunk = JsonChunk(0, list(records))
    report = ClientEvaluator(plan.entries).annotate(chunk)
    for entry in plan.entries:
        expected = [int(clause_match(entry.compiled, raw)) for raw in records]
        bits = chunk.bitvectors[entry.predicate_id].to_bits()
        assert bits == expected, (entry.compiled.clause.sql(), records)
        assert report.matches[entry.predicate_id] == sum(expected)

"""Unit tests for selectivity estimation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    clause,
    exact,
    key_present,
    key_value,
    prefix,
    substring,
    suffix,
)
from repro.rawjson import dump_record
from repro.workload import (
    MIN_SELECTIVITY,
    estimate_selectivities,
    estimate_selectivity,
    false_positive_rates,
    measure_raw_hit_rates,
)

SAMPLE = [
    {"name": "Bob", "age": 10, "text": "aaa"},
    {"name": "Bob", "age": 20, "text": "bbb"},
    {"name": "Eve", "age": 10, "text": "contains kw here"},
    {"name": "Eve", "age": 30, "text": "kw"},
]
RAW = [dump_record(r) for r in SAMPLE]


class TestEstimates:
    def test_exact_fraction(self):
        assert estimate_selectivity(
            clause(exact("name", "Bob")), SAMPLE
        ) == pytest.approx(0.5)

    def test_zero_hits_floored(self):
        got = estimate_selectivity(clause(exact("name", "Zed")), SAMPLE)
        assert got == MIN_SELECTIVITY

    def test_batch_matches_single(self):
        clauses = [
            clause(exact("name", "Bob")),
            clause(key_value("age", 10)),
            clause(substring("text", "kw")),
        ]
        batch = estimate_selectivities(clauses, SAMPLE)
        for c in clauses:
            assert batch[c] == estimate_selectivity(c, SAMPLE)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            estimate_selectivity(clause(exact("a", "b")), [])
        with pytest.raises(ValueError):
            estimate_selectivities([], [])


class TestRawHitRates:
    def test_hit_rate_includes_false_positives(self):
        # "kw" appears in the text of two records; raw matching also sees
        # it anywhere in the serialized object.
        c = clause(substring("text", "kw"))
        rates = measure_raw_hit_rates([c], RAW)
        assert rates[c] >= estimate_selectivity(c, SAMPLE) - 1e-9

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            measure_raw_hit_rates([], [])


class TestFalsePositiveRates:
    def test_zero_for_precise_patterns(self):
        c = clause(exact("name", "Bob"))
        rates = false_positive_rates([c], SAMPLE, RAW)
        assert rates[c] == 0.0

    def test_positive_for_ambiguous_numbers(self):
        # age = 10 matches the raw "10" inside other numeric contexts;
        # construct a record where 10 appears under another key.
        sample = [{"age": 5, "zip": 10}, {"age": 10}]
        raw = [dump_record(r) for r in sample]
        c = clause(key_value("age", 5))
        # record 2: age=10 → semantic false; pattern "5"? no. Use zip=10:
        c2 = clause(key_value("zip", 10))
        rates = false_positive_rates([c, c2], sample, raw)
        assert 0.0 <= rates[c] <= 1.0
        assert 0.0 <= rates[c2] <= 1.0

    def test_alignment_validated(self):
        with pytest.raises(ValueError):
            false_positive_rates([], SAMPLE, RAW[:-1])


# ----------------------------------------------------------------------
# The per-value counting path against the per-record oracle
# ----------------------------------------------------------------------
#: Column "a" holds only hashable values, so its single-predicate clauses
#: take the counting path; column "b" may also hold lists and dicts,
#: which send its clauses back to the per-record loop.
HASHABLE_VALUES = st.one_of(
    st.sampled_from([True, False, 1, 0, 1.0, 0.0, 2, None, float("nan")]),
    st.sampled_from(["x", "xy", "yx", "1", "true"]),
)
ANY_VALUES = st.one_of(
    HASHABLE_VALUES,
    st.lists(st.integers(min_value=0, max_value=1), max_size=2),
    st.dictionaries(st.just("k"), st.integers(min_value=0, max_value=1)),
)
RECORDS = st.fixed_dictionaries(
    {}, optional={"a": HASHABLE_VALUES, "b": ANY_VALUES}
)
COLUMNS = st.sampled_from(["a", "b"])
STRINGS = st.sampled_from(["x", "y", "xy", "1"])
#: One builder per PredicateKind.
PREDICATES = st.one_of(
    st.builds(exact, COLUMNS, STRINGS),
    st.builds(substring, COLUMNS, STRINGS),
    st.builds(prefix, COLUMNS, STRINGS),
    st.builds(suffix, COLUMNS, STRINGS),
    st.builds(key_present, COLUMNS),
    st.builds(key_value, COLUMNS, st.sampled_from([True, False, 1, 0, 2])),
)
CLAUSES = st.lists(PREDICATES, min_size=1, max_size=3).map(
    lambda preds: clause(*preds)
)


@given(st.lists(CLAUSES, min_size=1, max_size=8),
       st.lists(RECORDS, min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_batch_estimates_equal_per_record_oracle(pool, sample):
    got = estimate_selectivities(pool, sample)
    expected = {c: estimate_selectivity(c, sample) for c in pool}
    assert list(got) == list(expected)
    assert [v.hex() for v in got.values()] == \
        [v.hex() for v in expected.values()]

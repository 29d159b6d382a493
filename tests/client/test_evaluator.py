"""Unit tests for the client-side evaluator."""

import pytest

from repro.client import ClientEvaluator
from repro.core import Budget, CostModel, DEFAULT_COEFFICIENTS, manual_plan
from repro.core import clause, exact, key_value, substring
from repro.rawjson import JsonChunk, dump_record
from window_oracle import clause_match

RECORDS = [
    {"name": "Bob", "age": 10, "text": "nice delicious food"},
    {"name": "Eve", "age": 10, "text": "awful"},
    {"name": "Bob", "age": 3, "text": "delicious"},
    {"name": "Zed", "age": 9, "text": "fine"},
]

C_NAME = clause(exact("name", "Bob"))
C_AGE = clause(key_value("age", 10))
C_TEXT = clause(substring("text", "delicious"))


@pytest.fixture()
def plan():
    model = CostModel(DEFAULT_COEFFICIENTS, 80)
    sels = {C_NAME: 0.5, C_AGE: 0.5, C_TEXT: 0.5}
    return manual_plan([C_NAME, C_AGE, C_TEXT], sels, model)


@pytest.fixture()
def chunk():
    return JsonChunk(0, [dump_record(r) for r in RECORDS])


class TestAnnotate:
    def test_bitvectors_match_semantics(self, plan, chunk):
        evaluator = ClientEvaluator(plan.entries)
        evaluator.annotate(chunk)
        assert chunk.bitvectors[0].to_bits() == [1, 0, 1, 0]  # name=Bob
        assert chunk.bitvectors[1].to_bits() == [1, 1, 0, 0]  # age=10
        assert chunk.bitvectors[2].to_bits() == [1, 0, 1, 0]  # delicious

    def test_report_counts(self, plan, chunk):
        evaluator = ClientEvaluator(plan.entries)
        report = evaluator.annotate(chunk)
        assert report.records == 4
        assert report.predicates == 3
        assert report.matches == {0: 2, 1: 2, 2: 2}
        assert report.wall_seconds >= 0

    def test_modeled_cost_scales_with_records(self, plan):
        evaluator = ClientEvaluator(plan.entries)
        small = JsonChunk(0, [dump_record(RECORDS[0])] * 2)
        large = JsonChunk(1, [dump_record(RECORDS[0])] * 8)
        r_small = evaluator.annotate(small)
        r_large = evaluator.annotate(large)
        assert r_large.modeled_us == pytest.approx(4 * r_small.modeled_us)
        assert r_small.modeled_us_per_record() == pytest.approx(
            plan.total_cost_us()
        )

    def test_predicate_ids_exposed(self, plan):
        assert ClientEvaluator(plan.entries).predicate_ids == [0, 1, 2]

    def test_empty_report(self, plan):
        evaluator = ClientEvaluator(plan.entries)
        report = evaluator.annotate(JsonChunk(0, []))
        assert report.modeled_us_per_record() == 0.0


class TestAnnotateMatchesOracle:
    """Bit vectors and hit counts equal the per-record window oracle."""

    CLAUSES = [
        clause(key_value("age", 0)),
        clause(key_value("age", -1), key_value("on", True)),
        clause(substring("note", "age 1")),
        clause(key_value("missing", 7)),
        clause(key_value("last", True)),  # sets the final (tail) bit
    ]

    # 1, 7, 8 and 9 records end the packed vector mid-byte, on a byte
    # boundary and one bit past it; 100 spans many bytes.
    @pytest.mark.parametrize("n_records", [1, 7, 8, 9, 100])
    def test_chunk_sizes(self, n_records):
        records = [
            dump_record({"age": i % 5 - 2, "on": i % 3 == 0,
                         "note": f"age {i}", "last": i == n_records - 1})
            for i in range(n_records)
        ]
        model = CostModel(DEFAULT_COEFFICIENTS, 40)
        plan = manual_plan(
            self.CLAUSES, {c: 0.5 for c in self.CLAUSES}, model
        )
        chunk = JsonChunk(0, records)
        report = ClientEvaluator(plan.entries).annotate(chunk)
        for entry in plan.entries:
            expected = [
                int(clause_match(entry.compiled, raw)) for raw in records
            ]
            bv = chunk.bitvectors[entry.predicate_id]
            assert len(bv) == n_records
            assert bv.to_bits() == expected, entry.compiled.clause.sql()
            assert report.matches[entry.predicate_id] == sum(expected)
        assert chunk.bitvectors[4].get(n_records - 1)


class TestGoldenBits:
    """On the yelp_pushdown load, annotate ≡ each clause's own matcher."""

    def test_yelp_pushdown_bits_match_matchers(self, yelp_pushdown_plan,
                                               yelp_pushdown_chunks):
        entries = yelp_pushdown_plan.entries
        evaluator = ClientEvaluator(entries)
        matchers = [entry.compiled.matcher() for entry in entries]
        for chunk in yelp_pushdown_chunks:
            report = evaluator.annotate(chunk)
            for entry, match in zip(entries, matchers):
                expected = [int(match(raw)) for raw in chunk.records]
                bits = chunk.bitvectors[entry.predicate_id].to_bits()
                assert bits == expected, entry.compiled.clause.sql()
                assert report.matches[entry.predicate_id] == sum(expected)

"""Unit tests for SQL-predicate → pattern-string compilation (Table I)."""

import pytest

from repro.core import (
    PredicateKind,
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
from repro.rawjson import dump_record, raw_matcher


class TestTable1Patterns:
    """The exact pattern strings of the paper's Table I."""

    def test_exact_match_quotes_operand(self):
        spec = compile_predicate(exact("name", "Bob"))
        assert spec.patterns == ('"Bob"',)

    def test_substring_match_is_bare(self):
        spec = compile_predicate(substring("text", "delicious"))
        assert spec.patterns == ("delicious",)

    def test_key_presence_quotes_key(self):
        spec = compile_predicate(key_present("email"))
        assert spec.patterns == ('"email"',)

    def test_key_value_has_two_patterns(self):
        spec = compile_predicate(key_value("age", 10))
        assert spec.patterns == ('"age":', "10")

    def test_bool_value_patterns(self):
        assert compile_predicate(key_value("on", True)).patterns[1] == "true"
        assert compile_predicate(
            key_value("on", False)).patterns[1] == "false"

    def test_prefix_anchors_with_opening_quote(self):
        assert compile_predicate(prefix("d", "2016-")).patterns == ('"2016-',)

    def test_suffix_anchors_with_closing_quote(self):
        assert compile_predicate(suffix("t", ":30")).patterns == (':30"',)


class TestEscaping:
    def test_operand_escaping_matches_writer(self):
        pred = exact("k", 'a"b\\c')
        spec = compile_predicate(pred)
        raw = dump_record({"k": 'a"b\\c'})
        assert spec.match(raw)

    def test_newline_in_operand(self):
        pred = substring("k", "two\nlines")
        raw = dump_record({"k": "has two\nlines inside"})
        assert compile_predicate(pred).match(raw)


class TestMatching:
    def test_spec_matches_agree_with_semantics_on_positives(self):
        record = {"name": "Bob", "age": 10, "text": "so delicious",
                  "email": "e@f.g", "date": "2016-03-04"}
        raw = dump_record(record)
        predicates = [
            exact("name", "Bob"),
            substring("text", "delicious"),
            prefix("date", "2016-"),
            suffix("date", "-04"),
            key_present("email"),
            key_value("age", 10),
        ]
        for pred in predicates:
            assert pred.evaluate(record)
            assert compile_predicate(pred).match(raw), pred.sql()

    def test_negatives_reject(self):
        raw = dump_record({"name": "Eve", "age": 3, "text": "meh"})
        for pred in [
            exact("name", "Bob"),
            substring("text", "delicious"),
            key_present("email"),
            key_value("age", 10),
        ]:
            assert not compile_predicate(pred).match(raw), pred.sql()


class TestCompiledClause:
    def test_disjunction_matches_any(self):
        cc = compile_clause(clause(exact("n", "A"), exact("n", "B")))
        assert cc.match(dump_record({"n": "B"}))
        assert not cc.match(dump_record({"n": "C"}))

    def test_matcher_closure_equivalent(self):
        cc = compile_clause(clause(key_value("age", 10)))
        matcher = cc.matcher()
        for rec in ({"age": 10}, {"age": 11}, {"other": 10}):
            raw = dump_record(rec)
            assert matcher(raw) == cc.match(raw)

    def test_matcher_closure_for_disjunction(self):
        cc = compile_clause(clause(exact("n", "A"), key_value("m", 2)))
        matcher = cc.matcher()
        raw = dump_record({"n": "Z", "m": 2})
        assert matcher(raw) and cc.match(raw)

    def test_total_pattern_length_sums_everything(self):
        cc = compile_clause(clause(key_value("age", 10)))
        assert cc.total_pattern_length() == len('"age":') + len("10")

    def test_search_count(self):
        cc = compile_clause(clause(key_value("a", 1), substring("t", "x")))
        assert cc.search_count() == 3  # two for key-value, one substring


class TestCompiledScan:
    """Every path shares one lazily compiled, cached key-value scan."""

    def test_key_value_paths_share_one_cached_scan(self):
        spec = compile_predicate(key_value("shared_scan_key", 4))
        scan = raw_matcher.key_value_matcher('"shared_scan_key":', "4")
        assert spec.matcher() is scan
        assert compile_clause(clause(key_value("shared_scan_key", 4))) \
            .matcher() is scan

    def test_compiling_a_predicate_compiles_no_scan(self):
        # The cost model compiles every candidate clause while planning;
        # only a matcher that runs pays for a regex compile.
        before = raw_matcher.key_value_matcher.cache_info()
        spec = compile_predicate(key_value("never_scanned_key", 9))
        assert raw_matcher.key_value_matcher.cache_info() == before
        spec.match(dump_record({"never_scanned_key": 9}))
        after = raw_matcher.key_value_matcher.cache_info()
        assert after.misses == before.misses + 1

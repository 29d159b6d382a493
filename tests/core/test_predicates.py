"""Unit tests for the predicate model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    Clause,
    PredicateKind,
    Query,
    SimplePredicate,
    UnsupportedPredicateError,
    Workload,
    clause,
    exact,
    key_present,
    key_value,
    prefix,
    substring,
    suffix,
)


class TestSimplePredicateValidation:
    def test_string_kinds_need_nonempty_strings(self):
        with pytest.raises(UnsupportedPredicateError):
            exact("name", "")
        with pytest.raises(UnsupportedPredicateError):
            SimplePredicate(PredicateKind.SUBSTRING, "t", 5)

    def test_float_equality_rejected(self):
        # 2.4 vs 24e-1 would create false negatives (paper §IV-B).
        with pytest.raises(UnsupportedPredicateError):
            key_value("score", 2.4)

    def test_key_presence_takes_no_operand(self):
        with pytest.raises(UnsupportedPredicateError):
            SimplePredicate(PredicateKind.KEY_PRESENCE, "email", "x")

    def test_column_required(self):
        with pytest.raises(ValueError):
            exact("", "x")

    @pytest.mark.parametrize(
        "operand", ["a,b", "5", None, b"5", [5]],
        ids=["str-with-comma", "numeric-str", "none", "bytes", "list"],
    )
    def test_key_value_operand_must_be_int_or_bool(self, operand):
        # A str operand holding "," or "}" would compile to a window that
        # can never contain it: a silent false negative.
        with pytest.raises(TypeError):
            key_value("name", operand)

    def test_int_and_bool_key_values_allowed(self):
        assert key_value("age", 10).value == 10
        assert key_value("active", True).value is True


class TestSemantics:
    RECORD = {
        "name": "Bob", "age": 20, "text": "very delicious food",
        "email": "x@y.z", "active": True, "nested": {"name": "Eve"},
    }

    def test_exact(self):
        assert exact("name", "Bob").evaluate(self.RECORD)
        assert not exact("name", "Bo").evaluate(self.RECORD)
        assert not exact("age", "20").evaluate(self.RECORD)  # type guard

    def test_substring_prefix_suffix(self):
        assert substring("text", "delicious").evaluate(self.RECORD)
        assert prefix("text", "very").evaluate(self.RECORD)
        assert suffix("text", "food").evaluate(self.RECORD)
        assert not prefix("text", "food").evaluate(self.RECORD)

    def test_key_presence(self):
        assert key_present("email").evaluate(self.RECORD)
        assert not key_present("missing").evaluate(self.RECORD)
        assert not key_present("null_field").evaluate({"null_field": None})

    def test_key_value_int(self):
        assert key_value("age", 20).evaluate(self.RECORD)
        assert not key_value("age", 21).evaluate(self.RECORD)

    def test_key_value_bool_never_matches_int(self):
        assert key_value("active", True).evaluate(self.RECORD)
        assert not key_value("active", 1).evaluate(self.RECORD)
        assert not key_value("one", True).evaluate({"one": 1})

    def test_top_level_keys_only(self):
        assert not exact("name", "Eve").evaluate(self.RECORD)


class TestSql:
    def test_renderings(self):
        assert exact("name", "Bob").sql() == "name = 'Bob'"
        assert substring("t", "x").sql() == "t LIKE '%x%'"
        assert prefix("t", "x").sql() == "t LIKE 'x%'"
        assert suffix("t", "x").sql() == "t LIKE '%x'"
        assert key_present("email").sql() == "email != NULL"
        assert key_value("age", 10).sql() == "age = 10"
        assert key_value("on", True).sql() == "on = true"


class TestClause:
    def test_canonical_ordering_and_dedup(self):
        a = clause(exact("name", "Bob"), exact("name", "John"))
        b = clause(exact("name", "John"), exact("name", "Bob"),
                   exact("name", "Bob"))
        assert a == b
        assert hash(a) == hash(b)
        assert len(b) == 2

    def test_disjunction_semantics(self):
        c = clause(exact("name", "Bob"), key_value("age", 99))
        assert c.evaluate({"name": "Bob", "age": 1})
        assert c.evaluate({"name": "Eve", "age": 99})
        assert not c.evaluate({"name": "Eve", "age": 1})

    def test_sql_parenthesizes_disjunctions(self):
        c = clause(exact("name", "Bob"), exact("name", "John"))
        assert c.sql() == "(name = 'Bob' OR name = 'John')"

    def test_columns(self):
        c = clause(exact("b", "x"), key_value("a", 1))
        assert c.columns == ("a", "b")

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError):
            Clause(())

    def test_ordering_total_across_value_types(self):
        mixed = [
            clause(key_value("a", 1)),
            clause(exact("a", "1")),
            clause(key_present("a")),
        ]
        assert sorted(mixed)  # must not raise

    def test_pickled_clause_rehashes_in_the_next_process(self, tmp_path):
        # ``str`` hashes are salted per process (PYTHONHASHSEED), so a
        # clause's cached hash must be recomputed when it is unpickled.
        build = ("clause(exact('city', 'Las Vegas'), substring('name', 'Pub'),"
                 " key_value('stars', 5))")
        path = tmp_path / "clause.pkl"
        dump = (
            "import pickle, sys\n"
            "from repro.core import clause, exact, key_value, substring\n"
            f"c = {build}\n"
            "hash(c)\n"
            "pickle.dump(c, open(sys.argv[1], 'wb'))\n"
        )
        load = (
            "import pickle, sys\n"
            "from repro.core import clause, exact, key_value, substring\n"
            "c = pickle.load(open(sys.argv[1], 'rb'))\n"
            f"fresh = {build}\n"
            "assert c == fresh\n"
            "assert hash(c) == hash(fresh), (hash(c), hash(fresh))\n"
            "assert {fresh: 'found'}.get(c) == 'found'\n"
            "assert c in {fresh}\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        for script, seed in ((dump, "1"), (load, "2")):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
            done = subprocess.run(
                [sys.executable, "-c", script, str(path)], env=env,
                capture_output=True, text=True, timeout=60,
            )
            assert done.returncode == 0, done.stderr


class TestQuery:
    def test_conjunction_semantics(self):
        q = Query((clause(exact("name", "Bob")), clause(key_value("a", 1))))
        assert q.evaluate({"name": "Bob", "a": 1})
        assert not q.evaluate({"name": "Bob", "a": 2})

    def test_duplicate_clauses_dropped(self):
        c = clause(exact("n", "x"))
        q = Query((c, c))
        assert len(q) == 1

    def test_sql_template(self):
        q = Query((clause(key_value("age", 10)),))
        assert q.sql("logs") == "SELECT COUNT(*) FROM logs WHERE age = 10"

    def test_validation(self):
        with pytest.raises(ValueError):
            Query(())
        with pytest.raises(ValueError):
            Query((clause(exact("a", "b")),), frequency=0)


class TestWorkload:
    def test_candidate_pool_is_distinct_union(self, tiny_workload):
        pool = tiny_workload.candidate_pool
        assert len(pool) == len(set(pool)) == 4

    def test_clause_query_counts(self, tiny_workload):
        counts = tiny_workload.clause_query_counts()
        assert sorted(counts.values(), reverse=True) == [2, 2, 1, 1]

    def test_total_and_minmax(self, tiny_workload):
        assert tiny_workload.total_predicates() == 6
        assert tiny_workload.min_max_predicates() == (2, 2)

    def test_normalized_frequencies_sum_to_one(self, tiny_workload):
        freqs = tiny_workload.normalized_frequencies()
        assert abs(sum(freqs.values()) - 1.0) < 1e-12

    def test_queries_containing(self, tiny_workload):
        c_text = clause(substring("text", "delicious"))
        hits = tiny_workload.queries_containing(c_text)
        assert {q.name for q in hits} == {"q2", "q3"}

    def test_summary_shape(self, tiny_workload):
        summary = tiny_workload.summary()
        assert summary["queries"] == 3
        assert summary["distinct_clauses"] == 4

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            Workload(())

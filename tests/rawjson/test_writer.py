"""Unit tests for the JSON writer."""

import hashlib
import json

import pytest

from repro.data import make_generator
from repro.rawjson import dump_record, dumps, escape_string, loads
from repro.rawjson.writer import dumps_cell


class _ReprFloat(float):
    """A float subclass whose repr is not JSON (as numpy's float64 is)."""

    def __repr__(self):
        return f"ReprFloat({float(self)!r})"


class _StrInt(int):
    """An int subclass whose str and repr are not JSON."""

    def __repr__(self):
        return f"StrInt({int(self)!r})"

    __str__ = __repr__


class TestScalars:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, "null"),
            (True, "true"),
            (False, "false"),
            (0, "0"),
            (-7, "-7"),
            (1.5, "1.5"),
            (2.0, "2.0"),
            (-0.0, "0.0"),
            (1e16, "1e+16"),
            ("hi", '"hi"'),
            ("\ud800", '"\\ud800"'),
        ],
    )
    def test_rendering(self, value, expected):
        assert dumps(value) == expected

    def test_whole_floats_stay_floats_on_reparse(self):
        assert isinstance(loads(dumps(3.0)), float)

    def test_nan_and_inf_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf"),
                    {"a": [float("nan")]}):
            with pytest.raises(ValueError):
                dumps(bad)

    def test_json_cells_write_infinities_as_numbers(self):
        inf = float("inf")
        for value, text in ((inf, "1e400"), (-inf, "-1e400"),
                            ({"a": [inf, -0.0, "x"]}, '{"a":[1e400,0.0,"x"]}'),
                            ([{"k": -inf}], '[{"k":-1e400}]'),
                            ({"b": 1}, '{"b":1}')):
            assert dumps_cell(value) == text
            assert loads(text) == value
        with pytest.raises(ValueError):
            dumps_cell({"a": [inf, float("nan")]})
        with pytest.raises(TypeError):
            dumps_cell({1: inf})


class TestEscaping:
    def test_special_characters(self):
        assert escape_string('a"b\\c\nd\te') == 'a\\"b\\\\c\\nd\\te'

    def test_control_characters_become_unicode_escapes(self):
        assert escape_string("\x01") == "\\u0001"
        assert escape_string("\ud800") == "\\ud800"

    def test_non_strings_rejected(self):
        # Not even an iterable of 1-character strings is escaped.
        for bad in (1, b"a", ["a"]):
            with pytest.raises(TypeError):
                escape_string(bad)

    def test_stdlib_can_read_escapes(self):
        tricky = {"k\n": 'v"\\\t\x02'}
        assert json.loads(dumps(tricky)) == tricky


class TestContainers:
    def test_compact_output(self):
        text = dumps({"a": [1, 2], "b": {"c": True}})
        assert " " not in text
        assert text == '{"a":[1,2],"b":{"c":true}}'

    def test_sort_keys(self):
        assert dumps({"b": 1, "a": 2}, sort_keys=True) == '{"a":2,"b":1}'

    def test_insertion_order_by_default(self):
        assert dumps({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_tuple_serializes_as_array(self):
        assert dumps((1, 2)) == "[1,2]"

    def test_non_string_keys_rejected(self):
        # Keys are checked before any value is written, so a non-str key
        # raises TypeError even where a NaN comes first.
        for bad in ({1: "x"}, {"a": [{2: 1}]}, {"a": float("nan"), 1: "x"}):
            with pytest.raises(TypeError):
                dumps(bad)

    @pytest.mark.parametrize("value,expected", [
        (_ReprFloat(2.5), "2.5"),
        (_ReprFloat(3.0), "3.0"),
        (_StrInt(7), "7"),
    ])
    def test_number_subclasses_written_as_numbers(self, value, expected):
        assert dumps({"a": [value]}) == f'{{"a":[{expected}]}}'

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            dumps({"x": object()})


class TestDumpRecord:
    def test_single_line(self):
        line = dump_record({"msg": "two\nlines"})
        assert "\n" not in line
        assert loads(line) == {"msg": "two\nlines"}

    def test_rejects_non_dicts(self):
        with pytest.raises(TypeError):
            dump_record([1, 2])


class TestRoundtrip:
    def test_own_parser_roundtrip(self):
        record = {
            "s": "hé\n\"quoted\"",
            "i": -42,
            "f": 2.5,
            "b": False,
            "n": None,
            "arr": [1, "two", None],
            "obj": {"inner": [True]},
        }
        assert loads(dumps(record)) == record


class TestGeneratedBytes:
    """Generated records are pinned byte for byte (sha256 of the first
    2,000 seed-1 lines, each followed by a newline)."""

    SHA256 = {
        "yelp": "2954ead5bbb4ff9f53d9de53e1e1842b12a095f513ab8486f0a6d00dac31e1c3",
        "winlog": "a73e3256dc014757c4d97a952d21fac773fdf9055c59b61f15371231c92d4c0f",
        "ycsb": "fe8b3c2dfac5c2d6104d5e46b4c7eb506d40694f77b6ecf2064dd24609cb4ed6",
    }

    @pytest.mark.parametrize("dataset", sorted(SHA256))
    def test_raw_lines_are_pinned(self, dataset):
        digest = hashlib.sha256()
        for line in make_generator(dataset, 1).raw_lines(2000):
            digest.update(line.encode("utf-8") + b"\n")
        assert digest.hexdigest() == self.SHA256[dataset]

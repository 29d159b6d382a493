"""Unit tests for the strict JSON record parser.

Every accept/reject case is a :func:`loads` case: the parser must keep
RFC 8259 strictness (no ``NaN``/``Infinity``, no leading zeros, four-hex
``\\u`` escapes), map lone surrogates to U+FFFD, and hold the nesting limit
exactly.
"""

import json

import pytest

from repro.rawjson import (
    JsonSyntaxError,
    loads,
    parse_object,
    try_parse,
)
from repro.rawjson.parser import MAX_DEPTH

REPLACEMENT = chr(0xFFFD)


def escape(code):
    """The six-character JSON escape of one UTF-16 code unit."""
    return "\\u%04x" % code


def quoted(*codes):
    """A JSON string literal spelling *codes* as escapes only."""
    return '"' + "".join(escape(code) for code in codes) + '"'


class TestValues:
    @pytest.mark.parametrize(
        "text",
        [
            "{}",
            "[]",
            '{"a": 1}',
            '{"a": {"b": [1, 2, {"c": null}]}}',
            '[1, 2.5, "x", true, false, null]',
            '"plain"',
            "-12",
            "0.125",
            '{"nested": {"deep": {"deeper": [[[1]]]}}}',
        ],
    )
    def test_agrees_with_stdlib(self, text):
        assert loads(text) == json.loads(text)

    def test_duplicate_keys_keep_last(self):
        # Matches stdlib json and most real-world parsers.
        assert loads('{"a": 1, "a": 2}') == {"a": 2}

    def test_number_types_preserved(self):
        value = loads('[1, 1.0]')
        assert isinstance(value[0], int)
        assert isinstance(value[1], float)


class TestPunctuation:
    def test_object(self):
        assert loads('{"a": 1}') == {"a": 1}

    def test_array(self):
        assert loads("[1, 2]") == [1, 2]

    def test_whitespace_is_skipped(self):
        assert loads(" \t\r\n{ }\n") == {}


class TestLiterals:
    def test_true_false_null(self):
        assert loads("[true, false, null]") == [True, False, None]

    def test_misspelled_literal_rejected(self):
        with pytest.raises(JsonSyntaxError):
            loads("tru")
        with pytest.raises(JsonSyntaxError):
            loads("nul")

    @pytest.mark.parametrize(
        "text", ["NaN", "Infinity", "-Infinity", '{"a": NaN}', "[Infinity]"]
    )
    def test_non_standard_constants_rejected(self, text):
        with pytest.raises(JsonSyntaxError):
            loads(text)
        assert try_parse(text) == (None, False)


class TestNumbers:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0", 0),
            ("-0", 0),
            ("42", 42),
            ("-17", -17),
            ("3.5", 3.5),
            ("-0.25", -0.25),
            ("1e3", 1000.0),
            ("1E+2", 100.0),
            ("25e-1", 2.5),
            ("1.5e2", 150.0),
        ],
    )
    def test_valid_numbers(self, text, value):
        parsed = loads(text)
        assert parsed == value
        assert isinstance(parsed, type(value))

    @pytest.mark.parametrize(
        "text", ["1.", ".5", "-", "1e", "1e+", "+1"]
    )
    def test_invalid_numbers(self, text):
        with pytest.raises(JsonSyntaxError):
            loads(text)

    def test_leading_zero_rejected(self):
        with pytest.raises(JsonSyntaxError):
            loads("01")
        with pytest.raises(JsonSyntaxError):
            loads("[01]")

    def test_integer_over_digit_limit_is_a_syntax_error(self):
        text = '{"a": ' + "9" * 5000 + "}"
        with pytest.raises(JsonSyntaxError):
            loads(text)
        assert try_parse(text) == (None, False)


class TestStrings:
    def test_plain_string(self):
        assert loads('"hello"') == "hello"

    def test_escapes(self):
        assert loads(r'"a\"b\\c\/d\be\ff\ng\rh\ti"') == (
            'a"b\\c/d\be\ff\ng\rh\ti'
        )

    def test_unicode_escape(self):
        assert loads(quoted(0xE9)) == chr(0xE9)
        assert loads(quoted(0x41, 0x2F)) == "A/"

    def test_surrogate_pair(self):
        assert loads(quoted(0xD83D, 0xDE00)) == chr(0x1F600)

    def test_lone_surrogate_replaced(self):
        assert loads(quoted(0xD83D)) == REPLACEMENT
        assert loads(quoted(0xDE00)) == REPLACEMENT
        assert loads('"\\uDE00"') == REPLACEMENT  # upper-case hex

    def test_high_surrogate_then_non_low_escape(self):
        assert loads(quoted(0xD800, 0x41)) == REPLACEMENT + "A"
        assert loads(quoted(0xD800, 0xD83D, 0xDE00)) == (
            REPLACEMENT + chr(0x1F600)
        )

    def test_lone_surrogates_in_keys_and_nested_values(self):
        text = '{%s: [%s, {"x": %s}]}' % (
            quoted(0x6B, 0xDC00), quoted(0xD800), quoted(0xDFFF))
        value = loads(text)
        assert value == {"k" + REPLACEMENT: [REPLACEMENT, {"x": REPLACEMENT}]}
        json.dumps(value, ensure_ascii=False).encode("utf-8")

    def test_escaped_backslash_before_u_is_not_an_escape(self):
        text = '"\\\\' + escape(0xD800)[1:] + '"'
        assert loads(text) == "\\" + escape(0xD800)[1:]

    def test_unterminated_string(self):
        with pytest.raises(JsonSyntaxError):
            loads('"abc')

    def test_control_character_rejected(self):
        with pytest.raises(JsonSyntaxError):
            loads('"a\nb"')

    def test_bad_escape_rejected(self):
        with pytest.raises(JsonSyntaxError):
            loads(r'"\x41"')

    def test_truncated_unicode_escape(self):
        with pytest.raises(JsonSyntaxError):
            loads(r'"\u00"')

    @pytest.mark.parametrize(
        "bad", [r"\u+0e9", r"\u 0e9", r"\u0x41", r"\uf_ff", r"\u-fff"]
    )
    def test_non_hex_unicode_escape_rejected(self, bad):
        with pytest.raises(JsonSyntaxError):
            loads(f'"{bad}"')


class TestPositions:
    def test_error_positions_point_at_offending_character(self):
        with pytest.raises(JsonSyntaxError) as info:
            loads('{"ab" 12}')
        assert info.value.position == 6
        with pytest.raises(JsonSyntaxError) as info:
            loads('{"ab": @}')
        assert info.value.position == 7

    def test_error_position_reported(self):
        with pytest.raises(JsonSyntaxError) as info:
            loads("{@}")
        assert info.value.position == 1


def test_unexpected_character():
    with pytest.raises(JsonSyntaxError):
        loads("#")


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "{",
            "}",
            '{"a"}',
            '{"a": }',
            '{"a": 1,}',
            "[1, ]",
            "[1 2]",
            '{"a": 1} extra',
            "{'a': 1}",
            '{"a": 1 "b": 2}',
            '{1: 2}',
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            loads(text)

    def test_depth_limit(self):
        deep = "[" * 200 + "]" * 200
        with pytest.raises(JsonSyntaxError):
            loads(deep)

    def test_depth_boundary_is_exact(self):
        # No value may sit inside more than MAX_DEPTH containers.
        assert MAX_DEPTH == 128
        loads("[" * 129 + "]" * 129)
        with pytest.raises(JsonSyntaxError):
            loads("[" * 130 + "]" * 130)
        loads("[" * 128 + "1" + "]" * 128)
        with pytest.raises(JsonSyntaxError):
            loads("[" * 129 + "1" + "]" * 129)
        loads('{"a":' * 128 + "1" + "}" * 128)
        with pytest.raises(JsonSyntaxError):
            loads('{"a":' * 129 + "1" + "}" * 129)

    @staticmethod
    def _nested(levels, kinds):
        # A scalar inside *levels* containers, cycling through *kinds*,
        # with scalar siblings at every level before the deeper value.
        text = "1"
        for level in reversed(range(levels)):
            if kinds[level % len(kinds)] == "dict":
                text = '{"a": 1, "b": "x", "c": ' + text + "}"
            else:
                text = '[1, "x", null, ' + text + "]"
        return text

    @pytest.mark.parametrize(
        "kinds", [("dict",), ("list",), ("dict", "list"), ("list", "dict")],
        ids=["dict", "list", "dict-list", "list-dict"],
    )
    def test_depth_boundary_per_container_kind(self, kinds):
        loads(self._nested(MAX_DEPTH, kinds))
        with pytest.raises(JsonSyntaxError) as info:
            loads(self._nested(MAX_DEPTH + 1, kinds))
        assert str(info.value) == (
            "maximum nesting depth exceeded (at offset 0)")

    def test_brackets_inside_strings_do_not_count_as_depth(self):
        text = '{"s": "' + "[" * 500 + '"}'
        assert loads(text) == {"s": "[" * 500}

    def test_nesting_past_the_recursion_limit_is_a_syntax_error(self):
        with pytest.raises(JsonSyntaxError):
            loads("[" * 100_000 + "]" * 100_000)

    def test_error_carries_position(self):
        with pytest.raises(JsonSyntaxError) as info:
            loads('{"a": 1,}')
        assert info.value.position == 8


class TestParseObject:
    def test_accepts_objects_only(self):
        assert parse_object('{"x": 1}') == {"x": 1}
        with pytest.raises(JsonSyntaxError):
            parse_object("[1]")
        with pytest.raises(JsonSyntaxError):
            parse_object('"str"')


class TestTryParse:
    def test_ok_path(self):
        value, ok = try_parse('{"a": [1]}')
        assert ok and value == {"a": [1]}

    def test_error_path(self):
        value, ok = try_parse("{nope")
        assert not ok and value is None

    def test_lexical_error_path(self):
        value, ok = try_parse('"unterminated')
        assert not ok and value is None

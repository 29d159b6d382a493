"""Property-based roundtrip tests for storage encodings and pages."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import ColumnType, Encoding, read_page, write_page
from repro.storage.encodings import decode, encode

#: Text drawn from a small alphabet that still holds what encoders must
#: get right: JSON escapes, control and NUL characters, and 2-, 3- and
#: 4-byte UTF-8.  Unbounded text generation is slow enough to trip the
#: slow-generation health check on a busy CPU.
TEXT = st.text(alphabet="ab \"\\\n\t\x00\x1f\u00e9\u4e2d\U0001f600",
               max_size=30)

TYPED_VALUES = {
    ColumnType.STRING: TEXT,
    ColumnType.INT64: st.integers(min_value=-(2 ** 62), max_value=2 ** 62),
    ColumnType.FLOAT64: st.floats(allow_nan=False, width=64),
    ColumnType.BOOL: st.booleans(),
    ColumnType.JSON: TEXT,
}

#: One flat choice of ``(type, values)`` per column type: the type is
#: not a separate draw that the list has to wait on.
TYPED_VALUE_LISTS = st.one_of(*(
    st.tuples(st.just(column_type),
              st.lists(TYPED_VALUES[column_type], max_size=60))
    for column_type in sorted(TYPED_VALUES, key=str)
))

NULLABLE_TYPED_LISTS = st.one_of(*(
    st.tuples(st.just(column_type),
              st.lists(st.one_of(st.none(), TYPED_VALUES[column_type]),
                       max_size=60))
    for column_type in sorted(TYPED_VALUES, key=str)
))


@given(TYPED_VALUE_LISTS, st.sampled_from(sorted(Encoding, key=str)))
@settings(max_examples=300)
def test_encoding_roundtrip(typed, encoding):
    column_type, values = typed
    payload = encode(values, column_type, encoding)
    assert decode(payload, len(values), column_type, encoding) == values


@given(NULLABLE_TYPED_LISTS)
@settings(max_examples=300)
def test_page_roundtrip_with_nulls(typed):
    column_type, values = typed
    page, stats = write_page(values, column_type)
    assert read_page(page, column_type) == values
    assert stats.row_count == len(values)
    assert stats.null_count == sum(1 for v in values if v is None)


@given(NULLABLE_TYPED_LISTS, st.sampled_from(sorted(Encoding, key=str)))
@settings(max_examples=200)
def test_page_roundtrip_forced_encodings(typed, encoding):
    column_type, values = typed
    page, _ = write_page(values, column_type, encoding=encoding)
    assert read_page(page, column_type) == values


@given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1,
                max_size=60))
@settings(max_examples=200)
def test_page_stats_min_max(values):
    _, stats = write_page(values, ColumnType.INT64)
    assert stats.min_value == min(values)
    assert stats.max_value == max(values)

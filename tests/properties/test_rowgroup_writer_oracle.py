"""Differential test: the column-major row-group writer ≡ the per-value one.

The storage write path builds row groups column by column with C-level
bulk operations.  ``rowgroup_oracle`` is the same writer one value and one
bit at a time.  On every input both must produce the same bytes, the same
page statistics and the same schema — or raise the same exception type.
Rows mix missing keys and ``None``, bools with ints and floats, ints past
±2**63, nested values, lone surrogates, strings of 128 bytes or more,
more than 128 distinct values, long runs (so RLE is chosen) and ``int``,
``float`` and ``str`` subclasses, which must take the per-value fallback.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import rowgroup_oracle as oracle
from repro.bitvec import BitVector
from repro.rawjson import JsonChunk
from repro.storage import (
    ColumnType,
    Encoding,
    Field,
    Schema,
    build_row_group,
    infer_schema,
    write_page,
)


class SubInt(int):
    pass


class SubFloat(float):
    pass


class SubStr(str):
    pass


KEYS = ["a", "b", "c", "d"]

big_ints = st.sampled_from(
    [2 ** 63 - 1, 2 ** 63, 2 ** 64 + 5, -(2 ** 63), -(2 ** 63) - 1,
     -(2 ** 70), 12345678901234567890]
)
ints = st.one_of(st.integers(min_value=-3, max_value=300), big_ints)
floats = st.floats(allow_nan=False, width=64)
strings = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["\ud800", "x\udfffy", "􏰀"]),
    st.integers(min_value=120, max_value=300).map(lambda n: "é" * (n // 2)),
    st.integers(min_value=0, max_value=200).map(lambda n: "s%d" % n),
)
subclassed = st.one_of(
    ints.map(SubInt), floats.map(SubFloat), st.text(max_size=4).map(SubStr),
)
scalars = st.one_of(st.none(), st.booleans(), ints, floats, strings)
nested = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    ),
    max_leaves=6,
)
values = st.one_of(scalars, scalars, subclassed, nested)


@st.composite
def row_lists(draw):
    """Rows drawn so columns often share one kind, with long runs."""
    n_rows = draw(st.integers(min_value=1, max_value=160))
    columns = {}
    for key in draw(st.lists(st.sampled_from(KEYS), min_size=1,
                             unique=True)):
        pool = draw(st.sampled_from([
            scalars, ints, floats, strings, st.booleans(), subclassed,
            values, st.one_of(ints, floats), st.one_of(st.none(), strings),
            st.integers(min_value=0, max_value=10 ** 6),
        ]))
        run = draw(st.integers(min_value=1, max_value=40))
        column = []
        while len(column) < n_rows:
            column.extend([draw(pool)] * run)
        columns[key] = column[:n_rows]
    missing = draw(st.sets(st.integers(min_value=0, max_value=n_rows - 1),
                           max_size=n_rows // 2))
    return [
        {key: column[i] for key, column in columns.items()
         if (i + len(key)) not in missing}
        for i in range(n_rows)
    ]


def outcome(call, *args, **kwargs):
    """``call``'s result, or the type of the exception it raised."""
    try:
        return "ok", call(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 -- the type is the outcome
        return "raised", type(exc)


def same_row_group(rows, schema, encoding=None):
    expected = outcome(oracle.build_row_group, rows, schema, 7,
                       encoding=encoding)
    actual = outcome(build_row_group, rows, schema, 7, encoding=encoding)
    if expected[0] == "ok" and actual[0] == "ok":
        (old_block, old_meta), (new_block, new_meta) = expected[1], actual[1]
        assert new_block == old_block
        assert new_meta.to_dict() == old_meta.to_dict()
        assert new_meta.columns == old_meta.columns  # PageStats, typed
    else:
        assert actual == expected


@given(row_lists())
@settings(max_examples=300, deadline=None)
def test_inferred_schema_and_row_group_match_oracle(rows):
    expected = outcome(oracle.infer_schema, rows)
    assert outcome(infer_schema, rows) == expected
    if expected[0] == "ok":
        same_row_group(rows, expected[1])


@given(row_lists(), st.data())
@settings(max_examples=300, deadline=None)
def test_row_group_under_any_schema_matches_oracle(rows, data):
    """A schema the rows may not fit: SchemaError and friends must match."""
    names = sorted({key for row in rows for key in row}) or ["a"]
    schema = Schema([
        Field(name, data.draw(st.sampled_from(list(ColumnType))))
        for name in names
    ])
    encoding = data.draw(st.one_of(st.none(), st.sampled_from(list(Encoding))))
    same_row_group(rows, schema, encoding)


TYPED = {
    ColumnType.STRING: st.one_of(strings, st.text(max_size=4).map(SubStr)),
    ColumnType.INT64: st.one_of(ints, ints.map(SubInt)),
    ColumnType.FLOAT64: st.one_of(floats, floats.map(SubFloat)),
    ColumnType.BOOL: st.booleans(),
    ColumnType.JSON: strings,
}


@st.composite
def typed_pages(draw):
    column_type = draw(st.sampled_from(sorted(TYPED, key=str)))
    pool = st.one_of(st.none(), TYPED[column_type])
    run = draw(st.integers(min_value=1, max_value=30))
    values = []
    for value in draw(st.lists(pool, max_size=60)):
        values.extend([value] * run)
    return column_type, values[:300]


@given(typed_pages(), st.one_of(st.none(), st.sampled_from(list(Encoding))))
@settings(max_examples=400, deadline=None)
def test_write_page_matches_oracle(typed, encoding):
    column_type, values = typed
    expected = outcome(oracle.write_page, values, column_type, encoding)
    assert outcome(write_page, values, column_type, encoding) == expected


VARINT_EDGES = [
    # Dictionaries of 128 and 129 entries: the last index is 127 or 128.
    (ColumnType.INT64, [i * 7 % 128 for i in range(300)]),
    (ColumnType.INT64, [i * 7 % 129 for i in range(300)]),
    (ColumnType.STRING, ["v%d" % (i % 129) for i in range(300)]),
    # Zigzag values 126, 127, 128, 129.
    (ColumnType.INT64, [63, -64]),
    (ColumnType.INT64, [64, -64]),
    (ColumnType.INT64, [-65, 3]),
    # Strings of 127, 128 and 16,384 bytes.
    (ColumnType.STRING, ["x" * 127, "y" * 128]),
    (ColumnType.JSON, ["z" * 128, "z" * 16384, None]),
]


def test_varint_boundaries_match_oracle():
    for column_type, values in VARINT_EDGES:
        for encoding in (None, *Encoding):
            assert write_page(values, column_type, encoding) == \
                oracle.write_page(values, column_type, encoding)


vectors = st.integers(min_value=0, max_value=300).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n, max_size=n)
).map(BitVector.from_bits)


@given(vectors, st.data())
@settings(max_examples=300, deadline=None)
def test_select_matches_oracle(bv, data):
    n = len(bv)
    position = st.integers(min_value=0, max_value=max(n - 1, 0))
    if data.draw(st.booleans()) or not n:  # out of range: IndexError
        position = st.one_of(position, st.integers(min_value=-3,
                                                   max_value=n + 3))
    positions = data.draw(st.lists(position, max_size=n + 2))
    expected = outcome(oracle.select, bv, positions)
    assert outcome(bv.select, positions) == expected


@given(vectors)
@settings(max_examples=200, deadline=None)
def test_flags_and_split_by_mask_match_oracle(bv):
    assert bv.to_flags() == bytes(bv.to_bits())
    assert BitVector.from_flags(bv.to_flags()) == bv
    chunk = JsonChunk(0, ["{}"] * len(bv))
    assert chunk.split_by_mask(bv) == oracle.split_by_mask(bv)

"""Compressed pages: PQL2 files decode exactly as PQL1 files did.

Writers compress a page with zlib when that makes it smaller and write
magic ``PQL2``; readers take ``PQL1`` files too.  The ``PQL1`` files here
come from the per-value reference writer (``rowgroup_oracle``) with its
uncompressed page layout, so the two files share no writer code.  A
compressed page that is truncated, bit-flipped or lies about its length
must raise :class:`EncodingError`, never decode to other values, hang or
allocate past its stated length.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rowgroup_oracle as oracle
from repro.bitvec import BitVector
from repro.storage import (
    ColumnType,
    EncodingError,
    FileMeta,
    ParquetLiteError,
    ParquetLiteReader,
    ParquetLiteWriter,
    infer_schema,
    page_encoding,
    read_page,
    write_page,
)
from repro.storage.encodings import read_varint, write_varint

FLAG = oracle.COMPRESSED_FLAG

words = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])
texts = st.lists(words, min_size=0, max_size=12).map(" ".join)
# Infinite floats are left out: a footer cannot hold them as statistics,
# compressed or not.
cells = st.one_of(
    st.none(), st.integers(min_value=-5, max_value=10 ** 6), texts,
    st.floats(allow_nan=False, allow_infinity=False), st.booleans(),
)


@st.composite
def groups(draw):
    """Row groups of one table, each with a few predicate vectors."""
    keys = draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=3,
                         unique=True))
    pools = {key: draw(st.sampled_from([cells, texts, st.integers(0, 9)]))
             for key in keys}
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        n = draw(st.integers(min_value=1, max_value=60))
        columns = {key: draw(st.lists(pool, min_size=n, max_size=n))
                   for key, pool in pools.items()}
        rows = [{key: column[i] for key, column in columns.items()}
                for i in range(n)]
        vectors = {
            pid: BitVector.from_bits(
                draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            for pid in draw(st.sets(st.integers(0, 4), max_size=3))
        }
        out.append((rows, vectors))
    return out


def write_pql1(path, schema, row_groups):
    """A PQL1 file: the oracle's uncompressed pages under a PQL1 footer."""
    meta = FileMeta(schema=schema)
    body = bytearray(b"PQL1")
    for rows, vectors in row_groups:
        block, rg = oracle.build_row_group(
            rows, schema, len(body), bitvectors=vectors, compress=False,
        )
        body += block
        meta.row_groups.append(rg)
    footer = meta.serialize()
    body += footer + len(footer).to_bytes(8, "little") + b"PQL1"
    path.write_bytes(bytes(body))


def decoded(path):
    """Everything a reader hands out: rows, per-group stats and vectors."""
    with ParquetLiteReader(path) as reader:
        groups = [
            ({name: c.stats for name, c in rg.columns.items()},
             dict(rg.bitvectors))
            for rg in reader.meta.row_groups
        ]
        return reader.schema, groups, reader.read_all()


@given(groups())
@settings(max_examples=80, deadline=None)
def test_pql1_and_pql2_files_decode_equal(tmp_path_factory, row_groups):
    tmp = tmp_path_factory.mktemp("pql")
    schema = infer_schema([row for rows, _ in row_groups for row in rows])
    write_pql1(tmp / "old.pql", schema, row_groups)
    with ParquetLiteWriter(tmp / "new.pql", schema) as writer:
        for rows, vectors in row_groups:
            writer.write_row_group(rows, bitvectors=vectors)
    assert (tmp / "old.pql").read_bytes()[:4] == b"PQL1"
    assert (tmp / "new.pql").read_bytes()[:4] == b"PQL2"
    assert decoded(tmp / "new.pql") == decoded(tmp / "old.pql")


def test_mixed_magics_rejected(tmp_path):
    schema = infer_schema([{"a": 1}])
    write_pql1(tmp_path / "old.pql", schema, [([{"a": 1}], {})])
    data = (tmp_path / "old.pql").read_bytes()
    (tmp_path / "mixed.pql").write_bytes(data[:-4] + b"PQL2")
    with pytest.raises(ParquetLiteError, match="trailing magic"):
        ParquetLiteReader(tmp_path / "mixed.pql")


class TestCompressIfSmaller:
    def test_compressible_page_is_compressed(self):
        values = ["the same review text, again and again"] * 200
        page, _ = write_page(values, ColumnType.STRING)
        plain, _ = oracle.write_page(values, ColumnType.STRING,
                                     compress=False)
        assert page[0] & FLAG
        assert len(page) < len(plain)
        assert read_page(page, ColumnType.STRING) == values

    def test_incompressible_page_stays_plain(self):
        page, _ = write_page([7], ColumnType.INT64)
        assert page == oracle.write_page([7], ColumnType.INT64,
                                         compress=False)[0]
        assert not page[0] & FLAG

    def test_uncompressed_pages_still_read(self):
        values = ["x" * 50, None] * 40
        plain, _ = oracle.write_page(values, ColumnType.STRING,
                                     compress=False)
        assert read_page(plain, ColumnType.STRING) == values

    def test_stated_length_past_the_inflate_ratio_rejected(self):
        page, _ = write_page(["y" * 64] * 64, ColumnType.STRING)
        raw_len, pos = read_varint(page, 1)
        lie = bytearray(page[:1])
        write_varint(lie, 1 << 70)
        with pytest.raises(EncodingError, match="states"):
            read_page(bytes(lie) + page[pos:], ColumnType.STRING)

    def test_trailing_bytes_after_the_stream_rejected(self):
        page, _ = write_page(["z" * 64] * 64, ColumnType.STRING)
        assert page[0] & FLAG
        with pytest.raises(EncodingError):
            read_page(page + b"\x00", ColumnType.STRING)


@st.composite
def compressed_pages(draw):
    """A compressed page of distinct texts, with the values it holds."""
    drawn = draw(st.lists(st.one_of(st.none(), texts), max_size=60))
    values = [None if text is None else f"{text} {i}"
              for i, text in enumerate(drawn)]
    values += [f"alpha beta gamma delta {i}" for i in range(16)]
    page, _ = write_page(values, ColumnType.STRING)
    assert page[0] & FLAG
    return page, values


def outcome(page):
    try:
        return read_page(page, ColumnType.STRING)
    except EncodingError:
        return EncodingError


@given(compressed_pages(), st.data())
@settings(max_examples=300, deadline=None)
def test_truncated_page_raises(page_values, data):
    page, _ = page_values
    cut = data.draw(st.integers(min_value=0, max_value=len(page) - 1))
    with pytest.raises(EncodingError):
        read_page(page[:cut], ColumnType.STRING)


@given(compressed_pages(), st.data())
@settings(max_examples=300, deadline=None)
def test_bit_flip_after_the_tag_never_decodes_other_values(page_values,
                                                           data):
    """A flipped bit in the length or the stream raises; the one harmless
    flip is in the deflate padding after the last block, which inflates
    to the same page."""
    page, values = page_values
    bit = data.draw(st.integers(min_value=8, max_value=len(page) * 8 - 1))
    flipped = bytearray(page)
    flipped[bit >> 3] ^= 1 << (bit & 7)
    assert outcome(bytes(flipped)) in (EncodingError, values)


@given(compressed_pages(), st.integers(min_value=0, max_value=1 << 40))
@settings(max_examples=300, deadline=None)
def test_lying_length_raises(page_values, stated):
    page, _ = page_values
    raw_len, pos = read_varint(page, 1)
    if stated == raw_len:
        stated += 1
    lie = bytearray(page[:1])
    write_varint(lie, stated)
    with pytest.raises(EncodingError):
        read_page(bytes(lie) + page[pos:], ColumnType.STRING)


def test_corrupt_stream_is_an_encoding_error():
    page, _ = write_page(["w" * 40] * 40, ColumnType.STRING)
    raw_len, pos = read_varint(page, 1)
    header = page[:pos]
    for stream in (b"", b"\x00" * 8, zlib.compress(b"other bytes", 1)):
        with pytest.raises(EncodingError):
            read_page(header + stream, ColumnType.STRING)


def test_page_encoding_ignores_the_compression_flag():
    values = ["w" * 40] * 40
    page, _ = write_page(values, ColumnType.STRING)
    plain, _ = oracle.write_page(values, ColumnType.STRING, compress=False)
    assert page[0] & FLAG and not plain[0] & FLAG
    assert page_encoding(page) is page_encoding(plain)

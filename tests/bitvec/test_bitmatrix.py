"""Unit and property tests of the per-chunk bit matrix."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvec import BitMatrix, BitVector, union_all
from repro.bitvec.bitvector import selector


@st.composite
def matrices(draw):
    """A matrix and the ``{id: BitVector}`` it holds."""
    width = draw(st.integers(min_value=0, max_value=70))
    ids = draw(st.lists(st.integers(min_value=0, max_value=60), unique=True,
                        max_size=6))
    vectors = {pid: BitVector.from_bits(draw(st.lists(
        st.booleans(), min_size=width, max_size=width))) for pid in ids}
    rows = [(pid, int.from_bytes(bv.to_bytes()[4:], "little"))
            for pid, bv in vectors.items()]
    return BitMatrix.from_rows(width, rows), vectors


@given(matrices())
@settings(max_examples=150)
def test_rows_are_the_vectors(case):
    matrix, vectors = case
    assert matrix.ids == tuple(sorted(vectors))
    assert {pid: matrix.vector(pid) for pid in matrix.ids} == vectors
    # A row's bytes are the vector's payload, back to back in id order.
    assert matrix.to_block() == b"".join(
        vectors[pid].to_bytes()[4:] for pid in sorted(vectors)
    )
    assert BitMatrix.from_block(matrix.ids, matrix.width,
                                matrix.to_block()) == matrix


@given(matrices())
@settings(max_examples=150)
def test_union_is_the_or_of_the_vectors(case):
    matrix, vectors = case
    if not vectors:
        assert matrix.union() == 0
        return
    want = union_all(list(vectors.values()))
    assert matrix.union() == int.from_bytes(want.to_bytes()[4:], "little")


@given(matrices(), st.data())
@settings(max_examples=150)
def test_gather_is_a_selector_per_row(case, data):
    matrix, vectors = case
    flags = bytes(data.draw(st.lists(st.integers(0, 1),
                                     min_size=matrix.width,
                                     max_size=matrix.width)))
    kept = [i for i, flag in enumerate(flags) if flag]
    restrict = selector(kept)
    got = matrix.gather(flags)
    assert len(got) == len(matrix.ids)
    for pid, digits in zip(matrix.ids, got):
        assert BitVector.from_bit_string(digits) == restrict(vectors[pid])


@given(matrices(), st.integers(min_value=0, max_value=60), st.data())
@settings(max_examples=150)
def test_with_and_without_row(case, pid, data):
    matrix, vectors = case
    bits = data.draw(st.lists(st.booleans(), min_size=matrix.width,
                              max_size=matrix.width))
    bv = BitVector.from_bits(bits)
    added = matrix.with_row(pid, int.from_bytes(bv.to_bytes()[4:], "little"))
    want = {**vectors, pid: bv}
    assert added.ids == tuple(sorted(want))
    assert {p: added.vector(p) for p in added.ids} == want
    removed = added.without_row(pid)
    want.pop(pid)
    assert removed.ids == tuple(sorted(want))
    assert {p: removed.vector(p) for p in removed.ids} == want


class TestStrictness:
    def test_block_size_must_fit_the_shape(self):
        for block in (b"", b"\x00", b"\x00" * 5):
            with pytest.raises(ValueError, match="need 4"):
                BitMatrix.from_block([1, 2], 13, block)

    def test_padding_bits_rejected_in_every_row(self):
        for row in range(3):
            block = bytearray(3)
            block[row] = 0b1000_0000
            with pytest.raises(ValueError, match="padding"):
                BitMatrix.from_block([0, 1, 2], 7, bytes(block))
        # A width that is a multiple of 8 has no padding.
        assert BitMatrix.from_block([0], 8, b"\xff").union() == 0xFF

    def test_rows_must_fit_the_width_and_ids_be_unique(self):
        with pytest.raises(ValueError, match="does not fit"):
            BitMatrix.from_rows(3, [(0, 0b1000)])
        with pytest.raises(ValueError, match="duplicate"):
            BitMatrix.from_rows(3, [(0, 1), (0, 2)])
        with pytest.raises(ValueError, match="does not fit"):
            BitMatrix((), 3).with_row(0, 8)

    def test_missing_id(self):
        matrix = BitMatrix.from_rows(4, [(2, 5)])
        assert 2 in matrix and 3 not in matrix
        with pytest.raises(KeyError):
            matrix.vector(3)
        with pytest.raises(KeyError):
            matrix.without_row(3)

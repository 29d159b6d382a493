"""Property-based tests of bit-vector algebra and encodings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvec import BitVector, RleBitVector, best_encoding

bit_lists = st.lists(st.booleans(), max_size=300)


@st.composite
def paired_bits(draw):
    a = draw(bit_lists)
    b = draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
    return a, b


@given(bit_lists)
def test_from_bits_roundtrip(bits):
    assert BitVector.from_bits(bits).to_bits() == [int(b) for b in bits]


#: Truthy and falsy values of many types, as engine predicates return.
mixed_values = st.sampled_from(
    [True, False, 0, 1, -2, 7, None, "", "x", 0.0, 0.5, [], [None], b""]
)

#: Lengths on and around the byte and 4,096-bit boundaries.
edge_lengths = st.sampled_from(
    [0, 1, 7, 8, 9, 15, 16, 17, 4095, 4096, 4097, 8191, 8192, 8193]
)


def per_bit_reference(values):
    bv = BitVector(len(values))
    for index, value in enumerate(values):
        if value:
            bv.set(index)
    return bv


@given(st.lists(mixed_values, max_size=300))
def test_from_bits_matches_per_bit_reference(values):
    assert BitVector.from_bits(values) == per_bit_reference(values)
    assert BitVector.from_bits(iter(values)) == per_bit_reference(values)


@settings(max_examples=40, deadline=None)
@given(edge_lengths, st.data())
def test_from_bits_matches_reference_at_boundaries(length, data):
    # Hypothesis caps list sizes below 8 K: draw a palette, then pick
    # each position from it with a drawn random.
    palette = data.draw(st.lists(mixed_values, min_size=1, max_size=16))
    rnd = data.draw(st.randoms(use_true_random=False))
    values = [rnd.choice(palette) for _ in range(length)]
    bv = BitVector.from_bits(values)
    assert len(bv) == length
    assert bv == per_bit_reference(values)


@given(bit_lists)
def test_serialization_roundtrip(bits):
    bv = BitVector.from_bits(bits)
    assert BitVector.from_bytes(bv.to_bytes()) == bv


@given(bit_lists)
def test_rle_equivalence(bits):
    bv = BitVector.from_bits(bits)
    rle = RleBitVector.from_bitvector(bv)
    assert rle.to_bitvector() == bv
    assert rle.count() == bv.count()
    assert list(rle.iter_set()) == list(bv.iter_set())
    assert RleBitVector.from_bytes(rle.to_bytes()) == rle


@given(bit_lists)
def test_best_encoding_is_lossless(bits):
    bv = BitVector.from_bits(bits)
    encoded = best_encoding(bv)
    if isinstance(encoded, RleBitVector):
        assert encoded.to_bitvector() == bv
    else:
        assert encoded == bv


@given(paired_bits())
def test_de_morgan(pair):
    a, b = (BitVector.from_bits(x) for x in pair)
    assert ~(a & b) == (~a | ~b)
    assert ~(a | b) == (~a & ~b)


@given(paired_bits())
def test_commutativity(pair):
    a, b = (BitVector.from_bits(x) for x in pair)
    assert a & b == b & a
    assert a | b == b | a
    assert a ^ b == b ^ a


@given(bit_lists)
def test_involution_and_identities(bits):
    bv = BitVector.from_bits(bits)
    assert ~~bv == bv
    ones = BitVector.ones(len(bv))
    zeros = BitVector.zeros(len(bv))
    assert bv & ones == bv
    assert bv | zeros == bv
    assert bv & zeros == zeros
    assert bv | ones == ones


@given(paired_bits())
def test_count_inclusion_exclusion(pair):
    a, b = (BitVector.from_bits(x) for x in pair)
    assert (a | b).count() + (a & b).count() == a.count() + b.count()


@given(bit_lists)
def test_iter_set_matches_to_bits(bits):
    bv = BitVector.from_bits(bits)
    expected = [i for i, bit in enumerate(bits) if bit]
    assert list(bv.iter_set()) == expected


@given(bit_lists, bit_lists)
def test_concat_preserves_both_halves(first, second):
    a, b = BitVector.from_bits(first), BitVector.from_bits(second)
    merged = a.concat(b)
    assert merged.to_bits() == a.to_bits() + b.to_bits()


@given(paired_bits())
def test_inplace_ops_match_pure_ops(pair):
    a, b = (BitVector.from_bits(x) for x in pair)
    inplace_and = a.copy()
    inplace_and.intersect_update(b)
    assert inplace_and == a & b
    inplace_or = a.copy()
    inplace_or.union_update(b)
    assert inplace_or == a | b

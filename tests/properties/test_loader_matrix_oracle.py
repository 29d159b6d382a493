"""The loader's matrix path stores the vectors the per-vector path did.

Every row group a :class:`ClientAssistedLoader` writes must hold the same
row count and the same ``{id: vector}`` as ``tests/loader_oracle.py``
computes vector by vector from the chunks' ``{id: BitVector}`` dicts —
over chunks lacking some ids (sub-plan clients, required ids), malformed
selected records (kept ≠ selected), widths that are not a multiple of 8,
group boundaries inside a chunk, and seal intervals 1 and 3.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from loader_oracle import load_groups
from repro.bitvec import BitVector
from repro.rawjson import JsonChunk, dump_record
from repro.server.loader import ClientAssistedLoader
from repro.storage import ParquetLiteReader
from repro.storage.jsonstore import JsonSideStore

IDS = (0, 3, 5, 11)
MALFORMED = ('{"id": ', "[1, 2]", "not json")


@st.composite
def loads(draw):
    """Chunks as ``(records, {id: BitVector})`` plus the loader's options."""
    chunks = []
    next_id = 0
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        n = draw(st.sampled_from([1, 5, 7, 8, 13, 64, 100, 333]))
        records = []
        for _ in range(n):
            if draw(st.integers(0, 9)) == 0:
                records.append(draw(st.sampled_from(MALFORMED)))
            else:
                records.append(dump_record({"id": next_id,
                                            "v": next_id % 7}))
            next_id += 1
        ids = draw(st.sampled_from([IDS, IDS, IDS[:2], IDS[1:], ()]))
        density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        rng = draw(st.randoms(use_true_random=False))
        vectors = {pid: BitVector.from_bits(rng.random() < density
                                            for _ in range(n))
                   for pid in ids}
        chunks.append((records, vectors))
    return {
        "chunks": chunks,
        "partial": draw(st.booleans()),
        "required": draw(st.sampled_from([None, IDS, IDS[:1], ()])),
        "seal_every": draw(st.sampled_from([None, 1, 3])),
    }


def stored_groups(tmp_path, chunks, partial, required, seal_every):
    """Load *chunks* through the loader; per part, its row groups as
    ``(row count, {id: vector})``."""
    loader = ClientAssistedLoader(
        tmp_path / "t.pql", JsonSideStore(tmp_path / "t.sideline.jsonl"),
        partial_loading=partial, required_predicate_ids=required,
    )
    for number, (records, vectors) in enumerate(chunks, 1):
        loader.ingest(JsonChunk(number, list(records), dict(vectors)))
        if seal_every is not None and number % seal_every == 0:
            loader.seal_part()
    loader.finalize()
    parts = []
    for path in loader.parquet_paths:
        with ParquetLiteReader(path) as reader:
            parts.append([(group.row_count, dict(group.bitvectors))
                          for group in reader.meta.row_groups])
    return parts


def check(tmp_path, load):
    got = stored_groups(tmp_path, load["chunks"], load["partial"],
                        load["required"], load["seal_every"])
    want = load_groups(load["chunks"], load["partial"], load["required"],
                       load["seal_every"])
    assert got == want


@given(load=loads())
@settings(max_examples=60, deadline=None)
def test_matrix_path_stores_the_per_vector_path_groups(load,
                                                       tmp_path_factory):
    check(tmp_path_factory.mktemp("matrix"), load)


def test_group_boundary_inside_a_chunk(tmp_path):
    # 333-record chunks: the 1,024-row boundary falls inside the fourth
    # chunk, one chunk lacks id 3, and some selected records are
    # malformed, so kept ≠ selected.
    chunks = []
    for c in range(5):
        records = [dump_record({"id": c * 333 + i, "v": i % 7})
                   if i % 41 else "[1, 2]" for i in range(333)]
        ids = (0, 5) if c == 2 else IDS
        vectors = {pid: BitVector.from_bits((i * (pid + 1)) % 3 != 1
                                            for i in range(333))
                   for pid in ids}
        chunks.append((records, vectors))
    load = {"chunks": chunks, "partial": True, "required": None,
            "seal_every": None}
    check(tmp_path, load)
    [[first, _]] = load_groups(chunks, True)
    assert first[0] == 1024

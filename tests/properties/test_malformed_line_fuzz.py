"""Property: malformed yelp lines never break the loader's accounting.

Valid yelp lines are mutated the ways a broken or hostile producer breaks
JSON: truncation, a spliced character, a ``NaN``/``Infinity`` literal, a
lone surrogate escape, nesting past the depth limit, a 5,000-digit
integer.  Chunks of them are ingested through ``ClientAssistedLoader``
under a random load mask.  Then:

* every chunk keeps ``received == loaded + sidelined + malformed``;
* the sideline holds each unloaded line verbatim, malformed ones
  included, in arrival order;
* the loaded rows equal the oracle parse of the accepted lines.

The oracle is the stdlib decoder with the parser's documented rules
applied independently: non-standard constants are malformed, a lone
surrogate becomes U+FFFD, and only objects are records.  The depth and
digit-limit mutations are malformed by construction; a single spliced
character cannot produce either.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitvec import BitVector
from repro.data.yelp import YelpGenerator
from repro.rawjson import JsonChunk
from repro.server import ClientAssistedLoader
from repro.storage import JsonSideStore, ParquetLiteReader

BASE = list(YelpGenerator(5).raw_lines(12))
REPLACEMENT = chr(0xFFFD)

#: Fields spliced in right after a line's opening brace, with the value
#: the loaded row must then carry (``None``: the line is malformed).
INSERTS = [
    ('"_probe": NaN', None),
    ('"_probe": Infinity', None),
    ('"_probe": -Infinity', None),
    ('"_probe": ' + "9" * 5000, None),
    ('"_probe": ' + "[" * 129 + "]" * 129, None),
    ('"_probe": "\\ud800"', REPLACEMENT),
    ('"_probe": "a\\udfffb"', "a" + REPLACEMENT + "b"),
    ('"_probe": "\\ud800\\u0041"', REPLACEMENT + "A"),
]

mutations = st.one_of(
    st.tuples(st.just("keep")),
    st.tuples(st.just("truncate"), st.integers(0, 10_000)),
    st.tuples(st.just("splice"), st.integers(0, 10_000),
              st.characters(max_codepoint=0x2FF,
                            exclude_characters="\n",
                            exclude_categories=("Cs",))),
    st.tuples(st.just("insert"), st.sampled_from(INSERTS)),
)
lines = st.tuples(st.integers(0, len(BASE) - 1), mutations, st.booleans())
chunks = st.lists(st.lists(lines, min_size=1, max_size=8),
                  min_size=1, max_size=4)


def _reject_constant(name):
    raise ValueError(name)


def _replace_lone_surrogates(value):
    if isinstance(value, str):
        return value.encode("utf-16-le", "surrogatepass").decode(
            "utf-16-le", "replace")
    if isinstance(value, dict):
        return {_replace_lone_surrogates(k): _replace_lone_surrogates(v)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_replace_lone_surrogates(item) for item in value]
    return value


def oracle(text):
    """The record *text* must load as, or ``None`` if it is malformed."""
    try:
        value = json.loads(text, parse_constant=_reject_constant)
    except ValueError:
        return None
    return _replace_lone_surrogates(value) if isinstance(value, dict) \
        else None


def mutate(line, mutation):
    """Return ``(mutated line, expected record or None)``."""
    kind = mutation[0]
    if kind == "keep":
        return line, json.loads(line)
    if kind == "truncate":
        # Any proper prefix of an object lacks its closing brace.
        return line[:mutation[1] % len(line)], None
    if kind == "splice":
        at = mutation[1] % (len(line) + 1)
        text = line[:at] + mutation[2] + line[at:]
        return text, oracle(text)
    fragment, probe = mutation[1]
    text = "{" + fragment + "," + line[1:]
    return text, None if probe is None else {"_probe": probe,
                                             **json.loads(line)}


def present(row):
    """A row without the ``None`` columns a wider schema pads it with."""
    return {k: v for k, v in row.items() if v is not None}


@given(chunks)
@settings(max_examples=60, deadline=None)
def test_malformed_lines_are_counted_quarantined_and_never_loaded(spec):
    with tempfile.TemporaryDirectory() as tmp:
        side = JsonSideStore(Path(tmp) / "side.jsonl")
        loader = ClientAssistedLoader(Path(tmp) / "t.pql", side,
                                      partial_loading=True)
        want_rows, want_side = [], []
        for chunk_id, chunk_spec in enumerate(spec):
            texts, expected, bits = [], [], []
            for base, mutation, selected in chunk_spec:
                text, record = mutate(BASE[base], mutation)
                texts.append(text)
                expected.append(record)
                bits.append(selected)
            chunk = JsonChunk(chunk_id, texts)
            chunk.attach(0, BitVector.from_bits(bits))
            report = loader.ingest(chunk)

            malformed = [i for i, sel in enumerate(bits)
                         if sel and expected[i] is None]
            assert report.received == len(texts)
            assert report.received == (
                report.loaded + report.sidelined + report.malformed)
            assert report.malformed == len(malformed)
            assert report.sidelined == bits.count(False)
            want_rows += [present(expected[i]) for i, sel in enumerate(bits)
                          if sel and expected[i] is not None]
            want_side += [(chunk_id, texts[i]) for i, sel in enumerate(bits)
                          if not sel or expected[i] is None]
        loader.finalize()

        assert list(side.iter_raw()) == want_side
        rows = []
        for path in loader.parquet_paths:
            with ParquetLiteReader(path) as reader:
                rows += [present(row) for row in reader.read_all()]
        assert rows == want_rows

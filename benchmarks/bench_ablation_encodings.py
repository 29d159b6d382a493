"""Ablation — storage encodings: size and scan cost.

Parquet-lite picks PLAIN / DICTIONARY / RLE per column heuristically; this
bench forces each encoding over the same dataset and reports file size and
full-scan time, plus what the heuristic chose.  Sizes are of the stored
pages, each zlib-compressed where that makes it smaller.
"""

import time

from conftest import run_once

from repro.bench import emit, emit_json, format_table
from repro.data import make_generator
from repro.storage import (
    Encoding,
    ParquetLiteReader,
    page_encoding,
    write_records,
)


def test_ablation_encodings(benchmark, tmp_path, results_dir):
    gen = make_generator("yelp", 20210223)
    records = list(gen.generate(3000))

    def experiment():
        rows = []
        for label, encoding in [
            ("plain", Encoding.PLAIN),
            ("dictionary", Encoding.DICTIONARY),
            ("rle", Encoding.RLE),
            ("auto", None),
        ]:
            path = tmp_path / f"{label}.pql"
            write_records(path, records, row_group_size=500,
                          encoding=encoding)
            size = path.stat().st_size
            with ParquetLiteReader(path) as reader:
                start = time.perf_counter()
                count = sum(1 for _ in reader.iter_rows())
                scan = time.perf_counter() - start
            assert count == len(records)
            rows.append((label, size / 1024, scan))
        return rows

    rows = run_once(benchmark, experiment)
    table = format_table(
        ["encoding", "file size (KiB)", "full scan (s)"], rows
    )

    # What did the heuristic actually choose per column?
    auto_path = tmp_path / "auto.pql"
    with ParquetLiteReader(auto_path) as reader:
        meta = reader.meta.row_groups[0]
        chosen = []
        reader_file = open(auto_path, "rb")
        for name, chunk in meta.columns.items():
            reader_file.seek(chunk.offset)
            tag = page_encoding(reader_file.read(chunk.length))
            chosen.append((name, tag.value))
        reader_file.close()
    choices = format_table(["column", "chosen encoding"], chosen)
    emit(
        "ablation_encodings",
        f"== Encoding ablation ==\n{table}\n\n"
        f"heuristic choices (first row group):\n{choices}",
        results_dir,
    )
    emit_json("ablation_encodings", {
        "headers": ["encoding", "file size (KiB)", "full scan (s)"],
        "rows": [list(row) for row in rows],
        "heuristic_choices": {name: tag for name, tag in chosen},
    }, results_dir)

    sizes = {label: size for label, size, _ in rows}
    # The heuristic's choice stores within 1 % of the best forced
    # encoding.  (Once pages are compressed, zlib removes the repeats a
    # dictionary would, so dictionary no longer beats plain here.)
    assert sizes["auto"] <= min(sizes.values()) * 1.01

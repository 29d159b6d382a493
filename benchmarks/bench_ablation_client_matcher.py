"""Ablation — raw matching vs full parsing on the client.

CIAO's premise (§IV): evaluating predicates via substring search on the
raw record is far cheaper than parsing it first.  This bench measures the
client-side alternatives head to head:

* raw matcher  — compiled pattern search, no parsing (CIAO);
* parse+eval   — parse with the strict record parser (the C ``json``
                 decoder), then evaluate semantically (what naive
                 client-side parsing would do).
"""

import time

from conftest import run_once

from repro.bench import emit_table
from repro.core import clause, compile_clause, key_value, substring
from repro.data import make_generator
from repro.rawjson import dump_record, parse_object


def test_ablation_client_matcher(benchmark, results_dir):
    records = {
        dataset: [
            dump_record(r)
            for r in make_generator(dataset, 20210223).generate(3000)
        ]
        for dataset in ("winlog", "yelp")
    }
    cases = [
        ("winlog", clause(substring("info", "evt000"))),
        ("winlog", clause(substring("time", "-03-"))),
        # Absent column: the key is never found, a pure miss cost.
        ("winlog", clause(key_value("stars", 5))),
        # Present column: every record runs the key-value window scan.
        ("yelp", clause(key_value("cool", 2))),
    ]

    def experiment():
        rows = []
        for dataset, c in cases:
            matcher = compile_clause(c).matcher()
            start = time.perf_counter()
            raw_hits = sum(1 for raw in records[dataset] if matcher(raw))
            raw_time = time.perf_counter() - start

            start = time.perf_counter()
            parsed_hits = sum(
                1 for raw in records[dataset]
                if c.evaluate(parse_object(raw))
            )
            parse_time = time.perf_counter() - start
            rows.append(
                (
                    dataset,
                    c.sql(),
                    raw_time * 1e6 / len(records[dataset]),
                    parse_time * 1e6 / len(records[dataset]),
                    parse_time / raw_time,
                    raw_hits,
                    parsed_hits,
                )
            )
        return rows

    rows = run_once(benchmark, experiment)
    emit_table(
        "ablation_client_matcher",
        ["dataset", "clause", "raw µs/rec", "parse+eval µs/rec", "speedup",
         "raw hits", "semantic hits"],
        rows, results_dir, title="Client matcher ablation",
    )

    for _, _, _, _, speedup, raw_hits, parsed_hits in rows:
        # Raw matching is at least an order of magnitude cheaper...
        assert speedup > 10
        # ...and never misses a semantic match (false positives only).
        assert raw_hits >= parsed_hits

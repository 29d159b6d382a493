"""Unit tests for the raw-JSON sideline store."""

import pytest

from repro.rawjson import dump_record
from repro.storage import JsonSideStore


@pytest.fixture()
def store(tmp_path):
    return JsonSideStore(tmp_path / "side.jsonl")


LINES = [dump_record({"i": i, "s": f"v{i}"}) for i in range(6)]


class TestAppendAndIterate:
    def test_append_counts(self, store):
        assert store.append(0, LINES[:4]) == 4
        assert store.append(1, LINES[4:]) == 2
        assert store.record_count == 6

    def test_iter_raw_preserves_chunk_ids_and_order(self, store):
        store.append(3, LINES[:2])
        store.append(9, LINES[2:3])
        got = list(store.iter_raw())
        assert got == [(3, LINES[0]), (3, LINES[1]), (9, LINES[2])]

    def test_iter_parsed(self, store):
        store.append(0, LINES)
        parsed = list(store.iter_parsed())
        assert parsed[2] == {"i": 2, "s": "v2"}

    def test_multiline_records_rejected(self, store):
        with pytest.raises(ValueError):
            store.append(0, ['{"a":\n1}'])


class TestMalformedHandling:
    def test_malformed_lines_skipped_in_iteration(self, store):
        # A malformed line and a non-object line are both skipped.
        store.append(0, [LINES[0], "{broken", "[1]", LINES[1]])
        assert list(store.iter_parsed()) == [{"i": 0, "s": "v0"},
                                             {"i": 1, "s": "v1"}]
        assert store.record_count == 4

    def test_scan_with_errors_counts(self, store):
        # Skipped lines still count as stored records: the error count of
        # a scan is the stored records minus the parsed ones.
        store.append(0, [LINES[0], "{broken", "[1]", LINES[1]])
        records = list(store.iter_parsed())
        errors = store.record_count - len(records)
        assert len(records) == 2
        assert errors == 2  # malformed + non-object


class TestPersistence:
    def test_counts_recovered_on_reopen(self, tmp_path):
        path = tmp_path / "side.jsonl"
        store = JsonSideStore(path)
        store.append(0, LINES)
        reopened = JsonSideStore(path)
        assert reopened.record_count == 6
        assert list(reopened.iter_parsed()) == list(store.iter_parsed())

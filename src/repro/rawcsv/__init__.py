"""Raw-CSV substrate: CIAO's no-parse matching applied to CSV records.

The paper notes its solution "can also be applied to other text-based data
formats, like CSV" (§IV-A); this package makes that concrete: an RFC
4180-style codec plus pattern matchers that evaluate the supported
predicates on serialized CSV lines without parsing them, under the same
one-sided-error contract as the JSON matchers.
"""

from .. import _lazy

__all__ = [
    "CompiledCsvClause",
    "CsvCodec",
    "CsvDialect",
    "CsvError",
    "CsvUnsupportedError",
    "compile_csv_clause",
    "compile_csv_predicate",
    "escape_field",
    "parse_line",
    "parse_line_details",
    "write_row",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".codec": (
        "CsvCodec", "CsvDialect", "CsvError", "escape_field", "parse_line",
        "parse_line_details", "write_row"),
    ".matcher": (
        "CompiledCsvClause", "CsvUnsupportedError", "compile_csv_clause",
        "compile_csv_predicate"),
})

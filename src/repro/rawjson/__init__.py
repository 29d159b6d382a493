"""Raw-JSON substrate: the strict record parser (the C ``json`` decoder
behind one front door), the writer (the C ``json`` encoder behind another,
whose escaping the pushed-down patterns are built from), and the no-parse
matchers and chunking that CIAO's client side is built on."""

from .. import _lazy

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "JsonChunk",
    "JsonError",
    "JsonSyntaxError",
    "chunk_records",
    "concat_chunks",
    "contains",
    "dump_record",
    "dumps",
    "escape_string",
    "key_present",
    "key_value_match",
    "loads",
    "parse_object",
    "try_parse",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".chunks": (
        "DEFAULT_CHUNK_SIZE", "JsonChunk", "chunk_records", "concat_chunks"),
    ".errors": ("JsonError", "JsonSyntaxError"),
    ".parser": ("loads", "parse_object", "try_parse"),
    ".raw_matcher": ("contains", "key_present", "key_value_match"),
    ".writer": ("dump_record", "dumps", "escape_string"),
})

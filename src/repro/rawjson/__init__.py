"""Raw-JSON substrate: the strict record parser (the C ``json`` decoder
behind one front door), the writer (the C ``json`` encoder behind another,
whose escaping the pushed-down patterns are built from), and the no-parse
matchers and chunking that CIAO's client side is built on."""

from .chunks import DEFAULT_CHUNK_SIZE, JsonChunk, chunk_records, concat_chunks
from .errors import JsonError, JsonSyntaxError
from .parser import loads, parse_object, try_parse
from .raw_matcher import contains, key_present, key_value_match
from .writer import dump_record, dumps, escape_string

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

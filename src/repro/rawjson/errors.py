"""Error types shared by the raw-JSON substrate."""

from __future__ import annotations


class JsonError(ValueError):
    """Base class for raw-JSON failures.

    Carries the character offset where the problem was detected so
    server-side loaders can report which record of a chunk was malformed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class JsonSyntaxError(JsonError):
    """Malformed JSON: anything the strict record parser rejects."""

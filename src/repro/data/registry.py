"""The dataset generators by the names used throughout benches and docs."""

from __future__ import annotations

from .base import DatasetGenerator
from .randomness import DEFAULT_SEED
from .winlog import WinLogGenerator
from .ycsb import YcsbGenerator
from .yelp import YelpGenerator

GENERATORS = {
    "yelp": YelpGenerator,
    "winlog": WinLogGenerator,
    "ycsb": YcsbGenerator,
}


def make_generator(name: str, seed: int = DEFAULT_SEED) -> DatasetGenerator:
    """Instantiate a dataset generator by name ('yelp'/'winlog'/'ycsb')."""
    try:
        cls = GENERATORS[name]
    except KeyError:
        known = ", ".join(sorted(GENERATORS))
        raise KeyError(f"unknown dataset {name!r}; known: {known}") from None
    return cls(seed)

"""Synthetic dataset generators substituting the paper's three datasets."""

from .. import _lazy

__all__ = [
    "DEFAULT_SEED",
    "DatasetGenerator",
    "GENERATORS",
    "SeedSequence",
    "WeightedSampler",
    "WinLogGenerator",
    "YcsbGenerator",
    "YelpGenerator",
    "ZipfSampler",
    "derive_seed",
    "make_generator",
    "rng_stream",
    "zipf_choice",
    "zipf_weights",
]

__getattr__, __dir__ = _lazy.lazy_exports(__name__, {
    ".base": ("DatasetGenerator",),
    ".randomness": (
        "DEFAULT_SEED", "SeedSequence", "derive_seed", "rng_stream"),
    ".registry": ("GENERATORS", "make_generator"),
    ".winlog": ("WinLogGenerator",),
    ".ycsb": ("YcsbGenerator",),
    ".yelp": ("YelpGenerator",),
    ".zipf": ("WeightedSampler", "ZipfSampler", "zipf_choice", "zipf_weights"),
})

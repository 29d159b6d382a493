"""Deterministic random-number streams for reproducible experiments.

Every experiment in this repository must be exactly reproducible, so nothing
may touch the global ``random`` state.  Components instead derive independent
:class:`random.Random` streams from a root seed and a purpose string; two
streams with different names never share state, and re-running with the same
root seed replays the identical dataset, workload, and noise.
"""

from __future__ import annotations

import random
from typing import Iterator

DEFAULT_SEED = 20210223  # the paper's arXiv submission date


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from *root_seed* and a purpose *name*."""
    import hashlib  # deferred: a served process reads only DEFAULT_SEED

    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def rng_stream(root_seed: int, name: str) -> random.Random:
    """An independent :class:`random.Random` for the given purpose."""
    return random.Random(derive_seed(root_seed, name))


class SeedSequence:
    """Hand out child seeds/streams under a common root.

    >>> seq = SeedSequence(7)
    >>> seq.stream("dataset").random() == seq.stream("dataset").random()
    True
    >>> seq.stream("a").random() == seq.stream("b").random()
    False
    """

    def __init__(self, root_seed: int = DEFAULT_SEED):
        self.root_seed = root_seed

    def seed(self, name: str) -> int:
        """Child seed for *name*."""
        return derive_seed(self.root_seed, name)

    def stream(self, name: str) -> random.Random:
        """Fresh RNG for *name* (same name ⇒ identical stream)."""
        return rng_stream(self.root_seed, name)

    def substreams(self, name: str, count: int) -> Iterator[random.Random]:
        """*count* independent streams under a common sub-name."""
        for i in range(count):
            yield self.stream(f"{name}[{i}]")

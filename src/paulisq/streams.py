"""Named, reproducible random substreams derived from one root seed.

Every randomized component takes its generator from ``substream(seed, ...)``
with a stable label path, so results do not depend on evaluation order or
worker count.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_word(label) -> int:
    digest = hashlib.blake2b(repr(label).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def substream(seed: int, *labels) -> np.random.Generator:
    """A generator keyed by (seed, labels); identical inputs give identical
    streams.  Components that take a seed refuse a negative one when built
    (see check_seed)."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF] + [_label_word(lab) for lab in labels]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def check_seed(seed: int, what: str) -> None:
    """Refuse a negative seed: substream keeps a seed's low 64 bits, so -1
    would run the stream of 2^64 - 1."""
    if seed < 0:
        raise ValueError(f"{what} must be non-negative, got {seed}")

"""Deterministic, counter-indexed random stream derivation.

Every Monte Carlo draw in the package is addressed by a path of integer
indices under one root seed, e.g. ``(seed, instance, purpose)``.  Equal
paths yield bit-identical streams regardless of evaluation order or
degree of parallelism, which is what makes certification runs replayable.

The stream of ``(seed, *path)`` is ``Philox(SeedSequence(entropy))``, the
entropy being one ``uint32`` array: each index's 32-bit words, least
significant first and at least one (``0`` is ``[0]``), in path order.
That is exactly the array numpy's ``SeedSequence`` coerces the tuple
``(seed, *path)`` into, so every stream is that of
``SeedSequence((seed, *path))``, a negative index raises ``ValueError``
as there, and building the array here skips numpy's per-index coercion.
An index is an integer, numpy's too (``operator.index``): any other
value, a float included, raises ``TypeError``.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

_MASK32 = 0xFFFFFFFF


def derive_generator(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for the stream addressed by ``(seed, *path)``."""
    words = []
    for index in (seed, *path):
        index = operator.index(index)
        if index < 0:
            raise ValueError(f"stream indices must be non-negative, got {index}")
        words.append(index & _MASK32)
        while index := index >> 32:
            words.append(index & _MASK32)
    ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class RandomStream:
    """A node in the seed tree; ``child(i, j)`` addresses a sub-stream."""

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *indices: int) -> "RandomStream":
        return RandomStream(self.seed, self.path + tuple(map(operator.index, indices)))

    def generator(self) -> np.random.Generator:
        return derive_generator(self.seed, *self.path)


def as_stream(stream: RandomStream | int) -> RandomStream:
    """``stream`` itself, or the root stream of an integer seed (numpy's too)."""
    return RandomStream(int(stream)) if isinstance(stream, numbers.Integral) else stream


def text_fingerprint(text: str) -> int:
    """Stable 63-bit fingerprint of a text, usable as a stream index.

    Lets a sampled predictor key its randomness on the query itself, so
    re-querying the same text always reproduces the same prediction.
    """
    # imported here: at module level, hashlib (which loads OpenSSL) would add
    # about 5 ms to the start of every process that imports delcert, to save
    # 0.3 microseconds a call
    import hashlib

    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1

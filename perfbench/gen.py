"""Seeded two-class text generator for the benchmark's inputs.

Each text mixes tokens from its own class pool, a few from the other
class's pool and shared fillers; a few percent of labels are flipped so
that some instances are misclassified or abstain.  The same seed and
purpose always give the same stream of texts.
"""

from __future__ import annotations

import numpy as np

CLASS_POOL = 40
FILLER_POOL = 120
OWN_SHARE = 0.30
OTHER_SHARE = 0.08
FLIP_SHARE = 0.03

# stream purposes, so that training and evaluation texts never coincide
TRAIN = 0
EVAL = 1
# the seed of every training corpus and of the training noise: each
# workload trains the same model whatever the run's seed, so that runs
# with different seeds differ only in the instances
TRAIN_SEED = 0


# lengths are drawn stratified in blocks of this many texts
LENGTH_BLOCK = 20


class Corpus:
    """Stream of ``(text, label)`` pairs.

    ``lengths`` is a list of ``(weight, lo, hi)`` token-count ranges
    (inclusive): the length distribution mixes uniform ranges by weight.
    Lengths are sampled stratified, one quantile stratum per text in each
    block of :data:`LENGTH_BLOCK` texts, shuffled within the block, so
    that every run of a few hundred texts has the same length profile
    while the texts themselves still depend on the seed.  ``own_share``
    is the share of tokens drawn from the text's own class pool.
    """

    def __init__(
        self, seed: int, purpose: int, lengths: list[tuple[float, int, int]],
        own_share: float = OWN_SHARE,
    ):
        self._rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, purpose])))
        self._own = own_share
        weights = np.array([w for w, _, _ in lengths], dtype=np.float64)
        self._cum = np.cumsum(weights / weights.sum())
        self._ranges = [(lo, hi) for _, lo, hi in lengths]
        self._block: list[int] = []

    def _length(self) -> int:
        if not self._block:
            rng = self._rng
            u = (np.arange(LENGTH_BLOCK) + rng.random(LENGTH_BLOCK)) / LENGTH_BLOCK
            self._block = [self._quantile(v) for v in rng.permutation(u)]
        return self._block.pop()

    def _quantile(self, u: float) -> int:
        k = min(int(np.searchsorted(self._cum, u, side="right")), len(self._ranges) - 1)
        below = self._cum[k - 1] if k else 0.0
        lo, hi = self._ranges[k]
        pos = (u - below) / (self._cum[k] - below)
        return min(hi, lo + int(pos * (hi - lo + 1)))

    def draw(self) -> tuple[str, int]:
        rng = self._rng
        n = self._length()
        label = int(rng.integers(2))
        kind = rng.random(n)
        pick = rng.integers(0, FILLER_POOL, size=n)
        tokens = []
        for u, j in zip(kind, pick):
            if u < self._own:
                tokens.append(f"c{label}w{j % CLASS_POOL}")
            elif u < self._own + OTHER_SHARE:
                tokens.append(f"c{1 - label}w{j % CLASS_POOL}")
            else:
                tokens.append(f"f{j}")
        if rng.random() < FLIP_SHARE:
            label = 1 - label
        return " ".join(tokens), label

    def take(self, count: int) -> list[tuple[str, int]]:
        return [self.draw() for _ in range(count)]


def training_texts(
    lengths: list[tuple[float, int, int]], count: int, own_share: float = OWN_SHARE
) -> list[tuple[str, int]]:
    """The fixed training corpus of a workload."""
    return Corpus(TRAIN_SEED, TRAIN, lengths, own_share).take(count)

"""Shared test doubles and synthetic data generators."""

from __future__ import annotations

import itertools
import sys
import time
from pathlib import Path

import pytest

from delcert import LabeledDataset, Scheme, TokenSeq
from delcert.rng import RandomStream

DOUBLES_DIR = Path(__file__).parent / "doubles"


class KeywordClassifier:
    """Deterministic rule: class 1 iff the marker token is present."""

    num_classes = 2

    def __init__(self, marker: str = "a"):
        self.marker = marker

    def classify_batch(self, texts):
        return [1 if self.marker in t.split() else 0 for t in texts]


class ConstantClassifier:
    def __init__(self, label: int = 0, num_classes: int = 2):
        self.label = label
        self.num_classes = num_classes

    def classify_batch(self, texts):
        return [self.label] * len(texts)


class ParityClassifier:
    """Label is the parity of the token count: at p_del 0.5 the two classes
    split the deletion mass of any non-empty input exactly in half."""

    num_classes = 2

    def classify_batch(self, texts):
        return [len(t.split()) % 2 for t in texts]


class CountingClassifier:
    """Wraps a classifier, hiding its type so that certification takes the
    text path, and asserts that no text reaches ``classify_batch`` twice
    between calls to :meth:`reset`."""

    def __init__(self, inner):
        self.inner = inner
        self.num_classes = inner.num_classes
        self.seen: set[str] = set()

    def reset(self) -> None:
        self.seen = set()

    def classify_batch(self, texts):
        batch = set(texts)
        assert len(batch) == len(texts), "a text repeats within one batch"
        assert not batch & self.seen, "a text was classified again"
        self.seen |= batch
        return self.inner.classify_batch(texts)


class SleepyClassifier:
    """Deterministic classifier that dawdles on every text; used to force timeouts."""

    num_classes = 2

    def __init__(self, inner, delay: float):
        self.inner = inner
        self.delay = delay

    def classify_batch(self, texts):
        time.sleep(self.delay * len(texts))
        return self.inner.classify_batch(texts)


def token_universe(alphabet, max_len):
    """All token tuples over ``alphabet`` up to ``max_len``."""
    out = []
    for n in range(max_len + 1):
        out.extend(itertools.product(alphabet, repeat=n))
    return out


def seqs(alphabet, max_len):
    return [TokenSeq(t, Scheme.WHITESPACE) for t in token_universe(alphabet, max_len)]


def marker_presence_dataset(n_items: int, seed: int, n_fillers: int = 10) -> LabeledDataset:
    """Class 1 iff the text contains the marker token ``good``."""
    rng = RandomStream(seed).child(1).generator()
    fillers = [f"film{j}" for j in range(n_fillers)]
    pairs = []
    for i in range(n_items):
        label = i % 2
        toks = [fillers[rng.integers(n_fillers)] for _ in range(10)]
        if label == 1:
            toks.insert(int(rng.integers(len(toks) + 1)), "good")
        pairs.append((" ".join(toks), label))
    return LabeledDataset.from_pairs(pairs, 2)


def band_dataset(n_items: int, seed: int, own: int = 32, oth: int = 4, fill: int = 8) -> LabeledDataset:
    """Two-class dataset tuned so certified margins cluster just above 0.9.

    Each text carries ``own`` tokens from its class pool, ``oth`` tokens
    from the opposite pool and ``fill`` shared fillers.
    """
    pool = 12
    fillpool = 10
    rng = RandomStream(seed).child(99).generator()
    pairs = []
    for i in range(n_items):
        label = i % 2
        own_pool = [f"c{label}tok{j}" for j in range(pool)]
        oth_pool = [f"c{1 - label}tok{j}" for j in range(pool)]
        fill_pool = [f"fill{j}" for j in range(fillpool)]
        toks = (
            [own_pool[rng.integers(pool)] for _ in range(own)]
            + [oth_pool[rng.integers(pool)] for _ in range(oth)]
            + [fill_pool[rng.integers(fillpool)] for _ in range(fill)]
        )
        perm = rng.permutation(len(toks))
        pairs.append((" ".join(toks[p] for p in perm), label))
    return LabeledDataset.from_pairs(pairs, 2)


@pytest.fixture
def keyword_classifier():
    return KeywordClassifier()


@pytest.fixture
def worker_cmd():
    """Command prefix for the line-protocol test double."""

    def build(mode: str) -> list[str]:
        return [sys.executable, str(DOUBLES_DIR / "protocol_worker.py"), mode]

    return build

"""Smoothing noise sources: random token deletion and the masking baseline.

:func:`deletion_keep_matrix` is the one deletion sampler: certification,
smoothed prediction and training all draw their deletion patterns from
it, and :func:`pattern_probability` is their mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .tokenization import TokenSeq

DEFAULT_MASK_TOKEN = "[MASK]"


class MechanismKind(str, Enum):
    DELETION = "deletion"
    MASKING = "masking"


@dataclass(frozen=True)
class MechanismParams:
    kind: MechanismKind
    rate: float
    mask_token: str = DEFAULT_MASK_TOKEN

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {self.rate}")


def deletion_keep_matrix(
    n_samples: int, n: int, p_del: float, rng: np.random.Generator
) -> np.ndarray:
    """The deletion sampler: row ``i`` is the keep-mask of draw ``i``.

    Each token is deleted independently with probability ``p_del``.  The
    rows consume ``rng`` in order, so draw ``i`` equals the ``i``-th of
    ``n_samples`` successive ``rng.random(n) >= p_del`` draws.
    """
    return ~(rng.random((n_samples, n)) < p_del)


def pattern_probability(deleted: Sequence[int], p_del: float | Fraction) -> float | Fraction:
    """Bernoulli product mass of a pattern of 0/1 deletion indicators; it
    sums to one over all 2^n patterns, exactly when ``p_del`` is a Fraction."""
    k = sum(deleted)
    return p_del**k * (1 - p_del) ** (len(deleted) - k)


def sample_masking(
    x: TokenSeq,
    p_mask: float,
    mask_token: str = DEFAULT_MASK_TOKEN,
    rng: np.random.Generator | None = None,
) -> TokenSeq:
    """Replace a uniformly random subset of exactly round(p_mask * n)
    positions by ``mask_token``; the length is preserved.
    """
    if rng is None:
        raise ValueError("rng is required")
    if not 0.0 <= p_mask <= 1.0:
        raise ValueError(f"p_mask must lie in [0, 1], got {p_mask}")
    n = len(x)
    k = int(p_mask * n + 0.5)  # round half up, deterministically
    if k == 0:
        return x
    positions = set(rng.choice(n, size=k, replace=False).tolist())
    tokens = tuple(mask_token if i in positions else tok for i, tok in enumerate(x.tokens))
    return x.replace_tokens(tokens)


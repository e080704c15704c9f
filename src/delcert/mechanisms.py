"""Smoothing noise sources: random token deletion and the masking baseline.

Certification, smoothed prediction and training draw both as a boolean
keep matrix, a row per draw and a column per token, whose cleared cells
are deleted or shown as the scheme's ``mask_token``.
:func:`deletion_keep_matrix` reads raw words from ``rng.bit_generator``,
deleting each cell independently, so a row's deletion pattern has the
Bernoulli product mass; :func:`masking_keep_matrix` makes one
``rng.choice`` call per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

_TWO_53 = 1 << 53
#: bits of a 53-bit deletion uniform below its top byte
_LO_BITS = 45
_LO_MASK = (1 << _LO_BITS) - 1
#: ``random_raw`` words as little-endian, so byte ``b`` is the same on any host
_RAW_WORD = np.dtype("<u8")
#: cells whose top bytes are drawn at once, a multiple of 8 (whole words): a
#: 1,000- and a 4,000-draw matrix of 200 tokens at p_del 0.99 took 0.85 ms in
#: blocks of 2**17, 0.87 at 2**16, 1.47 in one (2 vCPUs); at 40 and 120 tokens
#: every size from 2**16 up was within 10% of one block
_BLOCK_CELLS = 1 << 17


class MechanismKind(str, Enum):
    DELETION = "deletion"
    MASKING = "masking"


@dataclass(frozen=True)
class MechanismParams:
    """A mechanism and its rate; ``kind`` may be given by its value
    (``"deletion"``), which becomes the :class:`MechanismKind`."""

    kind: MechanismKind
    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", MechanismKind(self.kind))
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must lie in [0, 1], got {self.rate}")


def deletion_keep_matrix(
    n_samples: int, n: int, p_del: float, rng: np.random.Generator
) -> np.ndarray:
    """The deletion sampler: row ``i`` is the keep-mask of draw ``i``.

    Each token is deleted independently with probability exactly
    ``T / 2**53``, ``T = ceil(p_del * 2**53)``: the law of deleting a
    cell iff a 53-bit uniform ``U`` is below ``T``, which is what
    ``rng.random() < p_del`` decides.  ``U`` is split into a top byte and
    a low 45-bit part, drawn separately from ``rng.bit_generator``:

    * the top bytes come eight cells per ``random_raw`` word, byte ``b``
      (little-endian, whatever the host) of word ``k`` for cell
      ``8k + b`` in row-major order, and decide every cell whose byte
      differs from the top byte of ``T``;
    * a tied cell (1 in 256) takes the top 45 bits of one further word,
      in row-major order, and is deleted iff they are below ``T``'s low
      45 bits.

    So a call consumes ``ceil(n_samples * n / 8)`` words plus one per
    tie.  At ``p_del`` 0 or 1 every cell is decided and nothing is drawn.
    The top bytes are drawn ``_BLOCK_CELLS`` (131,072) cells at a time and
    the ties' words after the last block, so a call holds the matrix (one
    byte per cell) and one block's words and comparisons.
    """
    t = math.ceil(p_del * _TWO_53)  # exact: scaling by 2**53 rounds nothing
    if t <= 0:
        return np.ones((n_samples, n), dtype=bool)
    if t >= _TWO_53:
        return np.zeros((n_samples, n), dtype=bool)
    t_hi = t >> _LO_BITS
    cells = n_samples * n
    bits = rng.bit_generator
    if cells <= _BLOCK_CELLS:
        hi = bits.random_raw(-(-cells // 8)).astype(_RAW_WORD, copy=False).view(np.uint8)[:cells]
        keep, ties = hi > t_hi, (hi == t_hi).nonzero()[0]
    else:
        keep, tied = np.empty(cells, dtype=bool), []
        for lo in range(0, cells, _BLOCK_CELLS):
            k = min(cells - lo, _BLOCK_CELLS)
            hi = bits.random_raw(-(-k // 8)).astype(_RAW_WORD, copy=False).view(np.uint8)[:k]
            np.greater(hi, t_hi, out=keep[lo : lo + k])
            tied.append((hi == t_hi).nonzero()[0] + lo)
        ties = np.concatenate(tied)
    if ties.size:
        # lo >= t_lo  <=>  word >= t_lo << 19, with lo the word's top 45 bits
        keep[ties] = bits.random_raw(ties.size) >= (t & _LO_MASK) << (64 - _LO_BITS)
    return keep.reshape(n_samples, n)


def masking_keep_matrix(
    n_samples: int, n: int, p_mask: float, rng: np.random.Generator
) -> np.ndarray:
    """The masking sampler: row ``i`` masks the ``k = round(p_mask * n)``
    cells (half up) of the ``i``-th ``rng.choice(n, size=k, replace=False)``
    call; with ``k`` 0 nothing is drawn."""
    if not 0.0 <= p_mask <= 1.0:
        raise ValueError(f"p_mask must lie in [0, 1], got {p_mask}")
    keep = np.ones((n_samples, n), dtype=bool)
    k = int(p_mask * n + 0.5)  # round half up, deterministically
    if k:
        for row in keep:
            row[rng.choice(n, size=k, replace=False)] = False
    return keep


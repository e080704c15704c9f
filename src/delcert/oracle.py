"""Brute-force ground truth: exact smoothed scores by full pattern
enumeration, LCS alignment witnesses, and exhaustive certificate checks.

Everything here is deliberately exponential and guarded to desk scale.
The oracle exists to validate formulas, not to certify real inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Sequence

import numpy as np

from .classifier import BaseClassifier, classify_texts
from .edit_metrics import EditOpsSet, FULL_OPS, enumerate_ball
from .errors import GuardError, SchemeMismatchError
from .tokenization import TokenSeq

_ENUM_MAX_TOKENS = 18
#: most (sequence, deletion pattern) rows gathered at once while scoring
_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class ExactScores:
    """Exact per-class smoothed scores for one input."""

    probs: tuple
    n: int

    @property
    def argmax(self) -> int:
        return max(range(len(self.probs)), key=self.probs.__getitem__)

    def runner_up(self) -> int:
        top = self.argmax
        return max((c for c in range(len(self.probs)) if c != top), key=self.probs.__getitem__)


@dataclass(frozen=True)
class AlignmentWitness:
    """Deletion patterns (0/1 indicators, 1 = delete) reducing both
    sequences to a common LCS."""

    eps_star_src: tuple[int, ...]
    eps_star_dst: tuple[int, ...]
    common: TokenSeq


@functools.lru_cache(maxsize=None)
def _keep_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather table and deletion count of every deletion pattern on ``n`` tokens.

    Pattern ``mask`` deletes token ``i`` when bit ``i`` is set.  Its row
    lists the 1-based positions of the kept tokens, then zeros: gathered
    from an id row with a zero in front, it gives the kept subsequence,
    zero-padded to at least 8 ids so that a row of byte ids is one key.
    """
    deleted = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    n_deleted = deleted.sum(axis=1)
    table = np.zeros((1 << n, max(n, 8)), dtype=np.uint8)
    kept_first = np.argsort(deleted, axis=1, kind="stable") + 1
    table[:, :n] = np.where(np.arange(n) < n - n_deleted[:, None], kept_first, 0)
    table.flags.writeable = n_deleted.flags.writeable = False
    return table, n_deleted


def _smoothed_scores(
    model: BaseClassifier, seqs: Sequence[TokenSeq], p_del: float, exact: bool
) -> list[ExactScores]:
    """Exact smoothed scores of each sequence, in input order.

    Sequences of one length are scored together: every kept subsequence
    of every sequence becomes a row of byte token ids (the enumeration
    guards keep the distinct tokens well under 256), each distinct text
    is classified once per call, and patterns are counted per
    ``(tokens deleted, class)``.  With ``Fraction(p_del) == M / e``, a
    pattern deleting ``k`` of ``n`` tokens has mass
    ``M^k (e - M)^(n - k) / e^n``, so each probability is one ratio of
    integers: a ``Fraction`` when ``exact``, else the nearest float.
    """
    p = Fraction(p_del)
    m, e = p.numerator, p.denominator
    classes = model.num_classes
    vocab = dict.fromkeys(chain.from_iterable(s.tokens for s in seqs))
    names = np.array(["", *vocab], dtype=object)
    token_id = {tok: i for i, tok in enumerate(names)}
    sep = seqs[0].scheme.separator
    label_of: dict[str, int] = {}
    scores_of: dict[tuple, ExactScores] = {}  # by counts, which many sequences share
    by_length: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        by_length.setdefault(len(s), []).append(i)
    out: list = [None] * len(seqs)
    for n, idx in by_length.items():
        table, n_deleted = _keep_table(n)
        weights, den = [m**k * (e - m) ** (n - k) for k in range(n + 1)], e**n
        ids = np.zeros((len(idx), n + 1), dtype=np.uint8)
        flat = map(token_id.__getitem__, chain.from_iterable(seqs[i].tokens for i in idx))
        ids[:, 1:] = np.fromiter(flat, dtype=np.uint8, count=len(idx) * n).reshape(len(idx), n)
        step = max(1, _BLOCK_ROWS >> n)
        for start in range(0, len(idx), step):
            block = ids[start : start + step]
            rows = block[:, table].reshape(-1, table.shape[1])
            keys = rows.view(np.uint64 if rows.shape[1] == 8 else f"V{rows.shape[1]}").ravel()
            distinct, inverse = np.unique(keys, return_inverse=True)
            rows = distinct.view(np.uint8).reshape(len(distinct), -1)
            kept = np.count_nonzero(rows, axis=1).tolist()
            texts = [sep.join(r[:k]) for r, k in zip(names[rows].tolist(), kept)]
            new = [t for t in texts if t not in label_of]
            label_of.update(zip(new, classify_texts(model, new).tolist()))
            labels = np.array([label_of[t] for t in texts])[inverse].reshape(len(block), -1)
            cell = (np.arange(len(block))[:, None] * (n + 1) + n_deleted) * classes + labels
            counts = np.bincount(cell.ravel(), minlength=len(block) * (n + 1) * classes)
            for i, row in zip(idx[start:], map(tuple, counts.reshape(len(block), -1).tolist())):
                if row not in scores_of:
                    nums = [sum(map(mul, row[c::classes], weights)) for c in range(classes)]
                    probs = tuple(Fraction(v, den) if exact else v / den for v in nums)
                    scores_of[row] = ExactScores(probs, n)
                out[i] = scores_of[row]
    return out


def exact_smoothed_scores(
    model: BaseClassifier, x: TokenSeq, p_del: float, method: str = "float"
) -> ExactScores:
    """Exact smoothed scores by summing the full Bernoulli pattern mass.

    ``method="fraction"`` returns the exact rationals; ``method="float"``
    rounds each of them to the nearest double.
    """
    n = len(x)
    if n > _ENUM_MAX_TOKENS:
        raise GuardError(f"{n} tokens exceeds the 2^n enumeration guard ({_ENUM_MAX_TOKENS})")
    if method not in ("fraction", "float"):
        raise ValueError(f"unknown method {method!r}")
    return _smoothed_scores(model, [x], p_del, exact=method == "fraction")[0]


def alignment_witness(a: TokenSeq, b: TokenSeq) -> AlignmentWitness:
    """Deletion patterns taking ``a`` and ``b`` down to a common LCS.

    The flagged positions on each side are exactly the tokens a minimal
    LCS-anchored edit script deletes or substitutes (source side) and
    inserts or substitutes (destination side).
    """
    if a.scheme != b.scheme:
        raise SchemeMismatchError("alignment requires a shared scheme")
    n, m = len(a), len(b)
    dp = np.zeros((n + 1, m + 1), dtype=np.int64)
    for i in range(1, n + 1):
        ai = a.tokens[i - 1]
        for j in range(1, m + 1):
            if ai == b.tokens[j - 1]:
                dp[i, j] = dp[i - 1, j - 1] + 1
            else:
                dp[i, j] = max(dp[i - 1, j], dp[i, j - 1])
    del_a = [1] * n
    del_b = [1] * m
    common: list[str] = []
    i, j = n, m
    while i > 0 and j > 0:
        if a.tokens[i - 1] == b.tokens[j - 1] and dp[i, j] == dp[i - 1, j - 1] + 1:
            del_a[i - 1] = 0
            del_b[j - 1] = 0
            common.append(a.tokens[i - 1])
            i -= 1
            j -= 1
        elif dp[i - 1, j] >= dp[i, j - 1]:
            i -= 1
        else:
            j -= 1
    common.reverse()
    return AlignmentWitness(
        eps_star_src=tuple(del_a),
        eps_star_dst=tuple(del_b),
        common=TokenSeq(tuple(common), a.scheme),
    )


def verify_certificate(
    model: BaseClassifier,
    x: TokenSeq,
    radius: int,
    ops: EditOpsSet = FULL_OPS,
    alphabet=(),
    p_del: float = 0.9,
) -> list[TokenSeq]:
    """Recompute the exact smoothed argmax at every ball member.

    ``x`` and its ball are scored in one batched pass (the scores of
    :func:`exact_smoothed_scores`), so that a text shared by several
    sequences is classified once.  Returns the members whose prediction
    differs from the one at ``x``; an empty list means the claimed
    radius survived brute force.
    """
    members = sorted(
        (m for m in enumerate_ball(x, radius, ops, alphabet) if m.tokens != x.tokens),
        key=lambda s: s.tokens,
    )
    at_x, *scores = _smoothed_scores(model, [x, *members], p_del, exact=False)
    return [m for m, s in zip(members, scores) if s.argmax != at_x.argmax]

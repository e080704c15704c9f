"""Brute-force ground truth: exact smoothed scores by full pattern
enumeration, LCS alignment witnesses, and exhaustive certificate checks.

Everything here is deliberately exponential and guarded to desk scale.
The oracle exists to validate formulas, not to certify real inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classifier import BaseClassifier, classify_texts
from .edit_metrics import EditOpsSet, FULL_OPS, enumerate_ball
from .errors import GuardError, SchemeMismatchError
from .mechanisms import DeletionPattern
from .tokenization import TokenSeq

_ENUM_MAX_TOKENS = 18
_EXACT_MAX_TOKENS = 12


@dataclass(frozen=True)
class ExactScores:
    """Exact per-class smoothed scores for one input."""

    probs: tuple
    n: int

    @property
    def argmax(self) -> int:
        best = 0
        for c in range(1, len(self.probs)):
            if self.probs[c] > self.probs[best]:
                best = c
        return best

    def runner_up(self) -> int:
        top = self.argmax
        rest = [c for c in range(len(self.probs)) if c != top]
        best = rest[0]
        for c in rest[1:]:
            if self.probs[c] > self.probs[best]:
                best = c
        return best


@dataclass(frozen=True)
class AlignmentWitness:
    """Deletion patterns reducing both sequences to a common LCS."""

    eps_star_src: DeletionPattern
    eps_star_dst: DeletionPattern
    common: TokenSeq


def _subsequence_weights(x: TokenSeq, weight_of_popcount) -> dict[tuple, object]:
    """Aggregate pattern mass per distinct kept subsequence."""
    n = len(x)
    tokens = x.tokens
    weights: dict[tuple, object] = {}
    for mask in range(1 << n):
        kept = tuple(tokens[i] for i in range(n) if not (mask >> i) & 1)
        w = weight_of_popcount(mask.bit_count())
        if kept in weights:
            weights[kept] = weights[kept] + w
        else:
            weights[kept] = w
    return weights


def _labels_for_subsequences(model: BaseClassifier, x: TokenSeq, kept_tuples) -> dict[tuple, int]:
    texts = [x.scheme.separator.join(k) for k in kept_tuples]
    return dict(zip(kept_tuples, classify_texts(model, texts).tolist()))


def exact_smoothed_scores(
    model: BaseClassifier, x: TokenSeq, p_del: float, method: str = "float"
) -> ExactScores:
    """Exact smoothed scores by summing the full Bernoulli pattern mass.

    ``method="float"`` uses double precision with Kahan-compensated
    accumulation; ``method="fraction"`` keeps everything rational (only
    offered up to 12 tokens, where it is still cheap).
    """
    n = len(x)
    if n > _ENUM_MAX_TOKENS:
        raise GuardError(f"{n} tokens exceeds the 2^n enumeration guard ({_ENUM_MAX_TOKENS})")
    if method == "fraction":
        if n > _EXACT_MAX_TOKENS:
            raise GuardError(f"rational mode is limited to {_EXACT_MAX_TOKENS} tokens")
        p = Fraction(p_del)
        pow_table = [p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    elif method == "float":
        pow_table = [p_del**k * (1.0 - p_del) ** (n - k) for k in range(n + 1)]
    else:
        raise ValueError(f"unknown method {method!r}")

    weights = _subsequence_weights(x, lambda k: pow_table[k])
    label_of = _labels_for_subsequences(model, x, list(weights))
    num_classes = model.num_classes
    if method == "fraction":
        probs = [Fraction(0)] * num_classes
        for kept, w in weights.items():
            probs[label_of[kept]] += w
        return ExactScores(tuple(probs), n)
    sums = [0.0] * num_classes
    comps = [0.0] * num_classes  # Kahan compensation terms
    for kept, w in weights.items():
        c = label_of[kept]
        y = w - comps[c]
        t = sums[c] + y
        comps[c] = (t - sums[c]) - y
        sums[c] = t
    return ExactScores(tuple(sums), n)


def exact_smoothed_argmax(model: BaseClassifier, x: TokenSeq, p_del: float) -> int:
    return exact_smoothed_scores(model, x, p_del).argmax


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
    keep_a = [1] * n
    keep_b = [1] * m
    common: list[str] = []
    i, j = n, m
    while i > 0 and j > 0:
        if a.tokens[i - 1] == b.tokens[j - 1] and dp[i, j] == dp[i - 1, j - 1] + 1:
            keep_a[i - 1] = 0
            keep_b[j - 1] = 0
            common.append(a.tokens[i - 1])
            i -= 1
            j -= 1
        elif dp[i - 1, j] >= dp[i, j - 1]:
            i -= 1
        else:
            j -= 1
    common.reverse()
    return AlignmentWitness(
        eps_star_src=DeletionPattern(tuple(keep_a)),
        eps_star_dst=DeletionPattern(tuple(keep_b)),
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

    Returns the members whose prediction differs from the one at ``x``;
    an empty list means the claimed radius survived brute force.
    """
    prediction = exact_smoothed_argmax(model, x, p_del)
    violations = []
    for member in sorted(enumerate_ball(x, radius, ops, alphabet), key=lambda s: s.tokens):
        if member.tokens == x.tokens:
            continue
        if exact_smoothed_argmax(model, member, p_del) != prediction:
            violations.append(member)
    return violations

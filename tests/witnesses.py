"""Proof witnesses: the mathematics the certificate's closed forms rest on,
stated plainly so that tests can check the product against it.

No ``delcert`` command runs any of these.  They pin the deletion
mechanism's pattern mass, the pairwise score bounds behind the radius
thresholds, the LCS-anchored edit decomposition those bounds take, the
supersequence count that floors every ball cardinality, the inverse
of tokenization, and the built-in model's scores of one token sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from delcert.classifier import BuiltinModel
from delcert.edit_metrics import EditOpsSet, edit_distance
from delcert.errors import SchemeMismatchError
from delcert.tokenization import TokenSeq


def pattern_probability(deleted: Sequence[int], p_del: float | Fraction) -> float | Fraction:
    """Bernoulli product mass of a pattern of 0/1 deletion indicators; it
    sums to one over all 2^n patterns, exactly when ``p_del`` is a Fraction."""
    k = sum(deleted)
    return p_del**k * (1 - p_del) ** (len(deleted) - k)


def detokenize(seq: TokenSeq) -> str:
    """Inverse of ``tokenize`` up to whitespace normalization.

    Whitespace joins with single spaces; multi-space or tab runs in the
    original text are not recoverable (edits are defined over tokens, so
    byte-level fidelity is irrelevant).
    """
    return seq.scheme.separator.join(seq.tokens)


def scores_for_tokens(model: BuiltinModel, tokens: Sequence[str]) -> np.ndarray:
    """The built-in model's class scores of one token sequence, summed on
    their own: the reference for its batched and keep-matrix scorers."""
    return model.log_prior + model.log_likelihood[model.token_rows(tokens)].sum(axis=0)


@dataclass(frozen=True)
class EditDecomposition:
    """Operation counts decomposing the minimal edit distance over an
    LCS anchor.

    The ``lcs_length`` tokens of a longest common subsequence are
    treated as untouched, so ``lcs_length == |a| - n_del - n_sub ==
    |b| - n_ins - n_sub`` while ``distance == n_del + n_ins + n_sub``
    stays minimal.  Anchoring on the LCS first and then minimizing
    substitutions makes the decomposition deterministic, and it is the
    decomposition under which the pairwise score bounds are tightest.
    """

    distance: int
    n_del: int
    n_ins: int
    n_sub: int
    lcs_length: int

    @classmethod
    def from_distances(
        cls, len_a: int, len_b: int, distance: int, indel: int
    ) -> "EditDecomposition":
        """The decomposition of a pair of lengths ``len_a`` and ``len_b``
        from its full-ops distance and its del/ins-only distance, which is
        ``len_a + len_b - 2 LCS``."""
        ell = (len_a + len_b - indel) // 2
        n_sub = indel - distance
        n_del = len_a - ell - n_sub
        n_ins = len_b - ell - n_sub
        if min(n_sub, n_del, n_ins) < 0:
            raise AssertionError("inconsistent distance/LCS pair")
        return cls(distance, n_del, n_ins, n_sub, ell)


def edit_decomposition(a: TokenSeq, b: TokenSeq) -> EditDecomposition:
    """Operation counts of an LCS-anchored minimal unconstrained script."""
    indel = edit_distance(a, b, EditOpsSet(allow_sub=False))
    return EditDecomposition.from_distances(len(a), len(b), edit_distance(a, b), indel)


def pairwise_bounds(
    p_y_at_x: float, dec: EditDecomposition, p_del: float
) -> tuple[float, float]:
    """Bounds on a class score at a neighbor, given its score at ``x``
    (the pairwise bound of RS-Del, Huang et al. 2023).

    ``dec`` decomposes the transformation of the *neighbor into x*.
    Values are intentionally not clipped to [0, 1]; clipping is a
    report-time choice.
    """
    if not 0.0 < p_del < 1.0:
        raise ValueError(f"p_del must lie strictly in (0, 1), got {p_del}")
    shift = p_del ** (dec.n_del - dec.n_ins)
    lower = shift * (p_y_at_x - 1.0 + p_del ** (dec.n_sub + dec.n_ins))
    upper = shift * p_y_at_x + 1.0 - p_del ** (dec.n_sub + dec.n_del)
    return lower, upper


def supersequence_count(length: int, vocab_size: int, radius: int) -> int:
    """Number of distinct length-``n+r`` supersequences of a length-``n`` sequence.

    Classic result: the count does not depend on the sequence itself.
    Each such supersequence is reachable by exactly ``r`` insertions, so
    this is a floor on any radius-``r`` edit-ball cardinality.
    """
    n, v, r = length, vocab_size, radius
    return sum(comb(n + r, i) * (v - 1) ** i for i in range(r + 1))


@dataclass(frozen=True)
class AlignmentWitness:
    """Deletion patterns (0/1 indicators, 1 = delete) reducing both
    sequences to a common LCS."""

    eps_star_src: tuple[int, ...]
    eps_star_dst: tuple[int, ...]
    common: TokenSeq


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

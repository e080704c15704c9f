"""Constrained token edit distance, edit balls and their cardinalities.

Conventions
-----------
``edit_distance(a, b, ops)`` counts the minimum number of allowed edits
that transform ``a`` into ``b``.  The ball ``enumerate_ball(x, r, ops)``
contains every sequence that can be transformed *into* ``x`` with at
most ``r`` allowed edits, i.e. ``{c : edit_distance(c, x, ops) <= r}``.
The distinction matters for asymmetric operation sets: with deletions
only, the ball around ``x`` consists of supersequences of ``x``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from . import kernels
from .errors import GuardError, SchemeMismatchError
from .tokenization import Scheme, TokenSeq

#: scale guards for the brute-force ball oracle
_BALL_MAX_LEN = 8
_BALL_MAX_ALPHABET = 4

#: scale guards for the exact ball counter (its capped DP rows are the
#: states of a Levenshtein automaton)
_AUTOMATON_MAX_RADIUS = 16
_AUTOMATON_MAX_STATES = 500_000

#: results kept by each memoized pure function of the certificate
#: arithmetic: :func:`lev_ball_cardinality_lower_bound` here, and the
#: Clopper-Pearson bounds and radius search of :mod:`~delcert.certify`.
#: Not tuned.  Over 6,000 certify-builtin instances the radius search
#: missed 4,239 of 39,242 calls at 4,096 entries, 4,221 at 16,384 and
#: 12,525 at 1,024; the other caches never filled 4,096.
BOUND_MEMO_SIZE = 4096


@dataclass(frozen=True)
class EditOpsSet:
    """The subset of edit operations available to the adversary."""

    allow_del: bool = True
    allow_ins: bool = True
    allow_sub: bool = True

    def __post_init__(self) -> None:
        if not (self.allow_del or self.allow_ins or self.allow_sub):
            raise ValueError("at least one edit operation must be allowed")

    @property
    def letters(self) -> str:
        return ("d" if self.allow_del else "") + ("i" if self.allow_ins else "") + (
            "s" if self.allow_sub else ""
        )


FULL_OPS = EditOpsSet(True, True, True)

#: all seven non-empty operation subsets, full set first
ALL_OPS_SETS: tuple[EditOpsSet, ...] = (
    EditOpsSet(True, True, True),
    EditOpsSet(True, False, True),
    EditOpsSet(False, True, True),
    EditOpsSet(False, False, True),
    EditOpsSet(True, True, False),
    EditOpsSet(True, False, False),
    EditOpsSet(False, True, False),
)


def edit_distance(a: TokenSeq, b: TokenSeq, ops: EditOpsSet = FULL_OPS) -> int | float:
    """Minimum number of allowed edits transforming ``a`` into ``b``.

    Returns ``math.inf`` when no allowed edit script exists, e.g. a
    substitution-only adversary facing unequal lengths.
    """
    if a.scheme != b.scheme:
        raise SchemeMismatchError(f"cannot compare {a.scheme.value} vs {b.scheme.value} sequences")
    d = kernels.edit_distance_ids(a.tokens, b.tokens, ops.allow_del, ops.allow_ins, ops.allow_sub)
    return math.inf if d < 0 else d


def enumerate_ball(
    x: TokenSeq,
    radius: int,
    ops: EditOpsSet = FULL_OPS,
    alphabet: Sequence[str] = (),
) -> set[TokenSeq]:
    """Brute-force oracle for the radius-``radius`` edit ball around ``x``.

    Every sequence over ``alphabet`` whose length could be within reach
    is filtered by one batched edit-distance call on the longest
    candidates: in lexicographic order, every ``|A|^(hi - m)``-th of
    them starts with one of the length-``m`` candidates, whose distance
    is that row's prefix column ``m``.  Members are picked by row index
    from the process-wide tuples of :func:`_sequences` (65,536 sequences
    at most), not built per call.  An alphabet token that ``x``'s scheme
    forbids (``""`` under the whitespace scheme) raises ``TokenSeq``'s
    ``ValueError`` whatever the radius.  Guarded to desk scale; this
    function exists to validate formulas.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    alphabet = tuple(dict.fromkeys(alphabet))
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    TokenSeq(alphabet, x.scheme)  # raises for a token no member may hold
    lo = max(0, len(x) - (radius if ops.allow_ins else 0))
    hi = len(x) + (radius if ops.allow_del else 0)
    if len(alphabet) > _BALL_MAX_ALPHABET or hi > _BALL_MAX_LEN:
        raise GuardError(
            f"ball enumeration guard exceeded: alphabet {len(alphabet)} > {_BALL_MAX_ALPHABET} "
            f"or member length {hi} > {_BALL_MAX_LEN}"
        )
    ids = {tok: i for i, tok in enumerate(alphabet)}
    x_ids = [ids.setdefault(tok, len(ids)) for tok in x.tokens]
    longest = _universe(len(alphabet), hi)
    dist = kernels.edit_distance_ids(longest, x_ids, ops.allow_del, ops.allow_ins, ops.allow_sub)
    members: set[TokenSeq] = set()
    for m in range(lo, hi + 1):
        d = dist[:: len(alphabet) ** (hi - m), m]
        seqs = _sequences(alphabet, x.scheme, m)
        members.update([seqs[k] for k in np.flatnonzero((d >= 0) & (d <= radius)).tolist()])
    return members


@functools.lru_cache(maxsize=None)
def _universe(size: int, length: int) -> np.ndarray:
    """Every length-``length`` id sequence over ``range(size)``, one per
    row in lexicographic order (read-only; bounded by the ball guards)."""
    grid = np.indices((size,) * length, dtype=np.int8).reshape(length, size**length).T
    grid.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=16)
def _sequences(alphabet: tuple[str, ...], scheme: Scheme, length: int) -> tuple[TokenSeq, ...]:
    """The rows of ``_universe(len(alphabet), length)`` as token sequences,
    shared by every ball; 16 entries hold the nine lengths of one alphabet."""
    rows = np.array(alphabet, dtype=object)[_universe(len(alphabet), length)].tolist()
    return tuple(TokenSeq(tuple(row), scheme) for row in rows)


def _check_ball(length: int, vocab_size: int, radius: int) -> None:
    if length < 0 or radius < 0:
        raise ValueError("length and radius must be non-negative")
    if vocab_size < 1:
        raise ValueError("vocab_size must be positive")


def hamming_ball_cardinality(length: int, vocab_size: int, radius: int) -> int:
    """Exact number of equal-length sequences within ``radius`` substitutions."""
    _check_ball(length, vocab_size, radius)
    if radius > length:
        raise ValueError(f"radius {radius} exceeds sequence length {length}")
    return sum(comb(length, i) * (vocab_size - 1) ** i for i in range(radius + 1))


@functools.lru_cache(maxsize=BOUND_MEMO_SIZE)  # pure, and certificates repeat (length, radius) pairs
def lev_ball_cardinality_lower_bound(length: int, vocab_size: int, radius: int) -> int:
    """Certified lower bound on the size of the radius-``r`` edit ball
    around any length-``n`` sequence over ``v`` tokens
    (``n, v, r = length, vocab_size, radius``).

    Evaluates the closed-form ball size of a constant sequence (a single
    token repeated ``n`` times), which is the smallest edit ball among
    length-``n`` sequences.  For a constant sequence the distance to any
    word ``w`` is ``max(n, |w|) - min(n, k)`` with ``k`` occurrences of
    the repeated token in ``w``, which yields the double sum
    ``sum over m in [n - r, n + r] of S(m, J(m))`` with
    ``S(m, J) = sum_{i <= J} C(m, i) w**i``, ``w = v - 1`` and
    ``J(m) = min(m, r - max(0, n - m))``.  Dominates both
    :func:`hamming_ball_cardinality` and the number of length-``n + r``
    supersequences of any length-``n`` sequence (they appear as the
    ``m == n`` and ``m == n + r`` terms).

    The sum takes O(r) big-integer steps along ``m``.  ``J`` starts at 0
    and grows by 0 or 1 per step.  With ``t = C(m, J) w**J`` the last
    term, Pascal's rule gives ``S(m + 1, J) = (1 + w) S(m, J) - w t`` and
    ``t <- t (m + 1) / (m + 1 - J)``; when ``J`` grows, the next term
    ``t <- t w (m + 1 - J) / (J + 1)`` is added.  Every division is exact.
    """
    _check_ball(length, vocab_size, radius)  # on a cache miss only
    n, v, r = length, vocab_size, radius
    w = v - 1
    s = t = 1  # J = 0 at the first m, so S = t = C(m, 0)
    j = 0
    total = s
    for m in range(max(0, n - r), n + r):
        s = v * s - w * t
        t = t * (m + 1) // (m + 1 - j)
        if min(m + 1, r - max(0, n - m - 1)) > j:  # J(m + 1) == j + 1
            t = t * w * (m + 1 - j) // (j + 1)
            j += 1
            s += t
        total += s
    return total


def lev_ball_cardinality_exact(x: TokenSeq, vocab_size: int, radius: int) -> int:
    """Exact cardinality of the radius-``radius`` unconstrained edit ball.

    Counts words of length up to ``|x| + radius`` by their DP row against
    ``x``, capped at ``radius + 1`` (the states of a Levenshtein
    automaton, Schulz & Mihov 2002).  The vocabulary collapses into one
    symbol class per distinct token of ``x`` plus one class for the
    remaining ``v - k`` tokens, which all step a row alike; each class
    weighs the number of tokens it stands for.  Exact big-integer
    arithmetic.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius > _AUTOMATON_MAX_RADIUS:
        raise GuardError(f"radius {radius} exceeds automaton guard {_AUTOMATON_MAX_RADIUS}")
    distinct: dict[str, int] = {}
    x_ids = [distinct.setdefault(tok, len(distinct)) for tok in x.tokens]
    k = len(distinct)
    if vocab_size < max(k, 1):
        raise ValueError(f"vocab_size {vocab_size} smaller than the {k} distinct tokens of x")
    # class c < k is the token with id c; class k stands for all others
    classes = [(c, 1) for c in range(k)] + ([(k, vocab_size - k)] if vocab_size > k else [])
    cap = radius + 1
    start = tuple(min(j, cap) for j in range(len(x_ids) + 1))
    rows = {start}
    # the live rows one symbol away from a row, with their class weights
    moves: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
    frontier = {start: 1}
    total = int(len(x_ids) <= radius)  # the empty word
    for _ in range(len(x_ids) + radius):
        nxt: dict[tuple[int, ...], int] = {}
        for row, w in frontier.items():
            if row not in moves:
                moves[row] = []
                for c, weight in classes:
                    step = tuple(kernels.edit_row_step(row, c, x_ids, True, True, True, cap))
                    if min(step) > radius:
                        continue  # no extension of the word can reach the ball
                    if step not in rows:
                        if len(rows) >= _AUTOMATON_MAX_STATES:
                            raise GuardError("automaton state guard exceeded")
                        rows.add(step)
                    moves[row].append((step, weight))
            for step, weight in moves[row]:
                nxt[step] = nxt.get(step, 0) + w * weight
        frontier = nxt
        total += sum(w for row, w in frontier.items() if row[-1] <= radius)
    return total

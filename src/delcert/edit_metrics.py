"""Constrained token edit distance, edit decompositions, edit balls and
their cardinalities.

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
from .tokenization import TokenSeq

#: scale guards for the brute-force ball oracle
_BALL_MAX_LEN = 8
_BALL_MAX_ALPHABET = 4

#: scale guard for the counting automaton
_AUTOMATON_MAX_RADIUS = 16
_AUTOMATON_MAX_STATES = 500_000


@dataclass(frozen=True)
class EditOpsSet:
    """The subset of edit operations available to the adversary."""

    allow_del: bool = True
    allow_ins: bool = True
    allow_sub: bool = True

    def __post_init__(self) -> None:
        if not (self.allow_del or self.allow_ins or self.allow_sub):
            raise ValueError("at least one edit operation must be allowed")

    @classmethod
    def from_letters(cls, letters: str) -> "EditOpsSet":
        """Parse a compact spelling such as ``"dis"``, ``"di"`` or ``"s"``."""
        letters = letters.lower()
        bad = set(letters) - {"d", "i", "s"}
        if bad or not letters:
            raise ValueError(f"ops spelling must be a non-empty subset of 'dis', got {letters!r}")
        return cls("d" in letters, "i" in letters, "s" in letters)

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


@dataclass(frozen=True)
class CardinalityParams:
    """Inputs of the ball-cardinality formulas."""

    length: int
    radius: int
    vocab_size: int = 50265

    def __post_init__(self) -> None:
        if self.length < 0 or self.radius < 0:
            raise ValueError("length and radius must be non-negative")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")


def _check_schemes(a: TokenSeq, b: TokenSeq) -> None:
    if a.scheme != b.scheme:
        raise SchemeMismatchError(f"cannot compare {a.scheme.value} vs {b.scheme.value} sequences")


def _intern_pair(a: Sequence[str], b: Sequence[str]) -> tuple[list[int], list[int]]:
    ids: dict[str, int] = {}
    out = []
    for seq in (a, b):
        row = []
        for tok in seq:
            if tok not in ids:
                ids[tok] = len(ids)
            row.append(ids[tok])
        out.append(row)
    return out[0], out[1]


def edit_distance(a: TokenSeq, b: TokenSeq, ops: EditOpsSet = FULL_OPS) -> int | float:
    """Minimum number of allowed edits transforming ``a`` into ``b``.

    Returns ``math.inf`` when no allowed edit script exists, e.g. a
    substitution-only adversary facing unequal lengths.
    """
    _check_schemes(a, b)
    ia, ib = _intern_pair(a.tokens, b.tokens)
    d = kernels.edit_distance_ids(ia, ib, ops.allow_del, ops.allow_ins, ops.allow_sub)
    return math.inf if d < 0 else d


def edit_decomposition(a: TokenSeq, b: TokenSeq) -> EditDecomposition:
    """Operation counts of an LCS-anchored minimal unconstrained script."""
    _check_schemes(a, b)
    ia, ib = _intern_pair(a.tokens, b.tokens)
    d = kernels.edit_distance_ids(ia, ib, True, True, True)
    indel = kernels.edit_distance_ids(ia, ib, True, True, False)  # |a| + |b| - 2 LCS
    ell = (len(ia) + len(ib) - indel) // 2
    n_sub = indel - d
    n_del = len(ia) - ell - n_sub
    n_ins = len(ib) - ell - n_sub
    if min(n_sub, n_del, n_ins) < 0:  # pragma: no cover - DP invariant
        raise AssertionError("inconsistent distance/LCS pair")
    return EditDecomposition(d, n_del, n_ins, n_sub, ell)


def enumerate_ball(
    x: TokenSeq,
    radius: int,
    ops: EditOpsSet = FULL_OPS,
    alphabet: Sequence[str] = (),
) -> set[TokenSeq]:
    """Brute-force oracle for the radius-``radius`` edit ball around ``x``.

    Every sequence over ``alphabet`` whose length could be within reach
    is generated and filtered by one batched edit-distance call per
    length.  Guarded to desk scale; this function exists to validate
    formulas.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    alphabet = list(dict.fromkeys(alphabet))
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    lo = max(0, len(x) - (radius if ops.allow_ins else 0))
    hi = len(x) + (radius if ops.allow_del else 0)
    if len(alphabet) > _BALL_MAX_ALPHABET or hi > _BALL_MAX_LEN:
        raise GuardError(
            f"ball enumeration guard exceeded: alphabet {len(alphabet)} > {_BALL_MAX_ALPHABET} "
            f"or member length {hi} > {_BALL_MAX_LEN}"
        )
    ids = {tok: i for i, tok in enumerate(alphabet)}
    x_ids = [ids.setdefault(tok, len(ids)) for tok in x.tokens]
    tokens = np.array(alphabet, dtype=object)
    members: set[TokenSeq] = set()
    for m in range(lo, hi + 1):
        cands = _universe(len(alphabet), m)
        d = kernels.edit_distance_ids(cands, x_ids, ops.allow_del, ops.allow_ins, ops.allow_sub)
        within = cands[(d >= 0) & (d <= radius)]
        members.update(TokenSeq(tuple(row), x.scheme) for row in tokens[within].tolist())
    return members


@functools.lru_cache(maxsize=None)
def _universe(size: int, length: int) -> np.ndarray:
    """Every length-``length`` id sequence over ``range(size)``, one per
    row in lexicographic order (read-only; bounded by the ball guards)."""
    grid = np.indices((size,) * length, dtype=np.int8).reshape(length, size**length).T
    grid.flags.writeable = False
    return grid


def hamming_ball_cardinality(params: CardinalityParams) -> int:
    """Exact number of equal-length sequences within ``radius`` substitutions."""
    n, v, r = params.length, params.vocab_size, params.radius
    if r > n:
        raise ValueError(f"radius {r} exceeds sequence length {n}")
    return sum(comb(n, i) * (v - 1) ** i for i in range(r + 1))


def supersequence_count(params: CardinalityParams) -> int:
    """Number of distinct length-``n+r`` supersequences of a length-``n`` sequence.

    Classic result: the count does not depend on the sequence itself.
    Each such supersequence is reachable by exactly ``r`` insertions, so
    this is a floor on any radius-``r`` edit-ball cardinality.
    """
    n, v, r = params.length, params.vocab_size, params.radius
    return sum(comb(n + r, i) * (v - 1) ** i for i in range(r + 1))


def lev_ball_cardinality_lower_bound(params: CardinalityParams) -> int:
    """Certified lower bound on the radius-``r`` edit-ball cardinality.

    Evaluates the closed-form ball size of a constant sequence (a single
    token repeated ``n`` times), which is the smallest edit ball among
    length-``n`` sequences.  For a constant sequence the distance to any
    word ``w`` is ``max(n, |w|) - min(n, k)`` with ``k`` occurrences of
    the repeated token in ``w``, which yields the double sum below.
    Dominates both :func:`hamming_ball_cardinality` and
    :func:`supersequence_count` (they appear as the ``m == n`` and
    ``m == n + r`` terms).
    """
    n, v, r = params.length, params.vocab_size, params.radius
    total = 0
    for m in range(max(0, n - r), n + r + 1):
        jmax = min(m, m - max(n, m) + r)
        total += sum(comb(m, j) * (v - 1) ** j for j in range(jmax + 1))
    return total


class _CountingAutomaton:
    """Determinized Levenshtein automaton used for exact ball counting.

    States are antichains of (consumed, errors) pairs; the input
    alphabet is collapsed into one class per distinct token of the
    pattern plus a single class for the remaining ``v - k`` tokens,
    which all behave identically.
    """

    def __init__(self, x_ids: Sequence[int], num_classes: int, radius: int):
        self.x = list(x_ids)
        self.n = len(self.x)
        self.r = radius
        # class id == token id for pattern tokens; num_classes-1 is "other"
        self.match_positions = [
            tuple(i for i, t in enumerate(self.x) if t == c) for c in range(num_classes)
        ]
        start = self._prune({(0, 0)})
        self.states: dict[tuple, int] = {start: 0}
        self.state_list: list[tuple] = [start]
        self.transitions: dict[tuple[int, int], int | None] = {}

    def _prune(self, states: set[tuple[int, int]]) -> tuple:
        kept = []
        for j, f in sorted(states):
            if not any(
                (i, e) != (j, f) and f - e >= abs(i - j) for i, e in states
            ):
                kept.append((j, f))
        return tuple(kept)

    def _step_set(self, states: tuple, cls: int) -> tuple:
        nxt: set[tuple[int, int]] = set()
        matches = self.match_positions[cls]
        for i, e in states:
            if e + 1 <= self.r:
                nxt.add((i, e + 1))  # consume the symbol as an insertion
                if i < self.n:
                    nxt.add((i + 1, e + 1))  # substitution
            for pos in matches:
                if pos < i:
                    continue
                k = pos - i  # delete k pattern tokens, then match
                if e + k > self.r:
                    continue
                nxt.add((pos + 1, e + k))
        return self._prune(nxt)

    def step(self, state_id: int, cls: int) -> int | None:
        key = (state_id, cls)
        if key not in self.transitions:
            nxt = self._step_set(self.state_list[state_id], cls)
            if not nxt:
                self.transitions[key] = None
            else:
                if nxt not in self.states:
                    if len(self.states) >= _AUTOMATON_MAX_STATES:
                        raise GuardError("automaton state guard exceeded")
                    self.states[nxt] = len(self.state_list)
                    self.state_list.append(nxt)
                self.transitions[key] = self.states[nxt]
        return self.transitions[key]

    def is_accepting(self, state_id: int) -> bool:
        return any(self.n - i + e <= self.r for i, e in self.state_list[state_id])


def lev_ball_cardinality_exact(x: TokenSeq, vocab_size: int, radius: int) -> int:
    """Exact cardinality of the radius-``radius`` unconstrained edit ball.

    Counts accepted words of length up to ``|x| + radius`` in the
    determinized automaton, weighting each symbol class by the number of
    vocabulary tokens it represents.  Exact big-integer arithmetic.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius > _AUTOMATON_MAX_RADIUS:
        raise GuardError(f"radius {radius} exceeds automaton guard {_AUTOMATON_MAX_RADIUS}")
    distinct: dict[str, int] = {}
    x_ids = []
    for tok in x.tokens:
        if tok not in distinct:
            distinct[tok] = len(distinct)
        x_ids.append(distinct[tok])
    k = len(distinct)
    if vocab_size < max(k, 1):
        raise ValueError(f"vocab_size {vocab_size} smaller than the {k} distinct tokens of x")
    # classes 0..k-1 are the pattern tokens; class k stands for all others
    weights = [1] * k + [vocab_size - k]
    auto = _CountingAutomaton(x_ids, k + 1, radius)
    frontier: dict[int, int] = {0: 1}
    total = 0
    for ell in range(len(x) + radius + 1):
        total += sum(w for sid, w in frontier.items() if auto.is_accepting(sid))
        if ell == len(x) + radius:
            break
        nxt: dict[int, int] = {}
        for sid, w in frontier.items():
            for cls, weight in enumerate(weights):
                if weight == 0:
                    continue
                tid = auto.step(sid, cls)
                if tid is not None:
                    nxt[tid] = nxt.get(tid, 0) + w * weight
        frontier = nxt
        if not frontier:
            break
    return total

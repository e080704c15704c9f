"""Brute-force ground truth: exact smoothed scores by full pattern
enumeration, and exhaustive certificate checks.

Everything here is deliberately exponential and guarded to desk scale.
The oracle exists to validate formulas, not to certify real inputs.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import mul
from typing import Sequence

import numpy as np

from .classifier import BaseClassifier, classify_texts
from .edit_metrics import EditOpsSet, FULL_OPS, edit_distance, enumerate_ball
from .errors import GuardError
from .tokenization import TokenSeq

_ENUM_MAX_TOKENS = 18
#: most (sequence, deletion pattern) rows gathered at once while scoring
_BLOCK_ROWS = 1 << 14
#: largest subsequence key space whose labels are kept in a dense table
_DENSE_MAX_KEYS = 1 << 20
#: per thread, the scores, labels and verified balls of the last input (see verify_certificate)
_last_verified = threading.local()


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


@functools.lru_cache(maxsize=64)
def _key_weights(n: int, base: int) -> np.ndarray:
    """Mixed-radix key weights of the deletion patterns on ``n`` tokens.

    Entry ``[i, mask]`` is ``base^r`` when pattern ``mask`` keeps token
    ``i`` as its ``r``-th kept token (from 0), else 0, so a row of token
    ids times this table gives the key of every kept subsequence.  The
    table is float32, exact because every key and partial sum stays
    below ``_DENSE_MAX_KEYS <= 2^24``.
    """
    kept = 1 - ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    rank = np.cumsum(kept, axis=1) - 1
    weights = np.where(kept == 1, float(base) ** rank, 0.0).T.astype(np.float32)
    weights.flags.writeable = False
    return weights


def _smoothed_scores(
    model: BaseClassifier,
    seqs: Sequence[TokenSeq],
    p_del: float,
    exact: bool,
    label_of: dict[str, int] | None = None,
) -> list[ExactScores]:
    """Exact smoothed scores of each sequence, in input order.

    Sequences of one length are scored together, each distinct text is
    classified once per call (once over all calls that share the
    text-to-label dict ``label_of``, which is read and extended), and
    patterns are counted per ``(tokens deleted, class)``.  With
    ``Fraction(p_del) == M / e``, a pattern deleting ``k`` of ``n``
    tokens has mass ``M^k (e - M)^(n - k) / e^n``, so each probability
    is one ratio of integers: a ``Fraction`` when ``exact``, else the
    nearest float.  ``p_del`` outside [0, 1], or NaN, raises
    ``ValueError``.

    The ``V`` distinct tokens of the call get ids 1..V (the enumeration
    guards keep ``V`` well under 256, so ids fit in a byte).  A kept
    subsequence ``t_0 .. t_(k-1)`` is keyed by the mixed-radix integer
    ``sum_r id(t_r) (V + 1)^r``: distinct subsequences of any lengths
    get distinct keys, all below ``(V + 1)^n_max`` for the longest input
    length ``n_max``, and a block's keys are one product of its id rows
    with :func:`_key_weights`.  Labels are then read from a dense table
    indexed by key: a block marks the rows whose keys have no label yet,
    keeps one row per such key, labels those kept subsequences (through
    ``label_of``) and gathers every row's label.  The table is used when
    the key space is at most ``_DENSE_MAX_KEYS`` and at most the call's
    number of (sequence, pattern) rows.  Otherwise (one 18-token input with
    several distinct tokens, or any input whose table would outnumber
    its rows, such as a single sequence) each block gathers its kept
    subsequences as rows of byte ids and deduplicates them by sorting.
    """
    if not 0 <= p_del <= 1:
        raise ValueError(f"p_del must be in [0, 1], got {p_del!r}")
    p = Fraction(p_del)
    m, e = p.numerator, p.denominator
    classes = model.num_classes
    vocab = dict.fromkeys(chain.from_iterable(s.tokens for s in seqs))
    names = np.array(["", *vocab], dtype=object)
    token_id = {tok: i for i, tok in enumerate(names)}
    sep = seqs[0].scheme.separator
    label_of = {} if label_of is None else label_of

    def classify(rows: np.ndarray) -> np.ndarray:
        """Labels of zero-padded id rows, each text classified once."""
        kept = np.count_nonzero(rows, axis=1).tolist()
        texts = [sep.join(r[:k]) for r, k in zip(names[rows].tolist(), kept)]
        # until the first texts are labelled, every text is new
        new = [t for t in texts if t not in label_of] if label_of else texts
        labels = classify_texts(model, [new])
        label_of.update(zip(new, labels.tolist()))
        return labels if new is texts else np.array([label_of[t] for t in texts])

    scores_of: dict[tuple, ExactScores] = {}  # by counts, which many sequences share
    by_length: dict[int, list[int]] = {}
    for i, s in enumerate(seqs):
        by_length.setdefault(len(s), []).append(i)
    base, n_max = len(names), max(by_length)
    patterns = sum(len(idx) << n for n, idx in by_length.items())
    dense = base**n_max <= min(patterns, _DENSE_MAX_KEYS)
    if dense:
        label_at = np.zeros(base**n_max, dtype=np.int32)  # label + 1; 0 until classified
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
            if dense:
                keys = block[:, 1:].astype(np.float32) @ _key_weights(n, base)
                keys = keys.astype(np.intp).ravel()
                pos = np.flatnonzero(label_at[keys] == 0)  # rows of unlabelled keys
                if len(pos):
                    # a key written by several rows keeps one of them: one row per new key
                    label_at[keys[pos]] = pos + 1
                    pos = pos[label_at[keys[pos]] == pos + 1]
                    rows = block[(pos >> n)[:, None], table[pos & ((1 << n) - 1)]]
                    label_at[keys[pos]] = classify(rows) + 1
                labels = (label_at[keys] - 1).reshape(len(block), -1)
            else:
                rows = np.ascontiguousarray(block[:, table]).reshape(-1, table.shape[1])
                keys = rows.view(np.uint64 if rows.shape[1] == 8 else f"V{rows.shape[1]}").ravel()
                distinct, inverse = np.unique(keys, return_inverse=True)
                rows = distinct.view(np.uint8).reshape(len(distinct), -1)
                labels = classify(rows)[inverse].reshape(len(block), -1)
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
    sequences is classified once.  Each thread keeps a memo of the last
    input it verified, for one model object (held by reference until the
    thread verifies another input, and compared with ``is``), one ``x``
    and one ``p_del``: the scores and text labels it has computed, and
    the operation set, radius, alphabet and violations of each ball it
    has enumerated.  Any other model, input or ``p_del`` starts afresh,
    and nothing is shared between inputs.

    Allowing more operations or a larger radius can only grow a ball:
    with ``ops`` inside ``wider`` (every operation ``ops`` allows,
    ``wider`` allows too), ``edit_distance(c, x, wider) <=
    edit_distance(c, x, ops)``, so the ball of ``radius`` and ``ops``
    lies inside the ball of any larger radius and ``wider`` over the
    same alphabet.  A call whose ball lies inside one the memo holds
    enumerates nothing: its violations are that ball's violations within
    its own radius.  Any other call enumerates its ball, scores only the
    members (and ``x``) not scored yet and classifies only texts not
    labelled yet, so the seven operation sets of one input score the
    union of their balls once.  Verified in ``ALL_OPS_SETS`` order, the
    full set comes first, and every later set whose radius is no larger
    reuses its ball.  Reusing a score relies on the model being pure
    (see :class:`BaseClassifier`).

    Returns the members whose prediction differs from the one at ``x``,
    sorted by tokens; an empty list means the claimed radius survived
    brute force.
    """
    alphabet = tuple(dict.fromkeys(alphabet))  # read a one-shot iterator once
    memo = _last_verified
    if getattr(memo, "model", None) is not model or memo.x != x or memo.p_del != p_del:
        memo.model, memo.x, memo.p_del, memo.scores, memo.labels = model, x, p_del, {}, {}
        memo.balls = []
    for wider, r, a, violations in memo.balls:
        # a negative radius is left to enumerate_ball to reject; the guards
        # cannot trip here, as no member is longer than the wider ball's
        if 0 <= radius <= r and a == alphabet and set(ops.letters) <= set(wider.letters):
            return [m for m in violations if edit_distance(m, x, ops) <= radius]
    ball = enumerate_ball(x, radius, ops, alphabet)
    # keyed by tokens, which hash faster: the ball shares x's scheme
    scores: dict[tuple[str, ...], ExactScores] = memo.scores
    new = [m for m in ball if m.tokens not in scores]
    if x.tokens not in scores and x not in ball:
        new.append(x)
    if new:
        got = _smoothed_scores(model, new, p_del, False, memo.labels)
        scores.update(zip([m.tokens for m in new], got))
    top = scores[x.tokens].argmax
    at = [scores[m.tokens] for m in ball]
    distinct = {id(s): s for s in at}  # members with equal counts share one object
    flipped = {key for key, s in distinct.items() if s.argmax != top}
    found = sorted((m for m, s in zip(ball, at) if id(s) in flipped), key=lambda m: m.tokens)
    memo.balls.append((ops, radius, alphabet, tuple(found)))
    return found

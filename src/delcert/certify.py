"""Smoothed prediction, confidence bounds on class scores and certified radii.

The certified radius for an operation set is the largest integer ``r``
with ``p_del**r`` strictly above a threshold derived from the score
bounds:

    any set containing sub:   (2 + mu_y' - mu_y) / 2
    {del} or {del, ins}:      1 / (1 - mu_y' + mu_y)
    {ins}:                    1 + mu_y' - mu_y

These follow from the pairwise score bounds of RS-Del (Huang et al.
2023), which the tests state and check exhaustively.

A float logarithm only seeds the search: an overstated radius would be a
soundness bug, so ``r`` is accepted in exact integers, as ``m**r * den >
num * e**r`` for ``p_del == m / e`` and the threshold ``num / den`` (from
the scores' ``as_integer_ratio()``).  The seven operation sets share three
thresholds and the search is memoized on ``(num, den, p_del)``, so a
certificate runs at most three.  It, the Clopper-Pearson bounds and
:func:`~delcert.edit_metrics.lev_ball_cardinality_lower_bound` are pure
functions of values that recur between inputs, and each keeps its last
``BOUND_MEMO_SIZE`` (4,096) results (``functools.lru_cache``), the very
values a call computes.

Draws come from the keep-matrix samplers of :mod:`~delcert.mechanisms`.
:class:`SmoothedPredictor` is the smoothed classifier as a
:class:`~delcert.classifier.BaseClassifier`, so that it can be attacked
like any base model.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .classifier import BaseClassifier, BuiltinModel, classify_texts
from .edit_metrics import (
    ALL_OPS_SETS,
    BOUND_MEMO_SIZE,
    FULL_OPS,
    EditOpsSet,
    lev_ball_cardinality_lower_bound,
)
from .mechanisms import MechanismKind, MechanismParams
from .mechanisms import deletion_keep_matrix, masking_keep_matrix
from .rng import RandomStream, as_stream, text_fingerprint
from .tokenization import Scheme, TokenSeq, tokenize

#: sentinel for a radius with no finite constraint (margin exactly one under
#: an insertion-only adversary); far larger than any sequence this library
#: will ever enumerate, and only reachable from exact scores, never from
#: Monte Carlo confidence bounds.
UNBOUNDED_RADIUS = 10**6

# sub-stream purposes: prediction and certification batches must be
# independent for the confidence argument to hold
_PRED_STREAM = 0
_CERT_STREAM = 1

#: distinct texts whose labels a :class:`SmoothedPredictor` keeps.  On 100
#: attack-smoothed instances every greedy_edit repeat came back within 60
#: queries of its first query, so 64 already kept all of them; 1,024 also
#: keeps texts that recur across instances (432 more hits; 8,192 added 48).
_MEMO_SIZE = 1024

#: the largest slice of draws on the text path, whose slices grow 64, 128,
#: 256, 512: a slice's new texts are one request, so an external child
#: classifies a slice while the next is built, and starts after 64 draws.
_SLICE_DRAWS = 512

#: cells (draws times tokens) per float product on the fast path, so that a
#: 400 KB float slice stays in cache whatever the input's length and a short
#: input makes few products.  A certificate's 5,000-draw vote at p_del 0.99
#: took, against 512-row slices, 8% less time at 40 tokens, 2% less at 120
#: and 24% less at 200; 102,400 cells was up to 40% slower at 120 and 200
#: tokens than 51,200 (2 vCPUs)
_SLICE_CELLS = 51_200


@dataclass(frozen=True)
class ScoreEstimate:
    """Per-class vote counts from one Monte Carlo batch."""

    counts: tuple[int, ...]
    num_samples: int

    def __post_init__(self) -> None:
        if sum(self.counts) != self.num_samples:
            raise ValueError("vote counts must sum to num_samples")


@dataclass(frozen=True)
class ScoreBounds:
    """Confidence-bounded top and runner-up smoothed scores."""

    top_class: int
    runner_up: int
    mu_y: float
    mu_yprime: float
    alpha: float
    mode: str = "bonferroni-cp"

    def __post_init__(self) -> None:
        if self.top_class == self.runner_up:
            raise ValueError("top class and runner-up must differ")
        for v in (self.mu_y, self.mu_yprime):
            if not 0.0 <= v <= 1.0:
                raise ValueError("score bounds must lie in [0, 1]")

    @property
    def margin(self) -> float:
        return self.mu_y - self.mu_yprime


@dataclass(frozen=True)
class Certificate:
    predicted: int
    radius_by_ops: dict[EditOpsSet, int]
    p_del: float
    alpha: float
    abstained: bool
    log10_cardinality_lb: float
    bounds: ScoreBounds
    prediction_estimate: ScoreEstimate
    certification_estimate: ScoreEstimate

    def radius(self, ops: EditOpsSet = FULL_OPS) -> int:
        return self.radius_by_ops[ops]


# ---------------------------------------------------------------------------
# Monte Carlo voting
# ---------------------------------------------------------------------------


def _slice_texts(x: TokenSeq, keep: np.ndarray, fill: str | None):
    """Each slice's texts, one per draw, in which a cleared cell drops its
    token, or shows ``fill`` if one is given.  Slices grow 64, 128, 256,
    then ``_SLICE_DRAWS`` draws.  Under deletion a slice is one string: with
    a terminator column shown in every row, each shown cell is its token
    (after the separator if the row's previous shown cell precedes it) or
    the terminator, a character that no token holds, and the pieces are
    joined once and split at the terminator."""
    n, sep = len(x), x.scheme.separator
    taken = "".join(x.tokens) + sep
    end = next(ch for ch in map(chr, itertools.count(10)) if ch not in taken)
    # piece c is token c (the terminator at n); piece n + 1 + c has the separator before it
    pieces = np.array([*x.tokens, end, *(sep + t for t in x.tokens), end], dtype=object)
    lo, size = 0, 64
    while lo < len(keep):
        rows = keep[lo : lo + size]
        lo, size = lo + size, min(2 * size, _SLICE_DRAWS)
        if fill is not None:  # masking shows every cell; an object fill: no str per cell
            yield list(map(sep.join, np.where(rows, pieces[:n], np.full(n, fill, object))))
            continue
        shown = np.ones((len(rows), n + 1), dtype=bool)
        shown[:, :n] = rows
        col = np.flatnonzero(shown) % (n + 1)
        col[1:] += (n + 1) * (col[1:] > col[:-1])
        yield "".join(pieces[col].tolist()).split(end)[:-1]


def vote_counts(
    model: BaseClassifier,
    x: TokenSeq,
    mech: MechanismParams,
    n_samples: int,
    rng: np.random.Generator,
    *more: tuple[int, np.random.Generator],
) -> np.ndarray:
    """Class histogram of the base classifier over ``n_samples`` draws from
    ``rng``; with further ``(n_samples, rng)`` batches in ``more``, one
    histogram row per batch.

    For the built-in model under deletion noise the votes are computed
    through keep-matrix products instead of materializing texts, one per
    ``_SLICE_CELLS`` cells, and a call per batch; the scores being exact,
    the labels are those of the text path.  Any other case builds one text
    per draw, slice by slice (:func:`_slice_texts`), and sends every batch's
    slices, in turn, through one :func:`~delcert.classifier.classify_texts`
    call, the one dedup on that path: each distinct text is classified
    once, and a batch's keep matrix is sampled when its first slice is due,
    so an external child classifies one batch while the next is drawn.  A label shared between
    batches keeps them independent, as :func:`certify`'s bounds need: their
    draws are, and a pure classifier is one fixed function of the text; a
    classifier whose labels depend on the batch or on earlier calls couples
    them.  A call holds one batch's keep matrix (one byte per draw and
    token), one sampling block or slice, and on the text path the distinct
    texts.
    """
    deletion = mech.kind is MechanismKind.DELETION
    # looked up at each call, so a rebound certify.deletion_keep_matrix is used
    sampler = deletion_keep_matrix if deletion else masking_keep_matrix
    if deletion and isinstance(model, BuiltinModel) and model.scheme == x.scheme:
        if more:  # no pipeline to share; a call per batch keeps one-batch calls lean
            batches = ((n_samples, rng), *more)
            return np.stack([vote_counts(model, x, mech, n, batch_rng) for n, batch_rng in batches])
        model.check_exact(len(x))
        contrib = model.log_likelihood[model.token_rows(x.tokens)]  # (n, C)
        keep = sampler(n_samples, len(x), mech.rate, rng)
        step = _SLICE_CELLS // (len(x) or 1) or 1
        if n_samples <= step:
            labels = (keep.astype(np.float64) @ contrib + model.log_prior).argmax(axis=1)
        else:  # a float slice stays in cache; exact scores sum alike in any slicing
            labels = np.concatenate([
                (rows.astype(np.float64) @ contrib + model.log_prior).argmax(axis=1)
                for rows in np.split(keep, range(step, n_samples, step))
            ])
        return np.bincount(labels, minlength=model.num_classes)
    batches = ((n_samples, rng), *more)
    fill = None if deletion else x.scheme.mask_token
    # each batch's keep matrix is sampled when its first slice is due
    keeps = (sampler(n, len(x), mech.rate, batch_rng) for n, batch_rng in batches)
    # classify_texts can send a slice while the next is built
    labels = classify_texts(model, (t for keep in keeps for t in _slice_texts(x, keep, fill)))
    ends = np.cumsum([n for n, _ in batches])
    counts = [np.bincount(labels[end - n : end], minlength=model.num_classes)
              for (n, _), end in zip(batches, ends)]
    return np.stack(counts) if more else counts[0]


def smoothed_predict(
    model: BaseClassifier,
    x: TokenSeq,
    mech: MechanismParams,
    n_samples: int,
    rng: np.random.Generator,
    *more: tuple[int, np.random.Generator],
) -> tuple:
    """Majority vote over perturbed copies; ties go to the lowest class.

    Returns the label and the batch's :class:`ScoreEstimate`, followed by
    one estimate per further ``(n_samples, rng)`` batch in ``more``, all
    voted in one :func:`vote_counts` call.
    """
    if n_samples < 1 or more and min(n for n, _ in more) < 1:
        raise ValueError("n_samples must be >= 1")
    if not more:  # the common call, kept lean: a smoothed attack target makes many
        counts = vote_counts(model, x, mech, n_samples, rng)
        return int(counts.argmax()), ScoreEstimate(tuple(counts.tolist()), n_samples)
    counts = vote_counts(model, x, mech, n_samples, rng, *more)
    sizes = (n_samples, *(n for n, _ in more))
    return (int(counts[0].argmax()), *map(ScoreEstimate, map(tuple, counts.tolist()), sizes))


# ---------------------------------------------------------------------------
# Confidence bounds
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=BOUND_MEMO_SIZE)
def clopper_pearson_lower(successes: int, n: int, level: float) -> float:
    """One-sided exact lower bound holding with confidence ``1 - level``."""
    if not 0 <= successes <= n:
        raise ValueError("successes out of range")
    if successes == 0:
        return 0.0
    # imported on first use: the oracle, external workers and every command
    # but certify never compute a bound, and scipy.special costs them about
    # 0.3 s of start-up and 17 MB
    from scipy.special import betaincinv

    return float(betaincinv(successes, n - successes + 1, level))


@functools.lru_cache(maxsize=BOUND_MEMO_SIZE)
def clopper_pearson_upper(successes: int, n: int, level: float) -> float:
    """One-sided exact upper bound holding with confidence ``1 - level``."""
    if not 0 <= successes <= n:
        raise ValueError("successes out of range")
    if successes == n:
        return 1.0
    from scipy.special import betaincinv

    return float(betaincinv(successes + 1, n - successes, 1.0 - level))


def score_bounds(est: ScoreEstimate, alpha: float, mode: str = "bonferroni-cp") -> ScoreBounds:
    """Jointly valid bounds on the top and runner-up smoothed scores.

    ``bonferroni-cp`` spends ``alpha/2`` on an exact lower bound for the
    top class and ``alpha/2`` on an exact upper bound for the empirical
    runner-up; the union bound gives joint validity ``1 - alpha``.
    ``complement`` spends all of ``alpha`` on the lower bound and sets
    ``mu_y' = 1 - mu_y``, valid because the runner-up score can never
    exceed one minus the top score.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    counts = est.counts
    if len(counts) < 2:
        raise ValueError("need at least two classes")
    top = max(range(len(counts)), key=lambda c: (counts[c], -c))
    runner = max((c for c in range(len(counts)) if c != top), key=lambda c: (counts[c], -c))
    n = est.num_samples
    if mode == "bonferroni-cp":
        mu_y = clopper_pearson_lower(counts[top], n, alpha / 2)
        mu_yp = clopper_pearson_upper(counts[runner], n, alpha / 2)
    elif mode == "complement":
        mu_y = clopper_pearson_lower(counts[top], n, alpha)
        mu_yp = 1.0 - mu_y
    else:
        raise ValueError(f"unknown bound mode {mode!r}")
    return ScoreBounds(top, runner, mu_y, mu_yp, alpha, mode)


# ---------------------------------------------------------------------------
# Pairwise score bounds and certified radii
# ---------------------------------------------------------------------------


def _check_p_del(p_del: float) -> None:
    if not 0.0 < p_del < 1.0:
        raise ValueError(f"p_del must lie strictly in (0, 1), got {p_del}")


@functools.lru_cache(maxsize=BOUND_MEMO_SIZE)
def _radius_search(num: int, den: int, p_del: float) -> int:
    """Largest ``r <= UNBOUNDED_RADIUS`` with ``p_del**r > num / den``, for
    ``0 < num < den``, decided in integers: with ``p_del == m / e``, the
    pair ``(m**r * den, num * e**r)`` is stepped by one factor at a time."""
    m, e = p_del.as_integer_ratio()
    log_t = math.log(num) - math.log(den)
    r = min(UNBOUNDED_RADIUS, max(0, math.floor(log_t / (math.log(m) - math.log(e)))))
    lhs, rhs = m**r * den, num * e**r  # p_del**r > num / den  <=>  lhs > rhs
    while r > 0 and lhs <= rhs:
        r, lhs, rhs = r - 1, lhs // m, rhs // e
    while r < UNBOUNDED_RADIUS and lhs * m > rhs * e:
        r, lhs, rhs = r + 1, lhs * m, rhs * e
    return r


def radius_from_margin(
    mu_y: float, mu_yprime: float, p_del: float, ops: EditOpsSet = FULL_OPS
) -> int:
    """Largest radius ``r`` with ``p_del**r`` strictly above the ops threshold.

    Returns 0 when the bounds cross.  The scores may be floats or
    ``Fraction``s; ``r`` is decided in integers by :func:`_radius_search`.
    """
    _check_p_del(p_del)
    for v in (mu_y, mu_yprime):
        if not 0.0 <= v <= 1.0:
            raise ValueError("score bounds must lie in [0, 1]")
    if mu_y < mu_yprime:
        return 0
    (a, b), (c, d) = mu_y.as_integer_ratio(), mu_yprime.as_integer_ratio()
    den, margin = b * d, a * d - c * b  # mu_y - mu_y' == margin / den
    if ops.allow_sub:
        num, den = 2 * den - margin, 2 * den
    elif ops.allow_del:
        num, den = den, den + margin
    else:
        num = den - margin
    if num <= 0:
        return UNBOUNDED_RADIUS
    if num >= den:
        return 0
    return _radius_search(num, den, p_del)


def certify(
    model: BaseClassifier,
    x: TokenSeq,
    mech: MechanismParams,
    n_pred: int = 1000,
    n_cert: int = 4000,
    alpha: float = 0.05,
    stream: RandomStream | int = 0,
    vocab_size: int = 50265,
    bound_mode: str = "bonferroni-cp",
) -> Certificate:
    """Predict, bound the scores on an independent batch, certify radii.

    The prediction comes from ``n_pred`` samples; the bounds from a
    disjoint ``n_cert``-sample stream.  When the certification batch's
    majority disagrees with the prediction (or the bounds cross), the
    prediction is still reported, with every radius zero.

    Both batches are voted in one :func:`smoothed_predict` call, so on the
    text path their texts share one pipeline and each distinct text is
    classified once.  The Clopper-Pearson bounds still hold: they need the
    certification votes to be ``n_cert`` independent draws of a fixed
    classifier, independent of the prediction, and they are, since the
    two batches' draws come from disjoint streams and a pure classifier
    labels a text alike in whichever batch it occurs.  A classifier that
    is not one fixed function of the text (see
    :class:`~delcert.classifier.BaseClassifier`) couples the two batches
    through the labels they share.
    """
    if mech.kind is not MechanismKind.DELETION:
        raise ValueError("certificates are only defined for the deletion mechanism")
    _check_p_del(mech.rate)
    if n_pred < 1 or n_cert < 1:
        raise ValueError("n_pred and n_cert must be >= 1")
    stream = as_stream(stream)
    pred_label, pred_est, cert_est = smoothed_predict(
        model, x, mech, n_pred, stream.child(_PRED_STREAM).generator(),
        (n_cert, stream.child(_CERT_STREAM).generator()),
    )
    bounds = score_bounds(cert_est, alpha, bound_mode)
    abstained = bounds.top_class != pred_label or bounds.mu_y < bounds.mu_yprime
    if abstained:
        radii = {ops: 0 for ops in ALL_OPS_SETS}
    else:
        radii = {
            ops: radius_from_margin(bounds.mu_y, bounds.mu_yprime, mech.rate, ops)
            for ops in ALL_OPS_SETS
        }
    cc = lev_ball_cardinality_lower_bound(len(x), vocab_size, radii[FULL_OPS])
    return Certificate(
        predicted=pred_label,
        radius_by_ops=radii,
        p_del=mech.rate,
        alpha=alpha,
        abstained=abstained,
        log10_cardinality_lb=math.log10(cc),
        bounds=bounds,
        prediction_estimate=pred_est,
        certification_estimate=cert_est,
    )


# ---------------------------------------------------------------------------
# The smoothed classifier as an attack target
# ---------------------------------------------------------------------------


class SmoothedPredictor:
    """The smoothed classifier as a :class:`~delcert.classifier.BaseClassifier`,
    its randomness keyed on the query text.

    Re-querying the same text under the same stream reproduces the same
    prediction exactly, which is what lets attack successes be replayed.
    So the labels of the ``_MEMO_SIZE`` most recently queried distinct
    texts are memoized: an attack re-sends many texts it built a few queries
    earlier, and a repeat is answered without sampling.  The memo is exact
    only because the configuration (model, mechanism, sample count,
    stream, scheme) is fixed after construction; build a new predictor to
    change any of it.
    """

    def __init__(
        self,
        model: BaseClassifier,
        mech: MechanismParams,
        n_samples: int = 100,
        stream: RandomStream | int = 0,
        scheme: Scheme | None = None,
    ):
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        self.model = model
        self.mech = mech
        self.n_samples = n_samples
        self.stream = as_stream(stream)
        self.scheme = scheme or getattr(model, "scheme", Scheme.WHITESPACE)
        self.num_classes = model.num_classes
        self._memo = functools.lru_cache(maxsize=_MEMO_SIZE)(self._smoothed_label)

    def _smoothed_label(self, text: str) -> int:
        rng = self.stream.child(text_fingerprint(text)).generator()
        label, _ = smoothed_predict(
            self.model, tokenize(text, self.scheme), self.mech, self.n_samples, rng
        )
        return label

    def predict(self, text: str) -> int:
        return self._memo(text)

    def classify_batch(self, texts: Sequence[str]) -> list[int]:
        return [self.predict(t) for t in texts]

"""Smoothed prediction, confidence bounds on class scores and certified radii.

The certified radius for an operation set is the largest integer ``r``
with ``p_del**r`` strictly above a threshold derived from the score
bounds:

    any set containing sub:   (2 + mu_y' - mu_y) / 2
    {del} or {del, ins}:      1 / (1 - mu_y' + mu_y)
    {ins}:                    1 + mu_y' - mu_y

Floors are never taken on raw logarithms alone: a final check in exact
rational arithmetic rejects off-by-one radii at boundary margins, since
an overstated radius would be a soundness bug.

Deletion draws come from :func:`~delcert.mechanisms.deletion_keep_matrix`.
:class:`SmoothedPredictor` is the smoothed classifier as a
:class:`~delcert.classifier.BaseClassifier`, so that it can be attacked
like any base model.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.stats import beta as _beta

from .classifier import BaseClassifier, BuiltinModel, classify_texts
from .edit_metrics import (
    ALL_OPS_SETS,
    FULL_OPS,
    CardinalityParams,
    EditDecomposition,
    EditOpsSet,
    lev_ball_cardinality_lower_bound,
)
from .mechanisms import MechanismKind, MechanismParams, deletion_keep_matrix, sample_masking
from .rng import RandomStream, text_fingerprint
from .tokenization import Scheme, TokenSeq, detokenize, tokenize

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


@dataclass(frozen=True)
class ScoreEstimate:
    """Per-class vote counts from one Monte Carlo batch."""

    counts: tuple[int, ...]
    num_samples: int

    def __post_init__(self) -> None:
        if sum(self.counts) != self.num_samples:
            raise ValueError("vote counts must sum to num_samples")

    @property
    def fractions(self) -> tuple[float, ...]:
        return tuple(c / self.num_samples for c in self.counts)


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


def _distinct_rows(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a boolean matrix and each row's index among them."""
    if keep.shape[1] == 0:
        return keep[:1], np.zeros(keep.shape[0], dtype=np.intp)
    packed = np.packbits(keep, axis=1)
    # one opaque bytes item per row: np.unique on it is several times
    # faster than np.unique(axis=0)
    rows = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return keep[first], inverse


def _deletion_labels(model: BaseClassifier, x: TokenSeq, keep: np.ndarray) -> np.ndarray:
    """The label of each draw, each distinct kept-token text classified once."""
    distinct, inverse = _distinct_rows(keep)
    # every row's kept tokens in one flat list, row after row
    kept = np.array(x.tokens, dtype=object)[np.nonzero(distinct)[1]].tolist()
    ends = np.cumsum(distinct.sum(axis=1)).tolist()
    sep = x.scheme.separator
    texts = [sep.join(kept[start:end]) for start, end in zip([0] + ends, ends)]
    return classify_texts(model, texts)[inverse]


def vote_counts(
    model: BaseClassifier,
    x: TokenSeq,
    mech: MechanismParams,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Class histogram of the base classifier over ``n_samples`` draws.

    For the built-in model under deletion noise the votes are computed
    through one keep-matrix product instead of materializing texts; the
    draws consumed from ``rng`` are identical either way.  Any other
    classifier sees each distinct text once per call (see
    :func:`~delcert.classifier.classify_texts`).
    """
    num_classes = model.num_classes
    if mech.kind is MechanismKind.DELETION:
        keep = deletion_keep_matrix(n_samples, len(x), mech.rate, rng)
        if isinstance(model, BuiltinModel) and model.scheme == x.scheme:
            rows = model.token_rows(x.tokens)
            contrib = model.log_likelihood[rows]  # (n, C)
            scores = keep.astype(np.float64) @ contrib + model.log_prior
            labels = np.argmax(scores, axis=1)
            return np.bincount(labels, minlength=num_classes)
        labels = _deletion_labels(model, x, keep)
    else:
        texts = [
            detokenize(sample_masking(x, mech.rate, mech.mask_token, rng))
            for _ in range(n_samples)
        ]
        labels = classify_texts(model, texts)
    return np.bincount(labels, minlength=num_classes)


def smoothed_predict(
    model: BaseClassifier,
    x: TokenSeq,
    mech: MechanismParams,
    n_samples: int,
    rng: np.random.Generator,
) -> tuple[int, ScoreEstimate]:
    """Majority vote over perturbed copies; ties go to the lowest class."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    counts = vote_counts(model, x, mech, n_samples, rng)
    est = ScoreEstimate(tuple(int(c) for c in counts), n_samples)
    return int(np.argmax(counts)), est


# ---------------------------------------------------------------------------
# Confidence bounds
# ---------------------------------------------------------------------------


def clopper_pearson_lower(successes: int, n: int, level: float) -> float:
    """One-sided exact lower bound holding with confidence ``1 - level``."""
    if not 0 <= successes <= n:
        raise ValueError("successes out of range")
    if successes == 0:
        return 0.0
    return float(_beta.ppf(level, successes, n - successes + 1))


def clopper_pearson_upper(successes: int, n: int, level: float) -> float:
    """One-sided exact upper bound holding with confidence ``1 - level``."""
    if not 0 <= successes <= n:
        raise ValueError("successes out of range")
    if successes == n:
        return 1.0
    return float(_beta.ppf(1.0 - level, successes + 1, n - successes))


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


def pairwise_bounds(
    p_y_at_x: float, dec: EditDecomposition, p_del: float
) -> tuple[float, float]:
    """Bounds on a class score at a neighbor, given its score at ``x``.

    ``dec`` decomposes the transformation of the *neighbor into x*.
    Values are intentionally not clipped to [0, 1]; clipping is a
    report-time choice.
    """
    _check_p_del(p_del)
    shift = p_del ** (dec.n_del - dec.n_ins)
    lower = shift * (p_y_at_x - 1.0 + p_del ** (dec.n_sub + dec.n_ins))
    upper = shift * p_y_at_x + 1.0 - p_del ** (dec.n_sub + dec.n_del)
    return lower, upper


def _radius_threshold(mu_y: Fraction, mu_yprime: Fraction, ops: EditOpsSet) -> Fraction:
    if ops.allow_sub:
        return (2 + mu_yprime - mu_y) / 2
    if ops.allow_del:
        return 1 / (1 - mu_yprime + mu_y)
    return 1 + mu_yprime - mu_y


def radius_from_margin(
    mu_y: float, mu_yprime: float, p_del: float, ops: EditOpsSet = FULL_OPS
) -> int:
    """Largest radius ``r`` with ``p_del**r`` strictly above the ops threshold.

    Returns 0 when the bounds cross.  The float logarithm only seeds the
    search; acceptance of ``r`` is decided in exact rational arithmetic.
    """
    _check_p_del(p_del)
    for v in (mu_y, mu_yprime):
        if not 0.0 <= v <= 1.0:
            raise ValueError("score bounds must lie in [0, 1]")
    if mu_y < mu_yprime:
        return 0
    t = _radius_threshold(Fraction(mu_y), Fraction(mu_yprime), ops)
    if t <= 0:
        return UNBOUNDED_RADIUS
    if t >= 1:
        return 0
    p = Fraction(p_del)
    log_t = math.log(t.numerator) - math.log(t.denominator)
    log_p = math.log(p.numerator) - math.log(p.denominator)
    r = max(0, math.floor(log_t / log_p))
    while r > 0 and p**r <= t:
        r -= 1
    while r < UNBOUNDED_RADIUS and p ** (r + 1) > t:
        r += 1
    return r


def certified_radius(bounds: ScoreBounds, p_del: float, ops: EditOpsSet = FULL_OPS) -> int:
    return radius_from_margin(bounds.mu_y, bounds.mu_yprime, p_del, ops)


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
    """
    if mech.kind is not MechanismKind.DELETION:
        raise ValueError("certificates are only defined for the deletion mechanism")
    _check_p_del(mech.rate)
    if isinstance(stream, int):
        stream = RandomStream(stream)
    pred_label, pred_est = smoothed_predict(
        model, x, mech, n_pred, stream.child(_PRED_STREAM).generator()
    )
    cert_counts = vote_counts(model, x, mech, n_cert, stream.child(_CERT_STREAM).generator())
    cert_est = ScoreEstimate(tuple(int(c) for c in cert_counts), n_cert)
    bounds = score_bounds(cert_est, alpha, bound_mode)
    abstained = bounds.top_class != pred_label or bounds.mu_y < bounds.mu_yprime
    if abstained:
        radii = {ops: 0 for ops in ALL_OPS_SETS}
    else:
        radii = {
            ops: radius_from_margin(bounds.mu_y, bounds.mu_yprime, mech.rate, ops)
            for ops in ALL_OPS_SETS
        }
    cc = lev_ball_cardinality_lower_bound(
        CardinalityParams(length=len(x), radius=radii[FULL_OPS], vocab_size=vocab_size)
    )
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
        self.model = model
        self.mech = mech
        self.n_samples = n_samples
        self.stream = RandomStream(stream) if isinstance(stream, int) else stream
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

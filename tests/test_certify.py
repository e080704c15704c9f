import importlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import beta

import delcert.certify as certify_module
from delcert.attacks import AttackRecipe, Lexicon, run_attack
from delcert.certify import (
    UNBOUNDED_RADIUS,
    ScoreEstimate,
    SmoothedPredictor,
    _radius_search,
    _slice_texts,
    certify,
    clopper_pearson_lower,
    clopper_pearson_upper,
    radius_from_margin,
    score_bounds,
    smoothed_predict,
    vote_counts,
)
from delcert.classifier import BuiltinModel, LabeledDataset, classify_texts, train_builtin
from delcert.edit_metrics import (
    ALL_OPS_SETS,
    FULL_OPS,
    EditOpsSet,
    lev_ball_cardinality_lower_bound,
)
from delcert.mechanisms import MechanismKind, MechanismParams, deletion_keep_matrix
from delcert.rng import RandomStream
from delcert.tokenization import Scheme, TokenSeq, tokenize

from conftest import (
    ConstantClassifier,
    CountingClassifier,
    KeywordClassifier,
    ParityClassifier,
    marker_presence_dataset,
)
from witnesses import EditDecomposition, detokenize, pairwise_bounds, scores_for_tokens

DEL90 = MechanismParams(MechanismKind.DELETION, 0.9)
DEL50 = MechanismParams(MechanismKind.DELETION, 0.5)
SUB = EditOpsSet(False, False, True)
DELO = EditOpsSet(True, False, False)
INSO = EditOpsSet(False, True, False)
DI = EditOpsSet(True, True, False)


# -- Clopper-Pearson ---------------------------------------------------------


def test_cp_zero_failures_closed_form():
    got = clopper_pearson_lower(4000, 4000, 0.025)
    assert got == pytest.approx(0.025 ** (1 / 4000), abs=1e-12)
    assert got == pytest.approx(0.99908, abs=5e-6)


def test_cp_against_beta_quantiles():
    for k, n, g in ((10, 40, 0.05), (0, 10, 0.01), (7, 7, 0.1), (399, 400, 0.025)):
        lo = clopper_pearson_lower(k, n, g)
        hi = clopper_pearson_upper(k, n, g)
        if k > 0:
            assert lo == pytest.approx(float(beta.ppf(g, k, n - k + 1)))
        else:
            assert lo == 0.0
        if k < n:
            assert hi == pytest.approx(float(beta.ppf(1 - g, k + 1, n - k)))
        else:
            assert hi == 1.0
        assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes about a second to import; the bounds need only
    # scipy.special's betaincinv, which beta.ppf matches bit for bit
    src = os.path.dirname(os.path.dirname(importlib.import_module("delcert").__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, delcert; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# -- score_bounds ------------------------------------------------------------


def test_score_bounds_bonferroni():
    b = score_bounds(ScoreEstimate((4000, 0), 4000), 0.05)
    assert b.top_class == 0 and b.runner_up == 1
    assert b.mu_y == pytest.approx(0.025 ** (1 / 4000))
    assert b.mu_yprime == pytest.approx(1 - 0.025 ** (1 / 4000))


def test_score_bounds_complement_sums_to_one():
    b = score_bounds(ScoreEstimate((3000, 900, 100), 4000), 0.05, mode="complement")
    assert b.mu_y + b.mu_yprime == 1.0
    assert b.top_class == 0 and b.runner_up == 1


def test_score_bounds_tie_breaks_to_lowest_index():
    b = score_bounds(ScoreEstimate((5, 5, 5), 15), 0.05)
    assert b.top_class == 0 and b.runner_up == 1


def test_estimate_counts_must_sum():
    with pytest.raises(ValueError):
        ScoreEstimate((3, 3), 5)


# -- pairwise bounds ---------------------------------------------------------


def test_pairwise_zero_edits_collapse():
    dec = EditDecomposition(0, 0, 0, 0, 4)
    lo, hi = pairwise_bounds(0.73, dec, 0.9)
    assert lo == pytest.approx(0.73) and hi == pytest.approx(0.73)


def test_pairwise_single_substitution_example():
    dec = EditDecomposition(1, 0, 0, 1, 3)
    lo, hi = pairwise_bounds(1.0, dec, 0.9)
    assert lo == pytest.approx(0.9)
    assert hi == pytest.approx(1.1)  # intentionally unclipped


# -- certified radii ---------------------------------------------------------


def test_radius_examples():
    assert radius_from_margin(0.99908, 0.00092, 0.9, FULL_OPS) == 6
    assert radius_from_margin(0.95, 0.05, 0.9, FULL_OPS) == 5
    assert radius_from_margin(0.95, 0.05, 0.9, DELO) == 6
    assert radius_from_margin(0.95, 0.05, 0.9, DI) == 6
    assert radius_from_margin(0.95, 0.05, 0.9, INSO) == 21


def test_radius_equal_bounds_zero():
    for ops in ALL_OPS_SETS:
        assert radius_from_margin(0.4, 0.4, 0.9, ops) == 0


def test_radius_crossed_bounds_zero():
    for ops in ALL_OPS_SETS:
        assert radius_from_margin(0.3, 0.6, 0.9, ops) == 0


def test_radius_boundary_guard():
    # margin exactly 1 at p=0.5: 0.5**1 is not strictly above the threshold
    assert radius_from_margin(1.0, 0.0, 0.5, FULL_OPS) == 0
    assert radius_from_margin(1.0, 0.0, 0.5, DELO) == 0
    # a hair below the boundary certifies radius 1
    assert radius_from_margin(1.0, 0.0, 0.5 + 1e-9, FULL_OPS) == 1


def test_radius_unbounded_insertion_corner():
    assert radius_from_margin(1.0, 0.0, 0.5, INSO) == UNBOUNDED_RADIUS


def test_radius_exact_threshold_consistency():
    # acceptance of r is decided in exact rational arithmetic
    for mu in (0.9, 0.95, 0.99, 0.999):
        for p in (0.5, 0.8, 0.9, 0.95):
            for ops in ALL_OPS_SETS:
                r = radius_from_margin(mu, 1 - mu, p, ops)
                t = _threshold(Fraction(mu), Fraction(1 - mu), ops)
                P = Fraction(p)
                assert P**r > t
                assert not (P ** (r + 1) > t)


def _threshold(mu, mup, ops):
    if ops.allow_sub:
        return (2 + mup - mu) / 2
    if ops.allow_del:
        return 1 / (1 - mup + mu)
    return 1 + mup - mu


def test_radius_ordering_grid():
    grid = [i / 20 for i in range(21)]
    for mu in grid:
        for mup in grid:
            if mu < mup:
                continue
            full = radius_from_margin(mu, mup, 0.9, FULL_OPS)
            assert radius_from_margin(mu, mup, 0.9, SUB) == full
            rd = radius_from_margin(mu, mup, 0.9, DELO)
            assert radius_from_margin(mu, mup, 0.9, DI) == rd
            assert rd >= full
            assert radius_from_margin(mu, mup, 0.9, INSO) >= full


def test_radius_monotone_in_margin_and_rate():
    grid = [i / 20 for i in range(21)]
    for ops in ALL_OPS_SETS:
        for p in (0.5, 0.8, 0.9, 0.95):
            prev = -1
            for m in grid:
                r = radius_from_margin((1 + m) / 2, (1 - m) / 2, p, ops)
                assert r >= prev
                prev = r
        for m in (0.0, 0.25, 0.5, 0.75, 0.9):
            radii = [
                radius_from_margin((1 + m) / 2, (1 - m) / 2, p, ops)
                for p in (0.5, 0.8, 0.9, 0.95)
            ]
            assert radii == sorted(radii)


from hypothesis import assume, given, settings
from hypothesis import strategies as st

_SCORES = st.one_of(st.floats(0.0, 1.0), st.fractions(0, 1, max_denominator=10**12))


@given(_SCORES, _SCORES, st.floats(0.01, 0.999), st.sampled_from(ALL_OPS_SETS))
@settings(max_examples=300)
def test_radius_guard_property(mu, mup, p, ops):
    if mu < mup:
        assert radius_from_margin(mu, mup, p, ops) == 0
        return
    t = _threshold(Fraction(mu), Fraction(mup), ops)
    P = Fraction(p)
    # a radius of r takes powers of r * 53 bits on both sides, so the draws
    # beyond float scores and p <= 0.99 keep r <= 5,000 (at p 0.999 that
    # still reaches insertion-only radii above 1,000)
    widened = p > 0.99 or isinstance(mu, Fraction) or isinstance(mup, Fraction)
    assume(not widened or not 0 < t < 1
           or math.log(t.numerator) - math.log(t.denominator) > 5000 * math.log(p))
    r = radius_from_margin(mu, mup, p, ops)
    if t <= 0:
        assert r == UNBOUNDED_RADIUS
        return
    power = P**r
    if r > 0:
        assert power > t  # never overstated
    if r < UNBOUNDED_RADIUS:
        assert not (power * P > t)  # never understated


def _boundary_scores(t, ops):
    """Scores ``(mu_y, 0)`` whose threshold under ``ops`` is exactly ``t``,
    or None where that would need a margin above one."""
    if ops.allow_sub:
        margin = 2 - 2 * t
    elif ops.allow_del:
        margin = 1 / t - 1
    else:
        margin = 1 - t
    return (margin, Fraction(0)) if margin <= 1 else None


@pytest.mark.parametrize("p", [0.5, 0.75, 0.9, 0.99, 0.999])
def test_radius_exact_boundaries(p):
    # a threshold equal to p**r is not strictly below it: the radius is r - 1,
    # and the smallest step up in the margin gives r
    P = Fraction(p)
    checked = set()
    for ops in (FULL_OPS, DELO, INSO):
        for r in (1, 2, 3, 7, 20, 69, 300, 1100, 2000):
            scores = _boundary_scores(P**r, ops)
            if scores is None:
                continue
            mu, mup = scores
            assert _threshold(mu, mup, ops) == P**r
            assert radius_from_margin(mu, mup, p, ops) == r - 1
            tiny = P**r * (1 - P) / 10**6  # moves the threshold by less than p**(r-1) - p**r
            assert radius_from_margin(mu - tiny, mup, p, ops) == r - 1
            if mu + tiny <= 1:
                assert radius_from_margin(mu + tiny, mup, p, ops) == r
            checked.add((ops, r))
    assert {ops for ops, _ in checked} == {FULL_OPS, DELO, INSO}
    assert p < 0.99 or any(r > 1000 for _, r in checked)


def test_radius_exact_boundaries_in_floats():
    # insertion-only at p 0.5: mu 1 and mu' 2**-r put the threshold at p**r
    for r in (1, 2, 10, 52, 53, 54, 500, 1022, 1074):
        assert radius_from_margin(1.0, 2.0**-r, 0.5, INSO) == r - 1
    # any set with sub at p 15/16: the margin 2 - 2 p**r is a float for r <= 10
    for r in range(1, 11):
        mu = 2 - 2 * Fraction(15, 16) ** r
        assert Fraction(float(mu)) == mu
        for ops in (FULL_OPS, SUB):
            assert radius_from_margin(float(mu), 0.0, 0.9375, ops) == r - 1
    # del without sub at p 0.5: margin 1 puts the threshold at 1/2
    for ops in (DELO, DI):
        assert radius_from_margin(1.0, 0.0, 0.5, ops) == 0


def test_radius_scores_in_any_exact_type():
    for mu, mup in ((0.95, 0.05), (0.999, 0.0), (0.7, 0.3)):
        for p in (0.8, 0.99):
            for ops in ALL_OPS_SETS:
                r = radius_from_margin(mu, mup, p, ops)
                assert radius_from_margin(np.float64(mu), np.float64(mup), p, ops) == r
                assert radius_from_margin(Fraction(mu), Fraction(mup), np.float64(p), ops) == r


def test_certify_empty_input():
    cert = certify(
        ConstantClassifier(0),
        tokenize(""),
        DEL90,
        n_pred=50,
        n_cert=100,
        alpha=0.05,
        stream=RandomStream(0),
    )
    assert cert.predicted == 0
    assert cert.radius(FULL_OPS) >= 1
    assert cert.log10_cardinality_lb >= 0.0


def test_radius_p_del_validation():
    with pytest.raises(ValueError):
        radius_from_margin(0.9, 0.1, 0.0, FULL_OPS)
    with pytest.raises(ValueError):
        radius_from_margin(0.9, 0.1, 1.0, FULL_OPS)


# -- smoothed prediction -----------------------------------------------------


def test_constant_classifier_votes():
    label, est = smoothed_predict(
        ConstantClassifier(1), tokenize("a b c"), DEL90, 200, RandomStream(0).child(0).generator()
    )
    assert label == 1 and est.counts == (0, 200)


def test_rate_zero_equals_base_classifier():
    kw = KeywordClassifier()
    mech = MechanismParams(MechanismKind.DELETION, 0.0)
    for text in ("a b", "b c"):
        label, est = smoothed_predict(
            kw, tokenize(text), mech, 50, RandomStream(1).child(0).generator()
        )
        assert label == kw.classify_batch([text])[0]
        assert max(est.counts) == 50


def test_rate_zero_builtin_equals_base():
    data = marker_presence_dataset(80, seed=17)
    model = train_builtin(data, DEL90, stream=RandomStream(4))
    mech = MechanismParams(MechanismKind.DELETION, 0.0)
    for text, _ in data.items[:10]:
        label, est = smoothed_predict(
            model, tokenize(text), mech, 40, RandomStream(2).child(0).generator()
        )
        assert label == model.classify_batch([text])[0]
        assert max(est.counts) == 40


def test_masking_smoothed_prediction_runs():
    data = marker_presence_dataset(80, seed=18)
    model = train_builtin(data, MechanismParams(MechanismKind.MASKING, 0.3), stream=RandomStream(4))
    label, est = smoothed_predict(
        model,
        tokenize(data.items[0][0]),
        MechanismParams(MechanismKind.MASKING, 0.3),
        60,
        RandomStream(3).child(0).generator(),
    )
    assert est.num_samples == 60
    assert label in (0, 1)


def test_vote_fraction_matches_exact_score():
    # exact smoothed score of the keyword rule on a 2-token text at p=.5 is .5
    kw = KeywordClassifier()
    counts = vote_counts(kw, tokenize("a b"), DEL50, 10_000, RandomStream(2).child(0).generator())
    frac = counts[1] / 10_000
    sigma = math.sqrt(0.5 * 0.5 / 10_000)
    assert abs(frac - 0.5) <= 3 * sigma


def _reference_votes(model, x, mech, n_samples, rng):
    """The text path one draw at a time: a text per draw, built token by
    token and scored on its own.  Returns the votes and the texts."""
    keep = deletion_keep_matrix(n_samples, len(x), mech.rate, rng)
    texts = [detokenize(TokenSeq([t for t, k in zip(x.tokens, row) if k], x.scheme)) for row in keep]
    labels = [int(np.argmax(scores_for_tokens(model, tokenize(t).tokens))) for t in texts]
    return np.bincount(labels, minlength=model.num_classes), texts, keep


def test_fast_path_matches_text_path():
    data = marker_presence_dataset(120, seed=13)
    model = train_builtin(data, DEL90, stream=RandomStream(4))
    forty = " ".join(f"film{j % 10}" for j in range(39)) + " good"
    repeated = "film1 good film1 film1 good film2 film1 good"
    texts = {"data": data.items[1][0], "empty": "", "one": "good", "forty": forty,
             "repeated": repeated}
    counting = CountingClassifier(model)
    for (name, text), p_del in itertools.product(texts.items(), (0.5, 0.9, 0.99)):
        case = f"{name} at p_del {p_del}"
        x = tokenize(text)
        mech = MechanismParams(MechanismKind.DELETION, p_del)

        def rng():
            return RandomStream(11).child(0).generator()

        # 3000 draws span eight slices: dedup and order hold across slices
        fast = vote_counts(model, x, mech, 3000, rng())
        counting.reset()
        slow = vote_counts(counting, x, mech, 3000, rng())
        ref, ref_texts, keep = _reference_votes(model, x, mech, 3000, rng())
        assert np.array_equal(fast, ref), case
        assert np.array_equal(slow, ref), case
        assert counting.seen == set(ref_texts), case
        # each distinct text reaches the model once, in the order the draws
        # first produce it
        assert counting.order == list(dict.fromkeys(ref_texts)), case
        if name == "repeated":  # distinct patterns that give equal texts
            assert len({row.tobytes() for row in keep}) > len(set(ref_texts)), case


def _peak_bytes(call):
    """Peak traced bytes during ``call()``; numpy reports its buffers to
    tracemalloc, so this counts every array a vote allocates."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fast_path_vote_holds_keep_matrix_and_one_slice():
    # beyond the keep matrix (a byte per draw and token) a fast-path vote
    # holds one sampling block and one 512-row float slice, not a float
    # copy of the whole matrix
    data = marker_presence_dataset(120, seed=13)
    model = train_builtin(data, DEL90, stream=RandomStream(4))
    x = tokenize(" ".join(f"film{j % 10} good" for j in range(100)))
    mech = MechanismParams(MechanismKind.DELETION, 0.99)
    rng = RandomStream(5).child(0).generator()
    vote_counts(model, x, mech, 10, rng)  # the model's cached arrays
    keep_bytes = 4000 * len(x)
    assert _peak_bytes(lambda: vote_counts(model, x, mech, 4000, rng)) < 3 * keep_bytes


def test_masking_text_path_vote_holds_keep_matrix_and_one_slice():
    # the cells of one 512-row slice are filled at a time, from an object
    # array rather than a new str per masked cell; every cell is masked, so
    # all draws give one text and the texts themselves take no room
    x = tokenize("ab" * 100, Scheme.CHARACTER)
    mech = MechanismParams(MechanismKind.MASKING, 1.0)
    rng = RandomStream(5).child(0).generator()
    counts = []
    peak = _peak_bytes(lambda: counts.append(vote_counts(ConstantClassifier(1), x, mech, 4000, rng)))
    assert counts[0].tolist() == [0, 4000]
    assert peak < 3 * 4000 * len(x)


_WORDS = st.sampled_from(["a", "b", "ab", "x9", "\u00e9t\u00e9"])
_CHARS = st.sampled_from(["a", "b", " ", "\n", "\t", "\x0b", "\x0c", "\r", "\x00", "\u2588"])


@given(data=st.data(), scheme=st.sampled_from(Scheme), seed=st.integers(0, 2**32 - 1),
       draws=st.integers(0, 1100), p_keep=st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_slice_texts_equal_per_row_joins(data, scheme, seed, draws, p_keep):
    # repeated tokens, control characters (newline among them) and the empty
    # input; all-kept and all-deleted rows are set at random places
    tokens = data.draw(st.lists(_WORDS if scheme is Scheme.WHITESPACE else _CHARS, max_size=30))
    x = TokenSeq(tokens, scheme)
    rng = np.random.default_rng(seed)
    keep = rng.random((draws, len(x))) < p_keep
    if draws:
        keep[rng.integers(draws)] = True
        keep[rng.integers(draws)] = False
    sep = scheme.separator
    for fill in (None, scheme.mask_token):
        texts = [t for batch in _slice_texts(x, keep, fill) for t in batch]
        ref = [sep.join(t if k else fill for t, k in zip(x.tokens, row) if k or fill)
               for row in keep]
        assert texts == ref, fill


def test_text_path_slices_grow_from_64_draws():
    x = tokenize("a b c")
    keep = deletion_keep_matrix(2000, len(x), 0.5, RandomStream(1).generator())
    for fill in (None, "[MASK]"):  # deletion and masking share the schedule
        sizes = [len(batch) for batch in _slice_texts(x, keep, fill)]
        assert sizes == [64, 128, 256, 512, 512, 512, 16], fill


def test_every_scorer_labels_the_tie_model_alike(monkeypatch):
    # a and b, c and d have mirrored class likelihoods and the priors are
    # equal, so a draw with as many a as b and c as d is an exact tie; the
    # fast path, a one-row product, the text path and one classify_batch call
    # must label every draw alike (ties to class 0), whatever their sum order
    model = BuiltinModel(Scheme.WHITESPACE, 2, np.array([5, 5]), ("a", "b", "c", "d"),
                         np.array([[1, 2], [2, 1], [4, 7], [7, 4]]))
    rng = np.random.default_rng(29)
    mech = MechanismParams(MechanismKind.DELETION, 0.5)
    for n in rng.integers(20, 121, size=20):
        x = TokenSeq(tuple(rng.choice(list("abcd"), size=n)), Scheme.WHITESPACE)
        keep = deletion_keep_matrix(4000, n, 0.5, rng)
        contrib = model.log_likelihood[model.token_rows(x.tokens)]
        one_row = [int(np.argmax(row @ contrib + model.log_prior)) for row in keep.astype(float)]
        text_path = classify_texts(model, _slice_texts(x, keep, None)).tolist()
        texts = [t for batch in _slice_texts(x, keep, None) for t in batch]
        assert text_path == one_row == model.classify_batch(texts)
        monkeypatch.setattr(certify_module, "deletion_keep_matrix", lambda *a: keep)
        fast = vote_counts(model, x, mech, 4000, rng)
        assert fast.tolist() == np.bincount(one_row, minlength=2).tolist()


def test_exact_scores_refuse_an_input_too_long_to_sum_exactly():
    model = BuiltinModel(Scheme.WHITESPACE, 2, np.array([1, 3]), ("a", "b"),
                         np.array([[0, 2], [3, 1]]))
    row, prior = model._score_units
    assert (model.log_likelihood * 2**24 % 1 == 0).all() and row > 0
    model.check_exact((2**53 - prior - 1) // row)  # the longest input still exact
    with pytest.raises(ValueError, match="too long to score exactly"):
        model.check_exact((2**53 - prior - 1) // row + 1)


# -- full certification ------------------------------------------------------


def test_certify_constant_classifier_defaults():
    cert = certify(
        ConstantClassifier(0),
        tokenize("one two three"),
        DEL90,
        n_pred=1000,
        n_cert=4000,
        alpha=0.05,
        stream=RandomStream(0),
    )
    assert cert.predicted == 0
    assert not cert.abstained
    assert cert.radius(FULL_OPS) == 6
    assert cert.radius(SUB) == 6
    assert cert.radius(DELO) == cert.radius(DI) >= 6
    assert cert.radius(INSO) >= 6
    assert cert.log10_cardinality_lb > 0


def test_certify_coin_classifier_abstains():
    # both classes hold exactly half the mass, so the bounds cross
    cert = certify(
        ParityClassifier(),
        tokenize(" ".join(f"t{i}" for i in range(40))),
        DEL50,
        n_pred=101,
        n_cert=400,
        alpha=0.05,
        stream=RandomStream(0),
    )
    assert cert.abstained
    assert all(r == 0 for r in cert.radius_by_ops.values())
    assert cert.log10_cardinality_lb == 0.0


def test_certify_requires_deletion_mechanism():
    with pytest.raises(ValueError):
        certify(
            ConstantClassifier(0),
            tokenize("a"),
            MechanismParams(MechanismKind.MASKING, 0.5),
            stream=RandomStream(0),
        )


def test_certify_reproducible_and_seed_sensitive():
    kw = KeywordClassifier()
    x = tokenize("a b c d")
    c1 = certify(kw, x, DEL50, 200, 400, 0.05, RandomStream(5))
    c2 = certify(kw, x, DEL50, 200, 400, 0.05, RandomStream(5))
    assert c1 == c2
    c3 = certify(kw, x, DEL50, 200, 400, 0.05, RandomStream(6))
    assert c3.certification_estimate != c1.certification_estimate


def test_numpy_integer_seeds_equal_int_seeds():
    data = marker_presence_dataset(30, seed=17)
    model = train_builtin(data, DEL90, stream=np.int64(4))
    assert model.to_json() == train_builtin(data, DEL90, stream=4).to_json()
    x = tokenize("a b c d")
    assert certify(model, x, DEL50, 50, 100, 0.05, np.int64(3)) == certify(
        model, x, DEL50, 50, 100, 0.05, 3
    )
    texts = ["a b c d", "b c", "c a b"]
    by_numpy = SmoothedPredictor(model, DEL50, n_samples=25, stream=np.uint8(3))
    by_int = SmoothedPredictor(model, DEL50, n_samples=25, stream=3)
    assert by_numpy.classify_batch(texts) == by_int.classify_batch(texts)


def test_certify_rejects_empty_sample_counts():
    for n_pred, n_cert in ((0, 10), (10, 0), (10, -1)):
        with pytest.raises(ValueError, match="must be >= 1"):
            certify(ConstantClassifier(0), tokenize("a b"), DEL50, n_pred, n_cert, 0.05, 0)


_MEMOIZED = (clopper_pearson_lower, clopper_pearson_upper, _radius_search,
             lev_ball_cardinality_lower_bound)


def _clear_certificate_caches():
    for memoized in _MEMOIZED:
        assert memoized.cache_info().maxsize is not None  # bounded
        memoized.cache_clear()


def test_certificates_equal_with_cold_and_warm_caches():
    data = marker_presence_dataset(80, seed=17)
    model = train_builtin(data, DEL90, stream=RandomStream(4))
    texts = [text for text, _ in data.items[:6]] + ["good", "", "film1 film2"]
    runs = []
    for clear in (True, False, True):
        if clear:
            _clear_certificate_caches()
        misses = [memoized.cache_info().misses for memoized in _MEMOIZED]
        runs.append([certify(model, tokenize(t), DEL90, 200, 800, 0.05, RandomStream(9))
                     for t in texts])
        if not clear:  # the warm run computed nothing afresh
            assert [memoized.cache_info().misses for memoized in _MEMOIZED] == misses
    assert runs[0] == runs[1] == runs[2]
    assert any(not c.abstained and c.radius(FULL_OPS) > 0 for c in runs[0])


def test_memoized_bounds_equal_uncached_values():
    _clear_certificate_caches()
    for _ in range(2):  # cold, then warm
        for n in (1, 2, 7, 40):
            for k in range(n + 1):
                for level in (0.005, 0.025, 0.05):
                    for memoized in (clopper_pearson_lower, clopper_pearson_upper):
                        assert memoized(k, n, level) == memoized.__wrapped__(k, n, level)
        for n in range(8):
            for r in range(6):
                for v in (1, 2, 3, 50265):
                    assert lev_ball_cardinality_lower_bound(n, v, r) == (
                        lev_ball_cardinality_lower_bound.__wrapped__(n, v, r))
        for num, den in ((1, 2), (3, 4), (999, 1000), (1, 10**6), (2**52, 2**53 + 1)):
            for p in (0.5, 0.9, 0.99, 0.999):
                assert _radius_search(num, den, p) == _radius_search.__wrapped__(num, den, p)
    assert clopper_pearson_lower.cache_info().hits > 0
    assert lev_ball_cardinality_lower_bound.cache_info().hits > 0


# -- the smoothed classifier as a target ----------------------------------------


def test_smoothed_predictor_keyed_on_text():
    kw = KeywordClassifier()
    pred = SmoothedPredictor(kw, DEL50, n_samples=25, stream=RandomStream(3))
    a = [pred.predict("a b c") for _ in range(5)]
    assert len(set(a)) == 1
    assert pred.classify_batch(["a b c", "b c"]) == [pred.predict("a b c"), pred.predict("b c")]


def test_vote_counts_samples_through_module_attribute(monkeypatch):
    # a benchmark traces the sampler by rebinding certify.deletion_keep_matrix
    calls = []

    def counted(*args):
        calls.append(args[:3])
        return deletion_keep_matrix(*args)

    monkeypatch.setattr(certify_module, "deletion_keep_matrix", counted)
    x = tokenize("a b c")
    rng = RandomStream(1).generator()
    vote_counts(KeywordClassifier(), x, DEL50, 30, rng)
    certify(KeywordClassifier(), x, DEL50, 20, 40, 0.05, RandomStream(2))
    assert calls == [(30, 3, 0.5), (20, 3, 0.5), (40, 3, 0.5)]


def test_smoothed_predictor_rejects_empty_sample_count():
    for n in (0, -3):
        with pytest.raises(ValueError, match="must be >= 1"):
            SmoothedPredictor(KeywordClassifier(), DEL50, n_samples=n)


class _RecordingClassifier(KeywordClassifier):
    """A keyword rule with ``send``, as an external classifier has: it logs
    each request sent and each collection of its labels to ``log``."""

    def __init__(self, log: list):
        super().__init__()
        self.log = log

    def send(self, texts):
        self.log.append(("send", list(texts)))

        def collect():
            self.log.append(("collect", len(texts)))
            return self.classify_batch(texts)

        return collect


def _log_calls(monkeypatch, log: list, *names: str) -> None:
    """Rebinds each named attribute of delcert.certify, as a tracer does, to
    a wrapper that logs ``("enter", name)`` and ``("exit", name)``."""
    for name in names:
        def wrapper(*args, _fn=getattr(certify_module, name), _name=name, **kwargs):
            log.append(("enter", _name))
            try:
                return _fn(*args, **kwargs)
            finally:
                log.append(("exit", _name))

        monkeypatch.setattr(certify_module, name, wrapper)


def test_certify_sends_both_batches_through_one_pipeline(monkeypatch):
    # the certification keep matrix is sampled, and its first request sent,
    # before any prediction label is collected; a text that both batches
    # draw reaches the classifier once, and the certificate is unchanged
    x = tokenize("a b c d e f")
    ref = certify(KeywordClassifier(), x, DEL90, 300, 1200, 0.05, RandomStream(7))
    log = []
    _log_calls(monkeypatch, log, "deletion_keep_matrix")
    assert certify(_RecordingClassifier(log), x, DEL90, 300, 1200, 0.05, RandomStream(7)) == ref
    sent = [t for op, texts in log if op == "send" for t in texts]
    assert len(sent) == len(set(sent))
    streams = ((300, certify_module._PRED_STREAM), (1200, certify_module._CERT_STREAM))
    pred, cert = [{" ".join(itertools.compress(x.tokens, row)) for row in deletion_keep_matrix(
        n, len(x), 0.9, RandomStream(7).child(purpose).generator())} for n, purpose in streams]
    assert set(sent) == pred | cert and pred & cert
    ops = [op for op, _ in log]
    cert_sampled = [i for i, e in enumerate(log) if e == ("enter", "deletion_keep_matrix")][1]
    assert ops.index("send", cert_sampled) < ops.index("collect")


def test_certify_reaches_every_name_a_tracer_rebinds(monkeypatch):
    # perfbench's traced runs rebind these names; they count a classifier's
    # texts as certify's when its labels are collected inside vote_counts
    names = ("smoothed_predict", "vote_counts", "deletion_keep_matrix")
    log = []
    _log_calls(monkeypatch, log, *names)
    model = train_builtin(marker_presence_dataset(40, seed=3), DEL90, stream=RandomStream(1))
    certify(model, tokenize("film1 good film2 film3"), DEL90, 100, 400, 0.05, RandomStream(2))
    assert {name for op, name in log if op == "enter"} == set(names)
    log.clear()
    certify(_RecordingClassifier(log), tokenize("a b c"), DEL90, 100, 400, 0.05, RandomStream(2))
    open_calls, collected = [], 0
    for op, detail in log:
        if op == "enter":
            open_calls.append(detail)
        elif op == "exit":
            open_calls.pop()
        elif op == "collect":
            assert open_calls[-1] == "vote_counts"
            collected += 1
    assert collected


def _keyword_predictor():
    return SmoothedPredictor(KeywordClassifier(), DEL50, n_samples=25, stream=RandomStream(3))


def test_smoothed_predictor_memo_matches_fresh_predictors():
    texts = ["a a a b", "b c", "a b c", "b c", "c a", "a a a b", "a", "c a", "b", "a b c"]
    pred = _keyword_predictor()
    labels = [pred.predict(t) for t in texts]
    assert labels == [_keyword_predictor().predict(t) for t in texts]
    assert set(labels) == {0, 1}


def test_smoothed_predictor_memo_computes_each_text_once_until_evicted(monkeypatch):
    computed = []

    def counted(model, x, *rest):
        computed.append(detokenize(x))
        return smoothed_predict(model, x, *rest)

    monkeypatch.setattr(certify_module, "smoothed_predict", counted)
    pred = SmoothedPredictor(ConstantClassifier(1), DEL50, n_samples=1)
    texts = [f"t{i}" for i in range(1024)]
    for t in texts + texts:
        assert pred.predict(t) == 1
    assert computed == texts  # 1,024 distinct texts all stay
    pred.predict("t1024")  # evicts the least recently queried text, t0
    pred.predict("t0")  # evicts t1
    pred.predict("t2")
    assert computed == texts + ["t1024", "t0"]


@pytest.mark.parametrize("jobs", [2, 4])
def test_smoothed_target_attack_parallel_matches_serial(jobs):
    data = LabeledDataset.from_pairs(
        [(f"a w{i} x{i}", 1) if i % 2 == 0 else (f"v{i} w{i} x{i}", 0) for i in range(12)], 2
    )
    recipe = AttackRecipe(kind="greedy_edit")
    lexicon = Lexicon({}, ("zz", "qq", "rr"))
    serial = run_attack(_keyword_predictor(), data, recipe, lexicon, jobs=1)
    shared = _keyword_predictor()  # one memo for every worker thread
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run_attack(shared, data, recipe, lexicon, jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    assert parallel.outcomes == serial.outcomes
    texts = [o.adversarial_text or o.original_text for o in serial.outcomes]
    assert shared.classify_batch(texts) == _keyword_predictor().classify_batch(texts)

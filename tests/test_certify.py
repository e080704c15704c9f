import importlib
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import beta

from delcert import (
    ALL_OPS_SETS,
    FULL_OPS,
    EditOpsSet,
    LabeledDataset,
    ScoreEstimate,
    certified_radius,
    certify,
    pairwise_bounds,
    radius_from_margin,
    score_bounds,
    smoothed_predict,
    tokenize,
    train_builtin,
)
from delcert.attacks import AttackRecipe, Lexicon, run_attack
from delcert.certify import (
    UNBOUNDED_RADIUS,
    SmoothedPredictor,
    clopper_pearson_lower,
    clopper_pearson_upper,
    vote_counts,
)
from delcert.edit_metrics import EditDecomposition
from delcert.mechanisms import MechanismKind, MechanismParams, deletion_keep_matrix
from delcert.rng import RandomStream
from delcert.tokenization import detokenize

from conftest import (
    ConstantClassifier,
    CountingClassifier,
    KeywordClassifier,
    ParityClassifier,
    marker_presence_dataset,
)

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


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(0.01, 0.99),
    st.sampled_from(ALL_OPS_SETS),
)
@settings(max_examples=300)
def test_radius_guard_property(mu, mup, p, ops):
    r = radius_from_margin(mu, mup, p, ops)
    if mu < mup:
        assert r == 0
        return
    t = _threshold(Fraction(mu), Fraction(mup), ops)
    P = Fraction(p)
    if t <= 0:
        assert r == UNBOUNDED_RADIUS
        return
    if r > 0:
        assert P**r > t  # never overstated
    if r < UNBOUNDED_RADIUS:
        assert not (P ** (r + 1) > t)  # never understated


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
    texts = [detokenize(x.replace_tokens([t for t, k in zip(x.tokens, row) if k])) for row in keep]
    labels = [int(np.argmax(model.scores_for_tokens(tokenize(t).tokens))) for t in texts]
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

        # 3000 draws: 40 tokens at p_del 0.5 give more distinct texts than one chunk
        fast = vote_counts(model, x, mech, 3000, rng())
        counting.reset()
        slow = vote_counts(counting, x, mech, 3000, rng())
        ref, ref_texts, keep = _reference_votes(model, x, mech, 3000, rng())
        assert np.array_equal(fast, ref), case
        assert np.array_equal(slow, ref), case
        assert counting.seen == set(ref_texts), case
        if name == "repeated":  # distinct patterns that give equal texts
            assert len({row.tobytes() for row in keep}) > len(set(ref_texts)), case


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


def test_certified_radius_wrapper():
    b = score_bounds(ScoreEstimate((4000, 0), 4000), 0.05)
    assert certified_radius(b, 0.9, FULL_OPS) == 6


# -- the smoothed classifier as a target ----------------------------------------


def test_smoothed_predictor_keyed_on_text():
    kw = KeywordClassifier()
    pred = SmoothedPredictor(kw, DEL50, n_samples=25, stream=RandomStream(3))
    a = [pred.predict("a b c") for _ in range(5)]
    assert len(set(a)) == 1
    assert pred.classify_batch(["a b c", "b c"]) == [pred.predict("a b c"), pred.predict("b c")]


def test_vote_counts_samples_through_module_attribute(monkeypatch):
    # a benchmark traces the sampler by rebinding certify.deletion_keep_matrix;
    # the package attribute delcert.certify is the function, not the module
    module = importlib.import_module("delcert.certify")
    calls = []

    def counted(*args):
        calls.append(args[:3])
        return deletion_keep_matrix(*args)

    monkeypatch.setattr(module, "deletion_keep_matrix", counted)
    x = tokenize("a b c")
    rng = RandomStream(1).generator()
    vote_counts(KeywordClassifier(), x, DEL50, 30, rng)
    certify(KeywordClassifier(), x, DEL50, 20, 40, 0.05, RandomStream(2))
    assert calls == [(30, 3, 0.5), (20, 3, 0.5), (40, 3, 0.5)]


def _keyword_predictor():
    return SmoothedPredictor(KeywordClassifier(), DEL50, n_samples=25, stream=RandomStream(3))


def test_smoothed_predictor_memo_matches_fresh_predictors():
    texts = ["a a a b", "b c", "a b c", "b c", "c a", "a a a b", "a", "c a", "b", "a b c"]
    pred = _keyword_predictor()
    labels = [pred.predict(t) for t in texts]
    assert labels == [_keyword_predictor().predict(t) for t in texts]
    assert set(labels) == {0, 1}


def test_smoothed_predictor_memo_computes_each_text_once_until_evicted(monkeypatch):
    module = importlib.import_module("delcert.certify")
    computed = []

    def counted(model, x, *rest):
        computed.append(detokenize(x))
        return smoothed_predict(model, x, *rest)

    monkeypatch.setattr(module, "smoothed_predict", counted)
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

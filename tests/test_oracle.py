import math
from fractions import Fraction

import pytest

from delcert import (
    FULL_OPS,
    EditOpsSet,
    Scheme,
    TokenSeq,
    edit_decomposition,
    enumerate_ball,
    pairwise_bounds,
    tokenize,
)
from delcert.certify import radius_from_margin, vote_counts
from delcert.errors import GuardError
from delcert.mechanisms import MechanismKind, MechanismParams
from delcert.oracle import (
    alignment_witness,
    exact_smoothed_scores,
    verify_certificate,
)
from delcert.rng import RandomStream

from conftest import ConstantClassifier, CountingClassifier, KeywordClassifier, seqs

W = Scheme.WHITESPACE


def test_rate_zero_is_one_hot():
    kw = KeywordClassifier("good")
    s = exact_smoothed_scores(kw, tokenize("good movie"), 0.0)
    assert s.probs == (0.0, 1.0)


def test_keyword_half_example():
    kw = KeywordClassifier("good")
    s = exact_smoothed_scores(kw, tokenize("good movie"), 0.5)
    assert s.probs[1] == pytest.approx(0.5)
    assert s.probs[0] == pytest.approx(0.5)


def test_scores_sum_to_one():
    kw = KeywordClassifier()
    for p in (0.1, 0.5, 0.9):
        s = exact_smoothed_scores(kw, tokenize("a b a c a"), p)
        assert sum(s.probs) == pytest.approx(1.0, abs=1e-12)


def test_fraction_mode_exact():
    kw = KeywordClassifier("good")
    s = exact_smoothed_scores(kw, tokenize("good movie"), 0.5, method="fraction")
    assert s.probs == (Fraction(1, 2), Fraction(1, 2))
    assert sum(s.probs) == 1


def test_guards():
    kw = KeywordClassifier()
    with pytest.raises(GuardError):
        exact_smoothed_scores(kw, TokenSeq(("t",) * 19, W), 0.5)


class TokenSumClassifier:
    """Three classes: the weighted token count ``#a + 2 #b`` modulo 3."""

    num_classes = 3

    def classify_batch(self, texts):
        return [sum({"a": 1, "b": 2}.get(t, 0) for t in text.split()) % 3 for text in texts]


@pytest.mark.parametrize("model", [KeywordClassifier("a"), TokenSumClassifier()],
                         ids=["keyword", "three-class"])
def test_float_scores_are_rounded_fractions(model):
    for x in seqs(["a", "b", "c"], 6):
        for p in (0.5, 0.8, 0.9):
            q = exact_smoothed_scores(model, x, p, method="fraction").probs
            assert sum(q) == 1
            assert exact_smoothed_scores(model, x, p).probs == tuple(float(v) for v in q)


def test_guard_maximum_runs():
    x = TokenSeq(tuple("abc" * 6), W)  # 18 tokens, six of them the marker
    s = exact_smoothed_scores(KeywordClassifier("a"), x, 0.5)
    assert s.n == 18
    assert s.probs == (1 / 64, 63 / 64)  # class 0 iff every marker is deleted
    exact = exact_smoothed_scores(KeywordClassifier("a"), x, 0.5, method="fraction")
    assert exact.probs == (Fraction(1, 64), Fraction(63, 64))


def test_invariant_to_unconsulted_tokens():
    kw = KeywordClassifier("a")
    s1 = exact_smoothed_scores(kw, tokenize("a x y"), 0.7)
    s2 = exact_smoothed_scores(kw, tokenize("a p q"), 0.7)
    assert s1.probs == pytest.approx(s2.probs)


def test_monte_carlo_consistent_with_exact():
    kw = KeywordClassifier("a")
    x = tokenize("a b a c")
    p = 0.6
    exact = exact_smoothed_scores(kw, x, p).probs[1]
    counts = vote_counts(
        kw, x, MechanismParams(MechanismKind.DELETION, p), 10_000,
        RandomStream(8).child(0).generator(),
    )
    frac = counts[1] / 10_000
    sigma = math.sqrt(exact * (1 - exact) / 10_000)
    assert abs(frac - exact) <= 3 * sigma


# -- alignment witnesses -----------------------------------------------------


def test_witness_identity():
    x = tokenize("a b c")
    w = alignment_witness(x, x)
    assert w.eps_star_src == (0, 0, 0)
    assert w.eps_star_dst == (0, 0, 0)
    assert w.common == x


def test_witness_example():
    w = alignment_witness(tokenize("x a b"), tokenize("a b y"))
    assert w.eps_star_src == (1, 0, 0)
    assert w.eps_star_dst == (0, 0, 1)
    assert w.common.tokens == ("a", "b")


def test_witness_popcount_identities_random():
    import random

    def kept(x, deleted):
        return tuple(tok for tok, d in zip(x.tokens, deleted, strict=True) if not d)

    rng = random.Random(17)
    for _ in range(1000):
        a = TokenSeq(tuple(rng.choice("abc") for _ in range(rng.randint(0, 6))), W)
        b = TokenSeq(tuple(rng.choice("abc") for _ in range(rng.randint(0, 6))), W)
        w = alignment_witness(a, b)
        dec = edit_decomposition(a, b)
        assert sum(w.eps_star_src) == dec.n_sub + dec.n_del
        assert sum(w.eps_star_dst) == dec.n_sub + dec.n_ins
        assert kept(a, w.eps_star_src) == w.common.tokens
        assert kept(b, w.eps_star_dst) == w.common.tokens


# -- pairwise bound containment (oracle-checked) ------------------------------


def test_exact_scores_respect_pairwise_bounds():
    kw = KeywordClassifier()
    universe = seqs(["a", "b"], 4)
    p = 0.7
    scores = {u.tokens: exact_smoothed_scores(kw, u, p).probs for u in universe}
    for nb in universe:
        for x in universe:
            dec = edit_decomposition(nb, x)
            if dec.distance > 3:
                continue
            for c in range(2):
                lo, hi = pairwise_bounds(scores[x.tokens][c], dec, p)
                assert lo - 1e-9 <= scores[nb.tokens][c] <= hi + 1e-9


# -- certificate verification -------------------------------------------------


def test_radius_zero_never_violates():
    kw = KeywordClassifier()
    assert verify_certificate(kw, tokenize("a b"), 0, FULL_OPS, ["a", "b"], 0.5) == []


def test_certified_radius_survives_brute_force():
    kw = KeywordClassifier()
    alphabet = ["a", "b"]
    for text in ("a b", "b b", "a a b"):
        x = tokenize(text)
        for p in (0.5, 0.8):
            s = exact_smoothed_scores(kw, x, p)
            r = radius_from_margin(s.probs[s.argmax], s.probs[s.runner_up()], p, FULL_OPS)
            r = min(r, 8 - len(x))
            assert verify_certificate(kw, x, r, FULL_OPS, alphabet, p) == []


def test_inflated_radius_caught():
    # one inserted marker flips the no-marker prediction at p=.5; an
    # overstated radius must surface violations
    kw = KeywordClassifier()
    x = tokenize("b b")
    s = exact_smoothed_scores(kw, x, 0.5)
    r = radius_from_margin(s.probs[s.argmax], s.probs[s.runner_up()], 0.5, FULL_OPS)
    assert r == 0  # margin is exactly one at the 0.5 boundary
    violations = verify_certificate(kw, x, r + 3, FULL_OPS, ["a", "b"], 0.5)
    assert violations
    assert all(exact_smoothed_scores(kw, v, 0.5).argmax != 0 for v in violations)


def test_verify_classifies_each_text_once():
    kw = KeywordClassifier()
    cases = (("b b", 3, FULL_OPS), ("a b", 2, FULL_OPS), ("b a", 2, EditOpsSet(False, True, True)))
    for text, r, ops in cases:
        x = tokenize(text)
        # CountingClassifier fails the call if any text reaches the model twice
        found = verify_certificate(CountingClassifier(kw), x, r, ops, ["a", "b", "c"], 0.5)
        assert found == verify_certificate(kw, x, r, ops, ["a", "b", "c"], 0.5)
        # the per-member reference: every member scored on its own
        top = exact_smoothed_scores(kw, x, 0.5).argmax
        members = sorted(enumerate_ball(x, r, ops, ["a", "b", "c"]), key=lambda m: m.tokens)
        assert found == [m for m in members if exact_smoothed_scores(kw, m, 0.5).argmax != top]


def test_constant_classifier_never_violates():
    const = ConstantClassifier(1)
    assert verify_certificate(const, tokenize("a b"), 3, FULL_OPS, ["a", "b"], 0.8) == []

import functools
import itertools
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from delcert import oracle
from delcert.certify import radius_from_margin, vote_counts
from delcert.edit_metrics import ALL_OPS_SETS, FULL_OPS, EditOpsSet, enumerate_ball
from delcert.errors import GuardError
from delcert.mechanisms import MechanismKind, MechanismParams
from delcert.oracle import (
    _DENSE_MAX_KEYS,
    _smoothed_scores,
    exact_smoothed_scores,
    verify_certificate,
)
from delcert.rng import RandomStream
from delcert.tokenization import Scheme, TokenSeq, tokenize

from conftest import ConstantClassifier, CountingClassifier, KeywordClassifier, seqs
from witnesses import alignment_witness, edit_decomposition, pairwise_bounds, pattern_probability

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


@pytest.mark.parametrize("p", [1.5, -0.5, math.nan])
def test_deletion_rate_outside_unit_interval_raises(p):
    kw = KeywordClassifier()
    x = tokenize("a b")
    with pytest.raises(ValueError, match="p_del"):
        exact_smoothed_scores(kw, x, p)
    with pytest.raises(ValueError, match="p_del"):
        verify_certificate(kw, x, 1, FULL_OPS, ["a", "b"], p)


def test_deletion_rate_one_deletes_everything():
    kw = KeywordClassifier()
    assert exact_smoothed_scores(kw, tokenize("a b"), 1.0).probs == (1.0, 0.0)
    assert verify_certificate(kw, tokenize("b"), 1, FULL_OPS, ["a", "b"], 1.0) == []


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


@functools.cache
def _pattern_masses(n, p):
    """Every deletion pattern on ``n`` tokens with its mass times ``den``,
    an integer for ``den`` the n-th power of ``p``'s denominator."""
    den = p.denominator**n
    masses = [(deleted, pattern_probability(deleted, p) * den)
              for deleted in itertools.product((0, 1), repeat=n)]
    assert all(mass.denominator == 1 for _, mass in masses)
    return [(deleted, int(mass)) for deleted, mass in masses], den


def _reference_probs(model, x, p):
    """Exact smoothed scores by a plain loop over all 2^n deletion patterns."""
    masses, den = _pattern_masses(len(x), p)
    nums = [0] * model.num_classes
    for deleted, mass in masses:
        kept = [tok for tok, d in zip(x.tokens, deleted) if not d]
        nums[model.classify_batch([x.scheme.separator.join(kept)])[0]] += mass
    return tuple(Fraction(v, den) for v in nums)


@pytest.mark.parametrize("model", [KeywordClassifier("a"), TokenSumClassifier()],
                         ids=["keyword", "three-class"])
def test_batched_scores_match_pattern_loop(model):
    rng = random.Random(7)
    alphabet = seqs(["a", "b", "c"], 6)
    empty = TokenSeq((), W)
    # ten tokens besides a and b that the verify alphabet lacks
    foreign = [TokenSeq(tuple(rng.choices("abdefghijklm", k=rng.randint(1, 6))), W)
               for _ in range(40)] + [empty, empty]
    chars = [tokenize(t, Scheme.CHARACTER) for t in ("a ba", "ab  c", "b\u0301a", "cab")]
    x = tokenize("a b b a")
    batches = [alphabet + [empty, x], foreign, chars, [empty, empty], [empty, x, empty, x, empty]]
    # the first batch is labelled through the dense table; the foreign
    # tokens make the key space too large for it
    assert 4**6 <= min(sum(2 ** len(s) for s in batches[0]), _DENSE_MAX_KEYS)
    vocab, n_max = {t for s in foreign for t in s}, max(map(len, foreign))
    assert (len(vocab) + 1) ** n_max > _DENSE_MAX_KEYS
    for p in (0.5, 0.8, 0.9):
        q = Fraction(p)
        for batch in batches:
            exact = _smoothed_scores(model, batch, p, exact=True)
            rounded = _smoothed_scores(model, batch, p, exact=False)
            for s, e, r in zip(batch, exact, rounded, strict=True):
                assert e.probs == _reference_probs(model, s, q), (s, p)
                assert r.probs == tuple(float(v) for v in e.probs)


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


def _per_member_reference(model, x, radius, ops, alphabet, p):
    """The violations of ``verify_certificate``, every member scored on its own."""
    top = exact_smoothed_scores(model, x, p).argmax
    members = sorted(enumerate_ball(x, radius, ops, alphabet), key=lambda m: m.tokens)
    return [m for m in members if exact_smoothed_scores(model, m, p).argmax != top]


def test_verify_classifies_each_text_once():
    kw = KeywordClassifier()
    cases = (("b b", 3, FULL_OPS), ("a b", 2, FULL_OPS), ("b a", 2, EditOpsSet(False, True, True)))
    for text, r, ops in cases:
        x = tokenize(text)
        # CountingClassifier fails the call if any text reaches the model twice
        found = verify_certificate(CountingClassifier(kw), x, r, ops, ["a", "b", "c"], 0.5)
        assert found == verify_certificate(kw, x, r, ops, ["a", "b", "c"], 0.5)
        assert found == _per_member_reference(kw, x, r, ops, ["a", "b", "c"], 0.5)


def test_constant_classifier_never_violates():
    const = ConstantClassifier(1)
    assert verify_certificate(const, tokenize("a b"), 3, FULL_OPS, ["a", "b"], 0.8) == []


@pytest.fixture
def ball_calls(monkeypatch):
    """The arguments of every ball the oracle enumerates, counted through
    the module name that perfbench's tracer also rebinds."""
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_ball(*args)

    monkeypatch.setattr(oracle, "enumerate_ball", counted)
    return calls


def _seven_ops_checks(model, x, p):
    """``(radius, ops)`` of every operation set: the certified radius, then
    that radius raised by two, each clipped as acceptance criterion 01
    clips them."""
    s = exact_smoothed_scores(model, x, p)
    checks = []
    for ops in ALL_OPS_SETS:
        r = radius_from_margin(s.probs[s.argmax], s.probs[s.runner_up()], p, ops)
        hi = 8 - len(x) if ops.allow_del else len(x)
        checks += [(min(r, hi), ops), (min(r + 2, hi), ops)]
    return checks


@pytest.mark.parametrize("model", [KeywordClassifier("a"), TokenSumClassifier()],
                         ids=["keyword", "three-class"])
def test_seven_ops_loop_matches_per_member_reference(model, ball_calls):
    x, p, alphabet = tokenize("a b c"), 0.5, ["a", "b", "c"]
    checks = _seven_ops_checks(model, x, p)
    counting = CountingClassifier(model)  # shared by every call: no text is classified twice
    found = [verify_certificate(counting, x, r, ops, alphabet, p) for r, ops in checks]
    assert found == [_per_member_reference(model, x, r, ops, alphabet, p) for r, ops in checks]
    assert any(found)  # the raised radii are overstated
    # a check enumerates only when no earlier check's ball holds its own
    fresh = [k for k, (r, ops) in enumerate(checks) if not any(
        r <= r0 and set(ops.letters) <= set(ops0.letters) for r0, ops0 in checks[:k])]
    assert [(r, ops) for _, r, ops, _ in ball_calls] == [checks[k] for k in fresh]
    # some answers were read off a ball with violations
    assert any(found[k] for k in range(len(checks)) if k not in fresh)
    # each distinct text of the union of the balls reached the model once
    union = {m for r, ops in checks for m in enumerate_ball(x, r, ops, alphabet)} | {x}
    texts = {" ".join(kept) for m in union for n in range(len(m) + 1)
             for kept in itertools.combinations(m.tokens, n)}
    assert sorted(counting.order) == sorted(texts)


def test_scores_are_not_reused_for_another_model():
    x, alphabet = tokenize("b b"), ["a", "b"]
    keyword, const = KeywordClassifier("a"), ConstantClassifier(0)
    expected = _per_member_reference(keyword, x, 2, FULL_OPS, alphabet, 0.5)
    assert expected
    for model, violations in ((keyword, expected), (const, []), (keyword, expected)):
        assert verify_certificate(model, x, 2, FULL_OPS, alphabet, 0.5) == violations
    # an equal classifier is another object: its texts are classified again
    for label in (0, 1):
        counting = CountingClassifier(ConstantClassifier(label))
        assert verify_certificate(counting, x, 2, FULL_OPS, alphabet, 0.5) == []
        assert "b b" in counting.order


def test_scores_are_not_reused_for_another_deletion_rate():
    kw, x, alphabet = KeywordClassifier("a"), tokenize("b b"), ["a", "b"]
    assert _per_member_reference(kw, x, 2, FULL_OPS, alphabet, 0.8) == []
    expected = _per_member_reference(kw, x, 2, FULL_OPS, alphabet, 0.5)
    assert expected
    for p, violations in ((0.8, []), (0.5, expected), (0.8, [])):
        assert verify_certificate(kw, x, 2, FULL_OPS, alphabet, p) == violations


def test_scores_are_kept_for_one_input():
    counting = CountingClassifier(KeywordClassifier("a"))
    x, y, alphabet = tokenize("a b"), tokenize("b b"), ["a", "b"]
    for z in (x, y, x):
        counting.reset()
        assert verify_certificate(counting, z, 1, FULL_OPS, alphabet, 0.5) == (
            _per_member_reference(counting.inner, z, 1, FULL_OPS, alphabet, 0.5))
        assert " ".join(z.tokens) in counting.order  # a new input is scored afresh
        counting.order.clear()
        verify_certificate(counting, z, 1, EditOpsSet(False, True, True), alphabet, 0.5)
        assert counting.order == []  # its substitution ball lies inside the full one


def test_threads_keep_their_own_scores():
    alphabet, p = ["a", "b", "c"], 0.5
    inputs = [tokenize("a b c"), tokenize("b c b")]
    barriers = [threading.Barrier(2, timeout=60) for _ in range(2)]

    def verify_all(i):
        x = inputs[i]
        checks = _seven_ops_checks(KeywordClassifier("a"), x, p)
        model = CountingClassifier(KeywordClassifier("a"))
        found = []
        for step, (r, ops) in enumerate(checks):
            if step == 0:
                # the first thread verifies once, then the second once, then
                # both go on at once; neither may classify a text twice
                if i == 1:
                    barriers[0].wait()
                found.append(verify_certificate(model, x, r, ops, alphabet, p))
                if i == 0:
                    barriers[0].wait()
                barriers[1].wait()
            else:
                found.append(verify_certificate(model, x, r, ops, alphabet, p))
        return found

    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(verify_all, range(2), timeout=120))
    for x, found in zip(inputs, results):
        kw = KeywordClassifier("a")
        checks = _seven_ops_checks(kw, x, p)
        assert found == [_per_member_reference(kw, x, r, ops, alphabet, p) for r, ops in checks]


def test_threads_switching_often_get_correct_results():
    alphabet, p = ["a", "b", "c"], 0.5
    cases = [(KeywordClassifier("a"), tokenize("a b c")), (KeywordClassifier("a"), tokenize("b c b")),
             (TokenSumClassifier(), tokenize("a b c")), (TokenSumClassifier(), tokenize("c a"))]
    expected = [[_per_member_reference(model, x, r, ops, alphabet, p)
                 for r, ops in _seven_ops_checks(model, x, p)] for model, x in cases]

    def verify_all(case):
        model, x = case
        counting = CountingClassifier(model)  # fails if another thread's call resets the scores
        return [verify_certificate(counting, x, r, ops, alphabet, p)
                for r, ops in _seven_ops_checks(model, x, p)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(cases)) as pool:  # more threads than cores
            results = list(pool.map(verify_all, cases, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


def test_balls_inside_a_verified_ball_are_not_enumerated(ball_calls):
    kw, x, alphabet, p = KeywordClassifier("a"), tokenize("b c"), ["a", "b", "c"], 0.5
    found = [verify_certificate(kw, x, 2, ops, alphabet, p) for ops in ALL_OPS_SETS]
    assert found == [_per_member_reference(kw, x, 2, ops, alphabet, p) for ops in ALL_OPS_SETS]
    assert len(ball_calls) == 1  # the full set's ball holds the other six
    assert found[0] and 0 < len(found[3]) < len(found[0])  # {s} keeps some of its violations


def test_balls_outside_every_verified_ball_are_enumerated(ball_calls):
    kw, x, y, alphabet = KeywordClassifier("a"), tokenize("b c"), tokenize("c b"), ["a", "b", "c"]
    ds, s, i = (EditOpsSet(True, False, True), EditOpsSet(False, False, True),
                EditOpsSet(False, True, False))
    steps = [  # (model, x, radius, ops, alphabet, p_del, enumerates)
        (kw, x, 1, ds, alphabet, 0.5, True),
        (kw, x, 1, s, alphabet, 0.5, False),
        (kw, x, 2, s, alphabet, 0.5, True),  # a larger radius
        (kw, x, 1, i, alphabet, 0.5, True),  # {i} is inside neither {d, s} nor {s}
        (kw, x, 1, s, ["a", "b"], 0.5, True),  # another alphabet
        (kw, x, 1, s, alphabet, 0.5, False),
        (kw, y, 1, s, alphabet, 0.5, True),  # another input
        (TokenSumClassifier(), y, 1, s, alphabet, 0.5, True),  # another model
        (KeywordClassifier("a"), y, 1, s, alphabet, 0.5, True),  # an equal model, another object
        (KeywordClassifier("a"), y, 1, s, alphabet, 0.8, True),  # another p_del
    ]
    for step, (model, z, radius, ops, a, p, enumerates) in enumerate(steps):
        before = len(ball_calls)
        assert verify_certificate(model, z, radius, ops, a, p) == (
            _per_member_reference(model, z, radius, ops, a, p)), step
        assert len(ball_calls) - before == enumerates, step


def test_mutating_an_answer_leaves_later_answers():
    kw, x, alphabet, p = KeywordClassifier("a"), tokenize("b c"), ["a", "b", "c"], 0.5
    sub = EditOpsSet(False, False, True)
    expected = {ops: _per_member_reference(kw, x, 2, ops, alphabet, p) for ops in (FULL_OPS, sub)}
    for ops in (FULL_OPS, sub, FULL_OPS, sub):  # enumerated, then read off the memo
        found = verify_certificate(kw, x, 2, ops, alphabet, p)
        assert found == expected[ops]
        found.clear()


def test_negative_radius_raises_after_a_containing_ball():
    kw, x, alphabet = KeywordClassifier("a"), tokenize("b c"), ["a", "b", "c"]
    verify_certificate(kw, x, 2, FULL_OPS, alphabet, 0.5)
    with pytest.raises(ValueError, match="non-negative"):
        verify_certificate(kw, x, -1, FULL_OPS, alphabet, 0.5)


def test_alphabet_iterators_and_repeats_give_the_same_answers(ball_calls):
    kw, x, p = KeywordClassifier("a"), tokenize("b c"), 0.5
    expected = {r: _per_member_reference(kw, x, r, FULL_OPS, ["a", "b", "c"], p) for r in (1, 2)}
    assert expected[2]
    spellings = [lambda: iter(["a", "b", "c"]), lambda: ["a", "b", "a", "c", "b"], lambda: "abc"]
    for spell in spellings:
        for r in (2, 1):  # the first call's ball holds every later one
            assert verify_certificate(kw, x, r, FULL_OPS, spell(), p) == expected[r]
    assert len(ball_calls) == 1  # the three spellings are one alphabet


def test_guards_still_raise_after_a_verified_ball():
    kw, x = KeywordClassifier("a"), tokenize("a a a a a a")
    assert verify_certificate(kw, x, 2, FULL_OPS, ["a"], 0.5) == []
    with pytest.raises(GuardError):  # members of 9 tokens
        verify_certificate(kw, x, 3, FULL_OPS, ["a"], 0.5)
    with pytest.raises(GuardError):  # five tokens, at a radius the verified ball covers
        verify_certificate(kw, x, 0, FULL_OPS, ["a", "b", "c", "d", "e"], 0.5)


class SubstringClassifier:
    """Class 1 iff the text contains the character ``a`` anywhere."""

    num_classes = 2

    def classify_batch(self, texts):
        return [int("a" in t) for t in texts]


@pytest.mark.parametrize(
    "model, x, radius, alphabet",
    [
        # a token outside the alphabet: no member holds it
        (KeywordClassifier("a"), tokenize("a d"), 2, ["a", "b", "c"]),
        # the empty token: members with different tokens share one text
        (SubstringClassifier(), tokenize("bab", Scheme.CHARACTER), 2, ["a", "", "b"]),
        (TokenSumClassifier(), tokenize("a a"), 2, ["a", "b", "c"]),
        # the ball reaches the empty sequence
        (KeywordClassifier("a"), tokenize("a b"), 3, ["a", "b"]),
    ],
    ids=["foreign-token", "empty-token", "three-class", "empty-member"],
)
def test_verify_edge_cases_match_per_member_reference(model, x, radius, alphabet):
    for p in (0.5, 0.8):
        for ops in ALL_OPS_SETS:
            expected = _per_member_reference(model, x, radius, ops, alphabet, p)
            assert verify_certificate(model, x, radius, ops, alphabet, p) == expected, (p, ops)
    assert _per_member_reference(model, x, radius, FULL_OPS, alphabet, 0.5)

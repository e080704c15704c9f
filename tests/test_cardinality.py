import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delcert import edit_metrics
from delcert.edit_metrics import (
    FULL_OPS,
    EditOpsSet,
    enumerate_ball,
    hamming_ball_cardinality,
    lev_ball_cardinality_exact,
    lev_ball_cardinality_lower_bound,
)
from delcert.errors import GuardError
from delcert.tokenization import Scheme, TokenSeq

from witnesses import supersequence_count

W = Scheme.WHITESPACE


def test_hamming_examples():
    assert hamming_ball_cardinality(5, 7, 0) == 1
    assert hamming_ball_cardinality(3, 2, 1) == 4
    assert hamming_ball_cardinality(4, 3, 2) == 33


def test_hamming_radius_exceeds_length():
    with pytest.raises(ValueError):
        hamming_ball_cardinality(2, 5, 3)



@pytest.mark.parametrize("ball_size", [hamming_ball_cardinality, lev_ball_cardinality_lower_bound])
@pytest.mark.parametrize(
    "length, vocab_size, radius", [(-1, 5, 0), (3, 5, -1), (3, 0, 1), (0, -2, 0)]
)
def test_ball_sizes_reject_invalid_arguments(ball_size, length, vocab_size, radius):
    for _ in range(2):  # the memoized bound raises on every call, not only the first
        with pytest.raises(ValueError, match="non-negative|positive"):
            ball_size(length, vocab_size, radius)


def test_hamming_matches_substitution_ball():
    for v, alphabet in ((2, ["a", "b"]), (3, ["a", "b", "c"])):
        for n in range(0, 5):
            for x_toks in itertools.product(alphabet, repeat=n):
                x = TokenSeq(x_toks, W)
                for r in range(0, min(n, 2) + 1):
                    ball = enumerate_ball(x, r, EditOpsSet(False, False, True), alphabet)
                    assert len(ball) == hamming_ball_cardinality(n, v, r)


def test_lower_bound_trivia():
    assert lev_ball_cardinality_lower_bound(4, 9, 0) == 1
    lb = lev_ball_cardinality_lower_bound(2, 2, 1)
    assert 3 <= lb <= 9  # at least the substitution floor, at most the exact count


def _lower_bound_double_sum(n, r, v):
    """The constant-sequence ball size as the plain double sum over
    lengths ``m`` and counts ``j`` of non-repeated tokens."""
    total = 0
    for m in range(max(0, n - r), n + r + 1):
        jmax = min(m, m - max(n, m) + r)
        total += sum(comb(m, j) * (v - 1) ** j for j in range(jmax + 1))
    return total


def test_lower_bound_equals_double_sum():
    cases = [(n, r, v) for v in (1, 2, 3, 50265) for n in range(31) for r in range(36)]
    cases += [(120, 68, 50265), (200, 68, 50265)]
    for n, r, v in cases:
        lb = lev_ball_cardinality_lower_bound(n, v, r)
        assert lb == _lower_bound_double_sum(n, r, v), (n, r, v)


def test_exact_examples():
    assert lev_ball_cardinality_exact(TokenSeq(("a",), W), 5, 0) == 1
    assert lev_ball_cardinality_exact(TokenSeq(("a", "b"), W), 2, 1) == 9
    # empty pattern: every word of length <= r
    assert lev_ball_cardinality_exact(TokenSeq((), W), 3, 2) == 1 + 3 + 9


def test_exact_guard_and_vocab_check():
    with pytest.raises(GuardError):
        lev_ball_cardinality_exact(TokenSeq(("a",), W), 5, 17)
    with pytest.raises(ValueError):
        lev_ball_cardinality_exact(TokenSeq(("a", "b", "c"), W), 2, 1)


@pytest.mark.parametrize(
    "tokens, v, r, count",
    [
        (("a", "b") * 8, 50265, 8, 679008043221714372891587661256335535609341046),
        (("a", "b", "c") * 3, 3, 4, 91732),
        (tuple(f"t{i}" for i in range(5)) * 2, 7, 4, 9516296),
    ],
    ids=["ab-x8", "abc-x3", "t0-t4-x2"],
)
def test_exact_pinned_beyond_enumeration(tokens, v, r, count):
    # past enumerate_ball's guard, so no sweep checks these sizes
    assert lev_ball_cardinality_exact(TokenSeq(tokens, W), v, r) == count


def test_exact_state_guard_boundary(monkeypatch):
    # this count reaches exactly 3,436 distinct capped rows
    x = TokenSeq(("a", "b") * 8, W)
    monkeypatch.setattr(edit_metrics, "_AUTOMATON_MAX_STATES", 3436)
    assert lev_ball_cardinality_exact(x, 50265, 8) > 0
    monkeypatch.setattr(edit_metrics, "_AUTOMATON_MAX_STATES", 3435)
    with pytest.raises(GuardError, match="state guard"):
        lev_ball_cardinality_exact(x, 50265, 8)


def test_exact_matches_enumeration_sweep():
    for v, alphabet in ((2, ["a", "b"]), (3, ["a", "b", "c"])):
        for n in range(0, 5):
            for x_toks in itertools.product(alphabet, repeat=n):
                x = TokenSeq(x_toks, W)
                for r in range(0, 3):
                    if n + r > 8:
                        continue
                    assert lev_ball_cardinality_exact(x, v, r) == len(
                        enumerate_ball(x, r, FULL_OPS, alphabet)
                    )


def test_lower_bound_sandwich_sweep():
    for v, alphabet in ((2, ["a", "b"]), (3, ["a", "b", "c"])):
        for n in range(0, 5):
            for x_toks in itertools.product(alphabet, repeat=n):
                x = TokenSeq(x_toks, W)
                for r in range(0, 3):
                    lb = lev_ball_cardinality_lower_bound(n, v, r)
                    ham = hamming_ball_cardinality(n, v, min(r, n))
                    sup = supersequence_count(n, v, r)
                    exact = lev_ball_cardinality_exact(x, v, r)
                    assert max(ham, sup) <= lb <= exact
                    # crude ceiling: every possible length within reach
                    assert exact <= sum(v**k for k in range(max(0, n - r), n + r + 1))


def test_lower_bound_tight_on_constant_sequences():
    for n in range(1, 6):
        for r in range(0, 4):
            x = TokenSeq(("u",) * n, W)
            assert lev_ball_cardinality_exact(x, 3, r) == lev_ball_cardinality_lower_bound(n, 3, r)


@given(st.integers(0, 10), st.integers(0, 5), st.integers(2, 60))
@settings(max_examples=150)
def test_lower_bound_monotone(n, r, v):
    lb = lev_ball_cardinality_lower_bound(n, v, r)
    assert lb <= lev_ball_cardinality_lower_bound(n, v, r + 1)
    assert lb <= lev_ball_cardinality_lower_bound(n, v + 1, r)


@given(st.integers(1, 8), st.integers(0, 3), st.integers(2, 6))
@settings(max_examples=60)
def test_exact_monotone_in_radius_and_vocab(n, r, v):
    x = TokenSeq(tuple(f"t{i % v}" for i in range(n)), W)
    e = lev_ball_cardinality_exact(x, v, r)
    assert e <= lev_ball_cardinality_exact(x, v, r + 1)
    assert e <= lev_ball_cardinality_exact(x, v + 1, r)


def test_big_integer_scale():
    # realistic vocabulary and radius: far beyond float range
    count = lev_ball_cardinality_lower_bound(300, 50265, 25)
    assert count > 10**100
    import math

    assert math.log10(count) > 100

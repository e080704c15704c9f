import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delcert.edit_metrics import ALL_OPS_SETS, FULL_OPS, EditOpsSet, edit_distance, enumerate_ball
from delcert.errors import GuardError, SchemeMismatchError
from delcert.tokenization import Scheme, TokenSeq, tokenize

from witnesses import edit_decomposition

W = Scheme.WHITESPACE
DEL = EditOpsSet(True, False, False)
INS = EditOpsSet(False, True, False)
SUB = EditOpsSet(False, False, True)

tokens = st.lists(st.sampled_from(["a", "b", "c"]), max_size=6).map(
    lambda t: TokenSeq(tuple(t), W)
)


def brute_min_distance(a, b, allow_del, allow_ins, allow_sub):
    """Exhaustive recursion over scripts; the independent oracle."""

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) and j == len(b):
            return 0
        best = math.inf
        if i < len(a) and j < len(b) and a[i] == b[j]:
            best = min(best, go(i + 1, j + 1))
        if allow_sub and i < len(a) and j < len(b) and a[i] != b[j]:
            best = min(best, go(i + 1, j + 1) + 1)
        if allow_del and i < len(a):
            best = min(best, go(i + 1, j) + 1)
        if allow_ins and j < len(b):
            best = min(best, go(i, j + 1) + 1)
        return best

    return go(0, 0)


def brute_lcs(a, b):
    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


# -- edit_distance -----------------------------------------------------------


def test_identity_zero():
    x = tokenize("a b c")
    for ops in (FULL_OPS, DEL, INS, SUB):
        assert edit_distance(x, x, ops) == 0


def test_two_insertions_pair():
    clean = tokenize("this movie was good")
    adv = tokenize("this movie was really quite good")
    assert edit_distance(clean, adv) == 2
    assert edit_distance(adv, clean) == 2


def test_sub_only_unreachable():
    assert edit_distance(tokenize("a b"), tokenize("a"), SUB) == math.inf


def test_scheme_mismatch():
    with pytest.raises(SchemeMismatchError):
        edit_distance(tokenize("ab"), tokenize("ab", Scheme.CHARACTER))



def test_distance_compares_tokens_by_value():
    built = "".join(["a", "b"])  # equal to "ab", but a separate object
    literal = "ab"
    assert built == literal and built is not literal
    assert edit_distance(TokenSeq((built, "cd"), W), TokenSeq((literal, "cd"), W)) == 0
    assert edit_distance(tokenize("hello wide world"), tokenize("hello world wide")) == 2
    assert edit_distance(tokenize("hello world"), tokenize("hello " + "wor" + "ld")) == 0
    # character scheme: a base letter with its combining accent is one token
    composed = tokenize("caf\u00e9", Scheme.CHARACTER)
    decomposed = tokenize("cafe\u0301", Scheme.CHARACTER)
    assert len(composed) == len(decomposed) == 4
    assert edit_distance(composed, decomposed) == 1
    rebuilt = tokenize("".join(["caf", "e", "\u0301"]), Scheme.CHARACTER)
    assert edit_distance(decomposed, rebuilt) == 0
    assert edit_distance(tokenize("ab", Scheme.CHARACTER), tokenize("ba", Scheme.CHARACTER)) == 2


@given(tokens, tokens, st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=300)
def test_distance_matches_brute_force(a, b, d, i, s):
    if not (d or i or s):
        return
    got = edit_distance(a, b, EditOpsSet(d, i, s))
    want = brute_min_distance(a.tokens, b.tokens, d, i, s)
    assert got == want


@given(tokens, tokens)
@settings(max_examples=200)
def test_full_distance_symmetric(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)


@given(tokens, tokens, tokens)
@settings(max_examples=200)
def test_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@given(tokens, tokens)
@settings(max_examples=150)
def test_identity_of_indiscernibles(a, b):
    assert (edit_distance(a, b) == 0) == (a.tokens == b.tokens)


@given(tokens, tokens, st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=200)
def test_constrained_at_least_unconstrained(a, b, d, i, s):
    if not (d or i or s):
        return
    assert edit_distance(a, b, EditOpsSet(d, i, s)) >= edit_distance(a, b)


# -- edit_decomposition ------------------------------------------------------


def test_decomposition_examples():
    dec = edit_decomposition(tokenize("good movie"), tokenize("movie"))
    assert (dec.distance, dec.n_del, dec.n_ins, dec.n_sub, dec.lcs_length) == (1, 1, 0, 0, 1)

    x = tokenize("a b c")
    dec = edit_decomposition(x, x)
    assert (dec.distance, dec.n_del, dec.n_ins, dec.n_sub, dec.lcs_length) == (0, 0, 0, 0, 3)

    dec = edit_decomposition(tokenize("a b"), tokenize("b a"))
    assert dec.distance == 2 and dec.lcs_length == 1
    assert (dec.n_del, dec.n_ins, dec.n_sub) == (1, 1, 0)


@given(tokens, tokens)
@settings(max_examples=300)
def test_decomposition_invariants(a, b):
    dec = edit_decomposition(a, b)
    assert dec.distance == brute_min_distance(a.tokens, b.tokens, True, True, True)
    assert dec.lcs_length == brute_lcs(a.tokens, b.tokens)
    assert dec.distance == dec.n_del + dec.n_ins + dec.n_sub
    assert dec.lcs_length == len(a) - dec.n_del - dec.n_sub
    assert dec.lcs_length == len(b) - dec.n_ins - dec.n_sub
    assert min(dec.n_del, dec.n_ins, dec.n_sub) >= 0


# -- ops set -----------------------------------------------------------------


def test_ops_letters_of_all_sets():
    assert [ops.letters for ops in ALL_OPS_SETS] == ["dis", "ds", "is", "s", "di", "d", "i"]


def test_ops_empty_rejected():
    with pytest.raises(ValueError):
        EditOpsSet(False, False, False)


# -- enumerate_ball ----------------------------------------------------------


def test_ball_radius_zero():
    x = tokenize("a b")
    assert enumerate_ball(x, 0, FULL_OPS, ["a", "b"]) == {x}


def test_ball_full_ops_example():
    got = enumerate_ball(tokenize("a b"), 1, FULL_OPS, ["a", "b"])
    want = {"a b", "a", "b", "a a", "b b", "a a b", "a b b", "a b a", "b a b"}
    assert {" ".join(s.tokens) for s in got} == want


def test_ball_deletion_only_is_supersequences():
    # members must be transformable INTO x by deletions, i.e. supersequences
    got = enumerate_ball(tokenize("a"), 1, DEL, ["a", "b"])
    want = {("a",), ("a", "a"), ("a", "b"), ("b", "a")}
    assert {s.tokens for s in got} == want


def test_ball_insertion_only_is_subsequences():
    got = enumerate_ball(tokenize("a"), 1, INS, ["a", "b"])
    assert {s.tokens for s in got} == {("a",), ()}


def test_ball_substitution_only_fixed_length():
    got = enumerate_ball(tokenize("a b"), 1, SUB, ["a", "b"])
    assert {s.tokens for s in got} == {("a", "b"), ("a", "a"), ("b", "b")}


def test_ball_monotone_in_radius():
    x = tokenize("a b")
    for ops in (FULL_OPS, DEL, INS, SUB):
        b0 = enumerate_ball(x, 0, ops, ["a", "b"])
        b1 = enumerate_ball(x, 1, ops, ["a", "b"])
        b2 = enumerate_ball(x, 2, ops, ["a", "b"])
        assert b0 <= b1 <= b2


def test_ball_members_per_alphabet_and_scheme():
    # balls share member objects within a process; each alphabet and
    # scheme must still get its own, equal to a per-member filter
    C = Scheme.CHARACTER
    cases = [(("a", "b"), W), (("a", "b"), C), (("b", "c"), W), (("x", "y"), C)]
    for _ in range(2):
        for alphabet, scheme in cases:
            x = TokenSeq(alphabet[:1] * 2, scheme)
            want = {
                TokenSeq(t, scheme)
                for n in range(5)
                for t in itertools.product(alphabet, repeat=n)
                if edit_distance(TokenSeq(t, scheme), x) <= 2
            }
            got = enumerate_ball(x, 2, FULL_OPS, alphabet)
            assert got == want
            assert {m.scheme for m in got} == {scheme}


_SUBSET_PAIRS = [(o1, o2) for o1 in ALL_OPS_SETS for o2 in ALL_OPS_SETS
                 if set(o2.letters) <= set(o1.letters)]


def test_ball_shrinks_with_fewer_ops_and_smaller_radius():
    # the containment the oracle's verified-ball memo relies on, exhaustively
    alphabet = ["a", "b", "c"]
    for n in range(3):
        for toks in itertools.product(alphabet, repeat=n):
            x = TokenSeq(toks, W)
            ball = {(ops, r): enumerate_ball(x, r, ops, alphabet)
                    for ops in ALL_OPS_SETS for r in range(3)}
            for ops1, ops2 in _SUBSET_PAIRS:
                for r1 in range(3):
                    for r2 in range(r1 + 1):
                        assert ball[ops2, r2] <= ball[ops1, r1], (toks, ops1, r1, ops2, r2)


def test_distance_never_grows_with_more_ops():
    universe = [TokenSeq(t, W) for n in range(4) for t in itertools.product("ab", repeat=n)]
    for c in universe:
        for x in universe:
            d = {ops: edit_distance(c, x, ops) for ops in ALL_OPS_SETS}
            for ops1, ops2 in _SUBSET_PAIRS:
                assert d[ops1] <= d[ops2], (c.tokens, x.tokens, ops1, ops2)


@pytest.mark.parametrize("radius", [0, 1])
def test_ball_rejects_empty_whitespace_token(radius):
    # raised up front, also at radius 0, where no member holds the token
    with pytest.raises(ValueError, match="non-empty"):
        enumerate_ball(tokenize("a"), radius, SUB, ["a", ""])
    got = enumerate_ball(tokenize("a", Scheme.CHARACTER), radius, SUB, ["a", ""])
    assert {s.tokens for s in got} == ({("a",), ("",)} if radius else {("a",)})


def test_ball_guards():
    with pytest.raises(GuardError):
        enumerate_ball(tokenize("a b c d e f"), 3, FULL_OPS, ["a", "b"])
    with pytest.raises(GuardError):
        enumerate_ball(tokenize("a"), 1, FULL_OPS, ["a", "b", "c", "d", "e"])
    # insertion-only balls never grow beyond |x|, so a large radius is fine
    got = enumerate_ball(tokenize("a b c d e f"), 6, INS, ["a", "b"])
    assert TokenSeq((), W) in got

import pytest
from hypothesis import given
from hypothesis import strategies as st

from delcert import Scheme, TokenSeq, detokenize, tokenize


def test_whitespace_split():
    assert tokenize("good movie").tokens == ("good", "movie")


def test_empty_text():
    assert tokenize("", Scheme.WHITESPACE).tokens == ()
    assert tokenize("", Scheme.CHARACTER).tokens == ()


def test_character_scheme():
    assert tokenize("ab", Scheme.CHARACTER).tokens == ("a", "b")
    assert tokenize("a b", Scheme.CHARACTER).tokens == ("a", " ", "b")


def test_character_grapheme_combining():
    # e + combining acute stays one token
    s = "éx"
    toks = tokenize(s, Scheme.CHARACTER).tokens
    assert toks == ("é", "x")


def test_whitespace_runs_collapse():
    assert tokenize("a\t b\n\nc").tokens == ("a", "b", "c")


def test_detokenize_join_and_concat():
    assert detokenize(TokenSeq(("good", "movie"), Scheme.WHITESPACE)) == "good movie"
    assert detokenize(TokenSeq((), Scheme.WHITESPACE)) == ""
    assert detokenize(TokenSeq(("a", "b"), Scheme.CHARACTER)) == "ab"


def test_round_trip_on_normalized_text():
    s = "certified edit distance"
    assert detokenize(tokenize(s)) == s


def test_empty_token_rejected_for_whitespace():
    for tokens in (("a", ""), ("",), ("a", "", "b"), ["", "a"]):
        with pytest.raises(ValueError):
            TokenSeq(tokens, Scheme.WHITESPACE)
        assert TokenSeq(tokens, Scheme.CHARACTER).tokens == tuple(tokens)


@given(st.text(alphabet="ab \t\n", max_size=30))
def test_tokenize_idempotent_normalization(s):
    once = tokenize(s)
    again = tokenize(detokenize(once))
    assert again == once


@given(st.text(max_size=30))
def test_character_count(s):
    # without combining marks, one token per code point
    import unicodedata

    if any(unicodedata.combining(c) for c in s):
        return
    assert len(tokenize(s, Scheme.CHARACTER)) == len(s)

"""Adversary-side tokenization: word (whitespace) and character granularity.

The token sequence produced here is the unit in which edits are counted.
It is deliberately independent of whatever tokenizer the classifier under
analysis uses internally.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum


class Scheme(str, Enum):
    WHITESPACE = "whitespace"
    CHARACTER = "character"

    @property
    def separator(self) -> str:
        """The string that joins a sequence's tokens back into a text."""
        return " " if self is Scheme.WHITESPACE else ""

    @property
    def mask_token(self) -> str:
        """What a masked token shows: ``[MASK]``, or under the character
        scheme one grapheme, so that a masked text splits back into as many
        tokens as its input."""
        return "[MASK]" if self is Scheme.WHITESPACE else "\u2588"

    @property
    def splitter(self):
        """The function that splits a text into the tokens of :func:`tokenize`."""
        return str.split if self is Scheme.WHITESPACE else _graphemes


@dataclass(frozen=True)
class TokenSeq:
    """An ordered token sequence together with the scheme that produced it."""

    tokens: tuple[str, ...]
    scheme: Scheme

    def __post_init__(self) -> None:
        if not isinstance(self.tokens, tuple):
            object.__setattr__(self, "tokens", tuple(self.tokens))
        if self.scheme is Scheme.WHITESPACE and "" in self.tokens:
            raise ValueError("whitespace-scheme tokens must be non-empty")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def _graphemes(text: str) -> list[str]:
    # Approximates extended grapheme clusters: a base character plus any
    # trailing combining marks stays a single token, so character-level
    # edits never split an accented glyph.
    out: list[str] = []
    for ch in text:
        if out and unicodedata.combining(ch):
            out[-1] += ch
        else:
            out.append(ch)
    return out


def tokenize(text: str, scheme: Scheme | str = Scheme.WHITESPACE) -> TokenSeq:
    """Split ``text`` into tokens under the given scheme.

    Whitespace splits on runs of whitespace (so no empty tokens arise);
    character yields one token per grapheme, spaces included.
    """
    scheme = Scheme(scheme)
    return TokenSeq(tuple(scheme.splitter(text)), scheme)


"""Base classifiers: a trainable desk-scale model plus the dataset type.

The built-in model is a multinomial bag-of-tokens classifier with
additive smoothing.  The certification math is classifier-agnostic; a
fast exact model is what makes exhaustive oracle verification feasible.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, islice, repeat
from typing import Iterable, Protocol, Sequence

import numpy as np

from .errors import DataFormatError
from .mechanisms import MechanismKind, MechanismParams
from .mechanisms import deletion_keep_matrix, masking_keep_matrix
from .rng import RandomStream, as_stream
from .tokenization import Scheme, tokenize

MODEL_FORMAT_VERSION = 1
_SMOOTHING = 1.0
#: fraction bits a built-in score keeps: every log-prior and log-likelihood
#: is a multiple of 2**-24, so a sum of them below 2**53 such units is exact
#: in float64 in any order, and every scorer gives the same label
_SCORE_BITS = 24


class BaseClassifier(Protocol):
    """Anything that deterministically maps texts to class indices.

    ``classify_batch`` must be a pure function of each text: a text's
    label may depend neither on the other texts of the batch, nor on
    their order, nor on earlier calls.  Callers rely on this to classify
    each distinct text once and reuse its label for every copy.  A
    classifier may also offer ``send(texts)``, which starts classifying
    ``texts`` and returns a function that waits for their labels (see
    :func:`classify_texts`).
    """

    num_classes: int

    def classify_batch(self, texts: Sequence[str]) -> list[int]: ...


def classify_texts(model: BaseClassifier, slices: Iterable[Sequence[str]]) -> np.ndarray:
    """Labels of the texts of every slice, in turn, as one int64 array.

    Each distinct text is classified once: the texts that first occur in
    a slice go to ``model.classify_batch`` as one call, in first-occurrence
    order.  A model with a ``send`` method gets each such list sent as soon
    as its slice is read, and its labels collected after the last slice, so
    that it classifies one slice while the next one is built.
    Raises ``ValueError`` unless the calls return one integer label in
    ``[0, num_classes)`` per text.
    """
    send = getattr(model, "send", lambda batch: partial(model.classify_batch, batch))
    index: dict[str, int] = {}
    inverse: list[int] = []
    sent = []  # (batch, the function that returns its labels)
    for texts in slices:
        known = len(index)
        inverse += [index.setdefault(t, len(index)) for t in texts]
        if len(index) > known:
            batch = list(islice(index, known, None))
            sent.append((batch, send(batch)))
    labels: list = []
    for batch, collect in sent:
        got = collect()
        if len(got) != len(batch):
            raise ValueError(f"classifier returned {len(got)} labels for {len(batch)} texts")
        labels += got
    if not labels:
        return np.zeros(0, dtype=np.int64)
    arr = np.asarray(labels)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"classifier returned labels of type {arr.dtype}, not integers")
    arr = arr.astype(np.int64, copy=False)
    # one reduction for both ends: negative labels wrap to huge unsigned values
    if arr.view(np.uint64).max() >= model.num_classes:
        raise ValueError("classifier returned an out-of-range label")
    return arr[inverse]


@dataclass(frozen=True)
class LabeledDataset:
    items: tuple[tuple[str, int], ...]
    num_classes: int

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        for text, label in self.items:
            if not 0 <= label < self.num_classes:
                raise ValueError(f"label {label} out of range for {self.num_classes} classes")

    def __len__(self) -> int:
        return len(self.items)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, int]], num_classes: int | None = None):
        pairs = tuple((str(t), int(l)) for t, l in pairs)
        if num_classes is None:
            if not pairs:
                raise ValueError("cannot infer num_classes from an empty dataset")
            num_classes = max(l for _, l in pairs) + 1
        return cls(pairs, max(num_classes, 2))


@dataclass
class BuiltinModel:
    """Multinomial bag-of-tokens classifier with additive smoothing.

    The vocabulary is closed after training; unseen tokens carry no
    evidence at classification time.  All internal state is integer
    counts, so serialization is exact and runs are replayable.  Scores are
    floored to multiples of 2**-``_SCORE_BITS``, so every scorer of a text
    of at most :meth:`check_exact` tokens sums them exactly and agrees.
    """

    scheme: Scheme
    num_classes: int
    class_doc_counts: np.ndarray  # (C,) number of training documents per class
    tokens: tuple[str, ...]  # sorted vocabulary
    token_counts: np.ndarray  # (V, C) token occurrence counts per class
    _token_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._token_index = {tok: i for i, tok in enumerate(self.tokens)}

    # -- derived parameters ------------------------------------------------
    @cached_property
    def log_prior(self) -> np.ndarray:
        """Log class frequencies, floored to ``_SCORE_BITS``: a class with no
        documents gets -inf, so it is never predicted."""
        with np.errstate(divide="ignore"):
            return _floored(np.log(self.class_doc_counts / self.class_doc_counts.sum()))

    @cached_property
    def log_likelihood(self) -> np.ndarray:
        """(V+1, C) log token probabilities; the extra last row is a zero
        row used as the no-evidence slot for out-of-vocabulary tokens."""
        if len(self.tokens) == 0:
            like = np.zeros((0, self.num_classes))
        else:
            counts = self.token_counts.astype(np.float64)
            class_totals = counts.sum(axis=0)
            like = np.log(counts + _SMOOTHING) - np.log(
                class_totals + _SMOOTHING * len(self.tokens)
            )
        return _floored(np.vstack([like, np.zeros((1, self.num_classes))]))

    @cached_property
    def _score_units(self) -> tuple[int, int]:
        """Largest |log-likelihood| and |finite log-prior|, in 2**-_SCORE_BITS units."""
        prior = self.log_prior[np.isfinite(self.log_prior)]
        return tuple(int(np.abs(a).max(initial=0) * 2**_SCORE_BITS)
                     for a in (self.log_likelihood, prior))

    def check_exact(self, n: int) -> None:
        """Raise ``ValueError`` if a text of ``n`` tokens could score past
        2**53 units, where float64 sums stop being exact."""
        row, prior = self._score_units
        if n * row + prior >= 2**53:
            raise ValueError(f"a text of {n} tokens is too long to score exactly")

    # -- scoring -----------------------------------------------------------
    def token_rows(self, tokens: Sequence[str]) -> np.ndarray:
        """Vocabulary row per token; OOV tokens map to the zero row."""
        rows = map(self._token_index.get, tokens, repeat(len(self.tokens)))
        return np.fromiter(rows, dtype=np.intp, count=len(tokens))

    def classify_batch(self, texts: Sequence[str]) -> list[int]:
        """Scores every text of the batch with one lookup and one bincount per
        class; the scores are exact, so the order of the sums cannot move a label."""
        token_lists = list(map(self.scheme.splitter, texts))
        lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=len(token_lists))
        self.check_exact(int(lengths.max(initial=0)))
        flat = chain.from_iterable(token_lists)
        rows = map(self._token_index.get, flat, repeat(len(self.tokens)))  # token_rows, streamed
        rows = np.fromiter(rows, dtype=np.intp, count=int(lengths.sum()))
        owner = np.repeat(np.arange(len(texts)), lengths)  # each token's text
        scores = np.stack([np.bincount(owner, column.take(rows), len(texts))
                           for column in self.log_likelihood.T], axis=1) + self.log_prior
        return np.argmax(scores, axis=1).tolist()  # argmax breaks ties toward class 0

    def most_common_tokens(self, k: int) -> list[str]:
        """Top-k training tokens by total count (ties by token string)."""
        totals = self.token_counts.sum(axis=1)
        order = sorted(range(len(self.tokens)), key=lambda i: (-int(totals[i]), self.tokens[i]))
        return [self.tokens[i] for i in order[:k]]

    # -- persistence ---------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "multinomial_bag",
            "scheme": self.scheme.value,
            "num_classes": self.num_classes,
            "smoothing": _SMOOTHING,
            "class_doc_counts": [int(c) for c in self.class_doc_counts],
            "tokens": list(self.tokens),
            "token_counts": [[int(c) for c in row] for row in self.token_counts],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "BuiltinModel":
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
                if (version := payload.get("format_version")) != MODEL_FORMAT_VERSION:
                    raise ValueError(f"unsupported model format version {version!r}")
                tokens = tuple(payload["tokens"])
                num_classes = payload["num_classes"]
                if type(num_classes) is not int or num_classes < 2:
                    raise ValueError(f"num_classes {num_classes!r} is not an integer >= 2")
                doc_counts = _integers(payload["class_doc_counts"], "class_doc_counts")
                if doc_counts.shape != (num_classes,):
                    raise ValueError(f"{doc_counts.size} class_doc_counts for {num_classes} classes")
                if doc_counts.min() < 0 or doc_counts.sum() < 1:
                    raise ValueError(f"class_doc_counts {doc_counts.tolist()} need a positive "
                                     "total and no negative count")
                token_counts = _integers(payload["token_counts"], "token_counts").reshape(
                    len(tokens), num_classes
                )
                negative = np.flatnonzero((token_counts < 0).any(axis=1))
                if negative.size:
                    row = negative[0]
                    raise ValueError(f"token_counts row {row} ({tokens[row]!r}) holds a "
                                     "negative count")
                return cls(Scheme(payload["scheme"]), num_classes, doc_counts, tokens, token_counts)
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
                raise DataFormatError(f"{path}: not a valid model file ({exc!r})") from exc


def _floored(scores: np.ndarray) -> np.ndarray:
    """``scores`` rounded down to multiples of 2**-_SCORE_BITS (-inf stays)."""
    return np.floor(scores * 2**_SCORE_BITS) / 2**_SCORE_BITS


def _integers(value, name: str) -> np.ndarray:
    """``value`` as an int64 array, if every entry is a JSON integer (not a bool)."""
    entries = np.asarray(value, dtype=object)
    for v in entries.flat:
        if type(v) is not int:
            raise ValueError(f"{name} holds {v!r}, not a JSON integer")
    return entries.astype(np.int64)


def train_builtin(
    data: LabeledDataset,
    mech: MechanismParams,
    samples_per_instance: int = 8,
    stream: RandomStream | int = 0,
    scheme: Scheme = Scheme.WHITESPACE,
) -> BuiltinModel:
    """Fit the built-in model on mechanism-perturbed copies of the data.

    Each training text contributes ``samples_per_instance`` independent
    perturbed copies, the rows of one keep matrix: a copy counts its kept
    tokens and, under masking, one ``scheme.mask_token`` per masked cell.  With a
    zero-rate mechanism and one copy this is exactly clean training.
    Deterministic given the stream seed.
    """
    if samples_per_instance < 1:
        raise ValueError("samples_per_instance must be >= 1")
    if len(data) == 0:
        raise ValueError("training dataset is empty")
    labels = {label for _, label in data.items}
    if len(labels) < 2:
        raise DataFormatError("training dataset must contain at least two classes")
    stream = as_stream(stream)

    counts = [Counter() for _ in range(data.num_classes)]  # token counts per class
    class_doc_counts = np.zeros(data.num_classes, dtype=np.int64)
    masking = mech.kind is MechanismKind.MASKING
    sampler = masking_keep_matrix if masking else deletion_keep_matrix
    for idx, (text, label) in enumerate(data.items):
        seq = tokenize(text, scheme)
        # copies kept per token; a token kept in no copy is never seen
        keep = sampler(samples_per_instance, len(seq), mech.rate, stream.child(idx).generator())
        for tok, times in zip(seq.tokens, keep.sum(axis=0).tolist()):
            if times:
                counts[label][tok] += times
        if masking and not keep.all():
            counts[label][scheme.mask_token] += keep.size - int(keep.sum())
        class_doc_counts[label] += samples_per_instance

    tokens = tuple(sorted(set().union(*counts)))
    token_counts = np.array(
        [[c[tok] for c in counts] for tok in tokens], dtype=np.int64
    ).reshape(len(tokens), data.num_classes)
    return BuiltinModel(
        scheme=scheme,
        num_classes=data.num_classes,
        class_doc_counts=class_doc_counts,
        tokens=tokens,
        token_counts=token_counts,
    )

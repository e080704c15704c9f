"""Base classifiers: a trainable desk-scale model plus the dataset type.

The built-in model is a multinomial bag-of-tokens classifier with
additive smoothing.  The certification math is classifier-agnostic; a
fast exact model is what makes exhaustive oracle verification feasible.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import DataFormatError
from .mechanisms import MechanismKind, MechanismParams, deletion_keep_matrix, sample_masking
from .rng import RandomStream
from .tokenization import Scheme, split_tokens, tokenize

MODEL_FORMAT_VERSION = 1
_SMOOTHING = 1.0
#: most texts sent to one ``classify_batch`` call by :func:`classify_texts`
_CLASSIFY_CHUNK = 2048


@runtime_checkable
class BaseClassifier(Protocol):
    """Anything that deterministically maps texts to class indices.

    ``classify_batch`` must be a pure function of each text: a text's
    label may depend neither on the other texts of the batch, nor on
    their order, nor on earlier calls.  Callers rely on this to classify
    each distinct text once and reuse its label for every copy.
    """

    num_classes: int

    def classify_batch(self, texts: Sequence[str]) -> list[int]: ...


def classify_texts(model: BaseClassifier, texts: Sequence[str]) -> np.ndarray:
    """Labels of ``texts`` as an int64 array, each distinct text classified once.

    Distinct texts go to ``model.classify_batch`` in first-occurrence
    order, at most 2048 per call.  Raises ``ValueError`` unless the calls
    return one integer label in ``[0, num_classes)`` per text.
    """
    index: dict[str, int] = {}
    inverse = [index.setdefault(t, len(index)) for t in texts]
    distinct = list(index)
    labels: list = []
    for start in range(0, len(distinct), _CLASSIFY_CHUNK):
        chunk = distinct[start : start + _CLASSIFY_CHUNK]
        got = model.classify_batch(chunk)
        if len(got) != len(chunk):
            raise ValueError(f"classifier returned {len(got)} labels for {len(chunk)} texts")
        labels.extend(got)
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
    counts, so serialization is exact and runs are replayable.
    """

    scheme: Scheme
    num_classes: int
    class_doc_counts: np.ndarray  # (C,) number of training documents per class
    tokens: tuple[str, ...]  # sorted vocabulary
    token_counts: np.ndarray  # (V, C) token occurrence counts per class
    _token_index: dict[str, int] = field(init=False, repr=False)
    _log_like: np.ndarray | None = field(default=None, init=False, repr=False)
    _log_prior: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self._token_index = {tok: i for i, tok in enumerate(self.tokens)}

    # -- derived parameters ------------------------------------------------
    @property
    def log_prior(self) -> np.ndarray:
        if self._log_prior is None:
            total = self.class_doc_counts.sum()
            self._log_prior = np.log(self.class_doc_counts / total)
        return self._log_prior

    @property
    def log_likelihood(self) -> np.ndarray:
        """(V+1, C) log token probabilities; the extra last row is a zero
        row used as the no-evidence slot for out-of-vocabulary tokens."""
        if self._log_like is None:
            if len(self.tokens) == 0:
                like = np.zeros((0, self.num_classes))
            else:
                counts = self.token_counts.astype(np.float64)
                class_totals = counts.sum(axis=0)
                like = np.log(counts + _SMOOTHING) - np.log(
                    class_totals + _SMOOTHING * len(self.tokens)
                )
            self._log_like = np.vstack([like, np.zeros((1, self.num_classes))])
        return self._log_like

    # -- scoring -----------------------------------------------------------
    def token_rows(self, tokens: Sequence[str]) -> np.ndarray:
        """Vocabulary row per token; OOV tokens map to the zero row."""
        rows = map(self._token_index.get, tokens, repeat(len(self.tokens)))
        return np.fromiter(rows, dtype=np.intp, count=len(tokens))

    def scores_for_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        rows = self.token_rows(tokens)
        return self.log_prior + self.log_likelihood[rows].sum(axis=0)

    def classify_batch(self, texts: Sequence[str]) -> list[int]:
        """Scores every text of the batch with one lookup and one segmented sum."""
        token_lists = [split_tokens(t, self.scheme) for t in texts]
        lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=len(token_lists))
        rows = self.token_rows(list(chain.from_iterable(token_lists)))
        scores = np.tile(self.log_prior, (len(texts), 1))
        if rows.size:
            # np.add.reduceat cannot sum an empty segment, so empty texts
            # keep the bare prior and only the others get a segment
            nonempty = lengths > 0
            starts = np.cumsum(lengths)[nonempty] - lengths[nonempty]
            scores[nonempty] += np.add.reduceat(self.log_likelihood[rows], starts, axis=0)
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
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{path}: not a valid model file ({exc})") from exc
        if payload.get("format_version") != MODEL_FORMAT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported model format version {payload.get('format_version')!r}"
            )
        tokens = tuple(payload["tokens"])
        num_classes = int(payload["num_classes"])
        return cls(
            scheme=Scheme(payload["scheme"]),
            num_classes=num_classes,
            class_doc_counts=np.asarray(payload["class_doc_counts"], dtype=np.int64),
            tokens=tokens,
            token_counts=np.asarray(payload["token_counts"], dtype=np.int64).reshape(
                len(tokens), num_classes
            ),
        )


def train_builtin(
    data: LabeledDataset,
    mech: MechanismParams,
    samples_per_instance: int = 8,
    stream: RandomStream | int = 0,
    scheme: Scheme = Scheme.WHITESPACE,
) -> BuiltinModel:
    """Fit the built-in model on mechanism-perturbed copies of the data.

    Each training text contributes ``samples_per_instance`` independent
    perturbed copies (under deletion, the rows of one keep matrix); with
    a zero-rate mechanism and one copy this is exactly clean training.
    Deterministic given the stream seed.
    """
    if samples_per_instance < 1:
        raise ValueError("samples_per_instance must be >= 1")
    if len(data) == 0:
        raise ValueError("training dataset is empty")
    labels = {label for _, label in data.items}
    if len(labels) < 2:
        raise ValueError("training dataset must contain at least two classes")
    if isinstance(stream, int):
        stream = RandomStream(stream)

    counts = [Counter() for _ in range(data.num_classes)]  # token counts per class
    class_doc_counts = np.zeros(data.num_classes, dtype=np.int64)
    for idx, (text, label) in enumerate(data.items):
        seq = tokenize(text, scheme)
        rng = stream.child(idx).generator()
        if mech.kind is MechanismKind.DELETION:
            # copies kept per token; a token kept in no copy is never seen
            kept = deletion_keep_matrix(samples_per_instance, len(seq), mech.rate, rng)
            for tok, times in zip(seq.tokens, kept.sum(axis=0).tolist()):
                if times:
                    counts[label][tok] += times
        else:
            for _ in range(samples_per_instance):
                counts[label].update(sample_masking(seq, mech.rate, mech.mask_token, rng).tokens)
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

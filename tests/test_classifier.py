from functools import partial

import numpy as np
import pytest

from delcert.certify import vote_counts
from delcert.classifier import BuiltinModel, LabeledDataset, classify_texts, train_builtin
from delcert.mechanisms import (
    MechanismKind,
    MechanismParams,
    deletion_keep_matrix,
    masking_keep_matrix,
)
from delcert.rng import RandomStream
from delcert.tokenization import Scheme, tokenize

from conftest import marker_presence_dataset
from witnesses import scores_for_tokens

DELETE_90 = MechanismParams(MechanismKind.DELETION, 0.9)
CLEAN = MechanismParams(MechanismKind.DELETION, 0.0)


def test_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset((("x", 3),), num_classes=2)
    with pytest.raises(ValueError):
        LabeledDataset((("x", 0),), num_classes=1)


def test_train_rejects_empty_and_single_class():
    with pytest.raises(ValueError):
        train_builtin(LabeledDataset((), 2), CLEAN)
    single = LabeledDataset((("a b", 0), ("c d", 0)), 2)
    with pytest.raises(ValueError):
        train_builtin(single, CLEAN)


def test_rate_zero_equals_clean_training():
    data = marker_presence_dataset(60, seed=4)
    noisy_off = train_builtin(data, CLEAN, samples_per_instance=1, stream=RandomStream(1))
    masked_off = train_builtin(
        data,
        MechanismParams(MechanismKind.MASKING, 0.0),
        samples_per_instance=1,
        stream=RandomStream(99),
    )
    assert noisy_off.tokens == masked_off.tokens
    assert np.array_equal(noisy_off.token_counts, masked_off.token_counts)
    assert np.array_equal(noisy_off.class_doc_counts, masked_off.class_doc_counts)


class LoggingClassifier:
    """Labels texts by length and logs each ``classify_batch`` call."""

    num_classes = 3

    def __init__(self):
        self.log: list[tuple[str, list[str]]] = []

    def classify_batch(self, texts):
        self.log.append(("collect", texts))
        return [len(t) % 3 for t in texts]


class SendingClassifier(LoggingClassifier):
    def send(self, texts):
        self.log.append(("send", texts))
        return partial(self.classify_batch, texts)


def test_classify_texts_sends_every_slice_before_collecting():
    slices = [["a", "bb", "a"], ["bb"], ["ccc", "a", "dddd", "ccc"], []]
    expected = [len(t) % 3 for s in slices for t in s]
    # each slice's first-seen texts once; a slice with none makes no call
    batches = [["a", "bb"], ["ccc", "dddd"]]

    def built(log):
        for i, texts in enumerate(slices):
            log.append(("build", i))
            yield texts

    clf = SendingClassifier()
    assert classify_texts(clf, built(clf.log)).tolist() == expected
    assert clf.log == [
        ("build", 0), ("send", batches[0]), ("build", 1), ("build", 2), ("send", batches[1]),
        ("build", 3), ("collect", batches[0]), ("collect", batches[1]),
    ]
    # every reply is collected from the very list that was sent
    assert clf.log[1][1] is clf.log[6][1] and clf.log[4][1] is clf.log[7][1]
    # without send, the same batches are classified after the last slice
    clf = LoggingClassifier()
    assert classify_texts(clf, iter(slices)).tolist() == expected
    assert clf.log == [("collect", b) for b in batches]


def test_classify_texts_raises_for_a_short_reply_or_a_failing_slice():
    class ShortReply(SendingClassifier):
        def classify_batch(self, texts):
            labels = super().classify_batch(texts)
            return labels[:1] if texts == ["bb", "c"] else labels

    slices = [["a"], ["bb", "c"], ["ddd"]]
    clf = ShortReply()
    with pytest.raises(ValueError, match="1 labels for 2 texts"):
        classify_texts(clf, iter(slices))
    # collecting stops at the short reply; the last request is abandoned
    assert [op for op, _ in clf.log] == ["send"] * 3 + ["collect"] * 2

    def failing():
        yield from slices[:2]
        raise RuntimeError("slice failed")

    clf = SendingClassifier()
    with pytest.raises(RuntimeError, match="slice failed"):
        classify_texts(clf, failing())
    assert clf.log == [("send", ["a"]), ("send", ["bb", "c"])]


def _train_per_copy(data, mech, samples_per_instance, seed, scheme):
    """Reference trainer: counts one perturbed copy at a time, the copies
    being the rows of the text's keep matrix (a cleared cell deletes its
    token, or under masking shows the scheme's mask token in its place)."""
    sampler = deletion_keep_matrix if mech.kind is MechanismKind.DELETION else masking_keep_matrix
    counts: dict[str, list[int]] = {}
    docs = [0] * data.num_classes
    for idx, (text, label) in enumerate(data.items):
        seq = tokenize(text, scheme)
        rng = RandomStream(seed).child(idx).generator()
        keep = sampler(samples_per_instance, len(seq), mech.rate, rng)
        for copy in range(samples_per_instance):
            if mech.kind is MechanismKind.DELETION:
                kept = [tok for tok, k in zip(seq.tokens, keep[copy]) if k]
            else:
                kept = [tok if k else scheme.mask_token for tok, k in zip(seq.tokens, keep[copy])]
            for tok in kept:
                counts.setdefault(tok, [0] * data.num_classes)[label] += 1
            docs[label] += 1
    tokens = tuple(sorted(counts))
    return BuiltinModel(
        scheme=scheme,
        num_classes=data.num_classes,
        class_doc_counts=np.array(docs),
        tokens=tokens,
        token_counts=np.array([counts[t] for t in tokens], dtype=np.int64).reshape(
            len(tokens), data.num_classes
        ),
    )


@pytest.mark.parametrize("scheme", [Scheme.WHITESPACE, Scheme.CHARACTER])
def test_training_matches_per_copy_reference(scheme):
    # shared tokens plus one token of each text's own; "" has no tokens at all
    pairs = [(f"w{i % 3} x{i % 2} u{i} w{i % 3}", i % 3) for i in range(12)] + [("", 1)]
    data = LabeledDataset.from_pairs(pairs, 3)
    mechs = [MechanismParams(MechanismKind.DELETION, p) for p in (0.0, 0.5, 0.9, 1.0)]
    mechs += [MechanismParams(MechanismKind.MASKING, p) for p in (0.3, 1.0)]
    for mech in mechs:
        for copies in (1, 3):
            model = train_builtin(data, mech, copies, RandomStream(5), scheme)
            assert model.to_json() == _train_per_copy(data, mech, copies, 5, scheme).to_json()
    # at p 0.9 some text's own token is deleted from every copy and never seen
    model = train_builtin(data, mechs[2], 3, RandomStream(5), Scheme.WHITESPACE)
    assert {f"u{i}" for i in range(12)} - set(model.tokens)


@pytest.mark.parametrize("scheme", [Scheme.WHITESPACE, Scheme.CHARACTER])
def test_mask_token_is_one_token(scheme):
    # the token a masking-trained model counts for masked cells is the one
    # prediction reads back when it re-splits a masked text
    data = LabeledDataset.from_pairs([("good film", 1), ("bad film", 0)] * 3)
    mech = MechanismParams(MechanismKind.MASKING, 0.5)
    model = train_builtin(data, mech, 4, RandomStream(1), scheme)
    seen = {tok for text, _ in data.items for tok in tokenize(text, scheme).tokens}
    (mask,) = set(model.tokens) - seen
    assert scheme.splitter(scheme.separator.join(["a", mask, "b"])) == ["a", mask, "b"]


def test_training_is_deterministic():
    data = marker_presence_dataset(80, seed=5)
    m1 = train_builtin(data, DELETE_90, stream=RandomStream(7))
    m2 = train_builtin(data, DELETE_90, stream=RandomStream(7))
    assert m1.to_json() == m2.to_json()
    m3 = train_builtin(data, DELETE_90, stream=RandomStream(8))
    assert m1.to_json() != m3.to_json()


def test_noise_trained_marker_model_accuracy():
    train = marker_presence_dataset(400, seed=11)
    test = marker_presence_dataset(200, seed=12)
    model = train_builtin(train, DELETE_90, samples_per_instance=8, stream=RandomStream(3))
    preds = model.classify_batch([t for t, _ in test.items])
    acc = sum(p == l for p, (_, l) in zip(preds, test.items)) / len(test)
    assert acc >= 0.95


def test_empty_text_gets_prior_class():
    data = LabeledDataset((("x y", 0), ("x z", 0), ("q r", 1)), 2)
    model = train_builtin(data, CLEAN, samples_per_instance=1)
    assert model.classify_batch([""]) == [0]  # class 0 has the larger prior


def test_class_without_documents_is_never_predicted(tmp_path):
    # labels {0, 2} leave class 1 empty: its prior is -inf, computed without a warning
    data = LabeledDataset((("x", 0), ("y", 2)), 3)
    path = tmp_path / "m.json"
    train_builtin(data, CLEAN, samples_per_instance=1).save(str(path))
    model = BuiltinModel.load(str(path))
    assert model.log_prior[1] == -np.inf
    assert model.classify_batch(["", "x", "y", "x y", "unseen"]) == [0, 0, 2, 0, 0]
    votes = vote_counts(model, tokenize("x y y"), DELETE_90, 200, RandomStream(1).generator())
    assert votes[1] == 0 and sum(votes) == 200


def test_training_item_classified_correctly():
    data = LabeledDataset((("alpha beta", 0), ("gamma delta", 1)), 2)
    model = train_builtin(data, CLEAN, samples_per_instance=1)
    assert model.classify_batch(["alpha beta", "gamma delta"]) == [0, 1]


def test_batch_equals_elementwise():
    train = marker_presence_dataset(100, seed=21)
    texts = [t for t, _ in marker_presence_dataset(30, seed=22).items]
    # random texts over the vocabulary, unseen tokens and blanks, empty ones included
    rng = np.random.default_rng(23)
    pool = ["good", "film0", "film3", "film9", "unseen", "zz", "  ", "\t"]
    for n in rng.integers(0, 25, size=300):
        texts.append(" ".join(pool[i] for i in rng.integers(len(pool), size=n)))
    texts += ["", "   ", "unseen"]
    for scheme in Scheme:
        model = train_builtin(train, DELETE_90, stream=RandomStream(2), scheme=scheme)
        batch = model.classify_batch(texts)
        single = [model.classify_batch([t])[0] for t in texts]
        # the per-text reference: score one token sequence at a time
        loop = [int(np.argmax(scores_for_tokens(model, tokenize(t, scheme).tokens))) for t in texts]
        assert batch == single == loop, scheme
        assert all(type(label) is int for label in batch)
        assert model.classify_batch([]) == []


def test_classify_deterministic():
    train = marker_presence_dataset(100, seed=31)
    model = train_builtin(train, DELETE_90, stream=RandomStream(2))
    texts = [t for t, _ in train.items]
    assert model.classify_batch(texts) == model.classify_batch(texts)


def test_save_load_round_trip(tmp_path):
    data = marker_presence_dataset(50, seed=41)
    model = train_builtin(data, DELETE_90, stream=RandomStream(5))
    path = tmp_path / "model.json"
    model.save(str(path))
    loaded = BuiltinModel.load(str(path))
    assert loaded.to_json() == model.to_json()
    texts = [t for t, _ in data.items]
    assert loaded.classify_batch(texts) == model.classify_batch(texts)


def test_save_is_byte_deterministic(tmp_path):
    data = marker_presence_dataset(50, seed=41)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    train_builtin(data, DELETE_90, stream=RandomStream(5)).save(str(p1))
    train_builtin(data, DELETE_90, stream=RandomStream(5)).save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_most_common_tokens():
    data = LabeledDataset((("x x x y", 0), ("y z", 1)), 2)
    model = train_builtin(data, CLEAN, samples_per_instance=1)
    assert model.most_common_tokens(2) == ["x", "y"]

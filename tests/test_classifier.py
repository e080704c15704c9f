import numpy as np
import pytest

from delcert import LabeledDataset, train_builtin
from delcert.classifier import BuiltinModel
from delcert.mechanisms import MechanismKind, MechanismParams, sample_masking
from delcert.rng import RandomStream
from delcert.tokenization import Scheme, tokenize

from conftest import marker_presence_dataset

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


def _train_per_copy(data, mech, samples_per_instance, seed, scheme):
    """Reference trainer: draws and counts one perturbed copy at a time."""
    counts: dict[str, list[int]] = {}
    docs = [0] * data.num_classes
    for idx, (text, label) in enumerate(data.items):
        seq = tokenize(text, scheme)
        rng = RandomStream(seed).child(idx).generator()
        for _ in range(samples_per_instance):
            if mech.kind is MechanismKind.DELETION:
                deleted = rng.random(len(seq)) < mech.rate
                kept = [tok for tok, d in zip(seq.tokens, deleted) if not d]
            else:
                kept = sample_masking(seq, mech.rate, mech.mask_token, rng).tokens
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
        loop = [int(np.argmax(model.scores_for_tokens(tokenize(t, scheme).tokens))) for t in texts]
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

import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chisquare

from delcert import pattern_probability, sample_masking, tokenize
from delcert.certify import vote_counts
from delcert.mechanisms import MechanismKind, MechanismParams, deletion_keep_matrix
from delcert.rng import RandomStream


class RecordingClassifier:
    """Labels everything 0 and keeps every text it was asked about."""

    num_classes = 2

    def __init__(self):
        self.texts: list[str] = []

    def classify_batch(self, texts):
        self.texts.extend(texts)
        return [0] * len(texts)


def test_degenerate_rates():
    rng = RandomStream(0).child(0).generator()
    assert deletion_keep_matrix(3, 6, 0.0, rng).all()
    assert not deletion_keep_matrix(3, 6, 1.0, rng).any()
    assert deletion_keep_matrix(4, 0, 0.5, rng).shape == (4, 0)


def test_pattern_probability_examples():
    assert pattern_probability((0, 0, 0), 0.5) == pytest.approx(0.125)
    assert pattern_probability((1, 1), 1.0) == 1.0
    assert pattern_probability((1, 0), 0.9) == pytest.approx(0.09)
    total = sum(pattern_probability(bits, 0.9) for bits in itertools.product((0, 1), repeat=4))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_pattern_probability_fraction_sums_to_one():
    p = Fraction(9, 10)
    masses = [pattern_probability(bits, p) for bits in itertools.product((0, 1), repeat=5)]
    assert all(isinstance(m, Fraction) for m in masses)
    assert sum(masses) == 1


def test_deletion_output_is_subsequence():
    # every text the classifier sees is a subsequence of the input
    x = tokenize("t0 t1 t2 t3 t4 t5 t6 t7")
    recorder = RecordingClassifier()
    mech = MechanismParams(MechanismKind.DELETION, 0.5)
    vote_counts(recorder, x, mech, 200, RandomStream(3).child(0).generator())
    assert len(recorder.texts) > 50
    for text in recorder.texts:
        it = iter(x.tokens)
        assert all(tok in it for tok in text.split())


def test_deletion_chi_square_against_mass():
    rng = RandomStream(42).child(0).generator()
    keep = deletion_keep_matrix(100_000, 4, 0.9, rng)
    idx = (~keep).astype(int) @ (1 << np.arange(4))
    observed = np.bincount(idx, minlength=16)
    expected = np.array(
        [pattern_probability([(i >> b) & 1 for b in range(4)], 0.9) for i in range(16)]
    ) * 100_000
    assert chisquare(observed, expected).pvalue > 0.01


def test_expected_kept_length():
    rng = RandomStream(42).child(0).generator()
    keep = deletion_keep_matrix(100_000, 4, 0.9, rng)
    mean = keep.sum(axis=1).mean()
    sigma = np.sqrt(4 * 0.9 * 0.1 / 100_000)
    assert abs(mean - 0.4) <= 3 * sigma


def test_batch_matches_sequential_draws():
    g1 = RandomStream(7).child(3).generator()
    g2 = RandomStream(7).child(3).generator()
    singles = [g1.random(5) < 0.4 for _ in range(16)]  # deletion indicators, one draw each
    keep = deletion_keep_matrix(16, 5, 0.4, g2)
    for i, deleted in enumerate(singles):
        assert (keep[i] == ~deleted).all()
    assert g1.random() == g2.random()  # both consumed the stream equally


def test_equal_seeds_equal_patterns():
    a = deletion_keep_matrix(3, 64, 0.7, RandomStream(9).child(1, 2).generator())
    b = deletion_keep_matrix(3, 64, 0.7, RandomStream(9).child(1, 2).generator())
    assert (a == b).all()


def test_masking_degenerate_rates():
    x = tokenize("w x y z")
    rng = RandomStream(1).child(0).generator()
    assert sample_masking(x, 0.0, rng=rng) == x
    assert sample_masking(x, 1.0, rng=rng).tokens == ("[MASK]",) * 4


def test_masking_preserves_length_and_unmasked():
    x = tokenize("w x y z")
    rng = RandomStream(1).child(0).generator()
    for _ in range(100):
        m = sample_masking(x, 0.5, rng=rng)
        assert len(m) == len(x)
        assert sum(t == "[MASK]" for t in m.tokens) == 2
        for orig, new in zip(x.tokens, m.tokens):
            assert new in (orig, "[MASK]")


def test_masking_uniform_subsets():
    x = tokenize("t0 t1 t2 t3")
    rng = RandomStream(7).child(1).generator()
    counts: dict[tuple, int] = {}
    for _ in range(60_000):
        m = sample_masking(x, 0.5, rng=rng)
        key = tuple(i for i, t in enumerate(m.tokens) if t == "[MASK]")
        counts[key] = counts.get(key, 0) + 1
    observed = [counts.get(s, 0) for s in itertools.combinations(range(4), 2)]
    assert len(observed) == 6 and min(observed) > 0
    assert chisquare(observed).pvalue > 0.01


def test_perturb_dispatch():
    # at rate 1 each mechanism perturbs every token its own way
    x = tokenize("a b c")
    cases = ((MechanismKind.MASKING, "[MASK] [MASK] [MASK]"), (MechanismKind.DELETION, ""))
    for kind, expected in cases:
        recorder = RecordingClassifier()
        vote_counts(recorder, x, MechanismParams(kind, 1.0), 5, RandomStream(5).generator())
        assert recorder.texts == [expected]


def test_rate_validation():
    with pytest.raises(ValueError):
        MechanismParams(MechanismKind.DELETION, 1.5)

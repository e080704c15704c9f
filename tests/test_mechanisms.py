import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

from delcert import mechanisms
from delcert.certify import vote_counts
from delcert.mechanisms import (
    MechanismKind,
    MechanismParams,
    deletion_keep_matrix,
    masking_keep_matrix,
)
from delcert.rng import RandomStream
from delcert.tokenization import tokenize

from witnesses import pattern_probability


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


def _reference_keep(n_samples, n, p_del, bits):
    """The sampler's contract, decoded one cell at a time with shifts.

    Cell ``c`` takes byte ``c % 8`` (little-endian) of word ``c // 8`` as
    the top byte ``hi`` of its 53-bit uniform; a tied byte takes the top
    45 bits of the next further word as the low part ``lo``.  The cell
    is deleted by the float rule of ``rng.random() < p_del`` applied to
    ``hi * 2**45 + lo`` (an untied cell is decided by ``hi`` alone).
    """
    t = math.ceil(Fraction(p_del) * 2**53)
    if t in (0, 2**53):
        return np.full((n_samples, n), t == 0)
    cells = n_samples * n
    words = [int(w) for w in bits.random_raw(-(-cells // 8))]
    keep = []
    for c in range(cells):
        hi = (words[c // 8] >> (8 * (c % 8))) & 0xFF
        lo = int(bits.random_raw()) >> 19 if hi == t >> 45 else 0
        keep.append(not ((hi << 45) + lo) * 2.0**-53 < p_del)
    return np.array(keep, dtype=bool).reshape(n_samples, n)


def test_batch_matches_sequential_draws(monkeypatch):
    # the batch equals the reference decoding of the same raw words, and
    # both leave the generator in the same state
    def check(p_del, shape):
        g1 = RandomStream(7).child(3).generator()
        g2 = RandomStream(7).child(3).generator()
        expected = _reference_keep(*shape, p_del, g1.bit_generator)
        keep = deletion_keep_matrix(*shape, p_del, g2)
        assert keep.shape == shape and keep.dtype == bool
        assert (keep == expected).all(), (p_del, shape)
        assert (g1.bit_generator.random_raw(4) == g2.bit_generator.random_raw(4)).all()

    for p_del in (0.0, 0.5, 0.9, 0.99, 253.5 / 256, 1.0):
        for shape in ((16, 5), (3, 7), (1, 1), (40, 33), (100, 61), (0, 4), (4, 0)):
            check(p_del, shape)
    # blocks of 64 cells: each shape spans three or more, most of them end
    # inside a row, and the last ends inside a word except for (8, 24),
    # three whole blocks; ties fall in several blocks and draw their words
    # after the last
    monkeypatch.setattr(mechanisms, "_BLOCK_CELLS", 64)
    for p_del in (0.9, 0.99, 253.5 / 256):
        for shape in ((7, 29), (3, 67), (8, 24), (13, 31), (100, 61)):
            assert shape[0] * shape[1] >= 3 * 64
            check(p_del, shape)


def test_tie_branch_law():
    # T = 253.5 * 2**45: top byte 253, and a tied cell is deleted iff its
    # 45 low bits fall below 2**44, i.e. with probability exactly 1/2
    p_del = 253.5 / 256
    rows, n = 200_000, 8
    g1 = RandomStream(11).child(0).generator()
    g2 = RandomStream(11).child(0).generator()
    hi = g1.bit_generator.random_raw(rows).astype("<u8").view(np.uint8).reshape(rows, n)
    keep = deletion_keep_matrix(rows, n, p_del, g2)
    tied = hi == 253
    assert not keep[hi < 253].any() and keep[hi > 253].all()
    k = int(tied.sum())
    assert k > 5_000
    assert abs((~keep[tied]).mean() - 0.5) <= 4 * math.sqrt(0.25 / k)
    # overall deletion rate is T / 2**53
    rate = math.ceil(p_del * 2**53) / 2**53
    assert abs((~keep).mean() - rate) <= 4 * math.sqrt(rate * (1 - rate) / keep.size)
    # cells 0 and 1 of a row are two bytes of one word, yet independent
    table = np.array(
        [[np.sum((keep[:, 0] == a) & (keep[:, 1] == b)) for b in (0, 1)] for a in (0, 1)]
    )
    assert table.min() >= 5
    assert chi2_contingency(table).pvalue > 0.01


def test_equal_seeds_equal_patterns():
    a = deletion_keep_matrix(3, 64, 0.7, RandomStream(9).child(1, 2).generator())
    b = deletion_keep_matrix(3, 64, 0.7, RandomStream(9).child(1, 2).generator())
    assert (a == b).all()


def test_masking_degenerate_rates():
    rng = RandomStream(1).child(0).generator()
    assert masking_keep_matrix(3, 4, 0.0, rng).all()
    assert masking_keep_matrix(2, 5, 0.09, rng).all()  # round(0.45) is 0
    assert masking_keep_matrix(4, 0, 0.5, rng).shape == (4, 0)
    # nothing masked, nothing drawn
    fresh = RandomStream(1).child(0).generator()
    assert (rng.bit_generator.random_raw(4) == fresh.bit_generator.random_raw(4)).all()
    assert not masking_keep_matrix(3, 4, 1.0, rng).any()
    for rate in (-0.1, 1.5):
        with pytest.raises(ValueError):
            masking_keep_matrix(1, 4, rate, rng)


def test_masking_preserves_length_and_unmasked():
    # a column per token, and exactly k cells of each row masked
    rng = RandomStream(1).child(0).generator()
    for n, p_mask, k in ((4, 0.5, 2), (5, 0.5, 3), (7, 0.3, 2), (10, 0.05, 1), (3, 0.99, 3)):
        keep = masking_keep_matrix(200, n, p_mask, rng)
        assert keep.shape == (200, n) and keep.dtype == bool
        assert ((~keep).sum(axis=1) == k).all(), (n, p_mask)


def test_masking_matches_per_row_choice():
    # row i masks the positions of the i-th rng.choice(n, k, replace=False)
    # call, and the generator ends where those calls leave it
    for shape, p_mask in (((16, 5), 0.5), ((3, 7), 0.3), ((1, 1), 1.0), ((0, 4), 0.5), ((9, 12), 0.9)):
        g1 = RandomStream(7).child(3).generator()
        g2 = RandomStream(7).child(3).generator()
        rows, n = shape
        k = int(p_mask * n + 0.5)
        expected = np.ones(shape, dtype=bool)
        for i in range(rows):
            for pos in g1.choice(n, size=k, replace=False).tolist():
                expected[i, pos] = False
        assert (masking_keep_matrix(rows, n, p_mask, g2) == expected).all(), shape
        assert (g1.bit_generator.random_raw(4) == g2.bit_generator.random_raw(4)).all()


def test_masking_uniform_subsets():
    rng = RandomStream(7).child(1).generator()
    keep = masking_keep_matrix(60_000, 4, 0.5, rng)
    idx = (~keep).astype(int) @ (1 << np.arange(4))
    observed = np.bincount(idx, minlength=16)
    pairs = [sum(1 << i for i in s) for s in itertools.combinations(range(4), 2)]
    assert observed.sum() == observed[pairs].sum()  # two cells masked in every row
    assert observed[pairs].min() > 0
    assert chisquare(observed[pairs]).pvalue > 0.01


def test_masking_texts_fill_masked_cells():
    # the texts are the input with two of its five tokens shown as the mask
    # token, each of the C(5, 2) subsets classified once
    for text, scheme in (("t0 t1 t2 t3 t4", "whitespace"), ("abcde", "character")):
        x = tokenize(text, scheme)
        recorder = RecordingClassifier()
        mech = MechanismParams(MechanismKind.MASKING, 0.4)
        vote_counts(recorder, x, mech, 200, RandomStream(3).child(0).generator())
        mask, sep = x.scheme.mask_token, x.scheme.separator
        expected = {
            sep.join(mask if i in s else t for i, t in enumerate(x.tokens))
            for s in itertools.combinations(range(5), 2)
        }
        assert len(recorder.texts) == 10 and set(recorder.texts) == expected


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

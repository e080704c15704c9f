"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with ``pytest -s`` to see them all).

The exhaustive criteria use a deterministic keyword-rule classifier over
a three-token alphabet so that exact smoothed scores, balls and radii
can be verified by brute force.
"""

import itertools
import math
import time

import numpy as np
import pytest

from delcert.attacks import (
    FAIL,
    SKIPPED,
    SUCCESS,
    TIMEOUT,
    AttackRecipe,
    Lexicon,
    run_attack,
    transfer_attack,
)
from delcert.certify import (
    SmoothedPredictor,
    certify,
    clopper_pearson_lower,
    clopper_pearson_upper,
    radius_from_margin,
)
from delcert.classifier import LabeledDataset, train_builtin
from delcert.cli import main as cli_main
from delcert.edit_metrics import (
    ALL_OPS_SETS,
    FULL_OPS,
    EditOpsSet,
    enumerate_ball,
    hamming_ball_cardinality,
    lev_ball_cardinality_exact,
    lev_ball_cardinality_lower_bound,
)
from delcert.kernels import edit_distance_ids
from delcert.mechanisms import MechanismKind, MechanismParams, deletion_keep_matrix
from delcert.oracle import _smoothed_scores, exact_smoothed_scores
from delcert.rng import RandomStream
from delcert.textcrs import max_certified_edit_radius
from delcert.tokenization import Scheme, TokenSeq, tokenize

from conftest import KeywordClassifier, band_dataset, marker_presence_dataset
from witnesses import EditDecomposition, pairwise_bounds, pattern_probability, supersequence_count

ALPHABET = ("a", "b", "c")
P_DELS = (0.5, 0.8)
W = Scheme.WHITESPACE


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


def _universe(max_len: int):
    for n in range(max_len + 1):
        yield from itertools.product(ALPHABET, repeat=n)


@pytest.fixture(scope="module")
def exact_scores():
    """Exact smoothed scores of the keyword rule for every sequence of
    length <= 8 over the alphabet, at both deletion rates: one batched
    oracle call per rate, equal to the one-sequence oracle on a sample."""
    kw = KeywordClassifier("a")
    universe = list(_universe(8))
    seqs = [TokenSeq(toks, W) for toks in universe]
    cache = {}
    for p in P_DELS:
        scores = _smoothed_scores(kw, seqs, p, exact=False)
        for i, (toks, x) in enumerate(zip(universe, seqs)):
            cache[(toks, p)] = scores[i].probs
            if i % 61 == 0 or i == len(seqs) - 1:
                assert scores[i].probs == exact_smoothed_scores(kw, x, p).probs, (toks, p)
    return cache


def _top_runner(probs):
    top = max(range(len(probs)), key=lambda c: (probs[c], -c))
    runner = max((c for c in range(len(probs)) if c != top), key=lambda c: (probs[c], -c))
    return top, runner


def test_criterion_01_certificate_soundness_exhaustive(exact_scores):
    t0 = time.time()
    argmax_at = {key: _top_runner(probs)[0] for key, probs in exact_scores.items()}
    violations = 0
    balls = 0
    for p in P_DELS:
        for toks in _universe(5):
            x = TokenSeq(toks, W)
            probs = exact_scores[(toks, p)]
            top, runner = _top_runner(probs)
            for ops in ALL_OPS_SETS:
                r = radius_from_margin(probs[top], probs[runner], p, ops)
                r_eff = min(r, 8 - len(toks)) if ops.allow_del else min(r, len(toks))
                for member in enumerate_ball(x, r_eff, ops, ALPHABET):
                    if argmax_at[(member.tokens, p)] != top:
                        violations += 1
                balls += 1
    elapsed = time.time() - t0
    report(
        1,
        "certificate soundness, exhaustive",
        violations == 0 and elapsed < 600,
        f"{balls} balls, {violations} violations, {elapsed:.1f}s",
    )


def _pair_decompositions(max_len: int, radius: int):
    """``edit_decomposition(a, b)`` of every pair of sequences of length
    <= ``max_len`` with ``edit_distance(a, b) <= radius``, keyed by ``(a, b)``.

    Two row-batched kernel calls per target ``b`` serve every source:
    the length-``m`` sources start every ``3^(max_len - m)``-th row of
    the length-``max_len`` universe, and their distances are the prefix
    column ``m`` of those rows.
    """
    longest = np.array(list(itertools.product(range(3), repeat=max_len)), dtype=np.int8)
    first_row = {}
    for a in _universe(max_len):
        row = 0
        for t in a:
            row = 3 * row + ALPHABET.index(t)
        first_row[a] = row * 3 ** (max_len - len(a))
    decs = {}
    for b in _universe(max_len):
        ib = [ALPHABET.index(t) for t in b]
        full = edit_distance_ids(longest, ib, True, True, True).tolist()
        indel = edit_distance_ids(longest, ib, True, True, False).tolist()
        for a, row in first_row.items():
            d, d_indel = full[row][len(a)], indel[row][len(a)]
            if d <= radius:
                decs[a, b] = EditDecomposition.from_distances(len(a), len(b), d, d_indel)
    return decs


def test_criterion_02_pairwise_bounds_exhaustive(exact_scores):
    t0 = time.time()
    decs = _pair_decompositions(5, 3)
    violations = 0
    checked = 0
    for p in P_DELS:
        for (a, b), dec in decs.items():
            for c in range(2):
                lo, hi = pairwise_bounds(exact_scores[(b, p)][c], dec, p)
                val = exact_scores[(a, p)][c]
                checked += 1
                if not (lo - 1e-9 <= val <= hi + 1e-9):
                    violations += 1
    report(
        2,
        "pairwise score bounds, exhaustive",
        violations == 0,
        f"{checked} checks, {violations} violations, {time.time() - t0:.1f}s",
    )


def test_criterion_03_radius_table_structure():
    grid = [i / 20 for i in range(21)]
    sub_only = EditOpsSet(False, False, True)
    del_only = EditOpsSet(True, False, False)
    del_ins = EditOpsSet(True, True, False)
    ins_only = EditOpsSet(False, True, False)
    ok = True
    for mu in grid:
        for mup in grid:
            if mu < mup:
                continue
            full = radius_from_margin(mu, mup, 0.9, FULL_OPS)
            rs = radius_from_margin(mu, mup, 0.9, sub_only)
            rd = radius_from_margin(mu, mup, 0.9, del_only)
            rdi = radius_from_margin(mu, mup, 0.9, del_ins)
            ri = radius_from_margin(mu, mup, 0.9, ins_only)
            ok &= rs == full and rd == rdi and rd >= full and ri >= full
            if mu == mup:
                ok &= full == rs == rd == rdi == ri == 0
    report(3, "constrained radius table structure", ok, "21x21 grid at p_del=0.9")


def test_criterion_04_confidence_coverage():
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(1000):
        k = int(rng.binomial(4000, 0.7))
        mu = clopper_pearson_lower(k, 4000, 0.025)
        mup = clopper_pearson_upper(4000 - k, 4000, 0.025)
        if mu > 0.7 or mup < 0.3:
            failures += 1
    report(4, "joint confidence coverage", failures <= 70, f"{failures}/1000 failures (cap 70)")


def test_criterion_05_cardinality_oracles():
    ok = True
    detail = []
    for v in (1, 2, 3):
        alphabet = list(ALPHABET[:v])
        for n in range(0, 5):
            for toks in itertools.product(alphabet, repeat=n):
                x = TokenSeq(toks, W)
                for r in range(0, 3):
                    sub_ball = enumerate_ball(x, r, EditOpsSet(False, False, True), alphabet)
                    ham = hamming_ball_cardinality(n, v, min(r, n))
                    if len(sub_ball) != ham:
                        ok = False
                        detail.append(f"hamming {toks} v={v} r={r}")
                    exact = lev_ball_cardinality_exact(x, v, r)
                    full_ball = enumerate_ball(x, r, FULL_OPS, alphabet)
                    if exact != len(full_ball):
                        ok = False
                        detail.append(f"automaton {toks} v={v} r={r}")
                    lb = lev_ball_cardinality_lower_bound(n, v, r)
                    sup = supersequence_count(n, v, r)
                    if not (max(ham, sup) <= lb <= exact):
                        ok = False
                        detail.append(f"sandwich {toks} v={v} r={r}")
    report(5, "cardinality oracles", ok, "; ".join(detail) or "sweep n<=4, v<=3, r<=2")


def test_criterion_06_mechanism_distribution():
    from scipy.stats import chisquare

    rng = RandomStream(42).child(0).generator()
    keep = deletion_keep_matrix(100_000, 4, 0.9, rng)
    idx = (~keep).astype(int) @ (1 << np.arange(4))
    observed = np.bincount(idx, minlength=16)
    expected = np.array(
        [
            pattern_probability([(i >> b) & 1 for b in range(4)], 0.9)
            for i in range(16)
        ]
    ) * 100_000
    pvalue = float(chisquare(observed, expected).pvalue)
    mean = float(keep.sum(axis=1).mean())
    sigma = math.sqrt(4 * 0.9 * 0.1 / 100_000)
    ok = pvalue > 0.01 and abs(mean - 0.4) <= 3 * sigma
    report(6, "deletion mechanism distribution", ok, f"chi2 p={pvalue:.3f}, mean={mean:.4f}")


def test_criterion_07_foreign_certificate_vacuity():
    ok = max_certified_edit_radius(1, "deletion", r_R_cap=1) == 1
    ok &= max_certified_edit_radius(2, "deletion", r_R_cap=2) == 2
    for n in range(3, 101):
        ok &= max_certified_edit_radius(n, "deletion", r_R_cap=n) == 0
    for n in (1, 2, 3, 10, 50):
        for ratio in (0.1, 0.5, 0.99):
            ok &= (
                max_certified_edit_radius(n, "insertion", r_R_cap=n, r_I_cap=ratio, d_star=1.0)
                == 0
            )
    report(7, "foreign-certificate vacuity", ok, "deletion n in 1..100, insertion budget < 1")


def test_criterion_08_end_to_end_desk_experiment():
    t0 = time.time()
    train = band_dataset(2000, seed=11)
    test = band_dataset(500, seed=12)
    mech = MechanismParams(MechanismKind.DELETION, 0.9)
    model = train_builtin(train, mech, samples_per_instance=8, stream=RandomStream(101))
    stream = RandomStream(202)
    correct = 0
    band_violations = []
    band_count = 0
    for idx, (text, label) in enumerate(test.items):
        cert = certify(model, tokenize(text), mech, 1000, 4000, 0.05, stream.child(idx))
        correct += int(cert.predicted == label)
        if not cert.abstained and cert.bounds.margin >= 0.9:
            band_count += 1
            if cert.radius(FULL_OPS) != 5:
                band_violations.append((idx, cert.bounds.margin, cert.radius(FULL_OPS)))
    elapsed = time.time() - t0
    acc = correct / len(test)
    ok = acc >= 0.95 and not band_violations and band_count > 0 and elapsed < 300
    report(
        8,
        "end-to-end desk experiment",
        ok,
        f"acc={acc:.3f}, {band_count} margins>=0.9 all radius 5, {elapsed:.0f}s",
    )


class _SelectiveSleeper:
    """Delays queries on texts carrying a trigger token; forces timeouts."""

    def __init__(self, inner, trigger: str, delay: float):
        self.inner = inner
        self.trigger = trigger
        self.delay = delay
        self.num_classes = inner.num_classes

    def classify_batch(self, texts):
        time.sleep(self.delay * sum(self.trigger in t.split() for t in texts))
        return self.inner.classify_batch(texts)


def test_criterion_09_attack_protocol_accounting():
    # 100 instances engineered to hit all four outcomes:
    #   40 flippable (class 1, one marker), 30 unflippable (class 0),
    #   20 misclassified (label 1, no marker), 10 slow (timeout trigger)
    pairs = []
    for i in range(40):
        pairs.append((f"a f{i} g{i}", 1))
    for i in range(30):
        pairs.append((f"p{i} q{i} r{i}", 0))
    for i in range(20):
        pairs.append((f"s{i} t{i} u{i}", 1))
    for i in range(10):
        pairs.append((f"slowpoke a h{i}", 1))

    data = LabeledDataset.from_pairs(pairs, 2)
    seed = 77
    base = SmoothedPredictor(
        KeywordClassifier("a"),
        MechanismParams(MechanismKind.DELETION, 0.1),
        n_samples=25,
        stream=RandomStream(seed),
    )
    target = _SelectiveSleeper(base, "slowpoke", delay=0.06)
    lex = Lexicon({}, ("zz", "qq"))
    recipe = AttackRecipe(kind="greedy_edit", max_queries=500, timeout_seconds=0.12)
    rep = run_attack(target, data, recipe, lex)

    counts = {s: rep.count(s) for s in (SUCCESS, FAIL, SKIPPED, TIMEOUT)}
    ok = sum(counts.values()) == 100
    ok &= rep.robust_accuracy == (counts[FAIL] + counts[TIMEOUT]) / 100
    ok &= all(counts[s] > 0 for s in (SUCCESS, FAIL, SKIPPED, TIMEOUT))
    ok &= all(o.queries_used <= recipe.max_queries for o in rep.outcomes)

    # every stored success still flips when re-queried under the same seed
    replay_target = _SelectiveSleeper(
        SmoothedPredictor(
            KeywordClassifier("a"),
            MechanismParams(MechanismKind.DELETION, 0.1),
            n_samples=25,
            stream=RandomStream(seed),
        ),
        "slowpoke",
        delay=0.0,
    )
    for o in rep.outcomes:
        if o.status == SUCCESS:
            ok &= replay_target.classify_batch([o.adversarial_text]) != [o.true_label]

    transferred = transfer_attack(rep, target)
    ok &= len(transferred.outcomes) == counts[SUCCESS]
    ok &= transferred.robust_accuracy == 0.0
    report(
        9,
        "attack protocol accounting",
        bool(ok),
        f"counts={counts}, robust={rep.robust_accuracy:.2f}",
    )


def test_criterion_10_reproducibility(tmp_path):
    import json

    data = marker_presence_dataset(30, seed=91)
    train_path = tmp_path / "train.jsonl"
    with open(train_path, "w", encoding="utf-8") as fh:
        for text, label in data.items:
            fh.write(json.dumps({"text": text, "label": label}) + "\n")
    model_path = tmp_path / "model.json"
    assert cli_main(["train", "--data", str(train_path), "--out", str(model_path), "--seed", "1"]) == 0
    test_path = tmp_path / "test.jsonl"
    with open(test_path, "w", encoding="utf-8") as fh:
        for text, label in marker_presence_dataset(20, seed=92).items:
            fh.write(json.dumps({"text": text, "label": label}) + "\n")
    outputs = []
    for jobs in ("1", "1", "4"):
        out = tmp_path / f"rec{len(outputs)}.csv"
        rc = cli_main(
            [
                "certify",
                "--model", str(model_path),
                "--data", str(test_path),
                "--out", str(out),
                "--n-pred", "200",
                "--n-cert", "400",
                "--seed", "17",
                "--jobs", jobs,
            ]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, "bit-reproducible certification", ok, "two runs and 1 vs 4 threads")

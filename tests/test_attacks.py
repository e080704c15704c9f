import pytest

from delcert.attacks import (
    FAIL,
    SKIPPED,
    SUCCESS,
    TIMEOUT,
    AttackOutcome,
    AttackRecipe,
    AttackReport,
    Lexicon,
    lexicon_from_dataset,
    load_lexicon,
    run_attack,
    transfer_attack,
)
from delcert.certify import SmoothedPredictor
from delcert.classifier import LabeledDataset
from delcert.edit_metrics import FULL_OPS, edit_distance
from delcert.errors import DataFormatError, TransportError
from delcert.mechanisms import MechanismKind, MechanismParams
from delcert.tokenization import tokenize

from conftest import ConstantClassifier, KeywordClassifier, SleepyClassifier

LEX = Lexicon({}, ("zz", "qq", "rr"))


def kw_data(n=6):
    # even instances: class 1 with one marker; odd: class 0 without
    pairs = []
    for i in range(n):
        if i % 2 == 0:
            pairs.append((f"a w{i} x{i}", 1))
        else:
            pairs.append((f"v{i} w{i} x{i}", 0))
    return LabeledDataset.from_pairs(pairs, 2)


def test_constant_classifier_unflippable():
    data = LabeledDataset.from_pairs([("p q", 0), ("r s", 0), ("t u", 1)], 2)
    report = run_attack(ConstantClassifier(0), data, AttackRecipe(), LEX)
    assert report.count(SUCCESS) == 0
    assert report.count(SKIPPED) == 1  # the class-1 instance is misclassified clean
    assert report.robust_accuracy == report.clean_accuracy == 2 / 3


def test_keyword_marker_deleted_with_edit_distance_one():
    data = LabeledDataset.from_pairs([("a w0 w1 w2", 1)], 2)
    report = run_attack(
        KeywordClassifier(), data, AttackRecipe(kind="greedy_edit"), LEX
    )
    out = report.outcomes[0]
    assert out.status == SUCCESS
    assert out.edit_distance_used == 1
    assert out.adversarial_text is not None and "a" not in out.adversarial_text.split()


def test_budget_one_everything_fails():
    data = kw_data(6)
    report = run_attack(
        KeywordClassifier(), data, AttackRecipe(max_queries=1), LEX
    )
    for out in report.outcomes:
        assert out.status in (FAIL, SKIPPED)
        assert out.queries_used <= 1


def test_queries_never_exceed_budget():
    data = kw_data(8)
    for budget in (1, 3, 10):
        report = run_attack(
            KeywordClassifier(),
            data,
            AttackRecipe(kind="greedy_edit", max_queries=budget),
            LEX,
        )
        assert all(o.queries_used <= budget for o in report.outcomes)


def test_substitute_successes_have_matching_edit_distance():
    # flip class-1 instances by substituting the marker with a novel token
    data = LabeledDataset.from_pairs([("a w0 w1", 1), ("a z0 z1 z2", 1)], 2)
    report = run_attack(KeywordClassifier(), data, AttackRecipe(), LEX)
    for out in report.outcomes:
        assert out.status == SUCCESS
        d = edit_distance(tokenize(out.adversarial_text), tokenize(out.original_text), FULL_OPS)
        assert out.edit_distance_used == d
        subs = sum(
            x != y for x, y in zip(out.adversarial_text.split(), out.original_text.split())
        )
        assert d == subs


def test_greedy_edit_tries_insertions_when_deletion_fails():
    # flipping requires INSERTING the marker: deletions alone cannot succeed
    data = LabeledDataset.from_pairs([("w0 w1 w2", 0)], 2)
    lex = Lexicon({}, ("a", "zz"))
    report = run_attack(
        KeywordClassifier("a"), data, AttackRecipe(kind="greedy_edit"), lex
    )
    out = report.outcomes[0]
    assert out.status == SUCCESS
    assert "a" in out.adversarial_text.split()


def test_timeout_outcome():
    data = LabeledDataset.from_pairs([("a w0 w1", 1)], 2)
    slow = SleepyClassifier(KeywordClassifier(), delay=0.05)
    report = run_attack(slow, data, AttackRecipe(timeout_seconds=0.08), LEX)
    assert report.outcomes[0].status == TIMEOUT


def test_accounting_identity():
    data = kw_data(10)
    report = run_attack(
        KeywordClassifier(), data, AttackRecipe(kind="greedy_edit"), LEX
    )
    counts = {s: report.count(s) for s in (SUCCESS, FAIL, SKIPPED, TIMEOUT)}
    assert sum(counts.values()) == 10
    assert report.robust_accuracy == (counts[FAIL] + counts[TIMEOUT]) / 10


def test_robust_accuracy_definition():
    def out(i, status):
        return AttackOutcome(
            i, status, 1, "t", 0, adversarial_text="x" if status == SUCCESS else None
        )

    rep = AttackReport((out(0, SUCCESS), out(1, FAIL), out(2, SKIPPED), out(3, TIMEOUT)))
    assert rep.robust_accuracy == 0.5
    assert rep.clean_accuracy == 0.75
    assert rep.mean_queries == 1.0
    all_skipped = AttackReport((out(0, SKIPPED), out(1, SKIPPED)))
    assert all_skipped.robust_accuracy == 0.0
    with pytest.raises(ValueError):
        AttackReport(())


def test_success_replays_against_same_target():
    data = kw_data(8)
    target = KeywordClassifier()
    report = run_attack(target, data, AttackRecipe(kind="greedy_edit"), LEX)
    for out in report.outcomes:
        if out.status == SUCCESS:
            assert target.classify_batch([out.adversarial_text]) != [out.true_label]


def test_transfer_to_same_target_robust_zero():
    data = kw_data(8)
    target = KeywordClassifier()
    source = run_attack(target, data, AttackRecipe(kind="greedy_edit"), LEX)
    assert source.count(SUCCESS) > 0
    transferred = transfer_attack(source, target)
    assert len(transferred.outcomes) == source.count(SUCCESS)
    assert transferred.robust_accuracy == 0.0
    assert {o.instance_index for o in transferred.outcomes} == {
        o.instance_index for o in source.outcomes if o.status == SUCCESS
    }


def test_transfer_to_agreeing_constant_target():
    # all transferred instances are class 1; a constant-1 target resists every replay
    data = LabeledDataset.from_pairs([("a w0 w1", 1), ("a z0 z1", 1)], 2)
    source = run_attack(KeywordClassifier(), data, AttackRecipe(kind="greedy_edit"), LEX)
    assert source.count(SUCCESS) == 2
    transferred = transfer_attack(source, ConstantClassifier(1))
    assert transferred.robust_accuracy == 1.0
    assert transferred.clean_accuracy == 1.0


def test_transfer_requires_successes():
    data = LabeledDataset.from_pairs([("p q", 0)], 2)
    source = run_attack(ConstantClassifier(0), data, AttackRecipe(), LEX)
    with pytest.raises(ValueError):
        transfer_attack(source, ConstantClassifier(0))


def test_parallel_outcomes_match_serial():
    data = kw_data(12)
    target = KeywordClassifier()
    recipe = AttackRecipe(kind="greedy_edit")
    serial = run_attack(target, data, recipe, LEX, jobs=1)
    parallel = run_attack(target, data, recipe, LEX, jobs=4)
    assert serial.outcomes == parallel.outcomes


def test_char_perturb_variants():
    # keyword rule on exact token: any character edit of the marker flips
    data = LabeledDataset.from_pairs([("ab w0 w1", 1)], 2)
    report = run_attack(
        KeywordClassifier("ab"), data, AttackRecipe(kind="char_perturb"), LEX
    )
    assert report.outcomes[0].status == SUCCESS


@pytest.mark.parametrize("kind", ["greedy_substitute", "char_perturb"])
def test_zero_candidates_make_only_the_ranking_queries(kind):
    # no perturbation per position: only the three leave-one-out queries
    data = LabeledDataset.from_pairs([("abc w0 w1", 1)], 2)
    recipe = AttackRecipe(kind=kind, candidates_per_position=0)
    out = run_attack(ConstantClassifier(1), data, recipe, LEX).outcomes[0]
    assert (out.status, out.queries_used) == (FAIL, 3)


def test_lexicon_file_round_trip(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("good\tgreat,fine\nbad\tawful\n", encoding="utf-8")
    lex = load_lexicon(str(path))
    assert lex.candidates("good", 5) == ["great", "fine"]
    assert lex.candidates("bad", 1) == ["awful"]
    assert lex.candidates("unknown", 3) == []


def test_lexicon_file_errors(tmp_path):
    path = tmp_path / "broken.tsv"
    path.write_text("no-tab-here\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="broken.tsv:1"):
        load_lexicon(str(path))


def test_default_lexicon_from_dataset():
    data = LabeledDataset.from_pairs([("x x y", 0), ("y z", 1)], 2)
    lex = lexicon_from_dataset(data, k=2)
    assert lex.default == ("x", "y")


class FlakyClassifier:
    """Keyword rule whose transport fails on any text holding ``broken``."""

    num_classes = 2

    def classify_batch(self, texts):
        if any("broken" in t for t in texts):
            raise TransportError("connection lost")
        return [1 if "a" in t.split() else 0 for t in texts]


def test_transport_errors_are_harness_errors_not_outcomes():
    data = LabeledDataset.from_pairs(
        [("a w0 w1", 1), ("broken a w2", 1), ("p q r", 0)], 2
    )
    report = run_attack(FlakyClassifier(), data, AttackRecipe(kind="greedy_edit"), LEX)
    assert len(report.outcomes) == 2  # the broken instance is not an outcome
    assert report.harness_errors == ((1, "connection lost"),)
    assert {o.instance_index for o in report.outcomes} == {0, 2}


@pytest.mark.parametrize("jobs", [1, 2])
def test_no_attackable_instance_is_one_transport_error(jobs):
    data = LabeledDataset.from_pairs([("broken a", 1), ("broken b", 0)], 2)
    with pytest.raises(TransportError, match="^no instance could be attacked: connection lost$"):
        run_attack(FlakyClassifier(), data, AttackRecipe(), LEX, jobs=jobs)


def test_transfer_records_a_failed_replay_as_a_harness_error():
    # one replay of each kind: still a success, skipped (clean check wrong),
    # broken transport, fail; the source's failure does not transfer
    def success(i, original, adversarial):
        return AttackOutcome(i, SUCCESS, 3, original, 1, adversarial_text=adversarial,
                             edit_distance_used=1)

    source = AttackReport((
        success(0, "a w0", "w0"), AttackOutcome(1, FAIL, 4, "a x", 1), success(2, "w2", "v2"),
        success(3, "a w3", "broken w3"), success(4, "a w4", "a v4"),
    ))
    report = transfer_attack(source, FlakyClassifier())
    assert report.harness_errors == ((3, "connection lost"),)
    assert report.outcomes == (
        AttackOutcome(0, SUCCESS, 2, "a w0", 1, adversarial_text="w0", edit_distance_used=1),
        AttackOutcome(2, SKIPPED, 1, "w2", 1),
        AttackOutcome(4, FAIL, 2, "a w4", 1),
    )
    with pytest.raises(TransportError, match="^no instance could be attacked: connection lost$"):
        transfer_attack(AttackReport((success(3, "a w3", "broken w3"),)), FlakyClassifier())


def test_run_attack_accepts_bare_classifier():
    # nothing but num_classes and classify_batch: no predict, no base class
    target = KeywordClassifier()
    assert not hasattr(target, "predict")
    report = run_attack(target, kw_data(6), AttackRecipe(kind="greedy_edit"), LEX)
    assert report.count(SUCCESS) == 3 and report.count(FAIL) == 3
    assert transfer_attack(report, target).robust_accuracy == 0.0


def test_smoothed_target_predicts_once_per_query(monkeypatch):
    calls = []
    predict = SmoothedPredictor.predict

    def counted(self, text):
        calls.append(text)
        return predict(self, text)

    monkeypatch.setattr(SmoothedPredictor, "predict", counted)
    target = SmoothedPredictor(
        KeywordClassifier(), MechanismParams(MechanismKind.DELETION, 0.5), n_samples=20,
        stream=7,
    )
    data = kw_data(8)
    for recipe in (AttackRecipe(kind="greedy_edit"), AttackRecipe(max_queries=3)):
        for i in range(len(data)):
            calls.clear()
            one = LabeledDataset(data.items[i : i + 1], 2)
            out, = run_attack(target, one, recipe, LEX).outcomes
            # the clean check plus every charged query
            assert len(calls) == out.queries_used + 1


class RecordingClassifier:
    """Keyword rule that records the texts of every ``classify_batch`` call."""

    num_classes = 2

    def __init__(self):
        self.inner = KeywordClassifier()
        self.calls = []

    def classify_batch(self, texts):
        self.calls.append(list(texts))
        return self.inner.classify_batch(texts)


@pytest.mark.parametrize("max_queries", [1, 2, 4])
def test_budget_halts_inside_leave_one_out_ranking(max_queries):
    text = "w0 w1 a w2 w3"  # five positions, more than any budget here
    data = LabeledDataset.from_pairs([(text, 1)], 2)
    target = RecordingClassifier()
    out, = run_attack(
        target, data, AttackRecipe(kind="greedy_edit", max_queries=max_queries), LEX
    ).outcomes
    tokens = text.split()
    loo = [" ".join(tokens[:p] + tokens[p + 1 :]) for p in range(max_queries)]
    assert (out.status, out.queries_used) == (FAIL, max_queries)
    assert target.calls == [[text]] + [[t] for t in loo]  # the clean check, then one text per query


def test_empty_text_fails_without_a_query():
    # no positions to rank: no query, so neither the budget nor the clock can halt it
    target = RecordingClassifier()
    data = LabeledDataset.from_pairs([("", 0), ("   ", 0)], 2)
    report = run_attack(target, data, AttackRecipe(kind="greedy_edit", timeout_seconds=1e-9), LEX)
    assert [(o.status, o.queries_used) for o in report.outcomes] == [(FAIL, 0), (FAIL, 0)]
    assert target.calls == [[""], ["   "]]  # the clean checks only

"""Desk-scale empirical robustness harness.

Implements the standard black-box attack protocol: skip instances the
target already misclassifies, rank token positions by leave-one-out
prediction flips, then greedily perturb positions in rank order until
the label flips, the query budget runs out, or the per-instance
wall-clock timeout fires.  Outcomes use the four-way taxonomy
success / fail / skipped / timeout; robust accuracy is the fraction of
fail-or-timeout instances.

A target is any :class:`~delcert.classifier.BaseClassifier`, queried one
text at a time: a base model itself, or the smoothed classifier through
:class:`~delcert.certify.SmoothedPredictor`.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

from .classifier import BaseClassifier, LabeledDataset
from .edit_metrics import FULL_OPS, edit_distance
from .errors import DataFormatError, TransportError
from .tokenization import Scheme, tokenize

SUCCESS = "success"
FAIL = "fail"
SKIPPED = "skipped"
TIMEOUT = "timeout"


@dataclass(frozen=True)
class AttackRecipe:
    """Greedy attack family plus its budgets.

    ``greedy_substitute`` substitutes from a candidate lexicon,
    ``greedy_edit`` additionally tries deletions and insertions, and
    ``char_perturb`` applies character swaps/deletions/duplications
    inside tokens.
    """

    kind: str = "greedy_substitute"
    candidates_per_position: int = 8
    max_queries: int = 10000
    timeout_seconds: float = 600.0

    def __post_init__(self) -> None:
        if self.kind not in ("greedy_substitute", "greedy_edit", "char_perturb"):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.max_queries < 1:
            raise ValueError("max_queries must be >= 1")
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")


@dataclass(frozen=True)
class AttackOutcome:
    instance_index: int
    status: str
    queries_used: int
    original_text: str
    true_label: int
    adversarial_text: str | None = None
    edit_distance_used: int | None = None

    def __post_init__(self) -> None:
        if (self.status == SUCCESS) != (self.adversarial_text is not None):
            raise ValueError("adversarial_text present iff status == success")


@dataclass(frozen=True)
class AttackReport:
    outcomes: tuple[AttackOutcome, ...]
    clean_accuracy: float
    robust_accuracy: float
    mean_queries: float
    #: instances the harness could not attack at all (e.g. classifier
    #: transport failures); never counted among the attack outcomes
    harness_errors: tuple[tuple[int, str], ...] = ()

    def count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)


@dataclass(frozen=True)
class Lexicon:
    """Substitution candidates: per-token lists plus a shared default."""

    entries: dict[str, tuple[str, ...]]
    default: tuple[str, ...] = ()

    def candidates(self, token: str, k: int) -> list[str]:
        pool = self.entries.get(token, self.default)
        return [c for c in pool if c != token][:k]


def load_lexicon(path: str) -> Lexicon:
    """Parse a candidate file: one ``token<TAB>cand1,cand2,...`` per line."""
    entries: dict[str, tuple[str, ...]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected token<TAB>candidates")
            token, cands = line.split("\t", 1)
            entries[token] = tuple(c for c in cands.split(",") if c)
    return Lexicon(entries)


def lexicon_from_model(model, k: int = 50) -> Lexicon:
    return Lexicon({}, tuple(model.most_common_tokens(k)))


def lexicon_from_dataset(data: LabeledDataset, k: int = 50, scheme: Scheme = Scheme.WHITESPACE) -> Lexicon:
    counts: dict[str, int] = {}
    for text, _ in data.items:
        for tok in tokenize(text, scheme).tokens:
            counts[tok] = counts.get(tok, 0) + 1
    ranked = sorted(counts, key=lambda t: (-counts[t], t))
    return Lexicon({}, tuple(ranked[:k]))


def _char_variants(token: str, k: int) -> list[str]:
    seen: list[str] = []
    chars = list(token)
    for i in range(len(chars) - 1):
        if chars[i] != chars[i + 1]:
            seen.append("".join(chars[:i] + [chars[i + 1], chars[i]] + chars[i + 2 :]))
    if len(chars) > 1:
        for i in range(len(chars)):
            seen.append("".join(chars[:i] + chars[i + 1 :]))
    for i in range(len(chars)):
        seen.append("".join(chars[: i + 1] + [chars[i]] + chars[i + 1 :]))
    out: list[str] = []
    for v in seen:
        if v != token and v and v not in out:
            out.append(v)
        if len(out) == k:
            break
    return out


class _Halt(Exception):
    def __init__(self, status: str):
        self.status = status


class _QueryBudget:
    """Counts target queries; raises when budget or wall clock runs out."""

    def __init__(self, target: BaseClassifier, recipe: AttackRecipe):
        self.target = target
        self.recipe = recipe
        self.used = 0
        self.t0 = time.monotonic()

    def query(self, text: str) -> int:
        if time.monotonic() - self.t0 > self.recipe.timeout_seconds:
            raise _Halt(TIMEOUT)
        if self.used >= self.recipe.max_queries:
            raise _Halt(FAIL)
        self.used += 1
        return self.target.classify_batch([text])[0]


def _perturbations(kind: str, token: str, lexicon: Lexicon, k: int) -> list[tuple[str, str | None]]:
    if kind == "greedy_substitute":
        return [("sub", c) for c in lexicon.candidates(token, k)]
    if kind == "greedy_edit":
        subs = lexicon.candidates(token, k)
        return [("del", None)] + [("sub", c) for c in subs] + [("ins", c) for c in subs]
    return [("sub", v) for v in _char_variants(token, k)]


def _attack_instance(
    target: BaseClassifier,
    index: int,
    text: str,
    label: int,
    recipe: AttackRecipe,
    lexicon: Lexicon,
    scheme: Scheme,
) -> AttackOutcome:
    budget = _QueryBudget(target, recipe)
    base = AttackOutcome(index, FAIL, 0, text, label)
    clean = target.classify_batch([text])[0]  # clean check is not charged to the budget
    if clean != label:
        return replace(base, status=SKIPPED)

    original = tokenize(text, scheme)
    tokens = original.tokens
    join = original.scheme.separator.join
    # entries are (original_position | None, token); None marks an insertion
    current: list[tuple[int | None, str]] = list(enumerate(tokens))
    try:
        flip_rank: list[tuple[int, int]] = []
        for pos in range(len(tokens)):
            pred = budget.query(join(tokens[:pos] + tokens[pos + 1 :]))
            flip_rank.append((0 if pred != label else 1, pos))
        flip_rank.sort()

        for _, pos in flip_rank:
            slot = next((s for s, (p, _) in enumerate(current) if p == pos), None)
            if slot is None:  # position was deleted by an earlier commit
                continue
            token = current[slot][1]
            options = _perturbations(recipe.kind, token, lexicon, recipe.candidates_per_position)
            first_trial = None
            for op, value in options:
                trial = list(current)
                if op == "del":
                    del trial[slot]
                elif op == "sub":
                    trial[slot] = (pos, value)
                else:  # insertion before the ranked position
                    trial.insert(slot, (None, value))
                adv_text = join([t for _, t in trial])
                pred = budget.query(adv_text)
                if pred != label:
                    dist = edit_distance(tokenize(adv_text, scheme), original, FULL_OPS)
                    return replace(
                        base,
                        status=SUCCESS,
                        queries_used=budget.used,
                        adversarial_text=adv_text,
                        edit_distance_used=int(dist),
                    )
                if first_trial is None:
                    first_trial = trial
            if first_trial is not None:
                # nothing flipped here; keep the first perturbation so later
                # positions build on an accumulated edit
                current = first_trial
        return replace(base, status=FAIL, queries_used=budget.used)
    except _Halt as halt:
        return replace(base, status=halt.status, queries_used=budget.used)


def _build_report(
    outcomes: Sequence[AttackOutcome],
    harness_errors: Sequence[tuple[int, str]] = (),
) -> AttackReport:
    total = len(outcomes)
    if total == 0:
        raise ValueError("report needs at least one instance")
    skipped = sum(1 for o in outcomes if o.status == SKIPPED)
    robust = sum(1 for o in outcomes if o.status in (FAIL, TIMEOUT))
    return AttackReport(
        outcomes=tuple(outcomes),
        clean_accuracy=(total - skipped) / total,
        robust_accuracy=robust / total,
        mean_queries=sum(o.queries_used for o in outcomes) / total,
        harness_errors=tuple(harness_errors),
    )


def run_attack(
    target: BaseClassifier,
    data: LabeledDataset,
    recipe: AttackRecipe,
    lexicon: Lexicon | None = None,
    scheme: Scheme = Scheme.WHITESPACE,
    jobs: int = 1,
) -> AttackReport:
    """Attack every instance; outcomes are merged in instance order.

    Transport failures of the target classifier are recorded per
    instance under ``harness_errors`` rather than as attack outcomes.
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    if lexicon is None:
        lexicon = lexicon_from_dataset(data, scheme=scheme)

    def one(args: tuple[int, tuple[str, int]]) -> AttackOutcome | tuple[int, str]:
        idx, (text, label) = args
        try:
            return _attack_instance(target, idx, text, label, recipe, lexicon, scheme)
        except TransportError as exc:
            return (idx, str(exc))

    work = list(enumerate(data.items))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, work))
    else:
        results = [one(w) for w in work]
    outcomes = sorted(
        (r for r in results if isinstance(r, AttackOutcome)), key=lambda o: o.instance_index
    )
    errors = sorted(r for r in results if not isinstance(r, AttackOutcome))
    return _build_report(outcomes, errors)


def transfer_attack(source_report: AttackReport, target: BaseClassifier) -> AttackReport:
    """Replay the source's successful adversarial texts against ``target``.

    Only source successes transfer; clean and robust accuracy are
    computed on that subset.
    """
    successes = [o for o in source_report.outcomes if o.status == SUCCESS]
    if not successes:
        raise DataFormatError("source report contains no successful attacks to transfer")
    outcomes = []
    for o in successes:
        assert o.adversarial_text is not None
        clean = target.classify_batch([o.original_text])[0]
        if clean != o.true_label:
            outcomes.append(
                AttackOutcome(o.instance_index, SKIPPED, 1, o.original_text, o.true_label)
            )
            continue
        adv_pred = target.classify_batch([o.adversarial_text])[0]
        if adv_pred != o.true_label:
            outcomes.append(
                AttackOutcome(
                    o.instance_index,
                    SUCCESS,
                    2,
                    o.original_text,
                    o.true_label,
                    adversarial_text=o.adversarial_text,
                    edit_distance_used=o.edit_distance_used,
                )
            )
        else:
            outcomes.append(
                AttackOutcome(o.instance_index, FAIL, 2, o.original_text, o.true_label)
            )
    return _build_report(outcomes)


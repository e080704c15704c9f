"""The four benchmark workloads.

Each is a closed loop with one caller that processes instances one at a
time, in input order, with the program's default options except those
named in ``params``.  A workload knows how to set the program up, how to
generate its inputs from the seed, how to run and time one unit of
instances, and how to check the outputs.

Library functions are always called through their module, so that the
traced run's rebinding (see ``tracing.py``) sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

import delcert.attacks
import delcert.certify
import delcert.classifier
import delcert.cli
import delcert.external
import delcert.oracle
from delcert.edit_metrics import ALL_OPS_SETS
from delcert.mechanisms import MechanismKind, MechanismParams
from delcert.rng import RandomStream
from delcert.tokenization import Scheme, TokenSeq, tokenize

import gen

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

certify_mod = sys.modules["delcert.certify"]
cli_mod = sys.modules["delcert.cli"]
classifier_mod = sys.modules["delcert.classifier"]
oracle_mod = sys.modules["delcert.oracle"]
attacks_mod = sys.modules["delcert.attacks"]

RECORD_HEADER = (
    ["instance", "true_label", "predicted", "abstained"]
    + [f"radius_{ops.letters}" for ops in ALL_OPS_SETS]
    + ["log10_cc_lb", "mu_y", "mu_yprime", "n_pred", "n_cert"]
)


class Result(NamedTuple):
    """One processed instance: the latency of its public call, its output
    line, the problem that failed it (or None) and its input."""

    latency: float
    output: str
    problem: str | None
    item: tuple


def _csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


def _deletion(p_del: float) -> MechanismParams:
    return MechanismParams(MechanismKind.DELETION, p_del)


def _timed(fn, *args, **kwargs) -> tuple[float, object, str | None]:
    """Time one public call.  An exception is returned as the problem, not
    raised, so that the instance counts as failed and the run goes on."""
    t0 = time.perf_counter()
    try:
        result, problem = fn(*args, **kwargs), None
    except Exception as exc:
        result, problem = None, f"{fn.__name__} raised {exc!r}"
    return time.perf_counter() - t0, result, problem


def _failed(results: list[Result], index: int, problem: str) -> None:
    if results[index].problem is None:
        results[index] = results[index]._replace(problem=problem)


def certify_row_problem(row: str, p_del: float) -> str | None:
    """Recheck one records row in exact rationals.

    Abstained rows carry all seven radii at 0; otherwise the full-ops
    radius ``r`` satisfies ``p^r > (2 + mu' - mu)/2 >= p^(r+1)`` for the
    row's own ``mu_y`` and ``mu_yprime``.
    """
    f = next(csv.reader([row]))
    radii = [int(v) for v in f[4:11]]
    if f[3] == "1":
        return None if not any(radii) else f"abstained row with radii {radii}"
    mu, mu_p = Fraction(float(f[12])), Fraction(float(f[13]))
    p = Fraction(p_del)
    t = (2 + mu_p - mu) / 2
    r = radii[0]
    ok = (p**r > t >= p ** (r + 1)) if t < 1 else r == 0
    return None if ok else f"full-ops radius {r} wrong for mu_y={f[12]} mu_yprime={f[13]}"


def certificate_row(idx: int, label: int, cert, n_pred: int, n_cert: int) -> str:
    """A records line in the format of ``delcert certify``."""
    return _csv_line(
        [idx, label, cert.predicted, int(cert.abstained)]
        + [cert.radius_by_ops[ops] for ops in ALL_OPS_SETS]
        + [repr(cert.log10_cardinality_lb), repr(cert.bounds.mu_y), repr(cert.bounds.mu_yprime)]
        + [n_pred, n_cert]
    )


class Workload:
    name = ""
    output_name = ""
    why = ""
    #: a run ends only at the end of a block of this many units
    units_per_block = 1

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.seed = seed
        self.tracer = None
        self.header = ""

    def params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        """One program set-up; the caller times it."""

    def teardown(self) -> list[str]:
        """Release what set-up started; returns run-level problems."""
        return []

    def units(self) -> Iterator:
        """Generated inputs, one unit (a list of instances) at a time."""
        raise NotImplementedError

    def process(self, unit) -> list[Result]:
        raise NotImplementedError

    def check(self, results: list[Result]) -> None:
        """Mark the results that fail a correctness check."""

    def inject_fault(self, results: list[Result]) -> None:
        """Tamper with one output, for the benchmark's own tests."""
        raise NotImplementedError(f"{self.name} has no fault to inject")

    def child_stats(self) -> dict | None:
        return None

    def _mark(self, idx: int) -> None:
        if self.tracer is not None:
            self.tracer.instance_id = idx


class _CertifyWorkload(Workload):
    """A workload whose outputs are records in the format of ``delcert certify``."""

    output_name = "records.csv"

    def check(self, results):
        for i, r in enumerate(results):
            if r.problem is None:
                problem = certify_row_problem(r.output, self.p_del)
                if problem:
                    _failed(results, i, problem)

    def inject_fault(self, results):
        """Overstate the full-ops radius of the first certified record by one."""
        for i, r in enumerate(results):
            f = next(csv.reader([r.output])) if r.problem is None else []
            if f and f[3] == "0":
                f[4] = str(int(f[4]) + 1)
                results[i] = r._replace(output=_csv_line(f))
                return


class CertifyBuiltin(_CertifyWorkload):
    name = "certify-builtin"
    why = "the fast path: keep-matrix sampling, CP bounds, radius search, big-integer ball bound"

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        self.p_del = 0.99
        self.n_pred, self.n_cert = (100, 400) if tiny else (1000, 4000)
        self.chunk = 4 if tiny else 50
        self.lengths = [(1.0, 40, 200)]
        self.train_count = 40 if tiny else 400
        self.train_path = out_dir / "train.jsonl"
        self.model_path = out_dir / "model.json"
        self.chunk_path = out_dir / "chunk.jsonl"
        self.chunk_out = out_dir / "chunk_records.csv"
        _write_jsonl(self.train_path, gen.training_texts(self.lengths, self.train_count))

    def params(self):
        return {
            "entry": "delcert.cli.main certify", "p_del": self.p_del, "n_pred": self.n_pred,
            "n_cert": self.n_cert, "alpha": 0.05, "lengths": self.lengths,
            "train_texts": self.train_count, "instances_per_cli_call": self.chunk,
        }

    def _cli(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_mod.main(argv)

    def setup(self):
        code = self._cli(["train", "--data", str(self.train_path), "--out", str(self.model_path),
                          "--rate", str(self.p_del), "--seed", str(gen.TRAIN_SEED)])
        if code != 0:
            raise RuntimeError(f"delcert train exited with {code}")

    def units(self):
        corpus = gen.Corpus(self.seed, gen.EVAL, self.lengths)
        for k in itertools.count():
            items = corpus.take(self.chunk)
            _write_jsonl(self.chunk_path, items)
            yield k, [(k * self.chunk + i, text, label) for i, (text, label) in enumerate(items)]

    def process(self, unit):
        k, items = unit
        latencies: list[float] = []
        timed = cli_mod.certify

        def certify(*args, **kwargs):
            self._mark(items[0][0] + len(latencies))
            t0 = time.perf_counter()
            cert = timed(*args, **kwargs)
            latencies.append(time.perf_counter() - t0)
            return cert

        argv = [
            "certify", "--model", str(self.model_path), "--data", str(self.chunk_path),
            "--out", str(self.chunk_out), "--rate", str(self.p_del), "--n-pred", str(self.n_pred),
            "--n-cert", str(self.n_cert), "--alpha", "0.05",
            # a distinct random stream per call
            "--seed", str(self.seed * 1_000_000 + k),
        ]
        self._mark(items[0][0])
        cli_mod.certify = certify
        try:
            if self.tracer is not None:
                with self.tracer.span("cli.main"):
                    _, code, problem = _timed(self._cli, argv)
            else:
                _, code, problem = _timed(self._cli, argv)
        finally:
            cli_mod.certify = timed
        if problem or code != 0:
            problem = problem or f"delcert certify exited with {code}"
            return [Result(0.0, "", problem, item) for item in items]
        with open(self.chunk_out, encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines(keepends=True)
        self.header, rows = lines[0], lines[1:]
        if len(rows) != len(items) or len(latencies) != len(items):
            problem = f"{len(items)} inputs: {len(rows)} rows, {len(latencies)} certify calls"
            return [Result(0.0, "", problem, item) for item in items]
        return [Result(t, row, None, item) for t, row, item in zip(latencies, rows, items)]


class CertifyExternal(_CertifyWorkload):
    name = "certify-external"
    why = "the black-box path: text materialization, JSON transport, child classification"

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        self.p_del = 0.9
        self.n_pred, self.n_cert = (100, 400) if tiny else (1000, 4000)
        self.lengths = [(0.7, 10, 40), (0.3, 80, 120)]
        self.train_count = 40 if tiny else 400
        self.train_items = gen.training_texts(self.lengths, self.train_count)
        self.model_path = out_dir / "model.json"
        self.stats_path = out_dir / "worker_stats.json"
        self.header = _csv_line(RECORD_HEADER)
        self.adapter = None
        self.child = None

    def params(self):
        return {
            "entry": "delcert.certify.certify + delcert.external.ExternalClassifier",
            "worker": "perfbench/worker.py", "p_del": self.p_del, "n_pred": self.n_pred,
            "n_cert": self.n_cert, "alpha": 0.05, "lengths": self.lengths,
            "train_texts": self.train_count,
        }

    def setup(self):
        data = classifier_mod.LabeledDataset.from_pairs(self.train_items, 2)
        model = classifier_mod.train_builtin(
            data, _deletion(self.p_del), stream=RandomStream(gen.TRAIN_SEED)
        )
        model.save(str(self.model_path))
        if self.stats_path.exists():
            self.stats_path.unlink()
        cmd = [sys.executable, str(HERE / "worker.py"), str(self.model_path), str(self.stats_path)]
        self.adapter = delcert.external.ExternalClassifier(cmd, num_classes=2)
        self.adapter.classify_batch(["warm up"])

    def teardown(self):
        adapter, self.adapter = self.adapter, None
        if adapter is None:
            return []
        adapter.close()
        code = adapter._proc.returncode  # the adapter keeps its child private
        if code != 0:
            return [f"classifier worker exited with {code}"]
        try:
            with open(self.stats_path, encoding="utf-8") as fh:
                stats = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"classifier worker left no stats: {exc}"]
        stats["requests"] = stats["requests"][1:]  # drop the set-up request
        self.child = stats
        return []

    def child_stats(self):
        return self.child

    def units(self):
        corpus = gen.Corpus(self.seed, gen.EVAL, self.lengths)
        for idx in itertools.count():
            yield [(idx, *corpus.draw())]

    def _certify(self, model, idx, text):
        return certify_mod.certify(
            model, tokenize(text), _deletion(self.p_del), n_pred=self.n_pred, n_cert=self.n_cert,
            alpha=0.05, stream=RandomStream(self.seed).child(idx),
        )

    def process(self, unit):
        (idx, text, label), = unit
        self._mark(idx)
        t, cert, problem = _timed(self._certify, self.adapter, idx, text)
        row = "" if problem else certificate_row(idx, label, cert, self.n_pred, self.n_cert)
        return [Result(t, row, problem, unit[0])]

    def check(self, results):
        super().check(results)
        fast = delcert.classifier.BuiltinModel.load(str(self.model_path))
        for i, r in enumerate(results):
            if r.problem is None:
                idx, text, label = r.item
                cert = self._certify(fast, idx, text)
                expected = certificate_row(idx, label, cert, self.n_pred, self.n_cert)
                if expected != r.output:
                    _failed(results, i, f"differs from the in-process fast path: {expected!r}")


class KeywordRule:
    """Deterministic rule: class 1 iff the marker token is present."""

    num_classes = 2

    def __init__(self, marker: str):
        self.marker = marker

    def classify_batch(self, texts):
        return [1 if self.marker in t.split() else 0 for t in texts]


class OracleVerify(Workload):
    name = "oracle-verify"
    output_name = "violations.jsonl"
    why = "brute-force verification: the 2^n pattern loop, ball enumeration, scalar DP"

    ALPHABET = ("a", "b", "c")
    BALL_MAX_LEN = 8  # the enumeration guard of delcert.edit_metrics

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        self.p_del = 0.8
        self.max_len = 2 if tiny else 4
        self.rule = KeywordRule("a")
        self.universe = [
            t for n in range(self.max_len + 1) for t in itertools.product(self.ALPHABET, repeat=n)
        ]
        # a run covers whole passes over the universe
        self.units_per_block = len(self.universe)

    def params(self):
        return {
            "entry": "delcert.oracle.exact_smoothed_scores + verify_certificate",
            "set_up": "import delcert.oracle in a fresh interpreter", "p_del": self.p_del,
            "alphabet": list(self.ALPHABET), "max_len": self.max_len,
            "classifier": "class 1 iff 'a' present", "instances_per_pass": len(self.universe),
        }

    def setup(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, "-c", "import delcert.oracle, delcert.certify"]
        subprocess.run(cmd, env=env, check=True)

    def units(self):
        # A unit is one sequence.  Each pass visits every sequence, in a
        # seeded order that is stratified by length and by whether the
        # marker is present.  The 16 sequences of length 4 without the
        # marker do equal work and take about half the pass; p90 falls
        # among them, so they are spread evenly over the pass rather than
        # left to bunch up in one stretch of the host's speed.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([self.seed, gen.EVAL])))
        strata: dict[tuple[int, bool], list[tuple]] = {}
        for toks in self.universe:
            strata.setdefault((len(toks), self.rule.marker in toks), []).append(toks)
        n = len(self.universe)
        for k in itertools.count():
            keyed = []
            for group in strata.values():
                offset = rng.random()
                keyed += [((r + offset) / len(group), group[j])
                          for r, j in enumerate(rng.permutation(len(group)))]
            keyed.sort(key=lambda pair: pair[0])
            for i, (_, toks) in enumerate(keyed):
                yield [(k * n + i, toks)]

    def _verify(self, toks):
        """Exact scores, the seven radii clipped as acceptance criterion 01
        clips them, and a brute-force check of each certificate."""
        x = TokenSeq(toks, Scheme.WHITESPACE)
        probs = oracle_mod.exact_smoothed_scores(self.rule, x, self.p_del).probs
        top = 0 if probs[0] >= probs[1] else 1
        radii, violations = [], []
        for ops in ALL_OPS_SETS:
            r = certify_mod.radius_from_margin(probs[top], probs[1 - top], self.p_del, ops)
            r = min(r, self.BALL_MAX_LEN - len(toks)) if ops.allow_del else min(r, len(toks))
            radii.append(r)
            found = oracle_mod.verify_certificate(self.rule, x, r, ops, self.ALPHABET, self.p_del)
            violations += [[ops.letters, " ".join(m.tokens)] for m in found]
        return radii, violations

    def process(self, unit):
        results = []
        for item in unit:
            idx, toks = item
            self._mark(idx)
            t, out, problem = _timed(self._verify, toks)
            row = "" if problem else json.dumps(
                {"instance": idx, "tokens": list(toks), "radii": out[0], "violations": out[1]}
            ) + "\n"
            results.append(Result(t, row, problem, item))
        return results

    def check(self, results):
        for i, r in enumerate(results):
            found = json.loads(r.output)["violations"] if r.problem is None else []
            if found:
                _failed(results, i, f"{len(found)} ball members change the exact prediction")

    def inject_fault(self, results):
        row = json.loads(results[0].output)
        row["violations"].append(["dis", "injected"])
        results[0] = results[0]._replace(output=json.dumps(row) + "\n")


class AttackSmoothed(Workload):
    name = "attack-smoothed"
    output_name = "outcomes.jsonl"
    why = "many tiny smoothed queries: per-query stream set-up and tokenization"

    def __init__(self, seed, tiny, out_dir):
        super().__init__(seed, tiny, out_dir)
        self.p_del = 0.9
        self.samples = 100
        self.lengths = [(1.0, 10, 30)]
        # With a strong class signal few texts are misclassified (skipped),
        # so the median instance is an attacked one and p50 does not hinge
        # on how many texts of a seed happen to be skipped.
        self.own_share = 0.7
        self.train_count = 40 if tiny else 400
        self.train_items = gen.training_texts(self.lengths, self.train_count, self.own_share)
        self.recipe = attacks_mod.AttackRecipe(kind="greedy_edit")
        self.model = None

    def params(self):
        return {
            "entry": "delcert.attacks.run_attack", "recipe": asdict(self.recipe),
            "p_del": self.p_del, "prediction_samples": self.samples,
            "lexicon": "lexicon_from_model", "lengths": self.lengths,
            "own_share": self.own_share, "train_texts": self.train_count,
        }

    def _predictor(self):
        return certify_mod.SmoothedPredictor(
            self.model, _deletion(self.p_del), n_samples=self.samples,
            stream=RandomStream(self.seed),
        )

    def setup(self):
        data = classifier_mod.LabeledDataset.from_pairs(self.train_items, 2)
        self.model = classifier_mod.train_builtin(
            data, _deletion(self.p_del), stream=RandomStream(gen.TRAIN_SEED)
        )
        self.predictor = self._predictor()
        self.lexicon = attacks_mod.lexicon_from_model(self.model)

    def units(self):
        corpus = gen.Corpus(self.seed, gen.EVAL, self.lengths, self.own_share)
        for idx in itertools.count():
            yield [(idx, *corpus.draw())]

    def process(self, unit):
        (idx, text, label), = unit
        data = classifier_mod.LabeledDataset.from_pairs([(text, label)], 2)
        self._mark(idx)
        t, report, problem = _timed(
            attacks_mod.run_attack, self.predictor, data, self.recipe, self.lexicon
        )
        row = "" if problem else json.dumps(
            {"instance": idx, "outcomes": [asdict(o) for o in report.outcomes],
             "harness_errors": [list(e) for e in report.harness_errors]},
            sort_keys=True,
        ) + "\n"
        return [Result(t, row, problem, unit[0])]

    def check(self, results):
        atk = attacks_mod
        fresh = self._predictor()
        for i, r in enumerate(results):
            if r.problem is not None:
                continue
            row = json.loads(r.output)
            outcomes = row["outcomes"]
            if row["harness_errors"] or len(outcomes) != 1:
                _failed(results, i, f"expected one outcome, got {row}")
            elif outcomes[0]["status"] not in (atk.SUCCESS, atk.FAIL, atk.SKIPPED):
                _failed(results, i, f"outcome {outcomes[0]['status']}")
            elif outcomes[0]["status"] == atk.SUCCESS:
                o = outcomes[0]
                if fresh.predict(o["adversarial_text"]) == o["true_label"]:
                    _failed(results, i, "success does not replay on a fresh predictor")


def _write_jsonl(path: Path, items) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for text, label in items:
            fh.write(json.dumps({"text": text, "label": label}) + "\n")


WORKLOADS = {w.name: w for w in (CertifyBuiltin, CertifyExternal, OracleVerify, AttackSmoothed)}

"""Span tracer for the traced run, and the rebinding of delcert's public
functions that feeds it.

Spans are recorded from the benchmark's side only: every traced name is
rebound to a wrapper for the length of the traced phase and restored
afterwards; nothing under ``src/`` changes.  A span holds its name,
start, end, parent span and instance id.  Spans opened while
``instance_id`` is negative belong to set-up and are excluded from the
per-layer metrics, except ``classifier.train_builtin``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: per-layer metrics: name, unit, better, and the workload and end-to-end
#: metric that a change to the layer should move
LAYERS: list[tuple[str, str, str, str]] = [
    ("mechanisms.keep_matrix.calls", "count", "lower",
     "certify-builtin: instances_per_s, instance_ms_p50"),
    ("mechanisms.keep_matrix.s", "s", "lower", "certify-builtin: instances_per_s, instance_ms_p50"),
    ("mechanisms.keep_matrix.draws", "count", "lower",
     "certify-builtin: instances_per_s, instance_ms_p50"),
    ("mechanisms.keep_matrix.distinct_frac", "ratio", "lower",
     "certify-external: instance_ms_p50 (dedup headroom)"),
    ("rng.generator.calls", "count", "lower", "attack-smoothed: instance_ms_p50"),
    ("rng.generator.s", "s", "lower", "attack-smoothed: instance_ms_p50"),
    ("tokenization.tokenize.calls", "count", "lower", "attack-smoothed: instance_ms_p50"),
    ("tokenization.tokenize.s", "s", "lower", "attack-smoothed: instance_ms_p50"),
    ("certify.vote_counts.self_s", "s", "lower",
     "certify-external: instance_ms_p50; certify-builtin: instances_per_s"),
    ("certify.texts", "count", "lower", "certify-external: instance_ms_p50"),
    ("certify.score_bounds.calls", "count", "lower", "certify-builtin: instance_ms_p50"),
    ("certify.score_bounds.s", "s", "lower", "certify-builtin: instance_ms_p50"),
    ("certify.radius_from_margin.calls", "count", "lower",
     "certify-builtin, oracle-verify: instance_ms_p50"),
    ("certify.radius_from_margin.s", "s", "lower",
     "certify-builtin, oracle-verify: instance_ms_p50"),
    ("certify.smoothed_predict.calls", "count", "lower", "attack-smoothed: instance_ms_p50"),
    ("certify.smoothed_predict.s", "s", "lower", "attack-smoothed: instance_ms_p50"),
    ("certify.abstained", "count", "lower", "certify-builtin: none (correctness)"),
    ("edit_metrics.lev_ball_lower_bound.calls", "count", "lower",
     "certify-builtin: instance_ms_p90"),
    ("edit_metrics.lev_ball_lower_bound.s", "s", "lower", "certify-builtin: instance_ms_p90"),
    ("edit_metrics.enumerate_ball.calls", "count", "lower", "oracle-verify: instances_per_s"),
    ("edit_metrics.enumerate_ball.s", "s", "lower", "oracle-verify: instances_per_s"),
    ("edit_metrics.enumerate_ball.candidates", "count", "lower", "oracle-verify: instances_per_s"),
    ("edit_metrics.enumerate_ball.members", "count", "lower", "oracle-verify: instances_per_s"),
    ("edit_metrics.enumerate_ball.members_per_candidate", "ratio", "higher",
     "oracle-verify: instances_per_s"),
    ("kernels.edit_distance_ids.calls", "count", "lower", "oracle-verify: instances_per_s"),
    ("edit_metrics.edit_distance.s", "s", "lower", "attack-smoothed: instance_ms_p50"),
    ("classifier.classify_batch.calls", "count", "lower", "certify-external: instance_ms_p50"),
    ("classifier.classify_batch.texts", "count", "lower", "certify-external: instance_ms_p50"),
    ("classifier.classify_batch.distinct_frac", "ratio", "lower",
     "certify-external: instance_ms_p50"),
    ("classifier.classify_batch.s", "s", "lower", "certify-external: instance_ms_p50"),
    ("classifier.train_builtin.s", "s", "lower",
     "certify-builtin, certify-external, attack-smoothed: setup_s"),
    ("external.round_trip_s", "s", "lower", "certify-external: instance_ms_p50, instance_ms_p90"),
    ("external.child_busy_s", "s", "lower", "certify-external: instance_ms_p50, instance_ms_p90"),
    ("external.wait_s", "s", "lower", "certify-external: instance_ms_p50, instance_ms_p90"),
    ("external.bytes_sent", "B", "lower", "certify-external: instance_ms_p50"),
    ("external.bytes_received", "B", "lower", "certify-external: instance_ms_p50"),
    ("external.errors", "count", "lower", "certify-external: none (correctness)"),
    ("external.child_peak_rss_mb", "MB", "lower", "certify-external: none (child memory)"),
    ("oracle.exact_smoothed_scores.calls", "count", "lower",
     "oracle-verify: instance_ms_p50, instance_ms_p90"),
    ("oracle.exact_smoothed_scores.s", "s", "lower",
     "oracle-verify: instance_ms_p50, instance_ms_p90"),
    ("oracle.exact_smoothed_scores.patterns", "count", "lower",
     "oracle-verify: instance_ms_p50, instance_ms_p90"),
    ("oracle.exact_smoothed_scores.subsequences", "count", "lower",
     "oracle-verify: instance_ms_p50, instance_ms_p90"),
    ("oracle.verify_certificate.calls", "count", "lower",
     "oracle-verify: instance_ms_p50, instance_ms_p90"),
    ("oracle.verify_certificate.s", "s", "lower",
     "oracle-verify: instance_ms_p50, instance_ms_p90"),
    ("oracle.verify_certificate.violations", "count", "lower", "oracle-verify: none (correctness)"),
    ("attacks.queries", "count", "lower", "attack-smoothed: instance_ms_p50"),
    ("attacks.predict_s", "s", "lower", "attack-smoothed: instance_ms_p50"),
    ("attacks.self_s", "s", "lower", "attack-smoothed: instance_ms_p50"),
    ("attacks.success", "count", "lower", "attack-smoothed: none (outcome)"),
    ("attacks.fail", "count", "higher", "attack-smoothed: none (outcome)"),
    ("attacks.skipped", "count", "lower", "attack-smoothed: none (outcome)"),
    ("attacks.timeout", "count", "lower", "attack-smoothed: none (outcome)"),
    ("cli.self_s", "s", "lower", "certify-builtin: instances_per_s"),
    ("trace.overhead_frac", "ratio", "lower", "all: none (tracing cost)"),
]

_SETUP_SPANS = {"classifier.train_builtin"}


class Tracer:
    """Spans in flat arrays (one entry per span) plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.instance_id = -1
        self.counters: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.instance_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @property
    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self.name_id[self._stack[-1]]] if self._stack else None

    def count(self, name: str, value: float = 1) -> None:
        if self.instance_id >= 0:
            self.counters[name] += value

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, seconds, self seconds)``.

        Self time is a span's duration minus the durations of its direct
        children; one thread opens every span, so children never overlap.
        """
        n = len(self.end)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        self_t = dur - np.bincount(parent[has], weights=dur[has], minlength=n)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        keep = np.frombuffer(self.instance, dtype=np.int32) >= 0
        for name in _SETUP_SPANS & set(self._ids):
            keep |= nid == self._ids[name]
        k = len(self.names)
        calls = np.bincount(nid[keep], minlength=k)
        secs = np.bincount(nid[keep], weights=dur[keep], minlength=k)
        selfs = np.bincount(nid[keep], weights=self_t[keep], minlength=k)
        return {
            name: (int(calls[i]), float(secs[i]), float(selfs[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            instance=np.frombuffer(self.instance, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class Bindings:
    """Rebinds module or class attributes and restores every one of them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")


def traced(tracer: Tracer, name: str, fn, after=None, costly: bool = False):
    """Wrap ``fn`` in a span.

    ``after(args, result, parent)`` updates counters, with ``parent`` the
    name of the span the call was made in.  A ``costly`` one runs in a
    ``trace.bookkeeping`` span, so that its cost stays out of ``name``'s
    time and out of the parent's self time.
    """

    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.close(idx)
            tracer.count(name + ".errors")
            raise
        tracer.close(idx)
        if after is not None:
            parent = tracer.current
            if costly:
                with tracer.span("trace.bookkeeping"):
                    after(args, result, parent)
            else:
                after(args, result, parent)
        return result

    return wrapper


def _distinct_rows(keep: np.ndarray) -> int:
    if keep.shape[0] == 0 or keep.shape[1] == 0:
        return min(1, keep.shape[0])
    packed = np.packbits(keep, axis=1)
    return len(set(packed.view(f"V{packed.shape[1]}").ravel().tolist()))


def install(tracer: Tracer, bindings: Bindings, extra_classifiers=()):
    """Rebind every traced name of delcert for ``tracer``, and the
    ``classify_batch`` of each class in ``extra_classifiers``.

    ``delcert.certify`` on the package is the re-exported function, so
    modules are reached through ``sys.modules``; names brought in with
    ``from ... import`` are rebound in the module that imports them.
    """
    cert, cli, clf, orc, atk, kernels, rng, external = (
        sys.modules[f"delcert.{m}"]
        for m in ("certify", "cli", "classifier", "oracle", "attacks", "kernels", "rng", "external")
    )
    count = tracer.count

    def on_certify(args, cert_result, parent):
        count("certify.abstained", int(cert_result.abstained))

    def on_keep(args, keep, parent):
        count("mechanisms.keep_matrix.draws", keep.shape[0])
        count("mechanisms.keep_matrix.distinct", _distinct_rows(keep))

    def on_classify(args, labels, parent):
        texts = args[-1]
        count("classifier.classify_batch.texts", len(texts))
        count("classifier.classify_batch.distinct", len(set(texts)))
        if parent == "certify.vote_counts":
            count("certify.texts", len(texts))
        elif parent == "oracle.exact_smoothed_scores":
            count("oracle.exact_smoothed_scores.subsequences", len(texts))

    def on_ball(args, members, parent):
        count("edit_metrics.enumerate_ball.members", len(members))

    def on_exact(args, scores, parent):
        count("oracle.exact_smoothed_scores.patterns", 1 << scores.n)

    def on_verify(args, violations, parent):
        count("oracle.verify_certificate.violations", len(violations))

    def on_attack(args, report, parent):
        for status in (atk.SUCCESS, atk.FAIL, atk.SKIPPED, atk.TIMEOUT):
            count(f"attacks.{status}", report.count(status))

    spans = [
        (cert, "certify", "certify.certify", on_certify),
        (cli, "certify", "certify.certify", on_certify),
        (cert, "smoothed_predict", "certify.smoothed_predict", None),
        (cert, "vote_counts", "certify.vote_counts", None),
        (cert, "deletion_keep_matrix", "mechanisms.keep_matrix", on_keep, True),
        (cert, "score_bounds", "certify.score_bounds", None),
        (cert, "radius_from_margin", "certify.radius_from_margin", None),
        (cert, "lev_ball_cardinality_lower_bound", "edit_metrics.lev_ball_lower_bound", None),
        (rng.RandomStream, "generator", "rng.generator", None),
        (clf, "train_builtin", "classifier.train_builtin", None),
        (cli, "train_builtin", "classifier.train_builtin", None),
        (orc, "enumerate_ball", "edit_metrics.enumerate_ball", on_ball),
        (orc, "exact_smoothed_scores", "oracle.exact_smoothed_scores", on_exact),
        (orc, "verify_certificate", "oracle.verify_certificate", on_verify),
        (atk, "run_attack", "attacks.run_attack", on_attack),
        (atk, "edit_distance", "edit_metrics.edit_distance", None),
        (external.ExternalClassifier, "classify_batch", "external.round_trip", on_classify, True),
    ]
    spans += [(m, "tokenize", "tokenization.tokenize", None) for m in (cert, clf, atk, cli)]
    spans += [
        (c, "classify_batch", "classifier.classify_batch", on_classify, True)
        for c in [clf.BuiltinModel, *extra_classifiers]
    ]
    # the attacked target: its spans are the attack's queries
    spans.append((cert.SmoothedPredictor, "predict", "attacks.predict", None))
    for owner, attr, name, after, *costly in spans:
        bindings.rebind(owner, attr, traced(tracer, name, getattr(owner, attr), after, *costly))

    # millions of calls in the oracle: a counter, no spans
    dp = kernels.edit_distance_ids

    def edit_distance_ids(*args):
        count("kernels.edit_distance_ids.calls")
        if tracer.current == "edit_metrics.enumerate_ball":
            count("edit_metrics.enumerate_ball.candidates")
        return dp(*args)

    bindings.rebind(kernels, "edit_distance_ids", edit_distance_ids)


def layer_metrics(tracer: Tracer, child: dict | None, overhead_frac: float) -> dict[str, float]:
    """Every metric of :data:`LAYERS`, zero where a layer did no work.

    ``child`` holds the external worker's per-request stats for the
    traced phase (``requests`` and ``peak_rss_mb``), or None.
    """
    t = tracer.totals()
    c = tracer.counters

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    requests = child["requests"] if child else []
    round_trip = secs("external.round_trip")
    busy = sum(r[2] for r in requests)
    m = {
        "mechanisms.keep_matrix.calls": calls("mechanisms.keep_matrix"),
        "mechanisms.keep_matrix.s": secs("mechanisms.keep_matrix"),
        "mechanisms.keep_matrix.draws": c["mechanisms.keep_matrix.draws"],
        "mechanisms.keep_matrix.distinct_frac": ratio(
            c["mechanisms.keep_matrix.distinct"], c["mechanisms.keep_matrix.draws"]
        ),
        "rng.generator.calls": calls("rng.generator"),
        "rng.generator.s": secs("rng.generator"),
        "tokenization.tokenize.calls": calls("tokenization.tokenize"),
        "tokenization.tokenize.s": secs("tokenization.tokenize"),
        "certify.vote_counts.self_s": self_s("certify.vote_counts"),
        "certify.texts": c["certify.texts"],
        "certify.abstained": c["certify.abstained"],
        "edit_metrics.enumerate_ball.candidates": c["edit_metrics.enumerate_ball.candidates"],
        "edit_metrics.enumerate_ball.members": c["edit_metrics.enumerate_ball.members"],
        "edit_metrics.enumerate_ball.members_per_candidate": ratio(
            c["edit_metrics.enumerate_ball.members"], c["edit_metrics.enumerate_ball.candidates"]
        ),
        "kernels.edit_distance_ids.calls": c["kernels.edit_distance_ids.calls"],
        "edit_metrics.edit_distance.s": secs("edit_metrics.edit_distance"),
        "classifier.classify_batch.calls": (
            calls("classifier.classify_batch") + calls("external.round_trip")
        ),
        "classifier.classify_batch.texts": c["classifier.classify_batch.texts"],
        "classifier.classify_batch.distinct_frac": ratio(
            c["classifier.classify_batch.distinct"], c["classifier.classify_batch.texts"]
        ),
        "classifier.classify_batch.s": secs("classifier.classify_batch") + round_trip,
        "classifier.train_builtin.s": secs("classifier.train_builtin"),
        "external.round_trip_s": round_trip,
        "external.child_busy_s": busy,
        "external.wait_s": round_trip - busy,
        "external.bytes_sent": sum(r[0] for r in requests),
        "external.bytes_received": sum(r[1] for r in requests),
        "external.errors": c["external.round_trip.errors"],
        "external.child_peak_rss_mb": child["peak_rss_mb"] if child else 0.0,
        "oracle.exact_smoothed_scores.patterns": c["oracle.exact_smoothed_scores.patterns"],
        "oracle.exact_smoothed_scores.subsequences": c["oracle.exact_smoothed_scores.subsequences"],
        "oracle.verify_certificate.violations": c["oracle.verify_certificate.violations"],
        "attacks.queries": calls("attacks.predict"),
        "attacks.predict_s": secs("attacks.predict"),
        "attacks.self_s": self_s("attacks.run_attack"),
        "cli.self_s": self_s("cli.main"),
        "trace.overhead_frac": overhead_frac,
    }
    for status in ("success", "fail", "skipped", "timeout"):
        m[f"attacks.{status}"] = c[f"attacks.{status}"]
    for layer, name in (
        ("certify.score_bounds", "certify.score_bounds"),
        ("certify.radius_from_margin", "certify.radius_from_margin"),
        ("certify.smoothed_predict", "certify.smoothed_predict"),
        ("edit_metrics.lev_ball_lower_bound", "edit_metrics.lev_ball_lower_bound"),
        ("edit_metrics.enumerate_ball", "edit_metrics.enumerate_ball"),
        ("oracle.exact_smoothed_scores", "oracle.exact_smoothed_scores"),
        ("oracle.verify_certificate", "oracle.verify_certificate"),
    ):
        m[f"{layer}.calls"] = calls(name)
        m[f"{layer}.s"] = secs(name)
    missing = {name for name, *_ in LAYERS} ^ set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with LAYERS: {sorted(missing)}")
    return m

"""Command-line surface: training, certification, cardinality analytics,
attack runs, and report emission.

Datasets are newline-delimited JSON ({"text": ..., "label": ...}) or CSV
with a text,label header.  Records and curves are emitted as CSV with a
header; attack reports as JSON.  Every command taking ``--seed`` is
bit-reproducible.  Each subcommand takes only the flags it reads
(``_COMMANDS``).  Flag values override config-file values, which
override defaults; a config key the command does not read is ignored.
Exit codes: 0 success, 2 usage (including an invalid option value),
3 data error, 4 guard/scale error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

from . import attacks as atk
from .certify import SmoothedPredictor, certify, smoothed_predict
from .classifier import BuiltinModel, LabeledDataset, train_builtin
from .edit_metrics import (
    ALL_OPS_SETS,
    CardinalityParams,
    EditOpsSet,
    hamming_ball_cardinality,
    lev_ball_cardinality_exact,
    lev_ball_cardinality_lower_bound,
)
from .errors import DataFormatError, DelcertError, GuardError, UsageError
from .external import ExternalClassifier
from .mechanisms import MechanismKind, MechanismParams
from .rng import RandomStream
from .textcrs import deletion_cover_radii, insertion_cover_radii, max_certified_edit_radius
from .tokenization import Scheme, TokenSeq, tokenize

_OPS_COLUMNS = [(ops, f"radius_{ops.letters}") for ops in ALL_OPS_SETS]

DEFAULTS: dict[str, object] = {
    "mechanism": "deletion",
    "rate": 0.9,
    "n_pred": 1000,
    "n_cert": 4000,
    "alpha": 0.05,
    "prediction_samples": 100,
    "vocab_size": 50265,
    "seed": 0,
    "ops": "dis",
    "timeout_seconds": 600.0,
    "max_queries": 10000,
    "candidates_per_position": 8,
    "samples_per_instance": 8,
    "scheme": "whitespace",
    "bound_mode": "bonferroni-cp",
    "jobs": 1,
    "recipe": "greedy_substitute",
    "target": "smoothed",
    "num_classes": 2,
}


# ---------------------------------------------------------------------------
# config and dataset I/O
# ---------------------------------------------------------------------------


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


class _Opts:
    """Resolves option values with precedence flag > config > default.

    Config values are parsed and checked like the flag they stand for.
    """

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.config = _read_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str):
        if self.args.get(key) is not None:
            return self.args[key]
        if key not in self.config:
            return DEFAULTS.get(key)
        spec = _FLAGS["--" + key.replace("_", "-")]
        try:
            value = spec.get("type", str)(self.config[key])
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"config {key}: {exc}") from None
        if value not in spec.get("choices", [value]):
            raise UsageError(f"config {key}: expected one of {spec['choices']}, got {value!r}")
        return value


def load_dataset(path: str) -> LabeledDataset:
    """Read a JSONL or CSV dataset; malformed rows report their line number."""
    pairs: list[tuple[str, int]] = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot open dataset {path}: {exc}") from exc
    with fh:
        if path.endswith(".csv"):
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"text", "label"} <= set(reader.fieldnames):
                raise DataFormatError(f"{path}: CSV needs a text,label header")
            for lineno, row in enumerate(reader, start=2):
                try:
                    pairs.append((row["text"], int(row["label"])))
                except (KeyError, TypeError, ValueError) as exc:
                    raise DataFormatError(f"{path}:{lineno}: bad row ({exc})") from exc
        else:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    pairs.append((str(obj["text"]), int(obj["label"])))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise DataFormatError(f"{path}:{lineno}: bad row ({exc})") from exc
    if not pairs:
        raise DataFormatError(f"{path}: dataset is empty")
    return LabeledDataset.from_pairs(pairs)


def _mechanism(opts: _Opts) -> MechanismParams:
    return MechanismParams(MechanismKind(opts.get("mechanism")), opts.get("rate"))


@contextlib.contextmanager
def _classifier(opts: _Opts):
    """The base classifier: a child started from ``--external-cmd``, closed
    on exit, or else the built-in model in ``--model``."""
    external_cmd = opts.get("external_cmd")
    if not external_cmd:
        model_path = opts.get("model")
        if not model_path:
            raise UsageError("either --model or --external-cmd is required")
        yield BuiltinModel.load(model_path)
        return
    try:
        model = ExternalClassifier(external_cmd, num_classes=opts.get("num_classes"))
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot start --external-cmd {external_cmd!r}: {exc}") from exc
    try:
        yield model
    finally:
        model.close()


def _input_scheme(model, opts: _Opts) -> Scheme:
    """The built-in model's own scheme, else ``--scheme``."""
    return model.scheme if isinstance(model, BuiltinModel) else Scheme(opts.get("scheme"))


def _make_target(opts: _Opts, model):
    """The attacked classifier: ``model`` itself, or smoothed around it."""
    if opts.get("target") == "base":
        return model
    return SmoothedPredictor(
        model,
        _mechanism(opts),
        n_samples=opts.get("prediction_samples"),
        stream=RandomStream(opts.get("seed")),
        scheme=Scheme(opts.get("scheme")),
    )


def _write_text(path: str | None, content: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    opts = _Opts(args)
    data = load_dataset(args.data)
    model = train_builtin(
        data,
        _mechanism(opts),
        samples_per_instance=opts.get("samples_per_instance"),
        stream=RandomStream(opts.get("seed")),
        scheme=Scheme(opts.get("scheme")),
    )
    model.save(args.out)
    print(f"trained on {len(data)} instances; vocabulary {len(model.tokens)}; wrote {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    opts = _Opts(args)
    data = load_dataset(args.data)
    mech = _mechanism(opts)
    n_pred = opts.get("n_pred")
    stream = RandomStream(opts.get("seed"))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["instance", "true_label", "predicted"])
    correct = 0
    with _classifier(opts) as model:
        scheme = _input_scheme(model, opts)
        for idx, (text, label) in enumerate(data.items):
            x = tokenize(text, scheme)
            pred, _ = smoothed_predict(model, x, mech, n_pred, stream.child(idx, 0).generator())
            correct += int(pred == label)
            writer.writerow([idx, label, pred])
    _write_text(args.out, buf.getvalue())
    print(f"accuracy={correct / len(data)!r}")
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    opts = _Opts(args)
    rate = opts.get("rate")
    if not 0.0 < rate < 1.0:
        raise UsageError(f"certify needs a rate strictly between 0 and 1, got {rate!r}")
    mech = MechanismParams(MechanismKind.DELETION, rate)
    n_pred, n_cert = opts.get("n_pred"), opts.get("n_cert")
    settings = dict(
        n_pred=n_pred,
        n_cert=n_cert,
        alpha=opts.get("alpha"),
        vocab_size=opts.get("vocab_size"),
        bound_mode=opts.get("bound_mode"),
    )
    stream = RandomStream(opts.get("seed"))
    jobs = opts.get("jobs")
    ops_sel = EditOpsSet.from_letters(opts.get("ops"))
    data = load_dataset(args.data)

    with _classifier(opts) as model:
        scheme = _input_scheme(model, opts)

        def one(item):
            idx, (text, _) = item
            x = tokenize(text, scheme)
            return certify(model, x, mech, stream=stream.child(idx), **settings)

        work = list(enumerate(data.items))
        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                certs = list(pool.map(one, work))
        else:
            certs = [one(w) for w in work]

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["instance", "true_label", "predicted", "abstained"]
        + [col for _, col in _OPS_COLUMNS]
        + ["log10_cc_lb", "mu_y", "mu_yprime", "n_pred", "n_cert"]
    )
    for idx, ((_, label), cert) in enumerate(zip(data.items, certs)):
        writer.writerow(
            [idx, label, cert.predicted, int(cert.abstained)]
            + [cert.radius_by_ops[ops] for ops, _ in _OPS_COLUMNS]
            + [repr(cert.log10_cardinality_lb), repr(cert.bounds.mu_y)]
            + [repr(cert.bounds.mu_yprime), n_pred, n_cert]
        )
    _write_text(args.out, buf.getvalue())

    sel_col = f"radius_{ops_sel.letters}"
    radii = [cert.radius_by_ops[ops_sel] for cert in certs]
    correct = [int(cert.predicted == label) for (_, label), cert in zip(data.items, certs)]
    print(f"instances={len(certs)}")
    print(f"clean_accuracy={sum(correct) / len(certs)!r}")
    print(f"median_radius[{sel_col}]={statistics.median(radii)!r}")
    print(f"median_log10_cc={statistics.median(c.log10_cardinality_lb for c in certs)!r}")
    print(f"abstained={sum(c.abstained for c in certs)}")
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    with open(args.records, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise DataFormatError(f"{args.records}: no records")
    missing = {"true_label", "predicted", "abstained", "log10_cc_lb"} - set(rows[0])
    if missing:
        raise DataFormatError(f"{args.records}: records lack columns {sorted(missing)}")
    # an abstention certifies nothing, so it counts as wrong (Cohen et al. 2019)
    correct = [r["predicted"] == r["true_label"] and r["abstained"] == "0" for r in rows]
    log_cc = [float(r["log10_cc_lb"]) for r in rows]
    if args.thresholds:
        thresholds = args.thresholds
    else:
        top = max(log_cc)
        count = args.grid or 21
        thresholds = [top * i / (count - 1) for i in range(count)] if count > 1 else [0.0]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["threshold_log10_cc", "certified_accuracy"])
    for c in thresholds:
        frac = sum(1 for ok, cc in zip(correct, log_cc) if ok and cc >= c) / len(rows)
        writer.writerow([repr(c), repr(frac)])
    _write_text(args.out, buf.getvalue())
    return 0


def cmd_cardinality(args: argparse.Namespace) -> int:
    opts = _Opts(args)
    n = args.length
    v = opts.get("vocab_size")
    r = args.radius
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["measure", "length", "vocab_size", "radius", "count", "log10"])

    def emit(measure: str, count: int) -> None:
        writer.writerow([measure, n, v, r, count, repr(math.log10(count)) if count else ""])

    which = args.which
    lower = None
    exact = None
    if which in ("hamming", "all"):
        emit("hamming_exact", hamming_ball_cardinality(CardinalityParams(n, r, v)))
    if which in ("lower", "all"):
        lower = lev_ball_cardinality_lower_bound(CardinalityParams(n, r, v))
        emit("levenshtein_lower_bound", lower)
    if which == "exact" or (which == "all" and args.exact):
        tokens = args.tokens.split() if args.tokens else [f"t{i}" for i in range(n)]
        if len(tokens) != n:
            raise DataFormatError(f"--tokens has {len(tokens)} tokens but --length is {n}")
        x = TokenSeq(tuple(tokens), Scheme.WHITESPACE)
        exact = lev_ball_cardinality_exact(x, v, r)
        emit("levenshtein_exact", exact)
    if lower is not None and exact is not None:
        ratio = math.exp(math.log(exact) - math.log(lower))  # safe for huge counts
        writer.writerow(["exact_to_lower_ratio", n, v, r, "", repr(ratio)])
    _write_text(args.out, buf.getvalue())
    return 0


def cmd_textcrs(args: argparse.Namespace) -> int:
    n = args.length
    if n < 1:
        raise UsageError(f"textcrs needs --length >= 1, got {n}")
    kind = args.kind
    r_R_cap = args.r_r_cap if args.r_r_cap is not None else float(n)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["kind", "length", "r_R_cap", "r_I_cap", "d_star", "max_edit_radius", "r_R_min_at_max"]
    )
    kinds = ["deletion", "insertion"] if kind == "both" else [kind]
    for k in kinds:
        if k == "insertion":
            r_star = max_certified_edit_radius(n, k, r_R_cap, args.r_i_cap, args.d_star)
            req = insertion_cover_radii(n, r_star, args.d_star) if r_star else None
            writer.writerow(
                [k, n, r_R_cap, args.r_i_cap, args.d_star, r_star, str(req.r_R_min) if req else "0"]
            )
        else:
            r_star = max_certified_edit_radius(n, k, r_R_cap)
            req = deletion_cover_radii(n, r_star)
            writer.writerow([k, n, r_R_cap, "", "", r_star, str(req.r_R_min)])
    _write_text(args.out, buf.getvalue())
    return 0


def _report_to_json(report: atk.AttackReport, meta: dict) -> str:
    payload = dict(meta)
    payload.update(
        {
            "clean_accuracy": report.clean_accuracy,
            "robust_accuracy": report.robust_accuracy,
            "mean_queries": report.mean_queries,
            "counts": {s: report.count(s) for s in (atk.SUCCESS, atk.FAIL, atk.SKIPPED, atk.TIMEOUT)},
            "outcomes": [asdict(o) for o in report.outcomes],
            "harness_errors": [list(e) for e in report.harness_errors],
        }
    )
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def cmd_attack(args: argparse.Namespace) -> int:
    opts = _Opts(args)
    data = load_dataset(args.data)
    recipe = atk.AttackRecipe(
        kind=opts.get("recipe"),
        candidates_per_position=opts.get("candidates_per_position"),
        max_queries=opts.get("max_queries"),
        timeout_seconds=opts.get("timeout_seconds"),
    )
    with _classifier(opts) as model:
        target = _make_target(opts, model)
        if args.lexicon:
            lexicon = atk.load_lexicon(args.lexicon)
        elif isinstance(model, BuiltinModel):
            lexicon = atk.lexicon_from_model(model)
        else:
            lexicon = atk.lexicon_from_dataset(data, scheme=Scheme(opts.get("scheme")))
        report = atk.run_attack(
            target, data, recipe, lexicon, scheme=Scheme(opts.get("scheme")),
            jobs=opts.get("jobs"),
        )
    meta = {
        "mode": "direct",
        "recipe": asdict(recipe),
        "seed": opts.get("seed"),
        "target": opts.get("target"),
        "mechanism": opts.get("mechanism"),
        "rate": opts.get("rate"),
        "prediction_samples": opts.get("prediction_samples"),
    }
    _write_text(args.out, _report_to_json(report, meta))
    print(f"clean_accuracy={report.clean_accuracy!r}")
    print(f"robust_accuracy={report.robust_accuracy!r}")
    print(f"mean_queries={report.mean_queries!r}")
    return 0


def _report_from_json(path: str) -> atk.AttackReport:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    outcomes = [atk.AttackOutcome(**o) for o in payload["outcomes"]]
    return atk.AttackReport(
        outcomes=tuple(outcomes),
        clean_accuracy=payload["clean_accuracy"],
        robust_accuracy=payload["robust_accuracy"],
        mean_queries=payload["mean_queries"],
        harness_errors=tuple(tuple(e) for e in payload.get("harness_errors", [])),
    )


def cmd_transfer(args: argparse.Namespace) -> int:
    opts = _Opts(args)
    source = _report_from_json(args.source_report)
    with _classifier(opts) as model:
        report = atk.transfer_attack(source, _make_target(opts, model))
    meta = {
        "mode": "transfer",
        "source_report": args.source_report,
        "seed": opts.get("seed"),
        "target": opts.get("target"),
    }
    _write_text(args.out, _report_to_json(report, meta))
    print(f"transferred={len(report.outcomes)}")
    print(f"clean_accuracy={report.clean_accuracy!r}")
    print(f"robust_accuracy={report.robust_accuracy!r}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _option(cast, ok, expected: str):
    """An option type: ``cast`` of the value, which must satisfy ``ok``."""

    def parse(value):
        try:
            parsed = cast(value)
            if ok(parsed):
                return parsed
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {value!r}")

    return parse


_COUNT = _option(int, lambda v: v >= 1, "an integer >= 1")
_NATURAL = _option(int, lambda v: v >= 0, "an integer >= 0")
_FINITE_NONNEG = _option(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")

#: every option of every subcommand, as ``add_argument`` keywords
_FLAGS: dict[str, dict] = {
    "--config": dict(help="flat key=value config file"),
    "--data": {},
    "--out": dict(default="-"),
    "--model": {},
    "--external-cmd": dict(help="spawn a line-protocol classifier"),
    "--num-classes": dict(type=_option(int, lambda v: v >= 2, "an integer >= 2")),
    "--scheme": dict(choices=["whitespace", "character"]),
    "--seed": dict(type=_NATURAL),
    "--jobs": dict(type=_COUNT),
    "--mechanism": dict(choices=["deletion", "masking"]),
    "--rate": dict(type=_option(float, lambda v: 0 <= v <= 1, "a number in [0, 1]"),
                   help="p_del or p_mask"),
    "--samples-per-instance": dict(type=_COUNT),
    "--n-pred": dict(type=_COUNT),
    "--n-cert": dict(type=_COUNT),
    "--alpha": dict(type=_option(float, lambda v: 0 < v < 1, "a number in (0, 1)")),
    "--ops": dict(choices=["dis", "d", "i", "s", "di", "ds", "is"]),
    "--vocab-size": dict(type=_COUNT),
    "--bound-mode": dict(choices=["bonferroni-cp", "complement"]),
    "--records": dict(help="CSV written by `certify`"),
    "--thresholds": dict(
        type=_option(lambda v: [float(t) for t in v.split(",")],
                     lambda v: all(map(math.isfinite, v)), "comma-separated finite numbers"),
        help="comma-separated log10 thresholds",
    ),
    "--grid": dict(type=int, help="number of evenly spaced thresholds"),
    "--length": dict(type=_NATURAL),
    "--radius": dict(type=_NATURAL),
    "--which": dict(choices=["hamming", "lower", "exact", "all"], default="all"),
    "--exact": dict(action="store_true", help="include the automaton exact count"),
    "--tokens": dict(help="whitespace-separated pattern for the exact count"),
    "--kind": dict(choices=["deletion", "insertion", "both"], default="deletion"),
    "--r-r-cap": dict(type=_FINITE_NONNEG),
    "--r-i-cap": dict(type=_FINITE_NONNEG, default=0.99),
    "--d-star": dict(type=_option(float, lambda v: 0 < v < math.inf, "a finite number > 0"),
                     default=1.0),
    "--target": dict(choices=["smoothed", "base"]),
    "--recipe": dict(choices=["greedy_substitute", "greedy_edit", "char_perturb"]),
    "--candidates-per-position": dict(type=_NATURAL),
    "--prediction-samples": dict(type=_COUNT),
    "--max-queries": dict(type=_COUNT),
    "--timeout-seconds": dict(type=_option(float, lambda v: v > 0, "a number > 0")),
    "--lexicon": {},
    "--source-report": {},
}

_CLASSIFIER = "--model --external-cmd --num-classes --scheme"
_TARGET = "--target --mechanism --rate --prediction-samples --seed"

#: each subcommand with the flags its ``cmd_*`` reads; a trailing ``!``
#: marks a required flag
_COMMANDS = {
    "train": (
        cmd_train, "fit the built-in model under smoothing noise",
        "--data! --out! --config --mechanism --rate --samples-per-instance --seed --scheme",
    ),
    "predict": (
        cmd_predict, "smoothed predictions for a dataset",
        f"--data! --out --config {_CLASSIFIER} --mechanism --rate --n-pred --seed",
    ),
    "certify": (
        cmd_certify, "certified radii and cardinalities per instance",
        f"--data! --out --config {_CLASSIFIER} --rate --n-pred --n-cert --alpha --ops"
        " --vocab-size --bound-mode --seed --jobs",
    ),
    "curve": (
        cmd_curve, "certified accuracy vs log-cardinality threshold",
        "--records! --thresholds --grid --out",
    ),
    "cardinality": (
        cmd_cardinality, "edit/substitution ball cardinalities",
        "--length! --radius! --which --exact --tokens --out --config --vocab-size",
    ),
    "textcrs": (
        cmd_textcrs, "edit-radius coverage of reordering-style certificates",
        "--length! --kind --r-r-cap --r-i-cap --d-star --out",
    ),
    "attack": (
        cmd_attack, "greedy black-box attack under the outcome protocol",
        f"--data! --out --config {_CLASSIFIER} {_TARGET} --recipe --candidates-per-position"
        " --max-queries --timeout-seconds --lexicon --jobs",
    ),
    "transfer": (
        cmd_transfer, "replay source successes against a target",
        f"--source-report! --out --config {_CLASSIFIER} {_TARGET}",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delcert",
        description="Certified edit-distance robustness via randomized token deletion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            option = flag.rstrip("!")
            p.add_argument(option, required=flag.endswith("!"), **_FLAGS[option])
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DelcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

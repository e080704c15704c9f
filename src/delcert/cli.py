"""Command-line surface: training, certification, cardinality analytics,
attack runs, and report emission.

Datasets are newline-delimited JSON ({"text": ..., "label": ...}) or CSV
with a text,label header.  Records and curves are emitted as CSV with a
header; attack reports as JSON.  Every command taking ``--seed`` is
bit-reproducible.  Each subcommand takes only the flags it reads
(``_COMMANDS``).  The values of a ``--config`` file become the
subcommand's defaults, so a flag wins over the config and the config over
the built-in default; a config key the command does not take is ignored,
and a required flag goes on the command line only.
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
from .certify import _PRED_STREAM, SmoothedPredictor, certify, smoothed_predict
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


# ---------------------------------------------------------------------------
# config and dataset I/O
# ---------------------------------------------------------------------------


def _config_defaults(command: str, path: str) -> dict[str, object]:
    """The options of ``command`` that the flat ``key=value`` file at
    ``path`` sets, each converted and checked like its flag; keys the
    command does not take are skipped."""
    flags = _COMMANDS[command][2].split()
    defaults: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        lines = list(fh)
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataFormatError(f"{path}:{lineno}: expected key=value")
        key, raw = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        flag = "--" + key.replace("_", "-")
        if flag + "!" in flags:
            raise UsageError(f"config {key}: {flag} is required and goes on the command line")
        if flag not in flags:
            continue
        spec = _FLAGS[flag]
        cast = _SWITCH if spec.get("action") == "store_true" else spec.get("type", str)
        try:
            value = cast(raw)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"config {key}: {exc}") from None
        if value not in spec.get("choices", [value]):
            raise UsageError(f"config {key}: expected one of {spec['choices']}, got {value!r}")
        defaults[key] = value
    return defaults


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


def _mechanism(args: argparse.Namespace) -> MechanismParams:
    return MechanismParams(MechanismKind(args.mechanism), args.rate)


@contextlib.contextmanager
def _classifier(args: argparse.Namespace):
    """The base classifier: a child started from ``--external-cmd``, closed
    on exit, or else the built-in model in ``--model``.  An option the
    chosen classifier would ignore is a usage error."""
    if args.model and args.external_cmd:
        raise UsageError("--model and --external-cmd exclude each other")
    if args.num_classes is not None and not args.external_cmd:
        raise UsageError("--num-classes applies only to an --external-cmd classifier")
    if not args.external_cmd:
        if not args.model:
            raise UsageError("either --model or --external-cmd is required")
        yield BuiltinModel.load(args.model)
        return
    try:
        model = ExternalClassifier(args.external_cmd, num_classes=args.num_classes or 2)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot start --external-cmd {args.external_cmd!r}: {exc}") from exc
    try:
        yield model
    finally:
        model.close()


def _input_scheme(model, args: argparse.Namespace) -> Scheme:
    """The built-in model's own scheme, which ``--scheme`` may only repeat;
    else (any other ``model``, or None) ``--scheme``, by default whitespace."""
    if not isinstance(model, BuiltinModel):
        return Scheme(args.scheme or Scheme.WHITESPACE)
    if args.scheme not in (None, model.scheme.value):
        raise UsageError(f"--scheme {args.scheme} contradicts the {model.scheme.value}-scheme model")
    return model.scheme


def _make_target(args: argparse.Namespace, model, scheme: Scheme):
    """The attacked classifier: ``model`` itself, or smoothed around it."""
    if args.target == "base":
        return model
    return SmoothedPredictor(
        model,
        _mechanism(args),
        n_samples=args.prediction_samples,
        stream=RandomStream(args.seed),
        scheme=scheme,
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
    data = load_dataset(args.data)
    model = train_builtin(
        data,
        _mechanism(args),
        samples_per_instance=args.samples_per_instance,
        stream=RandomStream(args.seed),
        scheme=_input_scheme(None, args),
    )
    model.save(args.out)
    print(f"trained on {len(data)} instances; vocabulary {len(model.tokens)}; wrote {args.out}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    data = load_dataset(args.data)
    mech = _mechanism(args)
    stream = RandomStream(args.seed)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["instance", "true_label", "predicted"])
    correct = 0
    with _classifier(args) as model:
        scheme = _input_scheme(model, args)
        for idx, (text, label) in enumerate(data.items):
            x = tokenize(text, scheme)
            rng = stream.child(idx, _PRED_STREAM).generator()  # the stream certify predicts on
            pred, _ = smoothed_predict(model, x, mech, args.n_pred, rng)
            correct += int(pred == label)
            writer.writerow([idx, label, pred])
    _write_text(args.out, buf.getvalue())
    print(f"accuracy={correct / len(data)!r}")
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    if not 0.0 < args.rate < 1.0:
        raise UsageError(f"certify needs a rate strictly between 0 and 1, got {args.rate!r}")
    mech = MechanismParams(MechanismKind.DELETION, args.rate)
    stream = RandomStream(args.seed)
    ops_sel = EditOpsSet.from_letters(args.ops)
    data = load_dataset(args.data)

    with _classifier(args) as model:
        scheme = _input_scheme(model, args)

        def one(item):
            idx, (text, _) = item
            x = tokenize(text, scheme)
            return certify(model, x, mech, n_pred=args.n_pred, n_cert=args.n_cert, alpha=args.alpha,
                           vocab_size=args.vocab_size, bound_mode=args.bound_mode,
                           stream=stream.child(idx))

        work = list(enumerate(data.items))
        if args.jobs > 1:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
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
            + [repr(cert.bounds.mu_yprime), args.n_pred, args.n_cert]
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
    try:
        log_cc = [float(r["log10_cc_lb"]) for r in rows]
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{args.records}: bad log10_cc_lb ({exc})") from exc
    if args.thresholds:
        thresholds = args.thresholds
    else:
        top = max(log_cc)
        count = args.grid
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
    n = args.length
    v = args.vocab_size
    r = args.radius
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["measure", "length", "vocab_size", "radius", "count", "log10"])

    def emit(measure: str, count: int) -> None:
        writer.writerow([measure, n, v, r, count, repr(math.log10(count)) if count else ""])

    which = args.which
    lower = None
    exact = None
    if which == "hamming" and r > n:
        raise UsageError(f"--which hamming needs --radius <= --length, got {r} > {n}")
    if which == "hamming" or (which == "all" and r <= n):
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
    data = load_dataset(args.data)
    recipe = atk.AttackRecipe(
        kind=args.recipe,
        candidates_per_position=args.candidates_per_position,
        max_queries=args.max_queries,
        timeout_seconds=args.timeout_seconds,
    )
    with _classifier(args) as model:
        scheme = _input_scheme(model, args)
        target = _make_target(args, model, scheme)
        if args.lexicon:
            lexicon = atk.load_lexicon(args.lexicon)
        elif isinstance(model, BuiltinModel):
            lexicon = atk.lexicon_from_model(model)
        else:
            lexicon = atk.lexicon_from_dataset(data, scheme=scheme)
        report = atk.run_attack(target, data, recipe, lexicon, scheme=scheme, jobs=args.jobs)
    meta = {
        "mode": "direct",
        "recipe": asdict(recipe),
        "seed": args.seed,
        "target": args.target,
        "mechanism": args.mechanism,
        "rate": args.rate,
        "prediction_samples": args.prediction_samples,
    }
    _write_text(args.out, _report_to_json(report, meta))
    print(f"clean_accuracy={report.clean_accuracy!r}")
    print(f"robust_accuracy={report.robust_accuracy!r}")
    print(f"mean_queries={report.mean_queries!r}")
    return 0


def _report_from_json(path: str) -> atk.AttackReport:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
            return atk.AttackReport(
                outcomes=tuple(atk.AttackOutcome(**o) for o in payload["outcomes"]),
                clean_accuracy=payload["clean_accuracy"],
                robust_accuracy=payload["robust_accuracy"],
                mean_queries=payload["mean_queries"],
                harness_errors=tuple(tuple(e) for e in payload.get("harness_errors", [])),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise DataFormatError(f"{path}: not an attack report ({exc!r})") from exc


def cmd_transfer(args: argparse.Namespace) -> int:
    source = _report_from_json(args.source_report)
    with _classifier(args) as model:
        report = atk.transfer_attack(source, _make_target(args, model, _input_scheme(model, args)))
    meta = {
        "mode": "transfer",
        "source_report": args.source_report,
        "seed": args.seed,
        "target": args.target,
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


#: a switch (a ``store_true`` flag) as a config file spells it
_SWITCH = _option({"true": True, "false": False}.get, lambda v: v is not None, "true or false")
_COUNT = _option(int, lambda v: v >= 1, "an integer >= 1")
_NATURAL = _option(int, lambda v: v >= 0, "an integer >= 0")
_FINITE_NONNEG = _option(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")

#: every option of every subcommand, as ``add_argument`` keywords; the
#: defaults of ``--scheme`` and ``--num-classes`` stay None, since a
#: classifier they do not fit is told apart by whether they were given
_FLAGS: dict[str, dict] = {
    "--config": dict(help="flat key=value config file"),
    "--data": {},
    "--out": dict(default="-"),
    "--model": {},
    "--external-cmd": dict(help="spawn a line-protocol classifier"),
    "--num-classes": dict(type=_option(int, lambda v: v >= 2, "an integer >= 2")),
    "--scheme": dict(choices=["whitespace", "character"]),
    "--seed": dict(type=_NATURAL, default=0),
    "--jobs": dict(type=_COUNT, default=1),
    "--mechanism": dict(choices=["deletion", "masking"], default="deletion"),
    "--rate": dict(type=_option(float, lambda v: 0 <= v <= 1, "a number in [0, 1]"),
                   default=0.9, help="p_del or p_mask"),
    "--samples-per-instance": dict(type=_COUNT, default=8),
    "--n-pred": dict(type=_COUNT, default=1000),
    "--n-cert": dict(type=_COUNT, default=4000),
    "--alpha": dict(type=_option(float, lambda v: 0 < v < 1, "a number in (0, 1)"), default=0.05),
    "--ops": dict(choices=["dis", "d", "i", "s", "di", "ds", "is"], default="dis"),
    "--vocab-size": dict(type=_COUNT, default=50265),
    "--bound-mode": dict(choices=["bonferroni-cp", "complement"], default="bonferroni-cp"),
    "--records": dict(help="CSV written by `certify`"),
    "--thresholds": dict(
        type=_option(lambda v: [float(t) for t in v.split(",")],
                     lambda v: all(map(math.isfinite, v)), "comma-separated finite numbers"),
        help="comma-separated log10 thresholds",
    ),
    "--grid": dict(type=_COUNT, default=21, help="number of evenly spaced thresholds"),
    "--length": dict(type=_NATURAL),
    "--radius": dict(type=_NATURAL),
    "--which": dict(choices=["hamming", "lower", "exact", "all"], default="all"),
    "--exact": dict(action="store_true", help="include the exact ball count"),
    "--tokens": dict(help="whitespace-separated pattern for the exact count"),
    "--kind": dict(choices=["deletion", "insertion", "both"], default="deletion"),
    "--r-r-cap": dict(type=_FINITE_NONNEG),
    "--r-i-cap": dict(type=_FINITE_NONNEG, default=0.99),
    "--d-star": dict(type=_option(float, lambda v: 0 < v < math.inf, "a finite number > 0"),
                     default=1.0),
    "--target": dict(choices=["smoothed", "base"], default="smoothed"),
    "--recipe": dict(choices=["greedy_substitute", "greedy_edit", "char_perturb"],
                     default="greedy_substitute"),
    "--candidates-per-position": dict(type=_NATURAL, default=8),
    "--prediction-samples": dict(type=_COUNT, default=100),
    "--max-queries": dict(type=_COUNT, default=10000),
    "--timeout-seconds": dict(type=_option(float, lambda v: v > 0, "a number > 0"), default=600.0),
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


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``delcert`` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="delcert",
        description="Certified edit-distance robustness via randomized token deletion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            option = flag.rstrip("!")
            p.add_argument(option, required=flag.endswith("!"), **_FLAGS[option])
        p.set_defaults(func=func)
    return parser, commands


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The options of one command line: a flag wins over its ``--config``
    value, which becomes the subcommand's default in place of the built-in one."""
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        commands[args.command].set_defaults(**_config_defaults(args.command, args.config))
        args = parser.parse_args(argv)
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DelcertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

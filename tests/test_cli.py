import csv
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delcert import cli
from delcert.certify import clopper_pearson_lower
from delcert.classifier import BuiltinModel, LabeledDataset
from delcert.cli import main
from delcert.edit_metrics import FULL_OPS, edit_distance
from delcert.errors import DataFormatError
from delcert.tokenization import Scheme, tokenize

from conftest import marker_presence_dataset


def write_jsonl(path, dataset):
    with open(path, "w", encoding="utf-8") as fh:
        for text, label in dataset.items:
            fh.write(json.dumps({"text": text, "label": label}) + "\n")


def write_csv(path, dataset):
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        for text, label in dataset.items:
            writer.writerow([text, label])


@pytest.fixture
def trained(tmp_path):
    data = marker_presence_dataset(200, seed=51)
    train_path = tmp_path / "train.jsonl"
    write_jsonl(train_path, data)
    model_path = tmp_path / "model.json"
    rc = main(
        [
            "train",
            "--data",
            str(train_path),
            "--out",
            str(model_path),
            "--rate",
            "0.9",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    test_path = tmp_path / "test.jsonl"
    write_jsonl(test_path, marker_presence_dataset(40, seed=52))
    return model_path, test_path, tmp_path


def test_train_missing_file_exit_3(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "m.json")])
    assert rc == 3
    assert "nope.jsonl" in capsys.readouterr().err


def test_train_reproducible_bytes(tmp_path):
    data = marker_presence_dataset(100, seed=61)
    train_path = tmp_path / "train.jsonl"
    write_jsonl(train_path, data)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for out in (m1, m2):
        assert main(["train", "--data", str(train_path), "--out", str(out), "--seed", "9"]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_train_rate_zero_matches_clean(tmp_path):
    data = marker_presence_dataset(60, seed=62)
    train_path = tmp_path / "train.jsonl"
    write_jsonl(train_path, data)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    args = ["--data", str(train_path), "--samples-per-instance", "1", "--seed", "1"]
    assert main(["train", *args, "--out", str(m1), "--rate", "0.0", "--mechanism", "deletion"]) == 0
    assert main(["train", *args, "--out", str(m2), "--rate", "0.0", "--mechanism", "masking"]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_certify_and_curve(trained, capsys):
    model_path, test_path, tmp_path = trained
    records = tmp_path / "records.csv"
    rc = main(
        [
            "certify",
            "--model",
            str(model_path),
            "--data",
            str(test_path),
            "--out",
            str(records),
            "--n-pred",
            "100",
            "--n-cert",
            "200",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    summary = capsys.readouterr().out
    assert "clean_accuracy=" in summary and "median_radius" in summary
    header = records.read_text().splitlines()[0]
    for col in ("instance", "radius_dis", "radius_d", "radius_i", "log10_cc_lb", "abstained"):
        assert col in header
    assert len(records.read_text().splitlines()) == 41  # header + 40 instances

    curve = tmp_path / "curve.csv"
    rc = main(["curve", "--records", str(records), "--thresholds", "0,2,4,8", "--out", str(curve)])
    assert rc == 0
    rows = curve.read_text().splitlines()
    assert rows[0] == "threshold_log10_cc,certified_accuracy"
    accs = [float(r.split(",")[1]) for r in rows[1:]]
    assert accs == sorted(accs, reverse=True)  # monotone nonincreasing


def test_certify_reproducible_across_jobs(trained):
    model_path, test_path, tmp_path = trained
    outs = []
    for jobs in ("1", "4", "1"):
        out = tmp_path / f"rec{len(outs)}.csv"
        rc = main(
            [
                "certify",
                "--model",
                str(model_path),
                "--data",
                str(test_path),
                "--out",
                str(out),
                "--n-pred",
                "50",
                "--n-cert",
                "100",
                "--seed",
                "7",
                "--jobs",
                jobs,
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_certify_empty_dataset_exit_3(trained, capsys):
    model_path, _, tmp_path = trained
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    rc = main(["certify", "--model", str(model_path), "--data", str(empty)])
    assert rc == 3


def test_certify_summary_recomputable(trained):
    import csv
    import statistics

    model_path, test_path, tmp_path = trained
    records = tmp_path / "records2.csv"
    main(
        [
            "certify",
            "--model", str(model_path),
            "--data", str(test_path),
            "--out", str(records),
            "--n-pred", "50",
            "--n-cert", "100",
            "--seed", "2",
        ]
    )
    with open(records, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    # medians derived from the record stream must be well-formed
    med = statistics.median(int(r["radius_dis"]) for r in rows)
    assert med >= 0


def test_predict_csv_dataset(tmp_path, capsys):
    data = marker_presence_dataset(30, seed=71)
    train_path = tmp_path / "train.csv"
    write_csv(train_path, data)
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(train_path), "--out", str(model_path), "--seed", "1"]) == 0
    test_path = tmp_path / "test.csv"
    write_csv(test_path, marker_presence_dataset(10, seed=72))
    out = tmp_path / "preds.csv"
    rc = main(
        [
            "predict",
            "--model", str(model_path),
            "--data", str(test_path),
            "--out", str(out),
            "--n-pred", "50",
            "--seed", "4",
        ]
    )
    assert rc == 0
    assert out.read_text().splitlines()[0] == "instance,true_label,predicted"
    assert "accuracy=" in capsys.readouterr().out


def test_predict_matches_certify_prediction(trained):
    # one draw at p_del 0.5 keeps the marker about half the time, so each
    # prediction depends on the stream it is drawn from
    model_path, test_path, tmp_path = trained
    common = ["--model", str(model_path), "--data", str(test_path), "--seed", "6",
              "--rate", "0.5", "--n-pred", "1"]
    assert main(["predict", *common, "--out", str(tmp_path / "p.csv")]) == 0
    assert main(["certify", *common, "--n-cert", "10", "--out", str(tmp_path / "c.csv")]) == 0

    def predicted(name):
        with open(tmp_path / name, encoding="utf-8") as fh:
            return [row["predicted"] for row in csv.DictReader(fh)]

    assert predicted("p.csv") == predicted("c.csv")
    assert len(set(predicted("p.csv"))) == 2


_REPORT = {"outcomes": [{"instance_index": 0, "status": "fail", "queries_used": 4,
                          "original_text": "a b", "true_label": 1}]}


@pytest.mark.parametrize(
    "case",
    ["report-not-json", "report-lacks-key", "report-no-success", "model-lacks-tokens",
     "model-short-doc-counts", "records-not-numeric", "data-negative-label",
     "train-single-class"],
)
def test_data_error_exit_3(trained, case, capsys):
    """A malformed input file exits 3 with one ``error:`` line, not a traceback."""
    model_path, test_path, tmp_path = trained
    model = json.loads(model_path.read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    transfer = ["transfer", "--source-report", str(bad), "--model", str(model_path),
                "--out", str(tmp_path / "t.json")]
    predict = ["predict", "--model", str(bad), "--data", str(test_path), "--n-pred", "10",
               "--out", str(tmp_path / "p.csv")]
    text, argv = {
        "report-not-json": ("not json", transfer),
        "report-lacks-key": (
            json.dumps({k: v for k, v in _REPORT.items() if k != "outcomes"}), transfer
        ),
        "report-no-success": (json.dumps(_REPORT), transfer),
        "model-lacks-tokens": (json.dumps({k: v for k, v in model.items() if k != "tokens"}),
                               predict),
        "model-short-doc-counts": (
            json.dumps({**model, "class_doc_counts": model["class_doc_counts"][:1]}), predict
        ),
        "records-not-numeric": (
            "true_label,predicted,abstained,log10_cc_lb\n1,1,0,many\n",
            ["curve", "--records", str(bad), "--out", str(tmp_path / "curve.csv")],
        ),
        "data-negative-label": (
            '{"text": "a b", "label": 0}\n{"text": "c", "label": -1}\n',
            ["predict", "--model", str(model_path), "--data", str(bad), "--n-pred", "10",
             "--out", str(tmp_path / "p.csv")],
        ),
        "train-single-class": (
            '{"text": "a b", "label": 1}\n{"text": "c d", "label": 1}\n',
            ["train", "--data", str(bad), "--out", str(tmp_path / "m.json")],
        ),
    }[case]
    bad.write_text(text, encoding="utf-8")
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_malformed_jsonl_reports_line(trained, tmp_path, capsys):
    model_path, _, _ = trained
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"text": "x", "label": 0}\nnot json\n', encoding="utf-8")
    rc = main(["predict", "--model", str(model_path), "--data", str(bad)])
    assert rc == 3
    assert "bad.jsonl:2" in capsys.readouterr().err


def _error_line(capsys) -> str:
    """The one ``error:`` line a failed command printed."""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.mark.parametrize(
    "name, row, where",
    [
        ("d.jsonl", '{"text": "c", "label": 1.7}', "label 1.7 is not"),
        ("d.jsonl", '{"text": "c", "label": true}', "label True is not"),
        ("d.jsonl", '{"text": "c", "label": "1"}', "label '1' is not"),
        ("d.csv", "c,1.7", "label '1.7' is not"),
        ("d.csv", "c,true", "label 'true' is not"),
        ("d.csv", "c, 1", "label ' 1' is not"),
    ],
)
def test_dataset_reader_rejects_a_label_that_is_not_an_integer(tmp_path, capsys, name, row, where):
    bad = tmp_path / name
    first = "text,label\na b,0\n" if name.endswith(".csv") else '{"text": "a b", "label": 0}\n'
    bad.write_text(first + row + "\n", encoding="utf-8")
    lineno = 3 if name.endswith(".csv") else 2
    assert main(["train", "--data", str(bad), "--out", str(tmp_path / "m.json")]) == 3
    line = _error_line(capsys)
    assert f"{bad}:{lineno}:" in line and where in line, line


_MODEL = {"format_version": 1, "kind": "multinomial_bag", "scheme": "whitespace",
          "num_classes": 2, "smoothing": 1.0, "class_doc_counts": [2, 3], "tokens": ["a", "b"],
          "token_counts": [[1, 0], [0, 2]]}


@pytest.mark.parametrize(
    "key, value, where",
    [
        ("class_doc_counts", [0, 0], "class_doc_counts [0, 0] need a positive total"),
        ("class_doc_counts", [-1, 3], "class_doc_counts [-1, 3] need"),
        ("token_counts", [[1, 0], [0, -2]], "token_counts row 1 ('b') holds a negative count"),
        ("class_doc_counts", [0.5, 3.9], "class_doc_counts holds 0.5, not a JSON integer"),
        ("token_counts", [[1.7, 0], [0, 2]], "token_counts holds 1.7, not a JSON integer"),
        ("token_counts", [[1, 0], [True, 2]], "token_counts holds True, not a JSON integer"),
        ("token_counts", [[1, "1"], [0, 2]], "token_counts holds '1', not a JSON integer"),
        ("num_classes", "2", "num_classes '2' is not an integer >= 2"),
        ("num_classes", True, "num_classes True is not an integer >= 2"),
    ],
    ids=["no-documents", "negative-documents", "negative-token-count", "fractional-documents",
         "fractional-token-count", "boolean-token-count", "string-token-count",
         "string-num-classes", "boolean-num-classes"],
)
def test_model_reader_rejects_bad_counts(tmp_path, capsys, key, value, where):
    data, bad = tmp_path / "d.jsonl", tmp_path / "m.json"
    data.write_text('{"text": "a b", "label": 0}\n', encoding="utf-8")
    common = ["--model", str(bad), "--data", str(data), "--n-pred", "5"]
    bad.write_text(json.dumps(_MODEL), encoding="utf-8")
    assert main(["predict", *common, "--out", str(tmp_path / "p.csv")]) == 0  # the valid model
    capsys.readouterr()
    bad.write_text(json.dumps({**_MODEL, key: value}), encoding="utf-8")
    assert main(["certify", *common, "--rate", "0.9", "--n-cert", "100",
                 "--out", str(tmp_path / "c.csv")]) == 3
    line = _error_line(capsys)
    assert f"{bad}:" in line and where in line, line


@pytest.mark.parametrize(
    "column, value",
    [("log10_cc_lb", "nan"), ("log10_cc_lb", "inf"), ("log10_cc_lb", "-inf"),
     ("predicted", "1.0"), ("true_label", "x"), ("abstained", "true"), ("abstained", "")],
)
def test_records_reader_rejects_a_bad_record(tmp_path, capsys, column, value):
    header = ["true_label", "predicted", "abstained", "log10_cc_lb"]
    row = dict(zip(header, ["1", "1", "0", "2.5"]), **{column: value})
    bad = tmp_path / "rec.csv"
    bad.write_text(",".join(header) + "\n1,1,0,2.0\n" + ",".join(row.values()) + "\n",
                   encoding="utf-8")
    assert main(["curve", "--records", str(bad), "--out", str(tmp_path / "c.csv")]) == 3
    line = _error_line(capsys)
    assert f"{bad}:3: bad record ({column} {value!r} is not" in line, line


_SUCCESS = {"instance_index": 1, "status": "success", "queries_used": 3,
            "original_text": "a b", "true_label": 1, "adversarial_text": "a c",
            "edit_distance_used": 1}


@pytest.mark.parametrize(
    "key, value",
    [("adversarial_text", 5), ("original_text", None), ("status", 3), ("instance_index", "1"),
     ("queries_used", True), ("true_label", 1.5), ("edit_distance_used", "1")],
)
def test_report_reader_rejects_a_field_of_the_wrong_type(tmp_path, capsys, key, value):
    bad = tmp_path / "r.json"
    outcomes = [{**_SUCCESS, "instance_index": 0}, {**_SUCCESS, key: value}]
    bad.write_text(json.dumps({"outcomes": outcomes}), encoding="utf-8")
    assert main(["transfer", "--source-report", str(bad), "--model", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "t.json")]) == 3
    line = _error_line(capsys)
    assert f"{bad}: not an attack report" in line and f"outcome 1: {key} {value!r}" in line, line


def _measures(csv_text):
    return [row.split(",")[0] for row in csv_text.splitlines()[1:]]


def test_cardinality_command(tmp_path, capsys):
    rc = main(["cardinality", "--length", "3", "--radius", "1", "--vocab-size", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert _measures(out) == ["hamming_exact", "levenshtein_lower_bound"]
    assert "hamming_exact,3,2,1,4," in out

    rc = main(
        [
            "cardinality",
            "--length", "2",
            "--radius", "1",
            "--vocab-size", "2",
            "--exact",
            "--tokens", "a b",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert _measures(out) == [
        "hamming_exact", "levenshtein_lower_bound", "levenshtein_exact", "exact_to_lower_ratio",
    ]
    assert "levenshtein_exact,2,2,1,9," in out
    assert "levenshtein_lower_bound,2,2,1,8," in out
    ratio = out.splitlines()[-1].split(",")
    assert ratio[:5] == ["exact_to_lower_ratio", "2", "2", "1", ""]
    assert float(ratio[5]) == pytest.approx(9 / 8)

    # --length is shared with textcrs, which needs >= 1; the empty sequence stays valid here
    rc = main(["cardinality", "--length", "0", "--radius", "0", "--vocab-size", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hamming_exact,0,2,0,1," in out and "levenshtein_lower_bound,0,2,0,1," in out


def test_cardinality_radius_beyond_length(capsys):
    # the Hamming ball needs radius <= length, so its row is left out ...
    rc = main(["cardinality", "--length", "2", "--radius", "3", "--vocab-size", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert _measures(out) == ["levenshtein_lower_bound"]
    assert "levenshtein_lower_bound,2,2,3,56," in out
    # ... and the Levenshtein rows follow as usual
    argv = ["cardinality", "--length", "2", "--radius", "3", "--vocab-size", "2", "--exact"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert _measures(out) == ["levenshtein_lower_bound", "levenshtein_exact", "exact_to_lower_ratio"]
    assert "levenshtein_exact,2,2,3,57," in out


def test_curve_default_grid(tmp_path):
    records = tmp_path / "records.csv"
    records.write_text("true_label,predicted,abstained,log10_cc_lb\n1,1,0,2.0\n", encoding="utf-8")
    curve = tmp_path / "curve.csv"
    assert main(["curve", "--records", str(records), "--out", str(curve)]) == 0
    assert len(curve.read_text().splitlines()) == 1 + 21
    assert main(["curve", "--records", str(records), "--grid", "5", "--out", str(curve)]) == 0
    assert curve.read_text().splitlines()[1:] == [f"{t!r},1.0" for t in (0.0, 0.5, 1.0, 1.5, 2.0)]


def test_cardinality_empty_tokens_exit_3(capsys):
    # an empty pattern has the wrong length, like any other; it is not
    # replaced by the default t0 t1 t2
    argv = ["cardinality", "--length", "3", "--radius", "1", "--vocab-size", "5", "--exact"]
    assert main([*argv, "--tokens", ""]) == 3
    assert "--tokens has 0 tokens but --length is 3" in capsys.readouterr().err
    assert main(argv) == 0


def test_cardinality_guard_exit_4(capsys):
    rc = main(["cardinality", "--length", "4", "--radius", "20", "--exact"])
    assert rc == 4
    # nothing is written before the guard trips
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", [["--external-cmd", "python3 worker.py"], ["--jobs", "2"]])
def test_train_rejects_classifier_flags(tmp_path, flag):
    data = tmp_path / "train.jsonl"
    write_jsonl(data, marker_presence_dataset(4, seed=1))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(data), "--out", str(tmp_path / "m.json"), *flag])
    assert exc.value.code == 2
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("flag", [["--external-cmd", "python3 worker.py"], ["--jobs", "2"]])
def test_cardinality_rejects_classifier_flags(flag):
    with pytest.raises(SystemExit) as exc:
        main(["cardinality", "--length", "3", "--radius", "1", *flag])
    assert exc.value.code == 2


def test_textcrs_command(capsys):
    # the deletion row, then the insertion row
    rc = main(["textcrs", "--length", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == [
        "deletion,3,3.0,,,0,0",  # vacuous at n=3 under the cap n
        "insertion,3,3.0,0.99,1.0,0,0",
    ]

    rc = main(["textcrs", "--length", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "deletion,2,2.0,,,2," in out
    assert "insertion,2,2.0,0.99,1.0,0," in out
    # --r-i-cap and --d-star set the insertion row
    rc = main(["textcrs", "--length", "2", "--r-i-cap", "3", "--d-star", "1.5"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "deletion,2,2.0,,,2,2",
        "insertion,2,2.0,3.0,1.5,2,2",
    ]


def test_attack_and_transfer_roundtrip(trained, capsys):
    model_path, test_path, tmp_path = trained
    report_path = tmp_path / "attack.json"
    rc = main(
        [
            "attack",
            "--model", str(model_path),
            "--data", str(test_path),
            "--target", "base",
            "--recipe", "greedy_edit",
            "--max-queries", "200",
            "--seed", "3",
            "--out", str(report_path),
        ]
    )
    assert rc == 0
    payload = json.loads(report_path.read_text())
    counts = payload["counts"]
    assert sum(counts.values()) == 40
    assert payload["robust_accuracy"] == (counts["fail"] + counts["timeout"]) / 40
    assert counts["success"] > 0

    transfer_path = tmp_path / "transfer.json"
    rc = main(
        [
            "transfer",
            "--source-report", str(report_path),
            "--model", str(model_path),
            "--target", "base",
            "--out", str(transfer_path),
        ]
    )
    assert rc == 0
    tr = json.loads(transfer_path.read_text())
    assert tr["robust_accuracy"] == 0.0
    assert len(tr["outcomes"]) == counts["success"]


_SMOOTHING = {"mechanism", "rate", "prediction_samples"}


def test_report_records_the_smoothing_of_a_smoothed_target_only(trained, capsys):
    # a base target records no smoothing values, a smoothed one records them
    # whether it is attacked or transferred to
    model_path, test_path, tmp_path = trained
    base, smoothed = tmp_path / "base.json", tmp_path / "smoothed.json"
    assert main(["attack", "--model", str(model_path), "--data", str(test_path),
                 "--target", "base", "--recipe", "greedy_edit", "--max-queries", "200",
                 "--seed", "3", "--out", str(base)]) == 0
    payload = json.loads(base.read_text())
    assert (payload["mode"], payload["seed"], payload["target"]) == ("direct", 3, "base")
    assert not _SMOOTHING & set(payload)
    assert main(["transfer", "--source-report", str(base), "--model", str(model_path),
                 "--rate", "0.5", "--prediction-samples", "20", "--seed", "8",
                 "--out", str(smoothed)]) == 0
    payload = json.loads(smoothed.read_text())
    assert payload["source_report"] == str(base)
    assert {k: payload[k] for k in ("mode", "seed", "target", *sorted(_SMOOTHING))} == {
        "mode": "transfer", "seed": 8, "target": "smoothed", "mechanism": "deletion",
        "rate": 0.5, "prediction_samples": 20,
    }


@pytest.mark.parametrize("command", ["attack", "transfer"])
@pytest.mark.parametrize("flag,value", [
    ("--mechanism", "masking"), ("--rate", "0.3"), ("--prediction-samples", "20"),
])
def test_base_target_rejects_smoothing_flags(trained, command, flag, value, capsys):
    # a base target is not smoothed, so a smoothing value given for it, by a
    # flag or the config, exits 2 before anything is written
    model_path, test_path, tmp_path = trained
    report, config, out = tmp_path / "r.json", tmp_path / "run.cfg", tmp_path / "o.json"
    assert main(["attack", "--model", str(model_path), "--data", str(test_path),
                 "--target", "base", "--max-queries", "20", "--out", str(report)]) == 0
    first = {"attack": ["--data", str(test_path), "--max-queries", "20"],
             "transfer": ["--source-report", str(report)]}[command]
    argv = [command, *first, "--model", str(model_path), "--out", str(out)]
    assert main([*argv, "--target", "base", flag, value]) == 2
    config.write_text(f"{flag[2:]} = {value}\n", encoding="utf-8")
    assert main([*argv, "--target", "base", "--config", str(config)]) == 2
    assert f"{flag} applies only to --target smoothed" in capsys.readouterr().err
    assert not out.exists()
    # a smoothed target takes and records the same config value
    assert main([*argv, "--target", "smoothed", "--config", str(config)]) == 0
    assert str(json.loads(out.read_text())[flag[2:].replace("-", "_")]) == value


_UNATTACKABLE = {
    "attack-base": ["attack", "--target", "base"],
    "attack-smoothed": ["attack", "--target", "smoothed", "--prediction-samples", "5"],
    "transfer": ["transfer"],
}


@pytest.mark.parametrize("mode", ["quit", "range"])
@pytest.mark.parametrize("command", sorted(_UNATTACKABLE))
def test_failing_external_classifier_exits_3(tmp_path, worker_cmd, command, mode, capsys):
    """A classifier that fails every request ends an attack or a transfer
    with exit 3 and one ``error:`` line, not a traceback."""
    data, source, out = tmp_path / "d.jsonl", tmp_path / "source.json", tmp_path / "r.json"
    data.write_text('{"text": "a b c", "label": 0}\n{"text": "d e", "label": 1}\n',
                    encoding="utf-8")
    source.write_text(json.dumps({"outcomes": [
        {"instance_index": 0, "status": "success", "queries_used": 3, "original_text": "a b c",
         "true_label": 0, "adversarial_text": "a c", "edit_distance_used": 1},
    ]}), encoding="utf-8")
    first = ["--source-report", str(source)] if command == "transfer" else ["--data", str(data)]
    argv = [*_UNATTACKABLE[command], *first, "--external-cmd", shlex.join(worker_cmd(mode)),
            "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: no instance could be attacked: "), err
    assert not out.exists()


def test_attack_external_echo(trained, tmp_path, capsys):
    _, test_path, _ = trained
    from conftest import DOUBLES_DIR

    worker = f'{sys.executable} "{DOUBLES_DIR / "protocol_worker.py"}" echo0'
    rc = main(
        [
            "attack",
            "--external-cmd", worker,
            "--num-classes", "2",
            "--data", str(test_path),
            "--target", "base",
            "--max-queries", "50",
            "--out", str(tmp_path / "ext.json"),
        ]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "ext.json").read_text())
    assert payload["counts"]["success"] == 0  # constant classifier is unflippable


def test_certify_and_predict_external_echo(trained, worker_cmd, tmp_path):
    _, test_path, _ = trained
    worker = shlex.join(worker_cmd("echo0"))
    common = ["--external-cmd", worker, "--num-classes", "2", "--data", str(test_path),
              "--n-pred", "50", "--seed", "5"]
    records = tmp_path / "ext.csv"
    assert main(["certify", *common, "--n-cert", "100", "--out", str(records)]) == 0
    rows = list(csv.DictReader(records.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 40 and all(r["predicted"] == "0" for r in rows)
    preds = tmp_path / "pred.csv"
    assert main(["predict", *common, "--out", str(preds)]) == 0
    rows = list(csv.DictReader(preds.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == 40 and all(r["predicted"] == "0" for r in rows)


def test_missing_external_cmd_exit_2(trained, tmp_path, capsys):
    _, test_path, _ = trained
    missing = str(tmp_path / "no-such-classifier")
    for cmd in ("certify", "predict"):
        rc = main([cmd, "--external-cmd", missing, "--data", str(test_path)])
        assert rc == 2
        assert "no-such-classifier" in capsys.readouterr().err
    assert main(["certify", "--data", str(test_path)]) == 2  # neither --model nor --external-cmd
    assert "--external-cmd" in capsys.readouterr().err


def test_curve_counts_abstentions_as_wrong(tmp_path):
    # one certified correct row and one abstained row whose prediction is correct
    header = ["instance", "true_label", "predicted", "abstained", "log10_cc_lb"]
    records = tmp_path / "rec.csv"
    records.write_text(
        "\n".join([",".join(header), "0,1,1,0,3.5", "1,0,0,1,0.0"]) + "\n", encoding="utf-8"
    )
    curve = tmp_path / "curve.csv"
    assert main(["curve", "--records", str(records), "--thresholds", "0,3.5", "--out", str(curve)]) == 0
    assert curve.read_text().splitlines()[1:] == ["0.0,0.5", "3.5,0.5"]


def test_config_file_precedence(trained, capsys):
    model_path, test_path, tmp_path = trained
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_pred=10\nn-cert=20\nseed=13\n", encoding="utf-8")
    out1 = tmp_path / "a.csv"
    rc = main(
        [
            "certify",
            "--model", str(model_path),
            "--data", str(test_path),
            "--config", str(cfg),
            "--out", str(out1),
        ]
    )
    assert rc == 0
    rows = out1.read_text().splitlines()
    assert rows[1].split(",")[-2:] == ["10", "20"]  # config n_pred/n_cert applied
    out2 = tmp_path / "b.csv"
    rc = main(
        [
            "certify",
            "--model", str(model_path),
            "--data", str(test_path),
            "--config", str(cfg),
            "--n-pred", "30",
            "--out", str(out2),
        ]
    )
    assert rc == 0
    assert out2.read_text().splitlines()[1].split(",")[-2:] == ["30", "20"]  # flag wins


def test_cardinality_reads_config(tmp_path, capsys):
    # every option the command takes is read from the config file
    out, config = tmp_path / "card.csv", tmp_path / "c.cfg"
    config.write_text(f"vocab-size = 2\nexact = true\ntokens = a b a\nout = {out}\n",
                      encoding="utf-8")
    assert main(["cardinality", "--length", "3", "--radius", "1", "--config", str(config)]) == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert "hamming_exact,3,2,1,4," in text
    assert _measures(text)[2:] == ["levenshtein_exact", "exact_to_lower_ratio"]
    # a switch set to false in the config stays off
    config.write_text("exact = false\n", encoding="utf-8")
    assert main(["cardinality", "--length", "2", "--radius", "1", "--config", str(config)]) == 0
    measures = [row.split(",")[0] for row in capsys.readouterr().out.splitlines()]
    assert "levenshtein_lower_bound" in measures and "levenshtein_exact" not in measures


def test_config_skips_other_keys_and_rejects_malformed_lines(tmp_path, capsys):
    # one file serves several commands: cardinality takes no alpha and no
    # n_pred, and no command takes ops, which or kind any longer
    config = tmp_path / "c.cfg"
    config.write_text("# shared\nalpha=2\nn-pred = 0\nvocab-size = 2\nops = di\nwhich = lower\n"
                      "kind = both\n", encoding="utf-8")
    argv = ["cardinality", "--length", "3", "--radius", "1", "--config"]
    assert main([*argv, str(config)]) == 0
    assert "hamming_exact,3,2,1,4," in capsys.readouterr().out
    config.write_text("vocab-size = 2\nexact\n", encoding="utf-8")
    assert main([*argv, str(config)]) == 3
    assert "c.cfg:2: expected key=value" in capsys.readouterr().err
    assert main([*argv, str(tmp_path / "missing.cfg")]) == 3


#: a valid value other than the default, then a second value, for every
#: option a config file can set
_CONFIG_VALUES = {
    "--out": ("o.csv", "p.csv"),
    "--model": ("m.json", "n.json"),
    "--external-cmd": ("worker a", "worker b"),
    "--num-classes": ("3", "4"),
    "--scheme": ("character", "whitespace"),
    "--seed": ("7", "8"),
    "--jobs": ("2", "3"),
    "--mechanism": ("masking", "deletion"),
    "--rate": ("0.5", "0.25"),
    "--samples-per-instance": ("3", "2"),
    "--n-pred": ("11", "12"),
    "--n-cert": ("13", "14"),
    "--alpha": ("0.1", "0.2"),
    "--vocab-size": ("9", "10"),
    "--bound-mode": ("complement", "bonferroni-cp"),
    "--exact": ("true", "false"),
    "--tokens": ("a b c", "c b a"),
    "--target": ("base", "smoothed"),
    "--recipe": ("greedy_edit", "char_perturb"),
    "--candidates-per-position": ("3", "0"),
    "--prediction-samples": ("5", "6"),
    "--max-queries": ("6", "7"),
    "--timeout-seconds": ("2.5", "3.5"),
    "--lexicon": ("lex.tsv", "lex2.tsv"),
}

#: (command, option) for every option, other than a required flag and
#: --config itself, of every command that takes --config
_CONFIGURABLE = [
    (command, flag)
    for command, (_, _, flags) in cli._COMMANDS.items()
    if "--config" in flags.split()
    for flag in flags.split()
    if flag != "--config" and not flag.endswith("!")
]


@pytest.mark.parametrize(("command", "flag"), _CONFIGURABLE)
def test_config_value_resolves_like_flag(tmp_path, command, flag):
    # every required flag of these commands accepts "1"
    required = [a for f in cli._COMMANDS[command][2].split() if f.endswith("!") for a in (f[:-1], "1")]
    config = tmp_path / "run.cfg"

    def resolved(flags, config_text=""):
        config.write_text(config_text, encoding="utf-8")
        return vars(cli.parse_args([command, *required, "--config", str(config), *flags]))

    def as_flag(value):  # --exact is a switch
        return [flag] if flag == "--exact" else [flag, value]

    value, other = _CONFIG_VALUES[flag]
    key = flag[2:]
    assert resolved([], f"{key} = {value}\n") == resolved(as_flag(value)) != resolved([])
    # the flag wins over the config, spelt with underscores this time
    underscored = key.replace("-", "_")
    assert resolved(as_flag(value), f"{underscored}={other}\n") == resolved(as_flag(value))


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["certify"])  # missing required flags
    assert exc.value.code == 2


def test_certify_constant_model_median_radius_six(tmp_path, capsys):
    # a vocabulary-free model always answers the prior class; with the
    # default sampling budgets the full-ops radius is 6 at p_del=0.9
    import numpy as np

    from delcert.classifier import BuiltinModel
    from delcert.tokenization import Scheme

    model = BuiltinModel(
        scheme=Scheme.WHITESPACE,
        num_classes=2,
        class_doc_counts=np.array([3, 1]),
        tokens=(),
        token_counts=np.zeros((0, 2), dtype=np.int64),
    )
    model_path = tmp_path / "const.json"
    model.save(str(model_path))
    test_path = tmp_path / "test.jsonl"
    write_jsonl(test_path, marker_presence_dataset(8, seed=81))
    rc = main(
        [
            "certify",
            "--model", str(model_path),
            "--data", str(test_path),
            "--out", str(tmp_path / "r.csv"),
            "--seed", "1",
        ]
    )
    assert rc == 0
    summary = capsys.readouterr().out
    assert "median_radius[radius_dis]=6" in summary
    # one median for each operation set, in the records' column order
    medians = [line.split("=")[0] for line in summary.splitlines() if line.startswith("median_radius")]
    assert medians == [f"median_radius[{col}]" for _, col in cli._OPS_COLUMNS]


def test_curve_threshold_beyond_max_is_zero(trained, tmp_path):
    model_path, test_path, _ = trained
    records = tmp_path / "rec.csv"
    main(
        [
            "certify",
            "--model", str(model_path),
            "--data", str(test_path),
            "--out", str(records),
            "--n-pred", "50",
            "--n-cert", "100",
            "--seed", "3",
        ]
    )
    curve = tmp_path / "curve.csv"
    assert main(["curve", "--records", str(records), "--thresholds", "1e9", "--out", str(curve)]) == 0
    assert curve.read_text().splitlines()[1].endswith("0.0")


def test_attack_budget_one_all_fail_or_skip(trained, tmp_path):
    model_path, test_path, _ = trained
    out = tmp_path / "b1.json"
    rc = main(
        [
            "attack",
            "--model", str(model_path),
            "--data", str(test_path),
            "--target", "base",
            "--max-queries", "1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["counts"]["success"] == 0 and payload["counts"]["timeout"] == 0
    assert payload["counts"]["fail"] + payload["counts"]["skipped"] == 40


def _exit_code(argv) -> int:
    """``main``'s return value, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--rate", "1.0"],
        ["certify", "--rate", "0"],
        ["certify", "--mechanism", "masking"],
        ["certify", "--alpha", "2"],
        ["certify", "--n-cert", "zero"],
        ["train", "--rate", "7"],
        ["train", "--samples-per-instance", "0"],
        ["predict", "--n-pred", "0"],
        ["attack", "--max-queries", "0"],
        ["attack", "--seed", "-1"],
        ["certify", "--config", "alpha=2"],
        ["train", "--config", "mechanism=noise"],
        ["attack", "--config", "timeout_seconds=0"],
        ["cardinality", "--config", "exact=maybe"],
        # a required flag is given on the command line only
        ["certify", "--config", "data=other.jsonl"],
        # classifier options the chosen classifier would ignore, from a flag or
        # the config (--model is added below unless the config names one)
        ["certify", "--external-cmd", "never-started"],
        ["predict", "--num-classes", "3"],
        ["certify", "--config", "model=other.json", "--external-cmd", "never-started"],
        ["predict", "--config", "num_classes=3"],
        # the default tokens t0 t1 t2 are more than the vocabulary of 2
        ["cardinality", "--radius", "2", "--exact", "--vocab-size", "2"],
        # a pattern only the exact count would read
        ["cardinality", "--tokens", "a b c"],
    ],
)
def test_invalid_option_value_exit_2(trained, argv, capsys, monkeypatch):
    def no_child(*args, **kwargs):
        raise AssertionError("a classifier child was started")

    monkeypatch.setattr(cli, "ExternalClassifier", no_child)
    model_path, test_path, tmp_path = trained
    command, *rest = argv
    config_text = ""
    if rest[0] == "--config":
        config_text = rest[1]
        config = tmp_path / "bad.cfg"
        config.write_text(config_text + "\n", encoding="utf-8")
        rest = ["--config", str(config), *rest[2:]]
    if command == "cardinality":
        given = ["--length", "3", "--radius", "1"]
    else:
        given = ["--data", str(test_path)]
        if command != "train" and not config_text.startswith("model="):
            given += ["--model", str(model_path)]
    out = tmp_path / "out"
    assert _exit_code([command, *given, "--out", str(out), *rest]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["textcrs", "--length", "0"],
        ["textcrs", "--length", "3", "--r-r-cap", "-1"],
        ["textcrs", "--length", "3", "--r-r-cap", "inf"],
        ["textcrs", "--length", "3", "--r-i-cap", "-1"],
        ["textcrs", "--length", "3", "--r-i-cap", "nan"],
        ["textcrs", "--length", "3", "--d-star", "-1"],
        ["textcrs", "--length", "3", "--d-star", "0"],
        ["curve", "--thresholds", "abc"],
        ["curve", "--thresholds", "0,inf"],
        ["curve", "--grid", "0"],
        ["curve", "--grid", "-1"],
        ["curve", "--thresholds", "0,1", "--grid", "5"],
    ],
)
def test_textcrs_and_curve_invalid_values_exit_2(tmp_path, argv, capsys):
    records = tmp_path / "records.csv"
    records.write_text("true_label,predicted,abstained,log10_cc_lb\n1,1,0,2.0\n", encoding="utf-8")
    out = tmp_path / "out.csv"
    if argv[0] == "curve":
        argv = [*argv, "--records", str(records)]
    assert _exit_code([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "--data", "d.jsonl", "--jobs", "2"],
        ["transfer", "--source-report", "r.json", "--jobs", "2"],
        ["cardinality", "--length", "3", "--radius", "1", "--rate", "0.5"],
        ["cardinality", "--length", "3", "--radius", "1", "--seed", "1"],
        ["cardinality", "--length", "3", "--radius", "1", "--max-queries", "5"],
        ["train", "--data", "d.jsonl", "--out", "m.json", "--n-cert", "10"],
        ["train", "--data", "d.jsonl", "--out", "m.json", "--alpha", "0.1"],
        ["attack", "--data", "d.jsonl", "--alpha", "0.1"],
        ["attack", "--data", "d.jsonl", "--n-pred", "10"],
        ["certify", "--data", "d.jsonl", "--mechanism", "deletion"],
        ["certify", "--data", "d.jsonl", "--timeout-seconds", "5"],
        ["transfer", "--source-report", "r.json", "--max-queries", "5"],
        # options that only picked the rows of an output, which now has them all
        ["certify", "--data", "d.jsonl", "--ops", "dis"],
        ["cardinality", "--length", "3", "--radius", "1", "--which", "all"],
        ["textcrs", "--length", "3", "--kind", "both"],
    ],
)
def test_dropped_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_every_option_is_taken_by_a_command():
    taken = {f.rstrip("!") for _, _, flags in cli._COMMANDS.values() for f in flags.split()}
    assert taken == set(cli._FLAGS)


def test_option_count_pinned():
    # the CLI's size in options; adding or dropping one changes this number on purpose
    assert sum(len(flags.split()) for _, _, flags in cli._COMMANDS.values()) == 80


def test_readme_lists_each_command_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Each subcommand takes only the flags it reads", 1)[1].split("\n\n")[1]
    entries = re.split(r"^- `(\w+)`: ", section, flags=re.M)[1:]
    listed = {}
    for name, text in zip(entries[::2], entries[1::2]):
        flags = set(re.findall(r"`(--[a-z-]+)", text))
        if "a classifier" in text:
            flags |= set(cli._CLASSIFIER.split())
        listed[name] = flags
    assert listed == {
        name: {f.rstrip("!") for f in flags.split()}
        for name, (_, _, flags) in cli._COMMANDS.items()
    }


def _char_model(tmp_path):
    data = LabeledDataset.from_pairs([("good film", 1), ("bad film", 0), ("good show", 1), ("bad show", 0)] * 3)
    data_path, model_path = tmp_path / "char.jsonl", tmp_path / "char.json"
    write_jsonl(data_path, data)
    args = ["train", "--data", str(data_path), "--out", str(model_path), "--scheme", "character",
            "--rate", "0.0", "--samples-per-instance", "1"]
    assert main(args) == 0
    return model_path, data_path


@pytest.mark.parametrize("target", ["base", "smoothed"])
def test_attack_uses_model_scheme(tmp_path, target):
    # a character-scheme model is attacked, and smoothed, in characters:
    # each success reports its character edit distance
    model_path, data_path = _char_model(tmp_path)
    report_path = tmp_path / "attack.json"
    smoothing = ["--prediction-samples", "20", "--rate", "0.3"] if target == "smoothed" else []
    rc = main(["attack", "--model", str(model_path), "--data", str(data_path), "--out",
               str(report_path), "--recipe", "greedy_edit", "--target", target,
               *smoothing, "--max-queries", "300"])
    assert rc == 0
    outcomes = json.loads(report_path.read_text())["outcomes"]
    successes = [o for o in outcomes if o["status"] == "success"]
    assert successes
    for o in successes:
        chars = [tokenize(o[k], Scheme.CHARACTER) for k in ("original_text", "adversarial_text")]
        assert o["edit_distance_used"] == edit_distance(*chars, FULL_OPS)


def test_scheme_contradicting_model_exit_2(tmp_path, capsys):
    model_path, data_path = _char_model(tmp_path)
    report = tmp_path / "attack.json"
    common = ["--model", str(model_path), "--out", str(tmp_path / "out")]
    commands = [
        ["predict", "--data", str(data_path), "--n-pred", "10"],
        ["certify", "--data", str(data_path), "--n-pred", "10", "--n-cert", "20"],
        ["attack", "--data", str(data_path), "--target", "base", "--out", str(report)],
        ["transfer", "--source-report", str(report), "--target", "base"],
    ]
    for argv in commands:
        # the model's own scheme is accepted, spelled out or not
        command, *rest = argv  # rest comes last: attack's --out wins
        assert main([command, *common, *rest, "--scheme", "character"]) == 0
        capsys.readouterr()
        assert main([command, *common, *rest, "--scheme", "whitespace"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "contradicts the character-scheme model" in err
    config = tmp_path / "scheme.cfg"
    config.write_text("scheme = whitespace\n")
    assert main(["predict", "--data", str(data_path), *common, "--config", str(config)]) == 2
    assert "contradicts" in capsys.readouterr().err


#: sha256 of a masking-trained model and of its masking predict CSV,
#: at fixed seeds (marker data, p_mask 0.3)
_MASKING_SHA256 = {
    "whitespace": (
        "2ef020151e3269c6e663b0bc060160858ced1ee32aeab0f7cd08027a82f8f23a",
        "b0331d1f1ef29d7042cedbc806184af4e816a1a27465fa049218ca79d01742be",
    ),
    "character": (
        "b1050131a72d13e057d44881ca5519ce67add8c099a00f8551aa79b2f8aa046c",
        "ccffb18639b0cf33b89de6ca4fbbd8778c2b8062c339171dd075632a33413ff8",
    ),
}


@pytest.mark.parametrize("scheme", sorted(_MASKING_SHA256))
def test_masking_outputs_pinned(tmp_path, scheme, capsys):
    train_path, test_path = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    write_jsonl(train_path, marker_presence_dataset(40, seed=71))
    write_jsonl(test_path, marker_presence_dataset(12, seed=72))
    model, preds = tmp_path / "model.json", tmp_path / "pred.csv"
    masking = ["--mechanism", "masking", "--rate", "0.3"]
    assert main(["train", "--data", str(train_path), "--out", str(model), *masking,
                 "--samples-per-instance", "4", "--seed", "5", "--scheme", scheme]) == 0
    assert main(["predict", "--data", str(test_path), "--out", str(preds), "--model", str(model),
                 *masking, "--n-pred", "50", "--seed", "6"]) == 0
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (model, preds))
    assert got == _MASKING_SHA256[scheme]


#: sha256 of the records of a default `certify` on the built-in model,
#: and of a text-path `certify` through the "length" protocol double
_CERTIFY_SHA256 = "baa530b890f37c404a63667b5be01c5ce608a9a7b39e64196897400cd373e76d"
_EXTERNAL_CERTIFY_SHA256 = "f2ded1ed726e39a199d22120114c4918341aa476ad943af655ef39a469421f95"


def _pinned_model(tmp_path):
    train_path, test_path = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    write_jsonl(train_path, marker_presence_dataset(40, seed=71))
    write_jsonl(test_path, marker_presence_dataset(12, seed=72))
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(train_path), "--out", str(model), "--seed", "3"]) == 0
    return model, test_path


def test_certify_records_pinned(tmp_path, capsys):
    model, test_path = _pinned_model(tmp_path)
    records = tmp_path / "rec.csv"
    assert main(["certify", "--model", str(model), "--data", str(test_path),
                 "--out", str(records)]) == 0
    assert hashlib.sha256(records.read_bytes()).hexdigest() == _CERTIFY_SHA256


#: sha256 of the report of a `greedy_edit` attack on the smoothed target
_ATTACK_SHA256 = "e902bf9d9b0ad273b6637b55c1a00b766b50e8bbc4c24a61025cd9312b4f3534"


def test_attack_report_pinned(tmp_path, capsys):
    model, test_path = _pinned_model(tmp_path)
    report = tmp_path / "attack.json"
    assert main(["attack", "--model", str(model), "--data", str(test_path),
                 "--recipe", "greedy_edit", "--seed", "4", "--prediction-samples", "50",
                 "--max-queries", "200", "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == _ATTACK_SHA256


def _fresh_python(*args):
    """Run ``args`` in a new interpreter that imports delcert from these sources."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_python_m_delcert_runs_the_cli():
    out = _fresh_python("-m", "delcert", "cardinality", "--length", "3", "--radius", "1")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "measure,length,vocab_size,radius,count,log10"


def test_first_bound_in_two_threads_of_a_fresh_interpreter_pinned(tmp_path, capsys):
    # in-process runs find scipy.special already loaded; here both --jobs
    # threads can reach the first bound, and its import, at the same time
    model, test_path = _pinned_model(tmp_path)
    records = tmp_path / "rec.csv"
    out = _fresh_python("-m", "delcert", "certify", "--model", str(model), "--data",
                        str(test_path), "--jobs", "2", "--out", str(records))
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(records.read_bytes()).hexdigest() == _CERTIFY_SHA256


#: imports the modules and runs the commands that compute no bound, then one bound
_NO_BOUND_UNTIL_ASKED = """
import sys
import delcert, delcert.cli, delcert.classifier, delcert.oracle
train, test, records, out = sys.argv[1:]
for argv in (
    ["train", "--data", train, "--out", out + "/model.json", "--seed", "3"],
    ["predict", "--model", out + "/model.json", "--data", test, "--n-pred", "50",
     "--out", out + "/pred.csv"],
    ["curve", "--records", records, "--out", out + "/curve.csv"],
    ["cardinality", "--length", "3", "--radius", "1", "--out", out + "/card.csv"],
):
    print("check:", argv[0], delcert.cli.main(argv))
print("check:", "scipy.special" in sys.modules)
from delcert.certify import clopper_pearson_lower
value = clopper_pearson_lower(3, 10, 0.025)
print("check:", "scipy.special" in sys.modules, repr(value))
"""


def test_scipy_special_loads_at_the_first_bound(tmp_path):
    train_path, test_path = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    write_jsonl(train_path, marker_presence_dataset(20, seed=71))
    write_jsonl(test_path, marker_presence_dataset(4, seed=72))
    records = tmp_path / "rec.csv"
    records.write_text("true_label,predicted,abstained,log10_cc_lb\n1,1,0,2.0\n", encoding="utf-8")
    out = _fresh_python("-c", _NO_BOUND_UNTIL_ASKED, str(train_path), str(test_path),
                        str(records), str(tmp_path))
    assert out.returncode == 0, out.stderr
    expected = repr(clopper_pearson_lower(3, 10, 0.025))
    checks = [line[7:] for line in out.stdout.splitlines() if line.startswith("check: ")]
    assert checks == [
        "train 0", "predict 0", "curve 0", "cardinality 0", "False", f"True {expected}",
    ]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
_RECORD_COLUMNS = ["true_label", "predicted", "abstained", "log10_cc_lb"]


@settings(max_examples=50, deadline=None)
@given(value=_JSON, cell=st.text(max_size=6), data=st.data())
def test_readers_raise_only_data_format_errors(tmp_path_factory, value, cell, data):
    """Each reader, fed one mutated JSON field or CSV cell, raises nothing
    but DataFormatError, and what it accepts has the type of a valid value."""
    d = tmp_path_factory.mktemp("mutated")
    field = data.draw(st.sampled_from(sorted(_SUCCESS)))
    column = data.draw(st.sampled_from(_RECORD_COLUMNS))
    cell = cell.replace('"', "")
    quoted = f'"{cell}"'
    files = {
        "d.jsonl": json.dumps({"text": "a b", "label": value}) + "\n",
        "d.csv": f"text,label\nc,{quoted}\n",
        "m.json": json.dumps({**_MODEL, data.draw(st.sampled_from(sorted(_MODEL))): value}),
        "r.json": json.dumps({"outcomes": [{**_SUCCESS, field: value}]}),
        "rec.csv": ",".join(_RECORD_COLUMNS) + "\n"
        + ",".join(quoted if c == column else "1" for c in _RECORD_COLUMNS) + "\n",
    }
    for name, text in files.items():
        (d / name).write_text(text, encoding="utf-8")

    def read(reader, name):
        with suppress(DataFormatError):
            return reader(str(d / name))

    assert read(cli.load_dataset, "d.jsonl") is None or type(value) is int
    assert read(cli.load_dataset, "d.csv") is None or re.fullmatch(r"-?[0-9]+", cell)
    model = read(BuiltinModel.load, "m.json")
    assert model is None or (model.class_doc_counts >= 0).all() and (model.token_counts >= 0).all()
    report = read(cli._report_from_json, "r.json")
    assert report is None or value is None or type(value) is type(_SUCCESS[field])
    assert main(["curve", "--records", str(d / "rec.csv"), "--out", str(d / "c.csv")]) in (0, 3)


#: the modules a fresh import loads: the package, then an external worker's
#: classifier, then certify (which must stay reachable as a module attribute)
_IMPORT_CLOSURE = """
import sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "delcert")
import delcert
print(loaded())
import delcert.classifier
print(loaded(), "scipy" in sys.modules)
import delcert.certify
print(delcert.certify is sys.modules["delcert.certify"])
"""


def test_import_closure_of_an_external_worker_pinned():
    out = _fresh_python("-c", _IMPORT_CLOSURE)
    assert out.returncode == 0, out.stderr
    worker = [f"delcert.{m}" for m in ("classifier", "errors", "mechanisms", "rng", "tokenization")]
    assert out.stdout.splitlines() == ["['delcert']", f"{['delcert', *worker]} False", "True"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_external_certify_records_pinned(tmp_path, worker_cmd, jobs, capsys):
    # under --jobs 2 two threads share one child, each with requests in flight
    test_path, records = tmp_path / "test.jsonl", tmp_path / "rec.csv"
    write_jsonl(test_path, marker_presence_dataset(12, seed=72))
    assert main(["certify", "--external-cmd", shlex.join(worker_cmd("length")),
                 "--num-classes", "2", "--data", str(test_path), "--seed", "4",
                 "--n-pred", "200", "--n-cert", "800", "--jobs", jobs,
                 "--out", str(records)]) == 0
    assert hashlib.sha256(records.read_bytes()).hexdigest() == _EXTERNAL_CERTIFY_SHA256

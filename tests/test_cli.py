import csv
import json
import shlex
import sys

import pytest

from delcert.cli import main

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


def test_malformed_jsonl_reports_line(trained, tmp_path, capsys):
    model_path, _, _ = trained
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"text": "x", "label": 0}\nnot json\n', encoding="utf-8")
    rc = main(["predict", "--model", str(model_path), "--data", str(bad)])
    assert rc == 3
    assert "bad.jsonl:2" in capsys.readouterr().err


def test_cardinality_command(tmp_path, capsys):
    rc = main(["cardinality", "--length", "3", "--radius", "1", "--vocab-size", "2", "--which", "hamming"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hamming_exact,3,2,1,4," in out

    rc = main(
        [
            "cardinality",
            "--length", "2",
            "--radius", "1",
            "--vocab-size", "2",
            "--which", "all",
            "--exact",
            "--tokens", "a b",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "levenshtein_exact,2,2,1,9," in out
    assert "levenshtein_lower_bound,2,2,1,8," in out

    # --length is shared with textcrs, which needs >= 1; the empty sequence stays valid here
    rc = main(["cardinality", "--length", "0", "--radius", "0", "--vocab-size", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hamming_exact,0,2,0,1," in out and "levenshtein_lower_bound,0,2,0,1," in out


def test_cardinality_guard_exit_4(capsys):
    rc = main(["cardinality", "--length", "4", "--radius", "20", "--which", "exact"])
    assert rc == 4


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
    rc = main(["textcrs", "--length", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "deletion,3,3.0,,,0," in out  # vacuous at n=3 under the cap n

    rc = main(["textcrs", "--length", "2", "--kind", "both"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "deletion,2,2.0,,,2," in out
    assert "insertion,2,2.0,0.99,1.0,0," in out


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
    assert "median_radius[radius_dis]=6" in capsys.readouterr().out


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
    ],
)
def test_invalid_option_value_exit_2(trained, argv, capsys):
    model_path, test_path, tmp_path = trained
    command, *rest = argv
    if rest[0] == "--config":
        config = tmp_path / "bad.cfg"
        config.write_text(rest[1] + "\n", encoding="utf-8")
        rest = ["--config", str(config)]
    model = [] if command == "train" else ["--model", str(model_path)]
    out = tmp_path / "out"
    assert _exit_code([command, "--data", str(test_path), *model, "--out", str(out), *rest]) == 2
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
        ["textcrs", "--length", "3", "--kind", "both", "--r-i-cap", "nan"],
        ["textcrs", "--length", "3", "--kind", "insertion", "--d-star", "-1"],
        ["textcrs", "--length", "3", "--kind", "insertion", "--d-star", "0"],
        ["curve", "--thresholds", "abc"],
        ["curve", "--thresholds", "0,inf"],
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
    ],
)
def test_dropped_flags_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err

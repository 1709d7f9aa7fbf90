import csv
import json
import shutil

import pytest

from teamroles import dataset, metrics, mlp
from teamroles.cli import ARTIFACTS, main
from teamroles.types import BinaryRole, FeatureVector


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One full offline pipeline run over the fixture corpus, shared by tests."""
    out = tmp_path_factory.mktemp("pipeline")
    common = ["--output-dir", str(out), "--cache-dir", "tests/fixtures/cache", "--offline"]
    stages = [
        ["ingest", "--input", "tests/fixtures/corpus.csv"],
        ["label-rule"],
        ["label-llm"],
        ["featurize"],
        ["split"],
        ["train"],
        ["evaluate"],
        ["explain"],
        ["lratio"],
        ["report"],
    ]
    for stage in stages:
        assert run(*stage, *common) == 0, stage
    return out


def test_pipeline_artifacts_exist(pipeline_dir):
    for key, name in ARTIFACTS.items():
        if key == "sampled":  # the sample stage is exercised separately
            continue
        assert (pipeline_dir / name).exists(), name
    assert (pipeline_dir / "config_used.json").exists()
    for name in ("metrics.json", "shap_summary.csv", "distribution.csv"):
        assert (pipeline_dir / "report" / name).exists()


def test_config_echoed(pipeline_dir):
    config = json.loads((pipeline_dir / "config_used.json").read_text())
    assert config["offline"] is True
    assert config["output_dir"] == str(pipeline_dir)
    assert config["train"]["epochs"] == 20


def test_corpus_and_labels_row_counts(pipeline_dir):
    corpus_rows = (pipeline_dir / "corpus.jsonl").read_text().splitlines()
    label_rows = (pipeline_dir / "labels_rule.jsonl").read_text().splitlines()
    assert len(corpus_rows) == len(label_rows) == 299


def test_rule_and_mock_llm_labels_agree(pipeline_dir):
    def load(path):
        return {
            row["record_id"]: row["label"]
            for row in map(json.loads, path.read_text().splitlines())
            if row["label"] is not None
        }

    rule = load(pipeline_dir / "labels_rule.jsonl")
    llm = load(pipeline_dir / "labels_llm.jsonl")
    assert rule == llm


def test_split_manifest_consistent_with_csvs(pipeline_dir):
    manifest = json.loads((pipeline_dir / "split_manifest.json").read_text())
    n_train = len((pipeline_dir / "train.csv").read_text().splitlines()) - 1
    n_test = len((pipeline_dir / "test.csv").read_text().splitlines()) - 1
    assert manifest["n_train"] == n_train
    assert manifest["n_test"] == n_test
    features_rows = len((pipeline_dir / "features.csv").read_text().splitlines()) - 1
    assert n_train + n_test == features_rows


def test_metrics_file_shape(pipeline_dir):
    report = json.loads((pipeline_dir / "metrics.json").read_text())
    assert set(report["per_class"]) == {"Leadership", "Support"}
    assert 0.0 <= report["macro"]["f1"] <= 1.0
    assert 0.0 <= report["accuracy"] <= 1.0
    text = (pipeline_dir / "metrics.txt").read_text()
    assert "macro avg" in text


def test_evaluate_scores_the_test_set_in_one_forward_pass(pipeline_dir, tmp_path, monkeypatch):
    for name in ("model.json", "test.csv"):
        shutil.copyfile(pipeline_dir / name, tmp_path / name)
    calls = []
    forward_batch = mlp.forward_batch

    def counted(params, X):
        calls.append(len(X))
        return forward_batch(params, X)

    monkeypatch.setattr(mlp, "forward_batch", counted)
    assert run("evaluate", "--output-dir", str(tmp_path)) == 0
    table = dataset.read_examples(tmp_path / "test.csv")
    assert calls == [len(table)]

    model = mlp.load_model(tmp_path / "model.json")
    # one row at a time
    predicted = [mlp.predict(model, FeatureVector.from_list(x)) for x in table.X]
    report = metrics.classification_report(list(table.labels), predicted, labels=list(BinaryRole))
    metrics.save_report(report, tmp_path / "reference.json")
    assert (tmp_path / "metrics.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert (tmp_path / "metrics.json").read_bytes() == (pipeline_dir / "metrics.json").read_bytes()


def test_attribution_rows_cover_test_set(pipeline_dir):
    n_test = len((pipeline_dir / "test.csv").read_text().splitlines()) - 1
    with open(pipeline_dir / "attributions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == n_test
    for row in rows:
        phi = sum(float(v) for k, v in row.items() if k.startswith("phi_"))
        assert abs(phi - (float(row["prediction"]) - float(row["base_value"]))) <= 1e-12
    with open(pipeline_dir / "shap_summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    assert len(summary) == 10


def test_lratio_rows_valid(pipeline_dir):
    with open(pipeline_dir / "lratio.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        value = float(row["l_ratio"])
        size = int(row["team_size"])
        assert 0.0 <= value <= 1.0
        assert 2 <= size <= 8
        # l_ratio is a count over team_size, so it must be a multiple of 1/size
        assert value * size == pytest.approx(round(value * size))


def test_distribution_counts(pipeline_dir):
    with open(pipeline_dir / "report" / "distribution.csv", newline="") as fh:
        rows = {row["role"]: int(row["count"]) for row in csv.DictReader(fh)}
    assert set(rows) == {"Leadership", "Direct Support", "Indirect Support"}
    assert sum(rows.values()) == 296  # three fixture statements are keyword-free


def test_explain_empty_test_partition_is_typed_error(pipeline_dir, tmp_path, capsys):
    for name in ("model.json", "train.csv"):
        shutil.copyfile(pipeline_dir / name, tmp_path / name)
    header = (pipeline_dir / "test.csv").read_text().splitlines()[0]
    (tmp_path / "test.csv").write_text(header + "\n")
    assert run("explain", "--output-dir", str(tmp_path)) == 1
    assert "error: no rows to explain" in capsys.readouterr().err


def test_rerun_stage_is_byte_identical(pipeline_dir):
    before = (pipeline_dir / "labels_rule.jsonl").read_bytes()
    assert run("label-rule", "--output-dir", str(pipeline_dir), "--offline") == 0
    assert (pipeline_dir / "labels_rule.jsonl").read_bytes() == before


def test_missing_upstream_artifact_exit_code(tmp_path):
    assert run("split", "--output-dir", str(tmp_path)) == 3


@pytest.fixture
def labels_override_dir(pipeline_dir, tmp_path):
    """Inputs of featurize, lratio and report, with no labels_rule.jsonl and a
    labels_llm.jsonl that names every labeled record Leadership."""
    for name in ("corpus.jsonl", "metrics.json", "shap_summary.csv"):
        shutil.copyfile(pipeline_dir / name, tmp_path / name)
    with open(tmp_path / "labels_llm.jsonl", "w", encoding="utf-8") as fh:
        for line in (pipeline_dir / "labels_llm.jsonl").read_text().splitlines():
            row = json.loads(line)
            if row["label"] is not None:
                row["label"] = "Leadership"
            fh.write(json.dumps(row) + "\n")
    return tmp_path


def test_labels_flag_overrides_default(labels_override_dir):
    out = labels_override_dir
    common = ["--output-dir", str(out), "--cache-dir", "tests/fixtures/cache", "--offline",
              "--labels", str(out / "labels_llm.jsonl")]
    for stage in ("featurize", "lratio", "report"):
        assert run(stage, *common) == 0, stage
    with open(out / "features.csv", newline="") as fh:
        features_rows = list(csv.DictReader(fh))
    assert len(features_rows) == 296
    assert {row["label"] for row in features_rows} == {"Leadership"}
    with open(out / "lratio.csv", newline="") as fh:
        assert {row["l_ratio"] for row in csv.DictReader(fh)} == {"1.0"}
    with open(out / "report" / "distribution.csv", newline="") as fh:
        rows = {row["role"]: int(row["count"]) for row in csv.DictReader(fh)}
    assert rows == {"Leadership": 296, "Direct Support": 0, "Indirect Support": 0}


def test_missing_labels_flag_path_exit_code(labels_override_dir, capsys):
    out = labels_override_dir
    shutil.copyfile(out / "labels_llm.jsonl", out / "labels_rule.jsonl")  # the default exists
    missing = out / "missing.jsonl"
    for stage in ("featurize", "lratio", "report"):
        assert run(stage, "--output-dir", str(out), "--cache-dir", "tests/fixtures/cache",
                   "--offline", "--labels", str(missing)) == 3, stage
        assert str(missing) in capsys.readouterr().err


def test_missing_cache_dir_is_config_error(tmp_path):
    (tmp_path / "corpus.jsonl").write_text("")
    (tmp_path / "labels_rule.jsonl").write_text("")
    assert run("featurize", "--output-dir", str(tmp_path)) == 2


def test_bad_config_file_exit_code(tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text("{not json")
    assert run("ingest", "--input", "x.csv", "--config", str(bad)) == 2


@pytest.mark.parametrize(
    "stage, user_config",
    [
        ("split", {"split_ratio": 2}),
        ("train", {"train": {"epochs": 0}}),
        ("train", {"train": {"hidden_sizes": [64]}}),
        ("explain", {"explain": {"n_baseline_samples": -1}}),
        ("label-llm", {"backend": {"temperature": -1}}),
        ("sample", {"sampling": {"per_journal": 0}}),
        *((stage, {"seed": seed}) for seed in ("x", -1)
          for stage in ("sample", "split", "train", "explain")),
    ],
    ids=["split_ratio", "epochs", "hidden_sizes", "n_baseline_samples", "temperature",
         "per_journal", *(f"seed-{seed}-{stage}" for seed in ("x", "negative")
                          for stage in ("sample", "split", "train", "explain"))],
)
def test_out_of_range_config_value_exits_2(pipeline_dir, tmp_path, capsys, stage, user_config):
    for name in ("corpus.jsonl", "features.csv", "train.csv", "test.csv", "model.json"):
        shutil.copyfile(pipeline_dir / name, tmp_path / name)
    (tmp_path / "config.json").write_text(json.dumps(user_config))
    capsys.readouterr()
    code = run(stage, "--config", str(tmp_path / "config.json"), "--output-dir", str(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if "seed" in user_config:
        assert err.startswith("config error: seed: ")


def test_config_file_with_flag_override(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"output_dir": str(tmp_path / "from_config"),
                                       "sampling": {"per_journal": 7}}))
    override = tmp_path / "override"
    assert run(
        "ingest", "--input", "tests/fixtures/corpus.csv",
        "--config", str(config_path), "--output-dir", str(override),
    ) == 0
    config = json.loads((override / "config_used.json").read_text())
    assert config["output_dir"] == str(override)  # flag beats config file
    assert config["sampling"]["per_journal"] == 7  # nested keys merge
    assert config["sampling"]["min_team"] == 2  # defaults preserved


def test_unreadable_input_exit_code(tmp_path):
    assert run("ingest", "--input", str(tmp_path / "nope.csv"),
               "--output-dir", str(tmp_path)) == 1


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        run("frobnicate")


def test_sample_stage(tmp_path):
    out = tmp_path / "out"
    assert run("ingest", "--input", "tests/fixtures/corpus.csv",
               "--output-dir", str(out)) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"sampling": {"per_journal": 5}}))
    assert run("sample", "--config", str(config_path), "--output-dir", str(out)) == 0
    rows = [json.loads(l) for l in (out / "corpus_sampled.jsonl").read_text().splitlines()]
    assert len({r["paper_id"] for r in rows}) == 20  # 5 papers x 4 journals

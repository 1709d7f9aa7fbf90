import collections
import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import requests

from teamroles import dataset, llm, metrics, mlp
from teamroles.cli import DEFAULT_CONFIG, RULE_LABELS, STAGES, main
from teamroles.types import BinaryRole, FeatureVector


ROOT = Path(__file__).resolve().parent.parent

# the ten stages of the offline pipeline, in order, as README's quick start runs them
QUICK_START = [
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


def run(*argv):
    return main(list(argv))


def offline(out):
    return ["--output-dir", str(out), "--cache-dir", "tests/fixtures/cache", "--offline"]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One full offline pipeline run over the fixture corpus, shared by tests."""
    out = tmp_path_factory.mktemp("pipeline")
    for stage in QUICK_START:
        assert run(*stage, *offline(out)) == 0, stage
    return out


def test_pipeline_artifacts_exist(pipeline_dir):
    for stage in QUICK_START:
        for name in STAGES[stage[0]][3]:
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


def test_split_group_by_author_keeps_each_author_on_one_side(pipeline_dir, tmp_path):
    shutil.copyfile(pipeline_dir / "features.csv", tmp_path / "features.csv")
    assert run("split", "--group-by-author", "--output-dir", str(tmp_path)) == 0

    def rows(name):
        with open(tmp_path / name, newline="") as fh:
            return list(csv.DictReader(fh))

    def cells(part):
        return sorted(tuple(row.values()) for row in part)

    train, test = rows("train.csv"), rows("test.csv")
    assert train and test
    assert not {row["author_id"] for row in train} & {row["author_id"] for row in test}
    assert cells(train + test) == cells(rows("features.csv"))
    manifest = json.loads((tmp_path / "split_manifest.json").read_text())
    assert (manifest["n_train"], manifest["n_test"]) == (len(train), len(test))
    for side, part in (("train", train), ("test", test)):
        counts = collections.Counter(row["label"] for row in part)
        assert manifest["counts"][side] == dict(counts)


def test_split_group_by_author_gives_test_a_row_of_each_class(pipeline_dir, tmp_path):
    """At seed 9 and ratio 0.05 the grouped split used to put 10 Support rows and no
    Leadership row in test."""
    shutil.copyfile(pipeline_dir / "features.csv", tmp_path / "features.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"split_ratio": 0.05}))
    assert run("split", "--group-by-author", "--seed", "9", "--config", str(config),
               "--output-dir", str(tmp_path)) == 0
    counts = json.loads((tmp_path / "split_manifest.json").read_text())["counts"]
    assert all(counts[side][label] > 0 for side in counts for label in ("Leadership", "Support"))


@pytest.mark.parametrize("flags, grouped", [([], False), (["--group-by-author"], True)])
def test_split_manifest_records_the_grouping(pipeline_dir, tmp_path, flags, grouped):
    shutil.copyfile(pipeline_dir / "features.csv", tmp_path / "features.csv")
    assert run("split", *flags, "--output-dir", str(tmp_path)) == 0
    manifest = json.loads((tmp_path / "split_manifest.json").read_text())
    assert manifest["group_by_author"] is grouped


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


@pytest.mark.parametrize("keep", ["Support", None], ids=["support-only", "header-only"])
def test_split_without_two_rows_of_each_class_exits_1(pipeline_dir, tmp_path, capsys, keep):
    header, *rows = (pipeline_dir / "features.csv").read_text().splitlines(keepends=True)
    kept = [row for row in rows if keep and row.rstrip("\r\n").endswith("," + keep)]
    (tmp_path / "features.csv").write_text(header + "".join(kept))
    capsys.readouterr()
    assert run("split", "--output-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: too few Leadership rows: 0, need 2\n"
    assert [path.name for path in tmp_path.iterdir()] == ["features.csv"]


def lines_of(path: Path, label: str):
    """The header line of a feature CSV and its row lines of one label."""
    header, *rows = path.read_text().splitlines(keepends=True)
    return header, [row for row in rows if row.rstrip("\r\n").endswith("," + label)]


def test_split_gives_each_side_a_row_of_a_class_of_two(pipeline_dir, tmp_path):
    header, lead = lines_of(pipeline_dir / "features.csv", "Leadership")
    _, support = lines_of(pipeline_dir / "features.csv", "Support")
    (tmp_path / "features.csv").write_text(header + "".join(lead[:2] + support))
    assert run("split", "--output-dir", str(tmp_path)) == 0
    counts = json.loads((tmp_path / "split_manifest.json").read_text())["counts"]
    assert counts["train"]["Leadership"] == counts["test"]["Leadership"] == 1


def test_train_on_one_class_exits_1(pipeline_dir, tmp_path, capsys):
    header, support = lines_of(pipeline_dir / "train.csv", "Support")
    (tmp_path / "train.csv").write_text(header + "".join(support))
    capsys.readouterr()
    assert run("train", "--output-dir", str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: too few Leadership rows: 0, need 1\n"
    assert [path.name for path in tmp_path.iterdir()] == ["train.csv"]


def test_ingest_without_a_required_column_names_the_file_and_line(tmp_path, capsys):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("paper_id,journal,year,author_name\nW1,PNAS,2010,Ann Lee\n")
    assert run("ingest", "--input", str(corpus), "--output-dir", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err == f"error: {corpus} line 2: field statement: missing\n"


ROW = {"paper_id": "W1", "journal": "PNAS", "year": 2010, "author_name": "Ann Lee",
       "statement": "designed the study"}
NO_STATEMENT = {key: value for key, value in ROW.items() if key != "statement"}


@pytest.mark.parametrize("name, text, line, field", [
    ("corpus.csv", "paper_id,journal\n", 1, "year"),  # a header and no data rows
    ("corpus.jsonl", f"{json.dumps(ROW)}\n{json.dumps(NO_STATEMENT)}\n", 2, "statement"),
], ids=["header-only-csv", "second-json-line"])
def test_ingest_checks_every_row_and_a_bare_header_for_required_fields(
        tmp_path, capsys, name, text, line, field):
    corpus = tmp_path / name
    corpus.write_text(text)
    fmt = "json-lines" if name.endswith(".jsonl") else "delimited-table"
    argv = ["ingest", "--input", str(corpus), "--format", fmt, "--output-dir", str(tmp_path / "out")]
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {corpus} line {line}: field {field}: missing\n"
    assert not (tmp_path / "out" / "corpus.jsonl").exists()


def test_ingest_rejects_a_json_null_text_field(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    rows = [ROW, dict(ROW, author_name=None, statement=None)]
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
    out = tmp_path / "out"
    assert run("ingest", "--input", str(corpus), "--format", "json-lines", "--output-dir", str(out)) == 0
    assert capsys.readouterr().out == "ingest: 1 records, 1 rejects\n"
    rejects = [json.loads(line) for line in (out / "rejects.jsonl").read_text().splitlines()]
    assert [row["reject_reason"] for row in rejects] == ["bad_author_name"]


@pytest.mark.parametrize("delimiter", [";;", ""], ids=["two-characters", "empty"])
def test_ingest_with_a_delimiter_that_is_not_one_character_exits_2(tmp_path, capsys, delimiter):
    out = tmp_path / "out"
    code = run("ingest", "--input", "tests/fixtures/corpus.csv", f"--delimiter={delimiter}",
               "--output-dir", str(out))
    assert code == 2
    assert capsys.readouterr().err == (
        f"config error: --delimiter: must be one character, got {delimiter!r}\n")
    assert not files(out)


def test_ingest_of_a_corpus_that_starts_with_a_byte_order_mark(tmp_path):
    """Excel's "CSV UTF-8" starts the file with U+FEFF, which is no part of paper_id."""
    marked = tmp_path / "corpus.csv"
    marked.write_bytes("\ufeff".encode() + Path("tests/fixtures/corpus.csv").read_bytes())
    for corpus, out in (("tests/fixtures/corpus.csv", "plain"), (marked, "marked")):
        assert run("ingest", "--input", str(corpus), "--output-dir", str(tmp_path / out)) == 0
    assert files(tmp_path / "marked").keys() == {tmp_path / "marked" / name for name in (
        "corpus.jsonl", "rejects.jsonl", "config_used.json")}
    for name in ("corpus.jsonl", "rejects.jsonl"):
        assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_label_llm_over_http_without_an_endpoint_exits_2(pipeline_dir, tmp_path, capsys,
                                                        monkeypatch):
    """It used to post each row to '' and wait out every retry, then exit 0."""
    posted = []

    def post(url, **kwargs):
        posted.append(url)
        raise requests.exceptions.MissingSchema(f"Invalid URL {url!r}")

    monkeypatch.setattr(requests, "post", post)
    first = (pipeline_dir / "corpus.jsonl").read_text().splitlines(keepends=True)[0]
    (tmp_path / "corpus.jsonl").write_text(first)
    before = files(tmp_path)
    capsys.readouterr()
    assert run("label-llm", "--backend", "http", "--output-dir", str(tmp_path)) == 2
    assert capsys.readouterr().err == (
        "config error: backend.endpoint_url is required for --backend http\n")
    assert files(tmp_path) == before and posted == []


def test_label_llm_over_http_writes_the_labels_of_the_mock_backend(pipeline_dir, tmp_path,
                                                                   monkeypatch):
    """An endpoint that answers as MockBackend does gives labels_llm.jsonl the bytes
    that --backend mock wrote."""
    def post(url, **kwargs):
        reply = requests.Response()
        reply.status_code = 200
        answer = llm.MockBackend().complete(kwargs["json"]["messages"][0]["content"], None)
        reply._content = json.dumps({"choices": [{"message": {"content": answer}}]}).encode()
        return reply

    monkeypatch.setattr(requests, "post", post)
    shutil.copyfile(pipeline_dir / "corpus.jsonl", tmp_path / "corpus.jsonl")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"backend": {"endpoint_url": "https://chat.example/v1"}}))
    assert run("label-llm", "--backend", "http", "--config", str(config),
               "--output-dir", str(tmp_path)) == 0
    labels = (tmp_path / "labels_llm.jsonl").read_bytes()
    assert labels == (pipeline_dir / "labels_llm.jsonl").read_bytes()


def declared_file(name: str) -> str:
    """The file in the output dir that an input name of STAGES stands for."""
    return RULE_LABELS if name == "labels" else name


def only_declared_inputs(source: Path, tmp_path: Path, stage: str):
    """An output dir holding a copy of each input STAGES declares for the stage,
    nothing else, and the argv that runs the stage on it with the fixture cache."""
    out = tmp_path / "out"
    out.mkdir()
    for name in STAGES[stage][2]:
        shutil.copyfile(source / declared_file(name), out / declared_file(name))
    shutil.copytree("tests/fixtures/cache", tmp_path / "cache")  # a copy, so writes to it show
    config = tmp_path / "config.json"
    config.write_text("{}")
    flags = ["--input", "tests/fixtures/corpus.csv"] if stage == "ingest" else []
    return out, [stage, *flags, "--output-dir", str(out), "--cache-dir", str(tmp_path / "cache"),
                 "--offline", "--config", str(config)]


def files(directory: Path) -> dict:
    return {path: path.read_bytes() for path in directory.rglob("*") if path.is_file()}


@pytest.mark.parametrize("stage", list(STAGES))
def test_every_stage_runs_on_its_declared_inputs_alone(pipeline_dir, tmp_path, stage):
    out, argv = only_declared_inputs(pipeline_dir, tmp_path, stage)
    assert run(*argv) == 0


@pytest.mark.parametrize("stage, name", [
    pytest.param(stage, name, id=f"{stage}-{Path(name).stem}")  # e.g. evaluate-model
    for stage, (_, _, inputs, _, _) in STAGES.items() for name in inputs
])
def test_every_declared_input_that_is_missing_exits_3(pipeline_dir, tmp_path, capsys, stage, name):
    out, argv = only_declared_inputs(pipeline_dir, tmp_path, stage)
    missing = out / declared_file(name)
    missing.unlink()
    before = files(out)
    capsys.readouterr()
    assert run(*argv) == 3
    assert capsys.readouterr().err == (
        f"missing upstream artifact: stage '{stage}' requires missing artifact: {missing}\n")
    assert files(out) == before


@pytest.mark.parametrize("stage", list(STAGES))
def test_every_stage_writes_exactly_its_declared_outputs(pipeline_dir, tmp_path, stage):
    """A stage adds or changes its declared outputs and config_used.json, on every run, and
    nothing else: an offline run leaves each file in --cache-dir as it was."""
    out, argv = only_declared_inputs(pipeline_dir, tmp_path, stage)
    before, cache = files(out), files(tmp_path / "cache")
    assert run(*argv) == 0
    after = files(out)
    assert before.keys() <= after.keys()
    written = {path.relative_to(out).parts[0] for path in after if after[path] != before.get(path)}
    assert written == {*STAGES[stage][3], "config_used.json"}
    assert files(tmp_path / "cache") == cache


def stage_table() -> str:
    """README's table of the files each stage reads and writes, as STAGES declares them."""
    def names(files):
        return ", ".join(f"`{name}`" for name in files) or "—"

    lines = ["| stage | reads | writes |", "| --- | --- | --- |"]
    lines += [f"| `{stage}` | {names(reads)} | {names(writes)} |"
              for stage, (_, _, reads, writes, _) in STAGES.items()]
    return "\n".join(lines) + "\n"


def test_readme_states_each_stage_files_as_stages_declares_them():
    assert stage_table() in (ROOT / "README.md").read_text(encoding="utf-8")


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


def test_repeated_record_id_in_labels_file_exits_1(labels_override_dir, capsys):
    """A second line for a record would silently overwrite its first label."""
    out = labels_override_dir
    labels = out / "labels_llm.jsonl"
    lines = labels.read_text().splitlines()
    first = json.loads(lines[0])
    with open(labels, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**first, "label": "Indirect Support"}) + "\n")
    message = f"error: {labels} line {len(lines) + 1}: record_id {first['record_id']} repeats line 1\n"
    for stage in ("featurize", "lratio", "report"):
        assert run(stage, "--output-dir", str(out), "--cache-dir", "tests/fixtures/cache",
                   "--offline", "--labels", str(labels)) == 1, stage
        assert capsys.readouterr().err == message
    for name in ("features.csv", "lratio.csv", "report/distribution.csv"):
        assert not (out / name).exists(), name


def test_report_that_fails_on_its_labels_leaves_report_dir_unchanged(labels_override_dir, capsys):
    out = labels_override_dir
    labels = out / "labels_llm.jsonl"
    common = ["--output-dir", str(out), "--labels", str(labels)]
    assert run("report", *common) == 0
    before = {path.name: path.read_bytes() for path in (out / "report").iterdir()}
    (out / "metrics.json").write_text('{"accuracy": 0.0}')  # the next run's metrics
    first = labels.read_text().splitlines()[0]
    with open(labels, "a", encoding="utf-8") as fh:
        fh.write(first + "\n")  # a repeated record id
    assert run("report", *common) == 1
    assert "repeats line 1" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in (out / "report").iterdir()} == before


def test_missing_cache_dir_is_config_error(tmp_path):
    (tmp_path / "corpus.jsonl").write_text("")
    (tmp_path / "labels_rule.jsonl").write_text("")
    assert run("featurize", "--output-dir", str(tmp_path)) == 2


def test_bad_config_file_exit_code(tmp_path):
    bad = tmp_path / "config.json"
    bad.write_text("{not json")
    assert run("ingest", "--input", "x.csv", "--config", str(bad)) == 2


@pytest.mark.parametrize(
    "stage, user_config, key",
    [
        ("split", {"split_ratio": 2}, "split_ratio"),
        ("train", {"train": {"epochs": 0}}, "train"),
        ("train", {"train": {"hidden_sizes": [64]}}, "train"),
        ("explain", {"explain": {"n_baseline_samples": -1}}, "explain"),
        ("label-llm", {"backend": {"temperature": -1}}, "backend"),
        *((stage, {"seed": seed}, "seed") for seed in ("x", -1)
          for stage in ("split", "train", "explain")),
        ("ingest", {"output_dir": 5}, "output_dir"),
        ("featurize", {"cache_dir": 5}, "cache_dir"),
        ("featurize", {"cache_dir": "tests/fixtures/cache", "offline": "no"}, "offline"),
        ("split", {"seed": 1.9}, "seed"),
        ("train", {"seed": True}, "seed"),
        ("train", {"train": {"epochs": 2.5}}, "train.epochs"),
        ("train", {"train": {"hidden_sizes": [64.5, 32]}}, "train.hidden_sizes"),
        ("train", {"train": {"learning_rate": "nan"}}, "train.learning_rate"),
        ("train", {"train": {"learning_rate": -1}}, "train"),
        ("explain", {"explain": {"n_baseline_samples": 3.7}}, "explain.n_baseline_samples"),
        ("label-llm", {"backend": {"max_retries": 1.5}}, "backend.max_retries"),
        ("train", {"train": {"learning_rat": 0.5}}, "train.learning_rat"),
        ("train", {"split_ration": 0.5}, "split_ration"),
        ("ingest", {"trian": {"epochs": 3}}, "trian"),
        ("train", {"train": {"learning_rate": "0.5"}}, "train.learning_rate"),
        ("train", {"train": {"learning_rate": True}}, "train.learning_rate"),
        ("split", {"split_ratio": "0.2"}, "split_ratio"),
        ("label-llm", {"backend": {"temperature": float("nan")}}, "backend.temperature"),
        ("label-llm", {"backend": {"model_name": 5}}, "backend.model_name"),
        ("featurize", {"cache_dir": "tests/fixtures/cache", "offline": True, "mailto": 5}, "mailto"),
        ("split", {"train": 5}, "train"),
        ("ingest", {"train": {"epochs": 2.5}}, "train.epochs"),
    ],
    ids=["split_ratio", "epochs", "hidden_sizes", "n_baseline_samples", "temperature",
         *(f"seed-{seed}-{stage}" for seed in ("x", "negative")
           for stage in ("split", "train", "explain")),
         "output_dir-int", "cache_dir-int", "offline-string", "seed-float",
         "seed-bool", "epochs-float", "hidden_sizes-float", "learning_rate-nan",
         "learning_rate-negative", "n_baseline_samples-float",
         "max_retries-float", "unknown-in-a-section", "unknown-top-level", "unknown-section",
         "learning_rate-string", "learning_rate-bool", "split_ratio-string", "temperature-nan",
         "model_name-int", "mailto-int", "section-int", "epochs-float-ingest"],
)
def test_out_of_range_config_value_exits_2(pipeline_dir, tmp_path, capsys, stage, user_config, key):
    """A setting the stage rejects ends it before it writes anything, with one line
    naming the setting, or its section for a value out of a stage's range. Every
    stage checks every setting's type, also one it does not read: a path must be
    a string, a flag true or false, an integer setting an int (no bool, no float
    to truncate) and a float setting a finite number. A learning rate must be > 0.
    A setting or section not in DEFAULT_CONFIG is unknown."""
    for name in ("corpus.jsonl", "labels_rule.jsonl", "features.csv", "train.csv", "test.csv",
                 "model.json"):
        shutil.copyfile(pipeline_dir / name, tmp_path / name)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path), **user_config}))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    argv = ["--input", "tests/fixtures/corpus.csv"] if stage == "ingest" else []
    code = run(stage, *argv, "--config", str(config))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert after == before


def _settings(section, prefix=()):
    """(path, default) for every setting and section under a section of DEFAULT_CONFIG."""
    for key, default in section.items():
        yield (*prefix, key), default
        if isinstance(default, dict):
            yield from _settings(default, (*prefix, key))


def _takes(default, value) -> bool:
    """Whether a setting whose default is `default` takes `value`: the rule that
    README states, written out apart from the code that checks it."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, (int, float)) and (isinstance(value, bool) or
                                              not isinstance(value, (int, float))):
        return False
    if isinstance(default, int):
        return isinstance(value, int)
    if isinstance(default, float):
        return math.isfinite(value)
    if isinstance(default, list):
        return isinstance(value, list) and all(_takes(default[0], item) for item in value)
    if isinstance(default, dict):
        return isinstance(value, dict)
    return isinstance(value, str) or (default is None and value is None)


# one value of each JSON type, and NaN
JSON_VALUES = {"string": "x", "bool": True, "int": 1, "float": 2.5, "nan": float("nan"),
               "list": [], "object": {}, "null": None}


def _wrong_values():
    """(setting path, value) for every value of JSON_VALUES that a setting or a
    section of DEFAULT_CONFIG does not take, and for a list setting every list
    that holds one value its items do not take."""
    for path, default in _settings(DEFAULT_CONFIG):
        candidates = dict(JSON_VALUES)
        if isinstance(default, list):
            candidates.update((f"list-of-{name}", [value]) for name, value in JSON_VALUES.items())
        for name, value in candidates.items():
            if not _takes(default, value):
                yield pytest.param(path, value, id=f"{'.'.join(path)}-{name}")


@pytest.mark.parametrize("path, value", _wrong_values())
def test_every_setting_of_the_wrong_type_exits_2(pipeline_dir, tmp_path, capsys, path, value):
    """Every stage checks the type of every setting, also one it does not read:
    lratio reads none, and a value that the setting's default does not take ends
    it with one line naming the dotted setting, before it writes anything."""
    for name in ("corpus.jsonl", "labels_rule.jsonl"):
        shutil.copyfile(pipeline_dir / name, tmp_path / name)
    user_config = {"output_dir": str(tmp_path)}
    section = user_config
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(user_config))
    before = {file.name: file.read_bytes() for file in tmp_path.iterdir()}
    capsys.readouterr()
    code = run("lratio", "--config", str(config))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: {'.'.join(path)}: ") and err.count("\n") == 1
    assert {file.name: file.read_bytes() for file in tmp_path.iterdir()} == before


@pytest.mark.parametrize("section, settings", [
    ("train", mlp.TrainConfig), ("backend", llm.BackendConfig)])
def test_config_defaults_are_the_library_defaults(section, settings):
    """A stage run with no config and a library caller that builds settings() with no
    arguments use the same values: each setting of the section is a field of the
    class, with the field's default."""
    defaults = {field.name: field.default for field in dataclasses.fields(settings)
                if field.name in DEFAULT_CONFIG[section]}
    assert json.loads(json.dumps(defaults)) == DEFAULT_CONFIG[section]  # tuples as lists


def test_integer_learning_rate_trains_as_a_float_and_is_echoed_as_given(pipeline_dir, tmp_path):
    """model.json records the rate 1 as 1.0, as it records the default 0.001;
    config_used.json echoes the 1 that the config gave."""
    shutil.copyfile(pipeline_dir / "train.csv", tmp_path / "train.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path), "train": {"learning_rate": 1}}))
    assert run("train", "--config", str(config)) == 0
    assert '"learning_rate": 1.0,' in (tmp_path / "model.json").read_text()
    rate = json.loads((tmp_path / "config_used.json").read_text())["train"]["learning_rate"]
    assert type(rate) is int and rate == 1


def test_config_used_feeds_back(pipeline_dir, tmp_path):
    """config_used.json, schema_version and all, is a valid --config, and the run
    it configures records the same bytes."""
    shutil.copyfile(pipeline_dir / "train.csv", tmp_path / "train.csv")
    assert run("train", "--output-dir", str(tmp_path), "--seed", "3") == 0
    recorded = (tmp_path / "config_used.json").read_bytes()
    shutil.copyfile(tmp_path / "config_used.json", tmp_path / "config.json")
    assert run("train", "--config", str(tmp_path / "config.json")) == 0
    assert (tmp_path / "config_used.json").read_bytes() == recorded


def test_config_file_with_flag_override(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"output_dir": str(tmp_path / "from_config"),
                                       "train": {"epochs": 7}}))
    override = tmp_path / "override"
    assert run(
        "ingest", "--input", "tests/fixtures/corpus.csv",
        "--config", str(config_path), "--output-dir", str(override),
    ) == 0
    config = json.loads((override / "config_used.json").read_text())
    assert config["output_dir"] == str(override)  # flag beats config file
    assert config["train"]["epochs"] == 7  # nested keys merge
    assert config["train"]["batch_size"] == 32  # defaults preserved


def test_unreadable_input_exit_code(tmp_path):
    assert run("ingest", "--input", str(tmp_path / "nope.csv"),
               "--output-dir", str(tmp_path)) == 1


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        run("frobnicate")


# the stages that never import numpy; the other five do
NUMPY_FREE = {"ingest", "label-rule", "label-llm", "lratio", "report"}


def fresh_interpreter(*argv):
    """Run python -X importtime with argv from the repository root; return the
    finished process and the names of the modules it imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-X", "importtime", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in done.stderr.splitlines() if line.startswith("import time:")}
    return done, imported


def test_bare_cli_import_loads_no_numpy_and_no_stage_module():
    done, imported = fresh_interpreter("-c", "import teamroles.cli")
    assert done.returncode == 0, done.stderr
    assert "numpy" not in imported
    assert {m for m in imported if m.startswith("teamroles")} == {
        "teamroles", "teamroles.cli", "teamroles.artifacts", "teamroles.errors"}


def test_quick_start_in_fresh_interpreters(pipeline_dir, tmp_path):
    """One process per stage, as README runs them: the same artifacts as the
    in-process run, and numpy only in the stages that compute with it."""
    without_numpy = set()
    for stage in QUICK_START:
        done, imported = fresh_interpreter("-m", "teamroles.cli", *stage, *offline(tmp_path))
        assert done.returncode == 0, (stage, done.stderr[-2000:])
        if "numpy" not in imported:
            without_numpy.add(stage[0])
    assert without_numpy == NUMPY_FREE
    for name in ("features.csv", "model.json", "attributions.csv"):
        assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes(), name

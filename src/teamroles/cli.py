"""Pipeline CLI: one subcommand per stage, file artifacts between stages.

Stage artifacts are plain files in --output-dir so every stage can be
inspected and re-run independently; re-running a stage over unchanged
inputs produces identical bytes. Configuration comes from a JSON file
(--config) with every field overridable by a flag; a stage that completes
echoes its effective config into the output directory (config_used.json),
and one that fails leaves the file as it was.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

# Each stage runs in its own process, so the modules a stage needs are
# imported by its handler and a stage loads only what it runs.
from . import artifacts
from .errors import ConfigError, PipelineError, UpstreamArtifactMissing

DEFAULT_CONFIG = {
    "output_dir": "out",
    "cache_dir": None,
    "offline": False,
    "seed": 0,
    "mailto": None,
    "split_ratio": 0.2,
    "backend": {
        "endpoint_url": "",
        "model_name": "mock",
        "temperature": 0.01,
        "max_retries": 2,
        "api_key_env": "TEAMROLES_API_KEY",
    },
    "train": {"epochs": 20, "batch_size": 32, "learning_rate": 0.001, "hidden_sizes": [64, 32]},
    "explain": {"n_baseline_samples": 32},
}


def load_config(args) -> dict:
    config = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if args.config:
        try:
            user = artifacts.read_json(args.config)
        except PipelineError as exc:
            raise ConfigError(f"cannot load config {args.config}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config {args.config} is not a JSON object")
        for key, value in user.items():
            if isinstance(value, dict) and isinstance(config.get(key), dict):
                config[key].update(value)
            else:
                config[key] = value
        # config_used.json records the schema version; fed back, it is no setting
        config.pop("schema_version", None)
    for name in ("output_dir", "cache_dir", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            config[name] = value
    if getattr(args, "offline", False):
        config["offline"] = True
    _check_types(config)
    return config


def _check_types(value, default=DEFAULT_CONFIG, name: str = "") -> None:
    """ConfigError naming the dotted setting for the first one that DEFAULT_CONFIG
    lacks or whose value has not its default's type; a null default takes a
    string or null, a list default a list of its items' type."""
    from .types import as_flag, as_int, as_number, as_text

    if isinstance(default, dict) and isinstance(value, dict):
        for key, item in value.items():
            setting = f"{name}.{key}" if name else key
            if key not in default:
                raise ConfigError(f"{setting}: unknown setting")
            _check_types(item, default[key], setting)
        return
    with _config_values(name):
        if isinstance(default, dict):
            raise TypeError(f"expected an object, got {value!r}")
        items = [value]
        if isinstance(default, list):
            if not isinstance(value, list):
                raise TypeError(f"expected a list, got {value!r}")
            items, default = value, default[0]
        for item in items:
            if item is not None or default is not None:
                {bool: as_flag, int: as_int, float: as_number}.get(type(default), as_text)(item)


@contextmanager
def _config_values(section: str):
    """Turn a config value that is rejected (a TypeError, ValueError or
    OverflowError while it is checked or a stage's settings are built) into a
    ConfigError naming the setting or its section."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _seed(config: dict) -> int:
    """The pipeline seed, range-checked once for every stage that uses it: numpy's
    generators, which train and explain seed, take no negative seed."""
    seed = config["seed"]
    with _config_values("seed"):
        if seed < 0:
            raise ValueError(f"must be >= 0, got {seed}")
    return seed


def _client(config: dict):
    from . import openalex

    if config["cache_dir"] in (None, ""):
        raise ConfigError("cache_dir is required for OpenAlex-backed stages")
    return openalex.OpenAlexClient(openalex.ClientConfig(
        mailto=config["mailto"], cache_dir=Path(config["cache_dir"]), offline=config["offline"]
    ))


def _read_labels(path: Path) -> dict:
    from . import llm

    labels = {}
    for outcome in llm.read_outcomes(path):
        if outcome.label is not None:
            labels[outcome.record_id] = outcome.label
    return labels


def cmd_ingest(args, config, corpus, rejects) -> None:
    from . import ingest

    with _config_values("--delimiter"):
        corpus_file = ingest.CorpusFile(Path(args.input), args.format, args.delimiter)
    result = ingest.parse_corpus(corpus_file)
    ingest.write_corpus(result.records, corpus)
    ingest.write_rejects(result.rejects, rejects)
    print(f"ingest: {len(result.records)} records, {len(result.rejects)} rejects")


def cmd_label_rule(args, config, corpus, labels) -> None:
    from . import ingest, llm
    from .rules import NoKeywordMatch, classify_statement

    records = ingest.read_corpus(corpus)
    outcomes = []
    for rec in records:
        try:
            label = classify_statement(rec.statement)
            outcomes.append(llm.BatchOutcome(rec.record_id, label, None, None))
        except NoKeywordMatch as exc:
            outcomes.append(llm.BatchOutcome(rec.record_id, None, f"NoKeywordMatch: {exc}", None))
    llm.write_outcomes(outcomes, labels)
    labeled = sum(1 for o in outcomes if o.ok)
    print(f"label-rule: {labeled}/{len(outcomes)} labeled")


def cmd_label_llm(args, config, corpus, labels) -> None:
    from . import ingest, llm

    records = ingest.read_corpus(corpus)
    with _config_values("backend"):
        backend_cfg = llm.BackendConfig(**config["backend"])
    if args.backend == "http":
        if not backend_cfg.endpoint_url:
            raise ConfigError("backend.endpoint_url is required for --backend http")
        backend = llm.HttpBackend()
    else:
        backend = llm.MockBackend()
    outcomes = llm.classify_batch(records, backend, config=backend_cfg)
    llm.write_outcomes(outcomes, labels)
    labeled = sum(1 for o in outcomes if o.ok)
    print(f"label-llm: {labeled}/{len(outcomes)} labeled via {args.backend}")


def _author_profiles(client, records, wanted, skip):
    """Yield (profile, [(record, focal paper)]) once per author of the records whose ids
    are in `wanted`.

    Each focal work is fetched once and the names of its wanted rows are
    matched on it; each author's profile is fetched once, and only after
    the previous one was consumed. Rows that cannot be resolved or profiled
    go to skip(rows, error), paper by paper and then author by author.
    """
    from . import ingest, openalex
    from .types import check_team

    by_author = {}
    for paper_id, rows in ingest.rows_by_paper(records).items():
        wanted_rows = [rec for rec in rows if rec.record_id in wanted]
        if not wanted_rows:
            continue
        try:
            check_team(paper_id, rows)  # before the fetch: an incomplete paper costs none
            work = client.fetch_work(paper_id)
        except PipelineError as exc:
            skip(wanted_rows, exc)
            continue
        focal = ingest.paper_record(rows, work.referenced_work_ids, work.topic_ids)
        for rec in wanted_rows:
            try:
                author_id = openalex.match_author(work, rec.author_name)
            except PipelineError as exc:
                skip([rec], exc)
                continue
            by_author.setdefault(author_id, []).append((rec, focal))
    for author_id in list(by_author):
        # popped, so the memory of finished groups is reused by the caller's results
        group = by_author.pop(author_id)
        try:
            profile = client.fetch_author_profile(author_id)
        except PipelineError as exc:
            skip([rec for rec, _ in group], exc)
            continue
        yield profile, group


def cmd_featurize(args, config, corpus, labels_file, features_file) -> None:
    import numpy as np

    from . import dataset, features, ingest
    from .types import FEATURE_NAMES, to_binary

    records = ingest.read_corpus(corpus)
    labels = _read_labels(labels_file)
    client = _client(config)

    def skip(rows, exc):
        for rec in rows:
            print(f"featurize: skipping {rec.record_id}: {exc}", file=sys.stderr)

    # features go straight into one matrix, in the order the rows are computed,
    # so no per-row Python floats are held while the metadata is still in memory.
    # record_id builds a new string per read: _author_profiles reads it once a
    # row, and so do the loop and `kept` below.
    X = np.empty((len(records), len(FEATURE_NAMES)))
    rows = {}
    for profile, group in _author_profiles(client, records, labels, skip):
        start = len(rows)
        X[start:start + len(group)] = features.author_features(profile, [f for _, f in group])
        for index, (rec, _) in enumerate(group, start):
            record_id = rec.record_id
            rows[record_id] = (profile.author_id, rec.paper_id, index, to_binary(labels[record_id]))
    kept = [row for row in map(rows.get, (rec.record_id for rec in records)) if row is not None]
    table = dataset.FeatureTable(
        tuple(row[0] for row in kept),
        tuple(row[1] for row in kept),
        X[[row[2] for row in kept]],
        tuple(row[3] for row in kept),
    )
    dataset.write_examples(table, features_file)
    # a record without a label, or one that skip() saw, has no example
    print(f"featurize: {len(table)} examples, {len(records) - len(table)} skipped")


def cmd_split(args, config, features, train, test, manifest) -> None:
    """Split features.csv per class. Every cell is parsed and checked, but the
    rows are written as features.csv holds them, header included: train.csv
    and test.csv get the text of the rows the split chose, in its order."""
    from . import dataset

    text: list = []  # the header's text, then each row's
    table = dataset.read_examples(features, text)
    with _config_values("split_ratio"):
        ratio = dataset.check_ratio(config["split_ratio"])
    result = dataset.stratified_split(
        table,
        ratio=ratio,
        seed=_seed(config),
        group_by_author=bool(args.group_by_author),
    )
    dataset.write_split(result, text, train, test)
    dataset.write_split_manifest(result, manifest)
    print(f"split: {len(result.train)} train, {len(result.test)} test")


def cmd_train(args, config, train, model_file) -> None:
    from . import dataset, mlp

    table = dataset.read_examples(train)
    settings = config["train"]
    with _config_values("train"):
        train_cfg = mlp.TrainConfig(**{
            **settings,
            # model.json records the rate as a float, as the default gives it
            "learning_rate": float(settings["learning_rate"]),
            "hidden_sizes": tuple(settings["hidden_sizes"]),
        }, seed=_seed(config))
    model = mlp.train(table, train_cfg)
    mlp.save_model(model, model_file)
    print(f"train: {len(table)} examples, final loss {model.loss_history[-1]:.4f}")


def cmd_evaluate(args, config, model_file, test, metrics_file, metrics_text) -> None:
    from . import dataset, metrics, mlp
    from .types import BinaryRole

    model = mlp.load_model(model_file)
    table = dataset.read_examples(test)
    predicted = mlp.predict_batch(model, mlp.model_inputs(model, table.X))
    report = metrics.classification_report(list(table.labels), predicted, labels=list(BinaryRole))
    metrics.save_report(report, metrics_file)
    artifacts.write_text(metrics_text, metrics.report_to_text(report) + "\n")
    print(f"evaluate: macro F1 {report.macro_f1:.3f} on {len(table)} test examples")


def cmd_explain(args, config, model_file, train, test, attributions_file, summary, svg) -> None:
    import numpy as np

    from . import dataset, explain, mlp

    model = mlp.load_model(model_file)
    train_table = dataset.read_examples(train)
    test_table = dataset.read_examples(test)

    rng = np.random.default_rng(_seed(config))
    n_samples = config["explain"]["n_baseline_samples"]
    with _config_values("explain"):
        if n_samples < 0:
            raise ValueError(f"n_baseline_samples must be >= 0, got {n_samples}")
    n_baselines = min(n_samples, len(train_table))
    picks = rng.choice(len(train_table), size=n_baselines, replace=False)
    baselines = [np.zeros(len(model.config.feature_indices))]
    baselines += list(mlp.model_inputs(model, train_table.X[picks]))

    X = mlp.model_inputs(model, test_table.X)
    attributions = explain.exact_shapley_batch(model, X, baselines)
    ids = [f"{paper}:{author}"
           for paper, author in zip(test_table.paper_ids, test_table.author_ids)]
    explain.write_attributions(attributions, ids, model.input_names, attributions_file)
    rows = explain.shap_summary(attributions, model.input_names)
    explain.write_summary(rows, summary)
    explain.write_summary_svg(rows, svg)
    print(f"explain: {len(attributions)} attributions, top feature {rows[0].feature}")


def cmd_lratio(args, config, corpus, labels_file, lratio) -> None:
    from . import ingest, metrics

    records = ingest.read_corpus(corpus)
    labels = _read_labels(labels_file)

    teams = {}
    for rec in records:
        label = labels.get(rec.record_id)
        if label is not None:
            teams.setdefault(rec.paper_id, []).append(label)
    rows = ([pid, len(team), repr(metrics.l_ratio(team))] for pid, team in sorted(teams.items()))
    artifacts.write_csv(lratio, ["paper_id", "team_size", "l_ratio"], rows)
    print(f"lratio: {len(teams)} papers")


def cmd_report(args, config, labels_file, distribution_file) -> None:
    from . import metrics

    distribution = metrics.label_distribution(list(_read_labels(labels_file).values()))
    rows = ([role.value, count] for role, count in distribution.items())
    artifacts.write_csv(distribution_file, ["role", "count"], rows)
    print(f"report: written to {distribution_file}")


RULE_LABELS = "labels_rule.jsonl"

# stage name -> (handler, help, the files it reads, the files it writes, stage-specific
# arguments as (flag, add_argument kwargs)). A file is named as it is in --output-dir,
# except "labels": --labels if given, else RULE_LABELS. main checks that the files read
# exist, then calls handler(args, config, *paths): the path of each file read and then
# of each written, in this order.
STAGES = {
    "ingest": (cmd_ingest, "parse a raw corpus into canonical JSON-lines", (),
               ("corpus.jsonl", "rejects.jsonl"), [
        ("--input", {"required": True}),
        ("--format", {"choices": ["delimited-table", "json-lines"], "default": "delimited-table"}),
        ("--delimiter", {"default": ","}),
    ]),
    "label-rule": (cmd_label_rule, "keyword-hierarchy labeling", ("corpus.jsonl",),
                   (RULE_LABELS,), []),
    "label-llm": (cmd_label_llm, "few-shot chat-backend labeling", ("corpus.jsonl",),
                  ("labels_llm.jsonl",), [
        ("--backend", {"choices": ["mock", "http"], "default": "mock"}),
    ]),
    "featurize": (cmd_featurize, "compute the ten features per labeled record",
                  ("corpus.jsonl", "labels"), ("features.csv",), []),
    "split": (cmd_split, "stratified train/test split", ("features.csv",),
              ("train.csv", "test.csv", "split_manifest.json"), [
        ("--group-by-author", {"action": "store_true"}),
    ]),
    "train": (cmd_train, "train the dense network", ("train.csv",), ("model.json",), []),
    "evaluate": (cmd_evaluate, "score the model on the test partition",
                 ("model.json", "test.csv"), ("metrics.json", "metrics.txt"), []),
    "explain": (cmd_explain, "exact Shapley attributions for test examples",
                ("model.json", "train.csv", "test.csv"),
                ("attributions.csv", "shap_summary.csv", "shap_summary.svg"), []),
    "lratio": (cmd_lratio, "per-paper leadership ratio", ("corpus.jsonl", "labels"),
               ("lratio.csv",), []),
    "report": (cmd_report, "count the labeled records of each role", ("labels",),
               ("distribution.csv",), []),
}


def build_parser(stages: dict = STAGES) -> argparse.ArgumentParser:
    """The parser of the given stages; built for some, its usage still lists them all."""
    parser = argparse.ArgumentParser(prog="teamroles", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(STAGES) + "}")
    for name, (_, help_text, reads, _, arguments) in stages.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        if "labels" in reads:
            p.add_argument("--labels", help=f"labels file (default {RULE_LABELS})")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output-dir", dest="output_dir", help="artifact directory")
        p.add_argument("--cache-dir", dest="cache_dir", help="metadata cache directory")
        p.add_argument("--seed", type=int, help="pipeline seed")
        p.add_argument("--offline", action="store_true", help="never touch the network")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the ten parsers take about 1.7 ms to build, so a stage's run builds its own alone
    stages = {name: STAGES[name] for name in argv[:1] if name in STAGES} or STAGES
    args = build_parser(stages).parse_args(argv)
    try:
        config = load_config(args)
        out_dir = Path(config["output_dir"])
        artifacts.make_dir(out_dir)
        handler, _, reads, writes, _ = STAGES[args.command]
        paths = {name: out_dir / name for name in reads + writes}
        if "labels" in paths:
            paths["labels"] = Path(args.labels) if args.labels else out_dir / RULE_LABELS
        for name in reads:
            if not paths[name].exists():
                raise UpstreamArtifactMissing(args.command, str(paths[name]))
        handler(args, config, *paths.values())
        # only now: a stage that stops on a setting leaves the previous run's record
        artifacts.write_json(out_dir / "config_used.json", {"schema_version": 1, **config})
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except UpstreamArtifactMissing as exc:
        print(f"missing upstream artifact: {exc}", file=sys.stderr)
        return 3
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

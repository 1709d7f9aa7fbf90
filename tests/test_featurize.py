"""The featurize stage against a per-record reference, and its error paths.

`reference_featurize` is the straightforward loop the stage replaces: per
labeled record, resolve the author on the focal work, fetch the author's
profile and extract the features. The stage fetches each work and each
profile once, so these tests hold its output to the reference's bytes and
count its fetches.
"""
import collections
import csv
import dataclasses
import json
import random
import shutil

import pytest

from conftest import feature_table
from teamroles import openalex
from teamroles.cli import _read_labels, main
from teamroles.dataset import read_examples, write_examples
from teamroles.features import extract_features
from teamroles.ingest import group_papers, read_corpus
from teamroles.types import to_binary

CACHE = "tests/fixtures/cache"


def run(out, stage, *argv, cache=CACHE):
    return main([stage, *argv, "--output-dir", str(out), "--cache-dir", str(cache), "--offline"])


def reference_featurize(records, labels, cache_dir):
    client = openalex.OpenAlexClient(openalex.ClientConfig(cache_dir=cache_dir, offline=True))
    focal_by_paper = {}
    for paper in group_papers(records):
        work = client.fetch_work(paper.paper_id)
        focal_by_paper[paper.paper_id] = dataclasses.replace(
            paper, referenced_work_ids=work.referenced_work_ids, topic_ids=work.topic_ids
        )
    rows = []
    for rec in records:
        role = labels.get(rec.record_id)
        if role is None:
            continue
        author_id = client.resolve_author(rec.author_name, rec.paper_id)
        profile = client.fetch_author_profile(author_id)
        features = extract_features(profile, focal_by_paper[rec.paper_id])
        rows.append((author_id, rec.paper_id, features.to_list(), to_binary(role)))
    return feature_table(rows)


@pytest.fixture(scope="module")
def labeled_dir(tmp_path_factory):
    """Ingest, rule labels and features of the fixture corpus."""
    out = tmp_path_factory.mktemp("featurize")
    for stage in (["ingest", "--input", "tests/fixtures/corpus.csv"], ["label-rule"], ["featurize"]):
        assert run(out, *stage) == 0, stage
    return out


def features_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_featurize_matches_per_record_reference(labeled_dir, tmp_path):
    records = read_corpus(labeled_dir / "corpus.jsonl")
    labels = _read_labels(labeled_dir / "labels_rule.jsonl")
    write_examples(reference_featurize(records, labels, CACHE), tmp_path / "reference.csv")
    assert (labeled_dir / "features.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    assert len(features_rows(tmp_path / "reference.csv")) == 296


def test_featurize_matches_reference_on_shuffled_corpus(labeled_dir, tmp_path):
    lines = (labeled_dir / "corpus.jsonl").read_text().splitlines(keepends=True)
    random.Random(7).shuffle(lines)
    (tmp_path / "corpus.jsonl").write_text("".join(lines))
    shutil.copyfile(labeled_dir / "labels_rule.jsonl", tmp_path / "labels_rule.jsonl")
    assert run(tmp_path, "featurize") == 0

    records = read_corpus(tmp_path / "corpus.jsonl")
    labels = _read_labels(tmp_path / "labels_rule.jsonl")
    write_examples(reference_featurize(records, labels, CACHE), tmp_path / "reference.csv")
    assert (tmp_path / "features.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    unshuffled = (labeled_dir / "features.csv").read_text().splitlines()
    assert sorted((tmp_path / "features.csv").read_text().splitlines()) == sorted(unshuffled)


def test_feature_table_round_trips_byte_for_byte(labeled_dir, tmp_path):
    table = read_examples(labeled_dir / "features.csv")
    assert len(table) == 296 and table.X.shape == (296, 10)
    write_examples(table, tmp_path / "features.csv")
    assert (tmp_path / "features.csv").read_bytes() == (labeled_dir / "features.csv").read_bytes()


@pytest.fixture
def fetch_counts(monkeypatch):
    """Arguments of every fetch_work and fetch_author_profile call, per method."""
    calls = collections.defaultdict(list)
    for name in ("fetch_work", "fetch_author_profile"):
        original = getattr(openalex.OpenAlexClient, name)

        def counted(self, key, *args, _original=original, _name=name, **kwargs):
            calls[_name].append(key)
            return _original(self, key, *args, **kwargs)

        monkeypatch.setattr(openalex.OpenAlexClient, name, counted)
    return calls


def test_featurize_fetches_each_paper_and_author_once(labeled_dir, tmp_path, fetch_counts):
    for name in ("corpus.jsonl", "labels_rule.jsonl"):
        shutil.copyfile(labeled_dir / name, tmp_path / name)
    assert run(tmp_path, "featurize") == 0
    rows = features_rows(tmp_path / "features.csv")
    assert len(rows) == 296

    works = collections.Counter(fetch_counts["fetch_work"])
    assert set(works.values()) == {1}
    assert set(works) == {row["paper_id"] for row in rows}
    assert len(works) == 60
    profiles = collections.Counter(fetch_counts["fetch_author_profile"])
    assert set(profiles.values()) == {1}
    assert set(profiles) == {row["author_id"] for row in rows}


def test_fetch_stage_counts_records_and_fetches_once(labeled_dir, tmp_path, fetch_counts, capsys):
    shutil.copyfile(labeled_dir / "corpus.jsonl", tmp_path / "corpus.jsonl")
    cache = tmp_path / "cache"
    shutil.copytree(CACHE, cache)
    assert run(tmp_path, "fetch", cache=cache) == 0
    assert "fetch: 299 profiles, 0 failures" in capsys.readouterr().out
    assert set(collections.Counter(fetch_counts["fetch_work"]).values()) == {1}
    profiles = collections.Counter(fetch_counts["fetch_author_profile"])
    assert set(profiles.values()) == {1}
    assert set(profiles) == {row["author_id"] for row in features_rows(labeled_dir / "features.csv")}


def test_partly_rejected_paper_is_skipped_not_a_traceback(labeled_dir, tmp_path, capsys):
    """A paper whose first row ingest rejected leaves positions 2..n+1 on a team of n."""
    with open("tests/fixtures/corpus.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    first = next(i for i, row in enumerate(rows) if row["paper_id"] == "W1001")
    rows[first]["statement"] = ""
    with open(tmp_path / "corpus.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    for stage in (["ingest", "--input", str(tmp_path / "corpus.csv")], ["label-rule"]):
        assert run(tmp_path, *stage) == 0, stage
    capsys.readouterr()

    assert run(tmp_path, "featurize") == 0
    captured = capsys.readouterr()
    kept = [rec for rec in read_corpus(tmp_path / "corpus.jsonl") if rec.paper_id == "W1001"]
    assert [rec.author_position for rec in kept] == list(range(2, len(kept) + 2))
    for rec in kept:
        assert f"featurize: skipping {rec.record_id}: paper W1001: author_position exceeds" \
            in captured.err
    full = features_rows(labeled_dir / "features.csv")
    partial = features_rows(tmp_path / "features.csv")
    assert partial == [row for row in full if row["paper_id"] != "W1001"]
    assert f"featurize: {len(partial)} examples, {298 - len(partial)} skipped" in captured.out

    assert run(tmp_path, "sample") == 1
    message = f"error: paper W1001: author_position exceeds team size {len(kept)}"
    assert message in capsys.readouterr().err


def assert_bad_profile_work_skips_only_that_authors_rows(labeled_dir, tmp_path, capsys, spoil):
    """Featurize the fixture after `spoil(page, author_id)` damaged the first profile
    page of W1001's first author and returned the error it expects: exactly that
    author's rows are skipped, each with that error."""
    cache = tmp_path / "cache"
    shutil.copytree(CACHE, cache)
    client = openalex.OpenAlexClient(openalex.ClientConfig(cache_dir=cache, offline=True))
    author_id = client.fetch_work("W1001").authorships[0].author_id
    lines = (cache / "authors.jsonl").read_text().splitlines()
    for i, line in enumerate(lines):
        entry = json.loads(line)
        if f"author.id%3A{author_id}&" in entry["request_url"]:
            page = json.loads(entry["body"])
            message = spoil(page, author_id)
            entry["body"] = json.dumps(page)
            lines[i] = json.dumps(entry, sort_keys=True)
            break
    else:
        pytest.fail(f"no cached profile page for {author_id}")
    (cache / "authors.jsonl").write_text("\n".join(lines) + "\n")
    for name in ("corpus.jsonl", "labels_rule.jsonl"):
        shutil.copyfile(labeled_dir / name, tmp_path / name)

    assert run(tmp_path, "featurize", cache=cache) == 0
    err = capsys.readouterr().err
    full = features_rows(labeled_dir / "features.csv")
    lost = [row for row in full if row["author_id"] == author_id]
    assert lost
    assert err.count(message) == len(lost)
    assert features_rows(tmp_path / "features.csv") == [
        row for row in full if row["author_id"] != author_id
    ]


def citation_count(value, reason):
    """A spoil that sets the first work's citation count to `value`."""
    def spoil(page, author_id):
        page["results"][0]["cited_by_count"] = value
        return f"missing or malformed field: cited_by_count {reason}"
    return spoil


def test_malformed_profile_work_skips_only_that_authors_rows(labeled_dir, tmp_path, capsys):
    assert_bad_profile_work_skips_only_that_authors_rows(
        labeled_dir, tmp_path, capsys, citation_count(-1, "(got -1)")
    )


def test_citation_count_above_2_53_skips_only_that_authors_rows(labeled_dir, tmp_path, capsys):
    """A count no float holds exactly is malformed, not an OverflowError in the features."""
    assert_bad_profile_work_skips_only_that_authors_rows(
        labeled_dir, tmp_path, capsys,
        citation_count(10 ** 400, "(got an integer of 401 digits, above 2**53)"),
    )


def test_coauthor_without_id_after_the_profile_author_skips_their_rows(
    labeled_dir, tmp_path, capsys
):
    """A profile builds only its own author's authorship, yet a co-author listed
    after that author with no id still makes the page malformed."""
    def drop_next_coauthors_id(page, author_id):
        for work in page["results"]:
            ids = [auth["author"]["id"].rsplit("/", 1)[-1] for auth in work["authorships"]]
            position = ids.index(author_id) + 2  # of the co-author right after
            if position <= len(ids):
                del work["authorships"][position - 1]["author"]["id"]
                return f"missing or malformed field: authorships.author.id (position {position})"
        pytest.fail(f"no profile work of {author_id} lists a co-author after them")

    assert_bad_profile_work_skips_only_that_authors_rows(
        labeled_dir, tmp_path, capsys, drop_next_coauthors_id
    )

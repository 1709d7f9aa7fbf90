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
from urllib.parse import urlencode

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


def edit_cache(cache, kind, marker, edit):
    """Rewrite the body of the first entry of <cache>/<kind>.jsonl whose request URL
    holds `marker` as edit(body) leaves it; return what edit returns."""
    path = cache / f"{kind}.jsonl"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        entry = json.loads(line)
        if marker in entry["request_url"]:
            body = json.loads(entry["body"])
            result = edit(body)
            entry["body"] = json.dumps(body)
            lines[i] = json.dumps(entry, sort_keys=True)
            path.write_text("\n".join(lines) + "\n")
            return result
    pytest.fail(f"no cached {kind} entry for {marker}")


def first_author():
    """The OpenAlex id of W1001's first author in the fixture cache."""
    client = openalex.OpenAlexClient(openalex.ClientConfig(cache_dir=CACHE, offline=True))
    return client.fetch_work("W1001").authorships[0].author_id


def profile_marker(author_id):
    """What the request URL of an author's first profile page holds."""
    return f"cursor=%2A&filter=author.id%3A{author_id}&"


def featurize_on(labeled_dir, tmp_path, cache):
    """Run featurize on the fixture's corpus and labels with `cache`."""
    for name in ("corpus.jsonl", "labels_rule.jsonl"):
        if not (tmp_path / name).exists():
            shutil.copyfile(labeled_dir / name, tmp_path / name)
    assert run(tmp_path, "featurize", cache=cache) == 0


def assert_skips_only(labeled_dir, tmp_path, err, message, lost):
    """Exactly the rows of the fixture's features.csv for which lost(row) holds are
    skipped, each with `message`; the other rows keep their bytes."""
    full = features_rows(labeled_dir / "features.csv")
    gone = [row for row in full if lost(row)]
    assert gone
    assert err.count(message) == len(gone)
    assert features_rows(tmp_path / "features.csv") == [row for row in full if not lost(row)]


def assert_bad_profile_work_skips_only_that_authors_rows(labeled_dir, tmp_path, capsys, spoil):
    """Featurize the fixture after `spoil(page, author_id)` damaged the first profile
    page of W1001's first author and returned the error it expects: exactly that
    author's rows are skipped, each with that error."""
    cache = tmp_path / "cache"
    shutil.copytree(CACHE, cache)
    author_id = first_author()
    message = edit_cache(cache, "authors", profile_marker(author_id),
                         lambda page: spoil(page, author_id))
    featurize_on(labeled_dir, tmp_path, cache)
    assert_skips_only(labeled_dir, tmp_path, capsys.readouterr().err, message,
                      lambda row: row["author_id"] == author_id)


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


def put(*path, value=None, drop=False):
    """An edit of a metadata body that sets the value at a key path, or deletes it."""
    def edit(body):
        for key in path[:-1]:
            body = body[key]
        if drop:
            del body[path[-1]]
        else:
            body[path[-1]] = value
    return edit


# (what is edited: W1001's first author's first profile page, or W1001's focal work;
# the edit; the field that the skip names)
WRONG_TYPED_METADATA = {
    "results-null": ("profile", put("results", value=None), "results"),
    "result-string": ("profile", put("results", 0, value="W1"), "results"),
    "meta-list": ("profile", put("meta", value=["page2"]), "meta"),
    "authorships-string": ("profile", put("results", 0, "authorships", value="A1"),
                           "authorships (position 1)"),
    "author-string": ("profile", put("results", 0, "authorships", 0, "author", value="A1"),
                      "authorships (position 1)"),
    "concept-string": ("profile", put("results", 0, "concepts", value=["C01"]), "concepts"),
    "reference-number": ("profile", put("results", 0, "referenced_works", value=[5]),
                         "referenced_works"),
    "focal-authorships-object": ("work", put("authorships", value={"author": {"id": "A1"}}),
                                 "authorships (position 1)"),
    "focal-display_name-number": ("work", put("authorships", 0, "author", "display_name", value=5),
                                  "authorships.author.display_name (position 1)"),
    "focal-id-number": ("work", put("id", value=1001), "id (got 1001)"),
    "focal-institutions-string": ("work", put("authorships", 0, "institutions", value="I1"),
                                  "authorships.institutions"),
    "results-missing": ("profile", put("results", drop=True), "results"),
    "publication_year-missing": ("profile", put("results", 0, "publication_year", drop=True),
                                 "publication_year"),
}


@pytest.mark.parametrize("where, edit, field", WRONG_TYPED_METADATA.values(),
                         ids=WRONG_TYPED_METADATA.keys())
def test_malformed_metadata_skips_its_rows_not_a_traceback(labeled_dir, tmp_path, capsys,
                                                          where, edit, field):
    """A field missing or of the wrong JSON type on a profile page skips that author's
    rows, and on a focal work that paper's rows, each with one line naming the field."""
    cache = tmp_path / "cache"
    shutil.copytree(CACHE, cache)
    author_id = first_author()
    if where == "profile":
        edit_cache(cache, "authors", profile_marker(author_id), edit)
        column, value = "author_id", author_id
    else:
        edit_cache(cache, "works", "/works/W1001", edit)
        column, value = "paper_id", "W1001"
    featurize_on(labeled_dir, tmp_path, cache)
    assert_skips_only(labeled_dir, tmp_path, capsys.readouterr().err,
                      f"missing or malformed field: {field}\n", lambda row: row[column] == value)


def test_name_on_no_authorship_skips_only_that_row(labeled_dir, tmp_path, capsys):
    lines = (labeled_dir / "corpus.jsonl").read_text().splitlines(keepends=True)
    first = json.loads(lines[0])
    assert (first["paper_id"], first["author_position"]) == ("W1001", 1)
    lines[0] = json.dumps(dict(first, author_name="Zed Nobody"), sort_keys=True) + "\n"
    (tmp_path / "corpus.jsonl").write_text("".join(lines))
    featurize_on(labeled_dir, tmp_path, CACHE)
    captured = capsys.readouterr()
    assert "featurize: 295 examples, 4 skipped" in captured.out
    author_id = first_author()
    assert_skips_only(labeled_dir, tmp_path, captured.err,
                      "featurize: skipping W1001#1: 'Zed Nobody' not on work W1001\n",
                      lambda row: (row["paper_id"], row["author_id"]) == ("W1001", author_id))


def test_name_two_authorships_share_is_ambiguous(labeled_dir, tmp_path, capsys):
    """Two authorships of W1001 named as its first author: that author's row is an
    AmbiguousMatch, and the second author's own name is then on no authorship."""
    cache = tmp_path / "cache"
    shutil.copytree(CACHE, cache)

    def rename_second_author(work):
        authors = [auth["author"] for auth in work["authorships"]]
        authors[1]["display_name"] = authors[0]["display_name"]
        return [author["id"].rsplit("/", 1)[-1] for author in authors[:2]]

    first, second = edit_cache(cache, "works", "/works/W1001", rename_second_author)
    featurize_on(labeled_dir, tmp_path, cache)
    err = capsys.readouterr().err
    assert f"featurize: skipping W1001#1: ambiguous author match: {[first, second]}\n" in err
    lost = {("W1001", first), ("W1001", second)}
    assert_skips_only(labeled_dir, tmp_path, err, "featurize: skipping W1001#",
                      lambda row: (row["paper_id"], row["author_id"]) in lost)


def test_paper_with_no_labeled_row_is_not_fetched(labeled_dir, tmp_path, capsys, fetch_counts):
    labels = (labeled_dir / "labels_rule.jsonl").read_text().splitlines(keepends=True)
    kept = [line for line in labels if json.loads(line)["record_id"].split("#")[0] != "W1001"]
    assert len(kept) < len(labels)
    (tmp_path / "labels_rule.jsonl").write_text("".join(kept))
    featurize_on(labeled_dir, tmp_path, CACHE)
    captured = capsys.readouterr()
    assert "W1001" not in fetch_counts["fetch_work"] and "W1001" not in captured.err
    full = features_rows(labeled_dir / "features.csv")
    partial = features_rows(tmp_path / "features.csv")
    assert partial == [row for row in full if row["paper_id"] != "W1001"]
    assert f"featurize: {len(partial)} examples, {299 - len(partial)} skipped" in captured.out


def assert_profile_edit_keeps_the_features(labeled_dir, tmp_path, edit):
    """After edit(cache, author_id) on a copy of the fixture cache, W1001's
    first author has the profile they have in the fixture, and features.csv its bytes."""
    cache = tmp_path / "cache"
    shutil.copytree(CACHE, cache)
    author_id = first_author()
    edit(cache, author_id)
    clients = [openalex.OpenAlexClient(openalex.ClientConfig(cache_dir=path, offline=True))
               for path in (CACHE, cache)]
    clean, edited = (client.fetch_author_profile(author_id) for client in clients)
    assert edited == clean
    featurize_on(labeled_dir, tmp_path, cache)
    assert (tmp_path / "features.csv").read_bytes() == (labeled_dir / "features.csv").read_bytes()


def first_author_of_another_paper(author_id):
    """An author of W1002 other than `author_id`."""
    client = openalex.OpenAlexClient(openalex.ClientConfig(cache_dir=CACHE, offline=True))
    return next(auth.author_id for auth in client.fetch_work("W1002").authorships
                if auth.author_id != author_id)


def test_profile_work_the_author_is_not_on_is_left_out(labeled_dir, tmp_path):
    def add_a_work_of_another_author(cache, author_id):
        def other_work(page):
            return next(work for work in page["results"] if not any(
                auth["author"]["id"].endswith(f"/{author_id}") for auth in work["authorships"]))

        second = first_author_of_another_paper(author_id)
        work = edit_cache(cache, "authors", profile_marker(second), other_work)
        edit_cache(cache, "authors", profile_marker(author_id),
                   lambda page: page["results"].append(work))

    assert_profile_edit_keeps_the_features(labeled_dir, tmp_path, add_a_work_of_another_author)


def test_profile_over_two_pages_with_a_repeated_work_counts_it_once(labeled_dir, tmp_path):
    def split_the_page(cache, author_id):
        def keep_the_first_half(page):
            works = page["results"]
            assert len(works) >= 2 and page["meta"]["next_cursor"] is None
            half = len(works) // 2
            page["results"], page["meta"]["next_cursor"] = works[:half + 1], "page2"
            return {"results": works[half:], "meta": {"next_cursor": None}}  # works[half] twice

        second_page = edit_cache(cache, "authors", profile_marker(author_id), keep_the_first_half)
        params = (("cursor", "page2"), ("filter", f"author.id:{author_id}"),
                  ("per-page", openalex.PAGE_SIZE))
        key = f"{openalex.ClientConfig().base_url}/works?{urlencode(params)}"
        openalex.JsonLinesCache(cache).put("authors", key, json.dumps(second_page))

    assert_profile_edit_keeps_the_features(labeled_dir, tmp_path, split_the_page)

import json

import pytest

from teamroles.ingest import (
    CorpusFile,
    FileUnreadable,
    FormatError,
    InsufficientPapers,
    SamplingPlan,
    expected_rows,
    group_papers,
    parse_corpus,
    read_corpus,
    sample_papers,
    write_corpus,
    write_rejects,
)
from teamroles.types import ContributionRecord, Journal, PaperRecord

HEADER = "paper_id,journal,year,author_name,statement\n"


def write_csv(tmp_path, body, name="corpus.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body, encoding="utf-8")
    return CorpusFile(path=path)


def test_parse_happy_path(tmp_path):
    file = write_csv(
        tmp_path,
        "W1,PNAS,2010,Ann Lee,designed the study\n"
        "W1,PNAS,2010,Bo Chen,analyzed data\n"
        "W2,Nature,2015,Cy Park,edited the text\n",
    )
    result = parse_corpus(file)
    assert len(result.records) == 3
    assert result.rejects == []
    # positions assigned per paper when the source has no position column
    assert [r.author_position for r in result.records] == [1, 2, 1]


def test_year_out_of_range_rejected(tmp_path):
    file = write_csv(
        tmp_path,
        "W1,PNAS,1999,Ann Lee,designed\nW1,PNAS,2010,Bo Chen,analyzed\nW2,Nature,2015,Cy Park,edited\n",
    )
    result = parse_corpus(file)
    assert len(result.records) == 2
    assert len(result.rejects) == 1
    assert result.rejects[0].reason == "year_out_of_range"


def test_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("paper_id,journal,year,author_name\nW1,PNAS,2010,Ann Lee\n")
    with pytest.raises(FormatError, match="line 2: field statement: missing$") as excinfo:
        parse_corpus(CorpusFile(path=path))
    assert (excinfo.value.path, excinfo.value.line) == (path, 2)


def test_unreadable_file(tmp_path):
    with pytest.raises(FileUnreadable):
        parse_corpus(CorpusFile(path=tmp_path / "nope.csv"))


def test_json_lines_format(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        {"paper_id": "W1", "journal": "PLOS One", "year": 2012, "author_name": "Ann Lee",
         "statement": "designed"},
        {"paper_id": "W1", "journal": "PLOS One", "year": 2012, "author_name": "Bo Chen",
         "statement": "helped"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows))
    result = parse_corpus(CorpusFile(path=path, format="json-lines"))
    assert len(result.records) == 2
    assert result.records[0].journal is Journal.PLOS_ONE


@pytest.mark.parametrize("field, value, reason", [
    ("year", 2010.7, "bad_year"),
    ("year", 2010.0, "bad_year"),
    ("year", True, "bad_year"),
    ("author_position", 1.9, "bad_author_position"),
    ("author_position", True, "bad_author_position"),
])
def test_json_lines_float_or_bool_integer_is_rejected(tmp_path, field, value, reason):
    path = tmp_path / "corpus.jsonl"
    row = {"paper_id": "W1", "journal": "PNAS", "year": 2010, "author_name": "Ann Lee",
           "statement": "designed", "author_position": 2}
    good = dict(row, paper_id="W2", year="2011", author_position="1")  # strings parse as in CSV
    path.write_text(json.dumps(dict(row, **{field: value})) + "\n" + json.dumps(good) + "\n")
    result = parse_corpus(CorpusFile(path=path, format="json-lines"))
    assert [reject.reason for reject in result.rejects] == [reason]
    assert [(rec.year, rec.author_position) for rec in result.records] == [(2011, 1)]


@pytest.mark.parametrize("field", ["paper_id", "author_name", "statement"])
@pytest.mark.parametrize("value", [None, 7, ["designed"]])
def test_json_lines_text_field_that_is_not_a_string_is_rejected(tmp_path, field, value):
    path = tmp_path / "corpus.jsonl"
    row = {"paper_id": "W1", "journal": "PNAS", "year": 2010, "author_name": "Ann Lee",
           "statement": "designed"}
    path.write_text(json.dumps(dict(row, **{field: value})) + "\n" + json.dumps(row) + "\n")
    result = parse_corpus(CorpusFile(path=path, format="json-lines"))
    assert [(reject.line, reject.reason) for reject in result.rejects] == [(1, f"bad_{field}")]
    assert [(rec.paper_id, rec.author_name, rec.statement) for rec in result.records] == [
        ("W1", "Ann Lee", "designed")]


def test_record_plus_reject_counts_conserved(tmp_path):
    file = write_csv(
        tmp_path,
        "W1,PNAS,2010,A,designed\nW2,Unknown Journal,2010,B,helped\nW3,Nature,1990,C,edited\n",
    )
    result = parse_corpus(file)
    assert len(result.records) + len(result.rejects) == 3


def test_corpus_round_trip(tmp_path):
    file = write_csv(tmp_path, "W1,PNAS,2010,Ann Lee,designed the study\n")
    records = parse_corpus(file).records
    out = tmp_path / "out.jsonl"
    write_corpus(records, out)
    assert read_corpus(out) == records


def test_write_rejects_carries_reason(tmp_path):
    file = write_csv(tmp_path, "W1,PNAS,1999,A,designed\n")
    result = parse_corpus(file)
    out = tmp_path / "rejects.jsonl"
    write_rejects(result.rejects, out)
    row = json.loads(out.read_text().splitlines()[0])
    assert row["reject_reason"] == "year_out_of_range"


def make_pool(per_journal, team_size=4):
    papers = []
    for journal in Journal:
        for i in range(per_journal):
            pid = f"{journal.name}-{i}"
            authors = tuple(
                ContributionRecord(pid, journal, 2010, f"A{k}", k + 1, False, "designed")
                for k in range(team_size)
            )
            papers.append(PaperRecord(pid, journal, 2010, authors))
    return papers


def test_sample_papers_paper_sizes():
    pool = make_pool(300)
    plan = SamplingPlan(per_journal=250, seed=11)
    selected = sample_papers(pool, plan)
    assert len(selected) == 1000
    assert len({p.paper_id for p in selected}) == 1000
    assert all(2 <= p.team_size <= 8 for p in selected)
    for journal in Journal:
        assert sum(1 for p in selected if p.journal is journal) == 250


def test_sample_papers_forced_and_insufficient():
    pool = make_pool(1)
    assert len(sample_papers(pool, SamplingPlan(per_journal=1, seed=0))) == 4
    pool = make_pool(100)
    with pytest.raises(InsufficientPapers):
        sample_papers(pool, SamplingPlan(per_journal=250, seed=0))


def test_sample_papers_excludes_out_of_range_teams():
    pool = make_pool(10, team_size=9)  # too large, ineligible
    with pytest.raises(InsufficientPapers) as excinfo:
        sample_papers(pool, SamplingPlan(per_journal=1, seed=0))
    assert excinfo.value.available == 0


def test_sample_papers_deterministic_and_seed_sensitive():
    pool = make_pool(300)
    a = sample_papers(pool, SamplingPlan(per_journal=250, seed=5))
    b = sample_papers(pool, SamplingPlan(per_journal=250, seed=5))
    c = sample_papers(pool, SamplingPlan(per_journal=250, seed=6))
    assert [p.paper_id for p in a] == [p.paper_id for p in b]
    assert [p.paper_id for p in a] != [p.paper_id for p in c]


def test_sample_papers_independent_of_input_order():
    pool = make_pool(50)
    a = sample_papers(pool, SamplingPlan(per_journal=40, seed=3))
    b = sample_papers(list(reversed(pool)), SamplingPlan(per_journal=40, seed=3))
    assert [p.paper_id for p in a] == [p.paper_id for p in b]


def test_expected_rows():
    assert expected_rows(4, 250, 5) == 5000
    assert expected_rows(1, 1, 1) == 1
    assert expected_rows(4, 500, 5) == 10000
    with pytest.raises(ValueError):
        expected_rows(0, 250, 5)


def test_group_papers_team_size():
    file_records = [
        ContributionRecord("W1", Journal.PNAS, 2010, "A", 1, False, "designed"),
        ContributionRecord("W1", Journal.PNAS, 2010, "B", 2, False, "helped"),
    ]
    papers = group_papers(file_records)
    assert len(papers) == 1
    assert papers[0].team_size == 2


def test_duplicate_position_rejected(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "paper_id,journal,year,author_name,author_position,statement\n"
        "W1,PNAS,2010,Ann Lee,1,designed the study\n"
        "W1,PNAS,2010,Bo Chen,1,analyzed data\n"
        "W1,PNAS,2010,Cy Park,2,edited the text\n",
        encoding="utf-8",
    )
    result = parse_corpus(CorpusFile(path=path))
    assert [r.author_name for r in result.records] == ["Ann Lee", "Cy Park"]
    assert [(rej.line, rej.reason) for rej in result.rejects] == [(3, "duplicate_position")]
    assert len({r.record_id for r in result.records}) == len(result.records)


def test_rejected_row_does_not_take_its_position(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "paper_id,journal,year,author_name,author_position,statement,gold_role\n"
        "W1,PNAS,2010,Ann Lee,1,designed the study,Chief\n"
        "W1,PNAS,2010,Cy Dee,0,edited,\n"
        "W1,PNAS,2010,Bo Chen,1,analyzed data,\n",
        encoding="utf-8",
    )
    result = parse_corpus(CorpusFile(path=path))
    assert [r.author_name for r in result.records] == ["Bo Chen"]
    assert [rej.reason for rej in result.rejects] == ["bad_gold_role", "bad_author_position"]

import itertools
import json
import logging
import shutil

import pytest

from teamroles.errors import FileUnwritable
from teamroles.openalex import (
    AmbiguousMatch,
    ClientConfig,
    FetchFailed,
    JsonLinesCache,
    MalformedResponse,
    NoMatch,
    OfflineCacheMiss,
    OpenAlexClient,
    TokenBucket,
    match_author,
    normalize_name,
    normalize_url,
    parse_work,
)

BASE = "https://api.openalex.org"


def offline_client(cache_dir) -> OpenAlexClient:
    return OpenAlexClient(ClientConfig(cache_dir=cache_dir, offline=True))


def test_normalize_url_sorts_params_and_drops_mailto():
    a = normalize_url(f"{BASE}/works?per-page=200&cursor=*&mailto=x@y.z")
    b = normalize_url(f"{BASE}/works?cursor=*&per-page=200")
    assert a == b


def test_normalize_name():
    assert normalize_name("  José  Álvarez-Núñez ") == "jose alvarez nunez"
    assert normalize_name("J. Smith") == "j smith"


def test_fetch_work_from_fixture_cache(cache_dir):
    client = offline_client(cache_dir)
    work = client.fetch_work("W1001")
    assert work.work_id == "W1001"
    assert work.year >= 2003
    assert len(work.authorships) >= 2
    assert all(a.author_id.startswith("A") for a in work.authorships)


def test_fetch_work_offline_cache_miss(cache_dir):
    client = offline_client(cache_dir)
    with pytest.raises(OfflineCacheMiss):
        client.fetch_work("W999999")


def test_fetch_work_referenced_count_matches_fixture(cache_dir, fixture_cache_raw):
    url = normalize_url(f"{BASE}/works/W1001")
    raw = fixture_cache_raw["works"][url]
    client = offline_client(cache_dir)
    work = client.fetch_work("W1001")
    assert len(work.referenced_work_ids) == len(set(raw["referenced_works"]))


def test_fetch_author_profile_paginates(cache_dir, fixture_cache_raw):
    # A001's fixture listing is split over two cursor pages
    client = offline_client(cache_dir)
    profile = client.fetch_author_profile("A001")
    page1 = fixture_cache_raw["authors"][
        normalize_url(f"{BASE}/works?cursor=*&filter=author.id:A001&per-page=200")
    ]
    assert page1["meta"]["next_cursor"] == "page2"
    total = len(page1["results"]) + len(
        fixture_cache_raw["authors"][
            normalize_url(f"{BASE}/works?cursor=page2&filter=author.id:A001&per-page=200")
        ]["results"]
    )
    assert len(profile.works) == total


def test_cache_idempotence(tmp_path):
    """Two fetches of the same URL perform at most one network request."""
    calls = []

    class CountingClient(OpenAlexClient):
        def _request(self, kind, url):
            cached = self.cache.get(kind, url)
            if cached is not None:
                return json.loads(cached)
            calls.append(url)
            body = {
                "id": "W1",
                "publication_year": 2010,
                "cited_by_count": 1,
                "referenced_works": [],
                "concepts": [],
                "authorships": [
                    {"author": {"id": "A1", "display_name": "Ann Lee"}, "institutions": []}
                ],
            }
            self.cache.put(kind, url, json.dumps(body))
            return body

    client = CountingClient(ClientConfig(cache_dir=tmp_path / "cache"))
    client.fetch_work("W1")
    client.fetch_work("W1")
    assert len(calls) == 1


def test_cache_survives_reload(tmp_path):
    cache = JsonLinesCache(tmp_path / "cache")
    cache.put("works", f"{BASE}/works/W1", '{"x": 1}')
    reloaded = JsonLinesCache(tmp_path / "cache")
    assert reloaded.get("works", f"{BASE}/works/W1") == '{"x": 1}'


def test_cache_newest_entry_wins(tmp_path):
    cache = JsonLinesCache(tmp_path / "cache")
    cache.put("works", f"{BASE}/works/W1", '{"v": 1}')
    cache.put("works", f"{BASE}/works/W1", '{"v": 2}')
    reloaded = JsonLinesCache(tmp_path / "cache")
    assert json.loads(reloaded.get("works", f"{BASE}/works/W1"))["v"] == 2


def test_resolve_author_exact_and_initial(cache_dir, fixture_cache_raw):
    client = offline_client(cache_dir)
    url = normalize_url(f"{BASE}/works/W1001")
    authorships = fixture_cache_raw["works"][url]["authorships"]
    name = authorships[0]["author"]["display_name"]
    expected = authorships[0]["author"]["id"].rsplit("/", 1)[-1]
    assert client.resolve_author(name, "W1001") == expected
    first, last = name.split()
    assert client.resolve_author(f"{first[0]}. {last}", "W1001") == expected


def test_resolve_author_no_match(cache_dir):
    client = offline_client(cache_dir)
    with pytest.raises(NoMatch):
        client.resolve_author("Zz Nobody", "W1001")


def test_resolve_author_ambiguous(tmp_path):
    cache = JsonLinesCache(tmp_path / "cache")
    body = {
        "id": "W1",
        "publication_year": 2010,
        "authorships": [
            {"author": {"id": "A1", "display_name": "John Smith"}, "institutions": []},
            {"author": {"id": "A2", "display_name": "Jane Smith"}, "institutions": []},
        ],
    }
    cache.put("works", f"{BASE}/works/W1", json.dumps(body))
    client = offline_client(tmp_path / "cache")
    with pytest.raises(AmbiguousMatch):
        client.resolve_author("J. Smith", "W1")


def raw_work(*authors, **fields):
    """A work body with the given (author id, display name) authorships."""
    body = {
        "id": "W1",
        "publication_year": 2010,
        "authorships": [
            {"author": {"id": aid, "display_name": name}, "institutions": []}
            for aid, name in authors
        ],
    }
    body.update(fields)
    return body


@pytest.mark.parametrize(
    "name, expected",
    [
        ("John Smith", "A1"),  # normalized exact match
        ("  JOHN   smith ", "A1"),
        ("Zoë Àlvarez", "A3"),  # diacritics stripped on both sides
        ("J. Smith", "A1"),  # surname + first initial when no exact match
        ("K. Lee", "A2"),
    ],
)
def test_match_author(name, expected):
    work = parse_work(raw_work(("A1", "John Smith"), ("A2", "Kim Lee"), ("A3", "Zoe Alvarez")))
    assert match_author(work, name) == expected


def test_match_author_failures():
    work = parse_work(raw_work(("A1", "John Smith"), ("A2", "Jane Smith"), ("A3", "Jane Smith")))
    with pytest.raises(AmbiguousMatch) as excinfo:
        match_author(work, "J. Smith")  # two loose matches
    assert excinfo.value.candidates == ["A1", "A2", "A3"]
    with pytest.raises(AmbiguousMatch) as excinfo:
        match_author(work, "Jane Smith")  # two exact matches
    assert excinfo.value.candidates == ["A2", "A3"]
    with pytest.raises(NoMatch, match="not on work W1"):
        match_author(work, "Zz Nobody")
    with pytest.raises(NoMatch, match="empty name"):
        match_author(work, " ?! ")


def test_resolve_author_is_fetch_work_plus_match_author(cache_dir):
    client = offline_client(cache_dir)
    work = client.fetch_work("W1001")
    for authorship in work.authorships:
        expected = match_author(work, authorship.display_name)
        assert client.resolve_author(authorship.display_name, "W1001") == expected


@pytest.mark.parametrize(
    "field_name, value",
    [
        ("cited_by_count", -1),
        ("cited_by_count", 2.5),
        ("cited_by_count", "7"),
        ("cited_by_count", None),
        ("cited_by_count", True),
        ("cited_by_count", 2 ** 53 + 1),
        ("publication_year", -2010),
        ("publication_year", 2010.5),
        ("publication_year", "2010"),
    ],
)
def test_parse_work_rejects_bad_counts(field_name, value):
    with pytest.raises(MalformedResponse) as excinfo:
        parse_work(raw_work(("A1", "Ann Lee"), **{field_name: value}))
    assert excinfo.value.field_name == field_name


def test_parse_work_short_ids():
    work = parse_work(
        {
            "id": "https://openalex.org/W77",
            "publication_year": 2012,
            "cited_by_count": 3,
            "referenced_works": ["https://openalex.org/R1", "R2"],
            "concepts": [{"id": "https://openalex.org/C9"}],
            "authorships": [
                {
                    "author": {"id": "https://openalex.org/A5", "display_name": "Bo Chen"},
                    "is_corresponding": True,
                    "institutions": [{"id": "https://openalex.org/I3"}],
                }
            ],
        }
    )
    assert work.work_id == "W77"
    assert work.referenced_work_ids == {"R1", "R2"}
    assert work.topic_ids == {"C9"}
    assert work.authorships[0].institution_ids == {"I3"}
    assert work.authorships[0].is_corresponding


def test_token_bucket_respects_rate():
    """At most `rate` acquisitions in any 1-second window of fake time."""
    now = [0.0]
    slept = []

    def clock():
        return now[0]

    def sleep(seconds):
        slept.append(seconds)
        now[0] += seconds

    bucket = TokenBucket(rate=4.0, clock=clock, sleep=sleep)
    stamps = []
    for _ in range(20):
        bucket.acquire()
        stamps.append(now[0])
    for i in range(len(stamps)):
        window = [t for t in stamps if stamps[i] <= t < stamps[i] + 1.0]
        assert len(window) <= 4


def test_cache_tolerates_a_torn_last_line(tmp_path, caplog):
    shutil.copytree("tests/fixtures/cache", tmp_path / "cache")
    works = tmp_path / "cache" / "works.jsonl"
    intact = works.read_bytes()
    entries = JsonLinesCache(tmp_path / "cache")._entries["works"]
    with open(works, "ab") as fh:
        fh.write(b'{"body": "{\\"id\\": \\"W9')  # an append cut short
    with caplog.at_level(logging.WARNING, logger="teamroles.openalex"):
        cache = JsonLinesCache(tmp_path / "cache")
    assert cache._entries["works"] == entries
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert str(works) in caplog.records[0].getMessage()

    cache.put("works", f"{BASE}/works/W9", '{"id": "W9"}')
    assert works.read_bytes().startswith(intact)
    assert works.read_bytes()[len(intact):].count(b"\n") == 1  # the new entry, on its own line
    reloaded = JsonLinesCache(tmp_path / "cache")
    assert reloaded._entries["works"] == {**entries, normalize_url(f"{BASE}/works/W9"): '{"id": "W9"}'}


class FakeResponse:
    def __init__(self, status_code, text='{"id": "W1", "publication_year": 2010, "authorships": []}'):
        self.status_code = status_code
        self.text = text


@pytest.fixture
def online(tmp_path, monkeypatch):
    """An online client whose requests.get replays `replies` (responses or exceptions)
    and whose limiter records its sleeps instead of sleeping."""
    requests = pytest.importorskip("requests")
    replies, calls, sleeps = [], [], []

    def fake_get(url, timeout):
        calls.append(url)
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    monkeypatch.setattr(requests, "get", fake_get)
    # a second passes between any two readings, so the limiter never has to wait
    client = OpenAlexClient(ClientConfig(cache_dir=tmp_path / "cache"),
                            clock=itertools.count().__next__, sleep=sleeps.append)
    return client, replies, calls, sleeps


def test_network_errors_are_typed(online):
    import requests

    client, replies, calls, sleeps = online
    for reply in (requests.ConnectionError("refused"), requests.Timeout("slow"), FakeResponse(403)):
        replies.append(reply)
        with pytest.raises(FetchFailed):
            client.fetch_work("W1")
    assert len(calls) == 3 and sleeps == []
    assert client.cache.get("works", f"{BASE}/works/W1") is None


def test_server_errors_are_retried(online):
    client, replies, calls, sleeps = online
    replies += [FakeResponse(500), FakeResponse(503), FakeResponse(200)]
    assert client.fetch_work("W1").work_id == "W1"
    assert len(calls) == 3 and sleeps == [2.0, 4.0]

    replies += [FakeResponse(502)] * 3
    with pytest.raises(FetchFailed):
        client.fetch_work("W2")
    assert len(calls) == 6 and sleeps == [2.0, 4.0, 2.0, 4.0]
    assert client.cache.get("works", f"{BASE}/works/W2") is None


def test_non_json_body_is_not_cached(online, tmp_path):
    client, replies, calls, _ = online
    replies += [FakeResponse(200, "<html>gateway</html>"), FakeResponse(200, "[1]")]
    for _ in range(2):
        with pytest.raises(MalformedResponse):
            client.fetch_work("W1")
    assert client.cache.get("works", f"{BASE}/works/W1") is None
    assert not (tmp_path / "cache" / "works.jsonl").exists()


def test_failed_cache_append_is_file_unwritable(online, tmp_path):
    client, replies, _, _ = online
    (tmp_path / "cache" / "works.jsonl").mkdir(parents=True)  # in the way of the append
    replies.append(FakeResponse(200))
    with pytest.raises(FileUnwritable, match="works.jsonl"):
        client.fetch_work("W1")
    assert client.cache.get("works", f"{BASE}/works/W1") is None

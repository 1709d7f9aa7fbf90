import dataclasses
import itertools
import json
import logging
import shutil
import tempfile
import tracemalloc
from pathlib import Path
from urllib.parse import parse_qs, parse_qsl, urlencode, urlsplit, urlunsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamroles.errors import FileUnwritable, FormatError
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
    parse_work,
)

BASE = "https://api.openalex.org"


def normalize_url(url: str) -> str:
    """The reference key form of a request URL: query parameters sorted and
    encoded, mailto dropped. The client builds its keys in this form."""
    parts = urlsplit(url)
    params = [(k, v) for k, v in parse_qsl(parts.query) if k != "mailto"]
    return urlunsplit((parts.scheme, parts.netloc, parts.path, urlencode(sorted(params)), ""))


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


def test_works_share_one_string_per_reference_topic_and_institution_id():
    def parsed(work_id):
        # a fresh id string each call, as a freshly decoded body has
        full = lambda short: "".join(["https://openalex.org/", short])
        body = raw_work(("A1", "Ann Lee"), id=work_id, referenced_works=[full("W900")],
                        concepts=[{"id": full("C7")}])
        body["authorships"][0]["institutions"] = [{"id": full("I4")}]
        return parse_work(body)

    first, second = parsed("W1"), parsed("W2")
    for ids in (lambda w: w.referenced_work_ids, lambda w: w.topic_ids,
                lambda w: w.authorships[0].institution_ids):
        (one,), (other,) = ids(first), ids(second)
        assert one == other and one is other


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


def cached_bodies(cache: JsonLinesCache, kind: str) -> dict:
    """Every key of a kind, with the body get returns for it."""
    return {key: cache.get(kind, key) for key in cache._entries.get(kind, {})}


def test_cache_tolerates_a_torn_last_line(tmp_path, caplog):
    shutil.copytree("tests/fixtures/cache", tmp_path / "cache")
    works = tmp_path / "cache" / "works.jsonl"
    intact = works.read_bytes()
    bodies = cached_bodies(JsonLinesCache(tmp_path / "cache"), "works")
    with open(works, "ab") as fh:
        fh.write(b'{"body": "{\\"id\\": \\"W9')  # an append cut short
    with caplog.at_level(logging.WARNING, logger="teamroles.openalex"):
        cache = JsonLinesCache(tmp_path / "cache")
    assert cached_bodies(cache, "works") == bodies
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert str(works) in caplog.records[0].getMessage()

    cache.put("works", f"{BASE}/works/W9", '{"id": "W9"}')
    assert works.read_bytes().startswith(intact)
    assert works.read_bytes()[len(intact):].count(b"\n") == 1  # the new entry, on its own line
    expected = {**bodies, f"{BASE}/works/W9": '{"id": "W9"}'}
    assert cached_bodies(cache, "works") == expected
    assert cached_bodies(JsonLinesCache(tmp_path / "cache"), "works") == expected


def test_cache_load_holds_no_body(tmp_path):
    """The load keeps where each entry is, not its body: what it leaves allocated
    is less than one body, however many bodies the file holds."""
    size = 256 * 1024
    bodies = {f"{BASE}/works/W{i}": json.dumps({"id": f"W{i}", "pad": str(i) * size})
              for i in range(8)}
    writer = JsonLinesCache(tmp_path / "cache")
    for key, body in bodies.items():
        writer.put("works", key, body)
    del writer
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cache = JsonLinesCache(tmp_path / "cache")
        held, peak = (used - before for used in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert held < size
    assert peak < len(bodies) * size  # one line at a time, never every body at once
    assert cached_bodies(cache, "works") == bodies


# an operation on the cache: ("put", kind, key number, body), ("tear", kind, share of
# a line an interrupted append wrote before the process ended) or ("reload",)
_cache_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), st.sampled_from(["works", "authors"]),
              st.integers(0, 3), st.text(max_size=20)),
    st.tuples(st.just("tear"), st.sampled_from(["works", "authors"]), st.floats(0.01, 0.99)),
    st.tuples(st.just("reload")),
), max_size=25)


@settings(max_examples=60, deadline=None)
@given(_cache_ops)
def test_cache_matches_a_newest_entry_wins_model(ops):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "cache"
        cache = JsonLinesCache(root)
        model = {}  # kind -> key -> body
        for op in ops:
            if op[0] == "put":
                _, kind, number, body = op
                key = f"{BASE}/works/W{number}"
                cache.put(kind, key, body)
                model.setdefault(kind, {})[key] = body
            elif op[0] == "tear":
                _, kind, share = op
                line = json.dumps({"body": "x" * 40, "request_url": f"{BASE}/works/W9"})
                root.mkdir(parents=True, exist_ok=True)
                with open(root / f"{kind}.jsonl", "ab") as fh:
                    fh.write(line[:max(1, int(share * len(line)))].encode())
                cache = JsonLinesCache(root)  # the next process after the one that died
            else:
                cache = JsonLinesCache(root)
            for kind in ("works", "authors"):
                assert cached_bodies(cache, kind) == model.get(kind, {})
                assert cache.get(kind, f"{BASE}/works/W9") is None
            assert cache._entries == JsonLinesCache(root)._entries  # what a reload would index


def test_put_after_a_torn_line_keeps_what_another_writer_appended(tmp_path):
    first = JsonLinesCache(tmp_path / "cache")
    first.put("works", f"{BASE}/works/W1", '{"v": 1}')
    with open(tmp_path / "cache" / "works.jsonl", "ab") as fh:
        fh.write(b'{"body": "{\\"v')  # an append cut short
    ours, theirs = JsonLinesCache(tmp_path / "cache"), JsonLinesCache(tmp_path / "cache")
    theirs.put("works", f"{BASE}/works/W2", '{"v": 2}')  # replaces the torn line
    ours.put("works", f"{BASE}/works/W3", '{"v": 3}')
    reloaded = JsonLinesCache(tmp_path / "cache")
    assert cached_bodies(reloaded, "works") == {
        f"{BASE}/works/W{n}": f'{{"v": {n}}}' for n in (1, 2, 3)
    }
    line, offset, length = ours._entries["works"][f"{BASE}/works/W3"]
    assert line == 3  # W1, W2, then W3
    assert reloaded._entries["works"][f"{BASE}/works/W3"] == (line, offset, length)


@pytest.mark.parametrize("rewrite", [
    lambda data: b"",
    lambda data: data[:data.index(b"\n") // 2],
    lambda data: b"\n".join(reversed(data.rstrip(b"\n").split(b"\n"))) + b"\n",
    lambda data: b"x" * len(data),
], ids=["emptied", "cut-in-line-1", "lines-swapped", "overwritten"])
def test_cache_rewritten_under_a_loaded_cache_is_a_format_error(tmp_path, rewrite):
    cache = JsonLinesCache(tmp_path / "cache")
    for number in (1, 2):  # lines of one length, so swapped lines still align
        cache.put("works", f"{BASE}/works/W{number}", f'{{"v": {number}}}')
    works = tmp_path / "cache" / "works.jsonl"
    works.write_bytes(rewrite(works.read_bytes()))
    for number in (1, 2):
        with pytest.raises(FormatError) as excinfo:
            cache.get("works", f"{BASE}/works/W{number}")
        assert (excinfo.value.path, excinfo.value.line) == (works, number)


def _old_profile_url(author_id, cursor):
    return f"{BASE}/works?cursor={cursor}&filter=author.id:{author_id}&per-page=200"


class KeyRecordingClient(OpenAlexClient):
    """Records the keys the client asks for and answers each with a canned body:
    one work, or a profile page that leads on to the next of `cursors`."""

    def __init__(self, cursors=()):
        super().__init__(ClientConfig(cache_dir=Path("no-such-cache"), offline=True))
        self.cursors = list(cursors)
        self.keys = []

    def _request(self, kind, key):
        self.keys.append(key)
        if kind == "works":
            return raw_work(("A1", "Ann Lee"))
        return {"results": [], "meta": {"next_cursor": self.cursors.pop(0) if self.cursors else None}}


_no_surrogates = st.characters(blacklist_categories=("Cs",))


@settings(max_examples=200, deadline=None)
@given(work_id=st.text(), author_id=st.text(_no_surrogates, min_size=1),
       cursors=st.lists(st.text(_no_surrogates, min_size=1), max_size=3))
def test_client_keys_are_normalized_urls(work_id, author_id, cursors):
    """The key the client builds is already the normalize_url form of the URL it
    requests, with or without a mailto parameter."""
    client = KeyRecordingClient(cursors)
    client.fetch_work(work_id)
    client.fetch_author_profile(author_id)
    assert len(client.keys) == 2 + len(cursors)
    for key in client.keys:
        assert normalize_url(key) == key
        assert normalize_url(f"{key}{'&' if '?' in key else '?'}mailto=x@y.z") == key


_openalex_id = st.from_regex(r"[A-Z][0-9]{1,10}", fullmatch=True)


@settings(max_examples=100, deadline=None)
@given(work_id=_openalex_id, author_id=_openalex_id,
       cursor=st.text(st.sampled_from("abcXYZ019/=*"), min_size=1))
def test_client_keys_find_entries_stored_under_the_old_urls(work_id, author_id, cursor):
    """For OpenAlex ids and cursors, the keys equal the normalize_url form of the
    URLs the client built before it built keys, so existing cache files still hit."""
    client = KeyRecordingClient([cursor])
    client.fetch_work(f"https://openalex.org/{work_id}")
    client.fetch_author_profile(author_id)
    assert client.keys == [
        normalize_url(f"{BASE}/works/{work_id}"),
        normalize_url(_old_profile_url(author_id, "*")),
        normalize_url(_old_profile_url(author_id, cursor)),
    ]


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


# a 404 fails at once, a 429 after two retries
@pytest.mark.parametrize("status, slept", [(404, []), (429, [2.0, 4.0])])
def test_not_found_and_rate_limited_fail_with_their_status(online, status, slept):
    client, replies, calls, sleeps = online
    replies += [FakeResponse(status)] * (len(slept) + 1)
    with pytest.raises(FetchFailed, match=rf"/works/W1: HTTP {status}$"):
        client.fetch_work("W1")
    assert len(calls) == len(slept) + 1 and sleeps == slept
    assert client.cache.get("works", f"{BASE}/works/W1") is None


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


def test_profile_request_url_is_its_cache_key(online):
    client, replies, calls, _ = online
    replies.append(FakeResponse(200, '{"results": [], "meta": {"next_cursor": null}}'))
    client.fetch_author_profile("A1")
    key = f"{BASE}/works?cursor=%2A&filter=author.id%3AA1&per-page=200"
    assert calls == [key]
    assert json.loads(client.cache.get("authors", key)) == {"results": [], "meta": {"next_cursor": None}}


def test_mailto_is_encoded_in_the_request_url_and_left_out_of_the_key(online):
    """A '+' or '&' in the address reaches the server as written, not as a space
    or a second parameter."""
    client, replies, calls, _ = online
    mailto = "me+openalex@example.org&x=1"
    client.config = dataclasses.replace(client.config, mailto=mailto)
    replies.append(FakeResponse(200))
    client.fetch_work("W1")
    assert parse_qs(urlsplit(calls[0]).query) == {"mailto": [mailto]}
    assert client.cache.get("works", f"{BASE}/works/W1") is not None

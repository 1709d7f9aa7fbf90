"""OpenAlex metadata client with an append-only cache and offline mode.

The cache is one JSON-lines file per entity kind, keyed by normalized
request URL; with offline=True no network call is ever made, so a
complete fixture cache makes the downstream pipeline byte-reproducible.
The files are the store: in memory the cache keeps only where each key's
newest line is and reads the body from the file on each lookup, one
os.pread per lookup, so its memory grows with the number of entries, not
with their bytes. The client builds its request URLs in normalized form,
so they are keys as they stand.

A focal work goes through parse_work, which builds every authorship for
name matching. A work on an author's profile page is checked the same way,
down to every authorship's author id, but only the profile author's own
authorship is built, since a history entry reads nothing else of it. Both
records are built once each, as checked tuples (Authorship, WorkEntry), and
a field of the wrong JSON type is a MalformedResponse naming it, never a
wrong value: a `referenced_works` that is not a list is rejected, not read
character by character or key by key.
"""
from __future__ import annotations

import functools
import json
import logging
import os
import re
import threading
import time
import unicodedata
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple
from urllib.parse import quote, urlencode

from . import artifacts
from .errors import FileUnwritable, FormatError, PipelineError, TruncatedLine
from .types import AuthorProfile, WorkEntry

PAGE_SIZE = 200
MAX_REQUESTS_PER_SECOND = 8.0

log = logging.getLogger(__name__)


class OfflineCacheMiss(PipelineError):
    pass


class FetchFailed(PipelineError):
    """The request failed: no connection, a timeout, or an error status."""


class MalformedResponse(PipelineError):
    def __init__(self, field_name: str, detail: str = ""):
        super().__init__(f"missing or malformed field: {field_name} {detail}".strip())
        self.field_name = field_name


class NoMatch(PipelineError):
    pass


class AmbiguousMatch(PipelineError):
    def __init__(self, candidates: List[str]):
        super().__init__(f"ambiguous author match: {candidates}")
        self.candidates = candidates


@dataclass(frozen=True)
class ClientConfig:
    base_url: str = "https://api.openalex.org"
    mailto: Optional[str] = None
    cache_dir: Path = Path(".openalex-cache")
    offline: bool = False


class TokenBucket:
    """Rate limiter: never more than `rate` acquisitions per 1-second window.

    Capacity is a single token, so acquisitions are spaced at least
    1/rate apart with no initial burst.
    """

    def __init__(self, rate: float, clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.rate = rate
        self.clock = clock
        self.sleep = sleep
        self._next = clock()  # when the next acquisition may go through
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            while (wait := self._next - self.clock()) > 0:
                self.sleep(wait)
            self._next = self.clock() + 1.0 / self.rate


def _cache_entry(entry: dict) -> Tuple[str, str]:
    return entry["request_url"], entry["body"]


class JsonLinesCache:
    """Append-only per-kind cache; lookups return the newest entry for a key.

    A key is a request URL in normalized form: query parameters sorted and
    encoded, no mailto. The files are the store: the load checks every line
    and keeps, for each kind and key, only where its newest line is (line
    number, byte offset, byte length), and get reads the body back from
    there. A last line cut short by an interrupted append is ignored with a
    warning, and the next put for that kind replaces it; any other line that
    does not parse is a FormatError, and so is a line that no longer holds
    its entry when get reads it back.
    """

    def __init__(self, cache_dir: Path):
        self.cache_dir = Path(cache_dir)
        # kind -> key -> (line number, byte offset, byte length) of its newest line
        self._entries: Dict[str, Dict[str, Tuple[int, int, int]]] = {}
        # kind -> (line number, end byte offset) of the last row of its file
        self._ends: Dict[str, Tuple[int, int]] = {}
        self._torn: set = set()  # kinds whose file ends in a cut-short line
        self._paths: Dict[str, Path] = {}  # kind -> its file, built once: get opens it each time
        self._lock = threading.Lock()
        self._load()

    def _path(self, kind: str) -> Path:
        if kind not in self._paths:
            self._paths[kind] = self.cache_dir / f"{kind}.jsonl"
        return self._paths[kind]

    def _load(self) -> None:
        if not self.cache_dir.is_dir():
            return
        for path in sorted(self.cache_dir.glob("*.jsonl")):
            kind = path.stem
            table = self._entries.setdefault(kind, {})
            number = end = 0
            try:
                for number, start, end, (key, _) in artifacts.read_jsonl_spans(path, _cache_entry):
                    table[key] = (number, start, end - start)
            except TruncatedLine as exc:
                log.warning("ignoring a cut-short cache line: %s", exc)
                self._torn.add(kind)
            self._ends[kind] = (number, end)

    def get(self, kind: str, key: str) -> Optional[str]:
        where = self._entries.get(kind, {}).get(key)
        if where is None:
            return None
        number, start, length = where
        path = self._path(kind)
        found, body = artifacts.read_jsonl_at(path, number, start, start + length, _cache_entry)
        if found != key:
            raise FormatError(path, number, f"holds {found!r}, not {key!r}: "
                                            "the file changed after the cache loaded it")
        return body

    def put(self, kind: str, key: str, body: str) -> None:
        entry = {
            "request_url": key,
            "fetched_at": datetime.now(timezone.utc).isoformat(),
            "body": body,
        }
        line = (artifacts.encode_row(entry) + "\n").encode("utf-8")
        with self._lock:
            artifacts.make_dir(self.cache_dir)
            number, end = self._ends.get(kind, (0, 0))
            try:
                with open(self._path(kind), "a+b") as fh:
                    if kind in self._torn:
                        # drop the cut-short line, so this entry starts a line of its own;
                        # what follows the last row loaded is read back, so whole lines
                        # that another process appended since are kept
                        fh.seek(end)
                        tail = fh.read()
                        fh.truncate(end + tail.rfind(b"\n") + 1)
                        number += tail.count(b"\n")
                        self._torn.discard(kind)
                    start = fh.seek(0, os.SEEK_END)
                    fh.write(line)
            except OSError as exc:
                raise FileUnwritable(f"cannot append to {self._path(kind)}: {exc}") from exc
            self._entries.setdefault(kind, {})[key] = (number + 1, start, len(line))
            self._ends[kind] = (number + 1, start + len(line))


class Authorship(NamedTuple):  # a tuple: parse_work builds one per author of every work
    author_id: str
    display_name: str
    position: int  # 1-based
    is_corresponding: bool
    institution_ids: frozenset


@dataclass(frozen=True)
class RawWork:
    work_id: str
    year: int
    citation_count: int
    referenced_work_ids: frozenset
    topic_ids: frozenset
    authorships: Tuple[Authorship, ...]


def _short_id(openalex_id: str) -> str:
    # "https://openalex.org/W123" and "W123" both normalize to "W123"
    return openalex_id.rsplit("/", 1)[-1]


# The works of a cache cite and share a few hundred reference, topic and
# institution ids, so each gets one string, also in the sets a featurize run
# holds. Author and work ids, mostly distinct, are left out: they would fill
# the memo without hits.
_shared_short_id = functools.lru_cache(maxsize=1 << 14)(_short_id)


# The largest count accepted: every integer up to it is exact as a float, and
# the features divide counts and their sums as floats.
_COUNT_MAX = 2 ** 53


def _count(data: dict, name: str, default=None) -> int:
    """A non-negative integer field of at most 2**53; anything else is a malformed response."""
    value = data.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise MalformedResponse(name, f"(got {value!r})")
    if value > _COUNT_MAX:
        raise MalformedResponse(name, f"(got an integer of {len(str(value))} digits, above 2**53)")
    return value


# A field of the wrong JSON type shows as one of these while a body is walked;
# each walk turns it into a MalformedResponse naming the field, so the checks
# cost nothing on a well-formed work.
_WRONG_TYPE = (AttributeError, TypeError)


def _id_year_and_citations(data: dict) -> Tuple[str, int, int]:
    """A work's short id, publication year and citation count, after checking
    that it has an id, a year and an authorship list."""
    for name in ("id", "publication_year", "authorships"):
        if data.get(name) is None:
            raise MalformedResponse(name)
    try:
        work_id = _short_id(data["id"])
    except _WRONG_TYPE as exc:
        raise MalformedResponse("id", f"(got {data['id']!r})") from exc
    return work_id, _count(data, "publication_year"), _count(data, "cited_by_count", 0)


def _author_ids(data: dict) -> List[str]:
    """The short author id of each authorship of a work, in position order; an
    authorship without one is a malformed response."""
    ids = []
    try:
        for i, auth in enumerate(data["authorships"]):
            author = auth.get("author") or {}
            if not author.get("id"):
                raise MalformedResponse("authorships.author.id", f"(position {i + 1})")
            ids.append(_short_id(author["id"]))
    except _WRONG_TYPE as exc:
        raise MalformedResponse("authorships", f"(position {len(ids) + 1})") from exc
    return ids


def _institution_ids(auth: dict) -> frozenset:
    try:
        return frozenset(
            _shared_short_id(inst["id"]) for inst in auth.get("institutions", []) if inst.get("id")
        )
    except _WRONG_TYPE as exc:
        raise MalformedResponse("authorships.institutions") from exc


def _topic_and_reference_ids(data: dict) -> Tuple[frozenset, frozenset]:
    # topics read from the concept id list as delivered by the API
    try:
        topic_ids = frozenset(
            _shared_short_id(c["id"])
            for c in data.get("concepts") or data.get("topics") or []
            if c.get("id")
        )
    except _WRONG_TYPE as exc:
        raise MalformedResponse("concepts" if data.get("concepts") else "topics") from exc
    references = data.get("referenced_works", [])
    if not isinstance(references, list):  # else a string gives its characters, an object its keys
        raise MalformedResponse("referenced_works")
    try:
        return topic_ids, frozenset(map(_shared_short_id, references))
    except _WRONG_TYPE as exc:
        raise MalformedResponse("referenced_works") from exc


def parse_work(data: dict) -> RawWork:
    work_id, year, citation_count = _id_year_and_citations(data)
    authorships = []
    for position, (author_id, auth) in enumerate(zip(_author_ids(data), data["authorships"]), 1):
        display_name = auth["author"].get("display_name", "")
        if not isinstance(display_name, str):
            raise MalformedResponse("authorships.author.display_name", f"(position {position})")
        authorships.append(Authorship(author_id, display_name, position,
                                      bool(auth.get("is_corresponding", False)),
                                      _institution_ids(auth)))
    topic_ids, referenced_work_ids = _topic_and_reference_ids(data)
    return RawWork(
        work_id=work_id,
        year=year,
        citation_count=citation_count,
        referenced_work_ids=referenced_work_ids,
        topic_ids=topic_ids,
        authorships=tuple(authorships),
    )


def _profile_entry(data: dict, author_id: str) -> Optional[WorkEntry]:
    """A work of `author_id`'s profile as an entry of their history, or None if
    they are not among its authors. It checks what parse_work checks but the
    names, every authorship's author id included, and builds only the author's
    own authorship: a profile reads nothing of the co-authors."""
    work_id, year, citation_count = _id_year_and_citations(data)
    ids = _author_ids(data)
    topic_ids, referenced_work_ids = _topic_and_reference_ids(data)
    if author_id not in ids:
        return None
    position = ids.index(author_id) + 1
    auth = data["authorships"][position - 1]
    return WorkEntry(work_id, year, position, bool(auth.get("is_corresponding", False)),
                     referenced_work_ids, topic_ids, citation_count, _institution_ids(auth))


@functools.lru_cache(maxsize=1 << 14)  # the same names recur on every work they match
def normalize_name(name: str) -> str:
    """Lowercase, strip diacritics and punctuation, collapse whitespace."""
    decomposed = unicodedata.normalize("NFKD", name)
    stripped = "".join(c for c in decomposed if not unicodedata.combining(c))
    cleaned = re.sub(r"[^a-z0-9\s]", " ", stripped.lower())
    return " ".join(cleaned.split())


def match_author(work: RawWork, name: str) -> str:
    """Match a corpus author name against a work's authorship list.

    Normalized exact match first, then surname + first initial.
    """
    target = normalize_name(name)
    exact = [a for a in work.authorships if normalize_name(a.display_name) == target]
    if len(exact) == 1:
        return exact[0].author_id
    if len(exact) > 1:
        raise AmbiguousMatch([a.author_id for a in exact])

    tokens = target.split()
    if not tokens:
        raise NoMatch(f"empty name for work {work.work_id}")
    surname, initial = tokens[-1], tokens[0][:1]
    loose = []
    for auth in work.authorships:
        cand = normalize_name(auth.display_name).split()
        if cand and cand[-1] == surname and cand[0][:1] == initial:
            loose.append(auth)
    if len(loose) == 1:
        return loose[0].author_id
    if len(loose) > 1:
        raise AmbiguousMatch([a.author_id for a in loose])
    raise NoMatch(f"{name!r} not on work {work.work_id}")


def _parse_body(body: str) -> dict:
    try:
        data = json.loads(body)
    except ValueError as exc:
        raise MalformedResponse("body", f"(not JSON: {exc})") from exc
    if not isinstance(data, dict):
        raise MalformedResponse("body", "(not a JSON object)")
    return data


class OpenAlexClient:
    """Cache-first client; safe to share across threads."""

    def __init__(self, config: ClientConfig, clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.config = config
        self.cache = JsonLinesCache(config.cache_dir)
        self.limiter = TokenBucket(MAX_REQUESTS_PER_SECOND, clock=clock, sleep=sleep)

    def _request(self, kind: str, key: str) -> dict:
        """The JSON object at a request URL in normalized form, which is its cache key."""
        cached = self.cache.get(kind, key)
        if cached is not None:
            return _parse_body(cached)
        if self.config.offline:
            raise OfflineCacheMiss(f"offline mode, not cached: {key}")

        import requests

        full_url = key
        if self.config.mailto:
            sep = "&" if "?" in key else "?"
            full_url = f"{key}{sep}{urlencode({'mailto': self.config.mailto})}"
        for attempt in range(3):
            self.limiter.acquire()
            try:
                resp = requests.get(full_url, timeout=30)
            except requests.RequestException as exc:
                raise FetchFailed(f"{key}: {exc}") from exc
            status = resp.status_code
            if (status == 429 or status >= 500) and attempt < 2:
                self.limiter.sleep(2.0 * (attempt + 1))
                continue
            if not 200 <= status < 300:
                raise FetchFailed(f"{key}: HTTP {status}")
            data = _parse_body(resp.text)
            self.cache.put(kind, key, resp.text)
            return data

    # The request URLs below are built in normalized form (query parameters
    # sorted and encoded, the id quoted, no mailto), so they are cache keys as
    # they stand.
    def fetch_work(self, work_id: str) -> RawWork:
        # surrogatepass: an id read from escaped JSON may hold a lone surrogate
        path = quote(_short_id(work_id), safe="", errors="surrogatepass")
        key = f"{self.config.base_url}/works/{path}"
        return parse_work(self._request("works", key))

    def fetch_author_profile(self, author_id: str) -> AuthorProfile:
        """Page through an author's works and build their publication history."""
        author_id = _short_id(author_id)
        cursor = "*"
        entries: List[WorkEntry] = []
        seen = set()
        while cursor:
            params = (("cursor", cursor), ("filter", f"author.id:{author_id}"),
                      ("per-page", PAGE_SIZE))  # sorted by name
            page = self._request("authors", f"{self.config.base_url}/works?{urlencode(params)}")
            try:
                for raw in page["results"]:
                    entry = _profile_entry(raw, author_id)
                    if entry is None or entry.work_id in seen:
                        continue
                    seen.add(entry.work_id)
                    entries.append(entry)
            except (KeyError, *_WRONG_TYPE) as exc:  # no results, or not a list of objects
                raise MalformedResponse("results") from exc
            try:
                cursor = (page.get("meta") or {}).get("next_cursor")
            except _WRONG_TYPE as exc:
                raise MalformedResponse("meta") from exc
        return AuthorProfile(author_id, tuple(entries))

    def resolve_author(self, name: str, paper_work_id: str) -> str:
        """Fetch a work and match a corpus author name on it (see match_author)."""
        return match_author(self.fetch_work(paper_work_id), name)

"""Few-shot prompting against an abstract chat-completion backend.

The backend is a single `complete(prompt, config) -> text` operation.
Two implementations ship: a generic HTTPS chat-completion client and a
deterministic mock that delegates to the keyword classifier, so the whole
pipeline runs offline.

Every backend gets the same prompt, as in the paper: the role definitions,
the few-shot examples and the instruction are module constants, and the
prompt head they make, with the characters it leaves for the statement
within CHAR_BUDGET, is rendered once at import.
"""
from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

from . import artifacts
from .errors import FormatError, PipelineError
from .rules import NoKeywordMatch, classify_statement
from .types import ContributionRecord, RoleLabel, as_text

TRUNCATION_MARKER = " ...[statement truncated]"
RETRY_BACKOFF_S = 1.0  # first wait after a TransportFailure; doubled per attempt
HTTP_TIMEOUT_S = 30.0
CHAR_BUDGET = 8000  # characters of a whole prompt; a longer statement is cut to fit


class EmptyStatement(PipelineError):
    pass


class UnparseableResponse(PipelineError):
    pass


class TransportFailure(PipelineError):
    pass


DEFAULT_ROLE_DEFINITIONS = """You classify the role of one author of a scientific paper from their self-reported contribution statement. Assign exactly one of three roles:

1. Leadership: designing, conceptualizing, directing, supervising, coordinating, interpreting, conducting, and writing the research.
2. Direct Support: helping, assisting, preparing, collecting, and analyzing.
3. Indirect Support: participating, providing, contributing, commenting, editing, and discussing.

If a statement contains activities from several categories, answer with the highest category present (Leadership ranks above Direct Support, which ranks above Indirect Support)."""

DEFAULT_INSTRUCTION = (
    "Answer with exactly one of: Leadership, Direct Support, Indirect Support."
)

DEFAULT_FEW_SHOT: Tuple[Tuple[str, RoleLabel], ...] = (
    ("Designed the study and supervised the project.", RoleLabel.LEADERSHIP),
    ("Conceptualized the research and wrote the manuscript.", RoleLabel.LEADERSHIP),
    ("Collected the samples and analyzed the data.", RoleLabel.DIRECT_SUPPORT),
    ("Helped with preparing the experiments.", RoleLabel.DIRECT_SUPPORT),
    ("Provided reagents and commented on the manuscript.", RoleLabel.INDIRECT_SUPPORT),
    ("Participated in discussions and edited the text.", RoleLabel.INDIRECT_SUPPORT),
)


_TAIL_FORMAT = '\nStatement: "{stmt}"\nRole:'

# the fixed head of every prompt, and the characters it leaves for the statement
_HEAD = "\n".join([
    DEFAULT_ROLE_DEFINITIONS, "", "Examples:",
    *(f'Statement: "{text}"\nRole: {label.value}' for text, label in DEFAULT_FEW_SHOT),
    "", DEFAULT_INSTRUCTION,
])
_STATEMENT_BUDGET = CHAR_BUDGET - len(_HEAD) - len(_TAIL_FORMAT.format(stmt=""))


@dataclass(frozen=True)
class BackendConfig:
    endpoint_url: str = ""
    model_name: str = "mock"
    temperature: float = 0.01
    max_retries: int = 2
    api_key_env: str = "TEAMROLES_API_KEY"

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


def build_prompt(record: ContributionRecord) -> str:
    """Render the deterministic few-shot prompt for one record."""
    statement = record.statement.strip()
    if not statement:
        raise EmptyStatement(f"record {record.record_id} has an empty statement")

    if len(statement) > _STATEMENT_BUDGET:
        statement = statement[: _STATEMENT_BUDGET - len(TRUNCATION_MARKER)] + TRUNCATION_MARKER
    return _HEAD + _TAIL_FORMAT.format(stmt=statement)


# The three names start with different letters and \b keeps "direct support"
# from matching inside "indirect support", so no two matches share a start.
# A match is as long as its name and the three lengths differ; its text may
# differ from the name in more than case (re.IGNORECASE lets "ſ" match "s").
_ROLE_PATTERN = re.compile(r"\b(leadership|direct support|indirect support)\b", re.IGNORECASE)
_ROLE_BY_LENGTH = {len(label.value): label for label in RoleLabel}


def parse_response(response: str) -> RoleLabel:
    """Last role name mentioned wins; models typically end with the verdict."""
    names = _ROLE_PATTERN.findall(response)
    if not names:
        raise UnparseableResponse(f"no role name in response: {response[:120]!r}")
    return _ROLE_BY_LENGTH[len(names[-1])]


class ChatBackend:
    """Abstract chat-completion backend."""

    def complete(self, prompt: str, config: BackendConfig) -> str:
        raise NotImplementedError


class MockBackend(ChatBackend):
    """Deterministic backend that answers with the keyword classifier's label.

    Extracts the target statement (the final Statement: line of the prompt)
    and classifies it; statements with no keyword produce a refusal, which
    the parser reports as UnparseableResponse.
    """

    def complete(self, prompt: str, config: BackendConfig) -> str:
        marker = 'Statement: "'
        start = prompt.rfind(marker)
        end = prompt.rfind('"\nRole:')
        if start == -1 or end <= start:
            return "I cannot find a statement to classify."
        statement = prompt[start + len(marker) : end]
        try:
            label = classify_statement(statement)
        except NoKeywordMatch:
            return "I cannot determine this."
        return label.value


class HttpBackend(ChatBackend):
    """Generic chat-completion endpoint: POST {model, messages, temperature}."""

    def complete(self, prompt: str, config: BackendConfig) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(config.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        body = {
            "model": config.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": config.temperature,
        }
        try:
            resp = requests.post(
                config.endpoint_url, json=body, headers=headers, timeout=HTTP_TIMEOUT_S
            )
            resp.raise_for_status()
            data = resp.json()
            return data["choices"][0]["message"]["content"]
        except requests.RequestException as exc:
            raise TransportFailure(str(exc)) from exc
        except (KeyError, IndexError, ValueError) as exc:
            raise TransportFailure(f"malformed completion response: {exc}") from exc


class BatchOutcome(NamedTuple):
    """One record's labeling result: a label, or the error that prevented one.

    A tuple, not a frozen dataclass: a label stage builds one per corpus row,
    and a tuple costs a third as much to build and is as immutable.
    """

    record_id: str
    label: Optional[RoleLabel]
    error: Optional[str]
    raw_response_hash: Optional[str]

    @property
    def ok(self) -> bool:
        return self.label is not None


def _classify_one(
    record: ContributionRecord,
    backend: ChatBackend,
    config: BackendConfig,
    sleep: Callable[[float], None],
) -> BatchOutcome:
    try:
        prompt = build_prompt(record)
    except EmptyStatement as exc:
        return BatchOutcome(record.record_id, None, f"EmptyStatement: {exc}", None)

    response = None
    for attempt in range(config.max_retries + 1):
        try:
            response = backend.complete(prompt, config)
            break
        except TransportFailure as exc:
            if attempt == config.max_retries:
                return BatchOutcome(record.record_id, None, f"TransportFailure: {exc}", None)
            sleep(RETRY_BACKOFF_S * (2**attempt))

    digest = hashlib.sha256(response.encode("utf-8")).hexdigest()
    try:
        label = parse_response(response)
    except UnparseableResponse as exc:
        return BatchOutcome(record.record_id, None, f"UnparseableResponse: {exc}", digest)
    return BatchOutcome(record.record_id, label, None, digest)


def classify_batch(
    records: List[ContributionRecord],
    backend: ChatBackend,
    config: BackendConfig = BackendConfig(),
    sleep: Callable[[float], None] = time.sleep,
) -> List[BatchOutcome]:
    """Classify every record; per-record failures never abort the batch.

    Results preserve input order.
    """
    return [_classify_one(r, backend, config, sleep) for r in records]


def write_outcomes(outcomes: List[BatchOutcome], path) -> None:
    rows = (
        {
            "record_id": out.record_id,
            "label": out.label.value if out.label else None,
            "error": out.error,
            "raw_response_hash": out.raw_response_hash,
        }
        for out in outcomes
    )
    artifacts.write_jsonl(path, rows)


def outcome_from_json(data: dict) -> BatchOutcome:
    return BatchOutcome(
        as_text(data["record_id"]),
        None if data.get("label") is None else RoleLabel.from_string(data["label"]),
        data.get("error"),
        data.get("raw_response_hash"),
    )


def read_outcomes(path) -> List[BatchOutcome]:
    """The outcomes of a labels file; a record id on a second line raises FormatError."""
    outcomes, first_line = [], {}
    for number, outcome in artifacts.read_jsonl(path, decode=outcome_from_json):
        line = first_line.setdefault(outcome.record_id, number)
        if line != number:
            raise FormatError(path, number, f"record_id {outcome.record_id} repeats line {line}")
        outcomes.append(outcome)
    return outcomes

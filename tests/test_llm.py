import json
import re

import pytest
import requests
from hypothesis import given
from hypothesis import strategies as st

from teamroles.llm import (
    CHAR_BUDGET,
    DEFAULT_FEW_SHOT,
    DEFAULT_INSTRUCTION,
    DEFAULT_ROLE_DEFINITIONS,
    TRUNCATION_MARKER,
    BackendConfig,
    ChatBackend,
    EmptyStatement,
    HttpBackend,
    MockBackend,
    TransportFailure,
    UnparseableResponse,
    build_prompt,
    classify_batch,
    parse_response,
    read_outcomes,
    write_outcomes,
)
from teamroles.rules import classify_statement
from teamroles.types import ROLE_ORDER, ContributionRecord, Journal, RoleLabel


def make_record(statement, position=1, paper="W1"):
    return ContributionRecord(paper, Journal.PNAS, 2010, "Ann Lee", position, False, statement)


def test_build_prompt_contains_roles_and_statement():
    prompt = build_prompt(make_record("measured the oscillations"))
    for needle in ("Leadership", "Direct Support", "Indirect Support", "measured the oscillations"):
        assert needle in prompt


def test_build_prompt_deterministic():
    record = make_record("collected data")
    assert build_prompt(record) == build_prompt(record)


def test_build_prompt_empty_statement():
    with pytest.raises(EmptyStatement):
        build_prompt(make_record("   "))


def test_build_prompt_truncates_to_budget():
    prompt = build_prompt(make_record("x" * (2 * CHAR_BUDGET)))
    assert len(prompt) <= CHAR_BUDGET
    assert TRUNCATION_MARKER in prompt


TAIL_FORMAT = '\nStatement: "{stmt}"\nRole:'


def reference_head():
    parts = [DEFAULT_ROLE_DEFINITIONS, "", "Examples:"]
    for example_statement, label in DEFAULT_FEW_SHOT:
        parts.append(f'Statement: "{example_statement}"')
        parts.append(f"Role: {label.value}")
    parts += ["", DEFAULT_INSTRUCTION]
    return "\n".join(parts)


def reference_budget():
    """The characters a prompt leaves for its statement."""
    return CHAR_BUDGET - len(reference_head()) - len(TAIL_FORMAT.format(stmt=""))


def build_prompt_reference(statement):
    """The prompt rendered whole for each record, as before its head was rendered once."""
    budget = reference_budget()
    if len(statement) > budget:
        statement = statement[: max(0, budget - len(TRUNCATION_MARKER))] + TRUNCATION_MARKER
    return reference_head() + TAIL_FORMAT.format(stmt=statement)


def test_build_prompt_equals_the_reference_rendering():
    budget = reference_budget()
    lengths = (budget - 1, budget, budget + 1, 2 * CHAR_BUDGET)
    statements = ["designed the study", *("x" * n for n in lengths)]
    for statement in statements:
        prompt = build_prompt(make_record(f"  {statement} "))
        assert prompt.encode() == build_prompt_reference(statement).encode()
    assert len(build_prompt(make_record("x" * budget))) == CHAR_BUDGET
    assert TRUNCATION_MARKER not in build_prompt(make_record("x" * budget))
    assert build_prompt(make_record("x" * (budget + 1))).endswith(TRUNCATION_MARKER + '"\nRole:')


def test_template_requires_all_roles():
    """The few-shot examples show the model every role."""
    assert {label for _, label in DEFAULT_FEW_SHOT} == set(ROLE_ORDER)


def test_parse_response_examples():
    assert parse_response("Leadership") is RoleLabel.LEADERSHIP
    assert (
        parse_response("This involves analysis, so the role is: Direct Support.")
        is RoleLabel.DIRECT_SUPPORT
    )
    with pytest.raises(UnparseableResponse):
        parse_response("I cannot determine this.")


def test_parse_response_last_mention_wins():
    text = "Could be Leadership, but on balance this is Indirect Support"
    assert parse_response(text) is RoleLabel.INDIRECT_SUPPORT


def test_parse_response_direct_not_matched_inside_indirect():
    assert parse_response("indirect support") is RoleLabel.INDIRECT_SUPPORT


ROLE_PATTERNS_REFERENCE = [
    (re.compile(r"\bleadership\b", re.IGNORECASE), RoleLabel.LEADERSHIP),
    (re.compile(r"\bdirect support\b", re.IGNORECASE), RoleLabel.DIRECT_SUPPORT),
    (re.compile(r"\bindirect support\b", re.IGNORECASE), RoleLabel.INDIRECT_SUPPORT),
]


def parse_response_reference(response):
    """One pattern per role name; the match that starts last wins, the first
    pattern on a tie; None without a match."""
    last = None
    for pattern, label in ROLE_PATTERNS_REFERENCE:
        for match in pattern.finditer(response):
            if last is None or match.start() > last[0]:
                last = (match.start(), label)
    return None if last is None else last[1]


def random_case(draw, text):
    return "".join(c.upper() if draw(st.booleans()) else c for c in text)


@st.composite
def responses(draw):
    """Role names, their pieces and other text, in random case, run together
    or apart; under IGNORECASE "ſ" matches "s", and "İ" and "ı" match "i"."""
    pieces = st.sampled_from(["leadership", "direct support", "indirect support", "in",
                              "direct", "support", "leader", "ship", "leaderſhip",
                              "İndirect support", "dırect support"])
    glue = st.text(st.sampled_from(" .:-_\nxé1"), max_size=2)
    parts = draw(st.lists(st.tuples(glue, pieces), max_size=6))
    return "".join(g + random_case(draw, p) for g, p in parts) + draw(glue)


@given(responses())
def test_parse_response_equals_the_pattern_per_role(response):
    try:
        label = parse_response(response)
    except UnparseableResponse:
        label = None
    assert label is parse_response_reference(response)


def test_mock_backend_agrees_with_rule_classifier():
    statements = [
        "Designed the study and provided comments.",
        "Collected samples and analyzed data.",
        "Commented on the manuscript.",
    ]
    records = [make_record(s, paper=f"W{i}") for i, s in enumerate(statements)]
    outcomes = classify_batch(records, MockBackend(), config=BackendConfig())
    assert [o.label for o in outcomes] == [classify_statement(s) for s in statements]
    assert all(o.error is None for o in outcomes)


def test_mock_backend_unclassifiable_statement():
    outcomes = classify_batch([make_record("performed spectroscopy")], MockBackend())
    assert outcomes[0].label is None
    assert "UnparseableResponse" in outcomes[0].error


class TimeoutBackend(ChatBackend):
    def __init__(self):
        self.calls = 0

    def complete(self, prompt, config):
        self.calls += 1
        raise TransportFailure("timed out")


def test_retry_then_per_record_failure():
    backend = TimeoutBackend()
    records = [make_record("designed", paper=f"W{i}") for i in range(3)]
    config = BackendConfig(max_retries=2)
    outcomes = classify_batch(records, backend, config=config, sleep=lambda s: None)
    assert all(o.label is None and "TransportFailure" in o.error for o in outcomes)
    assert backend.calls == 9  # 3 attempts per record, batch never aborts


class FlakyBackend(ChatBackend):
    """Fails once per prompt, then delegates to the mock."""

    def __init__(self):
        self.seen = set()
        self.mock = MockBackend()

    def complete(self, prompt, config):
        if prompt not in self.seen:
            self.seen.add(prompt)
            raise TransportFailure("transient")
        return self.mock.complete(prompt, config)


def test_retry_recovers_transient_failures():
    records = [make_record("designed the work", paper=f"W{i}") for i in range(2)]
    config = BackendConfig(max_retries=1)
    outcomes = classify_batch(records, FlakyBackend(), config=config, sleep=lambda s: None)
    assert all(o.label is RoleLabel.LEADERSHIP for o in outcomes)


def test_empty_batch():
    assert classify_batch([], MockBackend()) == []


def test_batch_preserves_order_and_length():
    statements = ["designed", "performed spectroscopy", "analyzed", "edited"]
    records = [make_record(s, paper=f"W{i}") for i, s in enumerate(statements)]
    outcomes = classify_batch(records, MockBackend())
    assert [o.record_id for o in outcomes] == [r.record_id for r in records]


def test_outcomes_round_trip(tmp_path):
    records = [make_record("designed"), make_record("performed spectroscopy", paper="W2"),
               make_record("  ", paper="W3")]
    outcomes = classify_batch(records, MockBackend())
    assert outcomes[2].error == "EmptyStatement: record W3#1 has an empty statement"
    path = tmp_path / "labels.jsonl"
    write_outcomes(outcomes, path)
    assert read_outcomes(path) == outcomes


def http_reply(status: int, body) -> requests.Response:
    """A response with this status whose body is `body` as JSON, or bytes as they are."""
    reply = requests.Response()
    reply.status_code = status
    reply._content = body if isinstance(body, bytes) else json.dumps(body).encode()
    return reply


def fake_post(monkeypatch, reply):
    """Make requests.post record each call and return `reply`, or raise it if it is
    an exception; return the list of (url, keyword arguments) it records."""
    calls = []

    def post(url, **kwargs):
        calls.append((url, kwargs))
        if isinstance(reply, Exception):
            raise reply
        return reply

    monkeypatch.setattr(requests, "post", post)
    return calls


HTTP_CONFIG = BackendConfig(endpoint_url="https://chat.example/v1/completions",
                            model_name="chat-1", temperature=0.3, api_key_env="TEAMROLES_TEST_KEY")
ANSWER = http_reply(200, {"choices": [{"message": {"content": "Role: Leadership"}}]})


def test_http_backend_posts_the_model_the_prompt_and_the_temperature(monkeypatch):
    monkeypatch.delenv("TEAMROLES_TEST_KEY", raising=False)
    calls = fake_post(monkeypatch, ANSWER)
    assert HttpBackend().complete("the prompt", HTTP_CONFIG) == "Role: Leadership"
    [(url, kwargs)] = calls
    assert url == HTTP_CONFIG.endpoint_url
    assert kwargs["json"] == {"model": "chat-1", "temperature": 0.3,
                              "messages": [{"role": "user", "content": "the prompt"}]}


def test_http_backend_sends_a_key_only_when_its_variable_is_set(monkeypatch):
    calls = fake_post(monkeypatch, ANSWER)
    for value in (None, "", "s3cret"):
        if value is None:
            monkeypatch.delenv("TEAMROLES_TEST_KEY", raising=False)
        else:
            monkeypatch.setenv("TEAMROLES_TEST_KEY", value)
        HttpBackend().complete("the prompt", HTTP_CONFIG)
    assert [kwargs["headers"].get("Authorization") for _, kwargs in calls] == [
        None, None, "Bearer s3cret"]


@pytest.mark.parametrize("reply", [
    requests.ConnectionError("connection refused"),
    requests.Timeout("read timed out"),
    http_reply(503, {"error": "overloaded"}),
    http_reply(401, {"error": "bad key"}),
    http_reply(200, {"id": "cmpl-1"}),
    http_reply(200, {"choices": []}),
    http_reply(200, {"choices": [{"text": "Leadership"}]}),
    http_reply(200, b"<html>not json</html>"),
], ids=["refused", "timeout", "503", "401", "no-choices", "empty-choices", "no-message",
        "not-json"])
def test_http_backend_turns_a_failed_request_into_a_transport_failure(monkeypatch, reply):
    fake_post(monkeypatch, reply)
    with pytest.raises(TransportFailure):
        HttpBackend().complete("the prompt", HTTP_CONFIG)

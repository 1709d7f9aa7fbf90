"""Acceptance suite: one test per release criterion.

Each test is self-contained and runs against the bundled fixture corpus
and metadata cache; `pytest -v tests/test_acceptance.py` prints one
pass/fail line per criterion.
"""
import hashlib
import itertools
import random

import numpy as np
import pytest

from conftest import feature_table
from teamroles.cli import main as cli_main
from teamroles.dataset import read_examples, stratified_split
from teamroles.explain import exact_shapley, gradient_shap
from teamroles.features import apply_normalization, fit_normalization
from teamroles.ingest import CorpusFile, SamplingPlan, expected_rows, parse_corpus, sample_papers
from teamroles.llm import BackendConfig, ChatBackend, MockBackend, TransportFailure, classify_batch
from teamroles.metrics import f1_score
from teamroles.mlp import (
    TrainConfig,
    forward,
    init,
    input_gradient_batch,
    load_model,
    model_input,
    predict,
    train,
)
from teamroles.rules import classify_statement
from teamroles.types import (
    BinaryRole,
    ContributionRecord,
    FeatureVector,
    Journal,
    PaperRecord,
    RoleLabel,
    role_max,
)

# ---------------------------------------------------------------------------
# Criterion 1: published-table internal consistency
# ---------------------------------------------------------------------------

# (model, role, f1, precision, recall); macro rows carry the printed macro F1
PUBLISHED_ROWS = [
    ("GPT-4-1106", "Leadership", 0.993, 0.995, 0.991),
    ("GPT-4-1106", "Direct Support", 0.950, 0.945, 0.953),
    ("GPT-4-1106", "Indirect Support", 0.947, 0.925, 0.970),
    ("Llama3 70B", "Leadership", 0.918, 0.996, 0.851),
    ("Llama3 70B", "Direct Support", 0.569, 0.414, 0.911),
    ("Llama3 70B", "Indirect Support", 0.841, 0.748, 0.961),
    ("Llama2 70B", "Leadership", 0.908, 0.949, 0.870),
    ("Llama2 70B", "Direct Support", 0.352, 0.314, 0.400),
    ("Llama2 70B", "Indirect Support", 0.514, 0.382, 0.789),
    ("Mistral 7x8B", "Leadership", 0.951, 0.969, 0.933),
    ("Mistral 7x8B", "Direct Support", 0.580, 0.538, 0.629),
    ("Mistral 7x8B", "Indirect Support", 0.783, 0.677, 0.926),
]
PUBLISHED_MACRO_F1 = {
    "GPT-4-1106": 0.963,
    "Llama3 70B": 0.776,
    "Llama2 70B": 0.591,
    "Mistral 7x8B": 0.771,
}


def test_criterion_01_published_table_consistency():
    for model, role, f1, precision, recall in PUBLISHED_ROWS:
        recomputed = f1_score(precision, recall)
        assert abs(recomputed - f1) <= 0.0015, (model, role, recomputed, f1)
    for model, printed in PUBLISHED_MACRO_F1.items():
        class_f1s = [row[2] for row in PUBLISHED_ROWS if row[0] == model]
        assert len(class_f1s) == 3
        assert abs(sum(class_f1s) / 3 - printed) <= 0.0015, (model, printed)


# ---------------------------------------------------------------------------
# Criterion 2: dataset sizing
# ---------------------------------------------------------------------------


def test_criterion_02_dataset_sizing():
    assert expected_rows(4, 250, 5) == 5000

    pool = []
    for journal in Journal:
        for i in range(300):
            pid = f"{journal.name}-{i}"
            team = 2 + i % 7  # sizes 2..8, all eligible
            authors = tuple(
                ContributionRecord(pid, journal, 2010, f"A{k}", k + 1, False, "designed")
                for k in range(team)
            )
            pool.append(PaperRecord(pid, journal, 2010, authors))
    selected = sample_papers(pool, SamplingPlan(per_journal=250, seed=0))
    assert len(selected) == 1000
    assert all(2 <= p.team_size <= 8 for p in selected)


# ---------------------------------------------------------------------------
# Criterion 3: rule hierarchy
# ---------------------------------------------------------------------------


def test_criterion_03_rule_hierarchy():
    # worked example: designing (Leadership) + providing (Indirect) -> Leadership
    statement = "N.N. contributed to designing the study and providing materials."
    assert classify_statement(statement) is RoleLabel.LEADERSHIP

    # exhaustive pairwise role_max
    for a, b in itertools.product(RoleLabel, repeat=2):
        expected = a if a.rank >= b.rank else b
        assert role_max(a, b) is expected

    # fuzz: random concatenations of stem words never violate highest-wins
    by_role = {
        RoleLabel.LEADERSHIP: ["designed", "supervised", "wrote", "conceptualized"],
        RoleLabel.DIRECT_SUPPORT: ["helped", "assisted", "collected", "analyzed"],
        RoleLabel.INDIRECT_SUPPORT: ["participated", "provided", "commented", "edited"],
    }
    rng = random.Random(20240742)
    roles = list(RoleLabel)
    for _ in range(10_000):
        chosen = rng.sample(roles, rng.randint(1, 3))
        words = [rng.choice(by_role[role]) for role in chosen]
        rng.shuffle(words)
        expected = max(chosen, key=lambda r: r.rank)
        assert classify_statement(" and ".join(words)) is expected


# ---------------------------------------------------------------------------
# Criterion 4: feature formulas vs an independent brute-force oracle
# ---------------------------------------------------------------------------


def _strip(openalex_id):
    return openalex_id.split("/")[-1]


def _oracle_features(raw_cache, author_id, focal):
    """Naive recomputation straight from the fixture JSON, no shared code."""
    # collect the author's works from every cached listing page
    marker = f"author.id%3A{author_id}"
    raw_works = []
    for url, body in raw_cache["authors"].items():
        if marker in url:
            raw_works.extend(body["results"])
    history = []
    for work in raw_works:
        if work["publication_year"] >= focal["publication_year"]:
            continue
        position = None
        corresponding = False
        institutions = []
        for idx, auth in enumerate(work["authorships"]):
            if _strip(auth["author"]["id"]) == author_id:
                position = idx + 1
                corresponding = auth.get("is_corresponding", False)
                institutions = [_strip(i["id"]) for i in auth.get("institutions", [])]
        if position is None:
            continue
        history.append(
            {
                "year": work["publication_year"],
                "position": position,
                "corresponding": corresponding,
                "institutions": institutions,
                "refs": [_strip(r) for r in work.get("referenced_works", [])],
                "topics": [_strip(c["id"]) for c in work.get("concepts", [])],
                "citations": work.get("cited_by_count", 0),
            }
        )

    if not history:
        return [0.0] * 10

    focal_refs = sorted({_strip(r) for r in focal.get("referenced_works", [])})
    focal_topics = sorted({_strip(c["id"]) for c in focal.get("concepts", [])})

    ref_hits = 0
    for ref in focal_refs:
        if any(ref in w["refs"] for w in history):
            ref_hits += 1
    topic_hits = 0
    for topic in focal_topics:
        if any(topic in w["topics"] for w in history):
            topic_hits += 1

    years = [w["year"] for w in history]
    age = max(years) - min(years)
    total_cites = sum(w["citations"] for w in history)
    topics_seen = set()
    institutions_seen = set()
    for w in history:
        topics_seen.update(w["topics"])
        institutions_seen.update(w["institutions"])

    return [
        ref_hits / len(focal_refs) if focal_refs else 0.0,
        topic_hits / len(focal_topics) if focal_topics else 0.0,
        sum(1 for w in history if w["position"] == 1) / len(history),
        sum(1 for w in history if w["corresponding"]) / len(history),
        float(age),
        float(total_cites),
        float(len(topics_seen)),
        float(len(history)),
        total_cites / (age + 1),
        float(len(institutions_seen)),
    ]


def test_criterion_04_feature_oracle_equivalence(cache_dir, fixture_cache_raw):
    from teamroles.features import extract_features
    from teamroles.openalex import ClientConfig, OpenAlexClient

    client = OpenAlexClient(ClientConfig(cache_dir=cache_dir, offline=True))
    matrix = []
    checked = 0
    for url, focal in fixture_cache_raw["works"].items():
        paper_id = _strip(focal["id"])
        year = focal["publication_year"]
        focal_record = PaperRecord(
            paper_id=paper_id,
            journal=Journal.PNAS,
            year=year,
            authors=tuple(
                ContributionRecord(
                    paper_id, Journal.PNAS, year,
                    auth["author"]["display_name"], i + 1, False, "designed",
                )
                for i, auth in enumerate(focal["authorships"])
            ),
            referenced_work_ids=frozenset(
                _strip(r) for r in focal.get("referenced_works", [])
            ),
            topic_ids=frozenset(_strip(c["id"]) for c in focal.get("concepts", [])),
        )
        for auth in focal["authorships"]:
            author_id = _strip(auth["author"]["id"])
            profile = client.fetch_author_profile(author_id)
            got = extract_features(profile, focal_record).to_list()
            expected = _oracle_features(fixture_cache_raw, author_id, focal)
            assert got == expected, (paper_id, author_id)
            for ratio in got[:4]:
                assert 0.0 <= ratio <= 1.0
            matrix.append(FeatureVector.from_list(got))
            checked += 1
    assert checked >= 100  # the fixture bundle is ~50 authors x 60 papers

    ranges = fit_normalization(np.array([fv.to_list() for fv in matrix]))
    normalized = np.array([apply_normalization(fv, ranges).to_list() for fv in matrix])
    assert np.all(normalized >= 0.0) and np.all(normalized <= 1.0)
    assert np.allclose(normalized.min(axis=0), 0.0)
    assert np.allclose(normalized.max(axis=0), 1.0)


# ---------------------------------------------------------------------------
# Criterion 5: gradient check
# ---------------------------------------------------------------------------


def test_criterion_05_gradient_check():
    rng = np.random.default_rng(0)
    h = 1e-5
    for trial in range(100):
        config = TrainConfig(seed=trial, hidden_sizes=(int(rng.integers(4, 32)),
                                                       int(rng.integers(4, 32))))
        params = init(config)
        # resample until safely away from every ReLU kink
        while True:
            x = rng.uniform(-2.0, 2.0, size=10)
            z1 = params.W1 @ x + params.b1
            z2 = params.W2 @ np.maximum(0.0, z1) + params.b2
            if np.abs(z1).min() > 1e-6 and np.abs(z2).min() > 1e-6:
                break
        analytic = input_gradient_batch(params, x[None, :])[0]
        numeric = np.empty(10)
        for j in range(10):
            e = np.zeros(10)
            e[j] = h
            numeric[j] = (forward(params, x + e) - forward(params, x - e)) / (2 * h)
        scale = max(np.abs(numeric).max(), 1e-12)
        assert np.abs(analytic - numeric).max() / scale <= 1e-4


# ---------------------------------------------------------------------------
# Criterion 6: training sanity and the 10-vs-8 feature margin
# ---------------------------------------------------------------------------


def _f1_leadership(model, examples):
    tp = fp = fn = 0
    for x, label in zip(examples.X, examples.labels):
        predicted = predict(model, FeatureVector.from_list(x))
        if predicted is BinaryRole.LEADERSHIP and label is BinaryRole.LEADERSHIP:
            tp += 1
        elif predicted is BinaryRole.LEADERSHIP:
            fp += 1
        elif label is BinaryRole.LEADERSHIP:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return f1_score(precision, recall)


def _separable_examples(seed, n=200, margin=1.0):
    rng = np.random.default_rng(seed)
    rows = []
    while len(rows) < n:
        ratios = rng.uniform(0.0, 1.0, 4)
        counts = rng.uniform(0.0, 10.0, 6)
        signal = counts[0] + counts[1]
        if abs(signal - 10.0) < margin:
            continue
        label = BinaryRole.LEADERSHIP if signal > 10.0 else BinaryRole.SUPPORT
        rows.append((f"A{len(rows)}", f"W{len(rows)}", list(ratios) + list(counts), label))
    return feature_table(rows)


def _signal_in_last_two(seed, n=300):
    """Features 8 and 9 carry label signal the first eight features lack."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        ratios = rng.uniform(0.0, 1.0, 4)
        counts = rng.uniform(0.0, 10.0, 4)
        s8, s9 = rng.uniform(0.0, 10.0, 2)
        label = (
            BinaryRole.LEADERSHIP
            if s8 + s9 + rng.normal(0.0, 1.0) > 10.0
            else BinaryRole.SUPPORT
        )
        rows.append((f"A{i}", f"W{i}", list(ratios) + list(counts) + [s8, s9], label))
    return feature_table(rows)


def test_criterion_06_training_sanity_and_feature_margin():
    # 20 epochs on a 200-point separable set reach training F1 >= 0.95
    examples = _separable_examples(seed=0)
    config = TrainConfig(seed=0, learning_rate=0.5)
    model = train(examples, config)
    assert len(model.loss_history) == 20
    assert _f1_leadership(model, examples) >= 0.95

    # identical seeds give bit-identical models
    again = train(examples, config)
    assert np.array_equal(model.params.W1, again.params.W1)
    assert np.array_equal(model.params.W2, again.params.W2)
    assert np.array_equal(model.params.W3, again.params.W3)
    assert model.loss_history == again.loss_history

    # substituted property: with signal in features 8-9, the 10-feature
    # model beats the 8-feature model (median margin over 10 seeds > 0)
    margins = []
    for seed in range(10):
        data = _signal_in_last_two(seed)
        split = stratified_split(data, ratio=0.2, seed=seed)
        full = train(split.train, TrainConfig(seed=seed, learning_rate=0.5))
        reduced = train(
            split.train,
            TrainConfig(seed=seed, learning_rate=0.5, feature_indices=tuple(range(8))),
        )
        margins.append(_f1_leadership(full, split.test) - _f1_leadership(reduced, split.test))
    assert float(np.median(margins)) > 0.0


# ---------------------------------------------------------------------------
# Criterion 7: Shapley axioms and estimator agreement
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fixture_pipeline(tmp_path_factory):
    """Offline pipeline over the bundled corpus, shared by criteria 7 and 10."""
    out = tmp_path_factory.mktemp("acceptance")
    common = ["--output-dir", str(out), "--cache-dir", "tests/fixtures/cache", "--offline"]
    for stage in (
        ["ingest", "--input", "tests/fixtures/corpus.csv"],
        ["label-rule"],
        ["featurize"],
        ["split"],
        ["train"],
    ):
        assert cli_main(stage + common) == 0, stage
    return out


def test_criterion_07_shapley_axioms_and_estimator(fixture_pipeline):
    # efficiency, dummy, and symmetry on hand-built models
    weights = np.array([2.0, 0.0, -1.0, 0.5])

    def hand_model(v):
        return float(weights @ v + 0.25 * v[0] * v[3])

    x = np.array([1.0, 5.0, 2.0, 3.0])
    baseline = np.zeros(4)
    attr = exact_shapley(hand_model, x, baseline)
    assert abs(attr.phi.sum() - (hand_model(x) - hand_model(baseline))) <= 1e-9
    assert attr.phi[1] == 0.0  # dummy: coordinate 1 is ignored

    symmetric = lambda v: float(v[0] * v[1] + v[0] + v[1])
    sym = exact_shapley(symmetric, np.array([2.0, 2.0, 0.5]), np.zeros(3))
    assert sym.phi[0] == pytest.approx(sym.phi[1], abs=1e-12)

    # estimator agreement on the trained fixture model, single zero baseline
    model = load_model(fixture_pipeline / "model.json")
    test_table = read_examples(fixture_pipeline / "test.csv")
    zero = np.zeros(10)
    for i, x in enumerate(test_table.X[:5]):
        point = model_input(model, FeatureVector.from_list(x))
        exact = exact_shapley(lambda v: forward(model.params, v), point, zero)
        coarse = gradient_shap(model, point, [zero], n_samples=256, seed=i)
        fine = gradient_shap(model, point, [zero], n_samples=4096, seed=i)
        err_coarse = np.abs(coarse.phi - exact.phi).mean()
        err_fine = np.abs(fine.phi - exact.phi).mean()
        assert err_fine <= 0.02 * np.abs(exact.phi).max()
        assert err_fine <= err_coarse


# ---------------------------------------------------------------------------
# Criterion 8: stratified split proportions
# ---------------------------------------------------------------------------


def test_criterion_08_stratified_split():
    def build(n_lead, n_support):
        return feature_table(
            (f"A{i}", f"W{i}", [0.0] * 4 + [float(i)] * 6,
             BinaryRole.LEADERSHIP if i < n_lead else BinaryRole.SUPPORT)
            for i in range(n_lead + n_support)
        )

    examples = build(100, 300)
    for seed in range(50):
        result = stratified_split(examples, ratio=0.2, seed=seed)
        lead = result.test.labels.count(BinaryRole.LEADERSHIP)
        support = result.test.labels.count(BinaryRole.SUPPORT)
        assert (lead, support) == (20, 60)
        # per-class proportions within one example of the 0.2 target
        assert abs(lead - 0.2 * 100) <= 1
        assert abs(support - 0.2 * 300) <= 1


# ---------------------------------------------------------------------------
# Criterion 9: end-to-end offline determinism
# ---------------------------------------------------------------------------


def _artifact_hashes(out):
    hashes = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            hashes[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def test_criterion_09_end_to_end_determinism(tmp_path):
    out = tmp_path / "run"
    common = ["--output-dir", str(out), "--cache-dir", "tests/fixtures/cache", "--offline"]
    stages = [
        ["ingest", "--input", "tests/fixtures/corpus.csv"],
        ["label-rule"],
        ["featurize"],
        ["split"],
        ["train"],
        ["evaluate"],
        ["explain"],
        ["report"],
    ]

    def run_all():
        for stage in stages:
            assert cli_main(stage + common) == 0, stage

    run_all()
    first = _artifact_hashes(out)
    run_all()
    second = _artifact_hashes(out)
    assert first == second


# ---------------------------------------------------------------------------
# Criterion 10: LLM-path contract
# ---------------------------------------------------------------------------


def test_criterion_10_llm_path_contract(corpus_csv):
    from teamroles.rules import NoKeywordMatch

    records = parse_corpus(CorpusFile(path=corpus_csv)).records
    classifiable = []
    expected = []
    for record in records:
        try:
            expected.append(classify_statement(record.statement))
            classifiable.append(record)
        except NoKeywordMatch:
            continue
    assert classifiable

    outcomes = classify_batch(classifiable, MockBackend())
    assert all(o.error is None for o in outcomes)
    assert [o.label for o in outcomes] == expected  # 100% agreement

    class FailFirst(ChatBackend):
        """Transport failure on one record; the rest must still complete."""

        def __init__(self):
            self.mock = MockBackend()
            self.failed = False

        def complete(self, prompt, config):
            if not self.failed:
                self.failed = True
                raise TransportFailure("injected")
            return self.mock.complete(prompt, config)

    config = BackendConfig(max_retries=0)
    outcomes = classify_batch(classifiable[:10], FailFirst(), config=config,
                              sleep=lambda s: None)
    assert outcomes[0].label is None and "TransportFailure" in outcomes[0].error
    assert all(o.error is None for o in outcomes[1:])
